"""Left-endpoint stochastic integration on discretized paths.

Drivers are ``ProcessPath`` objects (one path, or a batch with a leading
path axis) or raw (..., T, n, n) values; integrals keep the leading axes.
Bound bi-/triprocesses pair a 1- or 2-linear trace polynomial symbol with
adapted argument paths, and elementary predictable integrands freeze a
symbol on time windows.  ``rs_increments`` is the one function that turns
any integrand into its per-step left-endpoint terms: integrals, quadratic
sums, the QC study, the isometry check and the BDG quadratic variation
sum them, whole paths as one ``cumulative_path``; a driver given for
several slots has its increments made once.  The time-blocked studies (Ito
residuals, QC gap) walk their paths in ``process_sim.hbm_windows``.  The
Ito study sums each window's terms with ``carried_sums``, which adds in
the running sum at the point before the window; the QC gap reads only the
end of its sum, which it adds up step by step in the same order.
Quadratic covariation admits a closed form through the gamma contraction,
and the standard identities (Ito isometry, BDG p=2, substitution, QC of
integrals) are exposed as report-producing checks.  ``mesh_study`` runs
the QC and Ito studies over their meshes and builds their records;
``_l1_gap_report`` builds the substitution and QC-of-integrals records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import buffers
from .evaluator import EvalContext, eval_multilinear, eval_poly
from .matrix_alg import _tr_quad, l1_trace_norms, trace_n
from .parsing import parse
from .reports import fit_loglog_slope, make_report
from .trace_poly import (
    ContractionModel,
    LinearityError,
    TracePolynomial,
    classify_linearity,
    compose_linear,
    gamma_contract,
)
from .process_sim import ProcessPath, TimeGrid, hbm_windows, running_sums

# block length of the time-blocked studies: ``ito.ito_sup_residuals`` and
# ``qc_gap_l1`` walk their paths in ``hbm_windows`` of this many grid
# points, so their per-time arrays are (paths, <= block + 1, n, n), never
# (paths, T, n, n)
STUDY_TIME_BLOCK = 64


def _values_of(X):
    if isinstance(X, ProcessPath):
        return X.values
    return np.asarray(X, dtype=complex)


def _grid_of(X):
    if isinstance(X, ProcessPath):
        return X.grid
    raise ValueError("a grid is required for raw value arrays")


def _left(values):
    return values[..., :-1, :, :]


def _increments(values):
    """The steps of ``values`` (..., T, n, n), laid out as ``values``."""
    later = values[..., 1:, :, :]
    return np.subtract(later, values[..., :-1, :, :],
                       out=buffers.empty_like(later))


@dataclass(frozen=True)
class BoundBiprocess:
    """A 1-linear (``BoundTriprocess``: 2-linear) symbol bound to adapted
    argument paths on one grid.

    ``bindings`` maps x-variable indices to value arrays shaped
    (..., T, n, n); a plain (n, n) matrix is treated as constant in time.
    """

    symbolic: TracePolynomial
    grid: TimeGrid
    n: int
    bindings: Mapping[int, np.ndarray] = field(default_factory=dict)
    linearity: ClassVar[int] = 1

    def __post_init__(self):
        if classify_linearity(self.symbolic, self.linearity) == "not-linear":
            raise LinearityError(
                f"symbol must be {self.linearity}-linear in its slots"
            )
        T = len(self.grid.times)
        for i, arr in self.bindings.items():
            arr = np.asarray(arr)
            if arr.shape[-2:] != (self.n, self.n):
                raise ValueError(f"binding x{i} has wrong dimension")
            if arr.ndim >= 3 and arr.shape[-3] != T:
                raise ValueError(
                    f"binding x{i} must be constant or have {T} time points"
                )

    def left_context(self) -> EvalContext:
        """Bindings frozen at left endpoints, one per grid step."""
        left = {}
        for i, arr in self.bindings.items():
            arr = np.asarray(arr, dtype=complex)
            left[i] = arr if arr.ndim == 2 else _left(arr)
        return EvalContext(self.n, left)


class BoundTriprocess(BoundBiprocess):
    linearity: ClassVar[int] = 2


@dataclass(frozen=True)
class ElementaryPredictable:
    """Finitely many windows (s_i, t_i] with a frozen 1-linear symbol each.

    Each piece's bindings are constant matrices sampled at times <= s_i,
    which is where adaptedness lives at this scale.
    """

    pieces: Sequence  # of (s, t, symbolic, bindings)

    def __post_init__(self):
        for s, t, sym, _ in self.pieces:
            if not s < t:
                raise ValueError("windows need s < t")
            if classify_linearity(sym, 1) == "not-linear":
                raise LinearityError("piece symbols must be 1-linear")


def cumulative_path(inc: np.ndarray) -> np.ndarray:
    """The path from 0 with increments ``inc``: (..., T-1, n, n) to
    (..., T, n, n), laid out as ``inc``; its running sums are those of
    ``np.cumsum`` (``process_sim.running_sums``)."""
    out = buffers.empty_like(inc, inc.shape[:-3] + (inc.shape[-3] + 1,)
                             + inc.shape[-2:])
    out[..., 0, :, :] = 0
    running_sums(np.moveaxis(inc, -3, 0),
                 np.moveaxis(out[..., 1:, :, :], -3, 0))
    return out


def carried_sums(terms: np.ndarray, carry: np.ndarray | None = None
                 ) -> np.ndarray:
    """Running sums of one window's per-step terms (..., steps, n, n),
    carried in from the window before: ``carry`` (..., n, n) is the running
    sum at the point before the window, added into its first step, and the
    sums are then made in place in ``terms``, one grid point at a time
    along its time axis (``process_sim.running_sums``: the bits of
    ``np.cumsum``).  A time-major window's ``terms`` add one contiguous
    (..., n, n) slice per grid point.  With ``carry=None`` (the first
    window, from t_0) it is ``cumulative_path(terms)``, which starts at 0.
    Windows carried each into the next hold the same bits as one
    ``cumulative_path`` over the whole path."""
    if carry is None:
        return cumulative_path(terms)
    terms[..., 0, :, :] += carry
    rows = np.moveaxis(terms, -3, 0)
    running_sums(rows, rows)
    return terms


def rs_increments(H, *drivers) -> np.ndarray:
    """Per-step left-endpoint terms H(t_j)[Delta X_j, ...], (..., T-1, n, n).

    A ``BoundBiprocess`` takes one driver and a ``BoundTriprocess`` two,
    bindings frozen at left endpoints.  An ``ElementaryPredictable`` takes
    one path or batch; each piece adds its terms on the steps inside its
    window (s_i, t_i], clipped at the grid's end."""
    made = {}  # a driver of several slots has its increments made once
    for X in drivers:
        if id(X) not in made:
            made[id(X)] = _increments(_values_of(X))
    deltas = [made[id(X)] for X in drivers]
    if not isinstance(H, ElementaryPredictable):
        return eval_multilinear(H.symbolic, H.left_context(), deltas)
    (delta,) = deltas
    grid = _grid_of(drivers[0])
    end = grid.times[-1]
    out = np.zeros(delta.shape, dtype=complex)
    for s, w, sym, bindings in H.pieces:
        steps = slice(grid.index_of(min(s, end)), grid.index_of(min(w, end)))
        out[..., steps, :, :] += eval_multilinear(
            sym, EvalContext(delta.shape[-1], bindings),
            [delta[..., steps, :, :]])
    return out


def rs_integral(H, X) -> np.ndarray:
    """Cumulative left-endpoint integral path, shape (..., T, n, n)."""
    return cumulative_path(rs_increments(H, X))


def quad_rs_path(L: BoundBiprocess, X, Y) -> np.ndarray:
    """Cumulative quadratic Riemann-Stieltjes sum path."""
    return cumulative_path(rs_increments(L, X, Y))


def quad_rs_sum(L: BoundBiprocess, X, Y, t: float) -> np.ndarray:
    """Quadratic sum at time t."""
    terms = rs_increments(L, X, Y)
    return np.sum(terms[..., :L.grid.index_of(t), :, :], axis=-3)


def qc_closed_form(L: BoundBiprocess, model: ContractionModel) -> np.ndarray:
    """Closed-form QC path for a self-adjoint Brownian driver.

    Contracts the 2-linear symbol and integrates it along the bound
    arguments against kappa(dt) = dt with the left rectangle rule.
    """
    G = gamma_contract(L.symbolic, model)
    dts = np.diff(L.grid.times)
    ctx = L.left_context()
    return cumulative_path(eval_poly(G, ctx) * dts[:, None, None])


# -- batch statistics -----------------------------------------------------


def qc_gap_l1(n: int, grid: TimeGrid, paths: int, seed: int, a: np.ndarray,
              chunk: int = 50) -> float:
    """Path mean of tr_n |Q - t tr_n(a) I|, where Q is the quadratic sum of
    the symbol y1 x1 y2 (x1 bound to a) up to the grid's end t, on HBM paths
    0..paths-1 of ``seed`` walked ``chunk`` paths and ``STUDY_TIME_BLOCK``
    grid points at a time (``hbm_windows``), and t tr_n(a) I is its closed
    form.  Only Q at the end is read, so each window's ``rs_increments``
    terms are added onto the carried Q one step at a time, in time order:
    Q holds the bits of one cumsum over the path (``carried_sums``) without
    making the running sums.  Fewer than one path, or a ``chunk`` below 1,
    raise ValueError."""
    if paths < 1:
        raise ValueError("the study needs at least one path")
    chunks = hbm_windows(n, grid, paths, seed, chunk, STUDY_TIME_BLOCK)
    L = BoundTriprocess(parse("y1 x1 y2"), grid, n, {1: a})
    closed = trace_n(a) * grid.times[-1] * np.eye(n)
    gaps = []
    with buffers.recycled((min(chunk, paths), STUDY_TIME_BLOCK + 1, n, n)):
        for windows in chunks:
            # -0.0 + x is x to the bit, so Q(t_1) is the first term as is
            q = np.full((len(windows.generators), n, n), complex(-0.0, -0.0))
            for _, _, window in windows:
                terms = rs_increments(L, window, window)
                for j in range(terms.shape[-3]):
                    q += terms[:, j]
                del terms  # so the next block can reuse its buffer
            gaps.append(l1_trace_norms(q - closed))
    return float(np.mean(np.concatenate(gaps)))


def mesh_study(check: str, params: dict, figure, meshes,
               passes=None) -> dict:
    """The ``check`` record of a study over meshes on [0, 1], n, paths and
    seed from ``params``: ``figure(i, grid)`` on the i-th mesh's grid, the
    first and last as its sides, their log-log slope, ``meshes`` and
    ``residuals`` (the figures), and ``passed`` as ``passes(figures,
    slope)`` if given.  Fewer than 3 meshes, or meshes that are not
    strictly decreasing, raise ValueError: the record's ``mesh`` is the
    last, and a pass rule compares the first figure with the last."""
    meshes = list(meshes)
    if len(meshes) < 3:
        raise ValueError("need at least 3 meshes")
    if any(a <= b for a, b in zip(meshes, meshes[1:])):
        raise ValueError("meshes must be distinct and strictly decreasing, "
                         f"got {meshes}")
    figures = [figure(i, TimeGrid.from_mesh(1.0, m))
               for i, m in enumerate(meshes)]
    slope = fit_loglog_slope(meshes, figures)
    return make_report(
        check, {**params, "mesh": meshes[-1], "t": 1.0},
        figures[0], figures[-1], 0.0, slope=slope,
        passed=None if passes is None else passes(figures, slope),
        extra={"meshes": meshes, "residuals": figures})


def qc_convergence_study(n: int, meshes, paths: int, seed: int,
                         passes) -> dict:
    """The ``qc_convergence`` ``mesh_study`` of ``qc_gap_l1``, a drawn from
    ``default_rng(seed + 6)`` as a Hermitian matrix and mesh i simulated
    with the seed ``seed * 977 + 6000 + i``; ``passes`` is the caller's."""
    rng = np.random.default_rng(seed + 6)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (g + g.conj().T) / 2
    return mesh_study(
        "qc_convergence", {"n": n, "paths": paths, "seed": seed},
        lambda i, grid: qc_gap_l1(n, grid, paths, seed * 977 + 6000 + i, a),
        meshes, passes)


def _paired_z_report(check: str, params: dict, a, b) -> dict:
    """Paired z-test report of mean(a) = mean(b) over paths: passes when
    the means differ by at most 3 standard errors of mean(a - b).

    Raises ``ValueError`` for fewer than 2 paths, where there is no
    standard error to test against."""
    a = np.asarray(a, dtype=float).ravel()  # one path's is a scalar
    b = np.asarray(b, dtype=float).ravel()
    diff = a - b
    if len(diff) < 2:
        raise ValueError(
            f"a paired z-test needs at least 2 paths, got {len(diff)}")
    se = float(np.std(diff, ddof=1) / np.sqrt(len(diff)))
    lhs, rhs = float(np.mean(a)), float(np.mean(b))
    return make_report(check, params, lhs, rhs, se,
                       passed=abs(lhs - rhs) <= 3 * se + 1e-12)


# -- identity checks ------------------------------------------------------


def _l1_gap_report(check: str, params: dict, lhs, rhs) -> dict:
    """Report of two matrix stacks equal up to rounding: the path means of
    tr_n |lhs| and tr_n |rhs| as its sides, of tr_n |lhs - rhs| as l1_gap."""
    gap = lhs - rhs
    return make_report(check, params, float(np.mean(l1_trace_norms(lhs))),
                       float(np.mean(l1_trace_norms(rhs))), 0.0,
                       extra={"l1_gap": float(np.mean(l1_trace_norms(gap)))})


def ito_isometry_check(H, M: ProcessPath, t: float, params: dict) -> dict:
    """Compare ||int H[dM](t)||_2^2 against the QC form E int (H dM)*(H dM),
    both from the same ``rs_increments`` terms up to t."""
    terms = rs_increments(H, M)[..., :M.grid.index_of(t), :, :]
    return _paired_z_report("ito_isometry", params,
                            _tr_quad(np.sum(terms, axis=-3)),
                            np.sum(_tr_quad(terms), axis=-1))


def bdg_stats(M: ProcessPath, p: int, t: float, params: dict) -> dict:
    """BDG statistics over the paths of ``M`` (one path is a batch of
    one): the exact p=2 identity, the p=4 ratio reported."""
    if p not in (2, 4):
        raise ValueError("p must be 2 or 4")
    values = M.batch
    idx = M.grid.index_of(t)
    m_t = values[:, idx] - values[:, 0]
    inc = rs_increments(BoundBiprocess(parse("y1"), M.grid, M.n),
                        values[:, :idx + 1])
    qv_paths = np.sum(_tr_quad(inc), axis=-1)
    if p == 2:
        return _paired_z_report("bdg_p2", params, _tr_quad(m_t), qv_paths)
    # p = 4: fourth-moment norm against the H^4 proxy built from the
    # quadratic variation matrix; reported as a ratio, not asserted
    m2 = m_t @ np.conj(np.swapaxes(m_t, -1, -2))
    lhs = float(np.mean(_tr_quad(m2)) ** 0.25)
    qv_mat = np.einsum("ptji,ptjk->pik", np.conj(inc), inc)
    rhs = float(np.mean(_tr_quad(qv_mat)) ** 0.25)
    ratio = lhs / rhs if rhs else np.inf
    return make_report("bdg_p4", params, lhs, rhs, 0.0,
                       extra={"ratio": ratio})


def substitution_check(H: BoundBiprocess, K: BoundBiprocess, X,
                       params: dict) -> dict:
    """int H[dU] with U = int K[dX] against int (H o K)[dX].

    The two sides coincide on the grid up to floating-point accumulation.
    """
    u = rs_integral(K, X)
    lhs_path = rs_integral(H, u)
    merged = dict(K.bindings)
    merged.update(H.bindings)
    composed = BoundBiprocess(
        compose_linear(H.symbolic, K.symbolic), H.grid, H.n, merged
    )
    rhs_path = rs_integral(composed, X)
    return _l1_gap_report("substitution", params, lhs_path[..., -1, :, :],
                          rhs_path[..., -1, :, :])


def qc_of_integrals_check(H: BoundBiprocess, K: BoundBiprocess,
                          L: BoundBiprocess, X, Y, t: float,
                          params: dict) -> dict:
    """QC of U = int H[dX], V = int K[dY], direct vs composed integrand."""
    u = rs_integral(H, X)
    v = rs_integral(K, Y)
    direct = quad_rs_sum(L, u, v, t)
    sym = compose_linear(
        compose_linear(L.symbolic, H.symbolic, slot=1), K.symbolic, slot=2
    )
    merged = dict(H.bindings)
    merged.update(K.bindings)
    merged.update(L.bindings)
    composed = BoundTriprocess(sym, L.grid, L.n, merged)
    via = quad_rs_sum(composed, X, Y, t)
    return _l1_gap_report("qc_of_integrals", params, direct, via)
