"""Ito formula synthesis and residual measurement.

The right-hand side for a trace polynomial P is the 1-linear derivative
symbol plus half the gamma-contracted second derivative; for scalar
functions the derivative terms are multiple operator integrals with
divided-difference kernels, evaluated for all time steps of a path at
once from one eigendecomposition per grid point, both orders in one
``moi`` pass that rotates each increment once, builds one f^[1] table
per block (a polynomial's closed form, or one exp per atom and node
vector of an exponential sum) and contracts the second order as two
batched matrix products over one reciprocal grid, which with the table's
diagonal also gives the b = c diagonal, for either kind of function; the
blocks' arrays come from recycled buffers.  Residuals of the
discretized formula are measured in the tr_n-L^1 norm, averaged over the
paths of a batch ``ProcessPath`` (``ito_residual`` takes one path or a
batch), and fed into mesh convergence studies (``convergence_study``, one
``stoch_int.mesh_study``); ``_residual_summary`` builds both residual
reports.  The residual is P(X) - P(X_0) minus the running sums of the
per-step terms dP[dX] plus the second-order term.  The studies stream
their paths: each chunk is one
``process_sim.hbm_windows`` walk of ``STUDY_TIME_BLOCK`` grid points at a
time, a plain loop in which each window feeds every polynomial of the
study, which keeps its own P(X_0) and running sum, carried into the next
window by ``stoch_int.carried_sums``.  So no (paths, T, n, n) array is
made, and the blocks' arrays come from recycled buffers (``buffers``).
The sup study (``ito_sup_residuals``) reduces exactly the last window,
and of the earlier grid times only what their tr_n-L^2 bounds
(``l2_trace_norms``) cannot rule out: for each polynomial and time, one
path at a time, until the time is ruled out or every path is reduced.
A study of one chunk keeps the blocks of the window before the last from
its first walk and prunes them once the last window is reduced.  A
second walk of each chunk, resumed from a saved window, makes again only
the other windows that still hold such a time, each polynomial up to the
window of its last one; the other per-time reducers reduce every grid
time.
``ito_residual_path`` is the one-window case of the same code.  Each
block is one ``evaluator.eval_step_block`` call, which makes P, dP[dX]
and the second-order term from one plan on the window's time axis.  The driver
is self-adjoint, so x1' is read as x1.  The walk's windows are bitwise
Hermitian by construction, so the studies give the evaluator that
verdict; ``ito_residual_path`` has it compare the path with its
adjoint.  On a Hermitian path, a polynomial whose step symbols are all
self-adjoint (``trace_poly.is_self_adjoint``, worked out once per study)
has a Hermitian residual, which the study reduces with
``l1_trace_norms(..., hermitian=True)``, skipping the reducer's per-matrix
Hermitian test; every other residual, and the scalar-function route, keeps
the tested reducer.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import buffers
from .evaluator import eval_step_block
from .matrix_alg import (
    ScalarFunctionSpec,
    l1_trace_norms,
    l2_trace_norms,
    moi,
    op_function,
    spectral_data,
)
from .rational import QC
from .stoch_int import (STUDY_TIME_BLOCK, carried_sums, cumulative_path,
                        mesh_study)
from .trace_poly import (
    ContractionModel,
    TracePolynomial,
    derive_k,
    gamma_contract,
    hermitian_form,
    is_self_adjoint,
    relabel_slot,
)
from .process_sim import ProcessPath, TimeGrid, hbm_windows

_HALF = QC(Fraction(1, 2))

# How far a grid time's upper bound (its path sum of tr_n-L^2 bounds, less
# what the paths reduced exactly took off) must sit below a study's exact
# sup before ``ito_sup_residuals`` leaves the time's other paths
# unreduced: far above the rounding of either figure, far below the gap
# between them.
BOUND_MARGIN = 1e-9


def ito_rhs_symbolic(P: TracePolynomial, model: ContractionModel):
    """Symbolic right-hand side pieces (dP, half-contracted d2P).

    The driver is self-adjoint, so x1' is read as x1 (``hermitian_form``)."""
    if P.slots_used():
        raise ValueError("the polynomial must be slot-free")
    if P.n_vars() > 1:
        raise ValueError("Ito synthesis drives a single process (x1 only)")
    if P.n_vars() == 0:
        return TracePolynomial.zero(), TracePolynomial.zero()
    P = hermitian_form(P)
    dP = derive_k(P, 1)
    correction = gamma_contract(derive_k(P, 2), model).scale(_HALF)
    return dP, correction


def _step_symbols(P: TracePolynomial, model: ContractionModel,
                  second_order: str):
    """(P, step, timed) for ``eval_step_block``: the residual subtracts the
    sums of step[dX] + timed * dt, where step is dP plus, in "quadratic"
    mode, 1/2 d2P[dX, dX], and timed is the contracted correction in
    "contracted" mode."""
    if second_order not in ("contracted", "quadratic"):
        raise ValueError(f"unknown second-order mode {second_order!r}")
    P = hermitian_form(P)
    dP, correction = ito_rhs_symbolic(P, model)
    if second_order == "contracted":
        return P, dP, correction
    # both slots take the same increment, so d2P's slots merge into y1
    d2P = relabel_slot(derive_k(P, 2), 2, 1)
    return P, dP + d2P.scale(_HALF), TracePolynomial.zero()


def _residual_blocks(symbols, windows, grid: TimeGrid,
                     hermitian: bool | None = None,
                     carries: dict | None = None, p0: dict | None = None,
                     stops=None):
    """Yield (i0, i1, k, res) for each (i0, i1, window) of ``windows``, as
    ``process_sim.hbm_windows`` walks one path chunk, and each polynomial's
    step symbols ``symbols[k]`` (``_step_symbols``) in turn.  ``window``
    holds the points i0 - 1 .. i1 - 1 (from t_0 in the first window), and
    res, shaped (..., i1 - i0, n, n), is P(X) - P(X_0) on [i0, i1) minus
    the running sums (``carried_sums``) of dP[dX] plus the correction times
    dt ("contracted") or plus 1/2 d2P[dX, dX] ("quadratic").  One
    ``eval_step_block`` plan per polynomial and window makes P, dP and the
    second-order term; ``hermitian`` says whether the windows are
    Hermitian, None to have the evaluator compare each with its adjoint.
    ``carries`` (each polynomial's running sum at the point before the
    next window, (..., n, n)) and ``p0`` (its P(X_0), (..., 1, n, n)) are
    the dicts the blocks are carried in, filled in by assignment as the
    walk goes, so ``dict(carries)`` taken between two windows saves them: a
    walk resumed at a saved window passes the ones saved there.  With
    ``stops``, polynomial k is made only in the windows that start before
    ``stops[k]``."""
    dts = np.diff(grid.times)
    carries = {} if carries is None else carries
    p0 = {} if p0 is None else p0
    for i0, i1, window in windows:
        window_dts = dts[max(i0, 1) - 1:i1 - 1]
        for k, sym in enumerate(symbols):
            if stops is not None and i0 >= stops[k]:
                continue
            p, terms = eval_step_block(*sym, window, window_dts, hermitian)
            sums = carried_sums(terms, carries[k] if i0 else None)
            carries[k] = sums[..., -1, :, :].copy()
            res = p[..., i0 - i1:, :, :]  # later windows start at t_(i0-1)
            if not i0:
                p0[k] = res[..., :1, :, :].copy()
            res -= p0[k]
            res -= sums
            del p, terms, sums  # res alone holds the block it yields
            yield i0, i1, k, res
            del res  # let go before the next block is made


def ito_residual_path(P: TracePolynomial, values: np.ndarray, grid: TimeGrid,
                      model: ContractionModel,
                      second_order: str = "contracted") -> np.ndarray:
    """Residual path P(X) - P(X(0)) - int dP[dX] - second-order term.

    "contracted" integrates the gamma-contracted correction against dt
    (the Ito form); "quadratic" subtracts the pathwise quadratic sums of
    the second derivative, which is exact for smooth drivers.  This is the
    one-window case of the studies' time-blocked residual.
    """
    window = (0, values.shape[-3], values)
    ((_, _, _, res),) = _residual_blocks(
        [_step_symbols(P, model, second_order)], [window], grid)
    return res


def _residual_summary(per_time: np.ndarray) -> dict:
    """A residual report from its norm at each grid time: the sup, the
    final value and the whole ``per_time`` array."""
    return {"sup_norm": float(np.max(per_time)),
            "final_norm": float(per_time[-1]), "per_time": per_time}


def ito_residual(P: TracePolynomial, driver, model: ContractionModel,
                 second_order: str = "contracted") -> dict:
    """Residual report for a simulated driver (one path or a batch)."""
    if not isinstance(driver, ProcessPath):
        raise TypeError("driver must be a ProcessPath")
    per = l1_trace_norms(ito_residual_path(P, driver.values, driver.grid,
                                           model, second_order))
    return _residual_summary(np.mean(per, axis=tuple(range(per.ndim - 1))))


def functional_ito_residual(f: ScalarFunctionSpec, path: ProcessPath) -> dict:
    """Residual of the scalar-function Ito formula along one path:
    f(X_t) - f(X_0) minus the sum over earlier steps of the first- and
    second-order MOI terms f^[1](X_s)[dX] + f^[2](X_s)[dX, dX].

    One eigendecomposition of the whole (T, n, n) path feeds f(X_t) and
    one ``moi`` call of orders (1, 2), batched over the time axis: per
    block it rotates each dX into the eigenbasis once, and the first
    order's f^[1] table times the rotated dX is what the second order's
    two matrix products read; no (n, n, n) kernel is made, for a
    polynomial as for an exponential sum.  Its steps have the bits of one call per order added
    up.  A path with a NaN or infinite entry raises ``ValueError`` naming
    it."""
    values = path.values
    sd = spectral_data(values)
    left = sd[:-1]
    delta = np.diff(values, axis=0)
    inc = moi(f, (1, 2), (left, left, left), (delta, delta))
    fx = op_function(f, sd)
    return _residual_summary(l1_trace_norms(fx - fx[0] - cumulative_path(inc)))


# -- convergence studies --------------------------------------------------


def _path_sums(per: np.ndarray) -> np.ndarray:
    """The sum over paths of a (paths, window) array, the paths added in
    order: summed as a C-ordered array, as one reduced from a time-major
    block need not be."""
    return np.sum(np.ascontiguousarray(per), axis=0)


def _save_points(T: int) -> list[int]:
    """The window starts at which a study saves each chunk's walk on a grid
    of T points: window 0 and the windows W - 1 - 2^j of the W windows, so
    a resumed walk starts at most as far before its first candidate window
    as that window lies before the last one."""
    last = (T - 1) // STUDY_TIME_BLOCK
    return [0] + [(last - 2**j) * STUDY_TIME_BLOCK
                  for j in range(last.bit_length()) if last > 2**j]


def ito_sup_residuals(polys, n: int, grid: TimeGrid, paths: int, seed: int,
                      model: ContractionModel,
                      second_order: str = "contracted",
                      chunk: int = 25) -> list[float]:
    """For each polynomial, the sup over grid times of the path mean of
    tr_n |residual|, on HBM paths 0..paths-1 of ``seed``.

    The residual of a polynomial k grows along the path, so its sup lies
    mostly in the last window, and ``l2_trace_norms`` can rule out the rest
    at O(n^2) per matrix.  Pass 1 walks each chunk of paths once,
    ``STUDY_TIME_BLOCK`` grid points at a time, and each window feeds every
    polynomial.  The last window's residuals are reduced exactly
    (``l1_trace_norms``), and every other block only adds its path sum of
    tr_n-L^2 bounds B to U[k, t], an upper bound on the path sum at grid
    time t.  L_k is the largest exact path sum in the last window; a time
    is ruled out for k once U[k, t] times 1 + ``BOUND_MARGIN`` is below
    L_k, so a NaN or an inf is never ruled out.  Each block that may hold
    a time not yet ruled out is pruned: the study works out B again and
    reduces the times still in, one path per round, in order of
    decreasing B.  Each exact e_p takes B_p - e_p off U, which may rule
    the time out.  A time still in after the chunk's last path has each of
    its exact values, and their path sum goes into the study as in one
    that reduces every grid time.  When ``paths <= chunk``, pass 1 keeps
    each polynomial's block of the window before the last, whose late
    times the short last window nearly always leaves in, and prunes it
    once L is known; its times are then done.  Pass 2 takes the chunks in
    order.  It resumes each chunk's walk at the latest saved start
    (``_save_points``) at or before the chunk's first time still in, makes
    each polynomial up to the window of its last one, and skips the chunk
    when none is left.  The windows, carried sums and chunk order are
    pass 1's, so the sup has the bits of such a study.  The walk's windows
    are Hermitian by construction, so the evaluator takes that verdict
    without comparing them with their adjoints, and a polynomial whose step
    symbols are all self-adjoint has Hermitian residuals.  Fewer than one
    path, or a ``chunk`` below 1, raise ValueError."""
    if paths < 1:
        raise ValueError("the study needs at least one path")
    chunks = hbm_windows(n, grid, paths, seed, chunk, STUDY_TIME_BLOCK)
    symbols = [_step_symbols(P, model, second_order) for P in polys]
    hermitian = [all(map(is_self_adjoint, sym)) for sym in symbols]
    T = len(grid.times)
    last = (T - 1) // STUDY_TIME_BLOCK * STUDY_TIME_BLOCK
    saves = _save_points(T)
    acc = np.zeros((len(polys), T))
    upper = np.zeros((len(polys), last))  # U
    walked = []

    def prune(k, i0, i1, res):
        if not alive[k, i0:i1].any():
            return
        bounds = l2_trace_norms(res)  # B, the numbers pass 1 summed
        exact = np.zeros(bounds.shape)
        live, u = alive[k, i0:i1], upper[k, i0:i1]
        # row r holds, for each time, the path of r-th largest bound
        for rows in np.argsort(-bounds, axis=0):
            t = np.flatnonzero(live)
            if not t.size:
                return
            p = rows[t]
            exact[p, t] = l1_trace_norms(res[p, t], hermitian=hermitian[k])
            u[t] -= bounds[p, t] - exact[p, t]
            live[t] = ~(u[t] * (1 + BOUND_MARGIN) < lower[k])
        # the (paths, window) shape an unpruned study sums: the same bits
        acc[k, i0:i1][live] += np.sum(exact, axis=0)[live]

    kept = {}  # a single chunk's blocks of the window before the last
    with buffers.recycled((min(chunk, paths), STUDY_TIME_BLOCK + 1, n, n)):
        for walk in chunks:
            carries, p0 = {}, {}
            starts = {0: (walk.start(), {})}
            for i0, i1, k, res in _residual_blocks(symbols, walk, grid, True,
                                                   carries, p0):
                if i0 == last:
                    acc[k, i0:i1] += _path_sums(
                        l1_trace_norms(res, hermitian=hermitian[k]))
                else:
                    upper[k, i0:i1] += _path_sums(l2_trace_norms(res))
                    if i1 == last and paths <= chunk:
                        kept[k] = res
                del res  # so the next block can reuse its buffer
                if k == len(polys) - 1 and i1 in saves:
                    starts[i1] = (walk.start(), dict(carries))
            walked.append((walk, starts, p0))
        lower = np.max(acc[:, last:], axis=1)  # L
        alive = ~(upper * (1 + BOUND_MARGIN) < lower[:, None])
        for k in list(kept):
            prune(k, last - STUDY_TIME_BLOCK, last, kept.pop(k))
            alive[k, last - STUDY_TIME_BLOCK:last] = False  # summed here
        for walk, starts, p0 in walked:
            times = np.flatnonzero(alive.any(axis=0))
            if not times.size:
                break
            # each polynomial up to the window of its last time still in
            stops = [(t[-1] // STUDY_TIME_BLOCK + 1) * STUDY_TIME_BLOCK
                     if t.size else 0 for t in map(np.flatnonzero, alive)]
            resume = max(i for i in saves if i <= times[0])
            start, carries = starts[resume]
            for i0, i1, k, res in _residual_blocks(
                    symbols, walk.resumed(start, max(stops)), grid, True,
                    dict(carries), p0, stops):
                prune(k, i0, i1, res)
                del res
    return [float(np.max(row / paths)) for row in acc]


def convergence_study(meshes, params: dict, passes) -> dict:
    """The ``stoch_int.mesh_study`` of the sup residual of ``params["poly"]``
    on ``params["paths"]`` paths, seeded ``params["seed"]`` plus the grid's
    step count; ``passes`` is the caller's."""
    return mesh_study(
        "convergence:ito_residual", params,
        lambda i, grid: ito_sup_residuals(
            [params["poly"]], params["n"], grid, params["paths"],
            params["seed"] + grid.steps, params["model"])[0],
        meshes, passes)
