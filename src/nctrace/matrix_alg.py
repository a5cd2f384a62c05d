"""The finite-dimensional numerical *-probability space (M_n(C), tr_n).

Norms, the Hermitian orthonormal basis and its magic-formula identities,
functional calculus, divided differences, and multiple operator integrals
(MOIs) realized as exact spectral sums.

``l1_trace_norms`` is the one tr_n-L^1 reducer: Hermitian matrices go
through ``eigvalsh``, the rest through the singular values, and a matrix
with a non-finite entry gives NaN.  It tests each matrix for being
Hermitian unless the caller passes ``hermitian=True``, as the Ito studies
do for a self-adjoint P on a bitwise Hermitian path.
``l2_trace_norms`` is the tr_n-L^2 norm, an upper bound on tr_n |a| at
O(n^2) per matrix, which tells the Ito study where its sup cannot be.

The MOI route (``spectral_data``, ``op_function``, ``divided_diff_grid``,
``moi``) works on stacks: matrices of shape (..., n, n) and node vectors of
shape (..., m) with leading batch axes, where a single matrix is the stack
without batch axes.  Each batch element gives what a call on it alone gives.
It shares what its arguments share: ``moi`` computes the spectral data,
node vectors, eigenvector stacks and rotated directions once per distinct
argument object, on one flat batch axis.  A second-order grid over equal
second and third node vectors builds one f^[1] table, and every close
pair of nodes takes one rule, the recurrence of f^[2] over f^[1], which
reads the table when all three node vectors are equal.  A sum of orders
(``moi(f, (1, 2), ...)``) shares the rotations between its orders, and its
first order's kernel is the second order's f^[1] table.  Equal copies of
an argument give the same bits as one object passed in every slot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from . import buffers

# relative gap below which divided differences switch to confluent entries
CONFLUENT_TOL = 1e-6
# relative tolerance for grouping near-degenerate eigenvalues
CLUSTER_TOL = 1e-8


def trace_n(a: np.ndarray) -> np.ndarray:
    """Normalized trace tr_n = Tr/n over the last two axes."""
    return np.trace(a, axis1=-2, axis2=-1) / a.shape[-1]


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


def _hermitian_mask(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Per matrix of a (..., n, n) stack: Hermitian to ``tol`` relative to
    its own largest entry (a zero matrix is Hermitian, and one whose
    largest entry's modulus overflows is not)."""
    scale = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    defect = adjoint(a)
    defect -= a  # in place: ``a - adjoint(a)`` iterates mixed layouts slowly
    dev = np.max(np.abs(defect), axis=(-2, -1), initial=0.0)
    return (dev <= tol * np.where(scale == 0, 1.0, scale)) & (scale < np.inf)


def l1_trace_norms(a: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """tr_n |a| for each matrix of a (..., n, n) stack, shape (...).

    Matrices Hermitian to a relative 1e-12 (as ``_hermitian_mask`` tests
    them) reduce through ``eigvalsh`` of their Hermitian part, as the sum
    of |eigenvalues|; the rest through the singular values.  Dropping an
    anti-Hermitian part E moves tr_n |a| only at second order in E.
    ``hermitian=True`` is the caller's word that every matrix is Hermitian
    (the Ito studies pass it when the evaluator has found the driver
    bitwise Hermitian and P self-adjoint): the test is skipped and the
    whole stack takes the ``eigvalsh`` route.  A matrix with a NaN or an
    infinite entry reduces to NaN on either route, and the others reduce
    as they would alone.  A finite matrix near the float maximum can
    overflow in the Hermitian part's sum, in its |eigenvalues| or singular
    values, or in their sum: it is reduced again scaled down by a power
    of two, so its value is infinite only where tr_n |a| is."""
    a = np.asarray(a)
    a = a.astype(np.result_type(a, 1.0), copy=False)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        out = np.full(finite.shape, np.nan)
        if finite.any():
            out[finite] = l1_trace_norms(a[finite], hermitian)
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = _l1_routed(a, hermitian)
        except np.linalg.LinAlgError:  # on an overflowed Hermitian part
            out = np.full(a.shape[:-2], np.nan)
        over = ~np.isfinite(out)
        if not over.any():
            return out
        # a matrix below 2^512 cannot overflow: it is reduced again as is
        out = np.array(out)
        big = a[over]
        top = np.maximum(abs(big.real), abs(big.imag)).max(axis=(-2, -1))
        exp = np.where(top > 2.0**512, np.frexp(top)[1], 0)
        scaled = big * np.ldexp(1.0, -exp)[:, None, None]
        out[over] = np.ldexp(_l1_routed(scaled, hermitian), exp)
    return out


def _l1_routed(a: np.ndarray, hermitian: bool) -> np.ndarray:
    if hermitian:
        return _l1_hermitian(a)
    herm = _hermitian_mask(a)
    if herm.all():
        return _l1_hermitian(a)
    if not herm.any():
        return _l1_general(a)
    out = np.empty(herm.shape)
    out[herm] = _l1_hermitian(a[herm])
    out[~herm] = _l1_general(a[~herm])
    return out


def l2_trace_norms(a: np.ndarray) -> np.ndarray:
    """(tr_n a a*)^(1/2) for each matrix of a complex (..., n, n) stack
    whose matrices are each contiguous, shape (...).

    The L^p norms of the tracial state tr_n grow with p, so this tr_n-L^2
    norm bounds ``l1_trace_norms`` from above, whichever route that takes:
    tr_n |a| <= ||a||_2, and the Hermitian part's norm is at most a's.  It
    costs O(n^2) per matrix, against about 20 us for an ``eigvalsh`` at
    n = 16."""
    f = a.view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", f, f) / a.shape[-1])


def _l1_hermitian(a: np.ndarray) -> np.ndarray:
    h = np.conjugate(np.swapaxes(a, -1, -2),
                     out=buffers.empty(a.shape, a.dtype))
    h += a
    h *= 0.5
    return np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1) / a.shape[-1]


def _l1_general(a: np.ndarray) -> np.ndarray:
    return np.sum(np.linalg.svd(a, compute_uv=False), axis=-1) / a.shape[-1]


_SCATTER_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _basis_scatter(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal Hermitian basis of M_n(C) for <a,b>_n = n Tr(b* a),
    as a per-n map from basis coefficients to matrix entries.

    The basis has n diagonal units of size 1/sqrt(n), then for each k < l
    a symmetric element, 1/sqrt(2n) at (k, l) and (l, k), and an
    antisymmetric one, -i/sqrt(2n) at (k, l) and +i/sqrt(2n) at (l, k).
    ``scale[e]`` is the size of element e.  Entry p of the flat matrix
    takes its real and imaginary parts from columns ``index[2p]`` and
    ``index[2p + 1]`` of the row ``[c, -c, 0]``, where c holds the scaled
    coefficients.
    """
    cached = _SCATTER_CACHE.get(n)
    if cached is not None:
        return cached
    if n < 1:
        raise ValueError("dimension must be >= 1")
    nn = n * n
    scale = np.full(nn, 1.0 / math.sqrt(2 * n))
    scale[:n] = 1.0 / math.sqrt(n)
    re = np.empty((n, n), dtype=np.intp)
    im = np.full((n, n), 2 * nn, dtype=np.intp)
    d = np.arange(n)
    re[d, d] = d
    k, l = np.triu_indices(n, k=1)
    sym = n + 2 * np.arange(len(k))
    re[k, l] = re[l, k] = sym
    im[k, l] = nn + sym + 1
    im[l, k] = sym + 1
    index = np.stack([re, im], axis=-1).ravel()
    scale.setflags(write=False)
    index.setflags(write=False)
    cached = _SCATTER_CACHE[n] = (scale, index)
    return cached


def hermitian_onb_array(n: int) -> np.ndarray:
    """The basis of ``_basis_scatter`` as an (n^2, n, n) array, cached per
    dimension: element e scatters the coefficient row of the unit vector e.
    Every zero entry is +0.0.

    It takes 16 n^4 bytes.  Only the magic-formula sum uses it; the
    Hermitian-BM sampler scatters its coefficients without it.
    """
    arr = _ONB_CACHE.get(n)
    if arr is None:
        scale, index = _basis_scatter(n)
        nn = n * n
        e = np.arange(nn)
        rows = np.zeros((nn, 2 * nn + 1))
        rows[e, e] = scale
        rows[e, nn + e] = -scale
        arr = np.take(rows, index, axis=1).view(complex).reshape(nn, n, n)
        _ONB_CACHE[n] = arr
    return arr


_ONB_CACHE: dict[int, np.ndarray] = {}


def magic_sum(a: np.ndarray) -> np.ndarray:
    """Sum_e e a e over the Hermitian basis; equals tr_n(a) * I."""
    es = hermitian_onb_array(a.shape[-1])
    return (es @ a @ es).sum(0)


# -- scalar function specs ------------------------------------------------


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A scalar function with exact derivatives: either a polynomial
    sum(c_i lambda^i) or a finite exponential sum sum(c_j e^{i xi_j lambda}).
    """

    kind: str  # "polynomial" | "exp_sum"
    coeffs: tuple = ()          # polynomial: ascending coefficients
    atoms: tuple = ()           # exp_sum: ((c_j, xi_j), ...)

    @classmethod
    def polynomial(cls, coeffs) -> "ScalarFunctionSpec":
        return cls("polynomial", coeffs=tuple(coeffs))

    @classmethod
    def exp_sum(cls, atoms) -> "ScalarFunctionSpec":
        return cls("exp_sum", atoms=tuple((c, float(xi)) for c, xi in atoms))

    def __call__(self, lam):
        if self.kind == "polynomial":
            acc = np.zeros_like(np.asarray(lam, dtype=complex))
            for c in reversed(self.coeffs):
                acc = acc * lam + complex(c)
            return acc
        acc = np.zeros_like(np.asarray(lam, dtype=complex))
        for c, xi in self.atoms:
            acc = acc + complex(c) * np.exp(1j * xi * np.asarray(lam))
        return acc

    def call_exact(self, lam):
        """Evaluate a polynomial at an exact (rational) point."""
        if self.kind != "polynomial":
            raise ValueError("exact evaluation requires a polynomial")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def derivative(self, order: int = 1) -> "ScalarFunctionSpec":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order == 0:
            return self
        if self.kind == "polynomial":
            coeffs = self.coeffs
            for _ in range(order):
                coeffs = tuple(c * i for i, c in enumerate(coeffs))[1:] or (0,)
            return ScalarFunctionSpec.polynomial(coeffs)
        return ScalarFunctionSpec.exp_sum(
            [(c * (1j * xi) ** order, xi) for c, xi in self.atoms]
        )


# -- divided differences --------------------------------------------------


def _cluster_nodes(nodes, tol_scale):
    """Snap near-equal nodes to their cluster mean; returns a sorted list."""
    order = sorted(range(len(nodes)), key=lambda i: nodes[i])
    snapped = [nodes[i] for i in order]
    i = 0
    while i < len(snapped):
        j = i + 1
        while j < len(snapped) and abs(snapped[j] - snapped[j - 1]) < tol_scale:
            j += 1
        if j - i > 1:
            rep = sum(snapped[i:j]) / (j - i)
            for m in range(i, j):
                snapped[m] = rep
        i = j
    return snapped


def divided_diff(f: ScalarFunctionSpec, nodes: Sequence) -> complex:
    """k-th divided difference of ``f`` at ``nodes`` (k = len(nodes) - 1).

    Uses the confluent Newton table; repeated or near-equal nodes fall back
    to analytic derivatives.  When ``f`` is a polynomial and the nodes are
    exact rationals, the computation is exact.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValueError("at least one node is required")
    exact = (
        f.kind == "polynomial"
        and all(isinstance(z, Rational) and not isinstance(z, float) for z in nodes)
        and all(isinstance(c, Rational) for c in f.coeffs)
    )
    if exact:
        z = sorted(Fraction(v) for v in nodes)
        values = [f.call_exact(v) for v in z]
    else:
        scale = max((abs(float(v)) for v in nodes), default=1.0) or 1.0
        z = _cluster_nodes([float(v) for v in nodes], CONFLUENT_TOL * scale)
        values = [complex(f(v)) for v in z]
    k = len(z) - 1
    derivs = {0: f}
    col = list(values)
    for j in range(1, k + 1):
        if j not in derivs:
            derivs[j] = derivs[j - 1].derivative()
        nxt = []
        fact = math.factorial(j)
        for i in range(len(z) - j):
            if z[i + j] == z[i]:
                dj = derivs[j]
                val = (dj.call_exact(z[i]) if exact else complex(dj(z[i]))) / fact
                nxt.append(val)
            else:
                nxt.append((col[i + 1] - col[i]) / (z[i + j] - z[i]))
        col = nxt
    return col[0]


def _tensor_axes(vectors) -> list[np.ndarray]:
    """Reshape node vectors (..., m_j) so that vector j varies along grid
    axis j of a (..., m_0, ..., m_k) tensor grid."""
    k = len(vectors) - 1
    return [
        v.reshape(v.shape[:-1] + (1,) * j + v.shape[-1:] + (1,) * (k - j))
        for j, v in enumerate(vectors)
    ]


def _poly_divdiff_grid(f: ScalarFunctionSpec, shaped) -> np.ndarray:
    """Closed-form polynomial divided difference on a tensor grid:
    sum_i c_i * h_{i-k}(lambda_1, ..., lambda_{k+1})."""
    k = len(shaped) - 1
    out_shape = np.broadcast_shapes(*(v.shape for v in shaped))
    out = np.zeros(out_shape, dtype=complex)
    for i, c in enumerate(f.coeffs):
        if c == 0 or i < k:
            continue
        for delta in _compositions(i - k, k + 1):
            term = np.ones(out_shape, dtype=complex)
            for axis, d in enumerate(delta):
                if d:
                    term = term * shaped[axis] ** d
            out += complex(c) * term
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _exp_dd1(f: ScalarFunctionSpec, a: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """First divided difference of the exponential sum ``f`` on broadcast
    node arrays, stable at coalescence:
    g^[1](a, b) = i xi e^{i xi a/2} e^{i xi b/2} sinc(xi (a - b) / 2 pi)."""
    out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)),
                   dtype=complex)
    for c, xi in f.atoms:
        out += (
            (complex(c) * 1j * xi)
            * (np.exp(0.5j * xi * a) * np.exp(0.5j * xi * b))
            * np.sinc(xi * (a - b) / (2.0 * np.pi))
        )
    return out


def _exp_close(f: ScalarFunctionSpec, a, b, c, d_ab, d_bc,
               delta) -> np.ndarray:
    """Second divided difference g^[2](a, b, c) of the exponential sum ``f``
    at node pairs with |b - c| < delta, on broadcast arrays, given
    d_ab = g^[1](a, b): (g^[1](b, c) - g^[1](a, b)) / (c - a), or
    g''((a + b + c) / 3) / 2 where a is within delta of c.  g^[1](b, c) is
    g'(b) where b = c, and ``d_bc`` elsewhere (None where b = c throughout)."""
    d_bc = f.derivative(1)(b) if d_bc is None else np.where(
        b == c, f.derivative(1)(b), d_bc)
    ca = c - a
    near = np.abs(ca) < delta
    out = (d_bc - d_ab) / np.where(near, 1.0, ca)
    if np.any(near):
        mean = (a + b + c) / 3.0
        out[near] = f.derivative(2)(mean[near]) / 2.0
    return out


def _exp_dd2(f: ScalarFunctionSpec, vecs, delta: np.ndarray,
             table: np.ndarray | None = None) -> np.ndarray:
    """Second divided difference of the exponential sum ``f`` on the tensor
    grid of node vectors (..., m_0), (..., m_1), (..., m_2).

    The work runs on one flat batch axis: the node vectors, ``delta`` and
    the g^[1](a, b) table are broadcast to (B, m) and (B, m_0, m_1) once,
    which copies nothing for ``moi``'s flat blocks, and the result takes
    the batch shape at the end.  Entries with |b - c| >= delta difference
    the first-order tables, (g^[1](a, b) - g^[1](a, c)) / (b - c).  The
    g^[1](a, b) table is ``table`` when the caller has it (``moi`` passes
    its first order's kernel), and is built here otherwise; when the second
    and third node vectors are equal, g^[1](a, c) is the same table.  Every
    pair with |b - c| < delta takes the one rule of ``_exp_close``, the
    recurrence (g^[1](b, c) - g^[1](a, b)) / (c - a), with g^[1](b, c) read
    from the table when all three node vectors are equal (every ``moi``
    call) and made by ``_exp_dd1`` for the close pairs otherwise.  The
    b = c diagonal of a grid with equal second and third node vectors is
    made in place on (B, m_0, m_1) arrays; the other close pairs (snapped
    clusters, and nodes that differ by less than delta) are gathered.
    """
    batch = np.broadcast_shapes(delta.shape, *(v.shape[:-1] for v in vecs))
    size = math.prod(batch)
    a, b, c = (np.broadcast_to(v, batch + v.shape[-1:]).reshape(
        size, v.shape[-1]) for v in vecs)
    delta = np.broadcast_to(delta, batch).reshape(size)
    if table is None:
        table = _exp_dd1(f, a[:, :, None], b[:, None, :])
    else:
        table = np.broadcast_to(table, batch + table.shape[-2:]).reshape(
            (size,) + table.shape[-2:])
    same = np.array_equal(b, c)
    d_ac = table if same else _exp_dd1(f, a[:, :, None], c[:, None, :])
    bc = b[:, :, None] - c[:, None, :]                 # (B, m_1, m_2)
    close = np.abs(bc) < delta[:, None, None]
    out = table[:, :, :, None] - d_ac[:, :, None, :]
    out *= (1.0 / np.where(close, 1.0, bc))[:, None]
    if same:
        bn = b[:, None, :]
        d = np.arange(b.shape[-1])
        out[:, :, d, d] = _exp_close(f, a[:, :, None], bn, bn, table, None,
                                     delta[:, None, None])
        close[:, d, d] = False
    if np.any(close):
        k, j, l = np.nonzero(close)
        if same and np.array_equal(a, b):
            d_bc = table[k, j, l]
        else:
            d_bc = _exp_dd1(f, b[k, j], c[k, l])
        out[k, :, j, l] = _exp_close(
            f, a[k], b[k, j, None], c[k, l, None], table[k, :, j],
            d_bc[:, None], delta[k, None])
    return out.reshape(batch + out.shape[1:])


def divided_diff_grid(f: ScalarFunctionSpec, vectors: Sequence,
                      table: np.ndarray | None = None) -> np.ndarray:
    """Divided difference f^[k] on the tensor grid of k+1 node vectors.

    Each vector has shape (..., m_j) with broadcastable leading batch axes,
    and the result has shape (..., m_0, ..., m_k); a batch element's entries
    depend only on its own nodes.  Vectorized and cancellation-safe; this is
    the kernel evaluation used by the MOI sums.  Supports k <= 2 for
    exponential sums and any k for polynomials.  At k = 2 an exponential
    sum reads the f^[1] grid of its first two vectors from ``table``, the
    grid this function returns for them, when the caller has it (as
    ``moi`` does for a sum of orders 1 and 2), and builds it otherwise; it
    builds no second table when the second and third node vectors are
    equal, as ``moi`` passes them for a repeated argument.  It works on one
    flat batch axis, and every pair of nodes closer than ``CONFLUENT_TOL``
    takes one rule, (f^[1](b, c) - f^[1](a, b)) / (c - a) (see
    ``_exp_dd2``).  Every other case ignores ``table``.
    """
    k = len(vectors) - 1
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if f.kind == "polynomial":
        return _poly_divdiff_grid(
            f, _tensor_axes([v.astype(complex) for v in vecs]))
    if k == 0:
        return f(vecs[0]).astype(complex)
    if k == 1:
        a, b = _tensor_axes(vecs)
        return _exp_dd1(f, a, b)
    if k == 2:
        scale = 0.0
        for v in vecs:
            scale = np.maximum(scale, np.max(np.abs(v), axis=-1, initial=0.0))
        return _exp_dd2(f, vecs,
                        CONFLUENT_TOL * np.where(scale == 0, 1.0, scale),
                        table)
    raise NotImplementedError(
        "exp_sum divided differences support k <= 2 on grids"
    )


# -- spectral data and operator functions ---------------------------------

# complex entries per block of an MOI kernel: ``moi`` builds the
# (..., n, ..., n) divided-difference tables over at most this many entries
# at a time, so its memory grows like batch * n^2 rather than batch * n^(k+1)
MOI_BLOCK_ENTRIES = 2**16


@dataclass
class SpectralData:
    """Eigendecomposition of a (..., n, n) stack of Hermitian matrices.

    ``snapped`` is ``eigenvalues`` with each cluster of near-degenerate
    eigenvalues replaced by its mean; the MOI kernels take their nodes from
    it.  Indexing selects along the leading batch axes.
    """

    eigenvalues: np.ndarray   # (..., n), ascending
    eigenvectors: np.ndarray  # (..., n, n), one eigenvector per column
    snapped: np.ndarray       # (..., n)

    def __getitem__(self, idx) -> "SpectralData":
        return SpectralData(self.eigenvalues[idx], self.eigenvectors[idx],
                            self.snapped[idx])


def spectral_data(a: np.ndarray) -> SpectralData:
    """Eigendecomposition of each matrix of a (..., n, n) Hermitian stack,
    with near-degenerate eigenvalues snapped to their cluster mean.

    Raises ``ValueError`` if any entry is NaN or infinite, naming the first
    such entries, and if any matrix is not Hermitian.  Neighbouring
    eigenvalues join a cluster when they differ by at most ``CLUSTER_TOL``
    times the matrix's spectral radius (or ``CLUSTER_TOL`` for the zero
    matrix).
    """
    a = np.asarray(a)
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        named = ", ".join(f"{tuple(map(int, i))} = {a[tuple(i)]}"
                          for i in bad[:3])
        raise ValueError(
            f"spectral data requires finite entries; {len(bad)} non-finite: "
            f"{named}{', ...' if len(bad) > 3 else ''}")
    if not _hermitian_mask(a, tol=1e-10).all():
        raise ValueError("spectral data requires a Hermitian matrix")
    lam, u = np.linalg.eigh(a)
    scale = np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))
    scale = np.where(scale == 0, 1.0, scale)
    joined = np.diff(lam, axis=-1) <= CLUSTER_TOL * scale[..., None]
    if not np.any(joined):
        return SpectralData(lam, u, lam)
    # cluster id of each eigenvalue, unique across the flattened stack
    n = lam.shape[-1]
    flat = lam.reshape(-1, n)
    ids = np.zeros(flat.shape, dtype=np.intp)
    np.cumsum(~joined.reshape(-1, n - 1), axis=-1, out=ids[:, 1:])
    ids += n * np.arange(flat.shape[0])[:, None]
    sums = np.bincount(ids.ravel(), weights=flat.ravel())
    counts = np.maximum(np.bincount(ids.ravel()), 1)
    return SpectralData(lam, u, (sums / counts)[ids].reshape(lam.shape))


def _spectral(a) -> SpectralData:
    return a if isinstance(a, SpectralData) else spectral_data(a)


def op_function(f: ScalarFunctionSpec, a) -> np.ndarray:
    """Functional calculus f(a) for each matrix of a Hermitian (..., n, n)
    stack, or of the stack whose ``SpectralData`` is given."""
    sd = _spectral(a)
    vals = f(sd.eigenvalues)
    return (sd.eigenvectors * vals[..., None, :]) @ adjoint(sd.eigenvectors)


def _distinct(items) -> tuple[list, list[int]]:
    """The distinct objects of ``items`` (by identity), and the index of
    each item among them."""
    objs, index = [], []
    for x in items:
        i = next((i for i, o in enumerate(objs) if o is x), len(objs))
        if i == len(objs):
            objs.append(x)
        index.append(i)
    return objs, index


def moi(f: ScalarFunctionSpec, k: int | tuple[int, ...], a_tuple: Sequence,
        b_tuple: Sequence[np.ndarray]) -> np.ndarray:
    """Multiple operator integral I^a f^[k] [b_1, ..., b_k], or a sum of
    them over shared arguments.

    Exact finite spectral sum: the divided-difference kernel weighted by
    spectral projections of the k+1 Hermitian arguments, contracted with
    the k perturbation directions.  Every argument is a (..., n, n) stack
    (a Hermitian argument may be given as its ``SpectralData``); the
    leading batch axes broadcast, and the result has their shape followed
    by (n, n).  The kernel is built in blocks of the flattened batch of at
    most ``MOI_BLOCK_ENTRIES`` entries of the highest order.

    ``k`` may be a tuple of increasing orders, each at least 1: the result
    is then the sum, in that order, of the MOI of each order j over the
    first j + 1 arguments and the first j directions, with the bits of one
    call per order added up.  So ``moi(f, (1, 2), (sd, sd, sd), (b, b))``
    is ``moi(f, 1, (sd, sd), (b,)) + moi(f, 2, (sd, sd, sd), (b, b))``.

    Work is done once per distinct argument object: the spectral data,
    node vectors and eigenvector stacks of each Hermitian argument, and
    each rotated direction U_m* b_m U_{m+1} per distinct (a_m, b_m,
    a_{m+1}) and block, which every order reads.  So ``moi(f, 1, (a, a),
    (b,))`` runs one ``eigh``, and ``moi(f, (1, 2), (sd, sd, sd), (b, b))``
    rotates b once per block and, its node vectors being equal, builds one
    f^[1] table per block: the first order's kernel, which the second
    order's grid reads (see ``divided_diff_grid``).  Equal copies give the
    same bits as one object.
    """
    orders = (k,) if isinstance(k, int) else tuple(k)
    if len(orders) > 1 and not (
            orders[0] >= 1 and all(i < j for i, j in zip(orders, orders[1:]))):
        raise ValueError("a sum of MOIs takes increasing orders >= 1")
    k = orders[-1]
    if len(a_tuple) != k + 1 or len(b_tuple) != k:
        raise ValueError("need k+1 Hermitian arguments and k directions")
    shapes = [a.eigenvectors.shape if isinstance(a, SpectralData)
              else np.shape(a) for a in a_tuple]
    shapes += [np.shape(b) for b in b_tuple]
    n = shapes[0][-1]
    if any(s[-2:] != (n, n) for s in shapes):
        raise ValueError("dimension mismatch")
    a_objs, ai = _distinct(a_tuple)
    b_objs, bi = _distinct(b_tuple)
    sds = [_spectral(a) for a in a_objs]
    if k == 0:
        return op_function(f, sds[0])
    batch = np.broadcast_shapes(*(s[:-2] for s in shapes))
    size = math.prod(batch)

    def flat(x, tail):
        return np.broadcast_to(x, batch + tail).reshape((size,) + tail)

    vecs = [flat(sd.snapped, (n,)) for sd in sds]
    us = [flat(sd.eigenvectors, (n, n)) for sd in sds]
    bs = [flat(b, (n, n)) for b in b_objs]
    # each rotation U_m* b_m U_{m+1} by its distinct (a_m, b_m, a_{m+1})
    rot_keys = [(ai[m], bi[m], ai[m + 1]) for m in range(k)]
    letters = "abcdefgh"
    specs = {j: "..." + letters[: j + 1] + "," + ",".join(
        "..." + letters[m] + letters[m + 1] for m in range(j)
    ) + "->..." + letters[0] + letters[j] for j in orders}
    out = np.empty((size, n, n), dtype=complex)
    step = max(1, MOI_BLOCK_ENTRIES // n ** (k + 1))
    for lo in range(0, size, step):
        blk = slice(lo, lo + step)
        u = [x[blk] for x in us]
        rots = {key: adjoint(u[key[0]]) @ bs[key[1]][blk] @ u[key[2]]
                for key in set(rot_keys)}
        back = {i: adjoint(u[i]) for i in {ai[j] for j in orders}}
        v = [x[blk] for x in vecs]
        phi = acc = None
        for j in orders:
            # order 1's kernel is the f^[1] table of order 2's grid
            phi = divided_diff_grid(f, [v[i] for i in ai[: j + 1]],
                                    phi if j == 2 else None)
            term = (u[ai[0]] @ np.einsum(specs[j], phi, *(
                rots[key] for key in rot_keys[:j])) @ back[ai[j]])
            acc = term if acc is None else acc + term
        out[blk] = acc
    return out.reshape(batch + (n, n))


def dk_operator_function(f: ScalarFunctionSpec, a: np.ndarray, k: int,
                         b_tuple: Sequence[np.ndarray]) -> np.ndarray:
    """k-th derivative of the operator function a -> f(a): the symmetrized
    MOI over all orderings of the directions, for a Hermitian (..., n, n)
    stack ``a``.  Orderings that put the same direction objects in the
    same slots (every ordering of ``(b, b)``) are one MOI, computed once
    and added once per ordering."""
    if len(b_tuple) != k:
        raise ValueError("need k directions")
    sd = spectral_data(a)
    _, bi = _distinct(b_tuple)
    terms = {}
    out = np.zeros_like(a, dtype=complex)
    for perm in itertools.permutations(range(k)):
        key = tuple(bi[p] for p in perm)
        if key not in terms:
            terms[key] = moi(f, k, [sd] * (k + 1), [b_tuple[p] for p in perm])
        out = out + terms[key]
    return out


# -- semicircle comparison ------------------------------------------------


def semicircle_cdf(s, t: float):
    """CDF of the semicircle distribution of variance t (support
    [-2 sqrt(t), 2 sqrt(t)])."""
    if t <= 0:
        raise ValueError("variance must be positive")
    r = 2.0 * math.sqrt(t)
    s = np.asarray(s, dtype=float)
    inside = np.clip(s, -r, r)
    val = (
        0.5
        + inside * np.sqrt(np.maximum(4 * t - inside**2, 0.0)) / (4 * np.pi * t)
        + np.arcsin(inside / r) / np.pi
    )
    return np.where(s <= -r, 0.0, np.where(s >= r, 1.0, val))


def esd_distance(a: np.ndarray, t: float) -> float:
    """Kolmogorov distance between the empirical spectral CDF of ``a`` and
    the semicircle CDF of variance ``t``."""
    if t <= 0:
        raise ValueError("variance must be positive")
    lam = np.sort(np.linalg.eigvalsh(a))
    n = len(lam)
    cdf = semicircle_cdf(lam, t)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(cdf - upper)), np.max(np.abs(cdf - lower))))
