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

The MOI route (``spectral_data``, ``op_function``, ``moi``) works on
stacks: matrices of shape (..., n, n) and node vectors of shape (..., m)
with leading batch axes, where a single matrix is the stack without batch
axes.  Each batch element gives what a call on it alone gives.  It shares
what its arguments share: ``moi`` computes the spectral data, node
vectors, eigenvector stacks and rotated directions once per distinct
argument object, on one flat batch axis.  Every scalar function takes one
route for orders 1 and 2, from its f^[1] table (``_dd1``): a polynomial's
closed form, or an exponential sum's ``_exp_dd1``, which makes one exp per
atom and distinct node vector and its sinc as sin(y) / y, and skips an
atom with xi = 0.  The first order is the table times the rotated
direction.  The second order has no (n, n, n) kernel: the recurrence
f^[2](a, b, c) = (f^[1](a, b) - f^[1](a, c)) / (b - c) turns the sum over
the middle index into two batched matrix products with one reciprocal grid
D = 1 / (b - c), and every close pair of nodes adds its own terms by one
rule, the recurrence of f^[2] over f^[1] (``_close``).  Near-equal
eigenvalues, left as ``eigh`` gives them, are such close pairs when they
are closer than ``CONFLUENT_TOL`` relative.  When all three node vectors
are equal, the b = c diagonal is (f^[1] - f') D, with f' the table's own
diagonal.  Orders above 2, which only polynomials have, contract the dense
closed-form kernel of ``divided_diff_grid`` with one ``einsum``.  A sum of
orders (``moi(f, (1, 2), ...)``) shares the rotations between its orders,
and its first order's kernel, the f^[1] table times the rotated direction,
is what the second order's products read.  The arrays of each block come
from recycled buffers (``buffers``), so the next block and the next call
reuse them.  Equal copies of an argument give the same bits as one object
passed in every slot.
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


def trace_n(a: np.ndarray) -> np.ndarray:
    """Normalized trace tr_n = Tr/n over the last two axes."""
    return np.trace(a, axis1=-2, axis2=-1) / a.shape[-1]


def _tr_quad(v: np.ndarray) -> np.ndarray:
    """tr_n(v* v) per matrix of a (..., n, n) stack, real."""
    n = v.shape[-1]
    return np.einsum("...ij,...ij->...", np.conj(v), v).real / n


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
        arr.setflags(write=False)
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
    z = sorted(nodes)
    i = 0
    while i < len(z):
        j = i + 1
        while j < len(z) and abs(z[j] - z[j - 1]) < tol_scale:
            j += 1
        if j - i > 1:
            rep = sum(z[i:j]) / (j - i)
            for m in range(i, j):
                z[m] = rep
        i = j
    return z


def divided_diff(f: ScalarFunctionSpec, nodes: Sequence) -> complex:
    """k-th divided difference of ``f`` at ``nodes`` (k = len(nodes) - 1).

    Uses the confluent Newton table; repeated or near-equal nodes fall back
    to analytic derivatives.  When ``f`` is a polynomial and the nodes are
    exact rationals, the computation is exact.  Float nodes just outside
    ``CONFLUENT_TOL`` lose digits to the table's division by their gaps:
    for e^{2iλ} + 0.5i e^{−1.3iλ} at 0.7, 0.7 + g and 0.7 + 2g, f^[2] is
    7.2e-6, 3.3e-7 and 3.3e-9 relative off at g = 3e-6, 1e-5 and 1e-4, and
    at well-separated nodes within 1e-13 of a contour integral.
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
    """First divided difference of the exponential sum ``f`` on the grid of
    node vectors a (..., m_0) and b (..., m_1), of shape (..., m_0, m_1),
    stable at coalescence: g^[1](a, b) is the sum over atoms (c, xi) of
    c i xi e^{i xi a/2} e^{i xi b/2} sin(y) / y, y = xi (a - b) / 2.

    a - b is made once, its exact zeros mapped to 1e-200, where sin(y) / y
    is 1 for any |xi| from about 1e-108 to 1e192.  Each atom makes one exp
    per distinct node vector (one when a and b are equal, as in every
    table ``moi`` builds), folds its constant c i xi into a's factor, and
    takes their outer product as a batched matrix product; an atom with
    xi = 0 (a constant) is skipped, as its divided differences vanish."""
    same = np.array_equal(a, b)
    a, b = a[..., :, None], b[..., None, :]
    shape = np.broadcast_shapes(a.shape, b.shape)
    diff = np.subtract(a, b, out=buffers.empty(shape, float))
    diff[diff == 0] = 1e-200
    y = buffers.empty(shape, float)
    # sin(y) / y, held as complex so that the products need no cast
    sinc = buffers.zeros(shape)
    out = buffers.zeros(shape)
    term = buffers.empty(shape)
    for c, xi in f.atoms:
        if xi == 0:
            continue
        ea = np.exp(0.5j * xi * a)
        eb = ea.reshape(b.shape) if same else np.exp(0.5j * xi * b)
        np.multiply(0.5 * xi, diff, out=y)
        np.sin(y, out=sinc.real)
        np.divide(sinc.real, y, out=sinc.real)
        np.matmul((complex(c) * 1j * xi) * ea, eb, out=term)
        term *= sinc
        out += term
    return out


def _dd1(f: ScalarFunctionSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The f^[1] table of ``f`` on the grid of node vectors a (..., m_0)
    and b (..., m_1), of shape (..., m_0, m_1): a polynomial's closed form
    (``_poly_divdiff_grid``), or an exponential sum's ``_exp_dd1``.  Both
    are f'(b) where b = a."""
    if f.kind == "polynomial":
        return _poly_divdiff_grid(
            f, _tensor_axes([a.astype(complex), b.astype(complex)]))
    return _exp_dd1(f, a, b)


def _close(f: ScalarFunctionSpec, a, b, c, d_ab, d_bc, delta) -> np.ndarray:
    """Second divided difference g^[2](a, b, c) of ``f`` at node pairs with
    |b - c| < delta, on broadcast arrays, given d_ab = g^[1](a, b) and
    d_bc = g^[1](b, c) (None where b = c throughout, for g'(b)):
    (g^[1](b, c) - g^[1](a, b)) / (c - a), or g''((a + b + c) / 3) / 2
    where a is within delta of c.  A ``_dd1`` value at b = c is g'(b)
    already."""
    if d_bc is None:
        d_bc = f.derivative(1)(b)
    ca = c - a
    near = np.abs(ca) < delta
    out = (d_bc - d_ab) / np.where(near, 1.0, ca)
    if np.any(near):
        mean = (a + b + c) / 3.0
        out[near] = f.derivative(2)(mean[near]) / 2.0
    return out


def _pairs(f: ScalarFunctionSpec, a, b, c, table, delta):
    """What ``_moi2`` needs besides its products, on (B, m) node vectors,
    the g^[1](a, b) ``table`` and (B,) ``delta``.

    Returns g^[1](a, c) (``table`` itself when b and c are equal), the
    reciprocal grid D = 1 / (b - c), 0 on the close pairs |b - c| < delta,
    and g^[2](a, b, c) at the close pairs: on the b = c diagonal of equal b
    and c as a (B, m_0, m) array (None when b and c differ), and at the
    other close pairs (repeated or near-equal eigenvalues, every pair of the
    zero matrix) gathered, as their indices k, j, l and a (pairs, m_0)
    array (None when there are none).  delta, ``CONFLUENT_TOL`` times the
    largest |node| (``_confluent_delta``), is the one near-equal rule for
    eigenvalues.  When all three node vectors are equal, g^[1](b, c) is
    read from the table and the diagonal is G = (table - g'(b)) D, with
    g'(b) the table's own diagonal, g''/2 on G's diagonal and ``_close``'s
    value at G's close pairs.  Otherwise each close pair takes ``_close``,
    given g^[1](b, c) from ``_dd1``."""
    same = np.array_equal(b, c)
    equal = same and np.array_equal(a, b)
    d_ac = table if same else _dd1(f, a, c)
    shape = b.shape + c.shape[1:]                      # (B, m_1, m_2)
    bc = np.subtract(b[:, :, None], c[:, None, :],
                     out=buffers.empty(shape, float))
    rest = np.abs(bc) < delta[:, None, None]           # the close pairs
    bc[rest] = np.inf
    # real, held as complex so that the products need no cast
    recip = buffers.zeros(shape)
    np.divide(1.0, bc, out=recip.real)
    del bc
    diag = gathered = None
    if same:
        d = np.arange(b.shape[-1])
        rest[:, d, d] = False
        if equal:
            diag = np.subtract(table, table[:, d, d][:, None, :],
                               out=buffers.empty(table.shape))
            diag *= recip
            diag[:, d, d] = f.derivative(2)(b) / 2.0
        else:
            bn = b[:, None, :]
            diag = _close(f, a[:, :, None], bn, bn, table, None,
                          delta[:, None, None])
    if np.any(rest):
        k, j, l = np.nonzero(rest)
        if equal:
            d_bc = table[k, j, l]
            diag[k, j, l] = _close(f, a[k, j], c[k, l], c[k, l], d_bc,
                                   None, delta[k])
        else:
            d_bc = _dd1(f, b[k, j, None], c[k, l, None])[:, 0, 0]
        gathered = k, j, l, _close(
            f, a[k], b[k, j, None], c[k, l, None], table[k, :, j],
            d_bc[:, None], delta[k, None])
    return d_ac, recip, diag, gathered


def _moi2(f: ScalarFunctionSpec, a, b, c, table, x, tx, y,
          delta) -> np.ndarray:
    """sum_j g^[2](a_i, b_j, c_k) x[i, j] y[j, k] for the scalar function
    ``f``, on (B, m) node vectors, (B, m, m) matrices and (B,) ``delta``,
    with ``table`` the g^[1](a, b) grid and ``tx`` its product with x.

    No (B, m, m, m) kernel is made.  Where |b_j - c_k| >= delta the
    recurrence g^[2] = (g^[1](a_i, b_j) - g^[1](a_i, c_k)) / (b_j - c_k)
    splits the sum into two products: with ``_pairs``' reciprocal grid D,
    it is (tx @ (D y)) - g^[1](a, c) (x @ (D y)), the last product taken
    elementwise.  Each close pair adds its own terms with ``_pairs``' g^[2]:
    the b = c diagonal on (B, m, m) arrays, the other close pairs with
    ``np.add.at``."""
    d_ac, recip, diag, gathered = _pairs(f, a, b, c, table, delta)
    dy = np.multiply(recip, y, out=recip)
    del recip
    out = np.matmul(tx, dy, out=buffers.empty(tx.shape))
    if diag is not None:
        d = np.arange(b.shape[-1])
        diag *= x
        diag *= y[:, d, d][:, None, :]
        out += diag
    del diag
    xdy = np.matmul(x, dy, out=buffers.empty(tx.shape))
    del dy
    xdy *= d_ac
    out -= xdy
    if gathered is not None:
        k, j, l, g2 = gathered
        np.add.at(out, (k, slice(None), l),
                  g2 * x[k, :, j] * y[k, j, l][:, None])
    return out


def _confluent_delta(vecs) -> np.ndarray:
    """``CONFLUENT_TOL`` times the largest |node| of each batch element's
    node vectors (1 where they are all 0): the gap below which a pair of
    nodes is close."""
    scale = 0.0
    for v in vecs:
        scale = np.maximum(scale, np.max(np.abs(v), axis=-1, initial=0.0))
    return CONFLUENT_TOL * np.where(scale == 0, 1.0, scale)


def divided_diff_grid(f: ScalarFunctionSpec, vectors: Sequence) -> np.ndarray:
    """Divided difference f^[k] of the polynomial ``f`` on the tensor grid
    of k+1 node vectors, in closed form (``_poly_divdiff_grid``).

    Each vector has shape (..., m_j) with broadcastable leading batch axes,
    and the result has shape (..., m_0, ..., m_k); a batch element's entries
    depend only on its own nodes.  ``moi`` contracts this dense kernel for
    orders above 2 only; its orders 1 and 2 read the f^[1] table (``_dd1``)
    and make no (n, n, n) kernel.  An exponential sum raises
    ``ValueError``: its MOIs, of orders 1 and 2, take that route.
    """
    if f.kind != "polynomial":
        raise ValueError("divided_diff_grid builds polynomial kernels only")
    return _poly_divdiff_grid(f, _tensor_axes(
        [np.asarray(v, dtype=float).astype(complex) for v in vectors]))


# -- spectral data and operator functions ---------------------------------

# complex kernel entries per block of an MOI: ``moi`` works on blocks of at
# most this many batch * n^(k+1) entries at a time, so the memory of a dense
# kernel grows like batch * n^2 rather than batch * n^(k+1)
MOI_BLOCK_ENTRIES = 2**16


@dataclass
class SpectralData:
    """Eigendecomposition of a (..., n, n) stack of Hermitian matrices.

    The MOI kernels take their nodes from ``eigenvalues`` as ``eigh`` gives
    them: near-equal eigenvalues are left apart, and the kernels' close-pair
    rule at ``CONFLUENT_TOL`` treats them.  Indexing selects along the
    leading batch axes.
    """

    eigenvalues: np.ndarray   # (..., n), ascending
    eigenvectors: np.ndarray  # (..., n, n), one eigenvector per column

    def __getitem__(self, idx) -> "SpectralData":
        return SpectralData(self.eigenvalues[idx], self.eigenvectors[idx])


def spectral_data(a: np.ndarray) -> SpectralData:
    """Eigendecomposition of each matrix of a (..., n, n) Hermitian stack,
    by ``eigh``.

    Raises ``ValueError`` if any entry is NaN or infinite, naming the first
    such entries, and if any matrix is not Hermitian.
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
    return SpectralData(*np.linalg.eigh(a))


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


def _check_order(f: ScalarFunctionSpec, k: int) -> None:
    """An exponential sum's MOIs have orders up to 2: raise ``ValueError``
    for a higher order ``k``."""
    if f.kind != "polynomial" and k > 2:
        raise ValueError("an exponential sum's MOI has orders up to 2, "
                         f"got order {k}")


def moi(f: ScalarFunctionSpec, k: int | tuple[int, ...], a_tuple: Sequence,
        b_tuple: Sequence[np.ndarray]) -> np.ndarray:
    """Multiple operator integral I^a f^[k] [b_1, ..., b_k], or a sum of
    them over shared arguments.

    Exact finite spectral sum: the divided-difference kernel weighted by
    spectral projections of the k+1 Hermitian arguments, contracted with
    the k perturbation directions.  Every argument is a (..., n, n) stack
    (a Hermitian argument may be given as its ``SpectralData``); the
    leading batch axes broadcast, and the result has their shape followed
    by (n, n).  The work is done in blocks of the flattened batch of at
    most ``MOI_BLOCK_ENTRIES`` kernel entries of the highest order.  For
    every scalar function the first order is its f^[1] table (``_dd1``)
    times the rotated direction, and the second order is two batched
    matrix products of that and the rotated directions plus the close node
    pairs' terms (``_moi2``), with no (n, n, n) kernel.  A polynomial's
    orders above 2 contract its dense kernel (``divided_diff_grid``) with
    one ``einsum``; an exponential sum has no order above 2, and asking for
    one raises ``ValueError`` before any ``eigh``.
    The blocks' rotations, tables and products are carved from recycled
    buffers of one block's size (``buffers.recycled``), and each block
    lets go of the last one's before it makes its own.  The node vectors
    are the arguments' eigenvalues as ``eigh`` gives them; near-equal ones
    take the kernels' close-pair rule at ``CONFLUENT_TOL``.

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
    f^[1] table per block: the first order's product with the rotated b is
    the first term of the second order's products.  Equal copies give the
    same bits as one object.
    """
    orders = (k,) if isinstance(k, int) else tuple(k)
    increasing = all(i < j for i, j in zip(orders, orders[1:]))
    if not orders or (len(orders) > 1 and not (orders[0] >= 1 and increasing)):
        raise ValueError("a sum of MOIs takes one or more increasing orders "
                         f">= 1, got {orders}")
    k = orders[-1]
    _check_order(f, k)
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

    vecs = [flat(sd.eigenvalues, (n,)) for sd in sds]
    us = [flat(sd.eigenvectors, (n, n)) for sd in sds]
    bs = [flat(b, (n, n)) for b in b_objs]
    # each rotation U_m* b_m U_{m+1} by its distinct (a_m, b_m, a_{m+1})
    rot_keys = [(ai[m], bi[m], ai[m + 1]) for m in range(k)]
    letters = "abcdefgh"
    specs = {j: "..." + letters[: j + 1] + "," + ",".join(
        "..." + letters[m] + letters[m + 1] for m in range(j)
    ) + "->..." + letters[0] + letters[j] for j in orders if j > 2}
    out = np.empty((size, n, n), dtype=complex)
    step = max(1, MOI_BLOCK_ENTRIES // n ** (k + 1))
    with buffers.recycled((min(step, size), n, n)):
        for lo in range(0, size, step):
            rots = table = tx = inner = None  # the last block's arrays
            blk = slice(lo, lo + step)
            u = [x[blk] for x in us]
            rots = {key: np.matmul(adjoint(u[key[0]]) @ bs[key[1]][blk],
                                   u[key[2]], out=buffers.empty(u[0].shape))
                    for key in set(rot_keys)}
            back = {i: adjoint(u[i]) for i in {ai[j] for j in orders}}
            v = [x[blk] for x in vecs]
            acc = None
            for j in orders:
                nodes = [v[i] for i in ai[: j + 1]]
                dirs = [rots[key] for key in rot_keys[:j]]
                if j <= 2:
                    if tx is None:  # order 1's term, read by order 2
                        table = _dd1(f, nodes[0], nodes[1])
                        tx = np.multiply(table, dirs[0],
                                         out=buffers.empty(table.shape))
                    inner = tx if j == 1 else _moi2(
                        f, *nodes, table, dirs[0], tx, dirs[1],
                        _confluent_delta([v[i] for i in set(ai[:3])]))
                else:
                    inner = np.einsum(specs[j], divided_diff_grid(f, nodes),
                                      *dirs)
                if acc is None:
                    acc = np.matmul(u[ai[0]] @ inner, back[ai[j]],
                                    out=out[blk])
                else:
                    acc += u[ai[0]] @ inner @ back[ai[j]]
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
    _check_order(f, k)
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
