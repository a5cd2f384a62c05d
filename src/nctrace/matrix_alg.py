"""The finite-dimensional numerical *-probability space (M_n(C), tr_n).

Norms, the Hermitian orthonormal basis and its magic-formula identities,
functional calculus, divided differences, and multiple operator integrals
(MOIs) realized as exact spectral sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

# relative gap below which divided differences switch to confluent entries
CONFLUENT_TOL = 1e-6
# relative tolerance for grouping near-degenerate eigenvalues
CLUSTER_TOL = 1e-8


def trace_n(a: np.ndarray) -> np.ndarray:
    """Normalized trace tr_n = Tr/n over the last two axes."""
    return np.trace(a, axis1=-2, axis2=-1) / a.shape[-1]


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    scale = np.max(np.abs(a)) or 1.0
    return bool(np.max(np.abs(a - adjoint(a))) <= tol * scale)


def lp_norm(a: np.ndarray, p: float) -> float:
    """Noncommutative L^p norm (tr_n |a|^p)^(1/p); p = inf gives the
    operator norm."""
    if p < 1:
        raise ValueError("p must be >= 1")
    s = np.linalg.svd(a, compute_uv=False)
    if math.isinf(p):
        return float(s[0])
    n = a.shape[-1]
    return float((np.sum(s**p) / n) ** (1.0 / p))


def l1_trace_norms(a: np.ndarray) -> np.ndarray:
    """tr_n |a| for each matrix of a (..., n, n) stack, shape (...)."""
    return np.sum(np.linalg.svd(a, compute_uv=False), axis=-1) / a.shape[-1]


def hermitian_onb(n: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of M_n(C) for <a,b>_n = n Tr(b* a).

    Returns n^2 matrices: scaled diagonal units and symmetric/antisymmetric
    off-diagonal pairs.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    basis = []
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0 / math.sqrt(n)
        basis.append(e)
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = e[l, k] = 1.0 / math.sqrt(2 * n)
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = -1j / math.sqrt(2 * n)
            e[l, k] = 1j / math.sqrt(2 * n)
            basis.append(e)
    return basis


def hermitian_onb_array(n: int) -> np.ndarray:
    """Basis stacked into an (n^2, n, n) array, cached per dimension.

    It takes 16 n^4 bytes.  Only the magic-formula sum and the selftest's
    gamma-rule check use it; the Hermitian-BM sampler scatters its
    coefficients without it.
    """
    arr = _ONB_CACHE.get(n)
    if arr is None:
        arr = np.stack(hermitian_onb(n))
        _ONB_CACHE[n] = arr
    return arr


_ONB_CACHE: dict[int, np.ndarray] = {}


def magic_sum(a: np.ndarray, basis: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Sum_e e a e over the Hermitian basis; equals tr_n(a) * I."""
    n = a.shape[-1]
    es = np.stack(basis) if basis is not None else hermitian_onb_array(n)
    if es.shape[-1] != n:
        raise ValueError("basis dimension does not match the matrix")
    return np.einsum("eij,jk,ekl->il", es, a, es)


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

    def degree(self) -> int:
        if self.kind != "polynomial":
            raise ValueError("degree is defined for polynomials only")
        deg = -1
        for i, c in enumerate(self.coeffs):
            if c != 0:
                deg = i
        return deg


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


def _poly_divdiff_grid(f: ScalarFunctionSpec, vectors, k: int) -> np.ndarray:
    """Closed-form polynomial divided difference on a tensor grid:
    sum_i c_i * h_{i-k}(lambda_1, ..., lambda_{k+1})."""
    shaped = []
    for axis, v in enumerate(vectors):
        shape = [1] * (k + 1)
        shape[axis] = len(v)
        shaped.append(np.asarray(v, dtype=complex).reshape(shape))
    out_shape = tuple(len(v) for v in vectors)
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


def _exp_dd1(xi: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable first divided difference of e^{i xi lambda} on broadcast
    arrays."""
    return (
        1j * xi
        * np.exp(1j * xi * (a + b) / 2.0)
        * np.sinc(xi * (a - b) / (2.0 * np.pi))
    )


def _exp_dd2(xi: float, a, b, c, scale: float) -> np.ndarray:
    """Stable second divided difference of e^{i xi lambda} (symmetric)."""
    delta = CONFLUENT_TOL * (scale or 1.0)
    bc = np.abs(b - c)
    # generic recursion, guarding the denominator
    den = np.where(bc < delta, 1.0, b - c)
    generic = (_exp_dd1(xi, a, b) - _exp_dd1(xi, a, c)) / den
    # b ~ c, a separated: (g'(m) - g^[1](m, a)) / (m - a)
    m = (b + c) / 2.0
    am = np.abs(m - a)
    den2 = np.where(am < delta, 1.0, m - a)
    conf2 = (1j * xi * np.exp(1j * xi * m) - _exp_dd1(xi, m, a)) / den2
    # all three coincide: g''(mean) / 2
    mean = (a + b + c) / 3.0
    conf3 = (1j * xi) ** 2 * np.exp(1j * xi * mean) / 2.0
    out = np.where(bc < delta, conf2, generic)
    out = np.where((bc < delta) & (am < delta), conf3, out)
    return out


def divided_diff_grid(f: ScalarFunctionSpec, vectors: Sequence) -> np.ndarray:
    """Divided difference f^[k] on the tensor grid of k+1 node vectors.

    Vectorized and cancellation-safe; this is the kernel evaluation used
    by the MOI sums.  Supports k <= 2 for exponential sums and any k for
    polynomials.
    """
    k = len(vectors) - 1
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if f.kind == "polynomial":
        return _poly_divdiff_grid(f, vecs, k)
    if k == 0:
        return f(vecs[0]).astype(complex)
    scale = max(float(np.max(np.abs(v))) if v.size else 0.0 for v in vecs)
    shaped = []
    for axis, v in enumerate(vecs):
        shape = [1] * (k + 1)
        shape[axis] = len(v)
        shaped.append(v.reshape(shape))
    out_shape = tuple(len(v) for v in vecs)
    out = np.zeros(out_shape, dtype=complex)
    for c, xi in f.atoms:
        if k == 1:
            part = _exp_dd1(xi, shaped[0], shaped[1])
        elif k == 2:
            # symmetrize over which pair feeds the guarded recursion
            part = (
                _exp_dd2(xi, shaped[0], shaped[1], shaped[2], scale)
                + _exp_dd2(xi, shaped[1], shaped[2], shaped[0], scale)
                + _exp_dd2(xi, shaped[2], shaped[0], shaped[1], scale)
            ) / 3.0
        else:
            raise NotImplementedError(
                "exp_sum divided differences support k <= 2 on grids"
            )
        out = out + complex(c) * np.broadcast_to(part, out_shape)
    return out


# -- spectral data and operator functions ---------------------------------


@dataclass
class SpectralData:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: list  # list of index ranges (start, stop)

    @property
    def cluster_values(self) -> np.ndarray:
        return np.array(
            [self.eigenvalues[a:b].mean() for a, b in self.clusters]
        )


def spectral_data(a: np.ndarray, tol: float = CLUSTER_TOL) -> SpectralData:
    """Eigendecomposition with near-degenerate eigenvalues grouped."""
    if not is_hermitian(a, tol=1e-10):
        raise ValueError("spectral data requires a Hermitian matrix")
    lam, u = np.linalg.eigh(a)
    scale = max(abs(lam[0]), abs(lam[-1])) or 1.0
    clusters = []
    start = 0
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i] - lam[i - 1] > tol * scale:
            clusters.append((start, i))
            start = i
    return SpectralData(lam, u, clusters)


def op_function(f: ScalarFunctionSpec, a: np.ndarray) -> np.ndarray:
    """Functional calculus f(a) for Hermitian a."""
    sd = spectral_data(a)
    vals = f(sd.eigenvalues)
    return (sd.eigenvectors * vals) @ adjoint(sd.eigenvectors)


def moi(f: ScalarFunctionSpec, k: int, a_tuple: Sequence[np.ndarray],
        b_tuple: Sequence[np.ndarray]) -> np.ndarray:
    """Multiple operator integral I^a f^[k] [b_1, ..., b_k].

    Exact finite spectral sum: the divided-difference kernel weighted by
    spectral projections of the k+1 Hermitian arguments, contracted with
    the k perturbation directions.
    """
    if len(a_tuple) != k + 1 or len(b_tuple) != k:
        raise ValueError("need k+1 Hermitian arguments and k directions")
    n = a_tuple[0].shape[-1]
    if any(m.shape[-1] != n for m in (*a_tuple, *b_tuple)):
        raise ValueError("dimension mismatch")
    sds = [spectral_data(a) for a in a_tuple]
    if k == 0:
        return op_function(f, a_tuple[0])
    # eigenvalue vectors with within-cluster values replaced by the
    # cluster representative, to keep the kernel well conditioned
    lam_vecs = []
    for sd in sds:
        lam = sd.eigenvalues.copy()
        for a0, b0 in sd.clusters:
            lam[a0:b0] = lam[a0:b0].mean()
        lam_vecs.append(lam)
    phi = divided_diff_grid(f, lam_vecs)
    mids = [
        adjoint(sds[m].eigenvectors) @ b_tuple[m] @ sds[m + 1].eigenvectors
        for m in range(k)
    ]
    letters = "abcdefgh"[: k + 1]
    spec = letters + "," + ",".join(
        letters[m] + letters[m + 1] for m in range(k)
    ) + "->" + letters[0] + letters[-1]
    core = np.einsum(spec, phi, *mids)
    return sds[0].eigenvectors @ core @ adjoint(sds[-1].eigenvectors)


def dk_operator_function(f: ScalarFunctionSpec, a: np.ndarray, k: int,
                         b_tuple: Sequence[np.ndarray]) -> np.ndarray:
    """k-th derivative of the operator function a -> f(a): the symmetrized
    MOI over all orderings of the directions."""
    if len(b_tuple) != k:
        raise ValueError("need k directions")
    out = np.zeros_like(a, dtype=complex)
    for perm in itertools.permutations(range(k)):
        out = out + moi(f, k, [a] * (k + 1), [b_tuple[p] for p in perm])
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
