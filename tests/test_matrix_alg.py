"""Matrix layer: norms, basis identities, divided differences, MOIs.

Oracles: hand-computed values, scipy quadrature over the standard simplex,
matrix exponentials, and finite differences of the operator function.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import nctrace.ito
from nctrace import matrix_alg
from nctrace.ito import functional_ito_residual
from nctrace.matrix_alg import (
    CLUSTER_TOL,
    CONFLUENT_TOL,
    ScalarFunctionSpec,
    adjoint,
    divided_diff,
    divided_diff_grid,
    dk_operator_function,
    esd_distance,
    hermitian_onb_array,
    l1_trace_norms,
    magic_sum,
    moi,
    op_function,
    semicircle_cdf,
    spectral_data,
    trace_n,
)
from nctrace.process_sim import ProcessPath, RngStream, TimeGrid, simulate_hbm
from nctrace.stoch_int import cumulative_path

RNG = np.random.default_rng(20240817)


def rand_hermitian(n, rng=RNG, scale=1.0):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g + g.conj().T) / 2


# -- Hermitian basis and magic formula ------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_basis_is_orthonormal(n):
    es = hermitian_onb_array(n)
    assert len(es) == n * n
    for e in es:
        assert np.allclose(e, adjoint(e), atol=1e-14)
    gram = np.array(
        [[n * np.trace(adjoint(b) @ a) for b in es] for a in es]
    )
    assert np.max(np.abs(gram - np.eye(n * n))) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8])
def test_magic_formula(n):
    a = rand_hermitian(n) + 1j * 0  # generic Hermitian
    b = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    for m in (a, b):
        got = magic_sum(m)
        want = trace_n(m) * np.eye(n)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_rank_one_basis_identity(n):
    # sum_e tr_n(m e) e = m / n^2, the source of the cross-term weights
    m = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    es = hermitian_onb_array(n)
    got = sum(trace_n(m @ e) * e for e in es)
    assert np.max(np.abs(got - m / n**2)) < 1e-12


# -- scalar function specs ------------------------------------------------


def test_polynomial_eval_and_derivative():
    p = ScalarFunctionSpec.polynomial([1, 0, -2, 1])  # 1 - 2 l^2 + l^3
    assert p(2.0) == pytest.approx(1 - 8 + 8)
    assert p.derivative()(2.0) == pytest.approx(-8 + 12)
    assert p.derivative(3)(0.0) == pytest.approx(6)


def test_exp_sum_eval_and_derivative():
    f = ScalarFunctionSpec.exp_sum([(2.0, 1.5), (1j, -0.5)])
    lam = 0.7
    want = 2 * np.exp(1.5j * lam) + 1j * np.exp(-0.5j * lam)
    assert f(lam) == pytest.approx(want)
    want_d = 2 * 1.5j * np.exp(1.5j * lam) + 1j * (-0.5j) * np.exp(-0.5j * lam)
    assert f.derivative()(lam) == pytest.approx(want_d)


# -- divided differences --------------------------------------------------


def test_divided_diff_polynomial_exact():
    p = ScalarFunctionSpec.polynomial([0, 0, 0, 1])  # l^3
    assert divided_diff(p, [1, 2]) == 7
    assert divided_diff(p, [Fraction(1, 2), Fraction(1, 2)]) == Fraction(3, 4)
    assert divided_diff(p, [0, 1, 2]) == 3
    assert divided_diff(p, [1, 1, 1, 1]) == 1
    assert divided_diff(p, [1, 1, 1, 1, 1]) == 0


def test_divided_diff_is_symmetric():
    p = ScalarFunctionSpec.polynomial([2, -1, 0, 3, 1])
    nodes = [Fraction(1), Fraction(3), Fraction(-2)]
    ref = divided_diff(p, nodes)
    assert divided_diff(p, [nodes[2], nodes[0], nodes[1]]) == ref


def _simplex_dd(f, nodes):
    """Oracle: f^[k](nodes) as the integral of f^(k) over the standard
    simplex, reduced to iterated 1-d quadrature."""
    k = len(nodes) - 1
    fk = f.derivative(k)

    def level(depth, weights_left, point):
        if depth == k:
            lam = point + weights_left * nodes[k]
            return complex(fk(lam))
        def integrand(s, part):
            v = level(depth + 1, weights_left - s, point + s * nodes[depth])
            return v.real if part == 0 else v.imag
        re = quad(integrand, 0, weights_left, args=(0,), limit=200)[0]
        im = quad(integrand, 0, weights_left, args=(1,), limit=200)[0]
        return re + 1j * im

    return level(0, 1.0, 0.0)


def test_divided_diff_matches_simplex_quadrature():
    f = ScalarFunctionSpec.exp_sum([(1.0, 2.0)])
    nodes = [0.3, 0.7]
    assert divided_diff(f, nodes) == pytest.approx(
        _simplex_dd(f, nodes), rel=1e-8
    )
    nodes = [0.3, -0.4, 1.1]
    assert divided_diff(f, nodes) == pytest.approx(
        _simplex_dd(f, nodes), rel=1e-6
    )
    p = ScalarFunctionSpec.polynomial([0.0, 1.0, 0.5, -2.0])
    assert complex(divided_diff(p, [0.2, 0.9, -0.3])) == pytest.approx(
        _simplex_dd(p, [0.2, 0.9, -0.3]), rel=1e-8
    )


def test_divided_diff_confluent_fallback_is_continuous():
    f = ScalarFunctionSpec.exp_sum([(1.0, 3.0)])
    exact_conf = divided_diff(f, [0.5, 0.5])
    assert exact_conf == pytest.approx(3j * np.exp(1.5j), rel=1e-12)
    near = divided_diff(f, [0.5, 0.5 + 1e-9])
    assert near == pytest.approx(exact_conf, rel=1e-7)


def test_divided_diff_grid_matches_scalar():
    p = ScalarFunctionSpec.polynomial([1.0, 0.0, 2.0, 0.0, -1.0])
    f = ScalarFunctionSpec.exp_sum([(1.0, 1.3), (0.5j, -2.1)])
    v1 = np.array([-1.1, 0.2, 0.9])
    v2 = np.array([0.4, 1.7])
    v3 = np.array([-0.6, 0.1, 0.8, 2.0])
    for spec in (p, f):
        grid = divided_diff_grid(spec, [v1, v2, v3])
        assert grid.shape == (3, 2, 4)
        for i, a in enumerate(v1):
            for j, b in enumerate(v2):
                for k, c in enumerate(v3):
                    want = divided_diff(spec, [a, b, c])
                    assert grid[i, j, k] == pytest.approx(want, rel=1e-9)


def test_divided_diff_grid_is_stable_near_coalescence():
    f = ScalarFunctionSpec.exp_sum([(1.0, 2.5)])
    eps = 1e-9
    grid = divided_diff_grid(
        f, [np.array([0.3]), np.array([0.3 + eps]), np.array([1.0])]
    )
    conf = divided_diff(f, [0.3, 0.3, 1.0])
    assert grid[0, 0, 0] == pytest.approx(conf, rel=1e-6)
    grid3 = divided_diff_grid(
        f, [np.array([0.3]), np.array([0.3 + eps]), np.array([0.3 - eps])]
    )
    conf3 = divided_diff(f, [0.3, 0.3, 0.3])
    assert grid3[0, 0, 0] == pytest.approx(conf3, rel=1e-6)


# -- operator functions and MOIs ------------------------------------------


def test_op_function_against_expm():
    a = rand_hermitian(6)
    f = ScalarFunctionSpec.exp_sum([(1.0, 0.9)])
    assert np.max(np.abs(op_function(f, a) - expm(0.9j * a))) < 1e-11


def test_op_function_polynomial_against_matmul():
    a = rand_hermitian(5)
    p = ScalarFunctionSpec.polynomial([2.0, 0.0, 1.0, -0.5])
    want = 2 * np.eye(5) + a @ a - 0.5 * a @ a @ a
    assert np.max(np.abs(op_function(p, a) - want)) < 1e-11


def test_spectral_data_requires_hermitian():
    with pytest.raises(ValueError):
        spectral_data(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_moi_first_order_monomial_exact():
    # I^{a,a} p^[1] [b] = sum_j a^j b a^{m-1-j} for p = l^m
    a = rand_hermitian(5)
    b = rand_hermitian(5)
    m = 4
    p = ScalarFunctionSpec.polynomial([0] * m + [1])
    want = sum(
        np.linalg.matrix_power(a, j) @ b @ np.linalg.matrix_power(a, m - 1 - j)
        for j in range(m)
    )
    got = moi(p, 1, (a, a), (b,))
    assert np.max(np.abs(got - want)) < 1e-10


def test_moi_first_order_finite_difference():
    a = rand_hermitian(6)
    b = rand_hermitian(6)
    f = ScalarFunctionSpec.exp_sum([(1.0, 1.2), (0.3, -0.7)])
    h = 1e-5
    fd = (op_function(f, a + h * b) - op_function(f, a - h * b)) / (2 * h)
    got = moi(f, 1, (a, a), (b,))
    assert np.max(np.abs(got - fd)) < 1e-6


def test_dk_operator_function_second_difference():
    a = rand_hermitian(5)
    b = rand_hermitian(5)
    for f in (
        ScalarFunctionSpec.polynomial([0.0, 1.0, -2.0, 0.5, 1.0]),
        ScalarFunctionSpec.exp_sum([(1.0, 1.5)]),
    ):
        h = 1e-4
        fd = (
            op_function(f, a + h * b)
            - 2 * op_function(f, a)
            + op_function(f, a - h * b)
        ) / h**2
        got = dk_operator_function(f, a, 2, (b, b))
        scale = max(1.0, float(np.max(np.abs(got))))
        assert np.max(np.abs(got - fd)) < 1e-6 * scale


def test_moi_handles_degenerate_spectrum():
    # eigenvalue 1 has multiplicity 2; compare against a perturbed spectrum
    u, _ = np.linalg.qr(rand_hermitian(4))
    a = u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ u.conj().T
    a = (a + a.conj().T) / 2
    b = rand_hermitian(4)
    f = ScalarFunctionSpec.exp_sum([(1.0, 1.1)])
    got = moi(f, 1, (a, a), (b,))
    a_eps = u @ np.diag([1.0, 1.0 + 1e-10, 2.0, 3.0]) @ u.conj().T
    a_eps = (a_eps + a_eps.conj().T) / 2
    got_eps = moi(f, 1, (a_eps, a_eps), (b,))
    assert np.max(np.abs(got - got_eps)) < 1e-7
    h = 1e-5
    fd = (op_function(f, a + h * b) - op_function(f, a - h * b)) / (2 * h)
    assert np.max(np.abs(got - fd)) < 1e-6


def test_moi_polynomial_pairing_with_derivative():
    # 2 I^{a,a,a} p^[2] [b, b] equals the symmetrized second derivative
    # with equal directions, and both match the exact monomial expansion
    a = rand_hermitian(4)
    b = rand_hermitian(4)
    p = ScalarFunctionSpec.polynomial([0, 0, 0, 1])
    want = sum(
        np.linalg.matrix_power(a, d1) @ b @ np.linalg.matrix_power(a, d2)
        @ b @ np.linalg.matrix_power(a, d3)
        for d1 in range(2)
        for d2 in range(2)
        for d3 in range(2)
        if d1 + d2 + d3 == 1
    ) * 2
    got = dk_operator_function(p, a, 2, (b, b))
    assert np.max(np.abs(got - want)) < 1e-10
    assert np.max(np.abs(2 * moi(p, 2, (a, a, a), (b, b)) - want)) < 1e-10


def test_moi_adjoint_symmetry():
    a1, a2 = rand_hermitian(4), rand_hermitian(4)
    b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    f = ScalarFunctionSpec.exp_sum([(1.0, 0.8)])
    lhs = adjoint(moi(f, 1, (a1, a2), (b,)))
    f_bar = ScalarFunctionSpec.exp_sum([(1.0, -0.8)])
    rhs = moi(f_bar, 1, (a2, a1), (adjoint(b),))
    assert np.max(np.abs(lhs - rhs)) < 1e-11


# -- batched stacks -------------------------------------------------------
#
# A (..., n, n) stack must give what one call per matrix gives.

EXP = ScalarFunctionSpec.exp_sum([(1.0, 1.1), (0.4j, -0.6)])
CUBIC = ScalarFunctionSpec.polynomial([0.5, -1.0, 0.0, 2.0, 0.0, 1.0])


def mixed_stack(rng, n=6):
    """Hermitian (2, 3, n, n) stack: a generic spectrum, eigenvalues within
    CLUSTER_TOL (snapped), within CONFLUENT_TOL but not CLUSTER_TOL, a
    1e-3-scale matrix, an exact double eigenvalue, and the zero matrix."""
    def with_spectrum(lam):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u, _ = np.linalg.qr(g)
        a = (u * np.asarray(lam)) @ u.conj().T
        return (a + a.conj().T) / 2
    rest = list(np.linspace(1.2, 2.6, n - 3))
    mats = [
        rand_hermitian(n, rng),
        with_spectrum([0.4, 0.4 + 1e-11, 0.4 + 2e-11] + rest),
        with_spectrum([0.7, 0.7 + 1e-7, 3.0] + rest),
        rand_hermitian(n, rng, scale=1e-3),
        with_spectrum([-0.3, -0.3, 1.1] + rest),
        np.zeros((n, n), dtype=complex),
    ]
    return np.stack(mats).reshape(2, 3, n, n)


def assert_rel(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def per_matrix(fn, *stacks):
    """fn applied to each matrix of equal-batch stacks, restacked."""
    batch = stacks[0].shape[:-2]
    outs = [fn(*(s[idx] for s in stacks)) for idx in np.ndindex(batch)]
    return np.stack(outs).reshape(batch + outs[0].shape)


def test_spectral_data_stack_matches_per_matrix():
    a = mixed_stack(np.random.default_rng(1))
    sd = spectral_data(a)
    assert sd.eigenvalues.shape == (2, 3, 6)
    for idx in np.ndindex(2, 3):
        one = spectral_data(a[idx])
        assert np.array_equal(sd.eigenvalues[idx], one.eigenvalues)
        assert np.array_equal(sd.eigenvectors[idx], one.eigenvectors)
        assert np.array_equal(sd.snapped[idx], one.snapped)
    # snapping: the triple within CLUSTER_TOL shares its mean; the pair
    # 1e-7 apart and the small-scale matrix are left alone
    snapped = sd.snapped[0, 1]
    assert snapped[0] == snapped[1] == snapped[2]
    assert snapped[0] == pytest.approx(0.4 + 1e-11, abs=1e-14)
    assert np.array_equal(sd.snapped[0, 2], sd.eigenvalues[0, 2])
    assert np.array_equal(sd.snapped[1, 0], sd.eigenvalues[1, 0])
    assert np.all(sd.snapped[1, 2] == 0.0)
    gap = np.diff(sd.eigenvalues[0, 2])[0]
    assert CLUSTER_TOL * 3.0 < gap < CONFLUENT_TOL * 3.0


def test_op_function_stack_matches_per_matrix():
    a = mixed_stack(np.random.default_rng(2))
    for f in (EXP, CUBIC):
        want = per_matrix(lambda m: op_function(f, m), a)
        assert_rel(op_function(f, a), want)
        assert_rel(op_function(f, spectral_data(a)), op_function(f, a), rel=0)


def test_divided_diff_grid_stack_matches_per_row():
    sd = spectral_data(mixed_stack(np.random.default_rng(3)))
    lam = sd.snapped.reshape(6, 6)
    other = sd.eigenvalues.reshape(6, 6)[::-1]
    cases = [(CUBIC, [lam, other, lam, lam])]
    cases += [(EXP, [lam, other, lam][: k + 1]) for k in range(3)]
    for f, vecs in cases:
        got = divided_diff_grid(f, vecs)
        want = np.stack([divided_diff_grid(f, [v[i] for v in vecs])
                         for i in range(6)])
        assert_rel(got, want)
    # leading axes broadcast: one node vector against a batch of them
    got = divided_diff_grid(EXP, [lam[2], lam, other])
    want = np.stack([divided_diff_grid(EXP, [lam[2], lam[i], other[i]])
                     for i in range(6)])
    assert_rel(got, want)


def test_moi_stack_matches_per_matrix():
    rng = np.random.default_rng(4)
    a1, a2, a3 = (mixed_stack(rng) for _ in range(3))
    b1 = np.stack([rand_hermitian(6, rng) for _ in range(6)]).reshape(a1.shape)
    b2 = rng.normal(size=a1.shape) + 1j * rng.normal(size=a1.shape)
    cases = [
        (EXP, 0, (a1,), ()),
        (EXP, 1, (a1, a2), (b1,)),
        (EXP, 2, (a1, a1, a1), (b1, b1)),
        (EXP, 2, (a1, a2, a3), (b1, b2)),
        (CUBIC, 3, (a1, a2, a1, a3), (b2, b1, b2)),
    ]
    for f, k, a_tuple, b_tuple in cases:
        got = moi(f, k, a_tuple, b_tuple)
        want = per_matrix(
            lambda *m: moi(f, k, m[: k + 1], m[k + 1:]), *a_tuple, *b_tuple)
        assert_rel(got, want)
        sds = [spectral_data(a) for a in a_tuple]
        assert_rel(moi(f, k, sds, b_tuple), got, rel=0)
    got = dk_operator_function(EXP, a1, 2, (b1, b2))
    want = per_matrix(lambda a, x, y: dk_operator_function(EXP, a, 2, (x, y)),
                      a1, b1, b2)
    assert_rel(got, want)


def test_moi_blocks_do_not_change_the_result(monkeypatch):
    rng = np.random.default_rng(5)
    a = mixed_stack(rng).reshape(6, 6, 6)
    b = np.stack([rand_hermitian(6, rng) for _ in range(6)])
    whole = moi(EXP, 2, (a, a, a), (b, b))
    # 216 kernel entries per matrix: blocks of one matrix each
    monkeypatch.setattr(matrix_alg, "MOI_BLOCK_ENTRIES", 300)
    assert_rel(moi(EXP, 2, (a, a, a), (b, b)), whole, rel=0)


def test_moi_of_equal_copies_equals_moi_of_one_object():
    # work shared by repeated argument objects gives the bits of the
    # same work done once per slot
    rng = np.random.default_rng(8)
    a = mixed_stack(rng)
    b = np.stack([rand_hermitian(6, rng) for _ in range(6)]).reshape(a.shape)
    for f in (EXP, CUBIC):
        for k in (1, 2):
            shared = moi(f, k, (a,) * (k + 1), (b,) * k)
            copies = moi(f, k, [a.copy() for _ in range(k + 1)],
                         [b.copy() for _ in range(k)])
            assert_rel(copies, shared, rel=0)
            sd = spectral_data(a)
            assert_rel(moi(f, k, (sd,) * (k + 1), (b,) * k), shared, rel=0)


def test_same_node_second_divided_difference_matches_scalar():
    # every close pair takes g^[2](a, b, c) = (g^[1](b, c) - g^[1](a, b))
    # / (c - a), with g^[1](b, c) = g'(b) on the b = c diagonal and the
    # snapped triple, and the table's entry for the pair 1e-7 apart
    lam = spectral_data(mixed_stack(np.random.default_rng(9))).snapped
    lam = lam.reshape(6, 6)
    grid = divided_diff_grid(EXP, [lam, lam, lam])
    for r, row in enumerate(lam):
        for idx in np.ndindex(6, 6, 6):
            want = divided_diff(EXP, [row[i] for i in idx])
            assert grid[(r,) + idx] == pytest.approx(want, rel=1e-9)


def _count_calls(monkeypatch, module, name):
    """The output shape of each call of ``module.name`` (None for a tuple)."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(getattr(out, "shape", None))
        return out

    monkeypatch.setattr(module, name, counting)
    return calls


def test_same_node_grid_builds_one_first_order_table_per_block(monkeypatch):
    # the whole mixed_stack: the snapped triple, the exact double and the
    # pair 1e-7 apart all read their f^[1](b, c) from the one table
    a = mixed_stack(np.random.default_rng(10)).reshape(6, 6, 6)
    b = np.stack([rand_hermitian(6) for _ in range(6)])
    lam = spectral_data(a).snapped
    calls = _count_calls(monkeypatch, matrix_alg, "_exp_dd1")
    divided_diff_grid(EXP, [lam, lam, lam])
    assert calls == [(6, 6, 6)]
    # 216 kernel entries per matrix: blocks of one matrix each
    monkeypatch.setattr(matrix_alg, "MOI_BLOCK_ENTRIES", 300)
    calls.clear()
    moi(EXP, 2, (a, a, a), (b, b))
    assert calls == [(1, 6, 6)] * 6


def test_moi_decomposes_and_rotates_each_distinct_argument_once(monkeypatch):
    rng = np.random.default_rng(11)
    a = mixed_stack(rng)
    b = np.stack([rand_hermitian(6, rng) for _ in range(6)]).reshape(a.shape)
    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    moi(EXP, 1, (a, a), (b,))
    assert len(eighs) == 1
    # one adjoint per rotation U* b U, and one for the closing U*
    sd = spectral_data(a)
    adjoints = _count_calls(monkeypatch, matrix_alg, "adjoint")
    moi(EXP, 2, (sd, sd, sd), (b, b))
    assert len(adjoints) == 2
    adjoints.clear()
    moi(EXP, 2, (sd, sd, sd), (b, b.copy()))
    assert len(adjoints) == 3


def test_functional_residual_makes_one_moi_pass_per_block(monkeypatch):
    # n = 8, 200 steps: the second order's kernel takes blocks of 128 and 72
    # steps, and the first order shares them
    path = simulate_hbm(8, TimeGrid.uniform(1.0, 200), RngStream(0, 0))
    mois = _count_calls(monkeypatch, nctrace.ito, "moi")
    tables = _count_calls(monkeypatch, matrix_alg, "_exp_dd1")
    adjoints = _count_calls(monkeypatch, matrix_alg, "adjoint")
    functional_ito_residual(EXP, path)
    assert mois == [(200, 8, 8)]
    assert tables == [(128, 8, 8), (72, 8, 8)]
    # per block, one rotation U* dX U and one closing U*; the (201, 8, 8)
    # adjoints are the Hermitian tests and op_function's
    assert [s for s in adjoints if s != (201, 8, 8)] == \
        [(128, 8, 8)] * 2 + [(72, 8, 8)] * 2


def _two_call_residual(f, values):
    """``functional_ito_residual``'s per_time and increments, with the
    first- and second-order MOIs made by two calls."""
    sd = spectral_data(values)
    left = sd[:-1]
    delta = np.diff(values, axis=0)
    inc = (moi(f, 1, (left, left), (delta,))
           + moi(f, 2, (left, left, left), (delta, delta)))
    fx = op_function(f, sd)
    return l1_trace_norms(fx - fx[0] - cumulative_path(inc)), inc


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("case", ["n1", "one_step", "zero", "mixed"])
def test_sum_of_orders_has_the_bits_of_separate_moi_calls(monkeypatch, case):
    # the all-zero path makes every node pair confluent, so its off-diagonal
    # pairs are gathered; mixed_stack has a snapped cluster and a pair 1e-7
    # apart
    rng = np.random.default_rng(13)
    values = {
        "n1": lambda: simulate_hbm(1, TimeGrid.uniform(1.0, 20),
                                   RngStream(1, 0)).values,
        "one_step": lambda: simulate_hbm(4, TimeGrid.uniform(1.0, 1),
                                         RngStream(2, 0)).values,
        "zero": lambda: np.zeros((7, 4, 4), dtype=complex),
        "mixed": lambda: mixed_stack(rng).reshape(6, 6, 6),
    }[case]()
    n = values.shape[-1]
    path = ProcessPath(TimeGrid.uniform(1.0, len(values) - 1), values,
                       "martingale")
    sd = spectral_data(values)
    b = np.stack([rand_hermitian(n, rng) for _ in values])
    c = np.stack([rand_hermitian(n, rng) for _ in values])
    # blocks as the route makes them, then of one matrix each
    for entries in (matrix_alg.MOI_BLOCK_ENTRIES, n**3):
        monkeypatch.setattr(matrix_alg, "MOI_BLOCK_ENTRIES", entries)
        for f in (EXP, CUBIC):
            per, inc = _two_call_residual(f, values)
            got = functional_ito_residual(f, path)["per_time"]
            assert _bits(got) == _bits(per)
            assert _bits(moi(f, (1, 2), (sd[:-1],) * 3,
                             (np.diff(values, axis=0),) * 2)) == _bits(inc)
            # distinct arguments: order 1's kernel is order 2's f^[1](a, b)
            args = (values, sd, values[::-1].copy())
            want = moi(f, 1, args[:2], (b,)) + moi(f, 2, args, (b, c))
            assert _bits(moi(f, (1, 2), args, (b, c))) == _bits(want)
    for orders in ((2, 1), (0, 1), (1, 1)):
        with pytest.raises(ValueError):
            moi(EXP, orders, (sd,) * 3, (b, b))


def test_dk_operator_function_makes_each_distinct_ordering_once(monkeypatch):
    rng = np.random.default_rng(14)
    a, b, c = (rand_hermitian(5, rng) for _ in range(3))
    sd = spectral_data(a)
    once = moi(EXP, 2, (sd,) * 3, (b, b))
    calls = _count_calls(monkeypatch, matrix_alg, "moi")
    got = dk_operator_function(EXP, a, 2, (b, b))
    assert len(calls) == 1
    assert _bits(got) == _bits(np.zeros_like(a) + once + once)
    for dirs in ((b, c), (b, b.copy())):
        calls.clear()
        dk_operator_function(EXP, a, 2, dirs)
        assert len(calls) == 2


def test_stack_with_one_non_hermitian_matrix_raises():
    a = mixed_stack(np.random.default_rng(6))
    a[1, 1, 0, 2] += 1e-6
    b = np.zeros_like(a)
    with pytest.raises(ValueError):
        spectral_data(a)
    with pytest.raises(ValueError):
        op_function(EXP, a)
    with pytest.raises(ValueError):
        moi(EXP, 1, (a, a), (b,))
    spectral_data(np.delete(a, 1, axis=1))
    # each matrix is checked against its own scale: 1e-12 is small next
    # to the stack's largest entry but not next to the 1e-3-scale matrix
    a = mixed_stack(np.random.default_rng(7))
    a[1, 0, 0, 2] += 1e-12
    with pytest.raises(ValueError):
        spectral_data(a)


# -- semicircle comparison ------------------------------------------------


def test_semicircle_cdf_values():
    t = 0.7
    r = 2 * math.sqrt(t)
    assert semicircle_cdf(0.0, t) == pytest.approx(0.5)
    assert semicircle_cdf(-r, t) == 0.0
    assert semicircle_cdf(r, t) == 1.0
    density = lambda u: math.sqrt(max(4 * t - u * u, 0.0)) / (2 * math.pi * t)
    for s in (-1.2, -0.3, 0.4, 1.5):
        want = quad(density, -r, s)[0]
        assert semicircle_cdf(s, t) == pytest.approx(want, abs=1e-10)


def test_esd_distance_point_mass():
    # spectrum all zero: KS distance to semicircle(t) is F_t(0) = 1/2
    a = np.zeros((8, 8), dtype=complex)
    assert esd_distance(a, 1.0) == pytest.approx(0.5)


def test_esd_distance_semicircle_quantiles_small():
    # eigenvalues at the semicircle quantile midpoints: distance <= 1/n
    t = 1.0
    n = 200
    grid = np.linspace(-2, 2, 40001)
    cdf = semicircle_cdf(grid, t)
    targets = (np.arange(n) + 0.5) / n
    lam = np.interp(targets, cdf, grid)
    a = np.diag(lam).astype(complex)
    assert esd_distance(a, t) <= 1.0 / n + 1e-3


# -- the tr_n-L1 reducer ------------------------------------------------------


def _svd_l1(a):
    return np.sum(np.linalg.svd(a, compute_uv=False), axis=-1) / a.shape[-1]


def _count_routes(monkeypatch):
    """Matrices reduced through eigvalsh and through svd, counted at the
    numpy module attribute the reducer calls."""
    counts = {"eigvalsh": 0, "svd": 0}
    for name in counts:
        fn = getattr(np.linalg, name)

        def counting(a, *args, _fn=fn, _name=name, **kwargs):
            counts[_name] += math.prod(np.shape(a)[:-2])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def _reducer_stacks():
    herm = np.stack([rand_hermitian(5, scale=s) for s in (1e-3, 1.0, 40.0)])
    general = RNG.normal(size=(3, 5, 5)) + 1j * RNG.normal(size=(3, 5, 5))
    # Hermitian up to a relative 1e-14 anti-Hermitian part
    skew = 1j * np.stack([rand_hermitian(5) for _ in range(3)])
    near = herm + 1e-14 * skew * (np.max(np.abs(herm), axis=(1, 2))
                                  / np.max(np.abs(skew), axis=(1, 2)))[:, None, None]
    mixed = np.stack([herm[0], general[0], np.zeros((5, 5)), near[1],
                      general[2], herm[2]]).reshape(2, 3, 5, 5)
    one_herm = RNG.normal(size=(4, 1, 1)) + 0j
    one_general = RNG.normal(size=(4, 1, 1)) + 1j * RNG.normal(size=(4, 1, 1))
    return {
        "hermitian": (herm, (3, 0)),
        "general": (general, (0, 3)),
        "near_hermitian": (near, (3, 0)),
        "mixed": (mixed, (4, 2)),
        "zero": (np.zeros((2, 4, 4), dtype=complex), (2, 0)),
        "n1_hermitian": (one_herm, (4, 0)),
        "n1_general": (one_general, (0, 4)),
        "single_matrix": (herm[1], (1, 0)),
    }


@pytest.mark.parametrize("name", sorted(_reducer_stacks()))
def test_l1_trace_norms_match_the_singular_value_sum(name, monkeypatch):
    a, (n_eig, n_svd) = _reducer_stacks()[name]
    want = _svd_l1(a)
    counts = _count_routes(monkeypatch)
    got = l1_trace_norms(a)
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # Hermitian matrices go through eigvalsh, the rest through the SVD
    assert counts == {"eigvalsh": n_eig, "svd": n_svd}


def test_l1_trace_norms_of_integer_and_broadcast_input():
    assert l1_trace_norms(np.array([[1, 2], [2, 1]])) == pytest.approx(2.0)
    a = np.broadcast_to(rand_hermitian(3), (4, 3, 3))
    assert np.allclose(l1_trace_norms(a), _svd_l1(a), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, value, hermitian, placement", [
    (n, value, hermitian, placement)
    for n in (1, 2, 3, 16) for value in (np.nan, np.inf)
    for hermitian in (False, True) for placement in ("diagonal", "off")
    if placement == "diagonal" or n > 1])
def test_l1_trace_norms_give_nan_exactly_for_non_finite_matrices(
        n, value, hermitian, placement):
    # a non-finite entry, on the diagonal or off it, never reduces to a
    # finite number (a NaN on a zero matrix's diagonal gave 0.0, and one on
    # a Hermitian 2 x 2 matrix's diagonal a wrong finite value); every other
    # matrix keeps its bits
    herm = [rand_hermitian(n) for _ in range(4)]
    other = herm[3] if hermitian else (RNG.normal(size=(n, n))
                                       + 1j * RNG.normal(size=(n, n)))
    zero = np.zeros((n, n), dtype=complex)
    a = np.stack([herm[0], zero, herm[1], other, herm[2], zero])
    a = a.reshape(2, 3, n, n)
    want = l1_trace_norms(a, hermitian)
    bad = np.zeros((2, 3), dtype=bool)
    bad[0, 1] = bad[0, 2] = True
    a[bad, 0, 0 if placement == "diagonal" else n - 1] = value
    got = l1_trace_norms(a, hermitian)
    assert np.array_equal(np.isnan(got), bad)
    assert got[~bad].tobytes() == want[~bad].tobytes()


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("n", [2, 16])
def test_l1_trace_norms_of_finite_matrices_near_the_float_maximum(
        n, hermitian):
    # (a* + a) overflows for entries past about 9e307, and the sum of
    # |eigenvalues| or singular values before the / n below that, though
    # tr_n |a| of diag(1e308, -1e308) or of a 16 x 16 matrix near 3e307 is
    # finite; LAPACK fails on the overflowed Hermitian part at n = 16
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    spikes = np.diag(1e308 * sign).astype(complex)
    herm = rand_hermitian(n)
    herm *= 1e308 / np.max(np.abs(herm.view(np.float64)))
    dense = rand_hermitian(n)
    dense *= 3e307 / np.max(np.abs(dense.view(np.float64)))
    normal = rand_hermitian(n)
    mats = [spikes, herm, dense, normal]
    if not hermitian:
        general = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        mats.append(general * 3e307 / np.max(np.abs(general.view(
            np.float64))))
    a = np.stack(mats)
    got = l1_trace_norms(a, hermitian)
    shift = 2.0**64
    want = l1_trace_norms(a / shift, hermitian) * shift
    assert np.isfinite(got).all()
    assert got[0] == 1e308
    np.testing.assert_allclose(got, want, rtol=1e-13)
    # a matrix away from the maximum keeps its bits
    assert got[3].tobytes() == l1_trace_norms(normal, hermitian).tobytes()


def test_an_entry_whose_modulus_overflows_is_not_taken_as_hermitian():
    # an infinite largest |entry| leaves the relative Hermitian test no
    # scale: taken as Hermitian, a would reduce as its Hermitian part, to
    # |x| / 4
    x = 1.5e308 * (1 + 1j)
    a = np.array([[0, x], [-x.conjugate() / 2, 0]])
    want = l1_trace_norms(a / 4) * 4
    assert want == pytest.approx(0.75 * abs(x / 4) * 4)
    assert l1_trace_norms(a) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("name", ["hermitian", "near_hermitian", "zero",
                                  "n1_hermitian", "single_matrix"])
def test_l1_trace_norms_on_the_callers_word_skip_the_test(name, monkeypatch):
    a, (n_eig, _) = _reducer_stacks()[name]
    want = l1_trace_norms(a)
    monkeypatch.setattr("nctrace.matrix_alg._hermitian_mask", None)
    counts = _count_routes(monkeypatch)
    got = l1_trace_norms(a, hermitian=True)
    # the same eigvalsh of the same Hermitian parts, without the test
    assert np.array_equal(got, want)
    assert counts == {"eigvalsh": n_eig, "svd": 0}
