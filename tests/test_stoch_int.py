"""Stochastic integrals: elementary pieces, RS sums, QC, isometry, BDG."""

import math

import numpy as np
import pytest

from nctrace import ContractionModel, parse
from nctrace.matrix_alg import l1_trace_norms, trace_n
from nctrace.process_sim import (
    WIDE_ROW_ENTRIES,
    ProcessPath,
    RngStream,
    TimeGrid,
    make_fv,
    simulate_hbm,
    simulate_hbm_ensemble,
)
from nctrace.stoch_int import (
    STUDY_TIME_BLOCK,
    BoundBiprocess,
    BoundTriprocess,
    ElementaryPredictable,
    bdg_stats,
    carried_sums,
    cumulative_path,
    ito_isometry_check,
    qc_closed_form,
    qc_gap_l1,
    qc_of_integrals_check,
    quad_rs_path,
    quad_rs_sum,
    rs_integral,
    substitution_check,
)

RNG = np.random.default_rng(555)


def rand_hermitian(n, scale=1.0):
    g = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return scale * (g + g.conj().T) / 2


def identity_symbol():
    return parse("y1")


# -- elementary integrals -------------------------------------------------


def test_elementary_identity_window():
    grid = TimeGrid.uniform(2.0, 20)
    X = simulate_hbm(3, grid, RngStream(1, 0))
    H = ElementaryPredictable([(0.0, 1.0, identity_symbol(), {})])
    path = rs_integral(H, X)
    assert np.allclose(path[grid.index_of(2.0)], X.at(1.0) - X.at(0.0))
    assert np.allclose(path[grid.index_of(0.5)], X.at(0.5))


def test_elementary_additivity_and_disjoint_windows():
    grid = TimeGrid.uniform(1.0, 10)
    X = simulate_hbm(3, grid, RngStream(2, 0))
    a = rand_hermitian(3)
    sym = parse("x1 y1")
    H = ElementaryPredictable([
        (0.0, 0.3, sym, {1: a}),
        (0.5, 0.8, identity_symbol(), {}),
    ])
    path = rs_integral(H, X)
    full = path[grid.index_of(1.0)]
    want = a @ (X.at(0.3) - X.at(0.0)) + (X.at(0.8) - X.at(0.5))
    assert np.max(np.abs(full - want)) < 1e-12
    # additivity over time windows, exact on the grid
    head = path[grid.index_of(0.6)]
    mid = a @ (X.at(0.3)) + (X.at(0.6) - X.at(0.5))
    assert np.max(np.abs(head - mid)) < 1e-12


def test_elementary_window_past_the_grid_end_is_clipped():
    grid = TimeGrid.uniform(1.0, 10)
    X = simulate_hbm(3, grid, RngStream(3, 0))
    H = ElementaryPredictable([(0.5, 3.0, identity_symbol(), {})])
    want = X.at(1.0) - X.at(0.5)
    path = rs_integral(H, X)
    assert not np.any(path[:6])
    assert np.max(np.abs(path[-1] - want)) < 1e-12


def test_elementary_windows_validated():
    with pytest.raises(ValueError):
        ElementaryPredictable([(0.5, 0.5, identity_symbol(), {})])


def test_elementary_martingale_property():
    # E[integral increment beyond s | data to s] = 0: the mean of the
    # post-s increments over the ensemble is 0 within 3 SE
    grid = TimeGrid.uniform(1.0, 10)
    ens = simulate_hbm_ensemble(4, grid, 2000, seed=77)
    a = rand_hermitian(4)
    H = ElementaryPredictable([(0.0, 1.0, parse("x1 y1"), {1: a})])
    path = rs_integral(H, ens)
    late = path[:, grid.index_of(1.0)] - path[:, grid.index_of(0.5)]
    entries = late.reshape(len(ens.values), -1)
    mean = np.mean(entries, axis=0)
    se = np.std(entries, axis=0, ddof=1) / math.sqrt(len(ens.values))
    assert np.all(np.abs(mean) <= 3 * se + 1e-12)


# -- RS integrals ---------------------------------------------------------


def test_rs_identity_integrand():
    grid = TimeGrid.uniform(1.0, 50)
    X = simulate_hbm(4, grid, RngStream(3, 0))
    H = BoundBiprocess(identity_symbol(), grid, 4)
    path = rs_integral(H, X)
    assert np.max(np.abs(path - (X.values - X.values[0]))) < 1e-12


def test_rs_integral_is_adapted_to_left_endpoints():
    # integrating H = X y1 against X uses X(s_-), so the first increment
    # vanishes (X(0) = 0)
    grid = TimeGrid.uniform(1.0, 4)
    X = simulate_hbm(3, grid, RngStream(5, 0))
    H = BoundBiprocess(parse("x1 y1"), grid, 3, {1: X.values})
    path = rs_integral(H, X)
    assert np.all(path[1] == 0)
    want = X.values[1] @ (X.values[2] - X.values[1])
    assert np.max(np.abs(path[2] - want)) < 1e-12


def test_rs_integral_batched_matches_per_path():
    grid = TimeGrid.uniform(1.0, 8)
    ens = simulate_hbm_ensemble(3, grid, 5, seed=9)
    H = BoundBiprocess(parse("x1 y1 x1"), grid, 3, {1: ens.values})
    batched = rs_integral(H, ens)
    for i in range(5):
        Hi = BoundBiprocess(parse("x1 y1 x1"), grid, 3, {1: ens.values[i]})
        single = rs_integral(Hi, ens.values[i])
        assert np.max(np.abs(batched[i] - single)) < 1e-12


def _time_major(a):
    """A copy of the (paths, L, n, n) array ``a`` stored time-major, as the
    study walks lay out their windows."""
    out = np.empty((a.shape[1], a.shape[0]) + a.shape[2:], a.dtype)
    out[...] = np.swapaxes(a, 0, 1)
    return out.swapaxes(0, 1)


@pytest.mark.parametrize("cuts", [[], [1], [1, 2, 3], [5, 6, 12], [13],
                                  list(range(1, 14))])
def test_carried_sums_over_windows_equal_one_cumulative_path(cuts):
    # each window after the first carries in the last running sum, and
    # the windows' sums hold the bits of one cumsum over the whole path,
    # whether the windows are stored path-major or time-major; 3 paths at
    # n = 4 sum with np.cumsum, at n = 10 one grid point at a time
    assert 3 * 4 * 4 < WIDE_ROW_ENTRIES <= 3 * 10 * 10
    rng = np.random.default_rng(8)
    for n in (4, 10):
        shape = (3, 14, n, n)
        terms = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = np.cumsum(terms, axis=1)
        assert cumulative_path(terms)[:, 1:].tobytes() == want.tobytes()
        for layout in (np.copy, _time_major):
            carry, blocks = None, []
            for a, b in zip([0] + cuts, cuts + [14]):
                sums = carried_sums(layout(terms[:, a:b]), carry)
                assert sums.shape[1] == b - a + (carry is None)
                carry = sums[:, -1].copy()
                blocks.append(sums)
            got = np.concatenate(blocks, axis=1)
            assert got[:, 1:].tobytes() == want.tobytes()
            assert not got[:, 0].any()


# -- quadratic sums -------------------------------------------------------


def test_quad_sum_fv_fv_vanishes_with_mesh():
    vals = []
    for steps in (100, 200, 400):
        grid = TimeGrid.uniform(1.0, steps)
        A = make_fv(grid, 2, g=lambda t: t)
        L = BoundTriprocess(parse("y1 y2"), grid, 2)
        q = quad_rs_sum(L, A, A, 1.0)
        vals.append(float(np.max(np.abs(q))))
    # Sum (dt)^2 = 1/steps exactly for the scalar ramp
    assert vals[0] == pytest.approx(1 / 100)
    assert vals[1] == pytest.approx(1 / 200)
    assert vals[2] == pytest.approx(1 / 400)


def test_quad_sum_martingale_fv_linear_in_mesh():
    prev = None
    for steps in (50, 100, 200, 400):
        grid = TimeGrid.uniform(1.0, steps)
        ens = simulate_hbm_ensemble(4, grid, 40, seed=steps)
        A = make_fv(grid, 4, g=lambda t: math.sin(t))
        L = BoundTriprocess(parse("y1 y2"), grid, 4)
        q = quad_rs_sum(L, ens, np.broadcast_to(A.values, ens.values.shape), 1.0)
        cur = float(np.mean(np.abs(q)))
        if prev is not None:
            assert cur < prev
        prev = cur


def test_qc_closed_form_sandwich():
    # int dX a dX -> tr_n(a) t I for HBM, t = 1
    n = 16
    grid = TimeGrid.uniform(1.0, 400)
    ens = simulate_hbm_ensemble(n, grid, 50, seed=101)
    a = rand_hermitian(n)
    L = BoundTriprocess(parse("y1 x1 y2"), grid, n, {1: a})
    q = quad_rs_sum(L, ens, ens, 1.0)
    closed = qc_closed_form(L, ContractionModel.matrix(n))[-1]
    tr_a = np.trace(a).real / n
    assert np.max(np.abs(closed - tr_a * np.eye(n))) < 1e-12
    gap = np.mean(np.abs(q - closed))
    assert gap < 0.15 * max(abs(tr_a), 1.0)


def test_qc_gap_shrinks_with_mesh():
    n = 8
    gaps = []
    for steps in (25, 50, 100, 200):
        grid = TimeGrid.uniform(1.0, steps)
        ens = simulate_hbm_ensemble(n, grid, 60, seed=1000 + steps)
        L = BoundTriprocess(parse("y1 y2"), grid, n)
        q = quad_rs_path(L, ens, ens)[:, -1]
        c = qc_closed_form(L, ContractionModel.matrix(n))[-1]
        gaps.append(float(np.mean(np.abs(q - c))))
    assert gaps[-1] < gaps[0]
    slope = np.polyfit(np.log([1 / s for s in (25, 50, 100, 200)]),
                       np.log(gaps), 1)[0]
    assert 0.2 < slope < 0.9


def test_qc_gap_closed_form_grows_with_the_horizon():
    # with a = I the closed form at the grid's end t is t I; one fixed at
    # t = 1 would leave a gap near 1 on a grid to t = 2
    for t in (1.0, 2.0):
        gap = qc_gap_l1(4, TimeGrid.uniform(t, 400), 20, 5, np.eye(4) + 0j)
        assert gap < 0.1 * t


# -- isometry and BDG -----------------------------------------------------


def test_ito_isometry_identity_integrand():
    n = 8
    grid = TimeGrid.uniform(1.0, 100)
    ens = simulate_hbm_ensemble(n, grid, 500, seed=13)
    H = BoundBiprocess(identity_symbol(), grid, n)
    rep = ito_isometry_check(H, ens, 1.0,
                             {"n": n, "paths": 500, "seed": 13, "t": 1.0})
    assert rep["passed"]
    # identity integrand: both sides estimate kappa((0,1]) = 1
    assert rep["lhs"] == pytest.approx(1.0, abs=0.05)


def test_ito_isometry_elementary_sandwich():
    n = 8
    grid = TimeGrid.uniform(1.0, 40)
    ens = simulate_hbm_ensemble(n, grid, 400, seed=15)
    c = rand_hermitian(n)
    H = ElementaryPredictable([(0.25, 0.75, parse("x1 y1"), {1: c})])
    rep = ito_isometry_check(H, ens, 1.0,
                             {"n": n, "paths": 400, "seed": 15, "t": 1.0})
    assert rep["passed"]
    # closed form: E tr_n(c dX dX c) over the window = 0.5 tr_n(c^2)
    want = 0.5 * np.trace(c @ c).real / n
    assert rep["rhs"] == pytest.approx(want, rel=0.2)


def test_ito_isometry_overlapping_windows():
    # the windows overlap on (0.25, 0.75], where the integrand is 2 y1:
    # E ||u_1||_2^2 = 0.25 + 4 * 0.5 + 0.25 = 2.5, cross terms included
    grid = TimeGrid.uniform(1.0, 4)
    ens = simulate_hbm_ensemble(4, grid, 2000, seed=15)
    H = ElementaryPredictable([(0.0, 0.75, identity_symbol(), {}),
                               (0.25, 1.0, identity_symbol(), {})])
    rep = ito_isometry_check(H, ens, 1.0,
                             {"n": 4, "paths": 2000, "seed": 15, "t": 1.0})
    assert rep["passed"]
    assert rep["rhs"] == pytest.approx(2.5, abs=0.1)


def test_bdg_p2_identity():
    n = 6
    grid = TimeGrid.uniform(1.0, 60)
    ens = simulate_hbm_ensemble(n, grid, 500, seed=19)
    rep = bdg_stats(ens, 2, 1.0, {"n": n, "paths": 500, "seed": 19, "t": 1.0})
    assert rep["passed"]
    assert rep["lhs"] == pytest.approx(1.0, abs=0.05)


def test_bdg_p4_ratio_reported():
    n = 6
    grid = TimeGrid.uniform(1.0, 60)
    ens = simulate_hbm_ensemble(n, grid, 300, seed=23)
    rep = bdg_stats(ens, 4, 1.0, {"n": n, "paths": 300, "seed": 23, "t": 1.0})
    assert 0.2 < rep["ratio"] < 5.0
    with pytest.raises(ValueError):
        bdg_stats(ens, 3, 1.0, {})


def test_path_statistics_read_one_path_as_a_batch_of_one():
    # bdg_stats read one path's matrix rows as paths
    grid = TimeGrid.uniform(1.0, 4)
    path = simulate_hbm(3, grid, RngStream(5, 0))
    H = BoundBiprocess(identity_symbol(), grid, 3)
    with pytest.raises(ValueError, match="at least 2 paths, got 1"):
        bdg_stats(path, 2, 1.0, {})
    with pytest.raises(ValueError, match="at least 2 paths, got 1"):
        ito_isometry_check(H, path, 1.0, {})
    # a batch of one gives the same p = 4 figures as the path itself
    one = ProcessPath(grid, path.values[None], "martingale")
    assert bdg_stats(path, 4, 1.0, {}) == bdg_stats(one, 4, 1.0, {})


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_statistics_at_an_off_grid_time_raise(t):
    # NaN and inf were read as grid time 0: both sides 0, and passed
    grid = TimeGrid.uniform(1.0, 4)
    ens = simulate_hbm_ensemble(3, grid, 4, seed=5)
    H = BoundBiprocess(identity_symbol(), grid, 3)
    L = BoundTriprocess(parse("y1 y2"), grid, 3)
    with pytest.raises(ValueError, match="is not on the grid"):
        bdg_stats(ens, 2, t, {})
    with pytest.raises(ValueError, match="is not on the grid"):
        ito_isometry_check(H, ens, t, {})
    with pytest.raises(ValueError, match="is not on the grid"):
        quad_rs_sum(L, ens, ens, t)


def test_constant_martingale_bdg():
    grid = TimeGrid.uniform(1.0, 4)
    c = rand_hermitian(3)
    vals = np.broadcast_to(c, (20, 5, 3, 3)).copy()
    ens = ProcessPath(grid, vals, "martingale")
    rep = bdg_stats(ens, 2, 1.0, {"n": 3, "paths": 20, "seed": 0, "t": 1.0})
    assert rep["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert rep["rhs"] == pytest.approx(0.0, abs=1e-12)


# -- substitution and QC of integrals -------------------------------------


def test_substitution_exact_on_grid():
    n = 6
    grid = TimeGrid.uniform(1.0, 100)
    ens = simulate_hbm_ensemble(n, grid, 20, seed=29)
    a = rand_hermitian(n)
    b = rand_hermitian(n)
    H = BoundBiprocess(parse("x1 y1"), grid, n, {1: a})
    K = BoundBiprocess(parse("y1 x2 + tr(x2 y1) x2"), grid, n, {2: b})
    rep = substitution_check(H, K, ens,
                             {"n": n, "paths": 20, "seed": 29, "t": 1.0})
    assert rep["l1_gap"] < 1e-10


def test_qc_of_integrals_identity_reduces_to_plain_qc():
    n = 5
    grid = TimeGrid.uniform(1.0, 50)
    ens = simulate_hbm_ensemble(n, grid, 30, seed=31)
    H = BoundBiprocess(identity_symbol(), grid, n)
    K = BoundBiprocess(identity_symbol(), grid, n)
    L = BoundTriprocess(parse("y1 y2"), grid, n)
    rep = qc_of_integrals_check(H, K, L, ens, ens, 1.0,
                                {"n": n, "paths": 30, "seed": 31, "t": 1.0})
    assert rep["l1_gap"] < 1e-10


def test_qc_of_integrals_with_sandwiches():
    n = 5
    grid = TimeGrid.uniform(1.0, 50)
    ens = simulate_hbm_ensemble(n, grid, 30, seed=37)
    a = rand_hermitian(n)
    b = rand_hermitian(n)
    H = BoundBiprocess(parse("x1 y1"), grid, n, {1: a})
    K = BoundBiprocess(parse("y1 x2"), grid, n, {2: b})
    L = BoundTriprocess(parse("y1 y2"), grid, n)
    rep = qc_of_integrals_check(H, K, L, ens, ens, 1.0,
                                {"n": n, "paths": 30, "seed": 37, "t": 1.0})
    assert rep["l1_gap"] < 1e-10


def test_qc_of_integrals_fv_leg_vanishes():
    n = 4
    grid = TimeGrid.uniform(1.0, 200)
    ens = simulate_hbm_ensemble(n, grid, 20, seed=43)
    A = make_fv(grid, n, g=lambda t: math.cos(t))
    H = BoundBiprocess(identity_symbol(), grid, n)
    K = BoundBiprocess(identity_symbol(), grid, n)
    L = BoundTriprocess(parse("y1 y2"), grid, n)
    rep = qc_of_integrals_check(
        H, K, L, ens, np.broadcast_to(A.values, ens.values.shape), 1.0,
        {"n": n, "paths": 20, "seed": 43, "t": 1.0},
    )
    assert rep["lhs"] < 0.05
    assert rep["rhs"] < 0.05


@pytest.mark.parametrize("points", [1, 2, STUDY_TIME_BLOCK,
                                    STUDY_TIME_BLOCK + 1,
                                    STUDY_TIME_BLOCK + 2, 801])
def test_blocked_qc_gap_matches_the_cumulative_quadratic_sum(points):
    seed = 4
    grid = TimeGrid(np.linspace(0.0, 1.0, points))
    # n = 1 with one path leaves time the only axis of a window's terms,
    # where a reduction along it may sum pairwise
    for n, paths in [(3, 5), (1, 1)]:
        rng = np.random.default_rng(points)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (g + g.conj().T) / 2
        got = qc_gap_l1(n, grid, paths, seed, a, chunk=2)
        vals = simulate_hbm_ensemble(n, grid, paths, seed).values
        L = BoundTriprocess(parse("y1 x1 y2"), grid, n, {1: a})
        gap = (quad_rs_path(L, vals, vals)[:, -1]
               - trace_n(a) * grid.times[-1] * np.eye(n))
        want = float(np.mean(
            np.sum(np.linalg.svd(gap, compute_uv=False), axis=-1) / n))
        assert abs(got - want) <= 1e-12 * want
        # Q has the bits of one cumsum over the path
        assert got == float(np.mean(l1_trace_norms(gap)))


def test_qc_gap_memory_does_not_grow_with_the_horizon(traced_peak):
    # one window of STUDY_TIME_BLOCK points at a time: 3201 grid times take
    # no more memory than 801, and less than one 26 MB whole-path chunk of
    # 8 paths at n = 16 on 801 grid times
    chunk_bytes = 8 * 801 * 16 * 16 * 16
    a = np.diag(np.linspace(-1.0, 1.0, 16)).astype(complex)
    peaks = [traced_peak(lambda: qc_gap_l1(
        16, TimeGrid.uniform(1.0, steps), 8, 0, a)) for steps in (800, 3200)]
    assert peaks[1] <= 1.25 * peaks[0]
    assert peaks[1] < chunk_bytes


def test_qc_gap_loop_lets_go_of_each_block(buffers_used):
    # as in the Ito study: holding the last block's sums adds a buffer
    assert buffers_used(lambda: qc_gap_l1(
        4, TimeGrid.uniform(1.0, 3 * STUDY_TIME_BLOCK), 3, 0,
        np.eye(4, dtype=complex))) <= 5


def test_qc_gap_rejects_empty_inputs():
    grid, a = TimeGrid.uniform(1.0, 10), np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="at least one path"):
        qc_gap_l1(2, grid, 0, 0, a)
    with pytest.raises(ValueError, match="chunk needs at least one path"):
        qc_gap_l1(2, grid, 3, 0, a, chunk=0)
