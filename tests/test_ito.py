"""Ito formula: symbolic synthesis, residual decay, MOI cross-checks."""

import tracemalloc

import numpy as np
import pytest

import nctrace.ito
import nctrace.matrix_alg
import nctrace.process_sim
from nctrace import ContractionModel, parse
from nctrace.evaluator import EvalContext, eval_multilinear, eval_poly
from nctrace.ito import (
    BOUND_MARGIN,
    _residual_blocks,
    _step_symbols,
    convergence_study,
    functional_ito_residual,
    ito_residual,
    ito_residual_path,
    ito_rhs_symbolic,
    ito_sup_residuals,
)
from nctrace.matrix_alg import (
    ScalarFunctionSpec,
    l1_trace_norms,
    l2_trace_norms,
    moi,
    op_function,
    spectral_data,
)
from nctrace.process_sim import (
    ProcessPath,
    RngStream,
    TimeGrid,
    hbm_windows,
    simulate_hbm,
    simulate_hbm_ensemble,
)
from nctrace.stoch_int import (
    STUDY_TIME_BLOCK,
    BoundBiprocess,
    cumulative_path,
    rs_integral,
)
from nctrace.trace_poly import TracePolynomial, derive_k, is_self_adjoint

MATRIX8 = ContractionModel.matrix(8)


def test_rhs_symbolic_square():
    dP, corr = ito_rhs_symbolic(parse("x1^2"), MATRIX8)
    assert dP == parse("y1 x1 + x1 y1")
    assert corr == TracePolynomial.constant(1)


def test_rhs_symbolic_trace_square():
    dP, corr = ito_rhs_symbolic(parse("tr(x1^2)"), MATRIX8)
    assert dP == parse("2 tr(x1 y1)")
    # both slots sit in one trace word, so the split rule gives
    # tr(1) tr(1) = 1 and the correction is exactly 1: d tr_n(X^2) has
    # drift dt
    assert corr == TracePolynomial.constant(1)


def test_rhs_symbolic_constant_and_errors():
    dP, corr = ito_rhs_symbolic(parse("5"), MATRIX8)
    assert dP.is_zero() and corr.is_zero()
    with pytest.raises(ValueError):
        ito_rhs_symbolic(parse("y1"), MATRIX8)
    with pytest.raises(ValueError):
        ito_rhs_symbolic(parse("x1 x2"), MATRIX8)


def test_starred_driver_letters_read_as_plain():
    # the driver is self-adjoint: x1' is x1, so the correction exists
    assert ito_rhs_symbolic(parse("x1'^2"), MATRIX8) == \
        ito_rhs_symbolic(parse("x1^2"), MATRIX8)
    grid = TimeGrid.uniform(1.0, 70)
    for second_order in ("contracted", "quadratic"):
        sups = [ito_sup_residuals([parse(t)], 3, grid, 3, 5,
                                  ContractionModel.matrix(3), second_order)
                for t in ("x1'^2", "x1^2", "x1' x1")]
        assert sups[0] == sups[1] == sups[2]


def test_affine_polynomial_residual_is_zero():
    grid = TimeGrid.uniform(1.0, 64)
    path = simulate_hbm(6, grid, RngStream(51, 0))
    for text in ("x1", "3 x1 + 2", "i x1"):
        rep = ito_residual(parse(text), path, ContractionModel.matrix(6))
        assert rep["sup_norm"] <= 1e-12


def test_constant_polynomial_residual_is_zero():
    # the zero dP keeps the batch shape, so constants run end to end
    grid = TimeGrid.uniform(1.0, 8)
    ens = simulate_hbm_ensemble(3, grid, 2, seed=4)
    model = ContractionModel.matrix(3)
    for driver in (ens, ProcessPath(grid, ens.values[0], ens.role)):
        for text in ("5", "0"):
            rep = ito_residual(parse(text), driver, model)
            assert rep["sup_norm"] == 0.0
            assert rep["per_time"].shape == (9,)


def test_residual_square_decreases_with_mesh():
    n = 8
    sups = []
    for steps in (32, 64, 128, 256):
        grid = TimeGrid.uniform(1.0, steps)
        ens = simulate_hbm_ensemble(n, grid, 30, seed=600 + steps)
        rep = ito_residual(parse("x1^2"), ens, ContractionModel.matrix(n))
        sups.append(rep["sup_norm"])
    for a, b in zip(sups, sups[1:]):
        assert b < a
    assert sups[0] / sups[-1] > 2.0


def test_fv_driver_quadratic_mode_hits_noise_floor():
    # a smooth driver obeys the classical chain rule: with the pathwise
    # quadratic second-order term the residual is third order per step
    grid = TimeGrid.from_mesh(1.0, 1e-4)
    n = 4
    A = np.stack([np.diag([np.sin(t + k) for k in range(n)]).astype(complex)
                  for t in grid.times])
    res = ito_residual_path(parse("x1^3"), A, grid,
                            ContractionModel.matrix(n),
                            second_order="quadratic")
    per = np.max(np.abs(res))
    assert per <= 1e-8


def test_quadratic_vs_contracted_agree_in_the_limit():
    n = 6
    grid = TimeGrid.uniform(1.0, 256)
    ens = simulate_hbm_ensemble(n, grid, 20, seed=71)
    r_q = ito_residual(parse("x1^2"), ens, ContractionModel.matrix(n),
                       second_order="quadratic")
    r_c = ito_residual(parse("x1^2"), ens, ContractionModel.matrix(n),
                       second_order="contracted")
    assert r_q["sup_norm"] < 0.5
    assert r_c["sup_norm"] < 0.5


def test_moi_route_matches_trace_poly_route_per_step():
    # for p = l^3 the MOI first/second terms equal the derivative symbols
    n = 6
    rng = np.random.default_rng(3)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (g + g.conj().T) / 2
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d = 0.1 * (g + g.conj().T) / 2
    p_sym = parse("x1^3")
    f = ScalarFunctionSpec.polynomial([0, 0, 0, 1])
    ctx = EvalContext(n, {1: a})
    first_tp = eval_multilinear(derive_k(p_sym, 1), ctx, [d])
    first_moi = moi(f, 1, (a, a), (d,))
    scale = max(1.0, float(np.max(np.abs(first_tp))))
    assert np.max(np.abs(first_tp - first_moi)) < 1e-10 * scale
    second_tp = 0.5 * eval_multilinear(derive_k(p_sym, 2), ctx, [d, d])
    second_moi = moi(f, 2, (a, a, a), (d, d))
    assert np.max(np.abs(second_tp - second_moi)) < 1e-10 * scale


def test_functional_residual_linear_function_is_zero():
    grid = TimeGrid.uniform(1.0, 32)
    path = simulate_hbm(5, grid, RngStream(81, 0))
    f = ScalarFunctionSpec.polynomial([2.0, 1.0])
    rep = functional_ito_residual(f, path)
    assert rep["sup_norm"] <= 1e-10


def test_functional_residual_cube_matches_trace_poly_route():
    grid = TimeGrid.uniform(1.0, 32)
    path = simulate_hbm(5, grid, RngStream(83, 0))
    f = ScalarFunctionSpec.polynomial([0, 0, 0, 1])
    rep_f = functional_ito_residual(f, path)
    res_tp = ito_residual_path(parse("x1^3"), path.values, path.grid,
                               ContractionModel.matrix(5),
                               second_order="quadratic")
    per_tp = np.array([
        np.sum(np.linalg.svd(res_tp[i], compute_uv=False)) / 5
        for i in range(len(path.grid.times))
    ])
    assert np.max(np.abs(rep_f["per_time"] - per_tp)) < 1e-9


def test_functional_residual_exp_decreases_with_mesh():
    f = ScalarFunctionSpec.exp_sum([(1.0, 1.0)])
    sups = []
    for steps in (16, 32, 64, 128):
        grid = TimeGrid.uniform(1.0, steps)
        path = simulate_hbm(8, grid, RngStream(400 + steps, 0))
        sups.append(functional_ito_residual(f, path)["sup_norm"])
    assert sups[-1] < sups[0]


def per_step_functional_residual(f, values):
    """Loop reference for functional_ito_residual's per_time: one unbatched
    moi / op_function call per matrix and step."""
    f0 = op_function(f, values[0])
    acc = np.zeros_like(values[0])
    per = [0.0]
    for x, x_next in zip(values[:-1], values[1:]):
        d = x_next - x
        acc = acc + (moi(f, 1, (x, x), (d,)) + moi(f, 2, (x, x, x), (d, d)))
        per.append(l1_trace_norms(op_function(f, x_next) - f0 - acc))
    return np.array(per)


FUNCTIONS = {
    "exp_sum": ScalarFunctionSpec.exp_sum([(1.0, 1.1), (0.4, -0.6)]),
    "polynomial": ScalarFunctionSpec.polynomial([0.3, -1.0, 0.5, 0.0, 0.25]),
}


@pytest.mark.parametrize("fname", sorted(FUNCTIONS))
@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("seed", range(5))
def test_functional_residual_matches_per_step_reference(seed, n, fname):
    f = FUNCTIONS[fname]
    path = simulate_hbm(n, TimeGrid.uniform(1.0, 20), RngStream(seed, 0))
    got = functional_ito_residual(f, path)["per_time"]
    want = per_step_functional_residual(f, path.values)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("fname", sorted(FUNCTIONS))
def test_functional_residual_single_step_and_zero_path(fname):
    f = FUNCTIONS[fname]
    path = simulate_hbm(4, TimeGrid.uniform(1.0, 1), RngStream(3, 0))
    got = functional_ito_residual(f, path)["per_time"]
    want = per_step_functional_residual(f, path.values)
    assert got.shape == (2,) and got[0] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    # every eigenvalue of the all-zero path coalesces; the residual is 0
    grid = TimeGrid.uniform(1.0, 6)
    zero = ProcessPath(grid, np.zeros((7, 4, 4), dtype=complex), "martingale")
    rep = functional_ito_residual(f, zero)
    assert np.array_equal(rep["per_time"], np.zeros(7))
    assert np.array_equal(per_step_functional_residual(f, zero.values),
                          np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_path_is_reported_as_non_finite(bad):
    # such a matrix used to be called non-Hermitian
    f = FUNCTIONS["exp_sum"]
    path = simulate_hbm(3, TimeGrid.uniform(1.0, 3), RngStream(4, 0))
    values = path.values.copy()
    values[2, 0, 1] = bad
    named = r"1 non-finite: \(2, 0, 1\) = \(?(nan|inf)"
    with pytest.raises(ValueError, match=named):
        spectral_data(values)
    with pytest.raises(ValueError, match=named):
        op_function(f, values)
    with pytest.raises(ValueError, match=named):
        functional_ito_residual(f, ProcessPath(path.grid, values, "martingale"))


def test_functional_residual_memory_is_blocked():
    # n = 32, 400 steps: one unblocked (T, n, n, n) complex kernel takes
    # 400 * 32**3 * 16 B = 210 MB (with no blocking the route peaked at
    # 309 MB); the blocked route peaked at 40 MB.  Figures are numpy
    # allocations under tracemalloc, the path simulated beforehand.
    f = FUNCTIONS["exp_sum"]
    path = simulate_hbm(32, TimeGrid.uniform(1.0, 400), RngStream(0, 0))
    tracemalloc.start()
    try:
        rep = functional_ito_residual(f, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(rep["sup_norm"]) and rep["sup_norm"] < 0.05
    assert peak < 120e6


def test_convergence_study_reports_slope():
    rep = convergence_study(
        [0.04, 0.02, 0.01],
        {"n": 6, "paths": 20, "seed": 5, "poly": parse("x1^2"),
         "model": ContractionModel.matrix(6)},
        lambda res, slope: slope > 0.2,
    )
    assert rep["check"] == "convergence:ito_residual"
    assert rep["slope"] > 0.2 and rep["passed"] is True
    assert rep["residuals"][-1] < rep["residuals"][0]
    with pytest.raises(ValueError):
        convergence_study([0.1], {}, lambda res, slope: True)


def test_sup_residuals_open_each_path_stream_once(monkeypatch):
    polys = [parse("x1^2"), parse("x1^4"), parse("tr(x1^2) x1")]
    model = ContractionModel.matrix(4)
    # 6 paths in chunks of 4, and grids of one and of several windows
    grids = {11: TimeGrid.uniform(1.0, 10),
             12: TimeGrid.uniform(1.0, 2 * STUDY_TIME_BLOCK + 3)}
    # one polynomial at a time, on the same paths
    singles = {seed: [ito_sup_residuals([P], 4, grid, 6, seed, model,
                                        chunk=4)[0] for P in polys]
               for seed, grid in grids.items()}
    opened = []

    class CountingStream(nctrace.process_sim.RngStream):
        def __init__(self, master_seed, path_index=0):
            opened.append((master_seed, path_index))
            super().__init__(master_seed, path_index)

    monkeypatch.setattr(nctrace.process_sim, "RngStream", CountingStream)
    for seed, grid in grids.items():
        sups = ito_sup_residuals(polys, 4, grid, 6, seed, model, chunk=4)
        assert sups == singles[seed]
    # every window of a path feeds all three polynomials
    assert opened == [(seed, i) for seed in grids for i in range(6)]


# -- time-blocked studies -----------------------------------------------------


def _reference_residual(P, vals, grid, model, second_order):
    """The residual from whole-path pieces: P(X) - P(X0), the cumulative
    rs_integral of dP and a separate cumulative second-order sum."""
    n = vals.shape[-1]
    dP, corr = ito_rhs_symbolic(P, model)
    lhs = eval_poly(P, EvalContext(n, {1: vals}))
    stoch = rs_integral(BoundBiprocess(dP, grid, n, {1: vals}), vals)
    left = EvalContext(n, {1: vals[:, :-1]})
    if second_order == "contracted":
        second = (eval_poly(corr, left)
                  * np.diff(grid.times)[:, None, None])
    else:
        delta = np.diff(vals, axis=1)
        second = 0.5 * eval_multilinear(derive_k(P, 2), left, [delta, delta])
    return lhs - lhs[:, :1] - stoch - cumulative_path(second)


def _svd_sup(res):
    n = res.shape[-1]
    per = np.sum(np.linalg.svd(res, compute_uv=False), axis=-1) / n
    return float(np.max(np.mean(per, axis=0)))


@pytest.mark.parametrize("points", [2, STUDY_TIME_BLOCK, STUDY_TIME_BLOCK + 1,
                                    STUDY_TIME_BLOCK + 2, 801])
@pytest.mark.parametrize("second_order", ["contracted", "quadratic"])
def test_blocked_sup_residuals_match_whole_path_residuals(points, second_order):
    n, paths, seed = 3, 3, 17
    model = ContractionModel.matrix(n)
    grid = TimeGrid.uniform(1.0, points - 1)
    polys = [parse("x1^4"), parse("tr(x1^2) x1")]
    if second_order == "contracted":
        # the quadratic sums leave no residual of x1^2 but rounding
        polys.insert(0, parse("x1^2"))
    got = ito_sup_residuals(polys, n, grid, paths, seed, model, second_order)
    vals = simulate_hbm_ensemble(n, grid, paths, seed).values
    for P, sup in zip(polys, got):
        res = ito_residual_path(P, vals, grid, model, second_order)
        one_block = float(np.max(np.mean(l1_trace_norms(res), axis=0)))
        want = _svd_sup(_reference_residual(P, vals, grid, model,
                                            second_order))
        assert abs(sup - one_block) <= 1e-12 * one_block
        assert abs(sup - want) <= 1e-12 * want


def test_sup_residuals_hold_no_whole_path_temporaries():
    # one chunk of 8 paths at n = 16 on 801 grid times is 26 MB of values;
    # whole-path (paths, T, n, n) temporaries took the parent study to
    # 210 MB, and the time-blocked study peaked at 50 MB.  Figures are numpy
    # allocations under tracemalloc, simulation included.
    grid = TimeGrid.uniform(1.0, 800)
    chunk_bytes = 8 * 801 * 16 * 16 * 16
    tracemalloc.start()
    try:
        (sup,) = ito_sup_residuals([parse("x1^4")], 16, grid, 8, 0,
                                   ContractionModel.matrix(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(sup)
    assert peak < 3 * chunk_bytes


def test_sup_residual_memory_does_not_grow_with_the_horizon(traced_peak):
    # the study streams one window of STUDY_TIME_BLOCK points at a time, so
    # 3201 grid times take no more memory than 801; a whole-path chunk of
    # 8 paths at n = 16 on 801 grid times is 26 MB, and holding one made
    # the peak grow with T (43 MB at 801 points, 131 MB at 3201)
    chunk_bytes = 8 * 801 * 16 * 16 * 16
    peaks = [traced_peak(lambda: ito_sup_residuals(
        [parse("x1^4")], 16, TimeGrid.uniform(1.0, steps), 8, 0,
        ContractionModel.matrix(16))[0]) for steps in (800, 3200)]
    assert peaks[1] <= 1.25 * peaks[0]
    assert peaks[1] < chunk_bytes


@pytest.mark.parametrize("polys,most", [(["x1^4"], 5),
                                        (["x1^2", "x1^4", "tr(x1^2) x1"], 7)],
                         ids=["x1^4", "three"])
def test_study_loops_let_go_of_each_block(polys, most, buffers_used):
    # a del missing in the study loop or in _residual_blocks adds a buffer;
    # each bound is the count the studies use, so one buffer more fails
    assert buffers_used(lambda: ito_sup_residuals(
        [parse(p) for p in polys], 4,
        TimeGrid.uniform(1.0, 3 * STUDY_TIME_BLOCK), 3, 0,
        ContractionModel.matrix(4))) <= most


@pytest.mark.parametrize("text, most", [("x1^4", 5), ("x1^2", 5),
                                        ("tr(x1^2) x1", 4)],
                         ids=["x1^4", "x1^2", "tr(x1^2) x1"])
def test_study_loops_let_go_of_each_block_at_the_unit_shape(text, most,
                                                            buffers_used):
    # n = 16, 8 paths on 801 points, as in a verify_study unit: the block
    # pass 1 keeps for the window before the last costs no buffer, since
    # the evaluator makes P after the step terms, and each bound is the
    # count the study uses
    assert buffers_used(lambda: ito_sup_residuals(
        [parse(text)], 16, TimeGrid.uniform(1.0, 800), 8, 0,
        ContractionModel.matrix(16))) <= most


@pytest.mark.parametrize("second_order", ["contracted", "quadratic"])
@pytest.mark.parametrize("text", ["x1^2", "x1^4", "tr(x1^2) x1"])
def test_study_blocks_are_bitwise_hermitian(text, second_order):
    # paired sinks end as H + H^H, and the trace factors of Hermitian
    # registers are real, so tr(x1^2) x1's blocks are real combinations of
    # Hermitian matrices: every block equals its adjoint bit for bit
    n, paths, seed = 16, 8, 0
    grid = TimeGrid.uniform(1.0, 2 * STUDY_TIME_BLOCK + 8)
    symbols = [_step_symbols(parse(text), ContractionModel.matrix(n),
                             second_order)]
    (walk,) = hbm_windows(n, grid, paths, seed, paths, STUDY_TIME_BLOCK)
    blocks = 0
    for _, _, _, res in _residual_blocks(symbols, walk, grid, True):
        assert np.array_equal(res, np.conj(np.swapaxes(res, -1, -2)))
        blocks += 1
    assert blocks == 3


@pytest.mark.parametrize("text", ["x1^2", "x1^4", "tr(x1^2) x1", "x1' x1^3"])
def test_self_adjoint_residuals_take_the_hermitian_route(text, monkeypatch):
    # on HBM paths a self-adjoint P gives a Hermitian residual: the study
    # reduces it without the reducer's Hermitian test, to the same figures
    n, paths, seed = 4, 3, 2
    grid = TimeGrid.uniform(1.0, STUDY_TIME_BLOCK + 5)
    P = parse(text)
    vals = simulate_hbm_ensemble(n, grid, paths, seed).values
    res = ito_residual_path(P, vals, grid, ContractionModel.matrix(n))
    assert np.max(np.abs(res - np.conj(np.swapaxes(res, -1, -2)))) \
        <= 1e-13 * np.max(np.abs(res))
    masked = np.max(np.mean(l1_trace_norms(res), axis=0))
    monkeypatch.setattr("nctrace.matrix_alg._hermitian_mask", None)
    (sup,) = ito_sup_residuals([P], n, grid, paths, seed,
                               ContractionModel.matrix(n))
    assert abs(sup - masked) <= 1e-13 * masked


@pytest.mark.parametrize("second_order", ["contracted", "quadratic"])
def test_study_takes_the_hermitian_route_exactly_for_self_adjoint_symbols(
        second_order, monkeypatch):
    # the walk's windows are Hermitian, so a polynomial's residual is
    # Hermitian exactly when its step symbols are all self-adjoint
    texts = ["x1^2", "x1^4", "tr(x1^2) x1", "x1' x1^3", "x1 + i x1^2",
             "i x1^3"]
    model = ContractionModel.matrix(3)
    polys = [parse(t) for t in texts]
    verdicts = []
    reduce = nctrace.ito.l1_trace_norms

    def recording(res, hermitian=False):
        verdicts.append(hermitian)
        return reduce(res, hermitian=hermitian)

    monkeypatch.setattr(nctrace.ito, "l1_trace_norms", recording)
    ito_sup_residuals(polys, 3, TimeGrid.uniform(1.0, 4), 2, 0, model,
                      second_order)
    # one window: one reduction per polynomial
    assert verdicts == [all(map(is_self_adjoint,
                                _step_symbols(P, model, second_order)))
                        for P in polys]
    assert verdicts == [True, True, True, True, False, False]


def test_non_self_adjoint_residuals_keep_the_masked_reducer(monkeypatch):
    n, paths, seed = 3, 2, 4
    grid = TimeGrid.uniform(1.0, 20)
    P = parse("x1 + i x1^2")
    vals = simulate_hbm_ensemble(n, grid, paths, seed).values
    res = ito_residual_path(P, vals, grid, ContractionModel.matrix(n))
    want = float(np.max(np.mean(l1_trace_norms(res), axis=0)))
    calls = []
    mask = nctrace.matrix_alg._hermitian_mask
    monkeypatch.setattr("nctrace.matrix_alg._hermitian_mask",
                        lambda a: calls.append(a.shape) or mask(a))
    (sup,) = ito_sup_residuals([P], n, grid, paths, seed,
                               ContractionModel.matrix(n))
    assert calls and abs(sup - want) <= 1e-12 * want


# -- the pruned study ---------------------------------------------------------


def _unpruned_sups(polys, n, grid, paths, seed, model, second_order, chunk):
    """The study as it reduces every grid time: each chunk's per-time path
    sums of tr_n |residual|, added chunk by chunk in order."""
    symbols = [_step_symbols(P, model, second_order) for P in polys]
    hermitian = [all(map(is_self_adjoint, sym)) for sym in symbols]
    acc = np.zeros((len(polys), len(grid.times)))
    for walk in hbm_windows(n, grid, paths, seed, chunk, STUDY_TIME_BLOCK):
        for i0, i1, k, res in _residual_blocks(symbols, walk, grid, True):
            acc[k, i0:i1] += np.sum(
                l1_trace_norms(res, hermitian=hermitian[k]), axis=0)
    return [float(np.max(row / paths)) for row in acc]


@pytest.mark.parametrize("n, paths, chunk", [(3, 5, 2), (1, 3, 25)])
@pytest.mark.parametrize("points", [2, STUDY_TIME_BLOCK, STUDY_TIME_BLOCK + 1,
                                    STUDY_TIME_BLOCK + 2,
                                    3 * STUDY_TIME_BLOCK + 1, 801])
@pytest.mark.parametrize("second_order", ["contracted", "quadratic"])
def test_pruned_sup_residuals_equal_the_unpruned_ones(n, paths, chunk,
                                                      points, second_order):
    model = ContractionModel.matrix(n)
    grid = TimeGrid.uniform(1.0, points - 1)
    polys = [parse(t) for t in ("x1^2", "x1^4", "tr(x1^2) x1", "5",
                                "3 x1 + 2")]
    want = _unpruned_sups(polys, n, grid, paths, 11, model, second_order,
                          chunk)
    # all five in one study, where the zero-residual polynomials keep every
    # window a candidate; the three others together and each alone, where
    # the walk resumes mid-path
    studies = [range(5), range(3)] + [[k] for k in range(5)]
    for ks in studies:
        got = ito_sup_residuals([polys[k] for k in ks], n, grid, paths, 11,
                                model, second_order, chunk)
        assert got == [want[k] for k in ks]


@pytest.mark.parametrize("text", ["x1^2", "x1^4", "tr(x1^2) x1"])
def test_pruned_sup_residuals_equal_the_unpruned_ones_at_the_unit_shape(
        text):
    # n = 16, 8 paths at mesh 0.00125, as in a verify_study unit: the
    # windows are time-major, and every sum over paths adds them in order
    n, paths, seed = 16, 8, 3
    grid, model = TimeGrid.from_mesh(1.0, 0.00125), ContractionModel.matrix(n)
    want = _unpruned_sups([parse(text)], n, grid, paths, seed, model,
                          "contracted", 25)
    assert ito_sup_residuals([parse(text)], n, grid, paths, seed,
                             model) == want


def test_study_reduces_only_the_grid_times_its_bound_cannot_rule_out(
        monkeypatch):
    # the residual grows along the path: the tr_n-L^2 bound rules out most
    # grid times before the last window, and the per-path rounds most paths
    # of the rest (at most 10 % of the matrices are reduced: 7.8 % here,
    # against 20 % when every path of a candidate window was reduced)
    n, paths, grid = 16, 8, TimeGrid.uniform(1.0, 800)
    count = [0]
    reduce = nctrace.ito.l1_trace_norms

    def counting(res, hermitian=False):
        count[0] += res[..., 0, 0].size
        return reduce(res, hermitian=hermitian)

    monkeypatch.setattr(nctrace.ito, "l1_trace_norms", counting)
    (sup,) = ito_sup_residuals([parse("x1^4")], n, grid, paths, 3,
                               ContractionModel.matrix(n))
    assert np.isfinite(sup)
    assert 0 < count[0] <= 0.1 * paths * len(grid.times)


@pytest.mark.parametrize("n, chunk, steps, text, walked", [
    # the first chunk's exact figures rule out the early candidates, so
    # the later chunks re-walk only the window before the last
    (4, 2, 8 * STUDY_TIME_BLOCK, "x1^4", [4, 1, 1]),
    # one path a chunk: after four, no grid time can reach the sup, and
    # the last two chunks are not walked again
    (3, 1, 2 * STUDY_TIME_BLOCK, "x1^2", [1, 1, 1, 1]),
])
def test_later_chunks_re_walk_only_what_can_still_reach_the_sup(
        n, chunk, steps, text, walked, monkeypatch):
    paths, seed = 6, 1
    grid, model = TimeGrid.uniform(1.0, steps), ContractionModel.matrix(n)
    want = _unpruned_sups([parse(text)], n, grid, paths, seed, model,
                          "contracted", chunk)
    counts = []
    resumed = nctrace.process_sim.HbmWalk.resumed

    def counting(walk, start, stop=None):
        counts.append(0)
        for window in resumed(walk, start, stop):
            counts[-1] += 1
            yield window

    monkeypatch.setattr(nctrace.process_sim.HbmWalk, "resumed", counting)
    got = ito_sup_residuals([parse(text)], n, grid, paths, seed, model,
                            chunk=chunk)
    assert got == want
    assert counts == walked


@pytest.mark.parametrize("n, steps, text", [
    (4, 8 * STUDY_TIME_BLOCK, "x1^4"),
    (4, 8 * STUDY_TIME_BLOCK + 16, "tr(x1^2) x1"),
    # the window before the last is the first
    (2, STUDY_TIME_BLOCK + 8, "x1^2"),
])
def test_a_single_chunk_study_does_not_re_walk_the_window_before_the_last(
        n, steps, text, monkeypatch):
    paths, seed = 3, 1
    grid, model = TimeGrid.uniform(1.0, steps), ContractionModel.matrix(n)
    last = steps // STUDY_TIME_BLOCK * STUDY_TIME_BLOCK
    # that window holds a time its tr_n-L^2 bound cannot rule out
    (walk,) = hbm_windows(n, grid, paths, seed, paths, STUDY_TIME_BLOCK)
    for i0, i1, _, res in _residual_blocks(
            [_step_symbols(parse(text), model, "contracted")], walk, grid,
            True):
        if i1 == last:
            bounds = np.sum(l2_trace_norms(res), axis=0)
        elif i0 == last:
            lower = np.max(np.sum(l1_trace_norms(res), axis=0))
    assert np.any(bounds * (1 + BOUND_MARGIN) >= lower)
    want = _unpruned_sups([parse(text)], n, grid, paths, seed, model,
                          "contracted", 25)
    walked = []
    resumed = nctrace.process_sim.HbmWalk.resumed

    def recording(walk, start, stop=None):
        for window in resumed(walk, start, stop):
            walked.append(window[0])
            yield window

    monkeypatch.setattr(nctrace.process_sim.HbmWalk, "resumed", recording)
    got = ito_sup_residuals([parse(text)], n, grid, paths, seed, model)
    assert got == want
    assert last - STUDY_TIME_BLOCK not in walked


def test_pass_2_makes_no_block_after_a_polynomials_last_time_still_in(
        monkeypatch):
    # "5" has no residual, so each chunk re-walks every window before the
    # last; x1^2 and x1^4 are made only up to the window of their last
    # time still in, so each one's last block is reduced.  No time of x1^2
    # is still in by the fifth chunk, and none of x1^4 by the sixth, so
    # those chunks make neither
    n, paths, chunk, seed = 3, 6, 1, 1
    grid = TimeGrid.uniform(1.0, 2 * STUDY_TIME_BLOCK)
    model = ContractionModel.matrix(n)
    polys = [parse(t) for t in ("x1^2", "x1^4", "5")]
    want = _unpruned_sups(polys, n, grid, paths, seed, model, "contracted",
                          chunk)
    log = []
    blocks, reduce = nctrace.ito._residual_blocks, nctrace.ito.l1_trace_norms

    def logging(*args):
        log.append([])
        for i0, i1, k, res in blocks(*args):
            log[-1].append([k, 0])
            yield i0, i1, k, res
            del res

    def counting(res, hermitian=False):
        log[-1][-1][1] += 1
        return reduce(res, hermitian=hermitian)

    monkeypatch.setattr(nctrace.ito, "_residual_blocks", logging)
    monkeypatch.setattr(nctrace.ito, "l1_trace_norms", counting)
    got = ito_sup_residuals(polys, n, grid, paths, seed, model, chunk=chunk)
    assert got == want
    made = 0
    for walk in log[paths:]:  # pass 2, after one pass-1 walk per chunk
        for k in range(2):
            reduced = [count for j, count in walk if j == k]
            made += len(reduced)
            assert not reduced or reduced[-1]
    assert made


@pytest.mark.parametrize("text, value", [
    # NaN in a Hermitian residual reduces to NaN, pruned or not
    ("x1^2", np.nan),
    # inf in a non-self-adjoint residual reduces to NaN, which is the sup
    ("x1 + i x1^2", np.inf),
])
def test_a_non_finite_early_residual_is_never_ruled_out(text, value,
                                                        monkeypatch):
    n, paths, seed = 4, 3, 5
    grid = TimeGrid.uniform(1.0, 4 * STUDY_TIME_BLOCK)
    model = ContractionModel.matrix(n)
    # the second window, which both passes of the study evaluate alike
    (walk,) = hbm_windows(n, grid, paths, seed, 25, STUDY_TIME_BLOCK)
    target = [w.copy() for i0, _, w in walk if i0 == STUDY_TIME_BLOCK][0]
    evaluate = nctrace.ito.eval_step_block

    def spoiling(*args):
        p, terms = evaluate(*args)
        if np.array_equal(args[3], target):
            p[0, 5, 0, 0] = value
        return p, terms

    monkeypatch.setattr(nctrace.ito, "eval_step_block", spoiling)
    study = [lambda: ito_sup_residuals([parse(text)], n, grid, paths, seed,
                                       model)[0],
             lambda: _unpruned_sups([parse(text)], n, grid, paths, seed,
                                    model, "contracted", 25)[0]]
    for run in study:
        with np.errstate(invalid="ignore"):
            assert np.isnan(run())


def test_studies_reject_empty_inputs():
    grid, model = TimeGrid.uniform(1.0, 10), ContractionModel.matrix(2)
    with pytest.raises(ValueError, match="at least one path"):
        ito_sup_residuals([parse("x1^2")], 2, grid, 0, 0, model)
    with pytest.raises(ValueError, match="chunk needs at least one path"):
        ito_sup_residuals([parse("x1^2")], 2, grid, 3, 0, model, chunk=0)
