"""Evaluation maps: homomorphism, linearity, per-index trace factors."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctrace import ContractionModel, parse
from nctrace.evaluator import (
    EvalContext,
    EvalError,
    _floats,
    _leaf,
    _results_like,
    _run,
    compile_plan,
    eval_multilinear,
    eval_poly,
    eval_step_block,
)
from nctrace.ito import _step_symbols, ito_rhs_symbolic
from nctrace.matrix_alg import adjoint, trace_n
from nctrace.rational import QC
from nctrace.trace_poly import TracePolynomial, is_self_adjoint, x, y

RNG = np.random.default_rng(991)


def rand_matrix(n, herm=False):
    g = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return (g + g.conj().T) / 2 if herm else g


def ctx_of(*mats, n=None):
    n = n or mats[0].shape[-1]
    return EvalContext(n, {i + 1: m for i, m in enumerate(mats)})


def test_identity_and_scalar_terms():
    a = rand_matrix(3)
    assert np.allclose(eval_poly(parse("x1"), ctx_of(a)), a)
    got = eval_poly(parse("tr(x1) x2"), ctx_of(np.diag([1.0, 3.0]).astype(complex),
                                               rand_matrix(2)))
    # tr_2(diag(1,3)) = 2
    b = eval_poly(parse("x2"), ctx_of(np.zeros((2, 2)), rand_matrix(2)))
    assert got.shape == (2, 2)


def test_hand_computed_trace_polynomial():
    # direct straight-line oracle for tr(x1^2 x2) x3 x2^2 x3 - tr(x1)tr(x2) x3
    a, b, c = (rand_matrix(4, herm=True) for _ in range(3))
    P = parse("tr(x1^2 x2) x3 x2^2 x3 - tr(x1) tr(x2) x3")
    got = eval_poly(P, ctx_of(a, b, c))
    want = (
        trace_n(a @ a @ b) * (c @ b @ b @ c)
        - trace_n(a) * trace_n(b) * c
    )
    assert np.max(np.abs(got - want)) < 1e-12


def test_pure_trace_polynomial_is_scalar_times_identity():
    a = rand_matrix(3)
    got = eval_poly(parse("tr(x1 x1')"), ctx_of(a))
    want = trace_n(a @ adjoint(a)) * np.eye(3)
    assert np.max(np.abs(got - want)) < 1e-13


def test_homomorphism_and_star():
    a, b = rand_matrix(4), rand_matrix(4)
    P, Q = parse("x1 x2' + tr(x1) x2"), parse("x2 x1 - i tr(x2 x1)")
    ctx = ctx_of(a, b)
    lhs = eval_poly(P * Q, ctx)
    rhs = eval_poly(P, ctx) @ eval_poly(Q, ctx)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(eval_poly(P.star(), ctx) - adjoint(eval_poly(P, ctx)))) < 1e-12


def test_multilinear_sandwich_and_pairing():
    a1, a2, a3 = (rand_matrix(4) for _ in range(3))
    b1, b2 = rand_matrix(4), rand_matrix(4)
    got = eval_multilinear(parse("x1 y1 x2"), ctx_of(a1, a2), [b1])
    assert np.max(np.abs(got - a1 @ b1 @ a2)) < 1e-12
    got = eval_multilinear(parse("x1 y1 x2 y2 x3"), ctx_of(a1, a2, a3), [b1, b2])
    assert np.max(np.abs(got - a1 @ b1 @ a2 @ b2 @ a3)) < 1e-12


def test_multilinear_real_linearity():
    a1, a2 = rand_matrix(4), rand_matrix(4)
    b, c = rand_matrix(4), rand_matrix(4)
    P = parse("x1 y1' x2 + tr(x1 y1) x2")
    ctx = ctx_of(a1, a2)
    lhs = eval_multilinear(P, ctx, [b + c])
    rhs = eval_multilinear(P, ctx, [b]) + eval_multilinear(P, ctx, [c])
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    alpha = 1.7  # real scalars commute past the adjoint
    assert np.max(np.abs(
        eval_multilinear(P, ctx, [alpha * b]) - alpha * eval_multilinear(P, ctx, [b])
    )) < 1e-12


def test_starred_slot_receives_adjoint():
    a = rand_matrix(3)
    b = rand_matrix(3)
    got = eval_multilinear(parse("y1' x1"), ctx_of(a), [b])
    assert np.max(np.abs(got - adjoint(b) @ a)) < 1e-12


def test_vector_slot_coordinates():
    a = rand_matrix(3)
    b1, b2 = rand_matrix(3), rand_matrix(3)
    got = eval_multilinear(parse("y1_1 x1 y1_2"), ctx_of(a), [(b1, b2)])
    assert np.max(np.abs(got - b1 @ a @ b2)) < 1e-12


def test_batched_evaluation():
    batch = RNG.normal(size=(5, 7, 3, 3)) + 1j * RNG.normal(size=(5, 7, 3, 3))
    ctx = EvalContext(3, {1: batch})
    got = eval_poly(parse("tr(x1) x1 x1"), ctx)
    assert got.shape == (5, 7, 3, 3)
    one = eval_poly(parse("tr(x1) x1 x1"), ctx_of(batch[2, 4]))
    assert np.max(np.abs(got[2, 4] - one)) < 1e-12


def test_zero_polynomial_keeps_the_batch_shape():
    batch = RNG.normal(size=(5, 7, 3, 3)) + 0j
    zero = parse("x1 - x1")
    assert zero.is_zero()
    got = eval_poly(zero, EvalContext(3, {1: batch, 2: np.eye(3)}))
    assert got.shape == (5, 7, 3, 3) and not np.any(got)
    # slot bindings, coordinates included, broadcast with the x bindings
    got = eval_multilinear(zero, EvalContext(3, {1: batch[0]}),
                           [[batch[:, :1], batch[:, :1]]])
    assert got.shape == (5, 7, 3, 3)
    assert eval_poly(zero, EvalContext(3)).shape == (3, 3)


def test_constant_polynomial_keeps_the_batch_shape():
    batch = RNG.normal(size=(5, 7, 3, 3)) + 0j
    got = eval_poly(parse("5"), EvalContext(3, {1: batch}))
    assert got.shape == (5, 7, 3, 3)
    assert np.array_equal(got, np.broadcast_to(5 * np.eye(3), got.shape))
    got = eval_multilinear(parse("2i"), EvalContext(3, {1: batch[0]}),
                           [batch[:, :1]])
    assert got.shape == (5, 7, 3, 3)
    assert eval_poly(parse("5"), EvalContext(3)).shape == (3, 3)


def test_error_conditions():
    a = rand_matrix(3)
    with pytest.raises(EvalError):
        eval_poly(parse("x1 x2"), ctx_of(a))
    with pytest.raises(EvalError):
        eval_poly(parse("y1 x1"), ctx_of(a))
    with pytest.raises(EvalError):
        EvalContext(3, {1: np.eye(4)})
    with pytest.raises(EvalError):
        eval_multilinear(parse("y1 x1"), ctx_of(a), [np.eye(4, dtype=complex)])
    with pytest.raises(EvalError):
        eval_multilinear(parse("y1 y2 x1"), ctx_of(a), [a])


# -- compiled plans against the term-by-term reference ------------------------


def _ref_letter(letter, ctx, y_bindings):
    if letter.family == "x":
        m = ctx.bindings[letter.index]
    else:
        bound = y_bindings[letter.index - 1]
        m = bound[letter.coord - 1] if isinstance(bound, tuple) else bound
    m = np.asarray(m, dtype=complex)
    return adjoint(m) if letter.star else m


def _ref_word(word, ctx, y_bindings):
    out = np.eye(ctx.n, dtype=complex)
    for letter in word:
        out = out @ _ref_letter(letter, ctx, y_bindings)
    return out


def _reference(P, ctx, y_bindings):
    """Term-by-term evaluation: every word multiplied out left to right,
    every trace factor from its own word, every term scaled and summed.
    Returns the value and the sum of the terms' largest entries."""
    mats = list(ctx.bindings.values())
    for bound in y_bindings or ():
        mats.extend(bound if isinstance(bound, tuple) else [bound])
    batch = np.broadcast_shapes(*(np.shape(m)[:-2] for m in mats))
    result = np.zeros(batch + (ctx.n, ctx.n), dtype=complex)
    scale = 0.0
    for (traces, outer), coeff in P.terms.items():
        scalar = complex(coeff)
        for w in traces:
            scalar = scalar * trace_n(_ref_word(w, ctx, y_bindings))
        term = np.asarray(scalar)[..., None, None] * _ref_word(
            outer, ctx, y_bindings)
        scale += float(np.max(np.abs(term)))
        result = result + term
    return result, scale


# x1 and x2 with stars; slot 1 carries two coordinates, slot 2 is scalar
_X_LETTERS = [x(1), x(1, star=True), x(2)]
_Y_LETTERS = [y(1, 1), y(1, 2, star=True), y(2), y(2, star=True)]
_COEFFS = [1, -1, 2, Fraction(1, 3), QC(0, 1), QC(Fraction(3, 2), -2)]


@st.composite
def _words(draw, letters):
    # runs of one letter, so that powers occur
    runs = draw(st.lists(st.tuples(st.sampled_from(letters),
                                   st.integers(1, 4)), max_size=3))
    return tuple(l for l, k in runs for _ in range(k))


@st.composite
def _plan_polys(draw):
    letters = _X_LETTERS + (_Y_LETTERS if draw(st.booleans()) else [])
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        traces = draw(st.lists(_words(letters), max_size=3))
        if traces and draw(st.booleans()):
            traces.append(traces[0])  # a repeated trace factor
        terms[(tuple(traces), draw(_words(letters)))] = draw(
            st.sampled_from(_COEFFS))
    return TracePolynomial(terms.items())


@settings(max_examples=300, deadline=None)
@given(_plan_polys(), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
def test_plan_matches_the_term_by_term_reference(P, n, seed):
    rng = np.random.default_rng(seed)

    def mats(*batch):
        shape = batch + (n, n)
        return 0.6 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    ctx = EvalContext(n, {1: mats(2, 3), 2: mats(3)})
    if P.slots_used():
        y_bindings = [(mats(2, 1), mats(1, 3)), mats(3)]
        got = eval_multilinear(P, ctx, y_bindings)
    else:
        y_bindings = None
        got = eval_poly(P, ctx)
    want, scale = _reference(P, ctx, y_bindings)
    assert got.shape == want.shape == (2, 3, n, n)
    assert got.dtype == complex
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_plan_is_compiled_once_per_polynomial():
    P = parse("x1^4 + 2 tr(x1^2) x1 - 3")
    plan = compile_plan(((P, False),))
    # an equal polynomial built another way gets the cached plan
    Q = parse("-3 + 2 tr(x1 x1) x1 + x1 x1 x1 x1")
    assert compile_plan(((Q, False),)) is plan


def test_plan_shares_powers_and_prefixes():
    # the derivative symbol of x1^4: x1^2 and x1^3 are computed once, so
    # its four words take 8 matrix products, not 12
    dP = parse("x1^3 y1 + x1^2 y1 x1 + x1 y1 x1^2 + y1 x1^3")
    plan = compile_plan(((dP, False),))
    assert sum(op == "mul" for op, *_ in plan.steps) == 8
    # a trace of two factors is a contraction, not a product
    plan = compile_plan(((parse("tr(x1 y1) x1"), False),))
    assert not any(op == "mul" for op, *_ in plan.steps)


def test_plan_result_is_a_new_array():
    a = RNG.normal(size=(4, 3, 3)) + 0j
    for text in ("x1", "x1^2", "2 x1", "5", "tr(x1) x1"):
        got = eval_poly(parse(text), ctx_of(a))
        assert not np.shares_memory(got, a)
        got += 1  # writable


@settings(max_examples=100, deadline=None)
@given(_plan_polys(), _plan_polys(), st.sampled_from([1, 2, 3]),
       st.integers(0, 2**32 - 1))
def test_two_sink_plan_gives_each_one_sink_plans_bits(P, Q, n, seed):
    # the sinks share registers, yet each sums its own terms in its own
    # order, so it gives the bits of its one-sink plan
    rng = np.random.default_rng(seed)

    def mats(*batch):
        shape = batch + (n, n)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    ctx = EvalContext(n, {1: mats(2, 3), 2: mats(3)})
    y_bindings = [(mats(2, 1), mats(1, 3)), mats(3)]
    both = _run(compile_plan(((P, False),), ((Q, False),)),
                lambda letter: _leaf(letter, ctx, y_bindings),
                _results_like(ctx, y_bindings), n)
    assert both[0].shape == (2, 3, n, n)
    for got, R in zip(both, (P, Q)):
        assert got.tobytes() == eval_multilinear(R, ctx, y_bindings).tobytes()


# -- the step plan against the term-by-term reference -------------------------

_X1 = [x(1), x(1, star=True)]
_STEP_LETTERS = _X1 + [y(1), y(1, star=True)]


@st.composite
def _step_polys(draw, letters):
    """A random polynomial in ``letters``, made self-adjoint (P + P*) in
    about half the draws; the other half are mostly not self-adjoint."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        traces = draw(st.lists(_words(letters), max_size=2))
        terms[(tuple(traces), draw(_words(letters)))] = draw(
            st.sampled_from(_COEFFS))
    P = TracePolynomial(terms.items())
    return P + P.star() if draw(st.booleans()) else P


def _step_reference(P, step, timed, window, dts):
    """P at every point, and step[dX] + timed * dt at every left endpoint,
    each from the term-by-term reference; with their reference scales."""
    n = window.shape[-1]
    left, delta = window[..., :-1, :, :], np.diff(window, axis=-3)
    p, p_scale = _reference(P, EvalContext(n, {1: window}), None)
    s, s_scale = _reference(step, EvalContext(n, {1: left}), [delta])
    t, t_scale = _reference(timed, EvalContext(n, {1: left}), None)
    return p, s + t * dts[:, None, None], p_scale, s_scale + t_scale


def _step_plan(P, step, timed, hermitian):
    """The plan ``eval_step_block`` runs: sink 0 the step terms, sink 1
    P."""
    return compile_plan(((step, False), (timed, True)), ((P, False),),
                        hermitian=hermitian)


@settings(max_examples=300, deadline=None)
@given(_step_polys(_X1), _step_polys(_STEP_LETTERS), _step_polys(_X1),
       st.booleans(), st.booleans(), st.sampled_from([1, 2, 3]),
       st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_step_plan_matches_the_term_by_term_reference(P, step, timed,
                                                      all_self_adjoint, herm,
                                                      n, points, seed):
    if all_self_adjoint:
        P, step, timed = (Q + Q.star() for Q in (P, step, timed))
    rng = np.random.default_rng(seed)
    shape = (2, points, n, n)
    window = 0.6 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    if herm:
        window = (window + adjoint(window)) / 2
    assert np.array_equal(window, adjoint(window)) == herm
    dts = rng.uniform(0.1, 1.0, size=points - 1)
    p, terms = eval_step_block(P, step, timed, window, dts)
    want_p, want_t, p_scale, t_scale = _step_reference(P, step, timed,
                                                       window, dts)
    assert p.shape == want_p.shape and terms.shape == want_t.shape
    assert np.max(np.abs(p - want_p)) <= 1e-12 * p_scale
    assert np.max(np.abs(terms - want_t)) <= 1e-12 * t_scale
    assert not np.shares_memory(p, window)
    plan = _step_plan(P, step, timed, herm)
    # terms are paired only on Hermitian bindings and self-adjoint symbols
    halves = {dest for op, dest, args, _ in plan.steps
              if op == "term" and args[-1]}
    if not herm:
        assert not halves
    if not (is_self_adjoint(step) and is_self_adjoint(timed)):
        assert 0 not in halves
    if not is_self_adjoint(P):
        assert 1 not in halves


def test_step_plan_pairs_only_self_adjoint_sinks():
    model = ContractionModel.matrix(4)
    for text, paired in (("x1^4", True), ("x1 + i x1^2", False)):
        P = parse(text)
        dP, correction = ito_rhs_symbolic(P, model)
        plan = _step_plan(P, dP, correction, True)
        halves = [args[-1] for op, _, args, _ in plan.steps if op == "term"]
        assert any(halves) == paired, text


def test_step_plan_for_x1_to_the_fourth_takes_4_products_per_grid_time():
    # P = x1^4, dP[dX] and the correction share x1^2; x1^2, x1^4 and x1^3
    # are made once on the window's points, which the increment shares
    # with one zero step.  Unpaired: X^2, X^4, X^3, X^3 dX, X^2 dX,
    # X^2 dX X.
    # Paired on a Hermitian path, the step sink's half is
    # X^3 dX + X^2 dX X + 3/2 dt X^2 + ..., whose first three terms share
    # the prefix X^2: they are X^2 V with V = C + C^H + 3/2 dt I, made from
    # the one product C = X dX.  With X^2 and X^4 = X^2 X^2, 4 products.
    P = parse("x1^4")
    dP, correction = ito_rhs_symbolic(P, ContractionModel.matrix(16))
    assert _step_plan(P, dP, correction, True).matmuls == 4
    assert _step_plan(P, dP, correction, False).matmuls == 9
    # the three separate plans this replaces took 2 + 8 + 1
    assert sum(compile_plan(((Q, False),)).matmuls
               for Q in (P, dP, correction)) == 11


# Products per grid time of the plan ``eval_step_block`` runs (step sink
# first) for each mode's step symbols, paired (Hermitian windows) and
# unpaired: (products, products before left factoring).
STEP_PLAN_PRODUCTS = {
    ("x1^2", "contracted"): ((2, 2), (3, 3)),
    ("x1^2", "quadratic"): ((3, 3), (4, 4)),
    ("x1^3", "contracted"): ((5, 5), (6, 6)),
    ("x1^3", "quadratic"): ((6, 9), (11, 11)),
    ("x1^4", "contracted"): ((4, 6), (9, 9)),
    ("x1^4", "quadratic"): ((9, 15), (21, 21)),
    ("x1^6", "contracted"): ((8, 10), (15, 15)),
    ("x1^6", "quadratic"): ((21, 32), (50, 50)),
    ("tr(x1^2) x1", "contracted"): ((0, 0), (0, 0)),
    ("tr(x1^2) x1", "quadratic"): ((0, 0), (0, 0)),
    ("x1^2 + tr(x1) x1", "contracted"): ((2, 2), (3, 3)),
    ("x1^2 + tr(x1) x1", "quadratic"): ((3, 3), (4, 4)),
}


@pytest.mark.parametrize("text, second_order", sorted(STEP_PLAN_PRODUCTS))
def test_step_plan_products_per_grid_time(text, second_order):
    P, step, timed = _step_symbols(parse(text), ContractionModel.matrix(16),
                                   second_order)
    for hermitian, (products, before) in zip(
            (True, False), STEP_PLAN_PRODUCTS[text, second_order]):
        plan = compile_plan(((step, False), (timed, True)), ((P, False),),
                            hermitian=hermitian)
        assert plan.matmuls == products <= before


def test_real_trace_contraction_is_kept_off_non_hermitian_windows():
    # tr(x1 y1) of a non-Hermitian window has an imaginary part, which the
    # real dot of a Hermitian plan would drop
    P, step, timed = _step_symbols(parse("tr(x1^2) x1"),
                                   ContractionModel.matrix(3), "contracted")
    rng = np.random.default_rng(4)
    window = rng.normal(size=(2, 5, 3, 3)) + 1j * rng.normal(size=(2, 5, 3, 3))
    dts = np.full(4, 0.25)
    imag = np.einsum("...ij,...ji->...", window[:, :-1], np.diff(window,
                                                                 axis=1)).imag
    assert np.min(np.abs(imag)) > 0.1
    want_p, want_t, p_scale, t_scale = _step_reference(P, step, timed,
                                                       window, dts)
    for hermitian in (None, False):
        p, terms = eval_step_block(P, step, timed, window, dts, hermitian)
        assert np.max(np.abs(p - want_p)) <= 1e-12 * p_scale
        assert np.max(np.abs(terms - want_t)) <= 1e-12 * t_scale


def test_floats_of_a_time_major_block_are_a_view():
    # the walk's blocks are stored time-major, each matrix C-ordered: the
    # real trace contraction reads them where they are
    block = np.zeros((9, 3, 4, 4), dtype=complex).swapaxes(0, 1)
    assert not block.flags.c_contiguous
    f = _floats(block)
    assert f.shape == (3, 9, 32) and np.shares_memory(f, block)


def test_real_traces_of_a_transposed_window_make_no_copy():
    # the adjoint of a Hermitian h, made by np.conjugate, equals h and is
    # stored with each matrix transposed, so it has no float view; its
    # Hermitian plan takes the real part of the complex contraction there,
    # which agrees with the real dots to rounding
    P, step, timed = _step_symbols(parse("tr(x1^2) x1"),
                                   ContractionModel.matrix(16), "contracted")
    rng = np.random.default_rng(6)
    g = rng.normal(size=(3, 9, 16, 16)) + 1j * rng.normal(size=(3, 9, 16, 16))
    h = (g + adjoint(g)) / 2
    window = adjoint(h)
    assert np.array_equal(window, h) and _floats(window) is None
    dts = np.full(8, 0.125)
    p, terms = eval_step_block(P, step, timed, window, dts, True)
    want = eval_poly(P, EvalContext(16, {1: window}))
    assert np.max(np.abs(p - want)) <= 1e-12 * np.max(np.abs(want))
    copied = eval_step_block(P, step, timed, h, dts, True)
    assert np.max(np.abs(terms - copied[1])) <= 1e-12 * np.max(
        np.abs(copied[1]))
    # the scalars stay real, so the terms stay Hermitian bit for bit
    assert np.array_equal(terms, adjoint(terms))


def test_step_plan_results_on_one_point():
    window = np.zeros((3, 1, 2, 2), dtype=complex) + np.eye(2)
    P, dP = parse("x1^2 + 1"), parse("x1 y1 + y1 x1")
    p, terms = eval_step_block(P, dP, parse("1"), window, np.zeros(0))
    assert np.array_equal(p, 2 * window) and terms.shape == (3, 0, 2, 2)


def test_step_block_takes_the_callers_hermitian_verdict(monkeypatch):
    P = parse("x1^4")
    dP, correction = ito_rhs_symbolic(P, ContractionModel.matrix(3))
    rng = np.random.default_rng(8)
    g = rng.normal(size=(2, 5, 3, 3)) + 1j * rng.normal(size=(2, 5, 3, 3))
    window = (g + adjoint(g)) / 2
    dts = np.full(4, 0.25)
    checked = eval_step_block(P, dP, correction, window, dts)
    # the verdict given, the window is not compared with its adjoint
    monkeypatch.setattr("nctrace.evaluator.adjoint", None)
    given_ = eval_step_block(P, dP, correction, window, dts, hermitian=True)
    for a, b in zip(checked, given_):
        assert a.tobytes() == b.tobytes()
    # False keeps every term unpaired, to the same values
    p, terms = eval_step_block(P, dP, correction, window, dts,
                               hermitian=False)
    assert np.allclose(p, checked[0], rtol=0, atol=1e-12)
    assert np.allclose(terms, checked[1], rtol=0, atol=1e-12)
