"""Symbolic layer: canonical forms, derivatives, contraction rules."""

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nctrace import (
    QC,
    ContractionModel,
    LinearityError,
    TracePolynomial,
    classify_linearity,
    compose_linear,
    derive,
    derive_k,
    drop_martingale_null,
    gamma_contract,
    parse,
)
from nctrace.trace_poly import (
    canonical_rotation,
    hermitian_form,
    is_self_adjoint,
    relabel_slot,
    star_word,
    x,
    y,
)


# -- canonical form -------------------------------------------------------


def test_floats_convert_exactly():
    assert QC.from_value(1e-13) != 0
    assert QC.from_value(1e-13).re == Fraction(1e-13)
    assert QC.from_value(0.3333333333333) != QC(Fraction(1, 3))
    scaled = parse("x1").scale(1e-13)
    assert not scaled.is_zero()
    assert scaled == parse("x1").scale(QC(Fraction(1e-13)))


def test_constants_equal_every_value_the_constructors_take():
    for value in (2, Fraction(1, 2), 0.5, 1e-13, 1.5 - 2j, QC(0, 3)):
        assert QC.from_value(value) == value and value == QC.from_value(value)
        assert TracePolynomial.constant(value) == value
        assert value == TracePolynomial.constant(value)
    assert TracePolynomial.constant(0.5) != Fraction(1, 3)
    assert QC(1) != 1.0000000000000002
    # values no constructor takes compare unequal instead of raising
    for other in (None, [1], "x1", float("nan"), float("inf")):
        assert QC(1) != other and TracePolynomial.constant(1) != other


def test_scalars_hash_like_the_numbers_they_equal():
    assert len({QC(1), 1}) == 1
    assert {QC(1): "a"}.get(1) == "a"
    assert hash(QC(0.5)) == hash(0.5)
    assert hash(QC(1, 2)) == hash(1 + 2j)
    assert hash(QC(-1000004, 1)) == hash(complex(-1000004, 1)) == -2
    assert hash(TracePolynomial.constant(2)) == hash(2)
    assert hash(TracePolynomial.constant(1.5 - 2j)) == hash(1.5 - 2j)
    assert hash(TracePolynomial.zero()) == hash(0)
    assert {TracePolynomial.constant(2): "b"}.get(2) == "b"


def test_strings_never_equal_scalars():
    # "1/2" would build QC(1/2), but a str hashes as itself: equal objects
    # must hash equally, so a str compares unequal to every scalar
    assert QC(0.5) != "1/2" and "1/2" != QC(0.5)
    assert TracePolynomial.constant(0.5) != "1/2"
    assert "1/2" != TracePolynomial.constant(0.5)
    assert len({QC(0.5), "1/2"}) == 2
    assert {QC(0.5): "a"}.get("1/2") is None


def test_traciality_canonicalizes_rotations():
    assert parse("tr(x1 x2 x3)") == parse("tr(x3 x1 x2)")
    assert parse("tr(x1 x2 x1)") == parse("tr(x1^2 x2)")


def test_traciality_does_not_touch_outer_words():
    assert parse("x1 x2") != parse("x2 x1")


def test_constructor_sums_duplicate_and_rotated_raw_keys():
    a, b, c = x(1), x(2), x(3)
    P = TracePolynomial([
        ((((a, b, c),), (a,)), 1),
        ((((b, c, a),), (a,)), 2),               # a rotation of the word
        ((((c, a, b),), (a,)), QC(0, 1)),
        ((((a, b, c),), (a,)), Fraction(1, 2)),  # the same raw key again
        ((((b,), (a,)), ()), 1),                 # unsorted trace factors
        ((((a,), (b,)), ()), -1),                # cancels the line above
    ])
    assert P.terms == {(((a, b, c),), (a,)): QC(Fraction(7, 2), 1)}


def test_like_terms_merge_and_cancel():
    assert parse("tr(x2 x1) x3 - tr(x1 x2) x3").is_zero()
    assert parse("x1 + x1") == parse("2 x1")


def test_trace_of_constant():
    assert parse("tr(1)") == TracePolynomial.constant(1)
    one = TracePolynomial.constant(QC(3, Fraction(1, 2)))
    assert one.tr() == one


def test_star_of_monomial():
    P = TracePolynomial.from_word([x(1), x(2, True)], coeff=QC(0, 1))
    assert P.star() == TracePolynomial.from_word([x(2), x(1, True)], coeff=QC(0, -1))


def test_star_moves_inside_traces():
    assert parse("tr(x1 x2)").star() == parse("tr(x2' x1')")


def test_trace_words_commute_as_scalars():
    assert parse("tr(x1) tr(x2) x3") == parse("tr(x2) tr(x1) x3")


# -- golden derivative examples ------------------------------------------


def test_partial_derivative_golden_example():
    P = parse("x1 x2 x2' x3 + 3i tr(x1 x2') x2 + x1' x3^2 + 5")
    expected = parse(
        "x1 y1 x2' x3 + x1 x2 y1' x3 + 3i tr(x1 y1') x2 + 3i tr(x1 x2') y1"
    )
    assert derive(P, 2) == expected


def test_partial_derivative_missing_variable_is_zero():
    assert derive(parse("x1 x3 + tr(x3) x1"), 2).is_zero()


def test_second_derivative_of_cube():
    # d^2 x^3: permutations of two slots over x y x y x patterns
    got = derive_k(parse("x1^3"), 2)
    expected = parse(
        "y1 y2 x1 + y1 x1 y2 + x1 y1 y2 + y2 y1 x1 + y2 x1 y1 + x1 y2 y1"
    )
    assert got == expected


def test_derive_k_slot_coordinates_track_variables():
    got = derive_k(parse("x1 x2"), 1)
    assert got == parse("y1_1 x2 + x1 y1_2")


# -- linearity classification --------------------------------------------


def test_linearity_classes():
    assert classify_linearity(parse("tr(x1 y1) x2 y2"), 2) == "complex-2-linear"
    assert classify_linearity(parse("tr(x1 y1') x3' y2 x3 x2"), 2) == "real-2-linear"
    assert classify_linearity(parse("y1 y1"), 1) == "not-linear"
    assert classify_linearity(parse("y1 + x1"), 1) == "not-linear"


# -- gamma contraction ----------------------------------------------------


def test_contract_outer_outer():
    P = parse("x1 y1 x2 y2 x3")
    for model in (ContractionModel.matrix(8), ContractionModel.free()):
        assert gamma_contract(P, model) == parse("tr(x2) x1 x3")


def test_contract_same_trace():
    P = parse("tr(x1 y1 x2 y2)")
    for model in (ContractionModel.matrix(8), ContractionModel.free()):
        assert gamma_contract(P, model) == parse("tr(x1) tr(x2)")


def test_contract_cross_trace():
    P = parse("tr(x1 y1) tr(x2 y2)")
    assert gamma_contract(P, ContractionModel.matrix(8)) == parse(
        "1/64 tr(x1 x2)"
    )
    assert gamma_contract(P, ContractionModel.free()).is_zero()


def test_contract_trace_outer():
    P = parse("tr(x1 y1) x2 y2 x3")
    assert gamma_contract(P, ContractionModel.matrix(8)) == parse(
        "1/64 x2 x1 x3"
    )
    assert gamma_contract(P, ContractionModel.free()).is_zero()


def test_contract_symmetric_in_slots():
    for text in ("x1 y2 x2 y1 x3", "tr(x2 y2) tr(x1 y1)"):
        P = parse(text)
        swapped = relabel_slot(relabel_slot(relabel_slot(P, 1, 3), 2, 1), 3, 2)
        for model in (ContractionModel.matrix(4), ContractionModel.free()):
            assert gamma_contract(P, model) == gamma_contract(swapped, model)


def test_free_model_is_large_n_limit_of_matrix_model():
    # matrix model = free part + n^-2 * finite-rank part, so the free part
    # is recovered exactly from two dimensions by elimination
    P = derive_k(parse("tr(x1^2 x2) x1 + x2 x1 x2"), 2)
    m5 = gamma_contract(P, ContractionModel.matrix(5))
    m7 = gamma_contract(P, ContractionModel.matrix(7))
    free = gamma_contract(P, ContractionModel.free())
    combo = (m7.scale(49) - m5.scale(25)).scale(QC(Fraction(1, 24)))
    assert free == combo


def test_square_correction_is_the_unit():
    half = QC(Fraction(1, 2))
    corr = gamma_contract(
        derive_k(parse("x1^2"), 2), ContractionModel.matrix(4)
    ).scale(half)
    assert corr == TracePolynomial.constant(2).scale(half)


def test_contract_rejects_starred_slots():
    with pytest.raises(LinearityError):
        gamma_contract(parse("x1 y1' x2 y2 x3"), ContractionModel.matrix(4))


def test_contract_rejects_nonbilinear_input():
    with pytest.raises(LinearityError):
        gamma_contract(parse("x1 y1"), ContractionModel.matrix(4))


# -- martingale-null filtering -------------------------------------------


def test_drop_martingale_null_keeps_outer_slots():
    P = parse("x1 y1 x2 + 2 tr(x1 y1) x2 + tr(x2 y1)")
    assert drop_martingale_null(P) == parse("x1 y1 x2")


# -- symbol composition ---------------------------------------------------


def test_compose_linear_splices_words():
    H = parse("x1 y1 x2")
    K = parse("x3 y1 + tr(x3 y1) x3")
    got = compose_linear(H, K)
    assert got == parse("x1 x3 y1 x2 + tr(x3 y1) x1 x3 x2")


def test_compose_linear_respects_starred_slots():
    H = parse("y1' x1")
    K = parse("x2 y1")
    assert compose_linear(H, K) == parse("y1' x2' x1")


def test_compose_linear_into_a_trace_factor():
    # K's outer word replaces the slot inside tr(x1 y1); K's own trace
    # factor joins the term's trace factors
    H = parse("tr(x1 y1) x2 + 3 x2 y1")
    K = parse("tr(x3) x4 y1 + 2 y1 x1")
    assert compose_linear(H, K) == parse(
        "tr(x3) tr(x1 x4 y1) x2 + 2 tr(x1 y1 x1) x2"
        " + 3 tr(x3) x2 x4 y1 + 6 x2 y1 x1"
    )


def test_compose_linear_into_slot_2_of_a_bilinear_symbol():
    # the double composition of qc_of_integrals_check; slot 1 is untouched
    # by the second step and K's letters take the label 2
    L = parse("x1 y1 y2 + tr(y2 x2) y1")
    H = parse("y1 x4")
    K = parse("x3 y1")
    assert compose_linear(L, K, slot=2) == parse(
        "x1 y1 x3 y2 + tr(x3 y2 x2) y1"
    )
    assert compose_linear(compose_linear(L, H, slot=1), K, slot=2) == parse(
        "x1 y1 x4 x3 y2 + tr(x3 y2 x2) y1 x4"
    )


def test_compose_linear_merges_and_cancels_terms():
    # (x1 y1 + y1 x1) x1 - x1 (x1 y1 + y1 x1): the two x1 y1 x1 cancel
    K = parse("x1 y1 + y1 x1")
    assert compose_linear(parse("y1 x1 - x1 y1"), K) == parse(
        "y1 x1^2 - x1^2 y1"
    )
    # x1 y1 x1 arises twice and merges
    assert compose_linear(parse("x1 y1 + y1 x1"), K) == parse(
        "x1^2 y1 + 2 x1 y1 x1 + y1 x1^2"
    )
    # tr(x1 x1 y1) - tr(x1 y1 x1) is zero by traciality
    assert compose_linear(parse("tr(x1 y1)"), parse("x1 y1 - y1 x1")).is_zero()


# -- property tests -------------------------------------------------------

_letters = st.builds(
    x,
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
_words = st.lists(_letters, min_size=0, max_size=4).map(tuple)
_coeffs = st.builds(
    QC,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    P = TracePolynomial.zero()
    for _ in range(n_terms):
        word = draw(_words)
        traced = draw(st.booleans())
        t = TracePolynomial.from_word(word, coeff=draw(_coeffs))
        P = P + (t.tr() if traced else t)
    return P


@settings(max_examples=200, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_laws(P, Q, R):
    assert P + Q == Q + P
    assert (P + Q) + R == P + (Q + R)
    assert (P * Q) * R == P * (Q * R)
    assert P * (Q + R) == P * Q + P * R


@settings(max_examples=200, deadline=None)
@given(_polys(), _polys())
def test_star_laws(P, Q):
    assert P.star().star() == P
    assert (P * Q).star() == Q.star() * P.star()
    assert (P + Q).star() == P.star() + Q.star()


def test_hermitian_form_reads_starred_letters_as_plain():
    assert hermitian_form(parse("x1'^2 + tr(x1' x2) y1'")) == parse(
        "x1^2 + tr(x1 x2) y1")
    # the plain form canonicalises again: tr(x2 x1') and tr(x1 x2) merge
    assert hermitian_form(parse("tr(x2 x1') - tr(x1 x2)")).is_zero()


def test_self_adjointness_on_hermitian_letters():
    # x1^4 is not its own star as a *-polynomial, only on Hermitian x1
    assert parse("x1^4").star() != parse("x1^4")
    for text in ("x1^4", "tr(x1^2) x1", "x1 x1'", "i x1 x2 - i x2 x1",
                 "tr(x1 x2 x3) + tr(x3 x2 x1)", "x1 y1 x1^2 + x1^2 y1 x1",
                 "5", "0"):
        assert is_self_adjoint(parse(text)), text
    for text in ("x1 + i x1^2", "x1 x2", "i x1", "tr(x1 x2 x3)",
                 "x1 y1 x1^2"):
        assert not is_self_adjoint(parse(text)), text


@settings(max_examples=200, deadline=None)
@given(_polys())
def test_hermitian_parts_are_self_adjoint(P):
    assert is_self_adjoint(P + P.star())
    assert is_self_adjoint((P - P.star()).scale(QC(0, 1)))
    assert is_self_adjoint(P) == is_self_adjoint(P.star())


@settings(max_examples=200, deadline=None)
@given(_words, _words)
def test_trace_is_cyclic(w1, w2):
    a = TracePolynomial.from_word(w1)
    b = TracePolynomial.from_word(w2)
    assert (a * b).tr() == (b * a).tr()


@settings(max_examples=200, deadline=None)
@given(_words, st.integers(min_value=0, max_value=3))
def test_canonical_rotation_is_rotation_invariant(w, shift):
    rotated = w[shift % max(len(w), 1):] + w[: shift % max(len(w), 1)]
    assert canonical_rotation(w) == canonical_rotation(rotated)


@settings(max_examples=200, deadline=None)
@given(_words)
def test_star_word_is_involutive(w):
    assert star_word(star_word(w)) == w


@settings(max_examples=100, deadline=None)
@given(_polys(), _polys())
def test_derive_is_a_derivation(P, Q):
    lhs = derive(P * Q, 1)
    rhs = derive(P, 1) * Q + P * derive(Q, 1)
    assert lhs == rhs
