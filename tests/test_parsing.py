"""Grammar: parsing, canonical printing, round trips, error positions."""

import pytest

from hypothesis import given, settings, strategies as st

from nctrace import ParseError, TracePolynomial, format_polynomial, parse
from nctrace.rational import QC
from nctrace.trace_poly import x


def test_scalars():
    assert parse("5") == TracePolynomial.constant(5)
    assert parse("3/2") == TracePolynomial.constant(QC("3/2"))
    assert parse("0.5") == TracePolynomial.constant(QC("1/2"))
    assert parse("i") == TracePolynomial.constant(QC(0, 1))
    assert parse("3i") == TracePolynomial.constant(QC(0, 3))
    assert parse("2/3i") == TracePolynomial.constant(QC(0, "2/3"))


def test_juxtaposition_equals_explicit_product():
    assert parse("x1 x2") == parse("x1 * x2")
    assert parse("2 tr(x1) x2") == parse("2 * tr(x1) * x2")


def test_powers_expand():
    assert parse("x1^3") == parse("x1 x1 x1")
    assert parse("(x1 + x2)^2") == parse("x1 x1 + x1 x2 + x2 x1 + x2 x2")
    assert parse("x1^0") == parse("1")


def test_stars_and_slots():
    assert parse("x1'") == TracePolynomial.from_word([x(1, True)])
    P = parse("y2_3'")
    ((traces, outer),) = P.terms
    assert not traces
    (l,) = outer
    assert (l.family, l.index, l.coord, l.star) == ("y", 2, 3, True)


def test_unary_minus_and_precedence():
    assert parse("-x1 + x1").is_zero()
    assert parse("2 + 3 x1") == parse("3 x1 + 2")


def test_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse("x1 $ x2")
    assert e.value.position == 3
    with pytest.raises(ParseError):
        parse("tr(x1")
    with pytest.raises(ParseError):
        parse("x1^x2")


def test_format_golden():
    assert format_polynomial(parse("0")) == "0"
    assert (
        format_polynomial(parse("x2' x1 - tr(x1) + 1/2i x1"))
        == "1/2i x1 + x2' x1 - tr(x1)"
    )
    # the printer is deterministic: same polynomial, same string
    a = format_polynomial(parse("tr(x2 x1) x3 + i x1"))
    b = format_polynomial(parse("i x1 + tr(x1 x2) x3"))
    assert a == b


_texts = st.sampled_from(
    [
        "x1 x2 x2' x3 + 3i tr(x1 x2') x2 + x1' x3^2 + 5",
        "tr(x1 y1') x3' y2 x3 x2",
        "-1/3 tr(x1)^2 + 7/2i x2 x2",
        "tr(x1 x2 x1') tr(x2) - x1",
        "(x1 + x2')^3",
        "y1_2 x1 y2_1' + tr(x1 y1_1) x2",
    ]
)


@given(_texts)
@settings(deadline=None)
def test_print_parse_round_trip(text):
    P = parse(text)
    assert parse(format_polynomial(P)) == P
    assert format_polynomial(parse(format_polynomial(P))) == format_polynomial(P)
