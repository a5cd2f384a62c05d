"""Expression grammar for trace *-polynomials.

::

    expr   := term (('+'|'-') term)*
    term   := factor (('*')? factor)*        -- juxtaposition multiplies
    factor := scalar | var | var "'" | "tr" "(" expr ")" | "(" expr ")"
              | factor "^" uint
    var    := ("x"|"y") uint ( "_" uint )?   -- y slots may carry a coordinate
    scalar := decimal | decimal "i" | "i"    -- rationals as a/b also accepted

The canonical printer emits the same grammar deterministically, and
parse(print(P)) == P for every polynomial P.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rational import QC
from .trace_poly import TracePolynomial, x, y


class ParseError(ValueError):
    """Syntax error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<var>[xy]\d+(?:_\d+)?)
  | (?P<tr>tr\b)
  | (?P<number>\d+(?:/\d+|\.\d+)?i?)
  | (?P<imag>i\b)
  | (?P<op>[-+*^()'])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _scalar_value(text: str) -> QC:
    imag = text.endswith("i")
    if imag:
        text = text[:-1] or "1"
    if "/" in text:
        num, den = text.split("/")
        value = Fraction(int(num), int(den))
    elif "." in text:
        value = Fraction(text)
    else:
        value = Fraction(int(text))
    return QC(0, value) if imag else QC(value, 0)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r}", pos)

    def parse_expr(self) -> TracePolynomial:
        sign = 1
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            sign = -1 if text == "-" else 1
        result = self.parse_term().scale(sign)
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                term = self.parse_term()
                result = result + (term if text == "+" else -term)
            else:
                return result

    def parse_term(self) -> TracePolynomial:
        result = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.next()
                result = result * self.parse_factor()
            elif kind in ("var", "tr", "number", "imag") or (
                kind == "op" and text == "("
            ):
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> TracePolynomial:
        kind, text, pos = self.next()
        if kind == "number":
            result = TracePolynomial.constant(_scalar_value(text))
        elif kind == "imag":
            result = TracePolynomial.constant(QC(0, 1))
        elif kind == "var":
            result = self._parse_variable(text, pos)
        elif kind == "tr":
            self.expect("(")
            result = self.parse_expr().tr()
            self.expect(")")
        elif kind == "op" and text == "(":
            result = self.parse_expr()
            self.expect(")")
        else:
            raise ParseError(f"unexpected token {text!r}", pos)
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "^":
                self.next()
                kind, text, pos = self.next()
                if kind != "number" or not text.isdigit():
                    raise ParseError("expected a nonnegative integer power", pos)
                power = int(text)
                base = result
                result = TracePolynomial.constant(1)
                for _ in range(power):  # powers expand eagerly
                    result = result * base
            else:
                return result

    def _parse_variable(self, text: str, pos: int) -> TracePolynomial:
        family = text[0]
        body = text[1:]
        if "_" in body:
            index_s, coord_s = body.split("_")
            index, coord = int(index_s), int(coord_s)
        else:
            index, coord = int(body), 1
        starred = False
        kind, nxt, _ = self.peek()
        if kind == "op" and nxt == "'":
            self.next()
            starred = True
        if index < 1 or coord < 1:
            raise ParseError(f"variable index must be positive in {text!r}", pos)
        if family == "x":
            if "_" in body:
                raise ParseError("x-variables do not carry coordinates", pos)
            return TracePolynomial.from_word([x(index, starred)])
        return TracePolynomial.from_word([y(index, coord, starred)])


def parse(text: str) -> TracePolynomial:
    """Parse ``text`` into canonical form.

    Any x-variable and slot indices are accepted; whether a slot
    polynomial is k-linear is for its consumer to check.
    """
    parser = _Parser(text)
    result = parser.parse_expr()
    kind, tok, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", pos)
    return result


# -- canonical printer ----------------------------------------------------


def _coeff_str(c: QC):
    """Return (sign, body) where sign is '+' or '-' and body may be ''
    for a unit coefficient."""
    if c.im == 0:
        sign = "-" if c.re < 0 else "+"
        mag = abs(c.re)
        return sign, "" if mag == 1 else str(mag)
    if c.re == 0:
        sign = "-" if c.im < 0 else "+"
        mag = abs(c.im)
        return sign, "i" if mag == 1 else str(mag) + "i"
    re_s = str(c.re)
    im_mag = abs(c.im)
    im_s = ("i" if im_mag == 1 else str(im_mag) + "i")
    op = "-" if c.im < 0 else "+"
    return "+", f"({re_s} {op} {im_s})"


def _letter_str(l) -> str:
    base = f"{l.family}{l.index}"
    if l.family == "y" and l.coord != 1:
        base += f"_{l.coord}"
    return base + ("'" if l.star else "")


def _word_str(word) -> str:
    return " ".join(_letter_str(l) for l in word)


def format_polynomial(P: TracePolynomial) -> str:
    """Deterministic canonical rendering of ``P``."""
    terms = P.term_list()
    if not terms:
        return "0"
    pieces = []
    for idx, term in enumerate(terms):
        sign, coeff = _coeff_str(term.coeff)
        parts = [f"tr({_word_str(w)})" if w else "tr(1)" for w in term.traces]
        if term.outer:
            parts.append(_word_str(term.outer))
        if coeff:
            parts.insert(0, coeff)
        if not parts:
            parts = ["1"]
        body = " ".join(parts)
        if idx == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)
