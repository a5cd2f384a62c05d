"""Exact complex-rational scalars for the symbolic layer.

Symbolic identities are decided by canonical-form equality, so coefficients
must never round.  A coefficient is a pair of ``fractions.Fraction`` values
(real and imaginary part).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from numbers import Rational


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (Rational, str, float)):
        # a float converts to the exact binary value it holds
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class QC:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    @classmethod
    def from_value(cls, v) -> "QC":
        if isinstance(v, QC):
            return v
        if isinstance(v, complex):
            return cls(_as_fraction(v.real), _as_fraction(v.imag))
        return cls(v, 0)

    def __add__(self, other):
        other = QC.from_value(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QC.from_value(other)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QC.from_value(other) - self

    def __mul__(self, other):
        other = QC.from_value(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QC.from_value(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero coefficient")
        return QC(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return QC(-self.re, -self.im)

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, str):
            # "1/2" builds a QC, but a str hashes as itself, so equal
            # objects would hash unequally
            return NotImplemented
        try:
            other = QC.from_value(other)
        except (TypeError, ValueError, OverflowError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # hash like the Python number this equals; for im != 0 that is
        # CPython's complex hash, wrapped to a signed machine word
        if self.im == 0:
            return hash(self.re)
        bits = sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % (1 << bits)
        if h >= 1 << (bits - 1):
            h -= 1 << bits
        return -2 if h == -1 else h

    def __complex__(self):
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise ValueError(f"the coefficient {self.re} + {self.im}i lies "
                             "outside the float range") from None

    def __repr__(self):
        return f"QC({self.re}, {self.im})"
