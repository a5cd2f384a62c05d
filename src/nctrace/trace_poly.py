"""Symbolic trace *-polynomials.

A trace *-polynomial is a finite sum of terms

    coeff * tr(w_1) * ... * tr(w_l) * w_0

where each ``w`` is a word in noncommuting letters.  Letters are base
indeterminates ``x_i`` (possibly starred) or linear-slot indeterminates
``y_{j,l}`` used to represent multilinear forms.  The abstract trace is
tracial, so each trace word is stored as its lexicographically minimal
cyclic rotation; terms are keyed by their (sorted traces, outer word) pair.
The :class:`TracePolynomial` constructor is the one place that builds this
canonical form; every symbolic operation here yields raw terms and hands
them to it.  Equality of polynomials is therefore equality of canonical
forms.

Coefficients are exact complex rationals (:class:`nctrace.rational.QC`).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .rational import QC


class Letter(NamedTuple):
    """One symbol in a word: x_i, x_i*, y_{j,l} or y_{j,l}*.

    ``family`` is "x" or "y".  For x-letters ``index`` is the variable index
    and ``coord`` is 0; for y-letters ``index`` is the slot and ``coord``
    the coordinate within the slot (1 when the slot is scalar).
    """

    family: str
    index: int
    coord: int
    star: bool

    def starred(self) -> "Letter":
        return self._replace(star=not self.star)


def x(i: int, star: bool = False) -> Letter:
    if i < 1:
        raise ValueError("x-variable index must be >= 1")
    return Letter("x", i, 0, star)


def y(slot: int, coord: int = 1, star: bool = False) -> Letter:
    if slot < 1 or coord < 1:
        raise ValueError("slot and coordinate must be >= 1")
    return Letter("y", slot, coord, star)


Word = tuple  # tuple[Letter, ...]


def canonical_rotation(word: Sequence[Letter]) -> Word:
    """Lexicographically minimal cyclic rotation of ``word`` (traciality)."""
    w = tuple(word)
    if len(w) <= 1:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def star_word(word: Sequence[Letter]) -> Word:
    """Adjoint of a word: reverse and star every letter."""
    return tuple(l.starred() for l in reversed(word))


class TPTerm(NamedTuple):
    """One canonical term: coeff * prod of trace factors * outer word."""

    coeff: QC
    traces: tuple  # sorted tuple of canonical Words
    outer: Word


class LinearityError(ValueError):
    """A slot-linearity requirement is violated."""


class TracePolynomial:
    """Canonical-form trace *-polynomial.

    Immutable.  The constructor takes an iterable of raw
    ``((traces, outer), coeff)`` pairs and is the only canonicaliser: it
    rotates each trace word to its canonical form, sorts the trace factors,
    sums the coefficients of equal keys and drops zeros.  Every operation
    below just yields raw pairs.  ``terms`` maps (traces, outer) keys to
    nonzero QC coefficients; two polynomials are equal iff their canonical
    representations are identical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        canon = {}
        for (traces, outer), coeff in terms:
            key = (
                tuple(sorted(canonical_rotation(w) for w in traces)),
                tuple(outer),
            )
            coeff = QC.from_value(coeff)
            acc = canon.get(key)
            canon[key] = coeff if acc is None else acc + coeff
        canon = {key: c for key, c in canon.items() if not c.is_zero()}
        object.__setattr__(self, "_terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("TracePolynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "TracePolynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "TracePolynomial":
        return cls([(((), ()), c)])

    @classmethod
    def from_word(cls, word: Iterable[Letter], coeff=1) -> "TracePolynomial":
        return cls([(((), tuple(word)), coeff)])

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def term_list(self) -> list[TPTerm]:
        return [
            TPTerm(c, traces, outer)
            for (traces, outer), c in sorted(self._terms.items())
        ]

    def is_zero(self) -> bool:
        return not self._terms

    def n_vars(self) -> int:
        """Largest x-variable index appearing (0 for constants)."""
        n = 0
        for traces, outer in self._terms:
            for word in (*traces, outer):
                for l in word:
                    if l.family == "x":
                        n = max(n, l.index)
        return n

    def slots_used(self) -> dict:
        """Map slot index -> largest coordinate appearing."""
        d: dict[int, int] = {}
        for traces, outer in self._terms:
            for word in (*traces, outer):
                for l in word:
                    if l.family == "y":
                        d[l.index] = max(d.get(l.index, 0), l.coord)
        return d

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TracePolynomial):
            other = TracePolynomial.constant(other)
        return TracePolynomial([*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return TracePolynomial.constant(other) - self

    def __neg__(self):
        return TracePolynomial((key, -c) for key, c in self._terms.items())

    def scale(self, c) -> "TracePolynomial":
        c = QC.from_value(c)
        return TracePolynomial(
            (key, coeff * c) for key, coeff in self._terms.items()
        )

    def __mul__(self, other):
        if not isinstance(other, TracePolynomial):
            return self.scale(other)
        return TracePolynomial(
            ((tr1 + tr2, o1 + o2), c1 * c2)
            for (tr1, o1), c1 in self._terms.items()
            for (tr2, o2), c2 in other._terms.items()
        )

    def __rmul__(self, other):
        # scalars commute; trace polynomials use __mul__ directly
        return self.scale(other)

    def star(self) -> "TracePolynomial":
        """Adjoint: conjugate coefficients, star trace factors, reverse-star
        the outer word."""
        return TracePolynomial(
            ((tuple(star_word(w) for w in traces), star_word(outer)),
             c.conjugate())
            for (traces, outer), c in self._terms.items()
        )

    def tr(self) -> "TracePolynomial":
        """Apply the abstract trace: the outer word moves into a trace
        factor; tr(1) = 1."""
        return TracePolynomial(
            ((traces + (outer,) if outer else traces, ()), c)
            for (traces, outer), c in self._terms.items()
        )

    def __eq__(self, other):
        if isinstance(other, str):
            return NotImplemented  # as QC.__eq__: a str hashes as itself
        if not isinstance(other, TracePolynomial):
            try:
                other = TracePolynomial.constant(other)
            except (TypeError, ValueError, OverflowError):
                return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._terms.keys() <= {((), ())}:
            # zero or a constant: hash like the scalar it equals
            return hash(self._terms.get(((), ()), 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        from .parsing import format_polynomial

        return f"TracePolynomial({format_polynomial(self)!r})"

    def __str__(self):
        from .parsing import format_polynomial

        return format_polynomial(self)


def hermitian_form(P: TracePolynomial) -> TracePolynomial:
    """``P`` with every starred letter replaced by its plain letter: the
    polynomial ``P`` equals when every letter is bound to a Hermitian
    matrix."""
    def plain(word):
        return tuple(l._replace(star=False) for l in word)
    return TracePolynomial(
        ((tuple(plain(w) for w in traces), plain(outer)), c)
        for (traces, outer), c in P._terms.items()
    )


def is_self_adjoint(P: TracePolynomial) -> bool:
    """Whether ``P`` evaluates to a Hermitian matrix whenever its letters
    are bound to Hermitian matrices: P equals its star once x' = x (and
    y' = y).  ``x1^4`` is; ``x1 + i x1^2`` is not."""
    return hermitian_form(P) == hermitian_form(P.star())


# -- derivatives ---------------------------------------------------------


def _partial_terms(P: TracePolynomial, i: int, slot: int, coord: int):
    """Raw terms of the Leibniz derivative of ``P`` with respect to x_i."""
    for (traces, outer), c in P._terms.items():
        for ti, word in enumerate(traces):
            for pos, l in enumerate(word):
                if l.family == "x" and l.index == i:
                    new_word = word[:pos] + (y(slot, coord, l.star),) + word[pos + 1:]
                    yield (traces[:ti] + (new_word,) + traces[ti + 1:], outer), c
        for pos, l in enumerate(outer):
            if l.family == "x" and l.index == i:
                new_outer = outer[:pos] + (y(slot, coord, l.star),) + outer[pos + 1:]
                yield (traces, new_outer), c


def derive(P: TracePolynomial, i: int) -> TracePolynomial:
    """Leibniz derivative with respect to x_i.

    Every occurrence of x_i or x_i* (in trace factors and in the outer
    word) is replaced, one at a time, by the fresh slot letter y^eps; the
    resulting polynomials are summed.  The fresh slot is one past the
    largest slot of P, with coordinate 1; the output is real 1-linear in it.
    """
    if i < 1:
        raise ValueError("variable index out of range")
    slot = max(P.slots_used(), default=0) + 1
    return TracePolynomial(_partial_terms(P, i, slot, 1))


def derive_k(P: TracePolynomial, k: int) -> TracePolynomial:
    """Algebraic k-th total derivative.

    Sums the iterated partials over all index tuples (x_1, ..., x_m, with m
    the largest index in P), with the j-th application writing into slot j
    with the coordinate of the differentiated variable.
    """
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    if P.slots_used():
        raise LinearityError("derive_k input must not contain slot letters")
    result = P
    for j in range(1, k + 1):
        result = TracePolynomial(
            term for i in range(1, P.n_vars() + 1)
            for term in _partial_terms(result, i, j, i)
        )
    return result


# -- linearity -----------------------------------------------------------


def classify_linearity(P: TracePolynomial, k: int | None = None) -> str:
    """Classify slot-linearity: "not-linear", "real-k-linear" or
    "complex-k-linear".

    Real k-linear: each slot contributes exactly one letter (starred or
    not) per term.  Complex k-linear additionally forbids starred slot
    letters.
    """
    if k is None:
        k = max(P.slots_used(), default=0)
    if k == 0:
        return "not-linear"
    saw_star = False
    for (traces, outer) in P._terms:
        counts = {j: 0 for j in range(1, k + 1)}
        for word in (*traces, outer):
            for l in word:
                if l.family == "y":
                    if l.index not in counts:
                        return "not-linear"
                    counts[l.index] += 1
                    saw_star = saw_star or l.star
        if any(c != 1 for c in counts.values()):
            return "not-linear"
    return "real-%d-linear" % k if saw_star else "complex-%d-linear" % k


# -- gamma contraction ---------------------------------------------------


class ContractionModel(NamedTuple):
    """Rewrite model for the Ito correction: finite matrix dimension or the
    free (large-n) limit."""

    kind: str  # "matrix" or "free"
    n: int = 0

    @classmethod
    def matrix(cls, n: int) -> "ContractionModel":
        if n < 1:
            raise ValueError("matrix dimension must be >= 1")
        return cls("matrix", n)

    @classmethod
    def free(cls) -> "ContractionModel":
        return cls("free", 0)


def _slot_location(traces, outer, slot):
    """Return ("outer", pos) or ("trace", ti, pos) of the unique slot letter."""
    hits = []
    for ti, word in enumerate(traces):
        for pos, l in enumerate(word):
            if l.family == "y" and l.index == slot:
                hits.append(("trace", ti, pos, l))
    for pos, l in enumerate(outer):
        if l.family == "y" and l.index == slot:
            hits.append(("outer", pos, None, l))
    if len(hits) != 1:
        raise LinearityError(
            f"slot {slot} must appear exactly once per term, found {len(hits)}"
        )
    return hits[0]


def gamma_contract(P: TracePolynomial, model: ContractionModel) -> TracePolynomial:
    """Contract a real-2-linear polynomial into the QC integrand in x only.

    The two slot letters of each term are removed and the surrounding
    words rewired according to where the slots sit: both in the outer word
    inserts a trace of the between-word; both in one trace factor splits
    it; cross-trace and trace/outer patterns pick up an n^-2 factor in the
    matrix model and vanish in the free model.  Slot letters must be
    unstarred (self-adjoint driver).  Each variable x_i has its own
    independent driver, which ``derive_k`` writes as the slot coordinate
    i, so a term whose two slot letters differ in coordinate contracts to
    0: the Ito correction of x1 x2 is 0.
    """
    if classify_linearity(P, 2) == "not-linear":
        raise LinearityError("gamma_contract input must be 2-linear in (y1, y2)")
    inv_n2 = None
    if model.kind == "matrix":
        inv_n2 = QC(1, 0) / QC(model.n * model.n, 0)
    elif model.kind != "free":
        raise ValueError(f"unknown contraction model {model.kind!r}")

    def terms():
        for (traces, outer), c in P._terms.items():
            loc1 = _slot_location(traces, outer, 1)
            loc2 = _slot_location(traces, outer, 2)
            if loc1[3].star or loc2[3].star:
                raise LinearityError(
                    "starred slot letters are not allowed (driver is self-adjoint)"
                )
            if loc1[3].coord != loc2[3].coord:
                continue  # independent drivers have no covariation
            if loc1[0] == "outer" and loc2[0] == "outer":
                p, q = sorted((loc1[1], loc2[1]))
                u, v, w = outer[:p], outer[p + 1:q], outer[q + 1:]
                yield (traces if not v else traces + (v,), u + w), c
            elif loc1[0] == "trace" and loc2[0] == "trace" and loc1[1] == loc2[1]:
                word = traces[loc1[1]]
                p, q = sorted((loc1[2], loc2[2]))
                v = word[p + 1:q]
                u = word[q + 1:] + word[:p]
                rest = traces[:loc1[1]] + traces[loc1[1] + 1:]
                yield (rest + tuple(s for s in (u, v) if s), outer), c
            elif model.kind == "free":
                # the cross patterns below carry n^-2 and vanish in the limit
                continue
            elif loc1[0] == "trace" and loc2[0] == "trace":
                (_, t1, p1, _), (_, t2, p2, _) = loc1, loc2
                w1, w2 = traces[t1], traces[t2]
                uv = w1[p1 + 1:] + w1[:p1] + w2[p2 + 1:] + w2[:p2]
                rest = tuple(
                    w for ti, w in enumerate(traces) if ti not in (t1, t2)
                )
                yield (rest + ((uv,) if uv else ()), outer), c * inv_n2
            else:
                # one slot in a trace factor, the other in the outer word
                tloc = loc1 if loc1[0] == "trace" else loc2
                oloc = loc2 if loc1[0] == "trace" else loc1
                _, ti, p1, _ = tloc
                word = traces[ti]
                u = word[p1 + 1:] + word[:p1]
                p = oloc[1]
                rest = traces[:ti] + traces[ti + 1:]
                yield (rest, outer[:p] + u + outer[p + 1:]), c * inv_n2

    return TracePolynomial(terms())


def drop_martingale_null(P: TracePolynomial) -> TracePolynomial:
    """Remove 1-linear terms whose slot letter sits inside a trace factor.

    Those terms integrate to zero in expectation against any martingale;
    the remaining terms are returned unchanged.
    """
    if classify_linearity(P, 1) == "not-linear":
        raise LinearityError("drop_martingale_null input must be 1-linear")
    return TracePolynomial(
        (key, c) for key, c in P._terms.items()
        if _slot_location(*key, 1)[0] == "outer"
    )


# -- symbol composition (substitution of 1-linear symbols) ----------------


def relabel_slot(P: TracePolynomial, old: int, new: int) -> TracePolynomial:
    """Rename slot ``old`` to ``new`` in every term."""
    def fix(word):
        return tuple(
            l._replace(index=new) if l.family == "y" and l.index == old else l
            for l in word
        )
    return TracePolynomial(
        ((tuple(fix(w) for w in traces), fix(outer)), c)
        for (traces, outer), c in P._terms.items()
    )


def compose_linear(H: TracePolynomial, K: TracePolynomial,
                   slot: int = 1) -> TracePolynomial:
    """Substitute the 1-linear symbol K into slot ``slot`` of H, yielding
    the symbol of y -> H[..., K[y], ...].

    K must be 1-linear in slot 1; its slot letters are renamed to ``slot``
    in the result, so other slots of H pass through untouched.  A starred
    slot letter in H receives the adjoint of K.
    """
    if classify_linearity(K, 1) == "not-linear":
        raise LinearityError("K must be 1-linear")
    # K has only slot-1 letters and every term of H loses its one ``slot``
    # letter, so K's letters can take that label before the splice
    K = relabel_slot(K, 1, slot)
    K_star = K.star()

    def terms():
        for (traces, outer), c in H._terms.items():
            loc = _slot_location(traces, outer, slot)
            source = K_star if loc[3].star else K
            for (ktr, kout), kc in source._terms.items():
                if loc[0] == "outer":
                    p = loc[1]
                    yield (traces + ktr, outer[:p] + kout + outer[p + 1:]), c * kc
                else:
                    _, ti, pos, _ = loc
                    word = traces[ti]
                    new_word = word[:pos] + kout + word[pos + 1:]
                    new_traces = traces[:ti] + (new_word,) + traces[ti + 1:] + ktr
                    yield (new_traces, outer), c * kc

    return TracePolynomial(terms())
