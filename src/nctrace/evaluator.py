"""Evaluation of trace *-polynomials on tuples of matrices.

Evaluation is a *-homomorphism: words become matrix products, trace
factors become tr_n scalars, and k-linear slot letters receive bound
matrices (the adjoint for starred slot letters).  All operations
broadcast over leading batch axes, so an ensemble of paths evaluates in
one call; each trace factor reduces to one tr_n per leading index, never
averaged across paths or times.

Every evaluation runs one compiled plan (``compile_plan``, cached by its
argument list).  A plan computes one or more sinks, each a sum of
polynomials, on one shared register file: it computes each letter power
and each shared word prefix once, evaluates each distinct trace factor
once as an n^2 contraction tr_n(AB) rather than a product, adds letterless
terms on the diagonal only, skips the multiply for coefficient 1, and
accumulates every term in place into its sink's buffer, dropping each
intermediate after its last use.  Results are new arrays, never views of
the bindings; products and outputs are made with ``buffers.empty_like``,
so within a blocked study they reuse recycled buffers, and they are laid
out as the window (or the first binding of the results' shape): a study's
time-major window gives time-major registers, outputs and step terms.
``eval_poly`` and ``eval_multilinear`` run a one-sink plan.

``eval_step_block`` serves the Ito studies with one two-sink plan per
block: P at the L points of a path window and step[dX] + timed * dt at its
L - 1 left endpoints.  The plan has one time axis: x1 is bound to the L
points, and the increment and dt are padded with one zero step at the end,
so x1^2 and each trace factor are made once per grid time for P, dP and
the correction together, and the padded step's terms are dropped at the
end.  The step sink is compiled first, so P's output is made last: for
x1^4 no X^4 is held through the step products, which keeps a study one
block buffer smaller.  Evaluation is a *-homomorphism, which the plan
uses: when the bindings equal their adjoints bitwise (as every Hermitian
Brownian path does) and the polynomials of a sink are self-adjoint on
Hermitian letters (``trace_poly.is_self_adjoint``), each term w comes
with its adjoint w*.
The blocked studies pass that verdict for their walks' windows, which are
Hermitian by construction; other callers have the window compared with its
adjoint.
Such a sink takes one product per pair {w, w*}: the plan sums one term of
each pair, plus half of each term with w = w*, into a half H and returns
H + H^H.  Any other sink (a polynomial that is not self-adjoint,
non-Hermitian bindings, or no pair to share) keeps the unpaired terms.

A Hermitian plan rewrites each sum three ways more.  The real
contractions and the pairing of V hold only when every letter is bound to
a Hermitian matrix; the other two hold on any bindings but move the
rounding, so they too are kept to Hermitian plans, and ``eval_poly``,
``eval_multilinear`` and every non-Hermitian window keep their bits.
- Left factoring: terms whose words share a left prefix u become one
  product u V, where that takes fewer products (``_factor``).
  A word equal to u adds 1 to V, on its diagonal; a self-adjoint V is
  paired as a sink is, V = W + W^H from one product per pair.
- Scalars summed first: the terms on one register sum their scalar
  arrays before one scale-and-add.
- Real trace contractions: a leaf or a power of one letter is Hermitian,
  and tr_n(ab) of two such registers is real, the dot of their float64
  views divided by n; where an operand's matrices are not C-ordered (a
  transposed window), which would make that view a copy, it is the real
  part of the complex contraction.
For x1^4 the step sink's half is X^2 (C + C^H + 3/2 dt I) + ... with
C = X dX, so with X^2 and X^4 = X^2 X^2 the plan takes 4 products per grid
time, where unpaired terms took 9 and its three separate plans 11.  For
tr(x1^2) x1 the step sink is tr(X^2) dX + (2 tr(X dX) + 129/128 dt) X,
every scalar real, so its blocks are Hermitian bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import buffers
from .matrix_alg import adjoint
from .trace_poly import TracePolynomial, hermitian_form, is_self_adjoint


class EvalError(ValueError):
    """Unbound variable or shape mismatch during evaluation."""


@dataclass(frozen=True)
class EvalContext:
    """Bindings of x-variables to matrices of one dimension.

    Bindings may carry leading batch axes; trace factors reduce to one
    tr_n scalar per leading index.
    """

    n: int
    bindings: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for i, a in self.bindings.items():
            a = np.asarray(a)
            if a.shape[-2:] != (self.n, self.n):
                raise EvalError(
                    f"binding for x{i} has shape {a.shape}, expected "
                    f"trailing ({self.n}, {self.n})"
                )

    def lookup(self, index: int) -> np.ndarray:
        try:
            return np.asarray(self.bindings[index], dtype=complex)
        except KeyError:
            raise EvalError(f"variable x{index} is not bound") from None


def _slot_matrix(letter, y_bindings, n):
    if y_bindings is None or letter.index > len(y_bindings):
        raise EvalError(f"slot y{letter.index} is not bound")
    bound = y_bindings[letter.index - 1]
    if isinstance(bound, (list, tuple)):
        if letter.coord > len(bound):
            raise EvalError(
                f"slot y{letter.index} has no coordinate {letter.coord}"
            )
        m = np.asarray(bound[letter.coord - 1], dtype=complex)
    else:
        if letter.coord != 1:
            raise EvalError(
                f"slot y{letter.index} is scalar but coordinate "
                f"{letter.coord} was requested"
            )
        m = np.asarray(bound, dtype=complex)
    if m.shape[-2:] != (n, n):
        raise EvalError(
            f"slot y{letter.index} binding has shape {m.shape}, expected "
            f"trailing ({n}, {n})"
        )
    return m


# -- compiled plans -------------------------------------------------------
#
# A plan is a straight line of steps over a register file.  Each step is
# (op, dest, args, frees): it writes register ``dest`` and then clears the
# registers in ``frees``, whose last use it was.  Every register and every
# sink lives on the same points (a step plan's window pads its increment
# with a zero step, see ``eval_step_block``).  A term's scalar s is the sum
# over its ``parts`` (coeff, scalars) of coeff * prod(scalars); a lone
# part's coeff is None for 1, and s is None for 1.
#   "leaf"  args = (letter,)              the bound matrix, adjoint if starred
#   "dt"    args = ()                     the step lengths
#   "mul"   args = (a, b)                 a @ b
#   "trace" args = (a, b, real)           tr_n(a b) by an n^2 contraction,
#                                         the real dot of the float views
#                                         when ``real`` (a, b Hermitian);
#                                         b is None for tr_n(a)
#   "term"  dest = sink k,                sink k += s * a; a is None for the
#           args = (parts, a, half)       identity (added on the diagonal);
#                                         a ``half`` term goes to the sink's
#                                         half H instead, and a sink with a
#                                         half ends as H + H^H
#   "sum"   args = (k, items, half)       W = the sum of s * a over items
#                                         (parts, a), shaped as sink k; W +
#                                         W^H when ``half``, else W


@dataclass(frozen=True)
class Plan:
    """Trace polynomials compiled into straight-line steps writing
    ``sinks`` results."""

    steps: tuple
    registers: int
    sinks: int

    @property
    def matmuls(self) -> int:
        return sum(op == "mul" for op, *_ in self.steps)


class _Factored:
    """The product u V of the word ``prefix`` u and the sum V of
    ``pieces``, compiled as a sink's pieces are."""

    def __init__(self, prefix: tuple, pieces: tuple):
        self.prefix, self.pieces = prefix, pieces


def _reads(parts, a):
    return tuple(r for _, scalars in parts for r in scalars) + (
        () if a is None else (a,))


class _Compiler:
    def __init__(self, hermitian: bool):
        self.hermitian = hermitian
        self.steps: list = []  # (op, dest, args, registers read)
        self.nodes: dict = {}  # (op, args) -> register
        self.herm: set = set()  # registers known to be Hermitian

    def _node(self, op, args, reads=()):
        key = (op, args)
        reg = self.nodes.get(key)
        if reg is None:
            reg = self.nodes[key] = len(self.nodes)
            self.steps.append((op, reg, args, reads))
        return reg

    def _mul(self, a, b):
        return self._node("mul", (a, b), (a, b))

    def power(self, letter, k):
        """letter^k, each power computed once as a product of two halves;
        in a Hermitian plan the leaves and powers are Hermitian."""
        if k == 1:
            reg = self._node("leaf", (letter,))
        else:
            reg = self._mul(self.power(letter, k - k // 2),
                            self.power(letter, k // 2))
        if self.hermitian:
            self.herm.add(reg)
        return reg

    def _split(self, word):
        """word = head tail, where tail is the last run of one letter (the
        two halves of the power when the word is a single run)."""
        k = 1
        while k < len(word) and word[-k - 1] == word[-1]:
            k += 1
        if k == len(word):
            return self.power(word[0], k - k // 2), self.power(word[0], k // 2)
        return self.word(word[:-k]), self.power(word[-1], k)

    def word(self, word):
        """Product of a non-empty word; shared prefixes are computed once."""
        if len(set(word)) == 1:
            return self.power(word[0], len(word))
        return self._mul(*self._split(word))

    def trace(self, word):
        a, b = (self.word(word), None) if len(word) == 1 else \
            self._split(word)
        reads = (a,) if b is None else (a, b)
        return self._node("trace", (a, b, set(reads) <= self.herm), reads)

    def _scalars(self, coeff, traces, timed):
        c = complex(coeff)
        c = None if c == 1 else (c.real if c.imag == 0 else c)
        scalars = tuple(self.trace(w) for w in traces if w)  # tr(1) = 1
        if timed:
            scalars += (self._node("dt", ()),)
        return c, scalars

    def _items(self, k, terms):
        """Yield (parts, a) for ``terms``, pairs of (coeff, traces, outer,
        timed), each item's registers made just before it.  In a Hermitian
        plan the terms on one register are one item, so their scalars are
        summed before one scale-and-add."""
        groups: dict = {}
        for i, (coeff, traces, outer, timed) in enumerate(terms):
            key = outer if self.hermitian else i
            groups.setdefault(key, (outer, []))[1].append(
                (coeff, traces, timed))
        for outer, parts in groups.values():
            parts = tuple(self._scalars(*part) for part in parts)
            if len(parts) > 1:
                parts = tuple((1.0 if c is None else c, scalars)
                              for c, scalars in parts)
            if isinstance(outer, _Factored):
                a = self._mul(self.word(outer.prefix),
                              self.sum(k, outer.pieces))
            else:
                a = self.word(outer) if outer else None
            yield parts, a

    def sink(self, k, pieces):
        """Sink k += the sum of ``pieces``, one term step at a time."""
        terms, half = _sum_terms(pieces, self.hermitian)
        for parts, a in self._items(k, terms):
            self.steps.append(("term", k, (parts, a, half), _reads(parts, a)))

    def sum(self, k, pieces):
        """A register holding the sum of ``pieces``, made in one step."""
        terms, half = _sum_terms(pieces, self.hermitian)
        items = tuple(self._items(k, terms))
        if not half and len(items) == 1 and items[0][0] == ((None, ()),) \
                and items[0][1] is not None:
            return items[0][1]  # a register as it is
        reg = self.nodes[("sum", len(self.nodes))] = len(self.nodes)
        self.steps.append(("sum", reg, (k, items, half),
                           tuple(r for item in items for r in _reads(*item))))
        return reg

    def finish(self, sinks) -> Plan:
        # walking backwards, a read not seen yet is the register's last use
        seen: set = set()
        steps = []
        for op, dest, args, reads in reversed(self.steps):
            steps.append((op, dest, args, tuple(sorted(set(reads) - seen))))
            seen.update(reads)
        return Plan(tuple(reversed(steps)), len(self.nodes), sinks)


def _adjoint_key(traces, outer):
    """Canonical key of the adjoint of a star-free term on Hermitian
    letters: every word reversed."""
    (key,) = TracePolynomial(
        [((tuple(w[::-1] for w in traces), outer[::-1]), 1)]).terms
    return key


def _paired_terms(pieces, hermitian):
    """The (coeff, traces, outer, timed) terms one sum computes from its
    ``pieces``, pairs of (polynomial, timed), and whether they are a half.

    On Hermitian bindings, pieces that are all self-adjoint hold each term
    w together with its adjoint w*, whose scalar is the conjugate of w's.
    Then one term of each pair {w, w*} goes to the half H with its
    coefficient and each term w = w* with half of it, so H + H^H is the
    sum at one product per pair.  A sum without a pair is left unpaired:
    there the half would only cost elementwise passes."""
    if hermitian and all(is_self_adjoint(p) for p, _ in pieces):
        terms = [(t, timed) for p, timed in pieces
                 for t in hermitian_form(p).term_list()]
        adjoints = [_adjoint_key(t.traces, t.outer) for t, _ in terms]
        if any(key != (t.traces, t.outer)
               for key, (t, _) in zip(adjoints, terms)):
            return [(t.coeff if (t.traces, t.outer) < key else t.coeff / 2,
                     t.traces, t.outer, timed)
                    for key, (t, timed) in zip(adjoints, terms)
                    if (t.traces, t.outer) <= key], True
    return [(*t, timed) for p, timed in pieces for t in p.term_list()], False


def _products(terms) -> int:
    """The products a Hermitian plan takes to sum ``terms`` on its own."""
    comp = _Compiler(True)
    for _ in comp._items(0, terms):
        pass
    return comp.finish(1).matmuls


def _factor(terms):
    """Left factoring: the terms whose words start with one word u,
    longest u first, become one term u V where that takes fewer products;
    V sums their rest, a word u itself adding 1."""
    words = [outer for _, _, outer, _ in terms
             if not isinstance(outer, _Factored)]
    prefixes = sorted(dict.fromkeys(
        w[:j] for w in words for j in range(len(w) - 1, 0, -1)),
        key=len, reverse=True)
    products = _products(terms)
    for u in prefixes:
        group = [i for i, (_, _, outer, _) in enumerate(terms)
                 if not isinstance(outer, _Factored) and outer[:len(u)] == u]
        pieces = tuple(
            (TracePolynomial(((traces, outer[len(u):]), coeff)
                             for coeff, traces, outer, t in
                             (terms[i] for i in group) if t == timed),
             timed) for timed in (False, True))
        factored = [t for i, t in enumerate(terms) if i not in group[1:]]
        factored[group[0]] = (1, (), _Factored(u, pieces), False)
        if _products(factored) < products:
            return _factor(factored)
    return terms


@functools.lru_cache(maxsize=1024)
def _sum_terms(pieces, hermitian):
    """The terms of the sum of ``pieces`` and whether they are a half
    (``_paired_terms``), left-factored in a Hermitian plan."""
    terms, half = _paired_terms(pieces, hermitian)
    return tuple(_factor(terms) if hermitian else terms), half


@functools.lru_cache(maxsize=512)
def compile_plan(*sinks, hermitian: bool = False) -> Plan:
    """One plan computing every sink, compiled once per argument list.

    A sink is a tuple of (polynomial, timed) pieces and computes their sum,
    a timed piece multiplied by the step lengths dt; all sinks share their
    registers.  ``hermitian`` says the bindings are Hermitian, which lets
    self-adjoint sums pair their terms with their adjoints
    (``_paired_terms``), factor out shared left prefixes
    (``_factor``), sum the scalars of terms on one register
    first, and contract traces of Hermitian registers as real dots."""
    comp = _Compiler(hermitian)
    for k, pieces in enumerate(sinks):
        comp.sink(k, pieces)
    return comp.finish(len(sinks))


def _leaf(letter, ctx: EvalContext, y_bindings) -> np.ndarray:
    if letter.family == "x":
        m = ctx.lookup(letter.index)
    else:
        m = _slot_matrix(letter, y_bindings, ctx.n)
    return adjoint(m) if letter.star else m


def _results_like(ctx: EvalContext, y_bindings) -> np.ndarray:
    """An array of the results' shape and layout (``buffers.empty_like``):
    the first binding of that shape, or a C-ordered stand-in of no memory.
    Results keep the batch shape of all bindings, x-variables and slots
    alike, whichever letters the polynomial uses."""
    mats = [np.asarray(m) for m in ctx.bindings.values()]
    for bound in y_bindings or ():
        mats.extend(map(np.asarray, bound if isinstance(bound, (list, tuple))
                        else [bound]))
    shape = np.broadcast_shapes(*(m.shape[:-2] for m in mats)) + (
        ctx.n, ctx.n)
    return next((m for m in mats if m.shape == shape),
                np.broadcast_to(np.zeros((), complex), shape))


def _add(out, m, s, mine, like):
    """out + s * m, out None for 0 and m None for the identity (added on
    the diagonal), shaped and laid out as ``like``; ``mine`` says m may be
    overwritten (a product made here, at its last use), so it is scaled in
    place or becomes the output."""
    if m is None:
        if out is None:
            out = buffers.zeros_like(like)
        diag = np.einsum("...ii->...i", out)  # a writable view
        diag += 1 if s is None else np.asarray(s)[..., None]
        return out
    if s is not None:
        s = np.asarray(s)[..., None, None]
        scaled = np.broadcast_shapes(s.shape, m.shape)
        if mine and scaled == m.shape:
            m *= s
        else:
            m = np.multiply(m, s, out=buffers.empty_like(like, scaled))
            mine = True
    if out is not None:
        out += m
        return out
    if mine and m.shape == like.shape:
        return m
    out = buffers.empty_like(like)
    np.copyto(out, m)
    return out


def _product(a, b, like):
    # a function, so that no local name keeps an operand past its last use
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return np.matmul(a, b, out=buffers.empty_like(
        like, shape + (a.shape[-2], b.shape[-1])))


def _plus_adjoint(h):
    """h + h^H, a new array laid out as h."""
    out = np.conjugate(np.swapaxes(h, -1, -2), out=buffers.empty_like(h))
    out += h
    return out


def _floats(m):
    """The float64 entries of each matrix of ``m`` in one vector, a view of
    m; None when its (n, n) matrices are not each C-ordered (a transposed
    window's are not), where the vector would be a copy."""
    if m.shape[-1] > 1 and m.strides[-2:] != (m.shape[-1] * m.itemsize,
                                               m.itemsize):
        return None
    return m.reshape(m.shape[:-2] + (-1,)).view(np.float64)


def _real_trace(a, b):
    """n tr_n(a b) of Hermitian a and b, which is real: the dot of their
    float64 views, or where one is not C-ordered the real part of the
    complex contraction, which makes no copy of it."""
    fa, fb = _floats(a), _floats(b)
    if fa is None or fb is None:
        return np.einsum("...ij,...ji->...", a, b).real
    return np.matmul(fa[..., None, :], fb[..., :, None])[..., 0, 0]


def _run(plan: Plan, leaf, like, n: int, dts=None) -> list:
    """Run ``plan``: ``leaf(letter)`` is a letter's bound matrix, ``dts``
    the step lengths, and every sink takes the shape and layout of
    ``like`` (``buffers.empty_like``), as do the products of its rank."""
    regs: list = [None] * plan.registers
    owned = [False] * plan.registers  # made here, so free to overwrite
    outs: list = [None] * plan.sinks
    halves: list = [None] * plan.sinks

    def add(out, parts, a, frees):
        s = None
        for coeff, scalars in parts:
            p = coeff
            for r in scalars:
                p = regs[r] if p is None else p * regs[r]
            s = p if s is None else s + p
        if a is None:
            return _add(out, None, s, False, like)
        return _add(out, regs[a], s, owned[a] and a in frees, like)

    def total(k, items, half, frees):
        w = None
        for parts, a in items:
            w = add(w, parts, a, frees)
        if w is None:  # its pieces cancelled
            w = buffers.zeros_like(like)
        return _plus_adjoint(w) if half else w

    for op, dest, args, frees in plan.steps:
        if op == "mul":
            regs[dest] = _product(regs[args[0]], regs[args[1]], like)
            owned[dest] = True
        elif op == "trace":
            a, b, real = args
            if b is None:
                val = np.trace(regs[a].real if real else regs[a],
                               axis1=-2, axis2=-1)
            elif real:
                val = _real_trace(regs[a], regs[b])
            else:
                val = np.einsum("...ij,...ji->...", regs[a], regs[b])
            regs[dest] = val / n
        elif op == "leaf":
            regs[dest] = leaf(args[0])
        elif op == "dt":
            regs[dest] = dts
        elif op == "sum":
            regs[dest] = total(*args, frees)
            owned[dest] = True
        else:
            parts, a, half = args
            acc = halves if half else outs
            acc[dest] = add(acc[dest], parts, a, frees)
        for r in frees:
            regs[r] = None
    for k, half in enumerate(halves):
        if half is not None:  # a paired sink sends every term to its half
            outs[k] = _plus_adjoint(half)
    return [buffers.zeros_like(like) if out is None else out for out in outs]


def _run_bound(P: TracePolynomial, ctx: EvalContext,
               y_bindings) -> np.ndarray:
    (out,) = _run(compile_plan(((P, False),)),
                  lambda letter: _leaf(letter, ctx, y_bindings),
                  _results_like(ctx, y_bindings), ctx.n)
    return out


def eval_poly(P: TracePolynomial, ctx: EvalContext) -> np.ndarray:
    """Evaluate a slot-free trace polynomial as a matrix (batched)."""
    if P.slots_used():
        raise EvalError("eval_poly input must not contain slot letters")
    return _run_bound(P, ctx, None)


def eval_multilinear(P: TracePolynomial, ctx: EvalContext,
                     y_bindings: Sequence) -> np.ndarray:
    """Evaluate a k-linear trace polynomial on k bound slot matrices.

    ``y_bindings[j-1]`` is the matrix for slot j, or a sequence of
    matrices when the slot carries coordinates.
    """
    return _run_bound(P, ctx, y_bindings)


def eval_step_block(P: TracePolynomial, step: TracePolynomial,
                    timed: TracePolynomial, window: np.ndarray,
                    dts: np.ndarray, hermitian: bool | None = None):
    """P at the points of a path window and step[dX] + timed * dt on its
    steps, from one plan.

    ``window`` is (..., L, n, n) and ``dts`` its L - 1 step lengths; P and
    ``timed`` are in x1 only, ``step`` in x1 and y1.  x1 is bound to the L
    points, y1 to the L - 1 increments window[j+1] - window[j] followed by
    one zero step, and dt to ``dts`` followed by 0, so every register of the
    plan lives on the L points; the padded last step's terms are dropped.
    ``hermitian`` says whether the window equals its adjoint bitwise, which
    lets self-adjoint sinks pair their terms; when it is None, as for any
    window not known to be Hermitian by construction, the window is
    compared with its adjoint.
    Returns (P, terms): P at each point (..., L, n, n) and the terms at
    each left endpoint (..., L - 1, n, n).
    """
    window = np.asarray(window, dtype=complex)
    if hermitian is None:
        hermitian = np.array_equal(window, adjoint(window))
    # the step sink first, so P's output is made after the step products
    plan = compile_plan(((step, False), (timed, True)), ((P, False),),
                        hermitian=bool(hermitian))

    def leaf(letter):
        if letter.family == "x":
            if letter.index != 1:
                raise EvalError(f"variable x{letter.index} is not bound")
            m = window
        elif letter.index == 1 and letter.coord == 1:
            # made here, so the register file frees it after its last use
            m = buffers.empty_like(window)
            np.subtract(window[..., 1:, :, :], window[..., :-1, :, :],
                        out=m[..., :-1, :, :])
            m[..., -1, :, :] = 0
        else:
            raise EvalError(f"slot y{letter.index} is not bound")
        return adjoint(m) if letter.star else m

    terms, p = _run(plan, leaf, window, window.shape[-1],
                    np.append(dts, 0.0))
    return p, terms[..., :-1, :, :]
