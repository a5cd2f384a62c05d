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
the bindings; products and outputs are made with ``buffers.empty``, so
within a blocked study they reuse recycled buffers.  ``eval_poly`` and
``eval_multilinear`` run a one-sink plan.

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
H + H^H.  For d(x1^4)[dX] that is A + A^H + B + B^H with A = X^3 dX and
B = X^2 dX X, and x1^4 takes 6 products per grid time where its three
separate plans took 11.  Any other sink (a polynomial that is not
self-adjoint, non-Hermitian bindings, or no pair to share) keeps the
unpaired terms.
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
# with a zero step, see ``eval_step_block``).
#   "leaf"  args = (letter,)              the bound matrix, adjoint if starred
#   "dt"    args = ()                     the step lengths
#   "mul"   args = (a, b)                 a @ b
#   "trace" args = (a, b)                 tr_n(a b) by an n^2 contraction;
#                                         b is None for tr_n(a)
#   "term"  dest = sink k,                sink k += coeff * prod(scalars) * a;
#           args = (coeff, scalars,       a is None for the identity (added on
#                   a, half)              the diagonal), coeff is None for 1;
#                                         a ``half`` term goes to the sink's
#                                         half H instead, and a sink with a
#                                         half ends as H + H^H


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


class _Compiler:
    def __init__(self):
        self.steps: list = []  # (op, dest, args, registers read)
        self.nodes: dict = {}  # (op, args) -> register

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
        """letter^k, each power computed once as a product of two halves."""
        if k == 1:
            return self._node("leaf", (letter,))
        return self._mul(self.power(letter, k - k // 2),
                         self.power(letter, k // 2))

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
        if len(word) == 1:
            return self._node("leaf", (word[0],))
        return self._mul(*self._split(word))

    def trace(self, word):
        if len(word) == 1:
            a = self.word(word)
            return self._node("trace", (a, None), (a,))
        a, b = self._split(word)
        return self._node("trace", (a, b), (a, b))

    def term(self, coeff, traces, outer, sink, timed, half):
        c = complex(coeff)
        c = None if c == 1 else (c.real if c.imag == 0 else c)
        scalars = tuple(self.trace(w) for w in traces if w)  # tr(1) = 1
        if timed:
            scalars += (self._node("dt", ()),)
        reg = self.word(outer) if outer else None
        reads = scalars + (() if reg is None else (reg,))
        self.steps.append(("term", sink, (c, scalars, reg, half), reads))

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


def _sink_terms(pieces, hermitian):
    """(coeff, traces, outer, timed, half) for each term one sink computes
    from its ``pieces``, pairs of (polynomial, timed).

    On Hermitian bindings, pieces that are all self-adjoint hold each term
    w together with its adjoint w*, whose scalar is the conjugate of w's.
    Then one term of each pair {w, w*} goes to the sink's half H with its
    coefficient and each term w = w* with half of it, so H + H^H is the
    sink's value at one product per pair.  A sink without a pair is left
    unpaired: there the half would only cost elementwise passes."""
    if hermitian and all(is_self_adjoint(p) for p, _ in pieces):
        terms = [(t, timed) for p, timed in pieces
                 for t in hermitian_form(p).term_list()]
        adjoints = [_adjoint_key(t.traces, t.outer) for t, _ in terms]
        if any(key != (t.traces, t.outer)
               for key, (t, _) in zip(adjoints, terms)):
            return [(t.coeff if (t.traces, t.outer) < key else t.coeff / 2,
                     t.traces, t.outer, timed, True)
                    for key, (t, timed) in zip(adjoints, terms)
                    if (t.traces, t.outer) <= key]
    return [(*t, timed, False) for p, timed in pieces for t in p.term_list()]


@functools.lru_cache(maxsize=512)
def compile_plan(*sinks, hermitian: bool = False) -> Plan:
    """One plan computing every sink, compiled once per argument list.

    A sink is a tuple of (polynomial, timed) pieces and computes their sum,
    a timed piece multiplied by the step lengths dt; all sinks share their
    registers.  ``hermitian`` says the bindings are Hermitian, which lets
    self-adjoint sinks pair their terms with their adjoints
    (``_sink_terms``)."""
    comp = _Compiler()
    for sink, pieces in enumerate(sinks):
        for coeff, traces, outer, timed, half in _sink_terms(pieces,
                                                             hermitian):
            comp.term(coeff, traces, outer, sink, timed, half)
    return comp.finish(len(sinks))


def _leaf(letter, ctx: EvalContext, y_bindings) -> np.ndarray:
    if letter.family == "x":
        m = ctx.lookup(letter.index)
    else:
        m = _slot_matrix(letter, y_bindings, ctx.n)
    return adjoint(m) if letter.star else m


def _batch_shape(ctx: EvalContext, y_bindings) -> tuple:
    # results keep the batch shape of all bindings, x-variables and slots
    # alike, whichever letters the polynomial uses
    mats = list(ctx.bindings.values())
    for bound in y_bindings or ():
        mats.extend(bound if isinstance(bound, (list, tuple)) else [bound])
    return np.broadcast_shapes(*(np.shape(m)[:-2] for m in mats))


def _accumulate(out, m, s, mine, shape):
    """out + s * m; ``mine`` says m may be overwritten (a product made here,
    at its last use), so it is scaled in place or becomes the output."""
    if s is not None:
        s = np.asarray(s)[..., None, None]
        scaled = np.broadcast_shapes(s.shape, m.shape)
        if mine and scaled == m.shape:
            m *= s
        else:
            m, mine = np.multiply(m, s, out=buffers.empty(scaled)), True
    if out is not None:
        out += m
        return out
    if mine and m.shape == shape:
        return m
    out = buffers.empty(shape)
    np.copyto(out, m)
    return out


def _run(plan: Plan, leaf, shapes, n: int, dts=None) -> list:
    """Run ``plan``: ``leaf(letter)`` is a letter's bound matrix, ``dts``
    the step lengths and ``shapes[k]`` the shape of sink k."""
    regs: list = [None] * plan.registers
    owned = [False] * plan.registers  # made here, so free to overwrite
    outs: list = [None] * plan.sinks
    halves: list = [None] * plan.sinks
    for op, dest, args, frees in plan.steps:
        if op == "mul":
            a, b = regs[args[0]], regs[args[1]]
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            regs[dest] = np.matmul(a, b, out=buffers.empty(
                shape + (a.shape[-2], b.shape[-1])))
            owned[dest] = True
        elif op == "trace":
            a, b = args
            if b is None:
                val = np.trace(regs[a], axis1=-2, axis2=-1)
            else:
                val = np.einsum("...ij,...ji->...", regs[a], regs[b])
            regs[dest] = val / n
        elif op == "leaf":
            regs[dest] = leaf(args[0])
        elif op == "dt":
            regs[dest] = dts
        else:
            coeff, scalars, a, half = args
            acc = halves if half else outs
            s = coeff
            for r in scalars:
                s = regs[r] if s is None else s * regs[r]
            if a is None:
                if acc[dest] is None:
                    acc[dest] = buffers.zeros(shapes[dest])
                diag = np.einsum("...ii->...i", acc[dest])  # a writable view
                diag += 1 if s is None else np.asarray(s)[..., None]
            else:
                acc[dest] = _accumulate(acc[dest], regs[a], s,
                                        owned[a] and a in frees, shapes[dest])
        for r in frees:
            regs[r] = None
    for k, half in enumerate(halves):
        if half is not None:  # a paired sink sends every term to its half
            outs[k] = np.conjugate(np.swapaxes(half, -1, -2),
                                   out=buffers.empty(shapes[k]))
            outs[k] += half
    return [buffers.zeros(shape) if out is None else out
            for out, shape in zip(outs, shapes)]


def _run_bound(P: TracePolynomial, ctx: EvalContext,
               y_bindings) -> np.ndarray:
    shape = _batch_shape(ctx, y_bindings) + (ctx.n, ctx.n)
    (out,) = _run(compile_plan(((P, False),)),
                  lambda letter: _leaf(letter, ctx, y_bindings), [shape],
                  ctx.n)
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
            m = buffers.empty(window.shape)
            np.subtract(window[..., 1:, :, :], window[..., :-1, :, :],
                        out=m[..., :-1, :, :])
            m[..., -1, :, :] = 0
        else:
            raise EvalError(f"slot y{letter.index} is not bound")
        return adjoint(m) if letter.star else m

    terms, p = _run(plan, leaf, [window.shape] * 2, window.shape[-1],
                    np.append(dts, 0.0))
    return p, terms[..., :-1, :, :]
