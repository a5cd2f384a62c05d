"""Evaluation of trace *-polynomials on tuples of matrices.

Evaluation is a *-homomorphism: words become matrix products, trace
factors become tr_n scalars, and k-linear slot letters receive bound
matrices (the adjoint for starred slot letters).  All operations
broadcast over leading batch axes, so an ensemble of paths evaluates in
one call; each trace factor reduces to one tr_n per leading index, never
averaged across paths or times.

Each polynomial is compiled once into a straight-line plan
(``compile_plan``, cached by the polynomial).  The plan computes each
letter power and each shared word prefix once, evaluates each distinct
trace factor once as an n^2 contraction tr_n(AB) rather than a product,
adds letterless terms on the diagonal only, skips the multiply for
coefficient 1, and accumulates every term in place into one output
buffer, dropping each intermediate after its last use.  Results are new
arrays, never views of the bindings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .matrix_alg import adjoint
from .trace_poly import TracePolynomial


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
# registers in ``frees``, whose last use it was.
#   "leaf"  args = (letter,)            the bound matrix, adjoint if starred
#   "mul"   args = (a, b)               a @ b
#   "trace" args = (a, b)               tr_n(a b) by an n^2 contraction;
#                                       b is None for tr_n(a)
#   "term"  args = (coeff, scalars, a)  out += coeff * prod(scalars) * a;
#                                       a is None for the identity (added
#                                       on the diagonal), coeff is None for 1


@dataclass(frozen=True)
class Plan:
    """A trace polynomial compiled into straight-line steps."""

    steps: tuple
    registers: int
    has_slots: bool


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

    def term(self, coeff, traces, outer):
        c = complex(coeff)
        c = None if c == 1 else (c.real if c.imag == 0 else c)
        scalars = tuple(self.trace(w) for w in traces if w)  # tr(1) = 1
        reg = self.word(outer) if outer else None
        reads = scalars + (() if reg is None else (reg,))
        self.steps.append(("term", None, (c, scalars, reg), reads))

    def finish(self, has_slots) -> Plan:
        # walking backwards, a read not seen yet is the register's last use
        seen: set = set()
        steps = []
        for op, dest, args, reads in reversed(self.steps):
            steps.append((op, dest, args, tuple(sorted(set(reads) - seen))))
            seen.update(reads)
        return Plan(tuple(reversed(steps)), len(self.nodes), has_slots)


@functools.lru_cache(maxsize=512)
def compile_plan(P: TracePolynomial) -> Plan:
    """The evaluation plan of ``P``, compiled once per polynomial."""
    comp = _Compiler()
    for coeff, traces, outer in P.term_list():
        comp.term(coeff, traces, outer)
    return comp.finish(bool(P.slots_used()))


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
        if mine and np.broadcast_shapes(s.shape, m.shape) == m.shape:
            m *= s
        else:
            m, mine = m * s, True
    if out is not None:
        out += m
        return out
    if mine and m.shape == shape:
        return m
    return np.broadcast_to(m, shape).astype(complex)


def _run(plan: Plan, ctx: EvalContext, y_bindings) -> np.ndarray:
    n = ctx.n
    shape = _batch_shape(ctx, y_bindings) + (n, n)
    regs: list = [None] * plan.registers
    owned = [False] * plan.registers  # made here, so free to overwrite
    out = None
    for op, dest, args, frees in plan.steps:
        if op == "mul":
            regs[dest] = regs[args[0]] @ regs[args[1]]
            owned[dest] = True
        elif op == "trace":
            a, b = args
            if b is None:
                val = np.trace(regs[a], axis1=-2, axis2=-1)
            else:
                val = np.einsum("...ij,...ji->...", regs[a], regs[b])
            regs[dest] = val / n
        elif op == "leaf":
            regs[dest] = _leaf(args[0], ctx, y_bindings)
        else:
            coeff, scalars, a = args
            s = coeff
            for r in scalars:
                s = regs[r] if s is None else s * regs[r]
            if a is None:
                if out is None:
                    out = np.zeros(shape, dtype=complex)
                diag = np.einsum("...ii->...i", out)  # a writable view
                diag += 1 if s is None else np.asarray(s)[..., None]
            else:
                out = _accumulate(out, regs[a], s, owned[a] and a in frees,
                                  shape)
        for r in frees:
            regs[r] = None
    return np.zeros(shape, dtype=complex) if out is None else out


def eval_poly(P: TracePolynomial, ctx: EvalContext) -> np.ndarray:
    """Evaluate a slot-free trace polynomial as a matrix (batched)."""
    plan = compile_plan(P)
    if plan.has_slots:
        raise EvalError("eval_poly input must not contain slot letters")
    return _run(plan, ctx, None)


def eval_multilinear(P: TracePolynomial, ctx: EvalContext,
                     y_bindings: Sequence) -> np.ndarray:
    """Evaluate a k-linear trace polynomial on k bound slot matrices.

    ``y_bindings[j-1]`` is the matrix for slot j, or a sequence of
    matrices when the slot carries coordinates.
    """
    return _run(compile_plan(P), ctx, y_bindings)
