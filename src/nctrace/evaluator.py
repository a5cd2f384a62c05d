"""Evaluation of trace *-polynomials on tuples of matrices.

Evaluation is a *-homomorphism: words become matrix products, trace
factors become tr_n scalars, and k-linear slot letters receive bound
matrices (the adjoint for starred slot letters).  All operations
broadcast over leading batch axes, so an ensemble of paths evaluates in
one call.
"""

from __future__ import annotations

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

    ``trace_mode`` selects how trace factors reduce: "pathwise" keeps the
    per-sample tr_n (a scalar per leading index), "ensemble" additionally
    averages tr_n over all leading axes, estimating the state E tr_n.
    """

    n: int
    bindings: Mapping[int, np.ndarray] = field(default_factory=dict)
    trace_mode: str = "pathwise"

    def __post_init__(self):
        if self.trace_mode not in ("pathwise", "ensemble"):
            raise EvalError(f"unknown trace mode {self.trace_mode!r}")
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


def _word_value(word, ctx: EvalContext, y_bindings) -> np.ndarray:
    out = None
    for letter in word:
        if letter.family == "x":
            m = ctx.lookup(letter.index)
        else:
            m = _slot_matrix(letter, y_bindings, ctx.n)
        if letter.star:
            m = adjoint(m)
        out = m if out is None else out @ m
    if out is None:
        return np.eye(ctx.n, dtype=complex)
    return out


def _trace_value(word, ctx, y_bindings, cache):
    key = word
    if key in cache:
        return cache[key]
    m = _word_value(word, ctx, y_bindings)
    val = np.trace(m, axis1=-2, axis2=-1) / ctx.n
    if ctx.trace_mode == "ensemble":
        val = np.mean(val)
    cache[key] = val
    return val


def _evaluate(P: TracePolynomial, ctx: EvalContext, y_bindings) -> np.ndarray:
    # letterless results (constants, the zero polynomial) keep the batch
    # shape of the bindings, x-variables and slots alike
    mats = list(ctx.bindings.values())
    for bound in y_bindings or ():
        mats.extend(bound if isinstance(bound, (list, tuple)) else [bound])
    batch = np.broadcast_shapes(*(np.shape(m)[:-2] for m in mats))
    shape = batch + (ctx.n, ctx.n)
    result = None
    cache: dict = {}
    eye = np.broadcast_to(np.eye(ctx.n, dtype=complex), shape)
    for (traces, outer), coeff in P.terms.items():
        scalar = complex(coeff)
        for w in traces:
            scalar = scalar * _trace_value(w, ctx, y_bindings, cache)
        body = _word_value(outer, ctx, y_bindings) if outer else eye
        term = np.asarray(scalar)[..., None, None] * body
        result = term if result is None else result + term
    if result is None:
        return np.zeros(shape, dtype=complex)
    return result


def eval_poly(P: TracePolynomial, ctx: EvalContext) -> np.ndarray:
    """Evaluate a slot-free trace polynomial as a matrix (batched)."""
    if P.slots_used():
        raise EvalError("eval_poly input must not contain slot letters")
    return _evaluate(P, ctx, None)


def eval_multilinear(P: TracePolynomial, ctx: EvalContext,
                     y_bindings: Sequence) -> np.ndarray:
    """Evaluate a k-linear trace polynomial on k bound slot matrices.

    ``y_bindings[j-1]`` is the matrix for slot j, or a sequence of
    matrices when the slot carries coordinates.
    """
    return _evaluate(P, ctx, y_bindings)
