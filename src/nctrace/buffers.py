"""Recycled block buffers for the time-blocked studies and ``moi``.

A blocked study makes the same few block-sized arrays at every block of
grid points: the path window, the evaluator's registers and outputs, the
carried sums and the reducer's copy; ``matrix_alg.moi`` makes its
rotations, tables and products at every block of its batch.  Freed and
made again, such arrays go back to the operating system and are faulted
in anew at the next block.
Inside ``recycled(shape)``, ``empty`` instead carves every array of at most
one complex ``shape``-sized array's bytes from a flat buffer of exactly
that size which no live array uses any more.  When ``recycled`` exits, at
most ``RETAINED_BYTES`` of buffers stay for the next study of the same
size, and a study of another size drops them.

A buffer is free when nothing but this module refers to it.  Every NumPy
view keeps the buffer it was carved from alive, so an array that is still
in use, or that leaves the study, is never handed out twice.  Outside
``recycled`` and for larger arrays, ``empty`` is ``np.empty``.

An array takes the layout of the block it is made from: ``empty_like(a,
shape)`` orders its leading axes in memory as a's and keeps each trailing
(n, n) matrix C-contiguous.  A blocked walk stores its windows time-major
(the matrices of all paths at one grid point side by side), and so the
evaluator's registers and outputs, the increments and the running sums
made from such a window are time-major too.

The one rule for callers: a loop that takes block arrays from a generator
deletes them before it asks for the next block.  A loop variable that
still holds the last block keeps its buffer busy while the next block is
made, so the study holds one more buffer than it needs; it stays correct,
only larger.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager

import numpy as np

# What stays after a study: the whole set of a small one (a study at n = 16
# with 8 paths uses up to 9 buffers of 2.2 MB), so short studies run one
# after another do not fault their buffers in anew each time.  A larger
# study keeps fewer or none; it does more work per buffer, beside which
# faulting its buffers in once costs little.
RETAINED_BYTES = 32 * 2**20

_buffers: list = []  # flat uint8 buffers of _size bytes
_size = 0
_active = False


def _free_refs() -> int:
    """What ``sys.getrefcount`` reads for a buffer no array uses, inside a
    loop over the list that holds it, as in ``empty`` (3 on CPython 3.11:
    the list, the loop variable and the call's own argument)."""
    for buf in [np.empty(0, np.uint8)]:
        return sys.getrefcount(buf)


_FREE_REFS = _free_refs()


@contextmanager
def recycled(shape):
    """Recycle buffers of one complex ``shape``-sized array for the
    study."""
    global _size, _active
    size = math.prod(shape) * np.dtype(complex).itemsize
    if size != _size:
        _buffers.clear()
        _size = size
    _active = True
    try:
        yield
    finally:
        _active = False
        del _buffers[RETAINED_BYTES // max(_size, 1):]


def empty(shape, dtype=complex) -> np.ndarray:
    """An uninitialised array, carved from a free recycled buffer when one
    fits (see the module docstring)."""
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    if not _active or size > _size:
        return np.empty(shape, dtype)
    for buf in _buffers:
        if sys.getrefcount(buf) == _FREE_REFS:
            break
    else:
        buf = np.empty(_size, np.uint8)
        _buffers.append(buf)
    return buf[:size].view(dtype).reshape(shape)


def empty_like(a: np.ndarray, shape=None) -> np.ndarray:
    """An uninitialised complex array of ``shape`` (a's when None) from
    ``empty``, laid out as a stack of matrices ``a``: each trailing (n, n)
    matrix is C-contiguous, and where ``shape`` has a's rank its leading
    axes lie in memory in the order of a's (the largest stride outermost,
    ties in axis order); a shape of another rank is C-ordered."""
    shape = a.shape if shape is None else tuple(shape)
    lead = list(range(len(shape) - 2))
    if len(shape) == a.ndim:
        lead.sort(key=lambda i: -a.strides[i])
    out = empty([shape[i] for i in lead] + list(shape[-2:]))
    return out.transpose([lead.index(i) for i in range(len(lead))]
                         + [len(lead), len(lead) + 1])


def zeros(shape, dtype=complex) -> np.ndarray:
    out = empty(shape, dtype)
    out.fill(0)
    return out


def zeros_like(a: np.ndarray) -> np.ndarray:
    out = empty_like(a)
    out.fill(0)
    return out
