"""Recycled block buffers: reuse only what no live array holds."""

import numpy as np

from nctrace import buffers


def _root(a):
    while a.base is not None:
        a = a.base
    return a


def test_outside_recycled_empty_is_a_fresh_array():
    a = buffers.empty((3, 2, 2))
    assert a.base is None and a.dtype == complex and a.shape == (3, 2, 2)


def test_a_dropped_array_gives_its_buffer_back(monkeypatch):
    monkeypatch.setattr(buffers, "_buffers", [])
    monkeypatch.setattr(buffers, "_size", 0)
    with buffers.recycled((4, 8, 2, 2)):
        a = buffers.empty((4, 8, 2, 2))
        root = id(_root(a))  # an id: holding the buffer would keep it busy
        del a
        b = buffers.empty((4, 7, 2, 2))  # smaller shapes share the size
        assert id(_root(b)) == root and b.flags.c_contiguous
        assert buffers.zeros_like(np.empty((2, 2))).tobytes() == bytes(64)
        c = buffers.empty((3,), float)
        assert id(_root(c)) != root  # b is still alive
        assert len(buffers._buffers) == 2  # the zeros went back before c


def test_live_and_escaped_arrays_are_never_handed_out_again():
    with buffers.recycled((16,)):
        kept = buffers.empty((16,))
        kept[:] = 7
        view = kept[::2]
        del kept
        for _ in range(5):
            buffers.empty((16,))[:] = 0
        big = buffers.empty((17,))  # larger than the size: not recycled
    assert big.base is None
    assert np.all(view == 7)
    with buffers.recycled((16,)):  # the next study keeps off it too
        buffers.empty((16,))[:] = 0
    assert np.all(view == 7)


def test_a_study_keeps_at_most_the_retained_bytes(monkeypatch):
    monkeypatch.setattr(buffers, "_buffers", [])
    monkeypatch.setattr(buffers, "_size", 0)
    monkeypatch.setattr(buffers, "RETAINED_BYTES", 2 * 16 * 16)
    with buffers.recycled((16,)):
        made = [buffers.empty((16,)) for _ in range(3)]
        assert len(buffers._buffers) == 3
        roots = [id(_root(a)) for a in made]
        del made
    assert [id(b) for b in buffers._buffers] == roots[:2]
    assert buffers.empty((16,)).base is None  # outside: not recycled
    with buffers.recycled((16,)):  # the next study of the size reuses them
        assert id(_root(buffers.empty((16,)))) == roots[0]
    with buffers.recycled((8,)):  # another size drops them
        assert buffers._buffers == []


def test_empty_like_keeps_the_axis_order_and_c_ordered_matrices():
    time_major = np.empty((5, 3, 4, 4), complex).swapaxes(0, 1)
    a = buffers.empty_like(time_major, (3, 6, 4, 4))
    assert a.shape == (3, 6, 4, 4) and a.swapaxes(0, 1).flags.c_contiguous
    # each matrix stays C-ordered, even where the template's is transposed
    b = buffers.empty_like(np.empty((2, 3, 4, 4), complex).swapaxes(-1, -2))
    assert b.flags.c_contiguous
    # a shape of another rank is C-ordered
    assert buffers.empty_like(time_major, (7, 4, 4)).flags.c_contiguous
