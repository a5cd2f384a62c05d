"""Discretized matrix-valued processes.

``ProcessPath`` holds one path, values (T, n, n), or a batch of paths on
one grid, (paths, T, n, n).  Hermitian matrix Brownian motion (HBM)
normalized so E tr_n((X(t)-X(s))^2) equals t - s, finite-variation paths,
``kappa_estimate`` (a Monte-Carlo estimate of kappa((s, t]) =
E tr_n |M(t) - M(s)|^2 over a batch), and the NCP1 binary format of one
path, whose arrays are written and read with no intermediate copy.

Every HBM path comes from one window walk (``hbm_windows``).  For each
chunk of paths it yields consecutive windows: the grid points [i0, i1) of
a block plus the one point before them, as a (count, <= block + 1, n, n)
array.  Each path draws from its own ``RngStream(seed, i)``, one window of
increments at a time, and sums them onto the carried last point, so its
bits do not depend on the chunk or block size.  A blocked walk stores its
windows time-major: each is one (L, count, n, n) buffer, handed out as its
(count, L, n, n) view, so the matrices of all paths at one grid point lie
side by side, and a whole-path window is C-contiguous (with one path the
two layouts are one).  One basis sampler writes a window's increments,
every path's a block of steps at a time, from rows ``[c, -c, 0]`` of
scaled draws in a scratch of at most ``SCATTER_SCRATCH_BYTES``.
``running_sums`` then sums the window along time, one grid point at a time
where the matrices at one grid point have ``WIDE_ROW_ENTRIES`` entries or
more, with ``np.cumsum`` below, to the same bits.  The time-blocked
studies walk ``stoch_int.STUDY_TIME_BLOCK`` points at a time and never
hold a whole path; a window that covers the whole path is what
``simulate_hbm`` and ``simulate_hbm_ensemble`` return, and what
``hbm_windows`` yields with no block.  A walk (``HbmWalk``) can save where
it stands between two windows (``WalkStart``: the carried point and each
path's generator state) and be resumed from there, to the same bits.
Windows are bitwise Hermitian by construction: the scatter writes
conjugate entries from the same draws, and the sums keep the symmetry.
The entrywise sampler draws a whole path's diagonal before its
off-diagonal entries, so it walks whole paths only; it lays its scaled
draws out as the basis coefficients are and goes through the same scatter.

``save_ncp1`` rewrites an existing file in place rather than truncating
it.  Opening with ``O_TRUNC`` drops the old file's cached pages and
blocks, the write then fills fresh pages, and ext4 starts writeback at
the close of a file truncated and rewritten.  Over a 6.6 MB file of the
same size (``nctrace sim`` at n = 64 over 100 steps), the syscalls took,
truncating / in place, median ms of 60 rounds (2-core Intel Xeon, ext4,
Linux 6.18, a shared host): open 1.7-1.9 / 0.014, write 1.7-2.1 /
1.1-1.3, close 0.26 / 0.004.  A cut in place, even to the same length,
took 1.6-2.5 ms (likely ext4 starting writeback on a truncate), so the
file is cut only where the old one was longer.  The magic is written last, so a
rewrite that stops part way leaves a file ``load_ncp1`` rejects, as it
rejects a truncated one.  As before, nothing is fsynced.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import buffers
from .matrix_alg import _basis_scatter, _tr_quad

_ROLE_CODES = {"martingale": 0, "fv": 1, "decomposable": 2}
_ROLE_NAMES = {v: k for k, v in _ROLE_CODES.items()}

# Running sums (``running_sums``) add one grid point at a time once the
# matrices summed at one grid point have this many entries together (one
# matrix at n >= 16, or 8 paths' at n >= 6), and run np.cumsum below it (see
# HbmWalk for the timings that set it).
WIDE_ROW_ENTRIES = 256

# The basis sampler scatters the [c, -c, 0] rows of a block of steps of
# every path through at most this many bytes (_hbm_increments_basis times it).
SCATTER_SCRATCH_BYTES = 2**20


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("grid needs at least one time")
        bad = np.flatnonzero(~np.isfinite(t))
        if len(bad):
            raise ValueError(f"grid time {t[bad[0]]} is not finite")
        if t[0] != 0.0:
            raise ValueError("grid must start at 0")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1 or horizon <= 0:
            raise ValueError("need a positive horizon and step count")
        return cls(np.linspace(0.0, horizon, steps + 1))

    @classmethod
    def from_mesh(cls, horizon: float, mesh: float) -> "TimeGrid":
        """The uniform grid of step ``mesh`` on [0, horizon]; the mesh must
        be positive and divide the horizon into whole steps."""
        steps = horizon / mesh if mesh > 0 else 0.0
        if (not 1 <= steps < math.inf
                or abs(steps - round(steps)) > 1e-9 * steps):
            raise ValueError(
                f"mesh {mesh} does not divide the horizon {horizon}")
        return cls.uniform(horizon, round(steps))

    @property
    def mesh(self) -> float:
        if len(self.times) == 1:
            return 0.0
        return float(np.max(np.diff(self.times)))

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        near = self.times[idx]
        # a NaN gap fails the <=, an infinite one the finite tolerance
        if not abs(near - t) <= 1e-9 * max(1.0, abs(near)):
            raise ValueError(f"time {t} is not on the grid")
        return idx

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(
            self.times, other.times
        )

    def __hash__(self):
        return hash(self.times.tobytes())


class RngStream:
    """Counter-based random stream keyed by (master seed, path index).

    Distinct path indices give independent streams; a path's draws do not
    depend on which worker generates it.
    """

    def __init__(self, master_seed: int, path_index: int = 0):
        self.master_seed = int(master_seed)
        self.path_index = int(path_index)
        key = np.random.SeedSequence((self.master_seed, self.path_index))
        self.generator = np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class ProcessPath:
    """A discretized path, values (T, n, n), or a batch of paths on one
    grid, (paths, T, n, n): values[..., i, :, :] is at grid.times[i]."""

    grid: TimeGrid
    values: np.ndarray  # (..., T, n, n) complex
    role: str
    seed_info: tuple | None = None
    mart_part: np.ndarray | None = None
    fv_part: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim < 3 or v.shape[-3] != len(self.grid.times) or (
            v.shape[-2] != v.shape[-1]
        ):
            raise ValueError("values must have shape (..., T, n, n)")
        object.__setattr__(self, "values", v)
        if self.role not in _ROLE_CODES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.role == "decomposable":
            if self.mart_part is None or self.fv_part is None:
                raise ValueError("decomposable paths need both parts")
            total = self.mart_part + self.fv_part
            if not np.array_equal(total, v):
                raise ValueError("decomposition must sum to the path values")
            if np.any(self.fv_part[..., 0, :, :] != 0):
                raise ValueError("the FV part must start at 0")

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def batch(self) -> np.ndarray:
        """``values`` as (paths, T, n, n): one path is a batch of one."""
        return self.values.reshape((-1,) + self.values.shape[-3:])

    def at(self, t: float) -> np.ndarray:
        return self.values[..., self.grid.index_of(t), :, :]


def _scatter_rows(n: int, steps: int, paths: int = 1) -> int:
    """How many of ``steps`` steps fit in ``SCATTER_SCRATCH_BYTES``, at
    least one, at a row ``[c, -c, 0]`` of 2 n^2 + 1 floats per path."""
    width = paths * (2 * n * n + 1)
    return max(1, min(steps, SCATTER_SCRATCH_BYTES // (8 * width)))


def _scatter(src: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """Complete the rows ``[c, -c, 0]`` of ``src``, whose first n^2 columns
    hold the scaled coefficients c, and write each as one matrix's float64
    entries into the same row of ``out``."""
    nn = src.shape[1] // 2
    np.negative(src[:, :nn], out=src[:, nn:2 * nn])
    src[:, 2 * nn] = 0
    np.take(src, index, axis=1, out=out, mode="clip")


def _hbm_increments_basis(n, dts, generators, out: np.ndarray) -> None:
    """Write the increments of one path per generator into ``out``
    (C-contiguous (steps, paths, n, n); one path is paths = 1).

    Each entry is one scaled coefficient, rounded exactly as in the product
    ``coeffs @ hermitian_onb_array(n)``, in O(n^2) per step.  The steps go
    forward in blocks of ``_scatter_rows`` steps.  In a block each path in
    turn draws its normals into the start of the block's rows of ``out``
    and scales them into its rows ``[c, -c, 0]`` of a scratch; one
    ``_scatter`` then writes every path's rows over the draws, all read by
    then.  A path drawn a block at a time reads the stream of one call, so
    the bits do not depend on the block.  Draws in the scratch instead made
    ``simulate_hbm`` (n = 64, 100 steps) 1-4 % slower.  The scratch
    (``buffers.empty``, so a study recycles it) is made after ``out`` and
    dropped on return; kept, it split the allocator's free space (sim runs
    at n = 64 peaked 7 MB higher) and held a recycled buffer through a
    blocked walk.  A whole-path scratch of wide rows spills out of the
    caches.  ``simulate_hbm`` by scratch size, best of 30 runs of 10 calls,
    ms (1 BLAS thread, 2-core Intel Xeon, 2 MiB L2 per core, a shared host
    whose runs spread by up to 20 %):

    ==========  =======  =====  =====  ==========
    n, steps    256 KiB  1 MiB  4 MiB  whole path
    ==========  =======  =====  =====  ==========
    16, 800     6.1      6.0    10.7   10.2
    64, 100     10.5     10.7   11.3   18.3
    128, 50     22.3     22.1   23.7   26.4
    ==========  =======  =====  =====  ==========
    """
    steps, paths, nn = len(dts), len(generators), n * n
    scale, index = _basis_scatter(n)
    rows = _scatter_rows(n, steps, paths)
    scratch = buffers.empty((rows, paths, 2 * nn + 1), float)
    flat = out.view(np.float64).reshape(steps * paths, 2 * nn)
    sd = np.sqrt(dts)[:, None]
    for s0 in range(0, steps, rows):
        s1 = min(s0 + rows, steps)
        block = flat[s0 * paths:s1 * paths]
        draws = block.reshape(-1)[:(s1 - s0) * nn].reshape(s1 - s0, nn)
        src = scratch[:s1 - s0]
        for j, rng in enumerate(generators):
            rng.standard_normal(out=draws)
            np.multiply(draws, sd[s0:s1], out=src[:, j, :nn])
        src[..., :nn] *= scale
        _scatter(src.reshape(-1, 2 * nn + 1), index, block)


def _hbm_increments_entrywise(n, dts, rng, out: np.ndarray) -> None:
    """Write GUE Brownian increments scaled by 1/sqrt(n) into ``out``
    (C-contiguous (steps, n, n)): the off-diagonal (re + i im)/sqrt(2)
    and the diagonal of standard normal draws, times sqrt(dt).  The draws
    are scaled by multiplying with 1/sqrt(2) and 1/sqrt(n), which rounds as
    NumPy's division of a complex array by a real scalar does.  They are
    laid out as the basis coefficients are, the diagonal d and then
    (a, -b) for each k < l, so that ``_basis_scatter`` writes d, a + ib at
    (k, l) and a - ib at (l, k); -b is scaled from -1/sqrt(2), so its
    negation is b exactly."""
    steps, nn = len(dts), n * n
    sd = np.sqrt(dts)[:, None]
    rn = 1.0 / np.sqrt(n)
    r2 = 1.0 / np.sqrt(2.0)
    diag = rng.standard_normal((steps, n))
    re = rng.standard_normal((steps, n, n))
    im = rng.standard_normal((steps, n, n))
    k, l = np.triu_indices(n, k=1)
    src = np.empty((steps, 2 * nn + 1))
    np.multiply(diag, sd, out=src[:, :n])
    np.multiply(re[:, k, l], r2, out=src[:, n:nn:2])
    np.multiply(im[:, k, l], -r2, out=src[:, n + 1:nn:2])
    src[:, n:nn] *= sd
    src[:, :nn] *= rn
    flat = out.view(np.float64).reshape(steps, 2 * nn)
    _scatter(src, _basis_scatter(n)[1], flat)


def _check_hbm_args(n: int, method: str) -> None:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if method not in ("basis", "entrywise"):
        raise ValueError(f"unknown method {method!r}")


def running_sums(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.cumsum(rows, axis=0, out=out)``, where ``out`` may be ``rows``:
    as one ``np.add(out[j - 1], rows[j], out=out[j])`` per row once a row
    has ``WIDE_ROW_ENTRIES`` entries.  Both add the same numbers in the
    same order, so the bits agree (see ``HbmWalk`` for the timings)."""
    if math.prod(rows.shape[1:]) < WIDE_ROW_ENTRIES:
        return np.cumsum(rows, axis=0, out=out)
    if len(rows) and out is not rows:
        out[0] = rows[0]
    for j in range(1, len(rows)):
        np.add(out[j - 1], rows[j], out=out[j])
    return out


class WalkStart(NamedTuple):
    """Where a window walk stands before the window that begins at grid
    point ``i0``: ``carry`` holds each path's point i0 - 1 (zero before the
    first window) and ``states`` each path's ``bit_generator.state``."""

    i0: int
    carry: np.ndarray
    states: tuple


class HbmWalk:
    """The window walk over one path per generator, from X(0) = 0 or from a
    saved ``WalkStart``, up to grid point ``stop`` (a window end; the grid's
    end when None).

    Iterating it yields (i0, i1, window) for consecutive blocks [i0, i1)
    of at most ``block`` grid points: ``window`` is (paths, L, n, n) and
    holds the points i0 - 1 .. i1 - 1, except that the first window starts
    at t_0.  Each window is a new array (``buffers.empty``), so a recycled
    buffer is overwritten only once the caller has let go of it, and the
    walk lets go of each window before it makes the next.  A blocked walk
    (``block`` below the grid's length) lays its windows out time-major, a
    whole-path walk path-major; each matrix is C-contiguous.  The
    increments are written straight into the window's rows, by one basis
    sampler call for all paths of a time-major window and one per path of
    a path-major one, and summed in place onto the carried last point of
    the window before, so the windows hold the bits of one whole-path cumsum.
    Between two windows, ``start()`` saves where the walk stands, and
    ``resumed`` walks the same paths on from there with generators of its
    own: its windows hold the bits of the uninterrupted walk's.

    ``running_sums`` adds the rows of one grid point at a time: the
    (count, n, n) slice of all paths in a time-major window, one path's
    (n, n) matrix in a path-major one.  ``np.cumsum`` runs down the time
    axis one entry at a time, which stops fitting the caches as the rows
    grow; one ``np.add`` per grid point costs about 1-2 us of call
    overhead.  C-contiguous (L, paths, n, n) rows, one BLAS thread, 2-core
    Intel Xeon with 2 MiB L2 per core on a shared host, best of 7 runs of
    5 calls in each of two processes (cumsum / adds, ms; the processes
    spread by up to 70 %):

    ==========  ===========  =================  ============
    paths x n   row entries  L = 65             L = 801
    ==========  ===========  =================  ============
    1 x 12      144          0.036 / 0.076      0.64 / 0.94
    1 x 16      256          0.085 / 0.075      2.4 / 1.0
    1 x 64      4096         2.5 / 0.29         80 / 4.1
    8 x 4       128          0.041 / 0.087      0.90 / 1.1
    8 x 6       288          0.071 / 0.088      1.2 / 1.2
    8 x 16      2048         0.83 / 0.17        25 / 3.1
    25 x 16     6400         2.6 / 0.50         82 / 5.8
    ==========  ===========  =================  ============

    Over one (8, 64, 16, 16) block the strided per-path adds of a
    path-major window took 0.45-0.58 ms against 0.19-0.26 ms over the
    contiguous slices of a time-major one (``np.cumsum``: 0.65-0.70)."""

    def __init__(self, n: int, dts: np.ndarray, generators, block: int,
                 method: str, start: WalkStart | None = None,
                 stop: int | None = None):
        self._walk = (n, dts, block, method)
        self.generators = generators
        self.stop = len(dts) + 1 if stop is None else stop
        if start is None:
            self.i0 = 0
            self.carry = np.zeros((len(generators), n, n), dtype=complex)
        else:
            self.i0, self.carry = start.i0, start.carry
            for rng, state in zip(generators, start.states):
                rng.bit_generator.state = state

    def start(self) -> WalkStart:
        """Where the walk stands before the window it draws next."""
        return WalkStart(self.i0, self.carry,
                         tuple(rng.bit_generator.state
                               for rng in self.generators))

    def resumed(self, start: WalkStart, stop: int | None = None) -> "HbmWalk":
        """The same paths walked on from a saved ``start``."""
        n, dts, block, method = self._walk
        generators = [np.random.Generator(np.random.Philox())
                      for _ in start.states]
        return HbmWalk(n, dts, generators, block, method, start, stop)

    def __iter__(self) -> Iterator[tuple[int, int, np.ndarray]]:
        for i0 in range(self.i0, self.stop, self._walk[2]):
            i1, window = self._window(i0)
            self.i0, self.carry = i1, window[:, -1].copy()
            yield i0, i1, window
            # let go of the window before the next one is made
            del window

    def _window(self, i0: int) -> tuple[int, np.ndarray]:
        """The end of the window that starts at grid point ``i0``, and the
        window, drawn and summed onto the carried point."""
        n, all_dts, block, method = self._walk
        T = len(all_dts) + 1
        paths = len(self.generators)
        i1 = min(i0 + block, T)
        lo = max(i0, 1) - 1
        dts = all_dts[lo:i1 - 1]
        # (L, count, n, n) groups whose grid points each lie contiguous:
        # the whole time-major window, or each path of a path-major one
        if block < T:
            points = buffers.empty((i1 - lo, paths, n, n))
            window = points.swapaxes(0, 1)
            groups = [(points, self.generators)]
        else:
            window = buffers.empty((paths, i1 - lo, n, n))
            groups = [(path[:, None], [rng])
                      for path, rng in zip(window, self.generators)]
        window[:, 0] = self.carry
        for rows, generators in groups:
            if method == "basis":
                _hbm_increments_basis(n, dts, generators, rows[1:])
            else:
                _hbm_increments_entrywise(n, dts, generators[0], rows[1:, 0])
            # the first window's t_0 is 0, which the sum leaves out
            summed = rows[1:] if i0 == 0 else rows
            running_sums(summed, summed)
        return i1, window


def hbm_windows(n: int, grid: TimeGrid, n_paths: int, seed: int, chunk: int,
                block: int | None = None, method: str = "basis"):
    """HBM paths 0..n_paths-1 in chunks of at most ``chunk`` paths, each
    chunk walked ``block`` grid points at a time.

    Returns an iterator over the chunks; each chunk is an ``HbmWalk``, an
    iterable of (i0, i1, window), a window being the
    (count, <= block + 1, n, n) grid points [i0, i1) plus the point before
    them, stored time-major when ``block`` is below the grid's length
    (see ``HbmWalk``).  Path i always draws from the stream keyed (seed, i),
    opened once per walk, and its windows hold the same bits whatever the
    chunk and block sizes.  ``block`` None (or at least the grid's length)
    walks each chunk as one whole-path window.  The entrywise method draws
    a whole path's diagonal before its off-diagonal entries, so its windows
    could not hold the same bits: it walks whole paths only, and a smaller
    ``block`` raises ValueError, as a ``chunk`` or ``block`` below 1
    does."""
    _check_hbm_args(n, method)
    T = len(grid.times)
    block = T if block is None else block
    if chunk < 1:
        raise ValueError("a chunk needs at least one path")
    if block < 1:
        raise ValueError("the block needs at least one grid point")
    if method == "entrywise" and block < T:
        raise ValueError("the entrywise sampler walks whole paths only")
    dts = np.diff(grid.times)
    return (HbmWalk(n, dts, [RngStream(seed, i).generator
                             for i in range(start,
                                            min(start + chunk, n_paths))],
                    block, method)
            for start in range(0, n_paths, chunk))


def simulate_hbm(n: int, grid: TimeGrid, stream: RngStream,
                 method: str = "basis") -> ProcessPath:
    """One Hermitian-BM path with X(0) = 0.

    "basis" draws the coefficients over the orthonormal Hermitian basis,
    which carries the normalization by construction, and writes each one
    straight into its matrix entries: O(n^2) per step, with no dense basis
    built.  "entrywise" scales a GUE Brownian motion by 1/sqrt(n).  The two
    agree in law.  This is the whole-path, one-path window of the walk.
    """
    _check_hbm_args(n, method)
    T = len(grid.times)
    ((_, _, values),) = HbmWalk(n, np.diff(grid.times), [stream.generator],
                                T, method)
    return ProcessPath(
        grid, values[0], "martingale",
        seed_info=(stream.master_seed, stream.path_index, method),
    )


def simulate_hbm_ensemble(n: int, grid: TimeGrid, n_paths: int, seed: int,
                          method: str = "basis") -> ProcessPath:
    """Independent HBM paths as one (n_paths, T, n, n) batch; path i uses
    the stream keyed (seed, i), so the result is identical no matter how
    generation is scheduled."""
    empty = np.empty((0, len(grid.times), n, n), dtype=complex)
    # every path in one chunk, walked as one whole-path window
    values = next((values for ((_, _, values),) in hbm_windows(
        n, grid, n_paths, seed, max(n_paths, 1), method=method)), empty)
    return ProcessPath(grid, values, "martingale", seed_info=(seed, method))


def make_fv(grid: TimeGrid, n: int,
            g: Callable[[float], float]) -> ProcessPath:
    """Finite-variation path g(t) * I."""
    values = np.stack(
        [complex(g(t)) * np.eye(n, dtype=complex) for t in grid.times]
    )
    return ProcessPath(grid, values, "fv")


def kappa_estimate(paths: ProcessPath, s: float, t: float):
    """Monte-Carlo estimate of kappa((s, t]) = E tr_n |M(t) - M(s)|^2.

    Returns (estimate, standard error); fewer than 2 paths have none, and
    one path is a batch of one.
    """
    values = paths.batch
    if len(values) < 2:
        raise ValueError(f"need at least 2 paths, got {len(values)}")
    if not s < t:
        raise ValueError("need s < t")
    i0, i1 = paths.grid.index_of(s), paths.grid.index_of(t)
    per_path = _tr_quad(values[:, i1] - values[:, i0])
    est = float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1) / np.sqrt(len(per_path)))
    return est, se


# -- NCP1 binary format ---------------------------------------------------

_HEADER = struct.Struct("<4sIIB")


def _write_values(fh, values: np.ndarray):
    # complex128 viewed as float64 pairs is exactly (re, im) interleaved;
    # the file takes the contiguous array's own buffer
    fh.write(np.ascontiguousarray(values, dtype="<c16"))


def _read_block(fh, shape, dtype, block: str) -> np.ndarray:
    """The next ``shape`` array of ``dtype`` in the file, read straight into
    its own memory; ValueError naming the block when the file is short."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    # checked against the file size first, so a corrupt header cannot ask
    # for a huge array; a short read is a truncated block too
    found = os.fstat(fh.fileno()).st_size - fh.tell()
    if size <= found:
        out = np.empty(shape, dtype)
        found = fh.readinto(out)
    if found != size:
        raise ValueError(f"truncated NCP1 {block}: expected {size} bytes, "
                         f"found {found}")
    return out


def _read_values(fh, count, n, block) -> np.ndarray:
    return _read_block(fh, (count, n, n), "<c16", block)


def save_ncp1(path: ProcessPath, filename: str) -> None:
    """Write one path in the NCP1 little-endian binary format; a batch
    raises ValueError, as the header has no path count.

    An existing file is rewritten in place, which keeps its cached pages
    and blocks (the module docstring gives the syscall timings): it is
    opened without ``O_TRUNC`` and its old size taken, the header goes
    first with a zeroed magic, then the times and value blocks, the file
    is cut only where the old one was longer (a cut to the same length
    still took milliseconds on ext4, and fails on ``os.devnull``), and
    ``b"NCP1"`` goes to offset 0 last.  A write that stops
    part way thus leaves no valid magic, and ``load_ncp1`` rejects the
    file.  Nothing is synced to disk: a file is not promised to survive a
    power loss."""
    if path.values.ndim != 3:
        raise ValueError(f"NCP1 holds one path, not {path.values.shape}")
    t = len(path.grid.times)
    fd = os.open(filename, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        old_size = os.fstat(fd).st_size
        fh.write(_HEADER.pack(bytes(4), path.n, t, _ROLE_CODES[path.role]))
        fh.write(np.ascontiguousarray(path.grid.times, dtype="<f8"))
        _write_values(fh, path.values)
        if path.role == "decomposable":
            _write_values(fh, path.mart_part)
            _write_values(fh, path.fv_part)
        if fh.tell() < old_size:
            fh.truncate()
        fh.seek(0)
        fh.write(b"NCP1")


def load_ncp1(filename: str) -> ProcessPath:
    """Read a path written by :func:`save_ncp1`; a well-formed file round
    trips bit-exactly.  A truncated block or trailing bytes raise
    ValueError naming the block."""
    with open(filename, "rb") as fh:
        header = _read_block(fh, (_HEADER.size,), np.uint8, "header")
        magic, n, t, role_code = _HEADER.unpack(header)
        if magic != b"NCP1":
            raise ValueError("not an NCP1 file")
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if role_code not in _ROLE_NAMES:
            raise ValueError(f"unknown role code {role_code}")
        times = _read_block(fh, (t,), "<f8", "times block")
        values = _read_values(fh, t, n, "value block")
        role = _ROLE_NAMES[role_code]
        mart = fv = None
        if role == "decomposable":
            mart = _read_values(fh, t, n, "martingale-part block")
            fv = _read_values(fh, t, n, "FV-part block")
        if fh.read(1):
            raise ValueError("trailing bytes after the NCP1 value blocks")
    return ProcessPath(TimeGrid(times), values, role,
                       mart_part=mart, fv_part=fv)
