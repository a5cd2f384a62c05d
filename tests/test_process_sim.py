"""Process simulation: normalization, law agreement, file IO."""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import nctrace.matrix_alg
from nctrace import buffers, process_sim
from nctrace.matrix_alg import adjoint, hermitian_onb_array, trace_n
from nctrace.process_sim import (
    WIDE_ROW_ENTRIES,
    ProcessPath,
    RngStream,
    TimeGrid,
    hbm_windows,
    kappa_estimate,
    load_ncp1,
    make_fv,
    save_ncp1,
    simulate_hbm,
    simulate_hbm_ensemble,
)
from nctrace.process_sim import (
    _hbm_increments_basis,
    _hbm_increments_entrywise,
)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.2, 0.2]))
    g = TimeGrid.uniform(1.0, 4)
    assert g.mesh == pytest.approx(0.25)
    assert g.steps == 4
    assert g.index_of(0.5) == 2
    with pytest.raises(ValueError):
        g.index_of(0.3)
    assert TimeGrid.from_mesh(1.0, 0.25) == g
    # a mesh that is not positive or does not divide the horizon
    for mesh in (0.0, -0.25, 0.3, 2.0, math.nan):
        with pytest.raises(ValueError, match=f"mesh {mesh}"):
            TimeGrid.from_mesh(1.0, mesh)
    with pytest.raises(ValueError, match="horizon inf"):
        TimeGrid.from_mesh(math.inf, 0.25)


@pytest.mark.parametrize("times, bad", [
    ([0.0, math.nan], "nan"),
    ([0.0, math.inf], "inf"),
    ([0.0, 0.5, math.nan, -math.inf], "nan"),
])
def test_time_grid_rejects_non_finite_times(times, bad):
    with pytest.raises(ValueError, match=f"grid time {bad} is not finite"):
        TimeGrid(np.array(times))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_off_grid_non_finite_times_raise(t):
    # a NaN compares False with the tolerance, as inf - inf is NaN: both
    # were read as grid time 0
    grid = TimeGrid.uniform(1.0, 4)
    with pytest.raises(ValueError, match="is not on the grid"):
        grid.index_of(t)
    path = simulate_hbm(2, grid, RngStream(3, 0))
    with pytest.raises(ValueError, match="is not on the grid"):
        path.at(t)


def test_a_batch_is_a_process_path_with_a_leading_path_axis():
    grid = TimeGrid.uniform(1.0, 4)
    ens = simulate_hbm_ensemble(3, grid, 2, seed=6)
    assert isinstance(ens, ProcessPath) and ens.seed_info == (6, "basis")
    assert ens.values.shape == (2, 5, 3, 3) and ens.n == 3
    assert ens.batch.shape == (2, 5, 3, 3)
    assert ens.at(0.5).tobytes() == ens.values[:, 2].tobytes()
    one = simulate_hbm(3, grid, RngStream(6, 1))
    assert one.batch.shape == (1, 5, 3, 3)
    with pytest.raises(ValueError, match=r"shape \(\.\.\., T, n, n\)"):
        ProcessPath(grid, np.zeros((2, 4, 3, 3)), "martingale")
    with pytest.raises(ValueError, match=r"shape \(\.\.\., T, n, n\)"):
        ProcessPath(grid, np.zeros((2, 5, 3, 2)), "martingale")
    with pytest.raises(ValueError, match=r"shape \(\.\.\., T, n, n\)"):
        ProcessPath(grid, np.zeros((5, 3)), "martingale")


def test_hbm_starts_at_zero_and_is_hermitian():
    grid = TimeGrid.uniform(1.0, 16)
    path = simulate_hbm(4, grid, RngStream(3, 0))
    assert np.all(path.values[0] == 0)
    assert np.max(np.abs(path.values - adjoint(path.values))) < 1e-12
    assert path.role == "martingale"


def test_hbm_reproducible_and_streams_independent():
    grid = TimeGrid.uniform(1.0, 8)
    a = simulate_hbm(3, grid, RngStream(11, 5))
    b = simulate_hbm(3, grid, RngStream(11, 5))
    c = simulate_hbm(3, grid, RngStream(11, 6))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32])
def test_basis_increments_match_dense_basis_product(n, monkeypatch):
    # the scatter writes each coefficient exactly as the dense product
    # coeffs @ basis rounds it, signed zeros included, for every path of a
    # (steps, paths, n, n) block; the steps are unequal, so a block that
    # scaled by another block's steps would differ
    basis = hermitian_onb_array(n).reshape(n * n, n * n)
    for steps in (1, 7, 50):
        dts = np.linspace(0.5, 2.0, steps) / steps
        for paths in (1, 3):
            want = [(RngStream(4, i).generator.standard_normal((steps, n * n))
                     * np.sqrt(dts)[:, None]) @ basis for i in range(paths)]
            # all steps in one block, then one and three steps at a time
            for rows in (steps, 1, 3):
                monkeypatch.setattr(process_sim, "SCATTER_SCRATCH_BYTES",
                                    rows * 8 * paths * (2 * n * n + 1))
                assert process_sim._scatter_rows(n, steps, paths) == min(
                    rows, steps)
                got = np.empty((steps, paths, n, n), dtype=complex)
                _hbm_increments_basis(
                    n, dts, [RngStream(4, i).generator for i in range(paths)],
                    got)
                for i in range(paths):
                    assert got[:, i].tobytes() == want[i].tobytes()


@pytest.mark.parametrize("rows", [1, 7])
def test_whole_paths_scatter_through_a_bounded_scratch(rows, monkeypatch):
    # a scratch of `rows` rows at n = 6 scatters 40 steps in several blocks
    n, grid = 6, TimeGrid.uniform(1.0, 40)
    want = simulate_hbm(n, grid, RngStream(8, 1)).values
    assert process_sim._scatter_rows(n, 40) == 40
    monkeypatch.setattr(process_sim, "SCATTER_SCRATCH_BYTES",
                        rows * 8 * (2 * n * n + 1))
    assert process_sim._scatter_rows(n, 40) == rows
    got = simulate_hbm(n, grid, RngStream(8, 1)).values
    assert got.tobytes() == want.tobytes()
    # and a time-major walk of 3 paths, whose scratch holds each step's
    # rows of all 3: a window of 16 steps goes in blocks of fewer steps
    assert process_sim._scatter_rows(n, 16, 3) == max(1, rows // 3)
    ens = simulate_hbm_ensemble(n, grid, 3, seed=8)
    (walk,) = hbm_windows(n, grid, 3, 8, 3, 16)
    glued = np.concatenate([w if i0 == 0 else w[:, 1:] for i0, _, w in walk],
                           axis=1)
    assert glued.tobytes() == ens.values.tobytes()


@pytest.mark.parametrize("method", ["basis", "entrywise"])
def test_ensemble_paths_equal_single_paths(method):
    grid = TimeGrid.uniform(1.0, 9)
    ens = simulate_hbm_ensemble(5, grid, 3, seed=17, method=method)
    for i in range(3):
        one = simulate_hbm(5, grid, RngStream(17, i), method=method)
        assert ens.values[i].tobytes() == one.values.tobytes()


@pytest.mark.parametrize("method", ["basis", "entrywise"])
def test_chunks_equal_the_ensemble(method):
    # 7 paths in chunks of 3: the last chunk is short
    grid = TimeGrid.uniform(1.0, 9)
    chunks = [values for ((_, _, values),)
              in hbm_windows(4, grid, 7, 23, 3, method=method)]
    assert [len(c) for c in chunks] == [3, 3, 1]
    ens = simulate_hbm_ensemble(4, grid, 7, seed=23, method=method)
    assert np.concatenate(chunks).tobytes() == ens.values.tobytes()
    assert simulate_hbm_ensemble(4, grid, 0, seed=23).values.shape == (
        0, 10, 4, 4)


def _walk(n, steps, paths, chunk, block, method="basis"):
    """The walk's windows, each chunk's checked and glued back into paths."""
    grid = TimeGrid.uniform(1.0, steps)
    T = steps + 1
    glued = []
    for windows in hbm_windows(n, grid, paths, 29, chunk, block, method):
        parts, i1 = [], 0
        for i0, i1_, window in windows:
            assert i0 == i1 and i1_ == min(i0 + block, T)
            assert window.shape[1:] == (i1_ - max(i0, 1) + 1, n, n)
            # each matrix is C-contiguous; a blocked walk of 2 or more
            # paths is time-major, a one-path or whole-path window is
            # C-contiguous
            assert window.strides[2:] == (16 * n, 16)
            if block < T and len(window) > 1:
                assert window.swapaxes(0, 1).flags.c_contiguous
            else:
                assert window.flags.c_contiguous
            # every window equals its adjoint, entry for entry
            assert np.array_equal(window, adjoint(window))
            parts.append(window if i0 == 0 else window[:, 1:])
            i1 = i1_
        assert i1 == T
        glued.append(np.concatenate(parts, axis=1))
    return grid, glued


@pytest.mark.parametrize("n, steps", [(3, 129), (1, 129), (2, 1)])
@pytest.mark.parametrize("block", [1, 2, 63, 64, 65, "T", "T+1"])
def test_window_walk_equals_the_ensemble(n, steps, block):
    T = steps + 1
    block = {"T": T, "T+1": T + 1}.get(block, block)
    # 5 paths in chunks of 2: the last chunk is short
    grid, glued = _walk(n, steps, 5, 2, block)
    assert [len(c) for c in glued] == [2, 2, 1]
    ens = simulate_hbm_ensemble(n, grid, 5, seed=29)
    assert np.concatenate(glued).tobytes() == ens.values.tobytes()


def test_a_blocked_walk_holds_only_its_window_between_windows(buffers_used):
    # the scatter scratch is made after each window and dropped at once, so
    # while the caller works on a window with 3 arrays of its own, the walk
    # holds no other buffer (a scratch kept through the walk made this 5);
    # at n = 16 and 4 paths the scratch fits in a recycled buffer
    grid = TimeGrid.uniform(1.0, 3 * 64)

    def study():
        with buffers.recycled((4, 65, 16, 16)):
            (walk,) = hbm_windows(16, grid, 4, 0, 4, 64)
            for _, _, window in walk:
                work = [buffers.empty(window.shape) for _ in range(3)]
                del window, work

    assert buffers_used(study) == 4


def test_a_blocked_walk_lets_go_of_its_window_before_the_next(buffers_used):
    # with one caller array the window and the array are all the walk and
    # the caller hold; a walk that kept the window before while it made the
    # next one read 3
    grid = TimeGrid.uniform(1.0, 3 * 64)

    def study():
        with buffers.recycled((4, 65, 16, 16)):
            (walk,) = hbm_windows(16, grid, 4, 0, 4, 64)
            for _, _, window in walk:
                work = buffers.empty(window.shape)
                del window, work

    assert buffers_used(study) == 2


# n = 3 sums with np.cumsum, n = 33 one grid point at a time
@pytest.mark.parametrize("n", [3, 33])
@pytest.mark.parametrize("block", [1, 2, 64, "T"])
def test_window_walk_sums_like_cumsum(n, block):
    assert 3 * 3 < WIDE_ROW_ENTRIES <= 33 * 33
    steps = 129
    block = steps + 1 if block == "T" else block
    grid, glued = _walk(n, steps, 3, 2, block)
    dts = np.diff(grid.times)
    for i, got in enumerate(np.concatenate(glued)):
        inc = np.empty((steps, n, n), dtype=complex)
        _hbm_increments_basis(n, dts, [RngStream(29, i).generator],
                              inc[:, None])
        want = np.concatenate([np.zeros((1, n, n)), np.cumsum(inc, axis=0)])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["basis", "entrywise"])
def test_n16_whole_path_sums_alike_on_either_side_of_the_threshold(
        method, monkeypatch):
    # n = 16 has 256 entries: the smallest n summed one grid point at a time
    grid = TimeGrid.uniform(1.0, 40)
    walks = []
    for threshold in (16 * 16, 16 * 16 + 1):
        monkeypatch.setattr(process_sim, "WIDE_ROW_ENTRIES", threshold)
        walks.append(simulate_hbm(16, grid, RngStream(31, 2), method).values)
    assert walks[0].tobytes() == walks[1].tobytes()


def test_entrywise_walks_whole_paths_only():
    grid, glued = _walk(4, 9, 3, 2, 10, "entrywise")
    ens = simulate_hbm_ensemble(4, grid, 3, seed=29, method="entrywise")
    assert np.concatenate(glued).tobytes() == ens.values.tobytes()
    for block in (1, 9):
        with pytest.raises(ValueError, match="whole paths"):
            hbm_windows(4, grid, 3, 29, 2, block, "entrywise")
    with pytest.raises(ValueError):
        hbm_windows(4, grid, 3, 29, 2, 0)


@pytest.mark.parametrize("n", [3, 16])
def test_resumed_walk_equals_the_uninterrupted_walk(n):
    # 3 windows of 64 points and a short fourth; 5 paths in chunks of 3
    grid = TimeGrid.uniform(1.0, 3 * 64 + 6)
    for walk in hbm_windows(n, grid, 5, 37, 3, 64):
        starts, windows = [walk.start()], []
        for i0, i1, window in walk:
            windows.append((i0, i1, window.tobytes()))
            starts.append(walk.start())
        assert [s.i0 for s in starts] == [0, 64, 128, 192, 199]
        for j, start in enumerate(starts):
            got = [(i0, i1, window.tobytes())
                   for i0, i1, window in walk.resumed(start)]
            assert got == windows[j:]
        # a resumed walk stops at the window end it is given
        stopped = [(i0, i1, window.tobytes())
                   for i0, i1, window in walk.resumed(starts[1], 192)]
        assert stopped == windows[1:3]


def _entrywise_reference(n, dts, rng):
    """The entrywise increments as two full complex temporaries made them."""
    steps = len(dts)
    sd = np.sqrt(dts)
    diag = rng.standard_normal((steps, n)) * sd[:, None]
    re = rng.standard_normal((steps, n, n))
    im = rng.standard_normal((steps, n, n))
    h = np.zeros((steps, n, n), dtype=complex)
    iu = np.triu_indices(n, k=1)
    g = (re[:, iu[0], iu[1]] + 1j * im[:, iu[0], iu[1]]) / np.sqrt(2.0)
    h[:, iu[0], iu[1]] = g * sd[:, None]
    h[:, iu[1], iu[0]] = np.conj(g) * sd[:, None]
    h[:, np.arange(n), np.arange(n)] = diag
    return h / np.sqrt(n)


# sqrt(n) is a power of two at n = 1, 4, 16 and 256, where multiplying by
# 1/sqrt(n) and dividing by sqrt(n) round alike; n = 3 tells them apart
@pytest.mark.parametrize("n", [1, 3, 4, 16, 256])
def test_entrywise_increments_match_the_complex_formula(n):
    steps = 2 if n == 256 else 7
    dts = np.diff(TimeGrid.uniform(1.0, steps).times)
    got = np.empty((steps, n, n), dtype=complex)
    _hbm_increments_entrywise(n, dts, RngStream(6, n).generator, got)
    want = _entrywise_reference(n, dts, RngStream(6, n).generator)
    assert got.tobytes() == want.tobytes()


def test_hbm_large_n_builds_no_dense_basis(monkeypatch):
    def refuse(n):
        raise AssertionError("the sampler must not build the dense basis")

    monkeypatch.setattr(nctrace.matrix_alg, "hermitian_onb_array", refuse)
    n = 256
    path = simulate_hbm(n, TimeGrid.uniform(1.0, 2), RngStream(0, 0))
    x1 = path.values[-1]
    assert np.array_equal(x1, adjoint(x1))
    assert abs(trace_n(x1 @ x1).real - 1.0) < 0.05


def test_hbm_argument_errors():
    grid = TimeGrid.uniform(1.0, 2)
    with pytest.raises(ValueError):
        simulate_hbm(0, grid, RngStream(0))
    with pytest.raises(ValueError):
        simulate_hbm_ensemble(2, grid, 1, seed=0, method="spectral")
    for chunk in (0, -1):
        with pytest.raises(ValueError, match="chunk needs at least one path"):
            hbm_windows(2, grid, 3, 0, chunk)


def test_hbm_increment_normalization():
    # E tr_n((X(1) - X(0))^2) = 1, the basis-sum construction oracle
    grid = TimeGrid.uniform(1.0, 2)
    ens = simulate_hbm_ensemble(8, grid, 4000, seed=5)
    est, se = kappa_estimate(ens, 0.0, 1.0)
    assert abs(est - 1.0) <= 3 * se
    est_half, se_half = kappa_estimate(ens, 0.5, 1.0)
    assert abs(est_half - 0.5) <= 3 * se_half


def test_hbm_methods_agree_in_law():
    # two-sample moment test on tr_n(X(1)^2) and tr_n(X(1)^4)
    grid = TimeGrid.uniform(1.0, 1)
    n, paths = 6, 3000
    ens_b = simulate_hbm_ensemble(n, grid, paths, seed=21, method="basis")
    ens_e = simulate_hbm_ensemble(n, grid, paths, seed=22, method="entrywise")
    for power in (2, 4):
        def stat(ens):
            x = ens.values[:, -1]
            m = x
            for _ in range(power - 1):
                m = m @ x
            vals = np.einsum("pii->p", m).real / n
            return np.mean(vals), np.std(vals, ddof=1) / math.sqrt(paths)
        mb, sb = stat(ens_b)
        me, se = stat(ens_e)
        assert abs(mb - me) <= 3 * math.hypot(sb, se)


def test_entrywise_variances():
    # diag and offdiag entries both have variance t/n
    grid = TimeGrid.uniform(1.0, 1)
    ens = simulate_hbm_ensemble(4, grid, 4000, seed=9, method="entrywise")
    x1 = ens.values[:, -1]
    vd = np.var(x1[:, 0, 0].real)
    vo = np.var(x1[:, 0, 1].real) + np.var(x1[:, 0, 1].imag)
    assert vd == pytest.approx(0.25, rel=0.15)
    assert vo == pytest.approx(0.25, rel=0.15)


def test_make_fv_scalar_and_variation():
    grid = TimeGrid.uniform(1.0, 100)
    path = make_fv(grid, 3, g=lambda t: t)
    assert np.allclose(path.values[-1], np.eye(3))
    # g(t) = t moves by mesh * I each step; a constant g never moves
    assert np.allclose(np.diff(path.values, axis=0), np.eye(3) / 100)
    const = make_fv(grid, 3, g=lambda t: 2.0)
    assert not np.any(np.diff(const.values, axis=0))


def test_martingale_pythagoras():
    grid = TimeGrid.uniform(1.0, 8)
    ens = simulate_hbm_ensemble(5, grid, 3000, seed=31)
    rng = np.random.default_rng(7)
    times = grid.times
    for _ in range(10):
        i, j = sorted(rng.choice(len(times) - 1, size=2, replace=False) + 1)
        s, t = times[i], times[j]
        full, se_full = kappa_estimate(ens, 0.0, t)
        head, se_head = kappa_estimate(ens, 0.0, s)
        tail, se_tail = kappa_estimate(ens, s, t)
        se = math.sqrt(se_full**2 + se_head**2 + se_tail**2)
        assert abs(full - head - tail) <= 3 * se


def test_kappa_errors():
    grid = TimeGrid.uniform(1.0, 2)
    ens = simulate_hbm_ensemble(2, grid, 10, seed=1)
    with pytest.raises(ValueError):
        kappa_estimate(ens, 0.5, 0.5)


def test_kappa_on_one_path_raises_naming_the_path_count():
    # one path has no standard error: ddof=1 would give NaN and a warning
    ens = simulate_hbm_ensemble(2, TimeGrid.uniform(1.0, 2), 1, seed=1)
    with pytest.raises(ValueError, match="at least 2 paths, got 1"):
        kappa_estimate(ens, 0.0, 1.0)


def test_kappa_reads_one_path_as_a_batch_of_one():
    # a (T, n, n) path raised AttributeError (no n_paths)
    path = simulate_hbm(2, TimeGrid.uniform(1.0, 2), RngStream(1, 0))
    with pytest.raises(ValueError, match="at least 2 paths, got 1"):
        kappa_estimate(path, 0.0, 1.0)


def test_ncp1_round_trip(tmp_path):
    grid = TimeGrid.uniform(1.0, 7)
    path = simulate_hbm(3, grid, RngStream(4, 2))
    f = tmp_path / "path.ncp1"
    save_ncp1(path, str(f))
    back = load_ncp1(str(f))
    assert back.role == "martingale"
    assert np.array_equal(back.grid.times, path.grid.times)
    assert back.values.tobytes() == path.values.tobytes()
    # writing the loaded path again is byte-identical
    f2 = tmp_path / "path2.ncp1"
    save_ncp1(back, str(f2))
    assert f.read_bytes() == f2.read_bytes()


def _decomposable_path(seed: int = 8) -> ProcessPath:
    grid = TimeGrid.uniform(1.0, 5)
    mart = simulate_hbm(2, grid, RngStream(seed, 0)).values
    fv = make_fv(grid, 2, g=lambda t: t).values
    fv = fv - fv[0]
    return ProcessPath(grid, mart + fv, "decomposable",
                       mart_part=mart, fv_part=fv)


def test_ncp1_decomposable_round_trip(tmp_path):
    path = _decomposable_path()
    f = tmp_path / "decomp.ncp1"
    save_ncp1(path, str(f))
    back = load_ncp1(str(f))
    assert back.role == "decomposable"
    assert np.array_equal(back.mart_part, path.mart_part)
    assert np.array_equal(back.fv_part, path.fv_part)


def _role_path(role: str, seed: int) -> ProcessPath:
    if role == "decomposable":
        return _decomposable_path(seed)
    return simulate_hbm(3, TimeGrid.uniform(1.0, 7), RngStream(seed, 2))


# the file a path is saved over, by its size against the new one's: another
# n and T, or the same role and shape from another seed
_OLD_FILES = {
    "longer": (1, lambda role: simulate_hbm(4, TimeGrid.uniform(2.0, 10),
                                            RngStream(1))),
    "shorter": (-1, lambda role: simulate_hbm(1, TimeGrid.uniform(0.5, 2),
                                              RngStream(1))),
    "same-size": (0, lambda role: _role_path(role, seed=9)),
}


@pytest.mark.parametrize("old", sorted(_OLD_FILES))
@pytest.mark.parametrize("role", ["martingale", "decomposable"])
def test_ncp1_save_over_a_file_writes_the_bytes_of_a_fresh_one(
        tmp_path, role, old):
    path = _role_path(role, seed=4)
    fresh = tmp_path / "fresh.ncp1"
    save_ncp1(path, str(fresh))
    want = fresh.read_bytes()
    f = tmp_path / "over.ncp1"
    sign, old_path = _OLD_FILES[old]
    save_ncp1(old_path(role), str(f))
    before = f.read_bytes()
    assert np.sign(len(before) - len(want)) == sign
    save_ncp1(path, str(f))
    assert f.read_bytes() == want != before
    back = load_ncp1(str(f))
    assert back.role == role
    assert back.grid == path.grid
    assert back.values.tobytes() == path.values.tobytes()
    if role == "decomposable":
        assert back.mart_part.tobytes() == path.mart_part.tobytes()
        assert back.fv_part.tobytes() == path.fv_part.tobytes()


def test_ncp1_save_to_devnull():
    # a character device cannot be cut to length; nothing is cut there
    save_ncp1(_role_path("martingale", seed=4), os.devnull)


def test_ncp1_save_refuses_a_batch_before_opening_the_file(tmp_path):
    # the header has no path count, so a batch would not read back
    ens = simulate_hbm_ensemble(2, TimeGrid.uniform(1.0, 3), 2, seed=4)
    f = tmp_path / "batch.ncp1"
    with pytest.raises(ValueError, match="one path, not"):
        save_ncp1(ens, str(f))
    assert not f.exists()


def test_ncp1_interrupted_rewrite_is_not_an_ncp1_file(tmp_path,
                                                      tear_ncp1_writes):
    # a rewrite that stops half way through the value block, over a good
    # file of the same shape: the old file's magic must not survive it
    f = str(tmp_path / "torn.ncp1")
    save_ncp1(_role_path("martingale", seed=9), f)
    assert load_ncp1(f).n == 3
    tear_ncp1_writes()
    with pytest.raises(OSError):
        save_ncp1(_role_path("martingale", seed=4), f)
    with pytest.raises(ValueError, match="^not an NCP1 file$"):
        load_ncp1(f)


def _ncp1_bytes(tmp_path, role="martingale") -> bytes:
    f = tmp_path / "good.ncp1"
    if role == "decomposable":
        path = _decomposable_path()
    else:
        path = simulate_hbm(2, TimeGrid.uniform(1.0, 3), RngStream(0))
    save_ncp1(path, str(f))
    return f.read_bytes()


# the header is 13 bytes; a martingale file has 4 times of 8 bytes and a
# value block of 4 * 64 bytes; the part blocks are cut from a decomposable
# file, with 6 times and three value blocks of 6 * 64 bytes
@pytest.mark.parametrize("cut, block", [
    (7, "header"),
    (13 + 10, "times block"),
    (-3, "value block"),
    (13 + 48 + 384 + 100, "martingale-part block"),
    (-3, "FV-part block"),
])
def test_ncp1_truncated_block_is_named(tmp_path, cut, block):
    role = "decomposable" if block.endswith("part block") else "martingale"
    f = tmp_path / "cut.ncp1"
    f.write_bytes(_ncp1_bytes(tmp_path, role)[:cut])
    with pytest.raises(ValueError, match=f"truncated NCP1 {block}"):
        load_ncp1(str(f))


def test_ncp1_short_read_is_a_truncated_block(tmp_path, monkeypatch):
    # a file shorter than its size said: the read itself comes up short
    f = tmp_path / "cut.ncp1"
    f.write_bytes(_ncp1_bytes(tmp_path)[:-3])
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
        st_size=fstat(fd).st_size + 3))
    with pytest.raises(ValueError, match="truncated NCP1 value block: "
                                         "expected 256 bytes, found 253"):
        load_ncp1(str(f))


def test_ncp1_rejects_trailing_bytes(tmp_path):
    f = tmp_path / "long.ncp1"
    f.write_bytes(_ncp1_bytes(tmp_path) + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_ncp1(str(f))


def test_ncp1_rejects_non_finite_times(tmp_path):
    # the times block begins after the 13-byte header, t_1 at byte 21
    data = bytearray(_ncp1_bytes(tmp_path))
    data[21:29] = np.array([math.nan], "<f8").tobytes()
    f = tmp_path / "nan.ncp1"
    f.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="grid time nan is not finite"):
        load_ncp1(str(f))


def test_ncp1_rejects_dimension_zero(tmp_path):
    f = tmp_path / "empty.ncp1"
    f.write_bytes(process_sim._HEADER.pack(b"NCP1", 0, 2, 0)
                  + np.array([0.0, 1.0], "<f8").tobytes())
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        load_ncp1(str(f))


def test_ncp1_rejects_garbage(tmp_path):
    f = tmp_path / "bad.ncp1"
    f.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(ValueError):
        load_ncp1(str(f))


# n = 64 over 100 steps: the sim_io path, 6.6 MB of values
MEM_N, MEM_STEPS = 64, 100
PATH_BYTES = (MEM_STEPS + 1) * MEM_N**2 * 16
# the carried point and its copy, with room for small temporaries
SMALL_BYTES = 4 * MEM_N**2 * 16


def test_simulate_holds_the_path_and_one_scratch(traced_peak):
    grid = TimeGrid.uniform(1.0, MEM_STEPS)
    # the scatter map is built once per n and cached; build it first
    simulate_hbm(MEM_N, TimeGrid.uniform(1.0, 1), RngStream(0))
    scratch_bytes = process_sim.SCATTER_SCRATCH_BYTES
    peak = traced_peak(lambda: simulate_hbm(
        MEM_N, grid, RngStream(0)).values[-1, 0, 0].real)
    assert peak <= PATH_BYTES + scratch_bytes + SMALL_BYTES


def test_ncp1_io_makes_no_copy_of_the_path(tmp_path, traced_peak):
    path = simulate_hbm(MEM_N, TimeGrid.uniform(1.0, MEM_STEPS), RngStream(0))
    f = str(tmp_path / "path.ncp1")

    def save():
        save_ncp1(path, f)
        return os.path.getsize(f)

    assert traced_peak(save) <= SMALL_BYTES
    # reading makes the result and nothing the size of a path beside it
    assert traced_peak(
        lambda: load_ncp1(f).values[-1, 0, 0].real) <= PATH_BYTES + SMALL_BYTES


def test_ncp1_rewrite_makes_no_copy_of_the_path(tmp_path, traced_peak):
    path = simulate_hbm(MEM_N, TimeGrid.uniform(1.0, MEM_STEPS), RngStream(0))
    f = str(tmp_path / "path.ncp1")
    save_ncp1(path, f)

    def save_again():
        save_ncp1(path, f)
        return os.path.getsize(f)

    assert traced_peak(save_again) <= SMALL_BYTES
