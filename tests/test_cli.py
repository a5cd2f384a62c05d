"""CLI driver: subcommand behavior, config handling, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nctrace
from nctrace import cli
from nctrace.cli import COMMANDS, build_parser, main
from nctrace.process_sim import load_ncp1


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_diff_golden(capsys):
    rc, out, _ = run(
        capsys, "diff",
        "--expr", "x1 x2 x2' x3 + 3i tr(x1 x2') x2 + x1' x3^2 + 5",
        "--var", "x2",
    )
    assert rc == 0
    assert out.strip() == ("x1 x2 y1' x3 + x1 y1 x2' x3"
                           " + 3i tr(x1 x2') y1 + 3i tr(x1 y1') x2")


def test_diff_order(capsys):
    rc, out, _ = run(capsys, "diff", "--expr", "x1^2", "--order", "2")
    assert rc == 0
    assert out.strip() == "y1 y2 + y2 y1"


def test_diff_errors(capsys):
    rc, _, err = run(capsys, "diff", "--expr", "x1 +", "--var", "x1")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "diff", "--expr", "x1", "--var", "q7")
    assert rc == 2
    rc, _, err = run(capsys, "diff", "--expr", "x1")
    assert rc == 2


@pytest.mark.parametrize("var", [[], ["--var", "x1"]], ids=["no-var", "var"])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_diff_order_0_is_an_order(tmp_path, capsys, given, var):
    # an order of 0 is given, not missing: derive_k rejects it, with --var
    # or without
    if given == "flag":
        order = ["--order", "0"]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"order": 0}))
        order = ["--config", str(cfg)]
    rc, out, err = run(capsys, "diff", "--expr", "x1^2", *var, *order)
    assert rc == 2 and out == ""
    assert err == "error: derivative order must be >= 1\n"


def test_eval_diagonal(tmp_path, capsys):
    m = np.diag([1.0, 2.0])
    mats = tmp_path / "m.json"
    mats.write_text(json.dumps(
        {"bindings": {"1": np.stack([m, 0 * m], axis=-1).tolist()}}))
    rc, out, _ = run(capsys, "eval", "--expr", "x1^2 + tr(x1)",
                     "--matrices", str(mats))
    assert rc == 0
    got = np.asarray(json.loads(out))
    want = m @ m + np.trace(m) / 2 * np.eye(2)
    assert np.allclose(got[..., 0], want) and np.allclose(got[..., 1], 0)


def test_eval_prints_strict_json_with_null_for_non_finite_parts(tmp_path,
                                                                capsys):
    mats = tmp_path / "m.json"
    mats.write_text(json.dumps({"bindings": {"1": [[1e308, 0], [0, 2]]}}))
    rc, out, _ = run(capsys, "eval", "--expr", "x1^2",
                     "--matrices", str(mats))
    assert rc == 0

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    # the overflowed entry's parts are inf and NaN
    assert json.loads(out, parse_constant=reject) == [
        [[None, None], [0.0, 0.0]], [[0.0, 0.0], [4.0, 0.0]]]


def test_eval_overflow_prints_no_warning(tmp_path, capsys):
    mats = tmp_path / "m.json"
    mats.write_text(json.dumps({"bindings": {"1": [[1e308, 0], [0, 2]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "eval", "--expr", "x1^2 + tr(x1) x1",
                           "--matrices", str(mats))
    assert rc == 0 and err == ""
    assert json.loads(out)[0][0] == [None, None]


def test_eval_missing_file(capsys):
    rc, _, err = run(capsys, "eval", "--expr", "x1", "--matrices", "/nope")
    assert rc == 2


def _eval_matrices(tmp_path):
    mats = tmp_path / "m.json"
    mats.write_text(json.dumps({"bindings": {"1": [[1.0, 0.0], [0.0, 2.0]]}}))
    return str(mats)


def test_eval_rejects_the_trace_mode_flag(tmp_path, capsys):
    # trace factors always reduce to one tr_n per leading index
    with pytest.raises(SystemExit) as e:
        main(["eval", "--expr", "tr(x1^2)", "--matrices",
              _eval_matrices(tmp_path), "--trace-mode", "ensemble"])
    assert e.value.code == 2
    assert "--trace-mode" in capsys.readouterr().err


def test_eval_config_with_trace_mode_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"trace_mode": "ensemble"}))
    rc, out, err = run(capsys, "eval", "--expr", "tr(x1^2)", "--matrices",
                       _eval_matrices(tmp_path), "--config", str(cfg))
    assert rc == 2 and "unknown config keys: trace_mode" in err
    assert out == ""


# the config keys of each subcommand, each of which is also its one flag
_CONFIG_KEYS = {
    "diff": {"expr", "var", "order"},
    "eval": {"expr", "matrices"},
    "sim": {"n", "T", "mesh", "paths", "seed", "out", "method"},
    "qc": {"n", "paths", "seed", "meshes"},
    "ito": {"poly", "n", "paths", "seed", "meshes"},
    "bdg": {"n", "paths", "seed", "mesh", "p", "t"},
    "isometry": {"n", "paths", "seed", "mesh", "t", "expr"},
    "esd": {"n", "seed", "t", "threshold"},
    "selftest": {"seed", "checks"},
}
_REPORT_WRITERS = {"qc", "ito", "bdg", "isometry", "esd", "selftest"}


def test_each_flag_is_a_config_key_and_only_report_writers_write_reports():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_CONFIG_KEYS)
    for name, sub in subparsers.choices.items():
        flags = {f for a in sub._actions for f in a.option_strings
                 if f not in ("-h", "--help")}
        want = {"--config"} | {f"--{k}" for k in _CONFIG_KEYS[name]}
        if name in _REPORT_WRITERS:
            want |= {"--json", "--csv"}
        assert flags == want, name
        assert set(COMMANDS[name].defaults) == _CONFIG_KEYS[name], name


@pytest.mark.parametrize("argv", [
    ["diff", "--expr", "x1^2", "--var", "x1", "--json", "F"],
    ["diff", "--expr", "x1^2", "--var", "x1", "--seed", "1"],
    ["eval", "--expr", "x1", "--matrices", "M", "--seed", "1"],
    ["eval", "--expr", "x1", "--matrices", "M", "--csv", "F"],
    ["sim", "--n", "2", "--mesh", "0.5", "--out", "P", "--json", "F"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    out.mkdir()
    names = {"F": str(out / "f"), "P": str(out / "p"),
             "M": _eval_matrices(tmp_path)}
    with pytest.raises(SystemExit) as e:
        main([names.get(a, a) for a in argv])
    assert e.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("cmd", ["diff", "eval"])
def test_a_seed_in_the_config_of_diff_or_eval_exits_2(tmp_path, capsys, cmd):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1}))
    argv = (["diff", "--expr", "x1^2", "--var", "x1"] if cmd == "diff" else
            ["eval", "--expr", "x1", "--matrices", _eval_matrices(tmp_path)])
    rc, out, err = run(capsys, *argv, "--config", str(cfg))
    assert rc == 2 and "unknown config keys: seed" in err
    assert out == ""


def test_sim_with_an_unknown_method_exits_2(tmp_path, capsys):
    try:
        rc = main(["sim", "--n", "2", "--mesh", "0.5", "--method", "foo",
                   "--out", str(tmp_path / "p")])
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    assert rc == 2 and "'foo'" in err
    assert out == "" and not list(tmp_path.iterdir())


_ITO_SMALL = ["ito", "--n", "2", "--paths", "1", "--meshes", "0.5,0.25,0.125"]


@pytest.mark.parametrize("argv, suffix", [
    (["sim", "--n", "2", "--mesh", "0.5", "--out"], "_0000.ncp1"),
    ([*_ITO_SMALL, "--json"], ""),
    ([*_ITO_SMALL, "--csv"], ""),
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, suffix):
    target = tmp_path / "missing" / "r"
    rc, _, err = run(capsys, *argv, str(target))
    assert rc == 2
    assert err == (f"error: cannot write {target}{suffix}: "
                   "No such file or directory\n")


def test_sim_byte_identical(tmp_path, capsys):
    args = ["sim", "--n", "6", "--T", "1", "--mesh", "0.01",
            "--paths", "2", "--seed", "7"]
    rc1, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    rc2, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert rc1 == rc2 == 0
    for i in range(2):
        a = (tmp_path / f"a_{i:04d}.ncp1").read_bytes()
        b = (tmp_path / f"b_{i:04d}.ncp1").read_bytes()
        assert a == b
        p = load_ncp1(tmp_path / f"a_{i:04d}.ncp1")
        assert p.values.shape == (101, 6, 6)


# SHA-256 of the NCP1 files written by ``nctrace sim --mesh 0.05 --paths 2``
# with the dense-basis sampler, keyed (n, seed, path index).  The O(n^2)
# scatter must reproduce them byte for byte.
SIM_SHA256 = {
    (1, 0, 0): "3405c1a99078bf2667dccb631760c253e25369179e27bf1fc509d66f354784cc",
    (1, 0, 1): "613d185760bbfc17609155e1ef395cede7c81b75993249d787b6c57eefcdac92",
    (1, 5, 0): "28c6d0fa81634061339ecb72bddd0f6419d13e790d850132c9dca52fae2dd1a4",
    (1, 5, 1): "09c78a88fadf903d49e90b6c8c783b2898d4122285088a8fd78d802b55f36e96",
    (2, 0, 0): "d4eafe3b20160ecb9c125f9a2b0065d4bbdbc1b0c240e5b409b3125ad515e693",
    (2, 0, 1): "d2bad62f7466bdd2e61865ae0852d3d823e77768068c0f9fe7ae994b974979d6",
    (2, 5, 0): "c63d671dfea7624a6341c40d6e02ac1641d1abf70dd98b4cdd2d11ad94e7887e",
    (2, 5, 1): "c68311f818a52e6b37fc070c31c98f0cce76d30f61040dfd66081ffcc97a8a58",
    (8, 0, 0): "3d64fa17521b65dda547f6916215201e3de7abf2edba83fc059879925d35277d",
    (8, 0, 1): "80123db427087286267efdef975c269d258fa1fec4b24b730801573318a0b7a7",
    (8, 5, 0): "e2b5e2a14d06fc632988b23a444d9a628c424be3abe75c5de599400964f35161",
    (8, 5, 1): "21887e40ed52d431888919f9dbc995cb4fa59befc348e6d3dd0bfced4d74cda0",
    (16, 0, 0): "04a368e9f96e68ca533d48aa11741ace59bcd510448514d8d93ce709edbc5e80",
    (16, 0, 1): "1a05b3fb22aa1bbf7f485faba15e92257c734036da1557b53be7ecb61f56e53d",
    (16, 5, 0): "70c7f1c071472ac97f5a33d39ca59cdcf0ec7901425e390d25c0f690cacc0dd3",
    (16, 5, 1): "2e07c87db0c375afaae74286bca9df3238cc99e97100accfd2200c4ce9956694",
    (32, 0, 0): "d408e382b7187181ed8ac2b7d71008ec6824ff4152d2f20236810b66df81c002",
    (32, 0, 1): "95d63174695e094df68bdeecada7483933b31ad77fad98feb32d40bed171f07d",
    (32, 5, 0): "24aef518ae621546e7c8c264a5de1a2eeb4d9d284b7955b6b54fe8c00f5226ac",
    (32, 5, 1): "2e071627d6858cc143638d4dd221765c0a149e4ff9208388d7d6556e137100e4",
}


@pytest.mark.parametrize("n", sorted({k[0] for k in SIM_SHA256}))
def test_sim_matches_recorded_ncp1_hashes(tmp_path, capsys, n):
    for seed in sorted({k[1] for k in SIM_SHA256 if k[0] == n}):
        prefix = tmp_path / f"n{n}_s{seed}"
        rc, _, _ = run(capsys, "sim", "--n", str(n), "--mesh", "0.05",
                       "--paths", "2", "--seed", str(seed),
                       "--out", str(prefix))
        assert rc == 0
        for i in range(2):
            data = (tmp_path / f"n{n}_s{seed}_{i:04d}.ncp1").read_bytes()
            assert hashlib.sha256(data).hexdigest() == SIM_SHA256[n, seed, i]


# the first run's files are as long as the second's, longer or shorter
@pytest.mark.parametrize("first_n", [8, 16, 2])
def test_sim_over_earlier_files_matches_recorded_ncp1_hashes(
        tmp_path, capsys, first_n):
    prefix = str(tmp_path / "p")
    for n, seed in ((first_n, 5), (8, 0)):
        rc, _, _ = run(capsys, "sim", "--n", str(n), "--mesh", "0.05",
                       "--paths", "2", "--seed", str(seed), "--out", prefix)
        assert rc == 0
    for i in range(2):
        data = (tmp_path / f"p_{i:04d}.ncp1").read_bytes()
        assert hashlib.sha256(data).hexdigest() == SIM_SHA256[8, 0, i]


def test_sim_interrupted_over_an_earlier_file_exits_2(
        tmp_path, capsys, tear_ncp1_writes):
    prefix = str(tmp_path / "p")
    args = ["sim", "--n", "4", "--mesh", "0.05", "--paths", "1",
            "--out", prefix]
    assert run(capsys, *args, "--seed", "1")[0] == 0
    tear_ncp1_writes()
    rc, out, err = run(capsys, *args, "--seed", "2")
    assert rc == 2 and out == ""
    assert err == (f"error: cannot write {prefix}_0000.ncp1: "
                   "No space left on device\n")
    with pytest.raises(ValueError, match="^not an NCP1 file$"):
        load_ncp1(prefix + "_0000.ncp1")


def test_sim_large_n(tmp_path, capsys):
    rc, _, _ = run(capsys, "sim", "--n", "256", "--mesh", "0.5",
                   "--paths", "1", "--out", str(tmp_path / "big"))
    assert rc == 0
    assert load_ncp1(tmp_path / "big_0000.ncp1").values.shape == (3, 256, 256)


def test_sim_independent_of_blas_threads(tmp_path):
    # the sampler uses no BLAS, so its files cannot depend on BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(nctrace.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    files = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        prefix = tmp_path / f"t{threads}"
        subprocess.run(
            [sys.executable, "-m", "nctrace.cli", "sim", "--n", "8",
             "--mesh", "0.05", "--paths", "2", "--seed", "3",
             "--out", str(prefix)],
            env=env, check=True, capture_output=True)
        files.append([(tmp_path / f"t{threads}_{i:04d}.ncp1").read_bytes()
                      for i in range(2)])
    assert files[0] == files[1]


def test_sim_seed_changes_output(tmp_path, capsys):
    base = ["sim", "--n", "4", "--T", "0.5", "--mesh", "0.05", "--paths", "1"]
    run(capsys, *base, "--seed", "1", "--out", str(tmp_path / "s1"))
    run(capsys, *base, "--seed", "2", "--out", str(tmp_path / "s2"))
    a = (tmp_path / "s1_0000.ncp1").read_bytes()
    b = (tmp_path / "s2_0000.ncp1").read_bytes()
    assert a != b


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "paths": 60, "mesh": 0.05}))
    out_csv = tmp_path / "bdg.csv"
    rc, _, _ = run(capsys, "bdg", "--config", str(cfg), "--seed", "9",
                   "--csv", str(out_csv))
    assert rc == 0
    header, row = out_csv.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["n"] == "6" and cols["paths"] == "60" and cols["seed"] == "9"


def test_main_builds_one_parser_and_calls_share_no_parsed_value(
        tmp_path, capsys, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    nctrace.cli._parser.cache_clear()
    monkeypatch.setattr(nctrace.cli, "build_parser", counting)
    try:
        small = ["ito", "--n", "2", "--paths", "3",
                 "--meshes", "0.5,0.25,0.125"]
        out_json = tmp_path / "first.json"
        rc, out, _ = run(capsys, *small, "--poly", "x1^4", "--seed", "3",
                         "--json", str(out_json))
        assert rc == 0 and not out
        (first,) = json.loads(out_json.read_text())
        assert first["config"]["seed"] == 3
        assert first["config"]["poly"] == "x1^4"
        # the second call sets neither flag: it takes the defaults and
        # prints its report, as a call in a fresh process would
        out_json.unlink()
        rc, out, _ = run(capsys, *small)
        assert rc == 0 and not out_json.exists()
        (second,) = json.loads(out.replace("Infinity", "null"))
        assert second["config"]["seed"] == 0
        assert second["config"]["poly"] == "x1^2"
        assert built == [1]
    finally:
        nctrace.cli._parser.cache_clear()


def test_config_errors(tmp_path, capsys):
    rc, _, err = run(capsys, "bdg", "--config", str(tmp_path / "missing"))
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    rc, _, _ = run(capsys, "bdg", "--config", str(bad))
    assert rc == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"pahts": 5}))
    rc, _, err = run(capsys, "ito", "--config", str(cfg))
    assert rc == 2 and "pahts" in err


@pytest.mark.parametrize("cmd, config", [
    ("bdg", {"n": None}),
    ("ito", {"meshes": 5}),
    ("qc", {"paths": [3]}),
    ("selftest", {"checks": 5}),
    ("selftest", {"checks": [5]}),
    ("bdg", {"n": True}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, cmd,
                                                config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = run(capsys, cmd, "--config", str(cfg))
    key = next(iter(config))
    assert rc == 2 and f"config key '{key}'" in err
    assert out == ""


def test_config_takes_null_where_the_default_is_null(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"checks": None, "seed": 1}))
    rc, out, _ = run(capsys, "selftest", "--config", str(cfg),
                     "--checks", "golden_partial")
    assert rc == 0 and "PASS  golden_partial" in out


def test_meshes_must_divide_the_horizon(capsys):
    # 1/0.3 is not a whole number of steps: the grid's mesh would be 1/3
    rc, _, err = run(capsys, "ito", "--n", "4", "--paths", "2",
                     "--meshes", "0.3,0.2,0.1")
    assert rc == 2 and "0.3" in err
    rc, _, err = run(capsys, "qc", "--n", "4", "--paths", "2",
                     "--meshes", "0.3,0.2,0.1")
    assert rc == 2 and "0.3" in err
    rc, _, err = run(capsys, "qc", "--meshes", "0,0.2,0.1")
    assert rc == 2


@pytest.mark.parametrize("mesh", ["0", "-1", "0.3"])
@pytest.mark.parametrize("cmd", ["bdg", "isometry", "sim"])
def test_bad_mesh_exits_2(tmp_path, capsys, cmd, mesh):
    # 0 divided by zero, -1 ran one step and 0.3 ran the mesh 1/3
    argv = [cmd, "--n", "3", "--paths", "2", "--mesh", mesh]
    if cmd == "sim":
        argv += ["--out", str(tmp_path / "p")]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and f"mesh {float(mesh)}" in err
    assert out == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["ito", "--n", "3", "--paths", "0", "--meshes", "0.5,0.25,0.125"],
    ["qc", "--n", "3", "--paths", "0", "--meshes", "0.5,0.25,0.125"],
    ["bdg", "--n", "3", "--paths", "0"],
    ["isometry", "--n", "3", "--paths", "-2"],
    ["sim", "--n", "3", "--paths", "-1"],
], ids=lambda argv: argv[0])
def test_paths_below_one_exits_2(tmp_path, capsys, argv):
    if argv[0] == "sim":
        argv = argv + ["--out", str(tmp_path / "p")]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and "paths" in err
    assert out == "" and not list(tmp_path.iterdir())


def test_paths_below_one_from_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"paths": 0}))
    rc, _, err = run(capsys, "bdg", "--n", "3", "--config", str(cfg))
    assert rc == 2 and "paths" in err


@pytest.mark.parametrize("argv", [
    ["ito", "--n", "2", "--paths", "1", "--meshes", "1,0.5,0.25"],
    ["qc", "--n", "2", "--paths", "1", "--meshes", "1,0.5,0.25"],
    ["sim", "--n", "2"],
    ["bdg", "--n", "2"],
    ["isometry", "--n", "2"],
    ["esd", "--n", "2"],
    ["selftest", "--checks", "golden_partial"],
], ids=lambda argv: argv[0])
def test_a_negative_seed_exits_2_naming_its_value(tmp_path, capsys, argv):
    if argv[0] == "sim":
        argv = argv + ["--out", str(tmp_path / "p")]
    rc, out, err = run(capsys, *argv, "--seed", "-1")
    assert rc == 2 and "seed must be >= 0, got -1" in err
    assert out == "" and not list(tmp_path.iterdir())
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": -3}))
    rc, out, err = run(capsys, *argv, "--config", str(cfg))
    assert rc == 2 and "seed must be >= 0, got -3" in err
    assert out == ""


@pytest.mark.parametrize("cmd", ["bdg", "isometry"])
def test_one_path_z_test_exits_2(capsys, cmd):
    # one path has no standard error, so the 3-sigma test could never pass
    rc, out, err = run(capsys, cmd, "--n", "2", "--paths", "1",
                       "--mesh", "0.25")
    assert rc == 2 and "at least 2 paths, got 1" in err
    assert out == ""


def test_bdg_p4_runs_on_one_path(capsys):
    # the p = 4 ratio is reported, not z-tested
    rc, out, _ = run(capsys, "bdg", "--n", "2", "--paths", "1", "--p", "4",
                     "--mesh", "0.25")
    assert rc == 0
    assert json.loads(out)[0]["check"] == "bdg_p4"


def test_bdg_and_isometry_small(tmp_path, capsys):
    rc, out, _ = run(capsys, "bdg", "--n", "6", "--paths", "80",
                     "--seed", "2", "--mesh", "0.05")
    assert rc == 0
    rec = json.loads(out)[0]
    assert rec["check"] == "bdg_p2" and rec["passed"]
    rc, out, _ = run(capsys, "isometry", "--n", "6", "--paths", "80",
                     "--seed", "2", "--mesh", "0.05")
    assert rc == 0
    assert json.loads(out)[0]["check"] == "ito_isometry"


def test_qc_small(tmp_path, capsys):
    out_json = tmp_path / "qc.json"
    rc, _, _ = run(capsys, "qc", "--n", "6", "--paths", "30",
                   "--meshes", "0.04,0.02,0.01", "--seed", "1",
                   "--json", str(out_json))
    assert rc == 0
    rec = json.loads(out_json.read_text())[0]
    assert rec["residuals"][-1] < rec["residuals"][0]
    assert rec["config"]["n"] == 6 and "threads" not in rec["config"]


def test_ito_small(capsys):
    rc, out, _ = run(capsys, "ito", "--poly", "x1^2", "--n", "6",
                     "--paths", "20", "--meshes", "0.04,0.02,0.01",
                     "--seed", "1")
    assert rc == 0
    rec = json.loads(out)[0]
    assert rec["slope"] > 0.2
    rc, _, err = run(capsys, "ito", "--meshes", "0.1,0.05")
    assert rc == 2
    rc, _, err = run(capsys, "ito", "--n", "2", "--paths", "1",
                     "--meshes", "0.5,0.5,0.5")
    assert rc == 2 and "distinct" in err


@pytest.mark.parametrize("meshes", ["0.125,0.25,0.5", "0.5,0.125,0.25"])
@pytest.mark.parametrize("cmd", ["ito", "qc"])
def test_meshes_that_do_not_decrease_exit_2(capsys, cmd, meshes):
    # the verdict compares the first residual with the last and the record
    # names the last mesh, so increasing meshes failed a converging study
    rc, _, err = run(capsys, cmd, "--n", "2", "--paths", "2",
                     "--meshes", meshes)
    assert rc == 2 and "decreasing" in err
    assert str([float(m) for m in meshes.split(",")]) in err


def test_ito_reads_starred_driver_letters_as_plain(capsys):
    # x1'^2 exited 2 ("starred slot letters are not allowed") while x1'
    # ran; the driver is self-adjoint, so it is the x1^2 study
    common = ["--n", "4", "--paths", "3", "--meshes", "0.1,0.05,0.025",
              "--seed", "2"]
    rc, starred, err = run(capsys, "ito", "--poly", "x1'^2", *common)
    assert rc == 0, err
    rc, plain, _ = run(capsys, "ito", "--poly", "x1^2", *common)
    assert rc == 0
    assert json.loads(starred)[0]["residuals"] == \
        json.loads(plain)[0]["residuals"]


@pytest.mark.parametrize("argv", [["--poly", "5"], ["--poly", "0"],
                                  ["--poly", "x1", "--n", "1"]])
def test_ito_passes_for_degree_at_most_one(capsys, argv):
    # the residuals are exactly 0, so they cannot decrease with the mesh
    rc, out, _ = run(capsys, "ito", "--n", "3", "--paths", "2",
                     "--meshes", "0.5,0.25,0.125", *argv)
    rec = json.loads(out)[0]
    assert rc == 0 and rec["passed"]
    assert rec["residuals"] == [0.0, 0.0, 0.0]


def test_ito_fails_on_a_nan_residual(monkeypatch, capsys):
    # Python's max drops a NaN that is not first, so [1e-13, 1e-13, nan]
    # passed as a polynomial whose residuals are all rounding
    def nan_last(meshes, params):
        return {"check": "convergence:ito_residual",
                "residuals": [1e-13, 1e-13, float("nan")]}

    monkeypatch.setattr(cli, "convergence_study", nan_last)
    rc, out, _ = run(capsys, "ito", "--n", "2", "--paths", "2",
                     "--meshes", "0.5,0.25,0.125")
    assert rc == 1
    assert json.loads(out)[0]["passed"] is False


def test_esd(capsys):
    rc, out, _ = run(capsys, "esd", "--n", "128", "--seed", "4")
    assert rc == 0
    rec = json.loads(out)[0]
    assert rec["lhs"] <= 0.06


def test_selftest_subset_and_reports(tmp_path, capsys):
    out_json = tmp_path / "st.json"
    out_csv = tmp_path / "st.csv"
    rc, out, _ = run(capsys, "selftest",
                     "--checks", "golden_partial,magic_formula",
                     "--json", str(out_json), "--csv", str(out_csv))
    assert rc == 0
    assert "PASS  golden_partial" in out
    recs = json.loads(out_json.read_text())
    assert [r["check"] for r in recs] == ["golden_partial", "magic_formula"]
    assert out_csv.read_bytes().count(b"\r\n") == 3


def test_selftest_prints_each_check_time_to_stderr(capsys):
    rc, out, err = run(capsys, "selftest",
                       "--checks", "magic_formula,golden_partial")
    assert rc == 0
    # stdout keeps its bytes: status lines, then the report
    assert out.startswith("PASS  golden_partial\nPASS  magic_formula\n[")
    assert "time" not in out
    lines = err.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["time", "golden_partial"], ["time", "magic_formula"]]
    for line in lines:
        _, _, seconds, unit = line.split()
        assert float(seconds) >= 0 and unit == "s"


def test_selftest_checks_drop_empty_entries(capsys):
    rc, out, _ = run(capsys, "selftest", "--checks", ",golden_partial,")
    assert rc == 0
    assert out.startswith("PASS  golden_partial\n[")
    assert [r["check"] for r in json.loads(out[out.index("["):])] == [
        "golden_partial"]


@pytest.mark.parametrize("checks", [",", "", []],
                         ids=["comma", "empty", "config_list"])
def test_selftest_checks_that_name_no_check_exit_2(tmp_path, monkeypatch,
                                                   capsys, checks):
    # these ran all 18 checks, where run_selftest(checks=[]) runs none
    ran = []
    monkeypatch.setattr(cli, "run_selftest",
                        lambda **kw: ran.append(kw) or [])
    if isinstance(checks, list):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": checks}))
        argv = ["--config", str(cfg)]
    else:
        argv = ["--checks", checks]
    rc, _, err = run(capsys, "selftest", *argv)
    assert rc == 2 and "names no check" in err
    assert ran == []


def test_selftest_unknown_check(capsys):
    rc, _, err = run(capsys, "selftest", "--checks", "bogus")
    assert rc == 2 and "unknown checks" in err


def test_selftest_reports_byte_identical(tmp_path):
    # reports must not depend on BLAS threading: run each command in two
    # subprocesses, one and two OpenBLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(nctrace.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = {
        "selftest": ["selftest", "--checks", "golden_partial,magic_formula"],
        "ito": ["ito", "--n", "6", "--paths", "4",
                "--meshes", "0.1,0.05,0.025", "--seed", "3"],
        # the paired step plan and the eigvalsh-only reducer
        "ito_x1_4": ["ito", "--poly", "x1^4", "--n", "6", "--paths", "4",
                     "--meshes", "0.1,0.05,0.025", "--seed", "3"],
        "qc": ["qc", "--n", "6", "--paths", "4",
               "--meshes", "0.1,0.05,0.025", "--seed", "3"],
    }
    for name, argv in commands.items():
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            out_json = tmp_path / f"{name}_{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "nctrace.cli", *argv,
                 "--json", str(out_json)],
                env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            reports.append(out_json.read_bytes())
        assert reports[0] == reports[1]


def test_the_divided_differences_check_loads_no_scipy_module():
    # numpy is nctrace's one runtime dependency, in this check's oracle too
    src = os.path.dirname(os.path.dirname(os.path.abspath(nctrace.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nctrace\n"
         "from nctrace.selftest import run_selftest\n"
         "[rec] = run_selftest(checks=['divided_differences'])\n"
         "assert rec['passed'], rec\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m == 'scipy' or m.startswith('scipy.')))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_failed_allocation_exits_2_and_names_its_size(monkeypatch, capsys):
    # exit 1 is a failed tolerance; an ensemble too large to allocate is
    # an error in the configuration
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 305. GiB for an array with "
                          "shape (5000, 1001, 64, 64) and data type "
                          "complex128")

    monkeypatch.setattr(cli, "simulate_hbm_ensemble", too_large)
    rc, out, err = run(capsys, "bdg", "--n", "64", "--paths", "5000",
                       "--mesh", "0.001")
    assert rc == 2 and out == ""
    assert err.startswith("error: Unable to allocate 305. GiB")


def test_no_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_eval_matrices_file_without_a_bindings_object_exits_2(tmp_path,
                                                              capsys):
    mats = tmp_path / "m.json"
    for data in ([1, 2], "x", {"bindings": [1]}, {"bindings": None}, {}):
        mats.write_text(json.dumps(data))
        rc, _, err = run(capsys, "eval", "--expr", "x1",
                         "--matrices", str(mats))
        assert rc == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--expr", f"{10**309} x1"],
    ["isometry", "--expr", f"{10**309} y1"],
    # the derivative's coefficient, 2 10^308, is the one past the range
    ["ito", "--poly", f"{10**308} tr(x1^2) x1"],
])
def test_a_coefficient_past_the_float_range_exits_2(tmp_path, capsys, argv):
    if argv[0] == "eval":
        mats = tmp_path / "m.json"
        mats.write_text(json.dumps({"bindings": {"1": [[1, 0], [0, 2]]}}))
        argv = argv + ["--matrices", str(mats)]
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and "outside the float range" in err


# -- robustness over edge inputs -------------------------------------------
#
# Every subcommand but selftest, crossed with edge values, must end in an
# exit code of 0, 1 or 2 (argparse's SystemExit(2) included), let no other
# exception out of main, and print a report that parses as JSON.

_EDGE_FILES = {
    "garbage.json": "{not json",
    "list.json": "[1, 2]",
    "empty.json": "{}",
    "bindings_list.json": json.dumps({"bindings": [1]}),
    "ragged.json": json.dumps({"bindings": {"1": [[1, 2], [3]]}}),
    "n1.json": json.dumps({"bindings": {"1": [[2.0]]}}),
    "n2.json": json.dumps({"bindings": {"1": [[1, 0], [0, 2]],
                                        "2": [[0, 1], [1, 0]]}}),
    # config values of the wrong JSON type
    "seed_str.json": json.dumps({"seed": "0"}),
    "paths_float.json": json.dumps({"paths": 1.5}),
    "n_list.json": json.dumps({"n": [2]}),
    "meshes_mixed.json": json.dumps({"meshes": [0.5, "x", 0.125]}),
    "expr_int.json": json.dumps({"expr": 5}),
}
_CONFIGS = ["garbage.json", "list.json", "seed_str.json", "paths_float.json",
            "n_list.json", "meshes_mixed.json", "expr_int.json"]
_POLYS = ["0", "5", "x1'^2", "x1 x2"]
# JSON reports are printed by these; diff and sim print text
_REPORTING = {"eval", "qc", "ito", "bdg", "isometry", "esd"}


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("edges")
    for name, text in _EDGE_FILES.items():
        (d / name).write_text(text)
    return d


def _edge_argv(draw, cmd, d):
    """An argv for ``cmd`` at n <= 3 with at most one fault: no paths, a
    mesh that does not divide the horizon, or a bad config file."""
    fault = draw(st.sampled_from([None, None, "paths", "mesh", "config"]))
    n = ["--n", str(draw(st.sampled_from([1, 2, 3])))]
    paths = ["--paths",
             "0" if fault == "paths" else draw(st.sampled_from(["1", "2"]))]
    mesh = ["--mesh",
            "0.3" if fault == "mesh" else draw(st.sampled_from(["0.5",
                                                                "0.25"]))]
    meshes = ["--meshes",
              "0.5,0.3,0.125" if fault == "mesh" else "0.5,0.25,0.125"]
    poly = draw(st.sampled_from(_POLYS))
    argv = {
        "diff": ["--expr", poly] + draw(st.sampled_from(
            [["--var", "x1"], ["--var", "x2"], ["--order", "2"]])),
        "eval": ["--expr", poly, "--matrices", str(d / draw(st.sampled_from(
            ["n1.json", "n2.json", "garbage.json", "list.json", "empty.json",
             "bindings_list.json", "ragged.json"])))],
        "sim": n + paths + mesh + ["--out", str(d / "path")],
        "qc": n + paths + meshes,
        "ito": ["--poly", poly] + n + paths + meshes,
        "bdg": n + paths + mesh,
        "isometry": n + paths + mesh + ["--expr", draw(st.sampled_from(
            ["y1", "x1 y1"] + _POLYS))],
        "esd": n,
    }[cmd]
    if fault == "config":
        argv += ["--config", str(d / draw(st.sampled_from(_CONFIGS)))]
    return [cmd] + argv


# five examples for each of the eight subcommands
@pytest.mark.parametrize("cmd", ["diff", "eval", "sim", "qc", "ito", "bdg",
                                 "isometry", "esd"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_cli_survives_edge_inputs(edge_dir, cmd, data):
    argv = _edge_argv(data.draw, cmd, edge_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    assert rc in (0, 1, 2), (argv, err.getvalue())
    if rc != 2 and cmd in _REPORTING:
        # strict JSON but for a report's zscore, which may be Infinity or
        # NaN (ROADMAP item 1 turns those into null)
        reports = json.loads(out.getvalue(), parse_constant=_NonFinite)
        assert set(_non_finite_keys(reports)) <= {"zscore"}, (
            argv, out.getvalue())


class _NonFinite(str):
    """The mark ``json.loads`` leaves for an Infinity, -Infinity or NaN."""


def _non_finite_keys(obj, key=None):
    """The keys under which ``obj``, parsed JSON, holds a ``_NonFinite``."""
    if isinstance(obj, _NonFinite):
        yield key
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _non_finite_keys(v, k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _non_finite_keys(v, key)
