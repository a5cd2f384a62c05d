"""Command-line experiment driver.

Subcommands cover symbolic differentiation, matrix evaluation, path
simulation, and the verification checks; every run is determined by one
master seed plus the effective config, which is echoed into the reports.
Exit codes: 0 all asserted tolerances pass, 1 a tolerance failed, 2 a
configuration or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .ito import convergence_study
from .matrix_alg import esd_distance
from .parsing import ParseError, format_polynomial, parse
from .process_sim import (
    RngStream,
    TimeGrid,
    save_ncp1,
    simulate_hbm,
    simulate_hbm_ensemble,
)
from .reports import (
    fit_loglog_slope,
    make_report,
    to_json,
    write_csv,
    write_json,
)
from .selftest import ALL_CHECKS, run_selftest
from .stoch_int import (
    BoundBiprocess,
    bdg_stats,
    ito_isometry_check,
    qc_convergence_gaps,
)
from .evaluator import EvalContext, EvalError, eval_poly
from .trace_poly import ContractionModel, LinearityError, derive, derive_k


class ConfigError(Exception):
    pass


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override keys")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--json", dest="json_out", help="write JSON report here")
    p.add_argument("--csv", dest="csv_out", help="write CSV report here")


# JSON types of the config values whose default does not show them (null
# is taken where the default is null): a tuple lists the types a value may
# take, [t] a list of values of type t
_VALUE_TYPES = {"expr": str, "var": str, "matrices": str, "order": int,
                "meshes": (str, [float]), "checks": (str, [str])}


def _has_type(value, want) -> bool:
    """Whether a JSON value has type ``want``: an int passes for a float,
    and a bool (an int to Python) passes for nothing."""
    if isinstance(want, tuple):
        return any(_has_type(value, w) for w in want)
    if isinstance(want, list):
        return isinstance(value, list) and all(
            _has_type(v, want[0]) for v in value)
    if want is float:
        want = (int, float)
    return isinstance(value, want) and not isinstance(value, bool)


def _effective(args, defaults: dict) -> dict:
    cfg = dict(defaults)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}")
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            default = defaults[key]
            if not ((value is None and default is None) or _has_type(
                    value, _VALUE_TYPES.get(key, type(default)))):
                raise ConfigError(
                    f"config key {key!r} cannot take {json.dumps(value)}")
        cfg.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["seed"] = int(cfg.get("seed") or 0)
    return cfg


def _meshes(value) -> list[float]:
    """At least 3 meshes; ``TimeGrid.from_mesh`` checks that each divides
    the horizon, so the slope is fitted against the grids' real meshes."""
    if isinstance(value, str):
        value = [float(v) for v in value.split(",") if v]
    out = [float(v) for v in value]
    if len(out) < 3:
        raise ConfigError("need at least 3 meshes")
    return out


def _paths(cfg) -> int:
    """The configured path count, which must be at least 1."""
    paths = int(cfg["paths"])
    if paths < 1:
        raise ConfigError(f"paths must be at least 1, got {paths}")
    return paths


def _write(save, obj, filename: str) -> None:
    """``save(obj, filename)``; a file that cannot be written is a
    configuration error."""
    try:
        save(obj, filename)
    except OSError as e:
        raise ConfigError(f"cannot write {filename}: {e.strerror or e}")


def _emit(records, cfg, args) -> None:
    for rec in records:
        rec.setdefault("config", cfg)
    if args.json_out:
        _write(write_json, records, args.json_out)
    if args.csv_out:
        _write(write_csv, records, args.csv_out)
    if not args.json_out and not args.csv_out:
        print(to_json(records))


def _cmd_diff(args) -> int:
    cfg = _effective(args, {"expr": None, "var": None, "order": None,
                            "seed": 0})
    if not cfg["expr"]:
        raise ConfigError("diff needs --expr")
    P = parse(cfg["expr"])
    if cfg["order"]:
        result = derive_k(P, int(cfg["order"]))
    elif cfg["var"]:
        var = str(cfg["var"])
        if not var.startswith("x") or not var[1:].isdigit():
            raise ConfigError(f"--var must look like x2, got {var!r}")
        result = derive(P, int(var[1:]))
    else:
        raise ConfigError("diff needs --var or --order")
    print(format_polynomial(result))
    return 0


def _matrix_from_json(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == 2:
        return arr.astype(complex)
    raise ConfigError("matrices must be 2-d (real) or entries of [re, im]")


def _cmd_eval(args) -> int:
    cfg = _effective(args, {"expr": None, "matrices": None, "seed": 0})
    if not cfg["expr"] or not cfg["matrices"]:
        raise ConfigError("eval needs --expr and --matrices")
    try:
        with open(cfg["matrices"]) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read matrices: {e}")
    bindings = data.get("bindings") if isinstance(data, dict) else None
    if not isinstance(bindings, dict):
        raise ConfigError('the matrices file needs a "bindings" object')
    bindings = {int(k): _matrix_from_json(v) for k, v in bindings.items()}
    if not bindings:
        raise ConfigError("no bindings in the matrices file")
    n = next(iter(bindings.values())).shape[-1]
    result = eval_poly(parse(cfg["expr"]), EvalContext(n, bindings))
    out = np.stack([result.real, result.imag], axis=-1)
    print(json.dumps(out.tolist()))
    return 0


def _cmd_sim(args) -> int:
    cfg = _effective(args, {"n": 8, "T": 1.0, "mesh": 0.01, "paths": 1,
                            "seed": 0, "out": "path", "method": "basis"})
    paths = _paths(cfg)
    grid = TimeGrid.from_mesh(float(cfg["T"]), float(cfg["mesh"]))
    for i in range(paths):
        p = simulate_hbm(int(cfg["n"]), grid, RngStream(cfg["seed"], i),
                         method=cfg["method"])
        _write(save_ncp1, p, f"{cfg['out']}_{i:04d}.ncp1")
    print(f"wrote {paths} path file(s) with prefix {cfg['out']}")
    return 0


def _cmd_qc(args) -> int:
    cfg = _effective(args, {"n": 16, "paths": 200, "seed": 0,
                            "meshes": "0.02,0.01,0.005,0.0025"})
    meshes = _meshes(cfg["meshes"])
    n, paths, seed = int(cfg["n"]), _paths(cfg), int(cfg["seed"])
    gaps = qc_convergence_gaps(n, meshes, paths, seed)
    slope = fit_loglog_slope(meshes, gaps)
    rep = make_report(
        "qc_convergence",
        {"n": n, "paths": paths, "seed": seed, "mesh": meshes[-1], "t": 1.0},
        gaps[0], gaps[-1], 0.0, slope=slope,
        passed=gaps[-1] < gaps[0],
        extra={"meshes": meshes, "residuals": gaps},
    )
    _emit([rep], cfg, args)
    return 0 if rep["passed"] else 1


def _cmd_ito(args) -> int:
    cfg = _effective(args, {"poly": "x1^2", "n": 16, "paths": 100,
                            "seed": 0, "meshes": "0.02,0.01,0.005,0.0025"})
    meshes = _meshes(cfg["meshes"])
    rep = convergence_study(
        meshes,
        {"n": int(cfg["n"]), "paths": _paths(cfg),
         "seed": int(cfg["seed"]), "poly": parse(cfg["poly"]),
         "model": ContractionModel.matrix(int(cfg["n"]))},
    )
    # a polynomial of degree <= 1 telescopes: every residual is rounding
    res = rep["residuals"]
    rep["passed"] = res[-1] < res[0] or max(res) <= 1e-12
    _emit([rep], cfg, args)
    return 0 if rep["passed"] else 1


def _cmd_bdg(args) -> int:
    cfg = _effective(args, {"n": 8, "paths": 500, "seed": 0, "mesh": 0.02,
                            "p": 2, "t": 1.0})
    paths = _paths(cfg)
    grid = TimeGrid.from_mesh(float(cfg["t"]), float(cfg["mesh"]))
    ens = simulate_hbm_ensemble(int(cfg["n"]), grid, paths,
                                seed=int(cfg["seed"]))
    rep = bdg_stats(ens, int(cfg["p"]), float(cfg["t"]),
                    {"n": int(cfg["n"]), "mesh": grid.mesh,
                     "paths": paths, "seed": int(cfg["seed"]),
                     "t": float(cfg["t"])})
    _emit([rep], cfg, args)
    return 0 if rep.get("passed", True) else 1


def _cmd_isometry(args) -> int:
    cfg = _effective(args, {"n": 8, "paths": 500, "seed": 0, "mesh": 0.02,
                            "t": 1.0, "expr": "y1"})
    paths = _paths(cfg)
    grid = TimeGrid.from_mesh(float(cfg["t"]), float(cfg["mesh"]))
    n = int(cfg["n"])
    ens = simulate_hbm_ensemble(n, grid, paths, seed=int(cfg["seed"]))
    H = BoundBiprocess(parse(cfg["expr"]), grid, n)
    rep = ito_isometry_check(H, ens, float(cfg["t"]),
                             {"n": n, "mesh": grid.mesh, "paths": paths,
                              "seed": int(cfg["seed"]), "t": float(cfg["t"])})
    _emit([rep], cfg, args)
    return 0 if rep["passed"] else 1


def _cmd_esd(args) -> int:
    cfg = _effective(args, {"n": 512, "seed": 0, "t": 1.0,
                            "threshold": 0.06})
    n, t = int(cfg["n"]), float(cfg["t"])
    grid = TimeGrid.uniform(t, 1)
    path = simulate_hbm(n, grid, RngStream(int(cfg["seed"]), 0),
                        method="entrywise")
    ks = esd_distance(path.values[-1], t)
    threshold = float(cfg["threshold"])
    rep = make_report("esd", {"n": n, "seed": int(cfg["seed"]), "t": t},
                      ks, threshold, passed=ks <= threshold)
    _emit([rep], cfg, args)
    return 0 if rep["passed"] else 1


def _cmd_selftest(args) -> int:
    known = [c.__name__.removeprefix("check_") for c in ALL_CHECKS]
    cfg = _effective(args, {"seed": 0, "checks": None})
    checks = cfg["checks"]
    if checks:
        checks = checks.split(",") if isinstance(checks, str) else list(checks)
        unknown = [c for c in checks if c not in known]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    records = []
    for name in known:
        if checks and name not in checks:
            continue
        start = time.perf_counter()
        records += run_selftest(seed=int(cfg["seed"]), checks=[name])
        print(f"time  {name}  {time.perf_counter() - start:.3f} s",
              file=sys.stderr)
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"{status}  {rec['check']}")
    _emit(records, cfg, args)
    return 0 if all(r["passed"] for r in records) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nctrace",
        description="noncommutative stochastic calculus toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diff", help="differentiate a trace polynomial")
    d.add_argument("--expr")
    d.add_argument("--var")
    d.add_argument("--order", type=int)
    _add_common(d)
    d.set_defaults(func=_cmd_diff)

    e = sub.add_parser("eval", help="evaluate an expression on matrices")
    e.add_argument("--expr")
    e.add_argument("--matrices")
    _add_common(e)
    e.set_defaults(func=_cmd_eval)

    s = sub.add_parser("sim", help="simulate HBM paths to NCP1 files")
    s.add_argument("--n", type=int)
    s.add_argument("--T", type=float)
    s.add_argument("--mesh", type=float)
    s.add_argument("--paths", type=int)
    s.add_argument("--out")
    s.add_argument("--method", choices=["basis", "entrywise"])
    _add_common(s)
    s.set_defaults(func=_cmd_sim)

    for name, fn, extra in [
        ("qc", _cmd_qc, ["--n", "--paths", "--meshes"]),
        ("ito", _cmd_ito, ["--poly", "--n", "--paths", "--meshes"]),
        ("bdg", _cmd_bdg, ["--n", "--paths", "--mesh", "--p", "--t"]),
        ("isometry", _cmd_isometry,
         ["--n", "--paths", "--mesh", "--t", "--expr"]),
        ("esd", _cmd_esd, ["--n", "--t", "--threshold"]),
    ]:
        sp = sub.add_parser(name, help=f"run the {name} check")
        for flag in extra:
            kind = int if flag in ("--n", "--paths", "--p") else (
                float if flag in ("--mesh", "--t", "--threshold") else str)
            sp.add_argument(flag, type=kind)
        _add_common(sp)
        sp.set_defaults(func=fn)

    st = sub.add_parser("selftest", help="run the full acceptance suite")
    st.add_argument("--checks", help="comma-separated subset of checks")
    _add_common(st)
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ParseError, LinearityError, EvalError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
