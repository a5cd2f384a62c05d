"""Command-line experiment driver.

Subcommands cover symbolic differentiation, matrix evaluation, path
simulation, and the verification checks.  ``COMMANDS`` declares each one
once: its handler, its config keys with their defaults, each of which is
also its one flag, and whether it writes a report, which alone gives it
``--json`` and ``--csv``.  Every subcommand takes ``--config``.  A run is
determined by its effective config, echoed into the reports, which holds
the one master seed, at least 0, wherever the run draws random numbers;
``bdg`` and ``isometry`` make their ensemble and report params in
``_ensemble``.
Exit codes: 0 all asserted tolerances pass, 1 a tolerance failed, 2 a
configuration or parse error or a failed allocation.  The parser is
built once per process (``_parser``): ``parse_args`` makes a fresh
namespace at each call, so calls share no parsed value.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Callable, NamedTuple

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
from .reports import make_report, to_json, write_csv, write_json
from .selftest import ALL_CHECKS, run_selftest
from .stoch_int import (
    BoundBiprocess,
    bdg_stats,
    ito_isometry_check,
    qc_convergence_study,
)
from .evaluator import EvalContext, EvalError, eval_poly
from .trace_poly import ContractionModel, LinearityError, derive, derive_k


class ConfigError(Exception):
    pass


# JSON types of the config values whose default does not show them (null
# is taken where the default is null): a tuple lists the types a value may
# take, [t] a list of values of type t.  A flag takes the first type.
_VALUE_TYPES = {"expr": str, "var": str, "matrices": str, "order": int,
                "meshes": (str, [float]), "checks": (str, [str])}


def _value_type(key: str, default):
    return _VALUE_TYPES.get(key, type(default))


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
            if not ((value is None and default is None)
                    or _has_type(value, _value_type(key, default))):
                raise ConfigError(
                    f"config key {key!r} cannot take {json.dumps(value)}")
        cfg.update(loaded)
    for key in defaults:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if cfg.get("seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def _meshes(value) -> list[float]:
    """The meshes as floats; ``stoch_int.mesh_study`` takes at least 3,
    strictly decreasing, and ``TimeGrid.from_mesh`` checks that each
    divides the horizon."""
    if isinstance(value, str):
        value = [float(v) for v in value.split(",") if v]
    return [float(v) for v in value]


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


def _cmd_diff(cfg) -> int:
    if not cfg["expr"]:
        raise ConfigError("diff needs --expr")
    P = parse(cfg["expr"])
    if cfg["order"] is not None:
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


def _cmd_eval(cfg) -> int:
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
    # an overflow is reported in the output, as null, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        result = eval_poly(parse(cfg["expr"]), EvalContext(n, bindings))
    out = np.stack([result.real, result.imag], axis=-1)
    # strict JSON: a non-finite part is written as null
    print(json.dumps(np.where(np.isfinite(out), out, None).tolist(),
                     allow_nan=False))
    return 0


def _cmd_sim(cfg) -> int:
    paths = _paths(cfg)
    grid = TimeGrid.from_mesh(float(cfg["T"]), float(cfg["mesh"]))
    for i in range(paths):
        p = simulate_hbm(int(cfg["n"]), grid, RngStream(cfg["seed"], i))
        _write(save_ncp1, p, f"{cfg['out']}_{i:04d}.ncp1")
    print(f"wrote {paths} path file(s) with prefix {cfg['out']}")
    return 0


def _cmd_qc(cfg) -> list[dict]:
    return [qc_convergence_study(
        int(cfg["n"]), _meshes(cfg["meshes"]), _paths(cfg), int(cfg["seed"]),
        lambda gaps, slope: gaps[-1] < gaps[0])]


def _cmd_ito(cfg) -> list[dict]:
    # a polynomial of degree <= 1 telescopes: every residual is rounding
    return [convergence_study(
        _meshes(cfg["meshes"]),
        {"n": int(cfg["n"]), "paths": _paths(cfg),
         "seed": int(cfg["seed"]), "poly": parse(cfg["poly"]),
         "model": ContractionModel.matrix(int(cfg["n"]))},
        lambda res, slope: res[-1] < res[0] or max(res) <= 1e-12)]


def _ensemble(cfg):
    """The bdg and isometry checks' HBM ensemble on [0, t], and the params
    of their report."""
    paths = _paths(cfg)
    grid = TimeGrid.from_mesh(float(cfg["t"]), float(cfg["mesh"]))
    n = int(cfg["n"])
    ens = simulate_hbm_ensemble(n, grid, paths, seed=int(cfg["seed"]))
    return ens, {"n": n, "mesh": grid.mesh, "paths": paths,
                 "seed": int(cfg["seed"]), "t": float(cfg["t"])}


def _cmd_bdg(cfg) -> list[dict]:
    ens, params = _ensemble(cfg)
    return [bdg_stats(ens, int(cfg["p"]), params["t"], params)]


def _cmd_isometry(cfg) -> list[dict]:
    ens, params = _ensemble(cfg)
    H = BoundBiprocess(parse(cfg["expr"]), ens.grid, ens.n)
    return [ito_isometry_check(H, ens, params["t"], params)]


def _cmd_esd(cfg) -> list[dict]:
    n, t = int(cfg["n"]), float(cfg["t"])
    threshold = float(cfg["threshold"])
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    grid = TimeGrid.uniform(t, 1)
    path = simulate_hbm(n, grid, RngStream(int(cfg["seed"]), 0))
    ks = esd_distance(path.values[-1], t)
    return [make_report("esd", {"n": n, "seed": int(cfg["seed"]), "t": t},
                        ks, threshold, passed=ks <= threshold)]


def _cmd_selftest(cfg) -> list[dict]:
    known = [c.__name__.removeprefix("check_") for c in ALL_CHECKS]
    checks = cfg["checks"]
    if checks is None:
        checks = known
    else:
        if isinstance(checks, str):
            checks = [c for c in checks.split(",") if c]
        if not checks:
            raise ConfigError("checks names no check; leave it out to run all")
        unknown = [c for c in checks if c not in known]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    records = []
    for name in known:
        if name not in checks:
            continue
        start = time.perf_counter()
        records += run_selftest(seed=int(cfg["seed"]), checks=[name])
        print(f"time  {name}  {time.perf_counter() - start:.3f} s",
              file=sys.stderr)
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"{status}  {rec['check']}")
    return records


class Subcommand(NamedTuple):
    """One subcommand: ``run(cfg)`` on the effective config, whose keys
    and defaults are ``defaults``.  A report writer's ``run`` returns its
    records, which ``main`` prints or writes; the others return the exit
    code themselves."""

    run: Callable[[dict], int | list[dict]]
    help: str
    defaults: dict
    reports: bool = True


_MESHES = "0.02,0.01,0.005,0.0025"
COMMANDS = {
    "diff": Subcommand(_cmd_diff, "differentiate a trace polynomial",
                       {"expr": None, "var": None, "order": None},
                       reports=False),
    "eval": Subcommand(_cmd_eval, "evaluate an expression on matrices",
                       {"expr": None, "matrices": None}, reports=False),
    "sim": Subcommand(_cmd_sim, "simulate HBM paths to NCP1 files",
                      {"n": 8, "T": 1.0, "mesh": 0.01, "paths": 1, "seed": 0,
                       "out": "path"}, reports=False),
    "qc": Subcommand(_cmd_qc, "run the qc check",
                     {"n": 16, "paths": 200, "seed": 0, "meshes": _MESHES}),
    "ito": Subcommand(_cmd_ito, "run the ito check",
                      {"poly": "x1^2", "n": 16, "paths": 100, "seed": 0,
                       "meshes": _MESHES}),
    "bdg": Subcommand(_cmd_bdg, "run the bdg check",
                      {"n": 8, "paths": 500, "seed": 0, "mesh": 0.02, "p": 2,
                       "t": 1.0}),
    "isometry": Subcommand(_cmd_isometry, "run the isometry check",
                           {"n": 8, "paths": 500, "seed": 0, "mesh": 0.02,
                            "t": 1.0, "expr": "y1"}),
    "esd": Subcommand(_cmd_esd, "run the esd check",
                      {"n": 512, "seed": 0, "t": 1.0, "threshold": 0.06}),
    "selftest": Subcommand(_cmd_selftest, "run the full acceptance suite",
                           {"seed": 0, "checks": None}),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nctrace",
        description="noncommutative stochastic calculus toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config",
                        help="JSON config file; flags override keys")
        for key, default in command.defaults.items():
            kind = _value_type(key, default)
            sp.add_argument(f"--{key}",
                            type=kind[0] if isinstance(kind, tuple) else kind,
                            help=None if default is None
                            else f"default {default}")
        if command.reports:
            sp.add_argument("--json", dest="json_out",
                            help="write JSON report here")
            sp.add_argument("--csv", dest="csv_out",
                            help="write CSV report here")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building it takes 2-3 ms, about a tenth
    of a short ``sim`` run."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        command = COMMANDS[args.command]
        cfg = _effective(args, command.defaults)
        if not command.reports:
            return command.run(cfg)
        records = command.run(cfg)
        _emit(records, cfg, args)
        return 0 if all(r.get("passed", True) for r in records) else 1
    except (ConfigError, ParseError, LinearityError, EvalError,
            ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
