"""Report records for verification checks: JSON and CSV emission.

Every record carries the check name, the parameters that reproduce it,
both sides of the compared identity, their gap, the Monte-Carlo standard
error, and the z-score; convergence studies add a fitted slope.  Output
is deterministic: keys are ordered and floats are serialized with repr
precision, so identical runs yield identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Sequence

_PARAM_KEYS = ("n", "mesh", "paths", "seed", "t")


def make_report(check: str, params: dict, lhs: float, rhs: float,
                se: float = 0.0, slope: float | None = None,
                passed: bool | None = None, extra: dict | None = None) -> dict:
    """Build one report record with derived gap and z-score fields."""
    lhs = float(lhs)
    rhs = float(rhs)
    se = float(se)
    gap = lhs - rhs
    zscore = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
    rec = {
        "check": check,
        "params": {k: params.get(k) for k in _PARAM_KEYS},
        "lhs": lhs,
        "rhs": rhs,
        "gap": gap,
        "se": se,
        "zscore": zscore,
    }
    if slope is not None:
        rec["slope"] = float(slope)
    if passed is not None:
        rec["passed"] = bool(passed)
    if extra:
        rec.update(extra)
    return rec


def _default(obj):
    raise TypeError(f"not JSON-serializable: {obj!r}")


def to_json(records) -> str:
    """Deterministic JSON rendering (byte-stable across runs)."""
    return json.dumps(records, indent=2, sort_keys=True, default=_default,
                      allow_nan=True)


def write_json(records, filename: str) -> None:
    with open(filename, "w") as fh:
        fh.write(to_json(records))
        fh.write("\n")


_CSV_FIELDS = [
    "check", "n", "mesh", "paths", "seed", "t",
    "lhs", "rhs", "gap", "se", "zscore", "slope", "passed",
]


def to_csv(records: Sequence[dict]) -> str:
    """Flatten records into RFC-4180 CSV, one row per record."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, extrasaction="ignore",
                            lineterminator="\r\n")
    writer.writeheader()
    for rec in records:
        row = {k: rec.get(k, "") for k in _CSV_FIELDS}
        row.update({k: rec["params"].get(k, "") for k in
                    ("n", "mesh", "paths", "seed", "t")})
        row = {k: ("" if v is None else v) for k, v in row.items()}
        writer.writerow(row)
    return buf.getvalue()


def write_csv(records, filename: str) -> None:
    with open(filename, "w", newline="") as fh:
        fh.write(to_csv(records))


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(v) for v in xs]
    ly = [math.log(max(v, 1e-300)) for v in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    if den == 0:
        raise ValueError("a slope needs at least two distinct x values")
    return num / den
