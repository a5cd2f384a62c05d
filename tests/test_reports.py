"""Report records: derived fields, deterministic serialization."""

import math

import pytest

from nctrace.reports import (
    fit_loglog_slope,
    make_report,
    to_csv,
    to_json,
)


def test_make_report_derived_fields():
    rec = make_report("x", {"n": 4, "seed": 1}, 1.5, 1.0, se=0.25)
    assert rec["gap"] == 0.5
    assert rec["zscore"] == 2.0
    assert rec["params"] == {"n": 4, "mesh": None, "paths": None,
                             "seed": 1, "t": None}
    assert "slope" not in rec and "passed" not in rec
    rec = make_report("x", {}, 1.0, 1.0)
    assert rec["zscore"] == 0.0
    rec = make_report("x", {}, 2.0, 1.0)
    assert math.isinf(rec["zscore"])


def test_json_is_deterministic():
    recs = [make_report("a", {"n": 2}, 0.1, 0.2, se=0.05, slope=-1.0,
                        passed=True, extra={"meshes": [0.1, 0.05]})]
    assert to_json(recs) == to_json([dict(reversed(list(recs[0].items())))])


def test_csv_shape_and_flattening():
    recs = [
        make_report("a", {"n": 2, "seed": 0}, 0.1, 0.2),
        make_report("b", {"mesh": 0.01, "t": 1.0}, 1.0, 1.0, passed=True),
    ]
    lines = to_csv(recs).split("\r\n")
    assert lines[0].startswith("check,n,mesh,paths,seed,t,")
    assert lines[1].split(",")[0] == "a"
    assert lines[2].split(",")[-1] == "True"
    assert lines[-1] == ""


def test_loglog_slope_recovers_power_law():
    xs = [0.04, 0.02, 0.01, 0.005]
    ys = [3.0 * x ** 1.5 for x in xs]
    assert abs(fit_loglog_slope(xs, ys) - 1.5) < 1e-12
    with pytest.raises(ValueError, match="distinct"):
        fit_loglog_slope([0.5, 0.5, 0.5], ys[:3])
