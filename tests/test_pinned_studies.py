"""Exact bits of the time-blocked studies, of nine selftest records and of
the scalar-function Ito residual.

The Ito study values were re-recorded when one fused step plan replaced
the three evaluations per block (they moved by at most 2.6e-15 relative,
the x1^2 quadratic rounding noise staying below 1e-15).  The
tr(x1^2) x1 values past one block moved twice more, because the trace
contraction sums in an order that depends on its operands' memory layout:
when the studies came to walk contiguous path windows (the earlier
windows were strided views of a whole-path chunk), and when the step plan
came to read the window's L points where it read views of the first
L - 1 (at most 4.4e-15 relative).  The x1^4 and tr(x1^2) x1 values moved
once more when the Hermitian step plan came to factor shared left
prefixes, sum the scalars of terms on one register first and contract
traces of Hermitian registers as real dots; at most 4.0e-15 relative.
Relative moves, (points, mode): x1^4 (64, c) 1.5e-16, (64, q) 1.3e-15,
(65, c) 2.8e-16, (65, q) 1.6e-15, (66, c) 1.4e-16, (66, q) 1.1e-15,
(130, c) 5.9e-16, (130, q) 4.0e-15, and unmoved at 2 points;
tr(x1^2) x1 (2, c and q) 4.4e-16, (64, c) 3.9e-16, (64, q) 2.9e-15,
(65, c) 1.3e-16, (65, q) 2.2e-16, (66, c) 4.0e-16, (66, q) 3.4e-16,
(130, c) 3.0e-16, (130, q) 2.4e-15.  In the x1^4 ``ito`` CLI report the
residuals moved by 1.3e-16, 3.4e-16 and 2.0e-16, the gap by 7.2e-16 and
the slope by 7.0e-16.  Every x1^2 value, the QC gaps and the ``qc``
report kept their bits.  The QC gaps were recorded from the
studies' hand-written block loops.  All must be reproduced with ``==``,
not to a tolerance.  With ``STUDY_TIME_BLOCK`` = 64 grid points the grids are one
step, one block, one block and one point, two points past it, and just past
two blocks.  The four symbolic records pin the canonical forms of
``derive`` and ``derive_k`` and the values evaluated from them; the
isometry record pins both integrands of ``check_ito_isometry`` as they run
through ``rs_increments``.  The ``ito`` and ``qc`` CLI reports are pinned
byte for byte, as written to their JSON and CSV files, on meshes of one or
two windows and (recorded before the study windows were stored
time-major) on meshes of at least 4 windows of 3 paths, and so are the
substitution and QC-of-integrals records on a tiny ensemble: they pin how
``stoch_int.mesh_study`` and the gap record builder assemble them.  The
MOI route's ``divided_differences`` record and the polynomial bytes of
``functional_ito_residual``'s per_time were recorded when its two orders
were two ``moi`` calls, before they shared one pass.  The exponential-sum
bytes and the ``moi_derivatives`` record were recorded again when ``moi``
came to contract an exponential sum's second order as two products, and
its first order as an entrywise product in place of an ``einsum``: the
per_time values moved by at most 2.9e-14, 2.4e-14 and 3.7e-14 relative
at seeds 0, 1 and 2, ``rel_d2`` by 1.2e-10 relative and ``rel_d1``, a
difference of two close matrices, by 3.6e-7 relative.  They were recorded
once more when the f^[1] table came to make one exp per distinct node
vector, its sinc as sin(y) / y and its outer products as batched
products, and the second order's b = c diagonal came to read the table's
diagonal and the products' reciprocal grid: the per_time values moved by
at most 5.8e-14, 2.5e-14 and 2.8e-14 relative at seeds 0, 1 and 2
(7.7e-14 over seeds 0-29, the sup_norm 5.2e-14), ``rel_d2`` and ``lhs``
by 1.0e-9 relative, ``rel_d1`` by 1.3e-8 relative and ``gap`` by 6.6e-13
relative.  The polynomial per_time values were recorded again when a
polynomial's orders 1 and 2 came to take that route too, the f^[1] table,
two products and the close-pair rule, in place of its dense kernel and one
``einsum``: they moved by at most 1.9e-13, 8.8e-14 and 1.4e-13 relative at
seeds 0, 1 and 2.  The ``divided_differences`` record was recorded again
when its oracle for exponential sums became a contour integral in place
of nested quadrature over the simplex: its ``lhs``, the largest
|got − want|, moved from 8.455e-16 to 7.850e-16.  The six per_time arrays
are kept in ``functional_per_time.json`` as ``float.hex`` strings,
compared bit for bit, and a moved value is named with its index and
relative move.
"""

import json
import pathlib

import numpy as np
import pytest

from nctrace import ContractionModel, parse
from nctrace.ito import (functional_ito_residual, ito_residual_path,
                         ito_sup_residuals)
from nctrace.cli import main
from nctrace.matrix_alg import ScalarFunctionSpec
from nctrace.process_sim import (RngStream, TimeGrid, simulate_hbm,
                                 simulate_hbm_ensemble)
from nctrace.selftest import (
    check_bdg,
    check_divided_differences,
    check_finite_difference,
    check_fv_kills_qc,
    check_golden_partial,
    check_ito_isometry,
    check_moi_derivatives,
    check_moi_pairing,
    check_power_derivatives,
)
from nctrace.stoch_int import (
    BoundBiprocess,
    BoundTriprocess,
    qc_gap_l1,
    qc_of_integrals_check,
    substitution_check,
)

N = 3
POLYS = ("x1^2", "x1^4", "tr(x1^2) x1")

SUP_RESIDUALS = {
    (2, "contracted"): [0.6540723876533997, 1.3670620970939076,
                        0.7617025065735478],
    (2, "quadratic"): [1.5569422718433118e-17, 1.3670620970939076,
                       0.7617025065735478],
    (64, "contracted"): [0.10758738522597847, 0.1890639738570614,
                         0.052748492932055566],
    (64, "quadratic"): [1.831381599096156e-16, 0.03719415603857773,
                        0.015428850250879478],
    (65, "contracted"): [0.10667284889407269, 0.20044279274981824,
                         0.05315889679989414],
    (65, "quadratic"): [1.9620986301064028e-16, 0.0382687949379124,
                        0.01578546281310895],
    (66, "contracted"): [0.10510298961767198, 0.19432276428479398,
                         0.051936883441270155],
    (66, "quadratic"): [1.8214905223675868e-16, 0.037177450503588685,
                        0.015422587592009221],
    (130, "contracted"): [0.08106736723727345, 0.23401868450059546,
                          0.04598462902185642],
    (130, "quadratic"): [3.101563733358367e-16, 0.030428555694777794,
                         0.00955047096952859],
}

QC_GAPS = {2: 0.8549353179708248, 64: 0.11086350166174999,
           65: 0.10456953363239832, 66: 0.10215779368487424,
           130: 0.08759466292658888}

BDG_RECORD = (
    '{"check": "bdg_pair", "gap": -1.1959701834068495, "hbm": {"check": '
    '"bdg_p2", "gap": -0.010314704864126112, "lhs": 0.9903417118340365, '
    '"params": {"mesh": 0.020000000000000018, "n": 8, "paths": 800, '
    '"seed": 0, "t": 1.0}, "passed": true, "rhs": 1.0006564166981626, '
    '"se": 0.005717591122526502, "zscore": -1.8040298165931505}, '
    '"integral": {"check": "bdg_p2", "gap": -0.019537903739511364, '
    '"lhs": 4.711833296508143, "params": {"mesh": 0.020000000000000018, '
    '"n": 8, "paths": 800, "seed": 0, "t": 1.0}, "passed": true, '
    '"rhs": 4.731371200247654, "se": 0.03485381820023717, '
    '"zscore": -0.5605670984815779}, "lhs": 1.8040298165931505, '
    '"params": {"mesh": 0.020000000000000018, "n": 8, "paths": 800, '
    '"seed": 0, "t": 1.0}, "passed": true, "rhs": 3.0, "se": 0.0, '
    '"zscore": Infinity}'
)

FV_KILLS_QC_RECORD = (
    '{"check": "fv_kills_qc", "gap": -0.000927165491270074, '
    '"lhs": 7.283450872992602e-05, "meshes": [0.01, 0.001, 0.0001], '
    '"params": {"mesh": 0.0001, "n": 4, "paths": 4, "seed": 0, "t": 1.0}, '
    '"passed": true, "residuals": [0.006211235370673482, '
    '0.0007582318361928944, 7.283450872992602e-05], "rhs": 0.001, '
    '"se": 0.0, "slope": 0.9654203958065286, "zscore": Infinity}'
)

_ISOMETRY_PARAMS = ('"params": {"mesh": 0.025000000000000022, "n": 8, '
                    '"paths": 1000, "seed": 0, "t": 1.0}')
ITO_ISOMETRY_RECORD = (
    '{"check": "ito_isometry_pair", "gap": -1.8350709191617736, '
    '"identity": {"check": "ito_isometry", "gap": -0.0063460187838340065, '
    f'"lhs": 0.9930396919364742, {_ISOMETRY_PARAMS}, "passed": true, '
    '"rhs": 0.9993857107203082, "se": 0.005447558042990668, '
    '"zscore": -1.1649290808382264}, "lhs": 1.1649290808382264, '
    f'{_ISOMETRY_PARAMS}, "passed": true, "rhs": 3.0, '
    '"sandwich": {"check": "ito_isometry", "gap": -0.18488655724717518, '
    f'"lhs": 39.23214472783576, {_ISOMETRY_PARAMS}, "passed": true, '
    '"rhs": 39.417031285082935, "se": 0.4592867142810742, '
    '"zscore": -0.4025515032294802}, "se": 0.0, "zscore": Infinity}'
)

_CLI_STUDY = ["--n", "4", "--paths", "3", "--meshes", "0.05,0.025,0.0125",
              "--seed", "2"]
CLI_REPORTS = {
    ("ito", "--poly", "x1^4"): ("""\
[
  {
    "check": "convergence:ito_residual",
    "config": {
      "meshes": "0.05,0.025,0.0125",
      "n": 4,
      "paths": 3,
      "poly": "x1^4",
      "seed": 2
    },
    "gap": 0.15481422964917796,
    "lhs": 0.43372624309558705,
    "meshes": [
      0.05,
      0.025,
      0.0125
    ],
    "params": {
      "mesh": 0.0125,
      "n": 4,
      "paths": 3,
      "seed": 2,
      "t": 1.0
    },
    "passed": true,
    "residuals": [
      0.43372624309558705,
      0.3294691653834122,
      0.2789120134464091
    ],
    "rhs": 0.2789120134464091,
    "se": 0.0,
    "slope": 0.3184873307505283,
    "zscore": Infinity
  }
]
""", (
        "check,n,mesh,paths,seed,t,lhs,rhs,gap,se,zscore,slope,passed\r\n"
        "convergence:ito_residual,4,0.0125,3,2,1.0,0.43372624309558705,"
        "0.2789120134464091,0.15481422964917796,0.0,inf,"
        "0.3184873307505283,True\r\n")),
    ("qc",): ("""\
[
  {
    "check": "qc_convergence",
    "config": {
      "meshes": "0.05,0.025,0.0125",
      "n": 4,
      "paths": 3,
      "seed": 2
    },
    "gap": 0.18138811701763638,
    "lhs": 0.3919255860429951,
    "meshes": [
      0.05,
      0.025,
      0.0125
    ],
    "params": {
      "mesh": 0.0125,
      "n": 4,
      "paths": 3,
      "seed": 2,
      "t": 1.0
    },
    "passed": true,
    "residuals": [
      0.3919255860429951,
      0.256059887824783,
      0.21053746902535872
    ],
    "rhs": 0.21053746902535872,
    "se": 0.0,
    "slope": 0.44825137450782887,
    "zscore": Infinity
  }
]
""", (
        "check,n,mesh,paths,seed,t,lhs,rhs,gap,se,zscore,slope,passed\r\n"
        "qc_convergence,4,0.0125,3,2,1.0,0.3919255860429951,"
        "0.21053746902535872,0.18138811701763638,0.0,inf,"
        "0.44825137450782887,True\r\n")),
}

# every mesh spans at least 4 windows of 3 paths: the walks, sums and
# evaluator outputs are time-major
_CLI_LONG_STUDY = ["--n", "4", "--paths", "3", "--meshes",
                   "0.005,0.0025,0.00125", "--seed", "2"]
CLI_LONG_REPORTS = {
    ("ito", "--poly", "tr(x1^2) x1"): ("""\
[
  {
    "check": "convergence:ito_residual",
    "config": {
      "meshes": "0.005,0.0025,0.00125",
      "n": 4,
      "paths": 3,
      "poly": "tr(x1^2) x1",
      "seed": 2
    },
    "gap": 0.015557000060564222,
    "lhs": 0.029528285192231815,
    "meshes": [
      0.005,
      0.0025,
      0.00125
    ],
    "params": {
      "mesh": 0.00125,
      "n": 4,
      "paths": 3,
      "seed": 2,
      "t": 1.0
    },
    "passed": true,
    "residuals": [
      0.029528285192231815,
      0.02062908402916586,
      0.013971285131667593
    ],
    "rhs": 0.013971285131667593,
    "se": 0.0,
    "slope": 0.5398164226530808,
    "zscore": Infinity
  }
]
""", (
        "check,n,mesh,paths,seed,t,lhs,rhs,gap,se,zscore,slope,"
        "passed\r\n"
        "convergence:ito_residual,4,0.00125,3,2,1.0,"
        "0.029528285192231815,0.013971285131667593,"
        "0.015557000060564222,0.0,inf,0.5398164226530808,True\r\n")),
    ("qc",): ("""\
[
  {
    "check": "qc_convergence",
    "config": {
      "meshes": "0.005,0.0025,0.00125",
      "n": 4,
      "paths": 3,
      "seed": 2
    },
    "gap": 0.07131215011408493,
    "lhs": 0.1276017301825132,
    "meshes": [
      0.005,
      0.0025,
      0.00125
    ],
    "params": {
      "mesh": 0.00125,
      "n": 4,
      "paths": 3,
      "seed": 2,
      "t": 1.0
    },
    "passed": true,
    "residuals": [
      0.1276017301825132,
      0.10089149267730967,
      0.056289580068428276
    ],
    "rhs": 0.056289580068428276,
    "se": 0.0,
    "slope": 0.5903540502601321,
    "zscore": Infinity
  }
]
""", (
        "check,n,mesh,paths,seed,t,lhs,rhs,gap,se,zscore,slope,"
        "passed\r\n"
        "qc_convergence,4,0.00125,3,2,1.0,0.1276017301825132,"
        "0.056289580068428276,0.07131215011408493,0.0,inf,"
        "0.5903540502601321,True\r\n")),
}

_GAP_PARAMS = ('"params": {"mesh": 0.125, "n": 3, "paths": 4, "seed": 5, '
               '"t": 1.0}')
SUBSTITUTION_RECORD = (
    '{"check": "substitution", "gap": 0.0, '
    '"l1_gap": 1.750398955914579e-16, "lhs": 0.6733054838967563, '
    f'{_GAP_PARAMS}, "rhs": 0.6733054838967563, "se": 0.0, "zscore": 0.0}}'
)
QC_OF_INTEGRALS_RECORD = (
    '{"check": "qc_of_integrals", "gap": 1.1102230246251565e-16, '
    '"l1_gap": 6.901039430762671e-17, "lhs": 0.41176203268257017, '
    f'{_GAP_PARAMS}, "rhs": 0.41176203268257006, "se": 0.0, '
    '"zscore": Infinity}'
)

_UNSIZED = '"mesh": null, "n": null, "paths": null'
SYMBOLIC_RECORDS = {
    check_golden_partial: (
        '{"check": "golden_partial", "gap": 0.0, "lhs": 1.0, "params": {'
        + _UNSIZED + ', "seed": 0, "t": null}, "passed": true, "rhs": 1.0, '
        '"se": 0.0, "zscore": 0.0}'
    ),
    check_power_derivatives: (
        '{"check": "power_derivatives", "gap": 0.0, "lhs": 15.0, "params": {'
        + _UNSIZED + ', "seed": 0, "t": null}, "passed": true, "rhs": 15.0, '
        '"se": 0.0, "zscore": 0.0}'
    ),
    check_finite_difference: (
        '{"check": "finite_difference", "gap": -9.642820260467588e-07, '
        '"lhs": 3.571797395324122e-08, "params": {"mesh": null, "n": 8, '
        '"paths": null, "seed": 0, "t": null}, "passed": true, '
        '"rhs": 1e-06, "se": 0.0, "zscore": Infinity}'
    ),
    check_moi_pairing: (
        '{"check": "moi_pairing", "gap": -9.999339415180817e-11, '
        '"lhs": 6.605848191829598e-15, "params": {"mesh": null, "n": 6, '
        '"paths": null, "seed": 0, "t": null}, "passed": true, '
        '"rhs": 1e-10, "se": 0.0, "zscore": Infinity}'
    ),
    check_moi_derivatives: (
        '{"check": "moi_derivatives", "gap": -9.99342360743219e-05, '
        '"lhs": 6.57639256781053e-08, "params": {"mesh": null, "n": 8, '
        '"paths": null, "seed": 0, "t": null}, "passed": true, '
        '"rel_d1": 2.654755407456579e-10, "rel_d2": 6.57639256781053e-08, '
        '"rhs": 0.0001, "se": 0.0, "zscore": Infinity}'
    ),
    check_divided_differences: (
        '{"check": "divided_differences", "exact_failures": 0, '
        '"gap": -9.999999214953771e-09, "lhs": 7.850462293418876e-16, '
        '"params": {' + _UNSIZED + ', "seed": 0, "t": null}, '
        '"passed": true, "rhs": 1e-08, "se": 0.0, "zscore": Infinity}'
    ),
}

# ``functional_ito_residual(f, path)["per_time"]`` (201 float64 values) on
# the n = 8, 200-step HBM path of RngStream(seed, 0), for the functions of
# tests/test_ito.py, stored as ``float.hex`` strings by function and seed
FUNCTIONAL_SPECS = {
    "exp_sum": ScalarFunctionSpec.exp_sum([(1.0, 1.1), (0.4, -0.6)]),
    "polynomial": ScalarFunctionSpec.polynomial([0.3, -1.0, 0.5, 0.0, 0.25]),
}
FUNCTIONAL_PER_TIME_FILE = pathlib.Path(__file__).with_name(
    "functional_per_time.json")
FUNCTIONAL_PER_TIME = {
    (fname, int(seed)): np.array([float.fromhex(x) for x in values])
    for fname, by_seed in json.loads(FUNCTIONAL_PER_TIME_FILE.read_text())
    .items() for seed, values in by_seed.items()
}


def _hermitian(rng):
    g = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    return (g + g.conj().T) / 2


def _sandwich_matrix():
    return _hermitian(np.random.default_rng(11))


@pytest.mark.parametrize("points, second_order", sorted(SUP_RESIDUALS))
def test_sup_residuals_are_bitwise_pinned(points, second_order):
    grid = TimeGrid.uniform(1.0, points - 1)
    got = ito_sup_residuals([parse(t) for t in POLYS], N, grid, 5, 1,
                            ContractionModel.matrix(N), second_order,
                            chunk=2)
    assert got == SUP_RESIDUALS[points, second_order]


@pytest.mark.parametrize("points", sorted(QC_GAPS))
def test_qc_gap_is_bitwise_pinned(points):
    grid = TimeGrid.uniform(1.0, points - 1)
    got = qc_gap_l1(N, grid, 5, 1, _sandwich_matrix(), chunk=2)
    assert got == QC_GAPS[points]


def test_bdg_record_is_bitwise_pinned():
    assert json.dumps(check_bdg(0), sort_keys=True) == BDG_RECORD


def test_ito_isometry_record_is_bitwise_pinned():
    assert json.dumps(check_ito_isometry(0), sort_keys=True) == \
        ITO_ISOMETRY_RECORD


def test_fv_kills_qc_record_is_bitwise_pinned():
    assert json.dumps(check_fv_kills_qc(0), sort_keys=True) == \
        FV_KILLS_QC_RECORD


@pytest.mark.parametrize("check", list(SYMBOLIC_RECORDS),
                         ids=lambda check: check.__name__)
def test_symbolic_record_is_bitwise_pinned(check):
    assert json.dumps(check(0), sort_keys=True) == SYMBOLIC_RECORDS[check]


def _functional_per_time(fname, seed):
    path = simulate_hbm(8, TimeGrid.uniform(1.0, 200), RngStream(seed, 0))
    return functional_ito_residual(FUNCTIONAL_SPECS[fname], path)["per_time"]


@pytest.mark.parametrize("fname, seed", sorted(FUNCTIONAL_PER_TIME))
def test_functional_residual_is_bitwise_pinned(fname, seed):
    per = _functional_per_time(fname, seed)
    assert per.dtype == np.float64 and per.shape == (201,)
    pinned = FUNCTIONAL_PER_TIME[fname, seed]
    if per.tobytes() != pinned.tobytes():
        moved = per.view(np.int64) != pinned.view(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(moved, np.abs(per - pinned) / np.abs(pinned), 0.0)
        i = int(np.argmax(np.nan_to_num(rel, nan=np.inf)))
        pytest.fail(f"per_time moved at {moved.sum()} of 201 points, most "
                    f"at index {i}: {float(pinned[i])!r} -> {float(per[i])!r}, "
                    f"{rel[i]:.3g} relative")



@pytest.mark.parametrize("command", sorted(CLI_REPORTS))
def test_cli_study_report_is_bytewise_pinned(tmp_path, capsys, command):
    json_out, csv_out = tmp_path / "rep.json", tmp_path / "rep.csv"
    assert main([*command, *_CLI_STUDY, "--json", str(json_out),
                 "--csv", str(csv_out)]) == 0
    assert (json_out.read_bytes().decode(), csv_out.read_bytes().decode()) \
        == CLI_REPORTS[command]


@pytest.mark.parametrize("command", sorted(CLI_LONG_REPORTS))
def test_cli_study_report_over_many_windows_is_bytewise_pinned(
        tmp_path, capsys, command):
    json_out, csv_out = tmp_path / "rep.json", tmp_path / "rep.csv"
    assert main([*command, *_CLI_LONG_STUDY, "--json", str(json_out),
                 "--csv", str(csv_out)]) == 0
    assert (json_out.read_bytes().decode(), csv_out.read_bytes().decode()) \
        == CLI_LONG_REPORTS[command]


def test_gap_records_are_bitwise_pinned():
    rng = np.random.default_rng(12)
    a, b = _hermitian(rng), _hermitian(rng)
    grid = TimeGrid.uniform(1.0, 8)
    ens = simulate_hbm_ensemble(N, grid, 4, seed=5)
    params = {"n": N, "paths": 4, "seed": 5, "mesh": grid.mesh, "t": 1.0}
    H = BoundBiprocess(parse("x1 y1"), grid, N, {1: a})
    K = BoundBiprocess(parse("y1 x2 + tr(x2 y1) x2"), grid, N, {2: b})
    K2 = BoundBiprocess(parse("y1 x2"), grid, N, {2: b})
    L = BoundTriprocess(parse("y1 y2"), grid, N)
    assert json.dumps(substitution_check(H, K, ens, params),
                      sort_keys=True) == SUBSTITUTION_RECORD
    assert json.dumps(qc_of_integrals_check(H, K2, L, ens, ens, 0.75,
                                            params),
                      sort_keys=True) == QC_OF_INTEGRALS_RECORD


def test_one_point_grid():
    grid = TimeGrid([0.0])
    vals = simulate_hbm_ensemble(N, grid, 2, seed=3).values
    model = ContractionModel.matrix(N)
    for text in POLYS + ("3 x1 + 2", "5"):
        for second_order in ("contracted", "quadratic"):
            res = ito_residual_path(parse(text), vals, grid, model,
                                    second_order)
            assert res.shape == (2, 1, N, N)
            assert not np.any(res)
    assert np.isfinite(qc_gap_l1(N, grid, 2, 3, _sandwich_matrix(),
                                 chunk=2))


if __name__ == "__main__":
    # re-record the per_time pins:
    # PYTHONPATH=src python tests/test_pinned_studies.py
    FUNCTIONAL_PER_TIME_FILE.write_text(json.dumps({
        fname: {str(seed): [float(x).hex()
                            for x in _functional_per_time(fname, seed)]
                for seed in range(3)}
        for fname in FUNCTIONAL_SPECS}, indent=1) + "\n")
