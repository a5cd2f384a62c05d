"""Acceptance suite: every contractual check as a report-producing function.

Each criterion function returns one report record with a "passed" field;
``run_selftest`` collects them all; the isometry and BDG checks each pair
two z-tests in one record (``_pair_report``).  Everything is driven by
one master seed and nothing here depends on wall-clock time or thread
scheduling, so two runs with the same seed serialize to identical bytes:
``check_determinism`` compares the report files of two ``nctrace
selftest`` subprocesses, one under one BLAS thread and one under two.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Iterator

import numpy as np

from .evaluator import EvalContext, eval_multilinear, eval_poly
from .ito import ito_residual_path, ito_sup_residuals
from .matrix_alg import (
    ScalarFunctionSpec,
    _compositions,
    divided_diff,
    dk_operator_function,
    esd_distance,
    l1_trace_norms,
    magic_sum,
    moi,
    op_function,
    trace_n,
)
from .parsing import parse
from .process_sim import (
    ProcessPath,
    RngStream,
    TimeGrid,
    _hbm_increments_basis,
    hbm_windows,
    kappa_estimate,
    make_fv,
    simulate_hbm,
    simulate_hbm_ensemble,
)
from .reports import fit_loglog_slope, make_report
from .stoch_int import (
    BoundBiprocess,
    BoundTriprocess,
    ElementaryPredictable,
    bdg_stats,
    ito_isometry_check,
    qc_convergence_study,
    qc_of_integrals_check,
    quad_rs_path,
    rs_integral,
    substitution_check,
)
from .trace_poly import (
    ContractionModel,
    TracePolynomial,
    derive,
    derive_k,
    x,
    y,
)


def _rand_hermitian(rng, n, scale=1.0):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g + g.conj().T) / 2


def _sup_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _worst(values) -> float:
    # NaN if any is: Python's max drops a NaN that is not in first place
    return float(np.max(values))


# 1. golden partial derivative ---------------------------------------------


def check_golden_partial(seed: int) -> dict:
    P = parse("x1 x2 x2' x3 + 3i tr(x1 x2') x2 + x1' x3^2 + 5")
    expected = parse(
        "x1 y1 x2' x3 + x1 x2 y1' x3 + 3i tr(x1 y1') x2 + 3i tr(x1 x2') y1"
    )
    ok = derive(P, 2) == expected
    return make_report("golden_partial", {"seed": seed},
                       float(ok), 1.0, passed=ok)


# 2. d^k of x^n closed form ------------------------------------------------


def _power_derivative_closed_form(n_pow: int, k: int) -> TracePolynomial:
    """Independent construction: sum over permutations and compositions."""
    terms = []
    for perm in itertools.permutations(range(1, k + 1)):
        # compositions of n_pow - k into k + 1 nonnegative parts
        for delta in _compositions(n_pow - k, k + 1):
            word = []
            for m in range(k):
                word.extend([x(1)] * delta[m])
                word.append(y(perm[m]))
            word.extend([x(1)] * delta[k])
            terms.append((((), tuple(word)), 1))
    return TracePolynomial(terms)


def check_power_derivatives(seed: int) -> dict:
    failures = 0
    total = 0
    for n_pow in range(1, 7):
        P = TracePolynomial.from_word([x(1)] * n_pow)
        for k in range(1, min(3, n_pow) + 1):
            total += 1
            if derive_k(P, k) != _power_derivative_closed_form(n_pow, k):
                failures += 1
    return make_report("power_derivatives", {"seed": seed},
                       float(total - failures), float(total),
                       passed=failures == 0)


# 3. finite-difference derivative check ------------------------------------


def _random_trace_poly(rng) -> TracePolynomial:
    P = TracePolynomial.zero()
    for _ in range(rng.integers(1, 4)):
        word = tuple(
            x(1, bool(rng.integers(0, 2)))
            for _ in range(rng.integers(1, 4))
        )
        term = TracePolynomial.from_word(word, coeff=int(rng.integers(-3, 4)))
        if rng.integers(0, 2):
            tr_word = tuple(
                x(1, bool(rng.integers(0, 2)))
                for _ in range(rng.integers(1, 3))
            )
            term = term * TracePolynomial.from_word(tr_word).tr()
        P = P + term
    return P


def check_finite_difference(seed: int) -> dict:
    rng = np.random.default_rng(seed + 3)
    n, eps = 8, 1e-4
    gaps = []
    for _ in range(50):
        P = _random_trace_poly(rng)
        a = _rand_hermitian(rng, n)
        b = _rand_hermitian(rng, n)
        dP = derive_k(P, 1)
        got = eval_multilinear(dP, EvalContext(n, {1: a}), [b])
        fd = (
            eval_poly(P, EvalContext(n, {1: a + eps * b}))
            - eval_poly(P, EvalContext(n, {1: a - eps * b}))
        ) / (2 * eps)
        gaps.append(_sup_abs(got - fd) / max(1.0, _sup_abs(got)))
    worst = _worst(gaps)
    return make_report("finite_difference", {"n": n, "seed": seed},
                       worst, 1e-6, passed=worst <= 1e-6)


# 4. magic formula ---------------------------------------------------------


def check_magic_formula(seed: int) -> dict:
    rng = np.random.default_rng(seed + 4)
    gaps = []
    for n in (2, 4, 8, 16):
        for _ in range(20):
            a = _rand_hermitian(rng, n)
            gaps.append(_sup_abs(magic_sum(a) - trace_n(a) * np.eye(n)))
    worst = _worst(gaps)
    return make_report("magic_formula", {"seed": seed},
                       worst, 1e-12, passed=worst <= 1e-12)


# 5. gamma contraction rules vs Monte Carlo --------------------------------


def check_gamma_rules_mc(seed: int) -> dict:
    n, dt, total, chunk = 8, 1e-3, 100_000, 10_000
    rng = np.random.default_rng(seed + 5)
    u, v, w, probe = (_rand_hermitian(rng, n) for _ in range(4))
    dts = np.full(chunk, dt)
    dx = np.empty((chunk, n, n), dtype=complex)
    stats = {name: [] for name in ("R1", "R2", "R3", "R4")}
    for c in range(total // chunk):
        _hbm_increments_basis(n, dts, [RngStream(seed + 5, c).generator],
                              dx[:, None])
        udxv = u @ dx @ v
        tr_udx = np.einsum("ij,pji->p", u, dx) / n
        tr_vdx = np.einsum("ij,pji->p", v, dx) / n
        stats["R1"].append(
            np.einsum("pij,pji->p", udxv, dx @ w) / n / dt
        )
        stats["R2"].append(
            np.einsum("pij,pji->p", udxv, dx) / n / dt
        )
        stats["R3"].append(tr_udx * tr_vdx / dt)
        # tr(v dx w probe) = tr(dx (w probe v)): one n^2 contraction per
        # sample instead of an unordered four-factor einsum
        stats["R4"].append(
            tr_udx * np.einsum("pjk,kj->p", dx, w @ probe @ v) / n / dt
        )
    oracles = {
        "R1": trace_n(v) * trace_n(u @ w),
        "R2": trace_n(u) * trace_n(v),
        "R3": trace_n(u @ v) / n**2,
        "R4": trace_n(v @ u @ w @ probe) / n**2,
    }
    details = {}
    for name, chunks in stats.items():
        samples = np.concatenate(chunks)
        mean = complex(np.mean(samples))
        se = math.sqrt(
            (np.var(samples.real, ddof=1) + np.var(samples.imag, ddof=1))
            / len(samples)
        )
        z = abs(mean - complex(oracles[name])) / se
        details[f"z_{name}"] = z
    max_z = _worst(list(details.values()))
    return make_report("gamma_rules_mc",
                       {"n": n, "paths": total, "seed": seed, "mesh": dt},
                       max_z, 3.0, passed=max_z <= 3.0, extra=details)


# 6. QC convergence --------------------------------------------------------


def check_qc_convergence(seed: int) -> dict:
    def passes(gaps, slope):
        monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
        return monotone and 0.3 <= slope <= 0.7

    return qc_convergence_study(16, [0.02, 0.01, 0.005, 0.0025], 200, seed,
                                passes)


# 7. Ito residual convergence ----------------------------------------------


def check_ito_residuals(seed: int) -> dict:
    n, paths = 16, 100
    model = ContractionModel.matrix(n)
    meshes = [0.02, 0.01, 0.005, 0.0025, 0.00125]
    details = {}
    texts = ("x1^2", "x1^4", "tr(x1^2) x1")
    per_mesh = [
        ito_sup_residuals([parse(t) for t in texts], n,
                          TimeGrid.from_mesh(1.0, m), paths,
                          seed * 31 + 7000 + i, model)
        for i, m in enumerate(meshes)
    ]
    factors = []
    for k, text in enumerate(texts):
        sups = [row[k] for row in per_mesh]
        factors += [a / b for a, b in zip(sups, sups[1:])]
        details[f"residuals {text}"] = sups
    # np.min, unlike Python's min, keeps a NaN factor
    worst_factor = float(np.min(factors))
    # affine polynomial: exact telescoping
    grid = TimeGrid.from_mesh(1.0, 0.01)
    path = simulate_hbm(n, grid, RngStream(seed + 7, 0))
    affine_res = _sup_abs(
        ito_residual_path(parse("3 x1 + 2"), path.values, grid, model)
    )
    ok = worst_factor >= 1.3 and affine_res <= 1e-12
    details["affine_residual"] = affine_res
    return make_report("ito_residuals",
                       {"n": n, "paths": paths, "seed": seed,
                        "mesh": meshes[-1], "t": 1.0},
                       worst_factor, 1.3, passed=ok, extra=details)


def _pair_report(check: str, params: dict, **reports) -> dict:
    """One record of two paired z-test reports, each kept under its name:
    the larger |z| against 3, passed when both pass."""
    first, second = reports.values()
    return make_report(check, params,
                       _worst([abs(first["zscore"]), abs(second["zscore"])]),
                       3.0, passed=first["passed"] and second["passed"],
                       extra=reports)


# 8. Ito isometry ----------------------------------------------------------


def check_ito_isometry(seed: int) -> dict:
    n, paths = 8, 1000
    grid = TimeGrid.uniform(1.0, 40)
    ens = simulate_hbm_ensemble(n, grid, paths, seed=seed * 13 + 8)
    params = {"n": n, "paths": paths, "seed": seed, "mesh": grid.mesh,
              "t": 1.0}
    rep_id = ito_isometry_check(
        BoundBiprocess(parse("y1"), grid, n), ens, 1.0, params
    )
    rng = np.random.default_rng(seed + 8)
    c = _rand_hermitian(rng, n)
    H = ElementaryPredictable([(0.25, 0.75, parse("x1 y1 x1"), {1: c})])
    rep_el = ito_isometry_check(H, ens, 1.0, params)
    return _pair_report("ito_isometry_pair", params,
                        identity=rep_id, sandwich=rep_el)


# 9. BDG p=2 ---------------------------------------------------------------


def check_bdg(seed: int) -> dict:
    n, paths = 8, 800
    grid = TimeGrid.from_mesh(1.0, 0.02)
    ens = simulate_hbm_ensemble(n, grid, paths, seed=seed * 17 + 9)
    params = {"n": n, "paths": paths, "seed": seed, "mesh": grid.mesh,
              "t": 1.0}
    rep_hbm = bdg_stats(ens, 2, 1.0, params)
    # the integral of c dM is itself a martingale; stopped at t = 0.5
    rng = np.random.default_rng(seed + 9)
    c = _rand_hermitian(rng, n)
    u_vals = rs_integral(
        ElementaryPredictable([(0.0, 0.5, parse("x1 y1"), {1: c})]), ens)
    rep_int = bdg_stats(ProcessPath(grid, u_vals, "martingale"), 2, 1.0,
                        params)
    return _pair_report("bdg_pair", params, hbm=rep_hbm, integral=rep_int)


# 10. martingale Pythagoras ------------------------------------------------


def check_pythagoras(seed: int) -> dict:
    n, paths = 6, 2000
    grid = TimeGrid.uniform(1.0, 16)
    ens = simulate_hbm_ensemble(n, grid, paths, seed=seed * 19 + 10)
    rng = np.random.default_rng(seed + 10)
    zs = []
    for _ in range(10):
        i, j = sorted(rng.choice(grid.steps, size=2, replace=False) + 1)
        s, t = grid.times[i], grid.times[j]
        full, se_full = kappa_estimate(ens, 0.0, t)
        head, se_head = kappa_estimate(ens, 0.0, s)
        tail, se_tail = kappa_estimate(ens, s, t)
        se = math.sqrt(se_full**2 + se_head**2 + se_tail**2)
        zs.append(abs(full - head - tail) / se)
    max_z = _worst(zs)
    return make_report("martingale_pythagoras",
                       {"n": n, "paths": paths, "seed": seed, "t": 1.0},
                       max_z, 3.0, passed=max_z <= 3.0)


# 11. FV legs kill QC ------------------------------------------------------


def check_fv_kills_qc(seed: int) -> dict:
    n, paths = 4, 4
    finals = []
    meshes = [1e-2, 1e-3, 1e-4]
    for i, mesh in enumerate(meshes):
        grid = TimeGrid.from_mesh(1.0, mesh)
        A = make_fv(grid, n, g=math.sin)
        L = BoundTriprocess(parse("y1 y2"), grid, n)
        ens = simulate_hbm_ensemble(n, grid, paths, seed * 23 + 11 + i)
        q = quad_rs_path(L, ens, A.values)[:, -1]
        finals.append(float(np.mean(l1_trace_norms(q))))
    slope = fit_loglog_slope(meshes, finals)
    ok = finals[-1] <= 1e-3 and slope >= 0.7
    return make_report("fv_kills_qc",
                       {"n": n, "paths": paths, "seed": seed,
                        "mesh": meshes[-1], "t": 1.0},
                       finals[-1], 1e-3, slope=slope, passed=ok,
                       extra={"meshes": meshes, "residuals": finals})


# 12. substitution and QC of integrals -------------------------------------


def check_substitution_qcsi(seed: int) -> dict:
    n, paths, chunk = 8, 200, 50
    grid = TimeGrid.from_mesh(1.0, 1e-3)
    rng = np.random.default_rng(seed + 12)
    a = _rand_hermitian(rng, n)
    b = _rand_hermitian(rng, n)
    params = {"n": n, "paths": paths, "seed": seed, "mesh": grid.mesh,
              "t": 1.0}
    H = BoundBiprocess(parse("x1 y1"), grid, n, {1: a})
    K = BoundBiprocess(parse("y1 x2 + tr(x2 y1) x2"), grid, n, {2: b})
    K2 = BoundBiprocess(parse("y1 x2"), grid, n, {2: b})
    L = BoundTriprocess(parse("y1 y2"), grid, n)
    sub_gaps, qcsi_gaps = [], []
    for ((_, _, vals),) in hbm_windows(n, grid, paths, seed * 29 + 12, chunk):
        sub_gaps.append(substitution_check(H, K, vals, params)["l1_gap"])
        qcsi_gaps.append(qc_of_integrals_check(H, K2, L, vals, vals, 1.0,
                                               params)["l1_gap"])
    worst_sub, worst_qcsi = _worst(sub_gaps), _worst(qcsi_gaps)
    tol = 1e-8
    ok = worst_sub <= tol and worst_qcsi <= tol
    return make_report("substitution_qcsi", params,
                       _worst([worst_sub, worst_qcsi]), tol, passed=ok,
                       extra={"substitution_gap": worst_sub,
                              "qc_of_integrals_gap": worst_qcsi})


# 13. divided differences --------------------------------------------------


def _contour_dd(f: ScalarFunctionSpec, nodes) -> complex:
    """f[λ_0, …, λ_k] of an entire ``f``: the Cauchy integral (1/2πi)∮
    f(z)/Π_j(z − λ_j) dz on the circle of radius 1 + max|λ_j − c| about the
    nodes' mean c, by the trapezoid rule on 96 points, which converges
    geometrically (Trefethen and Weideman, SIAM Review 56, 2014)."""
    lam = np.asarray(nodes, dtype=float)
    c = lam.mean()
    z = c + (1.0 + np.max(np.abs(lam - c))) * np.exp(
        2j * np.pi * np.arange(96) / 96)
    return complex(np.mean(f(z) * (z - c) / np.prod(z[:, None] - lam, axis=1)))


def check_divided_differences(seed: int) -> dict:
    rng = np.random.default_rng(seed + 13)
    exact_fail = 0
    for _ in range(10):
        deg = int(rng.integers(4, 9))
        coeffs = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
                  for _ in range(deg + 1)]
        p = ScalarFunctionSpec.polynomial(coeffs)
        for k in range(1, 5):
            nodes = [Fraction(int(rng.integers(-4, 5)), 2)
                     for _ in range(k + 1)]
            got = divided_diff(p, nodes)
            # independent oracle: the closed-form composition sum
            want = sum(
                c * sum(
                    math.prod(nd**d for nd, d in zip(nodes, delta))
                    for delta in _compositions(i - k, k + 1)
                )
                for i, c in enumerate(coeffs) if i >= k
            )
            if got != want:
                exact_fail += 1
    gaps = []
    f = ScalarFunctionSpec.exp_sum([(1.0, 2.0), (0.5j, -1.3)])
    for _ in range(5):
        for k in (1, 2):
            nodes = rng.uniform(-1, 1, size=k + 1).tolist()
            # independent oracle: a contour integral, no Newton table
            gaps.append(abs(complex(divided_diff(f, nodes))
                            - _contour_dd(f, nodes)))
    worst = _worst(gaps)
    ok = exact_fail == 0 and worst <= 1e-8
    return make_report("divided_differences", {"seed": seed},
                       worst, 1e-8, passed=ok,
                       extra={"exact_failures": exact_fail})


# 14. MOI derivative checks ------------------------------------------------


def check_moi_derivatives(seed: int) -> dict:
    rng = np.random.default_rng(seed + 14)
    n = 8
    a = _rand_hermitian(rng, n)
    b = _rand_hermitian(rng, n)
    f = ScalarFunctionSpec.exp_sum([(1.0, 1.1), (0.4, -0.6)])
    h1, h2 = 1e-5, 1e-4
    fd1 = (op_function(f, a + h1 * b) - op_function(f, a - h1 * b)) / (2 * h1)
    d1 = moi(f, 1, (a, a), (b,))
    rel1 = _sup_abs(d1 - fd1) / max(1.0, _sup_abs(d1))
    fd2 = (
        op_function(f, a + h2 * b)
        - 2 * op_function(f, a)
        + op_function(f, a - h2 * b)
    ) / h2**2
    d2 = dk_operator_function(f, a, 2, (b, b))
    rel2 = _sup_abs(d2 - fd2) / max(1.0, _sup_abs(d2))
    ok = rel1 <= 1e-5 and rel2 <= 1e-4
    return make_report("moi_derivatives", {"n": n, "seed": seed},
                       _worst([rel1, rel2]), 1e-4, passed=ok,
                       extra={"rel_d1": rel1, "rel_d2": rel2})


# 15. MOI vs derive_k pairing ----------------------------------------------


def check_moi_pairing(seed: int) -> dict:
    rng = np.random.default_rng(seed + 15)
    n = 6
    gaps = []
    for deg in range(2, 7):
        p_sym = TracePolynomial.from_word([x(1)] * deg)
        f = ScalarFunctionSpec.polynomial([0] * deg + [1])
        a = _rand_hermitian(rng, n)
        b = _rand_hermitian(rng, n)
        for k in range(1, min(3, deg) + 1):
            lhs = math.factorial(k) * moi(f, k, (a,) * (k + 1), (b,) * k)
            rhs = eval_multilinear(
                derive_k(p_sym, k), EvalContext(n, {1: a}), [b] * k
            )
            gaps.append(_sup_abs(lhs - rhs) / max(1.0, _sup_abs(rhs)))
    worst = _worst(gaps)
    return make_report("moi_pairing", {"n": n, "seed": seed},
                       worst, 1e-10, passed=worst <= 1e-10)


# 16. semicircle -----------------------------------------------------------


def check_semicircle(seed: int) -> dict:
    n = 512
    grid = TimeGrid.uniform(1.0, 1)
    X = simulate_hbm(n, grid, RngStream(seed * 37 + 16, 0))
    x1 = X.values[-1]
    ks = esd_distance(x1, 1.0)
    catalan = {2: 1.0, 4: 2.0, 6: 5.0}
    details = {"ks": ks}
    moment_gaps = []
    m = np.eye(n, dtype=complex)
    for power in range(1, 7):
        m = m @ x1
        if power in catalan:
            val = float(np.trace(m).real / n)
            details[f"moment_{power}"] = val
            moment_gaps.append(abs(val - catalan[power]))
    ok = ks <= 0.06 and _worst(moment_gaps) <= 0.15
    return make_report("semicircle", {"n": n, "seed": seed, "t": 1.0},
                       ks, 0.06, passed=ok, extra=details)


# 17. free-limit scaling ---------------------------------------------------


def _free_limit_terms(n: int, grid: TimeGrid, paths: int, seed: int,
                      block: int = 8) -> Iterator[np.ndarray]:
    """For each HBM path p of the stream keyed (seed, p), its steps'
    tr_n(X_k (X_{k+1} - X_k)) / n, k = 0 .. T - 2, as one array.  The path
    is walked ``block`` grid points at a time and never held whole: each
    window starts at the point before its block, so the step across the
    seam is the window's first, and the terms are the bits of the
    whole-path ``einsum``."""
    for walk in hbm_windows(n, grid, paths, seed, 1, block):
        terms = []
        for _, _, window in walk:
            points = window[0]
            left = points[:-1]
            terms.append(np.einsum("tij,tji->t", left, points[1:] - left) / n)
        yield np.concatenate(terms)


def check_free_limit(seed: int) -> dict:
    dims = [4, 16, 64, 256]
    mesh = 0.02
    grid = TimeGrid.from_mesh(1.0, mesh)
    mags = []
    for i, n in enumerate(dims):
        paths = 16 if n <= 64 else 6
        vals = [abs(complex(np.sum(s * s))) for s in
                _free_limit_terms(n, grid, paths, seed * 41 + 17 + i)]
        mags.append(float(np.mean(vals)))
    slope = fit_loglog_slope(dims, mags)
    ok = -2.4 <= slope <= -1.6
    return make_report("free_limit_scaling",
                       {"n": dims[-1], "paths": 16, "seed": seed,
                        "mesh": mesh, "t": 1.0},
                       mags[0], mags[-1], slope=slope, passed=ok,
                       extra={"dims": dims, "magnitudes": mags})


# 18. determinism ----------------------------------------------------------


def _same_bytes_under_blas_threads(argv: list[str]) -> bool:
    """Whether ``python *argv --json F`` exits 0 and writes the same bytes
    to F under OPENBLAS_NUM_THREADS=1 and =2, each run in a subprocess of
    its own with this package's source first on PYTHONPATH."""
    # imported here: this check is its only user, and loading it added
    # about 0.3 MB to the peak RSS of every command
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        for threads in ("1", "2"):
            out = os.path.join(tmp, f"threads{threads}.json")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            run = subprocess.run([sys.executable, *argv, "--json", out],
                                 env=env, capture_output=True)
            if run.returncode != 0:
                return False
            with open(out, "rb") as fh:
                outs.append(fh.read())
    return outs[0] == outs[1]


def check_determinism(seed: int) -> dict:
    """Three fast checks' report files, written by ``nctrace selftest`` in
    two subprocesses under 1 and 2 BLAS threads, are byte-equal."""
    ok = _same_bytes_under_blas_threads(
        ["-m", "nctrace.cli", "selftest", "--seed", str(seed),
         "--checks", "golden_partial,magic_formula,pythagoras"])
    return make_report("determinism", {"seed": seed},
                       float(ok), 1.0, passed=ok)


ALL_CHECKS = [
    check_golden_partial,
    check_power_derivatives,
    check_finite_difference,
    check_magic_formula,
    check_gamma_rules_mc,
    check_qc_convergence,
    check_ito_residuals,
    check_ito_isometry,
    check_bdg,
    check_pythagoras,
    check_fv_kills_qc,
    check_substitution_qcsi,
    check_divided_differences,
    check_moi_derivatives,
    check_moi_pairing,
    check_semicircle,
    check_free_limit,
    check_determinism,
]


def run_selftest(seed: int = 0, checks=None) -> list[dict]:
    """Run the acceptance suite; returns one record per criterion."""
    selected = ALL_CHECKS if checks is None else [
        c for c in ALL_CHECKS if c.__name__.removeprefix("check_") in checks
    ]
    return [c(seed) for c in selected]
