"""Acceptance suite: every verification criterion, each with its stated
tolerance, run at the fixed master seed 0.

Each test calls the corresponding check in nctrace.selftest and asserts
its `passed` field; the record is rendered into the failure message so a
red test shows the measured numbers next to the tolerance that was
violated.
"""

from nctrace import selftest
from nctrace.reports import to_json

SEED = 0


def _run(check):
    rec = check(SEED)
    assert rec["passed"], to_json([rec])
    return rec


def test_01_golden_partial_derivative_is_exact():
    # symbolic partial of the 4-variable golden expression matches the
    # hand-derived canonical form exactly (no tolerance)
    _run(selftest.check_golden_partial)


def test_02_power_derivatives_match_closed_form():
    # derive_k(x1^m, k) equals the independent permutation/composition
    # construction exactly for m <= 6, k <= 3
    _run(selftest.check_power_derivatives)


def test_03_derivative_matches_finite_differences():
    # symbolic directional derivatives vs central finite differences on
    # random Hermitian inputs, relative error <= 1e-6
    rec = _run(selftest.check_finite_difference)
    assert rec["lhs"] <= 1e-6


def test_04_rank_one_magic_formula():
    # sum_e e m e over the tr_n-orthonormal Hermitian basis equals
    # tr(m)/n^2 * I to 1e-12
    rec = _run(selftest.check_magic_formula)
    assert rec["gap"] <= 1e-12


def test_05_gamma_rules_match_increment_moments():
    # each contraction rule vs Monte-Carlo moments of HBM increments,
    # all z-scores <= 3
    rec = _run(selftest.check_gamma_rules_mc)
    assert rec["lhs"] <= 3


def test_06_qc_gap_shrinks_like_sqrt_mesh():
    # quadratic covariation Riemann sums vs the closed form: gaps
    # decrease monotonically over a 4-mesh family with log-log slope in
    # [0.3, 0.7]
    rec = _run(selftest.check_qc_convergence)
    assert 0.3 <= rec["slope"] <= 0.7


def test_07_ito_residuals_decay_with_mesh():
    # for x1^2, x1^4 and tr(x1^2) x1 the formula residual drops by at
    # least 1.3x per mesh halving; affine polynomials sit at 1e-12
    _run(selftest.check_ito_residuals)


def test_08_ito_isometry():
    # E tr_n |int H dM|^2 equals the QC form within 3 standard errors,
    # for both a biprocess and an elementary predictable integrand
    rec = _run(selftest.check_ito_isometry)
    assert rec["lhs"] <= 3


def test_09_bdg_second_moment_identity():
    # E tr_n M_t^2 = E [M]_t within 3 standard errors for a stopped
    # stochastic integral
    rec = _run(selftest.check_bdg)
    assert rec["lhs"] <= 3


def test_10_martingale_fv_pythagoras():
    # E tr_n (M + A)^2 splits into the two energies within 3 SE
    rec = _run(selftest.check_pythagoras)
    assert rec["lhs"] <= 3


def test_11_finite_variation_kills_qc():
    # quadratic covariation of a smooth path vanishes: final value
    # <= 1e-3 at mesh 1e-4 with decay slope >= 0.7
    rec = _run(selftest.check_fv_kills_qc)
    assert rec["lhs"] <= 1e-3


def test_12_substitution_and_qc_of_integrals():
    # int H[dU] = int (H o K)[dX] on the grid, and the QC of two
    # integrals equals the composed closed form, both to 1e-8
    rec = _run(selftest.check_substitution_qcsi)
    assert rec["substitution_gap"] <= 1e-8
    assert rec["qc_of_integrals_gap"] <= 1e-8


def test_13_divided_differences_exact_and_stable():
    # exact rational values for polynomials, quadrature oracle for
    # exponentials to 1e-8, and coalescence stability
    rec = _run(selftest.check_divided_differences)
    assert rec["lhs"] <= 1e-8


def test_14_moi_matches_derivatives():
    # multiple operator integrals vs finite differences of the operator
    # function, relative error <= 1e-4
    _run(selftest.check_moi_derivatives)


def test_15_moi_pairing_with_trace_poly_route():
    # k! * MOI with equal directions equals the evaluated k-linear
    # derivative symbol to 1e-10
    rec = _run(selftest.check_moi_pairing)
    assert rec["lhs"] <= 1e-10


def test_16_semicircle_law():
    # KS distance of the ESD to the semicircle CDF <= 0.06 at n = 512,
    # first Catalan moments within 0.15
    rec = _run(selftest.check_semicircle)
    assert rec["lhs"] <= 0.06


def test_17_free_limit_scaling():
    # cross-trace QC statistic decays like n^-2 over n in {4,...,256}:
    # fitted slope in [-2.4, -1.6]
    rec = _run(selftest.check_free_limit)
    assert -2.4 <= rec["slope"] <= -1.6


def test_18_reports_are_byte_deterministic():
    # three checks' report files, written by subprocesses under 1 and 2
    # BLAS threads, are byte-equal
    _run(selftest.check_determinism)


def test_18_determinism_fails_on_thread_dependent_output(tmp_path,
                                                         monkeypatch):
    same = selftest._same_bytes_under_blas_threads
    write = "import os, sys; open(sys.argv[-1], 'w').write({})"
    assert same(["-c", write.format("'x'")])
    assert not same(["-c", write.format("os.environ['OPENBLAS_NUM_THREADS']")])
    assert not same(["-c", "raise SystemExit(1)"])
    # a report writer that adds the thread count fails the check itself
    (tmp_path / "sitecustomize.py").write_text(
        "import os\n"
        "from nctrace import reports\n"
        "write = reports.write_json\n"
        "reports.write_json = lambda records, filename: write(\n"
        "    records + [{'threads': os.environ['OPENBLAS_NUM_THREADS']}],\n"
        "    filename)\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    rec = selftest.check_determinism(SEED)
    assert not rec["passed"] and rec["lhs"] == 0.0


def test_run_selftest_covers_all_criteria():
    names = [c.__name__ for c in selftest.ALL_CHECKS]
    assert len(names) == 18
    assert len(set(names)) == 18
