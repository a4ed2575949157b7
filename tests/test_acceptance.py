"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s or
in captured output) and asserts the criterion.  The statistical criteria
share the session-scoped Monte-Carlo runs from conftest.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0

from arw import experiments, field, lattice, nodal
from arw.algebra import AlgPoly, chebyshev_pair, gradient_system_jacobian, example_trig_poly, verify_csd_identities
from arw.experiments import proof_exponents

from oracles import (
    box_counts,
    chi_square_tail_bound,
    flood_fill_components,
    flood_fill_domains,
    main_mask,
)

SEQ_DIMS_N = (5, 65, 325, 1105)  # dims 8, 16, 24, 32


def _report(num: int, name: str, passed: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def _certified(records):
    return [rec for rec in records if rec.certified]


def test_criterion_01_lattice_oracle_equivalence():
    ok = True
    for d in (2, 3, 4, 5):
        counts = box_counts(d, 500)
        for n in range(1, 501):
            if lattice.representation_count(d, n) != int(counts[n]):
                ok = False
    jacobi_ok = all(
        lattice.representation_count(4, n) == lattice.jacobi_four_square_count(n)
        for n in range(1, 200, 2)
    )
    _report(1, "representation counts match box and Jacobi oracles", ok and jacobi_ok)


def test_criterion_02_orthogonality_identity():
    ok = True
    detail = []
    rng = np.random.default_rng(42)
    for d in (2, 3, 4):
        counts, sums = lattice.ball_moment_sweep(d, 10**4)
        checked = 0
        for n in range(1, 10**4 + 1):
            N = int(counts[n])
            if N == 0:
                continue
            if (n * N) % d != 0 or not np.array_equal(
                sums[n], np.eye(d, dtype=np.int64) * (n * N // d)
            ):
                ok = False
            checked += 1
        detail.append(f"d={d}: {checked} shells")
        # tie the batch sweep to the per-shell operation on a subsample
        spot_max = {2: 10**4, 3: 2000, 4: 300}[d]
        nonempty = [n for n in rng.integers(1, spot_max, size=200) if counts[n] > 0][:50]
        for n in nonempty:
            shell = lattice.enumerate_shell(d, int(n))
            if not np.array_equal(lattice.orthogonality_sums(shell), sums[n]):
                ok = False
    _report(2, "second-moment identity exact for every shell to n=10^4", ok, "; ".join(detail))


def test_criterion_03_parseval_and_fft():
    rng = np.random.default_rng(3)
    worst_rel, worst_abs = 0.0, 0.0
    cases = [(2, 25), (2, 65), (3, 9), (3, 17)]
    per_case = [13, 13, 12, 12]  # 50 samples total
    for (d, n), reps in zip(cases, per_case):
        shell = lattice.enumerate_shell(d, n)
        M = field.min_alias_free_M(n) + 2
        for trial in range(reps):
            sample = field.sample_coefficients(shell, 1001, trial)
            grid = field.eval_grid(sample, M)
            coef, gnorm = field.parseval_norm(sample, grid)
            worst_rel = max(worst_rel, abs(coef - gnorm) / coef)
            idx = rng.integers(0, M, size=(100, d))
            direct = field.eval_points(sample, idx / M)
            worst_abs = max(worst_abs, float(np.max(np.abs(grid.values[tuple(idx.T)] - direct))))
    _report(
        3,
        "Parseval and FFT/direct agreement at 1e-9",
        worst_rel <= 1e-9 and worst_abs <= 1e-9,
        f"max rel {worst_rel:.2e}, max abs {worst_abs:.2e}",
    )


def test_criterion_04_norm_concentration():
    shell = lattice.enumerate_shell(2, 65)
    assert shell.dim_HL == 16
    exceed = sum(
        1 for t in range(10**4) if field.sample_coefficients(shell, 777, t).coef_norm() > 2.0
    )
    oracle = chi_square_tail_bound(16, 64.0)
    _report(
        4,
        "no norm above 2 in 10^4 trials at dim 16",
        exceed == 0,
        f"chi-square tail {oracle:.2e}",
    )


def test_criterion_05_topology_oracle():
    ok = True
    for D in range(1, 9):
        shell = lattice.enumerate_shell(2, D * D)
        for kind in ("cos", "sin"):
            summary = nodal.analyze(field.pure_mode(shell, (D, 0), kind), 16 * D)
            if (summary.k, summary.r) != (2 * D, 2 * D):
                ok = False
    mismatches = 0
    rng_n = [5, 13, 25, 10]
    for i in range(200):
        n = rng_n[i % 4]
        shell = lattice.enumerate_shell(2, n)
        sample = field.sample_coefficients(shell, 4242, i)
        sg = nodal.sign_grid(field.eval_grid(sample, 32))
        r, _, _ = nodal.count_domains(sg)
        k, *_ = nodal.count_components(sg)
        if r != flood_fill_domains(sg.signs, main_mask(sg))[0]:
            mismatches += 1
        if k != flood_fill_components(sg.signs, main_mask(sg))[0]:
            mismatches += 1
    _report(
        5,
        "deterministic counts exact; flood fill matches on 200 samples",
        ok and mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_06_component_domain_gate(d2_sequence_records, d3_records):
    cert65 = _certified(d2_sequence_records[65])
    ok65 = len(cert65) >= 200 and all(
        rec.r - 1 <= rec.k <= rec.r + 1 for rec in cert65[:200]
    )
    cert317 = _certified(d3_records)
    ok317 = len(cert317) >= 50 and all(
        rec.r - 1 <= rec.k <= rec.r + 2 for rec in cert317[:50]
    )
    _report(
        6,
        "k within [r-1, r+d-1] on all certified trials",
        ok65 and ok317,
        f"d2: {len(cert65)} certified, d3: {len(cert317)} certified",
    )


def test_criterion_07_faber_krahn(d2_sequence_records):
    # independent Bessel-zero oracle for the constant
    j01 = brentq(j0, 2.0, 3.0, xtol=1e-12)
    c2 = j01**2 / (4 * math.pi)
    assert abs(c2 - 0.4602) < 1e-3
    assert abs(nodal.faber_krahn_constant(2) - c2) < 1e-12
    bound = 0.8 * c2 / 65.0
    cert = _certified(d2_sequence_records[65])[:200]
    passing = sum(1 for rec in cert if rec.min_domain_vol >= bound)
    frac = passing / len(cert)
    _report(
        7,
        "min domain volume above 0.8 * c2 / n in >= 99% of certified trials",
        len(cert) >= 200 and frac >= 0.99,
        f"{passing}/{len(cert)}",
    )


def test_criterion_08_perturbation_stability(d2_sequence_records):
    shell = lattice.enumerate_shell(2, 65)
    M = 16 * 9
    cert_trials = [rec.trial_index for rec in _certified(d2_sequence_records[65])][:100]
    count_ok = 0
    diam_ok = 0
    from conftest import SEQ_SEED

    for trial in cert_trials:
        sample = field.sample_coefficients(shell, SEQ_SEED, trial)
        base = nodal.analyze(sample, M)
        if not base.certified:
            continue
        res = nodal.perturb_and_compare(sample, base.alpha / 100.0, 777, M)
        if res.n_before == res.n_after:
            count_ok += 1
        bound = 2 * res.alpha / res.beta + res.grid_slack
        if res.matched == res.n_before and np.all(res.diam_shifts <= bound):
            diam_ok += 1
    _report(
        8,
        "perturbation keeps counts and diameters on 100/100 certified trials",
        count_ok == 100 and diam_ok == 100,
        f"counts {count_ok}/100, diameters {diam_ok}/100",
    )


def _variance_stats(records):
    values = np.array([rec.scaled_count for rec in records])
    var = float(np.var(values, ddof=1))
    se = var * math.sqrt(2.0 / (len(values) - 1))
    return var, se


def test_criterion_09_concentration_trend(d2_sequence_records):
    per_dim = []
    enough = True
    for n in SEQ_DIMS_N:
        cert = _certified(d2_sequence_records[n])
        if len(cert) < 500:
            enough = False
        per_dim.append((cert[0].dim_HL, cert))
    variances = [_variance_stats(cert) for _, cert in per_dim]
    inversions = []
    for (v1, s1), (v2, s2) in zip(variances, variances[1:]):
        if v2 >= v1:
            inversions.append(v2 - v1 <= 2 * (s1 + s2))
    monotone = len(inversions) == 0 or (len(inversions) == 1 and inversions[0])

    # epsilon scale: at odd n in d=2 the domains pair up under the half
    # shift, so k = r is even and at n=5 the scaled count is a multiple of
    # 2/5.  Every epsilon here lies below that atom spacing, so at n=5 each
    # tail frequency is the share of trials whose k is not the median k;
    # these epsilons span ~25-95% of the observed median
    epsilons = (0.05, 0.1, 0.15, 0.2)
    all_records = [rec for n in SEQ_DIMS_N for rec in d2_sequence_records[n]]
    report = experiments.concentration_report(all_records, epsilons=epsilons, min_trials=500)
    tails_low = report.per_n[0].tail_freqs  # n=5 -> dim 8
    tails_high = report.per_n[-1].tail_freqs  # n=1105 -> dim 32
    tails_ok = all(tails_high[eps] <= tails_low[eps] for eps in epsilons)

    var_list = ", ".join(f"{v:.2e}" for v, _ in variances)
    tail_pairs = ", ".join(
        f"eps={eps:g}: {tails_low[eps]:.3f}->{tails_high[eps]:.3f}" for eps in epsilons
    )
    _report(
        9,
        "variance decreasing across dims {8,16,24,32} and tails dominated",
        enough and monotone and tails_ok,
        f"variances [{var_list}], inversions {len(inversions)}; {tail_pairs}",
    )


def test_criterion_10_nu_stabilization(d2_sequence_records):
    records = [rec for n in SEQ_DIMS_N for rec in d2_sequence_records[n]]
    est = experiments.nu_estimate(records)
    significant = est.nu_hat > 5.0 * est.std_error
    _report(
        10,
        "scaled count mean stabilizes within 10% and is 5-sigma positive",
        est.stabilization_gap < 0.10 and significant,
        f"nu_hat {est.nu_hat:.4f} +- {est.std_error:.4f}, gap {est.stabilization_gap:.3f}",
    )


def test_criterion_11_diameter_scaling(d2_sequence_records):
    records = [rec for n in (25, 65, 325, 1105) for rec in d2_sequence_records[n]]
    slope = experiments.diameter_scaling(records, 2)
    _report(
        11,
        "total diameter exponent within [0.7, 1.3] of target d-1=1",
        0.7 <= slope <= 1.3,
        f"slope {slope:.3f}",
    )


def test_criterion_12_algebra_identities():
    report = verify_csd_identities(32)
    jac_ok = True
    for d in (1, 2):
        for D in (1, 2, 3, 4):
            poly = example_trig_poly(d, D, d + 1)
            jac, power = gradient_system_jacobian(poly)
            expected = AlgPoly.constant(2 * d, 2 * D**2) ** d
            for j in range(d):
                _, S = chebyshev_pair(D)
                expected = expected * S.embed(2 * d, [2 * j, 2 * j + 1])
            if jac != expected or power != d:
                jac_ok = False
    _report(12, "C/S identities to D=32 and Jacobian product identity", report.passed and jac_ok)


def test_criterion_13_proof_exponent_calculator():
    e2 = proof_exponents(2)
    values_ok = e2.a == 6 and e2.c_exponent == 15
    ineq_ok = all(proof_exponents(d).satisfied for d in range(2, 11))
    _report(13, "exponent system: d=2 values and inequalities for d<=10", values_ok and ineq_ok)


def test_criterion_14_local_bound_stability():
    rng = np.random.default_rng(14)
    maxima = []
    for n in (25, 65, 325):
        shell = lattice.enumerate_shell(2, n)
        worst = 0.0
        for t in range(100):
            sample = field.sample_coefficients(shell, 550 + n, t)
            ratio_f, _, _ = field.local_bound_ratio(sample, rng.random(2), 1.0)
            worst = max(worst, ratio_f)
        maxima.append(worst)
    spread = max(maxima) / min(maxima)
    _report(
        14,
        "max local-bound ratio varies by at most factor 4 across n",
        spread <= 4.0,
        f"maxima {['%.3f' % m for m in maxima]}, spread {spread:.2f}",
    )
