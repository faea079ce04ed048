"""Acceptance gate: one test per published-results criterion.

Each test prints exactly one "criterion N: PASS/FAIL - ..." line and then
asserts. Criterion 5 checks the limiting gap interval against the exact
closed form 0.866 -/+ 0.014 sqrt(13) = 0.8155223 / 0.9164777 of its
endpoints (a three-digit rounding of which is 0.816 / 0.916), against the
finite-L converse thresholds, and against the gap just inside each
endpoint; tests/test_asymptotics.py replays the closed form at 50 digits.
"""

import math
import time

import numpy as np
import pytest
from coords import covariance_matrix

import symrd.cli as cli
from symrd import (
    PIECE_R1C,
    PIECE_R2C,
    PIECE_RBAR,
    SimConfig,
    SourceSpec,
    asymptotic_gap,
    asymptotic_regime,
    classify,
    d_min,
    from_eigenvalues,
    lower_asymptotic,
    lower_bound_piece,
    lower_bound_rate,
    run_simulation,
    solve_lambda_q,
    solve_program,
    source_variance,
    spectral_decompose,
    upper_asymptotic,
    upper_bound_rate,
)
from symrd.oracle import ProgramPoint

L_CASES = 10
CASE1 = (0.8, 1.0, 5.0, 4.0)
CASE2 = (0.5, 1.0, 6.0, 3.0)
CASE3 = (1.0, 0.45, 12.0, 2.4)

CASE_TEXTS = {
    "case1": "L = 10\nlambda_x = 0.8\ngamma_x = 1\nlambda_y = 5\ngamma_y = 4\n",
    "case2": "L = 10\nlambda_x = 0.5\ngamma_x = 1\nlambda_y = 6\ngamma_y = 3\n",
    "case3": "L = 10\nlambda_x = 1\ngamma_x = 0.45\nlambda_y = 12\ngamma_y = 2.4\n",
}

GAPPED_PARAMS = (1.0, 0.3, 4.0, 0.55)   # sigma_x_sq, rho_x, sigma_z_sq, rho_z


def _spectrum(eig):
    return spectral_decompose(from_eigenvalues(L_CASES, *eig))


def _gapped(L):
    return SourceSpec(L, *GAPPED_PARAMS)


def _finish(number, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = (f"criterion {number}: {status} - {detail} "
            f"(runtime {elapsed:.2f}s, limit {limit:g}s)")
    print(line)
    assert status == "PASS", line


def _info_values(capsys, tmp_path, name):
    path = tmp_path / f"{name}.spec"
    path.write_text(CASE_TEXTS[name])
    rc = cli.main(["info", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    values = {}
    for line in out.strip().split("\n"):
        key, _, raw = line.partition(" = ")
        try:
            values[key] = float(raw)
        except ValueError:
            values[key] = raw
    return values


def test_criterion_1(capsys, tmp_path):
    t0 = time.perf_counter()
    v1 = _info_values(capsys, tmp_path, "case1")
    v2 = _info_values(capsys, tmp_path, "case2")
    v3 = _info_values(capsys, tmp_path, "case3")
    checks = [
        abs(v1["d_min"] - 0.7422) <= 5e-5,
        v1["sigma_x_sq"] == 0.98,
        abs(v2["d_min"] - 0.646) <= 5e-4,
        abs(v2["d_th_1"] - 0.691) <= 5e-4,
        abs(v2["d_th_c"] - 0.733) <= 5e-4,
        v2["sigma_x_sq"] == 0.95,
        abs(v3["d_min"] - 0.4207) <= 5e-5,
        abs(v3["d_th_1"] - 0.453) <= 5e-4,
        abs(v3["d_th_2"] - 0.489) <= 5e-4,
        v3["sigma_x_sq"] == 0.505,
    ]
    elapsed = time.perf_counter() - t0
    detail = (f"reported constants match across the three cases "
              f"({sum(checks)}/{len(checks)} subchecks)")
    _finish(1, all(checks), detail, elapsed, 1.0)


def test_criterion_2():
    t0 = time.perf_counter()
    s = _spectrum(CASE1)
    lo, hi = 0.7422, 0.98
    worst = 0.0
    for k in range(200):
        D = lo + (k + 1) * (hi - lo) / 201
        gap = abs(upper_bound_rate(s, L_CASES, D)
                  - lower_bound_rate(s, L_CASES, D))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    detail = (f"coincidence case: max |upper - lower| = {worst:.3e} nats "
              f"over 200 grid points (tolerance 1e-10)")
    _finish(2, worst <= 1e-10, detail, elapsed, 1.0)


def test_criterion_3():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_residual = 0.0
    for eig in (CASE2, CASE3):
        s = _spectrum(eig)
        dm = d_min(s, L_CASES)
        top = source_variance(s, L_CASES)
        for k in range(50):
            D = dm + (k + 1) * (top - dm) / 51
            closed = lower_bound_rate(s, L_CASES, D)
            point, value, cert = solve_program(s, L_CASES, D)
            worst_gap = max(worst_gap, abs(closed - value))
            worst_residual = max(worst_residual, cert.stationarity_residual,
                                 cert.complementarity_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_residual <= 1e-6
    detail = (f"closed form vs program oracle over 2x50 grid points: "
              f"max |diff| = {worst_gap:.3e} nats, "
              f"max KKT residual = {worst_residual:.3e} (tolerance 1e-6)")
    _finish(3, ok, detail, elapsed, 30.0)


def test_criterion_4():
    t0 = time.perf_counter()
    eps = 1e-9
    s2 = _spectrum(CASE2)
    t2 = classify(s2, L_CASES)
    s3 = _spectrum(CASE3)
    t3 = classify(s3, L_CASES)
    transitions = [
        lower_bound_piece(s2, L_CASES, t2.d_th_1 * (1 - eps)) == PIECE_RBAR,
        lower_bound_piece(s2, L_CASES, t2.d_th_1 * (1 + eps)) == PIECE_R1C,
        lower_bound_piece(s2, L_CASES, t2.d_th_c * (1 - eps)) == PIECE_R1C,
        lower_bound_piece(s2, L_CASES, t2.d_th_c * (1 + eps)) == PIECE_R2C,
        lower_bound_piece(s3, L_CASES, t3.d_th_1 * (1 - eps)) == PIECE_RBAR,
        lower_bound_piece(s3, L_CASES, t3.d_th_1 * (1 + eps)) == PIECE_R1C,
        lower_bound_piece(s3, L_CASES, t3.d_th_2 * (1 - eps)) == PIECE_R1C,
        lower_bound_piece(s3, L_CASES, t3.d_th_2 * (1 + eps)) == PIECE_RBAR,
    ]
    # the adjoining pieces, replayed at 50 digits, at each breakpoint
    mpref = pytest.importorskip("mpref")
    e2, e3 = mpref.exact(s2), mpref.exact(s3)
    jumps = [
        float(abs(mpref.lower(below, e, L_CASES, D)[0] - mpref.lower(above, e, L_CASES, D)[0]))
        for e, D, below, above in ((e2, t2.d_th_1, PIECE_RBAR, PIECE_R1C),
                                   (e2, t2.d_th_c, PIECE_R1C, PIECE_R2C),
                                   (e3, t3.d_th_1, PIECE_RBAR, PIECE_R1C),
                                   (e3, t3.d_th_2, PIECE_R1C, PIECE_RBAR))
    ]
    elapsed = time.perf_counter() - t0
    ok = all(transitions) and max(jumps) <= 1e-8
    detail = (f"piece transitions as classified, max breakpoint mismatch "
              f"= {max(jumps):.3e} nats (tolerance 1e-8)")
    _finish(4, ok, detail, elapsed, 60.0)


def test_criterion_5():
    t0 = time.perf_counter()
    spec = _gapped(500)
    reg = asymptotic_regime(spec)
    # Closed form of the limiting thresholds for the gapped spec: with
    # gamma_x = 0.7, gamma_y = 0.7 + 1.8 = 2.5, rho_y = 0.5 and
    # xi = (0.3/0.7)(0.5/0.5) = 3/7, one has gamma_x^2/gamma_y = 0.196,
    # d_th0_inf = 0.3*0.55*4/2.5 + 0.7 = 0.964 and sqrt(1 - 4 xi^2) =
    # sqrt(13)/7, so d_th{1,2}_inf = 0.964 - (1 +/- sqrt(13)/7)/2 * 0.196
    # = 0.866 -/+ 0.014 sqrt(13) = 0.81552228... / 0.91647771...
    th1_ref = 0.866 - 0.014 * math.sqrt(13.0)
    th2_ref = 0.866 + 0.014 * math.sqrt(13.0)
    th1_err = abs(reg.d_th1_inf - th1_ref)
    th2_err = abs(reg.d_th2_inf - th2_ref)
    # The finite-L converse thresholds (an independent code path, certified
    # by criterion 3) converge to the limits at rate O(1/L).
    finite_l_scaled = []
    for L in (10_000, 1_000_000):
        t = classify(spectral_decompose(_gapped(L)), L)
        finite_l_scaled.append(max(abs(t.d_th_1 - reg.d_th1_inf),
                                   abs(t.d_th_2 - reg.d_th2_inf)) * L)
    # The gap vanishes continuously at both endpoints: just inside them it
    # is positive and of order (relative offset)^2.
    gap_in_th1 = asymptotic_gap(reg, reg.d_th1_inf * (1 + 1e-6))
    gap_in_th2 = asymptotic_gap(reg, reg.d_th2_inf * (1 - 1e-6))
    gap_inside = asymptotic_gap(reg, 0.87)
    checks = [th1_err <= 1e-12, th2_err <= 1e-12,
              all(e <= 1.0 for e in finite_l_scaled),
              0.0 < gap_in_th1 <= 1e-9, 0.0 < gap_in_th2 <= 1e-9,
              gap_inside > 0.0]
    elapsed = time.perf_counter() - t0
    detail = (f"limiting thresholds {reg.d_th1_inf:.12f} / "
              f"{reg.d_th2_inf:.12f} vs 0.866 -/+ 0.014 sqrt(13): errors "
              f"{th1_err:.1e} / {th2_err:.1e} (tolerance 1e-12); finite-L "
              f"thresholds at L = 1e4, 1e6 within "
              f"{finite_l_scaled[0]:.3f}/L, {finite_l_scaled[1]:.3f}/L "
              f"(tolerance 1/L); gap just inside the endpoints "
              f"{gap_in_th1:.1e} / {gap_in_th2:.1e} (in (0, 1e-9]); "
              f"gap(0.87) = {gap_inside:.4e} > 0")
    _finish(5, all(checks), detail, elapsed, 1.0)


def test_criterion_6():
    t0 = time.perf_counter()
    reg = asymptotic_regime(_gapped(500))
    ratios = []

    def errs(L, D):
        spec = _gapped(L)
        s = spectral_decompose(spec)
        limit = asymptotic_regime(spec)
        up = abs(upper_bound_rate(s, L, D) - upper_asymptotic(limit, L, D))
        lo = abs(lower_bound_rate(s, L, D) - lower_asymptotic(limit, L, D))
        return up, lo

    for D in (0.87, 0.95):
        for L in (250, 500, 1000):
            u1, l1 = errs(L, D)
            u2, l2 = errs(2 * L, D)
            ratios.append(u1 / u2)
            ratios.append(l1 / l2)
    for L in (250, 1000):
        u1, _ = errs(L, reg.d_th0_inf)
        u2, _ = errs(4 * L, reg.d_th0_inf)
        ratios.append(u1 / u2)
    elapsed = time.perf_counter() - t0
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    detail = (f"error-decay ratios in [1.6, 2.4]: "
              f"min {min(ratios):.3f}, max {max(ratios):.3f} "
              f"over {len(ratios)} checks")
    _finish(6, ok, detail, elapsed, 60.0)


def test_criterion_7():
    t0 = time.perf_counter()
    worst = 0.0
    for L in (2, 10, 100):
        spec = SourceSpec(L, 1.0, 0.0, 4.0, 0.0)
        s = spectral_decompose(spec)
        dm = d_min(s, L)
        top = source_variance(s, L)
        reg = asymptotic_regime(spec)
        for k in range(20):
            D = dm + (k + 1) * (top - dm) / 21
            diff = abs(upper_bound_rate(s, L, D)
                       - upper_asymptotic(reg, L, D))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    detail = (f"uncorrelated case: limiting expression vs exact bound, "
              f"max |diff| = {worst:.3e} nats over 3x20 grid points "
              f"(tolerance 1e-10)")
    _finish(7, worst <= 1e-10, detail, elapsed, 60.0)


def test_criterion_8(capsys, tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "case1.spec"
    path.write_text(CASE_TEXTS["case1"])
    rc = cli.main(["simulate", str(path), "--D", "0.85", "--n", "1000000",
                   "--seed", "20240517"])
    captured = capsys.readouterr()
    assert rc == 0
    header, row = captured.out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))

    s = _spectrum(CASE1)
    lambda_q = solve_lambda_q(s, L_CASES, 0.85)
    res = run_simulation(SimConfig(from_eigenvalues(L_CASES, *CASE1),
                                   lambda_q, 1_000_000, 20240517))
    checks = [
        abs(res.distortion_empirical - 0.85) <= 4.0 * res.std_err,
        abs(res.rate_closed_form - upper_bound_rate(s, L_CASES, 0.85))
        <= 1e-12,
        cells["n"] == "1000000",
        cells["distortion_empirical"] == "%.12g" % res.distortion_empirical,
        cells["rate_closed_form"] == "%.12g" % res.rate_closed_form,
        captured.err.startswith("estimator comparison: routed empirical"),
        "direct X+Q empirical" in captured.err,
    ]
    elapsed = time.perf_counter() - t0
    detail = (f"empirical distortion {res.distortion_empirical:.6f} within "
              f"4 sigma of 0.85 (sigma = {res.std_err:.2e}); closed-form "
              f"rate matches the bound to 1e-12; estimator comparison "
              f"emitted on stderr")
    _finish(8, all(checks), detail, elapsed, 60.0)


def test_criterion_9():
    mpref = pytest.importorskip("mpref")
    t0 = time.perf_counter()
    rng = np.random.default_rng(424243)
    n_specs = 1000
    failures = []
    for i in range(n_specs):
        L = int(rng.integers(2, 13))
        sx2 = float(10.0 ** rng.uniform(-1, 1))
        rx = float(rng.uniform(-0.95 / (L - 1), 0.95))
        sz2 = float(10.0 ** rng.uniform(-1, 1))
        rz = float(rng.uniform(-0.95 / (L - 1), 0.95))
        spec = SourceSpec(L, sx2, rx, sz2, rz)
        s = spectral_decompose(spec)
        dm = d_min(s, L)
        top = source_variance(s, L)

        # sandwich and monotonicity
        f1, f2 = sorted(rng.uniform(0.02, 0.98, size=2))
        d1 = dm + (top - dm) * float(f1)
        d2 = dm + (top - dm) * float(f2)
        up1 = upper_bound_rate(s, L, d1)
        up2 = upper_bound_rate(s, L, d2)
        if lower_bound_rate(s, L, d1) > up1 + 1e-10:
            failures.append((i, "sandwich"))
        if d1 < d2 and up2 > up1 + 1e-10:
            failures.append((i, "monotone"))

        # round trip
        back = from_eigenvalues(L, s.lambda_x, s.gamma_x, s.lambda_y,
                                s.gamma_y)
        if (abs(back.sigma_x_sq - sx2) > 1e-12 * sx2
                or abs(back.rho_x - rx) > 1e-12 * max(1.0, abs(rx))
                or abs(back.sigma_z_sq - sz2) > 1e-12 * max(1.0, sz2)
                or abs(back.rho_z - rz) > 1e-12 * max(1.0, abs(rz))):
            failures.append((i, "round-trip"))

        # explicit-matrix eigen oracle
        cy = covariance_matrix(L, sx2, rx) + covariance_matrix(L, sz2, rz)
        got = np.sort(np.linalg.eigvalsh(cy))
        want = np.sort(np.array([s.lambda_y] + [s.gamma_y] * (L - 1)))
        if np.max(np.abs(got - want)) > 1e-9 * max(1.0, s.lambda_y):
            failures.append((i, "eigen"))

        # objective midpoint convexity on a random feasible chord
        a1, a2 = rng.uniform(0.05, 1.0, size=2) * s.lambda_y
        b1, b2 = rng.uniform(0.05, 1.0, size=2) * s.gamma_y
        de1, de2 = rng.uniform(0.05, 1.0, size=2) * s.lambda_w
        p1 = ProgramPoint(float(a1), float(b1), float(de1))
        p2 = ProgramPoint(float(a2), float(b2), float(de2))
        mid = ProgramPoint(0.5 * (p1.alpha + p2.alpha),
                           0.5 * (p1.beta + p2.beta),
                           0.5 * (p1.delta + p2.delta))
        exact = mpref.exact(s)
        chord = 0.5 * (mpref.omega(exact, L, *p1) + mpref.omega(exact, L, *p2))
        if mpref.omega(exact, L, *mid) > chord + 1e-9:
            failures.append((i, "convexity"))
    elapsed = time.perf_counter() - t0
    detail = (f"sandwich/monotonicity/round-trip/eigen/convexity over "
              f"{n_specs} randomized specs: {len(failures)} failures"
              + (f" (first: {failures[:3]})" if failures else ""))
    _finish(9, not failures, detail, elapsed, 120.0)
