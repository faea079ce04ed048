"""Tests for the active-set convex-program oracle and its KKT certificates.

The oracle solves the reduced program exactly over its three candidates
(the envelope-cap crossing, the cap branch's stationary point, the box
end) and certifies the result with residuals relative to the terms they
sum.  Reference values marked "50-digit reference" were computed
independently with an mpmath program (nested golden-section minimization
of the objective at 50 decimal digits plus exact multiplier recovery);
frozen here as float literals.  `test_accuracy_against_50_digit_solve`
runs its own 50-digit golden-section solve of the reduced program
(skipped without mpmath) and compares the oracle with it, and the
pinned CEO certify output with it.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symrd.cli as cli
from symrd import (
    ConvergenceError,
    DomainError,
    PrecisionError,
    ProgramPoint,
    SourceSpec,
    SymrdError,
    d_min,
    from_eigenvalues,
    solve_program,
    source_variance,
    spectral_decompose,
    upper_bound_rate,
)
from symrd.model import side_view
from symrd.oracle import (CERTIFICATE_TOL, _ACTIVE_TOL, _kkt, _slack_pair, _slack_terms, prepare,
                          solutions, solve)

GOLDEN = Path(__file__).resolve().parent / "golden"

L_CASES = 10
CASE1 = (0.8, 1.0, 5.0, 4.0)
CASE2 = (0.5, 1.0, 6.0, 3.0)
CASE3 = (1.0, 0.45, 12.0, 2.4)
SPEC_B = (5.0, 0.1, 6.0, 8.0)
SPEC_D = (0.0, 1.0, 2.0, 1.5)

# 50-digit reference: objective value at a fixed interior probe point.
OMEGA_CASE2_PROBE = 5.63690247956643892069583568761

# 50-digit reference: program optima.
CASE2_VALUE_AT_080 = 3.46573590279972654708616060729
CASE2_ALPHA_STAR_080 = 6.0     # boundary subcase: alpha* = lambda_Y exactly
CASE2_DELTA_STAR_080 = 1.5
CASE2_OMEGA1_080 = 0.0185185185185185185185185185185   # = 1/54
CASE2_OMEGA3_080 = 3.33333333333333333333333333333     # = 10/3
CASE2_VALUE_AT_071 = 8.02035537921521871941248377023
CASE1_VALUE_AT_085 = 3.98717876611742376738466662754
CASE1_ALPHA_STAR_085 = 2.00830659289597735933775382298
CASE1_DELTA_STAR_085 = 1.8250441799499786304016951149
CASE3_VALUE_AT_047 = 2.83365183122335040724564439145
SPEC_B_VALUE_AT_0177 = 23.5509373583479573504602126493
SPEC_B_VALUE_AT_040 = 3.04403016063097212359139569445
SPEC_D_VALUE_AT_060 = 3.46573590279972654708616060729
SPEC_D_DELTA_STAR_060 = 0.75
SPEC_D_OMEGA1_060 = 0.0625
SPEC_D_OMEGA3_060 = 1.6666666666666666666666666667     # = 5/3


def _spectrum(eig):
    return spectral_decompose(from_eigenvalues(L_CASES, *eig))


def test_omega_replay_frozen_probe():
    mpref = pytest.importorskip("mpref")
    s = mpref.exact(_spectrum(CASE2))
    assert abs(mpref.omega(s, L_CASES, 3.0, 1.5, 1.0) - OMEGA_CASE2_PROBE) < 1e-12


def test_omega_replay_zero_point():
    # at (lambda_Y, gamma_Y, lambda_W) every log argument collapses to 1
    mpref = pytest.importorskip("mpref")
    for eig in (CASE1, CASE2, CASE3, SPEC_B):
        s = mpref.exact(_spectrum(eig))
        w = min(s.lambda_y, s.gamma_y)
        assert abs(mpref.omega(s, L_CASES, s.lambda_y, s.gamma_y, w)) < 1e-14


def test_case2_boundary_optimum():
    s = _spectrum(CASE2)
    p, value, cert = solve_program(s, L_CASES, 0.80)
    assert abs(value - CASE2_VALUE_AT_080) <= 1e-8
    assert abs(p.alpha - CASE2_ALPHA_STAR_080) <= 1e-6
    assert abs(p.delta - CASE2_DELTA_STAR_080) <= 1e-6
    assert cert.stationarity_residual <= 1e-6
    assert cert.complementarity_residual <= 1e-6
    assert abs(cert.omega1 - CASE2_OMEGA1_080) <= 1e-6
    assert cert.omega2 == 0.0
    assert abs(cert.omega3 - CASE2_OMEGA3_080) <= 1e-5


def test_case2_interior_optimum():
    s = _spectrum(CASE2)
    p, value, cert = solve_program(s, L_CASES, 0.71)
    assert abs(value - CASE2_VALUE_AT_071) <= 1e-8
    assert cert.stationarity_residual <= 1e-6
    assert cert.complementarity_residual <= 1e-6
    # interior in alpha and in the envelope: only the distortion constraint
    # carries a multiplier
    assert abs(cert.omega1) <= 1e-9
    assert abs(cert.omega2) <= 1e-9
    assert cert.omega3 > 0.0


def test_case1_envelope_optimum():
    s = _spectrum(CASE1)
    p, value, cert = solve_program(s, L_CASES, 0.85)
    assert abs(value - CASE1_VALUE_AT_085) <= 1e-8
    assert abs(p.alpha - CASE1_ALPHA_STAR_085) <= 1e-5
    assert abs(p.delta - CASE1_DELTA_STAR_085) <= 1e-6
    assert cert.stationarity_residual <= 1e-6
    assert cert.complementarity_residual <= 1e-6


@pytest.mark.parametrize(
    "eig, D, value",
    [
        (CASE3, 0.47, CASE3_VALUE_AT_047),
        (SPEC_B, 0.177, SPEC_B_VALUE_AT_0177),
        (SPEC_B, 0.40, SPEC_B_VALUE_AT_040),
        (SPEC_D, 0.60, SPEC_D_VALUE_AT_060),
    ],
)
def test_frozen_program_values(eig, D, value):
    s = _spectrum(eig)
    p, got, cert = solve_program(s, L_CASES, D)
    assert abs(got - value) <= 1e-7 * max(1.0, value)
    assert cert.stationarity_residual <= 1e-6
    assert cert.complementarity_residual <= 1e-6


def test_spec_d_multipliers():
    # lambda-side optimum with alpha* = lambda_Y and exactly computable
    # multipliers
    s = _spectrum(SPEC_D)
    p, value, cert = solve_program(s, L_CASES, 0.60)
    assert abs(p.alpha - s.lambda_y) <= 1e-6
    assert abs(p.delta - SPEC_D_DELTA_STAR_060) <= 1e-6
    assert abs(cert.omega1 - SPEC_D_OMEGA1_060) <= 1e-6
    assert abs(cert.omega3 - SPEC_D_OMEGA3_060) <= 1e-5


def test_multipliers_nonnegative_and_complementary():
    mpref = pytest.importorskip("mpref")
    probes = [(CASE1, 0.85), (CASE2, 0.71), (CASE2, 0.80), (CASE3, 0.47),
              (SPEC_B, 0.177), (SPEC_B, 0.40), (SPEC_D, 0.60)]
    for eig, D in probes:
        s = _spectrum(eig)
        p, value, cert = solve_program(s, L_CASES, D)
        assert cert.omega1 >= -1e-9
        assert cert.omega2 >= -1e-9
        assert cert.omega3 >= -1e-9
        # The distortion constraint, in the paper's lambda/gamma form at 50
        # digits, is active at every optimum (measured: within
        # 2.4e-16 L D).
        lhs = mpref.distortion_constraint(mpref.exact(s), L_CASES, p.alpha, p.beta)
        assert abs(lhs - L_CASES * D) <= 1e-7 * L_CASES * D


def test_perturbed_point_breaks_stationarity():
    # The certificate recovered at the optimum shifted by +0.1 in alpha
    # (lambda is the big side here, so alpha is v): stationarity fails by
    # 0.69 relatively, far past CERTIFICATE_TOL.
    s = _spectrum(CASE1)
    program = prepare(s, L_CASES)
    assert not program.hatted
    p, value, cert = solve(program, 0.85)
    s0, _ = _slack_pair(L_CASES, 0.85, program.slack_terms)
    bad = _kkt(program, p.alpha + 0.1, p.delta, s0)
    assert bad.stationarity_residual > 5e-4
    assert bad.stationarity_residual > CERTIFICATE_TOL
    assert bad.stationarity_residual >= 100.0 * max(
        cert.stationarity_residual, 1e-300)


def test_no_multipliers_off_the_envelope_without_small_source():
    # rho_x = 1, so gamma_x = 0 and the small side carries no source
    # (b = 0).  At the optimum the envelope binds; moved off it, the delta
    # equation L / (2 delta) = omega2 has no solution with omega2 = 0, and
    # recovery raises DomainError, not ZeroDivisionError.
    spec = SourceSpec(64, 0.0034555755086436153, 1.0, 0.0017782865598957118,
                      0.22063194066367603)
    s, D = spectral_decompose(spec), 0.00037279432978391293
    program = prepare(s, spec.L)
    assert program.b == 0.0 and not program.hatted
    p, value, cert = solve(program, D)
    s0, _ = _slack_pair(spec.L, D, program.slack_terms)
    with pytest.raises(DomainError, match="no multipliers"):
        _kkt(program, p.alpha * 1.01, p.delta * 0.99, s0)


def test_certificate_probe_reaches_every_candidate():
    # The probe that the certificate tests run over reaches the box end,
    # the crossing and the cap's stationary point, on both sides and at
    # b = 0, for L up to 1e6 and variances within 1e+-30.
    mpref = pytest.importorskip("mpref")
    seen = set()
    for spec, s, D in mpref.certificate_probe():
        program = prepare(s, spec.L)
        try:
            point, _, cert = solve(program, D)
        except ConvergenceError as exc:
            point, _, cert = exc.best
        except PrecisionError:
            continue                   # D within rounding of an end
        v = point.beta if program.hatted else point.alpha
        envelope = v * program.yb * program.ys / (program.dy * v + program.ybys)
        kind = "box" if v == program.yb else "crossing" if point.delta == envelope else "cap"
        seen.add((program.hatted, program.b == 0.0, kind))
    assert {kind for _, _, kind in seen} == {"box", "crossing", "cap"}
    assert {hatted for hatted, _, _ in seen} == {False, True}
    assert (False, True, "crossing") in seen and (True, True, "crossing") in seen


# The oracle's value against the 50-digit Omega at the point it returns is
# held to OMEGA_POINT_EPS * eps * (|value| + L).  Rounding each of the
# point's coordinates moves Omega by up to about L/2 eps (its delta term
# has slope -L / (2 delta)), so near the top of the interval, where the
# value nears 0, the point itself fixes Omega to only some L eps.
# Measured over mpref.certificate_probe(): at most 1.19.
OMEGA_POINT_EPS = 2.0


def test_value_is_omega_at_its_own_point():
    mpref = pytest.importorskip("mpref")
    eps = np.finfo(float).eps
    for spec, s, D in mpref.certificate_probe():
        try:
            point, value, _ = solve(prepare(s, spec.L), D)
        except ConvergenceError as exc:
            point, value, _ = exc.best
        except PrecisionError:
            continue                   # D within rounding of an end
        ref = mpref.omega(mpref.exact(s), spec.L, *point)
        assert abs(value - float(ref)) <= OMEGA_POINT_EPS * eps * (abs(value) + spec.L), \
            (spec, D)


def test_matching_region_program_equals_upper():
    # below the first composite threshold the program optimum coincides with
    # the achievable bound
    for eig, D in ((CASE2, 0.67), (CASE3, 0.43), (CASE3, 0.495),
                   (SPEC_B, 0.174)):
        s = _spectrum(eig)
        p, value, cert = solve_program(s, L_CASES, D)
        up = upper_bound_rate(s, L_CASES, D)
        assert abs(value - up) <= 1e-6


def test_rejects_out_of_range_distortion():
    s = _spectrum(CASE2)
    with pytest.raises(DomainError):
        solve_program(s, L_CASES, d_min(s, L_CASES))
    with pytest.raises(DomainError):
        solve_program(s, L_CASES, source_variance(s, L_CASES) + 0.01)


def test_omega_midpoint_convexity():
    # the objective is convex on its domain: midpoint value never exceeds
    # the chord average (sampled, on the 50-digit replay)
    mpref = pytest.importorskip("mpref")
    rng = np.random.default_rng(30217)
    s = _spectrum(CASE2)
    exact = mpref.exact(s)
    checked = 0
    while checked < 200:
        a1, a2 = rng.uniform(0.05, 1.0, size=2) * s.lambda_y
        b1, b2 = rng.uniform(0.05, 1.0, size=2) * s.gamma_y
        d1, d2 = rng.uniform(0.05, 1.0, size=2) * s.lambda_w
        p1 = ProgramPoint(float(a1), float(b1), float(d1))
        p2 = ProgramPoint(float(a2), float(b2), float(d2))
        mid = ProgramPoint(0.5 * (p1.alpha + p2.alpha),
                           0.5 * (p1.beta + p2.beta),
                           0.5 * (p1.delta + p2.delta))
        f1 = mpref.omega(exact, L_CASES, *p1)
        f2 = mpref.omega(exact, L_CASES, *p2)
        fm = mpref.omega(exact, L_CASES, *mid)
        assert fm <= 0.5 * (f1 + f2) + 1e-9
        checked += 1


def test_solver_tolerance_argument():
    # the default certificate tolerance certifies the exact solve
    s = _spectrum(CASE3)
    p, value, cert = solve_program(s, L_CASES, 0.47)
    assert abs(value - CASE3_VALUE_AT_047) <= 1e-9
    assert max(cert.stationarity_residual,
               cert.complementarity_residual) <= CERTIFICATE_TOL


def test_next_to_the_ends():
    # At the top the optimum nears the corner where the box, envelope and
    # distortion constraints meet; it still certifies, with a rate near 0.
    for eig in (CASE1, CASE2, CASE3, SPEC_B, SPEC_D):
        s = _spectrum(eig)
        top = source_variance(s, L_CASES)
        for D in (math.nextafter(top, 0.0), top * (1.0 - 1e-14), top * (1.0 - 1e-9)):
            _, value, cert = solve_program(s, L_CASES, D)
            assert 0.0 <= value <= 1e-7
            assert max(cert.stationarity_residual,
                       cert.complementarity_residual) <= CERTIFICATE_TOL
    # A float D above the rounded d_min but not above the exact one.
    s = spectral_decompose(SourceSpec(2, 1.0, 0.0, 0.1, 0.0))
    with pytest.raises(PrecisionError, match="within rounding"):
        solve_program(s, 2, math.nextafter(d_min(s, 2), math.inf))


@pytest.mark.parametrize("D", [1e-12, 1e-100, 1e-300])
def test_noiseless_spec_certifies_next_to_zero_distortion(D):
    # d_min = 0 here, so L D is the slack itself, far below the terms of
    # size lambda_x = 3.7 that the paper's form of the distortion
    # constraint adds.  The certificate scores the reduced constraint
    # a v + b delta <= s0 with the exact s0 (measured: at most 7.8e-17).
    s = spectral_decompose(SourceSpec(10, 1.0, 0.3, 0.0, 0.0))
    _, _, cert = solve_program(s, 10, D)
    assert max(cert.stationarity_residual, cert.complementarity_residual) <= CERTIFICATE_TOL


def test_certifies_next_to_the_ends_of_the_interval():
    # A quarter of the probe is noiseless, where a slack formed from the
    # lambda/gamma terms cancelled at f = 1e-12 and the oracle raised
    # ConvergenceError.  Every point certifies, or its D is an end of the
    # interval to within rounding.
    mpref = pytest.importorskip("mpref")
    for spec, s, D in mpref.ends_probe():
        try:
            _, _, cert = solve_program(s, spec.L, D)
        except PrecisionError:
            continue
        assert max(cert.stationarity_residual,
                   cert.complementarity_residual) <= CERTIFICATE_TOL, (spec, D)


# The certificate at the oracle's float point against mpref.certificate's
# 50-digit replay of the same reduced program at the same point.  Each
# multiplier is held to CERT_OMEGA_EPS eps relatively, and each residual
# to CERT_RESIDUAL_EPS eps absolutely (a residual near an optimum is a few
# eps of roundoff, with no digits to compare relatively).  Measured over
# mpref.certificate_probe() and mpref.ends_probe() (3200 points): omega1
# at most 9.0 eps, omega2 13.1, omega3 3.2; the stationarity residual 0.98
# eps off the replay's, the complementarity residual 0.43.
CERT_OMEGA_EPS = 20.0
CERT_RESIDUAL_EPS = 2.0


def test_certificate_matches_its_50_digit_replay():
    mpref = pytest.importorskip("mpref")
    eps = np.finfo(float).eps
    seen = set()
    for spec, s, D in mpref.certificate_probe() + mpref.ends_probe():
        _, _, v, d, cert = next(solutions(prepare(s, spec.L), (D,)))
        active, *omegas, stat, comp = mpref.certificate(s, spec.L, D, v, d, _ACTIVE_TOL)
        seen.add(active)
        # _kkt leaves the multiplier of a constraint outside its active set at 0.0.
        assert (cert.omega1 != 0.0, cert.omega2 != 0.0) == (
            "box" in active, "envelope" in active), (spec, D)
        for got, ref in zip(cert[:3], omegas):
            assert abs(got - ref) <= CERT_OMEGA_EPS * eps * abs(ref), (spec, D)
        assert abs(cert.stationarity_residual - stat) <= CERT_RESIDUAL_EPS * eps, (spec, D)
        assert abs(cert.complementarity_residual - comp) <= CERT_RESIDUAL_EPS * eps, (spec, D)
    assert len(seen) == 3              # envelope, cap and box-end active sets


def test_no_false_certificate_where_products_of_variances_underflow():
    # x ~ 2e-182 here: the crossing's (x - y)^2, z (2 (x + y) + z) and qb^2,
    # products of four variances, underflow to 0 in _solve_reduced, so the
    # crossing root is wrong.  Scored against the paper's form of the
    # constraint, the wrong point once certified with a residual of 8.4e-14
    # and a value of 11.398 against the replay's 4.5915.
    mpref = pytest.importorskip("mpref")
    spec = SourceSpec(L=1425768, sigma_x_sq=1.9410798360774777e-97,
                      rho_x=0.7020296248077763, sigma_z_sq=4.501641223694874e-85,
                      rho_z=0.13676440177546367)
    D = 1.941079836075761e-97
    s = spectral_decompose(spec)
    try:
        _, value, _ = solve_program(s, spec.L, D)
    except SymrdError:
        return
    # The converse is Rbar at this D.
    ref, _ = mpref.lower("Rbar", mpref.exact(s), spec.L, D)
    assert abs(value - float(ref)) <= 1e-9 * float(ref)


_unit = st.floats(0.0, 1.0)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(L=st.integers(2, 10 ** 7), lambda_big=st.booleans(),
       y_big=st.floats(1e-280, 1e280), y_ratio=_unit,
       x_fractions=st.tuples(_unit, _unit),
       zero_side=st.sampled_from([None, 0, 1]), d_fraction=_unit)
def test_slack_pair_is_the_exact_pair_rounded_once(
        L, lambda_big, y_big, y_ratio, x_fractions, zero_side, d_fraction):
    # side_view's triples in either orientation, with x = 0 on one side or
    # neither, at a D anywhere in (d_min, sigma_x_sq); the reference is the
    # pair in exact rationals, rounded once.
    y_small = y_big * y_ratio
    assume(y_small > 0.0)
    xs = [y * f for y, f in zip((y_big, y_small), x_fractions)]
    if zero_side is not None:
        xs[zero_side] = 0.0
    assume(max(xs) > 0.0)
    ms = (1, L - 1) if lambda_big else (L - 1, 1)
    big, small = (xs[0], y_big, ms[0]), (xs[1], y_small, ms[1])
    exact = [(Fraction(x), Fraction(y), m) for x, y, m in (big, small)]
    top = sum(m * x for x, _, m in exact)            # L sigma_x_sq
    width = sum(m * x * x / y for x, y, m in exact)  # L (sigma_x_sq - d_min)
    D = float((top - width + Fraction(d_fraction) * width) / L)
    assume(top - width < L * Fraction(D) < top)
    t0 = top - L * Fraction(D)
    s0 = width - t0
    floor = float((top - width) / L)                 # d_min rounded: D >= floor
    assert _slack_pair(L, D, _slack_terms(big, small, floor)) == (float(s0), float(t0))


# The benchmark's unit-fault input: L = 200 in small variance units.  An
# absolute KKT tolerance failed it at the 5th of its 30 grid points.
FAULT_SPEC = (200, 0.01, 0.45, 0.03, 0.75)


def test_fault_input_certifies_on_its_grid(tmp_path, capsys):
    L, sx2, rx, sz2, rz = FAULT_SPEC
    spec = tmp_path / "fault.spec"
    spec.write_text(f"L = {L}\nsigma_x_sq = {sx2}\nrho_x = {rx}\n"
                    f"sigma_z_sq = {sz2}\nrho_z = {rz}\n")
    rc = cli.main(["sweep", str(spec), "--d-start", "0.007", "--d-end",
                   "0.0099", "--n-points", "30", "--certify"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rc == 0
    assert len(rows) == 30
    for row in rows:
        fields = row.split(",")
        assert float(fields[-1]) <= CERTIFICATE_TOL
        assert abs(float(fields[5]) - float(fields[2])) <= 1e-11 * float(fields[2])


@pytest.mark.parametrize("D", [0.0075, 0.0085, 0.0095])
def test_certificate_is_free_of_units(D):
    # every variance and D scaled by 10^k: the same value, certified, at
    # every k
    L, sx2, rx, sz2, rz = FAULT_SPEC
    values = []
    for k in range(-6, 7):
        u = 10.0 ** k
        s = spectral_decompose(SourceSpec(L, sx2 * u, rx, sz2 * u, rz))
        _, value, cert = solve_program(s, L, D * u)
        assert max(cert.stationarity_residual,
                   cert.complementarity_residual) <= CERTIFICATE_TOL
        values.append(value)
    assert max(values) - min(values) <= 1e-12 * min(values)


def _mp_program_value(s, L, D):
    """50-digit golden-section solve of the reduced program in log v."""
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf
    with mpmath.workdps(60):
        (xb, yb, mb), (xs, ys, ms), _ = side_view(s, L)
        xb, yb, xs, ys = mpf(xb), mpf(yb), mpf(xs), mpf(ys)
        s0 = L * mpf(D) - mb * (xb - xb ** 2 / yb) - ms * (xs - xs ** 2 / ys)
        a, b = mb * xb ** 2 / yb ** 2, ms * xs ** 2 / ys ** 2

        def g(t):
            v = mpmath.exp(t)
            env = v * yb * ys / ((yb - ys) * v + yb * ys)
            if b > 0:
                d = min(env, (s0 - a * v) / b)
            else:
                d = env if a * v <= s0 else mpf(-1)
            if d <= 0:
                return mpmath.inf
            return (mb / 2 * mpmath.log(yb ** 2 / ((yb - ys) * v + yb * ys))
                    + mpf(L) / 2 * mpmath.log(ys / d))

        hi = yb if a == 0 else min(yb, s0 / a)
        lo, top = mpmath.log(hi) - 90, mpmath.log(hi)
        r = (mpmath.sqrt(5) - 1) / 2
        t1, t2 = top - r * (top - lo), lo + r * (top - lo)
        f1, f2 = g(t1), g(t2)
        for _ in range(260):
            if f1 < f2:
                top, t2, f2 = t2, t1, f1
                t1 = top - r * (top - lo)
                f1 = g(t1)
            else:
                lo, t1, f1 = t1, t2, f2
                t2 = lo + r * (top - lo)
                f2 = g(t2)
        return min(f1, f2, g(top), g(lo))


# (spec form, L, parameters) of one spec per golden regime arm, the CEO
# spec and the fault input; the first five have lambda_y >= gamma_y, the
# next four gamma_y > lambda_y.
ACCURACY_SPECS = [
    ("corr", 2, (1.0, 0.018068, 1.255, 0.787738)),
    ("corr", 10, (1.0, 0.00445, 0.419, 0.505559)),
    ("corr", 200, (1.0, 0.014335, 0.418, 0.091527)),
    ("eig", 5, (0.0, 1.25, 2.4, 1.35)),
    ("corr", 50, (1.0, 1.0, 2.0, 0.0)),
    ("corr", 3, (1.0, -0.293224, 0.348, 0.180743)),
    ("corr", 2, (1.0, 0.249759, 17.864, -0.403159)),
    ("corr", 5, (1.0, -0.009352, 3.147, -0.25)),
    ("eig", 10, (1.0, 0.0, 2.0, 3.0)),
    ("corr", FAULT_SPEC[0], FAULT_SPEC[1:]),
]
# Relative error of the golden-section oracle this solver replaced,
# against _mp_program_value, at D = d_min + f (sigma_x_sq - d_min) for
# f = 1e-3 and 0.5 and at D = sigma_x_sq (1 - 1e-6), spec by spec.  At the
# fault input's f = 0.5 that oracle did not certify; its error is that of
# the point it carried.
GOLDEN_SECTION_ERRORS = [
    (4.69e-15, 1.10e-16, 6.29e-11),
    (1.52e-15, 2.71e-16, 1.24e-10),
    (1.02e-14, 4.68e-16, 5.88e-11),
    (1.37e-14, 4.42e-16, 1.45e-10),
    (2.44e-13, 1.82e-12, 9.59e-07),
    (3.36e-16, 4.73e-16, 8.84e-11),
    (8.09e-14, 1.42e-15, 5.30e-11),
    (3.94e-15, 5.77e-16, 6.32e-11),
    (1.61e-14, 2.55e-16, 3.83e-12),
    (5.55e-14, 5.48e-16, 1.82e-10),
]


@pytest.mark.parametrize("spec, errors", zip(ACCURACY_SPECS, GOLDEN_SECTION_ERRORS))
def test_accuracy_against_50_digit_solve(spec, errors):
    kind, L, params = spec
    model = SourceSpec(L, *params) if kind == "corr" else from_eigenvalues(L, *params)
    s = spectral_decompose(model)
    floor, top = d_min(s, L), source_variance(s, L)
    grid = (floor + 1e-3 * (top - floor), floor + 0.5 * (top - floor),
            top * (1.0 - 1e-6))
    for D, old in zip(grid, errors):
        ref = _mp_program_value(s, L, D)
        _, value, _ = solve_program(s, L, D)
        # Observed at most 9.6e-16: the slacks L (D - d_min) and
        # L (sigma_x_sq - D) are exact but for one rounding.
        assert abs(value - ref) / ref <= max(1e-9, 2.0 * old), D


def test_ceo_golden_oracle_cells_are_the_50_digit_values():
    # Every oracle_nats cell of the pinned CEO certify output is the
    # 12-digit rounding of _mp_program_value, which neither solver shares.
    # The golden-section oracle misprinted the 12th digit in 13 of them.
    L, d_start, d_end, n_points = 50, 0.0480769, 0.990385, 20
    s = spectral_decompose(SourceSpec(L, 1.0, 1.0, 2.0, 0.0))
    header, *rows = (GOLDEN / "ceo.certify.out").read_text().splitlines()
    assert len(rows) == n_points
    step = (d_end - d_start) / (n_points + 1)
    for k, row in enumerate(rows):
        cells = dict(zip(header.split(","), row.split(",")))
        D = d_start + (k + 1) * step      # the CLI's open grid
        assert cells["D"] == "%.12g" % D
        ref = _mp_program_value(s, L, D)
        assert cells["oracle_nats"] == "%.12g" % float(ref), D
