"""Tests for the achievable (upper) rate bound.

Reference values marked "50-digit reference" were computed independently
with an mpmath program (bisection at 50 decimal digits on the distortion
constraint, plus the closed-form rate); frozen here as float literals.
test_closed_form_on_random_probe compares the solve with the same replay
(tests/mpref.py) over the range the library accepts, next to both ends
of the interval and at the frozen solutions.
"""

import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from symrd import (
    DomainError,
    PrecisionError,
    SourceSpec,
    SymrdError,
    d_min,
    distortion_of,
    from_eigenvalues,
    quadratic_root,
    rate_of,
    solve_lambda_q,
    source_variance,
    spectral_decompose,
    upper_bound_rate,
)
from symrd.asymptotics import correlation_form
import symrd.upper_bound

L_CASES = 10
CASE1 = (0.8, 1.0, 5.0, 4.0)
CASE2 = (0.5, 1.0, 6.0, 3.0)
CASE3 = (1.0, 0.45, 12.0, 2.4)

# 50-digit reference: (case, D) -> (lambda_Q, rate in nats)
FROZEN_SOLUTIONS = [
    (CASE1, 0.85, 3.35647126829087463107618961374, 3.98717876611742376738466662754),
    (CASE2, 0.80, 3.11179272306450817162333481184, 3.57478036890575791300961150652),
    (CASE2, 0.71, 0.80826658385542106857195660343, 8.04066903912762667801128446631),
    (CASE3, 0.46, 2.38967804998823886840892718995, 4.02654670795793605557209882010),
    (CASE3, 0.495, 23.0891083048950653634865577813, 0.654270927190677709554153020019),
]


def _spectrum(eig):
    return spectral_decompose(from_eigenvalues(L_CASES, *eig))


@pytest.fixture
def seeds(monkeypatch):
    """The (a, b, c) that each lambda_q solve hands to quadratic_root, in order."""
    root = symrd.upper_bound.quadratic_root
    recorded = []
    monkeypatch.setattr(symrd.upper_bound, "quadratic_root",
                        lambda *abc: recorded.append(abc) or root(*abc))
    return recorded


def _scales(s, L):
    """The powers of two that turn the solve's a, b and c into the quadratic in lambda_q.

    quadratic_root takes the quadratic in v = lambda_q / 2^(h-e), divided
    through by 2^(w+2h-3e), whose coefficients are those of the one in
    lambda_q times 2^(e-w), 2^(2e-w-h) and 2^(3e-w-2h).
    """
    p = symrd.upper_bound.prepare(s, L)
    return tuple(math.ldexp(1.0, p.w + k * p.h - (k + 1) * p.e) for k in range(3))


def _seeded_solve(seeds, s, L, D):
    """(lambda_q, (a, b, c)): the solve at D and its one quadratic in lambda_q."""
    seeds.clear()
    lambda_q = solve_lambda_q(s, L, D)
    ((a, b, c),) = seeds
    scale_a, scale_b, scale_c = _scales(s, L)
    return lambda_q, (a * scale_a, b * scale_b, c * scale_c)


def _assert_correlation_form(b, c, spec, s, D):
    # asymptotics.correlation_form writes b and c as polynomials in L
    mix = spec.rho_x * spec.sigma_x_sq + spec.rho_z * spec.sigma_z_sq
    g1, g2, h1, h2 = correlation_form(spec, s.gamma_x, s.gamma_z, s.gamma_y, mix, D)
    L = spec.L
    assert abs(b - (g1 * L * L + g2 * L)) <= 1e-12 * max(1.0, abs(b))
    assert abs(c - (h1 * L * L + h2 * L)) <= 1e-12 * max(1.0, abs(c))


@pytest.mark.parametrize("eig, D, lam_q, rate", FROZEN_SOLUTIONS)
def test_frozen_solutions(eig, D, lam_q, rate):
    s = _spectrum(eig)
    lambda_q = solve_lambda_q(s, L_CASES, D)
    assert abs(lambda_q - lam_q) <= 1e-11 * lam_q
    assert abs(rate_of(s, L_CASES, lambda_q) - rate) <= 1e-11 * max(1.0, rate)
    assert abs(upper_bound_rate(s, L_CASES, D) - rate) <= 1e-11 * max(1.0, rate)


@pytest.mark.parametrize("eig, D, lam_q, rate", FROZEN_SOLUTIONS)
def test_distortion_round_trip(eig, D, lam_q, rate):
    s = _spectrum(eig)
    lambda_q = solve_lambda_q(s, L_CASES, D)
    assert abs(distortion_of(s, L_CASES, lambda_q) - D) <= 1e-10 * D


@pytest.mark.parametrize("eig, D, lam_q, rate", FROZEN_SOLUTIONS)
def test_rate_forms_agree(eig, D, lam_q, rate):
    # rate_of at the solved lambda_q agrees with the two resolvent forms of
    # the rate (via lambda_I, via gamma_I), replayed at 50 digits there
    mpref = pytest.importorskip("mpref")
    s = _spectrum(eig)
    lambda_q = solve_lambda_q(s, L_CASES, D)
    rate_nats = rate_of(s, L_CASES, lambda_q)
    for form in mpref.rate_forms(mpref.exact(s), L_CASES, lambda_q):
        assert abs(float(form) - rate_nats) <= 1e-10 * max(1.0, rate_nats)


@pytest.mark.parametrize("eig, D, lam_q, rate", FROZEN_SOLUTIONS)
def test_quadratic_coefficient_identities(eig, D, lam_q, rate, seeds):
    # the balance quadratic's eigenvalue-form and the correlation-form
    # (g, h) coefficients describe the same quadratic: b = g1 L^2 + g2 L
    # and c = h1 L^2 + h2 L
    spec = from_eigenvalues(L_CASES, *eig)
    s = spectral_decompose(spec)
    _, (a, b, c) = _seeded_solve(seeds, s, L_CASES, D)
    _assert_correlation_form(b, c, spec, s, D)
    # the bisection solution is a root of the quadratic
    residual = a * lam_q * lam_q + b * lam_q + c
    assert abs(residual) <= 1e-9 * max(abs(a) * lam_q * lam_q, abs(c))


@pytest.mark.parametrize("eig, D, lam_q, rate", FROZEN_SOLUTIONS)
def test_quadratic_root_matches_bisection(eig, D, lam_q, rate, seeds):
    s = _spectrum(eig)
    lambda_q, abc = _seeded_solve(seeds, s, L_CASES, D)
    root = quadratic_root(*abc)
    assert root == lambda_q
    assert abs(root - lambda_q) <= 1e-8 * lambda_q


def test_distortion_of_monotone_and_bracketed():
    s = _spectrum(CASE1)
    dm = d_min(s, L_CASES)
    sx2 = source_variance(s, L_CASES)
    grid = np.geomspace(1e-6, 1e9, 40)
    vals = [distortion_of(s, L_CASES, lq) for lq in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] > dm and vals[-1] < sx2
    assert abs(vals[0] - dm) < 1e-5
    assert abs(vals[-1] - sx2) < 1e-5


def test_rate_monotone_decreasing_in_distortion():
    s = _spectrum(CASE2)
    dm = d_min(s, L_CASES)
    sx2 = source_variance(s, L_CASES)
    ds = dm + (sx2 - dm) * np.linspace(0.02, 0.98, 25)
    rates = [upper_bound_rate(s, L_CASES, float(D)) for D in ds]
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_rate_limits_at_interval_ends():
    s = _spectrum(CASE1)
    dm = d_min(s, L_CASES)
    sx2 = source_variance(s, L_CASES)
    near_top = solve_lambda_q(s, L_CASES, sx2 * (1.0 - 1e-8))
    assert near_top > 1e6
    assert rate_of(s, L_CASES, near_top) < 1e-5
    near_floor = solve_lambda_q(s, L_CASES, dm + (sx2 - dm) * 1e-6)
    assert rate_of(s, L_CASES, near_floor) > 5.0
    assert near_floor < 1e-3


@pytest.mark.parametrize("bad_d_of_range", [
    lambda dm, sx2: dm,                # at the floor
    lambda dm, sx2: sx2,               # at the variance
    lambda dm, sx2: dm - 0.01,
    lambda dm, sx2: sx2 + 0.01,
    lambda dm, sx2: 0.0,
])
def test_solve_rejects_out_of_range_distortion(bad_d_of_range):
    s = _spectrum(CASE1)
    D = bad_d_of_range(d_min(s, L_CASES), source_variance(s, L_CASES))
    with pytest.raises(DomainError):
        solve_lambda_q(s, L_CASES, D)


# D inside the float interval (model.d_min, model.source_variance) but not
# inside the spectrum's exact one: at sigma_x^2 itself, whose float
# source_variance rounds up past it, and below the exact d_min, which the
# float d_min rounds below.
OUTSIDE_EXACT = [
    (SourceSpec(3, 78489255574689.66, -0.17851676317835746,
                1.7563143589165476e+29, 0.056827026891003385),
     78489255574689.66),
    (SourceSpec(6212, 1.678529677732198e+17, -9.13168886626027e-05,
                6.1544834015539544e+29, -4.8715572873115275e-06),
     1.678529677732198e+17),
    (SourceSpec(69, 9.4965364803918e-17, -0.014705882352941176,
                3.0847093803068013e-06, 0.5675990746225945),
     9.496536479705728e-17),
]


# The refusal names D and the exact ends to 25 digits, then the float ends.
EXACT_REFUSAL = re.compile(
    r"D = (\S+) \((\S+)\) outside the exact interval \(d_min, sigma_x_sq\) = "
    r"\((\S+), (\S+)\) of the spectrum's eigenvalues, whose float ends are "
    r"\((\S+), (\S+)\)")


@pytest.mark.parametrize("spec, D", OUTSIDE_EXACT)
def test_solve_refuses_d_outside_the_exact_interval(spec, D):
    # the solve takes the spectrum's exact eigenvalues, so a D that the
    # float ends admit but the exact ones do not has no lambda_q: it is
    # refused as outside that interval, next to either end alike, with
    # its exact ends named
    mpref = pytest.importorskip("mpref")
    s, L = spectral_decompose(spec), spec.L
    exact = mpref.spectrum(spec)
    assert d_min(s, L) < D < source_variance(s, L)
    assert not mpref.d_min(exact, L) < D < mpref.sigma_x_sq(exact, L)
    with pytest.raises(DomainError) as exc:
        solve_lambda_q(s, L, D)
    match = EXACT_REFUSAL.fullmatch(str(exc.value))
    assert match
    assert match.group(1, 5, 6) == (repr(D), repr(d_min(s, L)), repr(source_variance(s, L)))
    # each 25-digit value is its exact one rounded, so D shows outside its ends
    at, lo, hi = (Fraction(v) for v in match.group(2, 3, 4))
    ends = (Fraction(str(end)) for end in (mpref.d_min(exact, L), mpref.sigma_x_sq(exact, L)))
    for value, want in zip((at, lo, hi), (Fraction(D), *ends)):
        assert abs(value - want) <= abs(want) * Fraction(1, 10**24)
    assert not lo < at < hi


def test_quadratic_root_rejects_nonpositive_leading_coefficient(seeds):
    # a = L (sigma_x^2 - D) <= 0 means D is out of range for the quadratic;
    # the seed takes the checked slack pair of the converse pass, so the
    # b and c of a valid D stand beside a = 0 and a < 0
    s = _spectrum(CASE1)
    D = 0.5 * (d_min(s, L_CASES) + source_variance(s, L_CASES))
    _, (a, b, c) = _seeded_solve(seeds, s, L_CASES, D)
    for bad in (0.0, -a):
        with pytest.raises(DomainError):
            quadratic_root(bad, b, c)
    # c >= 0 likewise: D at or below d_min
    for bad in (0.0, -c):
        with pytest.raises(DomainError):
            quadratic_root(a, b, bad)


def test_rate_of_zero_noise_limit():
    # lambda_q -> infinity drives the rate to 0 from above
    s = _spectrum(CASE3)
    assert 0.0 < rate_of(s, L_CASES, 1e12) < 1e-10


def test_randomized_consistency(seeds):
    # residual, the correlation form of the balance quadratic and
    # quadratic-vs-bisection on randomized specs
    rng = np.random.default_rng(55901)
    for _ in range(300):
        L = int(rng.integers(2, 13))
        sx2 = float(10.0 ** rng.uniform(-1, 1))
        rx = float(rng.uniform(-0.95 / (L - 1), 0.95))
        sz2 = float(10.0 ** rng.uniform(-1, 1))
        rz = float(rng.uniform(-0.95 / (L - 1), 0.95))
        spec = SourceSpec(L, sx2, rx, sz2, rz)
        s = spectral_decompose(spec)
        dm = d_min(s, L)
        top = source_variance(s, L)
        D = dm + (top - dm) * float(rng.uniform(0.02, 0.98))
        lambda_q, (a, b, c) = _seeded_solve(seeds, s, L, D)
        assert abs(distortion_of(s, L, lambda_q) - D) <= 1e-10 * D
        _assert_correlation_form(b, c, spec, s, D)
        root = quadratic_root(a, b, c)
        assert abs(root - lambda_q) <= 1e-8 * lambda_q


# Over the probes, lambda_q is held within LAMBDA_Q_ULPS ulps of the
# 50-digit lambda_q of the spec's exact spectrum, and Rbar within RATE_EPS
# eps of the replay's, relatively.  The quadratic's coefficients are exact
# and rounded once each, and its positive root moves by at most the
# relative error of each (its condition number in each is at most 1), so
# lambda_q carries three such errors and the stable root form's own few.
# Rbar adds rate_of's two log1p terms and the rounding of the float
# lambda_y and gamma_y it reads.  (Measured on these points: at most 2 ulps
# and 2.5 eps; the Newton iteration this solve replaced was up to 9e15
# ulps and 2e14 eps off on them, next to the interval's ends.)
LAMBDA_Q_ULPS = 4
RATE_EPS = 4


def _edge_points(fractions):
    """Spectra whose root sits on a bracket end, at each D fraction.

    One direction without source (rho_x = 1 leaves gamma_x = 0; lambda_x = 0
    with the larger y on gamma), and the tie lambda_y == gamma_y (any
    rho_x = rho_z = 0).  Both also at sigma_z^2 / sigma_x^2 = 1e3 and 1e6,
    where d_min is near sigma_x^2 and L d_min and L sigma_x^2 are rounded
    apart by many ulps of the slacks between them.  A noiseless spec
    (d_min = 0, so D counts in units of 2^-1074) and one at variances
    near 1e200 take the solve's integer divisors.
    """
    specs = []
    for L in (2, 10, 1000, 10 ** 6):
        specs += [SourceSpec(L, 1.0, 1.0, 2.0, 0.0),
                  from_eigenvalues(L, 0.0, 1.0, 0.5, 3.0),
                  from_eigenvalues(L, 2.0, 0.5, 4.0, 4.0),
                  SourceSpec(L, 1.0, 0.3, 0.0, 0.0),
                  SourceSpec(L, 1e200, 0.3, 2e200, 0.5)]
        for noise in (1e3, 1e6):
            specs += [SourceSpec(L, 1.0, 1.0, noise, 0.0),
                      SourceSpec(L, 1e-4, 0.0, 1e-4 * noise, 0.0)]
    points = []
    for spec in specs:
        s = spectral_decompose(spec)
        lo, hi = d_min(s, spec.L), source_variance(s, spec.L)
        points += [(spec, s, lo + f * (hi - lo)) for f in fractions]
    return points


def _exact_eigenvalues(spec):
    """(lambda_x, gamma_x, lambda_y, gamma_y) of the spec's floats, as Fractions."""
    L = spec.L

    def pair(sigma_sq, rho):
        s, r = Fraction(sigma_sq), Fraction(rho)
        return max((1 + (L - 1) * r) * s, 0), max((1 - r) * s, 0)

    (lx, gx), (lz, gz) = pair(spec.sigma_x_sq, spec.rho_x), (
        pair(spec.sigma_z_sq, spec.rho_z) if spec.sigma_z_sq > 0 else (0, 0))
    return lx, gx, lx + lz, gx + gz


def test_coefficients_are_the_exact_quadratic_rounded_once(seeds):
    # the pass forms the balance quadratic t0 q^2 + (t0 (lambda_y + gamma_y)
    # - P) q + (t0 lambda_y gamma_y - Q), t0 = L (sigma_x^2 - D), from the
    # spec's exact eigenvalues and rounds each coefficient once, below and
    # above the middle; its slack C / den is L (D - d_min) exactly, and
    # its complement t0 rounded once; with float and with int divisors
    divisors = set()
    for spec, s, D in _edge_points([1e-6, 0.3, 0.7, 1.0 - 1e-6]):
        L = spec.L
        lx, gx, ly, gy = _exact_eigenvalues(spec)
        t0 = lx + (L - 1) * gx - L * Fraction(D)
        P = lx * lx + (L - 1) * gx * gx
        Q = lx * lx * gy + (L - 1) * gx * gx * ly
        prepared = symrd.upper_bound.prepare(s, L)
        divisors.add(type(prepared.divisors[0]))
        # the quadratic in lambda_q times _scales's inverse powers of two,
        # which keep it inside float64 at any variance scale
        e, h, w = prepared.e, prepared.h, prepared.w
        units = [Fraction(2) ** ((k + 1) * e - w - k * h) for k in range(3)]
        exact = (t0, t0 * (ly + gy) - P, t0 * ly * gy - Q)
        seeds.clear()
        solve_lambda_q(s, L, D)
        assert seeds == [tuple(float(x * u) for x, u in zip(exact, units))]
        *_, slack, den, rest = next(symrd.upper_bound.solutions(prepared, (D,)))
        d_floor = (lx * (ly - lx) / ly + (L - 1) * gx * (gy - gx) / gy) / L
        assert Fraction(slack, den) == L * (Fraction(D) - d_floor)
        assert rest == float(t0)
    assert divisors == {float, int}


def test_closed_form_on_random_probe():
    # lambda_q and Rbar against the 50-digit replay of the spec's exact
    # spectrum: over the seeded probes (L up to 1e7, variances over six
    # decades, D next to both ends of the interval and inside it), the
    # edge spectra and the frozen solutions; every point solves
    mpref = pytest.importorskip("mpref")
    edges = _edge_points([f for f in mpref.PROBE_FRACTIONS if f] + [0.3, 0.7])
    frozen = [(from_eigenvalues(L_CASES, *eig), _spectrum(eig), D)
              for eig, D, _, _ in FROZEN_SOLUTIONS]
    off = []
    for spec, s, D in (mpref.ends_probe() + mpref.probe(seed=3, n=1000)
                       + mpref.probe(seed=4, n=1000) + edges + frozen):
        exact = mpref.spectrum(spec)
        lambda_q = solve_lambda_q(s, spec.L, D)
        rate_nats = rate_of(s, spec.L, lambda_q)
        ref_q = mpref.lambda_q(exact, spec.L, D)
        rate, _ = mpref.upper(exact, spec.L, D, ref_q)
        q_ulps = abs(lambda_q - float(ref_q)) / math.ulp(float(ref_q))
        rate_eps = float(abs(rate_nats - rate) / rate) / sys.float_info.epsilon
        if q_ulps > LAMBDA_Q_ULPS or rate_eps > RATE_EPS:
            off.append((spec, D, q_ulps, rate_eps))
    assert not off


def _spread_probe(seed: int, n: int):
    """(spec, s, D): n specs whose eigenvalues spread over up to 600 decades.

    sigma_z_sq / sigma_x_sq is log-uniform over 1e-300 ... 1e300, and rho_z
    = 1 (gamma_z = 0) or rho_x = 1 (gamma_x = 0) in a third of them each,
    with D at f = 1e-6, 0.3, 0.7 and 1 - 1e-6 of (d_min, sigma_x_sq).
    """
    rng = random.Random(seed)
    points = []
    while len(points) < 4 * n:
        L = int(10 ** rng.uniform(math.log10(2), 6))
        sx = 10 ** rng.uniform(-3, 3)
        rx = rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0])
        rz = rng.choice([1.0, 0.0, rng.uniform(0.0, 1.0)])
        try:
            spec = SourceSpec(L, sx, rx, sx * 10 ** rng.uniform(-300, 300), rz)
        except SymrdError:
            continue
        s = spectral_decompose(spec)
        lo, hi = d_min(s, L), source_variance(s, L)
        points += [(spec, s, lo + f * (hi - lo)) for f in (1e-6, 0.3, 0.7, 1 - 1e-6)]
    return points


def test_wide_eigenvalue_spread_solves():
    # lambda_y / gamma_y up to 1e300 and beyond: the quadratic's one scale
    # per spectrum keeps a, b and c inside float64, so every point solves
    # to within LAMBDA_Q_ULPS of the replay; a scale set by the larger
    # eigenvalue alone let c underflow, and refused 28 of these 180 points
    mpref = pytest.importorskip("mpref")
    off = []
    for spec, s, D in _spread_probe(seed=7, n=60):
        exact = mpref.spectrum(spec)
        if not mpref.d_min(exact, spec.L) < D < mpref.sigma_x_sq(exact, spec.L):
            continue
        lambda_q = solve_lambda_q(s, spec.L, D)
        ref_q = float(mpref.lambda_q(exact, spec.L, D))
        if abs(lambda_q - ref_q) > LAMBDA_Q_ULPS * math.ulp(ref_q):
            off.append((spec, D, lambda_q, ref_q))
    assert not off
    # lambda_y / gamma_y = 2e300: lambda_q = 1 at D = 0.75
    wide = SourceSpec(2, 1.0, 0.0, 1e300, 1.0)
    assert solve_lambda_q(spectral_decompose(wide), 2, 0.75) == 1.0
    # lambda_y / lambda_q = 3.6e311 overflows, while Rbar is 2.3e6 nats
    spec = SourceSpec(329316, 3.6458926816414907e-37, 0.7562453807941443,
                      9.817154660295123e+262, 1.0)
    D = 2.757193086696514e-37
    rate, _ = mpref.upper(mpref.spectrum(spec), spec.L, D)
    got = upper_bound_rate(spectral_decompose(spec), spec.L, D)
    assert abs(got - rate) <= RATE_EPS * sys.float_info.epsilon * rate


# sigma_z^2 = 0: d_min = 0, so lambda_q -> 0 as D -> 0.
NOISELESS = SourceSpec(10, 1.0, 0.3, 0.0, 0.0)


def test_noiseless_small_distortion_matches_replay():
    # The quadratic's constant term is -L D lambda_y gamma_y exactly, which
    # keeps its digits as lambda_q -> 0, where a difference
    # distortion_of(lambda_q) - D would cancel.  (Below D ~ 1e-40 the
    # 50-digit replay cancels itself.)
    mpref = pytest.importorskip("mpref")
    s = spectral_decompose(NOISELESS)
    for D in (1e-7, 1e-8, 1e-9, 1e-12):
        got = upper_bound_rate(s, NOISELESS.L, D)
        rate, _ = mpref.upper(mpref.spectrum(NOISELESS), NOISELESS.L, D)
        assert abs(got - rate) <= RATE_EPS * sys.float_info.epsilon * rate


@pytest.mark.parametrize("D", [1e-308, 1e-310, 5e-324])
def test_noiseless_rate_past_float_range_raises(D):
    # lambda_y / lambda_q overflows here: the rate is not returned as inf
    with pytest.raises(SymrdError):
        upper_bound_rate(spectral_decompose(NOISELESS), NOISELESS.L, D)


@pytest.mark.parametrize("D", [1e-315, 1e-320, 5e-324])
def test_noiseless_subnormal_distortion_raises_precision_error(D):
    # L (D - d_min) = L D is subnormal: so is the quadratic's constant
    # term, whose few digits would set lambda_q, and the solve says so
    with pytest.raises(PrecisionError, match="too close to d_min"):
        upper_bound_rate(spectral_decompose(NOISELESS), NOISELESS.L, D)
