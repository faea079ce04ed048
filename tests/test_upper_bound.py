"""Tests for the achievable (upper) rate bound.

Reference values marked "50-digit reference" were computed independently
with an mpmath program (bisection at 50 decimal digits on the distortion
constraint, plus the closed-form rate); frozen here as float literals.
test_newton_solve_on_random_probe compares the solver with the same replay
(tests/mpref.py) over the range the library accepts and at the frozen
solutions.
"""

import math
import statistics

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


def _seeded_solve(seeds, s, L, D):
    """(lambda_q, (a, b, c)): the solve at D and its one seed quadratic."""
    seeds.clear()
    lambda_q = solve_lambda_q(s, L, D)
    (abc,) = seeds
    return lambda_q, abc


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
    # the seed quadratic's phi-form and the correlation-form (g, h)
    # coefficients describe the same quadratic: b = g1 L^2 + g2 L and
    # c = h1 L^2 + h2 L
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


def test_solve_rejects_interval_too_narrow_for_its_slacks():
    # d_min and sigma_x^2 are rounded apart by more than the true interval
    # here, so the larger slack's complement to L (sigma_x^2 - d_min) is
    # negative: no bracket exists, and the solve says so instead of failing
    # on it.
    spec = SourceSpec(3, 0.641087696978789, 0.3, 5646376368315522.0, 0.5)
    with pytest.raises(PrecisionError, match="too narrow"):
        solve_lambda_q(spectral_decompose(spec), 3, 0.6410876969787889)


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


def test_rate_of_zero_noise_limit():
    # lambda_q -> infinity drives the rate to 0 from above
    s = _spectrum(CASE3)
    assert 0.0 < rate_of(s, L_CASES, 1e12) < 1e-10


def test_randomized_consistency(seeds):
    # residual, the correlation form of the seed quadratic and
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


# Over the probe, the solve's error in Rbar is held to
#   PROBE_D_ULPS * |dRbar/dD| * ulp(D) + PROBE_RATE_ULPS * ulp(Rbar).
# The first term covers the slack the solve starts from: L (D - d_min) or
# L (sigma_x^2 - D) carries the rounding of d_min or sigma_x^2, at most
# 4 ulps of D (sigma_x^2 < 2 D above the middle), and each balance
# evaluation's side is a sum of positive terms off by at most 6 eps
# relatively, the same as moving D by 6 eps (D - d_min) <= 12 ulps of D.
# The second covers rate_of's two log1p terms and their sum.  (Measured:
# at most 2.7 times the plain sum of the two; the bisection this solve
# replaced reached 1.0e5 times it on the same points.)
PROBE_D_ULPS = 16
PROBE_RATE_ULPS = 4


def _edge_points(fractions):
    """Spectra whose root sits on a bracket end, at each D fraction.

    One direction without source (rho_x = 1 leaves gamma_x = 0; lambda_x = 0
    with the larger y on gamma), and the tie lambda_y == gamma_y (any
    rho_x = rho_z = 0).  Both also at sigma_z^2 / sigma_x^2 = 1e3 and 1e6,
    where d_min is near sigma_x^2 and L d_min and L sigma_x^2 are rounded
    apart by many ulps of the slacks between them.
    """
    specs = []
    for L in (2, 10, 1000, 10 ** 6):
        specs += [SourceSpec(L, 1.0, 1.0, 2.0, 0.0),
                  from_eigenvalues(L, 0.0, 1.0, 0.5, 3.0),
                  from_eigenvalues(L, 2.0, 0.5, 4.0, 4.0)]
        for noise in (1e3, 1e6):
            specs += [SourceSpec(L, 1.0, 1.0, noise, 0.0),
                      SourceSpec(L, 1e-4, 0.0, 1e-4 * noise, 0.0)]
    points = []
    for spec in specs:
        s = spectral_decompose(spec)
        lo, hi = d_min(s, spec.L), source_variance(s, spec.L)
        points += [(spec, s, lo + f * (hi - lo)) for f in fractions]
    return points


def test_newton_seed_takes_the_pass_slack_pair(seeds):
    # the converse pass seeds each solve with one quadratic, whose a and
    # phi3 are, bit for bit, the slack pair it yields, below and above the
    # middle: a = L (sigma_x^2 - D), b = b_free - phi3 (gamma_y + lambda_y)
    # and c = -phi3 lambda_y gamma_y with phi3 = L (D - d_min)
    for spec, s, D in _edge_points([1e-6, 0.3, 0.7, 1.0 - 1e-6]):
        p = symrd.upper_bound.prepare(s, spec.L)
        seeds.clear()
        *_, below, above = next(symrd.upper_bound.solutions(p, (D,)))
        assert seeds == [(above, p.b_free - below * p.y_sum,
                          -below * s.lambda_y * s.gamma_y)]


class _CountingMath:
    """math as symrd.upper_bound sees it, with each log call recorded.

    Each balance evaluation of the converse pass takes one log, the
    residual check's included, and nothing else in a solve calls log.
    """

    def __init__(self, calls: list):
        self.calls = calls

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.calls.append(x)
        return math.log(x)


def test_newton_solve_on_random_probe(monkeypatch):
    mpref = pytest.importorskip("mpref")
    calls = []
    monkeypatch.setattr(symrd.upper_bound, "math", _CountingMath(calls))
    evaluations = []
    off = []
    edges = _edge_points([f for f in mpref.PROBE_FRACTIONS if f] + [0.3, 0.7])
    frozen = [(from_eigenvalues(L_CASES, *eig), _spectrum(eig), D)
              for eig, D, _, _ in FROZEN_SOLUTIONS]
    for spec, s, D in mpref.probe(seed=20261018, n=2000) + edges + frozen:
        calls.clear()
        rate_nats = rate_of(s, spec.L, solve_lambda_q(s, spec.L, D))
        evaluations.append(len(calls))
        # The float spectrum's x and z are exact binary values; the replay
        # re-forms y = x + z from them, as the model defines it.
        rate, slope = mpref.upper(mpref.exact(s), spec.L, D)
        bound = (PROBE_D_ULPS * abs(float(slope)) * math.ulp(D)
                 + PROBE_RATE_ULPS * math.ulp(rate_nats))
        if abs(rate_nats - float(rate)) > bound:
            off.append((spec, D, rate_nats, float(rate)))
    # one Newton evaluation at least, and the residual check's
    assert min(evaluations) >= 2
    assert statistics.median(evaluations) <= 3
    assert max(evaluations) <= 8
    assert not off


# sigma_z^2 = 0: d_min = 0, so lambda_q -> 0 as D -> 0.
NOISELESS = SourceSpec(10, 1.0, 0.3, 0.0, 0.0)


def test_noiseless_small_distortion_matches_replay():
    # The residual check holds the solved form, which does not cancel as
    # lambda_q -> 0, where a difference distortion_of(lambda_q) - D would.
    # (Below D ~ 1e-40 the 50-digit replay cancels itself.)
    mpref = pytest.importorskip("mpref")
    s = spectral_decompose(NOISELESS)
    for D in (1e-7, 1e-8, 1e-9, 1e-12):
        got = upper_bound_rate(s, NOISELESS.L, D)
        rate, slope = mpref.upper(mpref.exact(s), NOISELESS.L, D)
        bound = (PROBE_D_ULPS * abs(float(slope)) * math.ulp(D)
                 + PROBE_RATE_ULPS * math.ulp(got))
        assert abs(got - float(rate)) <= bound


@pytest.mark.parametrize("D", [1e-308, 1e-310, 5e-324])
def test_noiseless_rate_past_float_range_raises(D):
    # lambda_y / lambda_q overflows here: the rate is not returned as inf
    with pytest.raises(SymrdError):
        upper_bound_rate(spectral_decompose(NOISELESS), NOISELESS.L, D)


@pytest.mark.parametrize("D", [1e-315, 1e-320, 5e-324])
def test_noiseless_subnormal_slack_raises_precision_error(D, monkeypatch):
    # L (D - d_min) = L D is subnormal: the solve names that slack before
    # Newton's method spends its balance evaluations on too few digits.
    calls = []
    monkeypatch.setattr(symrd.upper_bound, "math", _CountingMath(calls))
    with pytest.raises(PrecisionError, match=r"smaller slack L \(D - d_min\)"):
        upper_bound_rate(spectral_decompose(NOISELESS), NOISELESS.L, D)
    assert len(calls) <= 2
