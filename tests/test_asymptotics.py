"""Tests for the large-L asymptotic rate expressions.

Reference values marked "50-digit reference" were computed independently
with an mpmath program evaluating the limiting expressions at 50 decimal
digits; frozen here as float literals.
"""

import argparse
import math
import random

import pytest

from symrd import (
    Condition,
    DomainError,
    PrecisionError,
    SourceSpec,
    SymrdError,
    asymptotic_gap,
    asymptotic_regime,
    asymptotic_row,
    from_eigenvalues,
    lower_asymptotic,
    spectral_decompose,
    upper_asymptotic,
    upper_bound_rate,
)
from symrd.asymptotics import D_TH0_WINDOW, bounds_meet, correlation_form
from symrd.cli import _grid
from symrd.model import parse_spec_text
from test_golden import ASYM_RANGES, GOLDEN

# the gapped reference spec: rho_Y = 0.5, sigma_Y^2 = 5
GAPPED = SourceSpec(500, 1.0, 0.3, 4.0, 0.55)
ZERO_MIX = SourceSpec(10, 1.0, 0.0, 4.0, 0.0)
ZERO_RHO_X = SourceSpec(500, 1.0, 0.0, 4.0, 0.5)

# 50-digit reference: regime constants of the gapped spec.
GAPPED_XI = 0.428571428571428571428571428571            # = 3/7
GAPPED_D_MIN_INF = 0.768
GAPPED_D_TH0_INF = 0.964
# The two gap endpoints are kept as text too, so that
# test_gapped_thresholds_50_digit_replay can compare all 30 digits.
GAPPED_D_TH1_INF_TEXT = "0.815522282143504149896330902255"
GAPPED_D_TH2_INF_TEXT = "0.916477717856495850103669097745"
GAPPED_D_TH1_INF = float(GAPPED_D_TH1_INF_TEXT)
GAPPED_D_TH2_INF = float(GAPPED_D_TH2_INF_TEXT)
GAPPED_GAP_AT_087 = 0.0212769488712456505365620690958

# 50-digit reference: rate values at L = 500.
GAPPED_UPPER_AT_087 = 166.030570449190582291651333144
GAPPED_LOWER_AT_087 = 166.009293500319336641114771075
GAPPED_UPPER_AT_TH0 = 5.50320998497271996804827946487
GAPPED_UPPER_AT_097 = 3.39587973461402750040623867919
ZERO_MIX_UPPER_AT_085 = 6.93147180559945309417232121458  # = 10 ln 2
ZERO_RHO_X_LOWER_AT_080 = 229.822682968538766295881802942

# 50-digit reference: the sqrt(L) clause's expansion coefficients of the
# gapped spec at d_th0_inf.
GAPPED_ALPHA1_AT_TH0 = 5.83333333333333333333333333333    # = 35/6
GAPPED_ALPHA2_AT_TH0 = 10.1388888888888888888888888889    # = 365/36


def test_regime_classification():
    reg = asymptotic_regime(GAPPED)
    assert reg.condition == Condition.PosMixPosRho_XiLtHalf
    assert abs(reg.xi - GAPPED_XI) < 1e-15
    zm = asymptotic_regime(ZERO_MIX)
    assert zm.condition == Condition.ZeroMix
    assert zm.xi is None
    zr = asymptotic_regime(ZERO_RHO_X)
    assert zr.condition == Condition.PosMixZeroRho
    high = asymptotic_regime(SourceSpec(500, 1.0, 0.6, 4.0, 0.55))
    assert high.condition == Condition.PosMixPosRho_XiGeHalf
    assert high.xi >= 0.5


def test_regime_thresholds():
    reg = asymptotic_regime(GAPPED)
    assert abs(reg.d_min_inf - GAPPED_D_MIN_INF) < 1e-14
    assert abs(reg.d_th0_inf - GAPPED_D_TH0_INF) < 1e-14
    assert abs(reg.d_th1_inf - GAPPED_D_TH1_INF) < 1e-14
    assert abs(reg.d_th2_inf - GAPPED_D_TH2_INF) < 1e-14
    # the two gap endpoints bracket nothing in the other regimes
    zm = asymptotic_regime(ZERO_MIX)
    assert zm.d_th1_inf is None and zm.d_th2_inf is None
    assert abs(zm.d_min_inf - 0.8) < 1e-15   # = sx2 sz2 / (sx2 + sz2)
    zr = asymptotic_regime(ZERO_RHO_X)
    assert abs(zr.d_min_inf - 2.0 / 3.0) < 1e-15


def test_rejects_negative_correlations():
    # valid finite-L specs, but the limiting expressions only cover
    # nonnegative correlations
    with pytest.raises(DomainError) as exc:
        asymptotic_regime(SourceSpec(500, 1.0, -0.001, 4.0, 0.1))
    assert "finite-L" in str(exc.value)
    with pytest.raises(DomainError):
        asymptotic_regime(SourceSpec(500, 1.0, 0.3, 4.0, -0.001))


def test_rejects_unit_rho_x_with_positive_mix():
    with pytest.raises(DomainError):
        asymptotic_regime(SourceSpec(500, 1.0, 1.0, 4.0, 0.5))


def test_frozen_upper_values():
    reg = asymptotic_regime(GAPPED)
    assert abs(upper_asymptotic(reg, 500, 0.87)
               - GAPPED_UPPER_AT_087) <= 1e-9 * GAPPED_UPPER_AT_087
    assert abs(upper_asymptotic(reg, 500, reg.d_th0_inf)
               - GAPPED_UPPER_AT_TH0) <= 1e-10 * GAPPED_UPPER_AT_TH0
    assert abs(upper_asymptotic(reg, 500, 0.97)
               - GAPPED_UPPER_AT_097) <= 1e-10 * GAPPED_UPPER_AT_097
    assert abs(upper_asymptotic(asymptotic_regime(ZERO_MIX), 10, 0.85)
               - ZERO_MIX_UPPER_AT_085) <= 1e-12 * ZERO_MIX_UPPER_AT_085


def test_frozen_lower_values():
    assert abs(lower_asymptotic(asymptotic_regime(GAPPED), 500, 0.87)
               - GAPPED_LOWER_AT_087) <= 1e-9 * GAPPED_LOWER_AT_087
    assert abs(lower_asymptotic(asymptotic_regime(ZERO_RHO_X), 500, 0.80)
               - ZERO_RHO_X_LOWER_AT_080) <= 1e-9 * ZERO_RHO_X_LOWER_AT_080


def test_lower_equals_upper_outside_gap_interval():
    reg = asymptotic_regime(GAPPED)
    for D in (0.80, reg.d_th1_inf, reg.d_th2_inf, 0.95):
        up = upper_asymptotic(reg, 500, D)
        lo = lower_asymptotic(reg, 500, D)
        assert abs(lo - up) <= 1e-12 * max(1.0, up)
    # strictly inside the interval the lower bound is strictly smaller
    assert lower_asymptotic(reg, 500, 0.87) \
        < upper_asymptotic(reg, 500, 0.87)


# One golden spec per Condition, and the conditions' expected meetings.
ASYM_MEET = {"asym_zero_mix": {True}, "asym_pos_mix_zero_rho": {False},
             "asym_xi_ge_half": {True}, "asym_xi_lt_half": {True, False}}


@pytest.mark.parametrize("name", sorted(ASYM_MEET))
def test_lower_is_upper_exactly_where_bounds_meet(name):
    # On the pinned 20-point grid, and at the sqrt(L) window point next to
    # d_th0_inf where it is inside the domain.
    reg = asymptotic_regime(parse_spec_text((GOLDEN / f"{name}.spec").read_text()))
    d_start, d_end = ASYM_RANGES[name]
    grid = _grid(argparse.Namespace(d_start=float(d_start), d_end=float(d_end),
                                    n_points=20, include_endpoints_eps=False))
    if reg.d_th0_inf is not None and reg.d_th0_inf < reg.spec.sigma_x_sq:
        grid.append(reg.d_th0_inf * (1.0 + 1e-14))
    meets = set()
    for D in grid:
        meet = bounds_meet(reg, D)
        meets.add(meet)
        for L in (10, 100, 10000):
            up, lo = upper_asymptotic(reg, L, D), lower_asymptotic(reg, L, D)
            assert (lo.hex() == up.hex()) == meet, (L, D)
        if reg.condition is Condition.PosMixPosRho_XiLtHalf:
            assert (asymptotic_gap(reg, D) > 0.0) == (not meet), D
    assert meets == ASYM_MEET[name]


ASYM_SIZES = [2, 10, 10 ** 3, 10 ** 6, 10 ** 7]


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ASYM_MEET))
def test_bounds_at_many_sizes_are_the_one_size_values(name):
    # asymptotic_row forms each piece's L-free terms once for all sizes;
    # its cells are upper_asymptotic's and lower_asymptotic's, and its gap
    # asymptotic_gap's, bit for bit, at seeded D across the interval,
    # inside D_TH0_WINDOW of d_th0_inf and one ulp either side of d_th1_inf
    # and d_th2_inf
    reg = asymptotic_regime(parse_spec_text((GOLDEN / f"{name}.spec").read_text()))
    gapped = reg.condition is Condition.PosMixPosRho_XiLtHalf
    sx2 = reg.spec.sigma_x_sq
    rng = random.Random(20261019)
    points = [reg.d_min_inf + rng.random() * (sx2 - reg.d_min_inf) for _ in range(200)]
    if reg.d_th0_inf is not None and reg.d_th0_inf < sx2:
        points += [reg.d_th0_inf + f * D_TH0_WINDOW * sx2 for f in (-0.9, -0.5, 0.0, 0.5, 0.9)]
    for edge in (reg.d_th1_inf, reg.d_th2_inf):
        if edge is not None:
            points += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, sx2)]
    for D in points:
        want = _outcome(lambda: ([(upper_asymptotic(reg, L, D), lower_asymptotic(reg, L, D))
                                  for L in ASYM_SIZES],
                                 asymptotic_gap(reg, D) if gapped else None))
        assert _outcome(lambda: asymptotic_row(reg, ASYM_SIZES, D)) == want, D
    with pytest.raises(DomainError):
        asymptotic_row(reg, ASYM_SIZES, reg.d_min_inf)


def test_high_contrast_regime_has_no_gap():
    spec = SourceSpec(500, 1.0, 0.6, 4.0, 0.55)
    reg = asymptotic_regime(spec)
    dm = reg.d_min_inf
    for frac in (0.2, 0.5, 0.8):
        D = dm + (spec.sigma_x_sq - dm) * frac
        up = upper_asymptotic(reg, 500, D)
        lo = lower_asymptotic(reg, 500, D)
        assert abs(lo - up) <= 1e-12 * max(1.0, up)


def test_zero_mix_lower_equals_upper():
    reg = asymptotic_regime(ZERO_MIX)
    for D in (0.85, 0.95):
        up = upper_asymptotic(reg, 10, D)
        lo = lower_asymptotic(reg, 10, D)
        assert abs(lo - up) <= 1e-12 * max(1.0, up)


def test_zero_mix_formula_is_exact_at_finite_l():
    # with both correlations at zero the limiting expression carries no
    # remainder term: it equals the finite-L bound for every L
    for L in (2, 7, 40):
        spec = SourceSpec(L, 1.0, 0.0, 4.0, 0.0)
        s = spectral_decompose(spec)
        reg = asymptotic_regime(spec)
        for D in (0.82, 0.9, 0.98):
            exact = upper_bound_rate(s, L, D)
            lim = upper_asymptotic(reg, L, D)
            assert abs(exact - lim) <= 1e-10 * max(1.0, exact)


def test_gap_frozen_value_and_endpoints():
    reg = asymptotic_regime(GAPPED)
    assert abs(asymptotic_gap(reg, 0.87) - GAPPED_GAP_AT_087) < 1e-13
    # the gap vanishes continuously at both endpoints: just inside them it
    # is positive and of order (relative offset)^2
    assert 0.0 < asymptotic_gap(reg, reg.d_th1_inf * (1 + 1e-6)) <= 1e-9
    assert 0.0 < asymptotic_gap(reg, reg.d_th2_inf * (1 - 1e-6)) <= 1e-9
    # outside the interval the gap is exactly zero
    assert asymptotic_gap(reg, 0.80) == 0.0
    assert asymptotic_gap(reg, 0.95) == 0.0
    assert asymptotic_gap(reg, 0.87) > 0.0


def test_gapped_thresholds_50_digit_replay():
    # Replays the 50-digit evaluation behind GAPPED_D_TH{1,2}_INF twice:
    # from the closed form 0.866 -/+ 0.014 sqrt(13), and from xi, gamma_x,
    # gamma_y and d_th0_inf built from the spec parameters.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    sx2, rx, sz2, rz = (mp.mpf(v) for v in ("1", "0.3", "4", "0.55"))
    closed = (mp.mpf("0.866") - mp.mpf("0.014") * mp.sqrt(13),
              mp.mpf("0.866") + mp.mpf("0.014") * mp.sqrt(13))
    gx, gz = (1 - rx) * sx2, (1 - rz) * sz2
    gy = gx + gz
    mix = rx * sx2 + rz * sz2
    ry = mix / (sx2 + sz2)
    xi = rx / (1 - rx) * (1 - ry) / ry
    d_th0 = rx * rz * sx2 * sz2 / mix + gx
    root = mp.sqrt(1 - 4 * xi ** 2)
    from_regime = (d_th0 - (1 + root) / 2 * gx ** 2 / gy,
                   d_th0 - (1 - root) / 2 * gx ** 2 / gy)
    frozen = (mp.mpf(GAPPED_D_TH1_INF_TEXT), mp.mpf(GAPPED_D_TH2_INF_TEXT))
    assert abs(xi - mp.mpf(3) / 7) < mp.mpf("1e-45")
    assert abs(d_th0 - mp.mpf("0.964")) < mp.mpf("1e-45")
    for c, r, f in zip(closed, from_regime, frozen):
        assert abs(c - r) < mp.mpf("1e-45")
        assert abs(c - f) <= mp.mpf("1e-30")


def test_gap_requires_gapped_regime():
    with pytest.raises(DomainError):
        asymptotic_gap(asymptotic_regime(ZERO_MIX), 0.85)
    with pytest.raises(DomainError):
        asymptotic_gap(asymptotic_regime(ZERO_RHO_X), 0.80)
    with pytest.raises(DomainError):
        asymptotic_gap(asymptotic_regime(SourceSpec(500, 1.0, 0.6, 4.0, 0.55)), 0.9)


@pytest.mark.parametrize("spec", [SourceSpec(10, 1.0, 0.5, 1e17, 1.0),
                                  SourceSpec(10, 1.0, 1e-200, 4.0, 0.5)])
def test_gapped_regime_whose_d_free_log_rounds_to_zero_raises(spec):
    # rho_y rounds to 1 (the first) or rho_x^2 underflows (the second): the
    # gapped lower piece's D-free log, held by the regime, has no finite
    # value, and the classification says so rather than a raw math error
    with pytest.raises(PrecisionError, match="half_log_rho's argument rounds to 0.0"):
        asymptotic_regime(spec)


@pytest.mark.parametrize("scale", [1e80, 1e-82, 4.0 ** 257])
def test_gapped_regime_whose_gap_factor_leaves_float64_raises(scale):
    # gamma_x^4 overflows (1e80) or underflows to 0 (1e-82), or already
    # gamma_x^2 of the gap interval's ends overflows (4^257, gamma_x near
    # 3.8e154): the gap's D-free terms, held by the regime, have no float64
    # value, and the classification says so rather than a raw
    # OverflowError or ZeroDivisionError
    with pytest.raises(PrecisionError, match="gap's factor"):
        asymptotic_regime(SourceSpec(GAPPED.L, scale, GAPPED.rho_x,
                                     scale * GAPPED.sigma_z_sq, GAPPED.rho_z))


def test_threshold_window_routes_to_sqrt_l_expression():
    # distortions within the floating-point window around d_th0 evaluate the
    # sqrt(L) expression, whose value does not depend on the exact D
    reg = asymptotic_regime(GAPPED)
    near = reg.d_th0_inf * (1.0 + 1e-14)
    got = upper_asymptotic(reg, 500, near)
    assert abs(got - GAPPED_UPPER_AT_TH0) <= 1e-10 * GAPPED_UPPER_AT_TH0


def _interior_shapes(seed, n):
    """n seeded specs with variances in [1e-3, 1e3] whose d_th0_inf is interior."""
    rng = random.Random(seed)
    shapes = []
    while len(shapes) < n:
        sigma_x_sq, sigma_z_sq = (math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
                                  for _ in range(2))
        spec = SourceSpec(10, sigma_x_sq, rng.uniform(0.0, 1.0), sigma_z_sq,
                          rng.uniform(0.0, 1.0))
        try:
            reg = asymptotic_regime(spec)
        except SymrdError:
            continue
        if spec.rho_x > 0.0 and reg.d_min_inf < reg.d_th0_inf < sigma_x_sq:
            shapes.append(spec)
    return shapes


def test_sqrt_l_window_at_power_of_four_scales_is_the_unit_problem():
    # Scaling both variances by c = 4^k is exact, and every large-L cell
    # is homogeneous of degree 0: inside D_TH0_WINDOW of d_th0_inf the
    # row at each scale is the unit spec's, bit for bit, or a SymrdError
    # says float64 cannot resolve it -- never a raw error or another value
    def window(reg):
        return [reg.d_th0_inf + f * D_TH0_WINDOW * reg.spec.sigma_x_sq
                for f in (-0.5, 0.0, 0.5)]

    equal = 0
    for spec in _interior_shapes(20261020, 40):
        unit = asymptotic_regime(spec)
        want = [asymptotic_row(unit, ASYM_SIZES, D) for D in window(unit)]
        for k in range(-270, 271):
            c = 4.0 ** k
            scaled = SourceSpec(spec.L, c * spec.sigma_x_sq, spec.rho_x,
                                c * spec.sigma_z_sq, spec.rho_z)
            try:
                reg = asymptotic_regime(scaled)
                got = [asymptotic_row(reg, ASYM_SIZES, D) for D in window(reg)]
            except SymrdError:
                continue
            assert repr(got) == repr(want), scaled
            equal += 1
    # the clause prints over about 1e+-102, some 340 of the 541 scales
    assert equal > 40 * 300, equal


def test_sqrt_l_clause_where_d_th0_inf_rounds_to_sigma_x_sq_raises():
    # rho_x = 1e-20 leaves d_th0_inf = sigma_x_sq - O(1e-20), which rounds
    # to sigma_x_sq; a D inside the window below it is in the domain, but
    # alpha1's denominator sigma_x_sq - d_th0_inf is 0
    reg = asymptotic_regime(SourceSpec(10, 1.0, 1e-20, 2.0, 0.5))
    assert reg.d_th0_inf == reg.spec.sigma_x_sq
    with pytest.raises(PrecisionError, match="^alpha1 of the sqrt"):
        asymptotic_row(reg, ASYM_SIZES, 1.0 - 0.5 * D_TH0_WINDOW)


def test_sqrt_l_coefficients_frozen():
    # alpha1 = sqrt(-h1 / (sigma_x_sq - D)) and alpha2 = -g2 / (2 (sigma_x_sq - D))
    # at d_th0_inf, from correlation_form, as the sqrt(L) clause forms them;
    # g1, the 1/L series' denominator, vanishes there
    reg = asymptotic_regime(GAPPED)
    D = reg.d_th0_inf
    g1, g2, h1, _ = correlation_form(GAPPED, reg.gamma_x, reg.gamma_z, reg.gamma_y,
                                     reg.mix, D)
    assert g1 == 0.0
    assert abs(math.sqrt(-h1 / (GAPPED.sigma_x_sq - D)) - GAPPED_ALPHA1_AT_TH0) < 1e-12
    assert abs(-g2 / (2.0 * (GAPPED.sigma_x_sq - D)) - GAPPED_ALPHA2_AT_TH0) < 1e-11


def test_d_range_domain_errors():
    reg = asymptotic_regime(GAPPED)
    with pytest.raises(DomainError):
        upper_asymptotic(reg, 500, reg.d_min_inf)
    with pytest.raises(DomainError):
        upper_asymptotic(reg, 500, GAPPED.sigma_x_sq)
    with pytest.raises(DomainError):
        lower_asymptotic(reg, 500, reg.d_min_inf - 0.01)
    with pytest.raises(DomainError):
        asymptotic_gap(reg, GAPPED.sigma_x_sq + 0.01)


def test_finite_l_error_decays_in_gap_interval():
    # the limiting expressions approximate the finite-L bounds with an
    # error that shrinks roughly like 1/L
    s250 = spectral_decompose(SourceSpec(250, 1.0, 0.3, 4.0, 0.55))
    s500 = spectral_decompose(SourceSpec(500, 1.0, 0.3, 4.0, 0.55))
    reg250 = asymptotic_regime(SourceSpec(250, 1.0, 0.3, 4.0, 0.55))
    e250 = abs(upper_bound_rate(s250, 250, 0.87)
               - upper_asymptotic(reg250, 250, 0.87))
    e500 = abs(upper_bound_rate(s500, 500, 0.87)
               - upper_asymptotic(asymptotic_regime(GAPPED), 500, 0.87))
    assert 1.6 <= e250 / e500 <= 2.4
