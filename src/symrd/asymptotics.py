"""Large-L limit expressions for both bounds and their gap.

For nonnegative correlations the bounds admit L -> infinity expansions
written in the scales

    gamma_x = (1 - rho_x) sigma_x^2,  gamma_z = (1 - rho_z) sigma_z^2,
    gamma_y = gamma_x + gamma_z,      mix = rho_x sigma_x^2 + rho_z sigma_z^2,

and, when mix > 0 and rho_x < 1, the contrast parameter

    xi = (rho_x / (1 - rho_x)) * ((1 - rho_y) / rho_y),

together with the limit distortions

    d_min_inf  = rho_x rho_z sigma_x^2 sigma_z^2 / mix + gamma_x gamma_z / gamma_y,
    d_th0_inf  = rho_x rho_z sigma_x^2 sigma_z^2 / mix + gamma_x,
    d_th{1,2}_inf = d_th0_inf - (1 ± sqrt(1 - 4 xi^2)) / 2 * gamma_x^2 / gamma_y
                     (defined when xi < 1/2; + for d_th1).

asymptotic_regime classifies a spec once and returns an
AsymptoticRegime holding the spec, these scales and the limit distortions;
every evaluator here takes that regime.  rows is the pass over a grid of
D: per D both bounds for many L and the limiting gap, with the regime's
fields and each piece's D-free terms formed once per grid.  gaps is its
gap column.  asymptotic_row is its one-element view, and
upper_asymptotic, lower_asymptotic and asymptotic_gap are one-L,
one-cell views.

Every evaluator drops the remainder term of its expansion; the mix = 0
expression is exact for every L.  The upper bound's three pieces carry
an O(1/L) error at each fixed D off d_th0_inf and an O(1/sqrt(L)) one
at it, but the constant is not uniform in D: the remainder behaves as
K / (L delta^2), with delta = |D - d_th0_inf| / sigma_x^2.  Measured
against the finite-L upper bound over 60 seeded specs (rho_x in
(0.05, 0.9), rho_z in (0, 0.9), sigma_x^2 = 1, D at five fractions of
(d_min_inf, sigma_x^2), L = 1e2 ... 1e6): K <= 99 everywhere, K <= 6.7
where delta sqrt(L) >= 10, and the error reaches 10.6 nats at L = 1e6
where 3 <= delta sqrt(L) < 10.  So a cell is near the finite-L bound only
where delta sqrt(L) is large, a far wider layer around d_th0_inf than
the sqrt(L) clause's window.
The constant term of the d_th0_inf piece is assembled from alpha_1 and
alpha_2 of the solved noise level's expansion alpha_1 sqrt(L) + alpha_2 + ...
as -gamma_y (gamma_y + 2 alpha_2) / (4 alpha_1^2); this is the form
consistent with the expansion itself and with the numerically observed
limit.  correlation_form, which writes the b and c of the seed quadratic of
upper_bound.solutions as polynomials in L, gives both (see _rbar2_inf).

Correlations outside [0, 1], and the xi-degenerate points rho_x = 1 and
rho_y = 0 (with mix > 0 the latter cannot occur), are rejected: the finite-L
modules remain the authority there.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .errors import DomainError, PrecisionError
from .model import SourceSpec

# Relative half-width (in units of sigma_x^2) of the dispatch window around
# d_th0_inf inside which the sqrt(L) clause is selected.
D_TH0_WINDOW = 1e-12


class Condition(enum.Enum):
    """Which of the four large-L regimes a spec falls in."""

    ZeroMix = "ZeroMix"
    PosMixPosRho_XiGeHalf = "PosMixPosRho_XiGeHalf"
    PosMixPosRho_XiLtHalf = "PosMixPosRho_XiLtHalf"
    PosMixZeroRho = "PosMixZeroRho"


@dataclass(frozen=True)
class AsymptoticRegime:
    """A classified spec: its condition, scales and limit distortions.

    xi is None only for ZeroMix (where it is never needed); d_th1_inf,
    d_th2_inf, the gapped lower piece's D-free log half_log_rho =
    1/2 ln(rho_x^2 (1 - rho_y) / ((1 - rho_x)^2 rho_y)) and the gap's
    D-free factor gap_factor = gamma_y^2 / (xi^2 gamma_x^4) are populated
    only for PosMixPosRho_XiLtHalf, the regime in which a gap interval
    exists.
    """

    spec: SourceSpec
    condition: Condition
    gamma_x: float
    gamma_z: float
    gamma_y: float
    mix: float
    xi: float | None
    d_min_inf: float
    d_th0_inf: float | None
    d_th1_inf: float | None
    d_th2_inf: float | None
    half_log_rho: float | None = None
    gap_factor: float | None = None


def asymptotic_regime(spec: SourceSpec) -> AsymptoticRegime:
    """Classify a spec and compute its limit distortions.

    Raises
    ------
    DomainError
        If a correlation is outside [0, 1], or rho_x = 1 with a positive
        mixture (xi is undefined there and no limit is assigned).
    PrecisionError
        If a limit distortion overflows float64 (at variances near 1e154
        and above), half_log_rho's argument rounds to 0, or a power of
        gamma_x in the gap's terms leaves float64 (beyond about 1e+-77).
    """
    sx2, sz2 = spec.sigma_x_sq, spec.sigma_z_sq
    rx, rz = spec.rho_x, spec.rho_z
    if rx < 0.0 or rz < 0.0 or rx > 1.0 or rz > 1.0:
        raise DomainError(
            f"asymptotic expressions require rho_x, rho_z in [0, 1], got "
            f"rho_x = {rx!r}, rho_z = {rz!r}; use the "
            "finite-L bound modules for negative correlations"
        )
    gx = (1.0 - rx) * sx2
    gz = (1.0 - rz) * sz2
    gy = gx + gz
    mix = rx * sx2 + rz * sz2
    if mix == 0.0:
        return _finite(AsymptoticRegime(spec, Condition.ZeroMix, gx, gz, gy, mix, None,
                                         sx2 * sz2 / (sx2 + sz2), None, None, None))
    if rx == 1.0:
        raise DomainError(
            "rho_x = 1 leaves the contrast parameter xi undefined; no "
            "large-L limit is assigned"
        )
    common = rx * rz * sx2 * sz2 / mix
    d_min_inf = common + gx * gz / gy
    d_th0_inf = common + gx
    xi = (rx / (1.0 - rx)) * ((1.0 - spec.rho_y) / spec.rho_y)
    d_th1 = d_th2 = half_log_rho = gap_factor = None
    if rx == 0.0:
        condition = Condition.PosMixZeroRho
    elif xi >= 0.5:
        condition = Condition.PosMixPosRho_XiGeHalf
    else:
        condition = Condition.PosMixPosRho_XiLtHalf
        rho_ratio = rx ** 2 * (1.0 - spec.rho_y) / ((1.0 - rx) ** 2 * spec.rho_y)
        if not rho_ratio > 0.0:
            raise PrecisionError(f"half_log_rho's argument rounds to {rho_ratio!r} at "
                                 f"rho_x = {rx!r}, rho_y = {spec.rho_y!r}")
        half_log_rho = 0.5 * math.log(rho_ratio)
        root = math.sqrt(1.0 - 4.0 * xi ** 2)
        try:
            d_th1 = d_th0_inf - (1.0 + root) / 2.0 * gx ** 2 / gy
            d_th2 = d_th0_inf - (1.0 - root) / 2.0 * gx ** 2 / gy
            gap_factor = gy ** 2 / (xi ** 2 * gx ** 4)
        except ArithmeticError:
            raise PrecisionError("the gap's factor gamma_y^2 / (xi^2 gamma_x^4) or its "
                                 f"ends leave float64 at gamma_x = {gx!r}") from None
    return _finite(AsymptoticRegime(spec, condition, gx, gz, gy, mix, xi, d_min_inf,
                                    d_th0_inf, d_th1, d_th2, half_log_rho, gap_factor))


def _finite(regime: AsymptoticRegime) -> AsymptoticRegime:
    """regime, or PrecisionError if one of its limit distortions is not finite."""
    for name in ("d_min_inf", "d_th0_inf", "d_th1_inf", "d_th2_inf"):
        value = getattr(regime, name)
        if value is not None and not math.isfinite(value):
            raise PrecisionError(
                f"limit distortion {name} = {value!r} overflows float64 at "
                f"sigma_x_sq = {regime.spec.sigma_x_sq!r}, "
                f"sigma_z_sq = {regime.spec.sigma_z_sq!r}"
            )
    return regime


def correlation_form(spec: SourceSpec, gx: float, gz: float, gy: float,
                     mix: float, D: float) -> tuple[float, float, float, float]:
    """(g1, g2, h1, h2) with b = g1 L^2 + g2 L and c = h1 L^2 + h2 L.

    b and c are those of the seed quadratic of upper_bound.solutions at
    D, written with the spec's correlations and the scales gx, gz, gy, mix
    of the module docstring:

        g1 = rho_x rho_z sx2 sz2 + mix (gamma_x - D),
        g2 = sx2 (gamma_z + gamma_y) - rho_x sx2 gamma_x - 2 gamma_y D,
        h1 = rho_x rho_z sx2 sz2 gamma_y + mix (gamma_x gamma_z - gamma_y D),
        h2 = rho_x sx2 gamma_z^2 + rho_z sz2 gamma_x^2
             + gamma_x gamma_z gamma_y - gamma_y^2 D,

    where sx2, sz2 abbreviate the component variances.  The identity holds
    for every valid spec, negative correlations included.
    """
    sx2, sz2 = spec.sigma_x_sq, spec.sigma_z_sq
    rx, rz = spec.rho_x, spec.rho_z
    g1 = rx * rz * sx2 * sz2 + mix * (gx - D)
    g2 = sx2 * (gz + gy) - rx * sx2 * gx - 2.0 * gy * D
    h1 = rx * rz * sx2 * sz2 * gy + mix * (gx * gz - gy * D)
    h2 = rx * sx2 * gz * gz + rz * sz2 * gx * gx + gx * gz * gy - gy * gy * D
    return g1, g2, h1, h2


# --- the individual limit expressions ----------------------------------------
#
# Each takes the regime and the sizes and returns the expression as a
# function of D, valued as a list over the sizes: its D-free terms and its
# per-size terms are formed once, and the function adds the D terms to
# them in the order the expression is written.  rows makes each at the
# first row that takes its piece, so a piece no D of the grid takes forms
# nothing.

def _below_log(reg: AsymptoticRegime, sizes: Sequence[int]) -> Callable[[float], float]:
    """ln(gamma_x^2 / gamma_y / (D - d_min_inf)), the L/2 log of both pieces below d_th0_inf."""
    ratio, floor = reg.gamma_x ** 2 / reg.gamma_y, reg.d_min_inf
    return lambda D: math.log(ratio / (D - floor))


def _rbar_inf_zero_mix(reg: AsymptoticRegime, sizes: Sequence[int]) -> Callable:
    sx2, sz2 = reg.spec.sigma_x_sq, reg.spec.sigma_z_sq
    sx4, total, product = sx2 ** 2, sx2 + sz2, sx2 * sz2
    halves = [L / 2.0 for L in sizes]

    def at(D):
        log_ratio = math.log(sx4 / (total * D - product))
        return [half * log_ratio for half in halves]
    return at


def _rbar1_inf(reg: AsymptoticRegime, sizes: Sequence[int]) -> Callable:
    gx2, gy, mix = reg.gamma_x ** 2, reg.gamma_y, reg.mix
    d0, floor = reg.d_th0_inf, reg.d_min_inf
    centre = d0 - reg.xi * gx2 / gy
    terms = [(L / 2.0, 0.5 * math.log(L)) for L in sizes]

    def at(D, log_ratio):
        half_log_mix = 0.5 * math.log(mix * (d0 - D) / gx2)
        quotient = (centre - D) ** 2 / (2.0 * (d0 - D) * (D - floor))
        return [half * log_ratio + half_log_l + half_log_mix + quotient
                for half, half_log_l in terms]
    return at


def _rbar2_inf(reg: AsymptoticRegime, sizes: Sequence[int]) -> Callable:
    """The sqrt(L) clause at d_th0_inf: free of D, so formed once.

    alpha_1 = sqrt(-h1 / (sigma_x^2 - D)) and alpha_2 = -g2 / (2 (sigma_x^2 - D)),
    with correlation_form's g2, h1 at D = d_th0_inf.  Raises PrecisionError
    where alpha_1 is undefined: h1 is not a normal, finite float (past
    variances of about 1e+-102), d_th0_inf rounds to sigma_x^2, or
    -h1 / (sigma_x^2 - D) does not round to a positive number.
    """
    spec, gy, xi, d0 = reg.spec, reg.gamma_y, reg.xi, reg.d_th0_inf
    width = spec.sigma_x_sq - d0
    _, g2, h1, _ = correlation_form(spec, reg.gamma_x, reg.gamma_z, gy, reg.mix, d0)
    if not (sys.float_info.min <= abs(h1) < math.inf and width > 0.0
            and (ratio := -h1 / width) > 0.0):
        raise PrecisionError(
            f"alpha1 of the sqrt(L) clause is undefined at d_th0_inf = {d0!r}: it needs "
            f"a normal h1 (h1 = {h1!r}) and a positive -h1 / (sigma_x_sq - D) (sigma_x_sq "
            f"- D = {width!r}) at sigma_x_sq = {spec.sigma_x_sq!r}, "
            f"sigma_z_sq = {spec.sigma_z_sq!r}")
    a1, a2 = math.sqrt(ratio), -g2 / (2.0 * width)
    half_log_rho = 0.5 * math.log(spec.rho_x / (1.0 - spec.rho_x))
    constant = gy * (gy + 2.0 * a2) / (4.0 * a1 ** 2)
    values = [xi / 2.0 * math.sqrt(L) + 0.25 * math.log(L) + half_log_rho - constant
              for L in sizes]
    return lambda D: values


def _rbar3_inf(reg: AsymptoticRegime, sizes: Sequence[int]) -> Callable:
    spec = reg.spec
    sx2, ry, mix, d0 = spec.sigma_x_sq, spec.rho_y, reg.mix, reg.d_th0_inf
    numerator, one_ry, two_ry = spec.rho_x ** 2 * sx2 ** 2, 1.0 - ry, 2.0 * ry
    count = len(sizes)

    def at(D):
        value = (0.5 * math.log(numerator / (mix * (D - d0)))
                 + one_ry * (sx2 - D) / (two_ry * (D - d0)))
        return [value] * count
    return at


def _r1_inf(reg: AsymptoticRegime, sizes: Sequence[int]) -> Callable:
    scaled = 0.5 * (1.0 - 2.0 * reg.xi) * reg.gamma_x ** 2 / reg.gamma_y
    floor, half_log_rho = reg.d_min_inf, reg.half_log_rho
    terms = [((L + 1) / 2.0, 0.5 * math.log(L)) for L in sizes]

    def at(D, log_ratio):
        quotient = scaled / (D - floor)
        return [half * log_ratio + half_log_l + quotient + half_log_rho
                for half, half_log_l in terms]
    return at


def _r2_inf(reg: AsymptoticRegime, sizes: Sequence[int]) -> Callable:
    sx2, gz, gy = reg.spec.sigma_x_sq, reg.gamma_z, reg.gamma_y
    sx4 = sx2 ** 2
    sx2_gz, shifted = sx2 * gz, sx4 / gy
    halves = [L / 2.0 for L in sizes]

    def at(D):
        log_ratio = math.log(sx4 / (gy * D - sx2_gz))
        quotient = 0.5 * (D - sx2) / (D - sx2 + shifted)
        return [half * log_ratio - quotient for half in halves]
    return at


def rows(regime: AsymptoticRegime, sizes: Sequence[int], grid):
    """(D, bounds, gap) for each D of grid, in order: the large-L pass.

    bounds holds (upper, lower) per size, in order, the upper value in
    both where the bounds meet; gap is the limiting gap (asymptotic_gap)
    in PosMixPosRho_XiLtHalf and None in every other regime.  Per D the
    pass checks D, settles with bounds_meet where the bounds meet, takes
    the gap and picks the pieces; the regime's fields are read once per
    grid, and each piece's D-free and per-size terms once, at the first
    row that takes it (none when sizes is empty).  A generator: the rows
    before a failing D are yielded before its error is raised.

    Raises
    ------
    DomainError
        D outside (d_min_inf, sigma_x_sq).
    PrecisionError
        The sqrt(L) clause's alpha_1 is undefined (see _rbar2_inf).
    """
    reg = regime
    floor, ceil, d0 = reg.d_min_inf, reg.spec.sigma_x_sq, reg.d_th0_inf
    d1, d2, gap_factor = reg.d_th1_inf, reg.d_th2_inf, reg.gap_factor
    zero_mix = reg.condition is Condition.ZeroMix
    # The sqrt(L) clause exists only when the crossing is interior, which
    # needs rho_x > 0 (otherwise d_th0_inf = sigma_x_sq, the domain edge).
    windowed, window = reg.spec.rho_x > 0.0, D_TH0_WINDOW * ceil
    # Each piece's function of D, made at the first row that takes the
    # piece and kept in its local: `(at := at or make(reg, sizes))(D)`.
    below = zero = rbar1 = rbar2 = rbar3 = r1 = r2 = None
    for D in grid:
        if not (floor < D < ceil):
            raise DomainError(
                f"D = {D!r} outside the limiting interval (d_min_inf, sigma_x_sq) "
                f"= ({floor!r}, {ceil!r})"
            )
        meet = bounds_meet(reg, D)
        gap = None
        if gap_factor is not None:    # PosMixPosRho_XiLtHalf
            gap = 0.0 if meet else (
                (d1 - D) * (d2 - D) / (2.0 * (d0 - D) * (D - floor))
                + 0.5 * math.log(gap_factor * (d0 - D) * (D - floor)))
        if not sizes:
            yield D, [], gap
            continue
        # Inside the gap interval, below d_th0_inf: both pieces take one log.
        gapped = gap is not None and not meet
        below_log = (below := below or _below_log(reg, sizes))(D) if gapped else None
        if zero_mix:
            upper = (zero := zero or _rbar_inf_zero_mix(reg, sizes))(D)
        elif windowed and abs(D - d0) <= window:
            upper = (rbar2 := rbar2 or _rbar2_inf(reg, sizes))(D)
        elif D < d0:
            if below_log is None:
                below_log = (below := below or _below_log(reg, sizes))(D)
            upper = (rbar1 := rbar1 or _rbar1_inf(reg, sizes))(D, below_log)
        else:
            upper = (rbar3 := rbar3 or _rbar3_inf(reg, sizes))(D)
        if meet:
            yield D, [(value, value) for value in upper], gap
        elif gapped:
            yield D, list(zip(upper, (r1 := r1 or _r1_inf(reg, sizes))(D, below_log))), gap
        else:    # PosMixZeroRho, the other regime whose bounds do not meet
            yield D, list(zip(upper, (r2 := r2 or _r2_inf(reg, sizes))(D))), gap


def asymptotic_row(regime: AsymptoticRegime, sizes: Sequence[int],
                   D: float) -> tuple[list[tuple[float, float]], float | None]:
    """(bounds, gap) at D: the one row of rows(regime, sizes, [D]) after its D."""
    return next(rows(regime, sizes, (D,)))[1:]


def gaps(regime: AsymptoticRegime, grid):
    """The limiting gap at each D of grid: rows(regime, (), grid)'s gap column.

    Raises DomainError unless the regime is PosMixPosRho_XiLtHalf (no
    other regime has a limiting gap interval), at the first row, before
    D's range is checked.
    """
    if regime.gap_factor is None:    # not PosMixPosRho_XiLtHalf
        raise DomainError(
            f"asymptotic gap is defined only in the "
            f"PosMixPosRho_XiLtHalf regime, not {regime.condition.value}"
        )
    for _, _, gap in rows(regime, (), grid):
        yield gap


def upper_asymptotic(regime: AsymptoticRegime, L: int, D: float) -> float:
    """Large-L approximation of the upper bound at (L, D), in nats.

    ZeroMix specs evaluate the exact expression (no remainder at any L).
    Otherwise the piece is selected by D against d_th0_inf: below it and
    above it the error versus the exact bound is O(1/L) at fixed D, at it
    (within a relative 1e-12 window) O(1/sqrt(L)).  Near d_th0_inf the
    1/L constant grows as 1/delta^2, delta = |D - d_th0_inf| / sigma_x^2:
    the error measured K / (L delta^2) with K <= 99 (<= 6.7 where
    delta sqrt(L) >= 10), up to 10.6 nats at L = 1e6 where
    3 <= delta sqrt(L) < 10 (see the module docstring).  The upper cell
    of asymptotic_row, with its domain rule.
    """
    return asymptotic_row(regime, (L,), D)[0][0][0]


def bounds_meet(regime: AsymptoticRegime, D: float) -> bool:
    """Whether lower_asymptotic at D is upper_asymptotic, at every L.

    True for ZeroMix and PosMixPosRho_XiGeHalf, False for PosMixZeroRho,
    and for PosMixPosRho_XiLtHalf True exactly outside the open gap
    interval (d_th1_inf, d_th2_inf).  D is not range-checked here.
    """
    if regime.d_th1_inf is not None:    # PosMixPosRho_XiLtHalf
        return not regime.d_th1_inf < D < regime.d_th2_inf
    return regime.condition is not Condition.PosMixZeroRho


def lower_asymptotic(regime: AsymptoticRegime, L: int, D: float) -> float:
    """Large-L approximation of the lower bound at (L, D), in nats.

    Wherever bounds_meet, the value is upper_asymptotic's (the bounds meet
    in the limit); otherwise PosMixZeroRho evaluates its dedicated
    expression and PosMixPosRho_XiLtHalf, on the open interval
    (d_th1_inf, d_th2_inf), the gapped one.  The lower cell of
    asymptotic_row, with its domain rule.
    """
    return asymptotic_row(regime, (L,), D)[0][0][1]


def asymptotic_gap(regime: AsymptoticRegime, D: float) -> float:
    """Limiting gap between the bounds as L -> infinity, in nats.

    Zero outside the open interval (d_th1_inf, d_th2_inf); inside it,

        (d_th1_inf - D)(d_th2_inf - D) / (2 (d_th0_inf - D)(D - d_min_inf))
        + 1/2 log[ gamma_y^2 / (xi^2 gamma_x^4)
                   * (d_th0_inf - D)(D - d_min_inf) ],

    which vanishes continuously at both endpoints.  The gap column of
    rows, which forms no bound for it.

    Raises DomainError unless the regime is PosMixPosRho_XiLtHalf (no
    other regime has a limiting gap interval), checked before D's range.
    The one element of gaps(regime, [D]).
    """
    return next(gaps(regime, (D,)))
