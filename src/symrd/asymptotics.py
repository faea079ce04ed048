"""Large-L limit expressions for both bounds and their gap.

For nonnegative correlations the bounds admit L -> infinity expansions
organized around the mixture scale

    mix = rho_x sigma_x^2 + rho_z sigma_z^2

and, when mix > 0 and rho_x < 1, the contrast parameter

    xi = (rho_x / (1 - rho_x)) * ((1 - rho_y) / rho_y),

together with the limit distortions

    d_min_inf  = rho_x rho_z sigma_x^2 sigma_z^2 / mix + gamma_x gamma_z / gamma_y,
    d_th0_inf  = rho_x rho_z sigma_x^2 sigma_z^2 / mix + gamma_x,
    d_th{1,2}_inf = d_th0_inf - (1 ± sqrt(1 - 4 xi^2)) / 2 * gamma_x^2 / gamma_y
                     (defined when xi < 1/2; + for d_th1).

Every evaluator here drops the remainder term of its expansion: the upper
bound's three pieces carry O(1/L) errors except exactly at d_th0_inf where
the error is O(1/sqrt(L)); the mix = 0 expression is exact for every L.
The constant term of the d_th0_inf piece is assembled from the expansion
coefficients alpha_1, alpha_2 (see expansion_coefficients) as
-gamma_y (gamma_y + 2 alpha_2) / (4 alpha_1^2); this is the form consistent
with the expansion itself and with the numerically observed limit.

Correlations outside [0, 1], and the xi-degenerate points rho_x = 1 and
rho_y = 0 (with mix > 0 the latter cannot occur), are rejected: the finite-L
modules remain the authority there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .model import SourceSpec, validate_spec
from .upper_bound import correlation_form

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
    """Regime condition plus the limit quantities it makes meaningful.

    xi is None only for ZeroMix (where it is never needed); d_th1_inf and
    d_th2_inf are populated only for PosMixPosRho_XiLtHalf, the regime in
    which a limiting gap interval exists.
    """

    condition: Condition
    xi: float | None
    d_min_inf: float
    d_th0_inf: float | None
    d_th1_inf: float | None
    d_th2_inf: float | None


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Leading coefficients of the test-noise level's large-L expansion.

    Below d_th0_inf the solved noise level behaves as eta1 + eta2/L + ...;
    exactly at d_th0_inf as alpha1 sqrt(L) + alpha2 + ...; above it as
    beta1 L + ... .  Fields whose defining formula is singular at the given
    D (eta's need g1 != 0; alpha's need -h1/(sigma_x^2 - D) > 0) are None.
    """

    eta1: float | None
    eta2: float | None
    alpha1: float | None
    alpha2: float | None
    beta1: float | None


def _gammas(spec: SourceSpec) -> tuple[float, float, float]:
    gx = (1.0 - spec.rho_x) * spec.sigma_x_sq
    gz = (1.0 - spec.rho_z) * spec.sigma_z_sq
    return gx, gz, gx + gz


def _check_nonneg_correlations(spec: SourceSpec) -> None:
    validate_spec(spec)
    if spec.rho_x < 0.0 or spec.rho_z < 0.0 or spec.rho_x > 1.0 or spec.rho_z > 1.0:
        raise DomainError(
            f"asymptotic expressions require rho_x, rho_z in [0, 1], got "
            f"rho_x = {spec.rho_x!r}, rho_z = {spec.rho_z!r}; use the "
            "finite-L bound modules for negative correlations"
        )


def asymptotic_regime(spec: SourceSpec) -> AsymptoticRegime:
    """Classify the large-L regime and compute its limit distortions.

    Raises
    ------
    DomainError
        If a correlation is outside [0, 1], or rho_x = 1 with a positive
        mixture (xi is undefined there and no limit is assigned).
    """
    _check_nonneg_correlations(spec)
    sx2, sz2 = spec.sigma_x_sq, spec.sigma_z_sq
    rx, rz = spec.rho_x, spec.rho_z
    gx, gz, gy = _gammas(spec)
    mix = rx * sx2 + rz * sz2
    if mix == 0.0:
        return AsymptoticRegime(Condition.ZeroMix, None,
                                sx2 * sz2 / (sx2 + sz2), None, None, None)
    if rx == 1.0:
        raise DomainError(
            "rho_x = 1 leaves the contrast parameter xi undefined; no "
            "large-L limit is assigned"
        )
    common = rx * rz * sx2 * sz2 / mix
    d_min_inf = common + gx * gz / gy
    d_th0_inf = common + gx
    xi = (rx / (1.0 - rx)) * ((1.0 - spec.rho_y) / spec.rho_y)
    if rx == 0.0:
        return AsymptoticRegime(Condition.PosMixZeroRho, xi,
                                d_min_inf, d_th0_inf, None, None)
    if xi >= 0.5:
        return AsymptoticRegime(Condition.PosMixPosRho_XiGeHalf, xi,
                                d_min_inf, d_th0_inf, None, None)
    root = math.sqrt(1.0 - 4.0 * xi ** 2)
    d_th1 = d_th0_inf - (1.0 + root) / 2.0 * gx ** 2 / gy
    d_th2 = d_th0_inf - (1.0 - root) / 2.0 * gx ** 2 / gy
    return AsymptoticRegime(Condition.PosMixPosRho_XiLtHalf, xi,
                            d_min_inf, d_th0_inf, d_th1, d_th2)


def expansion_coefficients(spec: SourceSpec, D: float) -> ExpansionCoefficients:
    """Coefficients of the solved noise level's expansion at distortion D.

    Built from the correlation-form quadratic coefficients g1, g2, h1, h2:

        eta1  = -h1 / g1,
        eta2  = -(h2/g1 - g2 h1/g1^2 + (sigma_x^2 - D) h1^2/g1^3),
        alpha1 = sqrt(-h1 / (sigma_x^2 - D)),
        alpha2 = -g2 / (2 (sigma_x^2 - D)),
        beta1 = -g1 / (sigma_x^2 - D).

    g1 vanishes exactly at D = d_th0_inf, where the eta fields give way to
    the alpha fields.  Requires D < sigma_x^2.
    """
    _check_nonneg_correlations(spec)
    sx2 = spec.sigma_x_sq
    gx, gz, gy = _gammas(spec)
    if not D < sx2:
        raise DomainError(f"expansion requires D < sigma_x_sq, got D = {D!r}")
    g1, g2, h1, h2 = correlation_form(spec, gx, gz, gy, D)
    eta1 = eta2 = alpha1 = alpha2 = None
    if g1 != 0.0:
        eta1 = -h1 / g1
        eta2 = -(h2 / g1 - g2 * h1 / g1 ** 2 + (sx2 - D) * h1 ** 2 / g1 ** 3)
    ratio = -h1 / (sx2 - D)
    if ratio > 0.0:
        alpha1 = math.sqrt(ratio)
        alpha2 = -g2 / (2.0 * (sx2 - D))
    return ExpansionCoefficients(eta1, eta2, alpha1, alpha2, -g1 / (sx2 - D))


# --- the individual limit expressions ----------------------------------------

def _rbar_inf_zero_mix(spec: SourceSpec, L: int, D: float) -> float:
    sx2, sz2 = spec.sigma_x_sq, spec.sigma_z_sq
    return L / 2.0 * math.log(sx2 ** 2 / ((sx2 + sz2) * D - sx2 * sz2))


def _rbar1_inf(spec: SourceSpec, L: int, D: float, reg: AsymptoticRegime) -> float:
    gx, gz, gy = _gammas(spec)
    mix = spec.rho_x * spec.sigma_x_sq + spec.rho_z * spec.sigma_z_sq
    return (L / 2.0 * math.log(gx ** 2 / gy / (D - reg.d_min_inf))
            + 0.5 * math.log(L)
            + 0.5 * math.log(mix * (reg.d_th0_inf - D) / gx ** 2)
            + (reg.d_th0_inf - reg.xi * gx ** 2 / gy - D) ** 2
            / (2.0 * (reg.d_th0_inf - D) * (D - reg.d_min_inf)))


def _rbar2_inf(spec: SourceSpec, L: int, reg: AsymptoticRegime) -> float:
    gx, gz, gy = _gammas(spec)
    coeff = expansion_coefficients(spec, reg.d_th0_inf)
    a1, a2 = coeff.alpha1, coeff.alpha2
    return (reg.xi / 2.0 * math.sqrt(L) + 0.25 * math.log(L)
            + 0.5 * math.log(spec.rho_x / (1.0 - spec.rho_x))
            - gy * (gy + 2.0 * a2) / (4.0 * a1 ** 2))


def _rbar3_inf(spec: SourceSpec, D: float, reg: AsymptoticRegime) -> float:
    sx2 = spec.sigma_x_sq
    mix = spec.rho_x * sx2 + spec.rho_z * spec.sigma_z_sq
    ry = spec.rho_y
    return (0.5 * math.log(spec.rho_x ** 2 * sx2 ** 2 / (mix * (D - reg.d_th0_inf)))
            + (1.0 - ry) * (sx2 - D) / (2.0 * ry * (D - reg.d_th0_inf)))


def _r1_inf(spec: SourceSpec, L: int, D: float, reg: AsymptoticRegime) -> float:
    gx, gz, gy = _gammas(spec)
    rx, ry = spec.rho_x, spec.rho_y
    return ((L + 1) / 2.0 * math.log(gx ** 2 / gy / (D - reg.d_min_inf))
            + 0.5 * math.log(L)
            + 0.5 * (1.0 - 2.0 * reg.xi) * gx ** 2 / gy / (D - reg.d_min_inf)
            + 0.5 * math.log(rx ** 2 * (1.0 - ry) / ((1.0 - rx) ** 2 * ry)))


def _r2_inf(spec: SourceSpec, L: int, D: float) -> float:
    sx2 = spec.sigma_x_sq
    gx, gz, gy = _gammas(spec)
    return (L / 2.0 * math.log(sx2 ** 2 / (gy * D - sx2 * gz))
            - 0.5 * (D - sx2) / (D - sx2 + sx2 ** 2 / gy))


def _check_d_range(reg: AsymptoticRegime, spec: SourceSpec, D: float) -> None:
    if not (reg.d_min_inf < D < spec.sigma_x_sq):
        raise DomainError(
            f"D = {D!r} outside the limiting interval (d_min_inf, sigma_x_sq) "
            f"= ({reg.d_min_inf!r}, {spec.sigma_x_sq!r})"
        )


def _at_th0(reg: AsymptoticRegime, spec: SourceSpec, D: float) -> bool:
    # The sqrt(L) clause exists only when the crossing is interior, which
    # needs rho_x > 0 (otherwise d_th0_inf = sigma_x_sq, the domain edge).
    return (spec.rho_x > 0.0
            and abs(D - reg.d_th0_inf) <= D_TH0_WINDOW * spec.sigma_x_sq)


def upper_asymptotic(spec: SourceSpec, L: int, D: float) -> float:
    """Large-L approximation of the upper bound at (L, D), in nats.

    ZeroMix specs evaluate the exact expression (no remainder at any L).
    Otherwise the piece is selected by D against d_th0_inf: below it the
    error versus the exact bound is O(1/L), at it (within a relative
    1e-12 window) O(1/sqrt(L)), above it O(1/L).

    Raises DomainError for out-of-regime correlations or D outside
    (d_min_inf, sigma_x_sq).
    """
    reg = asymptotic_regime(spec)
    _check_d_range(reg, spec, D)
    if reg.condition is Condition.ZeroMix:
        return _rbar_inf_zero_mix(spec, L, D)
    if _at_th0(reg, spec, D):
        return _rbar2_inf(spec, L, reg)
    if D < reg.d_th0_inf:
        return _rbar1_inf(spec, L, D, reg)
    return _rbar3_inf(spec, D, reg)


def lower_asymptotic(spec: SourceSpec, L: int, D: float) -> float:
    """Large-L approximation of the lower bound at (L, D), in nats.

    Clause structure by regime: ZeroMix and PosMixPosRho_XiGeHalf coincide
    with upper_asymptotic (the bounds meet in the limit); PosMixZeroRho
    evaluates its dedicated expression; PosMixPosRho_XiLtHalf differs from
    the upper bound exactly on the open interval (d_th1_inf, d_th2_inf),
    where the gapped expression applies.

    Same domain rules as upper_asymptotic.
    """
    reg = asymptotic_regime(spec)
    _check_d_range(reg, spec, D)
    if reg.condition is Condition.ZeroMix:
        return _rbar_inf_zero_mix(spec, L, D)
    if reg.condition is Condition.PosMixZeroRho:
        return _r2_inf(spec, L, D)
    if reg.condition is Condition.PosMixPosRho_XiGeHalf:
        return upper_asymptotic(spec, L, D)
    if reg.d_th1_inf < D < reg.d_th2_inf:
        return _r1_inf(spec, L, D, reg)
    return upper_asymptotic(spec, L, D)


def asymptotic_gap(spec: SourceSpec, D: float) -> float:
    """Limiting gap between the bounds as L -> infinity, in nats.

    Zero outside the open interval (d_th1_inf, d_th2_inf); inside it,

        (d_th1_inf - D)(d_th2_inf - D) / (2 (d_th0_inf - D)(D - d_min_inf))
        + 1/2 log[ gamma_y^2 / (xi^2 gamma_x^4)
                   * (d_th0_inf - D)(D - d_min_inf) ],

    which vanishes continuously at both endpoints.

    Raises DomainError unless the regime is PosMixPosRho_XiLtHalf (no
    other regime has a limiting gap interval) or if D is out of range.
    """
    reg = asymptotic_regime(spec)
    if reg.condition is not Condition.PosMixPosRho_XiLtHalf:
        raise DomainError(
            f"asymptotic gap is defined only in the "
            f"PosMixPosRho_XiLtHalf regime, not {reg.condition.value}"
        )
    _check_d_range(reg, spec, D)
    if D <= reg.d_th1_inf or D >= reg.d_th2_inf:
        return 0.0
    gx, gz, gy = _gammas(spec)
    return ((reg.d_th1_inf - D) * (reg.d_th2_inf - D)
            / (2.0 * (reg.d_th0_inf - D) * (D - reg.d_min_inf))
            + 0.5 * math.log(gy ** 2 / (reg.xi ** 2 * gx ** 4)
                             * (reg.d_th0_inf - D) * (D - reg.d_min_inf)))
