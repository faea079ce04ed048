"""Numerical solver for the converse minimization program, with KKT certificates.

The lower bound comes from minimizing

    Omega(alpha, beta, delta) =
        1/2 log[ lambda_y^2 / ((lambda_y - lambda_w) alpha + lambda_y lambda_w) ]
      + (L-1)/2 log[ gamma_y^2 / ((gamma_y - lambda_w) beta + gamma_y lambda_w) ]
      + L/2 log(lambda_w / delta)

over 0 < alpha <= lambda_y, 0 < beta <= gamma_y, delta > 0, subject to the
two envelope constraints

    delta <= (1/alpha + 1/lambda_w - 1/lambda_y)^{-1},
    delta <= (1/beta  + 1/lambda_w - 1/gamma_y)^{-1},

and the distortion constraint

    lambda_x^2/lambda_y^2 alpha + lambda_x - lambda_x^2/lambda_y
      + (L-1)(gamma_x^2/gamma_y^2 beta + gamma_x - gamma_x^2/gamma_y) <= L D,

where lambda_w = min(lambda_y, gamma_y).

The solver works on `model.side_view`: the eigen-directions as (x, y, m)
triples, "big" for the larger y and "small" for the other, so lambda_w =
y_small.  The small side's log term is constant and its envelope pins
its variable to delta, leaving the big side's variable v (alpha when
lambda_y >= gamma_y, beta otherwise) and delta, which is optimal at
min(envelope, distortion cap).  Golden-section search on v gives the
point, certified through the five-condition KKT system (two stationarity
equations, three complementary-slackness products with nonnegative
multipliers).  Each function is written once in (big, small) for both
sides; only the box multiplier's slope in recover_multipliers keeps a
rule per side.

This module is deliberately independent of the closed-form lower bound: it
never consults the regime classification, so agreement between the two is
a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .model import Spectrum, check_distortion, side_view

INV_PHI = (math.sqrt(5) - 1) / 2  # 1 / phi

# Outer golden-section iterations.  The bracket shrinks by 1/phi per step,
# so 200 steps leave an interval ~4e-42 times the initial one; the limiting
# factor is float64 noise near the flat bottom, not the budget.
GSS_ITERS = 200

#: Default value tolerance requested from solve_program.
DEFAULT_TOL = 1e-9

# Residual level at which a KKT certificate is accepted as demonstrating
# optimality; beyond it solve_program raises ConvergenceError.
CERTIFICATE_TOL = 1e-6

# Relative slack when deciding which constraints are active during
# multiplier recovery.
_ACTIVE_TOL = 1e-7


@dataclass(frozen=True)
class ProgramPoint:
    """Decision variables (alpha, beta, delta) of the converse program."""

    alpha: float
    beta: float
    delta: float


@dataclass(frozen=True)
class KktCertificate:
    """Multipliers and residuals of the five-condition optimality system.

    stationarity_residual is the max absolute residual of the two
    stationarity equations of the reduced program; complementarity_residual
    the max absolute product multiplier * constraint-slack.  Both are ~0 at
    a true optimum with correctly recovered multipliers.
    """

    omega1: float
    omega2: float
    omega3: float
    stationarity_residual: float
    complementarity_residual: float


def omega_objective(p: ProgramPoint, spectrum: Spectrum, L: int) -> float:
    """Evaluate Omega at p in nats.

    Raises DomainError if any logarithm argument is nonpositive (p far
    outside the feasible box).
    """
    s = spectrum
    lw = s.lambda_w
    arg1 = (s.lambda_y - lw) * p.alpha + s.lambda_y * lw
    arg2 = (s.gamma_y - lw) * p.beta + s.gamma_y * lw
    if not arg1 > 0.0:
        raise DomainError(f"alpha log argument {arg1!r} is not positive")
    if not arg2 > 0.0:
        raise DomainError(f"beta log argument {arg2!r} is not positive")
    if not p.delta > 0.0:
        raise DomainError(f"delta = {p.delta!r} is not positive")
    return (0.5 * math.log(s.lambda_y ** 2 / arg1)
            + (L - 1) / 2.0 * math.log(s.gamma_y ** 2 / arg2)
            + L / 2.0 * math.log(lw / p.delta))


def distortion_constraint(p: ProgramPoint, spectrum: Spectrum, L: int) -> float:
    """Left side of the distortion constraint at p (compare against L D)."""
    s = spectrum
    return (s.lambda_x ** 2 / s.lambda_y ** 2 * p.alpha
            + s.lambda_x - s.lambda_x ** 2 / s.lambda_y
            + (L - 1) * (s.gamma_x ** 2 / s.gamma_y ** 2 * p.beta
                         + s.gamma_x - s.gamma_x ** 2 / s.gamma_y))


def _gss_min(fun, lo: float, hi: float, iters: int = GSS_ITERS):
    """Golden-section minimum of a unimodal fun on [lo, hi].

    Returns (value, argmin) over the four points still in hand at the end,
    so boundary minima are not lost.
    """
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = fun(d)
    candidates = [(fun(a), a), (fc, c), (fd, d), (fun(b), b)]
    return min(candidates, key=lambda t: t[0])


def _solve_reduced(spectrum: Spectrum, L: int, D: float) -> ProgramPoint:
    """Golden-section solve of the envelope-reduced program."""
    (xb, yb, mb), (xs, ys, ms), hatted = side_view(spectrum, L)
    base = mb * (xb - xb ** 2 / yb) + ms * (xs - xs ** 2 / ys)
    target = L * D

    def delta_star(v):
        env = 1.0 / (1.0 / v + 1.0 / ys - 1.0 / yb)
        slack = target - base - mb * xb ** 2 / yb ** 2 * v
        if xs > 0.0:
            cap = slack * ys ** 2 / (ms * xs ** 2)
        else:
            cap = math.inf if slack >= 0.0 else -1.0
        return min(env, cap)

    def g(v):
        ds = delta_star(v)
        if ds <= 0.0:
            return math.inf
        return (mb / 2.0 * math.log(yb ** 2 / ((yb - ys) * v + yb * ys))
                + L / 2.0 * math.log(ys / ds))

    hi = yb
    if xb > 0.0:
        v_sup = (target - base) * yb ** 2 / (mb * xb ** 2)
        hi = min(hi, v_sup * (1.0 - 1e-12))
    _, v_star = _gss_min(g, hi * 1e-30, hi)
    d_star = delta_star(v_star)
    if hatted:
        return ProgramPoint(d_star, v_star, d_star)
    return ProgramPoint(v_star, d_star, d_star)


def recover_multipliers(
    p: ProgramPoint, spectrum: Spectrum, L: int, D: float
) -> tuple[float, float, float]:
    """Recover (omega1, omega2, omega3) from the active set at p.

    Uses the stationarity equations of the reduced program on the side
    selected by the spectrum: whichever constraints are (numerically)
    active at p determine which multipliers may be nonzero, and the
    stationarity equations are then solved exactly for them.  At a true
    optimum the recovered multipliers are nonnegative and the remaining
    residuals vanish; kkt_check reports both.
    """
    (xb, yb, mb), (xs, ys, ms), hatted = side_view(spectrum, L)
    v = p.beta if hatted else p.alpha
    d = p.delta
    c = 1.0 / ys - 1.0 / yb
    env = 1.0 / (1.0 / v + c)
    if abs(d - env) <= _ACTIVE_TOL * env:
        w3 = ((L / (2.0 * d) / (1.0 + c * v) ** 2 + mb * c / 2.0 / (1.0 + c * v))
              / (mb * xb ** 2 / yb ** 2 + ms * xs ** 2 / ys ** 2 / (1.0 + c * v) ** 2))
        return 0.0, L / (2.0 * d) - ms * w3 * xs ** 2 / ys ** 2, w3
    w3 = L / (2.0 * d) * ys ** 2 / (ms * xs ** 2)
    if not abs(v - yb) <= _ACTIVE_TOL * yb:
        return 0.0, 0.0, w3
    # The box multiplier balances the free variable's log term, whose
    # slope is mb c / (2 (1 + c v)).  The gamma side reads it at v, the
    # lambda side at the bound v = y_big; the two agree to _ACTIVE_TOL and
    # differ only in the roundoff digits of the printed KKT residual.
    if hatted:
        slope = mb * c / (2.0 * (1.0 + c * v))
    else:
        slope = mb * (1.0 / yb - ys / yb ** 2) / 2.0
    return slope - w3 * mb * xb ** 2 / yb ** 2, 0.0, w3


def kkt_check(
    p: ProgramPoint,
    multipliers: tuple[float, float, float],
    spectrum: Spectrum,
    L: int,
    D: float,
) -> KktCertificate:
    """Residuals of the five-condition KKT system at p with given multipliers.

    Evaluates the reduced program on the spectrum's active side: the two
    stationarity equations (with respect to the free log variable and
    delta), and the three complementarity products for the box constraint,
    the envelope constraint (on delta), and the distortion constraint.  A
    point is certified optimal when both residuals are small and the
    multipliers are nonnegative.
    """
    (xb, yb, mb), (xs, ys, ms), hatted = side_view(spectrum, L)
    w1, w2, w3 = multipliers
    v = p.beta if hatted else p.alpha
    d = p.delta
    c = 1.0 / ys - 1.0 / yb
    env = 1.0 / (1.0 / v + c)
    sv = (mb * (ys - yb) / (2.0 * ((yb - ys) * v + yb * ys)) + w1
          - w2 / (1.0 + c * v) ** 2 + w3 * mb * xb ** 2 / yb ** 2)
    sd = -L / (2.0 * d) + w2 + ms * w3 * xs ** 2 / ys ** 2
    comp = max(abs(w1 * (v - yb)), abs(w2 * (d - env)),
               abs(w3 * (distortion_constraint(p, spectrum, L) - L * D)))
    return KktCertificate(w1, w2, w3, max(abs(sv), abs(sd)), comp)


def solve_program(
    spectrum: Spectrum, L: int, D: float, tol: float = DEFAULT_TOL
) -> tuple[ProgramPoint, float, KktCertificate]:
    """Minimize Omega subject to the converse constraints at distortion D.

    Parameters
    ----------
    spectrum, L : model
    D : float
        Per-component distortion, inside (d_min, sigma_x_sq).
    tol : float
        Requested value accuracy in nats.  The golden-section budget
        resolves far below 1e-9; values much below 1e-12 are not
        meaningful in float64 and are treated as 1e-12.

    Returns
    -------
    (point, value_nats, certificate)
        value_nats == omega_objective(point, spectrum, L); the certificate
        carries recovered multipliers and their residuals.

    Raises
    ------
    DomainError
        D outside the open interval (d_min, sigma_x_sq).
    ConvergenceError
        The final certificate residuals exceed CERTIFICATE_TOL (carries
        the best point found in .best).
    """
    check_distortion(spectrum, L, D)
    point = _solve_reduced(spectrum, L, D)
    value = omega_objective(point, spectrum, L)
    mult = recover_multipliers(point, spectrum, L, D)
    cert = kkt_check(point, mult, spectrum, L, D)
    residual = max(cert.stationarity_residual, cert.complementarity_residual,
                   -min(cert.omega1, cert.omega2, cert.omega3, 0.0))
    if residual > max(CERTIFICATE_TOL, tol):
        raise ConvergenceError(
            f"KKT residual {residual!r} exceeds certificate tolerance at "
            f"D = {D!r}", best=(point, value, cert))
    return point, value, cert
