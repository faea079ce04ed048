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
lambda_y >= gamma_y, beta otherwise) and delta = min(env(v), cap(v)):
with c = 1/y_small - 1/y_big, env(v) = v / (1 + c v) rises and the
distortion cap(v) = (s0 - a v) / b falls.  The objective is
(L - m_b)/2 ln(1 + c v) - L/2 ln v plus a constant on the envelope
branch, strictly decreasing, and convex on the cap branch.  So the
stationarity conditions (Boyd and Vandenberghe 2004, section 5.5.3) leave
three closed-form candidates: the crossing of env and cap, the cap
branch's stationary point m_b c (s0 - a v) = L a (1 + c v) when it lies
beyond the crossing, and the box end v = y_big.  Each is computed as v
and as u = y_big - v (delta as delta and as y_small - delta) without
cancellation, and the value uses the smaller of each pair, so a rate near
0 keeps its relative accuracy.  The five-condition KKT system (two
stationarity equations, three complementary-slackness products with
nonnegative multipliers) certifies the optimum.

This module is deliberately independent of the closed-form lower bound: it
never consults the regime classification, so agreement between the two is
a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, PrecisionError
from .model import Spectrum, check_distortion, side_view

# Largest relative residual (see KktCertificate) of a certified optimum;
# beyond it solve_program raises ConvergenceError.
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
    """Multipliers and relative residuals of the five-condition optimality system.

    stationarity_residual is the larger, over the two stationarity
    equations, of |sum of terms| / sum of |terms|; complementarity_residual
    the largest product (multiplier's term over the sum of |terms| of its
    equation) x (slack over the sum of the constraint's two sides), or a
    negative multiplier's share alone.  The terms of one equation share a
    unit, and scaling every variance by k scales each by 1/k, so the ratios
    are free of units, where absolute residuals scale like L/(2 delta).  A
    ratio is also what float64 resolves: a few units of roundoff at an
    exact optimum, whatever L and the units.
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


def _slack_pair(L: int, D: float, big: tuple, small: tuple) -> tuple[float, float]:
    """(L (D - d_min), L (sigma_x_sq - D)) of side_view's triples, each rounded once.

    The second is t0 = m_b x_b + m_s x_s - L D, the first
    m_b x_b^2 / y_b + m_s x_s^2 / y_s - t0.  Every float is an integer over
    2^k, so t0 is an integer over one power of two, and s0 one over a power
    of two times y_b's and y_s's numerators; Python's int / int division
    rounds each exact quotient once.
    """
    (xb, yb, mb), (xs, ys, ms) = big, small
    bn, bd = xb.as_integer_ratio()
    sn, sd = xs.as_integer_ratio()
    dn, dd = D.as_integer_ratio()
    pn, pd = yb.as_integer_ratio()
    qn, qd = ys.as_integer_ratio()
    # The exponents k of the denominators 2^k of x_b, x_s and D.
    eb, es, ed = bd.bit_length() - 1, sd.bit_length() - 1, dd.bit_length() - 1
    e = max(eb, es, ed)
    lin = (mb * bn << (e - eb)) + (ms * sn << (e - es)) - (L * dn << (e - ed))
    e2 = max(2 * eb, 2 * es, e)
    num = (((mb * bn * bn * pd) << (e2 - 2 * eb)) * qn
           + ((ms * sn * sn * qd) << (e2 - 2 * es)) * pn
           - (lin << (e2 - e)) * pn * qn)
    return num / ((pn * qn) << e2), lin / (1 << e)


def _solve_reduced(spectrum: Spectrum, L: int, D: float) -> tuple[float, ProgramPoint]:
    """Active-set solve of the envelope-reduced program: (value, point)."""
    big, small, hatted = side_view(spectrum, L)
    (xb, yb, mb), (xs, ys, ms) = big, small
    dy, a, b = yb - ys, mb * xb ** 2 / yb ** 2, ms * xs ** 2 / ys ** 2
    # Slacks exact but for one rounding: a v + b delta <= s0 = L (D - d_min)
    # and a u + b e >= t0 = L (sigma_x_sq - D), u = y_big - v, e = y_small - delta.
    s0, t0 = _slack_pair(L, D, big, small)
    if not (s0 > 0.0 and t0 > 0.0):
        raise PrecisionError(
            f"D = {D!r} is within rounding of an end of (d_min, sigma_x_sq): "
            f"L (D - d_min) = {s0!r}, L (sigma_x_sq - D) = {t0!r}")

    def candidate(v, u, d, e):
        lw = dy * v + yb * ys
        r1 = (-math.log1p(-dy * u / yb ** 2) if 2.0 * dy * u < yb ** 2
              else math.log(yb ** 2 / lw))
        r2 = -math.log1p(-e / ys) if 2.0 * e < ys else math.log(ys / d)
        point = ProgramPoint(d, v, d) if hatted else ProgramPoint(v, d, d)
        return mb / 2.0 * r1 + L / 2.0 * r2, point

    def on_envelope(v, u):
        lw = dy * v + yb * ys
        return candidate(v, u, v * yb * ys / lw, u * ys ** 2 / lw)

    if b == 0.0:
        # No cap on delta: v stops where a v = s0, delta on the envelope.
        return on_envelope(s0 / a, t0 / a)
    # The crossing: the positive root of a c v^2 + (a + b - c s0) v = s0,
    # and the smaller root of its quadratic in u, both in stable form.
    x, y, z = dy * t0, a * yb ** 2, b * ys ** 2
    root = math.sqrt((x - y) ** 2 + z * (2.0 * (x + y) + z))
    u_x = 2.0 * t0 * yb ** 2 / (x + y + z + root)
    qa, qb = a * dy, (a + b) * yb * ys - dy * s0
    r = math.sqrt(qb * qb + 4.0 * qa * s0 * yb * ys)
    v_x = 2.0 * s0 * yb * ys / (qb + r) if qb > 0.0 else (r - qb) / (2.0 * qa)
    options = [on_envelope(v_x, u_x)]
    w0 = b * ys - t0 if t0 < s0 else s0 - a * yb   # b cap(y_big)
    if w0 > 0.0:
        options.append(candidate(yb, 0.0, w0 / b, t0 / b))
    if qa > 0.0:
        k = qa * (mb + L)
        v_c = (mb * dy * s0 - L * a * yb * ys) / k
        u_c = (L * a * yb ** 2 - mb * dy * w0) / k
        if 0.0 < u_c < u_x:
            options.append(candidate(v_c, u_c, (s0 - a * v_c) / b, (t0 - a * u_c) / b))
    return min(options, key=lambda option: option[0])


def _reduced_at(p: ProgramPoint, spectrum: Spectrum, L: int) -> tuple:
    """(v, delta, y_big, env(v), env'(v), slope, a, b) of the reduced program at p.

    slope = m_b c / (2 (1 + c v)) is minus the v-derivative of the objective.
    """
    (xb, yb, mb), (xs, ys, ms), hatted = side_view(spectrum, L)
    v = p.beta if hatted else p.alpha
    lw = (yb - ys) * v + yb * ys          # y_big y_small (1 + c v)
    return (v, p.delta, yb, v * yb * ys / lw, (yb * ys / lw) ** 2,
            mb * (yb - ys) / (2.0 * lw), mb * xb ** 2 / yb ** 2, ms * xs ** 2 / ys ** 2)


def recover_multipliers(
    p: ProgramPoint, spectrum: Spectrum, L: int, D: float
) -> tuple[float, float, float]:
    """Recover (omega1, omega2, omega3) from the active set at p.

    The constraints active at p (to _ACTIVE_TOL) say which multipliers may
    be nonzero; the stationarity equations are solved exactly for them.
    """
    v, d, yb, env, de, slope, a, b = _reduced_at(p, spectrum, L)
    w2 = (L / (2.0 * d) * a - b * slope) / (a + b * de)
    # An envelope within _ACTIVE_TOL binds only if w2 >= 0 (box end near the top).
    if abs(d - env) <= _ACTIVE_TOL * env and w2 >= 0.0:
        return 0.0, w2, (L / (2.0 * d) * de + slope) / (a + b * de)
    w3 = L / (2.0 * d) / b
    if not abs(v - yb) <= _ACTIVE_TOL * yb:
        return 0.0, 0.0, w3
    return slope - w3 * a, 0.0, w3


def _share(term: float, scale: float) -> float:
    return abs(term) / scale if scale > 0.0 else 0.0


def kkt_check(
    p: ProgramPoint,
    multipliers: tuple[float, float, float],
    spectrum: Spectrum,
    L: int,
    D: float,
) -> KktCertificate:
    """Relative residuals of the five-condition KKT system at p with given multipliers.

    The stationarity equations in v and delta, and the complementarity
    products of the box, envelope and distortion constraints, each scaled
    as KktCertificate describes.
    """
    w1, w2, w3 = multipliers
    v, d, yb, env, de, slope, a, b = _reduced_at(p, spectrum, L)
    sv = (-slope, w1, -w2 * de, w3 * a)
    sd = (-L / (2.0 * d), w2, w3 * b)
    scale_v, scale_d = sum(map(abs, sv)), sum(map(abs, sd))
    lhs, rhs = distortion_constraint(p, spectrum, L), L * D
    comp = max(share if w < 0.0 else share * slack for w, share, slack in (
        (w1, _share(w1, scale_v), _share(v - yb, v + yb)),
        (w2, _share(w2, scale_d), _share(d - env, d + env)),
        (w3, max(_share(w3 * a, scale_v), _share(w3 * b, scale_d)),
         _share(lhs - rhs, lhs + rhs))))
    stat = max(_share(sum(sv), scale_v), _share(sum(sd), scale_d))
    return KktCertificate(w1, w2, w3, stat, comp)


def solve_program(
    spectrum: Spectrum, L: int, D: float
) -> tuple[ProgramPoint, float, KktCertificate]:
    """Minimize Omega subject to the converse constraints at distortion D.

    D is the per-component distortion.  The minimiser is the least-valued
    of the module docstring's three closed-form active-set candidates.

    Returns
    -------
    (point, value_nats, certificate)
        value_nats is Omega at point, from the distances to the zero-rate
        corner (it agrees with omega_objective(point, spectrum, L) to
        rounding); the certificate carries recovered multipliers and
        their relative residuals.

    Raises
    ------
    DomainError
        D outside the open interval (d_min, sigma_x_sq).
    PrecisionError
        D inside that interval only by rounding: an exact slack is <= 0.
    ConvergenceError
        A certificate residual exceeds CERTIFICATE_TOL (carries the point
        in .best).
    """
    check_distortion(spectrum, L, D)
    value, point = _solve_reduced(spectrum, L, D)
    mult = recover_multipliers(point, spectrum, L, D)
    cert = kkt_check(point, mult, spectrum, L, D)
    residual = max(cert.stationarity_residual, cert.complementarity_residual)
    if not residual <= CERTIFICATE_TOL:
        raise ConvergenceError(
            f"KKT residual {residual!r} exceeds certificate tolerance at "
            f"D = {D!r}", best=(point, value, cert))
    return point, value, cert
