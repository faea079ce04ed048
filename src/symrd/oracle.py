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
lambda_y >= gamma_y, beta otherwise) and delta = min(env(v), cap(v)).
The distortion constraint reduces to a v + b delta <= s0, with
a = m_b x_b^2 / y_b^2, b = m_s x_s^2 / y_s^2 and s0 = L (D - d_min)
formed exactly and rounded once.  With c = 1/y_small - 1/y_big,
env(v) = v / (1 + c v) rises and the distortion cap(v) = (s0 - a v) / b
falls.  The objective is (L - m_b)/2 ln(1 + c v) - L/2 ln v plus a
constant on the envelope branch, strictly decreasing, and convex on the
cap branch.  So the stationarity conditions (Boyd and Vandenberghe 2004,
section 5.5.3) leave three closed-form candidates: the crossing of env
and cap, the cap branch's stationary point m_b c (s0 - a v) = L a (1 + c v)
when it lies beyond the crossing, and the box end v = y_big.  Each is
computed as v and as u = y_big - v (delta as delta and as
y_small - delta) without cancellation, and the value uses the smaller of
each pair, so a rate near 0 keeps its relative accuracy.  The
five-condition KKT system (two stationarity equations, three
complementary-slackness products with nonnegative multipliers) certifies
the optimum of the reduced program that was solved, with the same exact
s0 and no lambda or gamma term.

The program's D-free constants (the ends of (d_min, sigma_x_sq), the side
view's y values, products and coefficients, and the integer parts of the
slack pair) are formed once per spectrum by prepare.  solutions is the
pass over a grid of D: for each D it checks D, forms the exact slack
pair, builds the three candidates and certifies the winner, in its loop.
solve is its one-element view and solve_program is prepare and solve in
one call.  One helper recovers the multipliers from the active set at a
point (v, delta) and scores the KKT system there, so the certificate has
one path and is written once.

This module is deliberately independent of the closed-form lower bound: it
never consults the regime classification, and prepare forms its constants
itself rather than take upper_bound's or lower_bound's, so agreement
between the two is a genuine cross-check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, PrecisionError
from .model import Spectrum, d_min, outside_interval, side_view, source_variance

# Largest relative residual (see KktCertificate) of a certified optimum;
# beyond it solutions raises ConvergenceError.
CERTIFICATE_TOL = 1e-6

# Relative slack when deciding which constraints are active during
# multiplier recovery.
_ACTIVE_TOL = 1e-7


class ProgramPoint(NamedTuple):
    """Decision variables (alpha, beta, delta) of the converse program."""

    alpha: float
    beta: float
    delta: float


class KktCertificate(NamedTuple):
    """Multipliers and relative residuals of the five-condition optimality system.

    stationarity_residual is the larger, over the two stationarity
    equations, of |sum of terms| / sum of |terms|; complementarity_residual
    the largest product (multiplier's term over the sum of |terms| of its
    equation) x (slack over the sum of the constraint's two sides), or a
    negative multiplier's share alone.  The terms of one equation share a
    unit, and scaling every variance by k scales each by 1/k, so the ratios
    are free of units, where absolute residuals scale like L/(2 delta).  A
    ratio is also what float64 resolves: a few units of roundoff at an
    exact optimum, whatever L and the units.  The distortion constraint is
    the reduced a v + b delta <= s0, with the solve's exact s0: no lambda
    or gamma term enters.
    """

    omega1: float
    omega2: float
    omega3: float
    stationarity_residual: float
    complementarity_residual: float


def _slack_terms(big: tuple, small: tuple) -> tuple:
    """(lin, e1, sq, e2, pq): the D-free integer parts of _slack_pair.

    Every float is an integer over 2^k.  With x_b = bn / 2^eb,
    x_s = sn / 2^es, y_b = pn / pd and y_s = qn / qd of side_view's
    triples, pq = pn qn, e1 = max(eb, es) and e2 = 2 e1, the integers are
    lin = (m_b x_b + m_s x_s) 2^e1 and
    sq = (m_b x_b^2 / y_b + m_s x_s^2 / y_s) 2^e2 pq.
    """
    (xb, yb, mb), (xs, ys, ms) = big, small
    bn, bd = xb.as_integer_ratio()
    sn, sd = xs.as_integer_ratio()
    pn, pd = yb.as_integer_ratio()
    qn, qd = ys.as_integer_ratio()
    eb, es = bd.bit_length() - 1, sd.bit_length() - 1
    e1, e2 = max(eb, es), 2 * max(eb, es)
    lin = (mb * bn << (e1 - eb)) + (ms * sn << (e1 - es))
    sq = ((mb * bn * bn * pd * qn << (e2 - 2 * eb))
          + (ms * sn * sn * qd * pn << (e2 - 2 * es)))
    return lin, e1, sq, e2, pn * qn


def _slack_pair(L: int, D: float, terms: tuple) -> tuple[float, float]:
    """(L (D - d_min), L (sigma_x_sq - D)) from _slack_terms, each rounded once.

    The second is t0 = m_b x_b + m_s x_s - L D, the first
    m_b x_b^2 / y_b + m_s x_s^2 / y_s - t0.  With D an integer over 2^ed,
    t0 is an integer over one power of two, and s0 one over a power of two
    times pn qn; Python's int / int division rounds each exact quotient
    once.
    """
    lin, e1, sq, e2, pq = terms
    dn, dd = D.as_integer_ratio()
    ed = dd.bit_length() - 1
    e = ed if ed > e1 else e1
    lin = (lin << (e - e1)) - (L * dn << (e - ed))
    e3 = e if e > e2 else e2
    num = (sq << (e3 - e2)) - (lin << (e3 - e)) * pq
    return num / (pq << e3), lin / (1 << e)


class Program(NamedTuple):
    """The D-free constants of the converse program for one spectrum and L.

    d_min and sigma_x_sq bound the domain of D; hatted is model.side_view's
    orientation, yb, ys and mb its y_big, y_small and m_big, and yb2, ys2
    and ybys the products y_b^2, y_s^2 and y_b y_s; dy = y_big - y_small,
    a = m_b x_b^2 / y_b^2 and b = m_s x_s^2 / y_s^2 are the coefficients of
    the reduced distortion constraint a v + b delta <= s0, and slack_terms
    are _slack_terms's, from which _slack_pair forms the exact
    s0 = L (D - d_min) at each D.
    """

    L: int
    d_min: float
    sigma_x_sq: float
    hatted: bool
    yb: float
    ys: float
    mb: int
    dy: float
    a: float
    b: float
    yb2: float
    ys2: float
    ybys: float
    slack_terms: tuple


def prepare(spectrum: Spectrum, L: int) -> Program:
    """Form the program's D-free constants once, for solutions at any D.

    Like the rest of the module, it never consults the closed-form lower
    bound or its regime classification.
    """
    s = spectrum
    big, small, hatted = side_view(s, L)
    (xb, yb, mb), (xs, ys, ms) = big, small
    return Program(L, d_min(s, L), source_variance(s, L), hatted,
                   yb, ys, mb, yb - ys, mb * xb ** 2 / yb ** 2, ms * xs ** 2 / ys ** 2,
                   yb ** 2, ys ** 2, yb * ys, _slack_terms(big, small))


def solutions(program: Program, grid):
    """(D, value, v, delta, certificate) for each D of grid: the oracle's pass.

    The pass over a grid, in its order, on prepare's constants held in
    locals: per D it checks D against (d_min, sigma_x_sq), forms
    _slack_pair's exact pair, builds the module docstring's three
    closed-form candidates and keeps the least-valued, and scores it with
    _kkt.  v is the big side's variable and delta the small side's (see
    solve for the ProgramPoint).  A generator: the rows before a failing D
    are yielded before its error is raised.  Errors are solve_program's.
    """
    L, floor, ceil, hatted, yb, ys, mb, dy, a, b, yb2, ys2, ybys, slack_terms = program
    log, log1p, sqrt = math.log, math.log1p, math.sqrt
    half_mb, half_L = mb / 2.0, L / 2.0
    # The D-free parts of the crossing, the box end and the stationary
    # point, each with its operands in the order the expression is written.
    y, z = a * yb2, b * ys2
    qa = a * dy
    qa2, qa4, qb_free = 2.0 * qa, 4.0 * qa, (a + b) * yb * ys
    b_ys, a_yb = b * ys, a * yb
    k, mb_dy = qa * (mb + L), mb * dy
    la_ybys, la_yb2 = L * a * yb * ys, L * a * yb2

    def value_at(v, u, d, e):
        # Each log is taken from the smaller of its two distances, without
        # cancellation.
        r1 = (-log1p(-dy * u / yb2) if 2.0 * dy * u < yb2
              else log(yb2 / (dy * v + ybys)))
        r2 = -log1p(-e / ys) if 2.0 * e < ys else log(ys / d)
        return half_mb * r1 + half_L * r2

    for D in grid:
        if not floor < D < ceil:
            raise outside_interval(D, floor, ceil)
        # Slacks exact but for one rounding: a v + b delta <= s0 = L (D - d_min)
        # and a u + b e >= t0 = L (sigma_x_sq - D), u = y_big - v, e = y_small - delta.
        s0, t0 = _slack_pair(L, D, slack_terms)
        if not (s0 > 0.0 and t0 > 0.0):
            raise PrecisionError(
                f"D = {D!r} is within rounding of an end of (d_min, sigma_x_sq): "
                f"L (D - d_min) = {s0!r}, L (sigma_x_sq - D) = {t0!r}")
        if b == 0.0:
            # No cap on delta: v stops where a v = s0, delta on the envelope.
            v_x, u_x = s0 / a, t0 / a
        else:
            # The crossing: the positive root of a c v^2 + (a + b - c s0) v = s0,
            # and the smaller root of its quadratic in u, both in stable form.
            x = dy * t0
            root = sqrt((x - y) ** 2 + z * (2.0 * (x + y) + z))
            u_x = 2.0 * t0 * yb2 / (x + y + z + root)
            qb = qb_free - dy * s0
            r = sqrt(qb * qb + qa4 * s0 * yb * ys)
            v_x = 2.0 * s0 * yb * ys / (qb + r) if qb > 0.0 else (r - qb) / qa2
        # The candidates (v, u, delta, e) in order, the first on the
        # envelope: delta = v y_b y_s / lw and e = u y_s^2 / lw,
        # lw = y_b y_s (1 + c v).  The least value wins; on a tie the
        # earlier candidate does.
        lw = dy * v_x + ybys
        v, d = v_x, v_x * yb * ys / lw
        value = value_at(v, u_x, d, u_x * ys2 / lw)
        if b != 0.0:
            w0 = b_ys - t0 if t0 < s0 else s0 - a_yb   # b cap(y_big)
            if w0 > 0.0:
                d_box = w0 / b
                box = value_at(yb, 0.0, d_box, t0 / b)
                if box < value:
                    value, v, d = box, yb, d_box
            if qa > 0.0:
                v_c = (mb_dy * s0 - la_ybys) / k
                u_c = (la_yb2 - mb_dy * w0) / k
                if 0.0 < u_c < u_x:
                    d_c = (s0 - a * v_c) / b
                    stationary = value_at(v_c, u_c, d_c, (t0 - a * u_c) / b)
                    if stationary < value:
                        value, v, d = stationary, v_c, d_c
        cert = _kkt(program, v, d, s0)
        _, _, _, stat, comp = cert
        residual = comp if comp > stat else stat
        if not residual <= CERTIFICATE_TOL:
            raise ConvergenceError(
                f"KKT residual {residual!r} exceeds certificate tolerance at "
                f"D = {D!r}", best=(_point(hatted, v, d), value, cert))
        yield D, value, v, d, cert


def _kkt(program: Program, v: float, d: float, s0: float) -> KktCertificate:
    """The KKT certificate of the reduced program at (v, delta) and exact slack s0.

    The constraints active at (v, delta) (to _ACTIVE_TOL) say which
    multipliers may be nonzero, and the stationarity equations are solved
    exactly for them; the small side's variable is delta, where its
    envelope pins it.  Raises DomainError where they have no solution:
    off the envelope when the small side carries no source.  Each
    largest-of is a comparison that keeps builtin max's choice (the
    first of equals, and a NaN first stays).
    """
    L, _, _, _, yb, ys, mb, dy, a, b, _, _, ybys, _ = program
    lw = dy * v + ybys                    # y_big y_small (1 + c v)
    env, de = v * yb * ys / lw, (ybys / lw) ** 2
    slope = mb * dy / (2.0 * lw)          # minus the objective's v-derivative
    half = L / (2.0 * d)
    off_env, off_box = abs(d - env), abs(v - yb)
    w1, w2 = 0.0, (half * a - b * slope) / (a + b * de)
    # An envelope within _ACTIVE_TOL binds only if w2 >= 0 (box end near the top).
    if off_env <= _ACTIVE_TOL * env and w2 >= 0.0:
        w3 = (half * de + slope) / (a + b * de)
    elif b == 0.0:
        # The delta equation reads L / (2 delta) = omega2, and the
        # envelope is slack, so omega2 = 0.
        raise DomainError(
            f"no multipliers exist at delta = {d!r}: the small side carries "
            "no source (b = 0) and the envelope is not active")
    else:
        w2, w3 = 0.0, half / b
        if off_box <= _ACTIVE_TOL * yb:
            w1 = slope - w3 * a
    # The terms of the stationarity equations in v (-slope, w1, v3, v4)
    # and in delta (-half, w2, d3).
    v3, v4, d3 = -w2 * de, w3 * a, w3 * b
    abs_w1, abs_w2, abs_v4, abs_d3 = abs(w1), abs(w2), abs(v4), abs(d3)
    scale_v = abs(slope) + abs_w1 + abs(v3) + abs_v4
    scale_d = abs(half) + abs_w2 + abs_d3
    lhs = a * v + b * d
    if scale_v > 0.0:
        share1, share3 = abs_w1 / scale_v, abs_v4 / scale_v
        stat = abs(-slope + w1 + v3 + v4) / scale_v
    else:
        share1 = share3 = stat = 0.0
    if scale_d > 0.0:
        share2, share_d = abs_w2 / scale_d, abs_d3 / scale_d
        stat_d = abs(-half + w2 + d3) / scale_d
    else:
        share2 = share_d = stat_d = 0.0
    if share_d > share3:
        share3 = share_d
    if stat_d > stat:
        stat = stat_d
    # Complementary slackness: a negative multiplier's share alone, else
    # its share times the constraint's slack over the sum of its sides.
    comp = share1 if w1 < 0.0 else share1 * (off_box / t if (t := v + yb) > 0.0 else 0.0)
    c = share2 if w2 < 0.0 else share2 * (off_env / t if (t := d + env) > 0.0 else 0.0)
    if c > comp:
        comp = c
    c = share3 if w3 < 0.0 else share3 * (abs(lhs - s0) / t if (t := lhs + s0) > 0.0 else 0.0)
    if c > comp:
        comp = c
    return KktCertificate(w1, w2, w3, stat, comp)


def _point(hatted: bool, v: float, d: float) -> ProgramPoint:
    """The ProgramPoint of the big side's v and the small side's delta."""
    return ProgramPoint(d, v, d) if hatted else ProgramPoint(v, d, d)


def solve(program: Program, D: float) -> tuple[ProgramPoint, float, KktCertificate]:
    """solve_program at D from prepare's constants: the one row of solutions(program, [D])."""
    _, value, v, d, cert = next(solutions(program, (D,)))
    return _point(program.hatted, v, d), value, cert


def solve_program(
    spectrum: Spectrum, L: int, D: float
) -> tuple[ProgramPoint, float, KktCertificate]:
    """Minimize Omega subject to the converse constraints at distortion D.

    D is the per-component distortion.  The minimiser is the least-valued
    of the module docstring's three closed-form active-set candidates.
    prepare(spectrum, L) followed by solve at D: the one row of the
    oracle's pass, solutions.

    Returns
    -------
    (point, value_nats, certificate)
        value_nats is Omega at point, from the distances to the zero-rate
        corner (it agrees with Omega evaluated at point to rounding);
        the certificate carries recovered multipliers and their relative
        residuals.

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
    return solve(prepare(spectrum, L), D)
