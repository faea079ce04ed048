"""Berger-Tung upper bound on the sum rate for the symmetric Gaussian model.

The achievable scheme adds i.i.d. Gaussian test noise Q with per-component
variance lambda_q to the observations and conveys V = Y + Q.  For a target
per-component distortion D, lambda_q is the unique positive root of the
balance equation

    lambda_x (1 - lambda_x / (lambda_y + lambda_q))
        + (L - 1) gamma_x (1 - gamma_x / (gamma_y + lambda_q)) = L D,

whose left side increases strictly from L * d_min (lambda_q -> 0) to
L * sigma_x^2 (lambda_q -> infinity).  The resulting sum rate in nats is

    Rbar(D) = 1/2 log(1 + lambda_y / lambda_q)
              + (L - 1)/2 log(1 + gamma_y / lambda_q).

The module solves the balance equation by a safeguarded Newton iteration
in ln lambda_q.  The solve's D-free constants (d_min, sigma_x^2, the
source weights, the bracket's denominator and the D-free part of the
quadratic's b) are formed once per spectrum by prepare.  solutions is the
pass over a grid of D: for each D it checks D, forms the slack pair,
solves for lambda_q and takes Rbar there, each written once, in its loop.
solve_lambda_q and upper_bound_rate are its one-element views; rate_of
turns any lambda_q into Rbar.  The iteration is seeded by the root of the
closed-form quadratic in lambda_q that the balance equation collapses to
(see solutions); asymptotics.correlation_form writes its b and c as
polynomials in L.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, PrecisionError
from .model import Spectrum, d_min, outside_interval, source_variance, source_weights

# Newton's method stops once its step in ln lambda_q is below this: the
# step after it would be below float64 resolution, so the stepped value is
# returned without another step.  The balance's next evaluation re-checks
# it at RESIDUAL_REL_TOL.
NEWTON_STEP_TOL = 1e-9
# Seeded by the quadratic's root, the iteration takes one or two
# evaluations; this cap only bounds the bisection fallback.
MAX_EVALUATIONS = 100
RESIDUAL_REL_TOL = 1e-10

# Relative rounding allowance of the bracket ends: a few ulps, and the
# factors that widen the lower and the upper end by it.
_BRACKET_ROUNDING = 8 * sys.float_info.epsilon
_WIDEN_LO, _WIDEN_HI = 1.0 - _BRACKET_ROUNDING, 1.0 + _BRACKET_ROUNDING
# The smallest normal float64: a smaller slack is subnormal.
_SMALLEST_NORMAL = sys.float_info.min

# Switch the quadratic root to its product form when the textbook numerator
# -b + sqrt(disc) loses more than ~8 digits to cancellation.
_CANCELLATION_GUARD = 1e-8


def distortion_of(spectrum: Spectrum, L: int, lambda_q: float) -> float:
    """Per-component distortion delivered by the test channel at lambda_q.

    Strictly increasing in lambda_q, from d_min at 0+ to sigma_x^2 at
    infinity.  This is also the closed-form MMSE identity the Monte-Carlo
    module verifies empirically.  Each direction's term
    x (1 - x / (y + q)) is written x ((z + q) / (y + q)), with y = x + z,
    which does not cancel as lambda_q -> 0.
    """
    s = spectrum
    return (s.lambda_x * ((s.lambda_z + lambda_q) / (s.lambda_y + lambda_q))
            + (L - 1) * s.gamma_x * ((s.gamma_z + lambda_q) / (s.gamma_y + lambda_q))) / L


def rate_of(spectrum: Spectrum, L: int, lambda_q: float) -> float:
    """Sum rate in nats at noise level lambda_q; PrecisionError if it overflows."""
    rate = (0.5 * math.log1p(spectrum.lambda_y / lambda_q)
            + (L - 1) * 0.5 * math.log1p(spectrum.gamma_y / lambda_q))
    if rate == math.inf:
        raise PrecisionError(f"rate at lambda_q = {lambda_q!r} overflows float64")
    return rate


class Prepared(NamedTuple):
    """The D-free constants of the lambda_q solve for one spectrum and L.

    d_min and sigma_x_sq are model.d_min's and model.source_variance's,
    c_lam and c_gam model.source_weights's and total their sum,
    L (sigma_x_sq - d_min); bracket_den is c_lam/lambda_y + c_gam/gamma_y,
    the lower bracket end's denominator; b_free is
    phi1 gamma_y + (L-1) phi2 lambda_y, the D-free part of the seed
    quadratic's b (see solutions), y_sum is gamma_y + lambda_y and y_max
    max(lambda_y, gamma_y).
    """

    spectrum: Spectrum
    L: int
    d_min: float
    sigma_x_sq: float
    total: float
    c_lam: float
    c_gam: float
    bracket_den: float
    b_free: float
    y_sum: float
    y_max: float


def prepare(spectrum: Spectrum, L: int) -> Prepared:
    """Form the lambda_q solve's constants once, for solutions at any D."""
    s = spectrum
    floor = d_min(s, L)
    c_lam, c_gam = source_weights(s, L)
    phi1 = s.lambda_x ** 2 / s.lambda_y
    phi2 = s.gamma_x ** 2 / s.gamma_y
    return Prepared(s, L, floor, source_variance(s, L), c_lam + c_gam, c_lam, c_gam,
                    c_lam / s.lambda_y + c_gam / s.gamma_y,
                    phi1 * s.gamma_y + (L - 1) * phi2 * s.lambda_y,
                    s.gamma_y + s.lambda_y, max(s.lambda_y, s.gamma_y))


def solutions(prepared: Prepared, grid):
    """(D, lambda_q, Rbar, L (D - d_min), L (sigma_x_sq - D)) for each D of grid.

    The pass over a grid, in its order: per D it checks D against the
    prepared (d_min, sigma_x_sq), forms the slack pair, solves for
    lambda_q and takes the rate there, on prepare's constants held in
    locals.  The pair is the one place a slack is formed: the smaller
    slack from D and its own end, the other as its complement to
    L (sigma_x_sq - d_min), so neither loses digits and the pair sums to
    it to its rounding (L d_min and L sigma_x_sq are rounded apart by up
    to eps L sigma_x^2, many ulps of a slack when d_min is near
    sigma_x^2); its error is the rounding of d_min or sigma_x^2, a few
    ulps of D.  The composite pieces of the converse take its first
    slack.

    lambda_q comes from Newton's method in u = ln lambda_q on whichever
    balance form is a sum of positive terms against the smaller slack.
    With c_lam = lambda_x^2 / lambda_y and c_gam = (L-1) gamma_x^2 / gamma_y,
    below the middle of (d_min, sigma_x^2) the form is
    L (D(lambda_q) - d_min) = c_lam q/(lambda_y + q) + c_gam q/(gamma_y + q),
    and above it L (sigma_x^2 - D(lambda_q))
    = lambda_x^2/(lambda_y + q) + (L-1) gamma_x^2/(gamma_y + q), so neither
    loses digits to cancellation.  The iteration starts from the positive
    root of the quadratic a x^2 + b x + c = 0 that multiplying the balance
    through by (lambda_y + x)(gamma_y + x) gives in x = lambda_q.  With
    phi1 = lambda_x^2 / lambda_y, phi2 = gamma_x^2 / gamma_y and the pair's
    phi3 = L (D - d_min), a = L (sigma_x^2 - D),
    b = phi1 gamma_y + (L-1) phi2 lambda_y - phi3 (gamma_y + lambda_y) and
    c = -phi3 lambda_y gamma_y; phi3 and a are the pair, not the sums that
    cancel in them.  The iteration stays inside

        (L (D - d_min)) / (lambda_x^2/lambda_y^2 + (L-1) gamma_x^2/gamma_y^2)
            <= lambda_q <= max(lambda_y, gamma_y) L (D - d_min) / (L (sigma_x^2 - D)),

    which every evaluation narrows; a step that would leave it bisects
    it in u instead.  The pair sums to
    lambda_x^2/lambda_y + (L-1) gamma_x^2/gamma_y = L (sigma_x^2 - d_min)
    as the two sides do, so the bracket bounds the solved form's root to
    its own rounding, and the seed is that form's root too.  The
    evaluation after the last step is the residual check.

    A generator: the rows before a failing D are yielded before its error
    is raised.  Errors are solve_lambda_q's.
    """
    s, L, floor, ceil, total, c_lam, c_gam, bracket_den, b_free, y_sum, y_max = prepared
    lam_y, gam_y = s.lambda_y, s.gamma_y
    log, exp, expm1, sqrt = math.log, math.exp, math.expm1, math.sqrt
    for D in grid:
        if not floor < D < ceil:
            raise outside_interval(D, floor, ceil)
        below_side, above_side = L * (D - floor), L * (ceil - D)
        if below_side <= above_side:
            above_side = total - below_side
        else:
            below_side = total - above_side
        if not (below_side > 0.0 and above_side > 0.0):
            raise PrecisionError(
                f"D = {D!r}: the interval (d_min, sigma_x_sq) = ({floor!r}, {ceil!r}) "
                "is too narrow to resolve")
        below = below_side <= above_side
        slack = below_side if below else above_side
        if slack < _SMALLEST_NORMAL:
            # The balance's terms would be subnormal too, with too few
            # digits for Newton's method to settle on.
            raise PrecisionError(
                f"D = {D!r}: the smaller slack "
                f"{'L (D - d_min)' if below else 'L (sigma_x_sq - D)'} = {slack!r} "
                "is subnormal")
        # The root sits on the upper end when lambda_y == gamma_y or when
        # only the direction with the larger y carries source (x = 0 on
        # the other); both ends are widened by their rounding so that it
        # stays inside.
        lo = below_side / bracket_den * _WIDEN_LO
        hi = y_max * (below_side / above_side) * _WIDEN_HI
        # The seed quadratic's (a, b, c) on this pair.
        lambda_q = quadratic_root(above_side, b_free - below_side * y_sum,
                                  -below_side * lam_y * gam_y)
        if not lo < lambda_q < hi:
            lambda_q = sqrt(lo) * sqrt(hi)
        settled = False
        for evaluation in range(1, MAX_EVALUATIONS + 2):
            # The balance at lambda_q: residual = ln(side / slack), then,
            # unless this evaluation is the residual check, the slope
            # d ln(side) / d ln lambda_q of a Newton step.
            q = lambda_q
            d_lam, d_gam = lam_y + q, gam_y + q
            q_lam, q_gam = q / d_lam, q / d_gam
            y_lam, y_gam = lam_y / d_lam, gam_y / d_gam
            if below:
                t_lam, t_gam = c_lam * q_lam, c_gam * q_gam
            else:
                t_lam, t_gam = c_lam * y_lam, c_gam * y_gam
            side = t_lam + t_gam
            residual = log(side / slack)
            if settled:
                break
            if below:
                slope = (t_lam * y_lam + t_gam * y_gam) / side
            else:
                slope = -(t_lam * q_lam + t_gam * q_gam) / side
            if (residual > 0.0) == (slope > 0.0):
                hi = lambda_q
            else:
                lo = lambda_q
            step = -residual / slope
            lambda_q *= exp(step)
            # The step after a settled one would be below float64
            # resolution: the stepped value stands.
            settled = abs(step) <= NEWTON_STEP_TOL
            if not settled:
                if not lo < lambda_q < hi:
                    lambda_q = sqrt(lo) * sqrt(hi)
                if evaluation == MAX_EVALUATIONS:
                    raise ConvergenceError(
                        f"Newton iteration on lambda_q did not settle in {MAX_EVALUATIONS} "
                        f"evaluations at D = {D!r}", best=lambda_q)

        # |D(lambda_q) - D| from the solved form's ratio to the slack,
        # which keeps its digits as lambda_q -> 0, where the difference
        # distortion_of(lambda_q) - D would cancel.
        residual = slack * abs(expm1(residual)) / L
        if residual > RESIDUAL_REL_TOL * D:
            if min(D - floor, ceil - D) <= 1e-13 * ceil:
                raise PrecisionError(
                    f"D = {D!r} too close to the interval boundary to resolve "
                    f"(residual {residual!r})"
                )
            raise ConvergenceError(
                f"lambda_q residual {residual!r} exceeds {RESIDUAL_REL_TOL} * D",
                best=lambda_q,
            )
        yield D, lambda_q, rate_of(s, L, lambda_q), below_side, above_side


def solve_lambda_q(spectrum: Spectrum, L: int, D: float) -> float:
    """Solve the balance equation for lambda_q at per-component distortion D.

    The lambda_q of solutions(prepare(spectrum, L), [D]); see solutions
    for the method.

    Parameters
    ----------
    spectrum : Spectrum
    L : int
    D : float
        Target distortion, strictly inside (d_min, sigma_x^2).

    Returns
    -------
    float
        The test-noise eigenvalue lambda_q.

    Raises
    ------
    DomainError
        If D lies outside the open interval (d_min, sigma_x^2).
    PrecisionError
        If D sits so close to an endpoint that the solution fails the
        residual check, the interval is too narrow for its slacks to be
        resolved, the smaller slack is subnormal, or the rate at the
        solution overflows float64.
    ConvergenceError
        If the iteration does not settle within MAX_EVALUATIONS, or its
        result fails the residual check (not expected for valid inputs).
    """
    return next(solutions(prepare(spectrum, L), (D,)))[1]


def upper_bound_rate(spectrum: Spectrum, L: int, D: float) -> float:
    """Upper bound Rbar(D) in nats; see solve_lambda_q for domain and errors."""
    return next(solutions(prepare(spectrum, L), (D,)))[2]


def quadratic_root(a: float, b: float, c: float) -> float:
    """Positive root of the lambda_q quadratic, cancellation-guarded.

    The relevant root is (-b + sqrt(b^2 - 4ac)) / (2a).  When -b and the
    square root nearly cancel (b > 0 with |4ac| << b^2) the equivalent
    product form 2c / (-b - sqrt(b^2 - 4ac)) is used instead.

    Raises
    ------
    DomainError
        If a <= 0, i.e. the distortion baked into the coefficients is not
        below sigma_x^2.
    """
    if a <= 0.0:
        raise DomainError(f"quadratic leading coefficient a = {a!r} not positive; "
                          "D must lie below sigma_x_sq")
    disc = b * b - 4.0 * a * c
    root = math.sqrt(max(disc, 0.0))
    num = -b + root
    if abs(num) < _CANCELLATION_GUARD * abs(b):
        return 2.0 * c / (-b - root)
    return num / (2.0 * a)
