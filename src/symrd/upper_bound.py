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

The module solves the balance equation by guarded bisection, exposes two
algebraically equivalent resolvent forms of the rate (used as cross-checks),
and builds, from the eigenvalues, the closed-form quadratic in lambda_q that
the balance equation collapses to.  asymptotics.correlation_form writes the
same quadratic's b and c as polynomials in L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, PrecisionError
from .model import Spectrum, check_distortion

# Bisection on lambda_q stops once the bracket's relative width is below
# this, or after the iteration cap; the solution is then re-checked against
# the balance equation at RESIDUAL_REL_TOL.
BISECTION_REL_TOL = 1e-13
BISECTION_MAX_ITERS = 200
RESIDUAL_REL_TOL = 1e-10

# Switch the quadratic root to its product form when the textbook numerator
# -b + sqrt(disc) loses more than ~8 digits to cancellation.
_CANCELLATION_GUARD = 1e-8


@dataclass(frozen=True)
class UpperBoundSolution:
    """Solved operating point of the test channel at one distortion target.

    lambda_q is the test-noise eigenvalue; rate_nats the sum rate; lambda_i
    and gamma_i are the post-channel information eigenvalues
    1/lambda_i = 1/lambda_y + 1/lambda_q (and likewise for gamma) that the
    alternative rate forms are written in.
    """

    lambda_q: float
    rate_nats: float
    lambda_i: float
    gamma_i: float


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Coefficients a x^2 + b x + c = 0 satisfied by lambda_q at distortion D."""

    a: float
    b: float
    c: float


def distortion_of(spectrum: Spectrum, L: int, lambda_q: float) -> float:
    """Per-component distortion delivered by the test channel at lambda_q.

    Strictly increasing in lambda_q, from d_min at 0+ to sigma_x^2 at
    infinity.  This is also the closed-form MMSE identity the Monte-Carlo
    module verifies empirically.
    """
    s = spectrum
    return (s.lambda_x * (1.0 - s.lambda_x / (s.lambda_y + lambda_q))
            + (L - 1) * s.gamma_x * (1.0 - s.gamma_x / (s.gamma_y + lambda_q))) / L


def rate_of(spectrum: Spectrum, L: int, lambda_q: float) -> float:
    """Sum rate in nats of the test channel at noise level lambda_q."""
    return (0.5 * math.log1p(spectrum.lambda_y / lambda_q)
            + (L - 1) * 0.5 * math.log1p(spectrum.gamma_y / lambda_q))


def solve_lambda_q(spectrum: Spectrum, L: int, D: float) -> UpperBoundSolution:
    """Solve the balance equation for lambda_q at per-component distortion D.

    Parameters
    ----------
    spectrum : Spectrum
    L : int
    D : float
        Target distortion, strictly inside (d_min, sigma_x^2).

    Returns
    -------
    UpperBoundSolution

    Raises
    ------
    DomainError
        If D lies outside the open interval (d_min, sigma_x^2).
    PrecisionError
        If D sits so close to an endpoint that no float64 bracket can
        separate it.
    ConvergenceError
        If bisection stalls without meeting the residual tolerance (not
        expected for valid inputs).
    """
    floor, ceil = check_distortion(spectrum, L, D)
    hi = max(spectrum.lambda_y, spectrum.gamma_y, 1.0)
    doublings = 0
    while distortion_of(spectrum, L, hi) <= D:
        hi *= 2.0
        doublings += 1
        if doublings > 300:
            raise PrecisionError(
                f"D = {D!r} is within rounding of sigma_x_sq = {ceil!r}; "
                "no finite bracket reaches it"
            )
    lo = 0.0
    mid = 0.5 * hi
    for _ in range(BISECTION_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        if distortion_of(spectrum, L, mid) < D:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECTION_REL_TOL * mid:
            break
    lambda_q = 0.5 * (lo + hi)

    residual = abs(distortion_of(spectrum, L, lambda_q) - D)
    if residual > RESIDUAL_REL_TOL * D:
        if min(D - floor, ceil - D) <= 1e-13 * ceil:
            raise PrecisionError(
                f"D = {D!r} too close to the interval boundary to resolve "
                f"(residual {residual!r})"
            )
        raise ConvergenceError(
            f"bisection residual {residual!r} exceeds {RESIDUAL_REL_TOL} * D",
            best=lambda_q,
        )

    lambda_i = 1.0 / (1.0 / spectrum.lambda_y + 1.0 / lambda_q)
    gamma_i = 1.0 / (1.0 / spectrum.gamma_y + 1.0 / lambda_q)
    return UpperBoundSolution(lambda_q, rate_of(spectrum, L, lambda_q),
                              lambda_i, gamma_i)


def upper_bound_rate(spectrum: Spectrum, L: int, D: float) -> float:
    """Upper bound Rbar(D) in nats; see solve_lambda_q for domain and errors."""
    return solve_lambda_q(spectrum, L, D).rate_nats


def rate_alternative_forms(
    solution: UpperBoundSolution, spectrum: Spectrum, L: int
) -> tuple[float, float]:
    """Evaluate the two resolvent forms of the rate at a solved point.

    The first writes the rate through lambda_i, the second through gamma_i:

        1/2 log(lambda_y / lambda_i)
            + (L-1)/2 log(1 + gamma_y (1/lambda_i - 1/lambda_y)),
        1/2 log(1 + lambda_y (1/gamma_i - 1/gamma_y))
            + (L-1)/2 log(gamma_y / gamma_i).

    Both agree with solution.rate_nats up to roundoff; they are exposed for
    cross-checking, not because either is preferred numerically.
    """
    s = spectrum
    via_lambda = (0.5 * math.log(s.lambda_y / solution.lambda_i)
                  + (L - 1) * 0.5 * math.log1p(
                      s.gamma_y * (1.0 / solution.lambda_i - 1.0 / s.lambda_y)))
    via_gamma = (0.5 * math.log1p(
                      s.lambda_y * (1.0 / solution.gamma_i - 1.0 / s.gamma_y))
                 + (L - 1) * 0.5 * math.log(s.gamma_y / solution.gamma_i))
    return via_lambda, via_gamma


def quadratic_coefficients(spectrum: Spectrum, L: int, D: float) -> QuadraticCoefficients:
    """Build the quadratic a x^2 + b x + c = 0 whose positive root is lambda_q.

    Multiplying the balance equation through by
    (lambda_y + x)(gamma_y + x) yields a quadratic in x = lambda_q.  With

        phi1 = lambda_x^2 / lambda_y,
        phi2 = gamma_x^2 / gamma_y,
        phi3 = L D + phi1 + (L-1) phi2 - (lambda_x + (L-1) gamma_x),

    its coefficients are a = lambda_x + (L-1) gamma_x - L D,
    b = phi1 gamma_y + (L-1) phi2 lambda_y - phi3 (gamma_y + lambda_y) and
    c = -phi3 lambda_y gamma_y.
    """
    s = spectrum
    phi1 = s.lambda_x ** 2 / s.lambda_y
    phi2 = s.gamma_x ** 2 / s.gamma_y
    trace_x = s.lambda_x + (L - 1) * s.gamma_x
    phi3 = L * D + phi1 + (L - 1) * phi2 - trace_x
    a = trace_x - L * D
    b = phi1 * s.gamma_y + (L - 1) * phi2 * s.lambda_y - phi3 * (s.gamma_y + s.lambda_y)
    c = -phi3 * s.lambda_y * s.gamma_y
    return QuadraticCoefficients(a, b, c)


def quadratic_root(coeffs: QuadraticCoefficients) -> float:
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
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if a <= 0.0:
        raise DomainError(f"quadratic leading coefficient a = {a!r} not positive; "
                          "D must lie below sigma_x_sq")
    disc = b * b - 4.0 * a * c
    root = math.sqrt(max(disc, 0.0))
    num = -b + root
    if abs(num) < _CANCELLATION_GUARD * abs(b):
        return 2.0 * c / (-b - root)
    return num / (2.0 * a)
