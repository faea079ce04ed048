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

Multiplied through by (lambda_y + q)(gamma_y + q), the balance equation
is the quadratic t0 q^2 + (t0 (lambda_y + gamma_y) - P) q
+ (t0 lambda_y gamma_y - Q) = 0 in q = lambda_q, with
t0 = lambda_x + (L - 1) gamma_x - L D = L (sigma_x^2 - D),
P = lambda_x^2 + (L - 1) gamma_x^2 and
Q = lambda_x^2 gamma_y + (L - 1) gamma_x^2 lambda_y.  Its positive root
is well conditioned in each coefficient; only forming the coefficients
in floats cancels.  So they are formed exactly, in integers, from the
spectrum's exact eigenvalues (Spectrum.exact) and D, each rounded once,
and the root is taken in its stable form (quadratic_root): no iteration.
prepare fixes once per spectrum the D-free integers, the unit 2^-E that
counts every D above d_min as an integer, and the coefficients'
divisors; solutions is the pass over a grid of D, one shift of D's
numerator and one formation a row, then the root and Rbar.
solve_lambda_q and upper_bound_rate are its one-element views; rate_of
turns any lambda_q into Rbar.  asymptotics.correlation_form writes the
quadratic's b and c as polynomials in L.
"""

from __future__ import annotations

import math
import sys
from decimal import Context, Decimal
from typing import NamedTuple

from .errors import DomainError, PrecisionError
from .model import Spectrum, d_min, outside_interval, source_variance, unit_exponent

# The smallest normal float64: lambda_q and its scaled root must reach it
# to carry full precision.
_SMALLEST_NORMAL = sys.float_info.min


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
    ly, gy = spectrum.lambda_y, spectrum.gamma_y
    rate = 0.5 * math.log1p(ly / lambda_q) + (L - 1) * 0.5 * math.log1p(gy / lambda_q)
    if rate == math.inf:
        # y / lambda_q overflows: log1p(y / q) = log(y) - log(q) + log1p(q / y)
        lq = math.log(lambda_q)
        rate = (0.5 * (math.log(ly) - lq + math.log1p(lambda_q / ly))
                + (L - 1) * 0.5 * (math.log(gy) - lq + math.log1p(lambda_q / gy)))
    if rate == math.inf:
        raise PrecisionError(f"rate at lambda_q = {lambda_q!r} overflows float64")
    return rate


class Prepared(NamedTuple):
    """The D-free constants of the lambda_q solve for one spectrum and L.

    d_min and sigma_x_sq are model.d_min's and model.source_variance's,
    the float ends of the interval that D is checked against.  Every D
    above d_min is an integer over 2^E (model.unit_exponent, E >= e and
    E >= e - w), and Spectrum.exact's over 2^e: X = lambda_x + (L-1) gamma_x,
    S = lambda_y + gamma_y, Y2 = lambda_y gamma_y and the P and Q of the
    module docstring are in units of 2^-E, 2^-e, 2^-2e, 2^-(E+e) and
    2^-(E+2e).  The root is taken in v = lambda_q / 2^(h-e),
    2^h <= sqrt(Y2) < 2^(h+1), and the quadratic divided by 2^w leaves
    |b| < 1 and a and c, at their largest, between sqrt(min(lambda_y,
    gamma_y) / max(lambda_y, gamma_y)) / 8 and 2: inside float64 at any
    variance scale and eigenvalue spread.  The divisors of a, b and c are
    2^(w+g), 2^(w+h+g) and 2^(w+2h+g), g = E - e: floats where the
    numerators stay below 2^1022, else ints; each rounds its quotient
    once wherever that is normal.
    """

    spectrum: Spectrum
    L: int
    d_min: float
    sigma_x_sq: float
    X: int
    S: int
    Y2: int
    P: int
    Q: int
    e: int
    h: int
    w: int
    E: int
    divisors: tuple


def prepare(spectrum: Spectrum, L: int) -> Prepared:
    """Form the lambda_q solve's constants once, for solutions at any D."""
    lx, gx, lz, gz, den = spectrum.exact
    ly, gy, m = lx + lz, gx + gz, L - 1
    lx2, gx2 = lx * lx, m * gx * gx
    X, S, Y2, P, Q = lx + m * gx, ly + gy, ly * gy, lx2 + gx2, lx2 * gy + gx2 * ly
    e, h = den.bit_length() - 1, (Y2.bit_length() - 1) // 2
    # |T S - P| <= max(P, W S), W = Q / Y2 = L (sigma_x^2 - d_min) the
    # largest T, is below 2^(w+h).
    w = max(P.bit_length(), Q.bit_length() + S.bit_length() - Y2.bit_length() + 1) - h
    floor = d_min(spectrum, L)
    E = unit_exponent(floor, max(e, e - w))
    g = E - e
    X, P, Q = X << g, P << g, Q << g
    shifts = (w + g, w + h + g, w + 2 * h + g)
    # |T| <= X, |T S - P| <= X S and |C| <= X Y2 bound the numerators.
    fits = X.bit_length() + max(S, Y2).bit_length() < 1023 and shifts[2] <= 1023
    divisors = tuple(math.ldexp(1.0, k) if fits else 1 << k for k in shifts)
    return Prepared(spectrum, L, floor, source_variance(spectrum, L),
                    X, S, Y2, P, Q, e, h, w, E, divisors)


def solutions(prepared: Prepared, grid):
    """(D, lambda_q, Rbar, C, den, t) for each D of grid: the exact slack pair.

    L (D - d_min) = C / den exactly, and t = L (sigma_x^2 - D) rounded once.

    The pass over a grid, in its order, on prepare's constants held in
    locals: per D it checks D against the prepared (d_min, sigma_x_sq),
    forms the quadratic's coefficients, takes its root and the rate
    there.  D is an integer over 2^E, so t0 = L (sigma_x^2 - D) is the
    integer T = X - L D 2^E in units of 2^-E, and a v^2 + b v + c = 0 in
    v = lambda_q / 2^(h-e) has a = T / div_a, b = (T S - P) / div_b and
    c = C / div_c, each rounded once.  C = T Y2 - Q is -L (D - d_min) Y2
    in units of 2^-(E+2e), as Q / Y2 = L (sigma_x^2 - d_min), and
    den = -Y2 2^E: the exact slack, which the converse's composite pieces
    round where they need it.  a, c, v and lambda_q must be normal
    float64s, or they would carry too few digits; T <= 0 or C >= 0 puts D
    outside the exact interval, which the float ends round.

    A generator: the rows before a failing D are yielded before its error
    is raised.  Errors are solve_lambda_q's.
    """
    s, L, floor, ceil, X, S, Y2, P, Q, e, h, w, E, (div_a, div_b, div_c) = prepared
    ldexp = math.ldexp
    unit, tiny, neg_tiny = ldexp(1.0, h - e), _SMALLEST_NORMAL, -_SMALLEST_NORMAL
    # t = a 2^(w-e); past float64's range t0 is inf, as its rounding is.
    t_unit = ldexp(1.0, w - e) if w - e < 1024 else math.inf
    shift, den = E + 1, -(Y2 << E)
    # v whose lambda_q = v unit is a normal float64: root_lo <= v < root_hi.
    root_lo = ldexp(1.0, max(-1022, -1022 - (h - e)))
    root_hi = ldexp(1.0, 1024 - (h - e)) if h > e else math.inf
    for D in grid:
        if not floor < D < ceil:
            raise outside_interval(D, floor, ceil)
        n, d = D.as_integer_ratio()
        T = X - (L * n << (shift - d.bit_length()))    # d = 2^k has bit length k + 1
        C = T * Y2 - Q
        a, b, c = T / div_a, (T * S - P) / div_b, C / div_c
        if not (a >= tiny and c <= neg_tiny):
            raise _refusal(prepared, D, T, C, c)
        root = quadratic_root(a, b, c)
        if not root_lo <= root < root_hi:
            raise PrecisionError(
                f"lambda_q at D = {D!r} is {root * unit!r}, outside the normal float64 range")
        lambda_q = root * unit
        yield D, lambda_q, rate_of(s, L, lambda_q), C, den, a * t_unit


def _refusal(prepared: Prepared, D: float, T: int, C: int, c: float) -> Exception:
    """The error for a D whose a or c is not a normal float.

    Outside the exact interval, a DomainError naming D and its ends,
    X / (L 2^E) and (X Y2 - Q) / (L Y2 2^E), to 25 digits; inside it, a
    PrecisionError naming the end whose coefficient underflowed.
    """
    _, L, floor, ceil, X, _, Y2, _, Q, _, _, _, E, *_ = prepared
    if T <= 0 or C >= 0:
        digits = Context(prec=25)
        lo = digits.divide(Decimal(X * Y2 - Q), Decimal((L << E) * Y2))
        hi = digits.divide(Decimal(X), Decimal(L << E))
        return DomainError(
            f"D = {D!r} ({digits.plus(Decimal(D))}) outside the exact interval "
            f"(d_min, sigma_x_sq) = ({lo}, {hi}) of the spectrum's eigenvalues, "
            f"whose float ends are ({floor!r}, {ceil!r})")
    end = ("d_min", floor) if c > -_SMALLEST_NORMAL else ("sigma_x_sq", ceil)
    return PrecisionError("D = %r is too close to %s = %r to resolve" % (D, *end))


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
        If D lies outside the open interval (d_min, sigma_x^2), or
        outside the exact one of the spectrum's exact eigenvalues, which
        the float ends round.
    PrecisionError
        If D lies so close to an end of the exact interval that the
        quadratic's a or c is below float64's normal range, or lambda_q
        or the rate at it leaves float64.
    """
    return next(solutions(prepare(spectrum, L), (D,)))[1]


def upper_bound_rate(spectrum: Spectrum, L: int, D: float) -> float:
    """Upper bound Rbar(D) in nats; see solve_lambda_q for domain and errors."""
    return next(solutions(prepare(spectrum, L), (D,)))[2]


def quadratic_root(a: float, b: float, c: float) -> float:
    """Positive root of a x^2 + b x + c = 0, where a > 0 > c.

    The stable form: -2c / (b + sqrt(b^2 - 4ac)) for b > 0, and
    (sqrt(b^2 - 4ac) - b) / (2a) otherwise, so that the square root is
    never cancelled by b.  Each coefficient then moves the root by at
    most its own relative error.

    Raises
    ------
    DomainError
        Unless a > 0 > c, i.e. unless the distortion baked into the
        coefficients lies inside (d_min, sigma_x^2).
    """
    if not (a > 0.0 and c < 0.0):
        raise DomainError(f"quadratic coefficients a = {a!r}, c = {c!r} need a > 0 > c; "
                          "D must lie inside (d_min, sigma_x_sq)")
    root = math.sqrt(b * b - 4.0 * a * c)
    if b > 0.0:
        return -2.0 * c / (b + root)
    return (root - b) / (2.0 * a)
