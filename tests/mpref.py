"""50-digit replay of the numbers symrd prints, for the tests.

Every function takes float inputs, treats them as exact binary values and
evaluates the defining formulas with mpmath at DPS significant digits, so
a result carries no float64 rounding of its own.  Nothing here calls
symrd's numerics: the spectrum is rebuilt from the correlation form, the
test-noise level lambda_q is found by bisection on the balance equation,
and the converse pieces are the closed forms as the paper writes them.
(probe only draws inputs: it uses symrd's spec type and its d_min to
place D.)

The rate functions return (value, slope): the rate in nats and its
derivative in D.  slope * math.ulp(D) is the change that one unit in the
last place of D makes, which no float64 evaluation at D can be held to
beat: it is the inherent error the tests measure symrd against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import mpmath
from mpmath import mpf

DPS = 50
_CTX = mpmath.mp.clone()
_CTX.dps = DPS
# Bisection stops when the bracket on lambda_q is this narrow, relatively.
BISECTION_REL_WIDTH = _CTX.mpf(10) ** -32


@dataclass(frozen=True)
class Spectrum:
    """The six eigenvalues at DPS digits; y = x + z on each direction."""

    lambda_x: mpf
    gamma_x: mpf
    lambda_z: mpf
    gamma_z: mpf
    lambda_y: mpf
    gamma_y: mpf


def _mp(value) -> mpf:
    return _CTX.mpf(value)


def spectrum(spec) -> Spectrum:
    """Eigenvalues of a SourceSpec: (1 + (L-1) rho) sigma^2 and (1 - rho) sigma^2.

    A boundary correlation's negative roundoff shadow is clamped to 0, as
    the model does; a zero noise variance gives a zero noise spectrum.
    """
    L = spec.L

    def pair(sigma_sq, rho):
        s, r = _mp(sigma_sq), _mp(rho)
        return _mp(max((1 + (L - 1) * r) * s, 0)), _mp(max((1 - r) * s, 0))

    lx, gx = pair(spec.sigma_x_sq, spec.rho_x)
    lz, gz = pair(spec.sigma_z_sq, spec.rho_z) if spec.sigma_z_sq > 0 else (_mp(0), _mp(0))
    return Spectrum(lx, gx, lz, gz, lx + lz, gx + gz)


def exact(s) -> Spectrum:
    """A float spectrum's source and noise eigenvalues taken as exact.

    The observation eigenvalues are re-formed as y = x + z at DPS digits:
    the float lambda_y and gamma_y are those sums rounded, and a spectrum
    with y != x + z is not one the model describes.
    """
    lx, gx, lz, gz = (_mp(v) for v in (s.lambda_x, s.gamma_x, s.lambda_z, s.gamma_z))
    return Spectrum(lx, gx, lz, gz, lx + lz, gx + gz)


def d_min(s: Spectrum, L: int) -> mpf:
    return (s.lambda_x * s.lambda_z / s.lambda_y
            + (L - 1) * s.gamma_x * s.gamma_z / s.gamma_y) / L


def sigma_x_sq(s: Spectrum, L: int) -> mpf:
    return (s.lambda_x + (L - 1) * s.gamma_x) / L


def _distortion(s: Spectrum, L: int, q: mpf) -> mpf:
    return (s.lambda_x * (1 - s.lambda_x / (s.lambda_y + q))
            + (L - 1) * s.gamma_x * (1 - s.gamma_x / (s.gamma_y + q))) / L


def lambda_q(s: Spectrum, L: int, D) -> mpf:
    """Root of distortion(q) = D by bisection, in log q while the bracket is wide.

    The distortion rises from d_min to sigma_x^2 as q runs over (0, inf).
    Each eigen-direction's share of L (distortion - d_min) is its share
    of L (sigma_x^2 - d_min) times q / (y + q), which lies between
    q / (max y + q) and q / (min y + q); so the root lies in
    [min y, max y] * (D - d_min) / (sigma_x^2 - D).
    """
    D = _mp(D)
    ratio = (D - d_min(s, L)) / (sigma_x_sq(s, L) - D)
    lo = min(s.lambda_y, s.gamma_y) * ratio
    hi = max(s.lambda_y, s.gamma_y) * ratio
    while hi - lo > BISECTION_REL_WIDTH * lo:
        mid = (lo + hi) / 2 if hi < 2 * lo else _CTX.sqrt(lo * hi)
        if _distortion(s, L, mid) < D:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def upper(s: Spectrum, L: int, D, q=None) -> tuple[mpf, mpf]:
    """Rbar(D) = 1/2 ln(1 + lambda_y/q) + (L-1)/2 ln(1 + gamma_y/q), and its slope.

    The slope is dRbar/dq divided by ddistortion/dq at the solved q; q is
    lambda_q(s, L, D), or the one given if it is that already.
    """
    q = lambda_q(s, L, D) if q is None else q
    ly, gy = s.lambda_y, s.gamma_y
    rate = (_CTX.log(1 + ly / q) + (L - 1) * _CTX.log(1 + gy / q)) / 2
    drate = -(ly / (q * (q + ly)) + (L - 1) * gy / (q * (q + gy))) / 2
    ddist = (s.lambda_x ** 2 / (ly + q) ** 2
             + (L - 1) * s.gamma_x ** 2 / (gy + q) ** 2) / L
    return rate, drate / ddist


def rate_forms(s: Spectrum, L: int, q) -> tuple[mpf, mpf]:
    """The rate at noise level q in its two resolvent forms.

    With 1/lambda_i = 1/lambda_y + 1/q and 1/gamma_i = 1/gamma_y + 1/q,
    the first writes the rate through lambda_i, the second through gamma_i:

        1/2 ln(lambda_y / lambda_i) + (L-1)/2 ln(1 + gamma_y (1/lambda_i - 1/lambda_y)),
        1/2 ln(1 + lambda_y (1/gamma_i - 1/gamma_y)) + (L-1)/2 ln(gamma_y / gamma_i).
    """
    q = _mp(q)
    ly, gy = s.lambda_y, s.gamma_y
    li = 1 / (1 / ly + 1 / q)
    gi = 1 / (1 / gy + 1 / q)
    via_lambda = (_CTX.log(ly / li) + (L - 1) * _CTX.log(1 + gy * (1 / li - 1 / ly))) / 2
    via_gamma = (_CTX.log(1 + ly * (1 / gi - 1 / gy)) + (L - 1) * _CTX.log(gy / gi)) / 2
    return via_lambda, via_gamma


def piece(label: str, s: Spectrum, L: int, D) -> tuple[mpf, mpf]:
    """R1c, R2c, R1c_hat or R2c_hat at D, and its slope.

    The hatted pieces are the plain ones with the lambda and gamma
    directions swapped (big is the direction the label names).  With
    triples (x, y, m) for big and small,

        den2 = L D - m_b x_b - m_s (x_s - x_s^2 / y_s),
        R2c  = L/2 ln(m_s x_s^2 / y_s / den2),
        den1 = den2 + m_b x_b^2 / y_b^2 (y_b + 1 / (1/y_s - 1/y_b)),
        R1c  = k/2 ln(k x_s^2 / y_s / den1) + m_b/2 ln(x_b^2 y_s / (x_s^2 (y_b - y_s)))
               + L/2 ln(m_s / L),   k = m_s + 2 m_b.
    """
    lam = (s.lambda_x, s.lambda_y, 1)
    gam = (s.gamma_x, s.gamma_y, L - 1)
    (xb, yb, mb), (xs, ys, ms) = (gam, lam) if label.endswith("_hat") else (lam, gam)
    den = L * _mp(D) - mb * xb - ms * (xs - xs ** 2 / ys)
    if label.startswith("R2c"):
        return L * _CTX.log(ms * xs ** 2 / ys / den) / 2, -L * L / (2 * den)
    den += mb * xb ** 2 / yb ** 2 * (yb + 1 / (1 / ys - 1 / yb))
    k = ms + 2 * mb
    value = (k * _CTX.log(k * xs ** 2 / ys / den)
             + mb * _CTX.log(xb ** 2 * ys / (xs ** 2 * (yb - ys)))
             + L * _CTX.log(_mp(ms) / L)) / 2
    return value, -k * L / (2 * den)


def roots(big, small, L: int) -> tuple[mpf, mpf, mpf]:
    """(m1, m2, r): the threshold roots 1/2 -+ r/2 of the converse, and r.

    big and small are (x, y, m) triples, taken as exact;
    r = sqrt(1 - 4 L x_b^2 y_s^2 / (m_s x_s^2 y_b^2)), which is real
    wherever the roots are defined.
    """
    (xb, yb, _), (xs, ys, ms) = ((_mp(v) for v in side) for side in (big, small))
    r = _CTX.sqrt(1 - 4 * L * (xb * ys / (xs * yb)) ** 2 / ms)
    return (1 - r) / 2, (1 + r) / 2, r


def lower(label: str, s: Spectrum, L: int, D) -> tuple[mpf, mpf]:
    """The converse on the piece the label names: Rbar or a composite piece."""
    return upper(s, L, D) if label == "Rbar" else piece(label, s, L, D)


def omega(s: Spectrum, L: int, alpha, beta, delta) -> mpf:
    """The converse program's objective Omega(alpha, beta, delta) in nats.

    1/2 ln[lambda_y^2 / ((lambda_y - w) alpha + lambda_y w)]
    + (L-1)/2 ln[gamma_y^2 / ((gamma_y - w) beta + gamma_y w)] + L/2 ln(w / delta),
    w = min(lambda_y, gamma_y).
    """
    ly, gy = s.lambda_y, s.gamma_y
    w = min(ly, gy)
    alpha, beta, delta = _mp(alpha), _mp(beta), _mp(delta)
    return (_CTX.log(ly ** 2 / ((ly - w) * alpha + ly * w))
            + (L - 1) * _CTX.log(gy ** 2 / ((gy - w) * beta + gy * w))
            + L * _CTX.log(w / delta)) / 2


def distortion_constraint(s: Spectrum, L: int, alpha, beta) -> mpf:
    """The left side of the converse program's distortion constraint, <= L D.

    lambda_x^2/lambda_y^2 alpha + lambda_x - lambda_x^2/lambda_y
    + (L-1)(gamma_x^2/gamma_y^2 beta + gamma_x - gamma_x^2/gamma_y),
    the paper's full lambda/gamma form.
    """
    lx, ly, gx, gy = s.lambda_x, s.lambda_y, s.gamma_x, s.gamma_y
    alpha, beta = _mp(alpha), _mp(beta)
    return (lx ** 2 / ly ** 2 * alpha + lx - lx ** 2 / ly
            + (L - 1) * (gx ** 2 / gy ** 2 * beta + gx - gx ** 2 / gy))


def certificate(s, L: int, D, v, d, tol) -> tuple:
    """The oracle's KKT certificate of its reduced program, replayed at DPS digits.

    s is the float spectrum, L its size, D the distortion and (v, d) the
    oracle's float point: the big side's variable and delta.  The program
    is the one the oracle solved: big and small are the (x, y, m) triples
    of the float eigenvalues (big has the larger y, lambda on a tie),
    taken as exact, with a = m_b x_b^2 / y_b^2, b = m_s x_s^2 / y_s^2 and
    the exact slack s0 = L D - m_b (x_b - x_b^2 / y_b) - m_s (x_s - x_s^2 / y_s)
    of a v + b delta <= s0.  The active set is picked by the oracle's
    rules: the envelope delta = env(v) binds when |delta - env| <= tol env
    and its multiplier omega2 comes out >= 0, the distortion constraint
    binds always, and the box v = y_b when |v - y_b| <= tol y_b off the
    envelope.  The stationarity equations are then solved for the
    multipliers of the active set.

    Returns (active, omega1, omega2, omega3, stationarity, complementarity):
    active is the tuple of binding constraint names, ("envelope",
    "distortion"), ("distortion",) or ("box", "distortion"); the
    residuals are the certificate's relative ones (see symrd.oracle's
    KktCertificate), here free of float rounding.
    """
    lam = (_mp(s.lambda_x), _mp(s.lambda_y), 1)
    gam = (_mp(s.gamma_x), _mp(s.gamma_y), L - 1)
    (xb, yb, mb), (xs, ys, ms) = (lam, gam) if s.lambda_y >= s.gamma_y else (gam, lam)
    v, d, tol = _mp(v), _mp(d), _mp(tol)
    a, b = mb * xb ** 2 / yb ** 2, ms * xs ** 2 / ys ** 2
    s0 = L * _mp(D) - mb * (xb - xb ** 2 / yb) - ms * (xs - xs ** 2 / ys)
    dy, ybys = yb - ys, yb * ys
    lw = dy * v + ybys
    env, de = v * ybys / lw, (ybys / lw) ** 2
    slope = mb * dy / (2 * lw)            # minus the objective's v-derivative
    half = L / (2 * d)
    w1, w2 = _mp(0), (half * a - b * slope) / (a + b * de)
    if abs(d - env) <= tol * env and w2 >= 0:
        active, w3 = ("envelope", "distortion"), (half * de + slope) / (a + b * de)
    else:
        active, w2, w3 = ("distortion",), _mp(0), half / b
        if abs(v - yb) <= tol * yb:
            active, w1 = ("box", "distortion"), slope - w3 * a
    terms_v = (-slope, w1, -w2 * de, w3 * a)
    terms_d = (-half, w2, w3 * b)
    scale_v, scale_d = sum(map(abs, terms_v)), sum(map(abs, terms_d))

    def share(term, scale):
        return abs(term) / scale if scale > 0 else _mp(0)

    stationarity = max(share(sum(terms_v), scale_v), share(sum(terms_d), scale_d))
    lhs = a * v + b * d
    # Each multiplier's share of its equations, alone where it is negative,
    # else times its constraint's relative slack.
    parts = ((w1, share(w1, scale_v), v, yb), (w2, share(w2, scale_d), d, env),
             (w3, max(share(w3 * a, scale_v), share(w3 * b, scale_d)), lhs, s0))
    complementarity = max(part if w < 0 else part * share(side - top, side + top)
                          for w, part, side, top in parts)
    return active, w1, w2, w3, stationarity, complementarity


def ceo(L: int, sigma_x_sq, sigma_n_sq, D) -> mpf:
    """Quadratic Gaussian CEO sum-rate (Oohama 1998; Prabhakaran-Tse-Ramchandran 2004).

    1/2 ln(sigma_x^2 / D) + L/2 ln[(L/a) / (L/a - sigma_n^2)],
    a = 1/D - 1/sigma_x^2: one source seen by L sensors in i.i.d. noise.
    """
    sx2, sn2, D = _mp(sigma_x_sq), _mp(sigma_n_sq), _mp(D)
    a = 1 / D - 1 / sx2
    return _CTX.log(sx2 / D) / 2 + L * _CTX.log((L / a) / (L / a - sn2)) / 2


# Where probe places D in (d_min, sigma_x^2), as a fraction of the
# interval; None draws the fraction uniformly.
PROBE_FRACTIONS = (1e-6, 1e-3, None, 1.0 - 1e-6)
# The fractions next to the interval's ends that ends_probe cycles through.
END_FRACTIONS = (1e-12, 1e-9, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-9)


def probe(seed: int, n: int, max_L: float = 1e7,
          variances: tuple[float, float] = (1e-3, 1e3), sourceless: bool = False,
          fractions: tuple = PROBE_FRACTIONS, noiseless: bool = False):
    """n seeded points (spec, spectrum, D) over the range symrd accepts.

    L is log-uniform on [2, max_L] and both variances on variances; each
    correlation is negative or positive with equal odds, uniform over
    (-1/(L-1), 0) or [0, 1); D cycles through fractions.  With
    sourceless, every fifth spec takes rho_x at an end of its range, 1 or
    -1/(L-1), where one direction carries no source.  With noiseless, a
    spec takes sigma_z_sq = 0 with odds 1 in 4, so that d_min = 0.
    """
    from symrd import SourceSpec, d_min, source_variance, spectral_decompose

    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    points = []
    while len(points) < n:
        L = max(2, round(log_uniform(2, max_L)))
        rho_x, rho_z = (rng.uniform(-1.0 / (L - 1), 0.0) if rng.random() < 0.5
                        else rng.uniform(0.0, 1.0) for _ in range(2))
        if sourceless and len(points) % 5 == 4:
            rho_x = 1.0 if rng.random() < 0.5 else -1.0 / (L - 1)
        sigma_x_sq, sigma_z_sq = log_uniform(*variances), log_uniform(*variances)
        if noiseless and rng.random() < 0.25:
            sigma_z_sq = 0.0
        spec = SourceSpec(L, sigma_x_sq, rho_x, sigma_z_sq, rho_z)
        s = spectral_decompose(spec)
        lo, hi = d_min(s, L), source_variance(s, L)
        fraction = fractions[len(points) % len(fractions)]
        D = lo + (rng.random() if fraction is None else fraction) * (hi - lo)
        if lo < D < hi:
            points.append((spec, s, D))
    return points


def certificate_probe():
    """The seeded probe of the oracle's certificate path and of evaluate.

    probe's points at L up to 1e6 and variances within 1e+-30, with
    sourceless specs: both sides of the side view, b = 0, and each of the
    oracle's three candidates at the optimum.
    """
    return probe(seed=20261020, n=2000, max_L=1e6, variances=(1e-30, 1e30), sourceless=True)


def ends_probe():
    """The seeded probe of the oracle next to the ends of (d_min, sigma_x^2).

    probe's points at L up to 1e6 and variances within 1e+-3, a quarter of
    them noiseless, with D cycling through END_FRACTIONS.
    """
    return probe(seed=20261021, n=1200, max_L=1e6, fractions=END_FRACTIONS, noiseless=True)
