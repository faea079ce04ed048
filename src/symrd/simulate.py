"""Monte-Carlo verification of the additive test channel.

Simulates n samples of the symmetric Gaussian model, forms the conveyed
variable V = Y + Q with i.i.d. Gaussian test noise Q of per-component
variance lambda_q, and empirically checks the two closed-form identities
the achievability argument rests on: the per-component MMSE

    (1/L) [ lambda_x (1 - lambda_x / (lambda_y + lambda_q))
            + (L-1) gamma_x (1 - gamma_x / (gamma_y + lambda_q)) ]

and the rate I(Y; V) = 1/2 log(1 + lambda_y/lambda_q)
+ (L-1)/2 log(1 + gamma_y/lambda_q).

The printed MMSE identity carries the observation eigenvalues
(lambda_y + lambda_q in the denominators), i.e. the estimator conditions
on a V built from Y.  Conditioning on X + Q instead gives source-eigenvalue
denominators and a different value.  Rather than picking silently, the
simulation computes both: distortion_empirical follows the Y-routed
estimator (this is the one that reproduces the solved distortion target),
the direct X + Q channel is reported alongside it, and
matches_routed_identity records whether the empirical value agrees with
the printed identity within its statistical band.

Cost: every statistic reported is a function of the Gram of the n
samples of (X, Z, Q).  In the eigenbasis the 3L components are
independent, so with U the 3L x n matrix of standardised components that
Gram is C (U U^T) C^T for a fixed factor C, and U U^T is a
Wishart_3L(n, I) matrix.  The rows are ordered Y, V, X, one per mode in
each.  The rate needs only the (Y, V) rows, whose Gram is
Wishart_2L(n, I); by the Bartlett decomposition (Bartlett 1933; Anderson,
An Introduction to Multivariate Statistical Analysis, 3rd ed., 2003,
ch. 7) it is T T^T, with T = [T11 0; T21 T22] the 2L x min(n, 2L)
lower-trapezoidal factor whose entries are independent: N(0, 1) below
the diagonal, sqrt(chi^2(n - i)) on the diagonal of row i, and
all-N(0, 1) rows below row n when n < 2L (the law of the R factor of a
Gaussian n x 2L matrix).  Below its diagonal the Y block T11 reaches the
results only through the L x L Gram of the rate's rows
v = V / sqrt(lambda_q) = [d T11 + T21 | T22], d = sqrt(v_y / lambda_q),
and through each mode's row sums of T11^2, T11 T21 and T21^2.  Every
mode but the first is a gamma mode with one d, so each pair below the
diagonal rotates to a = (d T11 + T21) / sqrt(1 + d^2) and
b = (T11 - d T21) / sqrt(1 + d^2), again independent N(0, 1).  v holds
sqrt(1 + d^2) a there, and the row sums are fixed by alpha = |a|^2,
beta = <a, b> and gamma = |b|^2; given a, beta = sqrt(alpha) zeta and
gamma = zeta^2 + chi^2(m - 1) for a row of m pairs, zeta ~ N(0, 1).  So
a run draws T as the L x min(n, 2L) trapezoid [A | T22] of the V rows,
with the pairs' a below A's diagonal and T11's diagonal kept apart, plus
one zeta and one chi-square per row.  The X rows reach only the two
error sums, and each error row combines the rows (Y, V, X) of one mode.
Given the (Y, V) rows, mode i's X row is independent N(0, I_n): on the
Gram-Schmidt basis (e1, e2) of that mode's rows (T_Y, T_V) it has two
N(0, 1) coordinates z1, z2, and its rest has squared norm
w ~ chi^2(n - 2).  Both errors, of X given V and of X given X + Q with
Q = V - Y, have in mode i a row alpha T_Y + beta T_V + gamma T_X.  With
(p, q; 0, r) the Cholesky factor of the 2 x 2 Gram of (T_Y, T_V), its
squared norm is (alpha p + beta q + gamma z1)^2 + (beta r + gamma z2)^2
+ gamma^2 w, so both error sums are sums over the L modes.  A run
therefore draws about 1.5 L^2 normals (L^2 + L (L - 1) / 2 at n >= 2L)
and 4L - 1 chi-squares, whatever n is.  ln det S_y and ln det S_yv are
sums of logs of T's diagonal, and only the L x L S_v needs a log-det; v
is formed in place in the factor.  Memory: a run holds the
L x min(n, 2L) factor, an L x min(n, L) boolean mask and at most one
L x L array beside them: T22's normals while they are drawn (about
L^2 / 2), A's squares for the row sums, then the Gram of v.  The factor
is freed before the log-det, so slogdet's working copy of the Gram takes
its place.  std_err is the exact standard deviation of the mean
distortion: a fourth-moment sum is not a function of the Gram.

Reproducibility: a run draws from one SFC64 generator keyed by the seed
through SeedSequence, with two calls for the normals and one for the
chi-squares (as gamma variates of half their degrees, doubled; a 0
degree draws 0).  The first normals call fills A in the factor; the
second draws T22's normals below its diagonal, zeta and z into one
buffer.  The normals come in this order: the factor's, column by column
(A's L min(n, L), then T22's); zeta for rows 1 ... L - 1; z, the L
values of z1 then the L of z2 (z2 is 0 when n = 1, where T has one
column).  The chi-squares:
T's diagonal, 2L of them (0 past its width), one per row 1 ... L - 1 for
its pairs, and w (0 when n <= 2).  Equal configs give equal results for
a given numpy version; numpy does not promise its normal stream across
versions.  Each statistic has the law of the same estimator computed
sample by sample, but not its values for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PrecisionError, ValidationError
from .model import SourceSpec, Spectrum, _as_int, _check_finite, spectral_decompose
from .upper_bound import distortion_of, rate_of


@dataclass(frozen=True)
class SimConfig:
    """One simulation setup: model, test-noise level, sample count, seed.

    Valid by construction: the spec is (see SourceSpec), and building one
    raises ValidationError unless lambda_q is a finite positive real,
    n_samples is an integer >= 1 and seed is an integer (neither may be
    a bool).  Integers of another type (np.int64, ...) are stored as
    Python ints.
    """

    spec: SourceSpec
    lambda_q: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        _check_finite("lambda_q", self.lambda_q)
        if not self.lambda_q > 0.0:
            raise ValidationError(f"lambda_q must be positive, got {self.lambda_q!r}")
        for name in ("n_samples", "seed"):
            value = _as_int(getattr(self, name))
            if type(value) is not int:
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, value)
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be at least 1, got {self.n_samples!r}")


@dataclass(frozen=True)
class SimResult:
    """Everything one simulation run measures, plus the closed forms.

    std_err is the exact standard deviation of distortion_empirical;
    rate_empirical is NaN when the sample covariance is singular (fewer
    samples than the 2L dimensions of the (Y, V) moment matrix).
    """

    n_samples: int
    lambda_q: float
    distortion_empirical: float
    distortion_closed_form: float
    distortion_direct_empirical: float
    distortion_direct_closed_form: float
    rate_closed_form: float
    rate_empirical: float
    std_err: float
    matches_routed_identity: bool


def direct_mmse(spectrum: Spectrum, L: int, lambda_q: float) -> float:
    """Per-component MMSE of estimating X from X + Q (source-eigenvalue form)."""
    s = spectrum
    return (lambda_q * (s.lambda_x / (s.lambda_x + lambda_q))
            + (L - 1) * lambda_q * (s.gamma_x / (s.gamma_x + lambda_q))) / L


# The model in coordinates, for checks of the eigenbasis form; a run needs
# neither, since it works in the eigenbasis throughout.
def covariance_matrix(L: int, sigma_sq: float, rho: float) -> np.ndarray:
    """Explicit L x L symmetric covariance sigma^2 [(1 - rho) I + rho J]."""
    return sigma_sq * ((1.0 - rho) * np.eye(L) + rho * np.ones((L, L)))


def eigenbasis(L: int) -> np.ndarray:
    """Deterministic orthonormal basis diagonalizing every symmetric covariance.

    Column 0 is 1/sqrt(L) * (1, ..., 1); column k >= 1 is the reverse
    Helmert vector (0, ..., 0, m, -1, ..., -1) / sqrt(m (m + 1)) with
    m = L - k, whose entry m sits at index k - 1.  These are exactly the
    vectors Gram-Schmidt produces from the standard basis after the
    all-ones column, so the same L always yields the same matrix.  For any
    Spectrum s of size L,

        eigenbasis(L).T @ covariance_matrix(L, sigma_sq, rho) @ eigenbasis(L)
            == diag(lambda, gamma, ..., gamma).
    """
    k = np.arange(1, L)
    m = (L - k).astype(float)
    norm = np.sqrt(m * (m + 1.0))
    theta = np.empty((L, L))
    theta[:, 0] = 1.0 / math.sqrt(L)
    theta[:, 1:] = np.where(np.arange(L)[:, None] >= k, -1.0, 0.0) / norm
    theta[k - 1, k] = m / norm
    return theta


class _Draws(NamedTuple):
    """One run's draws; see _draws."""

    t: np.ndarray
    below: np.ndarray
    root: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    z: np.ndarray
    w: np.ndarray


def _draws(seed: int, L: int, n: int) -> _Draws:
    """A run's draws: the factor t, T's diagonal, zeta, eta, z and w.

    T = [T11 0; T21 T22] is the 2L x k Bartlett factor of the (Y, V)
    rows, k = min(n, 2L).  t is the L x k trapezoid [A | T22] of its V
    rows, stored by columns.  A is L x min(k, L) of normals: below its
    diagonal (where below is True) the halves a of the rotated pairs of
    T11 and T21 (see _mode_rows), on and above it T21's entries.  T22 has
    normals below its diagonal and sqrt(chi^2(n - L - i)) on it.  root
    holds sqrt(chi^2(n - i)) for T's diagonal entry i < 2L, 0 past k, so
    T11's diagonal is root[:L].  Row i >= 1 has min(i, k) pairs; given
    its halves a_i, the other halves b_i have <a_i, b_i> = |a_i| zeta
    and |b_i|^2 = zeta^2 + eta, with zeta ~ N(0, 1) and
    eta ~ chi^2(min(i, k) - 1), one each for rows 1 ... L - 1.  z is
    2 x L N(0, 1), its second row 0 when n = 1; w is L draws of
    chi^2(n - 2), 0 when n <= 2.  They come from one SFC64 generator
    keyed by the seed through SeedSequence (a negative seed is read
    modulo 2^64), in the order given in the module docstring: A's
    normals straight into t, then one buffer of T22's, zeta and z.
    """
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF)))
    k = min(n, 2 * L)
    m, c = min(k, L), max(k - L, 0)
    # tt is t's transpose, so a draw into its rows fills t by columns.  A's
    # normals go straight into it.  mask, laid out like tt, is True at
    # j < i in column j: below A's diagonal (below, the pairs' halves) and,
    # in its first c columns, below T22's (its normals).  In t's own
    # layout the masked sums and the scatter would stride across it: a run
    # at L = 360, n = 6L took 14.7 ms that way against 11.8 ms (2-vCPU
    # x86_64).
    mask = np.arange(m)[:, None] < np.arange(L)
    tt = np.empty((k, L))
    rng.standard_normal(out=tt[:m])
    cells = c * (2 * L - c - 1) // 2
    normals = rng.standard_normal(cells + 3 * L - 1)
    t22 = tt[L:]
    t22.fill(0.0)
    t22[mask[:c]] = normals[:cells]
    rest = normals[cells:].copy()
    # Gamma shapes, half the chi-square degrees: T's diagonal, the rows'
    # pairs, w.  A shape of 0 draws 0.
    half = np.arange(0.0, L, 0.5)
    shape = np.empty(4 * L - 1)
    np.maximum(0.5 * n - half, 0.0, out=shape[:2 * L])
    np.minimum(half[:L - 1], 0.5 * (k - 1), out=shape[2 * L:3 * L - 1])
    shape[3 * L - 1:] = 0.5 * max(n - 2, 0)
    chi = rng.standard_gamma(shape)
    chi *= 2.0
    root = np.sqrt(chi[:2 * L])
    t22.reshape(-1)[::L + 1] = root[L:k]
    z = rest[L - 1:].reshape(2, L)
    if n == 1:
        z[1] = 0.0
    return _Draws(tt.T, mask.T, root, rest[:L - 1], chi[2 * L:3 * L - 1], z, chi[3 * L - 1:])


def _mode_rows(draws: _Draws, d: float) -> np.ndarray:
    """Each mode's rows (T_Y, T_V, T_X), on the Gram-Schmidt basis of (T_Y, T_V).

    A (3, 3, L) array indexed [row, coordinate, mode].  d is the gamma
    modes' gain (see run_simulation).  Below T11's diagonal, row i >= 1's
    pairs are (T11, T21) = (s a + c b, c a - s b), with
    c = 1 / sqrt(1 + d^2) and s = d c.  With alpha = |a|^2,
    beta = <a, b> and gamma = |b|^2, their row sums of T11^2, T11 T21 and
    T21^2 are s^2 alpha + 2 s c beta + c^2 gamma,
    s c (alpha - gamma) + (c^2 - s^2) beta and
    c^2 alpha - 2 s c beta + s^2 gamma.  With (p, q; 0, r) the
    Cholesky factor of the Gram of the mode's rows of T, the rows are
    T_Y = p e1, T_V = q e1 + r e2 and T_X = z1 e1 + z2 e2 + sqrt(w) e3,
    so their inner products are the mode's entries of the run's Gram.
    """
    t, below, root, zeta, eta, z, w = draws
    L, m = below.shape
    # Per mode: alpha, beta, gamma, then T11's diagonal entry squared,
    # its product with T21's, and the squared norm of t's row.  That row
    # holds a as well as T21's rest and T22's, so g_vv takes alpha with
    # c^2 - 1 = -s^2.
    f = np.zeros((6, L))
    left = t[:, :m]
    np.add.reduce(np.square(left.T), axis=0, out=f[0], where=below.T)
    np.sqrt(f[0], out=f[1])
    f[1, 1:] *= zeta
    np.multiply(zeta, zeta, out=f[2, 1:])
    f[2, 1:] += eta
    np.square(root[:L], out=f[3])
    np.multiply(root[:m], left.diagonal(), out=f[4, :m])
    np.einsum("ij,ij->i", t, t, out=f[5])
    co = 1.0 / math.hypot(1.0, d)
    si = d * co
    sc, s2 = si * co, si * si
    g = np.array([[s2, 2.0 * sc, co * co, 1.0, 0.0, 0.0],
                  [sc, co * co - s2, -sc, 0.0, 1.0, 0.0],
                  [-s2, -2.0 * sc, s2, 0.0, 0.0, 1.0]]) @ f
    rows = np.zeros((3, 3, L))
    p, q, r = rows[0, 0], rows[1, 0], rows[1, 1]
    np.sqrt(g[0], out=p)
    np.divide(g[1], p, out=q)
    # At n = 1, T_V lies on T_Y's line and r^2 is rounding noise.
    np.sqrt(np.maximum(g[2] - q * q, 0.0), out=r)
    rows[2, :2] = z
    np.sqrt(w, out=rows[2, 2])
    return rows


def run_simulation(config: SimConfig) -> SimResult:
    """Draw the run's Gram through its Bartlett factor and return all measurements.

    With U the standardised components of the n samples, each mode's rows
    of (Y, V, X) are Y = sqrt(v_y) U_Y, V = Y + sqrt(lambda_q) U_V and
    X = v_x / sqrt(v_y) U_Y + sqrt(v_x v_z / v_y) U_X.  The (Y, V) rows
    are drawn as their Bartlett factor T, its Y block below the diagonal
    collapsed into per-row sums (_draws); given them, each X row enters
    only through its mode's three Gram entries, drawn as z and w.  Each
    call draws afresh; equal configs give equal results.
    """
    s = spectral_decompose(config.spec)
    L, n, lam_q = config.spec.L, config.n_samples, config.lambda_q
    root_q = math.sqrt(lam_q)
    draws = _draws(config.seed, L, n)
    # Rows i >= 1 are gamma modes: V / sqrt(lambda_q) = d T_Y + T_V with
    # d = sqrt(gamma_y / lambda_q) there.
    d = math.sqrt(s.gamma_y) / root_q

    def side(vx: float, vz: float, vy: float) -> tuple:
        # The coefficients of (T_Y, T_V, T_X) in the mode's routed error
        # X - g V and direct error X - h (X + Q), with gains
        # g = v_x / (v_y + lambda_q) and h = v_x / (v_x + lambda_q), as
        # ratios so that none underflows.
        x_y, x_own = vx / math.sqrt(vy), math.sqrt(vx * (vz / vy))
        keep = lam_q / (vx + lam_q)
        return ((x_y * (lam_q / (vy + lam_q)), -(vx / (vy + lam_q)) * root_q, x_own),
                (x_y * keep, -(vx / (vx + lam_q)) * root_q, x_own * keep))

    coef = np.empty((L, 2, 3))
    coef[0] = side(s.lambda_x, s.lambda_z, s.lambda_y)
    coef[1:] = side(s.gamma_x, s.gamma_z, s.gamma_y)
    err = np.matmul(coef, _mode_rows(draws, d).transpose(2, 0, 1))
    routed_sum, direct_sum = np.einsum("mer,mer->e", err, err).tolist()

    # With M the rows of (Y, V) in T's columns, ln det S_y and ln det S_yv
    # are sums of logs of M's diagonal; the Y rows' terms cancel, as does
    # each moment matrix's 1/n.  V's diagonal entry in column L + i is
    # sqrt(lambda_q) T22_ii.  The rows of v = V / sqrt(lambda_q), which
    # keep the rate free of the variance unit, are formed in place in t:
    # below A's diagonal d T11 + T21 = sqrt(1 + d^2) a, and on it
    # d_i T11_ii + T21_ii.
    rate_empirical = math.nan
    if n >= 2 * L:
        t, root = draws.t, draws.root
        a = t[:, :L]
        np.multiply(a, math.hypot(1.0, d), out=a, where=draws.below)
        shift = d * root[:L]
        shift[0] = (math.sqrt(s.lambda_y) / root_q) * root[0]
        a.T.reshape(-1)[::L + 1] += shift
        gram = t @ t.T
        # Drop the factor, so that slogdet's working copy of the Gram can
        # take its memory.
        del draws, t, a
        sign, logdet = np.linalg.slogdet(gram)
        if sign > 0.0:
            rate_empirical = 0.5 * float(logdet) - float(np.add.reduce(np.log(root[L:])))

    # The per-sample distortion averages L independent squared errors of
    # variances e_lam and e_gam (L - 1 times); max(e) is factored out.
    e_lam = s.lambda_x * ((s.lambda_z + lam_q) / (s.lambda_y + lam_q))
    e_gam = s.gamma_x * ((s.gamma_z + lam_q) / (s.gamma_y + lam_q))
    e_max = max(e_lam, e_gam)
    std_err = e_max * math.sqrt(2.0 * ((e_lam / e_max) ** 2 + (L - 1) * (e_gam / e_max) ** 2)
                                / (L * L * n))
    mean = routed_sum / (n * L)
    closed = distortion_of(s, L, lam_q)
    return SimResult(
        n_samples=n,
        lambda_q=lam_q,
        distortion_empirical=mean,
        distortion_closed_form=closed,
        distortion_direct_empirical=direct_sum / (n * L),
        distortion_direct_closed_form=direct_mmse(s, L, lam_q),
        rate_closed_form=rate_of(s, L, lam_q),
        rate_empirical=rate_empirical,
        std_err=std_err,
        matches_routed_identity=abs(mean - closed) <= 4.0 * std_err,
    )


def _psi_minus_log(x: float) -> float:
    """digamma(x) - ln(x), by recurrence up to x >= 8 and the asymptotic series."""
    acc = 0.0
    while x < 8.0:
        acc += math.log1p(1.0 / x) - 1.0 / x
        x += 1.0
    x2 = 1.0 / (x * x)
    return acc - 0.5 / x - x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 / 240)))


def _trigamma(x: float) -> float:
    """trigamma(x), by recurrence up to x >= 8 and the asymptotic series."""
    acc = 0.0
    while x < 8.0:
        acc += 1.0 / (x * x)
        x += 1.0
    x2 = 1.0 / (x * x)
    return acc + 1.0 / x + 0.5 * x2 + x2 / x * (1 / 6 - x2 * (1 / 30 - x2 * (1 / 42 - x2 / 30)))


def rate_bias_band(L: int, n: int) -> tuple[float, float]:
    """Bias of rate_empirical and a bound on its standard deviation, in nats.

    n times a p x p raw second-moment matrix of n zero-mean Gaussian
    samples is Wishart_p(n, Sigma), so ln det of the moment matrix exceeds
    ln det Sigma on average by b(p, n) = sum_{i=1..p} [psi((n-i+1)/2)
    - ln(n/2)], with variance sum_i trigamma((n-i+1)/2).  The estimate
    1/2 [ld(S_y) + ld(S_v) - ld(S_yv)] therefore has the exact bias
    1/2 [2 b(L, n) - b(2L, n)]; the three log-determinants are correlated,
    so the spread is bounded by the sum of their standard deviations.
    Needs n >= 2L.
    """
    def bias(p: int) -> float:
        half = 0.5 * n
        return math.fsum(_psi_minus_log(x) + math.log1p((x - half) / half)
                         for x in (0.5 * (n - i + 1) for i in range(1, p + 1)))

    def sd(p: int) -> float:
        return math.sqrt(math.fsum(_trigamma(0.5 * (n - i + 1))
                                   for i in range(1, p + 1)))

    return 0.5 * (2.0 * bias(L) - bias(2 * L)), 0.5 * (2.0 * sd(L) + sd(2 * L))


# Width, in standard deviations, of the band analytic_rate accepts.
RATE_BAND_SIGMAS = 5.0


def analytic_rate(config: SimConfig) -> float:
    """Closed-form rate of the test channel, cross-checked empirically.

    Returns the exact expression evaluated from the spectrum.  As a side
    effect the empirical mutual-information estimate from the same config
    is checked: rate_empirical - closed must lie within RATE_BAND_SIGMAS
    standard deviations of the estimator's exact bias (rate_bias_band).
    Disagreement, or a sample covariance that is not positive definite
    (n < 2L), raises PrecisionError.
    """
    result = run_simulation(config)
    L, n = config.spec.L, config.n_samples
    if math.isnan(result.rate_empirical):
        raise PrecisionError(
            f"sample covariance not positive definite at n = {n}; "
            "cannot estimate the empirical rate"
        )
    bias, sd = rate_bias_band(L, n)
    closed = result.rate_closed_form
    offset = result.rate_empirical - closed
    if abs(offset - bias) > RATE_BAND_SIGMAS * sd:
        raise PrecisionError(
            f"empirical rate {result.rate_empirical!r} exceeds the closed form "
            f"{closed!r} by {offset!r}, outside the estimator's bias {bias!r} "
            f"+- {RATE_BAND_SIGMAS * sd!r}"
        )
    return closed
