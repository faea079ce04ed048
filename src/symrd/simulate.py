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
Wishart_3L(n, I) matrix.  By the Bartlett decomposition (Bartlett 1933;
Anderson, An Introduction to Multivariate Statistical Analysis, 3rd ed.,
2003, ch. 7), U U^T = T T^T with T the 3L x min(n, 3L) lower-trapezoidal
factor whose entries are independent: N(0, 1) below the diagonal,
sqrt(chi^2(n - i)) on the diagonal of row i, and all-N(0, 1) rows below
row n when n < 3L (the law of the R factor of a Gaussian n x 3L matrix).
So a run draws about (3L)^2 / 2 normals and min(n, 3L) chi-squares,
whatever n is, and holds O(L min(n, L)) doubles.  The rows are ordered
Y, V, X, one per mode in each, which makes C lower triangular with
diagonal blocks, so M = C T is formed with row scalings and row sums, in
place in T's buffer.  Both error sums
are Frobenius norms of row combinations of M (Q = V - Y); ln det S_y and
ln det S_yv are sums of logs of M's diagonal, and only the L x L S_v
needs a log-det.  std_err is the exact standard deviation of the mean
distortion: a fourth-moment sum is not a function of the Gram.

Reproducibility: a run draws from one SFC64 generator keyed by the seed
through SeedSequence: first the normals below T's diagonal, row by row,
then the chi-squares of its diagonal.  Equal configs give equal results
for a given numpy version; numpy does not promise its normal stream
across versions.  Each statistic has the law of the same estimator
computed sample by sample, but not its values for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError, ValidationError
from .model import SourceSpec, Spectrum, spectral_decompose
from .upper_bound import distortion_of, rate_of


@dataclass(frozen=True)
class SimConfig:
    """One simulation setup: model, test-noise level, sample count, seed.

    Valid by construction: the spec is (see SourceSpec), and building one
    raises ValidationError unless lambda_q > 0 and n_samples >= 1.
    """

    spec: SourceSpec
    lambda_q: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if not self.lambda_q > 0.0:
            raise ValidationError(f"lambda_q must be positive, got {self.lambda_q!r}")
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


def _bartlett_factor(seed: int, p: int, n: int) -> np.ndarray:
    """A p x min(n, p) lower-trapezoidal T with T T^T ~ Wishart_p(n, I).

    Drawn from one SFC64 generator keyed by the seed through SeedSequence
    (a negative seed is read modulo 2^64): the normals below the
    diagonal, row by row, then sqrt(chi^2(n - i)) for diagonal entry i.
    """
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF)))
    k = min(n, p)
    t = np.zeros((p, k))
    t[np.tri(p, k, -1, dtype=bool)] = rng.standard_normal(k * (k - 1) // 2 + (p - k) * k)
    np.fill_diagonal(t, np.sqrt(rng.chisquare(n - np.arange(k, dtype=float))))
    return t


def _modes(lam: float, gam: float, L: int) -> np.ndarray:
    """An (L, 1) column: lam for the all-ones mode, gam for the other L - 1."""
    col = np.full((L, 1), gam)
    col[0] = lam
    return col


def run_simulation(config: SimConfig) -> SimResult:
    """Draw the run's Gram through its Bartlett factor and return all measurements.

    With U the standardised components of the n samples and T T^T = U U^T,
    the eigenbasis rows of (Y, V, X) are M = C T, C lower triangular per
    mode: Y = sqrt(v_y) T_Y, V = Y + sqrt(lambda_q) T_V and
    X = v_x / sqrt(v_y) T_Y + sqrt(v_x v_z / v_y) T_X.  Every sum over the
    samples is an inner product of M's rows.  Each call draws afresh;
    equal configs give equal results.
    """
    s = spectral_decompose(config.spec)
    L, n, lam_q = config.spec.L, config.n_samples, config.lambda_q
    root_q = math.sqrt(lam_q)
    t = _bartlett_factor(config.seed, 3 * L, n)
    y, v, x = t.reshape(3, L, -1)

    def side(vx: float, vz: float, vy: float) -> tuple:
        # The mode's row factors and its two estimator gains, as ratios so
        # that none underflows.
        ry = math.sqrt(vy)
        return ry, vx / ry, math.sqrt(vx * (vz / vy)), vx / (vy + lam_q), vx / (vx + lam_q)

    root_y, x_from_y, x_own, routed, direct = (
        _modes(lam, gam, L) for lam, gam in zip(side(s.lambda_x, s.lambda_z, s.lambda_y),
                                                side(s.gamma_x, s.gamma_z, s.gamma_y)))

    # M in place, X first while T_Y is unscaled; V holds Q = V - Y until
    # the direct estimator's error has been taken.
    err = np.multiply(y, x_from_y)
    x *= x_own
    x += err
    y *= root_y
    v *= root_q
    np.add(x, v, out=err)
    err *= -direct
    err += x
    direct_sum = float(np.vdot(err, err))
    v += y
    np.multiply(v, -routed, out=err)
    err += x
    routed_sum = float(np.vdot(err, err))

    # ln det S_y and ln det S_yv are sums of logs of M's diagonal; the Y
    # rows' terms cancel, as does each moment matrix's 1/n.  V's rows
    # vanish beyond column 2L, and its diagonal entry in column L + i is
    # sqrt(lambda_q) T_{L+i, L+i}; dividing V by sqrt(lambda_q) keeps the
    # rate free of the variance unit.
    rate_empirical = math.nan
    if n >= 2 * L:
        vn = v[:, :2 * L] / root_q
        sign, logdet = np.linalg.slogdet(vn @ vn.T)
        if sign > 0.0:
            rate_empirical = float(0.5 * logdet - np.sum(np.log(vn.diagonal(L))))

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
