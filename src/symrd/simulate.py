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

Cost: in the eigenbasis the 3L components of a sample are independent,
so every statistic reported is a function of a few independent Gaussian
sums, and a run draws those instead of the samples (Bartlett 1933;
Anderson, An Introduction to Multivariate Statistical Analysis, 3rd ed.,
2003, ch. 7).

The distortions.  In each mode the direct error X - h (X + Q), with
h = v_x / (v_x + lambda_q), is the error of the MMSE estimate from X + Q,
so it is independent of X + Q and of Z, and so of the routed excess
(X - g V) - (X - h (X + Q)), with g = v_x / (v_y + lambda_q).  Their
variances are e_u = v_x lambda_q / (v_x + lambda_q) and
e_x = v_x^2 v_z / ((v_x + lambda_q) (v_y + lambda_q)), which sum to the
routed error's.  Over the n samples the lambda mode gives N = n such
independent pairs (u, x) and the L - 1 gamma modes N = n (L - 1).  So on
each side the direct sum is |u|^2 = e_u chi^2(N), and the routed sum is
|u + x|^2 = (|u| + sqrt(e_x) zeta)^2 + e_x chi^2(N - 1), where
zeta ~ N(0, 1) is x's component along u.  Both distortions therefore take
six numbers, two normals and four chi-squares, whatever L and n are.

The rate.  It needs only the (Y, V) rows, whose standardised Gram is
Wishart_2L(n, I).  Below n = 2L that Gram is singular and the rate is
NaN, so only at n >= 2L does a run draw more.  By the Bartlett decomposition
the Gram is T T^T, with T = [T11 0; T21 T22] the 2L x 2L lower-triangular
factor whose entries are independent: N(0, 1) below the diagonal and
sqrt(chi^2(n - i)) on the diagonal of row i (from 0).  ln det S_y and
ln det S_yv are sums of logs of T's diagonal, and only the L x L S_v needs
a log-det: that of the Gram of the rows
v = V / sqrt(lambda_q) = [d T11 + T21 | T22], with d = sqrt(v_y / lambda_q)
the mode's gain.  Below T11's diagonal T11 enters nothing else, so v is
drawn there as sqrt(1 + d^2) N(0, 1); on it, v is d_i T11_ii + T21_ii.  A
run holds v as the L x 2L factor [A | T22], with an L x L boolean mask of
the entries below the diagonal while it draws them, T's 2L diagonal
roots, and then the L x L Gram of v.  The factor is freed before the
log-det, so slogdet's working copy of the Gram takes its place.  Where
the factor or the Gram cannot be allocated the rate is NaN, and the
distortions are returned all the same.  std_err is the exact standard
deviation of the mean distortion.

Reproducibility: a run draws from one SFC64 generator keyed by the seed
through SeedSequence (a negative seed is read modulo 2^64).  First come
the distortions' six numbers, in one call for the normals, zeta of the
lambda side then of the gamma side, and one for the chi-squares (as gamma
variates of half their degrees, doubled; a 0 degree draws 0):
chi^2(n), chi^2(n (L - 1)), chi^2(n - 1), chi^2(n (L - 1) - 1).  So a
seed's distortions do not depend on whether the rate is drawn.  Then, at
n >= 2L, the factor: A's L^2 normals column by column, then T22's
L (L - 1) / 2 below its diagonal column by column, then T's 2L diagonal
chi-squares, one call each.  Equal configs give equal results for a
given numpy version; numpy does not promise its normal stream across
versions.  Each statistic has the law of the same estimator computed
sample by sample, but not its values for a given seed; within one run
the distortions and the rate are independent draws, where sample by
sample they are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import SourceSpec, _as_int, _check_finite, spectral_decompose
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

    std_err is the exact standard deviation of distortion_empirical.
    rate_empirical is NaN when the sample covariance is singular (fewer
    samples than the 2L dimensions of the (Y, V) moment matrix) and when
    the rate's L x 2L factor or L x L Gram cannot be allocated; the
    distortions are returned either way.
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


# A run never calls eigenbasis.  It stays in this module because
# symbench/spans.py binds symrd.simulate.eigenbasis for its traced runs;
# the tests check the eigenbasis form of the model with it.
def eigenbasis(L: int) -> np.ndarray:
    """Deterministic orthonormal basis diagonalizing every symmetric covariance.

    Column 0 is 1/sqrt(L) * (1, ..., 1); column k >= 1 is the reverse
    Helmert vector (0, ..., 0, m, -1, ..., -1) / sqrt(m (m + 1)) with
    m = L - k, whose entry m sits at index k - 1.  These are exactly the
    vectors Gram-Schmidt produces from the standard basis after the
    all-ones column, so the same L always yields the same matrix.  It
    takes every covariance sigma^2 [(1 - rho) I + rho J] of size L to
    diag(lambda, gamma, ..., gamma).
    """
    k = np.arange(1, L)
    m = (L - k).astype(float)
    norm = np.sqrt(m * (m + 1.0))
    theta = np.empty((L, L))
    theta[:, 0] = 1.0 / math.sqrt(L)
    theta[:, 1:] = np.where(np.arange(L)[:, None] >= k, -1.0, 0.0) / norm
    theta[k - 1, k] = m / norm
    return theta


def _factor(rng: np.random.Generator, L: int, n: int, d_lam: float,
            d_gam: float) -> tuple[np.ndarray, np.ndarray]:
    """The rate's rows v = [A | T22] as an L x 2L view, and T's diagonal.

    Needs n >= 2L.  d_lam and d_gam are the gains sqrt(v_y / lambda_q) of
    the lambda mode (row 0) and of the gamma modes.  Draws, in the order
    the module docstring gives, A's normals, T22's below its diagonal and
    the 2L roots sqrt(chi^2(n - i)) of T's diagonal (T11's, then T22's);
    then scales A below its diagonal by sqrt(1 + d_gam^2) and adds
    d_i T11_ii to its diagonal.
    """
    # tt is v's transpose, so a draw into its rows fills v by columns.  It
    # is allocated before the mask: where a run's arrays cannot fit, its
    # request, 16 times the mask's, fails before the mask is written.
    tt = np.empty((2 * L, L))
    # below, laid out like tt's blocks, is True at j < i in column j:
    # below A's diagonal and below T22's.  In v's own layout the masked
    # writes would stride across it.
    below = np.arange(L)[:, None] < np.arange(L)
    a, t22 = tt[:L], tt[L:]
    rng.standard_normal(out=a)
    t22.fill(0.0)
    t22[below] = rng.standard_normal(L * (L - 1) // 2)
    root = np.sqrt(2.0 * rng.standard_gamma(0.5 * n - np.arange(0.0, L, 0.5)))
    np.multiply(a, math.hypot(1.0, d_gam), out=a, where=below)
    shift = d_gam * root[:L]
    shift[0] = d_lam * root[0]
    a.reshape(-1)[::L + 1] += shift
    t22.reshape(-1)[::L + 1] = root[L:]
    return tt.T, root


def run_simulation(config: SimConfig) -> SimResult:
    """Draw the run's error sums and, at n >= 2L, its rate; return all measurements.

    See the module docstring for what is drawn, and in which order.  Each
    call draws afresh; equal configs give equal results.
    """
    s = spectral_decompose(config.spec)
    L, n, lam_q = config.spec.L, config.n_samples, config.lambda_q
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(config.seed & 0xFFFFFFFFFFFFFFFF)))
    # Per side, the lambda mode and then the L - 1 gamma modes: the N
    # pairs and the variances e_u of the direct error and e_x of the
    # routed excess, as products of ratios so that none underflows.
    pairs = np.array([n, n * (L - 1)], dtype=float)
    vx = np.array([s.lambda_x, s.gamma_x])
    keep = vx / (vx + lam_q)
    e_u = lam_q * keep
    e_x = vx * keep * (np.array([s.lambda_z, s.gamma_z])
                       / (np.array([s.lambda_y, s.gamma_y]) + lam_q))
    zeta = rng.standard_normal(2)
    chi = 2.0 * rng.standard_gamma(0.5 * np.concatenate([pairs, pairs - 1.0]))
    direct = e_u * chi[:2]
    routed = np.square(np.sqrt(direct) + np.sqrt(e_x) * zeta) + e_x * chi[2:]

    # ln det S_y and ln det S_yv are sums of logs of T's diagonal; the Y
    # rows' terms cancel, as does each moment matrix's 1/n, and V's entry
    # in column L + i is sqrt(lambda_q) T22_ii.  The rows of
    # v = V / sqrt(lambda_q) keep the rate free of the variance unit.
    rate_empirical = math.nan
    if n >= 2 * L:
        root_q = math.sqrt(lam_q)
        try:
            v, root = _factor(rng, L, n, math.sqrt(s.lambda_y) / root_q,
                              math.sqrt(s.gamma_y) / root_q)
            gram = v @ v.T
            # Drop the factor, so that slogdet's working copy of the Gram
            # can take its memory.
            del v
            sign, logdet = np.linalg.slogdet(gram)
        except MemoryError:
            # Too large to allocate: the rate stays NaN, the distortions stand.
            sign = 0.0
        if sign > 0.0:
            rate_empirical = 0.5 * float(logdet) - float(np.add.reduce(np.log(root[L:])))

    # The per-sample distortion averages L independent squared errors of
    # variances e_lam and e_gam (L - 1 times); max(e) is factored out.
    e_lam = s.lambda_x * ((s.lambda_z + lam_q) / (s.lambda_y + lam_q))
    e_gam = s.gamma_x * ((s.gamma_z + lam_q) / (s.gamma_y + lam_q))
    e_max = max(e_lam, e_gam)
    std_err = e_max * math.sqrt(2.0 * ((e_lam / e_max) ** 2 + (L - 1) * (e_gam / e_max) ** 2)
                                / (L * L * n))
    mean = float(routed.sum()) / (n * L)
    closed = distortion_of(s, L, lam_q)
    return SimResult(
        n_samples=n,
        lambda_q=lam_q,
        distortion_empirical=mean,
        distortion_closed_form=closed,
        distortion_direct_empirical=float(direct.sum()) / (n * L),
        distortion_direct_closed_form=float(e_u[0] + (L - 1) * e_u[1]) / L,
        rate_closed_form=rate_of(s, L, lam_q),
        rate_empirical=rate_empirical,
        std_err=std_err,
        matches_routed_identity=abs(mean - closed) <= 4.0 * std_err,
    )

