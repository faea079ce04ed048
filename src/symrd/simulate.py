"""Monte-Carlo verification of the additive test channel.

Samples the symmetric Gaussian model, forms the conveyed variable
V = Y + Q with i.i.d. Gaussian test noise Q of per-component variance
lambda_q, and empirically checks the two closed-form identities the
achievability argument rests on: the per-component MMSE

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

Cost: every covariance in the model has eigenvalue lambda on the all-ones
direction and gamma on its L - 1 dimensional complement, so nothing needs
an eigenbasis.  Samples are drawn in the coordinate basis: a sample's L
standard normals T are shaped in place into sqrt(gamma) T
+ (sqrt(lambda) - sqrt(gamma)) mean(T) 1, which has the model's law for
every rho, so a sample of (X, Z, Q) costs 3L normals; an estimator with
gains g_lambda, g_gamma maps an observation o to g_gamma o
+ (g_lambda - g_gamma) mean(o) 1; and the log-det rate is invariant under
the orthogonal change of basis, so the (Y, V) moments stay in the
coordinate basis.  n samples therefore cost O(nL) plus one Gram product
per chunk.  Each block is streamed in chunks of CHUNK_ROWS samples, each
one C-contiguous (3, L, rows) array of draws, a prefix of one buffer the
block allocates once.  A sample is a column, so every mean, shaping step
and error norm works on whole vectors of rows doubles, and every
reduction over a sample's components is an np.add.reduce over axis 0.
The draws are shaped in place into X, Z and Q.  The direct estimator's
error is formed from X + Q in a second (L, rows) buffer; then Y and V are
formed in place in Z's and Q's rows, so the chunk's last 2L rows are
[Y; V], the routed error reuses that buffer, and the Gram product needs
no copy.  A worker holds 4L doubles a sample, and a chunk's buffers and
its Gram product stay in cache; a block returns only its three scalar
sums and its Gram.  The blocks run on a thread pool of
min(available CPUs, blocks) workers (numpy's RNG and array kernels
release the GIL); a run of one block starts no pool.  Memory is
O(workers CHUNK_ROWS L + L^2), not O(BLOCK_SIZE L).

Reproducibility: sampling is partitioned into fixed-size blocks, each drawn
from an SFC64 generator keyed through SeedSequence by (seed, block_index).
The stream is chunk-major: each chunk fills its (3, L, rows) array with one
standard_normal call, T_x, T_z and W_q in turn, each component by
component.  So a block's samples depend on CHUNK_ROWS, and sample_model
draws the same chunks as run_simulation.  Scalar sums are reduced in
block-index order with math.fsum, and the moment matrices with one
vectorised compensated (Neumaier) sum, so the result is bit-identical for
a given seed under any worker count or schedule, and identical to 1e-12
under any re-partition of the block sums.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError, ValidationError
from .model import SourceSpec, Spectrum, spectral_decompose
# Not called here: symbench's traced run binds symrd.simulate.eigenbasis as
# a span target, so the name stays importable from this module.
from .model import eigenbasis  # noqa: F401
from .upper_bound import distortion_of, rate_of

# Samples per RNG block; also the reduction granularity.
BLOCK_SIZE = 1 << 17
# Samples drawn at a time within a block.  A worker's buffers take 4L
# doubles a sample (3L draws, which end as X and [Y; V], and L for the
# error rows): 0.8 MB at L = 12, within a 2 MB L2 cache.  Of 1024, 2048
# and 4096, 1024 was slowest; 2048 and 4096 were even, and 2048 holds half
# the memory.
CHUNK_ROWS = 2048


@dataclass(frozen=True)
class SimConfig:
    """One simulation setup: model, test-noise level, sample count, seed."""

    spec: SourceSpec
    lambda_q: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class SimResult:
    """Everything one simulation run measures, plus the closed forms.

    std_err is the standard error of distortion_empirical;
    rate_empirical is NaN when the sample covariance is not positive
    definite (sample count too small for the 2L x 2L moment matrix).
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


def _validate_config(config: SimConfig) -> Spectrum:
    if not config.lambda_q > 0.0:
        raise ValidationError(f"lambda_q must be positive, got {config.lambda_q!r}")
    if config.n_samples < 1:
        raise ValidationError(f"n_samples must be at least 1, got {config.n_samples!r}")
    return spectral_decompose(config.spec)


def direct_mmse(spectrum: Spectrum, L: int, lambda_q: float) -> float:
    """Per-component MMSE of estimating X from X + Q (source-eigenvalue form)."""
    s = spectrum
    return (s.lambda_x * lambda_q / (s.lambda_x + lambda_q)
            + (L - 1) * s.gamma_x * lambda_q / (s.gamma_x + lambda_q)) / L


def _shape_symmetric(t: np.ndarray, lam: float, gam: float) -> None:
    """Shape standard-normal columns t, (L, rows), into a symmetric block in place.

    sqrt(gam) T + (sqrt(lam) - sqrt(gam)) mean(T) 1, the mean taken over
    each sample's L components, has covariance gam (I - J/L) + lam J/L:
    eigenvalue lam on the all-ones direction and gam on its complement, for
    every rho, negative ones included.
    """
    root_gam = math.sqrt(gam)
    shift = np.add.reduce(t, axis=0)
    shift *= (math.sqrt(lam) - root_gam) / t.shape[0]
    t *= root_gam
    t += shift


def _block_generator(seed: int, block_index: int):
    """The generator of block block_index: SFC64 keyed by (seed, block_index).

    The block index is the SeedSequence's spawn key, so the stream is the
    block_index-th child of the seed's sequence.  (An entropy list
    [seed, block_index] would not do: it is read as 32-bit words, so seed
    2^32 + s at block 0 would replay seed s at block 1.)
    """
    seq = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(block_index,))
    return np.random.Generator(np.random.SFC64(seq))


def _sample_block(config: SimConfig, spectrum: Spectrum, index: int, n_b: int):
    """Yield block index's n_b samples chunk by chunk, in the coordinate basis.

    Each chunk of rows <= CHUNK_ROWS samples is one C-contiguous (3, L, rows)
    array, a prefix of one buffer that the block allocates once, filled by
    one standard_normal call: T_x, T_z and W_q in turn, each component by
    component, so a sample is a column.  The chunk is shaped in place into
    (X, Z, Q) and yielded.  The next chunk overwrites it, so a caller may
    too.
    """
    s = spectrum
    L = config.spec.L
    rng = _block_generator(config.seed, index)
    buf = np.empty(3 * L * min(CHUNK_ROWS, n_b))
    root_q = math.sqrt(config.lambda_q)
    for start in range(0, n_b, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n_b - start)
        draws = buf[:3 * L * rows].reshape(3, L, rows)
        rng.standard_normal(out=draws)
        x, z, q = draws
        _shape_symmetric(x, s.lambda_x, s.gamma_x)
        _shape_symmetric(z, s.lambda_z, s.gamma_z)
        q *= root_q
        yield draws


def _blocks(n: int):
    index = 0
    done = 0
    while done < n:
        n_b = min(BLOCK_SIZE, n - done)
        yield index, n_b
        index += 1
        done += n_b


def sample_model(config: SimConfig):
    """Draw the full configured batch: arrays X, Z, Q of shape (n_samples, L).

    The samples run_simulation reduces, drawn chunk by chunk through the
    same stream.  Deterministic in config.seed: the same seed always
    yields the same arrays for a given numpy version.  Raises
    ValidationError for a bad config.
    """
    spectrum = _validate_config(config)
    out = np.empty((3, config.n_samples, config.spec.L))
    done = 0
    for index, n_b in _blocks(config.n_samples):
        for draws in _sample_block(config, spectrum, index, n_b):
            rows = draws.shape[2]
            out[:, done:done + rows] = draws.transpose(0, 2, 1)
            done += rows
    return out[0], out[1], out[2]


def _squared_error(x: np.ndarray, obs: np.ndarray, gain_lam: float,
                   gain_gam: float, err: np.ndarray) -> np.ndarray:
    """Per-sample ||X - G obs||^2 / L of columns x, obs, (L, rows); G the
    symmetric matrix with eigenvalue gain_lam on the all-ones direction and
    gain_gam on its complement.

    G obs = gain_gam obs + (gain_lam - gain_gam) mean(obs) 1, so no
    eigenbasis is needed; the norm is the one in the rotated basis.  err,
    shaped like x, is overwritten; it may be obs itself.
    """
    L = x.shape[0]
    shift = np.add.reduce(obs, axis=0)
    shift *= (gain_lam - gain_gam) / L
    np.multiply(obs, -gain_gam, out=err)
    err += x
    err -= shift
    err *= err
    d = np.add.reduce(err, axis=0)
    d /= L
    return d


def _neumaier_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray):
    """One entrywise step of Neumaier's compensated sum; returns (total, comp).

    The reduced value is total + comp.
    """
    t = total + term
    comp = comp + np.where(np.abs(total) >= np.abs(term),
                           (total - t) + term, (term - t) + total)
    return t, comp


def _block_sums(config: SimConfig, spectrum: Spectrum, routed, direct,
                index: int, n_b: int):
    """Block index's (sum d, sum d^2, sum d_direct, Gram of [Y; V]).

    The block's stream is drawn CHUNK_ROWS samples at a time.  Chunk sums
    are reduced with math.fsum and chunk Grams added in chunk order.
    """
    L = config.spec.L
    err_buf = np.empty(L * min(CHUNK_ROWS, n_b))
    d_sums, d_sq_sums, d2_sums = [], [], []
    gram = None
    for draws in _sample_block(config, spectrum, index, n_b):
        x, z, q = draws
        rows = draws.shape[2]
        err = err_buf[:L * rows].reshape(L, rows)
        np.add(x, q, out=err)
        d2 = _squared_error(x, err, *direct, err)
        # Y and V in Z's and Q's rows: the chunk's last 2L rows are [Y; V].
        z += x
        q += z
        d = _squared_error(x, q, *routed, err)
        d_sums.append(float(np.sum(d)))
        d_sq_sums.append(float(np.sum(d * d)))
        d2_sums.append(float(np.sum(d2)))
        yv = draws[1:].reshape(2 * L, rows)
        if gram is None:
            gram = yv @ yv.T
        else:
            gram += yv @ yv.T
    return math.fsum(d_sums), math.fsum(d_sq_sums), math.fsum(d2_sums), gram


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_simulation(config: SimConfig) -> SimResult:
    """Run the full blocked simulation and return all measurements.

    Accumulates, per block: sums and squared sums of the per-sample
    distortion for both estimators (Y-routed and direct), and the raw
    second-moment matrix of (Y, V) in the coordinate basis for the
    mutual-information estimate.  Blocks run on a thread pool; scalar sums
    are reduced in block order with math.fsum, the moment matrices with an
    entrywise compensated sum.  Each call runs the full simulation; equal
    configs give equal results.
    """
    return _simulate(config, None)


def _simulate(config: SimConfig, workers: int | None) -> SimResult:
    """run_simulation on at most workers threads (None: one per available CPU)."""
    spectrum = _validate_config(config)
    s = spectrum
    L, n, lam_q = config.spec.L, config.n_samples, config.lambda_q

    routed = (s.lambda_x / (s.lambda_y + lam_q), s.gamma_x / (s.gamma_y + lam_q))
    direct = (s.lambda_x / (s.lambda_x + lam_q) if s.lambda_x > 0.0 else 0.0,
              s.gamma_x / (s.gamma_x + lam_q) if s.gamma_x > 0.0 else 0.0)

    def block(index_rows):
        return _block_sums(config, spectrum, routed, direct, *index_rows)

    blocks = list(_blocks(n))
    workers = min(workers or _available_cpus(), len(blocks))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(block, blocks))
    else:
        sums = [block(b) for b in blocks]
    d_sums, d_sq_sums, d2_sums, grams = zip(*sums)
    # The sum starts at the first Gram: adding it to zeros is exact.
    total, comp = grams[0], np.zeros_like(grams[0])
    for gram in grams[1:]:
        total, comp = _neumaier_add(total, comp, gram)

    d_total = math.fsum(d_sums)
    d_sq_total = math.fsum(d_sq_sums)
    mean = d_total / n
    if n > 1:
        var = max(d_sq_total - n * mean * mean, 0.0) / (n - 1)
        std_err = math.sqrt(var / n)
    else:
        std_err = 0.0
    direct_mean = math.fsum(d2_sums) / n

    # The log-det rate is invariant under the orthogonal map diag(Theta,
    # Theta), so the coordinate-basis moments give the eigenbasis value.
    moments = (total + comp) / n
    sign_y, logdet_y = np.linalg.slogdet(moments[:L, :L])
    sign_v, logdet_v = np.linalg.slogdet(moments[L:, L:])
    sign_j, logdet_j = np.linalg.slogdet(moments)
    if min(sign_y, sign_v, sign_j) > 0.0:
        rate_empirical = 0.5 * (logdet_y + logdet_v - logdet_j)
    else:
        rate_empirical = math.nan

    closed = distortion_of(spectrum, L, lam_q)
    return SimResult(
        n_samples=n,
        lambda_q=lam_q,
        distortion_empirical=mean,
        distortion_closed_form=closed,
        distortion_direct_empirical=direct_mean,
        distortion_direct_closed_form=direct_mmse(spectrum, L, lam_q),
        rate_closed_form=rate_of(spectrum, L, lam_q),
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
    spectrum = _validate_config(config)
    closed = rate_of(spectrum, config.spec.L, config.lambda_q)
    result = run_simulation(config)
    L, n = config.spec.L, config.n_samples
    if n < 2 * L or math.isnan(result.rate_empirical):
        raise PrecisionError(
            f"sample covariance not positive definite at n = {n}; "
            "cannot estimate the empirical rate"
        )
    bias, sd = rate_bias_band(L, n)
    offset = result.rate_empirical - closed
    if abs(offset - bias) > RATE_BAND_SIGMAS * sd:
        raise PrecisionError(
            f"empirical rate {result.rate_empirical!r} exceeds the closed form "
            f"{closed!r} by {offset!r}, outside the estimator's bias {bias!r} "
            f"+- {RATE_BAND_SIGMAS * sd!r}"
        )
    return closed
