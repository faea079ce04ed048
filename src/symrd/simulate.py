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
an eigenbasis.  Samples are drawn in the coordinate basis: L standard
normals T a row are shaped in place into sqrt(gamma) T
+ (sqrt(lambda) - sqrt(gamma)) mean_row(T) 1, which has the model's law
for every rho, so a row of (X, Z, Q) costs 3L normals; an estimator with
gains g_lambda, g_gamma maps an observation row o to g_gamma o
+ (g_lambda - g_gamma) mean_row(o) 1; and the log-det rate is invariant
under the orthogonal change of basis, so the (Y, V) moments stay in the
coordinate basis.  n samples therefore cost O(nL) plus one Gram product
per chunk.  Each block is streamed in chunks of CHUNK_ROWS rows into
buffers it allocates once: the draws, shaped in place into X, Z and Q,
[Y | V] and the error rows (Z's buffer takes X + Q once Y is formed).
A chunk's buffers and its Gram product stay in cache, and a block returns
only its three scalar sums and its Gram.  The blocks run on a thread
pool of min(available CPUs, blocks) workers (numpy's RNG and array
kernels release the GIL); a run of one block starts no pool.  Memory is
O(workers CHUNK_ROWS L + L^2), not O(BLOCK_SIZE L).

Reproducibility: sampling is partitioned into fixed-size blocks, each drawn
from an SFC64 generator keyed through SeedSequence by (seed, block_index).
The stream is chunk-major: each chunk draws its T_x, T_z and W_q in turn,
so a block's samples depend on CHUNK_ROWS, and sample_model draws the
same chunks as run_simulation.  Scalar sums are reduced in block-index
order with math.fsum, and the moment matrices with one vectorised
compensated (Neumaier) sum, so the result is bit-identical for a given
seed under any worker count or schedule, and identical to 1e-12 under any
re-partition of the block sums.
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
# Rows drawn at a time within a block.  A worker's buffers take 6L doubles
# a row (3L draws, 2L for [Y | V], L for the error rows): 2.4 MB at
# L = 12, so a chunk's arrays stay in cache.
CHUNK_ROWS = 4096


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


def _row_mean(a: np.ndarray) -> np.ndarray:
    # A mat-vec: several times faster than a.mean(axis=1) on tall, narrow blocks.
    return a @ np.full(a.shape[1], 1.0 / a.shape[1])


def _shape_symmetric(t: np.ndarray, lam: float, gam: float) -> None:
    """Shape standard-normal rows t in place into one symmetric Gaussian block.

    sqrt(gam) T + (sqrt(lam) - sqrt(gam)) mean_row(T) 1 has covariance
    gam (I - J/L) + lam J/L: eigenvalue lam on the all-ones direction and
    gam on its complement, for every rho, negative ones included.
    """
    root_gam = math.sqrt(gam)
    shift = (math.sqrt(lam) - root_gam) * _row_mean(t)
    t *= root_gam
    t += shift[:, None]


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

    Each chunk of up to CHUNK_ROWS rows draws T_x, T_z and W_q, in that
    order, as three contiguous (rows, L) standard-normal arrays into one
    buffer that the block allocates once, shapes them in place and yields
    the views (X, Z, Q).  The next chunk overwrites them, so a caller may
    too.
    """
    s = spectrum
    rng = _block_generator(config.seed, index)
    draws = np.empty((3, min(CHUNK_ROWS, n_b), config.spec.L))
    root_q = math.sqrt(config.lambda_q)
    for start in range(0, n_b, CHUNK_ROWS):
        x, z, q = draws[:, :min(CHUNK_ROWS, n_b - start)]
        for t in (x, z, q):
            rng.standard_normal(out=t)
        _shape_symmetric(x, s.lambda_x, s.gamma_x)
        _shape_symmetric(z, s.lambda_z, s.gamma_z)
        q *= root_q
        yield x, z, q


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
        for chunk in _sample_block(config, spectrum, index, n_b):
            rows = chunk[0].shape[0]
            for dest, a in zip(out, chunk):
                dest[done:done + rows] = a
            done += rows
    return out[0], out[1], out[2]


def _squared_error(x: np.ndarray, obs: np.ndarray, gain_lam: float,
                   gain_gam: float, err: np.ndarray) -> np.ndarray:
    """Per-sample ||X - G obs||^2, G the symmetric matrix with eigenvalue
    gain_lam on the all-ones direction and gain_gam on its complement.

    G obs = gain_gam obs + (gain_lam - gain_gam) mean_row(obs) 1, so no
    eigenbasis is needed; the norm is the one in the rotated basis.  err,
    shaped like x, is overwritten.
    """
    np.multiply(obs, -gain_gam, out=err)
    err += x
    err -= ((gain_lam - gain_gam) * _row_mean(obs))[:, None]
    return np.einsum("ij,ij->i", err, err)


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
    """Block index's (sum d, sum d^2, sum d_direct, Gram of [Y | V]).

    The block's stream is drawn CHUNK_ROWS rows at a time.  Chunk sums are
    reduced with math.fsum and chunk Grams added in chunk order.
    """
    L = config.spec.L
    size = min(CHUNK_ROWS, n_b)
    # [Y | V] in one buffer, so the Gram product needs no copy.
    yv_buf = np.empty((size, 2 * L))
    err_buf = np.empty((size, L))
    d_sums, d_sq_sums, d2_sums = [], [], []
    gram = None
    for x, z, q in _sample_block(config, spectrum, index, n_b):
        rows = x.shape[0]
        yv, err = yv_buf[:rows], err_buf[:rows]
        y, v = yv[:, :L], yv[:, L:]
        np.add(x, z, out=y)
        np.add(y, q, out=v)
        d = _squared_error(x, v, *routed, err) / L
        np.add(x, q, out=z)
        d2 = _squared_error(x, z, *direct, err) / L
        d_sums.append(float(np.sum(d)))
        d_sq_sums.append(float(np.sum(d * d)))
        d2_sums.append(float(np.sum(d2)))
        if gram is None:
            gram = yv.T @ yv
        else:
            gram += yv.T @ yv
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
