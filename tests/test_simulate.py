"""Tests for the seeded Monte-Carlo achievability simulator.

The empirical checks use fixed seeds so every run is deterministic. The
frozen direct-MMSE constant was computed independently with an mpmath
program at 50 decimal digits.
"""

import concurrent.futures
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import symrd.model
import symrd.simulate
from symrd import (
    PrecisionError,
    SimConfig,
    SourceSpec,
    ValidationError,
    analytic_rate,
    d_min,
    distortion_of,
    eigenbasis,
    from_eigenvalues,
    rate_of,
    run_simulation,
    sample_model,
    solve_lambda_q,
    source_variance,
    spectral_decompose,
)
from symrd.simulate import (
    BLOCK_SIZE,
    CHUNK_ROWS,
    _neumaier_add,
    direct_mmse,
    rate_bias_band,
)

L_CASES = 10
CASE1 = (0.8, 1.0, 5.0, 4.0)

# 50-digit reference: test-channel variance solving the case-1 distortion
# constraint at D = 0.85, and the direct (unrouted) X + Q estimator's MMSE
# at that same variance.
CASE1_LAMBDA_Q_AT_085 = 3.35647126829087463107618961374
CASE1_DIRECT_MMSE = 0.758013103784151919238018500817


def _case1_config(n=100_000, seed=20240517):
    spec = from_eigenvalues(L_CASES, *CASE1)
    return SimConfig(spec, CASE1_LAMBDA_Q_AT_085, n, seed)


def test_direct_mmse_frozen():
    s = spectral_decompose(from_eigenvalues(L_CASES, *CASE1))
    got = direct_mmse(s, L_CASES, CASE1_LAMBDA_Q_AT_085)
    assert abs(got - CASE1_DIRECT_MMSE) < 1e-13
    # the routed and direct estimators genuinely disagree at this probe
    assert abs(0.85 - CASE1_DIRECT_MMSE) > 0.05


def test_run_is_deterministic():
    cfg = _case1_config(n=20_000)
    first = run_simulation(cfg)
    second = run_simulation(cfg)
    assert first == second


def test_repeat_call_recomputes_equal_result():
    # no hidden cache: a second call on one config runs again and returns
    # an equal, distinct SimResult
    cfg = _case1_config(n=20_000)
    first, second = run_simulation(cfg), run_simulation(cfg)
    assert first == second
    assert first is not second


def test_different_seeds_differ():
    r1 = run_simulation(_case1_config(n=20_000, seed=1))
    r2 = run_simulation(_case1_config(n=20_000, seed=2))
    assert r1.distortion_empirical != r2.distortion_empirical


def test_sample_shapes_across_block_boundary():
    n = BLOCK_SIZE + 17
    cfg = _case1_config(n=n)
    x, z, q = sample_model(cfg)
    assert x.shape == (n, L_CASES)
    assert z.shape == (n, L_CASES)
    assert q.shape == (n, L_CASES)


def test_block_layout_is_offset_invariant():
    # the first samples of a long run equal the full short run: streams are
    # keyed per block, not per run length
    short = sample_model(_case1_config(n=BLOCK_SIZE))
    long = sample_model(_case1_config(n=BLOCK_SIZE + 1000))
    for a, b in zip(short, long):
        assert np.array_equal(a, b[:BLOCK_SIZE])


def test_empirical_distortion_within_band():
    cfg = _case1_config(n=200_000)
    res = run_simulation(cfg)
    assert abs(res.distortion_closed_form - 0.85) < 1e-12
    assert abs(res.distortion_empirical - 0.85) <= 4.0 * res.std_err
    assert res.matches_routed_identity


def test_direct_estimator_reported_alongside():
    res = run_simulation(_case1_config(n=200_000))
    assert abs(res.distortion_direct_closed_form - CASE1_DIRECT_MMSE) < 1e-12
    # direct empirical concentrates near its own closed form, far from D
    assert abs(res.distortion_direct_empirical - CASE1_DIRECT_MMSE) < 0.01
    assert abs(res.distortion_direct_empirical - 0.85) > 0.05


def test_rate_closed_form_matches_channel_rate():
    s = spectral_decompose(from_eigenvalues(L_CASES, *CASE1))
    res = run_simulation(_case1_config(n=20_000))
    assert res.rate_closed_form == rate_of(s, L_CASES, CASE1_LAMBDA_Q_AT_085)
    assert abs(res.lambda_q - CASE1_LAMBDA_Q_AT_085) == 0.0


def test_empirical_rate_within_band():
    for n in (10_000, 100_000):
        res = run_simulation(_case1_config(n=n))
        band = 6.0 * math.sqrt(8.0 * L_CASES / n) + 50.0 * L_CASES ** 2 / n
        assert abs(res.rate_empirical - res.rate_closed_form) <= band


def test_analytic_rate_returns_closed_form():
    cfg = _case1_config(n=100_000)
    assert analytic_rate(cfg) == run_simulation(cfg).rate_closed_form


def test_analytic_rate_rejects_degenerate_sample():
    # far fewer samples than dimensions: the joint second-moment matrix is
    # singular and the empirical mutual information is undefined
    with pytest.raises(PrecisionError):
        analytic_rate(_case1_config(n=5))


def test_sampled_covariance_matches_model():
    spec = SourceSpec(4, 1.0, 0.3, 0.25, 0.1)
    cfg = SimConfig(spec, 1.0, 300_000, 8151)
    x, z, q = sample_model(cfg)
    cx = x.T @ x / cfg.n_samples
    assert np.max(np.abs(np.diag(cx) - 1.0)) < 0.01
    off = cx[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off - 0.3)) < 0.01
    cz = z.T @ z / cfg.n_samples
    assert np.max(np.abs(np.diag(cz) - 0.25)) < 0.01
    cq = q.T @ q / cfg.n_samples
    assert np.max(np.abs(cq - np.eye(4) * cfg.lambda_q)) < 0.01


def test_negative_correlation_covariance():
    # rho < 0 shares the one sampling path; the sampled covariance must
    # still match the model
    spec = SourceSpec(3, 1.0, -0.3, 0.0, 0.0)
    cfg = SimConfig(spec, 1.0, 300_000, 977)
    x, _, _ = sample_model(cfg)
    cx = x.T @ x / cfg.n_samples
    assert np.max(np.abs(np.diag(cx) - 1.0)) < 0.01
    off = cx[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off + 0.3)) < 0.01


def test_fully_correlated_components_identical():
    # rho_x = 1 collapses the source to a single common factor (the noise
    # keeps gamma_y positive so the spec stays valid)
    spec = SourceSpec(4, 2.0, 1.0, 1.0, 0.0)
    x, _, _ = sample_model(SimConfig(spec, 0.5, 1000, 3))
    for j in range(1, 4):
        assert np.array_equal(x[:, 0], x[:, j])


def test_noiseless_observation_samples_zero_z():
    spec = SourceSpec(4, 2.0, 0.3, 0.0, 0.0)
    _, z, _ = sample_model(SimConfig(spec, 0.5, 1000, 3))
    assert not z.any()


def test_lambda_q_limits_of_closed_forms():
    s = spectral_decompose(from_eigenvalues(L_CASES, *CASE1))
    assert abs(distortion_of(s, L_CASES, 1e-9) - d_min(s, L_CASES)) < 1e-9
    assert abs(distortion_of(s, L_CASES, 1e12)
               - source_variance(s, L_CASES)) < 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lambda_q=0.0),
        dict(lambda_q=-1.0),
        dict(n_samples=0),
    ],
)
def test_config_validation(kwargs):
    spec = from_eigenvalues(L_CASES, *CASE1)
    base = dict(spec=spec, lambda_q=1.0, n_samples=100, seed=0)
    base.update(kwargs)
    with pytest.raises(ValidationError):
        run_simulation(SimConfig(**base))


def test_config_validates_spec():
    bad = SourceSpec(1, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        run_simulation(SimConfig(bad, 1.0, 100, 0))


def test_distortion_consistent_with_noisier_channel():
    # more test-channel noise means strictly more distortion, reflected in
    # both the closed form and (at this sample size) the empirical estimate
    spec = from_eigenvalues(L_CASES, *CASE1)
    lo = run_simulation(SimConfig(spec, 1.0, 100_000, 12))
    hi = run_simulation(SimConfig(spec, 8.0, 100_000, 12))
    assert hi.distortion_closed_form > lo.distortion_closed_form
    assert hi.distortion_empirical > lo.distortion_empirical


def _eigenbasis_replay(cfg):
    """Distortions and rate of cfg, recomputed in the rotated basis.

    Projects sample_model's arrays through eigenbasis, applies the gains as
    a diagonal there, and takes the log-dets of the rotated (Y, V) moments.
    """
    L, n, lam_q = cfg.spec.L, cfg.n_samples, cfg.lambda_q
    s = spectral_decompose(cfg.spec)
    x, z, q = sample_model(cfg)
    theta = eigenbasis(L)
    xe, ye, qe = x @ theta, (x + z) @ theta, q @ theta
    ve = ye + qe
    routed = np.full(L, s.gamma_x / (s.gamma_y + lam_q))
    routed[0] = s.lambda_x / (s.lambda_y + lam_q)
    direct = np.full(L, s.gamma_x / (s.gamma_x + lam_q))
    direct[0] = s.lambda_x / (s.lambda_x + lam_q)
    d = float(np.sum((xe - routed * ve) ** 2)) / (n * L)
    d2 = float(np.sum((xe - direct * (xe + qe)) ** 2)) / (n * L)
    w = np.hstack([ye, ve])
    m = w.T @ w / n
    rate = 0.5 * (np.linalg.slogdet(m[:L, :L])[1] + np.linalg.slogdet(m[L:, L:])[1]
                  - np.linalg.slogdet(m)[1])
    return d, d2, rate


@pytest.mark.parametrize("rho_x, rho_z", [(0.35, 0.2), (-0.1, -0.05)])
def test_coordinate_basis_matches_eigenbasis_replay(rho_x, rho_z):
    cfg = SimConfig(SourceSpec(7, 1.3, rho_x, 0.6, rho_z), 0.8, 5000, 4242)
    d, d2, rate = _eigenbasis_replay(cfg)
    res = run_simulation(cfg)
    assert abs(res.distortion_empirical - d) <= 1e-12 * d
    assert abs(res.distortion_direct_empirical - d2) <= 1e-12 * d2
    assert abs(res.rate_empirical - rate) <= 1e-10


def test_chunked_stream_matches_block_replay():
    # sample_model keeps every chunk of the stream; run_simulation reduces
    # each chunk as it is drawn and then draws over it.  L = 2 ends in a
    # partial chunk; at L = 12 the second block is partial and ends in a
    # partial chunk; L = 240 with n = 6L is one block of one chunk, the
    # shape of the benchmark's wide runs.
    cases = [(2, 3 * CHUNK_ROWS + 5), (12, BLOCK_SIZE + 5000), (240, 6 * 240)]
    assert cases[0][1] < BLOCK_SIZE and cases[0][1] % CHUNK_ROWS != 0
    assert cases[1][1] % BLOCK_SIZE % CHUNK_ROWS != 0
    assert cases[2][1] <= CHUNK_ROWS
    for L, n in cases:
        cfg = SimConfig(SourceSpec(L, 1.3, 0.35, 0.6, 0.2), 0.8, n, 4243)
        d, d2, rate = _eigenbasis_replay(cfg)
        res = run_simulation(cfg)
        assert abs(res.distortion_empirical - d) <= 1e-12 * d, L
        assert abs(res.distortion_direct_empirical - d2) <= 1e-12 * d2, L
        assert abs(res.rate_empirical - rate) <= 1e-10, L


def test_stream_keys_give_uncorrelated_streams():
    # The first chunks of neighbouring (seed, block) keys must not share a
    # stream.  (5, 1) against (2^32 + 5, 0) guards the key encoding: read
    # as one list of 32-bit words, the two keys would be equal.  No draw
    # value is pinned: numpy does not promise standard_normal's stream
    # across versions.
    n = 3 * CHUNK_ROWS * 4
    groups = [[(s, 0), (s, 1), (s + 1, 0)] for s in (0, 77)]
    groups.append([(5, 1), (2**32 + 5, 0)])
    for keys in groups:
        draws = {key: symrd.simulate._block_generator(*key).standard_normal(n)
                 for key in keys}
        for a, b in itertools.combinations(keys, 2):
            corr = np.corrcoef(draws[a], draws[b])[0, 1]
            assert abs(corr) <= 5.0 / math.sqrt(n), (a, b)


def test_result_does_not_depend_on_worker_count():
    # four blocks, the last one partial
    cfg = SimConfig(SourceSpec(3, 1.0, 0.4, 0.5, -0.2), 0.7,
                    3 * BLOCK_SIZE + 1234, 99)
    one, two, three = (symrd.simulate._simulate(cfg, w) for w in (1, 2, 3))
    assert one == two == three
    assert run_simulation(cfg) == one


def test_one_block_run_starts_no_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("thread pool created")
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", forbidden)
    res = symrd.simulate._simulate(_case1_config(n=BLOCK_SIZE), 4)
    assert math.isfinite(res.distortion_empirical)
    # the patch does reach a run of two blocks
    with pytest.raises(AssertionError, match="thread pool"):
        symrd.simulate._simulate(_case1_config(n=BLOCK_SIZE + 1), 2)


def test_memory_does_not_grow_with_block_size():
    L = 12
    cfg = SimConfig(SourceSpec(L, 1.0, 0.3, 0.5, 0.2), 0.7,
                    2 * BLOCK_SIZE + 1234, 1)
    # A worker holds one (3, L, CHUNK_ROWS) buffer of draws, shaped in place
    # into X, Z and Q, whose Z and Q rows then take Y and V, and one
    # (L, CHUNK_ROWS) buffer for the error rows: 4L CHUNK_ROWS doubles,
    # 0.8 MB at L = 12.  Add four row vectors (the mean shift, the two
    # per-sample errors and their squares) and two 2L x 2L Grams (the
    # running sum and one chunk's).  Three blocks run on three workers:
    # 2.6 MB in all.  The 3 MB limit leaves room for interpreter
    # allocations; one whole block of draws would take 38 MB by itself.
    bound = 3 * ((4 * L + 4) * CHUNK_ROWS + 2 * (2 * L) ** 2) * 8
    limit = 3e6
    assert bound < limit < BLOCK_SIZE * 3 * L * 8
    tracemalloc.start()
    try:
        symrd.simulate._simulate(cfg, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_compensated_moment_sum_matches_fsum():
    # three full blocks and a remainder, reduced as run_simulation does
    L = 3
    cfg = SimConfig(SourceSpec(L, 1.0, 0.4, 0.5, -0.2), 0.7,
                    3 * BLOCK_SIZE + 1234, 99)
    x, z, q = sample_model(cfg)
    y = x + z
    w = np.hstack([y, y + q])
    blocks = [w[i:i + BLOCK_SIZE].T @ w[i:i + BLOCK_SIZE]
              for i in range(0, cfg.n_samples, BLOCK_SIZE)]
    assert len(blocks) == 4
    total = comp = np.zeros((2 * L, 2 * L))
    for b in blocks:
        total, comp = _neumaier_add(total, comp, b)
    want = np.array([[math.fsum(b[i, j] for b in blocks) for j in range(2 * L)]
                     for i in range(2 * L)])
    assert np.max(np.abs((total + comp) - want) / np.abs(want)) <= 1e-12
    # the compensation recovers what plain summation loses
    terms = [np.array([1e16]), np.array([1.0]), np.array([-1e16]), np.array([1.0])]
    total = comp = np.zeros(1)
    for t in terms:
        total, comp = _neumaier_add(total, comp, t)
    assert sum(t[0] for t in terms) != 2.0
    assert (total + comp)[0] == 2.0


def test_run_needs_no_eigenbasis(monkeypatch):
    def forbidden(L):
        raise AssertionError("eigenbasis called")
    monkeypatch.setattr(symrd.model, "eigenbasis", forbidden)
    monkeypatch.setattr(symrd.simulate, "eigenbasis", forbidden)
    res = run_simulation(SimConfig(SourceSpec(300, 1.0, 0.2, 0.5, 0.1), 0.7,
                                   1800, 5))
    assert math.isfinite(res.distortion_empirical)
    assert math.isfinite(res.rate_empirical)


def test_rate_bias_special_functions():
    special = pytest.importorskip("scipy.special")
    from symrd.simulate import _psi_minus_log, _trigamma
    for x in (0.5, 1.0, 3.7, 8.0, 12.5, 1e3, 1e6):
        assert abs(_psi_minus_log(x) + math.log(x) - special.digamma(x)) <= 1e-10
        assert abs(_trigamma(x) / special.polygamma(1, x) - 1.0) <= 1e-9


def test_analytic_rate_band_can_fail(monkeypatch):
    # At L = 200, n = 2000 the log-det estimate sits about 11 nats above the
    # closed form (exact Wishart bias 11.14, sd <= 0.79); the band is centred
    # on that bias, so a result moved by 6 nats is rejected.
    cfg = SimConfig(SourceSpec(200, 1.0, 0.3, 0.5, 0.2), 0.7, 2000, 31)
    bias, sd = rate_bias_band(200, 2000)
    assert abs(bias - 11.137) < 1e-3 and sd < 0.8
    real = run_simulation(cfg)
    assert analytic_rate(cfg) == real.rate_closed_form
    moved = dataclasses.replace(real, rate_empirical=real.rate_empirical + 6.0)
    monkeypatch.setattr(symrd.simulate, "run_simulation", lambda config: moved)
    with pytest.raises(PrecisionError, match="bias"):
        analytic_rate(cfg)
