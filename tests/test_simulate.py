"""Tests for the seeded Monte-Carlo achievability simulator.

The empirical checks use fixed seeds so every run is deterministic. The
frozen direct-MMSE constant was computed independently with an mpmath
program at 50 decimal digits.
"""

import dataclasses
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
    covariance_matrix,
    d_min,
    distortion_of,
    eigenbasis,
    from_eigenvalues,
    rate_of,
    run_simulation,
    solve_lambda_q,
    source_variance,
    spectral_decompose,
)
from symrd.simulate import direct_mmse, rate_bias_band

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


def _reference_samples(spec, lambda_q, n, seed):
    """n samples of (X, Z, Q) as (n, L) arrays, drawn one sample per row.

    Each source is shaped by the symmetric square root of its covariance,
    built on the eigenbasis; the stream is numpy's default generator, not
    the simulator's.
    """
    L, s = spec.L, spectral_decompose(spec)
    theta = eigenbasis(L)

    def root(lam, gam):
        return (theta * np.sqrt([lam] + [gam] * (L - 1))) @ theta.T

    rng = np.random.default_rng([seed, 1])
    x = rng.standard_normal((n, L)) @ root(s.lambda_x, s.gamma_x)
    z = rng.standard_normal((n, L)) @ root(s.lambda_z, s.gamma_z)
    return x, z, math.sqrt(lambda_q) * rng.standard_normal((n, L))


def _reference_statistics(spec, lambda_q, x, z, q):
    """Routed and direct mean distortions and the log-det rate of samples.

    The estimators are the full MMSE gain matrices of the explicit
    covariances; the rate takes three full log-determinants.
    """
    n, L = x.shape
    eye = np.eye(L)
    cx = covariance_matrix(L, spec.sigma_x_sq, spec.rho_x)
    cy = cx + covariance_matrix(L, spec.sigma_z_sq, spec.rho_z)
    routed = np.linalg.solve(cy + lambda_q * eye, cx)
    direct = np.linalg.solve(cx + lambda_q * eye, cx)
    y = x + z
    v = y + q
    d = float(np.sum((x - v @ routed) ** 2)) / (n * L)
    d2 = float(np.sum((x - (x + q) @ direct) ** 2)) / (n * L)
    w = np.hstack([y, v])
    m = w.T @ w / n
    rate = 0.5 * (np.linalg.slogdet(m[:L, :L])[1] + np.linalg.slogdet(m[L:, L:])[1]
                  - np.linalg.slogdet(m)[1])
    return d, d2, rate


def test_sampled_covariance_matches_model():
    spec = SourceSpec(4, 1.0, 0.3, 0.25, 0.1)
    n = 300_000
    x, z, q = _reference_samples(spec, 1.0, n, 8151)
    cx = x.T @ x / n
    assert np.max(np.abs(np.diag(cx) - 1.0)) < 0.01
    off = cx[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off - 0.3)) < 0.01
    cz = z.T @ z / n
    assert np.max(np.abs(np.diag(cz) - 0.25)) < 0.01
    cq = q.T @ q / n
    assert np.max(np.abs(cq - np.eye(4))) < 0.01


def test_negative_correlation_covariance():
    # rho < 0 shares the one sampling path; the sampled covariance must
    # still match the model
    spec = SourceSpec(3, 1.0, -0.3, 0.0, 0.0)
    n = 300_000
    x, _, _ = _reference_samples(spec, 1.0, n, 977)
    cx = x.T @ x / n
    assert np.max(np.abs(np.diag(cx) - 1.0)) < 0.01
    off = cx[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off + 0.3)) < 0.01


def test_fully_correlated_components_identical():
    # rho_x = 1 collapses the source to a single common factor (the noise
    # keeps gamma_y positive so the spec stays valid)
    spec = SourceSpec(4, 2.0, 1.0, 1.0, 0.0)
    x, _, _ = _reference_samples(spec, 0.5, 1000, 3)
    for j in range(1, 4):
        assert np.array_equal(x[:, 0], x[:, j])


def test_noiseless_observation_samples_zero_z():
    spec = SourceSpec(4, 2.0, 0.3, 0.0, 0.0)
    _, z, _ = _reference_samples(spec, 0.5, 1000, 3)
    assert not z.any()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_statistics_match_per_sample_reference(sign):
    # The means over 400 seeds of the three sampled statistics agree with
    # those of the per-sample reference, and the spread of the distortion
    # with std_err; n = 30 < 3L takes the trapezoidal factor, and
    # n = 30 >= 2L keeps the rate defined.
    L, lam_q, seeds = 12, 0.7, range(400)
    spec = SourceSpec(L, 1.0, 0.5 if sign > 0 else -0.06, 0.6, 0.3 if sign > 0 else -0.04)
    for n in (30, 200, 5000):
        runs = [run_simulation(SimConfig(spec, lam_q, n, s)) for s in seeds]
        ours = np.array([[r.distortion_empirical, r.distortion_direct_empirical,
                          r.rate_empirical] for r in runs])
        assert abs(ours[:, 0].std(ddof=1) / runs[0].std_err - 1.0) <= 0.15, n
        ref = np.array([_reference_statistics(spec, lam_q,
                                              *_reference_samples(spec, lam_q, n, s))
                        for s in seeds])
        se = np.sqrt((ours.var(axis=0, ddof=1) + ref.var(axis=0, ddof=1)) / len(seeds))
        z = (ours.mean(axis=0) - ref.mean(axis=0)) / se
        assert np.all(np.abs(z) <= 4.0), (n, z)


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
    """Distortions and rate of cfg, recomputed from its Bartlett factor.

    Maps each mode's rows of T through the Cholesky factor of that mode's
    explicit (Y, V, X) covariance, rotates the rows to the coordinate
    basis with eigenbasis, and hands them to _reference_statistics as
    samples: the Gram of those columns is the Gram of the run.
    """
    spec, L, n, lam_q = cfg.spec, cfg.spec.L, cfg.n_samples, cfg.lambda_q
    s = spectral_decompose(spec)

    def factor(vx, vz):
        vy = vx + vz
        return np.linalg.cholesky([[vy, vy, vx], [vy, vy + lam_q, vx], [vx, vx, vx]])

    c = np.array([factor(s.lambda_x, s.lambda_z)]
                 + [factor(s.gamma_x, s.gamma_z)] * (L - 1))
    t = symrd.simulate._bartlett_factor(cfg.seed, 3 * L, n).reshape(3, L, -1)
    y, v, x = eigenbasis(L) @ np.einsum("mab,bmk->amk", c, t)
    # _reference_statistics divides by the sample count, not by T's width.
    cols = [np.sqrt(x.shape[1] / n) * r.T for r in (x, y - x, v - y)]
    return _reference_statistics(spec, lam_q, *cols)


def _assert_replayed(cfg):
    d, d2, rate = _eigenbasis_replay(cfg)
    res = run_simulation(cfg)
    assert abs(res.distortion_empirical - d) <= 1e-12 * d
    assert abs(res.distortion_direct_empirical - d2) <= 1e-12 * d2
    if cfg.n_samples >= 2 * cfg.spec.L:
        assert abs(res.rate_empirical - rate) <= 1e-10
    else:
        assert math.isnan(res.rate_empirical)


@pytest.mark.parametrize("rho_x, rho_z", [(0.35, 0.2), (-0.1, -0.05)])
def test_coordinate_basis_matches_eigenbasis_replay(rho_x, rho_z):
    _assert_replayed(SimConfig(SourceSpec(7, 1.3, rho_x, 0.6, rho_z), 0.8, 5000, 4242))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("L, n", [(12, 30), (12, 23), (2, 1), (3, 10**12), (240, 6 * 240)])
def test_trapezoidal_factor_matches_eigenbasis_replay(L, n):
    # 2L <= n < 3L and n < 2L take a trapezoidal factor (the rate is NaN
    # below 2L); n = 1 is one column; n = 10^12 is far beyond any sample
    # loop; L = 240 with n = 6L is the shape of the benchmark's wide runs.
    _assert_replayed(SimConfig(SourceSpec(L, 1.3, 0.35, 0.6, 0.2), 0.8, n, 4243))


def test_stream_keys_give_uncorrelated_streams():
    # Neighbouring seeds must not share a stream.  5 against 2^32 + 5
    # guards the key encoding: SeedSequence reads a seed as 32-bit words.
    # No draw value is pinned: numpy does not promise standard_normal's
    # stream across versions.
    p, n = 300, 10**6
    lower = np.tri(p, p, -1, dtype=bool)
    for keys in ([0, 1], [77, 78], [5, 2**32 + 5]):
        draws = [symrd.simulate._bartlett_factor(k, p, n)[lower] for k in keys]
        corr = np.corrcoef(*draws)[0, 1]
        assert abs(corr) <= 5.0 / math.sqrt(draws[0].size), keys


def test_memory_does_not_grow_with_n():
    # A run holds the 3L x min(n, 3L) factor and one L x min(n, 3L) error
    # block, whatever n is.
    def peak(n):
        cfg = SimConfig(SourceSpec(12, 1.0, 0.3, 0.5, 0.2), 0.7, n, 1)
        tracemalloc.start()
        try:
            run_simulation(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10**3)  # first-call allocations of numpy's linalg
    small, big = peak(10**3), peak(10**12)
    # equal up to a few small interpreter objects (measured: 16 bytes apart)
    assert abs(big - small) <= 1024 and big < 100_000


def test_singular_gram_gives_nan_rate():
    # Fewer than 2L samples make the (Y, V) moment matrix exactly singular:
    # the rate is NaN, never a finite number read off a rounded matrix.
    L = 12
    spec = SourceSpec(L, 1.0, 0.3, 0.5, 0.2)
    for n in (1, L, 2 * L - 1):
        for seed in range(6):
            cfg = SimConfig(spec, 0.7, n, seed)
            assert math.isnan(run_simulation(cfg).rate_empirical), (n, seed)
            with pytest.raises(PrecisionError, match="not positive definite"):
                analytic_rate(cfg)
    assert type(run_simulation(SimConfig(spec, 0.7, 2 * L, 0)).rate_empirical) is float


def test_tiny_scale_is_the_unit_problem_scaled():
    # Every distortion is of degree 1 in the variances and every rate of
    # degree 0; c = 4^-330 is an exact power of four, so the scaled run
    # draws the same factor and nothing underflows.
    c = 4.0 ** -330
    unit = run_simulation(SimConfig(SourceSpec(10, 1.0, 0.3, 2.0, 0.5), 0.9, 10**5, 7))
    tiny = run_simulation(SimConfig(SourceSpec(10, c, 0.3, 2.0 * c, 0.5), 0.9 * c, 10**5, 7))
    for name in ("distortion_empirical", "distortion_closed_form", "std_err",
                 "distortion_direct_empirical", "distortion_direct_closed_form"):
        want = c * getattr(unit, name)
        assert abs(getattr(tiny, name) - want) <= 1e-15 * want, name
    assert abs(tiny.rate_empirical - unit.rate_empirical) <= 1e-12
    assert abs(tiny.rate_closed_form - unit.rate_closed_form) <= 1e-12
    assert tiny.matches_routed_identity == unit.matches_routed_identity
    # at a scale that is not a power of four nothing reads 0 either
    res = run_simulation(SimConfig(SourceSpec(10, 1e-200, 0.3, 2e-200, 0.5), 0.9e-200,
                                   10**5, 7))
    assert res.std_err > 0.0 and res.distortion_direct_closed_form > 0.0
    assert res.matches_routed_identity


@pytest.mark.parametrize("spec", [
    SourceSpec(12, 1.0, -1.0 / 11.0, 0.5, 0.2),   # lambda_x = 0
    SourceSpec(12, 1.0, 1.0, 0.5, 0.2),           # gamma_x = 0
    SourceSpec(12, 1.0, -0.09, 0.0, 0.0),         # noiseless, rho near -1/(L-1)
    SourceSpec(12, 1.0, 0.99, 0.0, 0.0),          # noiseless, rho near 1
    SourceSpec(50, 1.0, 1.0, 2.0, 0.0),           # the CEO problem
], ids=["rho-low", "rho-one", "noiseless-low", "noiseless-high", "ceo"])
def test_closed_forms_hold_at_n_1e12(spec):
    # At n = 10^12 std_err is a few parts per million of the distortion,
    # so both closed forms are held to that band.
    s = spectral_decompose(spec)
    lam_q = solve_lambda_q(s, spec.L, 0.5 * (d_min(s, spec.L) + source_variance(s, spec.L)))
    res = run_simulation(SimConfig(spec, lam_q, 10**12, 2024))
    d = distortion_of(s, spec.L, lam_q)
    assert res.std_err <= 1e-5 * d
    assert abs(res.distortion_empirical - d) <= 5.0 * res.std_err
    assert abs(res.distortion_direct_empirical - direct_mmse(s, spec.L, lam_q)) <= 5.0 * res.std_err


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
