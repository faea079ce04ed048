"""Tests for the seeded Monte-Carlo achievability simulator.

The empirical checks use fixed seeds so every run is deterministic. The
frozen direct-MMSE constant was computed independently with an mpmath
program at 50 decimal digits.
"""

import dataclasses
import math
import tracemalloc

import mpmath
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


@pytest.mark.parametrize("L, n, cause", [
    (L_CASES, 5, r"not positive definite at n = 5 < 2L = 20$"),
    (10 ** 7, 10 ** 12, r"at L = 10000000, n = 1000000000000 the rate's L x 2L factor "
                        r"or its Gram could not be allocated"),
])
def test_analytic_rate_names_why_the_rate_is_nan(L, n, cause):
    # Below n = 2L the moment matrix is singular; at L = 10^7 and n = 10^12
    # the L x 2L factor (1.6 PB) cannot be allocated.  Both leave the rate
    # NaN, and the error names which.
    spec = SourceSpec(L, 1.0, 0.3, 2.0, 0.5)
    lambda_q = solve_lambda_q(spectral_decompose(spec), L, 0.8)
    with pytest.raises(PrecisionError, match=cause):
        analytic_rate(SimConfig(spec, lambda_q, n, 1))


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
        dict(lambda_q=math.inf),
        dict(lambda_q=math.nan),
        dict(n_samples=0),
        dict(n_samples=100.5),
        dict(n_samples=100.0),
        dict(n_samples=True),
        dict(seed=1.5),
        dict(seed=True),
    ],
)
def test_config_validation(kwargs):
    # An infinite lambda_q ran to a nan distortion and "matches: False";
    # a fractional n_samples ran with fractional chi-square degrees.
    spec = from_eigenvalues(L_CASES, *CASE1)
    base = dict(spec=spec, lambda_q=1.0, n_samples=100, seed=0)
    base.update(kwargs)
    with pytest.raises(ValidationError):
        run_simulation(SimConfig(**base))


def test_config_stores_python_ints():
    cfg = SimConfig(from_eigenvalues(L_CASES, *CASE1), 1.0, np.int64(100), np.uint32(7))
    assert type(cfg.n_samples) is int and cfg.n_samples == 100
    assert type(cfg.seed) is int and cfg.seed == 7
    assert run_simulation(cfg) == run_simulation(SimConfig(cfg.spec, 1.0, 100, 7))


def test_config_validates_spec():
    # the spec rejects itself before a SimConfig can hold it
    with pytest.raises(ValidationError):
        SimConfig(SourceSpec(1, 1.0, 0.0, 1.0, 0.0), 1.0, 100, 0)


def test_distortion_consistent_with_noisier_channel():
    # more test-channel noise means strictly more distortion, reflected in
    # both the closed form and (at this sample size) the empirical estimate
    spec = from_eigenvalues(L_CASES, *CASE1)
    lo = run_simulation(SimConfig(spec, 1.0, 100_000, 12))
    hi = run_simulation(SimConfig(spec, 8.0, 100_000, 12))
    assert hi.distortion_closed_form > lo.distortion_closed_form
    assert hi.distortion_empirical > lo.distortion_empirical


@pytest.fixture
def factors(monkeypatch):
    """The (v, root) of every rate factor a run draws during the test."""
    drawn = []
    real = symrd.simulate._factor

    def recording(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(symrd.simulate, "_factor", recording)
    return drawn


def _gains(cfg):
    """Each mode's gain d = sqrt(v_y / lambda_q): the lambda mode's, then L - 1 gamma modes'."""
    s = spectral_decompose(cfg.spec)
    d = np.full(cfg.spec.L, math.sqrt(s.gamma_y / cfg.lambda_q))
    d[0] = math.sqrt(s.lambda_y / cfg.lambda_q)
    return d


def _yv_rows(cfg, v, root, rng):
    """The explicit L x 2L rows (T_Y, T_V) of the Bartlett factor behind v.

    v = [d T11 + T21 | T22] row by row, with d the mode's gain.  Below
    T11's diagonal the run holds only sqrt(1 + d^2) a, where
    a = (d T11 + T21) / sqrt(1 + d^2); the rate does not depend on the
    other half of each pair.  So b ~ N(0, 1) is drawn from rng, and the
    pairs are rebuilt as T11 = s a + c b and T21 = c a - s b, with
    c = 1 / sqrt(1 + d^2) and s = d c, independent N(0, 1) again.  On
    the diagonal T11_ii = root_i and T21_ii = v_ii - d_i root_i.
    """
    L = cfg.spec.L
    d = _gains(cfg)[:, None]
    c = 1.0 / np.sqrt(1.0 + d * d)
    s = d * c
    low = np.tri(L, k=-1, dtype=bool)
    diag = np.diag_indices(L)
    a = c * v[:, :L]
    b = rng.standard_normal((L, L))
    t11 = np.where(low, s * a + c * b, 0.0)
    t11[diag] = root[:L]
    t21 = np.where(low, c * a - s * b, v[:, :L])
    t21[diag] -= d[:, 0] * root[:L]
    return np.hstack([t11, np.zeros((L, L))]), np.hstack([t21, v[:, L:]])


def _replayed_rate(cfg, v, root):
    """The rate of cfg's run, recomputed from its factor in the coordinate basis.

    Scales each mode's rows to Y = sqrt(v_y) T_Y and
    V = Y + sqrt(lambda_q) T_V, rotates them to the coordinate basis with
    eigenbasis, and hands the 2L columns to _reference_statistics as
    samples, which takes three full log-determinants.  Their Gram is the
    run's up to the factor 2L / n, which the rate does not see.
    """
    s = spectral_decompose(cfg.spec)
    L = cfg.spec.L
    t_y, t_v = _yv_rows(cfg, v, root, np.random.default_rng(cfg.seed))
    v_y = np.array([s.lambda_y] + [s.gamma_y] * (L - 1))[:, None]
    theta = eigenbasis(L)
    y = theta @ (np.sqrt(v_y) * t_y)
    q = theta @ (math.sqrt(cfg.lambda_q) * t_v)
    return _reference_statistics(cfg.spec, cfg.lambda_q, y.T, np.zeros_like(y.T), q.T)[2]


def _assert_rate_replayed(cfg, factors):
    res = run_simulation(cfg)
    if cfg.n_samples < 2 * cfg.spec.L:
        assert factors == [] and math.isnan(res.rate_empirical)
        return
    (v, root), = factors
    assert abs(res.rate_empirical - _replayed_rate(cfg, v, root)) <= 1e-10


@pytest.mark.parametrize("rho_x, rho_z", [(0.35, 0.2), (-0.1, -0.05)])
def test_coordinate_basis_matches_eigenbasis_replay(rho_x, rho_z, factors):
    _assert_rate_replayed(SimConfig(SourceSpec(7, 1.3, rho_x, 0.6, rho_z), 0.8, 5000, 4242),
                          factors)


@pytest.mark.parametrize("L, n", [(12, 30), (12, 24), (12, 23), (12, 3), (12, 2), (2, 1),
                                  (3, 10**12), (240, 6 * 240), (360, 6 * 360)])
def test_trapezoidal_factor_matches_eigenbasis_replay(L, n, factors):
    # Below n = 2L a run draws no factor and the rate is NaN; n = 2L is
    # the first n with a factor, whose last diagonal entry has one degree
    # of freedom; n = 10^12 is far beyond any sample loop; L = 240 and 360
    # with n = 6L are the ends of the benchmark's wide runs.
    _assert_rate_replayed(SimConfig(SourceSpec(L, 1.3, 0.35, 0.6, 0.2), 0.8, n, 4243),
                          factors)


def test_stream_keys_give_uncorrelated_streams(factors):
    # Neighbouring seeds must not share a stream.  5 against 2^32 + 5
    # guards the key encoding: SeedSequence reads a seed as 32-bit words.
    # No draw value is pinned: numpy does not promise standard_normal's
    # stream across versions.  The factor's entries that are normals (up
    # to a common scale below A's diagonal): A's off its diagonal and
    # T22's below its diagonal, left of column L + i in row i.
    L, n = 150, 10**6
    spec = SourceSpec(L, 1.3, 0.35, 0.6, 0.2)
    normal = np.tri(L, 2 * L, L - 1, dtype=bool) & ~np.eye(L, 2 * L, dtype=bool)

    def normals(seed):
        factors.clear()
        run_simulation(SimConfig(spec, 0.8, n, seed))
        return factors[0][0][normal]

    for keys in ([0, 1], [77, 78], [5, 2**32 + 5]):
        draws = [normals(k) for k in keys]
        corr = np.corrcoef(*draws)[0, 1]
        assert abs(corr) <= 5.0 / math.sqrt(draws[0].size), keys


@pytest.mark.parametrize("L, n", [(12, 5), (12, 24), (5, 10**6), (300, 1800)])
def test_normals_come_in_the_documented_order(L, n, factors):
    # A fresh generator on the run's key yields the error sums' two
    # normals and four chi-squares, then, at n >= 2L, the factor's normals
    # column by column (A's columns whole, then T22's below its diagonal)
    # and the chi-squares of T's diagonal: the stream is the same however
    # the run splits its calls.  numpy's values are compared with numpy's
    # own stream, so none is pinned.
    seed, lam_q = 31, 0.8
    cfg = SimConfig(SourceSpec(L, 1.3, 0.35, 0.6, 0.2), lam_q, n, seed)
    res = run_simulation(cfg)
    s = spectral_decompose(cfg.spec)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    zeta = rng.standard_normal(2)
    chi = 2.0 * rng.standard_gamma([n / 2, n * (L - 1) / 2, (n - 1) / 2, (n * (L - 1) - 1) / 2])
    # Each side's direct error and routed excess variances, e_u and e_x.
    vx, vz, vy = (np.array(p) for p in ((s.lambda_x, s.gamma_x), (s.lambda_z, s.gamma_z),
                                        (s.lambda_y, s.gamma_y)))
    e_u = vx * lam_q / (vx + lam_q)
    e_x = vx * vx * vz / ((vx + lam_q) * (vy + lam_q))
    direct = e_u * chi[:2]
    routed = (np.sqrt(direct) + np.sqrt(e_x) * zeta) ** 2 + e_x * chi[2:]
    assert res.distortion_direct_empirical == pytest.approx(direct.sum() / (n * L), rel=1e-13)
    assert res.distortion_empirical == pytest.approx(routed.sum() / (n * L), rel=1e-13)
    if n < 2 * L:
        assert factors == []
        return
    (v, root), = factors
    normals = rng.standard_normal(L * L + L * (L - 1) // 2)
    assert np.array_equal(root, np.sqrt(2.0 * rng.standard_gamma(0.5 * n - np.arange(0.0, L, 0.5))))
    low = np.tri(L, k=-1, dtype=bool)
    d = _gains(cfg)
    a = np.where(low, math.hypot(1.0, d[-1]), 1.0) * normals[:L * L].reshape(L, L).T
    a[np.diag_indices(L)] += d * root[:L]
    t22 = np.zeros((L, L))
    t22.T[low.T] = normals[L * L:]
    t22[np.diag_indices(L)] = root[L:]
    assert np.allclose(v, np.hstack([a, t22]), rtol=1e-14, atol=0.0)


def _chi_square_cdf(k, x):
    return float(mpmath.gammainc(0.5 * k, 0, 0.5 * x, regularized=True))


@pytest.mark.parametrize("n", [1, 2, 30])
def test_distortions_have_the_chi_square_law(n):
    # With rho_x = rho_z = 0 (lambda = gamma) every mode has the same
    # error variances, so the routed sum of a run is e_r chi^2(nL) and the
    # direct sum e_u chi^2(nL).  A Kolmogorov-Smirnov test over 2000
    # seeded runs against each law's CDF: sqrt(M) sup |F_M - F| stays
    # below 1.95, the 0.1% point of Kolmogorov's law.
    L, lam_q, runs = 12, 0.7, 2000
    spec = SourceSpec(L, 1.0, 0.0, 0.6, 0.0)
    e_r = 1.0 * (0.6 + lam_q) / (1.6 + lam_q)
    e_u = 1.0 * lam_q / (1.0 + lam_q)
    res = [run_simulation(SimConfig(spec, lam_q, n, seed)) for seed in range(runs)]
    rank = np.arange(1, runs + 1)
    for name, e in (("distortion_empirical", e_r), ("distortion_direct_empirical", e_u)):
        x = np.sort([n * L * getattr(r, name) / e for r in res])
        cdf = np.array([_chi_square_cdf(n * L, v) for v in x])
        ks = max(np.max(rank / runs - cdf), np.max(cdf - (rank - 1) / runs))
        assert math.sqrt(runs) * ks <= 1.95, (name, ks)


@pytest.mark.parametrize("n", [1, 30])
def test_distortions_have_the_per_sample_covariance(n):
    # Sample by sample, each mode's routed error is its direct error plus
    # an independent excess, so the routed and direct sums of a run have
    # covariance 2n (e_u,lambda^2 + (L - 1) e_u,gamma^2), with e_u each
    # mode's direct error variance.  The mean over 4000 seeded runs of the
    # product of their offsets from the closed forms lies within 4
    # standard errors of it.
    L, lam_q, runs = 12, 0.7, 4000
    spec = SourceSpec(L, 1.0, 0.5, 0.6, 0.3)
    s = spectral_decompose(spec)
    e_lam, e_gam = (vx * lam_q / (vx + lam_q) for vx in (s.lambda_x, s.gamma_x))
    want = 2.0 * n * (e_lam ** 2 + (L - 1) * e_gam ** 2)
    res = [run_simulation(SimConfig(spec, lam_q, n, seed)) for seed in range(runs)]
    prod = np.array([(n * L) ** 2 * (r.distortion_empirical - r.distortion_closed_form)
                     * (r.distortion_direct_empirical - r.distortion_direct_closed_form)
                     for r in res])
    assert abs(prod.mean() - want) <= 4.0 * prod.std(ddof=1) / math.sqrt(runs), (prod.mean(), want)


def _peak_bytes(cfg):
    """tracemalloc's peak over one run of cfg."""
    tracemalloc.start()
    try:
        run_simulation(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_n():
    # A run holds the L x 2L factor and a few short arrays, whatever n is.
    def peak(n):
        return _peak_bytes(SimConfig(SourceSpec(12, 1.0, 0.3, 0.5, 0.2), 0.7, n, 1))

    peak(10**3)  # first-call allocations of numpy's linalg
    small, big = peak(10**3), peak(10**12)
    # equal up to a few small interpreter objects (measured: 16 bytes apart)
    assert abs(big - small) <= 1024 and big < 100_000


def test_memory_at_the_wide_shape():
    # At L = 240, n = 6L a run peaks as it forms the rate's L x L Gram.
    # It then holds the L x 2L factor (8 bytes an entry), the Gram and the
    # 2L roots of T's diagonal: 1.386 MB.  The bound allows 2% more for
    # array headers and the generator, less than the L x L boolean mask,
    # which is freed before the Gram.  Measured peak 1.390 MB.  While the
    # factor is drawn, the mask and T22's L (L - 1) / 2 normals sit beside
    # it in the Gram's place; slogdet's working copy of the Gram takes the
    # freed factor's place.
    L = 240
    cfg = SimConfig(SourceSpec(L, 1.3, 0.35, 0.6, 0.2), 0.8, 6 * L, 1)
    buffers = 8 * (2 * L * L) + 8 * (L * L) + 8 * (2 * L)
    _peak_bytes(cfg)  # first-call allocations
    assert _peak_bytes(cfg) <= 1.02 * buffers


def _check_moments(sample, mean, var, fourth, label):
    # the sample mean and variance, each within 4 standard errors; fourth
    # is the central fourth moment
    m = sample.size
    assert abs(sample.mean() - mean) <= 4.0 * math.sqrt(var / m), (label, sample.mean())
    v = sample.var(ddof=1)
    assert abs(v - var) <= 4.0 * math.sqrt((fourth - var * var) / m), (label, v)


@pytest.mark.parametrize("n", [24, 200, 10**6])
def test_yv_gram_entries_have_wishart_moments(n, factors):
    # Below T11's diagonal the run holds one half a of each rotated pair,
    # scaled into v; _yv_rows rebuilds the pairs with an independent other
    # half.  Over 4800 independent modes the rebuilt (Y, V) Gram entries
    # have the moments of Wishart_2(n, I): g_yy and g_vv ~ chi^2(n),
    # independent, and given g_yy, g_yv ~ N(0, g_yy).  At n = 24 = 2L a
    # row's pairs are up to 11 of its 24 terms.
    L, seeds = 12, range(400)
    spec = SourceSpec(L, 1.0, 0.5, 0.6, 0.3)
    rng = np.random.default_rng(n)
    offsets, grams = [], []
    for seed in seeds:
        cfg = SimConfig(spec, 0.7, n, seed)
        res = run_simulation(cfg)
        offsets.append(res.rate_empirical - res.rate_closed_form)
        (v, root), = factors
        factors.clear()
        t_y, t_v = _yv_rows(cfg, v, root, rng)
        grams.append([np.sum(t_y * t_y, axis=1), np.sum(t_v * t_v, axis=1),
                      np.sum(t_y * t_v, axis=1)])
    g_yy, g_vv, g_yv = np.concatenate(grams, axis=1)
    for r, g in enumerate((g_yy, g_vv)):
        _check_moments(g, n, 2 * n, 12 * n * n + 48 * n, (n, r))
    _check_moments(g_yv, 0.0, n, 3 * n * (n + 2), n)
    # E[(g_yy - n)(g_vv - n)] = 0 with variance 4 n^2, and
    # E[(g_yy - n) g_yv] = 0 with variance E[(g_yy - n)^2 g_yy] = 2 n^2 + 8 n.
    for prod, var in (((g_yy - n) * (g_vv - n), 4.0 * n * n),
                      ((g_yy - n) * g_yv, 2.0 * n * n + 8.0 * n)):
        assert abs(prod.mean()) <= 4.0 * math.sqrt(var / prod.size), (n, prod.mean())
    # The rate's mean over seeds is the closed form plus the estimator's
    # exact bias, within 4 standard errors of the sampled spread.
    offsets = np.array(offsets)
    bias = rate_bias_band(L, n)[0]
    se = offsets.std(ddof=1) / math.sqrt(offsets.size)
    assert abs(offsets.mean() - bias) <= 4.0 * se, (n, offsets.mean(), bias)


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


def test_noiseless_closed_form_distortion_at_tiny_lambda_q():
    # sigma_z^2 = 0, so each direction's distortion x q / (x + q) is q to
    # first order; a form x (1 - x / (y + q)) cancels to 0 here.
    res = run_simulation(SimConfig(SourceSpec(10, 1.0, 0.3, 0.0, 0.0), 1e-200, 100, 1))
    assert abs(res.distortion_closed_form - 1e-200) <= 1e-15 * 1e-200
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
