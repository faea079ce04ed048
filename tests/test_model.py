"""Tests for the symmetric-source model layer.

Reference values marked "50-digit reference" were computed independently
with an mpmath program evaluating the defining expressions at 50 decimal
digits; they are frozen here as float literals.
"""

import math

import numpy as np
import pytest

import symrd
from symrd import (
    SourceSpec,
    Spectrum,
    ValidationError,
    d_min,
    from_eigenvalues,
    parse_spec_text,
    solve_program,
    source_variance,
    spectral_decompose,
    validate_spec,
)
from symrd.lower_bound import classify, evaluate
from symrd.simulate import covariance_matrix, eigenbasis

L_CASES = 10

# Example case spectra (lambda_x, gamma_x, lambda_y, gamma_y) at L = 10.
CASE1 = (0.8, 1.0, 5.0, 4.0)
CASE2 = (0.5, 1.0, 6.0, 3.0)
CASE3 = (1.0, 0.45, 12.0, 2.4)

# 50-digit reference: correlation-form parameters recovered from the
# case eigenvalues above.
CASE1_RHO_X = -0.0204081632653061224489795918367
CASE1_SIGMA_Z_SQ = 3.12
CASE1_RHO_Z = 0.0384615384615384615384615384615
CASE2_RHO_X = -0.0526315789473684210526315789474
CASE2_SIGMA_Z_SQ = 2.35
CASE2_RHO_Z = 0.148936170212765957446808510638
CASE3_RHO_X = 0.108910891089108910891089108911
CASE3_SIGMA_Z_SQ = 2.855
CASE3_RHO_Z = 0.316987740805604203152364273205

# 50-digit reference: distortion floors and source variances.
CASE1_D_MIN = 0.7422
CASE1_SIGMA_X_SQ = 0.98
CASE2_D_MIN = 0.645833333333333333333333333333
CASE2_SIGMA_X_SQ = 0.95
CASE3_D_MIN = 0.420729166666666666666666666667
CASE3_SIGMA_X_SQ = 0.505


def _spec(eig):
    return from_eigenvalues(L_CASES, *eig)


def test_from_eigenvalues_recovers_correlation_form():
    s1 = _spec(CASE1)
    assert s1.L == L_CASES
    assert abs(s1.rho_x - CASE1_RHO_X) < 1e-15
    assert abs(s1.sigma_z_sq - CASE1_SIGMA_Z_SQ) < 1e-14
    assert abs(s1.rho_z - CASE1_RHO_Z) < 1e-15
    s2 = _spec(CASE2)
    assert abs(s2.rho_x - CASE2_RHO_X) < 1e-15
    assert abs(s2.sigma_z_sq - CASE2_SIGMA_Z_SQ) < 1e-14
    assert abs(s2.rho_z - CASE2_RHO_Z) < 1e-15
    s3 = _spec(CASE3)
    assert abs(s3.rho_x - CASE3_RHO_X) < 1e-15
    assert abs(s3.sigma_z_sq - CASE3_SIGMA_Z_SQ) < 1e-14
    assert abs(s3.rho_z - CASE3_RHO_Z) < 1e-15


def test_round_trip_eigenvalues():
    for eig in (CASE1, CASE2, CASE3):
        s = spectral_decompose(_spec(eig))
        got = (s.lambda_x, s.gamma_x, s.lambda_y, s.gamma_y)
        for g, want in zip(got, eig):
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want))


def test_d_min_and_source_variance():
    pairs = [
        (CASE1, CASE1_D_MIN, CASE1_SIGMA_X_SQ),
        (CASE2, CASE2_D_MIN, CASE2_SIGMA_X_SQ),
        (CASE3, CASE3_D_MIN, CASE3_SIGMA_X_SQ),
    ]
    for eig, dm, sx2 in pairs:
        s = spectral_decompose(_spec(eig))
        assert abs(d_min(s, L_CASES) - dm) < 1e-12
        assert abs(source_variance(s, L_CASES) - sx2) < 1e-12


def test_spectrum_derived_fields():
    s = spectral_decompose(_spec(CASE2))
    assert abs(s.lambda_z - (s.lambda_y - s.lambda_x)) < 1e-15
    assert abs(s.gamma_z - (s.gamma_y - s.gamma_x)) < 1e-15
    assert s.lambda_w == min(s.lambda_y, s.gamma_y)


def test_spectrum_source_is_set_by_spectral_decompose_only():
    # the spec's floats, whose exact eigenvalues the lambda_q solve takes,
    # cannot be given beside float fields that they do not describe
    spec = _spec(CASE2)
    s = spectral_decompose(spec)
    assert s.source == (spec.L, spec.sigma_x_sq, spec.rho_x, spec.sigma_z_sq, spec.rho_z)
    fields = (s.lambda_x, s.gamma_x, s.lambda_z, s.gamma_z, s.lambda_y, s.gamma_y)
    with pytest.raises(TypeError):
        Spectrum(*fields, source=s.source)
    bare = Spectrum(*fields)
    assert bare.source is None and bare == s
    # without a source the x and z fields are the exact eigenvalues
    *numerators, den = bare.exact
    assert [n / den for n in numerators] == list(fields[:4])


def test_sigma_y_and_rho_y():
    spec = SourceSpec(5, 2.0, 0.3, 1.0, 0.1)
    assert abs(spec.sigma_y_sq - 3.0) < 1e-15
    # rho_y sigma_y^2 = rho_x sigma_x^2 + rho_z sigma_z^2
    assert abs(spec.rho_y * spec.sigma_y_sq - (0.3 * 2.0 + 0.1 * 1.0)) < 1e-15


def test_validate_spec_accepts_boundary_correlations():
    # rho = 1 and rho = -1/(L-1) are both admissible (degenerate eigenvalue 0
    # is only rejected when it lands in lambda_Y or gamma_Y).
    validate_spec(SourceSpec(4, 1.0, 1.0, 1.0, 0.0))
    validate_spec(SourceSpec(4, 1.0, -1.0 / 3.0, 1.0, 0.0))
    # tiny slack beyond the boundary is tolerated
    validate_spec(SourceSpec(4, 1.0, 1.0 + 5e-13, 1.0, 0.0))


@pytest.mark.parametrize(
    "spec",
    [
        (1, 1.0, 0.0, 1.0, 0.0),          # L < 2
        (True, 1.0, 0.0, 1.0, 0.0),       # bool is not an L
        (2.5, 1.0, 0.0, 1.0, 0.0),        # non-integer L
        (4, 0.0, 0.0, 1.0, 0.0),          # sigma_x_sq = 0
        (4, -1.0, 0.0, 1.0, 0.0),         # sigma_x_sq < 0
        (4, 1.0, 0.0, -1e-6, 0.0),        # sigma_z_sq < 0
        (4, 1.0, 1.0 + 1e-6, 1.0, 0.0),   # rho_x > 1
        (4, 1.0, -1.0 / 3.0 - 1e-6, 1.0, 0.0),
        (4, 1.0, 0.0, 1.0, 1.0 + 1e-6),   # rho_z > 1
        (4, 1.0, 1.0, 0.0, 0.0),          # gamma_y = 0
        (4, 1.0, -1.0 / 3.0, 0.0, 0.0),   # lambda_y = 0
        (4, math.inf, 0.0, 1.0, 0.0),     # sigma_x_sq = inf
        (4, 1.0, 0.0, math.nan, 0.0),     # sigma_z_sq = nan
        (4, 1.0, math.nan, 1.0, 0.0),     # rho_x = nan
        (4, 1.0, 0.0, math.inf, 0.0),     # sigma_z_sq = inf
        (10, 1e-15, 0.3, -9e-13, 0.0),    # sigma_z_sq < 0, in units of 1e-15
        (10**320, 1.0, 0.0, 1.0, 0.0),    # L past the largest float64
    ],
)
def test_validate_spec_rejects(spec):
    # a SourceSpec validates itself: an invalid one is never built
    with pytest.raises(ValidationError):
        SourceSpec(*spec)


def test_numpy_integer_l_is_a_python_int():
    # a fixed-width L overflowed in the oracle's exact integer sums; stored
    # as a Python int it gives the int spec's results bit for bit
    spec = SourceSpec(10, 0.5, 0.2, 1.0, 0.1)
    wide = SourceSpec(np.int64(10), 0.5, 0.2, 1.0, 0.1)
    assert type(wide.L) is int and wide == spec
    assert type(from_eigenvalues(np.int32(10), *CASE2).L) is int
    s, s_wide = spectral_decompose(spec), spectral_decompose(wide)
    assert s_wide == s
    assert solve_program(s_wide, wide.L, 0.45) == solve_program(s, spec.L, 0.45)
    for D in (0.35, 0.45):
        assert evaluate(classify(s_wide, wide.L), D) == evaluate(classify(s, spec.L), D)


def test_rho_z_ignored_when_sigma_z_sq_zero():
    # a noiseless spec carries rho_z = 0 after a round trip
    spec = SourceSpec(4, 1.0, 0.2, 0.0, 0.0)
    s = spectral_decompose(spec)
    assert s.lambda_z == 0.0
    assert s.gamma_z == 0.0
    back = from_eigenvalues(4, s.lambda_x, s.gamma_x, s.lambda_y, s.gamma_y)
    assert back.rho_z == 0.0


def test_from_eigenvalues_rejects_inconsistent_input():
    with pytest.raises(ValidationError):
        from_eigenvalues(10, 5.0, 1.0, 4.0, 2.0)   # lambda_z would be negative
    with pytest.raises(ValidationError):
        from_eigenvalues(10, -0.5, 1.0, 5.0, 4.0)  # negative source eigenvalue
    with pytest.raises(ValidationError):
        from_eigenvalues(10, 0.0, 0.0, 5.0, 4.0)   # sigma_x_sq would be 0
    with pytest.raises(ValidationError, match="need min"):
        from_eigenvalues(10, 1.0, 1.0, 0.0, 2.0)   # lambda_y = 0
    with pytest.raises(ValidationError, match="gamma_y = 0.5 .* negative noise"):
        from_eigenvalues(10, 1.0, 1.0, 2.0, 0.5)   # gamma_z would be negative
    with pytest.raises(ValidationError, match="L must be at most"):
        from_eigenvalues(10**320, 1.0, 1.0, 2.0, 2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite"):
            from_eigenvalues(10, 0.8, 1.0, bad, 4.0)
        with pytest.raises(ValidationError, match="finite"):
            from_eigenvalues(10, bad, 1.0, 5.0, 4.0)
    # a tiny negative within the validation slack is clamped, not rejected
    spec = from_eigenvalues(10, -1e-14, 1.0, 5.0, 4.0)
    s = spectral_decompose(spec)
    assert s.lambda_x >= 0.0
    # the slack is relative to the largest eigenvalue: a noise eigenvalue of
    # -1e-20 is within 1e-12 of zero but not of 2e-15
    with pytest.raises(ValidationError, match="negative noise"):
        from_eigenvalues(10, 1e-15, 1e-15, 1e-15 - 1e-20, 2e-15)


_SPEC = SourceSpec(10, 1.0, 0.3, 2.0, 0.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: symrd.SimConfig(_SPEC, "1", 100, 1),
        lambda: symrd.SimConfig(_SPEC, None, 100, 1),
        lambda: symrd.SimConfig(_SPEC, 1 + 0j, 100, 1),
        lambda: SourceSpec(10, "1", 0.3, 2.0, 0.5),
        lambda: from_eigenvalues(10, "1", 1.0, 2.0, 3.0),
    ],
    ids=["lambda_q str", "lambda_q None", "lambda_q complex", "sigma_x_sq str", "lambda_x str"],
)
def test_non_real_input_is_a_validation_error(build):
    # each raised a raw TypeError from math.isfinite or abs
    with pytest.raises(ValidationError, match="finite real number"):
        build()


def test_covariance_matrix_structure():
    c = covariance_matrix(4, 2.0, 0.25)
    assert c.shape == (4, 4)
    assert np.allclose(np.diag(c), 2.0)
    off = c[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.5)
    assert np.allclose(c, c.T)


def test_eigenbasis_orthonormal_and_diagonalizing():
    rng = np.random.default_rng(1894)
    for _ in range(25):
        L = int(rng.integers(2, 13))
        theta = eigenbasis(L)
        assert np.max(np.abs(theta.T @ theta - np.eye(L))) < 1e-12
        assert np.max(np.abs(theta[:, 0] - 1.0 / math.sqrt(L))) < 1e-12
        sigma_sq = float(10.0 ** rng.uniform(-1, 1))
        rho = float(rng.uniform(-0.95 / (L - 1), 0.95))
        c = covariance_matrix(L, sigma_sq, rho)
        diag = theta.T @ c @ theta
        lam = (1 + (L - 1) * rho) * sigma_sq
        gam = (1 - rho) * sigma_sq
        want = np.diag([lam] + [gam] * (L - 1))
        assert np.max(np.abs(diag - want)) < 1e-10 * max(1.0, sigma_sq)


def _gram_schmidt_basis(L):
    # Reference: the all-ones column, then Gram-Schmidt on e_0, e_1, ...
    theta = np.zeros((L, L))
    theta[:, 0] = 1.0 / math.sqrt(L)
    k = 1
    for j in range(L):
        if k == L:
            break
        v = np.zeros(L)
        v[j] = 1.0
        for i in range(k):
            v -= (theta[:, i] @ v) * theta[:, i]
        norm = float(np.linalg.norm(v))
        if norm > 1e-10:
            theta[:, k] = v / norm
            k += 1
    return theta


@pytest.mark.parametrize("L", [2, 3, 7, 50, 300])
def test_eigenbasis_matches_gram_schmidt(L):
    assert np.max(np.abs(eigenbasis(L) - _gram_schmidt_basis(L))) <= 1e-14


def test_spectrum_matches_explicit_matrix_eigenvalues():
    # the closed-form eigenvalues must agree with numpy's eigvalsh applied
    # to the explicitly assembled covariance matrices
    rng = np.random.default_rng(41125)
    for _ in range(200):
        L = int(rng.integers(2, 13))
        sx2 = float(10.0 ** rng.uniform(-1, 1))
        rx = float(rng.uniform(-0.95 / (L - 1), 0.95))
        sz2 = float(10.0 ** rng.uniform(-1, 1))
        rz = float(rng.uniform(-0.95 / (L - 1), 0.95))
        spec = SourceSpec(L, sx2, rx, sz2, rz)
        s = spectral_decompose(spec)
        cy = covariance_matrix(L, sx2, rx) + covariance_matrix(L, sz2, rz)
        got = np.sort(np.linalg.eigvalsh(cy))
        want = np.sort(np.array([s.lambda_y] + [s.gamma_y] * (L - 1)))
        assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, s.lambda_y)


def test_round_trip_property():
    rng = np.random.default_rng(90210)
    for _ in range(300):
        L = int(rng.integers(2, 13))
        sx2 = float(10.0 ** rng.uniform(-1, 1))
        rx = float(rng.uniform(-0.95 / (L - 1), 0.95))
        sz2 = float(10.0 ** rng.uniform(-1, 1)) if rng.uniform() > 0.1 else 0.0
        rz = float(rng.uniform(-0.95 / (L - 1), 0.95)) if sz2 else 0.0
        s = spectral_decompose(SourceSpec(L, sx2, rx, sz2, rz))
        back = from_eigenvalues(L, s.lambda_x, s.gamma_x, s.lambda_y, s.gamma_y)
        assert abs(back.sigma_x_sq - sx2) <= 1e-12 * sx2
        assert abs(back.rho_x - rx) <= 1e-12 * max(1.0, abs(rx))
        assert abs(back.sigma_z_sq - sz2) <= 1e-12 * max(1.0, sz2)
        assert abs(back.rho_z - rz) <= 1e-12 * max(1.0, abs(rz))


# ---------------------------------------------------------------------------
# spec-file parsing


def test_parse_spec_text_correlation_form():
    text = """
    # a commented spec
    L = 10
    sigma_x_sq = 1.0
    rho_x = 0.3   # trailing comment
    sigma_z_sq = 4.0
    rho_z = 0.55
    """
    spec = parse_spec_text(text)
    assert spec == SourceSpec(10, 1.0, 0.3, 4.0, 0.55)


def test_parse_spec_text_eigenvalue_form():
    text = "L = 10\nlambda_x = 0.8\ngamma_x = 1\nlambda_y = 5\ngamma_y = 4\n"
    spec = parse_spec_text(text)
    assert abs(spec.sigma_x_sq - CASE1_SIGMA_X_SQ) < 1e-14
    assert abs(spec.rho_x - CASE1_RHO_X) < 1e-15


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("sigma_x_sq = 1\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n", "L"),
        ("L = 2.5\nsigma_x_sq = 1\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n",
         "integer"),
        ("L = 4\nsigma_x_sq = 1\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n"
         "bogus_key = 3\n", "bogus_key"),
        ("L = 4\nsigma_x_sq = 1\nsigma_x_sq = 2\nrho_x = 0\nsigma_z_sq = 1\n"
         "rho_z = 0\n", "duplicate"),
        ("L = 4\nsigma_x_sq = pi\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n",
         "pi"),
        ("L = 4\nsigma_x_sq = 1\nrho_x = 0\nlambda_y = 5\ngamma_y = 4\n",
         "mix"),
        ("L = 4\nlambda_x = 1\n", "incomplete"),
        ("L = 4\nsigma_x_sq = 1\nrho_x = 0\n", "incomplete correlation family"),
        ("L = 4\n", "family"),
        ("L = 4\nsigma_x_sq 1\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n", "="),
        ("L = 1e400\nsigma_x_sq = 1\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n",
         "finite"),
        ("L = nan\nsigma_x_sq = 1\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n",
         "finite"),
        ("L = 10\nsigma_x_sq = inf\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n",
         "finite"),
        ("L = 10\nsigma_x_sq = 1\nrho_x = 0\nsigma_z_sq = nan\nrho_z = 0\n",
         "finite"),
        ("L = 10\nlambda_x = 1\ngamma_x = 1\nlambda_y = inf\ngamma_y = 2\n",
         "finite"),
    ],
)
def test_parse_spec_text_errors(text, fragment):
    with pytest.raises(ValidationError) as exc:
        parse_spec_text(text, name="probe.spec")
    assert fragment in str(exc.value)


def test_parse_spec_text_error_names_file_and_line():
    text = "L = 4\nsigma_x_sq = oops\nrho_x = 0\nsigma_z_sq = 1\nrho_z = 0\n"
    with pytest.raises(ValidationError) as exc:
        parse_spec_text(text, name="probe.spec")
    assert "probe.spec:2" in str(exc.value)


def test_all_names_resolve_once():
    names = symrd.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(symrd, name, None) is not None, name
