"""Symmetric Gaussian source model: parameterization and spectral structure.

A block of L sources is observed in additive noise,

    Y_l = X_l + Z_l,  l = 1..L,

where X and Z are independent zero-mean Gaussian vectors whose covariances
share the symmetric pattern sigma^2 * [(1 - rho) I + rho J] (J the all-ones
matrix).  Every such matrix has the two-eigenvalue spectrum

    lambda = (1 + (L - 1) rho) sigma^2   (multiplicity 1, eigenvector 1/sqrt(L)),
    gamma  = (1 - rho) sigma^2           (multiplicity L - 1),

and all downstream rate computations work directly on the eigenvalue pairs
(lambda_x, gamma_x) and (lambda_y, gamma_y) = (lambda_x + lambda_z,
gamma_x + gamma_z).  This module owns the conversion in both directions,
validity checking (a SourceSpec is valid by construction), the distortion
floor d_min, and the plain-text spec file format consumed by the command
line tool.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field

from .errors import DomainError, ValidationError

# Relative slack applied to inequality checks so that boundary cases
# produced by floating-point arithmetic (rho = 1 computed as 1 + 2e-16,
# a noise variance of -1e-17 next to a source variance of 1, ...) are
# accepted and clamped instead of rejected.  Correlations are compared
# with it as is, the noise variance with it times sigma_x_sq, and
# eigenvalues with it times the largest given one, so no check depends on
# the unit of variance.
VALIDATION_SLACK = 1e-12


@dataclass(frozen=True)
class SourceSpec:
    """Correlation-form description of the source/noise pair.

    Valid by construction: building one runs validate_spec, so an invalid
    parameter set raises ValidationError before a SourceSpec exists.
    validate_spec stores a value accepted within the slack past its bound
    at that bound, so specs that differ only there are equal.

    Parameters
    ----------
    L : int
        Number of sources, at least 2.
    sigma_x_sq : float
        Per-component source variance, strictly positive.
    rho_x : float
        Source correlation coefficient, in [-1/(L-1), 1].
    sigma_z_sq : float
        Per-component noise variance, nonnegative (0 means noiseless
        observations; never stored as -0.0).
    rho_z : float
        Noise correlation coefficient, in [-1/(L-1), 1].  Ignored in
        substance when sigma_z_sq = 0, but still range-checked.
    """

    L: int
    sigma_x_sq: float
    rho_x: float
    sigma_z_sq: float
    rho_z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", _as_int(self.L))
        validate_spec(self)

    @property
    def sigma_y_sq(self) -> float:
        """Per-component variance of the observation Y = X + Z."""
        return self.sigma_x_sq + self.sigma_z_sq

    @property
    def rho_y(self) -> float:
        """Correlation coefficient of Y (variance-weighted mix of rho_x, rho_z)."""
        return (self.rho_x * self.sigma_x_sq + self.rho_z * self.sigma_z_sq) / self.sigma_y_sq


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the three symmetric covariances (X, Z, Y = X + Z).

    lambda_* is the multiplicity-1 eigenvalue along 1/sqrt(L) * (1, ..., 1);
    gamma_* the multiplicity-(L-1) eigenvalue on its orthogonal complement.
    Sums hold componentwise: lambda_y = lambda_x + lambda_z and likewise
    for gamma.

    source is the (L, sigma_x_sq, rho_x, sigma_z_sq, rho_z) that
    spectral_decompose decomposed, or None for a Spectrum built from
    floats alone.  Only spectral_decompose sets it, after the float
    fields, so that the two always describe one spectrum.
    """

    lambda_x: float
    gamma_x: float
    lambda_z: float
    gamma_z: float
    lambda_y: float
    gamma_y: float
    source: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def exact(self) -> tuple:
        """(lambda_x, gamma_x, lambda_z, gamma_z, den), exactly.

        The source and noise eigenvalues as integer numerators over one
        power of two den (y = x + z is then exact too): those of the
        source spec's floats, which the float fields round, or the x and
        z fields themselves when there is no source.  Formed at each
        read: upper_bound.prepare reads them once per spectrum; every
        other computation reads the float fields.
        """
        if self.source is None:
            return _common_power_of_two([float(v).as_integer_ratio() for v in (
                self.lambda_x, self.gamma_x, self.lambda_z, self.gamma_z)])
        L, sigma_x_sq, rho_x, sigma_z_sq, rho_z = self.source
        lx, gx, den_x = _exact_pair(L, sigma_x_sq, rho_x)
        lz, gz, den_z = _exact_pair(L, sigma_z_sq, rho_z) if sigma_z_sq > 0.0 else (0, 0, 1)
        den = max(den_x, den_z)
        fx, fz = den // den_x, den // den_z
        return lx * fx, gx * fx, lz * fz, gz * fz, den

    @property
    def lambda_w(self) -> float:
        """min(lambda_y, gamma_y): the decomposition noise level used by the
        converse program."""
        return min(self.lambda_y, self.gamma_y)


def _as_int(L):
    """L as a Python int if it is an integer of another type (np.int64, ...).

    A Python int's arithmetic is exact at any size, where a fixed-width
    integer's overflows.  A bool, or a value that is no integer, is
    returned as given, for _check_size to reject.
    """
    if isinstance(L, bool):
        return L
    try:
        return operator.index(L)
    except TypeError:
        return L


def _check_finite(name: str, value) -> None:
    """Raise ValidationError unless value is a finite real number.

    A string, None or a complex number is refused here rather than
    failing later with a TypeError, and so is a bool.  A float is taken
    before the numbers.Real check, which costs about ten times as much.
    """
    if not ((type(value) is float
             or isinstance(value, numbers.Real) and not isinstance(value, bool))
            and math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")


def _check_size(L) -> None:
    if type(L) is not int:
        raise ValidationError(f"L must be an integer, got {L!r}")
    if L < 2:
        raise ValidationError(f"L must be at least 2, got {L}")
    if L > sys.float_info.max:
        raise ValidationError(
            f"L must be at most {sys.float_info.max!r}, got an integer of {L.bit_length()} bits")


def _clamped_rho(name: str, rho: float, L: int) -> float:
    lo = -1.0 / (L - 1)
    if rho < lo - VALIDATION_SLACK or rho > 1.0 + VALIDATION_SLACK:
        raise ValidationError(
            f"{name} = {rho!r} outside [-1/(L-1), 1] = [{lo!r}, 1] for L = {L}"
        )
    return min(max(rho, lo), 1.0)


def validate_spec(spec: SourceSpec) -> None:
    """Check all model invariants, raising ValidationError on the first failure.

    SourceSpec runs it when built, so every SourceSpec has passed it.
    The checks are: L is an integer from 2 to the largest float64
    (SourceSpec stores an integer of any type but bool as a Python int);
    the four other values are finite real numbers; sigma_x_sq > 0;
    sigma_z_sq >= 0 (up to VALIDATION_SLACK sigma_x_sq; stored as 0.0
    if not positive); both correlation coefficients lie in [-1/(L-1), 1]
    (up to VALIDATION_SLACK; stored clamped into it); the stored values'
    observation spectrum is nondegenerate, min(lambda_y, gamma_y) > 0; and
    its lambda_y, gamma_y, d_min and source_variance are finite in
    float64, so a spec of finite values whose spectrum overflows is refused.
    """
    _check_size(spec.L)
    for name in ("sigma_x_sq", "rho_x", "sigma_z_sq", "rho_z"):
        _check_finite(name, getattr(spec, name))
    if not spec.sigma_x_sq > 0.0:
        raise ValidationError(f"sigma_x_sq must be positive, got {spec.sigma_x_sq!r}")
    if spec.sigma_z_sq < -VALIDATION_SLACK * spec.sigma_x_sq:
        raise ValidationError(f"sigma_z_sq must be nonnegative, got {spec.sigma_z_sq!r}")
    object.__setattr__(spec, "sigma_z_sq", spec.sigma_z_sq if spec.sigma_z_sq > 0.0 else 0.0)
    for name in ("rho_x", "rho_z"):
        object.__setattr__(spec, name, _clamped_rho(name, getattr(spec, name), spec.L))
    s = spectral_decompose(spec)
    if not (s.lambda_y > 0.0 and s.gamma_y > 0.0):
        raise ValidationError(
            "observation spectrum is degenerate: needs min(lambda_y, gamma_y) > 0, "
            f"got lambda_y = {s.lambda_y!r}, gamma_y = {s.gamma_y!r}"
        )
    floor, top = d_min(s, spec.L), source_variance(s, spec.L)
    if not all(map(math.isfinite, (s.lambda_y, s.gamma_y, floor, top))):
        raise ValidationError(
            f"spectrum overflows float64: lambda_y = {s.lambda_y!r}, gamma_y = {s.gamma_y!r}, "
            f"d_min = {floor!r}, sigma_x_sq = {top!r}")


def _eig_pair(L: int, sigma_sq: float, rho: float) -> tuple[float, float]:
    lam = (1.0 + (L - 1) * rho) * sigma_sq
    gam = (1.0 - rho) * sigma_sq
    # Clamp the roundoff shadow of a boundary rho; validation has already
    # rejected genuinely negative eigenvalues.
    return max(lam, 0.0), max(gam, 0.0)


def _exact_pair(L: int, sigma_sq: float, rho: float) -> tuple[int, int, int]:
    """_eig_pair's two eigenvalues without rounding: two numerators and their power of two.

    The products of the floats' integer ratios, clamped at 0 as _eig_pair
    clamps its floats.
    """
    (sn, sd), (rn, rd) = float(sigma_sq).as_integer_ratio(), float(rho).as_integer_ratio()
    return max((rd + (L - 1) * rn) * sn, 0), max((rd - rn) * sn, 0), sd * rd


def _common_power_of_two(ratios: list[tuple[int, int]]) -> tuple:
    """(n_1, ..., n_k, den): ratios n_i / d_i with power-of-two d_i over their largest."""
    den = max(d for _, d in ratios)
    return (*(n * (den // d) for n, d in ratios), den)


def spectral_decompose(spec: SourceSpec) -> Spectrum:
    """Map a correlation-form spec to its covariance eigenvalues.

    Returns a Spectrum with lambda/gamma for X, Z and Y = X + Z, whose
    exact eigenvalues are those of the spec's floats.
    """
    lx, gx = _eig_pair(spec.L, spec.sigma_x_sq, spec.rho_x)
    sz = spec.sigma_z_sq
    lz, gz = _eig_pair(spec.L, sz, spec.rho_z) if sz > 0.0 else (0.0, 0.0)
    s = Spectrum(lx, gx, lz, gz, lx + lz, gx + gz)
    object.__setattr__(s, "source", (spec.L, spec.sigma_x_sq, spec.rho_x, sz, spec.rho_z))
    return s


def from_eigenvalues(
    L: int, lambda_x: float, gamma_x: float, lambda_y: float, gamma_y: float
) -> SourceSpec:
    """Invert the eigenvalue description back to a correlation-form spec.

    The noise spectrum is lambda_z = lambda_y - lambda_x and
    gamma_z = gamma_y - gamma_x, so the inputs must satisfy
    lambda_y >= lambda_x >= 0 and gamma_y >= gamma_x >= 0 (up to
    VALIDATION_SLACK times the largest of the four), with
    min(lambda_y, gamma_y) > 0 and lambda_x, gamma_x not both zero.  The
    returned spec round-trips through spectral_decompose to 1e-12
    relative accuracy.

    Raises
    ------
    ValidationError
        If the eigenvalues violate the constraints above.
    """
    L = _as_int(L)
    _check_size(L)
    given = (("lambda_x", lambda_x), ("gamma_x", gamma_x),
             ("lambda_y", lambda_y), ("gamma_y", gamma_y))
    for name, v in given:
        _check_finite(name, v)
    slack = VALIDATION_SLACK * max(abs(lambda_x), abs(gamma_x), abs(lambda_y), abs(gamma_y))
    for name, v in given:
        if v < -slack:
            raise ValidationError(f"{name} must be nonnegative, got {v!r}")
    lx, gx = max(lambda_x, 0.0), max(gamma_x, 0.0)
    ly, gy = max(lambda_y, 0.0), max(gamma_y, 0.0)
    if not (ly > 0.0 and gy > 0.0):
        raise ValidationError(
            f"need min(lambda_y, gamma_y) > 0, got lambda_y = {ly!r}, gamma_y = {gy!r}"
        )
    if ly - lx < -slack:
        raise ValidationError(
            f"lambda_y = {ly!r} smaller than lambda_x = {lx!r}: negative noise eigenvalue"
        )
    if gy - gx < -slack:
        raise ValidationError(
            f"gamma_y = {gy!r} smaller than gamma_x = {gx!r}: negative noise eigenvalue"
        )
    if lx == 0.0 and gx == 0.0:
        raise ValidationError("lambda_x and gamma_x cannot both be zero (no source)")

    sigma_x_sq = (lx + (L - 1) * gx) / L
    rho_x = (lx - gx) / (L * sigma_x_sq)
    lz = max(ly - lx, 0.0)
    gz = max(gy - gx, 0.0)
    sigma_z_sq = (lz + (L - 1) * gz) / L
    rho_z = (lz - gz) / (L * sigma_z_sq) if sigma_z_sq > 0.0 else 0.0
    return SourceSpec(L, sigma_x_sq, rho_x, sigma_z_sq, rho_z)


def d_min(spectrum: Spectrum, L: int) -> float:
    """Distortion floor: the remote-source MMSE per component.

    d_min = lambda_x lambda_z / (L lambda_y)
          + (L - 1) gamma_x gamma_z / (L gamma_y).

    No rate, however large, can push the per-component distortion below
    this value, because X is only observable through Y.  Each product is
    formed as x (z / y), so it stays representable wherever the
    eigenvalues are (z <= y on each direction).
    """
    s = spectrum
    return (s.lambda_x * (s.lambda_z / s.lambda_y)
            + (L - 1) * s.gamma_x * (s.gamma_z / s.gamma_y)) / L


def source_variance(spectrum: Spectrum, L: int) -> float:
    """Per-component source variance sigma_x^2 = (lambda_x + (L-1) gamma_x) / L.

    This is the distortion delivered at zero rate, i.e. the right edge of
    the nontrivial distortion interval (d_min, sigma_x^2).
    """
    return (spectrum.lambda_x + (L - 1) * spectrum.gamma_x) / L


def outside_interval(D: float, floor: float, ceil: float) -> DomainError:
    """The DomainError for a D outside (floor, ceil) = (d_min, sigma_x_sq)."""
    return DomainError(
        f"D = {D!r} outside the achievable interval (d_min, sigma_x_sq) = "
        f"({floor!r}, {ceil!r})"
    )


def unit_exponent(floor: float, least: int) -> int:
    """The least E >= least for which every float D >= floor is an integer over 2^E.

    Floats of frexp exponent x and up are multiples of 2^(x - 53); below
    the normal range (floor = 0 included) all are multiples of 2^-1074.
    """
    return max(least, 53 - math.frexp(floor)[1] if floor >= sys.float_info.min else 1074)


def side_view(spectrum: Spectrum, L: int) -> tuple[tuple, tuple, bool]:
    """(big, small, hatted): the eigen-directions as (x, y, multiplicity) triples.

    The triples are (lambda_x, lambda_y, 1) and (gamma_x, gamma_y, L - 1);
    "big" is the one with the larger y (lambda on a tie), and hatted is
    True when that is gamma.
    """
    s = spectrum
    lam = (s.lambda_x, s.lambda_y, 1)
    gam = (s.gamma_x, s.gamma_y, L - 1)
    return (lam, gam, False) if s.lambda_y >= s.gamma_y else (gam, lam, True)


# --- spec file format -------------------------------------------------------
#
# Flat "key = value" lines, '#' starts a comment, blank lines ignored.
# Required: the key L plus exactly one complete parameter family, either
# correlation form {sigma_x_sq, rho_x, sigma_z_sq, rho_z} or eigenvalue
# form {lambda_x, gamma_x, lambda_y, gamma_y}.

_CORR_KEYS = ("sigma_x_sq", "rho_x", "sigma_z_sq", "rho_z")
_EIG_KEYS = ("lambda_x", "gamma_x", "lambda_y", "gamma_y")


def parse_spec_text(text: str, name: str = "<spec>") -> SourceSpec:
    """Parse the key = value spec format into a validated SourceSpec.

    Parameters
    ----------
    text : str
        File contents.
    name : str
        Label used in diagnostics (typically the file path).

    Raises
    ------
    ValidationError
        On any syntax problem (with the 1-based line number), unknown or
        duplicate key, mixed or incomplete parameter family, or a spec
        that fails model validation.
    """
    values: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{name}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key != "L" and key not in _CORR_KEYS and key not in _EIG_KEYS:
            raise ValidationError(f"{name}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValidationError(
                f"{name}:{lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        try:
            values[key] = float(val)
        except ValueError:
            raise ValidationError(f"{name}:{lineno}: cannot parse value {val!r} for key {key!r}")
        if not math.isfinite(values[key]):
            raise ValidationError(
                f"{name}:{lineno}: {key} must be a finite number, got {val!r}"
            )
        lines[key] = lineno

    if "L" not in values:
        raise ValidationError(f"{name}: missing required key 'L'")
    L_raw = values.pop("L")
    if L_raw != int(L_raw):
        raise ValidationError(f"{name}:{lines['L']}: L must be an integer, got {L_raw!r}")
    L = int(L_raw)

    have_corr = [k for k in _CORR_KEYS if k in values]
    have_eig = [k for k in _EIG_KEYS if k in values]
    if have_corr and have_eig:
        raise ValidationError(
            f"{name}: mixed parameter families: correlation keys {have_corr} "
            f"with eigenvalue keys {have_eig}"
        )
    if have_corr:
        missing = [k for k in _CORR_KEYS if k not in values]
        if missing:
            raise ValidationError(f"{name}: incomplete correlation family, missing {missing}")
        return SourceSpec(L, values["sigma_x_sq"], values["rho_x"],
                          values["sigma_z_sq"], values["rho_z"])
    if have_eig:
        missing = [k for k in _EIG_KEYS if k not in values]
        if missing:
            raise ValidationError(f"{name}: incomplete eigenvalue family, missing {missing}")
        return from_eigenvalues(L, values["lambda_x"], values["gamma_x"],
                                values["lambda_y"], values["gamma_y"])
    raise ValidationError(
        f"{name}: no parameter family given; need {_CORR_KEYS} or {_EIG_KEYS}"
    )
