"""Closed-form lower bound on the sum rate, with regime classification.

Every formula is written once, in the side view of the spectrum
(`model.side_view`): triples (x, y, m) for the eigen-direction with the
larger observation eigenvalue ("big") and for the other ("small").  With
lambda_y >= gamma_y big is lambda and results carry plain names
(LamGeqGam_*, R1c / R2c, roots mu, d_th_*); otherwise big is gamma and the
same formulas give the hatted family (GamGeqLam_*, R1c_hat / R2c_hat,
roots nu, d_th_*_hat).

The bound glues the upper bound Rbar to a composite family {R_1^c, R_2^c}.
The roots

    m_{1,2} = 1/2 ∓ 1/2 sqrt(1 - 4L x_big^2 y_small^2 / (m_small x_small^2 y_big^2)),

compared against y_small / y_big, give four cases per side: Rbar
everywhere; Rbar then R_c; Rbar / R_c / Rbar; and x_big = 0 with R_c
everywhere.  Rbar gives way at D_th,1 = D_th(m_2) and returns at
D_th,2 = D_th(m_1); inside R_c the switch R_1^c -> R_2^c is at D_th^c.

classify settles this once per spectrum in a Regime, whose branch names
the side and case.  rows is the converse pass over a grid of D: it wraps
upper_bound.solutions, which checks each D, forms its exact slack pair
and gives Rbar, and dispatches on the Regime's thresholds to Rbar or to
R1c or R2c (hatted or not), whose D-free terms it forms once per grid.
evaluate, lower_bound_rate and lower_bound_piece are its one-element
views.  All rates are in nats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import upper_bound
from .errors import DomainError
from .model import Spectrum, side_view

#: Piece labels used in reports and CSV output.
PIECE_RBAR = "Rbar"
PIECE_R1C = "R1c"
PIECE_R2C = "R2c"
PIECE_R1C_HAT = "R1c_hat"
PIECE_R2C_HAT = "R2c_hat"


class Branch(enum.Enum):
    """Regime branch: side (which of lambda_y, gamma_y is larger) and case.

    Case 1: the lower bound equals Rbar for every distortion.
    Case 2: Rbar up to D_th,1, then the composite family.
    Case 3: Rbar, composite on (D_th,1, D_th,2), then Rbar again.
    Case 4: x_big = 0, or too small to move m2 off 1; composite everywhere.
    """

    LamGeqGam_1 = "LamGeqGam_1"
    LamGeqGam_2 = "LamGeqGam_2"
    LamGeqGam_3 = "LamGeqGam_3"
    LamGeqGam_4 = "LamGeqGam_4"
    GamGeqLam_1 = "GamGeqLam_1"
    GamGeqLam_2 = "GamGeqLam_2"
    GamGeqLam_3 = "GamGeqLam_3"
    GamGeqLam_4 = "GamGeqLam_4"


@dataclass(frozen=True)
class Regime:
    """A classified spectrum: all the dispatch needs at any D.

    prepared is upper_bound.prepare's constants of the lambda_q solve; big
    and small are model.side_view's (x, y, m) triples and hatted its
    orientation; case is the branch's case 1-4; m1, m2, d_th_1, d_th_2 and
    d_th_c are the roots and switch points, None where the case does not
    define them (the roots too, when the discriminant alone settles case
    1).  On the hatted side they are the paper's nu and hatted thresholds.
    """

    prepared: upper_bound.Prepared
    big: tuple
    small: tuple
    hatted: bool
    case: int
    m1: float | None = None
    m2: float | None = None
    d_th_1: float | None = None
    d_th_2: float | None = None
    d_th_c: float | None = None

    @property
    def branch(self) -> Branch:
        """The Branch of the side and case."""
        return _BRANCHES[self.hatted][self.case - 1]


# Names of each side's results, indexed by the hatted flag.
_BRANCHES = ((Branch.LamGeqGam_1, Branch.LamGeqGam_2, Branch.LamGeqGam_3, Branch.LamGeqGam_4),
             (Branch.GamGeqLam_1, Branch.GamGeqLam_2, Branch.GamGeqLam_3, Branch.GamGeqLam_4))
_PIECES = ((PIECE_R1C, PIECE_R2C), (PIECE_R1C_HAT, PIECE_R2C_HAT))


# --- thresholds ---------------------------------------------------------------

def _d_th(big, small, L: int, m: float) -> float:
    """Transition distortion at root m: D_th,1 at m2 and D_th,2 at m1."""
    (xb, yb, mb), (xs, ys, ms) = big, small
    return (mb * xb + ms * xs
            - mb * xb ** 2 / (yb - ys)
            + ms * xs ** 2 / (yb - ys)
            - m * ms * xs ** 2 / ys / (1.0 - ys / yb)
            + (1.0 / m) * mb * xb ** 2 / yb / (yb / ys - 1.0)
            ) / L


def _d_th_c(big, small, L: int) -> float:
    """D_th^c, the switch R_1^c -> R_2^c, with y_big != y_small.

    The small side's x^2 (1/x - 1/y) is x - x^2/y, clean at x_small = 0.
    """
    (xb, yb, mb), (xs, ys, ms) = big, small
    return xb ** 2 / (yb - ys) + (ms * (xs - xs ** 2 / ys) + mb * xb) / L


# --- composite-rate pieces ---------------------------------------------------

def _not_positive(label: str, what: str, value: float) -> DomainError:
    """The DomainError for a piece's sub-expression that is not positive."""
    return DomainError(f"{label} {what} = {value!r} is not positive")


def _terms(label: str, big, small, L: int) -> tuple:
    """R_1^c's or R_2^c's (by label) D-free terms (first, top, half, shift, refusal, logs).

    R_2^c: m_s x_s^2 / y_s, L/2 and m_b x_b^2 / y_b.  R_1^c, k = m_s + 2 m_b:
    k x_s^2 / y_s, k/2, m_b x_b^2 y_s / (y_b (y_b - y_s)), and the logs
    m_b/2 ln(ratio) and L/2 ln(m_s / L) of the eigenvalue ratio
    x_b^2 / x_s^2 / (y_b / y_s - 1); a ratio that cannot be formed or is not
    positive leaves its error as refusal, raised after the denominator check.
    """
    (xb, yb, mb), (xs, ys, ms) = big, small
    if label not in (PIECE_R1C, PIECE_R1C_HAT):
        return False, ms * xs ** 2 / ys, L / 2.0, mb * xb ** 2 / yb, None, None
    k = ms + 2 * mb
    shift = mb * xb ** 2 * ys / (yb * (yb - ys))
    try:
        ratio = xb ** 2 / xs ** 2 / (yb / ys - 1.0)
    except ZeroDivisionError as exc:    # x_s^2 is 0
        return True, None, None, shift, exc, None
    if not ratio > 0.0:
        return True, None, None, shift, _not_positive(label, "eigenvalue ratio", ratio), None
    return (True, k * xs ** 2 / ys, k / 2.0, shift, None,
            (mb / 2.0 * math.log(ratio), L / 2.0 * math.log(ms / L)))


def _rc(label: str, slack: float, rest: float, terms: tuple) -> float:
    """R_1^c or R_2^c (by label) at the slack pair, unclamped, from its _terms.

    slack and rest are L (D - d_min) and L (sigma_x_sq - D).  R_1^c's
    denominator is slack + shift, a sum of positive terms; R_2^c's is
    slack - shift, or top - rest where rest is the smaller, and then
    R_2^c = L/2 ln(1 + rest / den) keeps its digits as D -> sigma_x_sq.  A
    sub-expression that is not positive raises DomainError naming it.
    """
    first, top, half, shift, refusal, logs = terms
    near_top = not first and rest < slack
    den = slack + shift if first else top - rest if near_top else slack - shift
    if not den > 0.0:
        raise _not_positive(label, "denominator", den)
    if near_top:
        return half * math.log1p(rest / den)
    if refusal:
        raise refusal
    arg = top / den
    if not arg > 0.0:
        raise _not_positive(label, "principal argument", arg)
    value = half * math.log(arg)
    return value + logs[0] + logs[1] if first else value


# --- classification and dispatch ---------------------------------------------

def classify(spectrum: Spectrum, L: int) -> Regime:
    """Classify a spectrum once: solve constants, side view, case and switch points."""
    big, small, hatted = side_view(spectrum, L)
    (xb, yb, mb), (xs, ys, ms) = big, small
    view = (upper_bound.prepare(spectrum, L), big, small, hatted)
    # The contrast (x_b y_s / (x_s y_b))^2 from two ratios, so that no
    # product of variances leaves float64; x_s = 0 is case 1.
    root = xb / xs * (ys / yb) if xs else math.inf
    contrast = root * root
    if contrast >= ms / (4.0 * L):
        return Regime(*view, 1)
    # m1 = (1 - r) / 2 cancels when q is small: take its product form.
    q = 4.0 * L / ms * contrast
    r = math.sqrt(max(1.0 - q, 0.0))
    m1, m2 = q / (2.0 * (1.0 + r)), (1.0 + r) / 2.0
    ratio = ys / yb
    if m2 <= ratio:
        return Regime(*view, 1, m1, m2)
    if m1 <= ratio and ratio < m2 < 1.0:
        case = 2
    elif m1 > ratio and m2 < 1.0:
        case = 3
    else:
        case = 4
    return Regime(*view, case, m1, m2,
                  _d_th(big, small, L, m2) if case < 4 else None,
                  _d_th(big, small, L, m1) if case == 3 else None,
                  _d_th_c(big, small, L))


def rows(regime: Regime, grid):
    """(D, upper, lower, piece) for each D of grid, in order, from one converse pass.

    upper, lower and piece are upper_bound_rate, lower_bound_rate and
    lower_bound_piece for the regime's spectrum and L.  Each D's exact
    slack pair, from upper_bound.solutions, serves the lambda_q solve and
    the composite pieces; on Rbar segments lower reuses upper.  The
    thresholds are read once per grid, and each piece's D-free terms are
    formed (_terms) at the first row that takes it, which raises their
    error if they cannot be.  A generator: the rows before a failing D
    are yielded before its error is raised, with upper_bound_rate's rules.
    """
    r = regime
    big, small, L = r.big, r.small, r.prepared.L
    # Rbar up to rbar_to (everywhere in case 1) and from rbar_from on.
    rbar_to = math.inf if r.case == 1 else -math.inf if r.d_th_1 is None else r.d_th_1
    rbar_from = math.inf if r.d_th_2 is None else r.d_th_2
    # With x_big = 0 (case 4) only this side's family is finite, and d_th_c
    # is d_min: every D takes its second piece, however d_th_c rounds.
    split = r.d_th_c if big[0] != 0.0 else -math.inf
    first, second = _PIECES[r.hatted]
    terms1 = terms2 = None
    for D, _, upper, slack, den, rest in upper_bound.solutions(r.prepared, grid):
        if D <= rbar_to or not D < rbar_from:
            yield D, upper, upper, PIECE_RBAR
        elif D <= split:
            yield D, upper, _rc(first, slack / den, rest,
                                terms1 := terms1 or _terms(first, big, small, L)), first
        else:
            yield D, upper, _rc(second, slack / den, rest,
                                terms2 := terms2 or _terms(second, big, small, L)), second


def evaluate(regime: Regime, D: float) -> tuple[float, float, str]:
    """(upper, lower, piece) at D: the one row of rows(regime, [D]) after its D."""
    return next(rows(regime, (D,)))[1:]


def lower_bound_rate(spectrum: Spectrum, L: int, D: float) -> float:
    """Lower bound on the sum rate in nats at per-component distortion D.

    The lower value of evaluate on classify's regime: Rbar where the bounds
    provably coincide, the composite family elsewhere.  DomainError unless
    D lies in the open interval (d_min, sigma_x_sq).
    """
    return evaluate(classify(spectrum, L), D)[1]


def lower_bound_piece(spectrum: Spectrum, L: int, D: float) -> str:
    """Label of the piece lower_bound_rate uses at D.

    One of "Rbar", "R1c", "R2c", "R1c_hat", "R2c_hat": the piece of
    evaluate on classify's regime, with the same domain rule.
    """
    return evaluate(classify(spectrum, L), D)[2]
