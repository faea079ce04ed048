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
and gives Rbar, with the dispatch to Rbar, R1c or R2c (hatted or not) on the
Regime's thresholds.  evaluate, lower_bound_rate and lower_bound_piece
are its one-element views.  All rates are in nats.  Every closed form
here is validated elsewhere against an independent numerical solution of
the underlying minimization program; this module only evaluates formulas
and routes between them.
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
    Case 4: fully degenerate source spectrum (lambda_x = 0 on the lambda
    side, gamma_x = 0 on the gamma side); the composite family everywhere.
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

    classify builds it once per spectrum and rows takes it over a grid.
    prepared is upper_bound.prepare's: the spectrum, L and the lambda_q
    solve's constants, formed once per spectrum, from which
    upper_bound.solutions checks each D and forms its two slacks; big
    and small are model.side_view's (x, y, m) triples and hatted its
    orientation; case is the branch's case 1-4; m1, m2, d_th_1, d_th_2
    and d_th_c are the roots and switch points, None where the case does
    not define them (the roots too, when the discriminant alone settles
    case 1).  On the hatted side the roots are the paper's nu and the
    thresholds its hatted ones.
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
    """D_th^c: the switch point R_1^c -> R_2^c inside the composite family.

    Written with x^2 (1/x - 1/y) of the small side expanded to x - x^2/y,
    so that x_small = 0 evaluates cleanly.  Requires y_big != y_small.
    """
    (xb, yb, mb), (xs, ys, ms) = big, small
    return xb ** 2 / (yb - ys) + (ms * (xs - xs ** 2 / ys) + mb * xb) / L


# --- composite-rate pieces ---------------------------------------------------

def _not_positive(label: str, what: str, value: float) -> DomainError:
    """The DomainError for a piece's sub-expression that is not positive."""
    return DomainError(f"{label} {what} = {value!r} is not positive")


def _rc(label: str, big, small, L: int, slack: float, rest: float) -> float:
    """R_1^c or R_2^c (by label) over the given orientation, unclamped.

    slack and rest are L (D - d_min) and L (sigma_x_sq - D), the pair the
    lambda_q solve takes.  R_1^c's denominator adds
    m_b x_b^2 y_s / (y_b (y_b - y_s)) to slack, a sum of positive terms.
    R_2^c's subtracts m_b x_b^2 / y_b from slack; where rest is the
    smaller of the pair it is formed as m_s x_s^2 / y_s - rest, the same
    number, and R_2^c = L/2 ln(1 + rest / den), so that the rate keeps
    its digits as D -> sigma_x_sq, where the ratio m_s x_s^2 / (y_s den)
    nears 1.  A sub-expression that is not positive (a slack outside the
    piece's domain, or a small side without source) raises DomainError
    naming it.
    """
    (xb, yb, mb), (xs, ys, ms) = big, small
    first = label in (PIECE_R1C, PIECE_R1C_HAT)
    near_top = rest < slack
    if first:
        den = slack + mb * xb ** 2 * ys / (yb * (yb - ys))
    elif near_top:
        den = ms * xs ** 2 / ys - rest
    else:
        den = slack - mb * xb ** 2 / yb
    if not den > 0.0:
        raise _not_positive(label, "denominator", den)
    if not first:
        if near_top:
            return L / 2.0 * math.log1p(rest / den)
        arg = ms * xs ** 2 / ys / den
        if not arg > 0.0:
            raise _not_positive(label, "principal argument", arg)
        return L / 2.0 * math.log(arg)
    ratio = xb ** 2 / xs ** 2 / (yb / ys - 1.0)
    if not ratio > 0.0:
        raise _not_positive(label, "eigenvalue ratio", ratio)
    k = ms + 2 * mb
    arg = k * xs ** 2 / ys / den
    if not arg > 0.0:
        raise _not_positive(label, "principal argument", arg)
    return (k / 2.0 * math.log(arg)
            + mb / 2.0 * math.log(ratio)
            + L / 2.0 * math.log(ms / L))


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

    upper is upper_bound_rate, lower is lower_bound_rate and piece is
    lower_bound_piece for the regime's spectrum and L.  upper_bound's
    solutions checks each D and forms its exact slack pair, once, from
    the regime's prepared constants; the lambda_q solve and the composite
    pieces share it, and on Rbar segments lower reuses upper.  The
    dispatch's thresholds are read once per grid.  A generator: the rows
    before a failing D are yielded before its error is raised, with
    upper_bound_rate's domain rules and errors.
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
    for D, _, upper, slack, den, rest in upper_bound.solutions(r.prepared, grid):
        if D <= rbar_to or not D < rbar_from:
            yield D, upper, upper, PIECE_RBAR
        else:
            piece = first if D <= split else second
            yield D, upper, _rc(piece, big, small, L, slack / den, rest), piece


def evaluate(regime: Regime, D: float) -> tuple[float, float, str]:
    """(upper, lower, piece) at D: the one row of rows(regime, [D]) after its D."""
    return next(rows(regime, (D,)))[1:]


def lower_bound_rate(spectrum: Spectrum, L: int, D: float) -> float:
    """Lower bound on the sum rate in nats at per-component distortion D.

    Dispatches on the thresholds: Rbar on the segments where the bounds
    provably coincide, the composite family elsewhere.  The lower value of
    evaluate on classify's regime, with its domain rule: DomainError unless
    D lies in the open interval (d_min, sigma_x_sq).
    """
    return evaluate(classify(spectrum, L), D)[1]


def lower_bound_piece(spectrum: Spectrum, L: int, D: float) -> str:
    """Label of the piece lower_bound_rate uses at D.

    One of "Rbar", "R1c", "R2c", "R1c_hat", "R2c_hat": the piece of
    evaluate on classify's regime, with the same domain rule.
    """
    return evaluate(classify(spectrum, L), D)[2]
