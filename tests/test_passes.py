"""The oracle's and the large-L layer's grid passes carry no state from one D to the next.

oracle.solutions and asymptotics.rows each take a whole grid, with their
D-free terms formed once; oracle.solve and asymptotics.asymptotic_row are
their one-element views (asymptotic_gap likewise of asymptotics.gaps).  On
shuffled grids that mix points next to the ends of the interval
(mpref.ends_probe), the ends themselves, the sqrt(L) window around
d_th0_inf and the ulps around d_th1_inf and d_th2_inf, every row of a pass
is its view's, bit for bit, and a D whose view raises ends the pass with
the view's error after the rows before it.
"""

import math
import random

import pytest

from symrd import PrecisionError, SourceSpec, d_min, source_variance, spectral_decompose
from symrd import asymptotics, oracle
from symrd.asymptotics import D_TH0_WINDOW, Condition, asymptotic_regime
from symrd.model import parse_spec_text
from test_golden import GOLDEN

SIZES = [2, 10, 1000, 10 ** 7]
# One golden spec per large-L condition, and two spectra at which h1's
# products of three variances underflow at d_th0_inf (alpha1 is undefined):
# at 1e-160 the other pieces still take values, at 1e-200 none does.
NAMED = ["asym_zero_mix", "asym_pos_mix_zero_rho", "asym_xi_ge_half", "asym_xi_lt_half"]
TINY = [SourceSpec(10, 1e-160, 0.3, 2e-160, 0.5), SourceSpec(10, 1e-200, 0.3, 2e-200, 0.5)]


def _failure(exc):
    return type(exc), str(exc), repr(getattr(exc, "best", None))


def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:
        return _failure(exc)


def _replay(run, grid):
    """Outcomes of run over grid, one per D, and the failures that ended a run mid-grid.

    A failing D ends the run; a new run starts after it.
    """
    outcomes, mid = [], 0
    while len(outcomes) < len(grid):
        start = len(outcomes)
        try:
            outcomes += map(repr, run(grid[start:]))
        except Exception as exc:
            mid += len(outcomes) > start
            outcomes.append(_failure(exc))
        else:
            assert len(outcomes) == len(grid)
    return outcomes, mid


def _specs():
    """(spec, extra D) pairs: the named and tiny specs, and every sixth point of ends_probe."""
    mpref = pytest.importorskip("mpref")
    named = [parse_spec_text((GOLDEN / f"{name}.spec").read_text()) for name in NAMED]
    return ([(spec, None) for spec in named + TINY]
            + [(spec, D) for spec, _, D in mpref.ends_probe()[::6]])


def _grid(spec, extra, rng):
    """A shuffled grid for spec: converse ends, large-L edges and any extra D."""
    mpref = pytest.importorskip("mpref")
    s = spectral_decompose(spec)
    lo, hi = d_min(s, spec.L), source_variance(s, spec.L)
    points = [lo, hi] + [lo + f * (hi - lo) for f in mpref.END_FRACTIONS]
    if extra is not None:
        points.append(extra)
    try:
        reg = asymptotic_regime(spec)
    except Exception:
        reg = None
    if reg is not None:
        points += [reg.d_min_inf, math.nextafter(reg.d_min_inf, hi)]
        if reg.d_th0_inf is not None and reg.d_th0_inf < hi:
            points += [reg.d_th0_inf + f * D_TH0_WINDOW * hi for f in (-0.9, 0.0, 0.9)]
            points += [0.5 * (reg.d_min_inf + reg.d_th0_inf), 0.5 * (reg.d_th0_inf + hi)]
        for edge in (reg.d_th1_inf, reg.d_th2_inf):
            if edge is not None:
                points += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, hi)]
    rng.shuffle(points)
    return points, reg


def test_passes_are_their_one_element_views_on_shuffled_grids():
    rng = random.Random(20261022)
    mid = {"oracle": 0, "rows": 0, "gaps": 0}
    conditions = set()
    for spec, extra in _specs():
        grid, reg = _grid(spec, extra, rng)
        if spec.sigma_x_sq > 1e-100:    # at 1e-200, prepare's squares underflow
            program = oracle.prepare(spectral_decompose(spec), spec.L)

            def oracle_view(D):
                point, value, cert = oracle.solve(program, D)
                v = point.beta if program.hatted else point.alpha
                return D, value, v, point.delta, cert

            outcomes, failed = _replay(lambda g: oracle.solutions(program, g), grid)
            assert outcomes == [_outcome(lambda: oracle_view(D)) for D in grid], spec
            mid["oracle"] += failed
        if reg is None:
            continue
        conditions.add(reg.condition)
        outcomes, failed = _replay(lambda g: asymptotics.rows(reg, SIZES, g), grid)
        assert outcomes == [_outcome(lambda: (D, *asymptotics.asymptotic_row(reg, SIZES, D)))
                            for D in grid], spec
        mid["rows"] += failed
        if reg.condition is Condition.PosMixPosRho_XiLtHalf:
            outcomes, failed = _replay(lambda g: asymptotics.gaps(reg, g), grid)
            assert outcomes == [_outcome(lambda: asymptotics.asymptotic_gap(reg, D))
                                for D in grid], spec
            mid["gaps"] += failed
    assert conditions == set(Condition)
    # Every pass met failures after rows of its own run, not only at its start.
    assert min(mid.values()) > 0, mid


def test_undefined_alpha1_ends_the_pass_after_the_rows_before_it():
    reg = asymptotic_regime(TINY[0])
    d0 = reg.d_th0_inf
    below, above = 0.5 * (reg.d_min_inf + d0), 0.5 * (d0 + reg.spec.sigma_x_sq)
    rows = asymptotics.rows(reg, SIZES, [below, above, d0, below])
    assert [row[0] for row in (next(rows), next(rows))] == [below, above]
    with pytest.raises(PrecisionError, match="^alpha1 of the sqrt"):
        next(rows)
    with pytest.raises(PrecisionError, match="^alpha1 of the sqrt"):
        asymptotics.upper_asymptotic(asymptotic_regime(TINY[1]), 100, TINY[1].sigma_x_sq * 0.7)
