"""Tests for the piecewise closed-form converse (lower) bound.

Reference values marked "50-digit reference" were computed independently
with an mpmath program (the quadratic threshold roots and each closed-form
piece evaluated at 50 decimal digits, cross-checked against a golden-section
solve of the underlying convex program); frozen here as float literals.
test_composite_pieces_on_random_probe compares the dispatched composite
pieces with the replay in tests/mpref.py over the range the library accepts.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from symrd import (
    Branch,
    DomainError,
    PIECE_R1C,
    PIECE_R1C_HAT,
    PIECE_R2C,
    PIECE_R2C_HAT,
    PIECE_RBAR,
    SourceSpec,
    d_min,
    from_eigenvalues,
    lower_bound_piece,
    lower_bound_rate,
    solve_lambda_q,
    source_variance,
    spectral_decompose,
    upper_bound_rate,
)
import symrd.upper_bound
from symrd.lower_bound import _rc, classify, evaluate, rows
from symrd.model import outside_interval, parse_spec_text

GOLDEN = Path(__file__).resolve().parent / "golden"

L_CASES = 10
CASE1 = (0.8, 1.0, 5.0, 4.0)    # coincidence everywhere
CASE2 = (0.5, 1.0, 6.0, 3.0)    # composite after D_th,1
CASE3 = (1.0, 0.45, 12.0, 2.4)  # composite window (D_th,1, D_th,2)
SPEC_B = (5.0, 0.1, 6.0, 8.0)   # gamma-side composite window
SPEC_C = (5.0, 0.0, 6.0, 8.0)   # gamma-side degenerate gamma_x = 0
SPEC_D = (0.0, 1.0, 2.0, 1.5)   # lambda-side degenerate lambda_x = 0

# 50-digit reference: threshold quantities.
CASE2_MU1 = 0.0750817072006012641643146575814
CASE2_MU2 = 0.924918292799398735835685342419
CASE2_D_TH_1 = 0.69122059341906350101511434067
CASE2_D_TH_C = 0.733333333333333333333333333333
CASE3_MU1 = 0.32529664570265548497554332634
CASE3_MU2 = 0.67470335429734451502445667366
CASE3_D_TH_1 = 0.452611377628770759557537525181
CASE3_D_TH_2 = 0.489094351537895907109129141485
CASE3_D_TH_C = 0.533229166666666666666666666667
SPEC_B_NU1 = 0.00225508541020732996164315767471
SPEC_B_NU2 = 0.997744914589792670038356842325
SPEC_B_D_TH_1_HAT = 0.175974437132323211545203332637
SPEC_B_D_TH_C_HAT = 0.178333333333333333333333333333

# 50-digit reference: composite-piece rates (nats).
CASE2_R1C_AT_071 = 8.02035537921521871941248377023
CASE2_R2C_AT_080 = 3.46573590279972654708616060729
CASE3_R1C_AT_047 = 2.83365183122335040724564439145
SPEC_B_R1C_HAT_AT_0177 = 23.5509373583479573504602126493
SPEC_B_R2C_HAT_AT_040 = 3.04403016063097212359139569445
SPEC_C_R2C_HAT_AT_030 = 3.26963233703332006574015612444
SPEC_D_R2C_AT_060 = 3.46573590279972654708616060729


def _spectrum(eig):
    return spectral_decompose(from_eigenvalues(L_CASES, *eig))


def test_branch_classification():
    assert classify(_spectrum(CASE1), L_CASES).branch == Branch.LamGeqGam_1
    assert classify(_spectrum(CASE2), L_CASES).branch == Branch.LamGeqGam_2
    assert classify(_spectrum(CASE3), L_CASES).branch == Branch.LamGeqGam_3
    assert classify(_spectrum(SPEC_B), L_CASES).branch == Branch.GamGeqLam_2
    assert classify(_spectrum(SPEC_C), L_CASES).branch == Branch.GamGeqLam_4
    assert classify(_spectrum(SPEC_D), L_CASES).branch == Branch.LamGeqGam_4


def test_case2_thresholds():
    r = classify(_spectrum(CASE2), L_CASES)
    assert not r.hatted
    assert abs(r.m1 - CASE2_MU1) < 1e-14
    assert abs(r.m2 - CASE2_MU2) < 1e-14
    assert abs(r.d_th_1 - CASE2_D_TH_1) < 1e-13
    assert abs(r.d_th_c - CASE2_D_TH_C) < 1e-13
    # in this branch the composite runs to sigma_x^2, so there is no
    # second re-matching threshold
    assert r.d_th_2 is None


def test_case3_thresholds():
    r = classify(_spectrum(CASE3), L_CASES)
    assert not r.hatted
    assert abs(r.m1 - CASE3_MU1) < 1e-14
    assert abs(r.m2 - CASE3_MU2) < 1e-14
    assert abs(r.m1 + r.m2 - 1.0) < 1e-14
    assert abs(r.d_th_1 - CASE3_D_TH_1) < 1e-13
    assert abs(r.d_th_2 - CASE3_D_TH_2) < 1e-13
    assert abs(r.d_th_c - CASE3_D_TH_C) < 1e-13


def test_spec_b_thresholds():
    r = classify(_spectrum(SPEC_B), L_CASES)
    assert r.hatted
    assert abs(r.m1 - SPEC_B_NU1) < 1e-14
    assert abs(r.m2 - SPEC_B_NU2) < 1e-14
    assert abs(r.d_th_1 - SPEC_B_D_TH_1_HAT) < 1e-13
    assert abs(r.d_th_c - SPEC_B_D_TH_C_HAT) < 1e-13


def test_case1_no_composite_thresholds():
    r = classify(_spectrum(CASE1), L_CASES)
    assert r.branch == Branch.LamGeqGam_1
    for field in ("m1", "m2", "d_th_1", "d_th_2", "d_th_c"):
        assert getattr(r, field) is None


@pytest.mark.parametrize(
    "eig, D, piece, rate",
    [
        (CASE2, 0.71, PIECE_R1C, CASE2_R1C_AT_071),
        (CASE2, 0.80, PIECE_R2C, CASE2_R2C_AT_080),
        (CASE3, 0.47, PIECE_R1C, CASE3_R1C_AT_047),
        (SPEC_B, 0.177, PIECE_R1C_HAT, SPEC_B_R1C_HAT_AT_0177),
        (SPEC_B, 0.40, PIECE_R2C_HAT, SPEC_B_R2C_HAT_AT_040),
        (SPEC_C, 0.30, PIECE_R2C_HAT, SPEC_C_R2C_HAT_AT_030),
        (SPEC_D, 0.60, PIECE_R2C, SPEC_D_R2C_AT_060),
    ],
)
def test_frozen_composite_rates(eig, D, piece, rate):
    s = _spectrum(eig)
    got = lower_bound_rate(s, L_CASES, D)
    assert abs(got - rate) <= 1e-10 * max(1.0, rate)
    assert lower_bound_piece(s, L_CASES, D) == piece


@pytest.mark.parametrize(
    "eig, D",
    [
        (CASE2, 0.67),   # below D_th,1
        (CASE3, 0.43),   # below D_th,1
        (CASE3, 0.495),  # above D_th,2
        (SPEC_B, 0.174), # below hatted D_th,1
    ],
)
def test_matching_regions(eig, D):
    s = _spectrum(eig)
    lo = lower_bound_rate(s, L_CASES, D)
    up = upper_bound_rate(s, L_CASES, D)
    assert abs(lo - up) <= 1e-12 * max(1.0, up)
    assert lower_bound_piece(s, L_CASES, D) == PIECE_RBAR


def test_case1_matches_upper_everywhere():
    s = _spectrum(CASE1)
    dm = d_min(s, L_CASES)
    sx2 = source_variance(s, L_CASES)
    for frac in np.linspace(0.02, 0.98, 15):
        D = dm + (sx2 - dm) * float(frac)
        assert lower_bound_piece(s, L_CASES, D) == PIECE_RBAR
        lo = lower_bound_rate(s, L_CASES, D)
        up = upper_bound_rate(s, L_CASES, D)
        assert abs(lo - up) <= 1e-12 * max(1.0, up)


# (spectrum, hatted, [(threshold, piece below it, piece above it)]).
BREAKPOINTS = [
    (CASE2, False, [("d_th_1", PIECE_RBAR, PIECE_R1C), ("d_th_c", PIECE_R1C, PIECE_R2C)]),
    (CASE3, False, [("d_th_1", PIECE_RBAR, PIECE_R1C), ("d_th_2", PIECE_R1C, PIECE_RBAR)]),
    (SPEC_B, True, [("d_th_1", PIECE_RBAR, PIECE_R1C_HAT),
                    ("d_th_c", PIECE_R1C_HAT, PIECE_R2C_HAT)]),
]


def test_continuity_at_breakpoints():
    # adjoining pieces, replayed at 50 digits, agree at the breakpoints
    # that classify gives
    mpref = pytest.importorskip("mpref")
    for eig, hatted, breaks in BREAKPOINTS:
        s = _spectrum(eig)
        regime, exact = classify(s, L_CASES), mpref.exact(s)
        assert regime.hatted is hatted
        for name, below, above in breaks:
            D = getattr(regime, name)
            jump = (mpref.lower(below, exact, L_CASES, D)[0]
                    - mpref.lower(above, exact, L_CASES, D)[0])
            assert abs(jump) <= 1e-8, (eig, name)


def test_piece_switches_across_breakpoints():
    s2 = _spectrum(CASE2)
    t2 = classify(s2, L_CASES)
    eps = 1e-9
    assert lower_bound_piece(s2, L_CASES, t2.d_th_1 * (1 - eps)) == PIECE_RBAR
    assert lower_bound_piece(s2, L_CASES, t2.d_th_1 * (1 + eps)) == PIECE_R1C
    assert lower_bound_piece(s2, L_CASES, t2.d_th_c * (1 - eps)) == PIECE_R1C
    assert lower_bound_piece(s2, L_CASES, t2.d_th_c * (1 + eps)) == PIECE_R2C
    s3 = _spectrum(CASE3)
    t3 = classify(s3, L_CASES)
    assert lower_bound_piece(s3, L_CASES, t3.d_th_1 * (1 - eps)) == PIECE_RBAR
    assert lower_bound_piece(s3, L_CASES, t3.d_th_1 * (1 + eps)) == PIECE_R1C
    assert lower_bound_piece(s3, L_CASES, t3.d_th_2 * (1 - eps)) == PIECE_R1C
    assert lower_bound_piece(s3, L_CASES, t3.d_th_2 * (1 + eps)) == PIECE_RBAR


def test_degenerate_gamma_unhatted_flag():
    # with gamma_x = 0 the unhatted composite degenerates (its numerator is
    # exactly zero); the dispatch routes to the hatted family, and both
    # unhatted pieces evaluated at the same point raise a domain error
    s = _spectrum(SPEC_C)
    default = lower_bound_rate(s, L_CASES, 0.30)
    assert abs(default - SPEC_C_R2C_HAT_AT_030) <= 1e-10 * default
    big, small = (s.lambda_x, s.lambda_y, 1), (s.gamma_x, s.gamma_y, L_CASES - 1)
    for piece in (PIECE_R1C, PIECE_R2C):
        with pytest.raises(DomainError) as exc:
            _rc(piece, big, small, L_CASES, L_CASES * (0.30 - d_min(s, L_CASES)),
                L_CASES * (source_variance(s, L_CASES) - 0.30))
        assert "not positive" in str(exc.value)


def test_case4_next_to_d_min_takes_the_second_piece():
    # lambda_x = 0 on the big side (case 4): d_th_c is d_min exactly, but
    # here it rounds up to D itself, the first float above the exact d_min,
    # where R1c's x_big^2 ratio is 0.  The piece is R2c, within
    # |slope| ulp(D) of the 50-digit replay of the spec (the interval
    # (d_min, sigma_x_sq) is 1.6e-10 of D wide).
    mpref = pytest.importorskip("mpref")
    spec = SourceSpec(69, 1.3286829670253533e-14, -0.014705882352941176,
                      0.00020529762339667663, 0.6014446148208858)
    s, D = spectral_decompose(spec), 1.3286829668064209e-14
    regime = classify(s, spec.L)
    assert regime.branch is Branch.LamGeqGam_4 and D <= regime.d_th_c
    exact = mpref.spectrum(spec)
    assert math.nextafter(D, 0.0) < mpref.d_min(exact, spec.L) < D
    _, lower, piece = evaluate(regime, D)
    assert piece == PIECE_R2C
    rate, slope = mpref.piece(piece, exact, spec.L, D)
    assert abs(lower - float(rate)) <= abs(float(slope)) * math.ulp(D)


def _inside_exact_interval(spec, D) -> bool:
    """Whether D lies inside (d_min, sigma_x_sq) of the spec's exact spectrum."""
    mpref = pytest.importorskip("mpref")
    exact = mpref.spectrum(spec)
    return mpref.d_min(exact, spec.L) < D < mpref.sigma_x_sq(exact, spec.L)


def _assert_views_refuse(s, L, D, error):
    """Each one-shot view refuses D with the pass's error, message and all."""
    for view in (upper_bound_rate, lower_bound_rate, lower_bound_piece, solve_lambda_q):
        with pytest.raises(type(error), match=re.escape(str(error))):
            view(s, L, D)


def test_evaluate_is_the_three_calls_with_one_solve(monkeypatch):
    # evaluate returns (upper_bound_rate, lower_bound_rate, lower_bound_piece)
    # from a single lambda_q solve on the regime's prepared constants, on
    # every arm and on both sides, and over the oracle's certificate probe
    # (L up to 1e6, variances within 1e+-30).  The converse pass takes each
    # root with one quadratic_root call, so the calls count the solves.
    # A probe D that the float ends admit but the spectrum's exact ones do
    # not is refused as outside the exact interval, by evaluate and by
    # each view alike.
    mpref = pytest.importorskip("mpref")
    root = symrd.upper_bound.quadratic_root
    solves = []

    def counted(*args):
        solves.append(args)
        return root(*args)

    monkeypatch.setattr(symrd.upper_bound, "quadratic_root", counted)
    points = []
    for eig in (CASE1, CASE2, CASE3, SPEC_B, SPEC_C, SPEC_D):
        spec = from_eigenvalues(L_CASES, *eig)
        s = spectral_decompose(spec)
        lo, hi = d_min(s, L_CASES), source_variance(s, L_CASES)
        points += [(spec, s, lo + frac * (hi - lo)) for frac in (0.05, 0.3, 0.6, 0.95)]
    points += mpref.certificate_probe()
    refused = 0
    for spec, s, D in points:
        L = spec.L
        solves.clear()
        if not _inside_exact_interval(spec, D):
            with pytest.raises(DomainError, match="outside the exact interval") as exc:
                evaluate(classify(s, L), D)
            _assert_views_refuse(s, L, D, exc.value)
            refused += 1
            continue
        got = evaluate(classify(s, L), D)
        assert len(solves) == 1
        assert got == (upper_bound_rate(s, L, D),
                       lower_bound_rate(s, L, D),
                       lower_bound_piece(s, L, D))
    assert refused < 10


def _bits(row) -> tuple:
    """A row's floats as hex, so that equal means equal in every bit."""
    return tuple(cell.hex() if isinstance(cell, float) else cell for cell in row)


def _views(s, L: int, D: float) -> tuple:
    """The one-shot values at D, each from its own view of the pass."""
    return _bits((D, upper_bound_rate(s, L, D), lower_bound_rate(s, L, D),
                  lower_bound_piece(s, L, D))), solve_lambda_q(s, L, D).hex()


def _grids():
    """(spec, s, grid): 40 points over 98% of each arm's interval, and the
    certificate probe's points with four more D of the same spectrum."""
    for arm in Branch:
        spec = parse_spec_text((GOLDEN / f"{arm.value.lower()}.spec").read_text())
        s, L = spectral_decompose(spec), spec.L
        lo, hi = d_min(s, L), source_variance(s, L)
        yield spec, s, [lo + (0.01 + 0.98 * k / 39) * (hi - lo) for k in range(40)]
    for spec, s, D in pytest.importorskip("mpref").certificate_probe():
        lo, hi = d_min(s, spec.L), source_variance(s, spec.L)
        grid = [D] + [lo + f * (hi - lo) for f in (1e-3, 0.3, 0.7, 1.0 - 1e-3)]
        yield spec, s, [x for x in grid if lo < x < hi]


def test_rows_are_the_per_d_views():
    # the converse pass over a grid gives, row by row and in every bit,
    # what the one-shot views give at each D alone: upper_bound_rate,
    # lower_bound_rate, lower_bound_piece, and the solve's lambda_q; a D
    # outside the spectrum's exact interval fails the pass as it fails
    # each view
    arms = set()
    for spec, s, grid in _grids():
        L = spec.L
        regime = classify(s, L)
        arms.add(regime.branch)
        inside = [D for D in grid if _inside_exact_interval(spec, D)]
        for D in grid:
            if D not in inside:
                with pytest.raises(DomainError, match="outside the exact interval") as exc:
                    list(rows(regime, [D]))
                _assert_views_refuse(s, L, D, exc.value)
        got = [_bits(row) for row in rows(regime, inside)]
        lambdas = [lambda_q.hex() for _, lambda_q, *_ in
                   symrd.upper_bound.solutions(regime.prepared, inside)]
        assert list(zip(got, lambdas)) == [_views(s, L, D) for D in inside]
    assert arms == set(Branch)


def test_roots_match_50_digit_replay():
    # classify's m1 and m2 against their 50-digit values on the regime's
    # own side view, over seeded eigenvalue specs: within 4 eps times
    # (1 + 1/r), the conditioning of 1/2 -+ r/2 in the rounding of
    # q = 4 L contrast / m_s.  m1 = (1 - r)/2 cancels where q is small:
    # that form is up to 4e9 times this bound off on these specs.
    mpref = pytest.importorskip("mpref")
    rng = np.random.default_rng(20261020)
    checked = 0
    while checked < 2000:
        L = max(2, round(float(np.exp(rng.uniform(np.log(2.0), np.log(1e6))))))
        lx, gx, lz, gz = (float(v) for v in 10.0 ** rng.uniform(-3, 3, size=4))
        s = spectral_decompose(from_eigenvalues(L, lx, gx, lx + lz, gx + gz))
        regime = classify(s, L)
        if regime.m1 is None:
            continue
        checked += 1
        m1, m2, r = mpref.roots(regime.big, regime.small, L)
        bound = 4 * np.finfo(float).eps * (1 + 1 / float(r))
        for got, ref in ((regime.m1, m1), (regime.m2, m2)):
            assert float(abs(got - ref) / ref) <= bound, (L, s)


def test_noiseless_and_uncorrelated_noise_specs_are_case_1():
    # Two families whose converse is Rbar at every D: noiseless specs
    # (rho_x over its open range; rho_z drawn but unused), and specs with
    # rho_z = 0 and rho_x >= 0, rho_x = 1 (the CEO problem) with odds 1 in
    # 10.  L is log-uniform on [2, 1e7] and sigma_x_sq, sigma_z_sq are
    # 10^U(-3, 3).
    rng = np.random.default_rng(20261022)
    for k in range(20000):
        L = max(2, round(math.exp(rng.uniform(math.log(2.0), math.log(1e7)))))
        sigma_x_sq = 10.0 ** rng.uniform(-3, 3)
        if k % 2:
            rho_x = (rng.uniform(-1.0 / (L - 1), 0.0) if rng.random() < 0.5
                     else rng.uniform(0.0, 1.0))
            spec = SourceSpec(L, sigma_x_sq, rho_x, 0.0, rng.uniform(0.0, 1.0))
        else:
            rho_x = 1.0 if rng.random() < 0.1 else rng.uniform(0.0, 1.0)
            spec = SourceSpec(L, sigma_x_sq, rho_x, 10.0 ** rng.uniform(-3, 3), 0.0)
        assert classify(spectral_decompose(spec), L).case == 1, spec


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("arm", list(Branch))
def test_evaluate_errors_are_upper_bound_rates(arm):
    # at both ends of (d_min, sigma_x_sq) and one ulp inside them, evaluate
    # raises (or returns) what upper_bound_rate does, on every arm; the
    # DomainError is model.outside_interval's, worded in one place
    spec = parse_spec_text((GOLDEN / f"{arm.value.lower()}.spec").read_text())
    s, L = spectral_decompose(spec), spec.L
    regime = classify(s, L)
    assert regime.branch is arm
    lo, hi = d_min(s, L), source_variance(s, L)
    for D in (lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)):
        got = _outcome(lambda: evaluate(regime, D)[0])
        assert got == _outcome(lambda: upper_bound_rate(s, L, D))
        if D in (lo, hi):
            assert got == (DomainError, str(outside_interval(D, lo, hi)))


def test_rejects_out_of_range_distortion():
    s = _spectrum(CASE2)
    with pytest.raises(DomainError):
        lower_bound_rate(s, L_CASES, d_min(s, L_CASES))
    with pytest.raises(DomainError):
        lower_bound_rate(s, L_CASES, source_variance(s, L_CASES))


def test_rc_domain_errors_name_the_subexpression():
    # R1c evaluated far outside its validity window hits a named guard
    s = _spectrum(CASE2)
    big, small = (s.lambda_x, s.lambda_y, 1), (s.gamma_x, s.gamma_y, L_CASES - 1)
    with pytest.raises(DomainError) as exc:
        _rc(PIECE_R1C, big, small, L_CASES, L_CASES * (0.60 - d_min(s, L_CASES)),
            L_CASES * (source_variance(s, L_CASES) - 0.60))
    assert "R1c" in str(exc.value)


def test_sandwich_property():
    rng = np.random.default_rng(77013)
    for _ in range(400):
        L = int(rng.integers(2, 13))
        sx2 = float(10.0 ** rng.uniform(-1, 1))
        rx = float(rng.uniform(-0.95 / (L - 1), 0.95))
        sz2 = float(10.0 ** rng.uniform(-1, 1))
        rz = float(rng.uniform(-0.95 / (L - 1), 0.95))
        s = spectral_decompose(SourceSpec(L, sx2, rx, sz2, rz))
        dm = d_min(s, L)
        top = source_variance(s, L)
        D = dm + (top - dm) * float(rng.uniform(0.02, 0.98))
        lo = lower_bound_rate(s, L, D)
        up = upper_bound_rate(s, L, D)
        assert lo <= up + 1e-10


def test_threshold_ordering_property():
    # whenever composite thresholds exist they sit inside (d_min, sigma_x^2)
    # in the right order
    rng = np.random.default_rng(61553)
    seen_windows = 0
    for _ in range(400):
        L = int(rng.integers(2, 13))
        sx2 = float(10.0 ** rng.uniform(-1, 1))
        rx = float(rng.uniform(-0.95 / (L - 1), 0.95))
        sz2 = float(10.0 ** rng.uniform(-1, 1))
        rz = float(rng.uniform(-0.95 / (L - 1), 0.95))
        s = spectral_decompose(SourceSpec(L, sx2, rx, sz2, rz))
        dm = d_min(s, L)
        top = source_variance(s, L)
        r = classify(s, L)
        lo, hi = r.d_th_1, r.d_th_2
        if lo is not None:
            assert dm < lo < top
        if lo is not None and hi is not None:
            assert lo < hi
            seen_windows += 1
    assert seen_windows > 0


# A composite piece's error is held to
#   PIECE_D_ULPS * |dR/dD| * ulp(D) + PIECE_RATE_ULPS * ulp(R).
# Its denominator starts from the slack L (D - d_min), which carries d_min's
# rounding (at most 4 ulps of D), and adds or subtracts one term whose
# rounding is at most 2 eps of the slack: 8 ulps of D in all.  The second
# term covers the logarithms and their sum.  (Measured: at most 2.8 times
# the plain sum of the two; the per-side summation order this replaced
# reached 4.2e3 times it on the same points.)
PIECE_D_ULPS = 8
PIECE_RATE_ULPS = 8


def test_composite_pieces_on_random_probe():
    mpref = pytest.importorskip("mpref")
    checked, off = 0, []
    for spec, s, D in mpref.probe(seed=20261019, n=10000):
        piece = lower_bound_piece(s, spec.L, D)
        if piece == PIECE_RBAR:
            continue
        checked += 1
        value = lower_bound_rate(s, spec.L, D)
        # The replay takes the float x and z as exact and re-forms y = x + z.
        ref, slope = mpref.piece(piece, mpref.exact(s), spec.L, D)
        bound = (PIECE_D_ULPS * abs(float(slope)) * math.ulp(D)
                 + PIECE_RATE_ULPS * math.ulp(value))
        if abs(value - float(ref)) > bound:
            off.append((spec, D, piece, value, float(ref)))
    assert checked >= 2000
    assert not off


# The composite pieces take the exact slack pair, each rounded once, and
# R2c near sigma_x_sq its log1p form: what is left is the rounding of the
# float spectrum's fields and of the closed forms (measured: at most
# 12.5 eps; the float slack pair they replaced was up to 2.9e11 eps off,
# 6.5e-5 relatively, at f = 1 - 1e-9).
COMPOSITE_EPS = 16


def test_composite_pieces_match_the_replay_of_the_spec():
    # every composite row of the ends probe and of two seeded probes is
    # within COMPOSITE_EPS of the 50-digit replay of the spec as given,
    # relatively, next to both ends of the interval too
    mpref = pytest.importorskip("mpref")
    checked, off = 0, []
    for spec, s, D in (mpref.ends_probe() + mpref.probe(seed=3, n=1000)
                       + mpref.probe(seed=4, n=1000)):
        ((_, _, value, piece),) = rows(classify(s, spec.L), [D])
        if piece == PIECE_RBAR:
            continue
        checked += 1
        ref, _ = mpref.piece(piece, mpref.spectrum(spec), spec.L, D)
        if abs(value - ref) > COMPOSITE_EPS * np.finfo(float).eps * abs(ref):
            off.append((spec, D, piece, value, float(ref)))
    assert checked >= 500
    assert not off


@pytest.mark.parametrize("scale, eig", [pytest.param(1e-200, None, id="1e-200"),
                                        pytest.param(1e-300, None, id="1e-300")]
                         + [pytest.param(scale, CASE2, id=f"case2-{scale!r}")
                            for scale in (1e-100, 1e-82, 1e82, 1e100)])
def test_tiny_scale_is_the_unit_problem_rescaled(scale, eig):
    # Scaling the source, the noise and D by one factor leaves every rate
    # and piece unchanged and scales d_min by it.  Here lambda_x lambda_z
    # is below the smallest double, so d_min must not form that product.
    # The composite CASE2 keeps its branch, with one D on each of its
    # pieces (Rbar, R1c, R2c): classify must not form products such as
    # x_big^2 y_small^2, which leave float64 at these scales.
    if eig is None:
        unit = spectral_decompose(SourceSpec(L_CASES, 1.0, 0.3, 2.0, 0.5))
        small = spectral_decompose(SourceSpec(L_CASES, scale, 0.3, 2.0 * scale, 0.5))
    else:
        unit, small = _spectrum(eig), _spectrum(tuple(scale * value for value in eig))
    floor, ceil = d_min(unit, L_CASES), source_variance(unit, L_CASES)
    assert abs(d_min(small, L_CASES) / (scale * floor) - 1.0) <= 1e-12
    if eig is None:
        points = [floor + f * (ceil - floor) for f in (0.01, 0.1, 0.5, 0.9)]
    else:
        points = [floor + 0.05 * (ceil - floor), 0.71, 0.8]
        assert [lower_bound_piece(unit, L_CASES, D) for D in points] == \
            [PIECE_RBAR, PIECE_R1C, PIECE_R2C]
    for D in points:
        assert lower_bound_piece(small, L_CASES, scale * D) == \
            lower_bound_piece(unit, L_CASES, D)
        for rate in (upper_bound_rate, lower_bound_rate):
            want = rate(unit, L_CASES, D)
            assert abs(rate(small, L_CASES, scale * D) / want - 1.0) <= 1e-12


def test_ceo_probe_is_the_literature_closed_form():
    # rho_x = 1 and rho_z = 0 is the quadratic Gaussian CEO problem: one
    # source seen by L sensors in i.i.d. noise, whose sum-rate has a closed
    # form (Oohama 1998; Prabhakaran-Tse-Ramchandran 2004).  Over seeded
    # specs (L log-uniform on [2, 1e7], sigma_x^2 / sigma_z^2 over six
    # decades, D at every END_FRACTIONS and uniform in the interval), the
    # converse is Rbar, lower == upper, and both are within 4 eps of the
    # closed form at 50 digits, relatively.
    mpref = pytest.importorskip("mpref")
    rng = np.random.default_rng(20261021)
    fractions = list(mpref.END_FRACTIONS) + [None]
    off, checked = [], 0
    while checked < 1400:
        L = max(2, round(float(np.exp(rng.uniform(np.log(2.0), np.log(1e7))))))
        sigma_x_sq = float(10.0 ** rng.uniform(-3, 3))
        sigma_z_sq = sigma_x_sq * float(10.0 ** rng.uniform(-3, 3))
        s = spectral_decompose(SourceSpec(L, sigma_x_sq, 1.0, sigma_z_sq, 0.0))
        lo, hi = d_min(s, L), source_variance(s, L)
        f = fractions[checked % len(fractions)]
        D = lo + (float(rng.uniform()) if f is None else f) * (hi - lo)
        if not lo < D < hi:
            continue
        checked += 1
        ((_, upper, lower, piece),) = rows(classify(s, L), [D])
        ceo = mpref.ceo(L, sigma_x_sq, sigma_z_sq, D)
        if (piece != PIECE_RBAR or lower != upper
                or abs(upper - ceo) > 4 * np.finfo(float).eps * ceo):
            off.append((L, sigma_x_sq, sigma_z_sq, D, piece, upper, float(ceo)))
    assert not off
