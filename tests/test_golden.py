"""Byte-pinned CLI outputs over every regime branch.

tests/golden/ holds one spec per `lower_bound.Branch` arm (the four
lambda-side arms and the four hatted gamma-side arms) plus one quadratic
Gaussian CEO spec (rho_x = 1, rho_z = 0).  Each spec has four pinned
outputs: `info`, `classify`, a 40-point `sweep` and a 20-point
`sweep --certify`, both over the range below, which spans 98% of
(d_min, sigma_x_sq) and crosses every piece its arm has.  Every certify
grid certifies with relative KKT residuals at most 1.8e-16, far inside
the oracle's tolerance of 1e-6; test_certify_columns bounds them.

The large-L commands (`asymptotic`, `gap-inf`, `sweep --asymptotic` and
`sweep --certify --asymptotic`) are pinned separately, error paths
included; LARGE_L lists them.

The outputs are compared byte for byte.  They are reference data, not
snapshots to refresh: when one differs, the code moved a printed digit,
and it is the code (usually its operation order) that must be mended,
unless the cell moved to the value its 50-digit replay rounds to, or
nearer to it.  test_golden_cells_match_50_digit_replay replays every
upper, lower, gap and oracle cell of the pinned sweeps with tests/mpref.py.
"""

import argparse
import math
from decimal import Decimal
from pathlib import Path

import pytest

import symrd.cli as cli
from symrd import PrecisionError
from symrd.model import parse_spec_text

GOLDEN = Path(__file__).resolve().parent / "golden"

# spec name -> (d_start, d_end) of both sweeps.
RANGES = {
    "lamgeqgam_1": ("0.460371", "0.994549"),
    "lamgeqgam_2": ("0.233939", "0.992262"),
    "lamgeqgam_3": ("0.292919", "0.992858"),
    "lamgeqgam_4": ("0.0833333", "0.990741"),
    "gamgeqlam_1": ("0.237046", "0.992293"),
    "gamgeqlam_2": ("0.924302", "0.999235"),
    "gamgeqlam_3": ("0.646173", "0.996426"),
    "gamgeqlam_4": ("0.0505", "0.0995"),
    "ceo": ("0.0480769", "0.990385"),
}
COMMANDS = ("info", "classify", "sweep", "certify")
# The largest kkt_residual over the 180 pinned certify rows is 1.79e-16.
KKT_RESIDUAL_BOUND = 1e-15


def golden_argv(name: str, command: str) -> list:
    """Command line of one pinned output (spec path inside tests/golden/)."""
    spec = str(GOLDEN / f"{name}.spec")
    if command in ("info", "classify"):
        return [command, spec]
    d_start, d_end = RANGES[name]
    argv = ["sweep", spec, "--d-start", d_start, "--d-end", d_end]
    if command == "sweep":
        return argv + ["--n-points", "40"]
    return argv + ["--n-points", "20", "--certify"]


# Large-L outputs: the asym_* specs are one per asymptotics.Condition, and
# the negative-rho gamgeqlam_1, which the limit expressions reject, pins
# error paths.  case -> (command, spec name, further arguments, exit code);
# every case runs a 20-point grid over ASYM_RANGES[spec name].  <case>.out
# pins stdout and <case>.err stderr; a missing file pins an empty stream.
ASYM_RANGES = {
    "asym_zero_mix": ("0.81", "0.99"),
    "asym_pos_mix_zero_rho": ("0.67", "0.99"),
    "asym_xi_ge_half": ("0.8", "0.99"),
    # d_th0_inf = 0.964 is a grid point, so the sqrt(L) clause is pinned.
    "asym_xi_lt_half": ("0.784", "0.994"),
    "gamgeqlam_1": RANGES["gamgeqlam_1"],
}
ASYM_SIZES = ["--L", "10,1000,1000000"]
SWEEP_SIZES = ["--asymptotic", "100,10000"]
LARGE_L = {
    "asym_zero_mix.asymptotic": ("asymptotic", "asym_zero_mix", ASYM_SIZES, 0),
    "asym_zero_mix.gap-inf": ("gap-inf", "asym_zero_mix", [], 2),
    "asym_pos_mix_zero_rho.asymptotic":
        ("asymptotic", "asym_pos_mix_zero_rho", ASYM_SIZES, 0),
    "asym_pos_mix_zero_rho.gap-inf": ("gap-inf", "asym_pos_mix_zero_rho", [], 2),
    "asym_xi_ge_half.asymptotic": ("asymptotic", "asym_xi_ge_half", ASYM_SIZES, 0),
    "asym_xi_ge_half.gap-inf": ("gap-inf", "asym_xi_ge_half", [], 2),
    "asym_xi_lt_half.asymptotic": ("asymptotic", "asym_xi_lt_half", ASYM_SIZES, 0),
    "asym_xi_lt_half.gap-inf": ("gap-inf", "asym_xi_lt_half", [], 0),
    "asym_xi_lt_half.sweep-asymptotic": ("sweep", "asym_xi_lt_half", SWEEP_SIZES, 0),
    # Oracle and large-L cells on one row.
    "asym_xi_lt_half.certify-asymptotic":
        ("sweep", "asym_xi_lt_half", ["--certify", *SWEEP_SIZES], 0),
    "gamgeqlam_1.asymptotic": ("asymptotic", "gamgeqlam_1", ASYM_SIZES, 2),
    "gamgeqlam_1.sweep-asymptotic": ("sweep", "gamgeqlam_1", SWEEP_SIZES, 2),
}


# Sweeps next to the ends of the interval, on the case-2 spec
# lamgeqgam_2: from f = 1e-9 to 1e-6 of (d_min, sigma_x_sq), on Rbar, and
# from f = 1 - 1e-6 to 1 - 1e-9, on R2c, both ends included (each moved
# inward by a relative 1e-9 of D).  The lambda_q solve and the composite
# pieces take the spec's exact slack there.  case -> (d_start, d_end).
ENDS = {
    "lamgeqgam_2.ends-low": ("0.22620088668949445", "0.22620165971480943"),
    "lamgeqgam_2.ends-high": ("0.9999992262008859", "0.9999999992262009"),
}


def ends_argv(case: str) -> list:
    """Command line of one pinned sweep next to an end of the interval."""
    d_start, d_end = ENDS[case]
    return ["sweep", str(GOLDEN / f"{case.partition('.')[0]}.spec"),
            "--d-start", d_start, "--d-end", d_end, "--n-points", "20",
            "--include-endpoints-eps"]


def large_l_argv(case: str) -> list:
    """Command line of one pinned large-L output."""
    command, name, extra, _ = LARGE_L[case]
    d_start, d_end = ASYM_RANGES[name]
    return [command, str(GOLDEN / f"{name}.spec"), *extra,
            "--d-start", d_start, "--d-end", d_end, "--n-points", "20"]


def _pinned(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize("case", sorted(LARGE_L))
def test_large_l_output(case, capsys):
    rc = cli.main(large_l_argv(case))
    captured = capsys.readouterr()
    assert rc == LARGE_L[case][3]
    assert captured.out.encode("utf-8") == _pinned(GOLDEN / f"{case}.out")
    assert captured.err.encode("utf-8") == _pinned(GOLDEN / f"{case}.err")


@pytest.mark.parametrize("case", sorted(ENDS))
def test_ends_output(case, capsys):
    rc = cli.main(ends_argv(case))
    assert rc == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(RANGES))
def test_golden_output(name, command, capsys):
    rc = cli.main(golden_argv(name, command))
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{command}.out").read_bytes()


def test_one_parser_serves_successive_requests(capsys, monkeypatch):
    # A usage error, a pinned sweep --certify and an info whose cmd_info is
    # rebound, in one process: after the first request no parser is built,
    # and each request gives its pinned output or exit code.
    with pytest.raises(SystemExit) as usage:
        cli.main(["sweep", str(GOLDEN / "ceo.spec"), "--d-start", "0.1"])
    assert usage.value.code == 2
    capsys.readouterr()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)

    assert cli.main(golden_argv("ceo", "certify")) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "ceo.certify.out").read_bytes()

    def explode(args):
        raise PrecisionError("probe")
    monkeypatch.setattr(cli, "cmd_info", explode)
    assert cli.main(golden_argv("ceo", "info")) == 3
    assert capsys.readouterr() == ("", "error: probe\n")
    assert built == []


@pytest.mark.parametrize("name", sorted(RANGES))
def test_certify_columns(name):
    header, *rows = (GOLDEN / f"{name}.certify.out").read_text().splitlines()
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert 0.0 <= float(cells["kkt_residual"]) <= KKT_RESIDUAL_BOUND
        # The oracle never consults the closed form, yet prints its digits.
        assert cells["oracle_nats"] == cells["lower_nats"]


# A printed rate cell passes its replay when it is within half a unit in
# its 12th significant digit, plus |slope| * ulp(D): no float64 evaluation
# at D can be held to a smaller error than the change one unit in the last
# place of D makes.  gap_nats is the float difference of upper and lower,
# so it may carry both operands' allowances, |upper slope| * ulp(D) and
# |lower slope| * ulp(D), plus a few ulps of upper: the rounding of the two
# operands that the subtraction keeps.
GAP_UPPER_ULPS = 4
# The CEO spec's Rbar is the quadratic Gaussian CEO sum-rate in closed
# form; its replay, bisected to 1e-32 in lambda_q, must agree to 1e-28.
CEO_REPLAY_REL_TOL = 1e-28


def _half_unit(cell: str) -> float:
    return 5.0 * 10.0 ** (Decimal(cell).adjusted() - 12)


# Every pinned sweep output with rate cells: pinned file -> command line.
SWEEPS = {f"{name}.{command}": golden_argv(name, command)
          for name in RANGES for command in ("sweep", "certify")}
SWEEPS.update((case, large_l_argv(case)) for case in (
    "asym_xi_lt_half.sweep-asymptotic", "asym_xi_lt_half.certify-asymptotic"))
SWEEPS.update((case, ends_argv(case)) for case in ENDS)


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_golden_cells_match_50_digit_replay(case):
    mpref = pytest.importorskip("mpref")
    name, argv = case.partition(".")[0], SWEEPS[case]
    spec = parse_spec_text((GOLDEN / f"{name}.spec").read_text())
    s, L = mpref.spectrum(spec), spec.L
    grid = cli._grid(cli.build_parser().parse_args(argv))
    header, *rows = (GOLDEN / f"{case}.out").read_text().splitlines()
    off = []
    for D, row in zip(grid, rows, strict=True):
        cells = dict(zip(header.split(","), row.split(",")))
        upper, upper_slope = mpref.upper(s, L, D)
        lower, lower_slope = mpref.lower(cells["piece"], s, L, D)
        if name == "ceo":
            ceo = mpref.ceo(L, spec.sigma_x_sq, spec.sigma_z_sq, D)
            assert abs(upper - ceo) <= CEO_REPLAY_REL_TOL * ceo
        ulp = math.ulp(D)
        replay = {"upper_nats": (upper, abs(float(upper_slope)) * ulp),
                  "lower_nats": (lower, abs(float(lower_slope)) * ulp),
                  "gap_nats": (upper - lower,
                               (abs(float(upper_slope)) + abs(float(lower_slope))) * ulp
                               + GAP_UPPER_ULPS * math.ulp(float(cells["upper_nats"])))}
        if "oracle_nats" in cells:
            replay["oracle_nats"] = replay["lower_nats"]
        for column, (value, slack) in replay.items():
            error = abs(Decimal(cells[column]) - Decimal(str(value)))
            if error > Decimal(_half_unit(cells[column]) + slack):
                off.append(f"D = {D!r}: {column} {cells[column]}, replay {value}")
    assert not off
