"""Byte-pinned CLI outputs over every regime branch.

tests/golden/ holds one spec per `lower_bound.Branch` arm (the four
lambda-side arms and the four hatted gamma-side arms) plus one quadratic
Gaussian CEO spec (rho_x = 1, rho_z = 0).  Each spec has four pinned
outputs: `info`, `classify`, a 40-point `sweep` and a 20-point
`sweep --certify`, both over the range below, which spans 98% of
(d_min, sigma_x_sq) and crosses every piece its arm has.  Every certify
grid certifies with relative KKT residuals at most 2.3e-16, far inside
the oracle's tolerance of 1e-6; test_certify_columns bounds them.

The outputs are compared byte for byte.  They are reference data, not
snapshots to refresh: when one differs, the code moved a printed digit,
and it is the code (usually its operation order) that must be mended.
"""

from pathlib import Path

import pytest

import symrd.cli as cli

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
# The largest kkt_residual over the 180 pinned certify rows is 2.26e-16.
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


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(RANGES))
def test_golden_output(name, command, capsys):
    rc = cli.main(golden_argv(name, command))
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{command}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(RANGES))
def test_certify_columns(name):
    header, *rows = (GOLDEN / f"{name}.certify.out").read_text().splitlines()
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert 0.0 <= float(cells["kkt_residual"]) <= KKT_RESIDUAL_BOUND
        # The oracle never consults the closed form, yet prints its digits.
        assert cells["oracle_nats"] == cells["lower_nats"]
