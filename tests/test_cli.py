"""Tests for the command-line interface.

All invocations run main() in process except one, which drives
`python -m symrd` through two subprocesses to check byte determinism
across environments.  The `symrd` console-script entry declared in
pyproject.toml is checked separately, without an install.
"""

import dataclasses
import importlib
import importlib.util
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import symrd
import symrd.cli as cli
from symrd import ConvergenceError, DomainError, PrecisionError, ValidationError
from symrd.model import parse_spec_text

CASE1_TEXT = """L = 10
lambda_x = 0.8
gamma_x = 1.0
lambda_y = 5.0
gamma_y = 4.0
"""

CASE2_TEXT = """L = 10
lambda_x = 0.5
gamma_x = 1.0
lambda_y = 6.0
gamma_y = 3.0
"""

GAPPED_TEXT = """L = 500
sigma_x_sq = 1.0
rho_x = 0.3
sigma_z_sq = 4.0
rho_z = 0.55
"""

ZERO_MIX_TEXT = """L = 10
sigma_x_sq = 1.0
rho_x = 0.0
sigma_z_sq = 4.0
rho_z = 0.0
"""

CASE2_INFO_EXPECTED = """L = 10
lambda_x = 0.5
gamma_x = 1
lambda_z = 5.5
gamma_z = 2
lambda_y = 6
gamma_y = 3
lambda_w = 3
sigma_x_sq = 0.95
d_min = 0.645833
branch = LamGeqGam_2
mu1 = 0.0750817
mu2 = 0.924918
d_th_1 = 0.691221
d_th_c = 0.733333
"""


# No observation noise: d_min = 0.
NOISELESS_TEXT = ("L = 10\nsigma_x_sq = 1\nrho_x = 0.3\n"
                  "sigma_z_sq = 0\nrho_z = 0\n")


# Specs whose values are not finite real numbers; each must exit 2.
NON_FINITE_TEXTS = {
    "L_overflow": "L = 1e400\nsigma_x_sq = 1\nrho_x = 0.2\nsigma_z_sq = 1\nrho_z = 0\n",
    "L_nan": "L = nan\nsigma_x_sq = 1\nrho_x = 0.2\nsigma_z_sq = 1\nrho_z = 0\n",
    "sx_inf": "L = 10\nsigma_x_sq = inf\nrho_x = 0.2\nsigma_z_sq = 1\nrho_z = 0\n",
    "sz_nan": "L = 10\nsigma_x_sq = 1\nrho_x = 0.2\nsigma_z_sq = nan\nrho_z = 0\n",
}


# A noise variance within 1e-12 of zero but 900 times the source variance.
NEGATIVE_NOISE_TEXT = ("L = 10\nsigma_x_sq = 1e-15\nrho_x = 0.3\n"
                       "sigma_z_sq = -9e-13\nrho_z = 0\n")

# A valid spec but for a Latin-1 byte in a comment: not UTF-8.
LATIN1_BYTES = (b"L = 10\nsigma_x_sq = 1.0\nrho_x = 0.3\nsigma_z_sq = 0.5\n"
                b"rho_z = 0.2 # caf\xe9\n")


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, text in (("case1", CASE1_TEXT), ("case2", CASE2_TEXT),
                       ("gapped", GAPPED_TEXT), ("zeromix", ZERO_MIX_TEXT),
                       ("negative_noise", NEGATIVE_NOISE_TEXT),
                       ("noiseless", NOISELESS_TEXT),
                       *NON_FINITE_TEXTS.items()):
        p = tmp_path / f"{name}.spec"
        p.write_text(text)
        paths[name] = str(p)
    p = tmp_path / "latin1.spec"
    p.write_bytes(LATIN1_BYTES)
    paths["latin1"] = str(p)
    return paths


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rows(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_info_output(specs, capsys):
    rc, out, err = _run(capsys, ["info", specs["case2"]])
    assert rc == 0
    assert err == ""
    assert out == CASE2_INFO_EXPECTED


def test_classify_output(specs, capsys):
    rc, out, _ = _run(capsys, ["classify", specs["case2"]])
    assert rc == 0
    assert out.startswith("branch = LamGeqGam_2\n")
    assert "d_th_1 = 0.691221" in out
    assert "lambda_w" not in out


def test_sweep_header_and_grid(specs, capsys):
    rc, out, _ = _run(capsys, ["sweep", specs["case1"], "--d-start", "0.75",
                               "--d-end", "0.9", "--n-points", "5"])
    assert rc == 0
    header, rows = _rows(out)
    assert header == ["D", "upper_nats", "lower_nats", "gap_nats", "piece"]
    assert len(rows) == 5
    # open grid: both endpoints excluded, uniform interior spacing
    ds = [float(r[0]) for r in rows]
    step = (0.9 - 0.75) / 6
    for k, d in enumerate(ds):
        assert abs(d - (0.75 + (k + 1) * step)) < 1e-10
    for r in rows:
        up, lo, gap = float(r[1]), float(r[2]), float(r[3])
        assert abs(gap - (up - lo)) <= 1e-9 * max(1.0, up)
        assert r[4] == "Rbar"


def test_sweep_include_endpoints_eps(specs, capsys):
    rc, out, _ = _run(capsys, ["sweep", specs["case1"], "--d-start", "0.75",
                               "--d-end", "0.9", "--n-points", "5",
                               "--include-endpoints-eps"])
    assert rc == 0
    _, rows = _rows(out)
    ds = [float(r[0]) for r in rows]
    assert abs(ds[0] - 0.75 * (1 + 1e-9)) < 1e-13
    assert abs(ds[-1] - 0.9 * (1 - 1e-9)) < 1e-13
    assert len(ds) == 5


def test_sweep_certify(specs, capsys):
    rc, out, _ = _run(capsys, ["sweep", specs["case2"], "--d-start", "0.70",
                               "--d-end", "0.76", "--n-points", "4",
                               "--certify"])
    assert rc == 0
    header, rows = _rows(out)
    assert header[-2:] == ["oracle_nats", "kkt_residual"]
    for r in rows:
        lo, oracle, residual = float(r[2]), float(r[5]), float(r[6])
        assert abs(lo - oracle) <= 1e-6
        assert residual <= 1e-6


def test_sweep_asymptotic_columns(specs, capsys):
    rc, out, _ = _run(capsys, ["sweep", specs["gapped"], "--d-start", "0.85",
                               "--d-end", "0.89", "--n-points", "3",
                               "--asymptotic", "250,500"])
    assert rc == 0
    header, rows = _rows(out)
    assert header == ["D", "upper_nats", "lower_nats", "gap_nats", "piece",
                      "upper_asym_L250", "lower_asym_L250",
                      "upper_asym_L500", "lower_asym_L500", "delta_r_inf"]
    for r in rows:
        assert float(r[-1]) > 0.0   # inside the gap interval


def test_sweep_asymptotic_no_gap_column_outside_gapped_regime(specs, capsys):
    rc, out, _ = _run(capsys, ["sweep", specs["zeromix"], "--d-start", "0.85",
                               "--d-end", "0.95", "--n-points", "3",
                               "--asymptotic", "10"])
    assert rc == 0
    header, rows = _rows(out)
    assert header[-2:] == ["upper_asym_L10", "lower_asym_L10"]
    assert "delta_r_inf" not in header
    for r in rows:
        assert float(r[5]) == float(r[6])


def test_sweep_bits(specs, capsys):
    rc, nats_out, _ = _run(capsys, ["sweep", specs["case1"], "--d-start",
                                    "0.8", "--d-end", "0.9", "--n-points", "3"])
    assert rc == 0
    rc, bits_out, _ = _run(capsys, ["sweep", specs["case1"], "--d-start",
                                    "0.8", "--d-end", "0.9", "--n-points", "3",
                                    "--bits"])
    assert rc == 0
    nh, nrows = _rows(nats_out)
    bh, brows = _rows(bits_out)
    assert bh == ["D", "upper_bits", "lower_bits", "gap_bits", "piece"]
    for nr, br in zip(nrows, brows):
        assert nr[0] == br[0]
        assert nr[4] == br[4]
        assert abs(float(br[1]) - float(nr[1]) / math.log(2)) < 1e-9


GOLDEN = Path(__file__).resolve().parent / "golden"
ROW_SIZES = [100, 10000]


@pytest.mark.parametrize("bits", [False, True])
@pytest.mark.parametrize("name", ["asym_xi_lt_half", "asym_zero_mix", "lamgeqgam_2"])
def test_sweep_row_is_each_layers_value_formatted_once(capsys, name, bits):
    # Each cell of a sweep --certify --asymptotic row is one layer's value
    # over the unit's scale, formatted once with %.12g: on a gapped spec
    # (with delta_r_inf), a ZeroMix spec and a composite spec.  In bits the
    # large-L columns carry the unit as asymptotic and gap-inf name it.
    path = GOLDEN / f"{name}.spec"
    spec = symrd.model.parse_spec_text(path.read_text())
    s, L = symrd.spectral_decompose(spec), spec.L
    converse = symrd.lower_bound.classify(s, L)
    regime = symrd.asymptotics.asymptotic_regime(spec)
    lo, hi = max(converse.prepared.d_min, regime.d_min_inf), converse.prepared.sigma_x_sq
    argv = ["sweep", str(path), "--certify", "--asymptotic", "100,10000",
            "--d-start", repr(lo + 0.01 * (hi - lo)), "--d-end", repr(hi - 0.01 * (hi - lo)),
            "--n-points", "40"] + ["--bits"] * bits
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    scale, unit, asym_unit = (math.log(2.0), "bits", "_bits") if bits else (1.0, "nats", "")
    gapped = regime.condition is symrd.asymptotics.Condition.PosMixPosRho_XiLtHalf
    header = ["D", f"upper_{unit}", f"lower_{unit}", f"gap_{unit}", "piece",
              f"oracle_{unit}", "kkt_residual"]
    for size in ROW_SIZES:
        header += [f"upper_asym{asym_unit}_L{size}", f"lower_asym{asym_unit}_L{size}"]
    header += [f"delta_r_inf{asym_unit}"] * gapped
    program = symrd.oracle.prepare(s, L)
    lines, pieces, gaps = [",".join(header)], set(), set()
    for D in cli._grid(cli._parser().parse_args(argv)):
        upper, lower, piece = symrd.lower_bound.evaluate(converse, D)
        _, value, cert = symrd.oracle.solve(program, D)
        values = [upper, lower, upper - lower, value]
        bounds, gap = symrd.asymptotics.asymptotic_row(regime, ROW_SIZES, D)
        for pair in bounds:
            values += pair
        assert (gap is not None) == gapped
        if gapped:
            values.append(gap)
            gaps.add(gap > 0.0)
        cells = ["%.12g" % (value / scale) for value in values]
        residual = "%.12g" % max(cert.stationarity_residual, cert.complementarity_residual)
        lines.append(",".join(["%.12g" % D, *cells[:3], piece, cells[3], residual, *cells[4:]]))
        pieces.add(piece)
    assert out == "\n".join(lines) + "\n"
    # The composite specs cross pieces; the gapped one crosses its gap interval.
    assert len(pieces) > 1 or name == "asym_zero_mix"
    assert gaps == {False, True} or name != "asym_xi_lt_half"


def test_asymptotic_command(specs, capsys):
    rc, out, _ = _run(capsys, ["asymptotic", specs["gapped"], "--L", "500",
                               "--d-start", "0.85", "--d-end", "0.9",
                               "--n-points", "2"])
    assert rc == 0
    header, rows = _rows(out)
    assert header == ["D", "upper_asym_nats_L500", "lower_asym_nats_L500"]
    assert len(rows) == 2


def test_gap_inf_command(specs, capsys):
    rc, out, _ = _run(capsys, ["gap-inf", specs["gapped"], "--d-start", "0.82",
                               "--d-end", "0.92", "--n-points", "9"])
    assert rc == 0
    header, rows = _rows(out)
    assert header == ["D", "delta_r_inf"]
    by_d = {round(float(r[0]), 10): float(r[1]) for r in rows}
    # 50-digit reference for the gap at D = 0.87
    assert abs(by_d[0.87] - 0.0212769488712456505365620690958) < 1e-9


@pytest.mark.parametrize("argv_fn", [
    lambda p: ["sweep", p["gapped"], "--d-start", "0.8", "--d-end", "0.99",
               "--n-points", "20", "--asymptotic", "10,1000"],
    lambda p: ["asymptotic", p["gapped"], "--L", "10,1000", "--d-start", "0.8",
               "--d-end", "0.99", "--n-points", "20"],
    lambda p: ["gap-inf", p["gapped"], "--d-start", "0.8", "--d-end", "0.99",
               "--n-points", "20"],
])
def test_large_l_commands_classify_once(specs, capsys, monkeypatch, argv_fn):
    # asymptotic_regime classifies once; every row reuses its regime
    calls = []
    regime = cli.asymptotics.asymptotic_regime
    monkeypatch.setattr(cli.asymptotics, "asymptotic_regime",
                        lambda spec: calls.append(spec) or regime(spec))
    rc, out, _ = _run(capsys, argv_fn(specs))
    assert rc == 0
    assert len(out.splitlines()) == 21
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["info", "classify"])
def test_regime_commands_classify_once(specs, capsys, monkeypatch, command):
    # the branch, roots and thresholds are printed from one Regime
    calls = []
    classify = symrd.lower_bound.classify
    monkeypatch.setattr(symrd.lower_bound, "classify",
                        lambda s, L: calls.append(L) or classify(s, L))
    rc, out, _ = _run(capsys, [command, specs["case2"]])
    assert rc == 0
    assert "branch = LamGeqGam_2\n" in out
    assert len(calls) == 1


def test_sweep_noiseless_near_zero_distortion(specs, capsys):
    # lambda_q -> 0 with D on a noiseless spec: the solve's own root passes
    # its residual check, and every row prints
    rc, out, err = _run(capsys, ["sweep", specs["noiseless"], "--d-start", "1e-8",
                                 "--d-end", "0.5", "--n-points", "3",
                                 "--include-endpoints-eps"])
    assert rc == 0, err
    _, rows = _rows(out)
    assert len(rows) == 3
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:4])


def test_certify_noiseless_next_to_zero_distortion(specs, capsys):
    # d_min = 0, so at D = 1e-12 the distortion slack is some 1e-11: the
    # certificate scores it exactly, and every row certifies within the
    # golden certify rows' 1e-15
    rc, out, err = _run(capsys, ["sweep", specs["noiseless"], "--d-start", "1e-12",
                                 "--d-end", "0.5", "--n-points", "3",
                                 "--include-endpoints-eps", "--certify"])
    assert rc == 0, err
    header, rows = _rows(out)
    assert len(rows) == 3
    assert all(float(row[header.index("kkt_residual")]) <= 1e-15 for row in rows)


def _count_calls(monkeypatch, names) -> dict:
    """Calls of each (module, function) in names, counted from now on."""
    calls = dict.fromkeys(names, 0)
    for key in names:
        original = getattr(getattr(symrd, key[0]), key[1])

        def counted(*args, key=key, original=original):
            calls[key] += 1
            return original(*args)

        # Patched wherever a module has bound the name.
        for module in (symrd.model, symrd.upper_bound, symrd.lower_bound,
                       symrd.oracle, symrd.asymptotics, cli):
            if getattr(module, key[1], None) is original:
                monkeypatch.setattr(module, key[1], counted)
    return calls


def test_sweep_prepares_once(specs, capsys, monkeypatch):
    # the lambda_q solve's and the oracle's constants are formed once per
    # spectrum: a longer grid makes no more calls of the per-spectrum
    # functions, with or without the oracle and large-L columns
    names = (("upper_bound", "prepare"), ("oracle", "prepare"),
             ("model", "side_view"), ("model", "d_min"))
    calls = _count_calls(monkeypatch, names)
    for name, extra, d_start, d_end in (
            ("case2", [], "0.7", "0.9"),
            ("gapped", ["--certify", "--asymptotic", "100,10000"], "0.784", "0.994")):
        counts = []
        for n_points in ("20", "200"):
            calls.update(dict.fromkeys(names, 0))
            rc, out, _ = _run(capsys, ["sweep", specs[name], *extra, "--d-start", d_start,
                                       "--d-end", d_end, "--n-points", n_points])
            assert rc == 0
            assert len(out.splitlines()) == int(n_points) + 1
            counts.append(dict(calls))
        assert counts[0] == counts[1], name
        assert counts[0][("upper_bound", "prepare")] == 1
        assert counts[0][("oracle", "prepare")] == ("--certify" in extra)


def test_sweep_forms_each_row_once(specs, capsys, monkeypatch):
    # a request makes one converse pass (upper_bound.solutions), which per
    # row forms the slack pair once, seeds one lambda_q solve
    # (upper_bound.quadratic_root) and takes one rate (upper_bound.rate_of):
    # on composite rows, whose pieces take the pair's first slack, as on
    # Rbar rows, with or without the oracle and large-L columns
    names = (("upper_bound", "solutions"), ("upper_bound", "quadratic_root"),
             ("upper_bound", "rate_of"))
    calls = _count_calls(monkeypatch, names)
    for name, extra, d_start, d_end in (
            ("case2", [], "0.7", "0.9"),
            ("gapped", ["--certify", "--asymptotic", "100,10000"], "0.784", "0.994")):
        for n_points in (20, 200):
            calls.update(dict.fromkeys(names, 0))
            rc, out, _ = _run(capsys, ["sweep", specs[name], *extra, "--d-start", d_start,
                                       "--d-end", d_end, "--n-points", str(n_points)])
            assert rc == 0
            assert calls == {names[0]: 1, names[1]: n_points, names[2]: n_points}, name
            if name == "case2":
                assert {row[4] for row in _rows(out)[1]} == {"R1c", "R2c"}


def test_gapped_sweep_row_dispatches_each_d_once(specs, capsys, monkeypatch):
    # a gapped certified row takes both large-L bounds and the gap from one
    # step of the large-L pass, which settles where the bounds meet once,
    # and its oracle value from one step of the oracle's pass, which scores
    # one certificate
    names = (("asymptotics", "bounds_meet"), ("oracle", "_kkt"))
    calls = _count_calls(monkeypatch, names)
    rc, out, _ = _run(capsys, ["sweep", specs["gapped"], "--certify", "--asymptotic",
                               "100,10000", "--d-start", "0.784", "--d-end", "0.994",
                               "--n-points", "40"])
    assert rc == 0
    assert _rows(out)[0][-1] == "delta_r_inf"
    assert calls == dict.fromkeys(names, 40)


# A grid whose rows cross the CSV writer's first block boundary (the
# header is the first of a block's BLOCK_ROWS lines).
BLOCKED_POINTS = cli.BLOCK_ROWS + 20


class _Tagged:
    """A text stream that logs each write as (tag, text) in a shared list."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def write(self, text):
        self.log.append((self.tag, text))
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("k", [1, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1,
                               BLOCKED_POINTS])
# Each patched function is the step a pass takes once a row: the oracle's
# pass scores one certificate a row, the large-L pass settles where the
# bounds meet once a row, and the converse pass takes one rate a row.
@pytest.mark.parametrize("argv, module, name, error, code", [
    (["sweep", "case2", "--certify", "--d-start", "0.7", "--d-end", "0.9"],
     "oracle", "_kkt", ConvergenceError, 3),
    (["asymptotic", "gapped", "--L", "10,1000", "--d-start", "0.8", "--d-end", "0.99"],
     "asymptotics", "bounds_meet", ConvergenceError, 3),
    (["gap-inf", "gapped", "--d-start", "0.8", "--d-end", "0.99"],
     "asymptotics", "bounds_meet", DomainError, 2),
    (["sweep", "gapped", "--asymptotic", "10,1000", "--d-start", "0.8", "--d-end", "0.99"],
     "asymptotics", "bounds_meet", PrecisionError, 3),
    (["sweep", "case2", "--d-start", "0.7", "--d-end", "0.9"],
     "upper_bound", "rate_of", PrecisionError, 3),
])
def test_failing_row_leaves_the_rows_before_it(specs, capsys, monkeypatch, k, argv,
                                               module, name, error, code):
    # When the row at the k-th grid point fails, stdout holds the header and
    # the full run's first k - 1 rows byte for byte, all written before the
    # one error line on stderr.
    argv = [argv[0], specs[argv[1]], *argv[2:], "--n-points", str(BLOCKED_POINTS)]
    rc, full, _ = _run(capsys, argv)
    assert rc == 0
    original = getattr(getattr(symrd, module), name)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == k:
            raise error("probe")
        return original(*args)

    monkeypatch.setattr(getattr(symrd, module), name, failing)
    log = []
    monkeypatch.setattr(sys, "stdout", _Tagged(log, "out"))
    monkeypatch.setattr(sys, "stderr", _Tagged(log, "err"))
    rc = cli.main(argv)
    tags = [tag for tag, _ in log]
    assert rc == code
    assert "".join(text for tag, text in log if tag == "out") == \
        "".join(full.splitlines(keepends=True)[:k])
    assert "".join(text for tag, text in log if tag == "err") == "error: probe\n"
    assert tags == sorted(tags, key=["out", "err"].index)


class _Discard:
    """A text stream that drops what it is given."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_sweep_holds_one_block_of_rows_at_a_time(specs, capsys, monkeypatch):
    # A 10^5-point sweep into a stream that drops its text peaks at its
    # grid plus about one block: each block of rows is written and dropped
    # before the next is collected, so the table (about 10 MB of row
    # strings here) is never held whole.  A block is BLOCK_ROWS row strings,
    # their list and their joined text, 47 kB; the bound allows three, for
    # the request's own state (parsed arguments, spec, regime) besides.
    # Measured: 71 kB over the grid.
    argv = ["sweep", specs["case2"], "--d-start", "0.7", "--d-end", "0.9", "--n-points"]
    grid = cli._grid(cli._parser().parse_args(argv + ["100000"]))
    grid_bytes = sys.getsizeof(grid) + sum(map(sys.getsizeof, grid))
    rc, out, _ = _run(capsys, argv + [str(cli.BLOCK_ROWS - 1)])
    assert rc == 0
    lines = out.splitlines()
    block_bytes = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines)) + sys.getsizeof(out)
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        assert cli.main(argv + ["100000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= grid_bytes + 3 * block_bytes


def test_simulate_command(specs, capsys):
    rc, out, err = _run(capsys, ["simulate", specs["case1"], "--D", "0.85",
                                 "--n", "50000", "--seed", "7"])
    assert rc == 0
    header, rows = _rows(out)
    assert header == ["n", "lambda_q", "distortion_empirical",
                      "distortion_closed_form", "rate_closed_form",
                      "rate_empirical", "std_err"]
    assert len(rows) == 1
    row = rows[0]
    assert row[0] == "50000"
    assert abs(float(row[1]) - 3.35647126829087463107618961374) < 1e-9
    assert float(row[3]) == 0.85
    assert abs(float(row[2]) - 0.85) <= 4 * float(row[6])
    assert err.startswith("estimator comparison: routed empirical = ")
    assert "direct X+Q empirical = " in err
    assert "matches: True" in err


def test_simulate_prints_nan_rate_below_2l_samples(capsys):
    # The CEO golden spec has L = 50: 60 samples leave the (Y, V) moment
    # matrix singular, so the rate is not a number, on every seed.
    ceo = str(Path(__file__).resolve().parent / "golden" / "ceo.spec")
    for seed in ("1", "2", "3"):
        rc, out, _ = _run(capsys, ["simulate", ceo, "--D", "0.5", "--n", "60",
                                   "--seed", seed])
        assert rc == 0
        header, rows = _rows(out)
        assert rows[0][header.index("rate_empirical")] == "nan"
        assert rows[0][header.index("rate_closed_form")] == "1.36712345329"


@pytest.mark.parametrize("n", [10**6, 10**12])
def test_simulate_at_ten_million_sources(tmp_path, capsys, n):
    # At L = 10^7 no factor is drawn below n = 2L, and above it the L x 2L
    # factor (1.6 PB) cannot be allocated: the rate is NaN either way,
    # and both distortions are still printed, near their closed forms.
    spec = tmp_path / "huge.spec"
    spec.write_text("L = 10000000\nsigma_x_sq = 1.0\nrho_x = 0.3\n"
                    "sigma_z_sq = 2.0\nrho_z = 0.5\n")
    rc, out, err = _run(capsys, ["simulate", str(spec), "--D", "0.8", "--n", str(n),
                                 "--seed", "1"])
    assert rc == 0, err
    header, (row,) = _rows(out)
    cell = dict(zip(header, row))
    assert cell["n"] == str(n) and cell["rate_empirical"] == "nan"
    std_err = float(cell["std_err"])
    assert abs(float(cell["distortion_empirical"]) - 0.8) <= 5.0 * std_err
    direct = re.search(r"direct X\+Q empirical = (\S+) vs closed form (\S+)$", err)
    assert abs(float(direct[1]) - float(direct[2])) <= 5.0 * std_err


def test_simulate_deterministic(specs, capsys):
    args = ["simulate", specs["case1"], "--D", "0.85", "--n", "20000",
            "--seed", "11"]
    rc1, out1, err1 = _run(capsys, args)
    rc2, out2, err2 = _run(capsys, args)
    assert (rc1, out1, err1) == (rc2, out2, err2)


@pytest.mark.parametrize(
    "argv_fn, fragment",
    [
        (lambda s: ["info", "/nonexistent/path.spec"], "cannot read"),
        (lambda s: ["sweep", s["case1"], "--d-start", "0.5", "--d-end", "0.9",
                    "--n-points", "3"], "not inside"),
        (lambda s: ["sweep", s["case1"], "--d-start", "0.8", "--d-end", "0.99",
                    "--n-points", "3"], "not inside"),
        (lambda s: ["sweep", s["case1"], "--d-start", "0.8", "--d-end", "0.9",
                    "--n-points", "1"], "n_points"),
        (lambda s: ["sweep", s["case1"], "--d-start", "0.9", "--d-end", "0.8",
                    "--n-points", "3"], "d_start"),
        (lambda s: ["simulate", s["case1"], "--D", "0.5", "--n", "100",
                    "--seed", "0"], ""),
        (lambda s: ["gap-inf", s["zeromix"], "--d-start", "0.85", "--d-end",
                    "0.95", "--n-points", "3"], ""),
        (lambda s: ["asymptotic", s["case1"], "--L", "100", "--d-start",
                    "0.8", "--d-end", "0.9", "--n-points", "2"], ""),
        (lambda s: ["info", s["L_overflow"]], "finite"),
        (lambda s: ["info", s["L_nan"]], "finite"),
        (lambda s: ["info", s["sx_inf"]], "finite"),
        (lambda s: ["info", s["sz_nan"]], "finite"),
        # system-size lists: not an integer, below 2
        (lambda s: ["sweep", s["gapped"], "--d-start", "0.85", "--d-end", "0.89",
                    "--n-points", "2", "--asymptotic", "x"], "--asymptotic"),
        (lambda s: ["asymptotic", s["gapped"], "--L", "1.5", "--d-start",
                    "0.85", "--d-end", "0.89", "--n-points", "2"], "--L"),
        (lambda s: ["sweep", s["gapped"], "--d-start", "0.85", "--d-end", "0.89",
                    "--n-points", "2", "--asymptotic", "0"], "--asymptotic"),
        (lambda s: ["sweep", s["gapped"], "--d-start", "0.85", "--d-end", "0.89",
                    "--n-points", "2", "--asymptotic", "1"], "--asymptotic"),
        (lambda s: ["info", s["negative_noise"]], "sigma_z_sq"),
        (lambda s: ["info", s["latin1"]], "not UTF-8"),
    ],
)
def test_exit_code_2_paths(specs, capsys, argv_fn, fragment):
    rc, out, err = _run(capsys, argv_fn(specs))
    assert rc == 2
    assert err.startswith("error: ")
    assert fragment in err


@pytest.mark.parametrize("command, flag, sizes", [
    ("sweep", "--asymptotic", ""), ("sweep", "--asymptotic", ","), ("asymptotic", "--L", ""),
], ids=["sweep-empty", "sweep-comma", "asymptotic-empty"])
def test_empty_size_list_exits_2(specs, capsys, command, flag, sizes):
    # An empty list is no list: sweep --asymptotic "" once printed the
    # table without its large-L columns and exited 0.
    rc, out, err = _run(capsys, [command, specs["gapped"], flag, sizes, "--d-start", "0.85",
                                 "--d-end", "0.89", "--n-points", "2"])
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} needs a comma-separated list of system sizes\n"


@pytest.mark.parametrize("command, flag, sizes", [
    ("sweep", "--asymptotic", "10,10"), ("asymptotic", "--L", "100,10,100"),
], ids=["sweep", "asymptotic"])
def test_repeated_size_exits_2(specs, capsys, command, flag, sizes):
    # A size given twice would print its two large-L columns twice, under
    # the same names: the request is refused with one line naming it.
    rc, out, err = _run(capsys, [command, specs["gapped"], flag, sizes, "--d-start", "0.85",
                                 "--d-end", "0.89", "--n-points", "2"])
    assert (rc, out) == (2, "")
    size = sizes.split(",")[0]
    assert err == f"error: {flag}: system size L = {size} is given twice\n"


@pytest.mark.parametrize("D, text", [
    ("78489255574689.66", "L = 3\nsigma_x_sq = 78489255574689.66\n"
     "rho_x = -0.17851676317835746\nsigma_z_sq = 1.7563143589165476e+29\n"
     "rho_z = 0.056827026891003385\n"),
    ("9.496536479705728e-17", "L = 69\nsigma_x_sq = 9.4965364803918e-17\n"
     "rho_x = -0.014705882352941176\nsigma_z_sq = 3.0847093803068013e-06\n"
     "rho_z = 0.5675990746225945\n"),
], ids=["at_sigma_x_sq", "below_d_min"])
def test_d_outside_the_exact_interval_exits_2(tmp_path, capsys, D, text):
    # D inside the float ends but outside the spec's exact interval, next
    # to either end: refused alike, with exit 2 and one line naming D and
    # the exact ends, before anything is printed
    spec = tmp_path / "edge.spec"
    spec.write_text(text)
    rc, out, err = _run(capsys, ["simulate", str(spec), "--D", D, "--n", "1000",
                                 "--seed", "1"])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: D = {D} (") and err.count("\n") == 1
    assert "outside the exact interval (d_min, sigma_x_sq)" in err


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_spec_read_splits_lines_as_text_mode(tmp_path, end):
    # The spec is read in binary: CRLF and CR line ends parse as LF ones
    # do, and a diagnostic names the same line.
    good, broken = tmp_path / "good.spec", tmp_path / "broken.spec"
    good.write_bytes(CASE2_TEXT.replace("\n", end).encode())
    broken.write_bytes(f"L = 10{end}rho_x{end}".encode())
    assert cli._load_spec(str(good)) == parse_spec_text(CASE2_TEXT)
    with pytest.raises(ValidationError, match=r"broken\.spec:2: expected 'key = value', "
                                              r"got 'rho_x'$"):
        cli._load_spec(str(broken))


def test_malformed_spec_diagnostic_names_line(tmp_path, capsys):
    p = tmp_path / "broken.spec"
    p.write_text("L = 10\nsigma_x_sq = what\nrho_x = 0\nsigma_z_sq = 1\n"
                 "rho_z = 0\n")
    rc, out, err = _run(capsys, ["info", str(p)])
    assert rc == 2
    assert "broken.spec:2" in err


# Argument vectors for the dispatch test: valid ones, help, and each way
# a parse can fail (SPEC stands for a spec path that is never read).
_GRID = ["--d-start", "0.1", "--d-end", "0.9", "--n-points", "3"]
_SIM = ["--D", "0.5", "--n", "100", "--seed", "1"]
DISPATCH_ARGVS = {
    "no_argv": [],
    "top_h": ["-h"],
    "top_help": ["--help"],
    "top_h_before_command": ["-h", "sweep"],
    "unknown_command": ["bogus", "SPEC"],
    "unknown_option_first": ["--bogus", "info", "SPEC"],
    "bare_sweep": ["sweep"],
    "sweep_h": ["sweep", "-h"],
    "sweep_h_after_options": ["sweep", "SPEC", *_GRID, "-h"],
    "simulate_help": ["simulate", "--help"],
    "info": ["info", "SPEC"],
    "classify": ["classify", "SPEC"],
    "sweep": ["sweep", "SPEC", *_GRID],
    "sweep_all_flags": ["sweep", "SPEC", *_GRID, "--certify", "--asymptotic",
                        "100,1000", "--bits", "--include-endpoints-eps"],
    "asymptotic": ["asymptotic", "SPEC", "--L", "10,100", *_GRID],
    "gap_inf": ["gap-inf", "SPEC", *_GRID, "--bits"],
    "simulate": ["simulate", "SPEC", *_SIM, "--bits"],
    "missing_required": ["sweep", "SPEC", "--d-start", "0.1", "--d-end", "0.9"],
    "missing_spec": ["simulate", *_SIM],
    "bogus_option": ["sweep", "SPEC", *_GRID, "--bogus"],
    "two_bogus_words": ["sweep", "SPEC", "--bogus", *_GRID, "extra"],
    "extra_positional": ["info", "SPEC", "extra"],
    "double_dash_first": ["--", "sweep", "SPEC", *_GRID],
    "double_dash_in_command": ["info", "--", "-SPEC"],
    "equals_form": ["sweep", "SPEC", "--d-start=0.1", "--d-end", "0.9",
                    "--n-points", "3"],
    "abbreviation": ["sweep", "SPEC", "--d-st", "0.1", "--d-end", "0.9",
                     "--n-points", "3"],
    "ambiguous_abbreviation": ["sweep", "SPEC", "--d", "0.1", *_GRID],
    "negative_values": ["simulate", "SPEC", "--D", "-0.5", "--n", "-3",
                        "--seed", "-1"],
    "bad_float": ["sweep", "SPEC", "--d-start", "x", "--d-end", "0.9",
                  "--n-points", "3"],
    "bad_int": ["simulate", "SPEC", "--D", "0.5", "--n", "1e6", "--seed", "1"],
    "repeated_n": ["simulate", "SPEC", "--D", "0.5", "--n", "10", "--n", "20",
                   "--seed", "1"],
    "classify_bits": ["classify", "SPEC", "--bits"],
}


def _exit_outcome(capsys, call):
    """(SystemExit code or None, stdout, stderr, return value or None) of call."""
    try:
        value, code = call(), None
    except SystemExit as exc:
        value, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, value


@pytest.mark.parametrize("argv", DISPATCH_ARGVS.values(), ids=DISPATCH_ARGVS.keys())
def test_dispatch_matches_the_full_parse(capsys, monkeypatch, argv):
    # main() parses a request with its command's own parser: the same exit
    # code, standard output and error as the full two-level parse, and,
    # where argv is valid, the same namespace reaches the command.
    seen = []
    for name in ("info", "classify", "sweep", "asymptotic", "gap_inf", "simulate"):
        monkeypatch.setattr(cli, "cmd_" + name, lambda args: seen.append(args) or 0)
    full = _exit_outcome(capsys, lambda: cli.build_parser().parse_args(argv))
    dispatched = _exit_outcome(capsys, lambda: cli.main(argv))
    if full[0] is None:
        assert dispatched == (None, "", "", 0)
        assert seen == [full[3]]
    else:
        assert dispatched[:3] == full[:3]
        assert seen == []


def test_import_builds_no_parser_and_main_builds_one():
    # In a fresh interpreter: count ArgumentParser constructions on import,
    # after one main() call and after a second one.  -B keeps the child
    # from writing bytecode next to the sources.
    code = """
import argparse, contextlib, io
built = [0]
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built[0] += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import symrd.cli
counts = [built[0]]
for _ in range(2):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
        symrd.cli.main(["info"])
    counts.append(built[0])
print(*counts)
"""
    package_root = str(Path(symrd.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={"PATH": "/usr/local/bin:/usr/bin:/bin",
                               "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    on_import, after_one, after_two = map(int, proc.stdout.split())
    assert on_import == 0
    assert after_one > 0
    assert after_two == after_one


def test_exit_code_3_for_precision_failures(specs, capsys, monkeypatch):
    def explode(args):
        raise PrecisionError("probe")
    monkeypatch.setattr(cli, "cmd_info", explode)
    rc, out, err = _run(capsys, ["info", specs["case1"]])
    assert rc == 3
    assert err == "error: probe\n"


def _scaled_spec(tmp_path, scale: float) -> str:
    """L 10, rho_x 0.3, rho_z 0.5 with sigma_x_sq = scale and sigma_z_sq twice it."""
    p = tmp_path / f"scaled_{scale!r}.spec"
    p.write_text(f"L = 10\nsigma_x_sq = {scale!r}\nrho_x = 0.3\n"
                 f"sigma_z_sq = {2.0 * scale!r}\nrho_z = 0.5\n")
    return str(p)


@pytest.mark.parametrize("scale, argv, kind", [
    (1e200, ["sweep", "--certify", "--d-start", "7e199", "--d-end", "9.5e199",
             "--n-points", "5"], "OverflowError"),
    (1e-200, ["sweep", "--certify", "--d-start", "7e-201", "--d-end", "9.5e-201",
              "--n-points", "5"], "ZeroDivisionError"),
    (1e-200, ["asymptotic", "--L", "10", "--d-start", "6.5e-201", "--d-end", "9.9e-201",
              "--n-points", "20"], "ValueError"),
])
def test_float64_failures_exit_3_without_traceback(tmp_path, capsys, scale, argv, kind):
    # float64 gives out at these variance scales (the values themselves are
    # valid); the command reports it on one line and exits 3
    command, *flags = argv
    rc, _, err = _run(capsys, [command, _scaled_spec(tmp_path, scale), *flags])
    assert rc == 3
    assert err.startswith(f"error: numerical failure: {kind}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["info"],
    ["sweep", "--d-start", "7e199", "--d-end", "9.5e199", "--n-points", "5"],
    ["simulate", "--D", "9.5e199", "--n", "1000", "--seed", "1"],
    ["simulate", "--D", "9.5e199", "--n", "1000", "--seed", "1", "--bits"],
])
def test_large_variance_scale_is_the_unit_problem(tmp_path, capsys, argv):
    # at sigma_x_sq = 1e200 the lambda_q solve's coefficients are scaled
    # into float64's range: the commands that run no oracle exit 0 (they
    # exited 3 with an OverflowError), simulate's routed distortion
    # matches its closed form, and a
    # rate cell is the unit problem's at D / 1e200 (the spec's floats are
    # not the unit spec's times an exact power of two, and the cells are
    # printed to 12 digits, hence the 1e-10)
    command, *flags = argv
    rc, out, err = _run(capsys, [command, _scaled_spec(tmp_path, 1e200), *flags])
    assert rc == 0
    if command == "simulate":
        assert "(matches: True)" in err
    else:
        assert err == ""
    if command != "sweep":
        return
    unit_flags = ["--d-start", "0.7", "--d-end", "0.95", "--n-points", "5"]
    _, unit_out, _ = _run(capsys, ["sweep", _scaled_spec(tmp_path, 1.0), *unit_flags])
    rows, unit_rows = _rows(out)[1], _rows(unit_out)[1]
    assert len(rows) == len(unit_rows) == 5
    for row, unit_row in zip(rows, unit_rows):
        assert row[4] == unit_row[4]
        for cell, unit_cell in zip(row[1:3], unit_row[1:3]):
            assert abs(float(cell) / float(unit_cell) - 1.0) <= 1e-10


def test_asymptotic_limits_that_overflow_exit_3(tmp_path, capsys):
    # At sigma_x_sq = 1e200 the limit distortions overflow float64; a valid
    # D must not be reported as outside the interval (inf, 1e200).
    rc, out, err = _run(capsys, ["asymptotic", _scaled_spec(tmp_path, 1e200), "--L", "10",
                                 "--d-start", "7e199", "--d-end", "9.5e199",
                                 "--n-points", "5"])
    assert rc == 3
    assert out == "D,upper_asym_nats_L10,lower_asym_nats_L10\n"
    assert err.startswith("error: limit distortion d_min_inf = inf overflows float64")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("scale, d_start, d_end, rows", [
    (1e-200, "6.99999999999e-201", "7.00000000001e-201", 0),
    (1e-160, "8.7e-161", "9.91381303116364e-161", 1),
])
def test_undefined_alpha1_exits_3_after_the_rows_before_it(tmp_path, capsys, scale,
                                                          d_start, d_end, rows):
    # At these scales h1's products of three variances underflow at
    # d_th0_inf, so the sqrt(L) clause has no alpha1.  The grid's middle
    # point (and at 1e-200 every point) is inside D_TH0_WINDOW of d_th0_inf.
    rc, out, err = _run(capsys, ["asymptotic", _scaled_spec(tmp_path, scale), "--L", "100",
                                 "--d-start", d_start, "--d-end", d_end, "--n-points", "3"])
    assert rc == 3
    header, *lines = out.splitlines()
    assert header == "D,upper_asym_nats_L100,lower_asym_nats_L100"
    assert len(lines) == rows
    assert err.startswith("error: alpha1 of the sqrt(L) clause is undefined at d_th0_inf")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sqrt_l_clause_prints_where_h1_is_a_normal_float(tmp_path, capsys):
    # At 1e-80 h1 is a normal float at d_th0_inf, so the sqrt(L) clause has
    # its alpha1; every grid point is inside D_TH0_WINDOW of d_th0_inf, and
    # each row prints the unit spec's cells.
    def cells(scale):
        rc, out, err = _run(capsys, ["asymptotic", _scaled_spec(tmp_path, scale),
                                     "--L", "100,1000000",
                                     "--d-start", f"{0.93076923076922 * scale!r}",
                                     "--d-end", f"{0.93076923076924 * scale!r}",
                                     "--n-points", "3"])
        assert rc == 0 and err == ""
        return [line.split(",")[1:] for line in out.splitlines()[1:]]
    unit = cells(1.0)
    assert len(unit) == 3 and cells(1e-80) == unit


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data "
     "type float64", "Unable to allocate 7.28 TiB for an array with shape (1000000, "
     "1000000) and data type float64"),
    ("", "allocation failed"),
])
def test_memory_error_exits_3_without_traceback(specs, capsys, monkeypatch, message, shown):
    # An array too large to allocate, such as the factor at a huge L; the
    # run is replaced, so nothing is allocated for real.
    def unallocatable(config):
        raise MemoryError(message)
    monkeypatch.setattr(cli.simulate, "run_simulation", unallocatable)
    rc, out, err = _run(capsys, ["simulate", specs["case1"], "--D", "0.85", "--n", "1000",
                                 "--seed", "1"])
    assert rc == 3 and out == ""
    assert err == f"error: out of memory: {shown}\n"


@pytest.mark.parametrize("argv_fn", [
    lambda p: ["sweep", p["gapped"], "--certify", "--asymptotic", "100,10000",
               "--d-start", "0.784", "--d-end", "0.994", "--n-points", "20"],
    lambda p: ["simulate", p["case1"], "--D", "0.85", "--n", "1000", "--seed", "7"],
])
def test_each_request_validates_its_spec_once(specs, capsys, monkeypatch, argv_fn):
    # a SourceSpec validates itself when built, and nothing re-checks it
    calls = []
    validate = symrd.model.validate_spec
    monkeypatch.setattr(symrd.model, "validate_spec",
                        lambda spec: calls.append(spec) or validate(spec))
    rc, _, err = _run(capsys, argv_fn(specs))
    assert rc == 0, err
    assert len(calls) == 1


# Specs that validate_spec accepts a little past a bound, each with the
# spec at that bound: sigma_z_sq below 0, rho_x above 1, and rho_x below
# -1/(L-1) where 1 + (L-1) fl(-1/(L-1)) is 1.1e-16, not 0, so that the
# noiseless spec's lambda_y is positive only at the bound.
SLACK_PAIRS = {
    "sigma_z_sq": ((10, 1.0, 0.3, -1e-13, 0.5), (10, 1.0, 0.3, 0.0, 0.5)),
    "rho_x": ((10, 1.0, 1.0000000000005, 0.5, 0.0), (10, 1.0, 1.0, 0.5, 0.0)),
    "rho_x_low": ((50, 1.0, -1.0 / 49 - 1e-15, 0.0, 0.0), (50, 1.0, -1.0 / 49, 0.0, 0.0)),
}
SLACK_PAIR_ARGVS = [
    ["info"],
    ["classify"],
    ["sweep", "--d-start", "0.4", "--d-end", "0.9", "--n-points", "3", "--certify",
     "--asymptotic", "10,1000"],
    ["asymptotic", "--L", "10,1000", "--d-start", "1e-12", "--d-end", "1e-9",
     "--n-points", "3"],
    ["gap-inf", "--d-start", "0.4", "--d-end", "0.9", "--n-points", "2"],
    ["simulate", "--D", "0.6", "--n", "1000", "--seed", "3"],
]


@pytest.mark.parametrize("past, at", SLACK_PAIRS.values(), ids=SLACK_PAIRS.keys())
def test_a_value_past_its_bound_is_the_spec_at_the_bound(tmp_path, capsys, past, at):
    # The spec stores the value at its bound, so the two specs are one:
    # every command, the large-L ones included, prints the same bytes and
    # exits alike.
    assert repr(symrd.SourceSpec(*past)) == repr(symrd.SourceSpec(*at))
    paths = []
    for name, values in (("past", past), ("at", at)):
        p = tmp_path / f"{name}.spec"
        p.write_text("".join(f"{key} = {value!r}\n" for key, value in
                             zip(("L", "sigma_x_sq", "rho_x", "sigma_z_sq", "rho_z"), values)))
        paths.append(str(p))
    for command, *flags in SLACK_PAIR_ARGVS:
        outcomes = [_run(capsys, [command, path, *flags]) for path in paths]
        assert outcomes[0] == outcomes[1], command


def test_invalid_spec_or_config_raises_at_construction():
    # also through dataclasses.replace, which builds a new instance
    spec = symrd.SourceSpec(10, 1.0, 0.3, 1.0, 0.0)
    config = symrd.SimConfig(spec, 1.0, 100, 1)
    with pytest.raises(ValidationError, match="rho_x"):
        dataclasses.replace(spec, rho_x=1.5)
    with pytest.raises(ValidationError, match="lambda_q"):
        dataclasses.replace(config, lambda_q=0.0)
    with pytest.raises(ValidationError, match="n_samples"):
        dataclasses.replace(config, n_samples=0)


def test_console_script_byte_deterministic(specs):
    # `python -m symrd` makes the same main() call as the console script,
    # and needs no install: the second run gets a stripped environment whose
    # PYTHONPATH names the directory holding the imported package.  -B keeps
    # either run from writing bytecode next to the sources.
    argv = [sys.executable, "-B", "-m", "symrd", "sweep", specs["case2"],
            "--d-start", "0.68", "--d-end", "0.8", "--n-points", "6",
            "--certify"]
    package_root = str(Path(symrd.__file__).resolve().parent.parent)
    first = subprocess.run(argv, capture_output=True, timeout=120)
    second = subprocess.run(argv, capture_output=True, timeout=120,
                            env={"PATH": "/usr/local/bin:/usr/bin:/bin",
                                 "NO_COLOR": "1",
                                 "PYTHONPATH": package_root})
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout


def test_closed_stdout_exits_quietly(specs):
    # the reader takes one line of a table larger than a pipe holds and
    # closes the pipe: the next write fails with EPIPE, and the command
    # exits with code 141 and nothing on stderr, not a BrokenPipeError
    # traceback
    argv = [sys.executable, "-m", "symrd", "sweep", specs["case2"],
            "--d-start", "0.7", "--d-end", "0.9", "--n-points", "2000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"D,upper_nats,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_console_script_entry_resolves_to_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"symrd": "symrd.cli:main"}
    module_name, _, attr = scripts["symrd"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is cli.main


def test_benchmark_bindings_resolve():
    # symbench/spans.py traces by rebinding the module attributes in its
    # TARGETS and symrd.simulate's np, and symbench/run.py counts calls of
    # two upper_bound functions: each must resolve.
    path = Path(__file__).resolve().parent.parent / "symbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("symbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = [(module, attr) for module, attr, _ in spans.TARGETS] + [
        ("symrd.upper_bound", "distortion_of"),
        ("symrd.upper_bound", "solve_lambda_q"),
        ("symrd.simulate", "np"),
    ]
    for module, attr in bindings:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
