"""Tests for the command-line interface.

All invocations run main() in process except one, which drives
`python -m symrd` through two subprocesses to check byte determinism
across environments.  The `symrd` console-script entry declared in
pyproject.toml is checked separately, without an install.
"""

import importlib
import math
import subprocess
import sys
from pathlib import Path

import pytest

import symrd
import symrd.cli as cli
from symrd import PrecisionError

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
    # asymptotic_regime validates and classifies; every row reuses its regime
    calls = []
    validate = symrd.asymptotics.validate_spec
    monkeypatch.setattr(symrd.asymptotics, "validate_spec",
                        lambda spec: calls.append(spec) or validate(spec))
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


def test_sweep_prepares_once(specs, capsys, monkeypatch):
    # the lambda_q solve's and the oracle's constants are formed once per
    # spectrum: a longer grid makes no more calls of the per-spectrum
    # functions, with or without the oracle and large-L columns
    names = (("upper_bound", "prepare"), ("oracle", "prepare"),
             ("model", "side_view"), ("model", "check_distortion"),
             ("model", "d_min"), ("model", "source_weights"))
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
    ],
)
def test_exit_code_2_paths(specs, capsys, argv_fn, fragment):
    rc, out, err = _run(capsys, argv_fn(specs))
    assert rc == 2
    assert err.startswith("error: ")
    assert fragment in err


def test_malformed_spec_diagnostic_names_line(tmp_path, capsys):
    p = tmp_path / "broken.spec"
    p.write_text("L = 10\nsigma_x_sq = what\nrho_x = 0\nsigma_z_sq = 1\n"
                 "rho_z = 0\n")
    rc, out, err = _run(capsys, ["info", str(p)])
    assert rc == 2
    assert "broken.spec:2" in err


def test_import_builds_no_parser_and_main_builds_one():
    # In a fresh interpreter: count ArgumentParser constructions on import,
    # after one main() call and after a second one.
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
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


def test_console_script_byte_deterministic(specs):
    # `python -m symrd` makes the same main() call as the console script,
    # and needs no install: the second run gets a stripped environment whose
    # PYTHONPATH names the directory holding the imported package.
    argv = [sys.executable, "-m", "symrd", "sweep", specs["case2"],
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


def test_console_script_entry_resolves_to_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"symrd": "symrd.cli:main"}
    module_name, _, attr = scripts["symrd"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is cli.main
