"""The benchmark's own tests: each output check accepts a real symrd output
and rejects the same output with one corruption.

    PYTHONPATH=src python3 -m pytest -q symbench/test_checks.py
"""

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest

import checks
import inputs
import refs
import run

cli = run.import_symrd()
FMT = "%.12g"


def _output(case, tmp_path, request_index=0):
    path = inputs.write_specs([case], tmp_path)[0]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(case.argv(path, request_index, 1))
    return code, out.getvalue(), err.getvalue()


def _edit(stdout, row, column, new):
    """Replace field `column` of data row `row` with new(old string)."""
    lines = stdout.splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    i = header.index(column)
    fields[i] = new(fields[i])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _nudge(rel):
    return lambda text: FMT % (float(text) * (1.0 + rel))


def _sweep_case(arm, L):
    return next(c for c in inputs.build("sweep", 1) if c.name.endswith(f"-{arm}-L{L}"))


@pytest.fixture(scope="module")
def composite(tmp_path_factory):
    """LamGeqGam_2 at L = 10: Rbar, R1c and R2c rows on one grid."""
    case = _sweep_case("LamGeqGam_2", 10)
    return case, _output(case, tmp_path_factory.mktemp("composite"))


def _rows_with(stdout, piece):
    _, rows = checks.parse_csv(stdout)
    return [k for k, row in enumerate(rows) if row[4] == piece]


def test_sweep_output_passes(composite):
    case, (code, stdout, stderr) = composite
    assert code == 0
    assert checks.check_sweep(case, code, stdout, stderr) == []
    assert {"Rbar", "R1c", "R2c"} <= {row[4] for row in checks.parse_csv(stdout)[1]}


@pytest.mark.parametrize("column", ["upper_nats", "lower_nats"])
def test_rate_nudged_by_1e_7_is_rejected(composite, column):
    case, (code, stdout, stderr) = composite
    row = _rows_with(stdout, "R1c")[3]
    assert checks.check_sweep(case, code, _edit(stdout, row, column, _nudge(1e-7)), stderr)


@pytest.mark.parametrize("old,new", [("R2c", "R1c"), ("Rbar", "R1c"), ("R1c", "Rbar"),
                                     ("R1c", "R1c_hat")])
def test_wrong_piece_label_is_rejected(composite, old, new):
    case, (code, stdout, stderr) = composite
    rows = _rows_with(stdout, old)
    bad = _edit(stdout, rows[len(rows) // 2], "piece", lambda _: new)
    assert checks.check_sweep(case, code, bad, stderr)


def test_dropped_row_is_rejected(composite):
    case, (code, stdout, stderr) = composite
    lines = stdout.splitlines(keepends=True)
    assert checks.check_sweep(case, code, "".join(lines[:50] + lines[51:]), stderr)
    assert checks.check_sweep(case, code, "".join(lines[:-1]), stderr)


def test_ceo_sum_rate_is_checked(tmp_path):
    case = _sweep_case("CEO", 50)
    code, stdout, stderr = _output(case, tmp_path)
    assert checks.check_sweep(case, code, stdout, stderr) == []
    # Both columns go through the CEO closed form, so the shifted lower
    # bound fails there even though lower <= upper still holds.
    assert any("CEO" in m for m in checks.check_sweep(
        case, code, _edit(stdout, 10, "lower_nats", _nudge(-1e-7)), stderr))


@pytest.fixture(scope="module")
def certify(tmp_path_factory):
    cases = inputs.build("certify", 1)
    tmp = tmp_path_factory.mktemp("certify")
    return cases, [_output(case, tmp) for case in cases]


def test_certify_outputs_pass_and_the_fault_is_counted(certify):
    cases, outputs = certify
    faults = [case.name for case, (code, _, err) in zip(cases, outputs)
              if checks.is_fault(case, code, err)]
    assert faults == [c.name for c in cases if c.name.startswith("certify-13-fault")]
    for case, (code, stdout, stderr) in zip(cases, outputs):
        assert checks.check_sweep(case, code, stdout, stderr) == [], case.name
        if case.unit_of is not None:
            unit_stdout = outputs[case.unit_of][1]
            assert checks.check_unit_copy(cases[case.unit_of], unit_stdout, case, stdout) == []


def test_oracle_and_unit_copy_disagreement_is_rejected(certify):
    cases, outputs = certify
    i = next(i for i, c in enumerate(cases) if c.unit_of is not None)
    case, (code, stdout, stderr) = cases[i], outputs[i]
    assert checks.check_sweep(case, code, _edit(stdout, 5, "oracle_nats", _nudge(1e-7)), stderr)
    assert checks.check_sweep(case, code, _edit(stdout, 5, "kkt_residual", lambda _: "2e-06"), stderr)
    unit = cases[case.unit_of]
    bad = _edit(stdout, 5, f"upper_asym_L{case.asym[0]}", _nudge(1e-7))
    assert checks.check_unit_copy(unit, outputs[case.unit_of][1], case, bad)


def test_asymptotic_gap_column_is_checked(certify):
    cases, outputs = certify
    i = next(i for i, c in enumerate(cases) if c.regime == "XiLtHalf")
    case, (code, stdout, stderr) = cases[i], outputs[i]
    deltas = [float(r[-1]) for r in checks.parse_csv(stdout)[1]]
    row = deltas.index(max(deltas))
    # upper_asym - lower_asym is known to a few units in the 12th digit of
    # numbers near L/2 ln(...), which bounds how small a change can show.
    assert checks.check_sweep(case, code, _edit(stdout, row, "delta_r_inf", _nudge(1e-4)), stderr)


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    case = inputs.sim_cases("sim-wide", random.Random(1))[0]
    return case, _output(case, tmp_path_factory.mktemp("sim"), request_index=3)


def _sigma(case, stdout):
    lam_q = float(stdout.splitlines()[1].split(",")[1])
    e0, e1 = refs.mode_errors(case.eig, lam_q)
    return math.sqrt(2.0 * (e0 ** 2 + (case.L - 1) * e1 ** 2) / (case.L ** 2 * case.n))


def test_simulate_output_passes(simulated):
    case, (code, stdout, stderr) = simulated
    assert checks.check_simulate(case, code, stdout, stderr) == []


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_distortion_6_sigma_off_is_rejected(simulated, sign):
    case, (code, stdout, stderr) = simulated
    off = case.D + sign * 6.0 * _sigma(case, stdout)
    bad = _edit(stdout, 0, "distortion_empirical", lambda _: FMT % off)
    assert checks.check_simulate(case, code, bad, stderr)


def test_rate_outside_the_wishart_band_is_rejected(simulated):
    case, (code, stdout, stderr) = simulated
    bias, sd = refs.mi_bias_band(case.L, case.n)
    # The band is centred on the bias: an estimate that ignores it fails.
    no_bias = lambda text: FMT % (float(text) - bias)
    assert checks.check_simulate(case, code, _edit(stdout, 0, "rate_empirical", no_bias), stderr)
    wrong_q = replace(case, D=case.D * (1.0 + 1e-7))
    assert checks.check_simulate(wrong_q, code, stdout, stderr)


def test_references_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for x in (0.5, 3.0, 9.5, 750.5):
        assert math.isclose(refs._psi_minus_log(x), float(mpmath.digamma(x) - mpmath.log(x)),
                            rel_tol=1e-10, abs_tol=1e-13)
        assert math.isclose(refs.trigamma(x), float(mpmath.psi(1, x)), rel_tol=1e-10)
    p, n = 7, 40
    exact = sum(mpmath.digamma(mpmath.mpf(n - i + 1) / 2) for i in range(1, p + 1)) \
        + p * mpmath.log(2) - p * mpmath.log(n)
    assert math.isclose(refs.logdet_bias(p, n), float(exact), rel_tol=1e-12)


def test_berger_tung_reference_solves_the_balance_equation():
    e = refs.eig_of_corr(1000, 2.0, 0.3, 5.0, -0.001)
    lo, hi = refs.d_floor(e, 1000), refs.source_var(e, 1000)
    for f in (1e-3, 0.3, 0.999):
        D = lo + f * (hi - lo)
        assert math.isclose(refs.mmse(e, 1000, refs.bt_noise(e, 1000, D)), D, rel_tol=1e-14)


def test_metric_names_match_benchmark_json():
    import json
    import spans
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = run.layer_metrics(spans.Totals(), 1, 0, [1], [1], [0.1], [0.2], 0, 0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(layers.values(), spec["per_layer"]))


def test_calibration_factor_is_reference_over_window_mean():
    import calibrate
    cal = calibrate.Calibration("python")
    cal.window = [4e6, 1e6, 1e6]
    assert cal.factor() == pytest.approx(3.4e6 / 2e6)
    assert cal.window == []
    cal.sample(2)
    assert len(cal.window) == 2 and all(t > 0 for t in cal.window)
