"""Checks of symrd's CLI output against the references in refs.py.

Each check returns a list of messages, one per failure; an empty list
means the output passed.  Tolerances: 1e-9 relative wherever a reference
value is computed to full precision (the CLI prints 12 significant digits),
a few units of the last printed digit for identities between printed
columns, and 5 sigma for Monte-Carlo estimates.
"""

from __future__ import annotations

import functools
import math
import re

import refs

REL_TOL = 1e-9
KKT_TOL = 1e-6
PRINT_TOL = 1e-11          # 12 significant digits: rounding is below 5e-12 relative
N_SIGMA = 5.0
FAULT_EXIT = 3
FAULT_MESSAGE = re.compile(r"KKT residual \S+ exceeds certificate tolerance at D = (\S+)")

PIECES = {"Rbar", "R1c", "R2c", "R1c_hat", "R2c_hat"}
# Along increasing D every branch reads Rbar, then the composite family
# (R1 before R2), then Rbar again; each part may be empty.
PIECE_ORDER = {False: re.compile(r"(Rbar,)*(R1c,)*(R2c,)*(Rbar,)*"),
               True: re.compile(r"(Rbar,)*(R1c_hat,)*(R2c_hat,)*(Rbar,)*")}

SIM_HEADER = ("n,lambda_q,distortion_empirical,distortion_closed_form,"
              "rate_closed_form,rate_empirical,std_err")


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def parse_csv(text: str) -> tuple[list, list]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def sweep_header(case) -> list:
    header = ["D", "upper_nats", "lower_nats", "gap_nats", "piece"]
    if case.certify:
        header += ["oracle_nats", "kkt_residual"]
    for k in case.asym:
        header += [f"upper_asym_L{k}", f"lower_asym_L{k}"]
    if case.asym and case.regime == "XiLtHalf":
        header.append("delta_r_inf")
    return header


def is_fault(case, code, stderr: str) -> bool:
    """The known oracle fault: exit 3 with the KKT-residual message."""
    return case.certify and code == FAULT_EXIT and FAULT_MESSAGE.search(stderr) is not None


def check_sweep(case, code, stdout: str, stderr: str) -> list:
    """Check one `sweep` output; a request that hit the fault is checked up to it."""
    errors = []
    fault = is_fault(case, code, stderr)
    if code != 0 and not fault:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    header, rows = parse_csv(stdout)
    if header != sweep_header(case):
        return [f"header {header}"]
    grid = refs.open_grid(*case.grid)
    if fault:
        failed_at = float(FAULT_MESSAGE.search(stderr).group(1))
        if len(rows) >= len(grid) or failed_at != grid[len(rows)]:
            errors.append(f"fault at D = {failed_at!r} after {len(rows)} rows")
    elif len(rows) != len(grid):
        errors.append(f"{len(rows)} rows, expected {len(grid)}")
    col = {name: i for i, name in enumerate(header)}
    prev = None
    for k, (row, D) in enumerate(zip(rows, grid)):
        if len(row) != len(header):
            errors.append(f"row {k}: {len(row)} fields")
            continue
        errors += [f"row {k} (D = {D!r}): {m}" for m in _check_row(case, col, row, D, prev)]
        prev = row
    labels = "".join(row[col["piece"]] + "," for row in rows if len(row) == len(header))
    if not PIECE_ORDER[case.eig.gy > case.eig.ly].fullmatch(labels):
        errors.append(f"piece sequence {labels}")
    return errors


def _check_row(case, col, row, D, prev) -> list:
    e, L = case.eig, case.L
    errors = []
    f = {name: float(row[i]) for name, i in col.items() if name != "piece"}
    upper, lower, gap, piece = f["upper_nats"], f["lower_nats"], f["gap_nats"], row[col["piece"]]
    if not close(f["D"], D, PRINT_TOL):
        errors.append(f"D printed {row[col['D']]}")
    ref = refs.bt_rate(e, L, D)
    if not close(upper, ref):
        errors.append(f"upper {upper!r} vs Berger-Tung {ref!r}")
    if case.corr and case.corr[1] == 1.0 and case.corr[3] == 0.0:
        ceo = refs.ceo_rate(L, case.corr[0], case.corr[2], D)
        if not (close(upper, ceo) and close(lower, ceo)):
            errors.append(f"bounds {upper!r}, {lower!r} vs CEO sum-rate {ceo!r}")
    if lower > upper * (1.0 + PRINT_TOL):
        errors.append(f"lower {lower!r} above upper {upper!r}")
    if abs(gap - (upper - lower)) > PRINT_TOL * (abs(upper) + abs(lower) + abs(gap)):
        errors.append(f"gap {gap!r} is not upper - lower")
    if piece not in PIECES:
        errors.append(f"piece {piece!r}")
    elif (piece == "Rbar") != (gap == 0.0):
        errors.append(f"piece {piece} with gap {gap!r}")
    if prev is not None:
        for name in ("upper_nats", "lower_nats"):
            before = float(prev[col[name]])
            if f[name] > before + PRINT_TOL * abs(before):
                errors.append(f"{name} rises from {before!r} to {f[name]!r}")
    if case.certify:
        if not close(f["oracle_nats"], lower):
            errors.append(f"oracle {f['oracle_nats']!r} vs lower {lower!r}")
        if not 0.0 <= f["kkt_residual"] <= KKT_TOL:
            errors.append(f"kkt_residual {f['kkt_residual']!r}")
    for k in case.asym:
        errors += _check_asym(case, k, f, D)
    return errors


def _check_asym(case, k, f, D) -> list:
    up, lo = f[f"upper_asym_L{k}"], f[f"lower_asym_L{k}"]
    if not (math.isfinite(up) and math.isfinite(lo)):
        return [f"asymptotic L{k}: {up!r}, {lo!r}"]
    if case.regime == "ZeroMix":
        # Independent components: the limit expression is exact at every L.
        sx2, _, sz2, _ = case.corr
        ref = refs.bt_rate(refs.eig_of_corr(k, sx2, 0.0, sz2, 0.0), k, D)
        if not (close(up, ref) and close(lo, ref)):
            return [f"asymptotic L{k}: {up!r}, {lo!r} vs exact {ref!r}"]
    elif case.regime == "XiGeHalf" and up != lo:
        return [f"asymptotic L{k}: bounds {up!r}, {lo!r} differ without a gap"]
    elif case.regime == "XiLtHalf":
        delta = f["delta_r_inf"]
        if delta < 0.0 or abs((up - lo) - delta) > PRINT_TOL * (abs(up) + abs(lo) + delta):
            return [f"asymptotic L{k}: upper - lower = {up - lo!r}, delta_r_inf {delta!r}"]
    return []


def check_unit_copy(unit_case, unit_stdout: str, copy_case, copy_stdout: str) -> list:
    """Rates do not depend on the variance unit: compare the rows both print."""
    scale = copy_case.corr[0] / unit_case.corr[0]
    header, unit_rows = parse_csv(unit_stdout)
    _, copy_rows = parse_csv(copy_stdout)
    rates = [i for i, h in enumerate(header)
             if "_nats" in h or "_asym_" in h or h == "delta_r_inf"]
    errors = []
    for k, (u, c) in enumerate(zip(unit_rows, copy_rows)):
        if not close(float(c[0]), scale * float(u[0]), PRINT_TOL):
            errors.append(f"row {k}: D {c[0]} is not {scale} x {u[0]}")
        for i in rates:
            if not close(float(c[i]), float(u[i])) and abs(float(c[i]) - float(u[i])) > 1e-12:
                errors.append(f"row {k}: {header[i]} {c[i]} at scale {scale} vs {u[i]}")
    return errors


@functools.lru_cache(maxsize=None)
def _mi_band(L: int, n: int) -> tuple[float, float]:
    return refs.mi_bias_band(L, n)


def check_simulate(case, code, stdout: str, stderr: str) -> list:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != SIM_HEADER:
        return [f"output {stdout[:300]!r}"]
    fields = lines[1].split(",")
    if len(fields) != 7 or fields[0] != str(case.n):
        return [f"row {lines[1]!r}"]
    _, lam_q, d_emp, d_closed, r_closed, r_emp, std_err = (float(x) for x in fields)
    e, L, n, D = case.eig, case.L, case.n, case.D
    errors = []
    ref_q = refs.bt_noise(e, L, D)
    if not close(lam_q, ref_q):
        errors.append(f"lambda_q {lam_q!r} vs {ref_q!r}")
    if not (close(refs.mmse(e, L, lam_q), D) and close(d_closed, D)):
        errors.append(f"MMSE identity at lambda_q: {refs.mmse(e, L, lam_q)!r}, "
                      f"printed {d_closed!r}, target {D!r}")
    if not close(r_closed, refs.bt_rate_at(e, L, lam_q)):
        errors.append(f"rate_closed_form {r_closed!r} vs {refs.bt_rate_at(e, L, lam_q)!r}")
    e0, e1 = refs.mode_errors(e, lam_q)
    sigma = math.sqrt(2.0 * (e0 * e0 + (L - 1) * e1 * e1) / (L * L * n))
    if abs(d_emp - D) > N_SIGMA * sigma:
        errors.append(f"distortion_empirical {d_emp!r} is {(d_emp - D) / sigma:.2f} sigma from {D!r}")
    if not 0.75 * sigma <= std_err <= 1.25 * sigma:
        errors.append(f"std_err {std_err!r} vs {sigma!r}")
    bias, sd = _mi_band(L, n)
    if abs(r_emp - r_closed - bias) > N_SIGMA * sd:
        errors.append(f"rate_empirical - rate_closed_form = {r_emp - r_closed!r}, "
                      f"Wishart bias {bias!r} +- {N_SIGMA * sd!r}")
    return errors
