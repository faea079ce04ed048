"""Command-line surface: spec inspection, bound sweeps, asymptotics, simulation.

Subcommands
-----------
info       validate a spec file and report spectrum, d_min, sigma_x_sq,
           regime branch and applicable thresholds
classify   regime branch with its roots and thresholds
sweep      CSV table of upper/lower bounds over a distortion grid, with
           optional convex-oracle certification and asymptotic columns
asymptotic CSV table of the large-L expressions over a distortion grid
gap-inf    CSV table of the limiting gap over a distortion grid
simulate   solve the test-channel noise level for a target distortion,
           run the Monte-Carlo check, and emit its CSV row

All numeric CSV fields are printed with 12 significant digits and a '.'
decimal separator regardless of locale; identical invocations produce
byte-identical standard output.  Rates are in nats unless --bits is given,
which divides rate columns by ln 2 at display and names them in bits.  Exit codes:
0 success, 2 usage/validation errors, 3 numerical failures (convergence,
precision, or float64 overflow and underflow at extreme scales) and
exhausted memory, and 141 (128 + SIGPIPE) with nothing printed when the
reader closes standard output early, as `| head` does.  The CSV commands
write their rows in blocks of BLOCK_ROWS lines; when a row fails with exit
2 or 3, standard output still holds the header and every row before the
failing D, written before the error line goes to standard error.
Diagnostics go to standard error and never use color (NO_COLOR is always
honored because no color is ever emitted).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import asymptotics, lower_bound, oracle, simulate, upper_bound
from .errors import ConvergenceError, DomainError, PrecisionError, ValidationError
from .model import parse_spec_text, spectral_decompose

CSV_FMT = "%.12g"
INFO_FMT = "%.6g"
_LN2 = math.log(2.0)
# Lines a CSV command collects before one write to standard output.
BLOCK_ROWS = 256


def _load_spec(path: str):
    """The validated spec in the UTF-8 file at path, read in one binary read.

    parse_spec_text splits lines as text mode's newline translation
    would, so the bytes need no text layer; a file that is not UTF-8 is
    a ValidationError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read spec file {path!r}: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read spec file {path!r}: not UTF-8 ({exc})")
    return parse_spec_text(text, name=path)


def _grid(args) -> list[float]:
    """Distortion grid of the grid arguments: open at both ends by default.

    With --include-endpoints-eps the grid is the closed n-point linspace,
    endpoints shifted inward by a relative 1e-9 for near-boundary
    inspection.
    """
    d_start, d_end, n_points = args.d_start, args.d_end, args.n_points
    if n_points < 2:
        raise ValidationError(f"n_points must be at least 2, got {n_points}")
    if not d_start < d_end:
        raise ValidationError(f"need d_start < d_end, got {d_start!r} >= {d_end!r}")
    if args.include_endpoints_eps:
        step = (d_end - d_start) / (n_points - 1)
        pts = [d_start + k * step for k in range(n_points)]
        pts[0] = d_start * (1.0 + 1e-9)
        pts[-1] = d_end * (1.0 - 1e-9)
        return pts
    step = (d_end - d_start) / (n_points + 1)
    return [d_start + (k + 1) * step for k in range(n_points)]


def _sizes(text: str, flag: str) -> list[int]:
    """The system sizes of a comma-separated list given to flag, each L >= 2, none twice."""
    sizes = []
    for part in filter(None, text.split(",")):
        try:
            size = int(part)
        except ValueError:
            raise ValidationError(f"{flag}: system size {part!r} is not an integer")
        if size < 2:
            raise ValidationError(f"{flag}: system size L = {size} must be at least 2")
        if size in sizes:
            raise ValidationError(f"{flag}: system size L = {size} is given twice")
        sizes.append(size)
    if not sizes:
        raise ValidationError(f"{flag} needs a comma-separated list of system sizes")
    return sizes


def _row_format(header: list[str]) -> str:
    """One format for a whole row under header: text for piece, CSV_FMT elsewhere."""
    return ",".join(["%s" if name == "piece" else CSV_FMT for name in header])


def _write_table(header: str, rows) -> None:
    """Write header and then each line of the iterable rows to standard output.

    Lines go out in blocks of BLOCK_ROWS, one write each, so the table is
    never held whole.  The lines collected before a row that raises are
    written before the exception leaves, the header included: the
    commands set up their per-request solvers inside rows, after the
    header, so a failure there leaves the header on stdout too.
    """
    block = [header]
    try:
        for row in rows:
            block.append(row)
            if len(block) == BLOCK_ROWS:
                lines, block = block, []
                sys.stdout.write("\n".join(lines) + "\n")
    finally:
        if block:
            sys.stdout.write("\n".join(block) + "\n")


def _check_range(regime, d_start: float, d_end: float) -> None:
    floor, ceil = regime.prepared.d_min, regime.prepared.sigma_x_sq
    if not (floor < d_start and d_end < ceil):
        raise ValidationError(
            f"sweep range [{d_start!r}, {d_end!r}] not inside the valid "
            f"interval (d_min, sigma_x_sq) = ({floor!r}, {ceil!r})"
        )


def _print_report(pairs) -> None:
    for key, value in pairs:
        if isinstance(value, float):
            print(f"{key} = {INFO_FMT % value}")
        else:
            print(f"{key} = {value}")


# Printed names of a Regime's (m1, m2, d_th_1, d_th_2, d_th_c) by its hatted
# flag: the paper's mu and plain names on the lambda side, nu and hatted ones.
_REGIME_NAMES = (("mu1", "mu2", "d_th_1", "d_th_2", "d_th_c"),
                 ("nu1", "nu2", "d_th_1_hat", "d_th_2_hat", "d_th_c_hat"))


def _regime_pairs(r) -> list:
    """The branch, then each root and threshold the regime defines."""
    values = (r.m1, r.m2, r.d_th_1, r.d_th_2, r.d_th_c)
    return [("branch", r.branch.value)] + [
        (name, value) for name, value in zip(_REGIME_NAMES[r.hatted], values)
        if value is not None]


def cmd_info(args) -> int:
    spec = _load_spec(args.spec_file)
    s = spectral_decompose(spec)
    regime = lower_bound.classify(s, spec.L)
    _print_report([("L", spec.L),
                   ("lambda_x", s.lambda_x), ("gamma_x", s.gamma_x),
                   ("lambda_z", s.lambda_z), ("gamma_z", s.gamma_z),
                   ("lambda_y", s.lambda_y), ("gamma_y", s.gamma_y),
                   ("lambda_w", s.lambda_w),
                   ("sigma_x_sq", regime.prepared.sigma_x_sq),
                   ("d_min", regime.prepared.d_min)]
                  + _regime_pairs(regime))
    return 0


def cmd_classify(args) -> int:
    spec = _load_spec(args.spec_file)
    _print_report(_regime_pairs(lower_bound.classify(spectral_decompose(spec), spec.L)))
    return 0


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec_file)
    s = spectral_decompose(spec)
    L = spec.L
    converse = lower_bound.classify(s, L)
    _check_range(converse, args.d_start, args.d_end)
    grid = _grid(args)
    # An empty --asymptotic is a list with no sizes, refused like ",".
    asym_ls = _sizes(args.asymptotic, "--asymptotic") if args.asymptotic is not None else []
    regime = asymptotics.asymptotic_regime(spec) if asym_ls else None

    scale = _LN2 if args.bits else 1.0
    # As in asymptotic and gap-inf, the large-L columns name their unit in bits only.
    unit, asym_unit = ("_bits", "_bits") if args.bits else ("_nats", "")
    header = ["D", "upper" + unit, "lower" + unit, "gap" + unit, "piece"]
    if args.certify:
        header += ["oracle" + unit, "kkt_residual"]
    for asym_l in asym_ls:
        header += [f"upper_asym{asym_unit}_L{asym_l}", f"lower_asym{asym_unit}_L{asym_l}"]
    if regime is not None and regime.condition is asymptotics.Condition.PosMixPosRho_XiLtHalf:
        header.append("delta_r_inf" + asym_unit)
    row_format = _row_format(header)

    def rows():
        # The converse, oracle and large-L passes in lockstep: one row of each per D.
        certified = (oracle.solutions(oracle.prepare(s, L), grid) if args.certify
                     else None)
        limits = asymptotics.rows(regime, asym_ls, grid) if regime is not None else None
        for D, upper, lower, piece in lower_bound.rows(converse, grid):
            cells = (D, upper / scale, lower / scale, (upper - lower) / scale, piece)
            if certified is not None:
                _, value, _, _, (_, _, _, stat, comp) = next(certified)
                # The larger residual, as max(stat, comp) picks it.
                cells += (value / scale, comp if comp > stat else stat)
            if limits is not None:
                _, bounds, gap = next(limits)
                for up, low in bounds:
                    cells += (up / scale, low / scale)
                if gap is not None:
                    cells += (gap / scale,)
            yield row_format % cells

    _write_table(",".join(header), rows())
    return 0


def cmd_asymptotic(args) -> int:
    spec = _load_spec(args.spec_file)
    ls = _sizes(args.L, "--L")
    grid = _grid(args)
    scale = _LN2 if args.bits else 1.0
    unit = "bits" if args.bits else "nats"
    header = ["D"]
    for asym_l in ls:
        header += [f"upper_asym_{unit}_L{asym_l}", f"lower_asym_{unit}_L{asym_l}"]
    row_format = _row_format(header)

    def rows():
        regime = asymptotics.asymptotic_regime(spec)
        for D, bounds, _ in asymptotics.rows(regime, ls, grid):
            yield row_format % (D, *[cell / scale for pair in bounds for cell in pair])

    _write_table(",".join(header), rows())
    return 0


def cmd_gap_inf(args) -> int:
    spec = _load_spec(args.spec_file)
    grid = _grid(args)
    scale = _LN2 if args.bits else 1.0
    header = ["D", "delta_r_inf_bits" if args.bits else "delta_r_inf"]
    row_format = _row_format(header)

    def rows():
        regime = asymptotics.asymptotic_regime(spec)
        for D, gap in zip(grid, asymptotics.gaps(regime, grid)):
            yield row_format % (D, gap / scale)

    _write_table(",".join(header), rows())
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec_file)
    lambda_q = upper_bound.solve_lambda_q(spectral_decompose(spec), spec.L, args.D)
    result = simulate.run_simulation(simulate.SimConfig(spec, lambda_q, args.n, args.seed))
    scale = _LN2 if args.bits else 1.0
    header = ("n,lambda_q,distortion_empirical,distortion_closed_form,"
              "rate_closed_form,rate_empirical,std_err")
    if args.bits:
        header = header.replace("rate_closed_form", "rate_closed_form_bits")
        header = header.replace("rate_empirical", "rate_empirical_bits")
    print(header)
    print(",".join([
        str(result.n_samples), CSV_FMT % result.lambda_q,
        CSV_FMT % result.distortion_empirical, CSV_FMT % result.distortion_closed_form,
        CSV_FMT % (result.rate_closed_form / scale),
        CSV_FMT % (result.rate_empirical / scale), CSV_FMT % result.std_err,
    ]))
    print(
        "estimator comparison: routed empirical = "
        f"{CSV_FMT % result.distortion_empirical} vs closed form "
        f"{CSV_FMT % result.distortion_closed_form} "
        f"(matches: {result.matches_routed_identity}); direct X+Q empirical = "
        f"{CSV_FMT % result.distortion_direct_empirical} vs closed form "
        f"{CSV_FMT % result.distortion_direct_closed_form}",
        file=sys.stderr,
    )
    return 0


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d-start", type=float, required=True,
                        help="left edge of the distortion grid")
    parser.add_argument("--d-end", type=float, required=True,
                        help="right edge of the distortion grid")
    parser.add_argument("--n-points", type=int, required=True,
                        help="number of grid points (open grid by default)")
    parser.add_argument("--include-endpoints-eps", action="store_true",
                        help="use a closed grid with endpoints shifted "
                             "inward by a relative 1e-9")
    parser.add_argument("--bits", action="store_true",
                        help="display rates in bits instead of nats")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line; main() builds one per process.

    Its command_parsers attribute maps each command name to the command's
    own parser.
    """
    parser = argparse.ArgumentParser(
        prog="symrd",
        description="Rate-distortion bounds for distributed coding of "
                    "symmetrically correlated Gaussian sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.command_parsers = sub.choices

    p = sub.add_parser("info", help="validate a spec and report its structure")
    p.add_argument("spec_file")

    p = sub.add_parser("classify", help="regime branch, roots and thresholds")
    p.add_argument("spec_file")

    p = sub.add_parser("sweep", help="upper/lower bound CSV over a distortion grid")
    p.add_argument("spec_file")
    _add_grid_arguments(p)
    p.add_argument("--certify", action="store_true",
                   help="add convex-oracle value and max relative KKT "
                        "residual columns")
    p.add_argument("--asymptotic", metavar="L1,L2,...",
                   help="add large-L approximation columns at these sizes")

    p = sub.add_parser("asymptotic", help="large-L expression CSV over a grid")
    p.add_argument("spec_file")
    p.add_argument("--L", required=True, metavar="L1,L2,...",
                   help="comma-separated system sizes to evaluate")
    _add_grid_arguments(p)

    p = sub.add_parser("gap-inf", help="limiting gap CSV over a grid")
    p.add_argument("spec_file")
    _add_grid_arguments(p)

    p = sub.add_parser("simulate", help="Monte-Carlo test-channel verification")
    p.add_argument("spec_file")
    p.add_argument("--D", type=float, required=True,
                   help="target per-component distortion")
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--bits", action="store_true",
                   help="display rates in bits instead of nats")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first main() call."""
    return build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """What _parser().parse_args(argv) returns, or the same exit it takes.

    When argv's first word names a command, that command's parser alone
    parses the rest, and words it leaves go to the top-level parser's
    error, as the full parse sends them.  The top-level parse is kept for
    help, a missing or unknown command and the `--` form.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.command_parsers.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Looked up at call time, so a rebound cmd_* is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Standard output goes to os.devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as exc:
        # float64 giving out (overflow, division by an underflowed zero, a
        # domain error from a rounded argument) at extreme variance scales
        print(f"error: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # an array too large to allocate, such as simulate's factor at huge L
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
