"""Seeded inputs of the four workloads.

A workload is a list of cases; one round sends each case once, in order,
and every run of a workload repeats whole rounds.  The spec shapes are
fixed in the tables below; the workload seed draws what varies around them
(variance scale, grid placement, asymptotic sizes, simulated parameters)
and the per-request simulate seeds.  Nothing here calls symrd: grids are
placed with the reference formulas in refs.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

import refs

WORKLOADS = ("sweep", "certify", "sim-long", "sim-wide")

# Sweep shapes: (arm, L, form, values).  Correlation form values are
# (rho_x, sigma_z_sq / sigma_x_sq, rho_z); eigenvalue form values are
# (lambda_x, gamma_x, lambda_y, gamma_y) at unit scale.  Two shapes per
# lower_bound.Branch arm, chosen so that a grid over most of
# (d_min, sigma_x_sq) crosses every piece the arm has, plus three CEO
# specs (rho_x = 1, rho_z = 0).  None stands for rho = -1/(L-1).
SWEEP_SHAPES = (
    ("LamGeqGam_1", 2, "corr", (0.018068, 1.255, 0.787738)),
    ("LamGeqGam_1", 10**6, "corr", (0.344382, 3.751, 0.354793)),
    ("LamGeqGam_2", 10, "corr", (0.00445, 0.419, 0.505559)),
    ("LamGeqGam_2", 10**5, "corr", (0.00269, 3.115, 0.7745)),
    ("LamGeqGam_3", 200, "corr", (0.014335, 0.418, 0.091527)),
    ("LamGeqGam_3", 10**6, "corr", (0.699193, 40.248, 0.894202)),
    ("LamGeqGam_4", 5, "eig", (0.0, 1.25, 2.4, 1.35)),
    ("LamGeqGam_4", 10**4, "eig", (0.0, 1.0, 5.0, 1.5)),
    ("GamGeqLam_1", 3, "corr", (-0.293224, 0.348, 0.180743)),
    ("GamGeqLam_1", 10**6, "corr", (-3.72998e-07, 58.346, None)),
    ("GamGeqLam_2", 2, "corr", (0.249759, 17.864, -0.403159)),
    ("GamGeqLam_2", 1000, "corr", (0.037541, 81.74, -0.001001)),
    ("GamGeqLam_3", 5, "corr", (-0.009352, 3.147, -0.25)),
    ("GamGeqLam_3", 1000, "corr", (0.002202, 97.162, -0.001001)),
    ("GamGeqLam_4", 10, "eig", (1.0, 0.0, 2.0, 3.0)),
    ("GamGeqLam_4", 50, "eig", (3.0, 0.0, 3.5, 8.0)),
    ("CEO", 2, "corr", (1.0, 0.5, 0.0)),
    ("CEO", 50, "corr", (1.0, 2.0, 0.0)),
    ("CEO", 10**6, "corr", (1.0, 30.0, 0.0)),
)
SWEEP_POINTS = 200

# Certify shapes at sigma_x_sq = 1: (label, L, rho_x, sigma_z_sq, rho_z,
# with a 1e-2 copy).  Only shapes whose converse is Rbar everywhere get the
# 1e-2 copy: on composite shapes the oracle's absolute KKT tolerance fails
# at a seed-dependent share of 1e-2 grid points, which would make the failed
# count depend on the seed.  That fault is kept by FAULT_SHAPE instead.
CERTIFY_SHAPES = (
    ("ZeroMix", 2, 0.0, 0.5, 0.0, True),
    ("ZeroMix", 1000, 0.0, 2.0, 0.0, True),
    ("XiGeHalf", 100, 0.6, 1.0, 0.2, True),
    ("XiGeHalf", 800, 0.1, 0.5, 0.3, True),
    ("XiLtHalf-LamGeqGam_3", 500, 0.3, 4.0, 0.55, False),
    ("XiLtHalf-LamGeqGam_2", 10, 0.00445, 0.419, 0.505559, False),
    ("XiLtHalf-LamGeqGam_3", 200, 0.014335, 0.418, 0.091527, False),
    ("PosMixZeroRho", 50, 0.0, 2.0, 0.5, False),
)
# Grid sizes per shape, spread so that request times do not bunch: with
# one tight cluster of request times the median would jump whenever the
# machine's speed changes, instead of following it.
CERTIFY_POINTS = (10, 80, 20, 70, 30, 60, 40, 50)
ASYM_SIZES = (10, 100, 1000, 10**4, 10**6)
UNIT_COPY_SCALE = 1e-2

# The oracle fault, on inputs that do not depend on the seed:
# (L, sigma_x_sq, rho_x, sigma_z_sq, rho_z, grid).  This request exits 3
# ("KKT residual ... exceeds certificate tolerance") at the 5th grid point
# on every run; its copy with every variance and the grid x100 certifies.
FAULT_CASE = (200, 0.01, 0.45, 0.03, 0.75, (0.007, 0.0099, 30))
FAULT_ASYM = (100, 1000)

# Simulate sizes (L, n) of one round.  sim-long: 8 RNG blocks of 2^17
# samples at small L; sim-wide: one block at L in the hundreds with
# n = 3 (2L), at five sizes whose request times overlap, so that their
# median follows the machine's speed instead of jumping between clusters.
SIM_SHAPES = {"sim-long": ((12, 10**6), (12, 10**6)),
              "sim-wide": tuple((L, 6 * L) for L in (240, 270, 300, 330, 360))}


@dataclass(frozen=True)
class Case:
    """One request of a round, with what its output checks need."""

    name: str
    L: int
    spec: dict                      # spec-file keys -> float, in file order
    eig: refs.Eig
    command: str                    # "sweep" or "simulate"
    grid: tuple = ()                # (d_start, d_end, n_points)
    certify: bool = False
    asym: tuple = ()
    corr: tuple = ()                # (sx2, rx, sz2, rz) when in correlation form
    regime: str = ""                # refs.asym_regime name, certify only
    unit_of: int | None = None      # index of the case this is a 1e-2 copy of
    D: float = 0.0                  # simulate target
    n: int = 0                      # simulate sample count

    def spec_text(self) -> str:
        lines = [f"L = {self.L}"] + [f"{k} = {v!r}" for k, v in self.spec.items()]
        return "\n".join(lines) + "\n"

    def argv(self, spec_path: str, request_index: int, workload_seed: int) -> list:
        if self.command == "simulate":
            return ["simulate", spec_path, "--D", repr(self.D), "--n", str(self.n),
                    "--seed", str(sim_seed(workload_seed, request_index))]
        argv = ["sweep", spec_path, "--d-start", repr(self.grid[0]),
                "--d-end", repr(self.grid[1]), "--n-points", str(self.grid[2])]
        if self.certify:
            argv.append("--certify")
        if self.asym:
            argv += ["--asymptotic", ",".join(str(k) for k in self.asym)]
        return argv


def sim_seed(workload_seed: int, request_index: int) -> int:
    """Each simulate request gets its own seed (run_simulation is cached)."""
    return (workload_seed * 1_000_003 + request_index) % (1 << 63)


def _corr_case(name, L, sx2, rx, sz2, rz, **kw) -> Case:
    spec = {"sigma_x_sq": sx2, "rho_x": rx, "sigma_z_sq": sz2, "rho_z": rz}
    return Case(name, L, spec, refs.eig_of_corr(L, sx2, rx, sz2, rz),
                corr=(sx2, rx, sz2, rz), **kw)


def _span(e: refs.Eig, L: int, lo: float, f1: float, f2: float) -> tuple:
    hi = refs.source_var(e, L)
    return lo + f1 * (hi - lo), lo + f2 * (hi - lo)


def sweep_cases(rng: random.Random) -> list:
    cases = []
    for i, (arm, L, form, vals) in enumerate(SWEEP_SHAPES):
        # Four decades of variance: the decade is fixed per shape, the seed
        # draws the mantissa, so the solver work per row barely moves.
        scale = 10.0 ** (i % 4 - 2 + rng.random())
        name = f"sweep-{i:02d}-{arm}-L{L}"
        if form == "eig":
            lx, gx, ly, gy = (v * scale for v in vals)
            case = Case(name, L, {"lambda_x": lx, "gamma_x": gx,
                                  "lambda_y": ly, "gamma_y": gy},
                        refs.Eig(lx, gx, ly, gy), "sweep")
        else:
            rx, ratio, rz = vals
            rz = -1.0 / (L - 1) if rz is None else rz
            case = _corr_case(name, L, scale, rx, scale * ratio, rz, command="sweep")
        lo = refs.d_floor(case.eig, L)
        d0, d1 = _span(case.eig, L, lo, rng.uniform(0.005, 0.02), rng.uniform(0.975, 0.995))
        cases.append(replace(case, grid=(d0, d1, SWEEP_POINTS)))
    return cases


def _certify_case(name, L, sx2, rx, sz2, rz, grid, asym, **kw) -> Case:
    regime, _ = refs.asym_regime(sx2, rx, sz2, rz)
    return _corr_case(name, L, sx2, rx, sz2, rz, command="sweep", grid=grid,
                      certify=True, asym=asym, regime=regime, **kw)


def certify_cases(rng: random.Random) -> list:
    asym = tuple(sorted(rng.sample(ASYM_SIZES, 2)))
    cases = []
    for (label, L, rx, sz2, rz, copy), points in zip(CERTIFY_SHAPES, CERTIFY_POINTS):
        e = refs.eig_of_corr(L, 1.0, rx, sz2, rz)
        lo = max(refs.d_floor(e, L), refs.asym_regime(1.0, rx, sz2, rz)[1])
        d0, d1 = _span(e, L, lo, rng.uniform(0.02, 0.08), rng.uniform(0.92, 0.98))
        name = f"certify-{len(cases):02d}-{label}-L{L}"
        cases.append(_certify_case(name, L, 1.0, rx, sz2, rz,
                                   (d0, d1, points), asym))
        if copy:
            cases.append(_scaled_copy(cases, len(cases) - 1))
    L, sx2, rx, sz2, rz, (d0, d1, n) = FAULT_CASE
    u = 1.0 / UNIT_COPY_SCALE
    cases.append(_certify_case(f"certify-{len(cases):02d}-fault-unit-L{L}", L,
                               sx2 * u, rx, sz2 * u, rz, (d0 * u, d1 * u, n), FAULT_ASYM))
    cases.append(_certify_case(f"certify-{len(cases):02d}-fault-L{L}-x1e-2", L,
                               sx2, rx, sz2, rz, (d0, d1, n), FAULT_ASYM,
                               unit_of=len(cases) - 1))
    return cases


def _scaled_copy(cases: list, index: int) -> Case:
    base, s = cases[index], UNIT_COPY_SCALE
    sx2, rx, sz2, rz = base.corr
    d0, d1, n = base.grid
    name = f"certify-{len(cases):02d}-" + base.name.split("-", 2)[2] + "-x1e-2"
    return _certify_case(name, base.L, sx2 * s, rx, sz2 * s, rz,
                         (d0 * s, d1 * s, n), base.asym, unit_of=index)


def sim_cases(workload: str, rng: random.Random) -> list:
    """Cases alternate nonnegative and negative correlations."""
    cases = []
    for k, (L, n) in enumerate(SIM_SHAPES[workload]):
        neg = -1.0 / (L - 1)
        sx2 = 10.0 ** rng.uniform(-1.0, 1.0)
        sz2 = sx2 * 10.0 ** rng.uniform(-1.0, 1.0)
        if k % 2 == 0:
            sign, rx, rz = "pos", rng.uniform(0.05, 0.8), rng.uniform(0.0, 0.9)
        else:
            sign, rx, rz = "neg", rng.uniform(0.9 * neg, 0.0), rng.uniform(0.9 * neg, 0.6)
        case = _corr_case(f"{workload}-{k}-{sign}-L{L}", L, sx2, rx, sz2, rz,
                          command="simulate", n=n)
        lo, hi = refs.d_floor(case.eig, L), refs.source_var(case.eig, L)
        cases.append(replace(case, D=lo + rng.uniform(0.2, 0.8) * (hi - lo)))
    return cases


def build(workload: str, seed: int) -> list:
    rng = random.Random(f"symbench/{workload}/{seed}")
    if workload == "sweep":
        return sweep_cases(rng)
    if workload == "certify":
        return certify_cases(rng)
    return sim_cases(workload, rng)


def write_specs(cases: list, directory: Path) -> list:
    """Write one spec file per case; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case.name}.spec"
        path.write_text(case.spec_text(), encoding="utf-8")
        paths.append(str(path))
    return paths
