"""References computed apart from symrd, used to check its outputs.

Nothing here imports symrd.  Each function is written from the model's
definitions or from the literature:

- the spectrum of a symmetric covariance, sigma^2 [(1 - rho) I + rho J];
- the Berger-Tung sum rate, with its own safeguarded Newton solve of the
  balance equation for the test-noise level;
- the quadratic Gaussian CEO sum-rate (Oohama 1998; Prabhakaran, Tse and
  Ramchandran, ISIT 2004);
- the exact bias and a conservative spread of the Gaussian mutual-information
  estimate built from Wishart log-determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Eig:
    """Eigenvalues (common mode lam, difference modes gam) of X and Y = X + Z."""

    lx: float
    gx: float
    ly: float
    gy: float


def eig_pair(L: int, var: float, rho: float) -> tuple[float, float]:
    """(1 + (L-1) rho) var and (1 - rho) var, clamped at 0 for boundary rho."""
    return max((1.0 + (L - 1) * rho) * var, 0.0), max((1.0 - rho) * var, 0.0)


def eig_of_corr(L: int, sx2: float, rx: float, sz2: float, rz: float) -> Eig:
    lx, gx = eig_pair(L, sx2, rx)
    lz, gz = eig_pair(L, sz2, rz) if sz2 > 0.0 else (0.0, 0.0)
    return Eig(lx, gx, lx + lz, gx + gz)


def d_floor(e: Eig, L: int) -> float:
    """Remote-source MMSE: the distortion no rate can get below."""
    return (e.lx * (e.ly - e.lx) / e.ly + (L - 1) * e.gx * (e.gy - e.gx) / e.gy) / L


def source_var(e: Eig, L: int) -> float:
    return (e.lx + (L - 1) * e.gx) / L


def mode_errors(e: Eig, q: float) -> tuple[float, float]:
    """MMSE of the common mode and of each difference mode given Y + Q."""
    return e.lx - e.lx ** 2 / (e.ly + q), e.gx - e.gx ** 2 / (e.gy + q)


def mmse(e: Eig, L: int, q: float) -> float:
    """Per-component MMSE of X from V = Y + Q, Q i.i.d. with variance q."""
    e0, e1 = mode_errors(e, q)
    return (e0 + (L - 1) * e1) / L


def bt_rate_at(e: Eig, L: int, q: float) -> float:
    """I(Y; V) in nats for V = Y + Q."""
    return 0.5 * math.log1p(e.ly / q) + 0.5 * (L - 1) * math.log1p(e.gy / q)


def bt_noise(e: Eig, L: int, D: float) -> float:
    """Test-noise variance q with mmse(q) = D, for d_floor < D < source_var.

    Writes the balance equation as f(q) = lx^2/(ly+q) + (L-1) gx^2/(gy+q) - c
    with c = L (source_var - D) > 0; f falls from L (D - d_floor) > 0 to -c.
    The positive root of the quadratic that f (ly+q)(gy+q) = 0 reduces to is
    the start; Newton steps in log q, kept inside a sign bracket, polish it.
    """
    a2, b2 = e.lx ** 2, (L - 1) * e.gx ** 2
    c = e.lx + (L - 1) * e.gx - L * D
    if not c > 0.0:
        raise ValueError(f"D = {D!r} is not below the source variance")

    def f(q):
        return a2 / (e.ly + q) + b2 / (e.gy + q) - c

    def df_dlogq(q):
        return -q * (a2 / (e.ly + q) ** 2 + b2 / (e.gy + q) ** 2)

    # -c q^2 + (a2 + b2 - c (ly + gy)) q + a2 gy + b2 ly - c ly gy = 0
    qb = a2 + b2 - c * (e.ly + e.gy)
    qc = a2 * e.gy + b2 * e.ly - c * e.ly * e.gy
    disc = math.sqrt(max(qb * qb + 4.0 * c * qc, 0.0))
    q = (qb + disc) / (2.0 * c) if qb >= 0.0 else 2.0 * qc / (disc - qb)
    hi = (a2 + b2) / c           # f(hi) <= 0
    lo = hi
    while f(lo) <= 0.0:
        lo *= 0.5
        if lo == 0.0:
            raise ValueError(f"D = {D!r} is not above the distortion floor")
    if not lo < q < hi:
        q = math.sqrt(lo * hi)
    for _ in range(200):
        fq = f(q)
        if fq > 0.0:
            lo = q
        else:
            hi = q
        step = fq / df_dlogq(q)
        nq = q * math.exp(-step) if abs(step) < 1.0 else math.nan
        if not lo < nq < hi:
            nq = math.sqrt(lo * hi)
        if abs(nq - q) <= 1e-15 * q:
            return nq
        q = nq
    return q


def bt_rate(e: Eig, L: int, D: float) -> float:
    """Berger-Tung sum rate in nats at per-component distortion D."""
    return bt_rate_at(e, L, bt_noise(e, L, D))


def ceo_rate(L: int, sx2: float, sn2: float, D: float) -> float:
    """Quadratic Gaussian CEO sum-rate, L agents each seeing X + N_l.

    R(D) = 1/2 ln(sx2 / D) + L/2 ln[(L/a) / (L/a - sn2)], a = 1/D - 1/sx2.
    """
    a = 1.0 / D - 1.0 / sx2
    return 0.5 * math.log(sx2 / D) - 0.5 * L * math.log1p(-sn2 * a / L)


def open_grid(d_start: float, d_end: float, n: int) -> list[float]:
    """n interior points of (d_start, d_end), spaced evenly, endpoints excluded."""
    step = (d_end - d_start) / (n + 1)
    return [d_start + (k + 1) * step for k in range(n)]


# --- Wishart log-determinant bias ------------------------------------------

def _psi_minus_log(x: float) -> float:
    """digamma(x) - ln(x), by recurrence up to x >= 8 and the asymptotic series."""
    acc = 0.0
    while x < 8.0:
        acc += math.log1p(1.0 / x) - 1.0 / x
        x += 1.0
    x2 = 1.0 / (x * x)
    return acc - 0.5 / x - x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 / 240)))


def trigamma(x: float) -> float:
    acc = 0.0
    while x < 8.0:
        acc += 1.0 / (x * x)
        x += 1.0
    x2 = 1.0 / (x * x)
    return acc + 1.0 / x + 0.5 * x2 + x2 / x * (1 / 6 - x2 * (1 / 30 - x2 * (1 / 42 - x2 / 30)))


def logdet_bias(p: int, n: int) -> float:
    """E[ln det(W/n)] - ln det(Sigma) for W ~ Wishart_p(n, Sigma).

    b(p, n) = sum_{i=1..p} psi((n-i+1)/2) + p ln 2 - p ln n, summed as
    psi(x_i) - ln(n/2) so that no large terms cancel.
    """
    half = 0.5 * n
    return math.fsum(_psi_minus_log(x) + math.log1p((x - half) / half)
                     for x in (0.5 * (n - i + 1) for i in range(1, p + 1)))


def logdet_sd(p: int, n: int) -> float:
    """Standard deviation of ln det(W/n): sqrt(sum_i trigamma((n-i+1)/2))."""
    return math.sqrt(math.fsum(trigamma(0.5 * (n - i + 1)) for i in range(1, p + 1)))


def mi_bias_band(L: int, n: int) -> tuple[float, float]:
    """Bias and a one-sigma bound of I_hat = 1/2 [ld(S_y) + ld(S_v) - ld(S_yv)].

    The bias is exact: 1/2 [2 b(L, n) - b(2L, n)].  The spread bounds the
    standard deviation of the combination by the sum of the three terms'
    standard deviations (Minkowski), since the log-determinants are
    correlated.
    """
    bias = 0.5 * (2.0 * logdet_bias(L, n) - logdet_bias(2 * L, n))
    sd = 0.5 * (2.0 * logdet_sd(L, n) + logdet_sd(2 * L, n))
    return bias, sd


# --- large-L regime ----------------------------------------------------------

def asym_regime(sx2: float, rx: float, sz2: float, rz: float) -> tuple[str, float]:
    """Large-L regime name and limiting distortion floor, for rho_x, rho_z >= 0.

    mix = rho_x sx2 + rho_z sz2; xi = rho_x/(1 - rho_x) * (1 - rho_y)/rho_y.
    With mix = 0 every component is independent; otherwise the floor is
    rho_x rho_z sx2 sz2 / mix + gamma_x gamma_z / gamma_y.
    """
    mix = rx * sx2 + rz * sz2
    if mix == 0.0:
        return "ZeroMix", sx2 * sz2 / (sx2 + sz2)
    gx, gz = (1.0 - rx) * sx2, (1.0 - rz) * sz2
    floor = rx * rz * sx2 * sz2 / mix + gx * gz / (gx + gz)
    if rx == 0.0:
        return "PosMixZeroRho", floor
    ry = mix / (sx2 + sz2)
    xi = rx / (1.0 - rx) * (1.0 - ry) / ry
    return ("XiGeHalf" if xi >= 0.5 else "XiLtHalf"), floor
