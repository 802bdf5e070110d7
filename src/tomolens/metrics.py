"""Squeezing diagnostics computed from tomograms.

Tomographic (differential) entropies with the entropic-squeezing threshold
ln(pi e)/2, quadrature variances with the coherent-state threshold 1/2,
third and fourth central moments of X_theta with the Gaussian reference
values 0 and 3/4, relative fluctuation products between state pairs, and the
two-mode variance of (X_theta1 + X_theta2)/sqrt(2).  Entropies integrate the
tomogram directly, all through one -w ln w integrand; moment-based quantities
assemble from normal-ordered moment tables, which may be tomogram-extracted or
oracle-sourced, so every quantity here has a dual route for cross-checking.

Every quadrature moment <X_theta^j>, j <= 4, comes from one expansion
(`_raw_quadrature_moments`) that the mean, the variance and the central
moments read.  The two-mode variance is the mean of the two reduced-mode
variances, read off the table's `reduced` single-mode tables, plus the
covariance of the cross entries.  The normal-ordering expansions,

    (A + A^dag)^2 = :(A + A^dag)^2: + 1
    (A + A^dag)^3 = :(A + A^dag)^3: + 3 :(A + A^dag):
    (A + A^dag)^4 = :(A + A^dag)^4: + 6 :(A + A^dag)^2: + 3,

with A = a e^{-i theta}, are frozen constants; the test suite re-derives
them against dense-matrix expectation values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingOrder
from .fock import SingleModeState
from .moments import MomentTable, moment_table, single_mode_rows, two_mode_moment_table
from .tomography import (
    QuadratureGrid,
    Tomogram,
    TwoModeTomogram,
    _joint_blocks,
    default_grid,
)

LN_PI_E = float(np.log(np.pi * np.e))

# A quadrature is entropically squeezed below half the single-mode EUR bound.
ENTROPY_THRESHOLD = 0.5 * LN_PI_E
# Coherent-state references: variance 1/2, fourth central moment 3/4.
VARIANCE_THRESHOLD = 0.5
FOURTH_MOMENT_THRESHOLD = 0.75
# Two-mode entropic threshold mirrored from the single-mode convention
# (half the bipartite EUR bound); recorded as an assumption in reports.
TWO_MODE_ENTROPY_THRESHOLD = LN_PI_E
# Squeezing flags require clearing the threshold by more than the numerical
# noise floor, so boundary states (coherent, two-mode squeezed vacuum at its
# saturating phase) read as unsqueezed instead of flickering.
FLAG_MARGIN = 1e-9


def below_threshold(value: float, threshold: float) -> bool:
    return bool(value < threshold - FLAG_MARGIN)


def _entropy_integrand(values: np.ndarray) -> np.ndarray:
    """-w ln w element-wise, with 0 ln 0 := 0."""
    v = np.asarray(values)
    out = np.zeros(v.shape)
    np.log(v, out=out, where=v > 0.0)
    # 0 - w is -w, except that it keeps the product at w = 0 a +0.0.
    out *= np.subtract(0.0, v)
    return out


def entropy_from_density(values: np.ndarray, grid: QuadratureGrid) -> float:
    """-integral w ln w dX with 0 ln 0 := 0, in nats."""
    return float(grid.integrate(_entropy_integrand(values)))


def entropy(tomo: Tomogram, theta: float) -> float:
    """Tomographic entropy of the row at `theta`, in nats."""
    return entropy_from_density(tomo.row(theta), tomo.grid)


def entropy_two_mode(tomo: TwoModeTomogram) -> float:
    """Bipartite tomographic entropy -int int w ln w dX1 dX2, in nats."""
    return float(tomo.grid1.weights @ _entropy_integrand(tomo.values) @ tomo.grid2.weights)


def _joint_entropy(obj, theta1: float, theta2: float, grid: QuadratureGrid | None = None) -> float:
    """entropy_two_mode of the joint tomogram at (theta1, theta2), reduced one row block at a time."""
    if grid is None:
        grid = default_grid(obj)
    w = grid.weights
    blocks = _joint_blocks(obj, theta1, theta2, grid)
    return float(sum(w[rows] @ _entropy_integrand(block) @ w for rows, block in blocks))


def _raw_quadrature_moments(table: MomentTable, theta: float, q: int) -> list:
    """[<X_theta^j> for j = 0..q], q <= 4, via the frozen normal-ordering expansions."""
    if table.max_order < q:
        raise MissingOrder(f"<X_theta^{q}> needs moments up to order {q}")
    ph = np.exp(-1j * theta)

    def re(k, l):
        # Re <A^dag^k A^l> with A = a e^{-i theta}
        return np.real(table.get(k, l) * ph ** (l - k))

    expansions = (
        lambda: np.sqrt(2.0) * np.real(table.get(0, 1) * np.exp(-1j * theta)),
        lambda: 0.5 * (
            1.0 + 2.0 * np.real(table.get(1, 1)) + 2.0 * np.real(table.get(0, 2) * np.exp(-2j * theta))
        ),
        lambda: 2.0 ** (-1.5) * (2.0 * re(0, 3) + 6.0 * re(1, 2) + 6.0 * re(0, 1)),
        lambda: 0.25 * (
            2.0 * re(0, 4) + 8.0 * re(1, 3) + 6.0 * re(2, 2) + 6.0 * (2.0 * re(0, 2) + 2.0 * re(1, 1)) + 3.0
        ),
    )
    return [1.0] + [float(x()) for x in expansions[:q]]


def mean_quadrature(table: MomentTable, theta: float) -> float:
    """<X_theta> = sqrt(2) Re(<a> e^{-i theta})."""
    return _raw_quadrature_moments(table, theta, 1)[1]


def variance(table: MomentTable, theta: float) -> float:
    """(Delta X_theta)^2 from normal-ordered moments up to order 2."""
    _, x1, x2 = _raw_quadrature_moments(table, theta, 2)
    return x2 - x1**2


def central_moment(table: MomentTable, theta: float, q: int) -> float:
    """q-th central moment of X_theta for q in {3, 4}."""
    if q not in (3, 4):
        raise ValueError("central_moment supports q = 3 or 4")
    x = _raw_quadrature_moments(table, theta, q)
    if q == 3:
        return x[3] - 3.0 * x[1] * x[2] + 2.0 * x[1] ** 3
    return x[4] - 4.0 * x[1] * x[3] + 6.0 * x[1] ** 2 * x[2] - 3.0 * x[1] ** 4


def relative_fluctuation_product(
    s1: SingleModeState,
    s2: SingleModeState,
    thetas,
):
    """Cross products of quadrature spreads between two states.

    f(theta) = DeltaX_theta(s1) DeltaX_{theta+pi/2}(s2) and
    g(theta) = DeltaX_theta(s2) DeltaX_{theta+pi/2}(s1); one moment table per
    state serves every theta.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    t1 = moment_table(s1, 2)
    t2 = moment_table(s2, 2)
    f = np.array(
        [np.sqrt(variance(t1, th) * variance(t2, th + np.pi / 2)) for th in thetas]
    )
    g = np.array(
        [np.sqrt(variance(t2, th) * variance(t1, th + np.pi / 2)) for th in thetas]
    )
    return f, g


def fit_cos2theta_quadratic(thetas, values):
    """Least-squares fit of values ~ A + B cos(2 theta) + C cos^2(2 theta).

    Returns ((A, B, C), max absolute residual).
    """
    thetas = np.asarray(thetas, dtype=float)
    c = np.cos(2.0 * thetas)
    design = np.column_stack([np.ones_like(c), c, c * c])
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    residual = float(np.max(np.abs(design @ coeffs - values)))
    return tuple(float(v) for v in coeffs), residual


def two_mode_variance(table: MomentTable, theta1: float, theta2: float) -> float:
    """Variance of (X_theta1 + X_theta2)/sqrt(2) from a two-mode moment table."""
    table_a, table_b = table.reduced("a"), table.reduced("b")
    cross = np.real(
        table.get(0, 1, 0, 1) * np.exp(-1j * (theta1 + theta2))
    ) + np.real(table.get(1, 0, 0, 1) * np.exp(1j * (theta1 - theta2)))
    covariance = cross - mean_quadrature(table_a, theta1) * mean_quadrature(table_b, theta2)
    return float(0.5 * (variance(table_a, theta1) + variance(table_b, theta2)) + covariance)


@dataclass(frozen=True)
class SqueezingReport:
    """Single-quadrature diagnostics of one state at one phase."""

    theta: float
    entropy: float
    entropy_squeezed: bool
    variance: float
    variance_squeezed: bool
    central_moment_3: float
    central_moment_4: float
    hm4_squeezed: bool
    eur_sum: float
    eur_satisfied: bool


@dataclass(frozen=True)
class TwoModeSqueezingReport:
    """Bipartite diagnostics at one phase pair, with each mode's reduced entropy."""

    theta1: float
    theta2: float
    entropy: float
    entropy_squeezed: bool
    eur_sum: float
    eur_satisfied: bool
    variance: float
    variance_squeezed: bool
    reduced_entropy_a: float
    reduced_entropy_b: float


def squeezing_report(
    obj,
    theta: float,
    grid: QuadratureGrid | None = None,
    mode: str | None = None,
) -> SqueezingReport:
    """Assemble the full single-quadrature report at one phase.

    `obj` is a SingleModeState, or a two-mode state / density matrix with
    `mode` ('a' or 'b') selecting the reduced mode.
    """
    rows, grid = single_mode_rows(obj, [theta, theta + np.pi / 2], grid, mode)
    s_theta = entropy_from_density(rows[0], grid)
    s_conj = entropy_from_density(rows[1], grid)
    table = moment_table(obj, 4, grid=grid, mode=mode)
    var = variance(table, theta)
    m3 = central_moment(table, theta, 3)
    m4 = central_moment(table, theta, 4)
    eur = s_theta + s_conj
    return SqueezingReport(
        theta=theta,
        entropy=s_theta,
        entropy_squeezed=below_threshold(s_theta, ENTROPY_THRESHOLD),
        variance=var,
        variance_squeezed=below_threshold(var, VARIANCE_THRESHOLD),
        central_moment_3=m3,
        central_moment_4=m4,
        hm4_squeezed=below_threshold(m4, FOURTH_MOMENT_THRESHOLD),
        eur_sum=eur,
        eur_satisfied=bool(eur >= LN_PI_E - 1e-6),
    )


def two_mode_report(
    obj,
    theta1: float,
    theta2: float,
    grid: QuadratureGrid | None = None,
) -> TwoModeSqueezingReport:
    """Assemble the bipartite report (entropy, EUR, joint variance, reduced entropies).

    Mode a's reduced entropy is taken at theta1 and mode b's at theta2, each
    from one row of the reduced mode's tomogram; squeezing_report(mode=...)
    gives a mode's full report.
    """

    def reduced_entropy(theta, mode):
        rows, row_grid = single_mode_rows(obj, [theta], grid, mode)
        return entropy_from_density(rows[0], row_grid)

    s_ab = _joint_entropy(obj, theta1, theta2, grid)
    eur = s_ab + _joint_entropy(obj, theta1 + np.pi / 2, theta2 + np.pi / 2, grid)
    table = two_mode_moment_table(obj, 2, grid)
    var = two_mode_variance(table, theta1, theta2)
    return TwoModeSqueezingReport(
        theta1=theta1,
        theta2=theta2,
        entropy=s_ab,
        entropy_squeezed=below_threshold(s_ab, TWO_MODE_ENTROPY_THRESHOLD),
        eur_sum=eur,
        eur_satisfied=bool(eur >= 2.0 * LN_PI_E - 1e-6),
        variance=var,
        variance_squeezed=below_threshold(var, VARIANCE_THRESHOLD),
        reduced_entropy_a=reduced_entropy(theta1, "a"),
        reduced_entropy_b=reduced_entropy(theta2, "b"),
    )


def threshold_crossing(xs, ys, level) -> float:
    """First x where linearly interpolated y(x) crosses below `level`."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    below = ys < level
    if not below.any():
        raise ValueError("values never cross below the level")
    i = int(np.argmax(below))
    if i == 0:
        return float(xs[0])
    x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
    return float(x0 + (level - y0) * (x1 - x0) / (y1 - y0))


def band_peaks(values, x, floor_frac: float = 0.02):
    """Local maxima above floor_frac of the global maximum, as (x, height)."""
    v = np.asarray(values)
    thr = v.max() * floor_frac
    idx = np.nonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]) & (v[1:-1] > thr))[0] + 1
    return [(float(x[i]), float(v[i])) for i in idx]


def band_contrast(values, x, floor_frac: float = 0.02) -> float:
    """Mean peak-to-adjacent-valley depth; 0 for fewer than two bands."""
    v = np.asarray(values)
    pk = band_peaks(v, x, floor_frac)
    if len(pk) < 2:
        return 0.0
    depths = []
    for (x1, v1), (x2, v2) in zip(pk[:-1], pk[1:]):
        sel = (x >= x1) & (x <= x2)
        depths.append(min(v1, v2) - v[sel].min())
    return float(np.mean(depths))
