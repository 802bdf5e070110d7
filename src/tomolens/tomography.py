"""Optical tomograms on quadrature grids.

The single-mode tomogram of a pure state is evaluated as
w(X, theta) = |sum_n c_n e^{-i n theta} psi_n(X)|^2, which is the textbook
Hermite-polynomial form with the Gaussian and factorial factors absorbed
into the normalized eigenfunctions psi_n, so nothing overflows at large n.
Two-mode tomograms of pure states factor the same way, so a slice at fixed
X2 needs only psi(X2), not the whole joint tomogram.

Every other tomogram depends only on a density matrix and is a contraction
of it.  The products psi_n(X) psi_n'(X) do not depend on the phase, and
psi_n psi_n' is a polynomial of degree n + n' times e^{-X^2}, and so is
P_k(X) = psi_k(sqrt(2) X) for k <= 2d - 2.  So the d^2 products span only
2d - 1 functions: psi_n psi_n' = sum_k R_full[n d + n', k] P_k exactly, with
R_full a d^2 x (2d - 1) matrix fixed by d alone (a Gauss-Hermite rule with
2d - 1 nodes integrates every psi_n psi_n' P_k exactly) and symmetric in
(n, n').  Both modes of a joint tomogram share one grid, and the joint
tomogram of rho[n, n', m, m'] is P^T C P with C = Re(B1^T rho B2) of size
(2d - 1)^2, rho taken as a d^2 x d^2 matrix and
B_j[n d + n', k] = e^{-i(n - n') theta_j} R_full[n d + n', k]: one complex
product of (2d - 1) d^4 multiply-adds, then N^2 (2d - 1) for W instead of
N^2 d^2.  Only Re(rho~) reaches C, because R_full is real, and the
imaginary part of rho~ cancels in W because rho is Hermitian.  A
reduced-mode row is Re(rho~_a) R_full P, with rho_a = Tr_b rho formed as
c c^dag for a pure state, each phase's row on its own, so a row does not
depend on which other phases were asked for.  A physical rho gives
non-negative values up to rounding; a contraction dipping below -1e-12
times its maximum raises NegativeTomogram, and the rounding-level rest is
set to zero.

psi on the grid, P and R_full depend on (d, grid) alone, and a grid is the
value of its half-width and point count, so _grid_psi and _product_basis
are lru caches keyed on (d, grid) for the few most recent pairs.  Each
(d, grid) is certified once, before first use: max|psi_n psi_n' - R P|
above PROJECTION_GUARD raises ProjectionDefect, naming d and N, and nothing
is cached.  The pure routes take psi from the same cache and build no basis.

No caller keeps a joint tomogram W: each reads a mass, the entropy
-sum w_i w_j W ln W or a block U^T W U off it.  So W is evaluated one block
of rows at a time, |A[rows] psi|^2 with A = psi^T c~ for a pure state and
P[:, rows]^T (C P) for a density matrix, and every such number is summed
over the blocks as they come; the running minimum and maximum and the
summed mass feed the negativity and mass guards after the last block.
Blocks of 105 rows keep the largest temporary near 2 MB on the default
1201-point grid, where W itself is 11.5 MB.  tomogram_joint stacks the
same blocks into a whole W.

A QuadratureGrid is its half-width L and odd point count N alone: x_j =
h (j - (N - 1)/2) with h = 2L/(N - 1), so every grid has x[::-1] == -x bit
for bit, and psi_n(-x) = (-1)^n psi_n(x) holds bit for bit too
(hermite_psi_matrix computes half the grid and mirrors the rest).
A state of definite parity (c_nm zero on one parity of n + m, or rho zero
on every odd n + n' + m + m') then has W(-X1, -X2) = W(X1, X2) at every
phase pair.  The even and odd coherent states through a beamsplitter, and
their decohered rho(t), are such states: the beamsplitter keeps the total
photon number and both channels keep the parity sectors.  For them the
mass and entropy reductions evaluate rows 0 .. N//2 only, weighting each
row below the centre twice; the test reads exact zeros, so an amplitude
of 1e-9 in the other sector turns it off.  Stacked tomograms and moment
blocks keep every row.

Integrals use composite Simpson weights on that grid; the default
half-width is an energy-based support estimate from the highest occupied
level.  Values below 1e-300 are set to zero so downstream logarithms stay
finite.

Moment integrals weight the grid by U = hermite_weights, the N x (K+1)
matrix whose column s is the Simpson weights times the plain Hermite
polynomial H_s(X).  Orders are capped at K = 6 (moments.K_MAX_DEFAULT), and
the widest grid the catalog needs (half-width 146.5, the support of level
1e4) keeps |H_6| below 6.4e14, so no power of X can overflow and the
tomogram itself supplies the exp(-X^2) damping.  Every order pair's double
integral at one phase pair is an entry of the (K+1) x (K+1) block U^T W U
of the joint tomogram W, both modes on one grid, and _moment_blocks forms
those blocks for a whole phase set.

A pure state's block is the same Simpson-weighted sum reassociated, so W is
never formed: with G_s[n, n'] = sum_j U[j, s] psi_n(x_j) psi_n'(x_j),
T_s = c~^T G_s c~* is formed for every theta1 in one batched product and
each block is sum_{m,m'} T_s e^{-i(m-m') theta2} G_t, O(K d^3) per theta1
(_pure_moment_blocks).  Entry (0, 0) is the double integral of W and
carries the per-pair mass guard; the pure two-mode slice takes its mass
guard from the order-0 block, so that mass is formed one way.  G is a
quadrature of the tomogram, not a ladder-operator closed form, so the route
stays independent of the Fock oracle in moments.  A density matrix's block
is the sum of U[rows]^T W[rows] U over the row blocks of its joint
tomogram, so W is never held whole and the negativity guard still sees
every value of W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermvander

from .errors import GridTooNarrow, NegativeTomogram, ProjectionDefect
from .fock import (
    BUFFER_LEVELS,
    SingleModeState,
    TwoModeDensityMatrix,
    TwoModeState,
    hermite_psi_matrix,
)

DEFAULT_POINTS = 2001
DEFAULT_POINTS_TWO_MODE = 1201
NORMALIZATION_GUARD = 1e-6
CLAMP = 1e-300
# A contraction of rho may dip below zero by rounding only, relative to its maximum.
NEGATIVITY_GUARD = 1e-12
# density_eigenmodes drops eigenvalues below this, relative to the largest.
EIGENMODE_FLOOR = 1e-14
# max|Q - R P| may reach this by rounding only (|Q| <= 1/sqrt(pi)); measured
# at most 1.1e-14 for d up to 120, and near 0.1 with one Gauss-Hermite node short.
PROJECTION_GUARD = 1e-13
# (d, grid) pairs kept by the psi cache and by the certified-basis cache.  A
# basis entry holds P and R_full, about 0.6 MB at d = 23 on 1201 points.  Four
# hold every pair a beamsplitter sweep, a decoherence run or the audit reuses;
# the pure routes build no basis, so a state read only through them keeps psi
# alone (0.5 MB at d = 53).
_BASIS_CACHE_SIZE = 4

_CSV_CHUNK_ROWS = 256
# Rows per block of a joint tomogram, chosen to keep each block's temporaries
# near 2 MB: the pure route's [Re; Im] product over 2 x 105 rows of the
# default 1201-point grid is 2.0 MB, and the mixed route's block
# P[:, rows]^T (C P) is one 105 x N product, 1.0 MB.  The last block of a
# grid is shorter (46 rows at 1201 points, 6 at 2001).
_BLOCK_ROWS = 105

# theta sampling for plot-ready tomogram maps (the [0, pi] convention).
DEFAULT_THETAS = np.linspace(0.0, np.pi, 181)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid of `n_points` (odd, >= 3) on [-half_width, half_width] with composite Simpson weights.

    The grid is the value of its two numbers: equal numbers give equal
    grids that hash alike, which keys the (d, grid) caches.  x and the
    weights are derived from them once, read-only, and take no part in
    ==, hash or repr.
    """

    half_width: float
    n_points: int
    x: np.ndarray = field(init=False, compare=False, repr=False)
    weights: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.n_points
        if n < 3 or n % 2 == 0:
            raise ValueError("grid needs an odd number (>= 3) of points for Simpson weights")
        h = 2.0 * self.half_width / (n - 1)
        x = h * np.arange(-(n // 2), n // 2 + 1)
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
        x.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, half_width: float, n_points: int = DEFAULT_POINTS) -> "QuadratureGrid":
        """x_j = h (j - (N - 1)/2) with h = 2 half_width / (N - 1), so x[::-1] == -x bit for bit.

        An even n_points is raised to the next odd count.
        """
        return cls(half_width, n_points | 1)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integrate along the last axis."""
        return np.asarray(values) @ self.weights


def hermite_weights(grid: QuadratureGrid, max_order: int) -> np.ndarray:
    """U[j, s] = Simpson weight_j * H_s(x_j) for s = 0 .. max_order, shape (N, max_order + 1)."""
    return grid.weights[:, None] * hermvander(grid.x, max_order)


def support_half_width(top_level: int) -> float:
    """Energy-based estimate of the quadrature support for states up to `top_level`."""
    return float(np.sqrt(2.0 * (top_level + BUFFER_LEVELS)) + 5.0)


def default_grid(obj, n_points: int | None = None) -> QuadratureGrid:
    """Grid sized for a state or density matrix from its highest occupied level."""
    if n_points is None:
        n_points = DEFAULT_POINTS if isinstance(obj, SingleModeState) else DEFAULT_POINTS_TWO_MODE
    return QuadratureGrid.uniform(support_half_width(obj.top_occupied()), n_points)


@dataclass(frozen=True)
class Tomogram:
    """Sampled probability densities w[theta_i][x_j], one row per phase.

    Takes ownership of a float `values` array that owns its data (kept, made
    read-only); a view is copied.
    """

    thetas: np.ndarray
    values: np.ndarray
    grid: QuadratureGrid

    def __post_init__(self):
        th = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape != (th.size, self.grid.x.size):
            raise ValueError("values must have shape (n_theta, n_x)")
        th = th.copy()
        v = v if v.base is None else v.copy()
        th.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "values", v)

    def row(self, theta: float) -> np.ndarray:
        idx = np.nonzero(np.isclose(self.thetas, theta, rtol=0.0, atol=1e-12))[0]
        if idx.size == 0:
            raise KeyError(f"theta {theta!r} not sampled in this tomogram")
        return self.values[idx[0]]

    def normalization_defect(self) -> float:
        return float(np.max(np.abs(self.grid.integrate(self.values) - 1.0)))


@dataclass(frozen=True)
class TwoModeTomogram:
    """Joint density w(X1, X2) at one phase pair (theta1, theta2).

    Takes ownership of a float `values` array that owns its data (kept, made
    read-only); a view is copied.
    """

    theta1: float
    theta2: float
    values: np.ndarray
    grid1: QuadratureGrid
    grid2: QuadratureGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid1.x.size, self.grid2.x.size):
            raise ValueError("values must have shape (len(grid1.x), len(grid2.x))")
        v = v if v.base is None else v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def normalization_defect(self) -> float:
        total = self.grid1.weights @ self.values @ self.grid2.weights
        return float(abs(total - 1.0))


def _clamped(values: np.ndarray) -> np.ndarray:
    """`values`, a fresh array, with entries below CLAMP set to zero in place."""
    values[values < CLAMP] = 0.0
    return values


def _check_mass_defect(defect: float, what: str) -> None:
    """The normalization guard on |mass - 1|; `what` names the tomogram in the error."""
    if defect > NORMALIZATION_GUARD:
        raise GridTooNarrow(f"{what}: mass misses 1 by {defect:.3e}; enlarge the grid")


def _check_nonnegative(low, high, labels: list) -> None:
    """The negativity guard on each phase label's minimum and maximum value."""
    bad = np.nonzero(np.asarray(low) < -NEGATIVITY_GUARD * np.asarray(high))[0]
    if bad.size:
        where = "; ".join(f"phase {labels[i]}: min {low[i]:.3e}, max {high[i]:.3e}" for i in bad)
        raise NegativeTomogram(f"density matrix gives a negative tomogram ({where})")


def _psi_products(psis: np.ndarray) -> np.ndarray:
    """Q[p, j] = psi_n(x_j) psi_n'(x_j) over the pairs p = (n, n'), n <= n'; shape (d(d+1)/2, N)."""
    n, m = np.triu_indices(psis.shape[0])
    return psis[n] * psis[m]


@lru_cache(maxsize=64)
def _product_projection(d: int, nodes: int) -> np.ndarray:
    """R with psi_n psi_n' = sum_k R[(n, n'), k] psi_k(sqrt(2) X) over k <= 2d - 2, by a `nodes`-point rule.

    The P_k(X) = psi_k(sqrt(2) X) are orthogonal with squared norm
    1/sqrt(2), so R[(n, n'), k] = sqrt(2) int psi_n psi_n' P_k dX, which
    X = t/sqrt(2) turns into int psi_n(t/sqrt(2)) psi_n'(t/sqrt(2)) psi_k(t) dt:
    a polynomial of degree <= 4d - 4 times e^{-t^2}, integrated exactly by
    Gauss-Hermite with nodes >= 2d - 1.  Its weights times e^{t^2} are the
    Christoffel numbers 1 / sum_{k < nodes} psi_k(t)^2, formed without an
    exponential.  Rows are the pairs n <= n' of _psi_products.  The
    read-only result is cached, since it depends on d and nodes alone.
    """
    t = np.polynomial.hermite.hermgauss(nodes)[0]
    psi_t = hermite_psi_matrix(max(nodes, 2 * d - 1) - 1, t)
    christoffel = 1.0 / np.einsum("kj,kj->j", psi_t[:nodes], psi_t[:nodes])
    q = _psi_products(hermite_psi_matrix(d - 1, t / np.sqrt(2.0)))
    projection = (q * christoffel) @ psi_t[: 2 * d - 1].T
    projection.setflags(write=False)
    return projection


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _grid_psi(d: int, grid: QuadratureGrid) -> np.ndarray:
    """hermite_psi_matrix(d - 1, grid.x), read-only and cached per (d, grid), for the pure routes."""
    psis = hermite_psi_matrix(d - 1, grid.x)
    psis.setflags(write=False)
    return psis


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _product_basis(d: int, grid: QuadratureGrid):
    """(psi, P, R_full) for d levels on `grid`, read-only, certified once per (d, grid) and cached.

    psi is _grid_psi(d, grid), P_k = psi_k(sqrt(2) X) for k <= 2d - 2 on
    the grid, and R_full[n d + n', k] = R[(min, max), k] the projection of
    _product_projection spread over all d^2 pairs, so
    psi_n psi_n' = R_full[n d + n'] P.  Raises ProjectionDefect, naming d
    and N, when max|psi_n psi_n' - R P| exceeds PROJECTION_GUARD; a failed
    certificate is not cached.  The pairs (n, n' >= n) of each n are
    checked together, so no d(d+1)/2 x N temporary is formed.
    """
    psis = _grid_psi(d, grid)
    projection = _product_projection(d, 2 * d - 1)
    basis = hermite_psi_matrix(2 * d - 2, np.sqrt(2.0) * grid.x)
    defect, start = 0.0, 0
    for n in range(d):
        rows = slice(start, start + d - n)
        start = rows.stop
        diff = projection[rows] @ basis - psis[n] * psis[n:]
        defect = max(defect, float(np.abs(diff, out=diff).max()))
    if defect > PROJECTION_GUARD:
        raise ProjectionDefect(
            f"product basis misses psi_n psi_n' by {defect:.3e} > {PROJECTION_GUARD:.0e} "
            f"at d={d}, N={grid.n_points}"
        )
    n, m = np.triu_indices(d)
    pair = np.empty((d, d), dtype=np.intp)
    pair[n, m] = pair[m, n] = np.arange(n.size)
    full = projection[pair.ravel()]
    basis.setflags(write=False)
    full.setflags(write=False)
    return psis, basis, full


def _phase_matrix(dim: int, theta) -> np.ndarray:
    """e^{-i(n - n') theta} of shape (dim, dim), behind one leading axis per theta for an array."""
    n = np.arange(dim)
    return np.exp(-1j * np.multiply.outer(theta, n[:, None] - n[None, :]))


def tomogram_pure(state: SingleModeState, thetas, grid: QuadratureGrid | None = None) -> Tomogram:
    """Optical tomogram of a pure single-mode state at the given phases."""
    if grid is None:
        grid = default_grid(state)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    psis = hermite_psi_matrix(state.n_cut, grid.x)
    n = np.arange(state.n_cut + 1)
    phased = np.exp(-1j * np.outer(thetas, n)) * state.amplitudes
    tomo = Tomogram(thetas, _clamped(np.abs(phased @ psis) ** 2), grid)
    _check_mass_defect(tomo.normalization_defect(), f"per-theta tomogram on half-width {grid.half_width:.2f}")
    return tomo


@lru_cache(maxsize=64)
def _odd_mask(d: int, pairs: bool) -> np.ndarray:
    """Where n + m is odd over c[n, m], or with `pairs` where n + n' + m + m' is odd over rho as a (d^2, d^2) matrix.

    The mask is laid over the float64 view of the complex array, so every
    column is doubled (real and imaginary part); it is read-only and cached.
    """
    odd = np.arange(d) % 2 == 1
    if pairs:
        odd = (odd[:, None] ^ odd).ravel()
    mask = np.repeat(odd[:, None] ^ odd, 2, axis=1)
    mask.setflags(write=False)
    return mask


def _definite_parity(obj) -> bool:
    """Whether W(-X1, -X2) = W(X1, X2) at every phase pair, read off exact zeros.

    psi_n(-X) = (-1)^n psi_n(X), so it holds when a pure state's c_nm
    vanishes on every odd n + m or on every even one, or when a density
    matrix's rho[n, n', m, m'] vanishes on every odd n + n' + m + m'.
    """
    d = obj.n_cut + 1
    if isinstance(obj, TwoModeState):
        parts, odd = obj.amplitudes.view(np.float64), _odd_mask(d, False)
        return not np.logical_and(parts, odd).any() or not np.logical_and(parts, ~odd).any()
    parts = obj.entries.reshape(d * d, d * d).view(np.float64)
    return not np.logical_and(parts, _odd_mask(d, True)).any()


def _joint_blocks(obj, theta1: float, theta2: float, grid: QuadratureGrid, fold: bool = False):
    """Yield (rows, row weights, W[rows], mass share) over the row blocks of the joint tomogram at (theta1, theta2).

    A pure state's block is |A[rows] psi|^2 with A = psi^T c~, through one
    real matrix product of [Re A[rows]; Im A[rows]]; a density matrix's is
    P[:, rows]^T (C P) with C = Re(B1^T rho B2) in the certified product
    basis (see the module docstring).  Each block is clamped before it is
    yielded, with its rows' quadrature weights and its share
    (row weights) W[rows] w of the mass.  After the last block the
    negativity guard (on the running minimum and maximum) and the mass guard
    (on the summed shares) raise, naming the phase pair, so a caller that
    reduces every block never returns a sum that failed them.

    With `fold`, a state of definite parity (_definite_parity) has
    W(-X1, -X2) = W(X1, X2), and every grid mirrors bit for bit, so only
    rows 0 .. N//2 are evaluated: each row below the centre stands for
    itself and its mirror with weight 2 w_i, the centre row keeps w_c.
    A caller that folds must weight rows by the yielded row weights, and
    every full-weight sum over the blocks is then the sum over all N rows.
    """
    d = obj.n_cut + 1
    if isinstance(obj, TwoModeState):
        psis = _grid_psi(d, grid)
        n = np.arange(d)
        phased = obj.amplitudes * np.exp(-1j * theta1 * n)[:, None] * np.exp(-1j * theta2 * n)[None, :]
        amp = psis.T @ phased

        def block(rows):
            parts = np.concatenate([amp.real[rows], amp.imag[rows]]) @ psis
            real_sq, imag_sq = np.split(np.square(parts, out=parts), 2)
            return real_sq + imag_sq

    else:
        _, basis, full = _product_basis(d, grid)
        b1, b2 = (_phase_matrix(d, theta).reshape(d * d, 1) * full for theta in (theta1, theta2))
        right = (b1.T @ obj.entries.reshape(d * d, d * d) @ b2).real @ basis

        def block(rows):
            return basis[:, rows].T @ right

    w = grid.weights
    row_weights, stop = w, w.size
    if fold and _definite_parity(obj):
        stop = w.size // 2 + 1
        row_weights = 2.0 * w[:stop]
        row_weights[-1] = w[stop - 1]
    low, high, mass = np.inf, -np.inf, 0.0
    for start in range(0, stop, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, stop))
        values = block(rows)
        low, high = min(low, values.min()), max(high, values.max())
        values = _clamped(values)
        share = row_weights[rows] @ values @ w
        mass += share
        yield rows, row_weights[rows], values, share
    where = f"({theta1:.6g}, {theta2:.6g})"
    _check_nonnegative([low], [high], [where])
    _check_mass_defect(abs(mass - 1.0), f"two-mode tomogram at {where}")


def _pure_moment_blocks(state: TwoModeState, thetas1, thetas2, psis, grid: QuadratureGrid, max_order: int):
    """The blocks U^T W U of a pure state at every (theta1, theta2), contracted without forming W.

    Shape (T1, T2, max_order + 1, max_order + 1).  With `psis` the psi_n
    matrix on `grid` and G_s = psi diag(U[:, s]) psi^T, T_s = c~^T G_s c~*
    (c~ phased by theta1 along mode a) is formed for every theta1 in one
    batched product, and the block at (theta1, theta2) is
    sum_{m,m'} T_s e^{-i(m-m') theta2} G_t, for every theta1 at once per
    theta2, so no T1 x T2 x (max_order + 1) x d^2 temporary is formed.
    Entry (0, 0) is the double integral of W, checked by the mass guard at
    every phase pair.
    """
    g = (psis * hermite_weights(grid, max_order).T[:, None, :]) @ psis.T
    size, d = g.shape[0], psis.shape[0]
    thetas1 = np.atleast_1d(np.asarray(thetas1, dtype=float))
    thetas2 = np.atleast_1d(np.asarray(thetas2, dtype=float))
    phased = state.amplitudes * np.exp(-1j * np.outer(thetas1, np.arange(d)))[:, :, None]
    t = (phased.swapaxes(1, 2)[:, None] @ g @ phased.conj()[:, None]).reshape(thetas1.size, size, d * d)
    g_flat = g.reshape(size, d * d).T
    blocks = np.stack([((t * phase.ravel()) @ g_flat).real for phase in _phase_matrix(d, thetas2)], axis=1)
    for (i, j), mass in np.ndenumerate(blocks[:, :, 0, 0]):
        _check_mass_defect(abs(mass - 1.0), f"two-mode tomogram at ({thetas1[i]:.6g}, {thetas2[j]:.6g})")
    return blocks


def _moment_blocks(obj, phases, grid: QuadratureGrid | None, max_order: int) -> np.ndarray:
    """The blocks U^T W U at every phase pair of `phases` (both modes), shape (T, T, max_order + 1, max_order + 1).

    Block (i, j) holds every order pair's double integral of the joint
    tomogram at (phases[i], phases[j]), both modes on `grid` (defaulted from
    `obj`): contracted from the amplitudes for a pure state, summed as
    U[rows]^T W[rows] U over the row blocks of each joint tomogram for a
    density matrix, so W is never held whole and the negativity guard still
    sees every value of W.
    """
    if grid is None:
        grid = default_grid(obj)
    if isinstance(obj, TwoModeState):
        return _pure_moment_blocks(obj, phases, phases, _grid_psi(obj.n_cut + 1, grid), grid, max_order)
    u = hermite_weights(grid, max_order)
    return np.array(
        [
            [sum(u[rows].T @ w @ u for rows, _, w, _ in _joint_blocks(obj, th1, th2, grid)) for th2 in phases]
            for th1 in phases
        ]
    )


def tomogram_joint(obj, theta1: float, theta2: float, grid: QuadratureGrid | None = None) -> TwoModeTomogram:
    """Joint tomogram of a pure two-mode state or a density matrix at one phase pair, both modes on `grid`.

    The row blocks of _joint_blocks, stacked.  For a density matrix they
    are P^T C P with C = Re(B1^T rho B2) in the product basis (see the
    module docstring), and NegativeTomogram, naming the phase pair, is
    raised when rho is not positive enough for the values to stay above
    -1e-12 times their maximum.
    """
    if grid is None:
        grid = default_grid(obj)
    values = np.concatenate([block for _, _, block, _ in _joint_blocks(obj, theta1, theta2, grid)])
    return TwoModeTomogram(theta1, theta2, values, grid, grid)


# The two typed builders stay functions of their own: perfbench/tracer.py traces each as a layer.
def tomogram_two_mode_pure(
    state: TwoModeState, theta1: float, theta2: float, grid: QuadratureGrid | None = None
) -> TwoModeTomogram:
    """Joint tomogram of a pure two-mode state at one phase pair, both modes on `grid` (tomogram_joint)."""
    return tomogram_joint(state, theta1, theta2, grid)


def tomogram_mixed(
    rho: TwoModeDensityMatrix, theta1: float, theta2: float, grid: QuadratureGrid | None = None
) -> TwoModeTomogram:
    """Joint tomogram of a two-mode density matrix at one phase pair, both modes on `grid` (tomogram_joint)."""
    return tomogram_joint(rho, theta1, theta2, grid)


def _two_mode_pure_slice(state: TwoModeState, thetas1, theta2: float, x2: float, grid: QuadratureGrid):
    """Rows W(X1, x2) of the joint tomograms at (theta1, theta2), one per theta1; shape (T, N).

    x2 is moved to its nearest grid point x2_j.  Each row is
    |psi^T (c~ psi(x2_j))|^2, so no joint tomogram is formed.  The mass guard
    of each phase pair stays exact: the double integral of W is entry (0, 0)
    of its order-0 pure moment block (_pure_moment_blocks).
    """
    psis = _grid_psi(state.n_cut + 1, grid)
    thetas1 = np.atleast_1d(np.asarray(thetas1, dtype=float))
    _pure_moment_blocks(state, thetas1, [theta2], psis, grid, 0)
    n = np.arange(psis.shape[0])
    phase1 = np.exp(-1j * np.outer(thetas1, n))
    c2 = state.amplitudes * np.exp(-1j * theta2 * n)
    j = int(np.argmin(np.abs(grid.x - x2)))
    return _clamped(np.abs((phase1 * (c2 @ psis[:, j])) @ psis) ** 2)


def density_eigenmodes(rho: TwoModeDensityMatrix):
    """Spectral decomposition of rho as (weights, list of c_{nm} matrices).

    The reference the direct contraction of tomogram_mixed is tested
    against: sum_k weights[k] |amplitude of mode k|^2 is the same tomogram.
    Eigenvalues below EIGENMODE_FLOOR (relative to the largest) are dropped;
    small negative eigenvalues from rounding are rejected if they exceed 1e-10.
    """
    mat = rho.as_matrix()
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {vals.min():.3e}")
    keep = vals > EIGENMODE_FLOOR * max(vals.max(), 1.0)
    d = rho.dim
    modes = [vecs[:, i].reshape(d, d) for i in np.nonzero(keep)[0]]
    return vals[keep], modes


def tomogram_reduced(obj, mode: str, thetas, grid: QuadratureGrid | None = None) -> Tomogram:
    """Tomogram of mode 'a' or 'b' of a two-mode state or density matrix.

    Each row is Re(rho~_a) R_full P, with rho_a the reduced density matrix
    of the kept mode, formed for each phase on its own (see the module
    docstring); it equals the marginal of any joint tomogram at that mode's
    phase.  Raises NegativeTomogram naming the offending phases, and
    GridTooNarrow as tomogram_pure does.
    """
    if mode not in ("a", "b"):
        raise ValueError("two-mode input needs mode='a' or mode='b'")
    if grid is None:
        grid = default_grid(obj)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if isinstance(obj, TwoModeState):
        c = obj.amplitudes if mode == "a" else obj.amplitudes.T
        reduced = c @ c.conj().T
    else:
        reduced = np.einsum("nNmm->nN" if mode == "a" else "nnmM->mM", obj.entries)
    d = reduced.shape[0]
    _, basis, full = _product_basis(d, grid)
    phased = (reduced * _phase_matrix(d, thetas)).real.reshape(thetas.size, d * d)
    # One product per row: a batched (T, d^2) product rounds differently for T = 1 and T > 1.
    values = np.stack([row @ full @ basis for row in phased])
    _check_nonnegative(values.min(axis=1), values.max(axis=1), [f"{th:.6g}" for th in thetas])
    tomo = Tomogram(thetas, _clamped(values), grid)
    _check_mass_defect(tomo.normalization_defect(), f"reduced-mode tomogram on half-width {grid.half_width:.2f}")
    return tomo


def marginal(tomo: TwoModeTomogram, keep: str = "a") -> Tomogram:
    """Integrate one mode out of a joint tomogram.

    Returns the kept mode's distribution as a one-row Tomogram at its phase.
    The result is independent of the integrated-out phase; tests verify that
    by recomputation at a second value.
    """
    if keep == "a":
        vals = tomo.values @ tomo.grid2.weights
        return Tomogram([tomo.theta1], vals[None, :], tomo.grid1)
    if keep == "b":
        vals = tomo.grid1.weights @ tomo.values
        return Tomogram([tomo.theta2], vals[None, :], tomo.grid2)
    raise ValueError("keep must be 'a' or 'b'")


@dataclass(frozen=True)
class PiShiftReport:
    pairs_checked: int
    max_deviation: float


def check_pi_shift(tomo: Tomogram) -> PiShiftReport:
    """Verify w(X, theta + pi) = w(-X, theta), read off the grid's x[::-1] == -x."""
    # hits[i, j]: theta_j matches theta_i + pi; each row i is paired with its first match.
    hits = np.isclose(tomo.thetas, (tomo.thetas + np.pi)[:, None], rtol=0.0, atol=1e-10)
    rows = np.nonzero(hits.any(axis=1))[0]
    if rows.size == 0:
        raise ValueError("tomogram holds no (theta, theta + pi) pairs to compare")
    shifted = tomo.values[hits[rows].argmax(axis=1)]
    worst = float(np.max(np.abs(shifted - tomo.values[rows, ::-1])))
    return PiShiftReport(int(rows.size), worst)


def _mirrored(table: np.ndarray) -> bool:
    """Whether table[::-1] equals `table` bit for bit, so -0.0 and 0.0 (or two NaNs) never match."""
    bits = table.view(np.uint64)
    return bool(np.array_equal(bits[::-1], bits))


def _write_rows(fh, x, table) -> None:
    """Write CSV rows x[j], table[j, 0], table[j, 1], ..., every value formatted as f"{v:.17g}".

    Rows go out _CSV_CHUNK_ROWS at a time, so the Python floats of a large
    map (10 MB for 181 x 2001) never all exist at once.  A table that
    mirrors bit for bit (_mirrored), as the map of a definite-parity state
    does on a grid with x[::-1] == -x, has its first n - n//2 rows formatted
    and kept: each later row j is x[j]'s text plus that of row n - 1 - j.
    """
    x_text = ["%.17g" % v for v in np.asarray(x, dtype=float).tolist()]
    table = np.asarray(table, dtype=float)
    fmt = ",%.17g" * table.shape[1] + "\n"
    n = len(x_text)
    half = n - n // 2 if _mirrored(table) else n
    kept = []
    for start in range(0, half, _CSV_CHUNK_ROWS):
        text = [fmt % tuple(row) for row in table[start : min(start + _CSV_CHUNK_ROWS, half)].tolist()]
        fh.writelines(map(str.__add__, x_text[start : start + len(text)], text))
        if half < n:
            kept.extend(text)
    fh.writelines(x_text[j] + kept[n - 1 - j] for j in range(half, n))


def tomogram_to_csv(tomo: Tomogram, path, comment: str | None = None) -> None:
    """Write a tomogram as CSV: first column X, one column per theta."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        headers = ",".join(f"theta={th:.17g}" for th in tomo.thetas)
        fh.write(f"X,{headers}\n")
        _write_rows(fh, tomo.grid.x, tomo.values.T)


def two_mode_tomogram_to_csv(tomo: TwoModeTomogram, path, comment: str | None = None) -> None:
    """Write one (theta1, theta2) slice as CSV: first column X1, one column per X2."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(f"# theta1={tomo.theta1:.17g}, theta2={tomo.theta2:.17g}\n")
        headers = ",".join(f"X2={x:.17g}" for x in tomo.grid2.x)
        fh.write(f"X1,{headers}\n")
        _write_rows(fh, tomo.grid1.x, tomo.values)
