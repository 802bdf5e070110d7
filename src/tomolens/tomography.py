"""Optical tomograms on quadrature grids.

The single-mode tomogram of a pure state is evaluated as
w(X, theta) = |sum_n c_n e^{-i n theta} psi_n(X)|^2, which is the textbook
Hermite-polynomial form with the Gaussian and factorial factors absorbed
into the normalized eigenfunctions psi_n, so nothing overflows at large n.
Two-mode tomograms of pure states factor the same way, so a slice at fixed
X2 needs only psi(X2), not the whole joint tomogram.

Every other tomogram depends only on a density matrix and is a contraction
of it.  The products psi_n(X) psi_n'(X) do not depend on the phase and are
symmetric in (n, n'), so Q holds one row per pair n <= n': a d(d+1)/2 x N
matrix.  Both modes of a joint tomogram share one grid, and the joint
tomogram of rho[n, n', m, m'] is Q^T F Q, where rho~ is
rho times e^{-i(n-n') theta1 - i(m-m') theta2} and F is Re(rho~) folded onto
those pairs in both modes: entries (n, n') and (n', n) are summed into one
for n != n'.  The imaginary part cancels because rho is Hermitian.  A
reduced-mode row is the folded Re(rho~_a) times Q, with rho_a = Tr_b rho,
formed as c c^dag for a pure state.  A physical rho gives non-negative
values up to rounding; a contraction dipping below -1e-12 times its maximum
raises NegativeTomogram, and the rounding-level rest is set to zero.

No caller keeps a joint tomogram W: each reads a mass, the entropy
-sum w_i w_j W ln W or a block U^T W U off it.  So W is evaluated one block
of rows at a time, |A[rows] psi|^2 with A = psi^T c~ for a pure state and
(Q^T F^T)[rows] Q for a density matrix, and every such number is summed
over the blocks as they come; the running minimum and maximum and the
summed mass feed the negativity and mass guards after the last block.
Blocks of 105 rows keep the largest temporary near 2 MB on the default
1201-point grid, where W itself is 11.5 MB.  The full-array builders stack
the same blocks.

Integrals use composite Simpson weights on a uniform, symmetric grid; the
default half-width is an energy-based support estimate from the highest
occupied level.  Values below 1e-300 are set to zero so downstream
logarithms stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooNarrow, NegativeTomogram
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

_CSV_CHUNK_ROWS = 256
# Rows per block of a joint tomogram: the pure route's [Re; Im] product over
# 2 x 105 rows of the default 1201-point grid is 2.0 MB.  Odd, so grids (odd
# by construction) can hold a whole number of blocks.
_BLOCK_ROWS = 105

# theta sampling for plot-ready tomogram maps (the [0, pi] convention).
DEFAULT_THETAS = np.linspace(0.0, np.pi, 181)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform symmetric grid with composite Simpson weights for integrals over X."""

    x: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if x.ndim != 1 or x.size < 3 or x.size % 2 == 0:
            raise ValueError("grid needs an odd number (>= 3) of points for Simpson weights")
        x = x.copy()
        w = w.copy()
        x.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, half_width: float, n_points: int = DEFAULT_POINTS) -> "QuadratureGrid":
        if n_points % 2 == 0:
            n_points += 1
        x = np.linspace(-half_width, half_width, n_points)
        h = x[1] - x[0]
        w = np.ones(n_points)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return cls(x, w * (h / 3.0))

    @property
    def half_width(self) -> float:
        return float(self.x[-1])

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integrate along the last axis."""
        return np.asarray(values) @ self.weights

    def is_symmetric(self) -> bool:
        return bool(np.allclose(self.x, -self.x[::-1], atol=1e-12))


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
    """Sampled probability densities w[theta_i][x_j], one row per phase."""

    thetas: np.ndarray
    values: np.ndarray
    grid: QuadratureGrid

    def __post_init__(self):
        th = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape != (th.size, self.grid.x.size):
            raise ValueError("values must have shape (n_theta, n_x)")
        th = th.copy()
        v = v.copy()
        th.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "values", v)

    def row(self, theta: float) -> np.ndarray:
        idx = np.nonzero(np.isclose(self.thetas, theta, atol=1e-12))[0]
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


def _checked_mass(tomo, what: str):
    """`tomo` after the normalization guard."""
    _check_mass_defect(tomo.normalization_defect(), what)
    return tomo


def _joint_grid(obj, grid):
    """The grid both modes share (defaulted from `obj`) and its psi_n matrix."""
    if grid is None:
        grid = default_grid(obj)
    return grid, hermite_psi_matrix(obj.n_cut, grid.x)


def _check_nonnegative(low, high, labels: list) -> None:
    """The negativity guard on each phase label's minimum and maximum value."""
    bad = np.nonzero(np.asarray(low) < -NEGATIVITY_GUARD * np.asarray(high))[0]
    if bad.size:
        where = "; ".join(f"phase {labels[i]}: min {low[i]:.3e}, max {high[i]:.3e}" for i in bad)
        raise NegativeTomogram(f"density matrix gives a negative tomogram ({where})")


def _nonnegative(values: np.ndarray, labels: list) -> np.ndarray:
    """Clamped values after the negativity guard; one block of values per phase label."""
    blocks = values.reshape(len(labels), -1)
    _check_nonnegative(blocks.min(axis=1), blocks.max(axis=1), labels)
    return _clamped(values)


def _psi_products(psis: np.ndarray) -> np.ndarray:
    """Q[p, j] = psi_n(x_j) psi_n'(x_j) over the pairs p = (n, n'), n <= n'; shape (d(d+1)/2, N)."""
    n, m = np.triu_indices(psis.shape[0])
    return psis[n] * psis[m]


def _folded(re_rho: np.ndarray, d: int) -> np.ndarray:
    """The last axis of `re_rho`, indexed n d + n', summed onto the pairs n <= n' of _psi_products.

    Entry (n, n') + entry (n', n) for n < n', the diagonal once (halving the
    doubled diagonal is exact).
    """
    n, m = np.triu_indices(d)
    pairs = re_rho.take(n * d + m, axis=-1) + re_rho.take(m * d + n, axis=-1)
    return pairs * np.where(n == m, 0.5, 1.0)


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
    values = _clamped(np.abs(phased @ psis) ** 2)
    tomo = Tomogram(thetas, values, grid)
    return _checked_mass(tomo, f"per-theta tomogram on half-width {grid.half_width:.2f}")


def _joint_blocks(obj, theta1: float, theta2: float, grid: QuadratureGrid):
    """Yield (rows, W[rows]) over the row blocks of the joint tomogram at (theta1, theta2).

    A pure state's block is |A[rows] psi|^2 with A = psi^T c~, through one
    real matrix product of [Re A[rows]; Im A[rows]]; a density matrix's is
    (Q^T F^T)[rows] Q with the folded F formed once (see the module
    docstring).  Each block is clamped before it is yielded.  After the last
    block the negativity guard (on the running minimum and maximum) and the
    mass guard (on the summed mass) raise, naming the phase pair, so a
    caller that reduces every block never returns a sum that failed them.
    """
    psis = hermite_psi_matrix(obj.n_cut, grid.x)
    d = psis.shape[0]
    if isinstance(obj, TwoModeState):
        n = np.arange(d)
        phased = obj.amplitudes * np.exp(-1j * theta1 * n)[:, None] * np.exp(-1j * theta2 * n)[None, :]
        amp = psis.T @ phased

        def block(rows):
            parts = np.concatenate([amp.real[rows], amp.imag[rows]]) @ psis
            real_sq, imag_sq = np.split(np.square(parts, out=parts), 2)
            return real_sq + imag_sq

    else:
        q = _psi_products(psis)
        phased = obj.entries * _phase_matrix(d, theta1)[:, :, None, None] * _phase_matrix(d, theta2)
        # Folding (m, m'), then (n, n') after a transpose, leaves F indexed [(m, m'), (n, n')].
        folded = _folded(_folded(phased.real.reshape(d * d, d * d), d).T, d)

        def block(rows):
            return q[:, rows].T @ folded.T @ q

    low, high, mass = np.inf, -np.inf, 0.0
    for start in range(0, grid.x.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        values = block(rows)
        low, high = min(low, values.min()), max(high, values.max())
        values = _clamped(values)
        mass += grid.weights[rows] @ values @ grid.weights
        yield rows, values
    where = f"({theta1:.6g}, {theta2:.6g})"
    _check_nonnegative([low], [high], [where])
    _check_mass_defect(abs(mass - 1.0), f"two-mode tomogram at {where}")


def _stacked(obj, theta1: float, theta2: float, grid) -> TwoModeTomogram:
    """The joint tomogram at one phase pair with its row blocks stacked, both modes on `grid`."""
    if grid is None:
        grid = default_grid(obj)
    values = np.concatenate([block for _, block in _joint_blocks(obj, theta1, theta2, grid)])
    return TwoModeTomogram(theta1, theta2, values, grid, grid)


def tomogram_two_mode_pure(
    state: TwoModeState, theta1: float, theta2: float, grid: QuadratureGrid | None = None
) -> TwoModeTomogram:
    """Joint tomogram of a pure two-mode state at one phase pair, both modes on `grid`."""
    return _stacked(state, theta1, theta2, grid)


def _two_mode_pure_slice(state: TwoModeState, thetas1, theta2: float, x2: float, grid: QuadratureGrid):
    """Rows W(X1, x2) of the joint tomograms at (theta1, theta2), one per theta1; shape (T, N).

    x2 is moved to its nearest grid point x2_j.  Each row is
    |psi^T (c~ psi(x2_j))|^2, so no joint tomogram is formed.  The mass guard
    of each phase pair stays exact: the double integral of W is
    Tr(c~^dag M c~ M) with M = psi diag(weights) psi^T.
    """
    grid, psis = _joint_grid(state, grid)
    thetas1 = np.atleast_1d(np.asarray(thetas1, dtype=float))
    n = np.arange(psis.shape[0])
    phase1 = np.exp(-1j * np.outer(thetas1, n))
    c2 = state.amplitudes * np.exp(-1j * theta2 * n)
    gram = (psis * grid.weights) @ psis.T
    phased = phase1[:, :, None] * c2
    masses = np.einsum("tnm,tnm->t", phased.conj(), gram @ phased @ gram).real
    for th1, mass in zip(thetas1, masses):
        _check_mass_defect(abs(mass - 1.0), f"two-mode tomogram at ({th1:.6g}, {theta2:.6g})")
    j = int(np.argmin(np.abs(grid.x - x2)))
    return _clamped(np.abs((phase1 * (c2 @ psis[:, j])) @ psis) ** 2)


def density_eigenmodes(rho: TwoModeDensityMatrix, floor: float = 1e-14):
    """Spectral decomposition of rho as (weights, list of c_{nm} matrices).

    The reference the direct contraction of tomogram_mixed is tested
    against: sum_k weights[k] |amplitude of mode k|^2 is the same tomogram.
    Eigenvalues below `floor` (relative to the largest) are dropped; small
    negative eigenvalues from rounding are rejected if they exceed 1e-10.
    """
    mat = rho.as_matrix()
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {vals.min():.3e}")
    keep = vals > floor * max(vals.max(), 1.0)
    d = rho.dim
    modes = [vecs[:, i].reshape(d, d) for i in np.nonzero(keep)[0]]
    return vals[keep], modes


def tomogram_mixed(
    rho: TwoModeDensityMatrix, theta1: float, theta2: float, grid: QuadratureGrid | None = None
) -> TwoModeTomogram:
    """Joint tomogram of a two-mode density matrix at one phase pair, both modes on `grid`.

    Q^T F Q with F the folded Re(rho~) (see the module docstring).
    Raises NegativeTomogram, naming the phase pair, when rho is not positive
    enough for the values to stay above -1e-12 times their maximum.
    """
    return _stacked(rho, theta1, theta2, grid)


def tomogram_joint(obj, theta1, theta2, grid=None) -> TwoModeTomogram:
    """Dispatch to the pure or mixed two-mode evaluation, both modes on `grid`."""
    if isinstance(obj, TwoModeState):
        return tomogram_two_mode_pure(obj, theta1, theta2, grid)
    return tomogram_mixed(obj, theta1, theta2, grid)


def tomogram_reduced(obj, mode: str, thetas, grid: QuadratureGrid | None = None) -> Tomogram:
    """Tomogram of mode 'a' or 'b' of a two-mode state or density matrix.

    Each row is the folded Re(rho~_a) times Q, with rho_a the reduced
    density matrix of the kept mode (see the module docstring); it equals
    the marginal of any joint tomogram at that mode's phase.  Raises NegativeTomogram naming the
    offending phases, and GridTooNarrow as tomogram_pure does.
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
    folded = _folded((reduced * _phase_matrix(d, thetas)).real.reshape(thetas.size, d * d), d)
    values = folded @ _psi_products(hermite_psi_matrix(obj.n_cut, grid.x))
    tomo = Tomogram(thetas, _nonnegative(values, [f"{th:.6g}" for th in thetas]), grid)
    return _checked_mass(tomo, f"reduced-mode tomogram on half-width {grid.half_width:.2f}")


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
    """Verify w(X, theta + pi) = w(-X, theta) on an X-symmetric grid."""
    if not tomo.grid.is_symmetric():
        raise ValueError("pi-shift check requires an X-symmetric grid")
    worst = 0.0
    pairs = 0
    for i, th in enumerate(tomo.thetas):
        match = np.nonzero(np.isclose(tomo.thetas, th + np.pi, atol=1e-10))[0]
        if match.size == 0:
            continue
        pairs += 1
        shifted = tomo.values[match[0]]
        mirrored = tomo.values[i][::-1]
        worst = max(worst, float(np.max(np.abs(shifted - mirrored))))
    if pairs == 0:
        raise ValueError("tomogram holds no (theta, theta + pi) pairs to compare")
    return PiShiftReport(pairs, worst)


def _write_rows(fh, *columns) -> None:
    """Write the columns side by side as CSV rows, every value formatted as f"{v:.17g}".

    Rows go out _CSV_CHUNK_ROWS at a time, so the Python floats of a large
    map (10 MB for 181 x 2001) never all exist at once.
    """
    table = np.column_stack(columns)
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), _CSV_CHUNK_ROWS):
        fh.writelines(fmt % tuple(row) for row in table[start : start + _CSV_CHUNK_ROWS].tolist())


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
