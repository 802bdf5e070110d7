"""Normal-ordered moments <a^dag^k a^l> from tomograms, with a Fock-space oracle.

A table of order K samples one shared set of K+1 phases
theta_m = m pi/(K+1), integrates each distribution against the Hermite
polynomials H_s, s <= K, and extracts every (k, l) with k + l <= K from the
H_{k+l} integrals by the roots-of-unity phase weights exp(-i(k-l) theta_m)
and the combinatorial constant C_kl = k! l! / ((K+1) (k+l)! sqrt(2^{k+l})).
One phase set serves every order: <H_s(X_theta)> is a sum of
exp(i(k-l) theta) terms with k + l = s, two such frequencies differ by
2(k'-k) with 0 < |k'-k| <= s <= K, and sum_m exp(2 i pi (k'-k) m/(K+1))
vanishes for each such difference.  The two-mode extraction is the double
sum over the same phase set for both modes; it reduces to the single-mode
formula when one mode's indices vanish and is validated against the oracle
for every catalog state before any other module relies on it.

The oracle route applies ladder operators directly in the truncated basis:
<a^dag^k a^l> = <a^k psi | a^l psi> for pure states and Tr(a^dag^k a^l rho)
for density matrices, touching only annihilation so nothing spills the
truncation buffer.

H_s inside the integrals is the plain Hermite polynomial.  Orders are capped
at K_MAX_DEFAULT = 6, and the widest grid the catalog needs (half-width 146.5,
the support of level 1e4) keeps |H_6| below 6.4e14, so no power of X can
overflow and the tomogram itself supplies the exp(-X^2) damping.  With U the
N x (K+1) matrix whose column s is the Simpson weights times H_s(X), every
order's integral at one phase is an entry of `rows @ U`, and every order
pair's double integral at one phase pair is an entry of the (K+1) x (K+1)
block U^T W U of the joint tomogram W, both modes on one grid.  The table
builders evaluate each phase (or each of the (K+1)^2 phase pairs) once and
assemble every index from the rows or blocks.

A pure state's block is the same Simpson-weighted sum reassociated, so W is
never formed: with G_s[n, n'] = sum_j U[j, s] psi_n(x_j) psi_n'(x_j), built
once per table from the sampled eigenfunctions, T_s = c~^T G_s c~* is formed
once per theta1 and each block is sum_{m,m'} T_s e^{-i(m-m') theta2} G_t,
O(K d^3) per theta1.  Entry (0, 0) is the double integral of W and carries
the per-pair mass guard.  G is a quadrature of the tomogram, not a
ladder-operator closed form, so the route stays independent of the oracle.
A density matrix's block is the sum of U[rows]^T W[rows] U over the row
blocks of its joint tomogram, so W is never held whole and the negativity
guard still sees every value of W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermvander

from .errors import MissingOrder, OrderTooHigh
from .fock import (
    SingleModeState,
    TwoModeState,
    annihilation_matrix,
    apply_annihilation,
    hermite_psi_matrix,
    inner,
    ln_factorial,
)
from .tomography import (
    QuadratureGrid,
    _check_mass_defect,
    _joint_blocks,
    _phase_matrix,
    default_grid,
    tomogram_joint,  # not called here; perfbench/tests/test_tracer.py rebinds this name
    tomogram_pure,
    tomogram_reduced,
)

K_MAX_DEFAULT = 6

SOURCE_TOMOGRAM = "tomogram"
SOURCE_FOCK_ORACLE = "fock-oracle"


def extraction_constant(k: int, l: int, n_phases: int) -> float:
    """C_kl = k! l! / (n_phases (k+l)! sqrt(2^{k+l})).

    The 1/n_phases factor averages over the phase set: n_phases = K+1 for
    every entry of a table of order K.
    """
    return float(
        np.exp(
            ln_factorial(k) + ln_factorial(l) - ln_factorial(k + l) - np.log(n_phases)
            - 0.5 * (k + l) * np.log(2.0)
        )
    )


def extraction_phases(max_order: int) -> np.ndarray:
    """The max_order+1 tomogram phases m pi/(max_order+1) shared by every order up to max_order."""
    return np.arange(max_order + 1) * np.pi / (max_order + 1)


def hermite_weights(grid: QuadratureGrid, max_order: int) -> np.ndarray:
    """U[j, s] = Simpson weight_j * H_s(x_j) for s = 0 .. max_order, shape (N, max_order + 1)."""
    return grid.weights[:, None] * hermvander(grid.x, max_order)


def _phase_weights(k: int, l: int, phases: np.ndarray) -> np.ndarray:
    """C_kl exp(-i(k-l) theta_m): the roots-of-unity weights of one extraction."""
    return extraction_constant(k, l, phases.size) * np.exp(-1j * (k - l) * phases)


def _check_order(k: int, l: int) -> None:
    if k < 0 or l < 0:
        raise ValueError("moment indices must be non-negative")
    if k + l > K_MAX_DEFAULT:
        raise OrderTooHigh(f"moment order {k + l} exceeds K_max = {K_MAX_DEFAULT}")


def _check_source(source: str) -> None:
    if source not in (SOURCE_TOMOGRAM, SOURCE_FOCK_ORACLE):
        raise ValueError(
            f"unknown moment source {source!r}; expected {SOURCE_TOMOGRAM!r} or {SOURCE_FOCK_ORACLE!r}"
        )


def _indices(max_order: int) -> list:
    """Every (k, l) with k + l <= max_order."""
    return [(k, order - k) for order in range(max_order + 1) for k in range(order + 1)]


def single_mode_rows(obj, phases, grid: QuadratureGrid | None = None, mode: str | None = None):
    """Tomogram rows at the given phases for a state or a reduced mode, with their grid.

    `obj` is a SingleModeState, or a two-mode state / density matrix with
    `mode` ('a' or 'b') selecting the reduced mode (tomogram_reduced).
    """
    if isinstance(obj, SingleModeState):
        tomo = tomogram_pure(obj, phases, grid)
    else:
        tomo = tomogram_reduced(obj, mode, phases, grid)
    return tomo.values, tomo.grid


def _single_mode_entries(obj, phases: np.ndarray, max_order: int, grid, mode) -> dict:
    """Every (k, l) with k + l <= max_order, all extracted from the rows at the one phase set."""
    rows, grid = single_mode_rows(obj, phases, grid, mode)
    integrals = rows @ hermite_weights(grid, max_order)
    return {
        (k, l): complex(_phase_weights(k, l, phases) @ integrals[:, k + l])
        for k, l in _indices(max_order)
    }


def _hermite_products(n_cut: int, grid: QuadratureGrid, max_order: int) -> np.ndarray:
    """G[s, n, n'] = sum_j U[j, s] psi_n(x_j) psi_n'(x_j), shape (max_order + 1, d, d)."""
    psis = hermite_psi_matrix(n_cut, grid.x)
    return (psis * hermite_weights(grid, max_order).T[:, None, :]) @ psis.T


def _pure_blocks(state: TwoModeState, phases, grid, max_order: int) -> np.ndarray:
    """The blocks U^T W U of a pure state at every phase pair, contracted without forming W.

    Per theta1, T_s = c~^T G_s c~* (c~ phased by theta1 along mode a); the
    block at (theta1, theta2) is sum_{m,m'} T_s e^{-i(m-m') theta2} G_t.
    Entry (0, 0) is the double integral of W, checked by the mass guard.
    """
    g = _hermite_products(state.n_cut, grid, max_order)
    d = state.amplitudes.shape[0]
    n = np.arange(d)
    size = max_order + 1
    g_flat = g.reshape(size, d * d).T
    blocks = np.empty((phases.size, phases.size, size, size))
    for i, th1 in enumerate(phases):
        phased = state.amplitudes * np.exp(-1j * th1 * n)[:, None]
        t = (phased.T @ g @ phased.conj()).reshape(size, d * d)
        for j, th2 in enumerate(phases):
            blocks[i, j] = ((t * _phase_matrix(d, th2).ravel()) @ g_flat).real
            _check_mass_defect(
                abs(blocks[i, j, 0, 0] - 1.0), f"two-mode tomogram at ({th1:.6g}, {th2:.6g})"
            )
    return blocks


def _two_mode_entries(obj, phases: np.ndarray, max_order: int, grid) -> dict:
    """Every (k, l, p, q) with k + l and p + q each <= max_order, both modes on one phase set.

    Each phase pair gives one block U^T W U of every order pair's double
    integral: by contraction for a pure state, summed over the row blocks of
    the joint tomogram W for a density matrix.
    """
    if grid is None:
        grid = default_grid(obj)
    if isinstance(obj, TwoModeState):
        blocks = _pure_blocks(obj, phases, grid, max_order)
    else:
        u = hermite_weights(grid, max_order)
        blocks = np.array(
            [
                [sum(u[rows].T @ w @ u for rows, w in _joint_blocks(obj, th1, th2, grid)) for th2 in phases]
                for th1 in phases
            ]
        )
    weights = {key: _phase_weights(*key, phases) for key in _indices(max_order)}
    return {
        a + b: complex(wa @ blocks[:, :, sum(a), sum(b)] @ wb)
        for a, wa in weights.items()
        for b, wb in weights.items()
    }


def oracle_moment(obj, k: int, l: int, mode: str | None = None) -> complex:
    """<a^dag^k a^l> by direct ladder action in the Fock basis."""
    _check_order(k, l)
    if isinstance(obj, SingleModeState):
        bra = obj
        for _ in range(k):
            bra = apply_annihilation(bra)
        ket = obj
        for _ in range(l):
            ket = apply_annihilation(ket)
        return inner(bra, ket)
    if mode == "a":
        return oracle_moment_two_mode(obj, k, l, 0, 0)
    if mode == "b":
        return oracle_moment_two_mode(obj, 0, 0, k, l)
    raise ValueError("two-mode input needs mode='a' or mode='b'")


def _annihilate_two_mode(c: np.ndarray, times_a: int, times_b: int) -> np.ndarray:
    out = c
    for _ in range(times_a):
        nxt = np.zeros_like(out)
        nxt[:-1, :] = np.sqrt(np.arange(1.0, out.shape[0]))[:, None] * out[1:, :]
        out = nxt
    for _ in range(times_b):
        nxt = np.zeros_like(out)
        nxt[:, :-1] = np.sqrt(np.arange(1.0, out.shape[1]))[None, :] * out[:, 1:]
        out = nxt
    return out


def oracle_moment_two_mode(obj, k: int, l: int, p: int, q: int) -> complex:
    """<a^dag^k a^l b^dag^p b^q> by ladder action (pure) or trace (mixed)."""
    _check_order(k, l)
    _check_order(p, q)
    if isinstance(obj, TwoModeState):
        bra = _annihilate_two_mode(obj.amplitudes, k, p)
        ket = _annihilate_two_mode(obj.amplitudes, l, q)
        return complex(np.vdot(bra, ket))
    dim = obj.dim
    a = annihilation_matrix(dim)
    op_a = np.linalg.matrix_power(a.T, k) @ np.linalg.matrix_power(a, l)
    op_b = np.linalg.matrix_power(a.T, p) @ np.linalg.matrix_power(a, q)
    # Tr((O_a x O_b) rho) against the (n, n', m, m') index layout.
    return complex(np.einsum("ab,cd,badc->", op_a, op_b, obj.entries))


@dataclass(frozen=True)
class MomentTable:
    """Normal-ordered moments with provenance, one or two modes.

    Single-mode entries map (k, l) -> <a^dag^k a^l>; two-mode entries map
    (k, l, p, q) -> <a^dag^k a^l b^dag^p b^q>.  `max_order` bounds k + l
    (and p + q).  The conjugate of an entry swaps k <-> l and p <-> q.
    """

    entries: dict
    max_order: int
    source: str

    def get(self, *index: int) -> complex:
        try:
            return self.entries[index]
        except KeyError:
            raise MissingOrder(f"moment {index} not present (max order {self.max_order})")

    def hermiticity_defect(self) -> float:
        # i ^ 1 swaps positions 0 <-> 1 and 2 <-> 3: the conjugate's index.
        return max(
            abs(val - np.conj(self.entries[tuple(key[i ^ 1] for i in range(len(key)))]))
            for key, val in self.entries.items()
        )

    def validate(self) -> "MomentTable":
        zero = (0,) * len(next(iter(self.entries)))
        if abs(self.entries[zero] - 1.0) > 1e-9:
            raise ValueError(f"{zero} entry {self.entries[zero]!r} differs from 1")
        defect = self.hermiticity_defect()
        if defect > 1e-8:
            raise ValueError(f"moment table breaks hermiticity by {defect:.3e}")
        return self

    def reduced(self, mode: str) -> "MomentTable":
        """A two-mode table's (k, l, 0, 0) entries (mode 'a') or (0, 0, p, q) entries (mode 'b')."""
        own, other = {"a": (slice(0, 2), slice(2, 4)), "b": (slice(2, 4), slice(0, 2))}[mode]
        entries = {key[own]: val for key, val in self.entries.items() if not any(key[other])}
        return MomentTable(entries, self.max_order, self.source)


def moment_table(
    obj,
    max_order: int = 4,
    grid: QuadratureGrid | None = None,
    mode: str | None = None,
    source: str = SOURCE_TOMOGRAM,
) -> MomentTable:
    """All <a^dag^k a^l> with k + l <= max_order from one tomogram family.

    Every order is extracted from the same max_order + 1 phases, each
    evaluated once.
    """
    _check_order(max_order, 0)
    _check_source(source)
    if source == SOURCE_FOCK_ORACLE:
        entries = {key: oracle_moment(obj, *key, mode=mode) for key in _indices(max_order)}
    else:
        entries = _single_mode_entries(obj, extraction_phases(max_order), max_order, grid, mode)
    return MomentTable(entries, max_order, source)


def two_mode_moment_table(
    obj,
    max_order_each: int = 2,
    grid: QuadratureGrid | None = None,
    source: str = SOURCE_TOMOGRAM,
) -> MomentTable:
    """All <a^dag^k a^l b^dag^p b^q> with k+l and p+q each <= max_order_each.

    Both modes share one grid and the max_order_each + 1 phases of
    extraction_phases, so each of the (max_order_each + 1)^2 phase pairs is
    evaluated once, 9 of them at max_order_each = 2: contracted from the
    amplitudes for a pure state, from one joint tomogram each for a density
    matrix.
    """
    _check_order(max_order_each, 0)
    _check_source(source)
    if source == SOURCE_FOCK_ORACLE:
        pairs = _indices(max_order_each)
        entries = {a + b: oracle_moment_two_mode(obj, *a, *b) for a in pairs for b in pairs}
    else:
        entries = _two_mode_entries(obj, extraction_phases(max_order_each), max_order_each, grid)
    return MomentTable(entries, max_order_each, source)
