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

The oracle route applies ladder operators directly in the truncated basis,
touching only annihilation so nothing spills the truncation buffer.  For a
pure state <a^dag^k a^l b^dag^p b^q> = <a^k b^p psi | a^l b^q psi> is the
np.vdot of two fock.lowered arrays.  For a density matrix it is
Tr((a^dag^k a^l x b^dag^p b^q) rho) with the operators formed from
fock.annihilation_matrix: a second, independent route that the tests hold
against the pure one on rho = |psi><psi|.

H_s inside the integrals is the plain Hermite polynomial, and the
quadrature is tomography's (see its module docstring): a pure state's table
without a given grid reads its rows on tomography.moment_grid, sized from
the state's top level, and every other table on the grid it is given or
default_grid.  Every order's integral at one phase is an entry of
`rows @ U` with U = hermite_weights, and every order pair's double integral
at one phase pair is an entry of the (K+1) x (K+1) block U^T W U of the
joint tomogram W from tomography._moment_blocks.  The table builders
evaluate each phase (or each of the (K+1)^2 phase pairs) once and assemble
every index from the rows or blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import MissingOrder, OrderTooHigh, TruncationOverflow
from .fock import (
    SingleModeState,
    TwoModeState,
    annihilation_matrix,
    hermite_psi_matrix,  # not called here; perfbench/tests/test_tracer.py rebinds this name
    ln_factorial,
    lowered,
)
from .tomography import (
    QuadratureGrid,
    _moment_blocks,
    hermite_weights,
    moment_grid,
    tomogram_joint,  # not called here; perfbench/tests/test_tracer.py rebinds this name
    tomogram_pure,
    tomogram_reduced,
)

K_MAX_DEFAULT = 6

SOURCE_TOMOGRAM = "tomogram"
SOURCE_FOCK_ORACLE = "fock-oracle"


@cache
def extraction_constant(k: int, l: int, n_phases: int) -> float:
    """C_kl = k! l! / (n_phases (k+l)! sqrt(2^{k+l})), cached per (k, l, n_phases).

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
    """Every (k, l) with k + l <= max_order, all extracted from the rows at the one phase set.

    Without a grid, a pure state's rows are taken on tomography.moment_grid,
    sized from its highest level; a reduced mode keeps default_grid.
    """
    if grid is None and isinstance(obj, SingleModeState):
        grid = moment_grid(obj)
    rows, grid = single_mode_rows(obj, phases, grid, mode)
    integrals = rows @ hermite_weights(grid, max_order)
    return {
        (k, l): complex(_phase_weights(k, l, phases) @ integrals[:, k + l])
        for k, l in _indices(max_order)
    }


def _two_mode_entries(obj, phases: np.ndarray, max_order: int, grid) -> dict:
    """Every (k, l, p, q) with k + l and p + q each <= max_order, both modes on one phase set.

    Each phase pair gives one block U^T W U of every order pair's double
    integral (tomography._moment_blocks).
    """
    blocks = _moment_blocks(obj, phases, grid, max_order)
    weights = {key: _phase_weights(*key, phases) for key in _indices(max_order)}
    return {
        a + b: complex(wa @ blocks[:, :, sum(a), sum(b)] @ wb)
        for a, wa in weights.items()
        for b, wb in weights.items()
    }


def _oracle_input(obj) -> np.ndarray:
    """The amplitudes (pure) or entries (density matrix) the oracle reads, if every one is finite."""
    values = obj.amplitudes if isinstance(obj, (SingleModeState, TwoModeState)) else obj.entries
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        where = tuple(int(i) for i in np.unravel_index(bad[0], values.shape))
        raise TruncationOverflow(f"Fock oracle input {values.flat[bad[0]]} at index {where} is not finite")
    return values


def oracle_moment(obj, k: int, l: int, mode: str | None = None) -> complex:
    """<a^dag^k a^l> by direct ladder action in the Fock basis."""
    _check_order(k, l)
    if isinstance(obj, SingleModeState):
        c = _oracle_input(obj)
        return complex(np.vdot(lowered(c, (k,)), lowered(c, (l,))))
    if mode == "a":
        return oracle_moment_two_mode(obj, k, l, 0, 0)
    if mode == "b":
        return oracle_moment_two_mode(obj, 0, 0, k, l)
    raise ValueError("two-mode input needs mode='a' or mode='b'")


def oracle_moment_two_mode(obj, k: int, l: int, p: int, q: int) -> complex:
    """<a^dag^k a^l b^dag^p b^q> by ladder action (pure) or trace (mixed)."""
    _check_order(k, l)
    _check_order(p, q)
    values = _oracle_input(obj)
    if isinstance(obj, TwoModeState):
        return complex(np.vdot(lowered(values, (k, p)), lowered(values, (l, q))))
    dim = obj.dim
    a = annihilation_matrix(dim)
    op_a = np.linalg.matrix_power(a.T, k) @ np.linalg.matrix_power(a, l)
    op_b = np.linalg.matrix_power(a.T, p) @ np.linalg.matrix_power(a, q)
    # Tr((O_a x O_b) rho) against the (n, n', m, m') index layout.
    return complex(np.einsum("ab,cd,badc->", op_a, op_b, values))


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
    evaluated once.  Without a grid a SingleModeState is read on
    tomography.moment_grid and a reduced mode on default_grid.
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
