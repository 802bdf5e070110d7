"""Normal-ordered moments <a^dag^k a^l> from tomograms, with a Fock-space oracle.

The tomogram route samples k+l+1 phases theta_m = m pi/(k+l+1), integrates
each distribution against the Hermite polynomial H_{k+l}, applies the
roots-of-unity phase weights exp(-i(k-l) m pi/(k+l+1)) and the combinatorial
constant C_kl = k! l! / ((k+l+1)! sqrt(2^{k+l})).  The two-mode extraction is
the double sum over independent phase sets for each mode; it reduces to the
single-mode formula when one mode's indices vanish and is validated against
the oracle for every catalog state before any other module relies on it.

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
block U1^T W U2 of the joint tomogram W.  The table builders evaluate each
distinct phase (or phase pair) once into that block and assemble every index
from the blocks.

A pure state's block is the same Simpson-weighted sum reassociated, so W is
never formed: with G_s[n, n'] = sum_j U[j, s] psi_n(x_j) psi_n'(x_j), built
once per grid from the sampled eigenfunctions, T_s = c~^T G1_s c~* is formed
once per theta1 and each block is sum_{m,m'} T_s e^{-i(m-m') theta2} G2_t,
O(K d^3) per theta1.  Entry (0, 0) is the double integral of W and carries
the per-pair mass guard.  G is a quadrature of the tomogram, not a
ladder-operator closed form, so the route stays independent of the oracle.
A density matrix's block is U1^T W U2 of its joint tomogram, which keeps the
negativity guard on every value of W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermvander
from scipy.special import gammaln

from .errors import MissingOrder, OrderTooHigh
from .fock import (
    SingleModeState,
    TwoModeState,
    annihilation_matrix,
    apply_annihilation,
    hermite_psi_matrix,
    inner,
)
from .tomography import (
    QuadratureGrid,
    _check_mass_defect,
    _phase_matrix,
    default_grid,
    tomogram_joint,
    tomogram_pure,
    tomogram_reduced,
)

K_MAX_DEFAULT = 6

SOURCE_TOMOGRAM = "tomogram"
SOURCE_FOCK_ORACLE = "fock-oracle"


def extraction_constant(k: int, l: int) -> float:
    """C_kl = k! l! / ((k+l+1)! sqrt(2^{k+l}))."""
    return float(
        np.exp(gammaln(k + 1.0) + gammaln(l + 1.0) - gammaln(k + l + 2.0) - 0.5 * (k + l) * np.log(2.0))
    )


def extraction_phases(order: int) -> np.ndarray:
    """The order+1 tomogram phases m pi/(order+1), m = 0..order."""
    return np.arange(order + 1) * np.pi / (order + 1)


def hermite_weights(grid: QuadratureGrid, max_order: int) -> np.ndarray:
    """U[j, s] = Simpson weight_j * H_s(x_j) for s = 0 .. max_order, shape (N, max_order + 1)."""
    return grid.weights[:, None] * hermvander(grid.x, max_order)


def _phase_weights(k: int, l: int, phases: np.ndarray) -> np.ndarray:
    """C_kl exp(-i(k-l) theta_m): the roots-of-unity weights of one extraction."""
    return extraction_constant(k, l) * np.exp(-1j * (k - l) * phases)


def _phase_union(phase_sets: dict):
    """Distinct phases over {order: phases}, and each order's positions among them."""
    distinct: list = []
    index: dict = {}
    positions = {}
    for order, phases in phase_sets.items():
        pos = []
        for th in phases:
            key = round(float(th), 12)
            if key not in index:
                index[key] = len(distinct)
                distinct.append(float(th))
            pos.append(index[key])
        positions[order] = np.array(pos, dtype=int)
    return np.array(distinct), positions


def _check_order(k: int, l: int) -> None:
    if k < 0 or l < 0:
        raise ValueError("moment indices must be non-negative")
    if k + l > K_MAX_DEFAULT:
        raise OrderTooHigh(f"moment order {k + l} exceeds K_max = {K_MAX_DEFAULT}")


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


def _single_mode_entries(obj, phase_sets: dict, grid, mode) -> dict:
    """Every (k, l) with k + l in phase_sets, each order extracted over its own phases."""
    phases, positions = _phase_union(phase_sets)
    rows, grid = single_mode_rows(obj, phases, grid, mode)
    integrals = rows @ hermite_weights(grid, max(phase_sets))
    entries = {}
    for order, pos in positions.items():
        for k in range(order + 1):
            weights = _phase_weights(k, order - k, phase_sets[order])
            entries[(k, order - k)] = complex(weights @ integrals[pos, order])
    return entries


def _hermite_products(n_cut: int, grid: QuadratureGrid, u: np.ndarray) -> np.ndarray:
    """G[s, n, n'] = sum_j U[j, s] psi_n(x_j) psi_n'(x_j), shape (K + 1, d, d)."""
    psis = hermite_psi_matrix(n_cut, grid.x)
    return (psis * u.T[:, None, :]) @ psis.T


def _pure_blocks(state: TwoModeState, phases1, phases2, grid1, grid2, u1, u2) -> np.ndarray:
    """The blocks U1^T W U2 of a pure state, contracted without forming W.

    Per theta1, T_s = c~^T G1_s c~* (c~ phased by theta1 along mode a); the
    block at (theta1, theta2) is sum_{m,m'} T_s e^{-i(m-m') theta2} G2_t.
    Entry (0, 0) is the double integral of W, checked by the mass guard.
    """
    g1 = _hermite_products(state.n_cut, grid1, u1)
    g2 = g1 if grid2 is grid1 and u2.shape == u1.shape else _hermite_products(state.n_cut, grid2, u2)
    d = state.amplitudes.shape[0]
    n = np.arange(d)
    g2 = g2.reshape(g2.shape[0], d * d).T
    blocks = np.empty((phases1.size, phases2.size, u1.shape[1], u2.shape[1]))
    for i, th1 in enumerate(phases1):
        phased = state.amplitudes * np.exp(-1j * th1 * n)[:, None]
        t = (phased.T @ g1 @ phased.conj()).reshape(u1.shape[1], d * d)
        for j, th2 in enumerate(phases2):
            blocks[i, j] = ((t * _phase_matrix(d, th2).ravel()) @ g2).real
            _check_mass_defect(
                abs(blocks[i, j, 0, 0] - 1.0), f"two-mode tomogram at ({th1:.6g}, {th2:.6g})"
            )
    return blocks


def _two_mode_entries(obj, phase_sets1: dict, phase_sets2: dict, grid1, grid2) -> dict:
    """Every (k, l, p, q) with k + l in phase_sets1 and p + q in phase_sets2.

    Each distinct phase pair gives one block U1^T W U2 of every order pair's
    double integral: by contraction for a pure state, from the joint
    tomogram W (then dropped) for a density matrix.
    """
    if grid1 is None:
        grid1 = default_grid(obj)
    if grid2 is None:
        grid2 = grid1
    phases1, pos1 = _phase_union(phase_sets1)
    phases2, pos2 = _phase_union(phase_sets2)
    u1 = hermite_weights(grid1, max(phase_sets1))
    u2 = hermite_weights(grid2, max(phase_sets2))
    if isinstance(obj, TwoModeState):
        blocks = _pure_blocks(obj, phases1, phases2, grid1, grid2, u1, u2)
    else:
        blocks = np.empty((phases1.size, phases2.size, u1.shape[1], u2.shape[1]))
        for i, th1 in enumerate(phases1):
            for j, th2 in enumerate(phases2):
                blocks[i, j] = u1.T @ tomogram_joint(obj, th1, th2, grid1, grid2).values @ u2
    entries = {}
    for s1, p1 in pos1.items():
        for s2, p2 in pos2.items():
            integrals = blocks[np.ix_(p1, p2)][:, :, s1, s2]
            for k in range(s1 + 1):
                w1 = _phase_weights(k, s1 - k, phase_sets1[s1])
                for p in range(s2 + 1):
                    w2 = _phase_weights(p, s2 - p, phase_sets2[s2])
                    entries[(k, s1 - k, p, s2 - p)] = complex(w1 @ integrals @ w2)
    return entries


def extract_moment(
    obj,
    k: int,
    l: int,
    grid: QuadratureGrid | None = None,
    mode: str | None = None,
) -> complex:
    """<a^dag^k a^l> recovered from tomograms alone.

    `obj` is a SingleModeState, or a two-mode state / density matrix with
    `mode` selecting the reduced mode.
    """
    _check_order(k, l)
    return _single_mode_entries(obj, {k + l: extraction_phases(k + l)}, grid, mode)[(k, l)]


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


def extract_moment_two_mode(
    obj,
    k: int,
    l: int,
    p: int,
    q: int,
    grid1: QuadratureGrid | None = None,
    grid2: QuadratureGrid | None = None,
) -> complex:
    """Two-mode tomogram extraction: the double roots-of-unity sum."""
    _check_order(k, l)
    _check_order(p, q)
    entries = _two_mode_entries(
        obj, {k + l: extraction_phases(k + l)}, {p + q: extraction_phases(p + q)}, grid1, grid2
    )
    return entries[(k, l, p, q)]


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

    Each distinct phase across the orders is evaluated once.
    """
    _check_order(max_order, 0)
    if source == SOURCE_FOCK_ORACLE:
        entries = {key: oracle_moment(obj, *key, mode=mode) for key in _indices(max_order)}
    else:
        phase_sets = {order: extraction_phases(order) for order in range(max_order + 1)}
        entries = _single_mode_entries(obj, phase_sets, grid, mode)
    return MomentTable(entries, max_order, source)


def two_mode_moment_table(
    obj,
    max_order_each: int = 2,
    grid1: QuadratureGrid | None = None,
    grid2: QuadratureGrid | None = None,
    source: str = SOURCE_TOMOGRAM,
) -> MomentTable:
    """All <a^dag^k a^l b^dag^p b^q> with k+l and p+q each <= max_order_each.

    Each distinct phase pair across the order pairs is evaluated once, 16 of
    them at max_order_each = 2: contracted from the amplitudes for a pure
    state, from one joint tomogram each for a density matrix.
    """
    _check_order(max_order_each, 0)
    if source == SOURCE_FOCK_ORACLE:
        pairs = _indices(max_order_each)
        entries = {a + b: oracle_moment_two_mode(obj, *a, *b) for a in pairs for b in pairs}
    else:
        phase_sets = {order: extraction_phases(order) for order in range(max_order_each + 1)}
        entries = _two_mode_entries(obj, phase_sets, phase_sets, grid1, grid2)
    return MomentTable(entries, max_order_each, source)
