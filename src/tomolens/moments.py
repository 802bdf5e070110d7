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
distinct phase (or phase pair) once, contract it into that block, drop the
tomogram and assemble every index from the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermvander
from scipy.special import gammaln

from .errors import MissingOrder, OrderTooHigh
from .fock import (
    SingleModeState,
    TwoModeDensityMatrix,
    TwoModeState,
    annihilation_matrix,
    apply_annihilation,
    hermite_psi_matrix,  # noqa: F401  unused here; perfbench's tracer tests rebind it by this name
    inner,
)
from .tomography import (
    QuadratureGrid,
    default_grid,
    density_eigenmodes,
    marginal,
    tomogram_joint,
    tomogram_pure,
)

K_MAX_DEFAULT = 6

SOURCE_TOMOGRAM = "tomogram"
SOURCE_FOCK_ORACLE = "fock-oracle"


def extraction_constant(k: int, l: int) -> float:
    """C_kl = k! l! / ((k+l+1)! sqrt(2^{k+l}))."""
    return float(
        np.exp(gammaln(k + 1.0) + gammaln(l + 1.0) - gammaln(k + l + 2.0) - 0.5 * (k + l) * np.log(2.0))
    )


def extraction_phases(order: int, n_phases: int | None = None) -> np.ndarray:
    """The order+1 tomogram phases m pi/(order+1), m = 0..order."""
    count = order + 1 if n_phases is None else n_phases
    return np.arange(count) * np.pi / count


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


def _check_order(k: int, l: int, k_max: int) -> None:
    if k < 0 or l < 0:
        raise ValueError("moment indices must be non-negative")
    if k + l > k_max:
        raise OrderTooHigh(f"moment order {k + l} exceeds K_max = {k_max}")


def single_mode_rows(obj, phases, grid: QuadratureGrid | None = None, mode: str | None = None):
    """Tomogram rows at the given phases for a state or a reduced mode, with their grid.

    `obj` is a SingleModeState, or a two-mode state / density matrix with
    `mode` ('a' or 'b') selecting the reduced mode, whose rows are marginals
    of joint tomograms taken with the other mode's phase at 0.
    """
    if isinstance(obj, SingleModeState):
        if grid is None:
            grid = default_grid(obj)
        return tomogram_pure(obj, phases, grid).values, grid
    if mode not in ("a", "b"):
        raise ValueError("two-mode input needs mode='a' or mode='b'")
    if grid is None:
        grid = default_grid(obj)
    eigen = density_eigenmodes(obj) if isinstance(obj, TwoModeDensityMatrix) else None
    rows = []
    for th in phases:
        pair = (th, 0.0) if mode == "a" else (0.0, th)
        joint = tomogram_joint(obj, pair[0], pair[1], grid, grid, eigenmodes=eigen)
        rows.append(marginal(joint, mode).values[0])
    return np.asarray(rows), grid


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


def _two_mode_entries(obj, phase_sets1: dict, phase_sets2: dict, grid1, grid2) -> dict:
    """Every (k, l, p, q) with k + l in phase_sets1 and p + q in phase_sets2.

    Each distinct phase pair's joint tomogram W is contracted into the block
    U1^T W U2 of every order pair's double integral and then dropped.
    """
    if grid1 is None:
        grid1 = default_grid(obj)
    if grid2 is None:
        grid2 = grid1
    phases1, pos1 = _phase_union(phase_sets1)
    phases2, pos2 = _phase_union(phase_sets2)
    u1 = hermite_weights(grid1, max(phase_sets1))
    u2 = hermite_weights(grid2, max(phase_sets2))
    eigen = density_eigenmodes(obj) if isinstance(obj, TwoModeDensityMatrix) else None
    blocks = np.empty((phases1.size, phases2.size, u1.shape[1], u2.shape[1]))
    for i, th1 in enumerate(phases1):
        for j, th2 in enumerate(phases2):
            joint = tomogram_joint(obj, th1, th2, grid1, grid2, eigenmodes=eigen)
            blocks[i, j] = u1.T @ joint.values @ u2
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
    k_max: int = K_MAX_DEFAULT,
    _n_phases: int | None = None,
) -> complex:
    """<a^dag^k a^l> recovered from tomograms alone.

    `obj` is a SingleModeState, or a two-mode state / density matrix with
    `mode` selecting the reduced mode.  `_n_phases` deliberately breaks the
    phase count for the documented negative test; leave it at None.
    """
    _check_order(k, l, k_max)
    order = k + l
    entries = _single_mode_entries(obj, {order: extraction_phases(order, _n_phases)}, grid, mode)
    return entries[(k, l)]


def oracle_moment(obj, k: int, l: int, mode: str | None = None, k_max: int = K_MAX_DEFAULT) -> complex:
    """<a^dag^k a^l> by direct ladder action in the Fock basis."""
    _check_order(k, l, k_max)
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


def oracle_moment_two_mode(obj, k: int, l: int, p: int, q: int, k_max: int = K_MAX_DEFAULT) -> complex:
    """<a^dag^k a^l b^dag^p b^q> by ladder action (pure) or trace (mixed)."""
    _check_order(k, l, k_max)
    _check_order(p, q, k_max)
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
    k_max: int = K_MAX_DEFAULT,
) -> complex:
    """Two-mode tomogram extraction: the double roots-of-unity sum."""
    _check_order(k, l, k_max)
    _check_order(p, q, k_max)
    entries = _two_mode_entries(
        obj, {k + l: extraction_phases(k + l)}, {p + q: extraction_phases(p + q)}, grid1, grid2
    )
    return entries[(k, l, p, q)]


@dataclass(frozen=True)
class MomentTable:
    """Map (k, l) -> <a^dag^k a^l> with provenance."""

    entries: dict
    max_order: int
    source: str

    def get(self, k: int, l: int) -> complex:
        try:
            return self.entries[(k, l)]
        except KeyError:
            raise MissingOrder(f"moment ({k}, {l}) not present (max order {self.max_order})")

    def hermiticity_defect(self) -> float:
        worst = 0.0
        for (k, l), val in self.entries.items():
            worst = max(worst, abs(val - np.conj(self.entries[(l, k)])))
        return worst

    def validate(self) -> "MomentTable":
        if abs(self.entries[(0, 0)] - 1.0) > 1e-9:
            raise ValueError(f"(0,0) entry {self.entries[(0, 0)]!r} differs from 1")
        defect = self.hermiticity_defect()
        if defect > 1e-8:
            raise ValueError(f"moment table breaks hermiticity by {defect:.3e}")
        return self


@dataclass(frozen=True)
class TwoModeMomentTable:
    """Map (k, l, p, q) -> <a^dag^k a^l b^dag^p b^q> with provenance."""

    entries: dict
    max_order: int
    source: str

    def get(self, k: int, l: int, p: int, q: int) -> complex:
        try:
            return self.entries[(k, l, p, q)]
        except KeyError:
            raise MissingOrder(f"moment ({k},{l},{p},{q}) not present (max order {self.max_order})")

    def hermiticity_defect(self) -> float:
        worst = 0.0
        for (k, l, p, q), val in self.entries.items():
            worst = max(worst, abs(val - np.conj(self.entries[(l, k, q, p)])))
        return worst

    def validate(self) -> "TwoModeMomentTable":
        if abs(self.entries[(0, 0, 0, 0)] - 1.0) > 1e-9:
            raise ValueError("(0,0,0,0) entry differs from 1")
        defect = self.hermiticity_defect()
        if defect > 1e-8:
            raise ValueError(f"moment table breaks hermiticity by {defect:.3e}")
        return self


def moment_table(
    obj,
    max_order: int = 4,
    grid: QuadratureGrid | None = None,
    mode: str | None = None,
    source: str = SOURCE_TOMOGRAM,
    k_max: int = K_MAX_DEFAULT,
) -> MomentTable:
    """All <a^dag^k a^l> with k + l <= max_order from one tomogram family.

    Each distinct phase across the orders is evaluated once.
    """
    if max_order > k_max:
        raise OrderTooHigh(f"max_order {max_order} exceeds K_max = {k_max}")
    if source == SOURCE_FOCK_ORACLE:
        entries = {}
        for k in range(max_order + 1):
            for l in range(max_order + 1 - k):
                entries[(k, l)] = oracle_moment(obj, k, l, mode=mode)
        return MomentTable(entries, max_order, source)
    phase_sets = {order: extraction_phases(order) for order in range(max_order + 1)}
    return MomentTable(_single_mode_entries(obj, phase_sets, grid, mode), max_order, source)


def two_mode_moment_table(
    obj,
    max_order_each: int = 2,
    grid1: QuadratureGrid | None = None,
    grid2: QuadratureGrid | None = None,
    source: str = SOURCE_TOMOGRAM,
    k_max: int = K_MAX_DEFAULT,
) -> TwoModeMomentTable:
    """All <a^dag^k a^l b^dag^p b^q> with k+l and p+q each <= max_order_each.

    Each distinct phase pair across the order pairs is evaluated once: 16
    joint tomograms at max_order_each = 2.
    """
    if max_order_each > k_max:
        raise OrderTooHigh(f"max_order {max_order_each} exceeds K_max = {k_max}")
    if source == SOURCE_FOCK_ORACLE:
        entries = {
            (k, l, p, q): oracle_moment_two_mode(obj, k, l, p, q)
            for k in range(max_order_each + 1)
            for l in range(max_order_each + 1 - k)
            for p in range(max_order_each + 1)
            for q in range(max_order_each + 1 - p)
        }
        return TwoModeMomentTable(entries, max_order_each, source)
    phase_sets = {order: extraction_phases(order) for order in range(max_order_each + 1)}
    entries = _two_mode_entries(obj, phase_sets, phase_sets, grid1, grid2)
    return TwoModeMomentTable(entries, max_order_each, source)
