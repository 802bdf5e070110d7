"""Constructors for the state catalog.

Single-mode families: coherent, even/odd/Yurke-Stoler cats, squeezed vacuum,
Yuen (squeezed one-photon), m-photon-added coherent, isospectral coherent
states built on a restricted Fock space, and number states.  Two-mode
families: pair coherent, Caves-Schumaker (two-mode squeezed vacuum) and
products of single-mode states.

Every constructor returns a normalized state whose truncation is certified:
the top BUFFER_LEVELS of the basis carry less than TAIL_TOLERANCE of
probability.  When no explicit cutoff is given, the smallest adequate one is
chosen and the buffer is added on top.  Exponential-of-generator states
(squeezed, Yuen, isospectral) are built by one uniform path, the matrix
exponential (fock.unitary_exp) of the truncated anti-Hermitian generator's
invariant block that holds the base state, and validated against closed
forms in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameter, TruncationOverflow
from .fock import (
    BUFFER_LEVELS,
    TAIL_TOLERANCE,
    SingleModeState,
    TwoModeState,
    ln_factorial,
    unitary_exp,
)

FAMILIES = (
    "coherent",
    "fock",
    "ecs",
    "ocs",
    "yurke-stoler",
    "squeezed-vacuum",
    "yuen",
    "pacs",
    "isospectral",
    "pair-coherent",
    "caves-schumaker",
    "product",
)


def _normalize_certified(amps: np.ndarray) -> SingleModeState:
    return SingleModeState(amps).normalized().certify()


def _adaptive_cut(probabilities: np.ndarray) -> int:
    """Smallest level M with mass above M below TAIL_TOLERANCE, plus buffer."""
    total = probabilities.sum()
    tail = total - np.cumsum(probabilities)
    ok = np.nonzero(tail < TAIL_TOLERANCE * total)[0]
    if ok.size == 0:
        raise TruncationOverflow("probe basis too small for the requested parameters")
    return int(ok[0]) + BUFFER_LEVELS


def _coherent_amplitudes(alpha: complex, n_cut: int) -> np.ndarray:
    """c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) evaluated in log space."""
    n = np.arange(n_cut + 1)
    if alpha == 0:
        amps = np.zeros(n_cut + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    mag = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * ln_factorial(n))
    phase = np.exp(1j * n * np.angle(alpha))
    return mag * phase


def _coherent_probe_cut(alpha: complex) -> int:
    nbar = abs(alpha) ** 2
    return int(np.ceil(nbar + 14.0 * np.sqrt(nbar + 1.0) + 30.0))


def make_coherent(alpha: complex, n_cut: int | None = None) -> SingleModeState:
    """Coherent state |alpha>."""
    probe = n_cut if n_cut is not None else _coherent_probe_cut(alpha)
    amps = _coherent_amplitudes(alpha, probe)
    if n_cut is None:
        amps = amps[: _adaptive_cut(np.abs(amps) ** 2) + 1]
    return _normalize_certified(amps)


def make_fock(n: int, n_cut: int | None = None) -> SingleModeState:
    """Number state |n>."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    cut = n_cut if n_cut is not None else n + BUFFER_LEVELS
    if cut < n:
        raise TruncationOverflow(f"n_cut={cut} below photon number {n}")
    amps = np.zeros(cut + 1, dtype=complex)
    amps[n] = 1.0
    return _normalize_certified(amps)


def make_cat(alpha: complex, kind: str = "even", n_cut: int | None = None) -> SingleModeState:
    """Superpositions of |alpha> and |-alpha>.

    kind: "even" (support on even n), "odd" (odd n), or "yurke-stoler"
    for (|alpha> + i|-alpha>)/sqrt(2).  The odd cat is undefined at
    alpha = 0 (0/0 normalization) and raises rather than taking a limit.
    """
    kind = kind.lower()
    if kind not in ("even", "odd", "yurke-stoler"):
        raise ValueError(f"unknown cat kind {kind!r}")
    if kind == "odd" and alpha == 0:
        raise DegenerateParameter("odd cat state is undefined at alpha = 0")
    probe = n_cut if n_cut is not None else _coherent_probe_cut(alpha)
    plus = _coherent_amplitudes(alpha, probe)
    minus = _coherent_amplitudes(-alpha, probe)
    if kind == "even":
        amps = plus + minus
    elif kind == "odd":
        amps = plus - minus
    else:
        amps = plus + 1j * minus
    if kind in ("even", "odd"):
        # Parity support is exact by construction; stamp out rounding dust.
        amps[(1 if kind == "even" else 0) :: 2] = 0.0
    if n_cut is None:
        amps = amps[: _adaptive_cut(np.abs(amps) ** 2) + 1]
    return _normalize_certified(amps)


def _exponentiated_generator_state(
    build_generator, first: int, step: int, n_cut, probe_start: int
) -> SingleModeState:
    """exp(G)|first> with G anti-Hermitian, on a basis grown until certified.

    G must leave the levels first, first + step, first + 2 step, ... invariant
    and |first> must be the lowest of them: only that block of G is
    exponentiated, and the state has no support off it.
    """
    dim = probe_start if n_cut is None else n_cut + 1
    while True:
        gen = build_generator(dim)[first::step, first::step]
        herm = np.max(np.abs(gen + gen.conj().T))
        if herm > 1e-12 * max(1.0, np.max(np.abs(gen))):
            raise ValueError("generator is not anti-Hermitian")
        u = unitary_exp(gen)
        defect = np.max(np.abs(u.conj().T @ u - np.eye(gen.shape[0])))
        if defect > 1e-9:
            raise TruncationOverflow(f"truncated exponential not unitary: defect {defect:.2e}")
        vec = np.zeros(dim, dtype=complex)
        vec[first::step] = u[:, 0]
        probs = np.abs(vec) ** 2
        top_mass = probs[-max(3, dim // 10) :].sum()
        if n_cut is not None:
            return _normalize_certified(vec)
        if top_mass < 1e-14:
            cut = _adaptive_cut(probs)
            if cut + 1 <= dim:
                return _normalize_certified(vec[: cut + 1])
        dim = int(dim * 1.6) + 8


def make_squeezed(xi: complex, base: str = "vacuum", n_cut: int | None = None) -> SingleModeState:
    """S(xi)|0> (squeezed vacuum) or S(xi)|1> (Yuen state).

    S(xi) = exp[(conj(xi) a^2 - xi a^dag^2)/2].  The generator couples levels
    two apart, so only its even (vacuum base) or odd (one-photon base) block
    is exponentiated, and the support is exactly that parity.
    """
    base = base.lower()
    if base not in ("vacuum", "one"):
        raise ValueError(f"unknown squeezed base {base!r}")
    base_n = 0 if base == "vacuum" else 1

    def gen(dim):
        # a^2 has <n|a^2|n+2> = sqrt((n+1)(n+2)).
        a2 = np.diag(np.sqrt(np.arange(1.0, dim - 1) * np.arange(2.0, dim)), k=2)
        return 0.5 * (np.conj(xi) * a2 - xi * a2.T)

    r = abs(xi)
    # Fock occupation decays like tanh(r)^(2n); size the first probe for it.
    est = 30 if r < 0.1 else int(np.ceil(-26.0 / np.log(np.tanh(r) + 1e-300))) + 30
    return _exponentiated_generator_state(gen, base_n, 2, n_cut, min(max(est, 30), 4000))


def make_pacs(alpha: complex, m: int, n_cut: int | None = None) -> SingleModeState:
    """m-photon-added coherent state: a^dag^m |alpha>, normalized."""
    if m < 0:
        raise ValueError("m must be non-negative")
    probe = n_cut if n_cut is not None else _coherent_probe_cut(alpha) + m
    n = np.arange(probe + 1 - m)
    if alpha == 0:
        amps = np.zeros(probe + 1, dtype=complex)
        amps[m] = 1.0
    else:
        # c_{n+m} ~ alpha^n sqrt((n+m)!)/n!  (overall constant fixed by normalization)
        logmag = n * np.log(abs(alpha)) + 0.5 * ln_factorial(n + m) - ln_factorial(n)
        logmag -= logmag.max()
        amps = np.zeros(probe + 1, dtype=complex)
        amps[m:] = np.exp(logmag) * np.exp(1j * n * np.angle(alpha))
    if n_cut is None:
        amps = amps[: _adaptive_cut(np.abs(amps) ** 2) + 1]
    return _normalize_certified(amps)


def deformed_annihilation_matrix(dim: int, base: int = 1) -> np.ndarray:
    """Annihilation operator of the restricted Fock space {|base>, |base+1>, ...}.

    Acts as sqrt(n - base)|n-1><n|; it annihilates every |n> with n <= base.
    For base = 1 this is the operator a^dag (1+N)^(-1/2) a (1+N)^(-1/2) a.
    """
    mat = np.zeros((dim, dim))
    for n in range(base + 1, dim):
        mat[n - 1, n] = np.sqrt(n - base)
    return mat


def make_isospectral(zeta: complex, base: int = 1, n_cut: int | None = None) -> SingleModeState:
    """Displacement-type coherent state of the restricted space built on |base>.

    exp(zeta a_i^dag - conj(zeta) a_i)|base> with a_i the deformed
    annihilation operator; an eigenstate of a_i with eigenvalue zeta, with
    no support below |base>.
    """
    if base < 1:
        raise ValueError("base must be at least 1")

    def gen(dim):
        ai = deformed_annihilation_matrix(dim, base)
        return zeta * ai.T - np.conj(zeta) * ai

    probe = base + _coherent_probe_cut(zeta)
    return _exponentiated_generator_state(gen, base, 1, n_cut, probe)


def make_two_mode(kind: str, r: float, n_cut: int | None = None) -> TwoModeState:
    """Correlated two-mode states diagonal in |n, n>.

    "caves-schumaker": c_nn = sech(r) (-tanh r)^n  (two-mode squeezed
    vacuum); "pair-coherent": c_nn = r^n / (n! sqrt(I0(2r))).
    """
    kind = kind.lower()
    if kind not in ("caves-schumaker", "pair-coherent"):
        raise ValueError(f"unknown two-mode kind {kind!r}")
    if r < 0:
        raise ValueError("r must be non-negative")
    if n_cut is None:
        if kind == "caves-schumaker":
            t = np.tanh(r)
            probe = 20 if t < 1e-3 else int(np.ceil(-13.0 / np.log(max(t, 1e-300)))) + 20
        else:
            probe = _coherent_probe_cut(np.sqrt(r) + 1.0) + 20
    else:
        probe = n_cut
    n = np.arange(probe + 1)
    if kind == "caves-schumaker":
        with np.errstate(divide="ignore"):
            logmag = n * np.log(np.tanh(r)) if r > 0 else np.where(n == 0, 0.0, -np.inf)
        diag = np.exp(logmag) * (-1.0) ** n
    else:
        with np.errstate(divide="ignore"):
            logmag = n * np.log(r) - ln_factorial(n) if r > 0 else np.where(n == 0, 0.0, -np.inf)
        diag = np.exp(logmag - logmag.max())
    if n_cut is None:
        cut = _adaptive_cut(np.abs(diag) ** 2)
        diag = diag[: cut + 1]
    amps = np.diag(diag)
    state = TwoModeState(amps).normalized()
    pa = state.mode_probabilities("a")
    if pa[-BUFFER_LEVELS:].sum() >= TAIL_TOLERANCE:
        raise TruncationOverflow(
            f"n_cut={state.n_cut} cannot certify the two-mode tail for r={r}"
        )
    return state


def pair_coherent_normalization(r: float) -> float:
    """1/sqrt(I0(2r))."""
    return float(1.0 / np.sqrt(np.i0(2.0 * r)))


def make_product(state_a: SingleModeState, state_b: SingleModeState) -> TwoModeState:
    """Direct product c_{nm} = a_n b_m, padded to a common square basis."""
    cut = max(state_a.n_cut, state_b.n_cut)
    a = state_a.padded(cut).amplitudes
    b = state_b.padded(cut).amplitudes
    return TwoModeState(np.outer(a, b))


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a catalog state, the unit of CLI configs."""

    family: str
    params: dict = field(default_factory=dict)
    n_cut: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")


def build_state(spec: StateSpec):
    """Construct the state described by `spec` (single- or two-mode)."""
    p = spec.params
    fam = spec.family
    if fam == "coherent":
        return make_coherent(p.get("alpha", 0.0), spec.n_cut)
    if fam == "fock":
        return make_fock(int(p.get("n", 0)), spec.n_cut)
    if fam == "ecs":
        return make_cat(p["alpha"], "even", spec.n_cut)
    if fam == "ocs":
        return make_cat(p["alpha"], "odd", spec.n_cut)
    if fam == "yurke-stoler":
        return make_cat(p["alpha"], "yurke-stoler", spec.n_cut)
    if fam == "squeezed-vacuum":
        return make_squeezed(p["xi"], "vacuum", spec.n_cut)
    if fam == "yuen":
        return make_squeezed(p["xi"], "one", spec.n_cut)
    if fam == "pacs":
        return make_pacs(p["alpha"], int(p.get("m", 1)), spec.n_cut)
    if fam == "isospectral":
        return make_isospectral(p["zeta"], int(p.get("base", 1)), spec.n_cut)
    if fam == "pair-coherent":
        return make_two_mode("pair-coherent", p["r"], spec.n_cut)
    if fam == "caves-schumaker":
        return make_two_mode("caves-schumaker", p["r"], spec.n_cut)
    if fam == "product":
        return make_product(build_state(p["a"]), build_state(p["b"]))
    raise ValueError(f"unhandled family {fam!r}")
