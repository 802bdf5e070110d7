"""Constructors for the state catalog.

Single-mode families: coherent, even/odd/Yurke-Stoler cats, squeezed vacuum,
Yuen (squeezed one-photon), m-photon-added coherent, isospectral coherent
states built on a restricted Fock space, and number states.  Two-mode
families: pair coherent, Caves-Schumaker (two-mode squeezed vacuum) and
products of single-mode states.

Every family is built one way: a closed-form amplitude vector, evaluated in
log space on a basis of any size, that _certified cuts, normalizes and
certifies: the top BUFFER_LEVELS of the basis carry less than TAIL_TOLERANCE
of probability.  A given n_cut keeps n_cut + 1 levels.  Otherwise the basis
doubles from 64 levels until its top BUFFER_LEVELS levels hold less than
1e-14 of the mass, and is cut at the smallest adequate level plus the
buffer.  It grows no further than the levels up to MAX_LEVEL that default
grids are sized for; a state that occupies levels above MAX_LEVEL raises
TruncationOverflow, and so does an infinite or NaN scalar, naming itself,
before any basis is built.

FAMILIES is the catalog's one table.  Each entry names a family's scalar
parameter with its type and lower bound, its extra integers with their
defaults and lower bounds, whether it is two-mode, and its constructor;
build_state and the config parser both read it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateParameter, TruncationOverflow
from .fock import (
    BUFFER_LEVELS,
    TAIL_TOLERANCE,
    SingleModeState,
    TwoModeState,
    _padded,
    ln_factorial,
)

# The highest level a state built with the default cut may occupy: default
# quadrature grids are sized for levels up to it (tomography.hermite_weights).
MAX_LEVEL = 10_000


def _finite(name: str, value) -> None:
    """Raise TruncationOverflow naming a constructor scalar that is infinite or NaN: no basis holds its state."""
    if not np.isfinite(value):
        raise TruncationOverflow(f"{name}={value} is not finite, so no truncated basis holds the state")


def _modulus(z) -> float:
    """|z|, or inf where the modulus of a finite complex z overflows a double (Python's abs raises there)."""
    try:
        return abs(complex(z))
    except OverflowError:
        return np.inf


def _adaptive_cut(probabilities: np.ndarray) -> int:
    """Smallest level M with mass above M below TAIL_TOLERANCE, plus buffer."""
    total = probabilities.sum()
    tail = total - np.cumsum(probabilities)
    ok = np.nonzero(tail < TAIL_TOLERANCE * total)[0]
    if ok.size == 0:
        if not np.isfinite(total):
            raise TruncationOverflow(f"the distribution over {probabilities.size} levels holds {total}")
        raise TruncationOverflow(
            f"no level of {probabilities.size} leaves less than {TAIL_TOLERANCE:.0e} of the mass above it"
        )
    return int(ok[0]) + BUFFER_LEVELS


def _certified(amplitudes: Callable[[int], np.ndarray], n_cut: int | None) -> SingleModeState:
    """The state whose first `dim` amplitudes are `amplitudes(dim)`, cut, normalized and certified.

    A given `n_cut` keeps n_cut + 1 levels.  Otherwise the basis doubles from
    64 levels, up to MAX_LEVEL + BUFFER_LEVELS + 1, until its top
    BUFFER_LEVELS levels hold less than 1e-14 of the mass, and is cut at
    _adaptive_cut.
    """
    if n_cut is not None:
        amps = amplitudes(n_cut + 1)
        if not np.any(amps):
            raise TruncationOverflow(f"n_cut={n_cut} keeps no amplitude of the state")
        return SingleModeState(amps).normalized().certify()
    dim, largest = 64, MAX_LEVEL + BUFFER_LEVELS + 1
    while True:
        amps = amplitudes(dim)
        probs = np.abs(amps) ** 2
        if probs[-BUFFER_LEVELS:].sum() < 1e-14 * probs.sum():
            return SingleModeState(amps[: _adaptive_cut(probs) + 1]).normalized().certify()
        if dim == largest:
            raise TruncationOverflow(
                f"state occupies levels above MAX_LEVEL={MAX_LEVEL}, the highest a default grid "
                f"is sized for: {dim} levels do not certify it"
            )
        dim = min(2 * dim, largest)


def _coherent_amplitudes(alpha: complex, n_cut: int) -> np.ndarray:
    """c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) evaluated in log space (empty for n_cut < 0)."""
    n = np.arange(n_cut + 1)
    if alpha == 0:
        return (n == 0).astype(complex)
    try:
        norm_sq = abs(alpha) ** 2
    except OverflowError:
        norm_sq = np.inf
    if not norm_sq < np.inf:
        # |alpha| above ~1.3e154: every amplitude is 0, so the state fails to certify.
        return np.zeros(n.size, dtype=complex)
    mag = np.exp(-0.5 * norm_sq + n * np.log(abs(alpha)) - 0.5 * ln_factorial(n))
    phase = np.exp(1j * n * np.angle(alpha))
    return mag * phase


def make_coherent(alpha: complex, n_cut: int | None = None) -> SingleModeState:
    """Coherent state |alpha>."""
    _finite("alpha", alpha)
    return _certified(lambda dim: _coherent_amplitudes(alpha, dim - 1), n_cut)


def make_fock(n: int, n_cut: int | None = None) -> SingleModeState:
    """Number state |n>."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if n_cut is not None and n_cut < n:
        raise TruncationOverflow(f"n_cut={n_cut} below photon number {n}")
    return _certified(lambda dim: (np.arange(dim) == n).astype(complex), n_cut)


def make_cat(alpha: complex, kind: str = "even", n_cut: int | None = None) -> SingleModeState:
    """Superpositions of |alpha> and |-alpha>.

    kind: "even" (support on even n), "odd" (odd n), or "yurke-stoler"
    for (|alpha> + i|-alpha>)/sqrt(2).  The odd cat is undefined at
    alpha = 0 (0/0 normalization) and raises rather than taking a limit.
    """
    kind = kind.lower()
    if kind not in ("even", "odd", "yurke-stoler"):
        raise ValueError(f"unknown cat kind {kind!r}")
    _finite("alpha", alpha)
    if kind == "odd" and alpha == 0:
        raise DegenerateParameter("odd cat state is undefined at alpha = 0")

    def amplitudes(dim):
        plus = _coherent_amplitudes(alpha, dim - 1)
        minus = _coherent_amplitudes(-alpha, dim - 1)
        if kind == "yurke-stoler":
            return plus + 1j * minus
        amps = plus + minus if kind == "even" else plus - minus
        # Parity support is exact by construction; stamp out rounding dust.
        amps[(1 if kind == "even" else 0) :: 2] = 0.0
        return amps

    return _certified(amplitudes, n_cut)


def make_squeezed(xi: complex, base: str = "vacuum", n_cut: int | None = None) -> SingleModeState:
    """S(xi)|0> (squeezed vacuum) or S(xi)|1> (Yuen state).

    S(xi) = exp[(conj(xi) a^2 - xi a^dag^2)/2].  With xi = r e^{i phi} and
    f = 0 (vacuum base) or 1 (one-photon base),

        c_{2n+f} = (-e^{i phi} tanh r)^n sqrt((2n+f)!) / (2^n n! cosh^{f+1/2} r),

    so the support is exactly the parity of f.
    """
    base = base.lower()
    if base not in ("vacuum", "one"):
        raise ValueError(f"unknown squeezed base {base!r}")
    _finite("xi", xi)
    f = 0 if base == "vacuum" else 1
    if n_cut is not None and n_cut < f:
        raise TruncationOverflow(f"n_cut={n_cut} below the state's lowest level {f}")
    r = _modulus(xi)

    def amplitudes(dim):
        amps = np.zeros(dim, dtype=complex)
        if r == 0:
            amps[f] = 1.0
            return amps
        if not r < np.inf:
            # A finite xi whose modulus overflows leaves every amplitude 0, so the state fails to certify.
            return amps
        n = np.arange(amps[f::2].size)
        # ln cosh r = logaddexp(r, -r) - ln 2 stays finite where cosh r overflows.  Above
        # r ~ 9e307 its 2r and (f + 1/2) ln cosh r overflow: logmag is then -inf, every
        # amplitude 0, and the state fails to certify.
        with np.errstate(over="ignore"):
            logmag = (
                n * np.log(np.tanh(r)) + 0.5 * ln_factorial(2 * n + f) - n * np.log(2.0) - ln_factorial(n)
                - (f + 0.5) * (np.logaddexp(r, -r) - np.log(2.0))
            )
        amps[f::2] = np.exp(logmag) * (-1.0) ** n * np.exp(1j * n * np.angle(xi))
        return amps

    return _certified(amplitudes, n_cut)


def make_pacs(alpha: complex, m: int, n_cut: int | None = None) -> SingleModeState:
    """m-photon-added coherent state: a^dag^m |alpha>, normalized."""
    if m < 0:
        raise ValueError("m must be non-negative")
    _finite("alpha", alpha)
    if n_cut is not None and n_cut < m:
        raise TruncationOverflow(f"n_cut={n_cut} below added photon number {m}")

    mod = _modulus(alpha)

    def amplitudes(dim):
        amps = np.zeros(dim, dtype=complex)
        n = np.arange(dim - m)
        if alpha == 0:
            amps[m:] = n == 0
        elif mod < np.inf:  # a finite alpha whose modulus overflows leaves every amplitude 0
            # c_{n+m} ~ alpha^n sqrt((n+m)!)/n!  (overall constant fixed by normalization);
            # logmag[0] = ln(m!)/2 >= 0, so the initial 0 only serves a basis below level m.
            logmag = n * np.log(mod) + 0.5 * ln_factorial(n + m) - ln_factorial(n)
            amps[m:] = np.exp(logmag - logmag.max(initial=0.0)) * np.exp(1j * n * np.angle(alpha))
        return amps

    return _certified(amplitudes, n_cut)


def make_isospectral(zeta: complex, base: int = 1, n_cut: int | None = None) -> SingleModeState:
    """Displacement-type coherent state of the restricted space built on |base>.

    exp(zeta a_i^dag - conj(zeta) a_i)|base> with a_i the deformed
    annihilation operator sqrt(n - base)|n-1><n|; an eigenstate of a_i with
    eigenvalue zeta, with no support below |base>.  In the restricted space
    the displacement is exact, so c_{base+n} are the coherent amplitudes
    exp(-|zeta|^2/2) zeta^n / sqrt(n!).
    """
    if base < 1:
        raise ValueError("base must be at least 1")
    _finite("zeta", zeta)
    if n_cut is not None and n_cut < base:
        raise TruncationOverflow(f"n_cut={n_cut} below the state's lowest level {base}")

    def amplitudes(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[base:] = _coherent_amplitudes(zeta, dim - base - 1)
        return amps

    return _certified(amplitudes, n_cut)


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
    _finite("r", r)

    def diagonal(dim):
        n = np.arange(dim)
        if r == 0:
            return (n == 0).astype(float)
        if kind == "caves-schumaker":
            return np.exp(n * np.log(np.tanh(r))) * (-1.0) ** n
        logmag = n * np.log(r) - ln_factorial(n)
        return np.exp(logmag - logmag.max())

    # Each mode's distribution is |diag|^2, so certifying the diagonal certifies
    # both modes; the 2-d state is normalized as a whole.
    cut = _certified(diagonal, n_cut).n_cut
    return TwoModeState(np.diag(diagonal(cut + 1))).normalized()


def pair_coherent_normalization(r: float) -> float:
    """1/sqrt(I0(2r))."""
    return float(1.0 / np.sqrt(np.i0(2.0 * r)))


def make_product(state_a: SingleModeState, state_b: SingleModeState) -> TwoModeState:
    """Direct product c_{nm} = a_n b_m, padded to a common square basis."""
    dim = max(state_a.amplitudes.size, state_b.amplitudes.size)
    return TwoModeState(np.outer(_padded(state_a.amplitudes, dim), _padded(state_b.amplitudes, dim)))


@dataclass(frozen=True)
class Family:
    """One catalog family: its scalar parameter, its extra integers, its mode count and constructor.

    `key` names the scalar and `kind` is its type (complex, float or int);
    a scalar below `low` is out of range.  `extras` maps each extra integer
    to its (default, lower bound).  `build(params, n_cut)` makes the state.
    The product family has no scalar: its params are the two factors'
    StateSpecs under "a" and "b", and a given n_cut cuts both factors.
    """

    key: str | None
    kind: type | None
    low: float | None
    build: Callable
    extras: dict = field(default_factory=dict)
    two_mode: bool = False


def _factor(spec: StateSpec, cut: int | None):
    """One factor of a product state, cut at the product's `cut` when that is given."""
    return build_state(spec if cut is None else replace(spec, n_cut=cut))


# The catalog.  Each constructor is looked up by name when it is called, so a
# rebound module attribute (a tracer's wrapper) is the one that runs.
FAMILIES = {
    "coherent": Family("alpha", complex, None, lambda p, cut: make_coherent(p["alpha"], cut)),
    "fock": Family("n", int, 0, lambda p, cut: make_fock(int(p["n"]), cut)),
    "ecs": Family("alpha", complex, None, lambda p, cut: make_cat(p["alpha"], "even", cut)),
    "ocs": Family("alpha", complex, None, lambda p, cut: make_cat(p["alpha"], "odd", cut)),
    "yurke-stoler": Family("alpha", complex, None, lambda p, cut: make_cat(p["alpha"], "yurke-stoler", cut)),
    "squeezed-vacuum": Family("xi", complex, None, lambda p, cut: make_squeezed(p["xi"], "vacuum", cut)),
    "yuen": Family("xi", complex, None, lambda p, cut: make_squeezed(p["xi"], "one", cut)),
    "pacs": Family("alpha", complex, None, lambda p, cut: make_pacs(p["alpha"], p["m"], cut), {"m": (1, 0)}),
    "isospectral": Family(
        "zeta", complex, None, lambda p, cut: make_isospectral(p["zeta"], p["base"], cut), {"base": (1, 1)}
    ),
    "pair-coherent": Family(
        "r", float, 0.0, lambda p, cut: make_two_mode("pair-coherent", p["r"], cut), two_mode=True
    ),
    "caves-schumaker": Family(
        "r", float, 0.0, lambda p, cut: make_two_mode("caves-schumaker", p["r"], cut), two_mode=True
    ),
    "product": Family(
        None, None, None, lambda p, cut: make_product(_factor(p["a"], cut), _factor(p["b"], cut)), two_mode=True
    ),
}


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a catalog state, the unit of CLI configs."""

    family: str
    params: dict = field(default_factory=dict)
    n_cut: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")


def build_state(spec: StateSpec):
    """Construct the state described by `spec` (single- or two-mode); an absent extra takes its default."""
    family = FAMILIES[spec.family]
    extras = {name: int(spec.params.get(name, default)) for name, (default, _) in family.extras.items()}
    return family.build({**spec.params, **extras}, spec.n_cut)
