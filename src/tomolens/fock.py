"""Truncated Fock-basis state carriers, ladder actions, stable Hermite functions
and the two special functions the rest of the package needs: ln n! and the
exponential of an anti-Hermitian generator, both from numpy and the standard
library alone.

Everything downstream (tomograms, moment extraction, the beamsplitter and the
decoherence channels) is built on the representations defined here.  All
objects are immutable after construction and every operation is a pure
function returning a new object, so parameter sweeps can run concurrently
without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import TruncationOverflow

# Levels reserved at the top of every truncated basis so ladder and
# mode-mixing operations do not spill significant amplitude.
BUFFER_LEVELS = 10

# Tail mass at which a truncation is declared inadequate.
TAIL_TOLERANCE = 1e-10

_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100
_LOG_RESCALE = np.log(1e200)


def hermite_psi_matrix(n_max: int, x) -> np.ndarray:
    """Normalized oscillator eigenfunctions psi_n(x) for n = 0 .. n_max.

    psi_n(x) = H_n(x) exp(-x^2/2) / (pi^(1/4) sqrt(2^n n!)) evaluated with the
    eigenfunction recurrence

        psi_{n+1} = x sqrt(2/(n+1)) psi_n - sqrt(n/(n+1)) psi_{n-1},

    never through raw H_n, which overflows double precision near n = 150.
    The iteration carries a per-point exponent so that starting values like
    exp(-x^2/2) at x = 50 (far below the smallest normal double) do not
    flush the whole column to zero; psi_n(50) for n ~ 2500 is O(0.1) and is
    recovered correctly.

    Returns an array of shape (n_max + 1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    npts = x.size
    out = np.empty((n_max + 1, npts))

    # Scaled recurrence: true psi_n = p_n * exp(log_scale), per point.
    log_scale = -0.5 * x * x
    p_prev = np.full(npts, np.pi ** -0.25)
    out[0] = _descale(p_prev, log_scale)
    if n_max == 0:
        return out
    p_cur = np.sqrt(2.0) * x * p_prev
    out[1] = _descale(p_cur, log_scale)
    for n in range(1, n_max):
        p_next = np.sqrt(2.0 / (n + 1)) * x * p_cur - np.sqrt(n / (n + 1.0)) * p_prev
        p_prev, p_cur = p_cur, p_next
        big = np.abs(p_cur) > _RESCALE_HI
        if big.any():
            p_cur[big] *= 1e-200
            p_prev[big] *= 1e-200
            log_scale[big] += _LOG_RESCALE
        small = (np.abs(p_cur) < _RESCALE_LO) & (np.abs(p_cur) > 0.0) & (np.abs(p_prev) < _RESCALE_LO)
        if small.any():
            p_cur[small] *= 1e200
            p_prev[small] *= 1e200
            log_scale[small] -= _LOG_RESCALE
        out[n + 1] = _descale(p_cur, log_scale)
    return out


def _descale(p: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """p * exp(log_scale) without intermediate overflow or spurious zeros."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        direct = p * np.exp(log_scale)
        # exp(log_scale) alone can overflow while the product is tame.
        risky = log_scale > 700.0
        if risky.any():
            mag = np.where(p == 0.0, -np.inf, np.log(np.abs(np.where(p == 0.0, 1.0, p))))
            direct = np.where(risky, np.sign(p) * np.exp(mag + log_scale), direct)
    return direct


def psi(n: int, x: float) -> float:
    """Single normalized eigenfunction value psi_n(x)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return float(hermite_psi_matrix(n, [float(x)])[n, 0])


@cache
def _ln_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.setflags(write=False)
    return table


def ln_factorial(n) -> np.ndarray:
    """ln n! for non-negative integers n (any array shape).

    Values come from math.lgamma through a table that grows in powers of
    two, so a call costs one indexing pass, not one Python call per element.
    """
    n = np.asarray(n)
    if n.size and n.min() < 0:
        raise ValueError("ln n! needs non-negative n")
    top = int(n.max(initial=0))
    return _ln_factorial_table(max(64, 1 << top.bit_length()))[n]


def unitary_exp(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for an anti-Hermitian matrix gen.

    i gen is Hermitian, so with i gen = V diag(lam) V^dag the exponential is
    V diag(e^{-i lam}) V^dag.  eigh reads one triangle of i gen only: gen must
    be anti-Hermitian, and callers check it or build it so.
    """
    lam, vecs = np.linalg.eigh(1j * gen)
    return (vecs * np.exp(-1j * lam)) @ vecs.conj().T


def annihilation_matrix(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-level truncated basis; a[n, n+1] = sqrt(n+1)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


@dataclass(frozen=True)
class SingleModeState:
    """Pure single-mode state c_n over the truncated basis |0> .. |n_cut>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d vector")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_cut(self) -> int:
        return self.amplitudes.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "SingleModeState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return SingleModeState(self.amplitudes / nrm)

    def tail_mass(self) -> float:
        """Probability above level n_cut - BUFFER_LEVELS (the truncation certificate)."""
        start = max(self.n_cut - BUFFER_LEVELS + 1, 0)
        return float(np.sum(np.abs(self.amplitudes[start:]) ** 2))

    def certify(self) -> "SingleModeState":
        tail = self.tail_mass()
        if tail >= TAIL_TOLERANCE:
            raise TruncationOverflow(
                f"tail mass {tail:.3e} above level {self.n_cut - BUFFER_LEVELS} exceeds "
                f"{TAIL_TOLERANCE:.0e}; n_cut={self.n_cut} is inadequate"
            )
        return self

    def mean_photon(self) -> float:
        p = np.abs(self.amplitudes) ** 2
        return float(np.dot(np.arange(p.size), p))

    def top_occupied(self) -> int:
        """Highest level with probability above 1e-13 (0 if none)."""
        p = np.abs(self.amplitudes) ** 2
        idx = np.nonzero(p > 1e-13)[0]
        return int(idx[-1]) if idx.size else 0

    def padded(self, n_cut: int) -> "SingleModeState":
        if n_cut < self.n_cut:
            raise ValueError("padding cannot shrink the basis")
        amps = np.zeros(n_cut + 1, dtype=complex)
        amps[: self.amplitudes.size] = self.amplitudes
        return SingleModeState(amps)


@dataclass(frozen=True)
class TwoModeState:
    """Pure two-mode state c_{nm} over a product truncated basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1] or amps.size == 0:
            raise ValueError("amplitudes must be a square matrix c[n, m]")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_cut(self) -> int:
        return self.amplitudes.shape[0] - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "TwoModeState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return TwoModeState(self.amplitudes / nrm)

    def mode_probabilities(self, mode: str) -> np.ndarray:
        p = np.abs(self.amplitudes) ** 2
        return p.sum(axis=1) if mode == "a" else p.sum(axis=0)

    def top_occupied(self) -> int:
        """Highest level either mode occupies above 1e-13 (0 if none)."""
        pa = self.mode_probabilities("a")
        pb = self.mode_probabilities("b")
        occ = np.nonzero((pa > 1e-13) | (pb > 1e-13))[0]
        return int(occ[-1]) if occ.size else 0

    def total_photon_distribution(self) -> np.ndarray:
        """Probability of total photon number T = n + m, T = 0 .. 2 n_cut."""
        p = np.abs(self.amplitudes) ** 2
        dist = np.zeros(2 * self.n_cut + 1)
        for total in range(dist.size):
            dist[total] = np.trace(p[:, ::-1], offset=self.n_cut - total)
        return dist

    def schmidt_values(self) -> np.ndarray:
        return np.linalg.svd(self.amplitudes, compute_uv=False)


@dataclass(frozen=True)
class TwoModeDensityMatrix:
    """Mixed two-mode state as the four-index tensor rho[n, n', m, m'].

    Index convention follows rho = sum rho_{n n' m m'} |n; m><n'; m'| with
    n, n' labelling the first mode and m, m' the second.  The constructor
    takes ownership of a complex array that owns its data: it is kept, not
    copied, and made read-only.  A view is copied, so its source stays as it was.
    """

    entries: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.entries, dtype=complex)
        if t.ndim != 4 or len(set(t.shape)) != 1:
            raise ValueError("entries must be a four-index tensor with equal axes")
        t = t if t.base is None else t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "entries", t)

    @classmethod
    def from_pure(cls, state: TwoModeState) -> "TwoModeDensityMatrix":
        c = state.amplitudes
        return cls(np.einsum("nm,NM->nNmM", c, c.conj()))

    @property
    def n_cut(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def as_matrix(self) -> np.ndarray:
        """Composite-index matrix <n m| rho |n' m'> with row index n*dim + m."""
        d = self.dim
        return self.entries.transpose(0, 2, 1, 3).reshape(d * d, d * d)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "TwoModeDensityMatrix":
        d = int(round(np.sqrt(mat.shape[0])))
        return cls(mat.reshape(d, d, d, d).transpose(0, 2, 1, 3))

    def trace(self) -> float:
        return float(np.real(np.einsum("nnmm->", self.entries)))

    def purity(self) -> float:
        # Tr(rho^2) = ||rho||_F^2 for Hermitian rho.
        return float(np.sum(np.abs(self.entries) ** 2))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.transpose(1, 0, 3, 2).conj())))

    def validate(self) -> "TwoModeDensityMatrix":
        herm = self.hermiticity_defect()
        if herm > 1e-12:
            raise ValueError(f"density matrix not Hermitian: defect {herm:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr!r} differs from 1 beyond 1e-10")
        pur = self.purity()
        if not (0.0 < pur <= 1.0 + 1e-10):
            raise ValueError(f"purity {pur!r} outside (0, 1]")
        return self

    def mode_occupations(self, mode: str) -> np.ndarray:
        diag = np.real(np.einsum("nnmm->nm", self.entries))
        return diag.sum(axis=1) if mode == "a" else diag.sum(axis=0)

    def top_occupied(self) -> int:
        """Highest level either mode occupies above 1e-13 (0 if none)."""
        pa = self.mode_occupations("a")
        pb = self.mode_occupations("b")
        occ = np.nonzero((pa > 1e-13) | (pb > 1e-13))[0]
        return int(occ[-1]) if occ.size else 0


def apply_annihilation(state: SingleModeState) -> SingleModeState:
    """a|psi>, unnormalized: out_n = sqrt(n+1) c_{n+1}."""
    c = state.amplitudes
    out = np.zeros_like(c)
    out[:-1] = np.sqrt(np.arange(1.0, c.size)) * c[1:]
    return SingleModeState(out)


def apply_creation(state: SingleModeState) -> SingleModeState:
    """a^dagger|psi>, unnormalized: out_n = sqrt(n) c_{n-1}.

    The top component would leave the basis; if the amplitude lost that way
    is significant relative to the result, the truncation is inadequate and
    the call fails rather than silently dropping probability.
    """
    c = state.amplitudes
    out = np.zeros_like(c)
    out[1:] = np.sqrt(np.arange(1.0, c.size)) * c[:-1]
    lost = c.size * abs(c[-1]) ** 2
    kept = float(np.sum(np.abs(out) ** 2))
    if lost > TAIL_TOLERANCE * max(kept, 1.0):
        raise TruncationOverflow(
            f"raising would drop squared amplitude {lost:.3e} past n_cut={state.n_cut}"
        )
    return SingleModeState(out)


def inner(s1: SingleModeState, s2: SingleModeState) -> complex:
    """Sesquilinear inner product <s1|s2>; the shorter vector is zero-padded."""
    n = max(s1.amplitudes.size, s2.amplitudes.size)
    a = s1.padded(n - 1).amplitudes if s1.amplitudes.size < n else s1.amplitudes
    b = s2.padded(n - 1).amplitudes if s2.amplitudes.size < n else s2.amplitudes
    return complex(np.vdot(a, b))


def fidelity_pure(s1: TwoModeState, s2: TwoModeState) -> float:
    """|<s1|s2>|^2 for two-mode pure states (smaller basis zero-padded)."""
    n = max(s1.amplitudes.shape[0], s2.amplitudes.shape[0])
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    a[: s1.amplitudes.shape[0], : s1.amplitudes.shape[1]] = s1.amplitudes
    b[: s2.amplitudes.shape[0], : s2.amplitudes.shape[1]] = s2.amplitudes
    return float(abs(np.vdot(a, b)) ** 2)


def fidelity_with_pure(rho: TwoModeDensityMatrix, state: TwoModeState) -> float:
    """<psi| rho |psi> against a pure reference."""
    d = max(rho.dim, state.amplitudes.shape[0])
    c = np.zeros((d, d), dtype=complex)
    c[: state.amplitudes.shape[0], : state.amplitudes.shape[1]] = state.amplitudes
    t = np.zeros((d, d, d, d), dtype=complex)
    s = rho.dim
    t[:s, :s, :s, :s] = rho.entries
    val = np.einsum("nm,nNmM,NM->", c.conj(), t, c)
    return float(np.real(val))
