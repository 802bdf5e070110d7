"""Truncated Fock-basis state carriers, ladder actions, stable Hermite functions
and ln n!, from numpy and the standard library alone.

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

# psi_0 = pi^(-1/4) exp(-x^2/2) is split as a mantissa times 2^floor(t),
# t = -x^2/(2 ln 2).  t is floored at _T_FLOOR, so far below the smallest
# double that no order a table can hold lifts 2^t back, and floor(t) stays
# an int64.  ln 2 = _LN2_HI + _LN2_LO with the low 21 bits of _LN2_HI zero,
# so floor(t) _LN2_HI is exact for |t| < 2^21 and the mantissa
# exp(-x^2/2 - floor(t) ln 2) is as accurate as exp(-x^2/2) itself.
_T_FLOOR = -(2.0**62)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# The exponents e whose 2^e is a double, subnormal 2^-1074 up to 2^1023.
_EXACT_POWERS = (-1074, 1023)


def hermite_psi_matrix(n_max: int, x) -> np.ndarray:
    """Normalized oscillator eigenfunctions psi_n(x) for n = 0 .. n_max.

    psi_n(x) = H_n(x) exp(-x^2/2) / (pi^(1/4) sqrt(2^n n!)) evaluated with the
    eigenfunction recurrence

        psi_{n+1} = x sqrt(2/(n+1)) psi_n - sqrt(n/(n+1)) psi_{n-1},  psi_{-1} = 0,

    never through raw H_n, which overflows double precision near n = 150.
    The iteration carries a per-point binary exponent so that starting values
    like exp(-x^2/2) at x = 50 (far below the smallest normal double) do not
    flush the whole column to zero; psi_n(50) for n ~ 2500 is O(0.1) and is
    recovered correctly.  psi_n(+-inf) is 0 for every n, and a NaN point
    gives a NaN column.

    On an exactly antisymmetric x (x[::-1] == -x bit for bit, as every
    QuadratureGrid.uniform grid is) the recurrence runs on the last
    len(x) - len(x)//2 points only, straight into the output, and the first
    len(x)//2 columns are mirrored from them as psi_n(-x) = (-1)^n psi_n(x).
    That is bit-identical to running on every point: the recurrence only
    multiplies by x and by constants, its exponent reads x^2, and frexp and
    ldexp treat p and -p alike.

    Returns an array of shape (n_max + 1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    half = x.size // 2 if np.array_equal(x[::-1], -x) else 0
    _psi_recurrence(x[half:], out[:, half:])
    if half:
        mirrored = out[:, : x.size - half - 1 : -1]
        out[0::2, :half] = mirrored[0::2]
        np.negative(mirrored[1::2], out=out[1::2, :half])
    return out


def _psi_recurrence(x: np.ndarray, out: np.ndarray) -> None:
    """Write psi_n(x) for n = 0 .. len(out) - 1 into `out` (rows n, one column per point).

    Each point holds psi_n = p_n 2^e, e an int64 array.  It starts from
    p_0 = pi^(-1/4) 2^(t - floor t) and e = floor t, t = -x^2/(2 ln 2).  Every
    `span` steps the pair (p_{n-1}, p_n) is divided by the power of two of
    its larger entry and e takes that power up.  A step multiplies |p| by at
    most sqrt(2)|x| + 1, so `span`, set from the largest finite |x|, keeps
    p below 2^900 between renormalizations.  Powers of two scale exactly,
    so the rows do not depend on where the renormalizations fall.  Each row
    is p_n 2^e, rounded once: a product with scale = 2^e, formed once per
    renormalization, which is exact for -1074 <= e <= 1023 and so rounds as
    ldexp(p_n, e) does; the points outside that range take ldexp itself.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        h = 0.5 * x * x
        e = np.floor(np.maximum(-h / _LN2_HI, _T_FLOOR))
        p_prev, p_cur = np.zeros_like(x), np.pi**-0.25 * np.exp((-h - e * _LN2_HI) - e * _LN2_LO)
        term = np.empty_like(x)
        e = e.astype(np.int64)
        np.ldexp(p_cur, e, out=out[0])
        # A bound on the step growth of at least 2, so it has a positive log2.
        growth = np.sqrt(2.0) * np.max(np.abs(x), initial=0.0, where=np.isfinite(x)) + 2.0
        span = max(1, int(900 // np.log2(growth)))
        # At x = +-inf p_0 is 0; stepping with 0 there keeps every psi_n(+-inf)
        # at 0 instead of inf * 0 = NaN, and leaves every other point as it was.
        step_x = np.where(np.isinf(x), 0.0, x)
        for n in range(out.shape[0] - 1):
            if n % span == 0:
                _, power = np.frexp(np.maximum(np.abs(p_prev), np.abs(p_cur)))
                np.ldexp(p_prev, -power, out=p_prev)
                np.ldexp(p_cur, -power, out=p_cur)
                e += power
                scale = np.ldexp(1.0, e)
                inexact = np.flatnonzero((e < _EXACT_POWERS[0]) | (e > _EXACT_POWERS[1]))
            # p_next = (sqrt(2/(n+1)) x) p_n - sqrt(n/(n+1)) p_{n-1}, formed in p_prev's buffer.
            np.multiply(step_x, math.sqrt(2.0 / (n + 1)), out=term)
            np.multiply(term, p_cur, out=term)
            np.multiply(p_prev, math.sqrt(n / (n + 1.0)), out=p_prev)
            np.subtract(term, p_prev, out=p_prev)
            p_prev, p_cur = p_cur, p_prev
            np.multiply(p_cur, scale, out=out[n + 1])
            if inexact.size:
                out[n + 1, inexact] = np.ldexp(p_cur[inexact], e[inexact])


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


def _top_above_floor(p: np.ndarray) -> int:
    """Highest level whose probability in `p` exceeds the occupancy floor 1e-13 or is NaN (0 if none).

    Every carrier's top_occupied reads it, and default quadrature grids are
    sized from that level.
    """
    idx = np.nonzero(~(p <= 1e-13))[0]
    return int(idx[-1]) if idx.size else 0


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
        """This state, if every amplitude is finite and the tail mass is below TAIL_TOLERANCE."""
        tail = self.tail_mass()
        bad = np.flatnonzero(~np.isfinite(self.amplitudes))
        if tail < TAIL_TOLERANCE and bad.size == 0:
            return self
        if bad.size:
            problem = f"amplitude {self.amplitudes[bad[0]]} at level {bad[0]} is not finite"
        else:
            # Below the reserve the whole basis is tail, and there is no level to quote.
            above, verdict = f" above level {self.n_cut - BUFFER_LEVELS}", "is inadequate"
            if self.n_cut < BUFFER_LEVELS:
                above, verdict = "", f"is below the BUFFER_LEVELS reserve of {BUFFER_LEVELS}"
            problem = f"tail mass {tail:.3e}{above} exceeds {TAIL_TOLERANCE:.0e}; n_cut={self.n_cut} {verdict}"
        raise TruncationOverflow(problem)

    def mean_photon(self) -> float:
        p = np.abs(self.amplitudes) ** 2
        return float(np.dot(np.arange(p.size), p))

    def top_occupied(self) -> int:
        """Highest level occupied above the occupancy floor (0 if none)."""
        return _top_above_floor(np.abs(self.amplitudes) ** 2)

    def padded(self, n_cut: int) -> "SingleModeState":
        if n_cut < self.n_cut:
            raise ValueError("padding cannot shrink the basis")
        return SingleModeState(_padded(self.amplitudes, n_cut + 1))


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
        """Highest level either mode occupies above the occupancy floor (0 if none)."""
        return _top_above_floor(np.maximum(self.mode_probabilities("a"), self.mode_probabilities("b")))

    def total_photon_distribution(self) -> np.ndarray:
        """Probability of total photon number T = n + m, T = 0 .. 2 n_cut, summed over n + m in one pass."""
        p = np.abs(self.amplitudes) ** 2
        n = np.arange(p.shape[0])
        return np.bincount((n[:, None] + n).ravel(), weights=p.ravel(), minlength=2 * self.n_cut + 1)

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
        return float(np.vdot(self.entries, self.entries).real)

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
        """Highest level either mode occupies above the occupancy floor (0 if none)."""
        return _top_above_floor(np.maximum(self.mode_occupations("a"), self.mode_occupations("b")))


def _padded(array: np.ndarray, dim: int) -> np.ndarray:
    """`array` zero-padded at the top of every axis to length `dim`."""
    return np.pad(array, [(0, dim - size) for size in array.shape])


def lowered(c: np.ndarray, counts) -> np.ndarray:
    """a^k applied along each axis of the amplitude array `c`, k = counts[axis], unnormalized.

    Each application sets entry n to sqrt(n+1) c_{n+1} and the top entry to
    0, so a count of at least the axis length gives zeros.  Axis 0 is
    lowered first, then axis 1, and so on.
    """
    out = np.array(c)
    for axis, times in enumerate(counts):
        view = out.swapaxes(axis, -1)
        for _ in range(times):
            view[..., :-1] = np.sqrt(np.arange(1.0, view.shape[-1])) * view[..., 1:]
            view[..., -1] = 0.0
    return out


def apply_annihilation(state: SingleModeState) -> SingleModeState:
    """a|psi>, unnormalized: out_n = sqrt(n+1) c_{n+1}."""
    return SingleModeState(lowered(state.amplitudes, (1,)))


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
    return complex(np.vdot(_padded(s1.amplitudes, n), _padded(s2.amplitudes, n)))


def fidelity_pure(s1: TwoModeState, s2: TwoModeState) -> float:
    """|<s1|s2>|^2 for two-mode pure states (smaller basis zero-padded)."""
    n = max(s1.amplitudes.shape[0], s2.amplitudes.shape[0])
    return float(abs(np.vdot(_padded(s1.amplitudes, n), _padded(s2.amplitudes, n))) ** 2)


def fidelity_with_pure(rho: TwoModeDensityMatrix, state: TwoModeState) -> float:
    """<psi| rho |psi> against a pure reference."""
    d = max(rho.dim, state.amplitudes.shape[0])
    c = _padded(state.amplitudes, d)
    val = np.einsum("nm,nNmM,NM->", c.conj(), _padded(rho.entries, d), c)
    return float(np.real(val))
