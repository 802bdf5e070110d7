"""Exact time evolution under amplitude decay and phase damping.

Amplitude decay (each output mode coupled to its own zero-temperature
reservoir) has the closed-form solution

    rho_{n n' l l'}(t) = e^{-gamma_{n n' l l'} t} sum_{r,p}
        sqrt(C(n+r,r) C(n'+r,r) C(l+p,p) C(l'+p,p))
        (1 - e^{-2 gc t})^r (1 - e^{-2 gd t})^p rho_{(n+r)(n'+r)(l+p)(l'+p)}(0)

with gamma_{n n' l l'} = gc (n + n') + gd (l + l').  The sums terminate at
the initial state's support edge, so the channel itself introduces no
truncation error.  Phase damping multiplies each element by
e^{-(kc (n-n')^2 + kd (m-m')^2) t}: diagonals are exactly invariant and the
trace is exactly preserved.

Both solutions are validated against the underlying master equations by a
first-order finite-difference residual, which doubles as the check that the
phase-damping rate constants in the solution are the master-equation ones.
Its right-hand side costs O(d^4): the jump operators are built from
annihilation_matrix, and each is applied through its one nonzero Fock
diagonal, one pass per mode, with nothing taken from the solutions above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import TwoModeDensityMatrix, annihilation_matrix, ln_factorial

AMPLITUDE_DECAY = "amplitude-decay"
PHASE_DAMPING = "phase-damping"
# Entries of the decay maps below 2^-511 are set to zero.  Each entry of rho(t)
# sums one map entry per mode times an entry of rho(0), and the product of two
# kept map entries is at least 2^-1022, a normal double.  Without the floor,
# large t leaves subnormal entries in rho(t) that stall every later product
# with it: the amplitude-decayed ecs(0.55) x vacuum output at t = 20 held 2326
# subnormal float parts, against 302 with it, and its joint entropy took
# 8.2 ms against 4.1 ms (one BLAS thread).
_WEIGHT_FLOOR = 2.0**-511


@dataclass(frozen=True)
class ChannelConfig:
    """Channel kind and per-mode coupling rates."""

    kind: str
    rate_c: float = 1.0
    rate_d: float = 1.0

    def __post_init__(self):
        if self.kind not in (AMPLITUDE_DECAY, PHASE_DAMPING):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not (0 < self.rate_c < np.inf and 0 < self.rate_d < np.inf):
            raise ValueError(f"channel rates must be positive and finite, got {self.rate_c}, {self.rate_d}")


def default_time_grid(n_points: int = 201, t_min: float = 1e-3, t_max: float = 20.0) -> np.ndarray:
    """Log-spaced instants for plot-ready decoherence runs."""
    return np.logspace(np.log10(t_min), np.log10(t_max), n_points)


def _decay_matrices(dim: int, gamma: float, t: float) -> np.ndarray:
    """M[k, i, j] = w_{j-i}[i] w_{j-i}[i+k] for j >= i, else 0.

    w_r[n] = e^{-gamma n t} sqrt(C(n+r, r)) x^{r/2}, x = 1 - e^{-2 gamma t}, is
    zero where n + r >= dim.  Entries of M below _WEIGHT_FLOOR are set to
    zero.  Only the leading (dim - k)^2 block of M[k] is the map of Fock
    diagonal k; the rest is never read.
    """
    n = np.arange(dim)
    r = n[:, None]
    x = -np.expm1(-2.0 * gamma * t)  # accurate at small t
    binom = np.exp(0.5 * (ln_factorial(n + r) - ln_factorial(r) - ln_factorial(n)))
    w = np.where(n + r < dim, np.exp(-gamma * n * t) * binom * x ** (r / 2.0), 0.0)
    k, i, j = np.ogrid[:dim, :dim, :dim]
    r = np.maximum(j - i, 0)
    mats = np.where(j >= i, w[r, i] * w[r, np.minimum(i + k, dim - 1)], 0.0)
    mats[mats < _WEIGHT_FLOOR] = 0.0
    return mats


def _decay_rows(src: np.ndarray, dst: np.ndarray, mats: np.ndarray) -> None:
    """Amplitude decay of the mode whose (ket, bra) pair indexes the rows.

    src and dst are distinct (d^2, d^2) arrays with row n d + n', and mats
    is that mode's _decay_matrices.  Each Fock diagonal k = n' - n maps on
    its own: its d - |k| rows (n, n + |k|) or (n + |k|, n) step by d + 1
    from row |k| or |k| d, and dst[rows] = M_|k| @ src[rows].  The complex
    entries are viewed as float64 pairs, so each diagonal is one real GEMM,
    written straight into dst's rows.
    """
    dim = mats.shape[0]
    src, dst = src.view(np.float64), dst.view(np.float64)
    for k in range(dim):
        size = dim - k
        for start in (k,) if k == 0 else (k, k * dim):
            rows = slice(start, start + size * (dim + 1), dim + 1)
            np.matmul(mats[k, :size, :size], src[rows], out=dst[rows])


def evolve_amplitude(rho0: TwoModeDensityMatrix, cfg: ChannelConfig, t: float) -> TwoModeDensityMatrix:
    """Closed-form amplitude-decay evolution of both modes to time t.

    Two d^4 buffers serve both modes: one stage, and the result's tensor,
    which first holds the transposed stage.  The result owns its data, so the
    density matrix keeps it without a further copy.  Equal rates share one
    set of decay maps.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0.0:
        return rho0
    d = rho0.dim
    mats_c = _decay_matrices(d, cfg.rate_c, t)
    mats_d = mats_c if cfg.rate_d == cfg.rate_c else _decay_matrices(d, cfg.rate_d, t)
    stage = np.empty((d * d, d * d), dtype=complex)
    _decay_rows(rho0.entries.reshape(d * d, d * d), stage, mats_c)
    # The second mode indexes the columns: decay the rows of the transpose
    # back into stage, then transpose into the result's own buffer.
    out = np.empty((d, d, d, d), dtype=complex)
    columns = out.reshape(d * d, d * d)
    np.copyto(columns, stage.T)
    _decay_rows(columns, stage, mats_d)
    np.copyto(out, stage.reshape(d, d, d, d).transpose(2, 3, 0, 1))
    return TwoModeDensityMatrix(out)


def evolve_phase(rho0: TwoModeDensityMatrix, cfg: ChannelConfig, t: float) -> TwoModeDensityMatrix:
    """Phase-damping evolution: off-diagonal Fock coherences decay, diagonals persist.

    Each slab rho[n] is scaled by the product of the two modes' real factors
    in one complex pass, so no d^4 temporary is made.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    n = np.arange(rho0.dim)
    diff_sq = (n[:, None] - n[None, :]) ** 2
    factor_c = np.exp(-cfg.rate_c * diff_sq * t)
    factor_d = np.exp(-cfg.rate_d * diff_sq * t)
    out = np.empty_like(rho0.entries)
    for k in range(rho0.dim):
        np.multiply(rho0.entries[k], factor_c[k, :, None, None] * factor_d, out=out[k])
    return TwoModeDensityMatrix(out)


def evolve(rho0: TwoModeDensityMatrix, cfg: ChannelConfig, t: float) -> TwoModeDensityMatrix:
    if cfg.kind == AMPLITUDE_DECAY:
        return evolve_amplitude(rho0, cfg, t)
    return evolve_phase(rho0, cfg, t)


def purity(rho: TwoModeDensityMatrix) -> float:
    """Tr(rho^2)."""
    return rho.purity()


def mean_total_photon(rho: TwoModeDensityMatrix) -> float:
    """<a^dag a> + <b^dag b>."""
    n = np.arange(rho.dim)
    return float(np.dot(n, rho.mode_occupations("a")) + np.dot(n, rho.mode_occupations("b")))


def _lindblad_rhs(rho: TwoModeDensityMatrix, cfg: ChannelConfig) -> np.ndarray:
    """Right-hand side of the master equation on the tensor rho[n, n', m, m'].

    The jump operator L (a, or a^dag a) is built from annihilation_matrix and
    its one nonzero Fock diagonal L[n, n + k] = l_n (k = 1 or 0) read off that
    matrix, so L^dag L is diagonal, g_n, and each mode's dissipator on its
    (ket, bra) axes is

        2 l_n conj(l_n') rho_{(n+k)(n'+k)} - (g_n + g_n') rho_{n n'}:

    one shifted, scaled pass per mode plus one scaling of rho, O(d^4) in all,
    with nothing taken from the closed-form solutions.
    """
    a = annihilation_matrix(rho.dim)
    op = a if cfg.kind == AMPLITUDE_DECAY else a.conj().T @ a
    (k,) = {j - i for i, j in zip(*np.nonzero(op))} or {0}  # raises unless L has one nonzero diagonal
    l, g = np.diagonal(op, k), np.diagonal(op.conj().T @ op)
    d, ten = rho.dim, rho.entries
    jump, loss = 2.0 * np.outer(l, l.conj()), g[:, None] + g[None, :]
    out = np.empty_like(ten)
    for n in range(d):  # one slab out[n] at a time, so the temporaries stay in cache
        out[n] = ten[n] * (-cfg.rate_c * loss[n, :, None, None] - cfg.rate_d * loss)
        if n < d - k:
            out[n, : d - k] += cfg.rate_c * jump[n, :, None, None] * ten[n + k, k:]
        out[n, :, : d - k, : d - k] += cfg.rate_d * jump * ten[n, :, k:, k:]
    return out


def master_equation_residual(rho0: TwoModeDensityMatrix, cfg: ChannelConfig) -> float:
    """Max-norm defect of [evolve(rho0, h) - rho0]/h against the Lindblad form, h = 1e-6.

    Taken slab by slab along the first index, so no d^4 temporary is made.
    """
    h = 1e-6
    evolved, rhs, ten = evolve(rho0, cfg, h).entries, _lindblad_rhs(rho0, cfg), rho0.entries
    return max(float(np.max(np.abs((evolved[n] - ten[n]) / h - rhs[n]))) for n in range(rho0.dim))
