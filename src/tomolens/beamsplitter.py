"""The 50:50 lossless beamsplitter with tunable relative phase.

The device takes input modes (a, b) to output modes c = (a - e^{i phi} b)/sqrt(2)
and d = (b + e^{-i phi} a)/sqrt(2).  The state presented at the output ports
is obtained by exponentiating the generator

    K = (pi/4) (a^dag b e^{i phi} - a b^dag e^{-i phi})

as exp(-K)|in>; the sign realizes exactly those mode relations, which is
pinned down by two closed forms: a product of coherent states maps to the
product |gamma> x |delta> with gamma = (alpha - e^{i phi} beta)/sqrt(2),
delta = (beta + e^{-i phi} alpha)/sqrt(2), and an even cat through one port
with vacuum through the other produces coefficients proportional to
(1 + (-1)^{n+m}) alpha^{n+m} e^{-i m phi} / sqrt(2^{n+m} n! m!).

K conserves total photon number, so the unitary is built and applied
blockwise on the fixed-total subspaces: exact conservation by construction
and O(T^3) per block instead of O(N^6) for the full space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .errors import TruncationOverflow
from .fock import BUFFER_LEVELS, TAIL_TOLERANCE, TwoModeState
from .metrics import TwoModeSqueezingReport, two_mode_report
from .states import make_cat, make_coherent, make_product


@dataclass(frozen=True)
class BeamsplitterConfig:
    """Relative phase between reflected and transmitted fields, plus an
    optional output truncation override (adaptive when None)."""

    phi: float = 0.0
    n_cut: int | None = None


def block_generator(total: int, phi: float) -> np.ndarray:
    """K restricted to the total-photon block spanned by |j, total - j>."""
    gen = np.zeros((total + 1, total + 1), dtype=complex)
    quarter_pi = 0.25 * np.pi
    for j in range(total):
        # a^dag b |j, T-j> = sqrt((j+1)(T-j)) |j+1, T-j-1>
        amp = quarter_pi * np.sqrt((j + 1.0) * (total - j))
        gen[j + 1, j] += amp * np.exp(1j * phi)
        # a b^dag |j+1, T-j-1> = sqrt((j+1)(T-j)) |j, T-j>
        gen[j, j + 1] -= amp * np.exp(-1j * phi)
    return gen


def block_unitaries(max_total: int, phi: float) -> list:
    """exp(-K) per total-photon block, verified unitary to 1e-9."""
    out = []
    for total in range(max_total + 1):
        u = expm(-block_generator(total, phi))
        defect = np.max(np.abs(u.conj().T @ u - np.eye(total + 1)))
        if defect > 1e-9:
            raise TruncationOverflow(f"block {total} unitary defect {defect:.2e}")
        out.append(u)
    return out


def _required_total(state: TwoModeState) -> int:
    """Largest total-photon block worth evolving.

    The input must have decayed below TAIL_TOLERANCE inside its basis (the
    adequacy guard); the returned extent then goes much deeper, down to the
    1e-24 relative-mass floor, so dropped blocks sit at the rounding level
    and photon-number conservation holds to machine precision.
    """
    dist = state.total_photon_distribution()
    tail = dist.sum() - np.cumsum(dist)
    if not (tail < TAIL_TOLERANCE * dist.sum()).any():
        raise TruncationOverflow("total-photon distribution does not decay inside the basis")
    deep = np.nonzero(tail < 1e-24 * dist.sum())[0]
    return int(deep[0]) if deep.size else int(dist.size - 1)


def apply(cfg: BeamsplitterConfig, state: TwoModeState) -> TwoModeState:
    """Send a normalized two-mode state through the beamsplitter."""
    max_total = _required_total(state)
    out_cut = max_total + BUFFER_LEVELS if cfg.n_cut is None else cfg.n_cut
    if out_cut < max_total:
        raise TruncationOverflow(
            f"n_cut={cfg.n_cut} below the occupied total photon number {max_total}"
        )
    unitaries = block_unitaries(max_total, cfg.phi)
    c_in = state.amplitudes
    out = np.zeros((out_cut + 1, out_cut + 1), dtype=complex)
    for total, u in enumerate(unitaries):
        vec = np.array(
            [c_in[j, total - j] if j <= state.n_cut and total - j <= state.n_cut else 0.0
             for j in range(total + 1)],
            dtype=complex,
        )
        mixed = u @ vec
        for j in range(total + 1):
            out[j, total - j] = mixed[j]
    result = TwoModeState(out)
    nrm = result.norm()
    if abs(nrm - 1.0) > 1e-9:
        raise TruncationOverflow(f"output norm {nrm!r} lost probability past the truncation")
    if cfg.n_cut is None:
        # Drop padding rows/columns whose occupation sits at the rounding
        # floor; downstream four-index tensors scale as (n_cut + 1)^4.
        keep = min(result.top_occupied(floor=1e-26) + BUFFER_LEVELS, out_cut)
        result = TwoModeState(result.amplitudes[: keep + 1, : keep + 1])
    return result.normalized()


def _log_poisson_row(z: complex, count: int) -> np.ndarray:
    """z^n / sqrt(n!) for n = 0..count-1, via logs (no overall constant)."""
    n = np.arange(count)
    if z == 0:
        row = np.zeros(count, dtype=complex)
        row[0] = 1.0
        return row
    mag = np.exp(n * np.log(abs(z)) - 0.5 * gammaln(n + 1.0))
    return mag * np.exp(1j * n * np.angle(z))


def output_closed_form(
    kind: str, alpha: complex, beta: complex = 0.0, phi: float = 0.0, n_cut: int | None = None
) -> TwoModeState:
    """Closed-form beamsplitter outputs for cat-state inputs.

    kind: "ecs-ecs" (even cats through both ports), "ecs-vacuum" or
    "ocs-vacuum" (cat through port A, vacuum through B).  The overall
    normalization is fixed numerically; agreement with apply() on the
    matching product input is the acceptance gate for these formulas.
    """
    kind = kind.lower()
    if kind == "ecs-ecs":
        reference = make_product(make_cat(alpha, "even"), make_cat(beta, "even"))
    elif kind == "ecs-vacuum":
        reference = make_product(make_cat(alpha, "even"), make_coherent(0.0))
    elif kind == "ocs-vacuum":
        reference = make_product(make_cat(alpha, "odd"), make_coherent(0.0))
    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    cut = (_required_total(reference) + BUFFER_LEVELS) if n_cut is None else n_cut
    count = cut + 1
    n = np.arange(count)
    parity = 1.0 + (-1.0) ** (n[:, None] + n[None, :])
    if kind == "ecs-ecs":
        gamma_p = (alpha + np.exp(1j * phi) * beta) / np.sqrt(2.0)
        gamma_m = (alpha - np.exp(1j * phi) * beta) / np.sqrt(2.0)
        delta_p = (np.exp(-1j * phi) * alpha + beta) / np.sqrt(2.0)
        delta_m = (np.exp(-1j * phi) * alpha - beta) / np.sqrt(2.0)
        c_p = np.exp(-(abs(gamma_p) ** 2 + abs(delta_m) ** 2) / 2.0)
        c_m = np.exp(-(abs(gamma_m) ** 2 + abs(delta_p) ** 2) / 2.0)
        amps = parity * (
            c_p * np.outer(_log_poisson_row(gamma_p, count), _log_poisson_row(delta_m, count))
            + c_m * np.outer(_log_poisson_row(gamma_m, count), _log_poisson_row(delta_p, count))
        )
    else:
        if kind == "ocs-vacuum":
            parity = 2.0 - parity  # (1 - (-1)^{n+m}) keeps odd totals
        gamma = alpha / np.sqrt(2.0)
        delta = np.exp(-1j * phi) * alpha / np.sqrt(2.0)
        amps = parity * np.outer(_log_poisson_row(gamma, count), _log_poisson_row(delta, count))
    return TwoModeState(amps).normalized()


@dataclass(frozen=True)
class PhiSweepEntry:
    phi: float
    report: TwoModeSqueezingReport


def phi_sweep_report(input_state: TwoModeState, phis, theta: float) -> list:
    """Beamsplitter output diagnostics across relative phases at fixed theta."""
    entries = []
    for phi in np.atleast_1d(np.asarray(phis, dtype=float)):
        out = apply(BeamsplitterConfig(phi=float(phi)), input_state)
        rep = two_mode_report(out, theta, theta)
        entries.append(PhiSweepEntry(float(phi), rep))
    return entries
