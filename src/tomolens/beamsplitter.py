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
and O(T^3) per block instead of O(N^6) for the full space.  The output basis
holds every block up to its truncation whole.  That truncation is the
constructors' certified cut of the input's total-photon distribution, so
it follows the input's probabilities, not their rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationOverflow
from .fock import TwoModeState, _padded, unitary_exp
from .states import _adaptive_cut, _coherent_amplitudes, make_cat, make_coherent, make_product


@dataclass(frozen=True)
class BeamsplitterConfig:
    """Relative phase between reflected and transmitted fields."""

    phi: float = 0.0


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
    """exp(-K) per total-photon block, verified unitary to 1e-9 by unitary_exp."""
    return [unitary_exp(-block_generator(total, phi)) for total in range(max_total + 1)]


def apply(cfg: BeamsplitterConfig, state: TwoModeState) -> TwoModeState:
    """Send a normalized two-mode state through the beamsplitter.

    Every total-photon block T <= n_cut is evolved, and the output basis
    |n, m>, n, m <= n_cut, holds each of them whole.  n_cut is the
    constructors' rule (states._adaptive_cut) applied to the input's
    total-photon distribution: the input's mass above n_cut - BUFFER_LEVELS
    is below TAIL_TOLERANCE, so neither output mode carries that much in its
    top BUFFER_LEVELS.
    """
    cut = _adaptive_cut(state.total_photon_distribution())
    # Blocks T <= cut read the input only at n, m <= cut.
    c_in = _padded(state.amplitudes[: cut + 1, : cut + 1], cut + 1)
    out = np.zeros_like(c_in)
    for total, u in enumerate(block_unitaries(cut, cfg.phi)):
        j = np.arange(total + 1)
        out[j, total - j] = u @ c_in[j, total - j]
    result = TwoModeState(out)
    nrm = result.norm()
    if abs(nrm - 1.0) > 1e-9:
        raise TruncationOverflow(f"output norm {nrm!r} lost probability past the truncation")
    return result.normalized()


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
    cut = _adaptive_cut(reference.total_photon_distribution()) if n_cut is None else n_cut
    n = np.arange(cut + 1)
    parity = 1.0 + (-1.0) ** (n[:, None] + n[None, :])
    if kind == "ecs-ecs":
        gamma_p = (alpha + np.exp(1j * phi) * beta) / np.sqrt(2.0)
        gamma_m = (alpha - np.exp(1j * phi) * beta) / np.sqrt(2.0)
        delta_p = (np.exp(-1j * phi) * alpha + beta) / np.sqrt(2.0)
        delta_m = (np.exp(-1j * phi) * alpha - beta) / np.sqrt(2.0)
        # The two terms are |gamma_+> x |delta_-> and |gamma_-> x |delta_+>, each
        # with its coherent normalization, which sets their relative weight.
        amps = parity * (
            np.outer(_coherent_amplitudes(gamma_p, cut), _coherent_amplitudes(delta_m, cut))
            + np.outer(_coherent_amplitudes(gamma_m, cut), _coherent_amplitudes(delta_p, cut))
        )
    else:
        if kind == "ocs-vacuum":
            parity = 2.0 - parity  # (1 - (-1)^{n+m}) keeps odd totals
        gamma = alpha / np.sqrt(2.0)
        delta = np.exp(-1j * phi) * alpha / np.sqrt(2.0)
        amps = parity * np.outer(_coherent_amplitudes(gamma, cut), _coherent_amplitudes(delta, cut))
    return TwoModeState(amps).normalized()

