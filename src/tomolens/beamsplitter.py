"""The 50:50 lossless beamsplitter with tunable relative phase.

The device takes input modes (a, b) to output modes c = (a - e^{i phi} b)/sqrt(2)
and d = (b + e^{-i phi} a)/sqrt(2).  The state presented at the output ports
is U|in> with U = exp(-K),

    K = (pi/4) (a^dag b e^{i phi} - a b^dag e^{-i phi}),

whose mode relation U a^dag U^dag = A = (a^dag + e^{-i phi} b^dag)/sqrt(2),
U b^dag U^dag = B = (b^dag - e^{i phi} a^dag)/sqrt(2) is pinned down by two
closed forms: a product of coherent states maps to the product
|gamma> x |delta> with gamma = (alpha - e^{i phi} beta)/sqrt(2),
delta = (beta + e^{-i phi} alpha)/sqrt(2), and an even cat through one port
with vacuum through the other produces coefficients proportional to
(1 + (-1)^{n+m}) alpha^{n+m} e^{-i m phi} / sqrt(2^{n+m} n! m!).

K conserves total photon number, so U acts blockwise on the fixed-total
subspaces spanned by |j, T - j>: exact conservation by construction.  phi
enters only through the rotation e^{i phi a^dag a}, so the block is
U_T(phi) = D O_T D^* with D = diag(e^{i phi j}) and O_T = U_T(0) real,
orthogonal and the same for every phi.  O_{T+1} follows from O_T by the
mode relation at phi = 0, A = (a^dag + b^dag)/sqrt(2), B = (b^dag - a^dag)/sqrt(2):
on block T + 1,
|k, T+1-k> = [sqrt(k) a^dag |k-1, T+1-k> + sqrt(T+1-k) b^dag |k, T-k>]/(T+1),
so column k of O_{T+1} is [sqrt(k) A O_T[:, k-1] + sqrt(T+1-k) B O_T[:, k]]/(T+1),
a convex combination, which keeps the recurrence stable (raising one column
at a time with A alone is not: it is off by 1e-11 at T = 40).  Each block is
certified orthogonal (max|O^T O - I| <= 1e-9) when it is built and kept,
read-only, in one process-wide set that grows on demand under a lock, so
concurrent phase points build a cut once.  The blocks up to cut T hold
about 8T^3/3 bytes: 39 KB at T = 23, 4.8 MB at T = 120.

The output basis holds every block up to its truncation whole.  That
truncation is the constructors' certified cut of the input's total-photon
distribution, so it follows the input's probabilities, not their rounding.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import TruncationOverflow
from .fock import TwoModeState, _padded
from .states import _adaptive_cut, _coherent_amplitudes, make_cat, make_product


@dataclass(frozen=True)
class BeamsplitterConfig:
    """Relative phase between reflected and transmitted fields."""

    phi: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")


# O_T for T = 0 .. len - 1, each read-only; appended to under _BLOCKS_LOCK only.
_BLOCKS = [np.ones((1, 1))]
_BLOCKS[0].setflags(write=False)
_BLOCKS_LOCK = threading.Lock()


def _next_block(o: np.ndarray) -> np.ndarray:
    """O_{T+1} = (A O_T a^dag^T + B O_T b^dag^T)/(T + 1) at phi = 0, certified orthogonal to 1e-9.

    a^dag and b^dag map block T to block T + 1, and a^dag^T, b^dag^T weigh
    column k by sqrt(k) and sqrt(T + 1 - k), so column k of the sum is
    sqrt(k) A O_T[:, k-1] + sqrt(T+1-k) B O_T[:, k].
    """
    total = o.shape[0]  # T + 1
    rise = np.sqrt(np.arange(1.0, total + 1.0))
    a_dag, b_dag = np.eye(total + 1, total, k=-1) * rise, np.eye(total + 1, total) * rise[::-1]
    a_out, b_out = (a_dag + b_dag) / np.sqrt(2.0), (b_dag - a_dag) / np.sqrt(2.0)
    block = (a_out @ o @ a_dag.T + b_out @ o @ b_dag.T) / total
    defect = np.max(np.abs(block.T @ block - np.eye(total + 1)))
    if not defect <= 1e-9:
        raise TruncationOverflow(f"beamsplitter block T={total} not orthogonal: defect {defect:.2e}")
    block.setflags(write=False)
    return block


def _blocks(max_total: int) -> list:
    """[O_0, .., O_max_total], building the missing ones once for every thread."""
    if len(_BLOCKS) <= max_total:
        with _BLOCKS_LOCK:
            while len(_BLOCKS) <= max_total:
                _BLOCKS.append(_next_block(_BLOCKS[-1]))
    return _BLOCKS[: max_total + 1]


def _rotation(phi: float, size: int) -> np.ndarray:
    """The diagonal of e^{i phi a^dag a} on levels 0 .. size - 1."""
    return np.exp(1j * phi * np.arange(size))


def block_unitaries(max_total: int, phi: float) -> list:
    """U_T(phi) = D O_T D^*, D = diag(e^{i phi j}), per total-photon block T <= max_total."""
    return [_rotation(phi, len(o))[:, None] * o * _rotation(-phi, len(o)) for o in _blocks(max_total)]


def apply(cfg: BeamsplitterConfig, state: TwoModeState) -> TwoModeState:
    """Send a normalized two-mode state through the beamsplitter.

    Every total-photon block T <= n_cut is evolved as
    e^{i phi j} O_T (e^{-i phi k} c_T), and the output basis |n, m>,
    n, m <= n_cut, holds each of them whole.  n_cut is the constructors'
    rule (states._adaptive_cut) applied to the input's total-photon
    distribution: the input's mass above n_cut - BUFFER_LEVELS is below
    TAIL_TOLERANCE, so neither output mode carries that much in its top
    BUFFER_LEVELS.
    """
    cut = _adaptive_cut(state.total_photon_distribution())
    # Blocks T <= cut read the input only at n, m <= cut; mode a's count is j.
    c_in = _padded(state.amplitudes[: cut + 1, : cut + 1], cut + 1) * _rotation(-cfg.phi, cut + 1)[:, None]
    out = np.zeros_like(c_in)
    for total, o in enumerate(_blocks(cut)):
        j = np.arange(total + 1)
        out[j, total - j] = o @ c_in[j, total - j]
    out *= _rotation(cfg.phi, cut + 1)[:, None]
    result = TwoModeState(out)
    nrm = result.norm()
    if not abs(nrm - 1.0) <= 1e-9:
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
    if kind not in ("ecs-ecs", "ecs-vacuum", "ocs-vacuum"):
        raise ValueError(f"unknown closed-form kind {kind!r}")
    beta = beta if kind == "ecs-ecs" else 0.0  # the even cat at beta = 0 is the vacuum
    reference = make_product(make_cat(alpha, "odd" if kind == "ocs-vacuum" else "even"), make_cat(beta, "even"))
    cut = _adaptive_cut(reference.total_photon_distribution()) if n_cut is None else n_cut
    n = np.arange(cut + 1)
    # 1 + (-1)^{n+m} keeps even totals, 1 - (-1)^{n+m} odd ones.
    parity = 1.0 + (-1.0 if kind == "ocs-vacuum" else 1.0) * (-1.0) ** (n[:, None] + n[None, :])
    rotated_alpha, rotated_beta = np.exp(-1j * phi) * alpha, np.exp(1j * phi) * beta
    # The terms |gamma_+> x |delta_-> and |gamma_-> x |delta_+>, gamma_+- = (alpha +- e^{i phi} beta)/sqrt(2),
    # delta_+- = (e^{-i phi} alpha +- beta)/sqrt(2), each carry their coherent normalization, which sets
    # their relative weight; at beta = 0 they coincide.
    root2 = np.sqrt(2.0)
    amps = parity * sum(np.outer(_coherent_amplitudes((alpha + s * rotated_beta) / root2, cut),
                                 _coherent_amplitudes((rotated_alpha - s * beta) / root2, cut)) for s in (1.0, -1.0))
    return TwoModeState(amps).normalized()
