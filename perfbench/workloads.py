"""Seeded workload definitions: each workload is a list of operations.

An operation is one ``tomolens run`` scenario config, or one ``tomolens
audit``.  The seed draws sweep values, phases and time grids from fixed,
narrow ranges; point counts, phase counts and grid sizes never depend on it,
so run time and memory stay comparable across seeds.

This module imports nothing from tomolens: the benchmark process writes the
configs, and the measured process parses them.
"""

from __future__ import annotations

import math
import random

PHI_VALUES = f"0.0,{math.pi / 2!r}"


def _r(x: float) -> str:
    return repr(float(x))


def _sweep(rng, start_lo, start_hi, width, count=9):
    start = rng.uniform(start_lo, start_hi)
    return {"param_start": _r(start), "param_stop": _r(start + width), "param_count": str(count)}


def single_mode(rng: random.Random) -> list:
    """Catalog sweeps plus one 181-phase x 2001-point tomogram map."""
    def theta():
        return _r(rng.uniform(0.0, math.pi))

    return [
        # theta = 0 keeps the squeezed-vacuum entropy law ln(pi e)/2 - r exact.
        ("entropy-squeezed", {"scenario": "entropy-sweep", "family": "squeezed-vacuum",
                              "theta": "0.0", **_sweep(rng, 0.20, 0.22, 0.6)}),
        ("entropy-ecs", {"scenario": "entropy-sweep", "family": "ecs", "theta": theta(),
                         **_sweep(rng, 0.50, 0.52, 1.0)}),
        ("variance-yuen", {"scenario": "variance-sweep", "family": "yuen", "theta": theta(),
                           **_sweep(rng, 0.10, 0.12, 0.5)}),
        ("variance-ocs", {"scenario": "variance-sweep", "family": "ocs", "theta": theta(),
                          **_sweep(rng, 0.50, 0.52, 1.0)}),
        ("higher-order-pacs", {"scenario": "higher-order-sweep", "family": "pacs", "m": "1",
                               "theta": theta(), **_sweep(rng, 0.30, 0.32, 1.0)}),
        ("higher-order-isospectral", {"scenario": "higher-order-sweep", "family": "isospectral",
                                      "base": "1", "theta": theta(), **_sweep(rng, 0.30, 0.32, 1.0)}),
        ("rfp", {"scenario": "rfp", "family_1": "squeezed-vacuum", "xi_1": _r(rng.uniform(0.48, 0.52)),
                 "family_2": "ecs", "alpha_2": _r(rng.uniform(0.98, 1.02)), "theta_count": "181"}),
        ("map-ecs", {"scenario": "tomogram", "family": "ecs", "alpha": _r(rng.uniform(1.18, 1.22)),
                     "theta_count": "181", "output": "map.csv"}),
    ]


# Input amplitudes for the '<state>-vacuum' beamsplitter inputs.  The
# truncation of a beamsplitter output jumps erratically with alpha (it is set
# where amplitudes fall below 1e-26), and channel evolution and mixed
# tomograms cost d^5 to d^6, so the seed picks among values whose outputs
# share one truncation at phi = 0 and pi/2 (checked by the tests).
BS_ALPHAS = {
    "ecs-vacuum": (0.55, 0.555, 0.56, 0.565, 0.57, 0.575, 0.58, 0.585),
    "ocs-vacuum": (0.6075, 0.61, 0.6125, 0.615, 0.62, 0.63, 0.635, 0.65),
    "pacs-vacuum": (0.835, 0.8425, 0.845, 0.855, 0.865, 0.87),
}
# The slice map holds every phase's full 1201 x 1201 joint tomogram alive
# (about 11 MB each); 61 phases put its peak well above the sweeps', and it
# runs first so that peak is reached in a fresh heap.
MAP_PHASES = 61


def two_mode(rng: random.Random) -> list:
    """A pair-coherent slice map, then beamsplitter sweeps at phi = 0 and pi/2."""
    ops = [("map-pair-coherent", {"scenario": "tomogram", "family": "pair-coherent",
                                  "r": _r(rng.uniform(0.98, 1.02)), "theta_count": str(MAP_PHASES),
                                  "theta2": _r(rng.uniform(0.0, math.pi)),
                                  "x2": _r(rng.uniform(0.5, 1.5)), "output": "slice.csv"})]
    for kind in ("ecs-vacuum", "ocs-vacuum", "pacs-vacuum"):
        alpha = _r(rng.choice(BS_ALPHAS[kind]))
        ops.append((f"bs-{kind}", {"scenario": "beamsplitter-sweep", "input": kind,
                                   "param_start": alpha, "param_stop": alpha, "param_count": "1",
                                   "phi_values": PHI_VALUES, "theta": _r(rng.uniform(0.0, math.pi))}))
    return ops


def decoherence(rng: random.Random) -> list:
    """Amplitude decay of an ecs-vacuum output, phase damping of an ocs-vacuum output."""
    ops = []
    for name, kind, channel in (("amplitude-ecs", "ecs-vacuum", "amplitude-decay"),
                                ("phase-ocs", "ocs-vacuum", "phase-damping")):
        ops.append((name, {"scenario": "decoherence-run", "input": kind,
                           "alpha": _r(rng.choice(BS_ALPHAS[kind])), "phi": "0.0",
                           "channel": channel, "time_count": "25", "entropy_time_count": "3",
                           "time_min": _r(rng.uniform(1e-3, 2e-3)),
                           "time_max": _r(rng.uniform(16.0, 24.0)),
                           "theta": _r(rng.uniform(0.0, math.pi))}))
    return ops


def audit(rng: random.Random) -> list:
    """The frozen invariant battery; the seed does not change it."""
    return [("audit", None)]


WORKLOADS = {
    "single-mode": single_mode,
    "two-mode": two_mode,
    "decoherence": decoherence,
    "audit": audit,
}


def operations(workload: str, seed: int) -> list:
    """[(name, config dict or None for the audit)] for one workload and seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def config_text(config: dict) -> str:
    """A config dict as the flat key = value text `tomolens run` reads."""
    return "".join(f"{key} = {value}\n" for key, value in config.items())
