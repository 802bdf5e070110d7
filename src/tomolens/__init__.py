"""Optical-tomogram toolkit for nonclassical states of light.

Builds single- and two-mode states in a truncated Fock basis, evaluates
their optical tomograms, extracts normal-ordered moments and squeezing
diagnostics directly from the tomograms with an independent Fock-space
oracle for every extraction, and follows beamsplitter-generated entangled
states through amplitude-decay and phase-damping channels.
"""

import os as _os

# BLAS threads on top of the scenario pool oversubscribe the cores: on 2
# cores, pinning OpenBLAS to one thread halved the two-mode benchmark's wall
# time, and even the audit, which has no pool, spent twice its wall time in
# cpu time with BLAS threads.  tomolens needs numpy's OpenBLAS alone, which
# reads these variables once, at load, so the pin holds only when tomolens
# imports numpy first; the `tomolens` command and perfbench/worker.py import
# tomolens before numpy.  A caller who set any of the three keeps every one
# of them as set.
if not any(var in _os.environ for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _os.environ["OMP_NUM_THREADS"] = "1"

from .errors import (
    ConfigError,
    DegenerateParameter,
    GridTooNarrow,
    MissingOrder,
    NegativeTomogram,
    NumericalGuard,
    OrderTooHigh,
    ProjectionDefect,
    TomolensError,
    TruncationOverflow,
)
from .fock import (
    BUFFER_LEVELS,
    SingleModeState,
    TwoModeDensityMatrix,
    TwoModeState,
    apply_annihilation,
    apply_creation,
    fidelity_pure,
    fidelity_with_pure,
    hermite_psi_matrix,
    inner,
    psi,
)
from .states import (
    StateSpec,
    build_state,
    make_cat,
    make_coherent,
    make_fock,
    make_isospectral,
    make_pacs,
    make_product,
    make_squeezed,
    make_two_mode,
)
from .tomography import (
    QuadratureGrid,
    Tomogram,
    TwoModeTomogram,
    check_pi_shift,
    default_grid,
    marginal,
    tomogram_joint,
    tomogram_mixed,
    tomogram_pure,
    tomogram_reduced,
    tomogram_two_mode_pure,
)
from .moments import (
    MomentTable,
    moment_table,
    oracle_moment,
    oracle_moment_two_mode,
    two_mode_moment_table,
)
from .metrics import (
    ENTROPY_THRESHOLD,
    LN_PI_E,
    SqueezingReport,
    TwoModeSqueezingReport,
    central_moment,
    entropy,
    entropy_two_mode,
    relative_fluctuation_product,
    squeezing_report,
    two_mode_report,
    two_mode_variance,
    variance,
)
from .beamsplitter import BeamsplitterConfig, apply, output_closed_form
from .decoherence import (
    AMPLITUDE_DECAY,
    PHASE_DAMPING,
    ChannelConfig,
    evolve,
    evolve_amplitude,
    evolve_phase,
    master_equation_residual,
    purity,
)

__version__ = "0.1.0"
