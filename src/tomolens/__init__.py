"""Optical-tomogram toolkit for nonclassical states of light.

Builds single- and two-mode states in a truncated Fock basis, evaluates
their optical tomograms, extracts normal-ordered moments and squeezing
diagnostics directly from the tomograms with an independent Fock-space
oracle for every extraction, and follows beamsplitter-generated entangled
states through amplitude-decay and phase-damping channels.
"""

from .errors import (
    ConfigError,
    DegenerateParameter,
    GridTooNarrow,
    MissingOrder,
    NegativeTomogram,
    OrderTooHigh,
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
    extract_moment,
    extract_moment_two_mode,
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
from .beamsplitter import BeamsplitterConfig, apply, output_closed_form, phi_sweep_report
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
