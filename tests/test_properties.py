"""Property checks of the two-mode moment table and the channel layer on random states.

The table checks draw a random pure two-mode state (d <= 8) or a random
positive unit-trace density matrix (d <= 5) and compare the tomogram route
with the Fock oracle, the table's reduced single-mode tables with the
reduced-mode tomogram route, and the two-mode variance with its value on the
oracle table.  The channel checks draw a density matrix (d <= 6) and rates in
[0.1, 3] for each channel and compare the master equation's right-hand side
with its dense kron form, and evolving for t1 then t2 with evolving for t1 + t2.
Draws are derandomized and nothing is stored between runs.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra import numpy as hnp

from tomolens.decoherence import AMPLITUDE_DECAY, PHASE_DAMPING, ChannelConfig, _lindblad_rhs, evolve
from tomolens.fock import TwoModeDensityMatrix, TwoModeState
from tomolens.metrics import two_mode_variance
from tomolens.moments import SOURCE_FOCK_ORACLE, moment_table, two_mode_moment_table

from references import composite_lindblad_rhs

# Even without an example database, Hypothesis caches the constants it reads
# from local source files under ./.hypothesis; a temporary home, removed at
# exit, keeps the run from writing into the source tree.
_HOME = tempfile.TemporaryDirectory(prefix="tomolens-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

PROPERTY = settings(max_examples=8, derandomize=True, database=None, deadline=None)
UNIT = st.floats(-1.0, 1.0)
PHASES = st.floats(0.0, np.pi)
RATES = st.floats(0.1, 3.0)
TIMES = st.floats(0.0, 2.0)
CHANNELS = pytest.mark.parametrize("kind", [AMPLITUDE_DECAY, PHASE_DAMPING])


def complex_arrays(shape):
    return hnp.arrays(np.float64, (2, *shape), elements=UNIT).map(lambda a: a[0] + 1j * a[1])


@st.composite
def pure_states(draw):
    d = draw(st.integers(2, 8))
    c = draw(complex_arrays((d, d)))
    assume(np.linalg.norm(c) > 0.1)
    return TwoModeState(c / np.linalg.norm(c))


@st.composite
def density_matrices(draw, max_dim=5):
    d = draw(st.integers(2, max_dim))
    a = draw(complex_arrays((d * d, d * d)))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    assume(np.trace(rho).real > 0.1)
    return TwoModeDensityMatrix.from_matrix(rho / np.trace(rho).real)


def _worst(table, reference):
    assert table.entries.keys() == reference.entries.keys()
    return max(abs(value - reference.get(*key)) for key, value in table.entries.items())


def _check_two_mode_table(obj, theta1, theta2):
    table = two_mode_moment_table(obj, 2)
    oracle = two_mode_moment_table(obj, 2, source=SOURCE_FOCK_ORACLE)
    assert _worst(table, oracle) < 1e-6
    for mode in ("a", "b"):
        assert _worst(table.reduced(mode), moment_table(obj, 2, mode=mode)) < 1e-9
    want = two_mode_variance(oracle, theta1, theta2)
    assert abs(two_mode_variance(table, theta1, theta2) - want) < 1e-6


@PROPERTY
@given(pure_states(), PHASES, PHASES)
def test_pure_two_mode_table_matches_oracle(state, theta1, theta2):
    _check_two_mode_table(state, theta1, theta2)


@PROPERTY
@given(density_matrices(), PHASES, PHASES)
def test_mixed_two_mode_table_matches_oracle(rho, theta1, theta2):
    _check_two_mode_table(rho, theta1, theta2)


@CHANNELS
@PROPERTY
@given(density_matrices(max_dim=6), RATES, RATES)
def test_lindblad_rhs_matches_composite_at_random_rates(kind, rho, rate_c, rate_d):
    cfg = ChannelConfig(kind, rate_c, rate_d)
    reference = TwoModeDensityMatrix.from_matrix(composite_lindblad_rhs(rho, cfg)).entries
    assert np.max(np.abs(_lindblad_rhs(rho, cfg) - reference)) <= 1e-13


@CHANNELS
@PROPERTY
@given(density_matrices(max_dim=6), RATES, RATES, TIMES, TIMES)
def test_channel_semigroup_at_random_rates_and_times(kind, rho, rate_c, rate_d, t1, t2):
    cfg = ChannelConfig(kind, rate_c, rate_d)
    stepped = evolve(evolve(rho, cfg, t1), cfg, t2)
    direct = evolve(rho, cfg, t1 + t2)
    assert np.max(np.abs(stepped.entries - direct.entries)) <= 1e-12
