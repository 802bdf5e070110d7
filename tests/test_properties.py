"""Property checks of the two-mode moment table and the channel layer on random states.

The table checks draw a random pure two-mode state (d <= 8) or a random
positive unit-trace density matrix (d <= 5) and compare the tomogram route
with the Fock oracle, the table's reduced single-mode tables with the
reduced-mode tomogram route, and the two-mode variance with its value on the
oracle table.  The channel checks draw a density matrix (d <= 6) and rates in
[0.1, 3] for each channel and compare the master equation's right-hand side
with its dense kron form, and evolving for t1 then t2 with evolving for t1 + t2.
The block checks reduce the joint tomogram of a random pure state (d <= 8)
or density matrix (d <= 5) one row block at a time, on grids whose point
count is just below, equal to and one above a whole number of blocks, and
compare its mass, entropy and moment block with the stacked tomogram; a
random non-positive Hermitian rho must raise NegativeTomogram, naming the
phase pair, on the blocked and the stacked route alike.
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
from tomolens.errors import NegativeTomogram
from tomolens.fock import TwoModeDensityMatrix, TwoModeState
from tomolens.metrics import _joint_entropy, entropy_two_mode, two_mode_variance
from tomolens.moments import SOURCE_FOCK_ORACLE, hermite_weights, moment_table, two_mode_moment_table
from tomolens.tomography import _BLOCK_ROWS, _joint_blocks, default_grid, tomogram_joint

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
# Grid point counts (odd, as every grid's are) one below two row blocks,
# exactly three (the block height is odd) and one above two.
BLOCK_GRIDS = st.sampled_from([2 * _BLOCK_ROWS - 1, 3 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1])


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


@st.composite
def non_positive_density_matrices(draw):
    # (1 + s)|00><00| - s|10><10| goes negative wherever 2 s X1^2 > 1 + s,
    # at every phase pair; a random traceless Hermitian part of Frobenius
    # norm 1e-3 moves the values far less than that dip.
    d = draw(st.integers(2, 5))
    s = draw(st.floats(0.3, 1.0))
    a = draw(complex_arrays((d * d, d * d)))
    noise = 0.5 * (a + a.conj().T)
    noise -= np.trace(noise) / (d * d) * np.eye(d * d)
    assume(np.linalg.norm(noise) > 0.1)
    mat = 1e-3 * noise / np.linalg.norm(noise)
    mat[0, 0] += 1.0 + s
    mat[d, d] -= s  # row n d + m holds |n, m>: here |1, 0>
    return TwoModeDensityMatrix.from_matrix(mat)


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


def _check_blocked_reductions(obj, theta1, theta2, n_points):
    grid = default_grid(obj, n_points)
    w, u = grid.weights, hermite_weights(grid, 2)
    mass, moments = 0.0, 0.0
    for rows, block in _joint_blocks(obj, theta1, theta2, grid):
        mass += w[rows] @ block @ w
        moments = moments + u[rows].T @ block @ u
    dense = tomogram_joint(obj, theta1, theta2, grid)
    assert abs(mass - w @ dense.values @ w) <= 1e-13
    assert abs(_joint_entropy(obj, theta1, theta2, grid) - entropy_two_mode(dense)) <= 1e-13
    # The H_2 x H_2 entry reaches a few hundred, so the block is compared
    # relative to its largest entry; its (0, 0) entry is the mass, 1.
    reference = u.T @ dense.values @ u
    assert np.max(np.abs(moments - reference)) <= 1e-13 * np.max(np.abs(reference))


@PROPERTY
@given(pure_states(), PHASES, PHASES, BLOCK_GRIDS)
def test_pure_blocked_reductions_match_stacked_tomogram(state, theta1, theta2, n_points):
    _check_blocked_reductions(state, theta1, theta2, n_points)


@PROPERTY
@given(density_matrices(), PHASES, PHASES, BLOCK_GRIDS)
def test_mixed_blocked_reductions_match_stacked_tomogram(rho, theta1, theta2, n_points):
    _check_blocked_reductions(rho, theta1, theta2, n_points)


@PROPERTY
@given(non_positive_density_matrices(), PHASES, PHASES, BLOCK_GRIDS)
def test_non_positive_rho_raises_on_both_routes(rho, theta1, theta2, n_points):
    grid = default_grid(rho, n_points)
    with pytest.raises(NegativeTomogram) as stacked:
        tomogram_joint(rho, theta1, theta2, grid)
    with pytest.raises(NegativeTomogram) as blocked:
        _joint_entropy(rho, theta1, theta2, grid)
    assert f"phase ({theta1:.6g}, {theta2:.6g}): min -" in str(stacked.value)
    assert str(blocked.value) == str(stacked.value)
