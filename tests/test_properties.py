"""Property checks of the two-mode moment table and the channel layer on random states.

A catalog single-mode state, drawn over every single-mode family of
states.FAMILIES with its scalar and extras, must give a moment table of
every order up to K_MAX_DEFAULT on its bandwidth grid (tomography.moment_grid,
never above DEFAULT_POINTS points) that matches the Fock oracle within the
scenarios' ORACLE_TOLERANCE.
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
compare its mass, entropy and moment block with the stacked tomogram; the
same checks run on states of definite parity (c_nm zero on one parity of
n + m, rho zero on odd n + n' + m + m'), whose mass and entropy are reduced
over half the rows.  A random pure state's moment blocks, contracted over
two phase sets of different sizes, must match the blocks of its density
matrix summed over the row blocks of each joint tomogram.  A random pure
state's joint tomogram at
(theta1 + pi, theta2 + pi) must mirror the one at (theta1, theta2).  A
random non-positive Hermitian rho must raise NegativeTomogram, naming the
phase pair, on the blocked and the stacked route alike.  The mixed-tomogram
checks draw a density matrix (d <= 5) and compare its joint tomogram with
the eigenmode sum of density_eigenmodes and with the unfolded full-pair form
Q^T Re(rho~) Q, and each reduced-mode row with the joint tomogram's marginal.
The CSV cell formatter must give "%.17g" % v byte for byte on finite
doubles drawn as floats and as raw 64-bit patterns.
Draws are derandomized and nothing is stored between runs.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra import numpy as hnp

from tomolens.decoherence import AMPLITUDE_DECAY, PHASE_DAMPING, ChannelConfig, _lindblad_rhs, evolve
from tomolens.errors import NegativeTomogram
from tomolens.fock import TwoModeDensityMatrix, TwoModeState, hermite_psi_matrix
from tomolens.metrics import _joint_mass_entropy, entropy_two_mode, two_mode_variance
from tomolens.moments import K_MAX_DEFAULT, SOURCE_FOCK_ORACLE, moment_table, two_mode_moment_table
from tomolens.scenarios import ORACLE_TOLERANCE
from tomolens.states import FAMILIES, StateSpec, build_state
from tomolens.tomography import (
    DEFAULT_POINTS,
    _BLOCK_ROWS,
    _PURE_BLOCK_ROWS,
    _csv_lines,
    _definite_parity,
    _joint_blocks,
    _pure_moment_blocks,
    default_grid,
    hermite_weights,
    marginal,
    moment_grid,
    tomogram_joint,
    tomogram_mixed,
    tomogram_reduced,
)

from references import composite_lindblad_rhs, eigenmode_tomogram, full_pair_tomogram

# Even without an example database, Hypothesis caches the constants it reads
# from local source files under ./.hypothesis; a temporary home, removed at
# exit, keeps the run from writing into the source tree.
_HOME = tempfile.TemporaryDirectory(prefix="tomolens-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

PROPERTY = settings(max_examples=8, derandomize=True, database=None, deadline=None)
UNIT = st.floats(-1.0, 1.0)
PHASES = st.floats(0.0, np.pi)
RATES = st.floats(0.1, 3.0)
FINITE_DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
).filter(np.isfinite)
TIMES = st.floats(0.0, 2.0)
CHANNELS = pytest.mark.parametrize("kind", [AMPLITUDE_DECAY, PHASE_DAMPING])
# Grid point counts (odd, as every grid's are) one below two row blocks,
# exactly three (the block height is odd) and one above two.  The pure
# route's height divides the density-matrix route's, so these counts sit on
# block edges of both.
assert _BLOCK_ROWS % _PURE_BLOCK_ROWS == 0
BLOCK_GRIDS = st.sampled_from([2 * _BLOCK_ROWS - 1, 3 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1])


# The largest scalar magnitude drawn per family key; squeezing up to 2 reaches
# top level 580, where the bandwidth grid meets its DEFAULT_POINTS cap.
SCALAR_MAGNITUDES = {"alpha": 3.0, "xi": 2.0, "zeta": 3.0, "n": 60}


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


def _odd_total(d):
    """Whether n + m is odd, over c[n, m]."""
    odd = np.arange(d) % 2 == 1
    return odd[:, None] ^ odd


@st.composite
def parity_pure_states(draw):
    # c_nm restricted to one parity of n + m, as the beamsplitter outputs of
    # even and odd coherent states are.
    d = draw(st.integers(2, 8))
    c = draw(complex_arrays((d, d))) * (_odd_total(d) == draw(st.booleans()))
    assume(np.linalg.norm(c) > 0.1)
    return TwoModeState(c / np.linalg.norm(c))


@st.composite
def parity_density_matrices(draw):
    # rho = A A^dag with A block diagonal over the parity of n + m, so
    # rho[n, n', m, m'] vanishes on every odd n + n' + m + m'.
    d = draw(st.integers(2, 5))
    sector = _odd_total(d).ravel()
    a = draw(complex_arrays((d * d, d * d))) * (sector[:, None] == sector)
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


@st.composite
def catalog_single_mode_states(draw):
    name = draw(st.sampled_from([name for name, family in FAMILIES.items() if not family.two_mode]))
    family = FAMILIES[name]
    if family.kind is int:
        value = draw(st.integers(family.low, SCALAR_MAGNITUDES[family.key]))
    else:
        magnitude = draw(st.floats(0.0, SCALAR_MAGNITUDES[family.key]))
        value = magnitude * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    assume(not (name == "ocs" and value == 0))
    extras = {extra: draw(st.integers(low, low + 4)) for extra, (_, low) in family.extras.items()}
    return build_state(StateSpec(name, {family.key: value, **extras}))


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


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(catalog_single_mode_states(), st.integers(0, K_MAX_DEFAULT))
@example(build_state(StateSpec("squeezed-vacuum", {"xi": 2.0})), K_MAX_DEFAULT)  # top level 580: the capped grid
def test_single_mode_table_on_the_bandwidth_grid_matches_oracle(state, max_order):
    grid = moment_grid(state)
    assert grid.n_points <= DEFAULT_POINTS
    table = moment_table(state, max_order)
    assert table.entries == moment_table(state, max_order, grid=grid).entries
    assert _worst(table, moment_table(state, max_order, source=SOURCE_FOCK_ORACLE)) < ORACLE_TOLERANCE


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
    moments = sum(u[rows].T @ block @ u for rows, _, _, block, _ in _joint_blocks(obj, theta1, theta2, grid))
    mass, entropy = _joint_mass_entropy(obj, theta1, theta2, grid)
    dense = tomogram_joint(obj, theta1, theta2, grid)
    assert abs(mass - w @ dense.values @ w) <= 1e-13
    assert abs(entropy - entropy_two_mode(dense)) <= 1e-13
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
@given(parity_pure_states(), PHASES, PHASES, BLOCK_GRIDS)
def test_definite_parity_pure_blocked_reductions_match_stacked_tomogram(state, theta1, theta2, n_points):
    assert _definite_parity(state)
    _check_blocked_reductions(state, theta1, theta2, n_points)


@PROPERTY
@given(parity_density_matrices(), PHASES, PHASES, BLOCK_GRIDS)
def test_definite_parity_mixed_blocked_reductions_match_stacked_tomogram(rho, theta1, theta2, n_points):
    assert _definite_parity(rho)
    _check_blocked_reductions(rho, theta1, theta2, n_points)


@PROPERTY
@given(pure_states(), st.lists(PHASES, min_size=1, max_size=4), st.lists(PHASES, min_size=1, max_size=4), BLOCK_GRIDS)
def test_pure_moment_blocks_match_the_density_matrix_route(state, thetas1, thetas2, n_points):
    assume(len(thetas1) != len(thetas2))
    grid = default_grid(state, n_points)
    psis = hermite_psi_matrix(state.n_cut, grid.x)
    blocks = _pure_moment_blocks(state, thetas1, thetas2, psis, grid, 2)
    rho, u = TwoModeDensityMatrix.from_pure(state), hermite_weights(grid, 2)
    reference = np.array(
        [
            [sum(u[rows].T @ w @ u for rows, _, _, w, _ in _joint_blocks(rho, th1, th2, grid)) for th2 in thetas2]
            for th1 in thetas1
        ]
    )
    assert blocks.shape == (len(thetas1), len(thetas2), 3, 3)
    # Relative to the largest entry, as in _check_blocked_reductions.
    assert np.max(np.abs(blocks - reference)) <= 1e-13 * np.max(np.abs(reference))


@PROPERTY
@given(pure_states(), PHASES, PHASES, BLOCK_GRIDS)
def test_pi_shift_of_both_phases_mirrors_the_joint_tomogram(state, theta1, theta2, n_points):
    # psi_n(-X) = (-1)^n psi_n(X) holds bit for bit on the antisymmetric
    # grid, so W at (theta1 + pi, theta2 + pi) is W(-X1, -X2) up to the
    # rounding of the phase factors.
    grid = default_grid(state, n_points)
    values = tomogram_joint(state, theta1, theta2, grid).values
    shifted = tomogram_joint(state, theta1 + np.pi, theta2 + np.pi, grid).values
    assert np.max(np.abs(shifted - values[::-1, ::-1])) <= 1e-14 * values.max()


@PROPERTY
@given(non_positive_density_matrices(), PHASES, PHASES, BLOCK_GRIDS)
def test_non_positive_rho_raises_on_both_routes(rho, theta1, theta2, n_points):
    grid = default_grid(rho, n_points)
    with pytest.raises(NegativeTomogram) as stacked:
        tomogram_joint(rho, theta1, theta2, grid)
    with pytest.raises(NegativeTomogram) as blocked:
        _joint_mass_entropy(rho, theta1, theta2, grid)
    assert f"phase ({theta1:.6g}, {theta2:.6g}): min -" in str(stacked.value)
    assert str(blocked.value) == str(stacked.value)


@PROPERTY
@given(density_matrices(), PHASES, PHASES, BLOCK_GRIDS)
def test_mixed_tomogram_matches_eigenmode_sum(rho, theta1, theta2, n_points):
    grid = default_grid(rho, n_points)
    values = tomogram_mixed(rho, theta1, theta2, grid).values
    assert np.max(np.abs(values - eigenmode_tomogram(rho, theta1, theta2, grid))) <= 1e-13


@PROPERTY
@given(density_matrices(), PHASES, PHASES, BLOCK_GRIDS)
def test_mixed_tomogram_matches_full_pair_form(rho, theta1, theta2, n_points):
    grid = default_grid(rho, n_points)
    expected = full_pair_tomogram(rho, theta1, theta2, grid)
    values = tomogram_mixed(rho, theta1, theta2, grid).values
    assert np.max(np.abs(values - expected)) <= 1e-14 * expected.max()


@PROPERTY
@given(density_matrices(), PHASES, PHASES, BLOCK_GRIDS)
def test_reduced_rows_match_joint_marginals(rho, theta1, theta2, n_points):
    grid = default_grid(rho, n_points)
    joint = tomogram_mixed(rho, theta1, theta2, grid)
    for mode, theta in (("a", theta1), ("b", theta2)):
        row = tomogram_reduced(rho, mode, [theta], grid).values[0]
        assert np.max(np.abs(row - marginal(joint, mode).values[0])) <= 1e-12


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(FINITE_DOUBLES, min_size=1, max_size=40))
def test_csv_cells_match_percent_formatting(values):
    assert _csv_lines(np.array(values).reshape(-1, 1)).splitlines() == ["%.17g" % v for v in values]
