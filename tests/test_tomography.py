import io

import numpy as np
import pytest

from tomolens import decoherence, tomography
from tomolens.beamsplitter import BeamsplitterConfig, apply
from tomolens.decoherence import AMPLITUDE_DECAY, PHASE_DAMPING, ChannelConfig, evolve
from tomolens.errors import GridTooNarrow, NegativeTomogram
from tomolens.fock import TwoModeDensityMatrix, hermite_psi_matrix
from tomolens.metrics import band_peaks
from tomolens.states import make_cat, make_coherent, make_pacs, make_product, make_squeezed, make_two_mode
from tomolens.tomography import (
    QuadratureGrid,
    TwoModeTomogram,
    _two_mode_pure_slice,
    _write_rows,
    check_pi_shift,
    default_grid,
    density_eigenmodes,
    marginal,
    tomogram_joint,
    tomogram_mixed,
    tomogram_pure,
    tomogram_reduced,
    tomogram_to_csv,
    tomogram_two_mode_pure,
    two_mode_tomogram_to_csv,
)


def decohered_output(kind, t=0.3):
    out = apply(BeamsplitterConfig(0.0), make_product(make_cat(0.6, "even"), make_coherent(0.0)))
    return evolve(TwoModeDensityMatrix.from_pure(out), ChannelConfig(kind), t)


def test_grid_integrates_vacuum_density_exactly():
    grid = QuadratureGrid.uniform(8.0, 801)
    density = np.exp(-grid.x**2) / np.sqrt(np.pi)
    assert abs(grid.integrate(density) - 1.0) < 1e-10


def test_grid_requires_odd_point_count():
    with pytest.raises(ValueError):
        QuadratureGrid(np.linspace(-1, 1, 4), np.ones(4))


def test_vacuum_tomogram_is_phase_independent_gaussian():
    vac = make_coherent(0.0)
    tomo = tomogram_pure(vac, [0.0, 0.9, 2.2])
    center = tomo.grid.x.size // 2
    for row in tomo.values:
        assert row[center] == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-12)
        assert row[center] == pytest.approx(0.564190, abs=1e-6)
    assert np.max(np.abs(tomo.values[0] - tomo.values[2])) < 1e-12


def test_coherent_tomogram_is_displaced_gaussian():
    alpha = 1.0 / np.sqrt(2.0)
    tomo = tomogram_pure(make_coherent(alpha), [0.0])
    x = tomo.grid.x
    expected = np.exp(-((x - 1.0) ** 2)) / np.sqrt(np.pi)
    np.testing.assert_allclose(tomo.values[0], expected, atol=1e-9)


def test_per_theta_normalization():
    tomo = tomogram_pure(make_squeezed(1.0), np.linspace(0, np.pi, 12, endpoint=False))
    assert tomo.normalization_defect() < 1e-8


def test_ecs_structure_single_ridge_then_fringes():
    # theta = 0: one dominant ridge; theta = pi/2: symmetric interference
    # pattern with zeros at sqrt(2) alpha X = pi/2 and a dominant central
    # peak flanked by weak side lobes.
    alpha = 1.0 / np.sqrt(2.0)
    tomo = tomogram_pure(make_cat(alpha, "even"), [0.0, np.pi / 2])
    assert len(band_peaks(tomo.values[0], tomo.grid.x)) == 1
    row = tomo.values[1]
    np.testing.assert_allclose(row, row[::-1], atol=1e-12)
    zero_idx = np.argmin(np.abs(tomo.grid.x - np.pi / 2))
    assert row[zero_idx] < 1e-4 * row.max()
    side = band_peaks(row, tomo.grid.x, floor_frac=1e-3)
    assert len(side) == 3  # central peak plus two weak interference lobes
    assert np.argmax(row) == row.size // 2


def test_large_alpha_cats_have_identical_tomograms():
    # The three alpha = sqrt(10) cats differ only in the phase of the
    # parity fringes near theta = pi/2 (cos^2 vs sin^2 interference, an
    # O(1) pointwise difference at any alpha), so the coincidence is
    # asserted pointwise away from the fringe window and after averaging
    # over one fringe period everywhere.
    alpha = np.sqrt(10.0)
    thetas = np.linspace(0.0, np.pi, 19)
    grid = QuadratureGrid.uniform(12.0, 2401)
    maps = [
        tomogram_pure(make_cat(alpha, kind), thetas, grid).values
        for kind in ("even", "odd", "yurke-stoler")
    ]
    outside = np.abs(thetas - np.pi / 2) >= 0.65
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.max(np.abs(maps[a][outside] - maps[b][outside])) < 1e-3

    step = grid.x[1] - grid.x[0]
    sigma = np.pi / (np.sqrt(2.0) * alpha)  # one fringe period
    half = int(np.ceil(4 * sigma / step))
    offsets = np.arange(-half, half + 1) * step
    kernel = np.exp(-(offsets**2) / (2 * sigma**2))
    kernel /= kernel.sum()
    smoothed = [
        np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, m) for m in maps
    ]
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.max(np.abs(smoothed[a] - smoothed[b])) < 1e-3


@pytest.mark.parametrize(
    "state",
    [
        make_coherent(0.0),
        make_cat(1.0 / np.sqrt(2.0), "even"),
        make_pacs(1.0 / np.sqrt(2.0), 3),
    ],
)
def test_pi_shift_symmetry(state):
    thetas = np.linspace(0.0, np.pi, 6, endpoint=False)
    tomo = tomogram_pure(state, np.concatenate([thetas, thetas + np.pi]))
    report = check_pi_shift(tomo)
    assert report.pairs_checked == 6
    assert report.max_deviation < 1e-9


def test_pi_shift_requires_pairs():
    tomo = tomogram_pure(make_coherent(0.0), [0.0, 0.4])
    with pytest.raises(ValueError):
        check_pi_shift(tomo)


def test_grid_too_narrow_raises():
    with pytest.raises(GridTooNarrow):
        tomogram_pure(make_coherent(2.0), [0.0], QuadratureGrid.uniform(2.0, 201))


def test_two_mode_vacuum_tomogram():
    pair = make_product(make_coherent(0.0), make_coherent(0.0))
    joint = tomogram_two_mode_pure(pair, 0.0, 0.0)
    expected = np.outer(
        np.exp(-joint.grid1.x**2) / np.sqrt(np.pi), np.exp(-joint.grid2.x**2) / np.sqrt(np.pi)
    )
    np.testing.assert_allclose(joint.values, expected, atol=1e-12)


def test_product_tomogram_factorizes():
    left = make_cat(0.8, "even")
    right = make_coherent(0.5)
    pair = make_product(left, right)
    joint = tomogram_two_mode_pure(pair, 0.3, 0.7)
    t1 = tomogram_pure(left.padded(pair.n_cut), [0.3], joint.grid1)
    t2 = tomogram_pure(right.padded(pair.n_cut), [0.7], joint.grid2)
    np.testing.assert_allclose(joint.values, np.outer(t1.values[0], t2.values[0]), atol=1e-10)


def test_two_mode_normalization():
    joint = tomogram_joint(make_two_mode("caves-schumaker", 1.0), 0.4, 1.3)
    assert joint.normalization_defect() < 1e-7


def test_mixed_tomogram_matches_pure_projector():
    pair = make_product(make_cat(0.9, "even"), make_coherent(0.3))
    rho = TwoModeDensityMatrix.from_pure(pair)
    grid = default_grid(pair)
    pure = tomogram_two_mode_pure(pair, 0.2, 1.1, grid)
    mixed = tomogram_mixed(rho, 0.2, 1.1, grid)
    np.testing.assert_allclose(mixed.values, pure.values, atol=1e-12)


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DECAY])
def test_mixed_tomogram_matches_eigenmode_sum(kind):
    # Reference: sum_k lambda_k |amplitude of eigenmode k|^2 from the
    # spectral decomposition of rho.
    rho = decohered_output(kind)
    grid = default_grid(rho)
    psis = hermite_psi_matrix(rho.n_cut, grid.x)
    weights, modes = density_eigenmodes(rho)
    n = np.arange(rho.dim)
    for theta1, theta2 in ((0.0, 0.0), (0.4, 1.1)):
        expected = np.zeros((grid.x.size, grid.x.size))
        for lam, c in zip(weights, modes):
            phased = c * np.exp(-1j * theta1 * n)[:, None] * np.exp(-1j * theta2 * n)[None, :]
            expected += lam * np.abs(psis.T @ phased @ psis) ** 2
        direct = tomogram_mixed(rho, theta1, theta2, grid).values
        assert np.max(np.abs(direct - expected)) <= 1e-13


def test_pure_joint_tomogram_matches_complex_contraction():
    # Reference: the complex product |psi^T c~ psi|^2, on the default grid and on a wider, coarser one.
    state = apply(BeamsplitterConfig(0.3), make_product(make_cat(0.9, "even"), make_coherent(0.5)))
    default = default_grid(state)
    n = np.arange(state.amplitudes.shape[0])
    for grid in (default, QuadratureGrid.uniform(default.half_width + 1.5, 901)):
        psis = hermite_psi_matrix(state.n_cut, grid.x)
        for theta1, theta2 in ((0.0, 0.0), (0.4, 1.1)):
            phased = state.amplitudes * np.exp(-1j * theta1 * n)[:, None] * np.exp(-1j * theta2 * n)[None, :]
            expected = np.abs(psis.T @ phased @ psis) ** 2
            values = tomogram_two_mode_pure(state, theta1, theta2, grid).values
            assert np.max(np.abs(values - expected)) <= 1e-15 * expected.max()


def full_pair_products(obj, grid):
    """Q[(n, n'), j] = psi_n(x_j) psi_n'(x_j) over all d^2 pairs (the unfolded form)."""
    psis = hermite_psi_matrix(obj.n_cut, grid.x)
    return (psis[:, None, :] * psis[None, :, :]).reshape(psis.shape[0] ** 2, -1)


def phase_matrix(dim, theta):
    n = np.arange(dim)
    return np.exp(-1j * np.multiply.outer(theta, n[:, None] - n[None, :]))


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DECAY])
def test_folded_contractions_match_full_pair_form(kind):
    # Reference: Q^T Re(rho~) Q and Re(rho~_a) Q over every (n, n') pair,
    # against the contractions folded onto n <= n', on the default grid and
    # on a wider, coarser one.
    rho = decohered_output(kind)
    d = rho.dim
    default = default_grid(rho)
    for grid in (default, QuadratureGrid.uniform(default.half_width + 1.5, 901)):
        q = full_pair_products(rho, grid)
        for theta1, theta2 in ((0.0, 0.0), (0.4, 1.1)):
            phased = rho.entries * phase_matrix(d, theta1)[:, :, None, None] * phase_matrix(d, theta2)
            expected = q.T @ phased.real.reshape(d * d, d * d) @ q
            values = tomogram_mixed(rho, theta1, theta2, grid).values
            assert np.max(np.abs(values - expected)) <= 1e-14 * expected.max()
        thetas = np.array([0.0, 0.7, 2.0])
        for mode in ("a", "b"):
            reduced = np.einsum("nNmm->nN" if mode == "a" else "nnmM->mM", rho.entries)
            expected = (reduced * phase_matrix(d, thetas)).real.reshape(thetas.size, d * d) @ q
            values = tomogram_reduced(rho, mode, thetas, grid).values
            assert np.max(np.abs(values - expected)) <= 1e-14 * expected.max()


@pytest.mark.parametrize("mode", ["a", "b"])
@pytest.mark.parametrize("source", ["caves-schumaker", "phase-damped"])
def test_reduced_tomogram_matches_joint_marginal(source, mode):
    if source == "caves-schumaker":
        obj = make_two_mode("caves-schumaker", 1.0)
    else:
        obj = decohered_output(PHASE_DAMPING)
    grid = default_grid(obj)
    thetas = [0.3, 1.2]
    reduced = tomogram_reduced(obj, mode, thetas, grid)
    for theta, row in zip(thetas, reduced.values):
        pair = (theta, 0.7) if mode == "a" else (0.7, theta)
        joint = tomogram_joint(obj, pair[0], pair[1], grid)
        assert np.max(np.abs(row - marginal(joint, mode).values[0])) <= 1e-12


@pytest.mark.parametrize("route", ["joint", "reduced"])
def test_non_physical_density_matrix_raises(route):
    # 1.5 |00><00| - 0.5 |10><10|: unit trace, Hermitian, not positive.  Its
    # tomogram goes negative for |X1| > sqrt(3/2); the guard must raise
    # rather than zero those values.
    entries = np.zeros((4, 4, 4, 4), dtype=complex)
    entries[0, 0, 0, 0] = 1.5
    entries[1, 1, 0, 0] = -0.5
    rho = TwoModeDensityMatrix(entries)
    with pytest.raises(NegativeTomogram, match=r"phase \(?0\.4"):
        if route == "joint":
            tomogram_mixed(rho, 0.4, 1.1)
        else:
            tomogram_reduced(rho, "a", [0.4])


def test_diagonal_density_matrix_is_phase_independent():
    dim = 5
    entries = np.zeros((dim,) * 4, dtype=complex)
    weights = np.linspace(1.0, 2.0, dim * dim).reshape(dim, dim)
    weights /= weights.sum()
    for n in range(dim):
        for m in range(dim):
            entries[n, n, m, m] = weights[n, m]
    rho = TwoModeDensityMatrix(entries).validate()
    grid = default_grid(rho)
    base = tomogram_mixed(rho, 0.0, 0.0, grid)
    other = tomogram_mixed(rho, 1.3, 2.4, grid)
    assert np.max(np.abs(base.values - other.values)) < 1e-9


def test_marginal_of_product_equals_factor():
    left = make_cat(0.8, "even")
    right = make_coherent(0.5)
    pair = make_product(left, right)
    joint = tomogram_two_mode_pure(pair, 0.3, 0.7)
    kept = marginal(joint, "a")
    factor = tomogram_pure(left.padded(pair.n_cut), [0.3], joint.grid1)
    np.testing.assert_allclose(kept.values[0], factor.values[0], atol=1e-9)
    assert abs(joint.grid1.integrate(kept.values[0]) - 1.0) < 1e-8


def test_marginal_independent_of_traced_phase():
    state = make_two_mode("caves-schumaker", 1.0)
    grid = default_grid(state)
    m1 = marginal(tomogram_joint(state, 0.4, 0.0, grid), "a")
    m2 = marginal(tomogram_joint(state, 0.4, 1.9, grid), "a")
    assert np.max(np.abs(m1.values - m2.values)) < 1e-8


def test_caves_schumaker_marginal_is_theta_independent():
    state = make_two_mode("caves-schumaker", 1.0)
    grid = default_grid(state)
    m1 = marginal(tomogram_joint(state, 0.0, 0.0, grid), "a")
    m2 = marginal(tomogram_joint(state, 1.2, 0.0, grid), "a")
    assert np.max(np.abs(m1.values - m2.values)) < 1e-8


def test_tomogram_row_lookup_and_csv(tmp_path):
    tomo = tomogram_pure(make_coherent(0.5), [0.0, 1.0])
    row = tomo.row(1.0)
    assert row.shape == tomo.grid.x.shape
    with pytest.raises(KeyError):
        tomo.row(0.123)
    path = tmp_path / "t.csv"
    tomogram_to_csv(tomo, path, comment="unit test")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "X"
    assert len(lines) == 2 + tomo.grid.x.size


def test_two_mode_tomogram_csv_slice(tmp_path):
    joint = tomogram_joint(make_two_mode("pair-coherent", 0.6), 0.2, 0.9)
    path = tmp_path / "joint.csv"
    two_mode_tomogram_to_csv(joint, path)
    lines = path.read_text().splitlines()
    assert "theta1=" in lines[0]
    assert lines[1].split(",")[0] == "X1"
    assert len(lines) == 2 + joint.grid1.x.size


def _per_cell_rows(x, columns) -> str:
    # The per-cell f-string join the CSV writers used before _write_rows.
    return "".join(
        f"{xv:.17g}," + ",".join(f"{columns[i][j]:.17g}" for i in range(len(columns))) + "\n"
        for j, xv in enumerate(x)
    )


def test_csv_row_writer_matches_per_cell_formatting(tmp_path):
    # 600 rows span several write chunks.
    x = np.tile([-3.5, -1e-300, -0.0, 0.0, 1.0 / 3.0, 2.0**60], 100)
    columns = np.array([
        np.tile([0.0, 5e-324, 1e-300, 0.1 + 0.2, 1.0, 7.0], 100),
        np.tile([-0.0, 1.25e-17, 123456789.123456789, np.pi, 0.0, 2.5e305], 100),
    ])
    fh = io.StringIO()
    _write_rows(fh, x, columns.T)
    assert fh.getvalue() == _per_cell_rows(x, columns)

    # Both tomogram writers on real maps, whose clamped tails hold exact zeros.
    tomo = tomogram_pure(make_coherent(3.0), [0.0, 0.7, 2.0], QuadratureGrid.uniform(30.0, 601))
    assert np.any(tomo.values == 0.0) and tomo.grid.x[0] < 0
    tomogram_to_csv(tomo, tmp_path / "map.csv", comment="pin")
    head = "# pin\nX," + ",".join(f"theta={th:.17g}" for th in tomo.thetas) + "\n"
    assert (tmp_path / "map.csv").read_text() == head + _per_cell_rows(tomo.grid.x, tomo.values)
    small = QuadratureGrid.uniform(8.0, 201)
    joint = tomogram_joint(make_two_mode("pair-coherent", 0.6), 0.2, 0.9, small)
    two_mode_tomogram_to_csv(joint, tmp_path / "joint.csv")
    body = (tmp_path / "joint.csv").read_text().split("\n", 2)[2]
    assert body == _per_cell_rows(joint.grid1.x, joint.values.T)


@pytest.mark.parametrize(
    "state",
    [
        make_two_mode("pair-coherent", 1.0),
        apply(BeamsplitterConfig(0.9), make_product(make_cat(0.6, "odd"), make_coherent(0.3j))),
    ],
    ids=["pair-coherent", "beamsplitter-output"],
)
def test_two_mode_slice_matches_joint_tomogram_column(state):
    grid = default_grid(state)
    thetas = [0.0, 0.45, 2.1]
    for theta2, x2 in ((0.0, 1.0), (1.3, -0.612)):
        rows = _two_mode_pure_slice(state, thetas, theta2, x2, grid)
        j = int(np.argmin(np.abs(grid.x - x2)))
        for theta1, row in zip(thetas, rows):
            column = tomogram_joint(state, theta1, theta2, grid).values[:, j]
            assert np.max(np.abs(row - column)) <= 1e-13 * np.max(column)


def test_two_mode_slice_mass_guard_names_the_phase():
    state = make_two_mode("pair-coherent", 1.0)
    with pytest.raises(GridTooNarrow, match=r"two-mode tomogram at \(0\.4, 1\.1\): mass misses 1"):
        _two_mode_pure_slice(state, [0.4], 1.1, 0.5, QuadratureGrid.uniform(1.0, 201))


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_joint_tomogram_mass_guard_names_the_phase_pair(mixed):
    state = make_two_mode("pair-coherent", 1.0)
    obj = TwoModeDensityMatrix.from_pure(state) if mixed else state
    with pytest.raises(GridTooNarrow, match=r"two-mode tomogram at \(0\.4, 1\.1\): mass misses 1"):
        tomogram_joint(obj, 0.4, 1.1, QuadratureGrid.uniform(1.0, 201))


def test_janus_partner_slices_share_peak_structure():
    # The pi/2-rotated tomogram slice of each cat matches its squeezed
    # partner's theta = 0 slice in peak count and mirror symmetry:
    # even cat / squeezed vacuum are single-peaked, odd cat / squeezed
    # one-photon state are two-peaked.
    param = 1.0 / np.sqrt(2.0)
    pairs = [
        (make_cat(param, "even"), make_squeezed(param, "vacuum"), 1),
        (make_cat(param, "odd"), make_squeezed(param, "one"), 2),
    ]
    for cat_state, squeezed_state, expected_peaks in pairs:
        cat_slice = tomogram_pure(cat_state, [np.pi / 2])
        sq_slice = tomogram_pure(squeezed_state, [0.0])
        for tomo in (cat_slice, sq_slice):
            row = tomo.values[0]
            np.testing.assert_allclose(row, row[::-1], atol=1e-12)
        assert len(band_peaks(cat_slice.values[0], cat_slice.grid.x)) == expected_peaks
        assert len(band_peaks(sq_slice.values[0], sq_slice.grid.x)) == expected_peaks


def test_two_mode_tomogram_keeps_a_fresh_array_read_only():
    grid = QuadratureGrid(np.linspace(-1.0, 1.0, 5), np.full(5, 0.5))
    values = np.full((5, 5), 0.25)
    tomo = TwoModeTomogram(0.0, 0.0, values, grid, grid)
    assert np.shares_memory(tomo.values, values)
    assert not tomo.values.flags.writeable and not values.flags.writeable


def test_two_mode_tomogram_copies_a_view():
    grid = QuadratureGrid(np.linspace(-1.0, 1.0, 5), np.full(5, 0.5))
    source = np.arange(25.0).reshape(5, 5)
    before = source.copy()
    tomo = TwoModeTomogram(0.0, 0.0, source.T, grid, grid)
    assert not np.shares_memory(tomo.values, source)
    assert not tomo.values.flags.writeable
    assert source.flags.writeable and np.array_equal(source, before)


def test_evolution_and_joint_tomograms_hand_over_arrays_of_their_own(monkeypatch):
    # Channel evolution and both joint tomogram routes pass the constructor an array
    # that owns its data, so it is kept rather than copied again.
    handed = []

    def recording(cls, array_position):
        def build(*args):
            handed.append(args[array_position].base is None)
            return cls(*args)
        return build

    state = apply(BeamsplitterConfig(0.0), make_product(make_cat(1.0, "even"), make_coherent(0.0)))
    rho0 = TwoModeDensityMatrix.from_pure(state)
    monkeypatch.setattr(decoherence, "TwoModeDensityMatrix", recording(TwoModeDensityMatrix, 0))
    monkeypatch.setattr(tomography, "TwoModeTomogram", recording(TwoModeTomogram, 2))
    for kind in (AMPLITUDE_DECAY, PHASE_DAMPING):
        tomogram_mixed(evolve(rho0, ChannelConfig(kind), 0.3), 0.4, 1.1)
    tomogram_two_mode_pure(state, 0.4, 1.1)
    assert handed == [True] * 5
