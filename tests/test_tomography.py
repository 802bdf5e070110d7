import io
import threading
import time

import numpy as np
import pytest

from tomolens import decoherence, tomography
from tomolens.beamsplitter import BeamsplitterConfig, apply
from tomolens.cli import main
from tomolens.decoherence import AMPLITUDE_DECAY, PHASE_DAMPING, ChannelConfig, evolve
from tomolens.errors import GridTooNarrow, NegativeTomogram, ProjectionDefect
from tomolens.fock import SingleModeState, TwoModeDensityMatrix, TwoModeState, hermite_psi_matrix
from tomolens.metrics import EUR_SLACK, _joint_mass_entropy, _w_ln_w, band_peaks, entropy_two_mode, two_mode_report
from tomolens.scenarios import default_battery, parse_state_spec
from tomolens.states import (
    FAMILIES,
    build_state,
    make_cat,
    make_coherent,
    make_pacs,
    make_product,
    make_squeezed,
    make_two_mode,
)
from tomolens.tomography import (
    PROJECTION_GUARD,
    _CSV_CHUNK_CELLS,
    _SUPPORT_FLOOR,
    DEFAULT_THETAS,
    QuadratureGrid,
    Tomogram,
    TwoModeTomogram,
    _csv_lines,
    _decimal_digits,
    _definite_parity,
    _joint_blocks,
    _mirrored,
    _product_basis,
    _psi_contract,
    _two_mode_pure_slice,
    _write_rows,
    check_pi_shift,
    default_grid,
    marginal,
    moment_grid,
    tomogram_joint,
    tomogram_mixed,
    tomogram_pure,
    tomogram_reduced,
    tomogram_to_csv,
    tomogram_two_mode_pure,
    two_mode_tomogram_to_csv,
)

from references import (
    eigenmode_tomogram,
    full_pair_products,
    full_pair_tomogram,
    phase_matrix,
    tomogram_pure_complex,
)


def decohered_output(kind, t=0.3):
    out = apply(BeamsplitterConfig(0.0), make_product(make_cat(0.6, "even"), make_coherent(0.0)))
    return evolve(TwoModeDensityMatrix.from_pure(out), ChannelConfig(kind), t)


def test_grid_integrates_vacuum_density_exactly():
    grid = QuadratureGrid.uniform(8.0, 801)
    density = np.exp(-grid.x**2) / np.sqrt(np.pi)
    assert abs(grid.integrate(density) - 1.0) < 1e-10


@pytest.mark.parametrize("half_width,n_points", [(8.3, 2001), (26.45, 1201), (18.0, 251), (2.0, 2000)])
def test_uniform_grid_is_exactly_antisymmetric(half_width, n_points):
    # An even count is raised to the next odd one; x_j = h (j - (N - 1)/2)
    # mirrors bit for bit, which linspace does not guarantee.
    grid = QuadratureGrid.uniform(half_width, n_points)
    x, size = grid.x, n_points | 1
    assert x.size == size and x[size // 2] == 0.0
    assert np.array_equal(x[::-1], -x) and np.array_equal(grid.weights[::-1], grid.weights)
    assert np.max(np.abs(x - np.linspace(-half_width, half_width, size))) <= 1e-14 * half_width


def test_grid_requires_odd_point_count():
    with pytest.raises(ValueError):
        QuadratureGrid(1.0, 4)
    with pytest.raises(ValueError):
        QuadratureGrid(1.0, 1)


@pytest.mark.parametrize("half_width", [-6.0, 0.0, np.nan, np.inf])
def test_grid_requires_a_finite_positive_half_width(half_width):
    # A negative width would give a descending x and weights summing to -2 L.
    with pytest.raises(ValueError, match="half-width must be finite and > 0"):
        QuadratureGrid(half_width, 201)


def test_grid_is_the_value_of_its_two_numbers():
    # Equal numbers give equal grids that hash alike; either number tells grids apart.
    grid = QuadratureGrid(6.0, 201)
    assert grid == QuadratureGrid.uniform(6.0, 200) and hash(grid) == hash(QuadratureGrid(6.0, 201))
    assert grid != QuadratureGrid(6.5, 201) and grid != QuadratureGrid(6.0, 203)
    assert repr(grid) == "QuadratureGrid(half_width=6.0, n_points=201)"


def test_grid_arrays_are_read_only():
    grid = QuadratureGrid(6.0, 201)
    for array in (grid.x, grid.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_equal_grids_built_apart_share_one_cache_entry():
    tomography._grid_psi.cache_clear()
    tomography._product_basis.cache_clear()
    first = _product_basis(5, QuadratureGrid(6.0, 201))
    second = _product_basis(5, QuadratureGrid.uniform(6.0, 201))
    assert all(a is b for a, b in zip(first, second))
    for cache in (tomography._grid_psi, tomography._product_basis):
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
    assert tomography._product_basis.cache_info().hits == 1


def test_concurrent_misses_of_one_key_build_once(monkeypatch):
    # Two threads ask for one new (d, grid) at once: the second waits for the
    # first build and hits, so psi and P are each evaluated once.
    grid, d = QuadratureGrid.uniform(6.5, 301), 7
    calls, real = [], tomography.hermite_psi_matrix
    both_ready = threading.Barrier(2, timeout=30)

    def slow(n_max, x):
        if np.array_equal(x, grid.x) or np.array_equal(x, np.sqrt(2.0) * grid.x):
            calls.append(n_max)
            time.sleep(0.05)
        return real(n_max, x)

    def ask():
        both_ready.wait()
        results.append(_product_basis(d, grid))

    monkeypatch.setattr(tomography, "hermite_psi_matrix", slow)
    tomography._grid_psi.cache_clear()
    tomography._product_basis.cache_clear()
    results = []
    threads = [threading.Thread(target=ask) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads) and len(results) == 2
    assert results[0] is results[1]
    assert sorted(calls) == [d - 1, 2 * d - 2]
    assert tomography._product_basis.cache_info().misses == 1


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


def test_pi_shift_pairs_each_row_with_its_first_match():
    # Against the per-row search: unmatched rows are skipped, a row whose
    # theta + pi appears twice is compared with the first occurrence.
    thetas = np.array([0.0, 0.5, 1.0, np.pi, np.pi + 0.5, np.pi + 0.5 + 1e-12, 2.9])
    tomo = tomogram_pure(make_cat(0.9, "yurke-stoler"), thetas)
    pairs, worst = 0, 0.0
    for i, th in enumerate(thetas):
        match = np.nonzero(np.isclose(thetas, th + np.pi, rtol=0.0, atol=1e-10))[0]
        if match.size:
            pairs += 1
            worst = max(worst, float(np.max(np.abs(tomo.values[match[0]] - tomo.values[i][::-1]))))
    report = check_pi_shift(tomo)
    assert (report.pairs_checked, report.max_deviation) == (pairs, worst) and pairs == 2


def test_pi_shift_matches_phases_to_absolute_tolerance_only():
    # np.isclose's default rtol=1e-5 would pair 0.3 with 0.3 + pi + 2e-5.
    tomo = tomogram_pure(make_coherent(0.7), [0.3, 0.3 + np.pi + 2e-5])
    with pytest.raises(ValueError, match="no \\(theta, theta \\+ pi\\) pairs"):
        check_pi_shift(tomo)


def test_grid_too_narrow_raises():
    with pytest.raises(GridTooNarrow):
        tomogram_pure(make_coherent(2.0), [0.0], QuadratureGrid.uniform(2.0, 201))


def test_nan_mass_fails_the_single_mode_guard():
    with pytest.raises(GridTooNarrow, match="mass misses 1 by nan"):
        tomogram_pure(SingleModeState([np.nan] + [0.0] * 11), [0.0])


def test_mass_guard_advice_fits_the_defect():
    with pytest.raises(GridTooNarrow, match="mass misses 1 by nan; the tomogram holds NaN$"):
        tomogram_pure(SingleModeState([np.nan] + [0.0] * 11), [0.0])
    with pytest.raises(GridTooNarrow, match="; enlarge the grid$"):
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
    for theta1, theta2 in ((0.0, 0.0), (0.4, 1.1)):
        expected = eigenmode_tomogram(rho, theta1, theta2, grid)
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


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DECAY])
def test_folded_contractions_match_full_pair_form(kind):
    # Reference: Q^T Re(rho~) Q and Re(rho~_a) Q over every (n, n') pair,
    # against the contractions folded onto n <= n', on the default grid and
    # on a wider, coarser one.
    rho = decohered_output(kind)
    d = rho.dim
    default = default_grid(rho)
    for grid in (default, QuadratureGrid.uniform(default.half_width + 1.5, 901)):
        for theta1, theta2 in ((0.0, 0.0), (0.4, 1.1)):
            expected = full_pair_tomogram(rho, theta1, theta2, grid)
            values = tomogram_mixed(rho, theta1, theta2, grid).values
            assert np.max(np.abs(values - expected)) <= 1e-14 * expected.max()
        thetas = np.array([0.0, 0.7, 2.0])
        q = full_pair_products(rho, grid)
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
    # Phases 1e-5 apart are distinct rows: the lookup has no relative tolerance.
    close = tomogram_pure(make_coherent(0.5), [1.0, 1.00001])
    assert not np.array_equal(close.values[0], close.values[1])
    assert np.array_equal(close.row(1.00001), close.values[1])
    assert np.array_equal(close.row(1.0), close.values[0])
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
    # A chunk holds 4096 // 3 = 1365 rows of x and two columns, so 1500 rows span two.
    x = np.tile([-3.5, -1e-300, -0.0, 0.0, 1.0 / 3.0, 2.0**60], 250)
    columns = np.array([
        np.tile([0.0, 5e-324, 1e-300, 0.1 + 0.2, 1.0, 7.0], 250),
        np.tile([-0.0, 1.25e-17, 123456789.123456789, np.pi, 0.0, 2.5e305], 250),
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


# Rows per write chunk of a 3-column table, whose rows hold four cells with x.
_CSV_CHUNK_ROWS = _CSV_CHUNK_CELLS // 4


def _mirrored_table(n, columns=3, seed=0):
    # Rows n - n//2 .. n - 1 copy rows n//2 - 1 .. 0; the columns hold the
    # special values the writer must format alike on both sides.
    table = np.random.default_rng(seed).standard_normal((n, columns))
    table[:, 0] = np.resize([0.0, -0.0, 5e-324, 1e-300, np.nan, 2.5e305], n)
    table[n - n // 2 :] = table[: n // 2][::-1]
    return table


def _written(x, table) -> str:
    fh = io.StringIO()
    _write_rows(fh, x, table)
    return fh.getvalue()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 515, 516, 2 * _CSV_CHUNK_ROWS + 3, 2 * _CSV_CHUNK_ROWS + 4])
def test_csv_row_writer_reuses_mirrored_rows_byte_for_byte(n):
    # Odd and even n; 515 and 516 keep their half in one chunk, and above
    # 2 * _CSV_CHUNK_ROWS the kept half spans two chunks.
    # x need not mirror: each row's x is formatted on its own.
    table = _mirrored_table(n)
    x = np.linspace(-1.0, 2.0, n) ** 3
    assert _mirrored(table)
    assert _written(x, table) == _per_cell_rows(x, table.T)


def test_csv_row_writer_keeps_signed_zeros_and_ulp_nudges_apart():
    # Equal under ==, but -0.0 and 0.0 format differently, so the table is not mirrored.
    table = np.array([[1.0, 0.0], [2.0, 3.0], [1.0, -0.0]])
    x = np.array([-1.0, 0.0, 1.0])
    assert np.array_equal(table[::-1], table) and not _mirrored(table)
    assert _written(x, table) == _per_cell_rows(x, table.T)
    nudged = _mirrored_table(2 * _CSV_CHUNK_ROWS + 3)
    nudged[-1, 1] = np.nextafter(nudged[-1, 1], np.inf)
    x = np.arange(len(nudged), dtype=float)
    assert not _mirrored(nudged)
    assert _written(x, nudged) == _per_cell_rows(x, nudged.T)


def _cell_texts(values) -> list:
    return _csv_lines(np.asarray(values, dtype=float).reshape(-1, 1)).splitlines()


def _ulp_neighbours(value, steps=2):
    down, up = [value], [value]
    for _ in range(steps):
        down.append(np.nextafter(down[-1], -np.inf))
        up.append(np.nextafter(up[-1], np.inf))
    return down[1:] + up[1:]


def test_csv_cells_match_percent_formatting_at_the_edges():
    tie = 1234567890123456.25  # 18 significant digits ending in 5: an exact tie at 17
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17, 1e20, 1e23, tie]
    edges += _ulp_neighbours(1e-4) + _ulp_neighbours(1e-5) + [9.99999999999999995e-5, 9.99995e-5, 0.000099999]
    for p in range(-307, 309):
        edges += [float(f"1e{p}")] + _ulp_neighbours(float(f"1e{p}"))
    values = np.array(edges)
    values = np.concatenate([values, -values, [np.nan, np.inf, -np.inf]])
    assert _cell_texts(values) == ["%.17g" % v for v in values.tolist()]
    assert _cell_texts([-0.0, 0.0]) == ["-0", "0"]
    # An exact tie rounds half-even under %; it is one of the values Python formats.
    _, _, unsure = _decimal_digits(np.array([tie, -tie, np.nan, np.inf, 1e20, 1e23, 0.5]))
    assert unsure.tolist() == [True, True, True, True, False, False, False]


def test_csv_cells_match_percent_formatting_on_a_million_bit_patterns():
    bits = np.random.default_rng(2022).integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    for chunk in np.split(bits.view(np.float64).reshape(-1, 10), 10):
        expected = ("%.17g," * 9 + "%.17g\n") * len(chunk) % tuple(chunk.ravel().tolist())
        assert _csv_lines(chunk) == expected


def test_tomogram_scenario_map_matches_per_cell_formatting(tmp_path):
    # An even cat's map mirrors, so the writer reuses its first half's text.
    cfg = {"family": "ecs", "alpha": "1.2", "theta_count": "19", "grid_points": "601"}
    path = tmp_path / "map.cfg"
    path.write_text("scenario = tomogram\noutput = map.csv\n" + "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    state = build_state(parse_state_spec(cfg))
    tomo = tomogram_pure(state, np.linspace(0.0, np.pi, 19), default_grid(state, 601))
    assert _mirrored(tomo.values.T)
    body = (tmp_path / "out" / "map.csv").read_text().split("\n", 2)[2]
    assert body == _per_cell_rows(tomo.grid.x, tomo.values)


SINGLE_MODE_BATTERY = [(n, s) for n, s in default_battery() if not FAMILIES[s.family].two_mode]
TWO_MODE_BATTERY = [(n, s) for n, s in default_battery() if FAMILIES[s.family].two_mode]


def _with_parity(state):
    c = state.amplitudes
    return state, not c[1::2].any() or not c[::2].any()


@pytest.mark.parametrize("n_points", [257, 601, 2001])
def test_definite_parity_maps_mirror_bit_for_bit(n_points):
    # A state whose amplitudes vanish on every odd (or every even) level has
    # its X >= 0 columns evaluated and mirrored, so its map mirrors exactly and
    # the CSV writer halves its formatting; every other state is evaluated on
    # the whole grid and must not mirror.  The battery's single-mode states
    # are judged by their amplitudes.
    for state, mirrors in [
        (make_cat(1.2, "even"), True),
        (make_cat(0.9, "odd"), True),
        (make_squeezed(0.5), True),
        (make_coherent(1.2), False),
        (make_pacs(0.8, 1), False),
    ] + [_with_parity(build_state(spec)) for _, spec in SINGLE_MODE_BATTERY]:
        assert _definite_parity(state) is mirrors
        tomo = tomogram_pure(state, DEFAULT_THETAS, default_grid(state, n_points))
        bits = tomo.values.view(np.uint64)
        assert np.array_equal(bits[:, ::-1], bits) == mirrors
        assert _mirrored(tomo.values.T) == mirrors


# One state of every single-mode family, complex scalars where the family takes them.
FAMILY_STATES = [
    ("coherent", {"alpha": 0.9 - 0.6j}),
    ("fock", {"n": 4}),
    ("ecs", {"alpha": 1.3j}),
    ("ocs", {"alpha": 0.8 + 0.5j}),
    ("yurke-stoler", {"alpha": 1.1}),
    ("squeezed-vacuum", {"xi": 0.6j}),
    ("yuen", {"xi": 0.4 + 0.2j}),
    ("pacs", {"alpha": 0.7 + 0.4j, "m": 2}),
    ("isospectral", {"zeta": 0.9j, "base": 2}),
]
# Bound on |w - w_complex| relative to the map's maximum, set from double
# rounding of a d <= 40 term sum before measuring; measured at most 9.8e-16
# on these maps and 5.5e-16 on the battery's joint tomograms.
REAL_PAIR_TOLERANCE = 1e-14


@pytest.mark.parametrize("family,params", FAMILY_STATES, ids=[f for f, _ in FAMILY_STATES])
def test_real_pair_tomogram_matches_the_complex_product(family, params):
    # psi stays real: psi^T times the [Re, Im] pairs of the phased amplitudes
    # gives the complex product's map to rounding, on every phase count and
    # on both the default and the moment grid.
    state = build_state(parse_state_spec({"family": family, **{k: str(v) for k, v in params.items()}}))
    for grid in (default_grid(state), moment_grid(state)):
        for count in (2, 3, 5, 24, 181):
            thetas = np.linspace(0.0, np.pi, count, endpoint=False) + 0.1
            values = tomogram_pure(state, thetas, grid).values
            reference = tomogram_pure_complex(state, thetas, grid)
            assert np.max(np.abs(values - reference)) <= REAL_PAIR_TOLERANCE * reference.max()


def test_ecs_map_formats_only_the_first_half_of_its_rows(monkeypatch, tmp_path):
    # The benchmark's map: an even cat at 181 phases on its 2001-point grid.
    # Its mirror is a property of the state, so _write_rows formats n - n//2
    # rows with their cells and only the x text of the rest.
    state = make_cat(1.2, "even")
    tomo = tomogram_pure(state, DEFAULT_THETAS, default_grid(state))
    formatted = []
    real_lines = tomography._csv_lines

    def counting(block):
        formatted.append(block.shape)
        return real_lines(block)

    monkeypatch.setattr(tomography, "_csv_lines", counting)
    tomogram_to_csv(tomo, tmp_path / "map.csv")
    n = tomo.grid.x.size
    assert sum(rows for rows, cols in formatted if cols > 1) == n - n // 2
    assert [(rows, cols) for rows, cols in formatted if cols == 1] == [(n, 1)]


@pytest.mark.parametrize("name,spec", TWO_MODE_BATTERY, ids=[name for name, _ in TWO_MODE_BATTERY])
def test_joint_amplitudes_match_the_complex_product(name, spec):
    # psi^T c~ and psi^T c~^T of _joint_blocks, through the real [Re, Im]
    # product, against numpy's complex product of the same matrices (equal
    # bit for bit on every case here; the bound allows another BLAS's order).
    state = build_state(spec)
    grid = default_grid(state)
    psis = hermite_psi_matrix(state.n_cut, grid.x)
    n = np.arange(state.n_cut + 1)
    for theta1, theta2 in ((0.0, 0.0), (0.4, 2.3), (np.pi / 2, 1.1)):
        phased = state.amplitudes * np.exp(-1j * theta1 * n)[:, None] * np.exp(-1j * theta2 * n)[None, :]
        for amplitudes in (phased, np.ascontiguousarray(phased.T)):
            reference = psis.T @ amplitudes
            deviation = np.max(np.abs(_psi_contract(psis, amplitudes) - reference))
            assert deviation <= REAL_PAIR_TOLERANCE * np.abs(reference).max()
        joint = tomogram_joint(state, theta1, theta2, grid).values
        complex_joint = np.abs(psis.T @ phased @ psis) ** 2
        assert np.max(np.abs(joint - complex_joint)) <= REAL_PAIR_TOLERANCE * complex_joint.max()


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


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_nan_mass_fails_the_joint_tomogram_guard(mixed):
    amplitudes = np.zeros((12, 12), dtype=complex)
    amplitudes[0, 0] = np.nan
    state = TwoModeState(amplitudes)
    obj = TwoModeDensityMatrix.from_pure(state) if mixed else state
    for reduce in (tomogram_joint, _joint_mass_entropy):
        with pytest.raises(GridTooNarrow, match=r"two-mode tomogram at \(0\.4, 1\.1\): mass misses 1 by nan"):
            reduce(obj, 0.4, 1.1, QuadratureGrid.uniform(8.0, 201))


@pytest.mark.parametrize("d", [1, 2, 8, 24, 40])
def test_product_basis_reproduces_psi_products(d):
    # The Gauss-Hermite projection depends on d alone, so it holds on the
    # narrow mass-guard grid as on a default-sized one.
    default = QuadratureGrid.uniform(tomography.support_half_width(d - 1), 1201)
    for grid in (default, QuadratureGrid.uniform(1.0, 201)):
        psis, basis, full = _product_basis(d, grid)
        assert np.array_equal(psis, hermite_psi_matrix(d - 1, grid.x))
        assert full.shape == (d * d, 2 * d - 1) and basis.shape == (2 * d - 1, grid.x.size)
        products = (psis[:, None] * psis[None]).reshape(d * d, -1)
        assert np.max(np.abs(products - full @ basis)) <= PROJECTION_GUARD


def test_product_basis_one_node_short_raises_naming_d_and_n(monkeypatch):
    # Negative control of the projection certificate: 2d - 2 Gauss-Hermite
    # nodes miss the degree-(4d - 4) integrands by about 0.1, and the mixed
    # route raises instead of returning a wrong tomogram.
    rho = decohered_output(PHASE_DAMPING)
    grid = default_grid(rho)
    exact = tomography._product_projection
    monkeypatch.setattr(tomography, "_product_projection", lambda d, nodes: exact(d, nodes - 1))
    tomography._product_basis.cache_clear()
    with pytest.raises(ProjectionDefect, match=rf"misses psi_n psi_n' by .* at d={rho.dim}, N={grid.x.size}$"):
        tomogram_mixed(rho, 0.4, 1.1, grid)


def test_product_basis_is_keyed_on_the_grid_points():
    # Same d and N, different half-widths: each grid gets its own P, equal
    # to a direct evaluation on sqrt(2) x, and nothing cached is writable.
    d = 6
    for half_width in (5.0, 6.0):
        grid = QuadratureGrid.uniform(half_width, 201)
        psis, basis, full = _product_basis(d, grid)
        assert np.array_equal(psis, hermite_psi_matrix(d - 1, grid.x))
        assert np.array_equal(basis, hermite_psi_matrix(2 * d - 2, np.sqrt(2.0) * grid.x))
        assert not any(array.flags.writeable for array in (psis, basis, full))
    narrow = _product_basis(d, QuadratureGrid.uniform(5.0, 201))[1]
    assert not np.array_equal(narrow, basis)


def test_product_basis_certifies_again_after_a_failed_certificate(monkeypatch):
    # A failed certificate leaves nothing in the cache, so the exact
    # projection is certified anew on the next call.
    d, grid = 8, QuadratureGrid.uniform(6.0, 301)
    exact = tomography._product_projection
    tomography._product_basis.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(tomography, "_product_projection", lambda d, nodes: exact(d, nodes - 1))
        with pytest.raises(ProjectionDefect, match=rf"at d={d}, N={grid.x.size}$"):
            _product_basis(d, grid)
    assert tomography._product_basis.cache_info().currsize == 0
    psis, basis, full = _product_basis(d, grid)
    products = (psis[:, None] * psis[None]).reshape(d * d, -1)
    assert np.max(np.abs(products - full @ basis)) <= PROJECTION_GUARD


def test_pure_two_mode_report_evaluates_psi_once_per_grid(monkeypatch):
    # Both joint entropies, the order-2 table with its reduced tables and
    # both reduced entropies share one psi and one P on the grid.
    state = apply(BeamsplitterConfig(0.3), make_product(make_cat(0.6, "odd"), make_coherent(0.0)))
    grid = default_grid(state)
    calls = []
    real = tomography.hermite_psi_matrix

    def counted(n_max, x):
        calls.append((n_max, np.array_equal(x, grid.x), np.array_equal(x, np.sqrt(2.0) * grid.x)))
        return real(n_max, x)

    monkeypatch.setattr(tomography, "hermite_psi_matrix", counted)
    tomography._grid_psi.cache_clear()
    tomography._product_basis.cache_clear()
    two_mode_report(state, 0.4, 1.1, grid)
    d = state.n_cut + 1
    assert [c for c in calls if c[1]] == [(d - 1, True, False)]
    assert [c for c in calls if c[2]] == [(2 * d - 2, False, True)]


@pytest.mark.parametrize("source", ["pure", "decohered"])
def test_reduced_row_does_not_depend_on_the_phase_set(source):
    # A reduced-mode row at theta is the same bits whether theta is asked for
    # alone, with theta + pi/2 or inside a 5-phase set; reduced entropies
    # read off either set then agree exactly.
    if source == "pure":
        obj = apply(BeamsplitterConfig(0.3), make_product(make_pacs(0.8, 1), make_coherent(0.0)))
    else:
        obj = decohered_output(PHASE_DAMPING)
    grid = default_grid(obj)
    theta = 0.4
    for mode in ("a", "b"):
        alone = tomogram_reduced(obj, mode, [theta], grid).values[0]
        pair = tomogram_reduced(obj, mode, [theta, theta + np.pi / 2], grid).values[0]
        five = tomogram_reduced(obj, mode, [0.1, 1.3, theta, 2.0, 2.9], grid).values[2]
        assert alone.tobytes() == pair.tobytes() == five.tobytes()


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


def test_tomogram_keeps_a_fresh_array_read_only():
    grid = QuadratureGrid.uniform(1.0, 5)
    values = np.full((2, 5), 0.5)
    tomo = Tomogram([0.0, 1.0], values, grid)
    assert np.shares_memory(tomo.values, values)
    assert not tomo.values.flags.writeable and not values.flags.writeable


def test_tomogram_copies_a_view():
    joint = tomogram_joint(make_two_mode("pair-coherent", 0.6), 0.2, 0.9, QuadratureGrid.uniform(8.0, 201))
    source = joint.values @ joint.grid2.weights
    tomo = marginal(joint, "a")
    assert np.array_equal(tomo.values[0], source)
    assert tomo.values.base is None and not tomo.values.flags.writeable
    view = source[None, :]
    assert not np.shares_memory(Tomogram([0.2], view, joint.grid1).values, source)
    assert source.flags.writeable


def test_single_mode_tomograms_hand_over_arrays_of_their_own(monkeypatch):
    # tomogram_pure and tomogram_reduced pass Tomogram a fresh clamped array, kept rather than copied.
    handed = []

    def build(thetas, values, grid):
        handed.append(values.base is None)
        return Tomogram(thetas, values, grid)

    monkeypatch.setattr(tomography, "Tomogram", build)
    state = apply(BeamsplitterConfig(0.0), make_product(make_cat(1.0, "even"), make_coherent(0.0)))
    tomogram_pure(make_cat(1.0, "odd"), [0.0, 0.5])
    tomogram_reduced(state, "a", [0.0, 0.5])
    tomogram_reduced(TwoModeDensityMatrix.from_pure(state), "b", [0.3])
    assert handed == [True] * 3


def test_two_mode_tomogram_keeps_a_fresh_array_read_only():
    grid = QuadratureGrid.uniform(1.0, 5)
    values = np.full((5, 5), 0.25)
    tomo = TwoModeTomogram(0.0, 0.0, values, grid, grid)
    assert np.shares_memory(tomo.values, values)
    assert not tomo.values.flags.writeable and not values.flags.writeable


def test_two_mode_tomogram_copies_a_view():
    grid = QuadratureGrid.uniform(1.0, 5)
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


def _rows_reduced(obj, grid):
    """Rows of the joint tomogram that the reduction evaluates, in order."""
    return [j for rows, *_ in _joint_blocks(obj, 0.4, 1.1, grid, reduction=True) for j in range(rows.start, rows.stop)]


@pytest.mark.parametrize("kind,alpha,parity", [("even", 0.56, True), ("odd", 0.62, True), ("pacs", 0.85, False)])
def test_fold_is_taken_for_cat_vacuum_outputs_and_their_evolution(monkeypatch, kind, alpha, parity):
    # A beamsplitter keeps total photon number and both channels keep the
    # parity sectors, so an ecs/ocs x vacuum output and every rho(t) have
    # definite parity; a photon-added coherent input has none.
    source = make_pacs(alpha, 1) if kind == "pacs" else make_cat(alpha, kind)
    out = apply(BeamsplitterConfig(0.0), make_product(source, make_coherent(0.0)))
    rho = TwoModeDensityMatrix.from_pure(out)
    objs = [rho] + [
        evolve(rho, ChannelConfig(channel), t) for channel in (AMPLITUDE_DECAY, PHASE_DAMPING) for t in (1.5e-3, 0.2, 20.0)
    ]
    grid = QuadratureGrid.uniform(tomography.support_half_width(out.n_cut), 211)
    for obj in objs:
        assert _definite_parity(obj) is parity
        assert _rows_reduced(obj, grid) == list(range(106 if parity else 211))
    # The pure output's rows are those of its certified rectangle, which
    # straddles the centre; folded, they run from the first row that is kept
    # or whose mirror is kept up to the centre row 105.
    assert _definite_parity(out) is parity
    folded = _rows_reduced(out, grid)
    monkeypatch.setattr(tomography, "_definite_parity", lambda obj: False)
    whole = _rows_reduced(out, grid)
    assert whole == list(range(whole[0], whole[-1] + 1))
    assert 0 < whole[0] < 105 < whole[-1] < 210
    assert folded == (list(range(min(whole[0], 210 - whole[-1]), 106)) if parity else whole)
    if parity:
        # A rectangle cut short at its first rows still folds from the mirror
        # of its last row, so every kept row's mirror is covered.
        monkeypatch.undo()
        support = tomography._support

        def cut_short(amp, bound):
            kept = support(amp, bound)
            return slice(kept.start + 5, kept.stop)

        monkeypatch.setattr(tomography, "_support", cut_short)
        assert _rows_reduced(out, grid) == list(range(210 - whole[-1], 106))


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_an_amplitude_in_the_other_parity_sector_disables_the_fold(mixed):
    # Negative control: 1e-9 on |0, 1> breaks W(-X1, -X2) = W(X1, X2) by far
    # less than the mass guard sees, and the reduction must take every row.
    even = apply(BeamsplitterConfig(0.0), make_product(make_cat(0.56, "even"), make_coherent(0.0))).amplitudes.copy()
    even[0, 1] = 1e-9
    state = TwoModeState(even).normalized()
    obj = TwoModeDensityMatrix.from_pure(state) if mixed else state
    grid = QuadratureGrid.uniform(tomography.support_half_width(state.n_cut), 211)
    assert not _definite_parity(obj)
    rows = _rows_reduced(obj, grid)
    if mixed:
        assert rows == list(range(211))
    else:
        # The certified rectangle of a near-mirror-symmetric W, both halves of it.
        assert rows == list(range(rows[0], 211 - rows[0]))
        assert 0 < rows[0] < 105
    mass, entropy = _joint_mass_entropy(obj, 0.4, 1.1, grid)
    dense = tomogram_joint(obj, 0.4, 1.1, grid)
    assert abs(mass - grid.weights @ dense.values @ grid.weights) <= 1e-13
    assert abs(entropy - entropy_two_mode(dense)) <= 1e-13


def _pure_two_mode_states() -> dict:
    """The audit battery's pure two-mode states and the ecs/ocs/pacs x vacuum outputs at phi = 0 and pi/2, by name."""
    states = {name: build_state(spec) for name, spec in default_battery()}
    states = {name: state for name, state in states.items() if isinstance(state, TwoModeState)}
    sources = {"ecs": make_cat(0.56, "even"), "ocs": make_cat(0.62, "odd"), "pacs": make_pacs(0.855, 1)}
    for name, source in sources.items():
        for phi in (0.0, np.pi / 2):
            out = apply(BeamsplitterConfig(phi), make_product(source, make_coherent(0.0)))
            states[f"{name}-vacuum-phi{phi:.3g}"] = out
    return states


PURE_TWO_MODE_STATES = _pure_two_mode_states()


@pytest.mark.parametrize("name", list(PURE_TWO_MODE_STATES))
@pytest.mark.parametrize("theta1,theta2", [(0.4, 1.1), (1.1 + np.pi / 2, 1.1 + np.pi / 2)])
def test_pure_reductions_leave_out_only_values_below_the_support_floor(name, theta1, theta2):
    # Every value outside the evaluated rectangle, and outside its mirror
    # when the rows fold, is below the floor; the mass and the entropy agree
    # with the dense full-grid sums.
    state = PURE_TWO_MODE_STATES[name]
    grid = default_grid(state)
    dense = tomogram_joint(state, theta1, theta2, grid)
    outside = np.ones(dense.values.shape, dtype=bool)
    for rows, cols, *_ in _joint_blocks(state, theta1, theta2, grid, reduction=True):
        outside[rows, cols] = False
    if _definite_parity(state):
        outside &= outside[::-1, ::-1]
    assert outside.mean() > 0.2
    assert dense.values[outside].max() < _SUPPORT_FLOOR
    mass, entropy = _joint_mass_entropy(state, theta1, theta2, grid)
    assert abs(mass - grid.weights @ dense.values @ grid.weights) <= 1e-13
    assert abs(entropy - entropy_two_mode(dense)) <= 1e-13


@pytest.mark.parametrize("name", ["pacs-vacuum-phi0", "pacs-vacuum-phi1.57"])
def test_a_narrow_grid_trims_nothing_and_fails_the_mass_guard(name):
    # Negative control: on the audit's half-width-2 grid every value is far
    # above the floor, so every row and column is evaluated, and the mass
    # guard raises as before.
    state = PURE_TWO_MODE_STATES[name]
    grid = QuadratureGrid.uniform(2.0)
    seen = np.zeros((grid.n_points, grid.n_points), dtype=bool)
    with pytest.raises(GridTooNarrow, match=r"two-mode tomogram at \(0\.4, 1\.1\): mass misses 1"):
        for rows, cols, *_ in _joint_blocks(state, 0.4, 1.1, grid, reduction=True):
            seen[rows, cols] = True
    assert seen.all()
    with pytest.raises(GridTooNarrow):
        _joint_mass_entropy(state, 0.4, 1.1, grid)


def test_default_grid_two_mode_entropy_meets_the_decision_tolerance():
    # The fringed ocs x vacuum output's joint entropy on its default
    # 1201-point grid, against a 4801-point trapezoid reference on the same
    # support (4801 and 9601 points agree within 1e-8): the error, -7.9e-7,
    # must stay inside the 1e-6 slack every EUR verdict is read with.
    state = apply(BeamsplitterConfig(0.0), make_product(make_cat(0.62, "odd"), make_coherent(0.0)))
    theta = np.pi / 2
    fine = QuadratureGrid(default_grid(state).half_width, 4801)
    trapezoid = np.full(fine.n_points, 2.0 * fine.half_width / (fine.n_points - 1))
    trapezoid[[0, -1]] /= 2.0
    reference = 0.0
    for rows, cols, row_weights, block, _ in _joint_blocks(state, theta, theta, fine, reduction=True):
        # row_weights / Simpson weights is the fold's factor of 1 or 2.
        reference -= (row_weights / fine.weights[rows] * trapezoid[rows]) @ _w_ln_w(block) @ trapezoid[cols]
    entropy = _joint_mass_entropy(state, theta, theta)[1]
    assert abs(entropy - reference) <= EUR_SLACK
