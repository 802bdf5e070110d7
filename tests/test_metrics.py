import tracemalloc

import numpy as np
import pytest

from tomolens import metrics
from tomolens.beamsplitter import BeamsplitterConfig, apply
from tomolens.fock import annihilation_matrix
from tomolens.metrics import (
    ENTROPY_THRESHOLD,
    _entropy_integrand,
    FOURTH_MOMENT_THRESHOLD,
    LN_PI_E,
    TWO_MODE_ENTROPY_THRESHOLD,
    VARIANCE_THRESHOLD,
    band_contrast,
    band_peaks,
    central_moment,
    entropy,
    entropy_from_density,
    entropy_two_mode,
    fit_cos2theta_quadratic,
    mean_quadrature,
    relative_fluctuation_product,
    squeezing_report,
    threshold_crossing,
    two_mode_report,
    two_mode_variance,
    variance,
)
from tomolens.moments import SOURCE_FOCK_ORACLE, moment_table, two_mode_moment_table
from tomolens.states import (
    make_cat,
    make_coherent,
    make_pacs,
    make_isospectral,
    make_product,
    make_squeezed,
    make_two_mode,
)
from tomolens.tomography import default_grid, marginal, tomogram_joint, tomogram_pure


def test_vacuum_entropy_saturates_gaussian_bound():
    tomo = tomogram_pure(make_coherent(0.0), [0.0])
    assert entropy(tomo, 0.0) == pytest.approx(0.5 * LN_PI_E, abs=1e-6)
    assert entropy(tomo, 0.0) == pytest.approx(1.072365, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.5, 1.3, 0.4 + 0.9j])
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_coherent_entropy_is_displacement_invariant(alpha, theta):
    tomo = tomogram_pure(make_coherent(alpha), [theta])
    assert entropy(tomo, theta) == pytest.approx(0.5 * LN_PI_E, abs=1e-6)


@pytest.mark.parametrize("shape", [(12,), (3, 4)])
def test_entropy_integrand_is_bitwise_the_masked_form(shape):
    # Reference: -w ln w under np.where masks, 0 where w <= 0.
    # Exact zeros, clamped values, the smallest subnormal, and w = 1, where -w ln w is -0.0.
    v = np.array([0.0, 5e-324, 1e-300, 0.0, 2.5e-300, 1e-12, 0.3, 1.0, 0.7, 2.0, 0.0, 1e-200]).reshape(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.where(v > 0.0, -v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
    assert _entropy_integrand(v).tobytes() == expected.tobytes()


def test_two_mode_vacuum_entropy():
    pair = make_product(make_coherent(0.0), make_coherent(0.0))
    joint = tomogram_joint(pair, 0.0, 0.0)
    assert entropy_two_mode(joint) == pytest.approx(LN_PI_E, abs=1e-6)
    assert entropy_two_mode(joint) == pytest.approx(2.14473, abs=1e-5)


def test_two_mode_entropy_additive_for_products():
    pair = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    joint = tomogram_joint(pair, 0.4, 1.3)
    s_a = entropy_from_density(marginal(joint, "a").values[0], joint.grid1)
    s_b = entropy_from_density(marginal(joint, "b").values[0], joint.grid2)
    assert entropy_two_mode(joint) == pytest.approx(s_a + s_b, abs=1e-6)


def test_caves_schumaker_two_mode_entropy_not_squeezed():
    # The two-mode squeezed vacuum saturates the Gaussian bound exactly at
    # theta1 = theta2 = 0, so "not squeezed" holds with equality.
    state = make_two_mode("caves-schumaker", 1.0)
    joint = tomogram_joint(state, 0.0, 0.0)
    assert entropy_two_mode(joint) >= TWO_MODE_ENTROPY_THRESHOLD - 1e-9


def test_coherent_variance_baseline():
    table = moment_table(make_coherent(1.1), 2)
    for theta in (0.0, 0.8, np.pi / 2):
        assert variance(table, theta) == pytest.approx(0.5, abs=1e-8)


def test_squeezed_vacuum_variance_quadratures():
    xi = 0.5
    table = moment_table(make_squeezed(xi), 2)
    assert variance(table, 0.0) == pytest.approx(np.exp(-2 * xi) / 2, abs=1e-8)
    assert variance(table, 0.0) == pytest.approx(0.1839, abs=1e-4)
    assert variance(table, np.pi / 2) == pytest.approx(np.exp(2 * xi) / 2, abs=1e-8)
    assert variance(table, np.pi / 2) == pytest.approx(1.359, abs=1e-3)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_even_cat_momentum_variance_squeezed(alpha):
    table = moment_table(make_cat(alpha, "even"), 2)
    assert variance(table, np.pi / 2) < VARIANCE_THRESHOLD


def test_odd_cat_not_variance_squeezed_in_either_quadrature():
    for alpha in (0.5, 1.0, 1.5):
        table = moment_table(make_cat(alpha, "odd"), 2)
        assert variance(table, 0.0) > VARIANCE_THRESHOLD
        assert variance(table, np.pi / 2) > VARIANCE_THRESHOLD


def test_coherent_central_moments_gaussian():
    table = moment_table(make_coherent(0.9), 4)
    assert central_moment(table, 0.3, 3) == pytest.approx(0.0, abs=1e-8)
    assert central_moment(table, 0.3, 4) == pytest.approx(0.75, abs=1e-6)


def test_even_cat_third_moment_vanishes():
    table = moment_table(make_cat(1.0, "even"), 4)
    assert central_moment(table, np.pi / 2, 3) == pytest.approx(0.0, abs=1e-8)


def test_yurke_stoler_marginal_third_moment_squeezing():
    table = moment_table(make_cat(0.3, "yurke-stoler"), 4)
    value = central_moment(table, np.pi / 2, 3)
    assert -0.1 < value < 0.0


def test_normal_ordering_expansion_against_dense_matrices():
    # The frozen Wick coefficients behind the central moments, re-derived
    # by brute force: <X_theta^q> from powers of the dense quadrature matrix.
    state = make_squeezed(0.4, "one")
    dim = state.n_cut + 1
    lower = annihilation_matrix(dim)
    table = moment_table(state, 4, source=SOURCE_FOCK_ORACLE)
    for theta in (0.0, 0.9):
        quad = (lower * np.exp(-1j * theta) + lower.T * np.exp(1j * theta)) / np.sqrt(2.0)
        mean = np.real(np.vdot(state.amplitudes, quad @ state.amplitudes))
        assert mean_quadrature(table, theta) == pytest.approx(mean, abs=1e-9)
        centered = quad - mean * np.eye(dim)
        for q in (3, 4):
            direct = np.real(
                np.vdot(state.amplitudes, np.linalg.matrix_power(centered, q) @ state.amplitudes)
            )
            assert central_moment(table, theta, q) == pytest.approx(direct, abs=1e-8)


def test_rfp_same_state_is_symmetric():
    state = make_cat(0.8, "even")
    f, g = relative_fluctuation_product(state, state, np.linspace(0, np.pi, 9))
    np.testing.assert_allclose(f, g, atol=1e-12)


def test_rfp_quarter_turn_symmetry_and_quadratic_fit():
    ecs = make_cat(1.0, "even")
    sqv = make_squeezed(1.0)
    thetas = np.linspace(0.0, np.pi, 181)
    f, g = relative_fluctuation_product(ecs, sqv, thetas)
    f_shift, _ = relative_fluctuation_product(ecs, sqv, thetas + np.pi / 2)
    np.testing.assert_allclose(g, f_shift, atol=1e-8)
    coeffs_f, residual_f = fit_cos2theta_quadratic(thetas, f**2)
    coeffs_g, residual_g = fit_cos2theta_quadratic(thetas, g**2)
    assert residual_f < 1e-8
    assert residual_g < 1e-8
    assert coeffs_f[0] == pytest.approx(coeffs_g[0], abs=1e-9)
    assert coeffs_f[1] == pytest.approx(-coeffs_g[1], abs=1e-9)
    assert coeffs_f[2] == pytest.approx(coeffs_g[2], abs=1e-9)


def test_two_mode_variance_vacuum():
    pair = make_product(make_coherent(0.0), make_coherent(0.0))
    table = two_mode_moment_table(pair, 2)
    assert two_mode_variance(table, 0.0, 0.0) == pytest.approx(0.5, abs=1e-8)


def test_caves_schumaker_variance_squeezed_at_zero_phase():
    r = 1.0
    table = two_mode_moment_table(make_two_mode("caves-schumaker", r), 2)
    value = two_mode_variance(table, 0.0, 0.0)
    assert value == pytest.approx(np.exp(-2 * r) / 2, abs=1e-7)
    assert value < VARIANCE_THRESHOLD


def test_pair_coherent_variance_squeezed_at_quarter_turn():
    table = two_mode_moment_table(make_two_mode("pair-coherent", 1.0), 2)
    assert two_mode_variance(table, np.pi / 2, np.pi / 2) < VARIANCE_THRESHOLD
    assert two_mode_variance(table, 0.0, 0.0) > VARIANCE_THRESHOLD


@pytest.mark.parametrize("kind", ["caves-schumaker", "pair-coherent"])
def test_correlated_states_reduced_modes_unsqueezed(kind):
    state = build_two_mode(kind)
    for mode in ("a", "b"):
        reduced = squeezing_report(state, np.pi / 2, mode=mode)
        assert not reduced.variance_squeezed
        assert not reduced.entropy_squeezed
        assert reduced.eur_satisfied


def build_two_mode(kind):
    return make_two_mode(kind, 1.0)


def cat_port_output(kind, phi):
    left = make_pacs(0.8, 1) if kind == "pacs" else make_cat(1.0, "even" if kind == "ecs" else "odd")
    return apply(BeamsplitterConfig(phi), make_product(left, make_coherent(0.0)))


def test_two_mode_report_builds_no_single_mode_moment_table(monkeypatch):
    tables = []

    def counting_table(*args, **kwargs):
        tables.append(kwargs.get("mode"))
        return moment_table(*args, **kwargs)

    monkeypatch.setattr(metrics, "moment_table", counting_table)
    out = cat_port_output("ecs", 0.9)
    two_mode_report(out, 0.4, 1.1)
    assert tables == []
    squeezing_report(out, 0.4, mode="a")
    assert tables == ["a"]


@pytest.mark.parametrize("phi", [0.0, np.pi / 2])
@pytest.mark.parametrize("kind", ["ecs", "ocs", "pacs"])
def test_reduced_entropies_match_squeezing_report(kind, phi):
    out = cat_port_output(kind, phi)
    grid = default_grid(out)
    report = two_mode_report(out, 0.4, 1.1, grid)
    assert abs(report.reduced_entropy_a - squeezing_report(out, 0.4, grid, mode="a").entropy) <= 1e-15
    assert abs(report.reduced_entropy_b - squeezing_report(out, 1.1, grid, mode="b").entropy) <= 1e-15


def test_entropic_uncertainty_relation_grid():
    thetas = np.linspace(0.0, np.pi, 12, endpoint=False)
    for state in (make_cat(1.0, "odd"), make_squeezed(0.8), make_pacs(1.0, 2)):
        tomo = tomogram_pure(state, np.concatenate([thetas, thetas + np.pi / 2]))
        entropies = [entropy_from_density(row, tomo.grid) for row in tomo.values]
        for i in range(12):
            assert entropies[i] + entropies[i + 12] >= LN_PI_E - 1e-6


def test_heisenberg_bound_all_phases():
    for state in (make_cat(1.0, "even"), make_squeezed(1.0), make_coherent(0.7)):
        table = moment_table(state, 2)
        for theta in np.linspace(0.0, np.pi, 12, endpoint=False):
            assert variance(table, theta) * variance(table, theta + np.pi / 2) >= 0.25 - 1e-8


def test_squeezing_report_coherent_baseline():
    report = squeezing_report(make_coherent(1.0), 0.4)
    assert report.entropy == pytest.approx(ENTROPY_THRESHOLD, abs=1e-6)
    assert not report.entropy_squeezed
    assert report.variance == pytest.approx(0.5, abs=1e-7)
    assert not report.variance_squeezed
    assert report.central_moment_3 == pytest.approx(0.0, abs=1e-7)
    assert report.central_moment_4 == pytest.approx(FOURTH_MOMENT_THRESHOLD, abs=1e-6)
    assert not report.hm4_squeezed
    assert report.eur_satisfied


def test_threshold_crossing_interpolates():
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([2.0, 1.0, 0.0])
    assert threshold_crossing(xs, ys, 0.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        threshold_crossing(xs, ys, -1.0)


def test_pacs_band_structure():
    state = make_pacs(1.0 / np.sqrt(2.0), 3)
    tomo = tomogram_pure(state, [0.0])
    assert len(band_peaks(tomo.values[0], tomo.grid.x)) == 3


def test_isospectral_bands_more_prominent_than_pacs():
    param = 1.0 / np.sqrt(2.0)
    pacs_row = tomogram_pure(make_pacs(param, 3), [0.0])
    iso_row = tomogram_pure(make_isospectral(param, 3), [0.0])
    assert len(band_peaks(iso_row.values[0], iso_row.grid.x)) >= 3
    contrast_pacs = band_contrast(pacs_row.values[0], pacs_row.grid.x)
    contrast_iso = band_contrast(iso_row.values[0], iso_row.grid.x)
    assert contrast_iso / contrast_pacs > 1.0


def test_two_mode_report_never_holds_a_joint_tomogram():
    # One 1201 x 1201 joint tomogram is 11.5 MB; the report reduces each of
    # its two block by block, so its allocation peak stays below one of them.
    out = apply(BeamsplitterConfig(phi=0.0), make_product(make_pacs(0.835, 1), make_coherent(0.0)))
    assert out.n_cut + 1 == 24
    tracemalloc.start()
    try:
        two_mode_report(out, 0.7, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"
