import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln, ive

from tomolens.errors import DegenerateParameter, TruncationOverflow
from tomolens.fock import annihilation_matrix, apply_annihilation, inner
from tomolens.states import (
    StateSpec,
    build_state,
    deformed_annihilation_matrix,
    make_cat,
    make_coherent,
    make_fock,
    make_isospectral,
    make_pacs,
    make_product,
    make_squeezed,
    make_two_mode,
    pair_coherent_normalization,
)


def test_coherent_vacuum_limit():
    state = make_coherent(0.0)
    assert state.amplitudes[0] == pytest.approx(1.0)
    assert np.max(np.abs(state.amplitudes[1:])) == 0.0


def test_coherent_ground_amplitude():
    state = make_coherent(1.0)
    assert state.amplitudes[0] == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_coherent_mean_field_complex():
    alpha = 0.7 + 0.2j
    state = make_coherent(alpha)
    assert inner(state, apply_annihilation(state)) == pytest.approx(alpha, abs=1e-9)


def test_coherent_rejects_inadequate_cut():
    with pytest.raises(TruncationOverflow):
        make_coherent(2.0, n_cut=4)


def test_ecs_small_alpha_collapses_to_vacuum():
    state = make_cat(1e-8, "even")
    assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_cat_parity_supports_are_exact():
    ecs = make_cat(1.0, "even")
    ocs = make_cat(1.0, "odd")
    assert np.max(np.abs(ecs.amplitudes[1::2])) == 0.0
    assert np.max(np.abs(ocs.amplitudes[0::2])) == 0.0


def test_ecs_normalization_constant():
    alpha = 1.0
    state = make_cat(alpha, "even")
    # paper constant against the unnormalized-exponential convention
    expected_c0 = 2.0 * (2.0 * (np.exp(alpha**2) + np.exp(-(alpha**2)))) ** -0.5
    assert state.amplitudes[0] == pytest.approx(expected_c0, abs=1e-12)


def test_ocs_undefined_at_zero():
    with pytest.raises(DegenerateParameter):
        make_cat(0.0, "odd")


def test_yurke_stoler_is_normalized_with_sqrt2():
    for alpha in (0.3, 1.0, 0.5 + 0.4j):
        assert make_cat(alpha, "yurke-stoler").norm() == pytest.approx(1.0, abs=1e-12)


def test_squeezed_identity_at_zero():
    for base, n in (("vacuum", 0), ("one", 1)):
        state = make_squeezed(0.0, base)
        assert abs(state.amplitudes[n]) == pytest.approx(1.0, abs=1e-12)


def test_squeezed_parity_supports():
    assert np.max(np.abs(make_squeezed(0.7).amplitudes[1::2])) == 0.0
    assert np.max(np.abs(make_squeezed(0.7, "one").amplitudes[0::2])) == 0.0


def test_squeezed_vacuum_two_photon_closed_form():
    # c_{2n} = sqrt(sech xi) (-tanh xi)^n sqrt((2n)!)/(2^n n!) for real xi
    xi = 0.5
    state = make_squeezed(xi)
    n = np.arange(state.n_cut // 2 + 1)
    log_ratio = 0.5 * gammaln(2 * n + 1.0) - n * np.log(2.0) - gammaln(n + 1.0)
    closed = np.sqrt(1.0 / np.cosh(xi)) * (-np.tanh(xi)) ** n * np.exp(log_ratio)
    np.testing.assert_allclose(state.amplitudes[::2], closed, atol=1e-8)


def test_squeezed_vacuum_pair_moment_sign():
    # Bogoliubov transform for S(xi) = exp[(xi* a^2 - xi a^dag^2)/2] gives
    # <a^2> = -sinh(r) cosh(r) on the squeezed vacuum.
    xi = 0.5
    state = make_squeezed(xi)
    a2 = inner(state, apply_annihilation(apply_annihilation(state)))
    assert a2 == pytest.approx(-np.sinh(xi) * np.cosh(xi), abs=1e-9)


def test_pacs_zero_photons_is_coherent():
    pacs = make_pacs(0.8, 0)
    coherent = make_coherent(0.8)
    k = min(pacs.n_cut, coherent.n_cut) + 1
    np.testing.assert_allclose(pacs.amplitudes[:k], coherent.amplitudes[:k], atol=1e-12)


def test_pacs_vacuum_base_gives_fock():
    state = make_pacs(0.0, 1)
    assert abs(state.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)


def test_pacs_nonlinear_eigenstate_property():
    # a^dag^m |alpha> normalized is an eigenstate of [1 - m (1 + N)^{-1}] a.
    m, alpha = 3, 1.0 / np.sqrt(2.0)
    state = make_pacs(alpha, m)
    dim = state.n_cut + 1
    lower = annihilation_matrix(dim)
    op = (np.eye(dim) - m * np.diag(1.0 / (1.0 + np.arange(dim)))) @ lower
    residual = np.linalg.norm(op @ state.amplitudes - alpha * state.amplitudes)
    assert residual < 1e-8


def test_deformed_operator_annihilates_low_states():
    a1 = deformed_annihilation_matrix(10, 1)
    assert np.linalg.norm(a1[:, 0]) == 0.0
    assert np.linalg.norm(a1[:, 1]) == 0.0


def test_deformed_operator_matches_product_form():
    # a^dag (1+N)^{-1/2} a (1+N)^{-1/2} a realized with dense ladder matrices
    dim = 12
    lower = annihilation_matrix(dim)
    scale = np.diag((1.0 + np.arange(dim)) ** -0.5)
    product = lower.T @ scale @ lower @ scale @ lower
    np.testing.assert_allclose(deformed_annihilation_matrix(dim, 1), product, atol=1e-12)


def test_isospectral_zero_displacement():
    state = make_isospectral(0.0, 3)
    assert abs(state.amplitudes[3]) == pytest.approx(1.0, abs=1e-12)


def test_isospectral_eigenstate_and_support():
    zeta, base = 1.0 / np.sqrt(2.0), 3
    state = make_isospectral(zeta, base)
    assert np.max(np.abs(state.amplitudes[:base])) < 1e-12
    ai = deformed_annihilation_matrix(state.n_cut + 1, base)
    residual = np.linalg.norm(ai @ state.amplitudes - zeta * state.amplitudes)
    assert residual < 1e-7


def test_isospectral_is_shifted_coherent():
    # In the restricted space the construction is an exact displacement, so
    # amplitudes above the base reproduce coherent-state ones.
    zeta, base = 0.6, 2
    state = make_isospectral(zeta, base)
    reference = make_coherent(zeta, n_cut=state.n_cut - base)
    np.testing.assert_allclose(state.amplitudes[base:], reference.amplitudes, atol=1e-10)


def test_two_mode_zero_parameter_is_vacuum():
    for kind in ("caves-schumaker", "pair-coherent"):
        state = make_two_mode(kind, 0.0)
        assert abs(state.amplitudes[0, 0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("xi, base", [(0.5, "vacuum"), (0.8 - 0.6j, "vacuum"), (0.7j, "one")])
def test_squeezed_parity_block_matches_full_expm(xi, base):
    # Only the base state's parity block is exponentiated; the full-space
    # matrix exponential gives the same truncated state.
    state = make_squeezed(xi, base, n_cut=149)
    a2 = np.linalg.matrix_power(annihilation_matrix(150), 2)
    full = expm(0.5 * (np.conj(xi) * a2 - xi * a2.T))[:, 0 if base == "vacuum" else 1]
    np.testing.assert_allclose(state.amplitudes, full / np.linalg.norm(full), rtol=0.0, atol=1e-13)


def test_isospectral_block_matches_full_expm():
    zeta, base = 0.6 - 0.3j, 2
    state = make_isospectral(zeta, base, n_cut=49)
    ai = deformed_annihilation_matrix(50, base)
    full = expm(zeta * ai.T - np.conj(zeta) * ai)[:, base]
    np.testing.assert_allclose(state.amplitudes, full / np.linalg.norm(full), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 7.5, 60.0, 300.0])
def test_pair_coherent_normalization_matches_scaled_bessel_form(r):
    reference = 1.0 / np.sqrt(ive(0, 2.0 * r) * np.exp(2.0 * r))
    assert pair_coherent_normalization(r) == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_pair_coherent_amplitude_ratio():
    state = make_two_mode("pair-coherent", 1.0)
    assert state.amplitudes[0, 0] / state.amplitudes[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert abs(state.amplitudes[0, 0]) == pytest.approx(pair_coherent_normalization(1.0), abs=1e-12)


def test_caves_schumaker_geometric_structure():
    r = 1.0
    state = make_two_mode("caves-schumaker", r)
    diag = np.diag(state.amplitudes)
    n = np.arange(8)
    expected = (1.0 / np.cosh(r)) * (-np.tanh(r)) ** n
    np.testing.assert_allclose(diag[:8], expected, atol=1e-10)
    off = state.amplitudes - np.diag(diag)
    assert np.max(np.abs(off)) == 0.0


def test_two_mode_norm_is_one():
    for kind, r in (("caves-schumaker", 1.0), ("pair-coherent", 2.0)):
        assert make_two_mode(kind, r).norm() == pytest.approx(1.0, abs=1e-10)


def test_product_state_structure():
    vac = make_coherent(0.0)
    pair = make_product(vac, vac)
    assert pair.amplitudes[0, 0] == pytest.approx(1.0)
    ecs_vac = make_product(make_cat(1.0, "even"), vac)
    assert np.max(np.abs(ecs_vac.amplitudes[:, 1:])) == 0.0


def test_product_state_is_separable():
    pair = make_product(make_cat(0.9, "even"), make_coherent(0.4))
    assert pair.schmidt_values()[0] == pytest.approx(1.0, abs=1e-10)


def test_fock_constructor():
    state = make_fock(3)
    assert abs(state.amplitudes[3]) == 1.0
    with pytest.raises(TruncationOverflow):
        make_fock(6, n_cut=4)


@pytest.mark.parametrize(
    "spec",
    [
        StateSpec("coherent", {"alpha": 1.0}),
        StateSpec("ecs", {"alpha": 0.7}),
        StateSpec("ocs", {"alpha": 0.7}),
        StateSpec("yurke-stoler", {"alpha": 0.7}),
        StateSpec("squeezed-vacuum", {"xi": 0.4}),
        StateSpec("yuen", {"xi": 0.4}),
        StateSpec("pacs", {"alpha": 0.7, "m": 2}),
        StateSpec("isospectral", {"zeta": 0.7, "base": 2}),
        StateSpec("fock", {"n": 2}),
        StateSpec("pair-coherent", {"r": 0.8}),
        StateSpec("caves-schumaker", {"r": 0.8}),
    ],
)
def test_build_state_families(spec):
    state = build_state(spec)
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_build_state_rejects_unknown_family():
    with pytest.raises(ValueError):
        StateSpec("thermal", {})
