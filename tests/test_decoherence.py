import dataclasses

import numpy as np
import pytest
from scipy.special import gammaln

from tomolens import decoherence, scenarios
from tomolens.beamsplitter import BeamsplitterConfig, apply
from tomolens.decoherence import (
    AMPLITUDE_DECAY,
    PHASE_DAMPING,
    ChannelConfig,
    _lindblad_rhs,
    default_time_grid,
    evolve,
    evolve_amplitude,
    evolve_phase,
    master_equation_residual,
    mean_total_photon,
    purity,
)
from tomolens.fock import TwoModeDensityMatrix, TwoModeState, fidelity_with_pure
from tomolens.states import make_cat, make_coherent, make_pacs, make_product
from tomolens.tomography import default_grid, tomogram_mixed, tomogram_pure

from references import composite_lindblad_rhs, evolve_amplitude_assigning

AMP = ChannelConfig(AMPLITUDE_DECAY, 1.0, 1.0)
PHASE = ChannelConfig(PHASE_DAMPING, 1.0, 1.0)


def fock_pair_projector(n, m, dim=10):
    c = np.zeros((dim, dim), dtype=complex)
    c[n, m] = 1.0
    return TwoModeDensityMatrix.from_pure(TwoModeState(c))


def beamsplitter_output(kind="even", alpha=1.0, m=1):
    if kind == "pacs":
        left = make_pacs(alpha, m)
    else:
        left = make_cat(alpha, kind)
    out = apply(BeamsplitterConfig(0.0), make_product(left, make_coherent(0.0)))
    return TwoModeDensityMatrix.from_pure(out)


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig("thermal")
    with pytest.raises(ValueError):
        ChannelConfig(AMPLITUDE_DECAY, rate_c=0.0)
    # A NaN rate would give a NaN purity, and an infinite one NaN through -gamma * 0 * t.
    for rate in (np.nan, np.inf):
        for kind in (AMPLITUDE_DECAY, PHASE_DAMPING):
            with pytest.raises(ValueError, match="positive and finite"):
                ChannelConfig(kind, rate_c=rate)
            with pytest.raises(ValueError, match="positive and finite"):
                ChannelConfig(kind, rate_d=rate)


def test_vacuum_is_fixed_point_of_both_channels():
    vac = fock_pair_projector(0, 0, dim=4)
    for cfg in (AMP, PHASE):
        evolved = evolve(vac, cfg, 2.5)
        assert np.max(np.abs(evolved.entries - vac.entries)) < 1e-14


def test_single_photon_population_transfer():
    rho = fock_pair_projector(1, 0)
    t = 0.7
    evolved = evolve_amplitude(rho, AMP, t)
    assert evolved.entries[1, 1, 0, 0].real == pytest.approx(np.exp(-2 * t), abs=1e-12)
    assert evolved.entries[0, 0, 0, 0].real == pytest.approx(1 - np.exp(-2 * t), abs=1e-12)
    assert evolved.trace() == pytest.approx(1.0, abs=1e-12)


def test_asymmetric_rates():
    rho = fock_pair_projector(1, 1)
    cfg = ChannelConfig(AMPLITUDE_DECAY, rate_c=2.0, rate_d=0.5)
    t = 0.3
    evolved = evolve_amplitude(rho, cfg, t)
    assert evolved.entries[1, 1, 1, 1].real == pytest.approx(
        np.exp(-2 * 2.0 * t) * np.exp(-2 * 0.5 * t), abs=1e-12
    )


def test_long_time_amplitude_decay_reaches_vacuum():
    rho = beamsplitter_output("even")
    final = evolve_amplitude(rho, AMP, 20.0)
    vacuum = make_product(make_coherent(0.0), make_coherent(0.0))
    assert fidelity_with_pure(final, vacuum) > 1.0 - 1e-8
    assert purity(final) > 1.0 - 1e-8


def test_trace_and_hermiticity_preserved_throughout():
    rho = beamsplitter_output("odd")
    for cfg in (AMP, PHASE):
        for t in (0.05, 0.4, 2.0, 10.0):
            evolved = evolve(rho, cfg, t)
            assert abs(evolved.trace() - 1.0) < 1e-9
            assert evolved.hermiticity_defect() < 1e-12
            assert 0.0 < purity(evolved) <= 1.0 + 1e-10


def test_purity_extremes():
    pure = fock_pair_projector(2, 1, dim=5)
    assert purity(pure) == pytest.approx(1.0, abs=1e-12)
    dim = 3
    mixed = np.zeros((dim, dim, dim, dim), dtype=complex)
    for n in range(dim):
        for m in range(dim):
            mixed[n, n, m, m] = 1.0 / dim**2
    assert purity(TwoModeDensityMatrix(mixed)) == pytest.approx(1.0 / dim**2, abs=1e-12)


def test_amplitude_purity_is_nonmonotone():
    rho = beamsplitter_output("even")
    times = default_time_grid(25, 1e-2, 20.0)
    purities = [purity(evolve_amplitude(rho, AMP, t)) for t in times]
    assert min(purities) < 0.95
    assert purities[-1] > 1.0 - 1e-6
    assert purities[0] > min(purities)


def test_purity_minimum_deepens_with_departure_from_coherence():
    times = default_time_grid(25, 1e-2, 5.0)

    def minimum(rho):
        return min(purity(evolve_amplitude(rho, AMP, t)) for t in times)

    assert minimum(beamsplitter_output("pacs", m=5)) < minimum(beamsplitter_output("pacs", m=1))
    assert minimum(beamsplitter_output("odd")) < minimum(beamsplitter_output("even"))


def test_mean_photon_number_decays_exponentially():
    for rho in (
        beamsplitter_output("even"),
        beamsplitter_output("odd"),
        beamsplitter_output("pacs", m=1),
    ):
        n0 = mean_total_photon(rho)
        for t in (0.2, 1.0, 3.0):
            n_t = mean_total_photon(evolve_amplitude(rho, AMP, t))
            assert n_t / (n0 * np.exp(-2.0 * t)) == pytest.approx(1.0, abs=1e-6)


def test_phase_damping_preserves_diagonals_exactly():
    rho = beamsplitter_output("even")
    evolved = evolve_phase(rho, PHASE, 1.7)
    diag0 = np.einsum("nnmm->nm", rho.entries)
    diag1 = np.einsum("nnmm->nm", evolved.entries)
    assert np.max(np.abs(diag0 - diag1)) == 0.0
    assert evolved.trace() == pytest.approx(rho.trace(), abs=1e-14)


def test_phase_damping_elementwise_rates():
    rho = beamsplitter_output("even")
    t = 0.5
    evolved = evolve_phase(rho, PHASE, t)
    mask = np.abs(np.diagonal(rho.entries[2, 0], axis1=0, axis2=1)) > 1e-10
    ratio = (
        np.diagonal(evolved.entries[2, 0], axis1=0, axis2=1)[mask]
        / np.diagonal(rho.entries[2, 0], axis1=0, axis2=1)[mask]
    )
    np.testing.assert_allclose(np.abs(ratio), np.exp(-4.0 * t), atol=1e-12)


def test_phase_damping_purity_saturates_at_diagonal_weight():
    rho = beamsplitter_output("even")
    late = evolve_phase(rho, PHASE, 50.0)
    diag = np.real(np.einsum("nnmm->nm", rho.entries))
    expected = float(np.sum(diag**2))
    assert purity(late) == pytest.approx(expected, abs=1e-12)
    assert expected < 1.0


def test_phase_damping_off_diagonals_decay_monotonically():
    rho = beamsplitter_output("even")
    previous = None
    for t in (0.1, 0.3, 1.0, 3.0):
        evolved = evolve_phase(rho, PHASE, t)
        off = np.abs(evolved.entries).sum() - np.abs(np.einsum("nnmm->nm", evolved.entries)).sum()
        if previous is not None:
            assert off < previous + 1e-12
        previous = off


@pytest.mark.parametrize("kind", [AMPLITUDE_DECAY, PHASE_DAMPING])
def test_channels_compose_as_a_semigroup(kind):
    # A finite-time check with no t -> 0 expansion behind it:
    # evolving for t1 and then t2 equals evolving for t1 + t2.
    cfg = ChannelConfig(kind, 1.0, 0.4)
    rho = beamsplitter_output("odd", alpha=0.8)
    t1, t2 = 0.3, 0.5
    stepped = evolve(evolve(rho, cfg, t1), cfg, t2)
    direct = evolve(rho, cfg, t1 + t2)
    assert np.max(np.abs(stepped.entries - direct.entries)) <= 1e-12


def coherent_vector(beta, dim):
    """Fock amplitudes of |beta> for n < dim, not renormalized after truncation."""
    n = np.arange(dim)
    return np.exp(-0.5 * abs(beta) ** 2 - 0.5 * gammaln(n + 1.0)) * complex(beta) ** n


def log_overlap(bra, ket):
    """log <bra|ket> for coherent states, without a branch cut."""
    return -0.5 * abs(bra) ** 2 - 0.5 * abs(ket) ** 2 + np.conj(bra) * ket


@pytest.mark.parametrize("rates", [(1.0, 1.0), (1.7, 0.3)], ids=["equal", "unequal"])
@pytest.mark.parametrize("kind,phi", [("even", 0.0), ("odd", 0.9)])
def test_amplitude_decay_matches_coherent_closed_form(kind, phi, rates):
    # Cat (x) vacuum leaves the beamsplitter as N(|g, d> +- |-g, -d>) with
    # g = alpha/sqrt2, d = e^{-i phi} alpha/sqrt2.  Per mode, damping with
    # eta = e^{-gamma t} maps |b><b'| to <b'|b>^{1 - eta^2} |eta b><eta b'|,
    # so rho(t) and Tr rho(t)^2 are exact at every t.
    alpha = 1.0
    rho0 = TwoModeDensityMatrix.from_pure(
        apply(BeamsplitterConfig(phi), make_product(make_cat(alpha, kind), make_coherent(0.0)))
    )
    dim = rho0.dim
    cfg = ChannelConfig(AMPLITUDE_DECAY, *rates)
    amps = np.array([alpha / np.sqrt(2), np.exp(-1j * phi) * alpha / np.sqrt(2)])
    signs = np.array([1.0, -1.0])
    sign_c = np.array([1.0, 1.0 if kind == "even" else -1.0])
    coeff = np.outer(sign_c, sign_c)
    # Overlap exponents sum over both modes: E[s, u] = sum log<s beta|u beta>.
    expo = sum(log_overlap(signs[:, None] * b, signs[None, :] * b) for b in amps)
    coeff = coeff / np.real(np.sum(coeff * np.exp(expo.T)))
    for t in (0.05, 0.5, 2.0, 8.0):
        eta = np.exp(-np.array(rates) * t)
        # A[s, s'] = N^2 c_s c_s' prod_modes <s' beta|s beta>^{1 - eta^2}.
        weights = coeff * np.exp(
            sum((1.0 - e**2) * log_overlap(signs[None, :] * b, signs[:, None] * b) for e, b in zip(eta, amps))
        )
        vecs = [
            np.outer(coherent_vector(s * eta[0] * amps[0], dim), coherent_vector(s * eta[1] * amps[1], dim))
            for s in signs
        ]
        expected = sum(
            weights[i, j] * np.einsum("nm,NM->nNmM", vecs[i], vecs[j].conj())
            for i in range(2)
            for j in range(2)
        )
        evolved = evolve_amplitude(rho0, cfg, t)
        assert np.max(np.abs(evolved.entries - expected)) <= 1e-12
        # Tr rho^2 = Tr(A G A G) with the untruncated Gram matrix of |s eta beta>.
        gram = np.exp(sum(log_overlap(signs[:, None] * e * b, signs[None, :] * e * b) for e, b in zip(eta, amps)))
        assert abs(np.trace(weights @ gram).real - 1.0) <= 1e-12
        exact_purity = np.trace(weights @ gram @ weights @ gram).real
        assert abs(purity(evolved) - exact_purity) <= 1e-12


@pytest.mark.parametrize("rates", [(1.0, 1.0), (1.0, 0.4)], ids=["equal", "unequal"])
@pytest.mark.parametrize("kind, alpha", [("ecs-vacuum", 0.56), ("ocs-vacuum", 0.62), ("ecs-ecs", 0.7),
                                         ("pacs-vacuum", 0.855)])
def test_amplitude_decay_keeps_every_bit_of_the_assigning_kernel(kind, alpha, rates):
    # Writing each diagonal's product straight into distinct rows, and sharing
    # the maps of equal rates, changes no arithmetic.
    _, make_input = scenarios._bs_input({"input": kind})
    rho0 = TwoModeDensityMatrix.from_pure(apply(BeamsplitterConfig(0.3), make_input(alpha)))
    cfg = ChannelConfig(AMPLITUDE_DECAY, *rates)
    for t in (1e-6, 1e-3, 0.2, 1.0, 5.0, 20.0):
        new, old = evolve_amplitude(rho0, cfg, t).entries, evolve_amplitude_assigning(rho0, cfg, t).entries
        assert new.tobytes() == old.tobytes(), t


def _subnormal_parts(rho):
    parts = np.abs(rho.entries.view(np.float64))
    return int(np.count_nonzero((parts > 0.0) & (parts < np.finfo(np.float64).tiny)))


@pytest.mark.parametrize("t", [20.0, 24.0])
def test_decay_maps_keep_subnormals_out_of_rho_at_large_t(t, monkeypatch):
    # The amplitude-decayed ecs(0.55) x vacuum output holds 2326 (t = 20) and
    # 2137 (t = 24) subnormal float parts without the map floor, 302 and 179
    # with it; purity and mean photon number keep every bit.
    rho0 = TwoModeDensityMatrix.from_pure(
        apply(BeamsplitterConfig(0.0), make_product(make_cat(0.55, "even"), make_coherent(0.0)))
    )
    mats = decoherence._decay_matrices(rho0.dim, 1.0, t)
    assert np.all((mats == 0.0) | (mats >= 2.0**-511))
    evolved = evolve_amplitude(rho0, AMP, t)
    assert _subnormal_parts(evolved) <= 400
    monkeypatch.setattr(decoherence, "_WEIGHT_FLOOR", 0.0)
    unfloored = evolve_amplitude(rho0, AMP, t)
    assert _subnormal_parts(unfloored) > 2000
    assert purity(evolved) == purity(unfloored)
    assert mean_total_photon(evolved) == mean_total_photon(unfloored)
    assert np.max(np.abs(evolved.entries - unfloored.entries)) < 1e-150


@pytest.mark.parametrize("kind", [AMPLITUDE_DECAY, PHASE_DAMPING])
def test_lindblad_rhs_matches_composite_operators(kind):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    mat = x @ x.conj().T
    rho = TwoModeDensityMatrix.from_matrix(mat / np.trace(mat).real)
    cfg = ChannelConfig(kind, 1.3, 0.45)
    reference = TwoModeDensityMatrix.from_matrix(composite_lindblad_rhs(rho, cfg)).entries
    assert np.max(np.abs(_lindblad_rhs(rho, cfg) - reference)) <= 1e-13


def test_decoherence_run_evolves_each_time_point_once(tmp_path, monkeypatch):
    calls = []

    def counting(rho0, cfg, t):
        calls.append(t)
        return evolve(rho0, cfg, t)

    monkeypatch.setattr(decoherence, "evolve", counting)
    cfg = {
        "scenario": "decoherence-run", "input": "ecs-vacuum", "alpha": "0.5",
        "channel": AMPLITUDE_DECAY, "time_count": "5", "entropy_time_count": "2",
        "time_min": "0.01", "time_max": "5",
    }
    scenarios.run_scenario(cfg, str(tmp_path))
    # The 2 entropy times are the purity grid's endpoints, so each distinct
    # time of the union is evolved exactly once.
    union = set(default_time_grid(5, 0.01, 5.0)) | set(default_time_grid(2, 0.01, 5.0))
    assert len(calls) == len(set(calls)) == len(union) == 5
    assert set(calls) == union


def test_master_equation_residuals():
    vac = fock_pair_projector(0, 0, dim=4)
    assert master_equation_residual(vac, AMP) < 1e-12
    assert master_equation_residual(vac, PHASE) < 1e-12
    assert master_equation_residual(fock_pair_projector(1, 0), AMP) < 1e-4
    rho = beamsplitter_output("even")
    assert master_equation_residual(rho, AMP) < 1e-4
    assert master_equation_residual(rho, PHASE) < 1e-4
    assert master_equation_residual(fock_pair_projector(2, 1), PHASE) < 1e-4


@pytest.mark.parametrize("kind", [AMPLITUDE_DECAY, PHASE_DAMPING])
def test_residual_catches_a_wrong_rate(kind, monkeypatch):
    # The right-hand side comes from the jump operators, not from the closed
    # form, so a solution evolving mode c at twice its rate must fail the
    # 1e-4 bound that the true solution meets.
    rho = beamsplitter_output("even")
    cfg = ChannelConfig(kind, 1.0, 1.0)
    assert master_equation_residual(rho, cfg) < 1e-4

    def doubled_rate_c(rho0, channel, t):
        return evolve(rho0, dataclasses.replace(channel, rate_c=2.0 * channel.rate_c), t)

    monkeypatch.setattr(decoherence, "evolve", doubled_rate_c)
    assert master_equation_residual(rho, cfg) > 1e-4


def test_long_time_tomogram_is_vacuum():
    rho = beamsplitter_output("even")
    final = evolve_amplitude(rho, AMP, 20.0)
    grid = default_grid(final)
    joint = tomogram_mixed(final, 0.4, 1.1, grid)
    vac = make_coherent(0.0).padded(final.n_cut)
    row1 = tomogram_pure(vac, [0.4], grid).values[0]
    row2 = tomogram_pure(vac, [1.1], grid).values[0]
    assert np.max(np.abs(joint.values - np.outer(row1, row2))) < 1e-6


def test_phase_channel_entropy_saturation_depends_on_input():
    from tomolens.metrics import entropy_two_mode

    entropies = {}
    for kind in ("even", "odd"):
        rho = beamsplitter_output(kind)
        late = evolve_phase(rho, PHASE, 10.0)
        grid = default_grid(late)
        entropies[kind] = entropy_two_mode(tomogram_mixed(late, 0.0, 0.0, grid))
    assert abs(entropies["even"] - entropies["odd"]) > 1e-3


def test_decohered_state_keeps_pi_shift_symmetry():
    rho = evolve_phase(beamsplitter_output("even"), PHASE, 0.7)
    grid = default_grid(rho)
    base = tomogram_mixed(rho, 0.4, 1.1, grid)
    shifted = tomogram_mixed(rho, 0.4 + np.pi, 1.1 + np.pi, grid)
    assert np.max(np.abs(shifted.values - base.values[::-1, ::-1])) < 1e-9


def test_two_mode_report_on_mixed_state():
    from tomolens.metrics import squeezing_report, two_mode_report

    rho = evolve_amplitude(fock_pair_projector(1, 1, dim=12), AMP, 0.3)
    report = two_mode_report(rho, 0.0, 0.0)
    assert report.eur_satisfied
    assert not report.variance_squeezed
    reduced_a, reduced_b = (squeezing_report(rho, 0.0, mode=mode) for mode in ("a", "b"))
    assert reduced_a.eur_satisfied
    assert reduced_a.variance == pytest.approx(reduced_b.variance, abs=1e-9)
