import math
import threading
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from tomolens import beamsplitter
from tomolens.beamsplitter import (
    BeamsplitterConfig,
    apply,
    block_unitaries,
    output_closed_form,
)
from tomolens.errors import TruncationOverflow
from tomolens.fock import SingleModeState, TwoModeState, fidelity_pure
from tomolens.metrics import (
    ENTROPY_THRESHOLD,
    TWO_MODE_ENTROPY_THRESHOLD,
    entropy_from_density,
    entropy_two_mode,
    squeezing_report,
    two_mode_report,
)
from tomolens.states import _adaptive_cut, make_cat, make_coherent, make_pacs, make_product
from tomolens.tomography import default_grid, marginal, tomogram_joint, tomogram_pure

from references import block_generator, expm_fixed_point, total_photon_distribution_trace


def test_vacuum_passes_through():
    pair = make_product(make_coherent(0.0), make_coherent(0.0))
    out = apply(BeamsplitterConfig(0.7), pair)
    assert abs(out.amplitudes[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_blocks_are_unitary():
    for phi in (0.0, 0.9, np.pi / 2):
        for total, u in enumerate(block_unitaries(12, phi)):
            defect = np.max(np.abs(u.conj().T @ u - np.eye(total + 1)))
            assert defect < 1e-9


def test_generator_is_anti_hermitian():
    gen = block_generator(6, 0.8)
    assert np.max(np.abs(gen + gen.conj().T)) < 1e-12


@pytest.mark.parametrize("total", [0, 1, 7, 40])
@pytest.mark.parametrize("phi", [0.0, 0.9, np.pi / 2])
def test_blocks_match_expm_of_the_generator(total, phi):
    gen = block_generator(total, phi)
    tol = 1e-14 * max(1.0, np.abs(gen).sum(axis=0).max())
    np.testing.assert_allclose(block_unitaries(total, phi)[total], expm(-gen), rtol=0.0, atol=tol)


def test_fixed_point_expm_matches_mpmath():
    gen = block_generator(12, 0.7)
    with mp.workdps(40):
        reference = np.array(mp.expm(-mp.matrix(gen.tolist())).tolist(), dtype=complex)
    # Both are exact far below a double's rounding: they differ only where an entry is ~0.
    np.testing.assert_allclose(expm_fixed_point(-gen), reference, rtol=1e-15, atol=1e-40)


def test_blocks_match_extended_precision():
    reference = expm_fixed_point(-block_generator(60, 0.7))
    assert np.max(np.abs(block_unitaries(60, 0.7)[60] - reference)) < 2e-14


@pytest.mark.parametrize("phi", [0.7, -2.0, np.pi / 2])
def test_phase_enters_as_a_diagonal_rotation(phi):
    for total, (u, u0) in enumerate(zip(block_unitaries(30, phi), block_unitaries(30, 0.0))):
        j = np.arange(total + 1)
        assert not np.any(u0.imag)
        np.testing.assert_array_equal(u, np.exp(1j * phi * j)[:, None] * u0 * np.exp(-1j * phi * j))


def test_two_threads_build_a_new_cut_once(monkeypatch):
    built = []
    step = beamsplitter._next_block

    def slow_step(o):
        built.append(o.shape[0])
        time.sleep(0.002)
        return step(o)

    monkeypatch.setattr(beamsplitter, "_BLOCKS", beamsplitter._BLOCKS[:1])
    monkeypatch.setattr(beamsplitter, "_next_block", slow_step)
    start = threading.Barrier(2)
    results = []

    def ask():
        start.wait()
        results.append(block_unitaries(12, 0.4))

    threads = [threading.Thread(target=ask) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert built == list(range(1, 13))
    for u, v in zip(*results):
        np.testing.assert_array_equal(u, v)


def test_blocks_are_read_only():
    with pytest.raises(ValueError):
        beamsplitter._blocks(3)[3][0, 0] = 1.0


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
def test_non_finite_phase_is_a_config_error(phi):
    with pytest.raises(ValueError, match="phi must be finite"):
        BeamsplitterConfig(phi)


def test_norm_guard_fails_a_nan_norm(monkeypatch):
    # A NaN norm compares false with every bound; the guard must still fail it.
    monkeypatch.setattr(TwoModeState, "norm", lambda self: float("nan"))
    with pytest.raises(TruncationOverflow, match="output norm nan"):
        apply(BeamsplitterConfig(0.3), make_product(make_coherent(0.5), make_coherent(0.0)))


def test_nan_input_names_the_distribution():
    amps = np.zeros((12, 12), dtype=complex)
    amps[0, 0], amps[1, 2] = 1.0, np.nan
    with pytest.raises(TruncationOverflow, match=r"^the distribution over 23 levels holds nan$"):
        apply(BeamsplitterConfig(0.3), TwoModeState(amps))


def test_massless_input_has_no_cut():
    with pytest.raises(TruncationOverflow, match=r"^no level of 9 leaves less than 1e-10 of the mass above it$"):
        apply(BeamsplitterConfig(0.3), TwoModeState(np.zeros((5, 5))))


def test_coherent_pair_maps_to_coherent_pair():
    out = apply(BeamsplitterConfig(0.0), make_product(make_coherent(1.0), make_coherent(1.0)))
    reference = make_product(make_coherent(0.0), make_coherent(np.sqrt(2.0)))
    assert fidelity_pure(out, reference) > 1.0 - 1e-9


def test_coherent_pair_general_phase():
    alpha, beta, phi = 0.8, 1.2, 0.7
    out = apply(BeamsplitterConfig(phi), make_product(make_coherent(alpha), make_coherent(beta)))
    gamma = (alpha - np.exp(1j * phi) * beta) / np.sqrt(2.0)
    delta = (beta + np.exp(-1j * phi) * alpha) / np.sqrt(2.0)
    reference = make_product(make_coherent(gamma), make_coherent(delta))
    assert fidelity_pure(out, reference) > 1.0 - 1e-9


def test_even_cat_with_vacuum_closed_form_termwise():
    # Generous truncations push the inputs' own tail error below the
    # termwise tolerance; the formula agreement itself is exact.
    alpha, phi = 1.0, np.pi / 2
    inp = make_product(make_cat(alpha, "even", n_cut=40), make_coherent(0.0, n_cut=40))
    evolved = apply(BeamsplitterConfig(phi), inp)
    closed = output_closed_form("ecs-vacuum", alpha, phi=phi, n_cut=evolved.n_cut)
    size = min(evolved.n_cut, closed.n_cut) + 1
    anchor = np.unravel_index(np.argmax(np.abs(closed.amplitudes[:size, :size])), (size, size))
    phase = evolved.amplitudes[anchor] / closed.amplitudes[anchor]
    assert abs(abs(phase) - 1.0) < 1e-9
    diff = np.max(np.abs(evolved.amplitudes[:size, :size] - phase * closed.amplitudes[:size, :size]))
    assert diff < 1e-9
    assert fidelity_pure(evolved, closed) > 1.0 - 1e-8


def test_even_cat_output_has_even_total_parity():
    closed = output_closed_form("ecs-vacuum", 1.0, phi=0.0)
    n = np.arange(closed.n_cut + 1)
    odd_totals = (n[:, None] + n[None, :]) % 2 == 1
    assert np.max(np.abs(closed.amplitudes[odd_totals])) == 0.0


def test_odd_cat_output_has_odd_total_parity():
    closed = output_closed_form("ocs-vacuum", 1.0, phi=0.3)
    n = np.arange(closed.n_cut + 1)
    even_totals = (n[:, None] + n[None, :]) % 2 == 0
    assert np.max(np.abs(closed.amplitudes[even_totals])) == 0.0
    inp = make_product(make_cat(1.0, "odd"), make_coherent(0.0))
    assert fidelity_pure(apply(BeamsplitterConfig(0.3), inp), closed) > 1.0 - 1e-8


def test_two_even_cats_closed_form():
    inp = make_product(make_cat(1.0, "even"), make_cat(1.0, "even"))
    evolved = apply(BeamsplitterConfig(0.0), inp)
    closed = output_closed_form("ecs-ecs", 1.0, 1.0, 0.0)
    assert fidelity_pure(evolved, closed) > 1.0 - 1e-8


def test_two_cats_closed_form_vacuum_limit():
    near_vacuum = output_closed_form("ecs-ecs", 1.0, 1e-9, 0.4)
    single = output_closed_form("ecs-vacuum", 1.0, phi=0.4)
    assert fidelity_pure(near_vacuum, single) > 1.0 - 1e-9


def test_photon_number_conservation():
    inp = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    out = apply(BeamsplitterConfig(np.pi / 3), inp)
    din = inp.total_photon_distribution()
    dout = out.total_photon_distribution()
    size = min(din.size, dout.size)
    assert np.max(np.abs(din[:size] - dout[:size])) < 1e-12
    assert dout[size:].sum() < 1e-12


# The benchmark's '<state>-vacuum' input amplitudes, and a sweep of every
# beamsplitter input kind of the beamsplitter-sweep scenario.
BENCHMARK_INPUTS = [
    (kind, "vacuum", a)
    for kind, alphas in (
        ("ecs", (0.55, 0.555, 0.56, 0.565, 0.57, 0.575, 0.58, 0.585)),
        ("ocs", (0.6075, 0.61, 0.6125, 0.615, 0.62, 0.63, 0.635, 0.65)),
        ("pacs", (0.835, 0.8425, 0.845, 0.855, 0.865, 0.87)),
    )
    for a in alphas
]
SWEEP_INPUTS = [
    (kind, second, a)
    for kind, second in (("ecs", "vacuum"), ("ocs", "vacuum"), ("ecs", "ecs"), ("ocs", "ocs"), ("pacs", "vacuum"))
    for a in np.linspace(0.2, 2.6, 9)
]


def _bs_input(kind, second, alpha):
    first = make_pacs(alpha, 1) if kind == "pacs" else make_cat(alpha, "even" if kind == "ecs" else "odd")
    return make_product(first, make_coherent(0.0) if second == "vacuum" else first)


@pytest.mark.parametrize("kind,second,alpha", BENCHMARK_INPUTS + SWEEP_INPUTS)
def test_total_photon_distribution_in_one_pass_keeps_every_cut(kind, second, alpha):
    # np.bincount sums each anti-diagonal in another order than np.trace; the
    # distribution may move by rounding, but no cut that apply reads off it.
    inp = _bs_input(kind, second, alpha)
    for state in [inp] + [apply(BeamsplitterConfig(phi), inp) for phi in (0.0, np.pi / 2)]:
        dist, reference = state.total_photon_distribution(), total_photon_distribution_trace(state)
        assert dist.shape == reference.shape
        np.testing.assert_allclose(dist, reference, rtol=0.0, atol=1e-15)
        assert _adaptive_cut(dist) == _adaptive_cut(reference)


def test_forward_then_reverse_is_identity():
    # Adding pi to phi negates the generator, so the second pass inverts
    # the first.
    inp = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    out = apply(BeamsplitterConfig(0.4), inp)
    back = apply(BeamsplitterConfig(0.4 + np.pi), out)
    assert fidelity_pure(back, inp) > 1.0 - 1e-9
    assert abs(out.norm() - 1.0) < 1e-9


@pytest.mark.parametrize("kind", ["ecs", "ocs"])
@pytest.mark.parametrize("alpha", [0.56, 0.62, 1.5])
@pytest.mark.parametrize("phi", [0.0, 0.9])
def test_adaptive_output_matches_closed_form(kind, alpha, phi):
    inp = make_product(make_cat(alpha, "even" if kind == "ecs" else "odd"), make_coherent(0.0))
    out = apply(BeamsplitterConfig(phi), inp)
    closed = output_closed_form(f"{kind}-vacuum", alpha, phi=phi)
    assert out.n_cut == closed.n_cut
    assert np.max(np.abs(out.amplitudes - closed.amplitudes)) <= 1e-10


@pytest.mark.parametrize("kind, alpha", [("even", 0.565), ("odd", 0.62), ("pacs", 0.8425), ("even", 1.0)])
def test_output_truncation_ignores_rounding_dust(kind, alpha):
    # The same input rebuilt element by element with math.lgamma, with and
    # without an ulp or two of dust on each amplitude, differs from the
    # constructor's only by rounding; the output truncation must not move.
    mode_a = make_pacs(alpha, 1) if kind == "pacs" else make_cat(alpha, kind)
    vacuum = make_coherent(0.0)
    expected = apply(BeamsplitterConfig(0.0), make_product(mode_a, vacuum)).n_cut
    levels = range(mode_a.n_cut + 1)
    if kind == "pacs":
        # c_{n+1} ~ alpha^n sqrt((n+1)!)/n!
        amps = [0.0] + [math.exp(n * math.log(alpha) + 0.5 * math.lgamma(n + 2) - math.lgamma(n + 1))
                        for n in levels[:-1]]
    else:
        amps = [math.exp(n * math.log(alpha) - 0.5 * math.lgamma(n + 1)) if n % 2 == (kind == "odd")
                else 0.0 for n in levels]
    for dust in (0.0, 2.0**-52, -(2.0**-52), 2.0**-51):
        rebuilt = SingleModeState(np.array(amps) * (1.0 + dust * (-1.0) ** np.arange(len(amps))))
        inp = make_product(rebuilt.normalized(), vacuum)
        assert apply(BeamsplitterConfig(0.0), inp).n_cut == expected


def test_unknown_closed_form_kind():
    with pytest.raises(ValueError):
        output_closed_form("cs-cs", 1.0)


def test_two_mode_entropy_equals_single_mode_shifted_at_zero_phase():
    # At phi = 0 a cat through one port with vacuum through the other
    # factorizes in rotated modes, so the joint entropy at theta = pi/2 is
    # the single-mode cat entropy plus the vacuum share ln(pi e)/2.
    for kind in ("even", "odd"):
        for alpha in (0.8, 1.2):
            tomo = tomogram_pure(make_cat(alpha, kind), [np.pi / 2])
            single = entropy_from_density(tomo.values[0], tomo.grid)
            out = apply(
                BeamsplitterConfig(0.0), make_product(make_cat(alpha, kind), make_coherent(0.0))
            )
            grid = default_grid(out, n_points=2401)
            joint = entropy_two_mode(tomogram_joint(out, np.pi / 2, np.pi / 2, grid))
            # agreement down to the entropy quadrature floor (the odd cat's
            # interior zeros slow Simpson convergence to ~1e-6)
            assert joint - TWO_MODE_ENTROPY_THRESHOLD == pytest.approx(
                single - ENTROPY_THRESHOLD, abs=1e-5
            )


def test_phi_sweep_squeezing_pattern():
    inp = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    outs = [apply(BeamsplitterConfig(phi), inp) for phi in (0.0, np.pi / 2)]
    reports = [two_mode_report(out, np.pi / 2, np.pi / 2) for out in outs]
    assert reports[0].entropy_squeezed
    assert not reports[1].entropy_squeezed
    # Port C's reduced state does not depend on phi (see the traced-port test).
    reduced_c = [report.reduced_entropy_a for report in reports]
    assert abs(reduced_c[0] - reduced_c[1]) < 1e-8
    assert all(squeezing_report(out, np.pi / 2, mode="b").eur_satisfied for out in outs)


def test_traced_port_entropy_is_phase_invariant():
    # Tracing out port D leaves a reduced state independent of phi; tracing
    # out port C does not.
    inp = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    kept_c, kept_d = [], []
    for phi in (0.0, 0.8, np.pi / 2):
        out = apply(BeamsplitterConfig(phi), inp)
        grid = default_grid(out)
        joint = tomogram_joint(out, np.pi / 2, np.pi / 2, grid)
        kept_c.append(entropy_from_density(marginal(joint, "a").values[0], grid))
        kept_d.append(entropy_from_density(marginal(joint, "b").values[0], grid))
    assert max(kept_c) - min(kept_c) < 1e-8
    assert max(kept_d) - min(kept_d) > 1e-3


def test_cat_pair_entropy_and_variance_sign_patterns():
    # At phi = 0, theta = pi/2: both cat pairs are entropically squeezed at
    # alpha = beta = 1, but only the even pair shows variance squeezing.
    from tomolens.metrics import two_mode_variance
    from tomolens.moments import two_mode_moment_table

    results = {}
    for kind in ("even", "odd"):
        inp = make_product(make_cat(1.0, kind), make_cat(1.0, kind))
        out = apply(BeamsplitterConfig(0.0), inp)
        grid = default_grid(out)
        entropy_val = entropy_two_mode(tomogram_joint(out, np.pi / 2, np.pi / 2, grid))
        table = two_mode_moment_table(out, 2, grid)
        results[kind] = (entropy_val, two_mode_variance(table, np.pi / 2, np.pi / 2))
    assert results["even"][0] < TWO_MODE_ENTROPY_THRESHOLD
    assert results["odd"][0] < TWO_MODE_ENTROPY_THRESHOLD
    assert results["even"][1] < 0.5
    assert results["odd"][1] > 0.5
