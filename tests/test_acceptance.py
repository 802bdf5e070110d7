"""Acceptance suite: one pass/fail line per criterion, tolerances pinned.

Run as `pytest tests/test_acceptance.py -v -s` to see the criterion lines as
they complete; each line names the measured worst case next to its bound.
"""

import time

import numpy as np
import pytest

from tomolens.beamsplitter import BeamsplitterConfig, apply, output_closed_form
from tomolens.decoherence import (
    AMPLITUDE_DECAY,
    PHASE_DAMPING,
    ChannelConfig,
    default_time_grid,
    evolve_amplitude,
    evolve_phase,
    master_equation_residual,
    purity,
)
from tomolens.fock import (
    SingleModeState,
    TwoModeDensityMatrix,
    fidelity_pure,
    fidelity_with_pure,
)
from tomolens.metrics import (
    ENTROPY_THRESHOLD,
    LN_PI_E,
    TWO_MODE_ENTROPY_THRESHOLD,
    central_moment,
    entropy_from_density,
    entropy_two_mode,
    fit_cos2theta_quadratic,
    relative_fluctuation_product,
    threshold_crossing,
    variance,
)
from tomolens.moments import (
    SOURCE_FOCK_ORACLE,
    moment_table,
    oracle_moment_two_mode,
    two_mode_moment_table,
)
from tomolens.scenarios import default_battery, run_audit
from tomolens.states import (
    build_state,
    make_cat,
    make_coherent,
    make_pacs,
    make_product,
    make_squeezed,
)
from tomolens.tomography import (
    check_pi_shift,
    default_grid,
    marginal,
    tomogram_joint,
    tomogram_pure,
)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def battery():
    return [(name, build_state(spec)) for name, spec in default_battery()]


@pytest.fixture(scope="module")
def cat_vacuum_outputs():
    """Beamsplitter outputs (phi = 0) for the decoherence battery."""
    outputs = {}
    for name, left in (
        ("ecs", make_cat(1.0, "even")),
        ("ocs", make_cat(1.0, "odd")),
        ("pacs-1", make_pacs(1.0, 1)),
        ("pacs-5", make_pacs(1.0, 5)),
    ):
        out = apply(BeamsplitterConfig(0.0), make_product(left, make_coherent(0.0)))
        outputs[name] = TwoModeDensityMatrix.from_pure(out)
    return outputs


def test_criterion_1_oracle_equivalence(battery):
    started = time.monotonic()
    worst_single = 0.0
    worst_two = 0.0
    for name, state in battery:
        if isinstance(state, SingleModeState):
            table = moment_table(state, 4)
            reference = moment_table(state, 4, source=SOURCE_FOCK_ORACLE)
            worst_single = max(
                worst_single,
                max(abs(table.entries[k] - reference.entries[k]) for k in table.entries),
            )
        else:
            table = two_mode_moment_table(state, 2)
            worst_two = max(
                worst_two,
                max(
                    abs(value - oracle_moment_two_mode(state, *key))
                    for key, value in table.entries.items()
                ),
            )
    elapsed = time.monotonic() - started
    _report(
        "criterion 1 (oracle equivalence)",
        worst_single < 1e-7 and worst_two < 1e-6 and elapsed < 120.0,
        f"single-mode worst {worst_single:.2e} (tol 1e-7), two-mode worst "
        f"{worst_two:.2e} (tol 1e-6), runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_analytic_anchors():
    vac_tomo = tomogram_pure(make_coherent(0.0), [0.0])
    vac_entropy = entropy_from_density(vac_tomo.values[0], vac_tomo.grid)
    coh_tomo = tomogram_pure(make_coherent(1.0), [0.7])
    coh_entropy = entropy_from_density(coh_tomo.values[0], coh_tomo.grid)
    table = moment_table(make_coherent(1.0), 4)
    var = variance(table, 0.3)
    m4 = central_moment(table, 0.3, 4)
    ecs_m3 = central_moment(moment_table(make_cat(1.0, "even"), 4), np.pi / 2, 3)
    checks = (
        abs(vac_entropy - ENTROPY_THRESHOLD) < 1e-6,
        abs(coh_entropy - ENTROPY_THRESHOLD) < 1e-6,
        abs(var - 0.5) < 1e-8,
        abs(m4 - 0.75) < 1e-6,
        abs(ecs_m3) < 1e-8,
    )
    _report(
        "criterion 2 (analytic anchors)",
        all(checks),
        f"entropy dev {max(abs(vac_entropy - ENTROPY_THRESHOLD), abs(coh_entropy - ENTROPY_THRESHOLD)):.2e}"
        f" (tol 1e-6), variance dev {abs(var - 0.5):.2e} (tol 1e-8), "
        f"q4 dev {abs(m4 - 0.75):.2e} (tol 1e-6), ECS q3 {abs(ecs_m3):.2e} (tol 1e-8)",
    )


def test_criterion_3_distribution_laws(battery):
    thetas12 = np.linspace(0.0, np.pi, 12, endpoint=False)
    worst_norm = 0.0
    worst_shift = 0.0
    worst_eur = np.inf
    worst_norm2 = 0.0
    worst_shift2 = 0.0
    worst_eur2 = np.inf
    for name, state in battery:
        if isinstance(state, SingleModeState):
            grid = default_grid(state)
            tomo = tomogram_pure(state, np.concatenate([thetas12, thetas12 + np.pi]), grid)
            worst_norm = max(worst_norm, tomo.normalization_defect())
            worst_shift = max(worst_shift, check_pi_shift(tomo).max_deviation)
            eur_tomo = tomogram_pure(
                state, np.concatenate([thetas12, thetas12 + np.pi / 2]), grid
            )
            entropies = [entropy_from_density(row, grid) for row in eur_tomo.values]
            worst_eur = min(
                worst_eur, min(entropies[i] + entropies[i + 12] for i in range(12))
            )
        else:
            grid = default_grid(state)
            for th1, th2 in ((0.0, 0.0), (0.4, 1.1)):
                joint = tomogram_joint(state, th1, th2, grid)
                worst_norm2 = max(worst_norm2, joint.normalization_defect())
                shifted = tomogram_joint(state, th1 + np.pi, th2 + np.pi, grid)
                worst_shift2 = max(
                    worst_shift2,
                    float(np.max(np.abs(shifted.values - joint.values[::-1, ::-1]))),
                )
            for th in thetas12:
                s_here = entropy_two_mode(tomogram_joint(state, th, th, grid))
                s_conj = entropy_two_mode(
                    tomogram_joint(state, th + np.pi / 2, th + np.pi / 2, grid)
                )
                worst_eur2 = min(worst_eur2, s_here + s_conj)
    passed = (
        worst_norm < 1e-8
        and worst_shift < 1e-9
        and worst_norm2 < 1e-7
        and worst_shift2 < 1e-9
        and worst_eur >= LN_PI_E - 1e-6
        and worst_eur2 >= 2 * LN_PI_E - 1e-6
    )
    _report(
        "criterion 3 (distribution laws)",
        passed,
        f"norm defect {worst_norm:.2e}/{worst_norm2:.2e}, pi-shift "
        f"{worst_shift:.2e}/{worst_shift2:.2e}, min EUR {worst_eur:.9f} "
        f"(>= {LN_PI_E - 1e-6:.9f}), min two-mode EUR {worst_eur2:.9f} "
        f"(>= {2 * LN_PI_E - 1e-6:.9f})",
    )


def test_criterion_4a_variance_squeezing_pattern():
    alphas = np.linspace(0.5, 1.5, 11)
    ecs_ok = all(
        variance(moment_table(make_cat(a, "even"), 2), np.pi / 2) < 0.5 for a in alphas
    )
    ys_ok = all(
        variance(moment_table(make_cat(a, "yurke-stoler"), 2), np.pi / 2) < 0.5
        for a in alphas
    )
    ocs_ok = all(
        variance(moment_table(make_cat(a, "odd"), 2), th) > 0.5
        for a in alphas
        for th in (0.0, np.pi / 2)
    )
    _report(
        "criterion 4a (cat-state variance pattern)",
        ecs_ok and ys_ok and ocs_ok,
        "ECS and YS momentum-squeezed on [0.5, 1.5]; OCS squeezed in neither quadrature",
    )


def test_criterion_4b_squeezed_family_quadrature():
    sq_ok = all(
        variance(moment_table(make_squeezed(xi), 2), 0.0) < 0.5 for xi in (0.3, 0.5, 1.0)
    )
    yuen_ok = all(
        variance(moment_table(make_squeezed(xi, "one"), 2), 0.0) < 0.5 for xi in (0.6, 1.0)
    )
    anti_ok = variance(moment_table(make_squeezed(0.5), 2), np.pi / 2) > 0.5
    _report(
        "criterion 4b (squeezed-family quadrature)",
        sq_ok and yuen_ok and anti_ok,
        "squeezed vacuum and Yuen state squeezed in X, antisqueezed in P",
    )


def _entropy_onset(builder, values, theta):
    entropies = []
    for v in values:
        tomo = tomogram_pure(builder(v), [theta])
        entropies.append(entropy_from_density(tomo.values[0], tomo.grid))
    return threshold_crossing(values, entropies, ENTROPY_THRESHOLD)


def test_criterion_4c_entropic_onsets():
    ocs_onset = _entropy_onset(
        lambda a: make_cat(a, "odd"), np.linspace(0.7, 1.1, 21), np.pi / 2
    )
    yuen_onset = _entropy_onset(
        lambda x: make_squeezed(x, "one"), np.linspace(0.1, 0.5, 21), 0.0
    )
    _report(
        "criterion 4c (entropic-squeezing onsets)",
        abs(ocs_onset - 0.9) < 0.05 and abs(yuen_onset - 0.3) < 0.05,
        f"OCS onset {ocs_onset:.3f} (0.9 +- 0.05), Yuen onset {yuen_onset:.3f} (0.3 +- 0.05)",
    )


def test_criterion_4d_relative_fluctuation_product():
    thetas = np.linspace(0.0, np.pi, 181)
    ecs = make_cat(1.0, "even")
    sqv = make_squeezed(1.0)
    f, g = relative_fluctuation_product(ecs, sqv, thetas)
    f_shifted, _ = relative_fluctuation_product(ecs, sqv, thetas + np.pi / 2)
    symmetry = float(np.max(np.abs(g - f_shifted)))
    _, residual_f = fit_cos2theta_quadratic(thetas, f**2)
    _, residual_g = fit_cos2theta_quadratic(thetas, g**2)
    _report(
        "criterion 4d (relative fluctuation product)",
        symmetry < 1e-8 and residual_f < 1e-8 and residual_g < 1e-8,
        f"g(t)=f(t+pi/2) deviation {symmetry:.2e} (tol 1e-8), quadratic-fit residuals "
        f"{residual_f:.2e}/{residual_g:.2e} (tol 1e-8)",
    )


def test_criterion_5a_coherent_pair_closed_form():
    out = apply(BeamsplitterConfig(0.0), make_product(make_coherent(1.0), make_coherent(1.0)))
    reference = make_product(make_coherent(0.0), make_coherent(np.sqrt(2.0)))
    fid = fidelity_pure(out, reference)
    _report(
        "criterion 5a (CSxCS -> product CS)",
        fid > 1.0 - 1e-9,
        f"fidelity 1 - {1.0 - fid:.2e} (tol 1e-9)",
    )


def test_criterion_5b_cat_vacuum_closed_form():
    worst = 0.0
    for phi in (0.0, np.pi / 2):
        inp = make_product(make_cat(1.0, "even"), make_coherent(0.0))
        evolved = apply(BeamsplitterConfig(phi), inp)
        closed = output_closed_form("ecs-vacuum", 1.0, phi=phi, n_cut=evolved.n_cut)
        worst = max(worst, 1.0 - fidelity_pure(evolved, closed))
    _report(
        "criterion 5b (ECSxvacuum closed form)",
        worst < 1e-8,
        f"worst infidelity {worst:.2e} (tol 1e-8)",
    )


def test_criterion_5c_phase_controls_entropy_squeezing():
    # phi = 0 enables two-mode entropic squeezing and phi = pi/2 removes it.
    # The odd cat's squeezing onsets near alpha = 0.93 (mirroring its
    # single-mode onset at 0.89), so the squeezed branch is asserted from
    # alpha = 1.0 up for the OCS input and across the whole range for the ECS.
    alphas = np.array([0.6, 0.8, 1.0, 1.2, 1.4])
    entropies = {}
    for kind in ("even", "odd"):
        for phi in (0.0, np.pi / 2):
            for alpha in alphas:
                inp = make_product(make_cat(alpha, kind), make_coherent(0.0))
                out = apply(BeamsplitterConfig(phi), inp)
                grid = default_grid(out)
                joint = tomogram_joint(out, np.pi / 2, np.pi / 2, grid)
                entropies[(kind, phi, alpha)] = entropy_two_mode(joint)
    ecs_zero = all(
        entropies[("even", 0.0, a)] < TWO_MODE_ENTROPY_THRESHOLD for a in alphas
    )
    ocs_zero = all(
        entropies[("odd", 0.0, a)] < TWO_MODE_ENTROPY_THRESHOLD for a in alphas[alphas >= 1.0]
    )
    none_quarter = all(
        entropies[(kind, np.pi / 2, a)] >= TWO_MODE_ENTROPY_THRESHOLD - 1e-9
        for kind in ("even", "odd")
        for a in alphas
    )
    ocs_curve = [entropies[("odd", 0.0, a)] - TWO_MODE_ENTROPY_THRESHOLD for a in alphas]
    onset = threshold_crossing(alphas, np.array(ocs_curve), 0.0)
    _report(
        "criterion 5c (phi-controlled entropic squeezing)",
        ecs_zero and ocs_zero and none_quarter,
        f"ECS squeezed at phi=0 over [0.6, 1.4]; OCS squeezed at phi=0 from its onset "
        f"(measured {onset:.2f}, single-mode twin 0.9); neither squeezed at phi=pi/2",
    )


def test_criterion_5d_traced_port_entropy_phase_invariant():
    inp = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    values = []
    for phi in (0.0, 0.7, np.pi / 2):
        out = apply(BeamsplitterConfig(phi), inp)
        grid = default_grid(out)
        joint = tomogram_joint(out, np.pi / 2, np.pi / 2, grid)
        values.append(entropy_from_density(marginal(joint, "a").values[0], grid))
    spread = max(values) - min(values)
    _report(
        "criterion 5d (D-traced marginal entropy)",
        spread < 1e-8,
        f"entropy spread over phi {spread:.2e} (tol 1e-8)",
    )


def test_criterion_6a_amplitude_channel_reaches_vacuum(cat_vacuum_outputs):
    cfg = ChannelConfig(AMPLITUDE_DECAY, 1.0, 1.0)
    vacuum = make_product(make_coherent(0.0), make_coherent(0.0))
    worst_fid = 1.0
    worst_trace = 0.0
    for rho in cat_vacuum_outputs.values():
        for t in (0.1, 1.0, 5.0, 20.0):
            evolved = evolve_amplitude(rho, cfg, t)
            worst_trace = max(worst_trace, abs(evolved.trace() - 1.0))
        worst_fid = min(worst_fid, fidelity_with_pure(evolve_amplitude(rho, cfg, 20.0), vacuum))
    _report(
        "criterion 6a (amplitude channel to vacuum)",
        worst_fid > 1.0 - 1e-8 and worst_trace < 1e-9,
        f"t=20 vacuum fidelity 1 - {1.0 - worst_fid:.2e} (tol 1e-8), "
        f"worst |trace-1| {worst_trace:.2e} (tol 1e-9)",
    )


def test_criterion_6b_purity_minimum_ordering(cat_vacuum_outputs):
    cfg = ChannelConfig(AMPLITUDE_DECAY, 1.0, 1.0)
    times = default_time_grid(25, 1e-2, 5.0)
    minima = {
        name: min(purity(evolve_amplitude(rho, cfg, t)) for t in times)
        for name, rho in cat_vacuum_outputs.items()
    }
    ordering = minima["ocs"] < minima["ecs"] and minima["pacs-5"] < minima["pacs-1"]
    _report(
        "criterion 6b (purity minimum ordering)",
        ordering,
        f"OCS {minima['ocs']:.3f} < ECS {minima['ecs']:.3f}; "
        f"5-PACS {minima['pacs-5']:.3f} < 1-PACS {minima['pacs-1']:.3f}",
    )


def test_criterion_6c_phase_channel(cat_vacuum_outputs):
    cfg = ChannelConfig(PHASE_DAMPING, 1.0, 1.0)
    worst_diag = 0.0
    entropies = {}
    for name in ("ecs", "ocs"):
        rho = cat_vacuum_outputs[name]
        evolved = evolve_phase(rho, cfg, 10.0)
        diag0 = np.einsum("nnmm->nm", rho.entries)
        diag1 = np.einsum("nnmm->nm", evolved.entries)
        worst_diag = max(worst_diag, float(np.max(np.abs(diag0 - diag1))))
        grid = default_grid(evolved)
        entropies[name] = entropy_two_mode(tomogram_joint(evolved, 0.0, 0.0, grid))
    gap = abs(entropies["ecs"] - entropies["ocs"])
    _report(
        "criterion 6c (phase channel)",
        worst_diag == 0.0 and gap > 1e-3,
        f"diagonal drift {worst_diag:.1e} (exact), long-time entropy gap {gap:.4f} (> 1e-3)",
    )


def test_criterion_6d_master_equation_residuals(cat_vacuum_outputs):
    initial_states = [
        cat_vacuum_outputs["ecs"],
        cat_vacuum_outputs["ocs"],
        cat_vacuum_outputs["pacs-1"],
    ]
    worst = 0.0
    for kind in (AMPLITUDE_DECAY, PHASE_DAMPING):
        cfg = ChannelConfig(kind, 1.0, 1.0)
        for rho in initial_states:
            worst = max(worst, master_equation_residual(rho, cfg))
    _report(
        "criterion 6d (master-equation residuals)",
        worst < 1e-4,
        f"worst residual {worst:.2e} (tol 1e-4, three initial states, both channels)",
    )


def test_criterion_7_audit_and_negative_controls():
    results = run_audit()
    green = all(r.passed for r in results)
    shrunk = run_audit(grid_half_width=2.0)
    shrunk_named = any(
        not r.passed and "GridTooNarrow" in r.detail for r in shrunk
    )
    inadequate = run_audit(n_cut=4)
    inadequate_named = any(
        not r.passed
        and r.subject == "coherent-2"
        and "TruncationOverflow" in r.detail
        for r in inadequate
    )
    _report(
        "criterion 7 (audit and guards)",
        green and shrunk_named and inadequate_named,
        f"audit {sum(r.passed for r in results)}/{len(results)} green; shrunk grid and "
        f"n_cut=4 controls fail loudly with named diagnostics",
    )
