import numpy as np
import pytest

from tomolens import moments
from tomolens.beamsplitter import BeamsplitterConfig, apply
from tomolens.decoherence import AMPLITUDE_DECAY, PHASE_DAMPING, ChannelConfig, evolve
from tomolens.errors import GridTooNarrow, MissingOrder, NegativeTomogram, OrderTooHigh
from tomolens.fock import TwoModeDensityMatrix
from tomolens.moments import (
    K_MAX_DEFAULT,
    SOURCE_FOCK_ORACLE,
    extraction_constant,
    hermite_weights,
    moment_table,
    oracle_moment,
    oracle_moment_two_mode,
    two_mode_moment_table,
)
from tomolens.states import (
    make_cat,
    make_coherent,
    make_fock,
    make_product,
    make_squeezed,
    make_two_mode,
)
from tomolens.tomography import (
    DEFAULT_POINTS,
    DEFAULT_POINTS_TWO_MODE,
    QuadratureGrid,
    _check_mass_defect,
    _joint_blocks,
    default_grid,
    tomogram_joint,
    tomogram_pure,
)


def test_extraction_constant():
    assert extraction_constant(0, 0, 1) == pytest.approx(1.0)
    assert extraction_constant(1, 1, 3) == pytest.approx(1.0 / (6.0 * 2.0))
    assert extraction_constant(2, 0, 3) == pytest.approx(2.0 / (6.0 * 2.0))
    # An order-4 table averages its order-2 entries over 5 phases, not 3.
    assert extraction_constant(1, 1, 5) == pytest.approx(1.0 / (5.0 * 2.0 * 2.0))


def test_vacuum_moments_vanish():
    table = moment_table(make_coherent(0.0), 4)
    for k, l in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 2)):
        assert abs(table.get(k, l)) < 1e-9


def test_coherent_first_moments():
    table = moment_table(make_coherent(1.0), 2)
    assert table.get(1, 1) == pytest.approx(1.0, abs=1e-9)
    assert table.get(0, 1) == pytest.approx(1.0, abs=1e-9)


def test_oracle_fock_number():
    assert oracle_moment(make_fock(3), 1, 1) == pytest.approx(3.0, abs=1e-12)


def test_oracle_cat_parity_forbids_mean_field():
    for alpha in (0.5, 1.0, 2.0):
        assert abs(oracle_moment(make_cat(alpha, "even"), 0, 1)) < 1e-12


def test_oracle_squeezed_pair_moment():
    xi = 0.5
    value = oracle_moment(make_squeezed(xi), 0, 2)
    assert value == pytest.approx(-np.sinh(xi) * np.cosh(xi), abs=1e-9)
    assert value == pytest.approx(-0.587, abs=1e-3)


CATALOG = [
    ("coherent", lambda: make_coherent(1.0)),
    ("coherent-complex", lambda: make_coherent(0.7 + 0.2j)),
    ("ecs", lambda: make_cat(1.0 / np.sqrt(2.0), "even")),
    ("ocs", lambda: make_cat(1.0, "odd")),
    ("yurke-stoler", lambda: make_cat(1.0 / np.sqrt(2.0), "yurke-stoler")),
    ("squeezed-vacuum", lambda: make_squeezed(0.5)),
    ("yuen", lambda: make_squeezed(0.5, "one")),
    ("fock-3", lambda: make_fock(3)),
]


# Every order 0..K_MAX_DEFAULT; the default order 4 keeps the bare state id.
ORACLE_CASES = [
    pytest.param(name, builder, order, id=name if order == 4 else f"{name}-order{order}")
    for name, builder in CATALOG
    for order in range(K_MAX_DEFAULT + 1)
]


@pytest.mark.parametrize("name,builder,max_order", ORACLE_CASES)
def test_single_mode_oracle_equivalence(name, builder, max_order):
    state = builder()
    table = moment_table(state, max_order)
    reference = moment_table(state, max_order, source=SOURCE_FOCK_ORACLE)
    assert table.entries.keys() == reference.entries.keys()
    worst = max(abs(table.entries[key] - reference.entries[key]) for key in table.entries)
    assert worst < 1e-7


def test_two_mode_vacuum_moments_vanish():
    table = two_mode_moment_table(make_product(make_coherent(0.0), make_coherent(0.0)), 2)
    assert abs(table.get(1, 0, 0, 0)) < 1e-9
    assert abs(table.get(1, 1, 1, 1)) < 1e-9


def test_two_mode_product_factorizes():
    pair = make_product(make_coherent(1.0), make_coherent(1.0))
    assert two_mode_moment_table(pair, 2).get(1, 1, 1, 1) == pytest.approx(1.0, abs=1e-8)


def test_two_mode_reduces_to_single_mode():
    pair = make_product(make_cat(0.8, "even"), make_coherent(0.3))
    left = make_cat(0.8, "even")
    two_table, one_table = two_mode_moment_table(pair, 2), moment_table(left, 2)
    for k, l in ((1, 1), (0, 2)):
        two = two_table.get(k, l, 0, 0)
        one = one_table.get(k, l)
        assert two == pytest.approx(one, abs=1e-8)


def test_caves_schumaker_cross_moment():
    r = 1.0
    state = make_two_mode("caves-schumaker", r)
    value = two_mode_moment_table(state, 2).get(0, 1, 0, 1)
    assert value == pytest.approx(-np.sinh(r) * np.cosh(r), abs=1e-7)
    assert value == pytest.approx(-1.8134, abs=1e-4)


def test_pair_coherent_is_pair_annihilation_eigenstate():
    r = 1.0
    state = make_two_mode("pair-coherent", r)
    assert oracle_moment_two_mode(state, 0, 1, 0, 1) == pytest.approx(r, abs=1e-10)


@pytest.mark.parametrize(
    "name,builder",
    [
        ("caves-schumaker", lambda: make_two_mode("caves-schumaker", 1.0)),
        ("pair-coherent", lambda: make_two_mode("pair-coherent", 1.0)),
        ("ecs-x-vacuum", lambda: make_product(make_cat(1.0, "even"), make_coherent(0.0))),
    ],
)
def test_two_mode_oracle_equivalence(name, builder):
    state = builder()
    table = two_mode_moment_table(state, 2)
    worst = max(
        abs(value - oracle_moment_two_mode(state, *key)) for key, value in table.entries.items()
    )
    assert worst < 1e-6


def test_mixed_decohered_state_table_invariants():
    pair = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    rho = TwoModeDensityMatrix.from_pure(pair)
    mixed = evolve(rho, ChannelConfig(AMPLITUDE_DECAY), 0.4)
    table = two_mode_moment_table(mixed, 2).validate()
    assert table.entries[(0, 0, 0, 0)] == pytest.approx(1.0, abs=1e-9)
    assert table.hermiticity_defect() < 1e-8
    worst = max(
        abs(value - oracle_moment_two_mode(mixed, *key)) for key, value in table.entries.items()
    )
    assert worst < 1e-6


def test_phase_count_is_load_bearing():
    # With a shared phase set of fewer than K+1 phases the roots-of-unity
    # cancellation breaks for the order-K entries; a coherent state exposes
    # it ((2,0) comes out 2 instead of 1).  The vacuum is blind to the
    # defect: every H_{k+l} integral vanishes by orthogonality, so its (2,0)
    # stays zero even with too few phases.
    two_phases = moments.extraction_phases(1)
    coh = make_coherent(1.0)
    good = moment_table(coh, 2).get(2, 0)
    bad = moments._single_mode_entries(coh, two_phases, 2, None, None)[(2, 0)]
    assert good == pytest.approx(1.0, abs=1e-9)
    assert abs(bad - good) > 0.1
    vac = make_coherent(0.0)
    assert abs(moments._single_mode_entries(vac, two_phases, 2, None, None)[(2, 0)]) < 1e-9


@pytest.mark.parametrize("max_order", range(K_MAX_DEFAULT + 1))
def test_moment_table_evaluates_one_row_per_shared_phase(monkeypatch, max_order):
    # Every order comes from the same max_order + 1 phases: one tomogram of
    # max_order + 1 rows, however many orders the table holds.
    calls = []

    def counting_pure(state, thetas, *args):
        calls.append(np.atleast_1d(thetas).size)
        return tomogram_pure(state, thetas, *args)

    monkeypatch.setattr(moments, "tomogram_pure", counting_pure)
    moment_table(make_coherent(1.0), max_order)
    assert calls == [max_order + 1]


@pytest.mark.parametrize("builder", [moment_table, two_mode_moment_table])
def test_table_builders_reject_an_unknown_source(builder):
    state = make_coherent(1.0) if builder is moment_table else make_two_mode("pair-coherent", 1.0)
    with pytest.raises(ValueError, match="unknown moment source 'oracle'"):
        builder(state, 2, source="oracle")


def test_moment_table_validation_and_errors():
    table = moment_table(make_coherent(0.6), 2).validate()
    assert table.hermiticity_defect() < 1e-8
    with pytest.raises(MissingOrder):
        table.get(3, 1)
    with pytest.raises(OrderTooHigh):
        oracle_moment(make_coherent(0.6), 4, 3)
    with pytest.raises(OrderTooHigh):
        moment_table(make_coherent(0.6), 7)


def test_four_index_table_validates_and_reduces():
    cat, coh = make_cat(1.0, "even"), make_coherent(0.5)
    table = two_mode_moment_table(make_product(cat, coh), 2).validate()
    assert isinstance(table, moments.MomentTable)
    broken = dict(table.entries)
    broken[(0, 1, 0, 1)] = table.get(1, 0, 1, 0).conjugate() + 0.01
    with pytest.raises(ValueError, match="hermiticity"):
        moments.MomentTable(broken, table.max_order, table.source).validate()
    with pytest.raises(MissingOrder):
        table.get(3, 0, 0, 0)
    reduced = table.reduced("b")
    direct = moment_table(coh, 2)
    assert reduced.entries.keys() == direct.entries.keys()
    for key, value in direct.entries.items():
        assert abs(reduced.get(*key) - value) < 1e-9, key


def test_reduced_mode_extraction():
    state = make_two_mode("caves-schumaker", 1.0)
    expected = np.sinh(1.0) ** 2
    assert moment_table(state, 2, mode="a").get(1, 1) == pytest.approx(expected, abs=1e-7)
    assert oracle_moment(state, 1, 1, mode="a") == pytest.approx(expected, abs=1e-9)
    assert oracle_moment(state, 1, 1, mode="b") == pytest.approx(expected, abs=1e-9)
    with pytest.raises(ValueError):
        moment_table(state, 2)
    pair = make_product(make_cat(1.0, "even"), make_coherent(0.5))
    damped = evolve(TwoModeDensityMatrix.from_pure(pair), ChannelConfig(PHASE_DAMPING), 0.4)
    for mode in ("a", "b"):
        table = moment_table(damped, 4, mode=mode)
        reference = moment_table(damped, 4, mode=mode, source=SOURCE_FOCK_ORACLE)
        for key, value in table.entries.items():
            assert value == pytest.approx(reference.entries[key], abs=1e-7)


@pytest.mark.parametrize("points", [DEFAULT_POINTS, DEFAULT_POINTS_TWO_MODE])
def test_hermite_weights_stay_far_from_overflow_on_widest_grid(points):
    # The moment kernel multiplies plain H_k(X) into the tomogram without
    # log-space bookkeeping; that rests on weights * H_k staying finite and
    # small up to K_MAX on the widest catalog grid (the support of level 1e4).
    grid = default_grid(make_fock(10_000), points)
    assert grid.half_width == pytest.approx(146.49, abs=0.01)
    u = hermite_weights(grid, K_MAX_DEFAULT)
    assert u.shape == (points, K_MAX_DEFAULT + 1)
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u)) < 1e16


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "phase-damped"])
def test_two_mode_table_evaluates_each_phase_pair_once(monkeypatch, mixed):
    state = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    if mixed:
        state = evolve(TwoModeDensityMatrix.from_pure(state), ChannelConfig(PHASE_DAMPING), 0.4)
    joint_pairs = []
    contracted = []

    def counting_joint(obj, theta1, theta2, *args, **kwargs):
        joint_pairs.append((theta1, theta2))
        return _joint_blocks(obj, theta1, theta2, *args, **kwargs)

    def counting_guard(defect, what):
        contracted.append(what)
        return _check_mass_defect(defect, what)

    monkeypatch.setattr(moments, "_joint_blocks", counting_joint)
    monkeypatch.setattr(moments, "_check_mass_defect", counting_guard)
    table = two_mode_moment_table(state, 2)
    # Phases {0, pi/3, 2pi/3} per mode at order 2: 3 x 3 distinct pairs.
    # A pure state contracts each pair without a joint tomogram, with one mass
    # check per pair; a density matrix reduces each pair's joint tomogram.
    pairs = joint_pairs if mixed else contracted
    assert len(joint_pairs) == (9 if mixed else 0)
    assert len(pairs) == 9
    assert len(set(pairs)) == 9
    reference = two_mode_moment_table(state, 2, source=SOURCE_FOCK_ORACLE)
    worst = max(abs(value - reference.entries[key]) for key, value in table.entries.items())
    assert worst < 1e-6


@pytest.mark.parametrize(
    "builder",
    [
        lambda: apply(BeamsplitterConfig(phi=0.9), make_product(make_cat(0.6, "even"), make_coherent(0.0))),
        lambda: make_two_mode("pair-coherent", 1.0),
    ],
    ids=["beamsplitter-output", "pair-coherent"],
)
def test_pure_contraction_matches_joint_tomogram_route(builder):
    # The same state as a density matrix goes through U1^T W U2 of its full
    # joint tomograms; the pure route never forms W.
    state = builder()
    rho = TwoModeDensityMatrix.from_pure(state)
    for grid in (default_grid(state), default_grid(state, 801)):
        pure = two_mode_moment_table(state, 2, grid)
        mixed = two_mode_moment_table(rho, 2, grid)
        for key, value in pure.entries.items():
            assert abs(value - mixed.entries[key]) <= 1e-13, key


def test_two_mode_table_mass_guard_names_the_phase_pair():
    state = make_product(make_cat(1.0, "even"), make_coherent(0.0))
    narrow = QuadratureGrid.uniform(1.0, 201)
    with pytest.raises(GridTooNarrow, match=r"two-mode tomogram at \(0, 0\): mass misses 1"):
        two_mode_moment_table(state, 2, narrow)


def test_two_mode_table_rejects_non_physical_density_matrix():
    # 1.5 |00><00| - 0.5 |10><10|: the table contracts the joint tomogram,
    # so the negativity guard still sees every value.
    entries = np.zeros((4, 4, 4, 4), dtype=complex)
    entries[0, 0, 0, 0] = 1.5
    entries[1, 1, 0, 0] = -0.5
    with pytest.raises(NegativeTomogram, match=r"phase \(0, 0\)"):
        two_mode_moment_table(TwoModeDensityMatrix(entries), 2)
