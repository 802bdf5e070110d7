import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from tomolens.errors import TruncationOverflow
from tomolens.fock import (
    BUFFER_LEVELS,
    SingleModeState,
    TwoModeDensityMatrix,
    TwoModeState,
    annihilation_matrix,
    apply_annihilation,
    apply_creation,
    hermite_psi_matrix,
    inner,
    ln_factorial,
    lowered,
    psi,
)
from tomolens.scenarios import default_battery
from tomolens.states import MAX_LEVEL, build_state, make_coherent, make_product
from tomolens.tomography import QuadratureGrid, default_grid, moment_grid, support_half_width

from references import psi_recurrence_ldexp


def psi_reference(n, x):
    """Arbitrary-precision evaluation of H_n(x) e^{-x^2/2} / (pi^{1/4} sqrt(2^n n!))."""
    x = mp.mpf(x)
    val = mp.hermite(n, x) * mp.e ** (-(x**2) / 2) / (mp.pi ** mp.mpf("0.25") * mp.sqrt(2**n * mp.factorial(n)))
    return float(val)


def test_psi_ground_state_at_origin():
    assert psi(0, 0.0) == pytest.approx(np.pi ** -0.25, abs=1e-12)
    assert psi(0, 0.0) == pytest.approx(0.7511255444649425, abs=1e-7)


def test_psi_odd_function_vanishes_at_origin():
    assert psi(1, 0.0) == 0.0


def test_psi_rejects_negative_order():
    with pytest.raises(ValueError):
        psi(-1, 0.0)


def test_psi_against_high_precision_oracle():
    assert abs(psi(30, 2.5) - psi_reference(30, 2.5)) < 1e-10


@pytest.mark.parametrize(
    "n,x",
    [
        (10_000, 50.0), (10_000, -50.0), (2_500, 50.0), (150, 10.0), (10_000, 0.3),
        # The widest catalog grid reaches |x| = 146.5 beside the turning point sqrt(2n + 1).
        (10_000, 146.5), (10_000, -146.5), (10_000, 141.4),
        # Subnormal x, and x = 0, where every odd order vanishes.
        (10_000, 5e-324), (10_001, 1e-310), (10_000, 0.0), (10_001, 0.0),
        # Far out, where 2^(-x^2 / (2 ln 2)) drops below any exponent the table can hold.
        (10_000, 1e3), (10_000, -1e6), (10_000, 1e20),
    ],
)
def test_psi_no_overflow_large_orders(n, x):
    value = psi(n, x)
    assert np.isfinite(value)
    assert abs(value) < 1.0
    assert abs(value - psi_reference(n, x)) < 1e-12


def test_psi_rows_stay_finite_far_from_the_origin():
    table = hermite_psi_matrix(10_000, [1e3, -1e6, 1e20, 1e100])
    assert np.all(np.isfinite(table))


def test_psi_of_non_finite_x_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = hermite_psi_matrix(40, [np.inf, -np.inf, np.nan, 1.0])
    # psi_n(+-inf) = 0 for every n, not only n = 0.
    assert np.all(table[:, :2] == 0.0) and np.all(np.isnan(table[:, 2]))
    assert np.array_equal(table[:, 3], hermite_psi_matrix(40, [1.0])[:, 0])


def test_recurrence_matches_direct_formula():
    xs = np.linspace(-10.0, 10.0, 41)
    table = hermite_psi_matrix(25, xs)
    for n in range(26):
        for j, x in enumerate(xs):
            assert abs(table[n, j] - psi_reference(n, x)) < 1e-10


@pytest.mark.parametrize("n_max", [30, 220])
@pytest.mark.parametrize(
    "x",
    [QuadratureGrid.uniform(8.3, 2001).x, QuadratureGrid.uniform(26.45, 1201).x,
     QuadratureGrid.uniform(45.0, 901).x, np.array([-1.5, -0.5, 0.5, 1.5])],
    ids=["8.3-2001", "26.45-1201", "45-901", "even-count"],
)
def test_mirrored_hermite_matrix_is_bitwise_the_direct_recurrence(n_max, x):
    # On an antisymmetric grid half the columns are mirrored, not computed;
    # one appended point breaks the antisymmetry and forces the recurrence
    # on every point, column by column, so the two must agree bit for bit,
    # signed zeros included.  |x| reaches 45 and n = 220, where the
    # recurrence rescales.
    assert np.array_equal(x[::-1], -x)
    mirrored = hermite_psi_matrix(n_max, x)
    direct = hermite_psi_matrix(n_max, np.append(x, 0.5))[:, :-1]
    assert mirrored.tobytes() == direct.tobytes()


def test_hermite_rows_are_bitwise_the_per_row_ldexp_recurrence_on_every_battery_grid():
    # Each row is p_n times 2^e, formed once per renormalization, where the
    # reference takes ldexp(p_n, e) per row; the rows must not differ in a bit.
    for _, spec in default_battery():
        state = build_state(spec)
        grids = [default_grid(state)]
        if isinstance(state, SingleModeState):
            grids.append(moment_grid(state))
        for grid in grids:
            rows = hermite_psi_matrix(state.n_cut, grid.x)
            assert rows.tobytes() == psi_recurrence_ldexp(state.n_cut, grid.x).tobytes(), (spec, grid)


@pytest.mark.parametrize(
    "x",
    [np.array([50.0, -50.0, np.inf, -np.inf, np.nan, 0.0, 1.0, -37.5]),
     QuadratureGrid.uniform(support_half_width(MAX_LEVEL)).x[::50]],
    ids=["far-and-non-finite", "widest-grid"],
)
def test_hermite_rows_are_bitwise_the_per_row_ldexp_recurrence_up_to_the_top_level(x):
    # Out to x = +-50, psi_0 is far below the smallest double, 2^e is not a
    # double, and the rows take ldexp itself until e rises into range.
    rows = hermite_psi_matrix(MAX_LEVEL, x)
    assert rows.tobytes() == psi_recurrence_ldexp(MAX_LEVEL, x).tobytes()


def test_orthonormality_under_module_quadrature():
    n_max = 100
    grid = QuadratureGrid.uniform(np.sqrt(2 * (n_max + 10)) + 5, 2001)
    table = hermite_psi_matrix(n_max, grid.x)
    gram = (table * grid.weights) @ table.T
    assert np.max(np.abs(gram - np.eye(n_max + 1))) < 1e-8


def test_annihilation_lowers_fock_states():
    one = SingleModeState(np.array([0, 1, 0, 0], dtype=complex))
    lowered = apply_annihilation(one)
    np.testing.assert_allclose(lowered.amplitudes, [1, 0, 0, 0], atol=1e-15)
    vac = SingleModeState(np.array([1, 0, 0], dtype=complex))
    np.testing.assert_allclose(apply_annihilation(vac).amplitudes, 0, atol=1e-15)


@pytest.mark.parametrize(
    "shape,counts",
    [
        ((7,), (3,)),
        ((7,), (7,)),
        ((7,), (9,)),
        ((5, 6), (2, 1)),
        ((3, 4, 5, 2), (1, 4, 0, 1)),
        ((3, 4, 5, 2), (2, 1, 3, 2)),
    ],
)
def test_lowered_matches_annihilation_matrix_powers(shape, counts):
    rng = np.random.default_rng(11)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = c.copy()
    expected = c
    for axis, k in enumerate(counts):
        op = np.linalg.matrix_power(annihilation_matrix(shape[axis]), k)
        expected = np.moveaxis(np.tensordot(op, expected, axes=(1, axis)), 0, axis)
    out = lowered(c, counts)
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-14)
    np.testing.assert_array_equal(c, before)
    # A count of at least the axis length lowers everything out of the basis.
    if any(k >= d for k, d in zip(counts, shape)):
        assert not out.any()


def test_annihilation_coherent_eigenvalue():
    alpha = 0.8 + 0.3j
    state = make_coherent(alpha)
    lowered = apply_annihilation(state)
    np.testing.assert_allclose(lowered.amplitudes, alpha * state.amplitudes, atol=1e-9)


def test_creation_raises_fock_states():
    vac = SingleModeState(np.zeros(12, dtype=complex) + np.eye(12)[0])
    raised = apply_creation(vac)
    assert raised.amplitudes[1] == pytest.approx(1.0)
    three = SingleModeState(np.eye(12)[3].astype(complex))
    raised = apply_creation(three)
    assert raised.amplitudes[4] == pytest.approx(2.0)


def test_creation_then_annihilation_gives_number():
    state = make_coherent(1.0)
    up = apply_creation(state)
    number = inner(state, apply_annihilation(up)) - 1.0  # a a^dag = n + 1
    assert number == pytest.approx(1.0, abs=1e-9)


def test_creation_overflow_guard():
    top = SingleModeState(np.eye(5)[4].astype(complex))
    with pytest.raises(TruncationOverflow):
        apply_creation(top)


def test_inner_products():
    state = make_coherent(0.9)
    assert inner(state, state) == pytest.approx(1.0, abs=1e-12)
    vac = SingleModeState(np.eye(3)[0].astype(complex))
    one = SingleModeState(np.eye(3)[1].astype(complex))
    assert inner(vac, one) == 0.0


def test_inner_coherent_overlap_closed_form():
    a, b = 1.0, 0.5
    overlap = inner(make_coherent(a), make_coherent(b))
    expected = np.exp(-(a**2 + b**2) / 2 + a * b)
    assert overlap == pytest.approx(expected, abs=1e-9)


def test_inner_pads_unequal_truncations():
    s1 = make_coherent(0.5, n_cut=20)
    s2 = make_coherent(0.5, n_cut=30)
    assert inner(s1, s2) == pytest.approx(1.0, abs=1e-9)


def test_inner_conjugate_symmetry_and_cauchy_schwarz():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = SingleModeState(rng.normal(size=8) + 1j * rng.normal(size=8)).normalized()
        b = SingleModeState(rng.normal(size=8) + 1j * rng.normal(size=8)).normalized()
        assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-12
        assert abs(inner(a, b)) <= 1.0 + 1e-12


def test_commutator_is_identity_below_buffer():
    state = make_coherent(1.2)
    left = apply_creation(apply_annihilation(state))
    right = apply_annihilation(apply_creation(state))
    block = slice(0, state.n_cut - 10)
    np.testing.assert_allclose(
        (right.amplitudes - left.amplitudes)[block], state.amplitudes[block], atol=1e-9
    )


def test_tail_mass_certificate():
    state = make_coherent(1.0)
    assert state.tail_mass() < 1e-10
    with pytest.raises(TruncationOverflow):
        SingleModeState(np.full(5, np.sqrt(0.2), dtype=complex)).certify()


@pytest.mark.parametrize("level", [0, 11])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certificate_fails_a_non_finite_amplitude(bad, level):
    # A NaN below the tail, or anywhere, once read as a zero tail mass.
    amps = np.zeros(12, dtype=complex)
    amps[0 if level else 1] = 1.0
    amps[level] = bad
    with pytest.raises(TruncationOverflow, match=f"at level {level} is not finite"):
        SingleModeState(amps).certify()


def test_a_nan_probability_counts_as_occupied():
    # A NaN at level 2 once read as absent, so default grids were sized for level 1.
    amps = np.zeros(12, dtype=complex)
    amps[[1, 2]] = 1.0, np.nan
    assert SingleModeState(amps).top_occupied() == 2
    assert TwoModeState(np.diag(amps)).top_occupied() == 2


def test_tail_certificate_names_the_buffer_reserve_below_it():
    # n_cut = 4 leaves no level below the BUFFER_LEVELS reserve: the whole
    # basis is tail, and the message says so instead of quoting level -6.
    with pytest.raises(TruncationOverflow) as short:
        SingleModeState(np.full(5, np.sqrt(0.2), dtype=complex)).certify()
    assert str(short.value) == (
        f"tail mass 1.000e+00 exceeds 1e-10; n_cut=4 is below the BUFFER_LEVELS reserve of {BUFFER_LEVELS}"
    )
    amps = np.zeros(BUFFER_LEVELS + 3, dtype=complex)
    amps[[0, -1]] = np.sqrt(0.5)
    with pytest.raises(TruncationOverflow, match=r"^tail mass 5\.000e-01 above level 2 exceeds 1e-10;"):
        SingleModeState(amps).certify()


def test_two_mode_state_shape_guard():
    with pytest.raises(ValueError):
        TwoModeState(np.zeros((3, 4), dtype=complex))


def test_density_matrix_from_pure_and_validate():
    pair = make_product(make_coherent(0.7), make_coherent(0.2))
    rho = TwoModeDensityMatrix.from_pure(pair).validate()
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)
    assert rho.hermiticity_defect() < 1e-14


def test_density_matrix_matrix_roundtrip():
    pair = make_product(make_coherent(0.4), make_coherent(-0.1))
    rho = TwoModeDensityMatrix.from_pure(pair)
    back = TwoModeDensityMatrix.from_matrix(rho.as_matrix())
    np.testing.assert_allclose(back.entries, rho.entries, atol=1e-15)


def test_density_matrix_rejects_bad_trace():
    entries = np.zeros((3, 3, 3, 3), dtype=complex)
    entries[0, 0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        TwoModeDensityMatrix(entries).validate()


def test_density_matrix_keeps_a_fresh_array_read_only():
    entries = np.zeros((3, 3, 3, 3), dtype=complex)
    entries[0, 0, 0, 0] = 1.0
    rho = TwoModeDensityMatrix(entries)
    assert np.shares_memory(rho.entries, entries)
    assert not rho.entries.flags.writeable and not entries.flags.writeable


def test_density_matrix_copies_a_view():
    mat = np.zeros((9, 9), dtype=complex)
    mat[0, 0] = 1.0
    before = mat.copy()
    rho = TwoModeDensityMatrix.from_matrix(mat)
    assert not np.shares_memory(rho.entries, mat)
    assert not rho.entries.flags.writeable
    assert mat.flags.writeable and np.array_equal(mat, before)


def test_ln_factorial_matches_gammaln():
    n = np.arange(3000)
    np.testing.assert_allclose(ln_factorial(n), gammaln(n + 1.0), rtol=1e-14, atol=0.0)
    # Shapes pass through, and a table grown for a large argument serves small ones.
    grid = np.add.outer(np.arange(5), np.arange(7))
    np.testing.assert_array_equal(ln_factorial(grid), ln_factorial(n)[grid])
    assert ln_factorial(0) == 0.0 and ln_factorial(1) == 0.0
    with pytest.raises(ValueError):
        ln_factorial([3, -1])
