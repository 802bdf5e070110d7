import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from tomolens.beamsplitter import block_generator
from tomolens.errors import TruncationOverflow
from tomolens.fock import (
    SingleModeState,
    TwoModeDensityMatrix,
    TwoModeState,
    annihilation_matrix,
    apply_annihilation,
    apply_creation,
    hermite_psi_matrix,
    inner,
    ln_factorial,
    psi,
    unitary_exp,
)
from tomolens.states import deformed_annihilation_matrix, make_coherent, make_product
from tomolens.tomography import QuadratureGrid


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


@pytest.mark.parametrize("n,x", [(10_000, 50.0), (10_000, -50.0), (2_500, 50.0), (150, 10.0), (10_000, 0.3)])
def test_psi_no_overflow_large_orders(n, x):
    value = psi(n, x)
    assert np.isfinite(value)
    assert abs(value) < 1.0
    assert abs(value - psi_reference(n, x)) < 1e-12


def test_recurrence_matches_direct_formula():
    xs = np.linspace(-10.0, 10.0, 41)
    table = hermite_psi_matrix(25, xs)
    for n in range(26):
        for j, x in enumerate(xs):
            assert abs(table[n, j] - psi_reference(n, x)) < 1e-10


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


def _squeezing_generator(dim, xi):
    a = annihilation_matrix(dim)
    return 0.5 * (np.conj(xi) * (a @ a) - xi * (a @ a).conj().T)


def _isospectral_generator(dim, zeta, base):
    ai = deformed_annihilation_matrix(dim, base)
    return zeta * ai.T - np.conj(zeta) * ai


@pytest.mark.parametrize(
    "gen",
    [block_generator(total, phi) for total in (0, 1, 7, 40) for phi in (0.0, 0.9, np.pi / 2)]
    + [_squeezing_generator(dim, xi) for dim in (40, 120) for xi in (0.5, 0.8 - 0.6j, 1.2)]
    + [_squeezing_generator(120, 0.8 - 0.6j)[1::2, 1::2]]
    + [_isospectral_generator(dim, zeta, base) for dim in (40, 120) for zeta, base in ((0.6, 1), (0.7j, 3))],
)
def test_unitary_exp_matches_expm(gen):
    # Both routes err by a few ulps times the generator's norm; at d = 40 and
    # xi = 0.5 it is expm that misses by 1e-13 (see the mpmath test below).
    tol = 1e-14 * max(1.0, np.abs(gen).sum(axis=0).max())
    np.testing.assert_allclose(unitary_exp(gen), expm(gen), rtol=0.0, atol=tol)
    np.testing.assert_allclose(unitary_exp(-gen), expm(-gen), rtol=0.0, atol=tol)


def test_unitary_exp_matches_extended_precision():
    gen = _squeezing_generator(40, 0.5)
    with mp.workdps(40):
        reference = np.array(mp.expm(mp.matrix(gen.tolist())).tolist(), dtype=complex)
    assert np.max(np.abs(unitary_exp(gen) - reference)) < 2e-14
