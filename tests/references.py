"""Dense reference implementations that the library's fast paths are tested against."""

import numpy as np

from tomolens.decoherence import AMPLITUDE_DECAY
from tomolens.fock import _LN2_HI, _LN2_LO, _T_FLOOR, annihilation_matrix, hermite_psi_matrix
from tomolens.tomography import density_eigenmodes


def block_generator(total: int, phi: float) -> np.ndarray:
    """The beamsplitter generator K = (pi/4)(a^dag b e^{i phi} - a b^dag e^{-i phi}) on the block |j, total - j>."""
    gen = np.zeros((total + 1, total + 1), dtype=complex)
    quarter_pi = 0.25 * np.pi
    for j in range(total):
        # a^dag b |j, T-j> = sqrt((j+1)(T-j)) |j+1, T-j-1>
        amp = quarter_pi * np.sqrt((j + 1.0) * (total - j))
        gen[j + 1, j] += amp * np.exp(1j * phi)
        # a b^dag |j+1, T-j-1> = sqrt((j+1)(T-j)) |j, T-j>
        gen[j, j + 1] -= amp * np.exp(-1j * phi)
    return gen


def expm_fixed_point(gen: np.ndarray, bits: int = 160) -> np.ndarray:
    """exp(gen) in exact Python-int fixed point with `bits` fractional bits (160 bits is 48 digits).

    Taylor series on gen / 2^s, ||gen / 2^s||_1 <= 1/16, then s squarings,
    each product rounded down to 2^-bits; the result is rounded once to
    complex128.  A 40-digit mpmath expm gives the same doubles, at about 20 s
    for a 61 x 61 block against 1 s here.
    """
    scale = 2.0**bits

    def fixed(part):
        return np.array([[int(v * scale) for v in row] for row in part], dtype=object)

    def mul(x, y):
        # (a + ib)(c + id) from three real products.
        (a, b), (c, d) = x, y
        ac, bd = a @ c, b @ d
        return (ac - bd) >> bits, ((a + b) @ (c + d) - ac - bd) >> bits

    s = max(0, int(np.ceil(np.log2(max(np.abs(gen).sum(axis=0).max(), 1.0)))) + 4)
    step = (fixed(gen.real) >> s, fixed(gen.imag) >> s)
    eye = np.identity(gen.shape[0], dtype=int).astype(object) << bits
    total, term, k = (eye, eye * 0), (eye, eye * 0), 1
    # Rounding down leaves a term of -1 ulp at worst, so a term of at most 1 ulp ends the series.
    while max(abs(v) for part in term for v in part.flat) > 1:
        term = tuple(part // k for part in mul(term, step))
        total = (total[0] + term[0], total[1] + term[1])
        k += 1
    for _ in range(s):
        total = mul(total, total)
    return (total[0].astype(float) + 1j * total[1].astype(float)) / scale


def composite_lindblad_rhs(rho, cfg):
    """The master equation with dense kron(a, I) composite operators."""
    dim = rho.dim
    a = annihilation_matrix(dim)
    eye = np.eye(dim)
    c = np.kron(a, eye)
    d = np.kron(eye, a)
    if cfg.kind == AMPLITUDE_DECAY:
        l_c, l_d = c, d
    else:
        l_c, l_d = c.conj().T @ c, d.conj().T @ d
    mat = rho.as_matrix()
    out = np.zeros_like(mat)
    for rate, op in ((cfg.rate_c, l_c), (cfg.rate_d, l_d)):
        opd = op.conj().T
        out += rate * (2.0 * op @ mat @ opd - opd @ op @ mat - mat @ opd @ op)
    return out


def deformed_annihilation_matrix(dim: int, base: int = 1) -> np.ndarray:
    """Annihilation operator of the restricted Fock space {|base>, |base+1>, ...}.

    Acts as sqrt(n - base)|n-1><n|; it annihilates every |n> with n <= base.
    For base = 1 this is the operator a^dag (1+N)^(-1/2) a (1+N)^(-1/2) a.
    """
    mat = np.zeros((dim, dim))
    for n in range(base + 1, dim):
        mat[n - 1, n] = np.sqrt(n - base)
    return mat


def full_pair_products(obj, grid):
    """Q[(n, n'), j] = psi_n(x_j) psi_n'(x_j) over all d^2 pairs (the unfolded form)."""
    psis = hermite_psi_matrix(obj.n_cut, grid.x)
    return (psis[:, None, :] * psis[None, :, :]).reshape(psis.shape[0] ** 2, -1)


def phase_matrix(dim, theta):
    n = np.arange(dim)
    return np.exp(-1j * np.multiply.outer(theta, n[:, None] - n[None, :]))


def full_pair_tomogram(rho, theta1, theta2, grid):
    """The joint tomogram Q^T Re(rho~) Q over every (n, n') pair of each mode, both modes on `grid`."""
    d = rho.dim
    q = full_pair_products(rho, grid)
    phased = rho.entries * phase_matrix(d, theta1)[:, :, None, None] * phase_matrix(d, theta2)
    return q.T @ phased.real.reshape(d * d, d * d) @ q


def eigenmode_tomogram(rho, theta1, theta2, grid):
    """The joint tomogram as sum_k lambda_k |psi^T c~_k psi|^2 over the eigenmodes of rho."""
    psis = hermite_psi_matrix(rho.n_cut, grid.x)
    n = np.arange(rho.dim)
    phase = np.exp(-1j * theta1 * n)[:, None] * np.exp(-1j * theta2 * n)[None, :]
    weights, modes = density_eigenmodes(rho)
    return sum(lam * np.abs(psis.T @ (c * phase) @ psis) ** 2 for lam, c in zip(weights, modes))


def psi_recurrence_ldexp(n_max: int, x) -> np.ndarray:
    """psi_n(x), n = 0 .. n_max, by the exponent-carrying recurrence on every point, each row ldexp(p_n, e).

    The same recurrence as fock.hermite_psi_matrix, without its mirroring,
    and with one ldexp per row where the library multiplies by 2^e.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        h = 0.5 * x * x
        e = np.floor(np.maximum(-h / _LN2_HI, _T_FLOOR))
        p_prev, p_cur = np.zeros_like(x), np.pi**-0.25 * np.exp((-h - e * _LN2_HI) - e * _LN2_LO)
        e = e.astype(np.int64)
        np.ldexp(p_cur, e, out=out[0])
        growth = np.sqrt(2.0) * np.max(np.abs(x), initial=0.0, where=np.isfinite(x)) + 2.0
        span = max(1, int(900 // np.log2(growth)))
        step_x = np.where(np.isinf(x), 0.0, x)
        for n in range(n_max):
            if n % span == 0:
                _, power = np.frexp(np.maximum(np.abs(p_prev), np.abs(p_cur)))
                p_prev, p_cur = np.ldexp(p_prev, -power), np.ldexp(p_cur, -power)
                e += power
            p_next = np.sqrt(2.0 / (n + 1)) * step_x * p_cur - np.sqrt(n / (n + 1.0)) * p_prev
            p_prev, p_cur = p_cur, p_next
            np.ldexp(p_cur, e, out=out[n + 1])
    return out


def total_photon_distribution_trace(state) -> np.ndarray:
    """P(n + m = T), T = 0 .. 2 n_cut, one np.trace per anti-diagonal of |c_nm|^2."""
    p = np.abs(state.amplitudes) ** 2
    return np.array([np.trace(p[:, ::-1], offset=state.n_cut - total) for total in range(2 * state.n_cut + 1)])


def tomogram_pure_complex(state, thetas, grid) -> np.ndarray:
    """w(X, theta) = |sum_n c_n e^{-i n theta} psi_n(X)|^2 on every grid point, through one complex product."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    psis = hermite_psi_matrix(state.n_cut, grid.x)
    phased = np.exp(-1j * np.outer(thetas, np.arange(state.n_cut + 1))) * state.amplitudes
    return np.abs(phased @ psis) ** 2
