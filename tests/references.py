"""Dense reference implementations that the library's fast paths are tested against."""

import numpy as np

from tomolens.decoherence import AMPLITUDE_DECAY
from tomolens.fock import annihilation_matrix, hermite_psi_matrix
from tomolens.tomography import density_eigenmodes


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
