"""Dense reference implementations that the library's fast paths are tested against."""

import numpy as np

from tomolens.decoherence import AMPLITUDE_DECAY
from tomolens.fock import annihilation_matrix


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
