"""Entanglement and state-transfer measures on density matrices.

Covers the pairwise concurrence 2|rho_ij| (exact in the single-excitation
sector), the Uhlmann fidelity and the diagonal-only Bures diagnostic for
probability time-symmetry breaking.
"""

from __future__ import annotations

import numpy as np

from .dynamics import SpectralDecomposition, check_density_matrix, check_sites, evolve_density

PSD_TOL = 1e-10


def _clamp01(x: float) -> float:
    return min(max(float(x), 0.0), 1.0)


def _sqrtm_psd(M: np.ndarray) -> np.ndarray:
    # Hermitian square root; eigenvalues inside the roundoff band [-tol, tol]
    # are clamped to 0 so exact null modes do not pick up sqrt(eps) noise.
    w, U = np.linalg.eigh(M)
    w = np.where(w < PSD_TOL * 0.01, 0.0, w)
    return (U * np.sqrt(w)) @ U.conj().T


def concurrence_pair_fast(rho, i: int, j: int) -> float:
    """Concurrence 2|rho_ij| of a site pair in the single-excitation sector.

    Exact for any state supported on the single-excitation subspace, where the
    doubly-excited element of the reduced pair matrix is zero.
    """
    rho = np.asarray(rho, dtype=complex)
    a, b = check_sites(rho.shape[0], i, j)
    return _clamp01(2.0 * abs(rho[a, b]))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    Symmetric in its arguments and equal to |<psi|phi>|^2 when both states
    are pure.  Matrix square roots are taken through Hermitian
    eigendecompositions with eigenvalue clamping at zero; the trace is
    evaluated as the nuclear norm of sqrt(rho) sqrt(sigma), which equals the
    defining formula but avoids squaring away half the precision.
    """
    rho = check_density_matrix(rho)
    sigma = check_density_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    product = _sqrtm_psd(rho) @ _sqrtm_psd(sigma)
    return _clamp01(np.linalg.svd(product, compute_uv=False).sum() ** 2)


def _sqrt_diagonal_at(d: SpectralDecomposition, rho0, t: float) -> np.ndarray:
    # sqrt of the site occupation probabilities at time t.
    rho_t = evolve_density(d, rho0, t)
    return np.sqrt(np.clip(np.real(np.diag(rho_t)), 0.0, None))


def pts_bures(d: SpectralDecomposition, rho0, t: float) -> float:
    """Diagonal-only Bures distance between forward and backward evolution.

    Evolves the density matrix ``rho0`` to +t and -t and compares only the
    site occupation probabilities.  The result vanishes identically when
    probability time symmetry is unbroken, e.g. for a real Hamiltonian with a
    real initial state.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    r = _sqrt_diagonal_at(d, rho0, t)
    s = _sqrt_diagonal_at(d, rho0, -t)
    return float(np.linalg.norm(r - s))


def concurrence_matrix(rho) -> np.ndarray:
    """Symmetric matrix of pairwise concurrences 2|rho_ij|, zero diagonal.

    Built from the upper triangle and mirrored, so the output is exactly
    symmetric even when roundoff leaves rho_ij and rho_ji an ulp apart.
    """
    rho = np.asarray(rho, dtype=complex)
    C = np.triu(np.clip(2.0 * np.abs(rho), 0.0, 1.0), 1)
    return C + C.T
