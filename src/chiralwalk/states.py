"""Initial and target states in the single-excitation site basis."""

from __future__ import annotations

import numpy as np

from .dynamics import check_pure_state, check_sites


def _mixing_weight(n: int, b) -> float:
    """b as a float, for a Werner-like state on n >= 2 sites; b in [-1, 1] keeps it positive."""
    if n < 2:
        raise ValueError(f"need n >= 2 sites, got {n}")
    b = float(b)
    if not -1.0 <= b <= 1.0:
        raise ValueError(f"mixing weight b must lie in [-1, 1], got {b}")
    return b


def localized(n: int, i: int) -> np.ndarray:
    """Excitation fully at site i."""
    (a,) = check_sites(n, i)
    psi = np.zeros(n, dtype=complex)
    psi[a] = 1.0
    return psi


def spatial_pair(n: int, i: int, j: int, phi: float) -> np.ndarray:
    """State (|i> - e^{i phi} |j>)/sqrt(2); phi = pi gives (|i> + |j>)/sqrt(2)."""
    a, b = check_sites(n, i, j)
    psi = np.zeros(n, dtype=complex)
    psi[a] = 1.0 / np.sqrt(2.0)
    psi[b] = -np.exp(1j * float(phi)) / np.sqrt(2.0)
    return psi


def density_from_pure(psi) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|."""
    psi = check_pure_state(psi)
    return np.outer(psi, psi.conj())


def werner(n: int, b) -> np.ndarray:
    """Werner-like mixture on the two injection sites.

    Returns b * |psi><psi| + (1 - b) * (|1><1| + |2><2|)/2 with
    psi = (|1> + |2>)/sqrt(2).  b = 1 is the pure pair state, b = 0 the
    maximally mixed state of the two-site manifold; the occupied 2x2 block
    has eigenvalues (1 +- b)/2.
    """
    b = _mixing_weight(n, b)
    rho = b * density_from_pure(spatial_pair(n, 1, 2, np.pi))
    rho[0, 0] += (1.0 - b) / 2.0
    rho[1, 1] += (1.0 - b) / 2.0
    return rho


def werner_ensemble(n: int, b) -> tuple[tuple[float, np.ndarray], ...]:
    """Pure-state ensemble ((1 + b)/2, psi+), ((1 - b)/2, psi-) of ``werner(n, b)``.

    psi+- = (|1> +- |2>)/sqrt(2) are the eigenvectors of the occupied 2x2
    block, written in closed form.  Both members are kept even when one
    weight is zero, so the ensemble always has the same two rows.
    """
    b = _mixing_weight(n, b)
    return (
        ((1.0 + b) / 2.0, spatial_pair(n, 1, 2, np.pi)),
        ((1.0 - b) / 2.0, spatial_pair(n, 1, 2, 0.0)),
    )


def target_pure(n: int, phi: float) -> np.ndarray:
    """Transfer target (|n-1> - e^{i phi} |n>)/sqrt(2) at the right end."""
    if n < 2:
        raise ValueError(f"need n >= 2 sites, got {n}")
    return spatial_pair(n, n - 1, n, phi)


def target_werner(n: int, b) -> np.ndarray:
    """Ideally transferred Werner state on the rightmost pair (n-1, n)."""
    b = _mixing_weight(n, b)
    rho = np.zeros((n, n), dtype=complex)
    rho[n - 2, n - 2] = rho[n - 1, n - 1] = 0.5
    rho[n - 2, n - 1] = rho[n - 1, n - 2] = b / 2.0
    return rho
