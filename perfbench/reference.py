"""Independent reference values for the benchmark's output checks.

Nothing here imports chiralwalk: the Hamiltonian is rebuilt from the paper's
definition and every propagator comes from scipy's general matrix
exponential, so a check compares two separate computations.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

CSV_DIGITS = 12
ABS_TOL = 1e-12


def csv_tolerance(value: float) -> float:
    """Half a unit in the 12th significant digit of ``value``, plus 1e-12."""
    if value == 0.0 or not math.isfinite(value):
        return ABS_TOL
    exponent = math.floor(math.log10(abs(value)))
    return 0.5 * 10.0 ** (exponent - (CSV_DIGITS - 1)) + ABS_TOL


def triangular_chain_hamiltonian(n: int, theta: float) -> np.ndarray:
    """Chain of triangles: hops (i, i+1) and (i, i+2), e^{i theta} below the diagonal."""
    H = np.zeros((n, n), dtype=complex)
    w = np.exp(1j * theta)
    for row in range(n):
        for col in range(row):
            if row - col <= 2:
                H[row, col] = w
                H[col, row] = np.conj(w)
    return H


def propagator(H: np.ndarray, t: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * t * H)


def pair_state(n: int, i: int, j: int, phi: float) -> np.ndarray:
    """(|i> - e^{i phi} |j>) / sqrt(2), sites 1-based."""
    psi = np.zeros(n, dtype=complex)
    psi[i - 1] = 1.0 / math.sqrt(2.0)
    psi[j - 1] = -np.exp(1j * phi) / math.sqrt(2.0)
    return psi


def werner_state(n: int, b: float) -> np.ndarray:
    """b |+><+| + (1 - b)(|1><1| + |2><2|)/2 on the first two sites."""
    rho = np.zeros((n, n), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    rho[0, 1] = rho[1, 0] = b / 2.0
    return rho


def end_concurrence(H: np.ndarray, psi0: np.ndarray, t: float) -> float:
    """2 |a_{n-1}(t) a_n(t)^*| for a pure single-excitation state."""
    psi = propagator(H, t) @ psi0
    return min(2.0 * abs(psi[-2] * np.conj(psi[-1])), 1.0)


def concurrence_matrix(H: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """Pairwise concurrences 2 |a_i a_j^*| with a zero diagonal."""
    psi = propagator(H, t) @ psi0
    C = np.minimum(2.0 * np.abs(np.outer(psi, psi.conj())), 1.0)
    np.fill_diagonal(C, 0.0)
    return C


def werner_fidelity(H: np.ndarray, b: float, t: float) -> float:
    """Uhlmann fidelity of the evolved Werner state with its end-pair target.

    The target sigma lives on the last two sites, so only the 2x2 block of
    rho(t) there enters: F = tr M + 2 sqrt(det M) with M = sqrt(s) rho_b sqrt(s).
    """
    n = H.shape[0]
    U = propagator(H, t)
    rho = U @ werner_state(n, b) @ U.conj().T
    block = rho[n - 2:, n - 2:]
    # sigma_b = [[1, b], [b, 1]] / 2 has eigenvectors (1, +-1)/sqrt(2).
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    root = v @ np.diag(np.sqrt([(1.0 + b) / 2.0, (1.0 - b) / 2.0])) @ v.T
    M = root @ block @ root
    det = max(float(np.real(np.linalg.det(M))), 0.0)
    return min(max(float(np.real(np.trace(M))) + 2.0 * math.sqrt(det), 0.0), 1.0)


def werner_pts_bures(H: np.ndarray, b: float, t: float) -> float:
    """|| sqrt(diag rho(t)) - sqrt(diag rho(-t)) || for the Werner state."""
    rho0 = werner_state(H.shape[0], b)

    def root_diag(s: float) -> np.ndarray:
        U = propagator(H, s)
        p = np.real(np.diag(U @ rho0 @ U.conj().T))
        return np.sqrt(np.clip(p, 0.0, None))

    return float(np.linalg.norm(root_diag(t) - root_diag(-t)))
