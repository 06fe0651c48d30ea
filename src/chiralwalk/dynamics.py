"""Spectral decomposition and exact unitary time evolution.

The Hamiltonians here are tiny dense Hermitian matrices, so every propagator
U(t) = V exp(-i L t) V^dag is built from one eigendecomposition that is reused
across a whole time grid.  No step-size error enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
RESIDUAL_TOL = 1e-10
AMPLITUDE_CHUNK = 4096  # grid columns per group of phase blocks
GRID_SPACINGS = 8  # float spacings of max|t| a factored grid may deviate by
FINE_BLOCK = 256  # fine-block columns of a short grid read on many rows


def check_hermitian(H) -> np.ndarray:
    """Validate and return H, a matrix or a stack (..., n, n) of them, as a complex
    Hermitian ndarray; the deviation reported is the largest over the stack."""
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    dev = np.abs(H - H.conj().swapaxes(-1, -2)).max()
    if not dev <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return H


def check_pure_state(psi, n: int | None = None) -> np.ndarray:
    """Validate a normalized amplitude vector in the site basis."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"expected a 1-d amplitude vector, got shape {psi.shape}")
    if n is not None and psi.shape[0] != n:
        raise ValueError(f"dimension mismatch: state has {psi.shape[0]} sites, expected {n}")
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized: |psi| = {norm!r}")
    return psi


def check_sites(n: int, *sites) -> tuple[int, ...]:
    """The 0-based indices of 1-based ``sites``, each an integer (not a bool) in
    1..n; the two sites of a pair must differ."""
    if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) and 1 <= s <= n
               for s in sites):
        shown = ", ".join(map(str, sites))
        label = f"site index {shown}" if len(sites) == 1 else f"sites ({shown})"
        raise IndexError(f"{label} out of range 1..{n}")
    if len(sites) == 2 and sites[0] == sites[1]:
        raise ValueError(f"pair sites must differ, got i = j = {sites[0]}")
    return tuple(int(s) - 1 for s in sites)


def check_density_matrix(rho, n: int | None = None) -> np.ndarray:
    """Validate a unit-trace positive-semidefinite density matrix."""
    rho = check_hermitian(rho)
    if rho.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if n is not None and rho.shape[0] != n:
        raise ValueError(f"dimension mismatch: state has {rho.shape[0]} sites, expected {n}")
    tr = float(np.real(np.trace(rho)))
    if not abs(tr - 1.0) <= NORM_TOL:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")
    lo = float(np.linalg.eigvalsh(rho).min())
    if not lo >= -NORM_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector columns of a Hamiltonian,
    with the largest entries of H V - V L and V^dag V - I they were checked by.

    A stack of Hamiltonians (..., n, n) gives stacked fields: eigenvalues
    (..., n), eigenvectors (..., n, n), and a residual and orthonormality per
    member; ``member(k)`` is the decomposition of one of them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float | np.ndarray
    orthonormality: float | np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]

    def member(self, k) -> SpectralDecomposition:
        return SpectralDecomposition(self.eigenvalues[k], self.eigenvectors[k],
                                     float(self.residual[k]), float(self.orthonormality[k]))


def spectral_decompose(H) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, or each member of a stack (..., n, n).

    The output is deterministic for identical input; eigenvalues ascend and
    eigenvector columns are orthonormal even inside degenerate blocks.  Each
    column's phase is whatever eigh returns: no output depends on it, since
    every value is built from V ... V^dag, where a column's phase cancels.
    eigh decomposes a stack member by member, so each member gets the bits of
    a lone call.  Every member is checked as a lone call checks it, and the
    first that fails is reported.
    """
    H = check_hermitian(H)
    eigenvalues, V = np.linalg.eigh(H)
    if not np.all(np.isfinite(eigenvalues)):
        raise ArithmeticError("eigendecomposition failed: the spectrum is not finite")
    scale = np.maximum(1.0, np.abs(eigenvalues).max(axis=-1, initial=0.0))
    resid = np.abs(H @ V - V * eigenvalues[..., None, :]).max(axis=(-2, -1))
    ortho = np.abs(V.conj().swapaxes(-1, -2) @ V - np.eye(H.shape[-1])).max(axis=(-2, -1))
    failed = ~((resid <= RESIDUAL_TOL * scale) & (ortho <= RESIDUAL_TOL))
    if np.any(failed):
        k = np.argmax(failed)
        raise ArithmeticError(f"eigendecomposition failed: residual {resid.flat[k]:.3e}, "
                              f"orthonormality {ortho.flat[k]:.3e}")
    eigenvalues.setflags(write=False)
    V.setflags(write=False)
    if H.ndim == 2:
        resid, ortho = float(resid), float(ortho)
    return SpectralDecomposition(eigenvalues, V, resid, ortho)


def propagator(d: SpectralDecomposition, t: float) -> np.ndarray:
    """Unitary U(t) = V exp(-i L t) V^dag; negative t evolves backward."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    phases = np.exp(-1j * d.eigenvalues * t)
    return (d.eigenvectors * phases) @ d.eigenvectors.conj().T


def evolve_density(d: SpectralDecomposition, rho0, t: float) -> np.ndarray:
    """Evolve a density matrix: rho(t) = U(t) rho0 U(t)^dag."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    rho0 = check_density_matrix(rho0, d.n)
    U = propagator(d, t)
    return U @ rho0 @ U.conj().T


def _phases(eigenvalues: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{-i lam t} for every eigenvalue (rows) and time (columns)."""
    return _exp_minus_i(np.multiply.outer(eigenvalues, times))


def _exp_minus_i(angles: np.ndarray) -> np.ndarray:
    """e^{-i angles} as cos - i sin: the same bits as np.exp(-1j * angles); float32
    angles give complex64."""
    phases = np.empty(angles.shape, dtype=np.result_type(angles, np.complex64))
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    return phases


def _grid_block(size: int, rows: int) -> int:
    """Block length B of a grid of ``size`` times read on ``rows`` rows.

    B is isqrt(T).  A readout of more than two rows widens it to
    min(FINE_BLOCK, T // 4) columns where that is wider: the products of its
    weighted anchors with the fine block then cost more than the fine
    block's sines and cosines, and a narrow block cuts them into many small
    products.
    """
    block = math.isqrt(size)
    return max(block, min(FINE_BLOCK, size // 4)) if rows > 2 else block


def _readout(d: SpectralDecomposition, psi, rows=None) -> np.ndarray:
    """W = V[rows] diag(V^dag psi), so psi(t)[rows] = W e^{-i lam t}; rows default to
    all n.  A stacked decomposition gives one W per member, (..., r, n)."""
    V = d.eigenvectors
    coefficients = V.conj().swapaxes(-1, -2) @ psi
    return (V if rows is None else V[..., rows, :]) * coefficients[..., None, :]


def site_amplitudes(d: SpectralDecomposition, psi0, times, rows=None) -> np.ndarray:
    """Amplitudes of a pure state (n,) on a whole time grid, shape (r, len(times)),
    or of each of a stack of m pure states (m, n), shape (m, r, len(times)).

    Row k holds site ``rows[k]`` (0-based; default all n sites) and column j
    holds it at times[j]: the rows of psi(t_j) = U(t_j) psi, folded into W (_readout).

    The times are cut into blocks of B columns (see _grid_block), and groups of
    w = max(1, AMPLITUDE_CHUNK // B) B columns are written one at a time, each
    state in turn.  A group is factored if its every times[bB + m] is
    times[bB] + (times[m] - times[0]) within GRID_SPACINGS float spacings of
    max|t|, as on any uniform grid: each phase is e^{-i lam t_bB} e^{-i lam
    (t_m - t_0)}, from the anchor phases at the group's own block starts and
    one fine block that the first factored group forms for all, and the group
    is the anchor-weighted readout times the fine block, corrected to first
    order for the deviations.  Any other group takes one phase per element.
    Each state's products have the shapes of a call with that state alone, so
    its rows are the same bits.  Memory is the m x r x T output plus the fine
    block and one group's phases and products, O(n w).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-d array")
    if times.size and not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    psi0 = np.asarray(psi0, dtype=complex)
    if rows is not None:
        rows = np.asarray(rows)
        if (rows.ndim != 1 or not rows.size or rows.dtype.kind not in "iu"
                or np.any((rows < 0) | (rows >= d.n))):
            raise IndexError(f"rows must be a 1-d list of integer site indices in 0..{d.n - 1}")
    W = np.stack([_readout(d, check_pure_state(psi, d.n), rows) for psi in np.atleast_2d(psi0)])
    r, size = W.shape[1], times.size
    out = np.empty((*W.shape[:2], size), dtype=complex)
    amplitudes = out if psi0.ndim == 2 else out[0]
    block = _grid_block(size, r)
    if not block:
        return amplitudes
    offsets, fine = times[:block] - times[0], None
    tol = GRID_SPACINGS * np.spacing(max(abs(times.max()), abs(times.min())))
    width = max(1, AMPLITUDE_CHUNK // block) * block
    for lo in range(0, size, width):
        hi = min(lo + width, size)
        starts = times[lo:hi:block]
        dev = times[lo:hi] - np.repeat(starts, block)[:hi - lo]
        dev -= np.resize(offsets, hi - lo)
        if np.abs(dev).max() > tol:
            exact = _phases(d.eigenvalues, times[lo:hi])
            for w, member in zip(W, out):
                np.matmul(w, exact, out=member[:, lo:hi])
            continue
        if fine is None:
            fine = _phases(d.eigenvalues, offsets)
            # Rows r.. are the time derivative of rows ..r; they correct each
            # column to first order for the deviation of its time from anchor + offset.
            readouts = np.concatenate([W, -1j * W * d.eigenvalues], axis=1)
        anchors = _phases(d.eigenvalues, starts)
        for readout, member in zip(readouts, out):
            weighted = readout[:, None, :] * anchors.T
            blocks = (weighted.reshape(-1, d.n) @ fine).reshape(2 * r, -1)[:, :hi - lo]
            np.multiply(blocks[r:], dev, out=blocks[r:])
            np.add(blocks[:r], blocks[r:], out=member[:, lo:hi])
            del weighted, blocks  # freed before the next member's are made
    return amplitudes


def occupation(rho, i: int) -> float:
    """Occupation probability of site i (1-based), clamped to [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    (a,) = check_sites(rho.shape[0], i)
    p = float(np.real(rho[a, a]))
    if not -NORM_TOL <= p <= 1.0 + NORM_TOL:
        raise ValueError(f"diagonal element {p!r} is not a probability")
    return min(max(p, 0.0), 1.0)
