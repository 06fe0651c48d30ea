"""Independent brute-force reference implementations used by the tests.

Nothing here shares code paths with the package: partial traces run in the
full 2^N two-level-per-site space, propagators go through scipy's expm, the
concurrence uses the rho * rho~ eigenvalue route, and the peak searches walk
the samples one at a time.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from chiralwalk.experiments import PeakResult


def partial_trace(rho_full: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Generic partial trace; the order of ``keep`` fixes the output basis."""
    k = len(dims)
    rho = rho_full.reshape(dims + dims)
    traced = [i for i in range(k) if i not in keep]
    for offset, axis in enumerate(sorted(traced)):
        ax = axis - offset
        rho = np.trace(rho, axis1=ax, axis2=ax + (k - offset))
    kept_sorted = sorted(keep)
    perm = [kept_sorted.index(i) for i in keep]
    d = [dims[i] for i in kept_sorted]
    rho = rho.reshape(d + d)
    rho = np.transpose(rho, perm + [p + len(keep) for p in perm])
    size = int(np.prod([dims[i] for i in keep]))
    return rho.reshape(size, size)


def embed_single_excitation(rho: np.ndarray) -> np.ndarray:
    """Lift an n-site single-excitation density matrix into the 2^n space.

    Site k (1-based) maps to qubit factor k-1 with the leftmost factor most
    significant, so the basis state with only site k excited has index
    2^(n-k).
    """
    n = rho.shape[0]
    idx = [2 ** (n - k) for k in range(1, n + 1)]
    full = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(n):
        for b in range(n):
            full[idx[a], idx[b]] = rho[a, b]
    return full


def full_space_reduced_pair(rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """Reduced pair state of sites (i, j) via the generic 2^n partial trace.

    Keeping factors in the order (j, i) lines the result up with the
    (vacuum, first-slot, second-slot, double) convention where the first
    occupied slot carries rho_ii.
    """
    n = rho.shape[0]
    full = embed_single_excitation(rho)
    return partial_trace(full, [2] * n, [j - 1, i - 1])


def wootters_concurrence_product_route(pd: np.ndarray) -> float:
    """Concurrence via the eigenvalues of rho * rho~ (no matrix square roots)."""
    Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    YY = np.kron(Y, Y)
    flipped = YY @ pd.conj() @ YY
    lams = np.sqrt(np.abs(np.linalg.eigvals(pd @ flipped)))
    lams = np.sort(np.real(lams))[::-1]
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def fidelity_commuting(p, q) -> float:
    """Closed-form fidelity of two commuting (diagonal) states."""
    return float(np.sum(np.sqrt(np.asarray(p) * np.asarray(q))) ** 2)


def expm_propagator(H: np.ndarray, t: float) -> np.ndarray:
    """Propagator exp(-iHt) through scipy's general matrix exponential."""
    return scipy.linalg.expm(-1j * np.asarray(H, dtype=complex) * t)


def random_single_excitation_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random amplitude vector on n sites."""
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def random_density_matrix(rng: np.random.Generator, n: int, rank: int = 2) -> np.ndarray:
    """Random mixed state in the n-site single-excitation sector."""
    rho = np.zeros((n, n), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        psi = random_single_excitation_state(rng, n)
        rho += w * np.outer(psi, psi.conj())
    return rho


def _parabola_peak(times, values, k: int) -> tuple[float, float]:
    """Vertex of the parabola through samples k-1, k, k+1 (grid point if flat)."""
    y1, y2, y3 = values[k - 1], values[k], values[k + 1]
    denom = y1 - 2.0 * y2 + y3
    if abs(denom) < 1e-300:
        return float(times[k]), float(values[k])
    shift = 0.5 * (y1 - y3) / denom
    dt = times[k + 1] - times[k]
    return float(times[k] + shift * dt), float(y2 - 0.25 * (y1 - y3) * shift)


def first_peak_scan(series, noise_floor: float):
    """Earliest interior sample >= both neighbours and above the floor, one by one."""
    v = series.values
    for k in range(1, len(v) - 1):
        if v[k] >= v[k - 1] and v[k] >= v[k + 1] and v[k] > noise_floor:
            t, val = _parabola_peak(series.times, v, k)
            return PeakResult(t, val, "first-local-max")
    return PeakResult(math.nan, math.nan, "no-peak", found=False)


def top_peaks_scan(series, count: int):
    """Every interior local maximum refined one by one, sorted by (-value, t)."""
    v = series.values
    found = []
    for k in range(1, len(v) - 1):
        if v[k] >= v[k - 1] and v[k] >= v[k + 1]:
            t, val = _parabola_peak(series.times, v, k)
            found.append(PeakResult(t, val, "local-max"))
    found.sort(key=lambda p: (-p.value, p.t_peak))
    return tuple(found[:count])
