"""Reference implementations used by the tests.

Brute-force references share no code path with the package: partial traces
run in the full 2^N two-level-per-site space, propagators go through scipy's
expm, the concurrence uses the rho * rho~ eigenvalue route, and the peak
searches walk the samples one at a time.  The output references format a
CSV one cell at a time and draw a line plot through every sample (with the
package's axis tick helpers).

``evolve_pure`` evolves a pure state to one time through the eigenbasis;
``site_amplitudes`` does so for a whole grid at once and is checked against
it column by column.

The graph builders below (``edge_table``, ``hamiltonian_edge_loop`` and
``graph_json_text``) were the package's: each edge carries its own weight
and the Hamiltonian and the export are filled one edge at a time.  They
share only ``reduce_phase`` with the package's pattern builders.

The general measures below the brute-force ones (``reduced_pair``,
``check_pair_density``, ``concurrence_wootters`` with its spin flip ``_YY``,
``bures_distance``, ``diagonal_bures`` and ``transfer_fidelity_pure``) were
part of the package; nothing in the CLI or the experiments called them.  They
stay as references for the fast paths the package keeps, and build on its
validators, ``measures.fidelity`` and its Hermitian square root.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

from chiralwalk.dynamics import NORM_TOL, check_density_matrix, check_pure_state, check_sites
from chiralwalk.experiments import (
    CROSS_CHECK_TOL,
    PeakResult,
    SweepRecord,
    concurrence_trace,
    global_max,
    top_peaks,
)
from chiralwalk.graphs import reduce_phase
from chiralwalk.measures import PSD_TOL, _clamp01, _sqrtm_psd, fidelity
from chiralwalk.specs import GraphSpec, StateSpec, TimeGrid
from chiralwalk.svgplot import _COLORS, _fmt, _ticks


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


def evolve_pure(d, psi0, t: float) -> np.ndarray:
    """Evolve an amplitude vector to one time: psi(t) = U(t) psi0."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    psi0 = check_pure_state(psi0, d.n)
    c = d.eigenvectors.conj().T @ psi0
    return d.eigenvectors @ (np.exp(-1j * d.eigenvalues * t) * c)


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


# ---------------------------------------------------------------------------
# graph builders


def edge_table(kind: str, n: int, theta: float, magnitude: float = 1.0) -> list:
    """The ``(m, k, weight)`` edges of a tri, cycle or complete graph, m < k,
    in export order: tri offset 1 then offset 2, cycle offset 1 then (1, n),
    complete row-major.  Only tri scales its weight by ``magnitude``."""
    w = np.exp(1j * reduce_phase(theta))
    if kind == "tri":
        w = magnitude * w
        pairs = [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)]
    elif kind == "cycle":
        pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    else:
        pairs = [(m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)]
    return [(m, k, complex(w)) for m, k in pairs]


def hamiltonian_edge_loop(n: int, edges) -> np.ndarray:
    """The Hamiltonian filled edge by edge: the weight at row k, column m, and
    its conjugate at row m, column k."""
    H = np.zeros((n, n), dtype=complex)
    for m, k, w in edges:
        H[k - 1, m - 1] = w
        H[m - 1, k - 1] = np.conj(w)
    return H


def graph_json_text(n: int, edges) -> str:
    """The graph-export JSON object, {n, edges: [[m, k, re, im], ...]}, as text."""
    return json.dumps({"n": n, "edges": [[m, k, w.real, w.imag] for m, k, w in edges]})


# ---------------------------------------------------------------------------
# general measures


def reduced_pair(rho, i: int, j: int) -> np.ndarray:
    """Two-qubit reduced density matrix of sites (i, j).

    For a single-excitation state the partial trace over the remaining sites
    gives a 4x4 matrix with one occupied 2x2 block::

        [[1 - rho_ii - rho_jj, 0,      0,      0],
         [0,                   rho_ii, rho_ij, 0],
         [0,                   rho_ji, rho_jj, 0],
         [0,                   0,      0,      0]]

    The doubly-excited row and column vanish identically because the sector
    holds exactly one excitation.
    """
    rho = check_density_matrix(rho)
    a, b = check_sites(rho.shape[0], i, j)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = 1.0 - rho[a, a].real - rho[b, b].real
    out[1, 1] = rho[a, a]
    out[1, 2] = rho[a, b]
    out[2, 1] = rho[b, a]
    out[2, 2] = rho[b, b]
    return out


def check_pair_density(pd) -> np.ndarray:
    """Validate a 4x4 two-qubit density matrix (Hermitian, unit trace, PSD)."""
    pd = np.asarray(pd, dtype=complex)
    if pd.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {pd.shape}")
    if np.abs(pd - pd.conj().T).max() > 1e-10:
        raise ValueError("pair density matrix is not Hermitian")
    if abs(np.real(np.trace(pd)) - 1.0) > NORM_TOL:
        raise ValueError(f"pair density matrix trace is {np.real(np.trace(pd))!r}")
    if float(np.linalg.eigvalsh(pd).min()) < -PSD_TOL:
        raise ValueError("pair density matrix is not positive semidefinite")
    return pd


# Pauli-Y spin flip on two qubits, (Y (x) Y).
_YY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
)


def concurrence_wootters(pd) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Computes C = max(0, l1 - l2 - l3 - l4) where the l's are the eigenvalues,
    in non-increasing order, of R = sqrt(sqrt(rho) rho~ sqrt(rho)) and
    rho~ = (Y (x) Y) conj(rho) (Y (x) Y) is the spin-flipped state.  The l's
    are evaluated as the singular values of sqrt(rho) sqrt(rho~), whose Gram
    matrix is R^2; unlike an eigensolve of R^2 this keeps the exact-zero l's
    of singular states free of sqrt(eps) noise.
    """
    pd = check_pair_density(pd)
    s = _sqrtm_psd(pd)
    s_flipped = _YY @ s.conj() @ _YY  # sqrt commutes with the antiunitary flip
    lams = np.linalg.svd(s @ s_flipped, compute_uv=False)
    return _clamp01(lams[0] - lams[1] - lams[2] - lams[3])


def bures_distance(rho, sigma) -> float:
    """Bures distance D_B = sqrt(2 (1 - sqrt(F(rho, sigma)))), in [0, sqrt(2)]."""
    f = fidelity(rho, sigma)
    return float(np.sqrt(max(2.0 * (1.0 - np.sqrt(f)), 0.0)))


def diagonal_bures(p, q) -> float:
    """Bures distance between two classical probability vectors.

    For commuting (diagonal) states the fidelity closes to
    F = (sum_i sqrt(p_i q_i))^2, so D_B^2 = 2 (1 - sum_i sqrt(p_i q_i)),
    which for normalized p, q equals sum_i (sqrt(p_i) - sqrt(q_i))^2.  The
    latter form is used because it stays accurate when the distance is tiny.
    """
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    q = np.clip(np.asarray(q, dtype=float), 0.0, None)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"probability vectors must match, got {p.shape} vs {q.shape}")
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(q)))


def transfer_fidelity_pure(psi_t, target) -> float:
    """Squared overlap |<target|psi>|^2 of two amplitude vectors."""
    psi_t = check_pure_state(psi_t)
    target = check_pure_state(target)
    if psi_t.shape != target.shape:
        raise ValueError(f"dimension mismatch: {psi_t.shape} vs {target.shape}")
    return _clamp01(abs(np.vdot(target, psi_t)) ** 2)


# ---------------------------------------------------------------------------
# peak searches


def _parabola_peak(times, values, k: int) -> tuple[float, float]:
    """Vertex of the parabola through samples k-1, k, k+1 (grid point if flat),
    its value capped at 1."""
    y1, y2, y3 = values[k - 1], values[k], values[k + 1]
    denom = y1 - 2.0 * y2 + y3
    if abs(denom) < 1e-300:
        return float(times[k]), float(values[k])
    shift = 0.5 * (y1 - y3) / denom
    dt = times[k + 1] - times[k]
    return float(times[k] + shift * dt), float(min(y2 - 0.25 * (y1 - y3) * shift, 1.0))


def _local_maxima(series):
    """(k, refined peak) of every interior sample >= both neighbours, one by one."""
    v = series.values
    return [(k, PeakResult(*_parabola_peak(series.times, v, k))) for k in range(1, len(v) - 1)
            if v[k] >= v[k - 1] and v[k] >= v[k + 1]]


def _ranked(peaks):
    """Best first; the earlier time wins among equal values."""
    return sorted(peaks, key=lambda p: (-p.value, p.t_peak))


def first_peak_scan(series, noise_floor: float):
    """Earliest refined interior local maximum whose sample is above the floor."""
    for k, peak in _local_maxima(series):
        if series.values[k] > noise_floor:
            return peak
    return PeakResult(math.nan, math.nan, found=False)


def top_peaks_scan(series, count: int):
    """Every refined interior local maximum, sorted by (-value, t)."""
    return tuple(_ranked(peak for _, peak in _local_maxima(series))[:count])


def global_max_scan(series):
    """Best of every refined interior local maximum and the two end samples, which
    are not refined."""
    ends = [PeakResult(float(series.times[k]), float(series.values[k])) for k in (0, -1)]
    return _ranked(ends + [peak for _, peak in _local_maxima(series)])[0]


def optimize_theta_scan(n: int, phi: float, theta_candidates, horizon: float, dt: float):
    """optimize_theta by a full scan: one concurrence_trace over every grid point
    and its global_max per candidate.  Every peak within the slack
    4 max(CROSS_CHECK_TOL, 4 ulp(max|lambda| max|t|)), the largest over the
    candidates, of the largest peak ties with it, and the tie breaks toward
    smaller |theta|, then toward the positive sign."""
    grid = TimeGrid(0.0, horizon, dt)
    state = StateSpec("pair", i=1, j=2, phi=phi)
    t_max = float(np.abs(grid.times()).max())
    scans, slack = [], 0.0
    for theta in map(float, theta_candidates):
        graph = GraphSpec("tri", n, theta)
        series = concurrence_trace(graph, state, grid)
        scans.append((theta, global_max(series), series))
        spacing = math.ulp(float(np.abs(graph.decompose().eigenvalues).max()) * t_max)
        slack = max(slack, 4 * max(CROSS_CHECK_TOL, 4 * spacing))
    top = max(peak.value for _, peak, _ in scans)
    theta, peak, series = min((scan for scan in scans if scan[1].value + slack >= top),
                              key=lambda scan: (abs(scan[0]), -scan[0]))
    return SweepRecord(n, theta, peak.t_peak, peak.value, top_peaks(series))


# ---------------------------------------------------------------------------
# output formats


def csv_text_per_cell(comments: list[str], header: list[str], rows) -> str:
    """CSV text with every cell formatted on its own, as 12-significant-digit
    '{:.12g}' floats, bare ints and text as is."""
    def cell(x):
        if isinstance(x, str):
            return x
        if isinstance(x, int):
            return str(x)
        return f"{float(x):.12g}"

    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def line_plot_every_point(series, title="", xlabel="t", ylabel="value", width=720, height=480):
    """svgplot.line_plot without the M4 reduction: every sample of every series
    is a polyline point, and the axis ranges come from Python min/max."""
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="{mt - 12}" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for t in _ticks(x0, x1):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{mt + ph}" x2="{px(t):.2f}" '
            f'y2="{mt + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{mt + ph + 18}" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(t):.2f}" x2="{ml}" y2="{py(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(t):.2f}" text-anchor="end" '
            f'dominant-baseline="middle">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2}" y="{height - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>'
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        parts.append(
            f'<line x1="{ml + pw - 120}" y1="{ly}" x2="{ml + pw - 96}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ml + pw - 90}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
