"""Sweep experiments: time traces, peak detection, phase optimization, scaling.

Everything here is deterministic: a given parameter set always produces the
same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, graphs, measures, states
from .dynamics import (
    SpectralDecomposition,
    evolve_density,
    occupation,
    site_amplitudes,
    spectral_decompose,
)
from .graphs import PHASE_RESOLUTION
from .specs import GraphSpec, StateSpec, TimeGrid

PEAK_NOISE_FLOOR = 0.01
LONG_TIME_HORIZON = 500.0
LONG_TIME_DT = 0.02
THETA_CANDIDATES = (-np.pi / 2, np.pi / 2)
# The most the curvature bound M (s dt)^2 / 8 of a long-time search may add to
# f = C^2, whose range is [0, 1], between two of its coarse samples s grid
# steps apart (see _candidate_series).  M lies between about 19 and 65 on
# tri:5..33, so at dt = 0.02 the search reads every 5th to 10th grid point.
COARSE_SLACK = 0.1
# Theta candidates a long-time search decomposes and reads as one stack.  It
# bounds what the search holds at once, whatever the number of candidates:
# the stacked eigenvectors and the coarse values.  The candidates' live
# points are read one candidate at a time.
CANDIDATE_SLICE = 16
CROSS_CHECK_TOL = 1e-10


# The pair state (1, 2) with phase pi, whose transfer the paper follows, and
# the grid of its first-peak scaling sweep.
TRANSFER_STATE = StateSpec("pair", i=1, j=2, phi=math.pi)
SCALING_GRID = TimeGrid(0.0, 40.0, 0.005)


@dataclass(frozen=True)
class TraceSeries:
    """A scalar measure sampled over a time grid, with its label."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size >= 2 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        _check_finite(values, self.label)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PeakResult:
    """A detected peak; found=False marks an explicit no-peak outcome."""

    t_peak: float
    value: float
    found: bool = True


@dataclass(frozen=True)
class SweepRecord:
    """One row of a phase-optimization table."""

    n: int
    theta: float
    t: float
    concurrence: float
    top_peaks: tuple[PeakResult, ...] = ()


@dataclass(frozen=True)
class ScalingResult:
    """First-peak transfer times and values per chain size, with a linear fit."""

    entries: tuple[tuple[int, float, float], ...]  # (n, t_peak, concurrence)
    slope: float
    intercept: float
    r_squared: float


def _check_phases(d: SpectralDecomposition, times: np.ndarray, label: str) -> float:
    """Tolerance max(CROSS_CHECK_TOL, 4 ulp(max|lambda t|)) of the values from the phases over
    ``times``, whose rounding each carries; ArithmeticError if that ulp exceeds PHASE_RESOLUTION,
    while an overflowing phase is left to the finite checks."""
    top = float(np.abs(d.eigenvalues).max(initial=0.0)) * float(np.abs(times).max(initial=0.0))
    if math.isfinite(top) and math.ulp(top) > PHASE_RESOLUTION:
        raise ArithmeticError(
            f"{label}: phases lambda t reach {top:.3g}, where floats lie {math.ulp(top):.3g} "
            f"apart, more than the phase resolution {PHASE_RESOLUTION:g}"
        )
    return max(CROSS_CHECK_TOL, 4 * math.ulp(top))


def _check_finite(values, label: str) -> None:
    """ArithmeticError unless every value is finite, so that no NaN or inf is output."""
    if not np.all(np.isfinite(values)):
        raise ArithmeticError(f"{label or 'trace'}: the values are not all finite")


# ---------------------------------------------------------------------------
# traces


def _member_sum(members, term) -> np.ndarray:
    """sum_m w_m term(a_m) over the members (weights, amplitudes), one member at a time."""
    return sum(w * term(amp) for w, amp in zip(*members))


def _coherence(members, a: int, b: int) -> np.ndarray:
    """rho_ab(t) = sum_m w_m a_m,a(t) conj(a_m,b(t)), a and b rows of a_m."""
    return _member_sum(members, lambda amp: amp[a] * np.conj(amp[b]))


def _populations(members, rows) -> np.ndarray:
    """rho_ss(t) = sum_m w_m |a_m,s(t)|^2 for the rows ``rows`` of a_m."""
    return _member_sum(members, lambda amp: np.abs(amp[rows]) ** 2)


def _cross_check(values, state_spec: StateSpec, n: int, label: str, reference, tol) -> None:
    """Numerical-health check of the ensemble path for a Werner state, the one mixed state.

    Its last output must agree with ``reference(rho0)``, the same output
    computed from rho0 = states.werner(n, b) by the density-matrix definition,
    within ``tol``; otherwise ArithmeticError.
    """
    if state_spec.kind != "werner":
        return
    delta = float(np.max(np.abs(values[-1] - reference(states.werner(n, state_spec.b)))))
    if not delta <= tol:
        raise ArithmeticError(
            f"{label}: the ensemble value at the last time differs from the "
            f"density-matrix value by {delta:.3g}, more than {tol:.3g}"
        )


def _evaluate(graph_spec: GraphSpec, state_spec: StateSpec, times: np.ndarray,
              measure, reference, label: str):
    """``measure(amplitudes)``, checked, from the pure-state ensemble of ``state_spec``.

    ``amplitudes(at, rows=None)`` gives the members (weights, a): the weights
    w_m, as Python floats, and from one site_amplitudes call the (m, r, T)
    stack of the site rows ``rows`` (0-based, default all n) of each psi_m at
    the times ``at``, in that order, so the helpers above index a_m by
    position in ``rows``.  The phases over ``times`` must be resolved and the
    values finite.  A mixed state's last value must agree with
    ``reference(d, rho0)`` within the phases' rounding tolerance (_check_phases).
    """
    n = graph_spec.n
    weights, stack = zip(*state_spec.ensemble(n))
    d = graph_spec.decompose()
    tol = _check_phases(d, times, label)
    values = measure(lambda at, rows=None: (weights, site_amplitudes(d, stack, at, rows)))
    _check_finite(values, label)
    _cross_check(values, state_spec, n, label, lambda rho0: reference(d, rho0), tol)
    return values


def _pointwise_trace(graph_spec: GraphSpec, state_spec: StateSpec, grid: TimeGrid,
                     rows, measure, reference, label: str) -> TraceSeries:
    """``measure`` over the grid, clipped into [0, 1], from the ensemble's amplitude rows.

    ``measure(members)`` maps the members (weights, a) of the readout ``rows`` to one
    value per time; ``reference(rho)`` is the same value from a density
    matrix, against which a mixed state's last value is cross-checked.
    """
    times = grid.times()
    values = _evaluate(
        graph_spec, state_spec, times,
        lambda amplitudes: np.clip(measure(amplitudes(times, rows)), 0.0, 1.0),
        lambda d, rho0: reference(evolve_density(d, rho0, times[-1])), label)
    return TraceSeries(times, values, label=label)


def concurrence_trace(
    graph_spec: GraphSpec,
    state_spec: StateSpec,
    grid: TimeGrid,
    pair: tuple[int, int] | None = None,
) -> TraceSeries:
    """Pairwise concurrence C_{i,j}(t) = 2|rho_ij(t)| over the grid; default pair (n-1, n)."""
    n = graph_spec.n
    i, j = pair if pair is not None else (n - 1, n)
    a, b = dynamics.check_sites(n, i, j)
    return _pointwise_trace(
        graph_spec, state_spec, grid, [a, b],
        lambda members: 2.0 * np.abs(_coherence(members, 0, 1)),
        lambda rho: measures.concurrence_pair_fast(rho, i, j), f"concurrence:{i},{j}")


def occupation_trace(
    graph_spec: GraphSpec, state_spec: StateSpec, grid: TimeGrid, site: int
) -> TraceSeries:
    """Occupation probability P_site(t) = rho_ss(t) over the grid."""
    return _pointwise_trace(
        graph_spec, state_spec, grid, dynamics.check_sites(graph_spec.n, site),
        lambda members: _populations(members, 0), lambda rho: occupation(rho, site),
        f"occupation:{site}")


def transfer_fidelity_trace(
    graph_spec: GraphSpec, state_spec: StateSpec, grid: TimeGrid, target_phi: float | None = None
) -> TraceSeries:
    """Transfer fidelity <t|rho(t)|t> = sum_m w_m |<t|a_m(t)>|^2 over the grid, for the
    target |t> on sites (n-1, n) with phase ``target_phi``, by default the state's phi."""
    n = graph_spec.n
    target = states.target_pure(n, state_spec.phi if target_phi is None else float(target_phi))
    bra = target[n - 2:].conj()
    return _pointwise_trace(
        graph_spec, state_spec, grid, [n - 2, n - 1],
        lambda members: _member_sum(members, lambda amp: np.abs(bra @ amp) ** 2),
        lambda rho: measures.fidelity(rho, states.density_from_pure(target)),
        "transfer-fidelity")


def bures_trace(graph_spec: GraphSpec, state_spec: StateSpec, grid: TimeGrid) -> TraceSeries:
    """Diagonal-only Bures distance ||sqrt(diag rho(t)) - sqrt(diag rho(-t))|| over the grid."""
    times = grid.times()

    def distance(amplitudes):
        fwd, bwd = (np.sqrt(_populations(amplitudes(at), slice(None))) for at in (times, -times))
        return np.linalg.norm(fwd - bwd, axis=0)

    # The distance is even in t, and pts_bures takes t >= 0 only.
    values = _evaluate(graph_spec, state_spec, times, distance,
                       lambda d, rho0: measures.pts_bures(d, rho0, abs(times[-1])), "pts-bures")
    return TraceSeries(times, values, label="pts-bures")


def werner_trace(graph_spec: GraphSpec, state_spec: StateSpec, grid: TimeGrid) -> TraceSeries:
    """Fidelity of an evolving Werner state against its transferred target.

    The target sigma lives on the 2x2 block of sites (n-1, n), so only that
    block rho_B(t) of the evolved state enters, and for 2x2 blocks
    F = tr(sigma_B rho_B) + 2 sqrt(det sigma_B det rho_B).  With ensemble
    weights w+- = (1 +- b)/2, det sigma_B = w+ w- and, by Cauchy-Binet,
    det rho_B = w+ w- |a+_{n-1} a-_n - a+_n a-_{n-1}|^2, so the square root
    is taken of nothing but a product of weights.
    """
    if state_spec.kind != "werner":
        raise ValueError(f"werner fidelity needs a werner state, got {state_spec.kind!r}")
    n, b = graph_spec.n, state_spec.b

    def fidelity(members):  # rows 0 and 1 of each member are the target sites n-1 and n
        (w_plus, w_minus), (plus, minus) = members
        overlap = 0.5 * _populations(members, slice(None)).sum(axis=0)
        overlap += b * np.real(_coherence(members, 0, 1))
        return overlap + 2.0 * w_plus * w_minus * np.abs(plus[0] * minus[1] - plus[1] * minus[0])

    return _pointwise_trace(
        graph_spec, state_spec, grid, [n - 2, n - 1], fidelity,
        lambda rho: measures.fidelity(rho, states.target_werner(n, b)), f"werner-fidelity:b={b}")


def concurrence_matrix_snapshots(
    graph_spec: GraphSpec, state_spec: StateSpec, times
) -> list[np.ndarray]:
    """Full pairwise-concurrence matrix at each requested time, from one
    site_amplitudes call over all the times and ensemble members."""
    times = np.asarray(times, dtype=float)
    if not times.size:
        raise ValueError("need at least one snapshot time")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"snapshot times must be finite, got {times.tolist()}")

    def matrices(amplitudes):
        members = amplitudes(times)  # rho(t_k) = sum_m w_m a_m(t_k) a_m(t_k)^dag
        return [measures.concurrence_matrix(_member_sum(members, lambda amp: np.outer(
            amp[:, k], amp[:, k].conj()))) for k in range(times.size)]

    return _evaluate(graph_spec, state_spec, times, matrices, lambda d, rho0:
                     measures.concurrence_matrix(evolve_density(d, rho0, times[-1])), "snapshots")


# ---------------------------------------------------------------------------
# peak detection


def _maxima(series: TraceSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every interior local maximum, a sample >= both neighbours (plateaus count),
    best first: indices, times and values, ranked by (-value, time).  Each is
    refined to the vertex of the parabola through it and its neighbours (its grid
    point where they are flat), capped at 1, the largest concurrence."""
    times, v = series.times, series.values
    k = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])) + 1
    y1, y2, y3 = v[k - 1], v[k], v[k + 1]
    denom = y1 - 2.0 * y2 + y3
    shift = np.divide(0.5 * (y1 - y3), denom, out=np.zeros_like(denom),
                      where=np.abs(denom) >= 1e-300)
    t = times[k] + shift * (times[k + 1] - times[k])
    val = np.minimum(y2 - 0.25 * (y1 - y3) * shift, 1.0)
    rank = np.lexsort((t, -val))
    return k[rank], t[rank], val[rank]


def first_peak(series: TraceSeries) -> PeakResult:
    """The earliest entry of _maxima whose sample exceeds PEAK_NOISE_FLOOR, if any."""
    k, t, val = _maxima(series)
    hits = np.flatnonzero(series.values[k] > PEAK_NOISE_FLOOR)
    if not hits.size:
        return PeakResult(math.nan, math.nan, found=False)
    i = hits[np.argmin(k[hits])]
    return PeakResult(float(t[i]), float(val[i]))


def global_max(series: TraceSeries) -> PeakResult:
    """Best of the first entry of _maxima and the two end samples; earliest wins ties."""
    _, t, val = _maxima(series)
    ends = [(-series.values[k], series.times[k]) for k in (0, -1)]
    value, t_peak = min([*zip(-val[:1], t[:1]), *ends])
    return PeakResult(float(t_peak), float(-value))


def top_peaks(series: TraceSeries) -> tuple[PeakResult, ...]:
    """The first three entries of _maxima, from which a table row takes the two
    runner-ups besides its own peak, so no runner-up lies above global_max."""
    _, t, val = _maxima(series)
    return tuple(PeakResult(float(t[i]), float(val[i])) for i in range(min(3, t.size)))


# ---------------------------------------------------------------------------
# long-time sweeps


def _peak_grid(grid: TimeGrid) -> TimeGrid:
    """``grid``, if it holds a sample on each side of a maximum, as a peak search needs."""
    if len(grid) < 3:
        raise ValueError(f"a peak search needs at least 3 grid points, got {len(grid)}")
    return grid


def _chain_sizes(n_values, state_spec: StateSpec) -> list[int]:
    """The sizes of a sweep over triangular chains, each checked, with the state
    on it, before any size runs."""
    sizes = []
    for n in n_values:
        graph = GraphSpec("tri", n)
        graph.build()
        state_spec.ensemble(graph.n)
        sizes.append(graph.n)
    if not sizes:
        raise ValueError("need at least one chain size")
    return sizes


def _curvature_bound(eigenvalues: np.ndarray, W: np.ndarray) -> np.ndarray:
    """M >= |f''| at every t, for f = C^2 = 4|z|^2 and z = p q* the product of the
    amplitudes p, q of a pure state read out by the two rows of W (dynamics._readout)
    on the spectrum ``eigenvalues``; one M per member of a stacked spectrum.

    z is a sum of w_pk w*_ql e^{-i (lam_k - lam_l) t}, w = W, so |z^(j)| <= Z_j =
    sum_kl |w_pk| |w_ql| |lam_k - lam_l|^j; and
    f'' = 4 (z'' z* + 2 |z'|^2 + z z''*) gives M = 8 (Z_0 Z_2 + Z_1^2).  Since
    Z_1^2 <= M / 8, C = 2|z| also has |C'| <= 2 Z_1 <= sqrt(M / 2).
    """
    w, lam = np.abs(W), eigenvalues
    gaps = np.abs(lam[..., :, None] - lam[..., None, :])
    z0, z1, z2 = ((w[..., 0, None, :] @ gaps ** j @ w[..., 1, :, None])[..., 0, 0]
                  for j in range(3))
    return 8.0 * (z0 * z2 + z1 * z1)


def _concurrence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """C = 2|p q*| of the end-pair amplitudes p and q, clipped into [0, 1]."""
    return np.clip(2.0 * np.abs(p * np.conj(q)), 0.0, 1.0)


def _screen_phases(eigenvalues: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{-i lam t} in complex64 for every eigenvalue (rows) and time (columns): each
    angle is reduced by a whole number of turns into about [-pi, pi] in float64,
    then its cos and sin are taken in float32."""
    angles = np.multiply.outer(eigenvalues, times)
    angles -= np.rint(angles / graphs.TWO_PI) * graphs.TWO_PI
    return dynamics._exp_minus_i(angles.astype(np.float32))


def _screen_rounding(eigenvalues: np.ndarray, W: np.ndarray, times: np.ndarray) -> np.ndarray:
    """eps >= |C - C'| for every value C of _coarse_concurrence(eigenvalues, W, times),
    C' the same value from the same float64 angles in exact arithmetic; one eps
    per member.

    With u = 2^-24, the unit roundoff of float32, each phase is off by at most
    8u + |lam t| 2^-52 + 2^-50:
    - the float64 reduction x - k fl(2 pi): the subtraction is exact, fl(2 pi)
      lies within 2^-54 relative of 2 pi, and k fl(2 pi) is rounded to 2^-53;
    - the rounding of the reduced angle, |x| <= 4, into float32: 2u;
    - float32 cos and sin, 2u each: 2 sqrt(2) u together.
    The largest |lam t| is max|lam| 2 max|t|, as the offsets t - t_0 reach
    2 max|t|.  A term W_l e^{-i lam_l t'} of p = sum_l W_l e^{-i lam_l t'} is
    then off by eta = (1 + 4u) (1 + phase)^2 (1 + 3nu) - 1 relative to |W_l|:
    W's rounding (u) and its product with the anchor phase (3u), the anchor
    and fine phases, and the sum of 2n real products per part
    (sqrt(2) gamma_2n <= 3nu).  So |p - p'| <= eta S_p, S_p = sum_l |W_pl|,
    and C = 2|p q*| is off by at most 2 S_p S_q ((1 + eta)^2 (1 + 4u) - 1),
    the 4u for rounding p q* and its modulus.  C' itself carries the rounding
    of the float64 angles, which the slack of _candidate_series covers.
    """
    u = 2.0 ** -24
    top = np.abs(eigenvalues).max(axis=-1) * 2 * np.abs(times).max()
    phase = 8 * u + top * 2.0 ** -52 + 2.0 ** -50
    eta = (1 + 4 * u) * (1 + phase) ** 2 * (1 + 3 * eigenvalues.shape[-1] * u) - 1
    sums = np.abs(W).sum(axis=-1)
    return 2 * sums[..., 0] * sums[..., 1] * ((1 + eta) ** 2 * (1 + 4 * u) - 1)


def _coarse_concurrence(eigenvalues: np.ndarray, W: np.ndarray,
                        times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C, in float32, of every member of a stacked spectrum read out by W (m, 2, n),
    at the factored times t'_{bB+j} = times[bB] + (times[j] - times[0]),
    B = isqrt(T); the (m, T) values and t'.  Each value is within
    _screen_rounding of its exact value at t'.

    e^{-i lam t'} = e^{-i lam times[bB]} e^{-i lam (times[j] - times[0])} holds
    exactly, so each group of blocks is one batched complex64 product of the
    readouts, weighted by the anchor phases at the group's own block starts,
    with the fine block (_screen_phases), over at most AMPLITUDE_CHUNK columns
    per member (one block, if B is more).
    """
    size, (m, r, n) = times.size, W.shape
    block = math.isqrt(size)
    offsets = times[:block] - times[0]
    fine = _screen_phases(eigenvalues, offsets)
    W = W.astype(np.complex64)
    values = np.empty((m, size), dtype=np.float32)
    width = max(1, dynamics.AMPLITUDE_CHUNK // block) * block
    for lo in range(0, size, width):
        hi = min(lo + width, size)
        anchors = _screen_phases(eigenvalues, times[lo:hi:block])
        weighted = W[:, :, None, :] * anchors[:, None].swapaxes(-1, -2)
        p, q = (weighted.reshape(m, -1, n) @ fine).reshape(m, r, -1)[..., :hi - lo].swapaxes(0, 1)
        values[:, lo:hi] = _concurrence(p, q)
    return values, np.add.outer(times[::block], offsets).ravel()[:size]


def _candidate_series(n: int, psi: np.ndarray, thetas, grid: TimeGrid, best: float = -math.inf):
    """The peak (a global_max value) of the end-pair concurrence of the pure
    state ``psi`` on tri:n at each phase in ``thetas``, each from a read of the
    grid points where a maximum that can win may lie: a list of one peak, or
    -inf, per phase, and the rounding slack.

    ``best`` is a refined peak already found, or -inf.  A phase gets -inf only
    if the refined peak of its full trace lies more than the slack below
    ``best``, or below that of another phase of this stack, so that it cannot
    win.  Every other phase's peak is never above that of its full trace, up
    to rounding, and equals it wherever that comes within four slacks of
    ``best``.

    The Hamiltonians are built as one (len(thetas), n, n) stack, by
    graphs.hamiltonian on the chain built with the whole phase list, and
    decomposed together.  Between points h apart, f = C^2 stays below
    max(f_a, f_b) + M h^2 / 8, M from _curvature_bound, and |C'| <= L =
    sqrt(M / 2).  Each member is screened on every s-th grid point, s the
    largest step with M (s dt)^2 / 8 <= COARSE_SLACK for the largest M, or 1,
    at the factored times t' of _coarse_concurrence, in single precision.  A
    screened value is within err = eps + L max|t' - t| of the grid value it
    stands for: eps from _screen_rounding, and the drift of C between t' and
    its grid time t.  So on the grid points between two screened points C is
    at most U = sqrt(max(f_a, f_b) + M h^2 / 8) + err, h the largest spacing
    of t'.  A refined peak exceeds its grid sample by at most the overshoot
    L dt / 8: if the middle of three samples is the largest, a and b its rises
    over its neighbours, the parabola through them rises
    (a - b)^2 / (8 (a + b)) <= max(a, b) / 8 above it.  So each member's
    largest screened value less err is below its grid maximum and its peak,
    and ``best`` is raised to the largest of these.

    One bar, ``best``, serves every member: an interval is live if U reaches
    it less the overshoot and four slacks, as a grid point in it may then
    carry a refined peak near ``best``.  Each member's live intervals, padded by one
    grid point on each side, and the points after the last stride are read on
    every grid point by one site_amplitudes call, at any stride.  Its peak is
    the best of the read's end samples and of the maxima read with both grid
    neighbours, not of a run's outer point: that lies in an interval that is
    not live, and its neighbour across the gap could lift its parabola.  Each
    maximum whose sample reaches that level is so read, which gives the full
    trace's peak wherever that comes within four slacks of ``best``, and bit
    for bit where every interval is live.  A member whose read values all lie
    more than the overshoot and three slacks below ``best`` gets -inf: every
    sample is one of them, or lies in an interval that is not live and so
    lower still, and no refined peak lies more than the overshoot above its
    sample.

    Each value is off by the rounding its phases carry, within the tolerance
    the cross-check allows; the slack is four times that, for four such values
    compared (two samples, or two refined peaks of two evaluations).  The
    extra slacks of the test against ``best`` cover the rounding between the
    screen, the values read here and the full traces.
    """
    label = f"concurrence:{n - 1},{n}"
    times, rows = grid.times(), [n - 2, n - 1]
    GraphSpec("tri", n)  # the site guard, before the stack is built
    d = spectral_decompose(graphs.hamiltonian(graphs.triangular_chain(n, thetas)))
    slack = 4 * _check_phases(d, times, label)
    W = dynamics._readout(d, psi, rows)
    bound = _curvature_bound(d.eigenvalues, W)
    size, top = times.size, bound.max()
    step = math.sqrt(8.0 * COARSE_SLACK / top) / grid.dt if top > 0 else math.inf
    stride = max(1, int(min(size - 1, step)))
    at = np.arange(0, size, stride)
    coarse, factored = _coarse_concurrence(d.eigenvalues, W, times[at])
    _check_finite(coarse, label)
    lipschitz, h = np.sqrt(bound / 2), np.diff(factored).max()
    err = (lipschitz * np.abs(factored - times[at]).max()
           + _screen_rounding(d.eigenvalues, W, times[at]))
    overshoot = lipschitz * grid.dt / 8
    best = max(best, (coarse.max(axis=1) - err).max())
    # sqrt(max(f_a, f_b) + M h^2 / 8) >= needed holds where the larger of
    # C_a, C_b reaches sqrt(needed^2 - M h^2 / 8), and everywhere when
    # needed is not positive.
    needed = np.maximum(best - 4 * slack - overshoot - err, 0.0)
    level = np.sqrt(np.maximum(needed * needed - bound * h * h / 8.0, 0.0))
    above = coarse >= level[:, None]
    # Each member's segments: the intervals between screened points, then the
    # tail after the last one, live if it holds any grid point.
    segments = np.empty((len(thetas), at.size), dtype=bool)
    np.logical_or(above[:, :-1], above[:, 1:], out=segments[:, :-1])
    segments[:, -1] = at[-1] < size - 1
    low = best - 3 * slack - overshoot
    pad = np.arange(-1, stride + 2)  # a segment's grid points, padded by one on each side
    found = [-math.inf] * len(thetas)
    for k in np.flatnonzero(segments.any(axis=1)):  # a member with no live segment is out
        points = np.zeros(size, dtype=bool)
        points[np.clip(at[segments[k]][:, None] + pad, 0, size - 1)] = True
        read = np.flatnonzero(points)
        values = _concurrence(*site_amplitudes(d.member(k), psi, times[read], rows))
        if values.max() >= low[k]:
            j, _, val = _maxima(TraceSeries(times[read], values, label=label))
            whole = val[read[j + 1] - read[j - 1] == 2]  # both grid neighbours read
            found[k] = max(whole.max(initial=-math.inf), values[0], values[-1])
    return found, slack


def optimize_theta(
    n: int,
    phi: float,
    theta_candidates=THETA_CANDIDATES,
    horizon: float = LONG_TIME_HORIZON,
    dt: float = LONG_TIME_DT,
) -> SweepRecord:
    """Best chiral phase for long-time transfer of the pair state (1, 2).

    The winner is the candidate theta with the largest peak (a global_max
    value) over the grid on [0, horizon].  Peaks within the rounding slack of
    the largest tie with it, and a tie breaks toward smaller |theta|, then
    toward the positive sign, so the time-reversal twins theta and pi - theta
    of a real pair state read as the smaller |theta|.  With several
    candidates, they are searched as stacks of up to CANDIDATE_SLICE
    (_candidate_series), each stack against the best peak of the stacks before
    it, and read only where a maximum may lie that comes within the slack of
    the best.  Only the winner is traced in full (concurrence_trace): its
    global_max and top_peaks, from the same ranked maxima, give the record's
    time, value and runner-ups.  A lone candidate is traced without a search.
    """
    grid = _peak_grid(TimeGrid(0.0, horizon, dt))
    candidates = tuple(map(float, theta_candidates))
    if not candidates:
        raise ValueError("need at least one theta candidate")
    for theta in candidates:  # every phase is checked before any candidate runs
        graphs.reduce_phase(theta)
    state = StateSpec("pair", i=1, j=2, phi=phi)
    theta = candidates[0]
    if len(candidates) > 1:  # searching a lone candidate adds half to a ctqw table's time
        ((_, psi),) = state.ensemble(n)
        peaks, slack = [], 0.0
        for first in range(0, len(candidates), CANDIDATE_SLICE):
            found, rounding = _candidate_series(
                n, psi, candidates[first:first + CANDIDATE_SLICE], grid,
                max(peaks, default=-math.inf))
            peaks += found
            slack = max(slack, rounding)
        top = max(peaks)
        tied = [t for value, t in zip(peaks, candidates) if value + slack >= top]
        theta = min(tied, key=lambda t: (abs(t), -t))
    series = concurrence_trace(GraphSpec("tri", n, theta), state, grid)
    peak = global_max(series)
    return SweepRecord(n, theta, peak.t_peak, peak.value, top_peaks(series))


def ctqw_long_time(
    n: int, phi: float, horizon: float = LONG_TIME_HORIZON, dt: float = LONG_TIME_DT
) -> SweepRecord:
    """Long-time global maximum for the plain walk (theta = 0)."""
    return optimize_theta(n, phi, (0.0,), horizon, dt)


def sweep_table(
    n_values,
    phi: float = math.pi,
    horizon: float = LONG_TIME_HORIZON,
    dt: float = LONG_TIME_DT,
    theta_candidates=THETA_CANDIDATES,
) -> list[SweepRecord]:
    """One SweepRecord per chain size, in the order given, each from one stacked
    search and one full trace (optimize_theta); theta_candidates (0.0,) gives
    the plain walk."""
    sizes = _chain_sizes(n_values, StateSpec("pair", i=1, j=2, phi=phi))
    candidates = tuple(theta_candidates)
    return [optimize_theta(n, phi, candidates, horizon, dt) for n in sizes]


# ---------------------------------------------------------------------------
# chain-size scaling


def scaling_sweep(
    n_values,
    theta: float,
    state_spec: StateSpec = TRANSFER_STATE,
    grid: TimeGrid = SCALING_GRID,
) -> ScalingResult:
    """First transfer peak per chain size plus a linear fit of time vs size; the fit
    is NaN unless there are two distinct sizes."""
    sizes, grid = _chain_sizes(n_values, state_spec), _peak_grid(grid)
    entries = []
    for n in sizes:
        peak = first_peak(concurrence_trace(GraphSpec("tri", n, theta), state_spec, grid))
        if not peak.found:
            raise ArithmeticError(f"no transfer peak found for n = {n} within the grid")
        entries.append((n, peak.t_peak, peak.value))
    ns = np.array([e[0] for e in entries], dtype=float)
    tmax = np.array([e[1] for e in entries])
    if len(set(sizes)) >= 2:  # a line through one distinct size is undetermined
        slope, intercept = np.polyfit(ns, tmax, 1)
        resid = tmax - (slope * ns + intercept)
        total = tmax - tmax.mean()
        denom = float(total @ total)
        r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    else:
        slope, intercept, r2 = math.nan, math.nan, math.nan
    return ScalingResult(tuple(entries), float(slope), float(intercept), float(r2))
