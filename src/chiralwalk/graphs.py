"""Graph builders with complex chiral edge phases and their matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# A phase lambda t is held to half the float spacing of |lambda t|, and each
# amplitude, and so each value made from them, can be off by about as much.
# A trace whose largest |lambda t| has a spacing above this many radians is
# refused, since the last 6 of the 12 digits its CSV prints would be made up
# by rounding: |lambda t| below 2^33, about 8.6e9, passes.  A chiral phase is
# held to the same bound.
PHASE_RESOLUTION = 1e-6


def reduce_phase(theta: float) -> float:
    """Reduce an angle in radians to the interval (-pi, pi]."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"phase must be finite, got {theta!r}")
    # TWO_PI lies |sin(TWO_PI)|, about 2.45e-16, below 2 pi, so each whole turn
    # taken off theta moves the result that far: |theta| to about 2.6e10 passes.
    if abs(theta) / TWO_PI * abs(math.sin(TWO_PI)) > PHASE_RESOLUTION:
        raise ValueError(f"phase {theta!r} cannot be reduced within the phase resolution")
    r = math.remainder(theta, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex count, 0/1 edge pattern and the one weight every edge carries.

    Each edge is stored once as a 1-based pair ``(m, n)`` with ``m < n``.
    ``weight`` is the matrix element at row ``n``, column ``m`` (the lower
    triangle); the reverse direction carries its complex conjugate, so a
    Hermitian Hamiltonian is guaranteed by construction.  A builder given a
    list of phases stores one weight per phase, as a 1-d array.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    weight: complex | np.ndarray


def _weight(theta, magnitude: float = 1.0):
    """``magnitude * exp(i*theta)``, or a 1-d array of them for a list of phases."""
    if not 0 < magnitude < math.inf:
        raise ValueError(f"magnitude must be positive and finite, got {magnitude}")
    if np.ndim(theta):
        # One scalar product per phase: numpy's array multiply may fuse it into
        # an FMA, which rounds an underflowing part to a differently signed zero.
        return np.array([_weight(t, magnitude) for t in theta], dtype=complex)
    return magnitude * np.exp(1j * reduce_phase(theta))


def triangular_chain(n: int, theta, magnitude: float = 1.0) -> WeightedGraph:
    """Linear chain of triangle plaquettes: edges (i, i+1), then (i, i+2).

    Every lower-triangle matrix element H[n][m] (n > m) equals
    ``magnitude * exp(i*theta)``; theta = pi/2 puts +i below the diagonal.
    """
    if n < 3:
        raise ValueError(f"triangular chain needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)]
    return WeightedGraph(n, tuple(edges), _weight(theta, magnitude))


def cycle_graph(n: int, theta) -> WeightedGraph:
    """Ring with nearest-neighbor edges (i, i+1) plus the wrap edge (1, n)."""
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return WeightedGraph(n, tuple(edges), _weight(theta))


def complete_graph(n: int, theta) -> WeightedGraph:
    """All-to-all graph, edges in row-major order; for n = 5 this is the pentagram."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    edges = [(m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)]
    return WeightedGraph(n, tuple(edges), _weight(theta))


def hamiltonian(g: WeightedGraph) -> np.ndarray:
    """Hermitian hopping Hamiltonian of the graph (zero diagonal): (n, n), or
    (k, n, n) for a graph built with k phases."""
    w = np.asarray(g.weight)[..., None]
    cols, rows = np.array(g.edges).T - 1
    H = np.zeros(w.shape[:-1] + (g.n_vertices, g.n_vertices), dtype=complex)
    H[..., rows, cols] = w
    H[..., cols, rows] = np.conj(w)
    return H


def graph_json_dict(g: WeightedGraph) -> dict:
    """JSON-serializable form: {n, edges: [[m, n, re, im], ...]}."""
    w = complex(g.weight)
    return {"n": g.n_vertices, "edges": [[m, n, w.real, w.imag] for m, n in g.edges]}
