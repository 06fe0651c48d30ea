"""Graph builders with complex chiral edge phases and their matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def reduce_phase(theta: float) -> float:
    """Reduce an angle in radians to the interval (-pi, pi]."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"phase must be finite, got {theta!r}")
    r = math.remainder(theta, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex count plus a directed-edge weight table.

    Each edge is stored once as ``(m, n, weight)`` with ``1 <= m < n``; the
    reverse direction carries the complex-conjugate weight implicitly, so a
    Hermitian Hamiltonian is guaranteed by construction.  ``weight`` is the
    matrix element at row ``n``, column ``m`` (the lower triangle).
    """

    n_vertices: int
    edges: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        if int(self.n_vertices) < 1:
            raise ValueError(f"need at least one vertex, got {self.n_vertices}")
        object.__setattr__(self, "n_vertices", int(self.n_vertices))
        clean = []
        seen = set()
        for m, n, w in self.edges:
            m, n, w = int(m), int(n), complex(w)
            if m == n:
                raise ValueError(f"self-edge ({m}, {n}) is not allowed")
            if not (1 <= m < n <= self.n_vertices):
                raise ValueError(
                    f"edge ({m}, {n}) out of range for {self.n_vertices} vertices"
                )
            if (m, n) in seen:
                raise ValueError(f"duplicate edge ({m}, {n})")
            seen.add((m, n))
            clean.append((m, n, w))
        object.__setattr__(self, "edges", tuple(clean))


def triangular_chain(n: int, theta, magnitude: float = 1.0) -> WeightedGraph:
    """Linear chain of triangle plaquettes: edges (i, i+1) and (i, i+2).

    Every lower-triangle matrix element H[n][m] (n > m) equals
    ``magnitude * exp(i*theta)``; theta = pi/2 puts +i below the diagonal.
    """
    if n < 3:
        raise ValueError(f"triangular chain needs n >= 3, got {n}")
    if not 0 < magnitude < math.inf:
        raise ValueError(f"magnitude must be positive and finite, got {magnitude}")
    w = magnitude * np.exp(1j * reduce_phase(theta))
    edges = [(i, i + 1, w) for i in range(1, n)]
    edges += [(i, i + 2, w) for i in range(1, n - 1)]
    return WeightedGraph(n, tuple(edges))


def triangular_chain_hamiltonians(n: int, thetas) -> np.ndarray:
    """hamiltonian(triangular_chain(n, theta)) for every theta, bit for bit, as one
    (len(thetas), n, n) stack: each weight is broadcast onto the chain's
    lower-triangle band (the first two subdiagonals) and its conjugate onto the
    transposed band."""
    if n < 3:
        raise ValueError(f"triangular chain needs n >= 3, got {n}")
    w = np.exp(1j * np.array([reduce_phase(theta) for theta in thetas]))
    band = np.tri(n, k=-1, dtype=bool) & ~np.tri(n, k=-3, dtype=bool)
    H = np.zeros((w.size, n, n), dtype=complex)
    H[:, band] = w[:, None]
    H.swapaxes(-1, -2)[:, band] = np.conj(w)[:, None]
    return H


def cycle_graph(n: int, theta) -> WeightedGraph:
    """Ring with nearest-neighbor edges (i, i+1) plus the wrap edge (1, n)."""
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    w = np.exp(1j * reduce_phase(theta))
    edges = [(i, i + 1, w) for i in range(1, n)] + [(1, n, w)]
    return WeightedGraph(n, tuple(edges))


def complete_graph(n: int, theta) -> WeightedGraph:
    """All-to-all graph; for n = 5 this is the pentagram."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    w = np.exp(1j * reduce_phase(theta))
    edges = [(m, k, w) for m in range(1, n + 1) for k in range(m + 1, n + 1)]
    return WeightedGraph(n, tuple(edges))


def hamiltonian(g: WeightedGraph) -> np.ndarray:
    """Hermitian hopping Hamiltonian of the graph (zero diagonal)."""
    H = np.zeros((g.n_vertices, g.n_vertices), dtype=complex)
    for m, n, w in g.edges:
        H[n - 1, m - 1] = w
        H[m - 1, n - 1] = np.conj(w)
    return H


def graph_json_dict(g: WeightedGraph) -> dict:
    """JSON-serializable form: {n, edges: [[m, n, re, im], ...]}."""
    return {
        "n": g.n_vertices,
        "edges": [[m, n, w.real, w.imag] for m, n, w in g.edges],
    }
