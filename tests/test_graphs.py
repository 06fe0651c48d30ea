import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from chiralwalk import graphs

# Reference matrices for the n = 5 builders at theta = pi/2 (lower triangle +i).
TRI5_THETA0 = np.array(
    [
        [0, 1, 1, 0, 0],
        [1, 0, 1, 1, 0],
        [1, 1, 0, 1, 1],
        [0, 1, 1, 0, 1],
        [0, 0, 1, 1, 0],
    ],
    dtype=complex,
)
TRI5_CHIRAL = 1j * np.array(
    [
        [0, -1, -1, 0, 0],
        [1, 0, -1, -1, 0],
        [1, 1, 0, -1, -1],
        [0, 1, 1, 0, -1],
        [0, 0, 1, 1, 0],
    ]
)
CYCLE5_CHIRAL = 1j * np.array(
    [
        [0, -1, 0, 0, -1],
        [1, 0, -1, 0, 0],
        [0, 1, 0, -1, 0],
        [0, 0, 1, 0, -1],
        [1, 0, 0, 1, 0],
    ]
)
PENTAGRAM_CHIRAL = 1j * np.array(
    [
        [0, -1, -1, -1, -1],
        [1, 0, -1, -1, -1],
        [1, 1, 0, -1, -1],
        [1, 1, 1, 0, -1],
        [1, 1, 1, 1, 0],
    ]
)

angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)
# Phases whose rounding or sign of zero a builder could get wrong, and random ones.
phases = st.sampled_from([0.0, -0.0, math.pi, -math.pi, 3 * math.pi, 1e10]) | angles
PI_50 = Fraction("3.1415926535897932384626433832795028841971693993751")
KIND_MINIMUM = {"tri": 3, "cycle": 3, "complete": 2}


def build(kind, n, theta, magnitude=1.0):
    if kind == "tri":
        return graphs.triangular_chain(n, theta, magnitude)
    return {"cycle": graphs.cycle_graph, "complete": graphs.complete_graph}[kind](n, theta)


@st.composite
def graph_cases(draw):
    """(kind, n, phases, magnitude): n from the kind's minimum to 40; only tri
    takes a magnitude."""
    kind = draw(st.sampled_from(sorted(KIND_MINIMUM)))
    n = draw(st.integers(KIND_MINIMUM[kind], 40))
    magnitude = draw(st.sampled_from([1e-300, 1.0, 2.0, 1e300])) if kind == "tri" else 1.0
    return kind, n, draw(st.lists(phases, min_size=1, max_size=8)), magnitude


class TestPhase:
    def test_reduce_range(self):
        for theta in [-7.0, -math.pi, 0.0, 1.0, math.pi, 9.42, 100.0]:
            r = graphs.reduce_phase(theta)
            assert -math.pi < r <= math.pi

    def test_reduce_negative_pi_maps_to_pi(self):
        assert graphs.reduce_phase(-math.pi) == pytest.approx(math.pi)

    @given(angles)
    def test_reduce_periodic(self, theta):
        r = graphs.reduce_phase(theta)
        assert graphs.reduce_phase(theta + 2 * math.pi) == pytest.approx(r, abs=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            graphs.reduce_phase(float("nan"))

    @pytest.mark.parametrize("theta", [2.6e10, -2.6e10, 1e12, 1e300])
    def test_phase_beyond_the_resolution_rejected(self, theta):
        # Reduced by whole turns of fl(2 pi), theta = 1e12 would be off by 3.9e-5.
        with pytest.raises(ValueError, match="phase resolution"):
            graphs.reduce_phase(theta)
        with pytest.raises(ValueError, match="phase resolution"):
            graphs.cycle_graph(3, theta)

    @pytest.mark.parametrize("theta", [1e10, 2.5e10, -2.5e10])
    def test_phase_within_the_resolution_reduces_closely(self, theta):
        # Against the reduction by a 50-digit 2 pi, in exact arithmetic.
        two_pi = 2 * PI_50
        off = (Fraction(graphs.reduce_phase(theta)) - Fraction(theta)) % two_pi
        assert min(off, two_pi - off) <= graphs.PHASE_RESOLUTION


class TestBuilders:
    def test_tri5_chiral_matches_reference(self):
        H = graphs.hamiltonian(graphs.triangular_chain(5, math.pi / 2, 1.0))
        assert np.abs(H - TRI5_CHIRAL).max() < 1e-12

    def test_tri5_flat_matches_adjacency(self):
        H = graphs.hamiltonian(graphs.triangular_chain(5, 0.0, 1.0))
        assert np.abs(H - TRI5_THETA0).max() == 0.0

    def test_tri3_smallest_plaquette(self):
        g = graphs.triangular_chain(3, 0.0, 1.0)
        assert set(g.edges) == {(1, 2), (1, 3), (2, 3)}

    def test_tri_rejects_small_n(self):
        with pytest.raises(ValueError):
            graphs.triangular_chain(2, 0.0, 1.0)

    def test_tri_rejects_bad_magnitude(self):
        with pytest.raises(ValueError):
            graphs.triangular_chain(5, 0.0, 0.0)
        with pytest.raises(ValueError):
            graphs.triangular_chain(5, 0.0, math.inf)

    def test_cycle5_chiral_matches_reference(self):
        H = graphs.hamiltonian(graphs.cycle_graph(5, math.pi / 2))
        assert np.abs(H - CYCLE5_CHIRAL).max() < 1e-12

    def test_cycle3_equals_triangle(self):
        a = graphs.cycle_graph(3, 0.0).edges
        b = graphs.triangular_chain(3, 0.0, 1.0).edges
        assert set(a) == set(b)

    def test_cycle4_hermitian_degree_two(self):
        g = graphs.cycle_graph(4, math.pi / 2)
        H = graphs.hamiltonian(g)
        assert np.abs(H - H.conj().T).max() < 1e-12
        assert ((np.abs(H) > 0).sum(axis=1) == 2).all()

    def test_cycle_rejects_small_n(self):
        with pytest.raises(ValueError):
            graphs.cycle_graph(2, 0.0)

    def test_pentagram_matches_reference(self):
        H = graphs.hamiltonian(graphs.complete_graph(5, math.pi / 2))
        assert np.abs(H - PENTAGRAM_CHIRAL).max() < 1e-12

    def test_complete2_single_edge(self):
        g = graphs.complete_graph(2, 0.0)
        assert g.edges == ((1, 2),)
        assert g.weight == 1 + 0j

    def test_complete4_six_edges_hermitian(self):
        g = graphs.complete_graph(4, math.pi / 3)
        H = graphs.hamiltonian(g)
        assert len(g.edges) == 6
        assert np.abs(H - H.conj().T).max() < 1e-12

    def test_complete_rejects_small_n(self):
        with pytest.raises(ValueError):
            graphs.complete_graph(1, 0.0)

    @given(st.integers(3, 20), angles)
    def test_edge_counts(self, n, theta):
        assert len(graphs.triangular_chain(n, theta, 1.0).edges) == 2 * n - 3
        assert len(graphs.cycle_graph(n, theta).edges) == n
        assert len(graphs.complete_graph(n, theta).edges) == n * (n - 1) // 2

    @given(st.integers(3, 12), angles)
    def test_hamiltonian_always_hermitian(self, n, theta):
        for builder in (
            lambda: graphs.triangular_chain(n, theta, 1.0),
            lambda: graphs.cycle_graph(n, theta),
            lambda: graphs.complete_graph(n, theta),
        ):
            H = graphs.hamiltonian(builder())
            assert np.abs(H - H.conj().T).max() < 1e-15
            assert np.abs(np.diag(H)).max() == 0.0

    def test_theta_zero_gives_real_symmetric(self):
        H = graphs.hamiltonian(graphs.triangular_chain(7, 0.0, 1.0))
        assert np.abs(H.imag).max() == 0.0
        assert np.abs(H - H.T).max() == 0.0

    @given(graph_cases())
    @example(("tri", 3, [-6.59112540943472e-283], 1e-300))  # imag underflows to -0.0
    def test_hamiltonian_stack_is_the_per_theta_builds(self, case):
        """Every build, lone or stacked, has the bits of the edge-by-edge
        oracle (the sign of every zero included), and so has its export."""
        kind, n, thetas, magnitude = case
        lone = []
        for theta in thetas:
            edges = oracles.edge_table(kind, n, theta, magnitude)
            g = build(kind, n, theta, magnitude)
            lone.append(oracles.hamiltonian_edge_loop(n, edges))
            assert graphs.hamiltonian(g).tobytes() == lone[-1].tobytes()
            assert json.dumps(graphs.graph_json_dict(g)) == oracles.graph_json_text(n, edges)
        stack = graphs.hamiltonian(build(kind, n, thetas, magnitude))
        assert stack.shape == (len(thetas), n, n)
        assert stack.tobytes() == np.stack(lone).tobytes()

    @pytest.mark.parametrize("kind", sorted(KIND_MINIMUM))
    def test_phase_list_is_checked_like_one_phase(self, kind):
        with pytest.raises(ValueError, match="needs n >="):
            build(kind, KIND_MINIMUM[kind] - 1, [0.0, 1.0])
        with pytest.raises(ValueError, match="phase must be finite"):
            build(kind, 5, [0.0, math.nan])

    @given(st.integers(3, 10), angles)
    def test_negated_phase_transposes(self, n, theta):
        H = graphs.hamiltonian(graphs.triangular_chain(n, theta, 1.0))
        Hm = graphs.hamiltonian(graphs.triangular_chain(n, -theta, 1.0))
        assert np.abs(Hm - H.T).max() < 1e-12
        assert np.abs(Hm - H.conj()).max() < 1e-12

    # Every kind carries one weight and a zero diagonal, so pi - theta gives
    # -conj(H); reversing the sites of the triangular chain negates theta.
    @given(st.sampled_from(sorted(KIND_MINIMUM)), st.integers(3, 12),
           st.floats(-math.pi, math.pi))
    def test_supplementary_phase_gives_minus_the_conjugate(self, kind, n, theta):
        H = graphs.hamiltonian(build(kind, n, theta))
        supplement = graphs.hamiltonian(build(kind, n, math.pi - theta))
        assert np.abs(supplement + H.conj()).max() <= 1e-15

    @given(st.integers(3, 12), st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True),
           st.floats(0.25, 4.0))
    def test_site_reversal_negates_the_tri_phase(self, n, theta, magnitude):
        # Exact: both carry the bits of exp(i theta), on mirrored triangles.
        # At theta = pi the reduction sends -pi to pi, which breaks the mirror.
        H = graphs.hamiltonian(graphs.triangular_chain(n, theta, magnitude))
        negated = graphs.hamiltonian(graphs.triangular_chain(n, -theta, magnitude))
        assert np.array_equal(H[::-1, ::-1], negated)


class TestExport:
    def test_json_dict_shape(self):
        g = graphs.triangular_chain(3, math.pi / 2, 1.0)
        d = graphs.graph_json_dict(g)
        assert d["n"] == 3
        assert sorted((m, n) for m, n, _, _ in d["edges"]) == [(1, 2), (1, 3), (2, 3)]
        for _, _, re, im in d["edges"]:
            assert re == pytest.approx(0.0, abs=1e-15)
            assert im == pytest.approx(1.0)
