import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from chiralwalk import dynamics, graphs, measures, states

BELL_BLOCK = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


@pytest.fixture(scope="module")
def chiral5():
    return dynamics.spectral_decompose(
        graphs.hamiltonian(graphs.triangular_chain(5, math.pi / 2, 1.0))
    )


@pytest.fixture(scope="module")
def flat5():
    return dynamics.spectral_decompose(
        graphs.hamiltonian(graphs.triangular_chain(5, 0.0, 1.0))
    )


class TestReducedPair:
    def test_initial_bell_pair(self):
        rho = states.density_from_pure(states.spatial_pair(5, 1, 2, math.pi))
        assert np.abs(oracles.reduced_pair(rho, 1, 2) - BELL_BLOCK).max() < 1e-12

    def test_excitation_elsewhere(self):
        rho = states.density_from_pure(states.localized(5, 3))
        pd = oracles.reduced_pair(rho, 4, 5)
        assert np.abs(pd - np.diag([1.0, 0, 0, 0])).max() < 1e-12

    def test_zero_pattern_preserved_under_evolution(self, chiral5):
        psi0 = states.spatial_pair(5, 1, 2, math.pi)
        for t in (0.2, 0.9, 4.4):
            psi = oracles.evolve_pure(chiral5, psi0, t)
            pd = oracles.reduced_pair(np.outer(psi, psi.conj()), 4, 5)
            mask = np.ones((4, 4), dtype=bool)
            mask[1:3, 1:3] = False
            mask[0, 0] = False
            assert np.abs(pd[mask]).max() < 1e-12

    def test_pure_state_block_is_amplitude_products(self, chiral5):
        psi = oracles.evolve_pure(chiral5, states.spatial_pair(5, 1, 2, math.pi), 0.8)
        pd = oracles.reduced_pair(np.outer(psi, psi.conj()), 4, 5)
        assert pd[1, 1] == pytest.approx(abs(psi[3]) ** 2, abs=1e-12)
        assert pd[2, 2] == pytest.approx(abs(psi[4]) ** 2, abs=1e-12)
        assert pd[1, 2] == pytest.approx(psi[3] * np.conj(psi[4]), abs=1e-12)
        assert pd[0, 0] == pytest.approx(1 - abs(psi[3]) ** 2 - abs(psi[4]) ** 2, abs=1e-12)

    def test_rejects_equal_or_bad_indices(self):
        rho = states.density_from_pure(states.localized(5, 1))
        with pytest.raises(ValueError):
            oracles.reduced_pair(rho, 2, 2)
        with pytest.raises(IndexError):
            oracles.reduced_pair(rho, 1, 9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_full_space_partial_trace_oracle_pure(self, n):
        rng = np.random.default_rng(42 + n)
        for _ in range(5):
            psi = oracles.random_single_excitation_state(rng, n)
            rho = np.outer(psi, psi.conj())
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    ours = oracles.reduced_pair(rho, i, j)
                    ref = oracles.full_space_reduced_pair(rho, i, j)
                    assert np.abs(ours - ref).max() < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_full_space_partial_trace_oracle_mixed(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(3):
            rho = oracles.random_density_matrix(rng, n, rank=3)
            for i, j in [(1, 2), (1, n), (n - 1, n), (2, n - 1)]:
                if i == j:
                    continue
                ours = oracles.reduced_pair(rho, i, j)
                ref = oracles.full_space_reduced_pair(rho, i, j)
                assert np.abs(ours - ref).max() < 1e-10


class TestConcurrenceWootters:
    def test_bell_block(self):
        assert oracles.concurrence_wootters(BELL_BLOCK) == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self):
        assert oracles.concurrence_wootters(np.diag([1.0, 0, 0, 0])) == 0.0

    def test_single_excitation_form_equals_2a45(self, chiral5):
        psi0 = states.spatial_pair(5, 1, 2, math.pi)
        for t in (0.3, 1.02, 2.5):
            psi = oracles.evolve_pure(chiral5, psi0, t)
            pd = oracles.reduced_pair(np.outer(psi, psi.conj()), 4, 5)
            assert oracles.concurrence_wootters(pd) == pytest.approx(
                2 * abs(psi[3] * np.conj(psi[4])), abs=1e-10
            )

    def test_matches_product_route_oracle(self):
        # The oracle route squares the state before the eigensolve, so its
        # zero modes carry sqrt(eps)-level noise; compare at that level.
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = oracles.random_density_matrix(rng, 4, rank=2)
            ours = oracles.concurrence_wootters(rho)
            ref = oracles.wootters_concurrence_product_route(rho)
            assert ours == pytest.approx(ref, abs=5e-8)

    def test_rejects_non_psd(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            oracles.concurrence_wootters(bad)


class TestConcurrencePairFast:
    def test_initial_bell(self):
        rho = states.density_from_pure(states.spatial_pair(5, 1, 2, math.pi))
        assert measures.concurrence_pair_fast(rho, 1, 2) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_equivalence_thousand_random_states(self, chiral5, flat5):
        # Fast path vs full Wootters on evolved states with random phases.
        rng = np.random.default_rng(12345)
        decs = {"chiral": chiral5, "flat": flat5}
        count = 0
        while count < 1000:
            d = decs["chiral" if rng.random() < 0.5 else "flat"]
            phi = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(0.0, 20.0)
            psi = oracles.evolve_pure(d, states.spatial_pair(5, 1, 2, phi), t)
            rho = np.outer(psi, psi.conj())
            i, j = rng.choice(5, size=2, replace=False) + 1
            fast = measures.concurrence_pair_fast(rho, int(i), int(j))
            full = oracles.concurrence_wootters(oracles.reduced_pair(rho, int(i), int(j)))
            assert abs(fast - full) < 1e-9
            count += 1

    def test_mixed_state_equivalence(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            rho = oracles.random_density_matrix(rng, 5, rank=3)
            i, j = rng.choice(5, size=2, replace=False) + 1
            fast = measures.concurrence_pair_fast(rho, int(i), int(j))
            full = oracles.concurrence_wootters(oracles.reduced_pair(rho, int(i), int(j)))
            assert abs(fast - full) < 1e-9


class TestFidelity:
    def test_self_fidelity(self):
        rho = states.werner(5, 0.5)
        assert measures.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = states.density_from_pure(states.localized(4, 1))
        b = states.density_from_pure(states.localized(4, 3))
        assert measures.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal_closed_form(self):
        p = np.array([0.5, 0.3, 0.2, 0.0])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        general = measures.fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex))
        assert general == pytest.approx(oracles.fidelity_commuting(p, q), abs=1e-10)

    def test_symmetric(self, chiral5):
        rho = dynamics.evolve_density(chiral5, states.werner(5, 0.5), 0.9)
        sigma = states.target_werner(5, 0.5)
        assert measures.fidelity(rho, sigma) == pytest.approx(
            measures.fidelity(sigma, rho), abs=1e-9
        )

    def test_pure_states_give_squared_overlap(self):
        psi = states.spatial_pair(5, 1, 2, 0.3)
        phi = states.spatial_pair(5, 1, 2, 1.1)
        f_dm = measures.fidelity(
            states.density_from_pure(psi), states.density_from_pure(phi)
        )
        assert f_dm == pytest.approx(abs(np.vdot(phi, psi)) ** 2, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            measures.fidelity(states.werner(5, 1.0), states.werner(4, 1.0))


class TestBures:
    def test_zero_for_identical(self):
        # D = sqrt(2(1 - sqrt(F))) amplifies the ~1e-12 fidelity roundoff to
        # the 1e-6 scale, so exact zero cannot be expected from this formula.
        rho = states.werner(5, 0.5)
        assert oracles.bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-5)

    def test_sqrt2_for_orthogonal(self):
        a = states.density_from_pure(states.localized(4, 1))
        b = states.density_from_pure(states.localized(4, 3))
        assert oracles.bures_distance(a, b) == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_monotone_in_fidelity(self):
        # Rotating one pure state away from another sweeps fidelity downward.
        dists, fids = [], []
        for angle in np.linspace(0.0, math.pi / 2, 7):
            psi = np.array([math.cos(angle), math.sin(angle), 0.0], dtype=complex)
            a = states.density_from_pure(np.array([1.0, 0, 0], dtype=complex))
            b = states.density_from_pure(psi)
            dists.append(oracles.bures_distance(a, b))
            fids.append(measures.fidelity(a, b))
        assert all(f1 >= f2 for f1, f2 in zip(fids, fids[1:]))
        assert all(d1 <= d2 + 1e-12 for d1, d2 in zip(dists, dists[1:]))

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = oracles.random_density_matrix(rng, 4, rank=2)
            b = oracles.random_density_matrix(rng, 4, rank=2)
            c = oracles.random_density_matrix(rng, 4, rank=2)
            dab = oracles.bures_distance(a, b)
            dbc = oracles.bures_distance(b, c)
            dac = oracles.bures_distance(a, c)
            assert dac <= dab + dbc + 1e-9

    def test_diagonal_closed_form_matches_general(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            closed = oracles.diagonal_bures(p, q)
            general = oracles.bures_distance(np.diag(p).astype(complex), np.diag(q).astype(complex))
            assert closed == pytest.approx(general, abs=1e-9)


class TestPtsBures:
    def test_zero_for_real_hamiltonian_real_state(self, flat5):
        for phi in (0.0, math.pi, -math.pi):
            rho0 = states.density_from_pure(states.spatial_pair(5, 1, 2, phi))
            for t in np.arange(0.0, 10.0, 0.5):
                assert measures.pts_bures(flat5, rho0, t) <= 1e-10

    def test_zero_for_real_mixed_state(self, flat5):
        rho0 = states.werner(5, 0.5)
        for t in (0.0, 1.3, 7.7):
            assert measures.pts_bures(flat5, rho0, t) <= 1e-10

    def test_chiral_flat_phases_zero(self):
        for theta in (0.0, math.pi, -math.pi):
            d = dynamics.spectral_decompose(
                graphs.hamiltonian(graphs.triangular_chain(5, theta, 1.0))
            )
            rho0 = states.density_from_pure(states.spatial_pair(5, 1, 2, math.pi))
            for t in np.arange(0.0, 10.0, 0.5):
                assert measures.pts_bures(d, rho0, t) <= 1e-10

    def test_broken_symmetry_is_visible(self, chiral5):
        rho0 = states.density_from_pure(states.spatial_pair(5, 1, 2, math.pi))
        assert measures.pts_bures(chiral5, rho0, 1.0) > 0.1

    def test_rejects_negative_time(self, chiral5):
        with pytest.raises(ValueError):
            measures.pts_bures(chiral5, states.density_from_pure(states.localized(5, 1)), -1.0)


class TestTransferFidelity:
    def test_identical(self):
        psi = states.spatial_pair(5, 1, 2, 0.2)
        assert oracles.transfer_fidelity_pure(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        assert oracles.transfer_fidelity_pure(
            states.spatial_pair(5, 1, 2, 0.0), states.target_pure(5, 0.0)
        ) == 0.0

    def test_consistent_with_density_fidelity(self, chiral5):
        psi = oracles.evolve_pure(chiral5, states.spatial_pair(5, 1, 2, math.pi), 1.0)
        target = states.target_pure(5, math.pi)
        direct = oracles.transfer_fidelity_pure(psi, target)
        via_dm = measures.fidelity(
            states.density_from_pure(psi), states.density_from_pure(target)
        )
        assert direct == pytest.approx(via_dm, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracles.transfer_fidelity_pure(states.localized(4, 1), states.localized(5, 1))


class TestConcurrenceMatrix:
    def test_initial_bell_only_12(self):
        rho = states.density_from_pure(states.spatial_pair(5, 1, 2, math.pi))
        C = measures.concurrence_matrix(rho)
        assert C[0, 1] == pytest.approx(1.0, abs=1e-12)
        C[0, 1] = C[1, 0] = 0.0
        assert C.max() < 1e-12

    def test_range_symmetry_zero_diagonal(self, chiral5):
        rho = dynamics.evolve_density(chiral5, states.werner(5, 0.5), 0.8)
        C = measures.concurrence_matrix(rho)
        assert C.min() >= 0.0 and C.max() <= 1.0
        assert np.array_equal(C, C.T)
        assert np.abs(np.diag(C)).max() == 0.0

    def test_transfer_peak_argmax_pair(self, chiral5):
        rho0 = states.density_from_pure(states.spatial_pair(5, 1, 2, math.pi))
        C = measures.concurrence_matrix(dynamics.evolve_density(chiral5, rho0, 1.0))
        k = np.unravel_index(np.argmax(C), C.shape)
        assert {k[0] + 1, k[1] + 1} == {4, 5}

    def test_matches_pairwise_fast_path(self):
        rng = np.random.default_rng(3)
        rho = oracles.random_density_matrix(rng, 5, rank=2)
        C = measures.concurrence_matrix(rho)
        for i in range(1, 6):
            for j in range(1, 6):
                if i != j:
                    assert C[i - 1, j - 1] == pytest.approx(
                        measures.concurrence_pair_fast(rho, i, j), abs=1e-12
                    )


@given(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
@settings(max_examples=40, deadline=None)
def test_x_block_concurrence_closed_form(p, alpha):
    # For vacuum + one-excitation block states the concurrence is exactly the
    # off-diagonal magnitude doubled, independent of the vacuum weight.
    q = 1.0 - p
    amp = math.sqrt(p * q) * np.exp(1j * alpha)
    pd = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, p, amp, 0.0],
            [0.0, np.conj(amp), q, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    assert oracles.concurrence_wootters(pd) == pytest.approx(2 * abs(amp), abs=1e-9)


def test_wootters_resolves_tiny_concurrence():
    # The singular-value route keeps absolute precision, so a concurrence at
    # the 1e-8 scale is resolved instead of drowning in eigensolve noise.
    p = 2.3e-16
    amp = math.sqrt(p * (1 - p))
    pd = np.zeros((4, 4), dtype=complex)
    pd[1, 1], pd[2, 2] = p, 1 - p
    pd[1, 2] = pd[2, 1] = amp
    assert oracles.concurrence_wootters(pd) == pytest.approx(2 * amp, abs=1e-12)
