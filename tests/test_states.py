import math

import numpy as np
import pytest

import oracles
from chiralwalk import measures, states

SQ2 = 1.0 / math.sqrt(2.0)


class TestLocalized:
    def test_basis_vector(self):
        assert np.array_equal(states.localized(5, 1), [1, 0, 0, 0, 0])

    def test_norm(self):
        assert np.linalg.norm(states.localized(7, 4)) == 1.0

    def test_occupation_of_density(self):
        rho = states.density_from_pure(states.localized(5, 3))
        assert np.real(rho[2, 2]) == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            states.localized(5, 6)
        with pytest.raises(IndexError):
            states.localized(5, 0)
        with pytest.raises(IndexError):
            states.localized(5, True)


class TestSpatialPair:
    def test_phi_pi_gives_plus_combination(self):
        psi = states.spatial_pair(5, 1, 2, math.pi)
        assert np.abs(psi - np.array([SQ2, SQ2, 0, 0, 0])).max() < 1e-12

    def test_phi_zero_gives_minus_combination(self):
        psi = states.spatial_pair(5, 1, 2, 0.0)
        assert np.abs(psi - np.array([SQ2, -SQ2, 0, 0, 0])).max() < 1e-12

    def test_initial_pair_is_maximally_entangled(self):
        rho = states.density_from_pure(states.spatial_pair(5, 1, 2, math.pi))
        assert measures.concurrence_pair_fast(rho, 1, 2) == pytest.approx(1.0, abs=1e-12)

    def test_single_offdiagonal_block(self):
        rho = states.density_from_pure(states.spatial_pair(6, 2, 5, 0.7))
        off = np.abs(np.triu(rho, 1))
        assert off[1, 4] == pytest.approx(0.5)
        off[1, 4] = 0.0
        assert off.max() < 1e-15
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_equal_sites(self):
        with pytest.raises(ValueError):
            states.spatial_pair(5, 2, 2, 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            states.spatial_pair(5, 1, 6, 0.0)
        with pytest.raises(IndexError):
            states.spatial_pair(5, True, 2, 0.0)


class TestWerner:
    def test_b_one_is_pure_pair(self):
        rho = states.werner(5, 1.0)
        psi = states.spatial_pair(5, 1, 2, math.pi)
        assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-12

    def test_b_zero_is_maximally_mixed_manifold(self):
        rho = states.werner(5, 0.0)
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 0] = expected[1, 1] = 0.5
        assert np.abs(rho - expected).max() < 1e-12

    def test_block_eigenvalues_quarter(self):
        # Block is I/2 + b sigma_x / 2 with eigenvalues (1 +- b)/2.
        rho = states.werner(5, -0.25)
        w = np.linalg.eigvalsh(rho[:2, :2])
        assert np.abs(np.sort(w) - [0.375, 0.625]).max() < 1e-12

    def test_rejects_out_of_range_b(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            states.werner(5, 1.5)
        with pytest.raises(ValueError):
            states.werner(5, -1.01)

    @pytest.mark.parametrize("b", [-1.0, -0.25, 0.0, 0.5, 1.0])
    def test_valid_density(self, b):
        rho = states.werner(5, b)
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    @pytest.mark.parametrize("b", [-1.0, -0.25, 0.0, 0.5, 1.0])
    def test_pair_concurrence_magnitude_of_b(self, b):
        # The (1,2) pair concurrence is |b|: the b < 0 mixtures approach the
        # other maximally entangled combination, not a separable state.
        rho = states.werner(5, b)
        pd = oracles.reduced_pair(rho, 1, 2)
        assert oracles.concurrence_wootters(pd) == pytest.approx(abs(b), abs=1e-9)
        assert measures.concurrence_pair_fast(rho, 1, 2) == pytest.approx(abs(b), abs=1e-12)

    @pytest.mark.parametrize("b", [-1.0, -0.25, 0.0, 0.5, 1.0])
    def test_ensemble_sums_to_density(self, b):
        ensemble = states.werner_ensemble(5, b)
        rho = sum(w * np.outer(psi, psi.conj()) for w, psi in ensemble)
        assert [w for w, _ in ensemble] == [(1 + b) / 2, (1 - b) / 2]
        assert np.abs(rho - states.werner(5, b)).max() < 1e-15

    def test_ensemble_rejects_bad_input(self):
        with pytest.raises(ValueError):
            states.werner_ensemble(5, 1.5)
        with pytest.raises(ValueError):
            states.werner_ensemble(1, 0.5)


class TestTargets:
    def test_target_pure_plus_combination(self):
        psi = states.target_pure(5, math.pi)
        assert np.abs(psi - np.array([0, 0, 0, SQ2, SQ2])).max() < 1e-12

    def test_target_pure_needs_two_sites(self):
        with pytest.raises(ValueError, match="^need n >= 2 sites, got 1$"):
            states.target_pure(1, 0.0)

    def test_target_pure_normalized(self):
        assert np.linalg.norm(states.target_pure(9, 0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support_zero_overlap(self):
        psi0 = states.spatial_pair(5, 1, 2, math.pi)
        target = states.target_pure(5, math.pi)
        assert oracles.transfer_fidelity_pure(psi0, target) == 0.0

    def test_target_werner_b_one_projector(self):
        T = states.target_werner(5, 1.0)
        psi = states.target_pure(5, math.pi)
        assert np.abs(T - np.outer(psi, psi.conj())).max() < 1e-12

    def test_target_werner_trace_one(self):
        for b in (-1.0, -0.25, 0.0, 0.5, 1.0):
            assert np.real(np.trace(states.target_werner(7, b))) == pytest.approx(1.0)

    def test_target_werner_self_fidelity(self):
        T = states.target_werner(5, 0.5)
        assert measures.fidelity(T, T) == pytest.approx(1.0, abs=1e-10)

    def test_target_werner_rejects_bad_b(self):
        with pytest.raises(ValueError):
            states.target_werner(5, 2.0)
