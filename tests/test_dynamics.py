import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from chiralwalk import dynamics, graphs, states
from chiralwalk.specs import GraphSpec, TimeGrid

S37 = math.sqrt(37.0)
CHIRAL5_SPECTRUM = np.array(
    [
        -math.sqrt((7 + S37) / 2),
        -math.sqrt((7 - S37) / 2),
        0.0,
        math.sqrt((7 - S37) / 2),
        math.sqrt((7 + S37) / 2),
    ]
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


class TestSpectralDecompose:
    def test_chiral5_closed_form_spectrum(self, chiral5):
        assert np.abs(chiral5.eigenvalues - CHIRAL5_SPECTRUM).max() < 1e-10

    def test_chiral5_antisymmetric_pairs(self, chiral5):
        lam = chiral5.eigenvalues
        assert np.abs(lam + lam[::-1]).max() < 1e-10

    def test_zero_matrix(self):
        d = dynamics.spectral_decompose(np.zeros((4, 4)))
        assert np.abs(d.eigenvalues).max() == 0.0
        assert np.abs(d.eigenvectors - np.eye(4)).max() == 0.0

    def test_type_invariants(self, chiral5):
        H = graphs.hamiltonian(graphs.triangular_chain(5, math.pi / 2, 1.0))
        V, lam = chiral5.eigenvectors, chiral5.eigenvalues
        assert np.abs(H @ V - V * lam).max() < 1e-10
        assert np.abs(V.conj().T @ V - np.eye(5)).max() < 1e-10
        assert np.all(np.diff(lam) >= 0)

    def test_keeps_the_residual_and_orthonormality_it_checked(self, chiral5):
        H = graphs.hamiltonian(graphs.triangular_chain(5, math.pi / 2, 1.0))
        V, lam = chiral5.eigenvectors, chiral5.eigenvalues
        assert chiral5.residual == np.abs(H @ V - V * lam).max()
        assert chiral5.orthonormality == np.abs(V.conj().T @ V - np.eye(5)).max()
        assert type(chiral5.residual) is float and type(chiral5.orthonormality) is float
        assert 0.0 <= chiral5.residual <= dynamics.RESIDUAL_TOL
        assert 0.0 <= chiral5.orthonormality <= dynamics.RESIDUAL_TOL

    def test_deterministic(self):
        H = graphs.hamiltonian(graphs.triangular_chain(7, 0.9, 1.0))
        d1 = dynamics.spectral_decompose(H)
        d2 = dynamics.spectral_decompose(H)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_degenerate_block_stays_orthonormal(self):
        # Complete graph spectrum is highly degenerate.
        d = dynamics.spectral_decompose(
            graphs.hamiltonian(graphs.complete_graph(6, 0.0))
        )
        V = d.eigenvectors
        assert np.abs(V.conj().T @ V - np.eye(6)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dynamics.spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            dynamics.spectral_decompose(np.zeros((2, 3)))


class TestStackedSpectralDecompose:
    """A stack (..., n, n) is decomposed member by member, with a lone call's bits
    and checks."""

    @staticmethod
    def _assert_members_are_lone_calls(stack):
        d = dynamics.spectral_decompose(stack)
        for k in np.ndindex(stack.shape[:-2]):
            lone = dynamics.spectral_decompose(stack[k])
            assert np.array_equal(d.eigenvalues[k], lone.eigenvalues)
            assert np.array_equal(d.eigenvectors[k], lone.eigenvectors)
            member = d.member(k)
            assert np.array_equal(member.eigenvalues, lone.eigenvalues)
            assert np.array_equal(member.eigenvectors, lone.eigenvectors)
            assert type(member.residual) is float and type(member.orthonormality) is float
            assert member.residual <= dynamics.RESIDUAL_TOL
            assert member.orthonormality <= dynamics.RESIDUAL_TOL
        assert d.n == stack.shape[-1]
        assert d.residual.shape == d.orthonormality.shape == stack.shape[:-2]

    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_hermitian_members_equal_lone_calls(self, n, count, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
        self._assert_members_are_lone_calls(A + A.conj().swapaxes(-1, -2))

    def test_tri33_members_equal_lone_calls(self):
        thetas = np.random.default_rng(33).uniform(-math.pi, math.pi, 16)
        stack = np.stack([graphs.hamiltonian(graphs.triangular_chain(33, t)) for t in thetas])
        self._assert_members_are_lone_calls(stack)
        self._assert_members_are_lone_calls(stack.reshape(4, 4, 33, 33))

    @pytest.mark.parametrize("bad, error", [
        (np.triu(graphs.hamiltonian(graphs.triangular_chain(5, 0.4))), ValueError),
        (np.full((5, 5), np.nan), ValueError),
        (graphs.hamiltonian(graphs.triangular_chain(5, 0.0, 1e308)), ArithmeticError),
    ], ids=["non-hermitian", "nan", "overflow"])
    def test_one_bad_member_fails_with_the_lone_message(self, bad, error):
        good = graphs.hamiltonian(graphs.triangular_chain(5, 0.4))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as lone:
                dynamics.spectral_decompose(bad)
            with pytest.raises(error, match=re.escape(str(lone.value))):
                dynamics.spectral_decompose(np.stack([good, bad, good]))

    def test_lone_fields_unchanged(self, chiral5):
        # The fields a lone call had before stacks were accepted.
        H = graphs.hamiltonian(graphs.triangular_chain(5, math.pi / 2, 1.0))
        eigenvalues, V = np.linalg.eigh(H)
        assert np.array_equal(chiral5.eigenvalues, eigenvalues)
        assert np.array_equal(chiral5.eigenvectors, V)
        assert chiral5.residual == float(np.abs(H @ V - V * eigenvalues).max())
        assert chiral5.orthonormality == float(np.abs(V.conj().T @ V - np.eye(5)).max())
        assert chiral5.n == 5

    def test_bad_member_message_names_its_own_numbers(self, monkeypatch):
        # A stack whose second member's eigenvector eigh gets wrong: the message
        # gives that member's residual and orthonormality, not the first's.
        stack = graphs.hamiltonian(graphs.triangular_chain(5, [0.1, 0.4, 0.9]))
        eigh = np.linalg.eigh

        def perturbed(H):
            eigenvalues, V = eigh(H)
            V = V.copy()
            V[1, 0, 0] += 1e-3
            return eigenvalues, V

        eigenvalues, V = perturbed(stack)
        resid = np.abs(stack[1] @ V[1] - V[1] * eigenvalues[1]).max()
        ortho = np.abs(V[1].conj().T @ V[1] - np.eye(5)).max()
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        assert resid > 1e-4 and ortho > 1e-4
        with pytest.raises(ArithmeticError, match=re.escape(
                f"eigendecomposition failed: residual {resid:.3e}, orthonormality {ortho:.3e}")):
            dynamics.spectral_decompose(stack)

    def test_density_matrix_check_still_takes_one_matrix(self):
        with pytest.raises(ValueError, match="square matrix"):
            dynamics.check_density_matrix(np.stack([np.eye(2) / 2] * 2))


class TestNonFiniteInput:
    """A NaN compares false against any tolerance, so every check fails closed on it."""

    NAN3 = np.full((3, 3), np.nan)

    @pytest.mark.parametrize("check,value", [
        (dynamics.check_hermitian, NAN3),
        (dynamics.check_pure_state, np.full(3, np.nan)),
        (dynamics.check_density_matrix, NAN3),
        (lambda rho: dynamics.occupation(rho, 1), NAN3),
        (dynamics.check_pure_state, np.array([np.nan, 1.0, 0.0])),
        (lambda rho: dynamics.occupation(rho, 2), np.diag([0.0, np.nan, 0.0])),
    ], ids=["hermitian", "pure-state", "density-matrix", "occupation", "pure-state-one-nan",
            "occupation-diagonal-nan"])
    def test_validator_rejects_nan(self, check, value):
        with pytest.raises(ValueError):
            check(value)

    def test_overflowing_spectrum_is_rejected(self):
        H = graphs.hamiltonian(graphs.triangular_chain(5, 0.0, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="spectrum is not finite"):
                dynamics.spectral_decompose(H)


class TestPropagator:
    def test_identity_at_zero(self, chiral5):
        assert np.abs(dynamics.propagator(chiral5, 0.0) - np.eye(5)).max() < 1e-12

    def test_inverse_pairing(self, chiral5):
        U = dynamics.propagator(chiral5, 1.7)
        Ub = dynamics.propagator(chiral5, -1.7)
        assert np.abs(U @ Ub - np.eye(5)).max() < 1e-12

    def test_unitarity_on_grid(self, chiral5):
        for t in np.linspace(-10, 10, 41):
            U = dynamics.propagator(chiral5, t)
            assert np.abs(U.conj().T @ U - np.eye(5)).max() < 1e-9

    def test_semigroup_random_times(self, chiral5):
        rng = np.random.default_rng(7)
        for _ in range(25):
            t1, t2 = rng.uniform(-5, 5, size=2)
            lhs = dynamics.propagator(chiral5, t1) @ dynamics.propagator(chiral5, t2)
            rhs = dynamics.propagator(chiral5, t1 + t2)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_matches_expm_oracle(self, chiral5):
        H = graphs.hamiltonian(graphs.triangular_chain(5, math.pi / 2, 1.0))
        for t in (0.3, 1.64, -2.9, 17.0):
            assert np.abs(dynamics.propagator(chiral5, t) - oracles.expm_propagator(H, t)).max() < 1e-10

    def test_rejects_non_finite_time(self, chiral5):
        with pytest.raises(ValueError):
            dynamics.propagator(chiral5, math.inf)


class TestEvolvePure:
    """Pure-state evolution: the one-time reference oracles.evolve_pure, and
    site_amplitudes, the package's only pure-state path."""

    def test_identity_at_zero(self, chiral5):
        psi0 = states.localized(5, 1)
        assert np.abs(oracles.evolve_pure(chiral5, psi0, 0.0) - psi0).max() < 1e-12

    def test_norm_preserved(self, chiral5):
        psi0 = states.spatial_pair(5, 1, 2, 2.1)
        for t in (0.5, 3.3, 42.0):
            psi = oracles.evolve_pure(chiral5, psi0, t)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10

    def test_matches_propagator(self, chiral5):
        psi0 = states.spatial_pair(5, 1, 2, 0.4)
        t = 2.2
        direct = dynamics.propagator(chiral5, t) @ psi0
        assert np.abs(oracles.evolve_pure(chiral5, psi0, t) - direct).max() < 1e-12

    def test_dimension_mismatch(self, chiral5):
        with pytest.raises(ValueError, match="mismatch"):
            dynamics.site_amplitudes(chiral5, states.localized(4, 1), [1.0])

    def test_rejects_unnormalized(self, chiral5):
        with pytest.raises(ValueError, match="normalized"):
            dynamics.site_amplitudes(chiral5, np.ones(5), [1.0])

    def test_chiral_population_transfer_near_t164(self, chiral5):
        psi = dynamics.site_amplitudes(chiral5, states.localized(5, 1), [1.64])[:, 0]
        assert abs(psi[4]) ** 2 == pytest.approx(0.95, abs=0.03)

    def test_flat_walk_weak_transfer_regression(self, flat5):
        # Transfer from site 1 to site 5 stays below 0.45 through t ~ 7; a
        # recurrence then tops out at 0.4548 (pinned from this computation).
        times = np.arange(0.0, 10.0005, 0.005)
        p5 = np.abs(dynamics.site_amplitudes(flat5, states.localized(5, 1), times)[4]) ** 2
        assert p5[times <= 7.0].max() < 0.45
        assert p5.max() == pytest.approx(0.454850, abs=2e-4)

    def test_phase_superposition_beats_localized_start(self, flat5):
        times = np.arange(0.0, 4.0005, 0.005)
        loc = np.abs(dynamics.site_amplitudes(flat5, states.localized(5, 1), times)[4]) ** 2
        sup = np.abs(
            dynamics.site_amplitudes(flat5, states.spatial_pair(5, 1, 2, 3 * math.pi / 4), times)[4]
        ) ** 2
        assert sup.max() > loc.max()


class TestEvolveDensity:
    def test_identity_at_zero(self, chiral5):
        rho0 = states.werner(5, 0.5)
        assert np.abs(dynamics.evolve_density(chiral5, rho0, 0.0) - rho0).max() < 1e-12

    def test_purity_constant(self, chiral5):
        rho0 = states.werner(5, -0.25)
        p0 = np.real(np.trace(rho0 @ rho0))
        for t in (0.7, 5.0, 60.0):
            rho = dynamics.evolve_density(chiral5, rho0, t)
            assert np.real(np.trace(rho @ rho)) == pytest.approx(p0, abs=1e-9)

    def test_energy_conserved(self, chiral5):
        H = graphs.hamiltonian(graphs.triangular_chain(5, math.pi / 2, 1.0))
        rho0 = states.werner(5, 0.5)
        e0 = np.real(np.trace(H @ rho0))
        for t in (0.3, 2.0, 11.0):
            rho = dynamics.evolve_density(chiral5, rho0, t)
            assert np.real(np.trace(H @ rho)) == pytest.approx(e0, abs=1e-9)

    def test_agrees_with_pure_path(self, chiral5):
        psi0 = states.spatial_pair(5, 1, 2, 1.1)
        rho0 = states.density_from_pure(psi0)
        t = 3.7
        via_density = dynamics.evolve_density(chiral5, rho0, t)
        psi = oracles.evolve_pure(chiral5, psi0, t)
        assert np.abs(via_density - np.outer(psi, psi.conj())).max() < 1e-10

    def test_rejects_invalid_density(self, chiral5):
        bad = np.eye(5, dtype=complex)  # trace 5
        with pytest.raises(ValueError, match="trace"):
            dynamics.evolve_density(chiral5, bad, 1.0)

    def test_rejects_non_psd(self, chiral5):
        bad = np.diag([1.5, -0.5, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            dynamics.evolve_density(chiral5, bad, 1.0)

    def test_rejects_a_state_of_other_size(self, chiral5):
        with pytest.raises(ValueError, match="^dimension mismatch: state has 4 sites, expected 5$"):
            dynamics.evolve_density(chiral5, np.eye(4) / 4, 1.0)

    def test_rejects_infinite_time(self, chiral5):
        with pytest.raises(ValueError, match="^time must be finite, got inf$"):
            dynamics.evolve_density(chiral5, states.werner(5, 0.5), math.inf)


class TestOccupation:
    def test_localized_density(self):
        rho = states.density_from_pure(states.localized(5, 3))
        assert dynamics.occupation(rho, 3) == 1.0
        assert dynamics.occupation(rho, 1) == 0.0

    def test_sums_to_one(self, chiral5):
        rho = dynamics.evolve_density(chiral5, states.werner(5, 0.5), 1.3)
        total = sum(dynamics.occupation(rho, i) for i in range(1, 6))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_index_out_of_range(self):
        rho = states.density_from_pure(states.localized(5, 1))
        with pytest.raises(IndexError):
            dynamics.occupation(rho, 0)
        with pytest.raises(IndexError):
            dynamics.occupation(rho, 6)

    def test_time_reversal_symmetry_real_hamiltonian(self, flat5):
        # P_i(t) = P_i(-t) for a real Hamiltonian with a localized start.
        psi0 = states.localized(5, 1)
        for t in np.linspace(0.25, 10.0, 40):
            fwd = np.abs(oracles.evolve_pure(flat5, psi0, t)) ** 2
            bwd = np.abs(oracles.evolve_pure(flat5, psi0, -t)) ** 2
            assert np.abs(fwd - bwd).max() < 1e-9


@contextlib.contextmanager
def phase_widths():
    """Yield the column count of every dynamics._phases call made inside.

    site_amplitudes makes one call per column group of w columns: the group's
    anchors (ceil(w / B) columns) or, if it is not factored, one phase per
    element (w columns).  The first factored group forms the fine block (B
    columns) first.  group_widths gives the expected list.
    """
    widths = []
    real = dynamics._phases

    def counting(eigenvalues, times):
        widths.append(len(times))
        return real(eigenvalues, times)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_phases", counting)
        yield widths


def group_widths(size, block, exact=lambda lo, hi: False):
    """The phase_widths of a site_amplitudes call on ``size`` times in blocks of
    ``block`` columns, where each group lo:hi for which ``exact(lo, hi)`` holds
    takes one phase per element."""
    group = block * max(1, dynamics.AMPLITUDE_CHUNK // block)
    widths, fine = [], False
    for lo in range(0, size, group):
        hi = min(lo + group, size)
        if exact(lo, hi):
            widths.append(hi - lo)
            continue
        if not fine:
            widths.append(block)
            fine = True
        widths.append(-(-(hi - lo) // block))
    return widths


class TestSiteAmplitudes:
    def test_rejects_2d_times(self, chiral5):
        with pytest.raises(ValueError, match="^times must be a 1-d array$"):
            dynamics.site_amplitudes(chiral5, states.localized(5, 1), np.zeros((2, 3)))

    def test_matches_stacked_evolve_pure(self, chiral5):
        psi0 = states.spatial_pair(5, 1, 2, math.pi)
        times = np.array([0.0, 0.31, 1.02, 9.7])
        batch = dynamics.site_amplitudes(chiral5, psi0, times)
        for k, t in enumerate(times):
            assert np.abs(batch[:, k] - oracles.evolve_pure(chiral5, psi0, t)).max() < 1e-12

    def test_parallel_columns_independent_of_grid(self, chiral5):
        # A factored column depends on the block layout of its grid, so a
        # sub-grid agrees with the full grid to rounding, not bit for bit.
        psi0 = states.localized(5, 2)
        times = np.arange(0.0, 1.0, 0.1)
        full = dynamics.site_amplitudes(chiral5, psi0, times)
        half = dynamics.site_amplitudes(chiral5, psi0, times[::2])
        assert np.abs(full[:, ::2] - half).max() < 1e-12
        for k, t in enumerate(times):
            assert np.abs(full[:, k] - oracles.evolve_pure(chiral5, psi0, t)).max() < 1e-12

    def test_unit_norm_at_every_grid_point(self, chiral5):
        times = np.linspace(0, 12, 31)
        amp = dynamics.site_amplitudes(chiral5, states.localized(5, 1), times)
        norms = np.linalg.norm(amp, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_rejects_non_finite_times(self, chiral5):
        with pytest.raises(ValueError):
            dynamics.site_amplitudes(chiral5, states.localized(5, 1), [0.0, math.nan])

    @given(st.data(), st.integers(2, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_full_and_evolve_pure(self, data, n, seed):
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        d = dynamics.spectral_decompose((H + H.conj().T) / 2)
        psi0 = oracles.random_single_excitation_state(rng, n)
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        times = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), max_size=12)))
        part = dynamics.site_amplitudes(d, psi0, times, rows)
        assert part.shape == (len(rows), times.size)
        assert np.abs(part - dynamics.site_amplitudes(d, psi0, times)[rows]).max(initial=0) < 1e-12
        for k, t in enumerate(times):
            assert np.abs(part[:, k] - oracles.evolve_pure(d, psi0, t)[rows]).max() < 1e-12

    def test_chunk_boundaries_match_evolve_pure(self, chiral5):
        psi0 = states.spatial_pair(5, 1, 2, 0.4)
        chunk = dynamics.AMPLITUDE_CHUNK
        times = -3.0 + 0.01 * np.arange(2 * chunk + 3)
        amp = dynamics.site_amplitudes(chiral5, psi0, times)
        part = dynamics.site_amplitudes(chiral5, psi0, times, [4, 0])
        for k in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, times.size - 1):
            psi = oracles.evolve_pure(chiral5, psi0, times[k])
            assert np.abs(amp[:, k] - psi).max() < 1e-12
            assert np.abs(part[:, k] - psi[[4, 0]]).max() < 1e-12

    def test_non_uniform_chunk_boundaries_match_evolve_pure(self, chiral5):
        psi0 = states.spatial_pair(5, 1, 2, 0.4)
        chunk = dynamics.AMPLITUDE_CHUNK
        times = np.cumsum(np.random.default_rng(3).uniform(0.001, 0.02, 2 * chunk + 3))
        with phase_widths() as widths:
            amp = dynamics.site_amplitudes(chiral5, psi0, times, [4, 0])
        assert widths == group_widths(times.size, math.isqrt(times.size), lambda lo, hi: True)
        for k in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, times.size - 1):
            psi = oracles.evolve_pure(chiral5, psi0, times[k])
            assert np.abs(amp[:, k] - psi[[4, 0]]).max() < 1e-12

    @given(
        st.sampled_from(["tri", "tri2", "cycle", "complete"]),
        st.integers(3, 71),
        st.floats(-math.pi, math.pi),
        st.one_of(st.sampled_from([1, 2, 3]),
                  st.builds(lambda k, off: max(1, k * k + off), st.integers(2, 60), st.sampled_from([-1, 0, 1]))),
        st.floats(-2000.0, 1999.0),
        st.floats(1e-6, 1.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example("complete", 71, 2.9, 3600, -2000.0, 1.0, True, 0)
    @example("tri2", 71, 0.7, 2500, 1500.0, 0.2, False, 1)
    @example("cycle", 3, -1.0, 1, 0.0, 0.5, False, 2)
    @settings(max_examples=60, deadline=None)
    def test_factored_grid_matches_evolve_pure(self, kind, n, theta, size, t_start, frac, negate, seed):
        # Block starts and ends, the ragged last block and T = 1, 2, 3, k^2, k^2 +- 1,
        # on grids inside [-2000, 2000] and their negations (the Bures trace's -times).
        graph = {
            "tri": lambda: graphs.triangular_chain(n, theta, 1.0),
            "tri2": lambda: graphs.triangular_chain(n, theta, 2.0),
            "cycle": lambda: graphs.cycle_graph(n, theta),
            "complete": lambda: graphs.complete_graph(n, theta),
        }[kind]()
        d = dynamics.spectral_decompose(graphs.hamiltonian(graph))
        rng = np.random.default_rng(seed)
        psi0 = oracles.random_single_excitation_state(rng, n)
        rows = [n - 2, n - 1] if seed % 2 else None
        dt = frac * (2000.0 - t_start) / size
        times = TimeGrid(t_start, t_start + (size - 0.5) * dt, dt).times()
        times = -times if negate else times
        assert times.size == size
        block = dynamics._grid_block(size, n if rows is None else 2)
        wide = max(math.isqrt(size), min(dynamics.FINE_BLOCK, size // 4))
        assert block == (math.isqrt(size) if rows else wide)
        with phase_widths() as widths:
            amp = dynamics.site_amplitudes(d, psi0, times, rows)
        assert widths == [block, -(-size // block)]
        assert np.array_equal(amp, dynamics.site_amplitudes(d, psi0, times, rows))
        starts = np.arange(0, size, block)
        for k in {*starts, *(starts[1:] - 1), size - 1}:
            psi = oracles.evolve_pure(d, psi0, times[k])
            assert np.abs(amp[:, k] - (psi if rows is None else psi[rows])).max() < 1e-12

    @given(st.floats(-1e15, 1e15), st.integers(1, 5000), st.floats(0.0, 8.0), st.booleans(), st.booleans())
    @example(1e10, 10, 2.5, True, False)
    @example(-1e10, 4000, 2.5, True, True)
    @example(-1999.99, 4999, 0.8, False, False)
    @settings(max_examples=300, deadline=None)
    def test_every_time_grid_is_factored(self, chiral5, t_start, steps, step, in_ulps, negate):
        # The fast path must not fall back on any grid TimeGrid accepts: the
        # fine block and the anchors are the only phases computed.
        dt = step * np.spacing(abs(t_start)) if in_ulps else step
        try:
            grid = TimeGrid(t_start, t_start + steps * dt, dt)
        except ValueError:
            return
        times = -grid.times() if negate else grid.times()
        size = times.size
        wide = max(math.isqrt(size), min(dynamics.FINE_BLOCK, size // 4))
        for rows, block in (([0, 4], math.isqrt(size)), (None, wide)):
            assert dynamics._grid_block(size, 5 if rows is None else 2) == block
            with phase_widths() as widths:
                dynamics.site_amplitudes(chiral5, states.localized(5, 1), times, rows)
            assert widths == group_widths(size, block)

    def test_non_uniform_times_are_not_factored(self, chiral5):
        def widths_of(times, rows):
            with phase_widths() as widths:
                dynamics.site_amplitudes(chiral5, states.localized(5, 1), times, rows)
            return widths

        times = 0.01 * np.arange(100.0)
        assert widths_of(times, [0, 1]) == [10, 10]
        assert widths_of(times, None) == [25, 4]
        times[57] += 1e-9
        assert widths_of(times, [0, 1]) == [100]
        assert widths_of(times, None) == [100]
        assert widths_of(np.array([0.0, 0.5, 3.0, 7.0, 7.5]), [0, 1]) == [5]

    @pytest.mark.parametrize("size, at", [(100, 57), (3 * dynamics.AMPLITUDE_CHUNK + 5,
                                                     dynamics.AMPLITUDE_CHUNK + 57)])
    def test_one_perturbed_time_takes_one_direct_group(self, chiral5, size, at):
        # Only the group holding the perturbed time takes one phase per
        # element; every column, on both sides of its edges, stays exact.
        psi0 = states.spatial_pair(5, 1, 2, 0.4)
        times = 0.01 * np.arange(float(size))
        times[at] += 1e-9
        block = math.isqrt(size)
        with phase_widths() as widths:
            amp = dynamics.site_amplitudes(chiral5, psi0, times, [4, 0])
        assert widths == group_widths(size, block, lambda lo, hi: lo <= at < hi)
        for k, t in enumerate(times):
            assert np.abs(amp[:, k] - oracles.evolve_pure(chiral5, psi0, t)[[4, 0]]).max() < 1e-12

    @pytest.mark.parametrize("rows", [None, [3], [0, 4]])
    def test_empty_times(self, chiral5, rows):
        amp = dynamics.site_amplitudes(chiral5, states.localized(5, 1), [], rows)
        assert amp.shape == (5 if rows is None else len(rows), 0)

    @given(
        st.sampled_from(["tri", "cycle", "complete"]),
        st.integers(3, 33),
        st.floats(-math.pi, math.pi),
        st.integers(1, 3),
        st.sampled_from([None, 1, 2]),
        st.sampled_from(["uniform", "negated", "random", "perturbed"]),
        st.one_of(st.sampled_from([0, 1, 2, 3]),
                  st.builds(lambda k, off: k * k + off, st.integers(2, 100), st.sampled_from([-1, 1]))),
        st.integers(0, 2**32 - 1),
    )
    # Five column groups, one of them taking a phase per element.
    @example("tri", 33, 1.5, 2, 2, "perturbed", 20001, 0)
    @example("complete", 33, -0.4, 3, None, "negated", 4097, 1)
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_member_calls(self, kind, n, theta, m, readout, grid, size, seed):
        # Each member of a stacked call is the same bits as a call with it
        # alone, and the fine block and anchors are computed once for all.
        d = GraphSpec(kind, n, theta).decompose()
        rng = np.random.default_rng(seed)
        stack = np.array([oracles.random_single_excitation_state(rng, n) for _ in range(m)])
        rows = None if readout is None else list(rng.choice(n, readout, replace=False))
        times = rng.uniform(-100.0, 100.0) + rng.uniform(1e-3, 0.1) * np.arange(float(size))
        if grid == "negated":
            times = -times
        elif grid == "random":
            times = np.sort(rng.uniform(-100.0, 100.0, size))
        elif grid == "perturbed" and size:
            times[rng.integers(size)] += 1e-9
        with phase_widths() as widths:
            out = dynamics.site_amplitudes(d, stack, times, rows)
        assert out.shape == (m, n if rows is None else readout, size)
        for member, psi in zip(out, stack):
            with phase_widths() as lone:
                alone = dynamics.site_amplitudes(d, psi, times, rows)
            assert np.array_equal(member, alone)
            assert lone == widths

    @pytest.mark.parametrize("stack, message", [
        (np.full((2, 6), 1 / math.sqrt(6)), "mismatch"),
        (np.array([states.localized(5, 1), 2 * states.localized(5, 2)]), "normalized"),
        (np.full((1, 2, 5), 1 / math.sqrt(5)), "1-d amplitude vector"),
    ], ids=["wrong-n", "not-normalized", "3-d"])
    def test_rejects_bad_stacks(self, chiral5, stack, message):
        with pytest.raises(ValueError, match=message):
            dynamics.site_amplitudes(chiral5, stack, [0.0, 1.0])

    @pytest.mark.parametrize("rows", [[5], [-1], [[0, 1]], [0.5], [True], []])
    def test_rejects_bad_rows(self, chiral5, rows):
        # An empty list too, on an empty grid, one time and three, for a
        # state and a 2-member stack.
        stack = np.array([states.localized(5, 1), states.localized(5, 2)])
        for times in ([], [0.0], [0.0, 0.5, 1.0]):
            for psi in (stack[0], stack):
                with pytest.raises(IndexError, match="rows must be"):
                    dynamics.site_amplitudes(chiral5, psi, times, rows)

    def test_peak_memory_does_not_grow_with_grid(self):
        # Two readout rows of a 71-site chain over 200 001 times: the output
        # alone is 6.4 MB, and the n x T phase matrix would be 227 MB.
        d = dynamics.spectral_decompose(
            graphs.hamiltonian(graphs.triangular_chain(71, math.pi / 2, 1.0))
        )
        psi0 = states.spatial_pair(71, 1, 2, math.pi)
        uniform = 0.01 * np.arange(200_001)
        # Sorted random times take the direct path, one phase per element.
        scattered = np.sort(np.random.default_rng(5).uniform(0.0, 2000.0, 200_001))
        for times, direct in ((uniform, 0), (scattered, 200_001)):
            with phase_widths() as widths:
                tracemalloc.start()
                try:
                    amp = dynamics.site_amplitudes(d, psi0, times, [69, 70])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert widths == group_widths(times.size, math.isqrt(times.size),
                                          lambda lo, hi: direct == times.size)
            assert amp.shape == (2, 200_001)
            assert peak < 32e6
