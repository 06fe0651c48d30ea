import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from chiralwalk import dynamics, experiments, graphs, measures, states
from chiralwalk.dynamics import evolve_density
from chiralwalk.experiments import (
    TraceSeries,
    bures_trace,
    concurrence_matrix_snapshots,
    concurrence_trace,
    ctqw_long_time,
    first_peak,
    global_max,
    occupation_trace,
    optimize_theta,
    scaling_sweep,
    sweep_table,
    top_peaks,
    transfer_fidelity_trace,
    werner_trace,
)
from chiralwalk.specs import GraphSpec, StateSpec, TimeGrid

PI = math.pi
BELL = StateSpec("pair", i=1, j=2, phi=PI)
PEAK_FLOOR = experiments.PEAK_NOISE_FLOOR


def _density(spec: StateSpec, n: int) -> np.ndarray:
    """The initial density matrix of ``spec`` on n sites: states.werner, not the
    ensemble, for a Werner state, and |psi><psi| of the one member otherwise."""
    if spec.kind == "werner":
        return states.werner(n, spec.b)
    ((_, psi),) = spec.ensemble(n)
    return states.density_from_pure(psi)


def _series(values, dt=0.5):
    values = np.asarray(values, dtype=float)
    return TraceSeries(dt * np.arange(values.size), values)


# A few fixed levels make plateaus, exact value ties and flat triples common.
_SAMPLE_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-1.0, 1.0))


@st.composite
def _peak_series(draw, min_size=0):
    values = draw(st.lists(_SAMPLE_VALUES, min_size=min_size, max_size=40))
    steps = draw(st.lists(st.floats(0.01, 2.0), min_size=len(values), max_size=len(values)))
    return TraceSeries(draw(st.floats(-10.0, 10.0)) + np.cumsum(steps), np.array(values))
SHORT = TimeGrid(0.0, 4.0, 0.005)


class TestTimeGrid:
    def test_times_are_uniform_and_inclusive(self):
        g = TimeGrid(0.0, 1.0, 0.25)
        assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty"):
            TimeGrid(1.0, 1.0, 0.1)

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, -0.1)

    def test_rejects_huge_grids(self):
        with pytest.raises(ValueError, match="guard"):
            TimeGrid(0.0, 1e6, 1e-9)

    def test_rejects_step_below_float_resolution(self):
        # 10^7 steps fit the guard, but 1e-7 is below the spacing of floats near 1e10.
        with pytest.raises(ValueError, match="resolution"):
            TimeGrid(1e10, 10000000001.0, 1e-7)

    @given(st.floats(-1e15, 1e15), st.integers(1, 200), st.floats(0.0, 8.0), st.booleans())
    @example(1e10, 10, 1.5, True)
    @example(-1e10, 10, 2.5, True)
    @example(0.0, 3, 0.5, False)
    @settings(max_examples=300, deadline=None)
    def test_accepted_grids_increase_strictly(self, t_start, steps, step, in_ulps):
        # Steps of a few float spacings of t_start probe the resolution check.
        dt = step * np.spacing(abs(t_start)) if in_ulps else step
        try:
            grid = TimeGrid(t_start, t_start + steps * dt, dt)
        except ValueError:
            return
        assert np.all(np.diff(grid.times()) > 0)


class TestTraceSeries:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TraceSeries(np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            TraceSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3))


class TestConcurrenceTrace:
    def test_starts_at_zero_for_far_pair(self):
        series = concurrence_trace(GraphSpec("tri", 5, PI / 2), BELL, SHORT)
        assert series.values[0] < 1e-12

    def test_flat_walk_optimal_phase_peak(self):
        spec = StateSpec("pair", i=1, j=2, phi=3 * PI / 4)
        series = concurrence_trace(GraphSpec("tri", 5, 0.0), spec, TimeGrid(0, 2, 0.005))
        peak = global_max(series)
        assert peak.value == pytest.approx(0.8, abs=0.05)
        assert peak.t_peak == pytest.approx(1.12, abs=0.1)

    def test_chiral_walk_peak(self):
        series = concurrence_trace(GraphSpec("tri", 5, PI / 2), BELL, TimeGrid(0, 2, 0.005))
        peak = global_max(series)
        assert peak.value == pytest.approx(0.9, abs=0.05)
        assert peak.t_peak == pytest.approx(1.02, abs=0.1)

    def test_custom_pair_matches_measure(self):
        series = concurrence_trace(GraphSpec("tri", 5, PI / 2), BELL, TimeGrid(0, 1, 0.5), (2, 3))
        d = GraphSpec("tri", 5, PI / 2).decompose()
        rho0 = states.density_from_pure(states.spatial_pair(5, 1, 2, PI))
        from chiralwalk.dynamics import evolve_density

        for k, t in enumerate(series.times):
            expected = measures.concurrence_pair_fast(evolve_density(d, rho0, t), 2, 3)
            assert series.values[k] == pytest.approx(expected, abs=1e-12)
        numpy_pair = concurrence_trace(GraphSpec("tri", 5, PI / 2), BELL, TimeGrid(0, 1, 0.5),
                                       (np.int64(2), np.int64(3)))
        assert numpy_pair.label == series.label == "concurrence:2,3"
        assert np.array_equal(numpy_pair.values, series.values)

    def test_mixed_initial_state_supported(self):
        series = concurrence_trace(
            GraphSpec("tri", 5, PI / 2), StateSpec("werner", b=0.5), TimeGrid(0, 1, 0.25)
        )
        assert series.values.shape == (5,)
        assert series.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_pairs(self):
        gspec, grid = GraphSpec("tri", 5, PI / 2), TimeGrid(0, 1, 0.5)
        for pair, error in (((0, 5), IndexError), ((5, 5), ValueError), ((4, 9), IndexError),
                            ((1.5, 2), IndexError), ((True, 2), IndexError)):
            with pytest.raises(error):
                concurrence_trace(gspec, BELL, grid, pair)


class TestNonFiniteValues:
    def test_trace_series_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ArithmeticError, match="not all finite"):
                TraceSeries(np.array([0.0, 1.0]), np.array([0.5, bad]), label="x")

    def test_overflowing_phases_are_rejected(self):
        # lambda t overflows at t = 10 on a chain of magnitude 1e307.
        gspec = GraphSpec("tri", 5, 0.0, 1e307)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="not all finite"):
                concurrence_trace(gspec, BELL, TimeGrid(0.0, 10.0, 1.0))
            with pytest.raises(ArithmeticError, match="snapshots"):
                concurrence_matrix_snapshots(gspec, BELL, [0.0, 10.0])


class TestPhaseResolution:
    # |lambda t| passes up to just below 2^33, where float spacing reaches 2^-19 rad.
    GRAPH = GraphSpec("tri", 5, PI / 2)
    LIMIT = 2.0**33 / float(np.abs(GRAPH.decompose().eigenvalues).max())
    TRACES = {
        "concurrence": lambda g, grid: concurrence_trace(g, BELL, grid),
        "occupation": lambda g, grid: occupation_trace(g, BELL, grid, 5),
        "pts-bures": lambda g, grid: bures_trace(g, BELL, grid),
        "snapshots": lambda g, grid: concurrence_matrix_snapshots(g, BELL, grid.times()),
        "werner": lambda g, grid: werner_trace(g, StateSpec("werner", b=0.5), grid),
        "werner-transfer-fidelity": lambda g, grid: transfer_fidelity_trace(
            g, StateSpec("werner", b=0.5), grid),
    }

    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_coarse_phases_are_rejected(self, trace):
        assert experiments.PHASE_RESOLUTION == 1e-6
        for grid in (TimeGrid(0.0, 1e20, 1e17), TimeGrid(-1.001 * self.LIMIT, -self.LIMIT, 1e4)):
            with pytest.raises(ArithmeticError, match="phase resolution"):
                self.TRACES[trace](self.GRAPH, grid)

    @pytest.mark.parametrize("trace", ["concurrence", "occupation", "pts-bures", "snapshots",
                                       "werner", "werner-transfer-fidelity"])
    def test_phases_below_the_bound_pass(self, trace):
        # A mixed state's cross-check allows the float spacing of these phases.
        grid = TimeGrid(0.999 * self.LIMIT, self.LIMIT * (1 - 1e-15), 1e4)
        self.TRACES[trace](self.GRAPH, grid)


class TestOccupationTrace:
    def test_initial_point(self):
        series = occupation_trace(GraphSpec("tri", 5, 0.0), StateSpec("localized", site=1),
                                  TimeGrid(0, 1, 0.5), site=1)
        assert series.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_site_validation(self):
        for site in (9, 2.7, True):
            with pytest.raises(IndexError):
                occupation_trace(GraphSpec("tri", 5, 0.0), BELL, TimeGrid(0, 1, 0.5), site=site)


class TestTransferFidelityTrace:
    def test_matches_pointwise_overlap(self):
        gspec = GraphSpec("tri", 5, PI / 2)
        series = transfer_fidelity_trace(gspec, BELL, TimeGrid(0, 1, 0.25))
        d = gspec.decompose()
        target = states.target_pure(5, PI)
        for k, t in enumerate(series.times):
            psi = oracles.evolve_pure(d, states.spatial_pair(5, 1, 2, PI), t)
            assert series.values[k] == pytest.approx(
                oracles.transfer_fidelity_pure(psi, target), abs=1e-12
            )


class TestPeaks:
    def test_monotone_series_has_no_peak(self):
        series = TraceSeries(np.linspace(0, 1, 50), np.linspace(0, 1, 50))
        result = first_peak(series)
        assert not result.found

    def test_sine_peak_location(self):
        ts = np.arange(0.0, 2 * PI, 0.01)
        series = TraceSeries(ts, np.sin(ts))
        peak = first_peak(series)
        assert peak.found
        assert peak.t_peak == pytest.approx(PI / 2, abs=0.01)
        assert peak.value == pytest.approx(1.0, abs=1e-4)

    def test_noise_floor_skips_tiny_ripples(self):
        ts = np.linspace(0, 10, 101)
        vs = np.zeros(101)
        vs[10] = 0.005  # below the floor
        vs[50] = 0.5
        peak = first_peak(TraceSeries(ts, vs))
        assert peak.t_peak == pytest.approx(5.0, abs=0.1)

    def test_short_series_rejected(self):
        # Two samples hold no interior maximum, so no peak is found.
        assert not first_peak(TraceSeries(np.array([0.0, 1.0]), np.array([0.0, 1.0]))).found

    def test_global_max_constant_series_takes_first_point(self):
        series = TraceSeries(np.linspace(0, 1, 20), np.ones(20))
        peak = global_max(series)
        assert peak.t_peak == 0.0
        assert peak.value == 1.0

    def test_global_max_boundary_no_refinement(self):
        series = TraceSeries(np.linspace(0, 1, 20), np.linspace(0, 1, 20))
        peak = global_max(series)
        assert peak.t_peak == 1.0

    def test_first_peak_equals_global_max_on_prefix(self):
        series = concurrence_trace(GraphSpec("tri", 5, PI / 2), BELL, TimeGrid(0, 2, 0.005))
        fp = first_peak(series)
        upto = series.times <= fp.t_peak + 0.2
        prefix = TraceSeries(series.times[upto], series.values[upto])
        gm = global_max(prefix)
        assert gm.t_peak == pytest.approx(fp.t_peak, abs=1e-9)
        assert gm.value == pytest.approx(fp.value, abs=1e-12)

    def test_top_peaks_sorted(self):
        ts = np.linspace(0, 10, 1001)
        vs = np.sin(ts) ** 2 * np.exp(-0.1 * ts)
        peaks = top_peaks(TraceSeries(ts, vs))
        assert len(peaks) == 3
        assert peaks[0].value >= peaks[1].value >= peaks[2].value

    @given(_peak_series())
    @example(_series([0.0, 1.0, 1.0, 1.0, 0.0]))  # plateau
    @example(_series([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]))  # four exact ties
    @example(_series([0.5, 0.5, 0.5]))  # flat triple, denom = 0
    @example(_series([0.0, 1.0, 0.0]))  # length 3
    @example(_series([0.0, 1.0, 2.0, 3.0]))  # no local maximum
    @example(_series([0.0, 0.3, 0.1, 0.7, 0.2]))  # fewer than three peaks
    @settings(max_examples=200, deadline=None)
    def test_top_peaks_matches_scan(self, series):
        assert top_peaks(series) == oracles.top_peaks_scan(series, 3)

    @given(_peak_series(min_size=1))
    @example(_series([1.0, 0.5, 0.0]))  # maximum at the start
    @example(_series([0.0, 0.5, 1.0]))  # maximum at the end
    @example(_series([0.0, 1.0, 1.0, 1.0, 0.0]))  # plateau
    @example(_series([0.5, 0.5, 0.5]))  # flat triple, denom = 0
    @example(_series([0.0, 1.0, 0.0, 1.0, 0.0]))  # exact tie
    @example(_series([0.7]))  # one sample
    @settings(max_examples=200, deadline=None)
    def test_global_max_matches_scan(self, series):
        assert global_max(series) == oracles.global_max_scan(series)

    @given(_peak_series(min_size=3))
    @example(_series([0.0, 1.0, 1.0, 1.0, 0.0]))
    @example(_series([0.5, 0.5, 0.5]))
    @example(_series([0.0, 1.0, 0.0]))
    @example(_series([0.0, 1.0, 2.0, 3.0]))
    @example(_series([0.0, 0.005, 0.0, 0.5, 0.0]))  # below-floor ripple
    @example(_series([0.0, PEAK_FLOOR, 0.0, 0.5, 0.0]))  # a ripple at the floor is no peak
    @settings(max_examples=200, deadline=None)
    def test_first_peak_matches_scan(self, series):
        fast, ref = first_peak(series), oracles.first_peak_scan(series, PEAK_FLOOR)
        # repr is exact for floats, and also compares the NaNs of a no-peak result.
        assert fast == ref if ref.found else repr(fast) == repr(ref)

    @given(_peak_series(min_size=1))
    @example(_series([0.0, 0.9, 0.0, 0.85, 0.85, 0.0]))  # a lower plateau refines higher
    @example(_series([0.0, 0.96, 1.0, 0.99, 0.0]))  # the parabola peaks above 1
    @settings(max_examples=200, deadline=None)
    def test_no_peak_above_global_max_or_above_one(self, series):
        best = global_max(series)
        assert all(best.value >= p.value for p in top_peaks(series))
        assert best.value <= max(series.values.max(), 1.0)

    def test_grid_refinement_stability_short_peaks(self):
        for theta, state in [(PI / 2, BELL), (0.0, StateSpec("pair", i=1, j=2, phi=3 * PI / 4))]:
            coarse = first_peak(concurrence_trace(GraphSpec("tri", 5, theta), state,
                                                  TimeGrid(0, 2, 0.005)))
            fine = first_peak(concurrence_trace(GraphSpec("tri", 5, theta), state,
                                                TimeGrid(0, 2, 0.0025)))
            assert abs(coarse.t_peak - fine.t_peak) < 0.005
            assert abs(coarse.value - fine.value) < 1e-4


class TestLongTimeSweeps:
    def test_theta_zero_candidates_reduce_to_plain_walk(self):
        a = optimize_theta(5, PI, (0.0,), horizon=50.0)
        b = ctqw_long_time(5, PI, horizon=50.0)
        assert a == b

    def test_record_fields(self):
        horizon = 50.0
        rec = optimize_theta(5, PI, horizon=horizon)
        assert rec.n == 5
        assert global_max(concurrence_trace(GraphSpec("tri", 5, rec.theta), BELL,
                                            TimeGrid(0.0, horizon, 0.02))).t_peak == rec.t
        assert rec.theta in (-PI / 2, PI / 2)
        assert 0.0 <= rec.concurrence <= 1.0
        assert len(rec.top_peaks) == 3

    def test_runner_up_peaks_are_found_for_the_winner_only(self, monkeypatch):
        calls = []
        real = experiments.top_peaks
        monkeypatch.setattr(experiments, "top_peaks",
                            lambda series: calls.append(series.label) or real(series))
        table = sweep_table([5, 6], PI, 10.0, 0.02, tuple(np.linspace(-PI, PI, 16)))
        assert len(calls) == 2
        assert all(len(rec.top_peaks) == 3 for rec in table)

    def test_table_is_one_optimize_theta_per_size(self):
        table = sweep_table([5, 7], PI, 10.0, 0.02, (0.0,))
        assert table == [ctqw_long_time(n, PI, horizon=10.0) for n in (5, 7)]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            optimize_theta(5, PI, ())

    def test_numpy_sizes_are_recorded_as_ints(self):
        (record,) = sweep_table(np.array([5]), PI, 10.0, 0.02, (0.0,))
        assert type(record.n) is int and record == ctqw_long_time(5, PI, horizon=10.0)

    def test_tie_break_prefers_smaller_magnitude(self):
        # 2pi-shifted candidates give bit-identical traces, forcing a tie.
        rec = optimize_theta(5, PI, (PI / 2 - 2 * PI, PI / 2), horizon=10.0)
        assert rec.theta == PI / 2

    def test_tie_break_prefers_positive_sign(self):
        rec = optimize_theta(5, PI, (-2 * PI, 2 * PI), horizon=10.0)
        assert rec.theta == 2 * PI

    @given(st.integers(3, 11), st.sampled_from([0.0, PI]), st.floats(-PI, PI),
           st.booleans())
    @example(9, PI, 0.3, False)  # peaks 3.3e-16 apart, the larger at pi - 0.3
    @settings(max_examples=25, deadline=None)
    def test_time_reversal_twins_pick_the_smaller_magnitude(self, n, phi, theta, swap):
        # For a real pair state, theta and pi - theta trace the same values up
        # to rounding, so their peaks tie within the slack whichever is larger.
        twins = (theta, PI - theta)
        rec = optimize_theta(n, phi, twins[::-1] if swap else twins, 40.0, 0.02)
        assert rec.theta == min(twins, key=lambda t: (abs(t), -t))
        assert rec == optimize_theta(n, phi, (rec.theta,), 40.0, 0.02)

    @pytest.mark.parametrize("candidates", [
        (0.3,), (0.3, PI - 0.3), (PI / 2 - 2 * PI, PI / 2), tuple(np.linspace(-PI, PI, 40)),
    ])
    def test_one_full_trace_per_row(self, monkeypatch, candidates):
        # One screen per stack of CANDIDATE_SLICE at any stride (5 or 6 at
        # dt = 0.02 on tri:7, 1 at dt = 0.25); a lone candidate is traced
        # without a search.
        calls = {name: [] for name in ("concurrence_trace", "_candidate_series",
                                       "_coarse_concurrence")}
        for name, record in calls.items():
            monkeypatch.setattr(experiments, name, lambda *args, real=getattr(experiments, name),
                                record=record: record.append(args[0]) or real(*args))
        stacks = len(candidates) > 1 and math.ceil(len(candidates) / experiments.CANDIDATE_SLICE)
        for dt in (0.02, 0.25):
            for record in calls.values():
                record.clear()
            rec = optimize_theta(7, PI, candidates, 30.0, dt)
            assert [graph.theta for graph in calls["concurrence_trace"]] == [rec.theta]
            assert len(calls["_candidate_series"]) == len(calls["_coarse_concurrence"]) == stacks

    def test_negative_branch_reproduces_reference_row(self):
        # The two chiral branches hold near-tied maxima; the negative branch
        # alone peaks at (55.4, 0.999), auditable through top_peaks when the
        # positive branch wins the near-tie.
        rec = optimize_theta(5, PI, (-PI / 2,))
        assert rec.t == pytest.approx(55.4, abs=0.1)
        assert rec.concurrence == pytest.approx(0.999, abs=0.005)
        both = optimize_theta(5, PI)
        assert both.concurrence >= rec.concurrence
        assert len(both.top_peaks) == 3
        assert all(p.value <= both.concurrence + 1e-12 for p in both.top_peaks)


def _amplitude_samples(monkeypatch) -> list[int]:
    """Patch experiments.site_amplitudes to record the size of each result."""
    sizes = []
    real = experiments.site_amplitudes

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(experiments, "site_amplitudes", counted)
    return sizes


def _pair_state(n, phi=PI):
    return states.spatial_pair(n, 1, 2, phi)


class TestPrunedLongTimeSearch:
    """optimize_theta searches the candidates as one stack, each only where the
    curvature bound lets a peak near the best lie, and must pick and report what a
    full scan picks."""

    @given(st.integers(3, 15), st.lists(st.floats(-PI, PI), min_size=1, max_size=3),
           st.sets(st.sampled_from(["zero", "shift", "supplement"])),
           st.one_of(st.sampled_from([0.0, PI]), st.floats(0.0, 2 * PI)),
           st.floats(1.0, 200.0), st.floats(0.005, 0.1))
    @example(5, [PI / 2], {"shift"}, PI, 10.0, 0.02)  # 2pi-shifted exact tie
    @example(5, [PI / 4], {"supplement"}, PI, 60.0, 0.02)  # a tie up to rounding
    @example(15, [PI / 2, -PI / 2], set(), PI, 1.0, 0.01)  # every interval live
    @example(9, [-0.155, -2.852], set(), 0.0, 5.6, 0.01)  # 48% and 60% of intervals live
    # Stride 1: the curvature bound M is 54 to 59, so no stride of 2 keeps
    # M (2 dt)^2 / 8 within COARSE_SLACK.
    @example(5, [PI / 2, -PI / 2], set(), PI, 60.0, 0.25)
    @example(9, [0.7, -1.1], {"supplement"}, PI, 100.0, 0.2)
    @example(15, [PI / 2, -PI / 2], set(), PI, 40.0, 0.15)
    @settings(max_examples=40, deadline=None)
    def test_picks_what_the_full_scan_picks(self, n, thetas, extras, phi, horizon, dt):
        candidates = list(thetas)
        if "zero" in extras:
            candidates.append(0.0)
        if "shift" in extras:
            # Only a shift that reduces to the same phase builds the same graph.
            shifted = thetas[0] - math.copysign(2 * PI, thetas[0])
            if graphs.reduce_phase(shifted) == graphs.reduce_phase(thetas[0]):
                candidates.append(shifted)
        if "supplement" in extras:
            # theta and pi - theta trace the same values for real states, up to rounding.
            candidates.append(PI - thetas[0])
        rec = optimize_theta(n, phi, candidates, horizon, dt)
        ref = oracles.optimize_theta_scan(n, phi, candidates, horizon, dt)
        assert rec.theta == ref.theta
        assert abs(rec.t - ref.t) <= 1e-12
        assert abs(rec.concurrence - ref.concurrence) <= 1e-12
        assert rec.top_peaks == ref.top_peaks
        grid, state = TimeGrid(0.0, horizon, dt), StateSpec("pair", i=1, j=2, phi=phi)
        peaks, slack = experiments._candidate_series(n, _pair_state(n, phi), candidates, grid)
        fulls = [global_max(concurrence_trace(GraphSpec("tri", n, theta), state, grid)).value
                 for theta in candidates]
        top = max(fulls)
        for peak, full in zip(peaks, fulls, strict=True):
            if peak == -math.inf:  # dropped: its refined peak cannot win
                assert full < top - slack
            else:  # kept: never above its full trace, and equal to it near the top
                assert peak <= full + 1e-12
                if full >= top - 4 * slack:
                    assert abs(peak - full) <= 1e-12

    def test_a_read_edge_is_no_maximum(self, monkeypatch):
        # The first point of a run of read points lies in an interval that is
        # not live, beside the last point read before the gap.  Raised to just
        # below the peak, with that neighbour at 0, it is >= both neighbours of
        # the read, and its parabola would peak at 1.
        theta, grid, psi = PI / 4, TimeGrid(0.0, 60.0, 0.02), _pair_state(5)
        state = StateSpec("pair", i=1, j=2, phi=PI)
        full = global_max(concurrence_trace(GraphSpec("tri", 5, theta), state, grid)).value
        real, inner = experiments.site_amplitudes, []

        def raised(d, psi, times, rows):
            out = real(d, psi, times, rows)
            (g, *_) = np.flatnonzero(np.diff(times) > 1.5 * grid.dt)
            inner.append(experiments._concurrence(*out[:, g + 2]))
            out[:, g], out[:, g + 1] = 0.0, math.sqrt((full - 1e-4) / 2)
            return out

        monkeypatch.setattr(experiments, "site_amplitudes", raised)
        (peak,), _ = experiments._candidate_series(5, psi, [theta], grid)
        assert inner[0] < full - 1e-4  # the raised point is a maximum of the read
        assert abs(peak - full) <= 1e-12

    def test_an_earlier_stack_prunes_a_later_one(self, monkeypatch):
        # 17 candidates make two stacks.  The last one, alone in the second
        # stack, is kept when it is searched on its own, but the best refined
        # peak of the first stack rules it out there.
        grid, psi = TimeGrid(0.0, 60.0, 0.02), _pair_state(5)
        candidates = (PI / 2, *np.linspace(-3.0, 3.0, 15), 0.3)
        (alone,), _ = experiments._candidate_series(5, psi, candidates[16:], grid)
        assert alone > -math.inf
        calls, traced = [], []
        search, trace = experiments._candidate_series, experiments.concurrence_trace

        def recorded(*args):
            peaks, slack = search(*args)
            calls.append((args[4], peaks))
            return peaks, slack

        monkeypatch.setattr(experiments, "_candidate_series", recorded)
        monkeypatch.setattr(experiments, "concurrence_trace",
                            lambda graph, *args: traced.append(graph.theta) or trace(graph, *args))
        rec = optimize_theta(5, PI, candidates, grid.t_end, grid.dt)
        (first_best, first), (second_best, second) = calls
        assert first_best == -math.inf and len(first) == 16
        assert second_best == max(first)
        assert second == [-math.inf]
        assert traced == [PI / 2]
        assert rec == oracles.optimize_theta_scan(5, PI, candidates, grid.t_end, grid.dt)

    @given(st.integers(2, 40), st.integers(1, 4), st.floats(0.1, 8.0), st.floats(0.0, 33.0),
           st.floats(1e-3, 1.0), st.integers(3, 600), st.integers(0, 2**32 - 1))
    @example(33, 4, 4.0, 11.0, 0.02, 5001, 7)  # the table's screen at n = 33
    @example(40, 2, 8.0, 33.0, 0.5, 400, 1)  # angles at the phase-resolution guard
    @settings(max_examples=60, deadline=None)
    def test_screen_is_within_its_rounding_bound(self, n, m, scale, log_angle, dt, size, seed):
        # Random spectra and readouts W = V[rows] diag(V^dag psi), on grids whose
        # largest angle |lam t| reaches 2^log_angle, up to the 2^33 that
        # PHASE_RESOLUTION lets through: every single-precision value of the
        # screen lies within eps of the same factored product in float64.
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(-scale, scale, (m, n)), axis=-1)
        lam[:, -1] = scale
        V = np.linalg.qr(rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)))[0]
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        W = V[:, :2] * (V.conj().swapaxes(-1, -2) @ psi)[:, None, :]
        t_end = 2.0 ** log_angle / scale
        times = t_end - dt * np.arange(size)[::-1]
        screened, _ = experiments._coarse_concurrence(lam, W, times)
        block = math.isqrt(size)
        anchors = dynamics._phases(lam, times[::block])
        fine = dynamics._phases(lam, times[:block] - times[0])
        p, q = np.einsum("mrl,mla,mlb->rmab", W, anchors, fine).reshape(2, m, -1)[..., :size]
        exact = np.clip(2 * np.abs(p * np.conj(q)), 0.0, 1.0)
        eps = experiments._screen_rounding(lam, W, times)
        assert screened.dtype == np.float32
        assert np.all(np.abs(screened - exact) <= eps[:, None])

    def test_every_interval_live_takes_the_full_grid(self, monkeypatch):
        # Early on, the far end of tri:15 holds almost nothing, so the bound
        # M h^2 / 8 dwarfs every sample and no interval can be ruled out.  The
        # candidate is then read on the whole grid by site_amplitudes, and its
        # refined peak has the bits of its full trace's.
        sizes = _amplitude_samples(monkeypatch)
        grid = TimeGrid(0.0, 1.0, 0.01)
        (peak,), _ = experiments._candidate_series(15, _pair_state(15), [PI / 2], grid)
        assert sizes == [2 * len(grid)]
        full = global_max(concurrence_trace(GraphSpec("tri", 15, PI / 2), BELL, grid))
        assert peak.hex() == full.value.hex()

    def test_far_fewer_samples_than_a_full_scan(self, monkeypatch):
        # (candidate, time) values read by the coarse pass, and by site_amplitudes
        # for the live reads and the full trace of the winner; a full scan reads
        # 16 len(grid).
        counts = []
        for name, size in (("_coarse_concurrence", lambda out: out[0].size),
                           ("site_amplitudes", lambda out: out.size // 2)):
            def counted(*args, real=getattr(experiments, name), size=size):
                out = real(*args)
                counts.append(size(out))
                return out
            monkeypatch.setattr(experiments, name, counted)
        candidates = tuple(np.linspace(-PI, PI, 17)[:-1] + 0.1)
        grid = TimeGrid(0.0, 500.0, 0.02)
        optimize_theta(33, PI, candidates, grid.t_end, grid.dt)
        assert sum(counts) < 16 * len(grid) / 3

    def test_refined_peak_beats_a_larger_raw_sample(self, monkeypatch):
        # On this coarse grid theta = 0.54 has the larger grid sample and
        # theta = -0.18 the larger refined peak: candidates are ranked by their
        # refined peaks, so -0.18 wins and is the only one traced.
        grid, state = TimeGrid(0.0, 20.0, 0.1), StateSpec("pair", i=1, j=2, phi=PI)
        a, b = (concurrence_trace(GraphSpec("tri", 3, theta), state, grid) for theta in (0.54, -0.18))
        assert a.values.max() > b.values.max() + 1e-3
        assert global_max(b).value > global_max(a).value + 1e-3
        traced = []
        real = experiments.concurrence_trace
        monkeypatch.setattr(experiments, "concurrence_trace",
                            lambda graph, *args: traced.append(graph.theta) or real(graph, *args))
        rec = optimize_theta(3, PI, (0.54, -0.18), grid.t_end, grid.dt)
        assert traced == [-0.18]
        assert rec == oracles.optimize_theta_scan(3, PI, (0.54, -0.18), grid.t_end, grid.dt)

    @pytest.mark.parametrize("thetas, horizon", [
        ((-1.15, 1.2), 50.0), ((-1.36, -1.17), 20.0), ((0.19, -0.35), 100.0),
        ((1.23, -2.32), 20.0),
    ])
    def test_a_later_stack_wins_by_its_refined_peak(self, monkeypatch, thetas, horizon):
        # In stacks of one, the refined peak of the first candidate is the bar
        # of the second.  The second's grid maximum lies below that bar, its
        # refined peak above it: only the overshoot the bar allows for keeps it.
        monkeypatch.setattr(experiments, "CANDIDATE_SLICE", 1)
        grid, state = TimeGrid(0.0, horizon, 0.05), StateSpec("pair", i=1, j=2, phi=PI)
        first, second = (concurrence_trace(GraphSpec("tri", 3, theta), state, grid)
                         for theta in thetas)
        assert second.values.max() < global_max(first).value < global_max(second).value
        rec = optimize_theta(3, PI, thetas, grid.t_end, grid.dt)
        assert rec.theta == thetas[1]
        assert rec == oracles.optimize_theta_scan(3, PI, thetas, grid.t_end, grid.dt)

    @pytest.mark.parametrize("count, horizon, parent_mib", [(16, 500.0, 2.6), (64, 500.0, 1.6),
                                                            (16, 5000.0, 15.3)])
    def test_peak_memory_bounded(self, count, horizon, parent_mib):
        # Peaks of the per-candidate search this one replaced, plus 8 MiB: the
        # candidates are read CANDIDATE_SLICE at a time, in groups of columns.
        candidates = tuple(np.linspace(-PI, PI, count + 1)[:-1] + 0.1)
        optimize_theta(33, PI, candidates[:2], 1.0, 0.02)
        tracemalloc.start()
        try:
            optimize_theta(33, PI, candidates, horizon, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (parent_mib + 8) * 2**20

    @given(st.sampled_from(["tri", "cycle", "complete"]), st.integers(3, 12),
           st.floats(-PI, PI), st.floats(0.0, 2 * PI),
           st.lists(st.floats(0.0, 500.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_curvature_bound_holds(self, kind, n, theta, phi, times):
        # f = C^2 = 4|p q*|^2 and its second derivative from the derivatives
        # p^(j) = sum_k w_pk (-i lam_k)^j e^{-i lam_k t}, at each time.
        d = GraphSpec(kind, n, theta).decompose()
        psi = states.spatial_pair(n, 1, 2, phi)
        rows = [n - 2, n - 1]
        w = d.eigenvectors[rows] * (d.eigenvectors.conj().T @ psi)
        bound = experiments._curvature_bound(d.eigenvalues, dynamics._readout(d, psi, rows))
        for t in times:
            (a, b), (a1, b1), (a2, b2) = (
                w @ ((-1j * d.eigenvalues) ** j * np.exp(-1j * d.eigenvalues * t))
                for j in range(3))
            z, z1 = a * np.conj(b), a1 * np.conj(b) + a * np.conj(b1)
            z2 = a2 * np.conj(b) + 2 * a1 * np.conj(b1) + a * np.conj(b2)
            f2 = 4 * (2 * (z2 * np.conj(z)).real + 2 * abs(z1) ** 2)
            assert abs(f2) <= bound * (1 + 1e-12)
            # |C'| <= 2 |z'|, the drift bound of the factored coarse times.
            assert 2 * abs(z1) <= math.sqrt(bound / 2) * (1 + 1e-12)

    @given(st.integers(3, 33), st.lists(st.floats(-PI, PI), min_size=1, max_size=16),
           st.floats(0.0, 2 * PI))
    @settings(max_examples=30, deadline=None)
    def test_stacked_curvature_bound_is_each_members(self, n, thetas, phi):
        psi, rows = _pair_state(n, phi), [n - 2, n - 1]
        graphs_ = [GraphSpec("tri", n, theta) for theta in thetas]

        def bound(d):
            return experiments._curvature_bound(d.eigenvalues, dynamics._readout(d, psi, rows))

        stacked = bound(experiments.spectral_decompose(
            np.stack([graphs.hamiltonian(g.build()) for g in graphs_])))
        lone = [bound(g.decompose()) for g in graphs_]
        assert np.allclose(stacked, lone, rtol=1e-12, atol=0)


REFERENCE_CQW = {
    # n: (time, concurrence) for phi = pi, horizon 500, theta in {-pi/2, +pi/2}
    5: (55.4, 0.999), 7: (85.1, 0.992), 9: (2.9, 0.947), 11: (321.3, 0.900),
    13: (397.6, 0.885), 15: (4.5, 0.874), 17: (136.2, 0.700), 19: (68.6, 0.714),
    21: (6.1, 0.814), 23: (416.0, 0.635), 25: (88.5, 0.711), 27: (7.7, 0.764),
    29: (125.8, 0.593), 31: (376.5, 0.736), 33: (9.3, 0.718),
}
REFERENCE_CTQW = {
    5: (193.9, 0.993), 7: (342.8, 0.979), 9: (410.6, 0.900), 11: (482.7, 0.805),
    13: (498.3, 0.749), 15: (288.2, 0.748), 17: (82.5, 0.697), 19: (4.1, 0.661),
    21: (4.5, 0.631), 23: (4.9, 0.608), 25: (5.3, 0.594), 27: (5.7, 0.581),
    29: (6.1, 0.567), 31: (6.4, 0.552), 33: (6.8, 0.540),
}


class TestReferenceTableReproduction:
    """Full long-time tables against the reference rows.

    Values must agree within 0.012 everywhere.  Times must agree within 1.0
    except where near-degenerate maxima make the winner unstable (the chiral
    n = 5 and n = 7 rows); there a branch must still hold a matching value at
    the reference time.
    """

    C_TOL = 0.012
    HORIZON = 500.0

    def _time_or_near_tie(self, n, t_ref, c_ref, rec, candidates):
        if abs(rec.t - t_ref) <= 1.0:
            return True
        grid = TimeGrid(0.0, self.HORIZON, 0.02)
        k = int(round(t_ref / 0.02))
        for theta in candidates:
            series = concurrence_trace(GraphSpec("tri", n, theta),
                                       StateSpec("pair", i=1, j=2, phi=PI), grid)
            if abs(series.values[k] - c_ref) <= self.C_TOL:
                return True
        return False

    @pytest.mark.parametrize("n", sorted(REFERENCE_CQW))
    def test_chiral_rows(self, n):
        t_ref, c_ref = REFERENCE_CQW[n]
        rec = optimize_theta(n, PI, horizon=self.HORIZON)
        assert rec.concurrence == pytest.approx(c_ref, abs=self.C_TOL)
        assert self._time_or_near_tie(n, t_ref, c_ref, rec, (-PI / 2, PI / 2))

    @pytest.mark.parametrize("n", sorted(REFERENCE_CTQW))
    def test_plain_rows(self, n):
        t_ref, c_ref = REFERENCE_CTQW[n]
        rec = ctqw_long_time(n, PI)
        assert rec.concurrence == pytest.approx(c_ref, abs=self.C_TOL)
        assert abs(rec.t - t_ref) <= 1.0


class TestScaling:
    def test_entry_matches_standalone_first_peak(self):
        result = scaling_sweep([5], PI / 2, grid=TimeGrid(0, 5, 0.005))
        series = concurrence_trace(GraphSpec("tri", 5, PI / 2), BELL, TimeGrid(0, 5, 0.005))
        peak = first_peak(series)
        n, t, c = result.entries[0]
        assert n == 5
        assert t == pytest.approx(peak.t_peak, abs=1e-12)
        assert c == pytest.approx(peak.value, abs=1e-12)

    @pytest.mark.parametrize("sizes", [[5], [5, 5]])
    def test_no_fit_through_one_distinct_size(self, sizes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = scaling_sweep(sizes, PI / 2, grid=TimeGrid(0, 10, 0.01))
        assert len(result.entries) == len(sizes)
        assert math.isnan(result.slope) and math.isnan(result.intercept)
        assert math.isnan(result.r_squared)

    def test_linear_fit_small_set(self):
        result = scaling_sweep([5, 7, 9, 11], PI / 2, grid=TimeGrid(0, 6, 0.005))
        assert result.r_squared > 0.98
        assert result.slope > 0


class TestInputsRejectedBeforeCompute:
    """Each library entry point rejects a bad value before any eigendecomposition."""

    @pytest.fixture(autouse=True)
    def no_decompose(self, monkeypatch):
        def refuse(H):
            raise AssertionError("decomposed before the inputs were checked")

        # GraphSpec.decompose calls it through dynamics, the table search through experiments.
        for module in (dynamics, experiments):
            monkeypatch.setattr(module, "spectral_decompose", refuse)

    @pytest.mark.parametrize("horizon,dt", [(0.01, 0.02), (0.02, 0.02), (0.9, 0.5)])
    def test_optimize_theta_needs_3_grid_points(self, horizon, dt):
        with pytest.raises(ValueError, match="at least 3 grid points"):
            optimize_theta(5, PI, horizon=horizon, dt=dt)

    @pytest.mark.parametrize("candidates", [(0.5, math.nan), (0.5, -math.inf)])
    def test_optimize_theta_checks_every_candidate_first(self, candidates):
        with pytest.raises(ValueError):
            optimize_theta(5, PI, candidates, horizon=10.0)

    @pytest.mark.parametrize("n_values", [[], [5, 2], [5, 300000]])
    def test_sweep_table_checks_every_size_first(self, n_values):
        with pytest.raises(ValueError):
            sweep_table(n_values, PI, 10.0, 0.02)

    @pytest.mark.parametrize("n_values,state,error", [
        ([], BELL, ValueError),
        ([7, 2], BELL, ValueError),
        ([7, 5], StateSpec("pair", i=1, j=6), IndexError),
        ([5, 7], StateSpec("werner", b=2.0), ValueError),
    ])
    def test_scaling_sweep_checks_every_size_and_state_first(self, n_values, state, error):
        with pytest.raises(error):
            scaling_sweep(n_values, PI / 2, state, TimeGrid(0, 5, 0.01))

    @pytest.mark.parametrize("n_values", [[5.9], [5, 7.0], [True]])
    def test_sweeps_reject_a_non_integral_size(self, n_values):
        with pytest.raises(ValueError, match="graph size must be an integer"):
            sweep_table(n_values, PI, 20.0)
        with pytest.raises(ValueError, match="graph size must be an integer"):
            scaling_sweep(n_values, PI / 2)

    def test_scaling_sweep_needs_3_grid_points(self):
        with pytest.raises(ValueError, match="at least 3 grid points"):
            scaling_sweep([5], PI / 2, grid=TimeGrid(0, 0.05, 0.05))

    @pytest.mark.parametrize("times", [[], [math.nan], [0.5, math.inf]])
    def test_snapshots_need_finite_times(self, times):
        with pytest.raises(ValueError, match="snapshot time"):
            concurrence_matrix_snapshots(GraphSpec("tri", 5, PI / 2), BELL, times)

    def test_trace_checks_the_state_first(self):
        with pytest.raises(IndexError):
            concurrence_trace(GraphSpec("tri", 5), StateSpec("pair", i=1, j=9),
                              TimeGrid(0, 1, 0.5))


class TestWernerTrace:
    def test_t0_matches_direct_fidelity(self):
        for b in (-0.25, 0.0, 0.5, 1.0):
            series = werner_trace(GraphSpec("tri", 5, PI / 2), StateSpec("werner", b=b),
                                  TimeGrid(0, 1, 0.5))
            direct = measures.fidelity(states.werner(5, b), states.target_werner(5, b))
            assert series.values[0] == pytest.approx(direct, abs=1e-10)

    def test_pure_state_transfers_best(self):
        grid = TimeGrid(0, 2, 0.01)
        peaks = {b: global_max(werner_trace(GraphSpec("tri", 5, PI / 2),
                                            StateSpec("werner", b=b), grid)).value
                 for b in (-0.25, 0.0, 0.5, 1.0)}
        assert peaks[1.0] > peaks[0.5] > peaks[0.0]
        assert peaks[1.0] > peaks[-0.25]
        assert min(peaks, key=peaks.get) == 0.0  # fully mixed transfers worst


class TestBuresTrace:
    def test_flat_walk_phase_ordering(self):
        grid = TimeGrid(0, 10, 0.01)
        maxima = {}
        for phi in (PI / 3, PI / 2, 3 * PI / 4):
            spec = StateSpec("pair", i=1, j=2, phi=phi)
            maxima[phi] = bures_trace(GraphSpec("tri", 5, 0.0), spec, grid).values.max()
        assert max(maxima, key=maxima.get) == PI / 2

    def test_chiral_walk_phase_ordering(self):
        grid = TimeGrid(0, 10, 0.01)
        maxima = {}
        for theta in (PI / 4, PI / 3, PI / 2, -PI / 2):
            maxima[theta] = bures_trace(GraphSpec("tri", 5, theta), BELL, grid).values.max()
        assert maxima[PI / 2] >= maxima[PI / 3] >= maxima[PI / 4]
        assert maxima[PI / 2] == pytest.approx(maxima[-PI / 2], abs=1e-10)

    def test_mixed_state_path(self):
        series = bures_trace(GraphSpec("tri", 5, PI / 2), StateSpec("werner", b=0.5),
                             TimeGrid(0, 1, 0.25))
        assert series.values[0] == pytest.approx(0.0, abs=1e-10)
        assert series.values.max() > 0.01


class TestSnapshots:
    def test_initial_snapshot_isolates_injection_pair(self):
        mats = concurrence_matrix_snapshots(GraphSpec("tri", 5, PI / 2), BELL, [0.0])
        C = mats[0]
        assert C[0, 1] == pytest.approx(1.0, abs=1e-10)
        C = C.copy()
        C[0, 1] = C[1, 0] = 0.0
        assert C.max() < 1e-10

    def test_transfer_snapshot_argmax_rightmost_pair(self):
        mats = concurrence_matrix_snapshots(GraphSpec("tri", 5, PI / 2), BELL, [1.0])
        k = np.unravel_index(np.argmax(mats[0]), (5, 5))
        assert {k[0] + 1, k[1] + 1} == {4, 5}

    def test_all_snapshots_symmetric_zero_diagonal(self):
        times = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        mats = concurrence_matrix_snapshots(GraphSpec("tri", 5, PI / 2), BELL, times)
        assert len(mats) == 6
        for C in mats:
            assert np.array_equal(C, C.T)
            assert np.abs(np.diag(C)).max() == 0.0

    @given(st.sampled_from(["tri", "cycle", "complete"]), st.integers(3, 7),
           st.floats(-PI, PI), st.sampled_from(["pair", "localized", "werner"]),
           st.floats(-1.0, 1.0), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4))
    @example("tri", 5, PI / 2, "werner", 0.5, [0.0, 1.0])
    @example("cycle", 3, 0.3, "pair", -1.0, [2.5])
    @example("complete", 4, -PI / 2, "localized", 0.0, [-3.0, 7.0])
    @settings(max_examples=40, deadline=None)
    def test_matches_density_matrix_path(self, kind, n, theta, state_kind, b, times):
        gspec = GraphSpec(kind, n, theta)
        sspec = {"pair": StateSpec("pair", i=1, j=n, phi=PI * b),
                 "localized": StateSpec("localized", site=n // 2 + 1),
                 "werner": StateSpec("werner", b=b)}[state_kind]
        d, rho0 = gspec.decompose(), _density(sspec, n)
        mats = concurrence_matrix_snapshots(gspec, sspec, times)
        assert len(mats) == len(times)
        for t, C in zip(times, mats):
            expected = measures.concurrence_matrix(evolve_density(d, rho0, t))
            assert np.abs(C - expected).max() < 1e-12


# Real initial states, for which U_{pi - theta}(t) = conj(U_theta(t)) = U_{-theta}(-t)
# leaves every measure unchanged.
REAL_STATES = {
    "pair-pi": StateSpec("pair", i=1, j=2, phi=PI),
    "pair-0": StateSpec("pair", i=1, j=2, phi=0.0),
    "localized": StateSpec("localized", site=2),
    "werner": StateSpec("werner", b=0.4),
}


def _every_measure(graph, state, grid):
    """Each trace that applies to ``state``, by name."""
    n = graph.n
    traces = {
        "concurrence": concurrence_trace(graph, state, grid),
        "concurrence-1-n": concurrence_trace(graph, state, grid, (1, n)),
        "occupation": occupation_trace(graph, state, grid, n),
        "transfer-fidelity": transfer_fidelity_trace(graph, state, grid),
        "pts-bures": bures_trace(graph, state, grid),
    }
    if state.kind == "werner":
        traces["werner-fidelity"] = werner_trace(graph, state, grid)
    return traces


class TestSupplementSymmetry:
    """theta and pi - theta generate conjugate propagators, as do theta at t
    and -theta at -t, so every amplitude-magnitude observable coincides for
    real initial states."""

    @given(st.floats(-math.pi, math.pi, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_concurrence_traces_coincide(self, theta):
        grid = TimeGrid(0.0, 3.0, 0.05)
        a = concurrence_trace(GraphSpec("tri", 5, theta), BELL, grid)
        b = concurrence_trace(GraphSpec("tri", 5, math.pi - theta), BELL, grid)
        assert np.abs(a.values - b.values).max() < 1e-12

    @given(st.floats(-math.pi, math.pi, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_bures_traces_coincide(self, theta):
        grid = TimeGrid(0.0, 3.0, 0.05)
        a = bures_trace(GraphSpec("tri", 5, theta), BELL, grid)
        b = bures_trace(GraphSpec("tri", 5, math.pi - theta), BELL, grid)
        assert np.abs(a.values - b.values).max() < 1e-12

    def test_breaks_for_complex_initial_state(self):
        # A complex relative phase in the state spoils the pairing.
        grid = TimeGrid(0.0, 3.0, 0.05)
        spec = StateSpec("pair", i=1, j=2, phi=PI / 3)
        a = concurrence_trace(GraphSpec("tri", 5, PI / 4), spec, grid)
        b = concurrence_trace(GraphSpec("tri", 5, 3 * PI / 4), spec, grid)
        assert np.abs(a.values - b.values).max() > 0.01

    @given(st.sampled_from(["tri", "cycle", "complete"]), st.integers(4, 9),
           st.floats(-PI, PI), st.sampled_from(sorted(REAL_STATES)))
    @settings(max_examples=25, deadline=None)
    def test_supplementary_phase_gives_equal_values(self, kind, n, theta, state):
        grid = TimeGrid(0.0, 6.0, 0.05)
        state = REAL_STATES[state]
        a = _every_measure(GraphSpec(kind, n, theta), state, grid)
        b = _every_measure(GraphSpec(kind, n, PI - theta), state, grid)
        for name in a:
            assert np.abs(a[name].values - b[name].values).max() <= 1e-12, name

    @given(st.integers(4, 9), st.floats(-PI, PI), st.sampled_from(sorted(REAL_STATES)))
    @settings(max_examples=25, deadline=None)
    def test_negated_phase_runs_time_backward_on_tri(self, n, theta, state):
        state = REAL_STATES[state]
        forward = _every_measure(GraphSpec("tri", n, theta), state, TimeGrid(0.0, 6.0, 0.05))
        backward = _every_measure(GraphSpec("tri", n, -theta), state, TimeGrid(-6.0, 0.0, 0.05))
        for name in forward:
            assert np.abs(forward[name].values - backward[name].values[::-1]).max() <= 1e-12, name


class TestGraphSpec:
    def test_unknown_kind(self):
        for kind in ["star", "", "Tri", 5, None, ["tri"]]:
            with pytest.raises(ValueError, match="unknown graph kind"):
                GraphSpec(kind, 5)

    def test_complete_alias(self):
        a = GraphSpec("complete", 4, 0.3)
        assert a == GraphSpec("pentagram", 4, 0.3)
        assert a.kind == "pentagram"
        assert a.build() == GraphSpec("pentagram", 4, 0.3).build()
        assert GraphSpec.from_dict({"kind": "complete", "n": 4, "theta": 0.3}) == a

    @pytest.mark.parametrize("n", [5.5, 5.0, np.float64(5), True, "5", None])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="graph size must be an integer"):
            GraphSpec("tri", n)

    @pytest.mark.parametrize("n", [np.int64(5), np.uint8(5)])
    def test_numpy_integer_size_is_read_as_int(self, n):
        spec = GraphSpec("tri", n, 0.3)
        assert type(spec.n) is int and spec == GraphSpec("tri", 5, 0.3)
        assert spec.build() == GraphSpec("tri", 5, 0.3).build()


class TestStateSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StateSpec("squeezed").ensemble(5)

    def test_werner_has_no_pure_form(self):
        assert len(StateSpec("werner", b=0.3).ensemble(5)) == 2


class TestEnsembleOracle:
    """Mixed traces from the ensemble's amplitude rows against the per-time
    evolve_density + measures definitions, sample by sample."""

    GRID = TimeGrid(0.0, 2.0, 0.25)

    @staticmethod
    def _graph(n, theta):
        # The triangular chain needs 3 sites; n = 2 runs on the complete graph.
        return GraphSpec("tri" if n >= 3 else "pentagram", n, theta)

    @given(st.floats(-1.0, 1.0), st.floats(-PI, PI), st.integers(3, 9))
    @example(-1.0, PI / 2, 5)
    @example(0.0, 0.3, 3)
    @example(1.0, -PI / 2, 9)
    @settings(max_examples=25, deadline=None)
    def test_werner_fidelity(self, b, theta, n):
        series = werner_trace(GraphSpec("tri", n, theta), StateSpec("werner", b=b), self.GRID)
        d = GraphSpec("tri", n, theta).decompose()
        rho0, target = states.werner(n, b), states.target_werner(n, b)
        for t, value in zip(series.times, series.values):
            expected = measures.fidelity(evolve_density(d, rho0, t), target)
            assert abs(value - expected) < 1e-10

    @given(st.floats(-1.0, 1.0), st.floats(-PI, PI), st.integers(2, 9))
    @example(-1.0, PI / 2, 2)
    @example(0.0, 0.3, 5)
    @example(1.0, -PI / 2, 9)
    @settings(max_examples=25, deadline=None)
    def test_mixed_bures_concurrence_occupation(self, b, theta, n):
        gspec, sspec = self._graph(n, theta), StateSpec("werner", b=b)
        d = gspec.decompose()
        rho0 = states.werner(n, b)
        bures = bures_trace(gspec, sspec, self.GRID)
        conc = concurrence_trace(gspec, sspec, self.GRID)
        occ = occupation_trace(gspec, sspec, self.GRID, site=n)
        for k, t in enumerate(self.GRID.times()):
            rho_t = evolve_density(d, rho0, t)
            assert abs(bures.values[k] - measures.pts_bures(d, rho0, t)) < 1e-10
            assert abs(conc.values[k] - measures.concurrence_pair_fast(rho_t, n - 1, n)) < 1e-10
            assert abs(occ.values[k] - rho_t[n - 1, n - 1].real) < 1e-10

    @given(st.sampled_from(["werner", "pair", "localized"]), st.floats(-1.0, 1.0),
           st.floats(-PI, PI), st.integers(3, 9), st.one_of(st.none(), st.floats(-PI, PI)))
    @example("werner", 0.5, PI / 2, 5, None)
    @example("werner", -1.0, 0.3, 3, 0.0)
    @example("pair", 1.0, -PI / 2, 9, PI)
    @settings(max_examples=25, deadline=None)
    def test_transfer_fidelity(self, state_kind, b, theta, n, target_phi):
        gspec = GraphSpec("tri", n, theta)
        sspec = {"werner": StateSpec("werner", b=b),
                 "pair": StateSpec("pair", i=1, j=2, phi=PI * b),
                 "localized": StateSpec("localized", site=2)}[state_kind]
        series = transfer_fidelity_trace(gspec, sspec, self.GRID, target_phi)
        d, rho0 = gspec.decompose(), _density(sspec, n)
        target = states.target_pure(n, sspec.phi if target_phi is None else target_phi)
        for t, value in zip(series.times, series.values):
            expected = np.vdot(target, evolve_density(d, rho0, t) @ target).real
            assert abs(value - expected) < 1e-12

    @pytest.mark.parametrize("trace", [
        werner_trace,
        transfer_fidelity_trace,
        bures_trace,
        concurrence_trace,
        lambda g, s, grid: occupation_trace(g, s, grid, site=4),
        lambda g, s, grid: concurrence_matrix_snapshots(g, s, grid.times()),
    ], ids=["werner", "transfer-fidelity", "bures", "concurrence", "occupation", "snapshots"])
    def test_cross_check_catches_corrupted_values(self, trace, monkeypatch):
        real = experiments.site_amplitudes
        monkeypatch.setattr(experiments, "site_amplitudes",
                            lambda d, psi, times, rows=None: real(d, psi, times, rows) * (1 + 1e-6))
        with pytest.raises(ArithmeticError, match="density-matrix value"):
            trace(GraphSpec("tri", 5, PI / 2), StateSpec("werner", b=0.5), TimeGrid(0, 1, 0.5))


class TestOneEvaluationPerOutput:
    """Every output reads its amplitudes, for all ensemble members, from one
    site_amplitudes call (the Bures trace from one per sign of t)."""

    @pytest.mark.parametrize("state", [BELL, StateSpec("werner", b=0.4)], ids=["pure", "werner"])
    def test_one_call_per_output(self, state, monkeypatch):
        sizes = _amplitude_samples(monkeypatch)
        graph, grid = GraphSpec("tri", 5, PI / 2), TimeGrid(0.0, 2.0, 0.1)
        m, size = (2 if state.kind == "werner" else 1), len(grid)
        outputs = {
            "concurrence": (lambda: concurrence_trace(graph, state, grid), [m * 2 * size]),
            "occupation": (lambda: occupation_trace(graph, state, grid, 5), [m * size]),
            "transfer-fidelity": (lambda: transfer_fidelity_trace(graph, state, grid),
                                  [m * 2 * size]),
            "pts-bures": (lambda: bures_trace(graph, state, grid), [m * 5 * size] * 2),
            "snapshots": (lambda: concurrence_matrix_snapshots(graph, state, [0.5, 1.0, 2.0]),
                          [m * 5 * 3]),
        }
        if state.kind == "werner":
            outputs["werner-fidelity"] = (lambda: werner_trace(graph, state, grid), [m * 2 * size])
        for name, (output, expected) in outputs.items():
            sizes.clear()
            output()
            assert sizes == expected, name

    @pytest.mark.parametrize("trace, rows", [(bures_trace, 33), (werner_trace, 2)],
                             ids=["bures", "werner"])
    def test_peak_memory_no_higher_than_member_calls(self, trace, rows, monkeypatch):
        # The ensemble's stacked call against one site_amplitudes call per
        # member.  Only the readouts W and their derivative rows, 3 m r n
        # complex values, are held for all m members at once.
        graph, state = GraphSpec("tri", 33, 0.45 * PI), StateSpec("werner", b=0.4)
        grid = TimeGrid(0.0, 200.0, 0.01)

        def traced():
            trace(graph, state, TimeGrid(0.0, 1.0, 0.1))
            tracemalloc.start()
            try:
                return trace(graph, state, grid), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stacked, stacked_peak = traced()
        real = experiments.site_amplitudes
        monkeypatch.setattr(experiments, "site_amplitudes", lambda d, stack, times, rows=None:
                            [real(d, psi, times, rows) for psi in stack])
        members, members_peak = traced()
        assert np.array_equal(stacked.values, members.values)
        assert stacked_peak <= members_peak + 3 * 2 * rows * 33 * 16
