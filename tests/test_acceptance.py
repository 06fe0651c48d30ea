"""End-to-end acceptance checks with pinned reference values and tolerances.

Each check prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
all).  Two checks are expected to fail: the c02 weak-transfer bound and the
c10 n=5 peak value pin reference numbers that the converged dynamics
contradicts by a small margin; the printed details show the measured values.
"""

import math

import numpy as np
import pytest

import oracles
from chiralwalk import dynamics, graphs, measures, states
from chiralwalk.experiments import (
    bures_trace,
    concurrence_trace,
    first_peak,
    global_max,
    scaling_sweep,
    werner_trace,
)
from chiralwalk.specs import GraphSpec, StateSpec, TimeGrid

PI = math.pi
BELL = StateSpec("pair", i=1, j=2, phi=PI)
LONG_GRID = TimeGrid(0.0, 500.0, 0.02)


def report(ok: bool, code: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {code}: {detail}")
    assert ok, f"{code}: {detail}"


def tri_series(n: int, theta: float, state: StateSpec, grid: TimeGrid):
    return concurrence_trace(GraphSpec("tri", n, theta), state, grid)


# ---------------------------------------------------------------------------


def test_c01_chiral_spectrum_closed_form():
    import time

    start = time.perf_counter()
    H = graphs.hamiltonian(graphs.triangular_chain(5, PI / 2, 1.0))
    lam = dynamics.spectral_decompose(H).eigenvalues
    elapsed = time.perf_counter() - start
    s37 = math.sqrt(37.0)
    expected = np.array(
        [
            -math.sqrt((7 + s37) / 2),
            -math.sqrt((7 - s37) / 2),
            0.0,
            math.sqrt((7 - s37) / 2),
            math.sqrt((7 + s37) / 2),
        ]
    )
    dev = float(np.abs(lam - expected).max())
    report(
        dev <= 1e-10 and elapsed < 1.0,
        "c01 spectrum",
        f"max |eig - closed form| = {dev:.3e} (<= 1e-10) in {elapsed * 1e3:.1f} ms (< 1 s)",
    )


def test_c02_flat_walk_weak_transfer_bound():
    d = GraphSpec("tri", 5, 0.0).decompose()
    times = TimeGrid(0.0, 10.0, 0.005).times()
    p5 = np.abs(dynamics.site_amplitudes(d, states.localized(5, 1), times)[4]) ** 2
    peak = float(p5.max())
    ok = peak <= 0.45 - 0.005
    report(
        ok,
        "c02 weak transfer",
        f"max P5 over [0,10] = {peak:.6f} at t = {times[int(np.argmax(p5))]:.3f} "
        f"(bound 0.445; the bound holds only through t ~ 7.4, where the running "
        f"max is {float(p5[times <= 7.0].max()):.6f})",
    )


def test_c03_flat_walk_optimal_phase():
    grid = TimeGrid(0.0, 2.0, 0.005)
    anchor = first_peak(tri_series(5, 0.0, StateSpec("pair", i=1, j=2, phi=3 * PI / 4), grid))
    ok_val = abs(anchor.value - 0.80) <= 0.05
    ok_t = abs(anchor.t_peak - 1.12) <= 0.1
    rivals = {}
    for phi in (PI / 4, PI / 3, -PI / 3, PI / 2, -PI / 2):
        rivals[phi] = first_peak(tri_series(5, 0.0, StateSpec("pair", i=1, j=2, phi=phi), grid))
    beats = all(
        first_peak(tri_series(5, 0.0, StateSpec("pair", i=1, j=2, phi=s * 3 * PI / 4), grid)).value
        > r.value
        for r in rivals.values()
        for s in (1, -1)
    )
    report(
        ok_val and ok_t and beats,
        "c03 flat-walk phase optimum",
        f"first peak C = {anchor.value:.4f} at t = {anchor.t_peak:.3f} "
        f"(0.80 +- 0.05 at 1.12 +- 0.1); beats other phases: {beats}",
    )


@pytest.fixture(scope="module")
def short_peaks():
    grid = TimeGrid(0.0, 2.0, 0.005)
    return {
        "cqw": first_peak(tri_series(5, PI / 2, BELL, grid)),
        "ctqw": first_peak(tri_series(5, 0.0, BELL, grid)),
    }


def test_c04_chiral_short_time_transfer(short_peaks):
    cqw, ctqw = short_peaks["cqw"], short_peaks["ctqw"]
    ok_val = abs(cqw.value - 0.90) <= 0.05
    ok_t = abs(cqw.t_peak - 1.02) <= 0.1
    ok_beats = cqw.value > ctqw.value
    dt = ctqw.t_peak - cqw.t_peak
    ok_dt = abs(dt - 0.4) <= 0.15
    report(
        ok_val and ok_t and ok_beats and ok_dt,
        "c04 chiral short-time transfer",
        f"C = {cqw.value:.4f} at t = {cqw.t_peak:.3f} (0.90 +- 0.05 at 1.02 +- 0.1); "
        f"beats flat walk ({ctqw.value:.4f}); earlier by {dt:.3f} (0.4 +- 0.15)",
    )


def test_c05_near_perfect_population_transfer():
    d = GraphSpec("tri", 5, PI / 2).decompose()
    psi = oracles.evolve_pure(d, states.localized(5, 1), 1.64)
    p5 = abs(psi[4]) ** 2
    report(
        abs(p5 - 0.95) <= 0.03,
        "c05 population transfer",
        f"P5(1.64) = {p5:.4f} (0.95 +- 0.03)",
    )


def test_c06_pts_nulls_and_phase_pairing():
    grid = TimeGrid(0.0, 10.0, 0.005)
    worst_null = 0.0
    for phi in (0.0, PI, -PI):
        spec = StateSpec("pair", i=1, j=2, phi=phi)
        worst_null = max(worst_null, float(bures_trace(GraphSpec("tri", 5, 0.0), spec, grid).values.max()))
    for theta in (0.0, PI, -PI):
        worst_null = max(worst_null, float(bures_trace(GraphSpec("tri", 5, theta), BELL, grid).values.max()))
    quarter = bures_trace(GraphSpec("tri", 5, PI / 4), BELL, grid).values
    three_quarter = bures_trace(GraphSpec("tri", 5, 3 * PI / 4), BELL, grid).values
    pair_dev = float(np.abs(quarter - three_quarter).max())
    report(
        worst_null <= 1e-10 and pair_dev <= 1e-10,
        "c06 pts nulls",
        f"max null trace = {worst_null:.3e} (<= 1e-10); "
        f"pi/4 vs 3pi/4 deviation = {pair_dev:.3e} (<= 1e-10)",
    )


def test_c07_pts_maxima():
    grid = TimeGrid(0.0, 10.0, 0.005)
    flat = {
        phi: float(bures_trace(GraphSpec("tri", 5, 0.0),
                               StateSpec("pair", i=1, j=2, phi=phi), grid).values.max())
        for phi in (PI / 3, PI / 2, 3 * PI / 4)
    }
    chiral = {
        theta: float(bures_trace(GraphSpec("tri", 5, theta), BELL, grid).values.max())
        for theta in (PI / 4, PI / 3, PI / 2, -PI / 2)
    }
    ok_flat = max(flat, key=flat.get) == PI / 2
    best_chiral = max(chiral, key=chiral.get)
    ok_chiral = abs(best_chiral) == PI / 2 and abs(chiral[PI / 2] - chiral[-PI / 2]) <= 1e-10
    ok_compare = chiral[PI / 2] > flat[PI / 2]
    report(
        ok_flat and ok_chiral and ok_compare,
        "c07 pts maxima",
        f"flat max at phi = pi/2 ({flat[PI / 2]:.4f}); chiral max at theta = +-pi/2 "
        f"({chiral[PI / 2]:.4f}); chiral > flat: {ok_compare}",
    )


def test_c08_long_time_pretty_good_transfer():
    grid = TimeGrid(0.0, 100.0, 0.02)
    cqw = global_max(tri_series(5, PI / 2, BELL, grid))
    ctqw = global_max(tri_series(5, 0.0, BELL, grid))
    ok = (
        abs(cqw.value - 0.999) <= 0.005
        and abs(cqw.t_peak - 28.1) <= 0.5
        and abs(ctqw.value - 0.971) <= 0.01
        and abs(ctqw.t_peak - 25.7) <= 0.5
    )
    report(
        ok,
        "c08 long-time transfer",
        f"chiral C = {cqw.value:.4f} at t = {cqw.t_peak:.2f} (0.999 +- 0.005 at 28.1 +- 0.5); "
        f"flat C = {ctqw.value:.4f} at t = {ctqw.t_peak:.2f} (0.971 +- 0.01 at 25.7 +- 0.5)",
    )


TABLE1_ROWS = {
    5: (55.4, 0.999, 0.005),
    7: (85.1, 0.992, 0.01),
    9: (2.9, 0.947, 0.01),
    33: (9.3, 0.718, 0.03),
}


@pytest.mark.parametrize("n", sorted(TABLE1_ROWS))
def test_c09_chiral_long_time_table_rows(n):
    t_ref, c_ref, c_tol = TABLE1_ROWS[n]
    best = None
    at_ref_time = []
    for theta in (-PI / 2, PI / 2):
        series = tri_series(n, theta, BELL, LONG_GRID)
        peak = global_max(series)
        if best is None or peak.value > best.value:
            best = peak
        at_ref_time.append(float(series.values[int(round(t_ref / LONG_GRID.dt))]))
    ok_value = abs(best.value - c_ref) <= c_tol
    time_ok = abs(best.t_peak - t_ref) <= 1.0
    guard_ok = any(abs(v - c_ref) <= c_tol for v in at_ref_time)
    report(
        ok_value and (time_ok or guard_ok),
        f"c09 chiral table n={n}",
        f"C = {best.value:.4f} at t = {best.t_peak:.2f} (ref {c_ref} +- {c_tol} at {t_ref}); "
        f"time match: {time_ok}, value at ref time: "
        + ", ".join(f"{v:.4f}" for v in at_ref_time),
    )


TABLE2_ROWS = {
    5: (193.9, 1.0, 0.993, 0.005),
    19: (None, None, 0.661, 0.02),
    33: (None, None, 0.540, 0.02),
}


@pytest.mark.parametrize("n", sorted(TABLE2_ROWS))
def test_c10_flat_long_time_table_rows(n):
    t_ref, t_tol, c_ref, c_tol = TABLE2_ROWS[n]
    peak = global_max(tri_series(n, 0.0, BELL, LONG_GRID))
    ok = abs(peak.value - c_ref) <= c_tol
    detail = f"C = {peak.value:.4f} at t = {peak.t_peak:.2f} (ref {c_ref} +- {c_tol}"
    if t_ref is not None:
        ok = ok and abs(peak.t_peak - t_ref) <= t_tol
        detail += f" at {t_ref} +- {t_tol}"
    report(ok, f"c10 flat table n={n}", detail + ")")


@pytest.fixture(scope="module")
def scaling_results():
    sizes = list(range(5, 72, 2))
    grid = TimeGrid(0.0, 40.0, 0.005)
    return {
        theta: scaling_sweep(sizes, theta, BELL, grid)
        for theta in (PI / 2, 0.0)
    }


def test_c11_first_peak_scaling(scaling_results):
    details = []
    ok = True
    for theta, result in scaling_results.items():
        late = [c for (n, _, c) in result.entries if n > 9]
        ok = ok and result.r_squared >= 0.98 and max(late) < 0.9
        details.append(
            f"theta={theta / PI:.1f}pi: R^2 = {result.r_squared:.5f}, "
            f"max C(n>9) = {max(late):.3f}"
        )
    report(ok, "c11 scaling", "; ".join(details) + " (R^2 >= 0.98, C < 0.9 beyond n = 9)")


def test_c12_werner_mixing_ordering():
    grid = TimeGrid(0.0, 5.0, 0.01)
    traces = {b: werner_trace(GraphSpec("tri", 5, PI / 2), StateSpec("werner", b=b), grid)
              for b in (1.0, 0.5, 0.0, -0.25)}
    k = int(np.argmax(traces[1.0].values))
    at_peak = {b: float(tr.values[k]) for b, tr in traces.items()}
    ok = at_peak[1.0] > at_peak[0.5] > at_peak[0.0] >= at_peak[-0.25]
    report(
        ok,
        "c12 werner ordering",
        f"at t = {traces[1.0].times[k]:.2f}: "
        + " > ".join(f"F(b={b}) = {at_peak[b]:.4f}" for b in (1.0, 0.5, 0.0, -0.25)),
    )


def test_c13_ring_and_pentagram_transfer():
    grid = TimeGrid(0.0, 10.0, 0.005)
    ring = global_max(concurrence_trace(GraphSpec("cycle", 5, PI / 2), BELL, grid))
    star = global_max(concurrence_trace(GraphSpec("pentagram", 5, PI / 2), BELL, grid))
    ok_ring = abs(ring.value - 0.93) <= 0.03 and abs(ring.t_peak - 4.5) <= 0.3
    ok_star = star.value >= 0.97 and abs(star.t_peak - 3.7) <= 0.3
    report(
        ok_ring and ok_star,
        "c13 ring and pentagram",
        f"ring C = {ring.value:.4f} at t = {ring.t_peak:.3f} (0.93 +- 0.03 at 4.5 +- 0.3); "
        f"pentagram C = {star.value:.4f} at t = {star.t_peak:.3f} (>= 0.97 at 3.7 +- 0.3)",
    )


# ---------------------------------------------------------------------------
# c14: property suites


def test_c14a_unitary_trace_purity_preservation():
    d = GraphSpec("tri", 5, PI / 2).decompose()
    worst = 0.0
    for t in np.linspace(-10, 10, 41):
        U = dynamics.propagator(d, t)
        worst = max(worst, float(np.abs(U.conj().T @ U - np.eye(5)).max()))
    rho0 = states.werner(5, 0.5)
    purity0 = float(np.real(np.trace(rho0 @ rho0)))
    for t in (0.7, 9.0, 77.0):
        rho = dynamics.evolve_density(d, rho0, t)
        worst = max(worst, abs(float(np.real(np.trace(rho))) - 1.0))
        worst = max(worst, abs(float(np.real(np.trace(rho @ rho))) - purity0))
    report(worst <= 1e-9, "c14a unitarity/trace/purity", f"worst deviation = {worst:.3e} (<= 1e-9)")


def test_c14b_time_reversal_symmetry_real_hamiltonian():
    d = GraphSpec("tri", 5, 0.0).decompose()
    psi0 = states.localized(5, 1)
    worst = 0.0
    for t in np.linspace(0.25, 10.0, 40):
        fwd = np.abs(oracles.evolve_pure(d, psi0, t)) ** 2
        bwd = np.abs(oracles.evolve_pure(d, psi0, -t)) ** 2
        worst = max(worst, float(np.abs(fwd - bwd).max()))
    report(worst <= 1e-9, "c14b time-reversal symmetry", f"worst |P(t) - P(-t)| = {worst:.3e}")


def test_c14c_wootters_fast_path_equivalence():
    rng = np.random.default_rng(20240601)
    decs = {
        theta: GraphSpec("tri", 5, theta).decompose()
        for theta in (0.0, PI / 4, PI / 2, -PI / 2, 3 * PI / 4)
    }
    thetas = list(decs)
    worst = 0.0
    for _ in range(1000):
        d = decs[thetas[rng.integers(len(thetas))]]
        phi = rng.uniform(-PI, PI)
        t = rng.uniform(0.0, 25.0)
        psi = oracles.evolve_pure(d, states.spatial_pair(5, 1, 2, phi), t)
        rho = np.outer(psi, psi.conj())
        i, j = (int(x) + 1 for x in rng.choice(5, size=2, replace=False))
        fast = measures.concurrence_pair_fast(rho, i, j)
        full = oracles.concurrence_wootters(oracles.reduced_pair(rho, i, j))
        worst = max(worst, abs(fast - full))
    report(worst <= 1e-9, "c14c concurrence oracle equivalence",
           f"worst |fast - wootters| over 1000 cases = {worst:.3e} (<= 1e-9)")


def test_c14d_full_space_partial_trace_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for _ in range(3):
            for rho in (
                np.outer(*(lambda p: (p, p.conj()))(oracles.random_single_excitation_state(rng, n))),
                oracles.random_density_matrix(rng, n, rank=2),
            ):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i == j:
                            continue
                        ours = oracles.reduced_pair(rho, i, j)
                        ref = oracles.full_space_reduced_pair(rho, i, j)
                        worst = max(worst, float(np.abs(ours - ref).max()))
    report(worst <= 1e-10, "c14d partial-trace oracle",
           f"worst deviation over n <= 6 = {worst:.3e} (<= 1e-10)")


def test_c14e_grid_refinement_stability(short_peaks):
    checks = []

    def stable(make_series, dt, use_first_peak=False):
        coarse = make_series(dt)
        fine = make_series(dt / 2)
        pick = first_peak if use_first_peak else global_max
        a, b = pick(coarse), pick(fine)
        checks.append((abs(a.t_peak - b.t_peak), dt, abs(a.value - b.value)))

    for theta in (PI / 2, 0.0):
        stable(lambda dt, th=theta: tri_series(5, th, BELL, TimeGrid(0, 2, dt)), 0.005, True)
        stable(lambda dt, th=theta: tri_series(5, th, BELL, TimeGrid(0, 100, dt)), 0.02)
    for n in (5, 9, 33):
        stable(lambda dt, nn=n: tri_series(nn, -PI / 2, BELL, TimeGrid(0, 500, dt)), 0.02)
    for n in (5, 19, 33):
        stable(lambda dt, nn=n: tri_series(nn, 0.0, BELL, TimeGrid(0, 500, dt)), 0.02)
    for kind in ("cycle", "pentagram"):
        stable(lambda dt, k=kind: concurrence_trace(GraphSpec(k, 5, PI / 2), BELL,
                                                    TimeGrid(0, 10, dt)), 0.005)
    worst_t = max(c[0] / c[1] for c in checks)
    worst_v = max(c[2] for c in checks)
    report(
        worst_t < 1.0 and worst_v < 1e-4,
        "c14e grid stability",
        f"worst time shift = {worst_t:.3f} dt (< 1 dt); worst value shift = {worst_v:.2e} (< 1e-4)",
    )
