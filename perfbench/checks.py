"""Output checks: each returns quietly or raises CheckFailed with the reason.

Values are compared with ``reference`` (scipy's expm, no chiralwalk code).
Sampled trace values must agree within the CSV's 12-digit rounding plus
1e-12.  Table peaks are parabolic refinements of grid samples, so they agree
with the exact curve at the reported time only to PEAK_TOL (see README.md).
"""

from __future__ import annotations

import math
from pathlib import Path

import reference

PEAK_TOL = 1e-5
TABLE_HEADER = ["n", "t", "concurrence", "theta", "t2", "c2", "t3", "c3", "note"]


class CheckFailed(Exception):
    pass


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a chiralwalk CSV ('#' comments, LF endings)."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None
    if not text.endswith("\n") or "\r" in text:
        raise CheckFailed(f"{path.name}: not LF-terminated")
    body = [line for line in text[:-1].split("\n") if not line.startswith("#")]
    if not body:
        raise CheckFailed(f"{path.name}: no header")
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise CheckFailed(f"{path.name} row {k}: {len(row)} fields, expected {len(header)}")
    return header, rows


def number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: {text!r} is not finite")
    return value


def agree(value: float, expected: float, where: str) -> None:
    if abs(value - expected) > reference.csv_tolerance(value):
        raise CheckFailed(f"{where}: CSV {value!r}, reference {expected!r}")


def _series(pass_dir: Path, name: str, grid, rows) -> list[tuple[float, float]]:
    # Parse every row, check the time column against the grid, return spot rows.
    path = pass_dir / "out" / f"{name}.csv"
    header, table = read_csv(path)
    if header != ["t", "value"]:
        raise CheckFailed(f"{path.name}: header {header}")
    start, end, dt = grid
    count = int(math.floor((end - start) / dt + 1e-9)) + 1
    if len(table) != count:
        raise CheckFailed(f"{path.name}: {len(table)} rows, expected {count}")
    spots = []
    spot_rows = set(rows)
    for k, (t_text, v_text) in enumerate(table):
        t = number(t_text, f"{path.name} row {k}")
        v = number(v_text, f"{path.name} row {k}")
        exact_t = start + dt * k
        agree(t, exact_t, f"{path.name} row {k} time")
        if k in spot_rows:
            spots.append((exact_t, v))
    return spots


def pure_trace(pass_dir: Path, name, n, theta, phi, grid, rows) -> None:
    H = reference.triangular_chain_hamiltonian(n, theta)
    psi0 = reference.pair_state(n, 1, 2, phi)
    for t, value in _series(pass_dir, name, grid, rows):
        agree(value, reference.end_concurrence(H, psi0, t), f"{name} at t={t!r}")


def werner_trace(pass_dir: Path, name, measure, n, theta, b, grid, rows) -> None:
    H = reference.triangular_chain_hamiltonian(n, theta)
    exact = reference.werner_fidelity if measure == "werner-fidelity" else reference.werner_pts_bures
    for t, value in _series(pass_dir, name, grid, rows):
        agree(value, exact(H, b, t), f"{name} at t={t!r}")


def snapshots(pass_dir: Path, name, n, theta, phi, times) -> None:
    H = reference.triangular_chain_hamiltonian(n, theta)
    psi0 = reference.pair_state(n, 1, 2, phi)
    for k, t in enumerate(times):
        path = pass_dir / "out" / f"{name}-t{k}.csv"
        header, table = read_csv(path)
        if header != [f"c{j + 1}" for j in range(n)] or len(table) != n:
            raise CheckFailed(f"{path.name}: expected a {n}x{n} matrix")
        C = reference.concurrence_matrix(H, psi0, t)
        for r, row in enumerate(table):
            for c, text in enumerate(row):
                agree(number(text, f"{path.name}[{r},{c}]"), C[r, c], f"{path.name}[{r},{c}]")


def table(pass_dir: Path, name, sizes, thetas, horizon) -> None:
    path = pass_dir / "out" / f"{name}.csv"
    header, rows = read_csv(path)
    if header != TABLE_HEADER:
        raise CheckFailed(f"{path.name}: header {header}")
    if [r[0] for r in rows] != [str(n) for n in sizes]:
        raise CheckFailed(f"{path.name}: sizes {[r[0] for r in rows]}, expected {list(sizes)}")
    for row in rows:
        n = int(row[0])
        where = f"{path.name} n={n}"
        printed = number(row[3], where)
        matches = [c for c in thetas if abs(printed - c) <= reference.csv_tolerance(printed)]
        if not matches:
            raise CheckFailed(f"{where}: theta {printed!r} is not a candidate")
        theta = matches[0]
        H = reference.triangular_chain_hamiltonian(n, theta)
        psi0 = reference.pair_state(n, 1, 2, math.pi)
        for t_col, c_col in ((1, 2), (4, 5), (6, 7)):
            if row[t_col] == "" and t_col > 1:  # fewer than three local maxima
                continue
            t = number(row[t_col], where)
            value = number(row[c_col], where)
            if not 0.0 <= t <= horizon:
                raise CheckFailed(f"{where}: peak time {t!r} outside [0, {horizon}]")
            exact = reference.end_concurrence(H, psi0, t)
            if abs(value - exact) > PEAK_TOL:
                raise CheckFailed(f"{where}: peak {value!r} at t={t!r}, reference {exact!r}")


def same_bytes(pass_dir: Path, first, second, files) -> None:
    for fname in files:
        try:
            a = (pass_dir / first / fname).read_bytes()
            b = (pass_dir / second / fname).read_bytes()
        except OSError as exc:
            raise CheckFailed(f"cannot read {fname}: {exc}") from None
        if a != b:
            raise CheckFailed(f"{second}/{fname} differs from {first}/{fname}")
