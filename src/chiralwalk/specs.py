"""The specs of a run.  Graph, state and grid are each parsed from flag text
(``from_text``), read from and written to a manifest (``from_dict``,
``to_dict``), checked, and written as a CSV comment (``comment``) here; so
are the measure, whose flag and manifest forms are one text
(``parse_measure``), and the flag lists of chain sizes and theta candidates.

Number text has one rule: an integer is an optional '-' and ASCII digits
(``parse_int``), a real number is ASCII text without '_' or surrounding
whitespace that float() reads (``parse_real``), and a phase is a real number
or 'Npi', with spaces allowed around it and before 'pi' (``parse_phase``).
No flag is stripped as a whole, so a space elsewhere is refused.  Other
manifest numbers must be JSON numbers (``as_number``), and a manifest object
may hold no key that nothing reads (``check_keys``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dynamics, graphs, io, states

# Bounds the output bytes of a trace, which grow with the grid: 16 bytes per
# readout row and time in the m r x T complex amplitudes of an m-member
# ensemble (160 MB per row at the bound) and about 24 bytes per row of CSV
# text.  The phases of site_amplitudes take n sqrt(T) values on a uniform grid
# (n x 3163 at the bound).
MAX_GRID_POINTS = 10**7
# Bounds the n x n complex Hamiltonian and eigenvectors at 268 MB each.
MAX_SITES = 4096
# Bounds the candidate list grid:K builds, and the manifest records, at about
# 32 MB of Python floats and 24 MB of manifest text.
MAX_THETA_GRID = 10**6
# Graph kind -> the kind outputs record; "complete" is another name for "pentagram".
GRAPH_KINDS = {"tri": "tri", "cycle": "cycle", "pentagram": "pentagram", "complete": "pentagram"}


def parse_int(text, what: str) -> int:
    """``text`` as an integer if it is an optional '-' and ASCII digits."""
    digits = str(text).removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return int(text)


def parse_real(text, what: str) -> float:
    """``text`` as float() reads it, if it is ASCII, holds no '_' and has no
    whitespace around it."""
    s = str(text)
    try:
        if s.isascii() and "_" not in s and s == s.strip():
            return float(s)
    except ValueError:
        pass
    raise ValueError(f"{what} must be a number, got {text!r}")


def parse_phase(text) -> float:
    """Parse an angle given in radians ('1.64', or a number) or as 'Npi' shorthand ('0.5pi')."""
    s, factor = str(text).strip().lower(), 1.0
    if s.endswith("pi"):  # spaces may stand before 'pi', not inside the number
        s, factor = s[:-2].strip(), math.pi
        s = {"": "1", "+": "1", "-": "-1"}.get(s, s)
    try:
        value = parse_real(s, "phase") * factor
    except ValueError:
        raise ValueError(f"cannot parse phase {text!r}; use radians or e.g. '0.75pi'") from None
    if not math.isfinite(value):
        raise ValueError(f"phase must be finite, got {text!r}")
    return value


def as_number(value, what: str, kind: type = float):
    """A manifest value as ``kind`` (int or float); TypeError for text, bools, or a
    float where an int is due, so that no value is silently converted."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = "an integer" if kind is int else "a number"
        raise TypeError(f"{what} must be {expected}, got {value!r}")
    return kind(value)


def check_keys(d, keys, what: str) -> None:
    """Refuse a manifest object ``d`` with a key outside ``keys``, which nothing
    would read: a misspelt key, or a field of another kind.  A key left out
    keeps its default, where it has one."""
    unknown = [key for key in d if key not in keys] if isinstance(d, dict) else []
    if unknown:
        raise ValueError(f"unknown {what} {unknown[0]!r}")


@dataclass(frozen=True)
class GraphSpec:
    """Which graph to walk on: kind in {tri, cycle, pentagram}; "complete" is
    read as "pentagram"."""

    kind: str
    n: int
    theta: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in GRAPH_KINDS):
            raise ValueError(f"unknown graph kind {self.kind!r}; "
                             f"expected one of {', '.join(GRAPH_KINDS)}")
        object.__setattr__(self, "kind", GRAPH_KINDS[self.kind])
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"graph size must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not self.n <= MAX_SITES:
            raise ValueError(f"graph of {self.n} sites exceeds the site guard {MAX_SITES}")
        # Only the triangular chain has a hopping magnitude; elsewhere it would
        # be recorded in outputs without having been used.
        if self.kind != "tri" and self.magnitude != 1.0:
            raise ValueError(f"magnitude applies to tri graphs only, "
                             f"got {self.magnitude} for {self.kind!r}")

    def build(self) -> graphs.WeightedGraph:
        if self.kind == "tri":
            return graphs.triangular_chain(self.n, self.theta, self.magnitude)
        if self.kind == "cycle":
            return graphs.cycle_graph(self.n, self.theta)
        return graphs.complete_graph(self.n, self.theta)

    def decompose(self) -> dynamics.SpectralDecomposition:
        return dynamics.spectral_decompose(graphs.hamiltonian(self.build()))

    @classmethod
    def from_text(cls, text, theta, magnitude) -> GraphSpec:
        """KIND:N, with the phase and magnitude flags' text."""
        kind, sep, n = str(text).partition(":")
        if not sep or ":" in n:
            raise ValueError(f"cannot parse graph {text!r}; expected KIND:N")
        return cls(kind, parse_int(n, "graph size"), parse_phase(theta),
                   parse_real(magnitude, "magnitude"))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> GraphSpec:
        check_keys(d, cls.__dataclass_fields__, "graph key")
        # Manifests written before magnitudes existed have no "magnitude" key.
        return cls(d["kind"], as_number(d["n"], "n", int), parse_phase(d["theta"]),
                   as_number(d.get("magnitude", 1.0), "magnitude"))

    def comment(self) -> str:
        return (f"graph: {self.kind}:{self.n} theta={io.format_number(self.theta)} "
                f"magnitude={io.format_number(self.magnitude)}")


# State kind -> its fields, in manifest order, and each field's number: int, float
# or "phase".  The text form is KIND:V[,V...] with every field but phi, then
# :PHI if the kind has phi (pi if left out); a manifest holds every field.
STATE_FIELDS = {
    "localized": {"site": int},
    "pair": {"i": int, "j": int, "phi": "phase"},
    "werner": {"b": float},
}


def _field(number, value, what: str, text: bool):
    """A state field's ``value`` as its ``number`` type, from flag text or a manifest."""
    if number == "phase":
        return parse_phase(value)
    if not text:
        return as_number(value, what, number)
    return parse_int(value, what) if number is int else parse_real(value, what)


@dataclass(frozen=True)
class StateSpec:
    """Initial state: localized:site, pair:i,j:phi, or werner:b."""

    kind: str
    site: int = 1
    i: int = 1
    j: int = 2
    phi: float = math.pi
    b: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in STATE_FIELDS):
            raise ValueError(f"unknown state kind {self.kind!r}")

    def ensemble(self, n: int) -> tuple[tuple[float, np.ndarray], ...]:
        """Weights and pure members {w_m, psi_m}; a pure state is ((1.0, psi),)."""
        if self.kind == "localized":
            return ((1.0, states.localized(n, self.site)),)
        if self.kind == "pair":
            return ((1.0, states.spatial_pair(n, self.i, self.j, self.phi)),)
        return states.werner_ensemble(n, self.b)

    @classmethod
    def from_text(cls, text) -> StateSpec:
        """localized:I, pair:I,J[:PHI], werner:B, or the manifest form as JSON."""
        s = str(text)
        if s.startswith("{"):
            return cls.from_dict(json.loads(s))
        kind, _, rest = s.partition(":")
        head, has_phase, phase = rest.partition(":")
        fields = STATE_FIELDS.get(kind, {})
        names = [f for f in fields if f != "phi"] + ["phi"] * bool(has_phase)
        values = head.split(",") + [phase] * bool(has_phase)
        if not rest or len(values) != len(names) or not set(names) <= set(fields):
            raise ValueError(f"cannot parse state {text!r}; "
                             "expected localized:I, pair:I,J[:PHI], werner:B, or JSON")
        return cls(kind, **{f: _field(fields[f], v, f, True) for f, v in zip(names, values)})

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{f: getattr(self, f) for f in STATE_FIELDS[self.kind]}}

    @classmethod
    def from_dict(cls, d: dict) -> StateSpec:
        kind = d["kind"]  # an unknown kind has no fields, and the constructor rejects it
        fields = STATE_FIELDS.get(kind, {}) if isinstance(kind, str) else {}
        spec = cls(kind, **{f: _field(number, d[f], f, False) for f, number in fields.items()})
        check_keys(d, ["kind", *fields], f"{kind} state key")
        return spec

    def comment(self) -> str:
        return "state: " + " ".join([self.kind] + [
            f"{f}={io.format_number(getattr(self, f))}" for f in STATE_FIELDS[self.kind]])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid on [t_start, t_end] with step dt."""

    t_start: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if not self.t_start < self.t_end:
            raise ValueError(f"empty grid: t_start {self.t_start} >= t_end {self.t_end}")
        if not self.dt > 0:
            raise ValueError(f"grid step must be positive, got {self.dt}")
        # With the point-count guard, this keeps the rounded times strictly increasing.
        if not self.dt > 2 * np.spacing(max(abs(self.t_start), abs(self.t_end))):
            raise ValueError(f"grid step {self.dt} is below the float resolution of the endpoints")
        if (self.t_end - self.t_start) / self.dt > MAX_GRID_POINTS:
            raise ValueError("grid would exceed the point-count guard")

    def __len__(self) -> int:
        return int(math.floor((self.t_end - self.t_start) / self.dt + 1e-9)) + 1

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(len(self))

    @classmethod
    def from_text(cls, text) -> TimeGrid:
        """START:END:DT."""
        parts = str(text).split(":")
        if len(parts) != 3:
            raise ValueError(f"cannot parse grid {text!r}; expected START:END:DT")
        return cls(*(parse_real(p, key) for p, key in zip(parts, ("t_start", "t_end", "dt"))))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> TimeGrid:
        check_keys(d, cls.__dataclass_fields__, "grid key")
        return cls(*(as_number(d[key], key) for key in ("t_start", "t_end", "dt")))

    def comment(self) -> str:
        return (f"grid: start={io.format_number(self.t_start)} "
                f"end={io.format_number(self.t_end)} dt={io.format_number(self.dt)}")


def _concurrence_arg(arg: str) -> tuple:
    if not arg:
        return (None,), ""
    pair = arg.split(",")
    if len(pair) != 2:
        raise ValueError(f"concurrence pair must be I,J, got {arg!r}")
    i, j = (parse_int(p, "concurrence site") for p in pair)
    return ((i, j),), f"{i},{j}"


def _occupation_arg(arg: str) -> tuple:
    site = parse_int(arg, "occupation site")
    return (site,), str(site)


def _transfer_arg(arg: str) -> tuple:
    return (parse_phase(arg) if arg else None,), arg


# Measure kind -> (parse, trace).  A parse, None for a measure that takes no
# argument, takes the argument after the colon and returns the trace's
# arguments after (graph, state, grid), and the argument's canonical text,
# with each integer as str(int) writes it ('03' as '3'), so that equal traces
# record equal measures.  The trace checks the values against the graph and
# state.  Traces are named rather than bound, so the function called is the
# one experiments holds when a run is loaded.
MEASURES = {
    "concurrence": (_concurrence_arg, "concurrence_trace"),
    "occupation": (_occupation_arg, "occupation_trace"),
    "pts-bures": (None, "bures_trace"),
    "werner-fidelity": (None, "werner_trace"),
    "transfer-fidelity": (_transfer_arg, "transfer_fidelity_trace"),
}


def parse_measure(text) -> tuple[str, tuple, str]:
    """A measure's trace function, by name, the trace's arguments after (graph,
    state, grid), and the canonical text that outputs and the manifest record."""
    text = str(text)
    # The measure is echoed into the CSV comments, where a line break would end them.
    if any(c.isspace() or not c.isprintable() for c in text):
        raise ValueError(f"measure must hold no whitespace or control characters, got {text!r}")
    kind, _, arg = text.partition(":")
    if kind not in MEASURES:
        raise ValueError(f"unknown measure {text!r}")
    parse, trace = MEASURES[kind]
    if parse is None and arg:
        raise ValueError(f"measure takes no argument, got {arg!r}")
    args, arg = parse(arg) if parse else ((), "")
    return trace, args, f"{kind}:{arg}" if arg else kind


def parse_int_list(text: str) -> list[int]:
    """Chain sizes: LO:HI[:STEP] (step 2 by default) or a comma list."""
    s = str(text)
    if ":" in s:
        parts = s.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"cannot parse size list {text!r}")
        lo, hi, step = (parse_int(p, "chain size") for p in (parts + ["2"])[:3])
        if step < 1 or hi < lo:
            raise ValueError(f"bad size range {text!r}")
        # Both ends are checked as sweep sizes are, so the site guard bounds the list.
        GraphSpec("tri", hi)
        GraphSpec("tri", lo).build()
        return list(range(lo, hi + 1, step))
    return [parse_int(x, "chain size") for x in s.split(",") if x != ""]


def parse_theta_candidates(text: str) -> list[float]:
    """Comma list of phases, or ``grid:K`` for K points evenly over (-pi, pi]."""
    s = str(text)
    if s.startswith("grid:"):
        k = parse_int(s[5:], "grid size")
        if k < 1:
            raise ValueError(f"grid size must be positive, got {k}")
        if k > MAX_THETA_GRID:
            raise ValueError(f"grid of {k} phases exceeds the candidate guard {MAX_THETA_GRID}")
        return [-math.pi + 2 * math.pi * step / k for step in range(1, k + 1)]
    values = [parse_phase(t) for t in s.split(",") if t != ""]
    if not values:
        raise ValueError("need at least one theta candidate")
    return values
