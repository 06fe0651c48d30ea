"""Entanglement transfer via chiral and continuous-time quantum walks."""

__version__ = "0.1.0"

from .graphs import (
    complete_graph,
    cycle_graph,
    graph_json_dict,
    hamiltonian,
    triangular_chain,
)
from .dynamics import (
    SpectralDecomposition,
    evolve_density,
    occupation,
    site_amplitudes,
    spectral_decompose,
)
from .states import (
    density_from_pure,
    localized,
    spatial_pair,
    target_pure,
    target_werner,
    werner,
)
from .measures import (
    concurrence_matrix,
    concurrence_pair_fast,
    fidelity,
    pts_bures,
)
from .specs import GraphSpec, StateSpec, TimeGrid
from .experiments import (
    PeakResult,
    ScalingResult,
    SweepRecord,
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

# The names imported above and the submodules they bind, but for io and specs.
__all__ = [name for name in dir() if not name.startswith("_") and name not in ("io", "specs")]
