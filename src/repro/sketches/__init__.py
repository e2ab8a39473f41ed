"""Bottom-k reachability sketches and the ``sketch`` placement strategy.

The approximate-impact tier for graphs beyond the exact machinery's
matrix scale: :mod:`~repro.sketches.bottomk` builds per-node bottom-k
source-reachability sketches in one topological merge pass,
:mod:`~repro.sketches.gains` turns their cardinality estimates into
float marginal-gain sweeps over the shared CSR, and
:mod:`~repro.sketches.celf` runs ``Greedy_All`` on the estimates with an
exact rescore of the winning prefix.  Wired in as
``get_algorithm(..., strategy="sketch")``.
"""

from repro.sketches.bottomk import (
    DEFAULT_SKETCH_K,
    EMPTY_REGISTER,
    ReachSketches,
    build_reach_sketches,
    epsilon_for_k,
    k_for_epsilon,
)
from repro.sketches.celf import (
    DEFAULT_RESCORE_LIMIT,
    SketchCelfGreedyAll,
    sketch_greedy_all,
)
from repro.sketches.gains import SketchGainEngine
from repro.sketches.hashing import (
    hash_stream,
    hash_stream_array,
    source_hashes,
    splitmix64,
)

__all__ = [
    "DEFAULT_RESCORE_LIMIT",
    "DEFAULT_SKETCH_K",
    "EMPTY_REGISTER",
    "ReachSketches",
    "SketchCelfGreedyAll",
    "SketchGainEngine",
    "build_reach_sketches",
    "epsilon_for_k",
    "hash_stream",
    "hash_stream_array",
    "k_for_epsilon",
    "sketch_greedy_all",
    "source_hashes",
    "splitmix64",
]
