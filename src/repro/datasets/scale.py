"""The scale-dag: a seeded layered DAG that grows to 10^6 nodes.

The built-in trace-shaped datasets top out around matrix scale because
they materialize python edge lists.  The scale-dag is generated as a
pure edge *stream* (:func:`repro.graphs.largescale.scale_dag_edges`):
``scale=1.0`` is the 10^5-node tier and ``scale=10.0`` the 10^6 one,
with ~30% of non-root nodes spawning as fresh sources (the
constant-source-fraction regime the paper's trace networks show) and
the rest drawing a handful of parents from a narrow window of a nearby
earlier level, which makes paths re-converge and gives the
filter-placement objective real information multiplicity to remove.

Two consumption modes share one edge stream, so structure is identical:

* ``streamed=False`` (default) — a materialized
  :class:`~repro.graphs.cgraph.CGraph`, right for tests and small
  scales;
* ``streamed=True`` — a :class:`~repro.graphs.largescale.StreamedGraph`
  compiled via the int32 streaming path, the only mode that reaches
  million-node scale.
"""

from __future__ import annotations

from repro.graphs.cgraph import CGraph
from repro.graphs.largescale import (
    scale_dag,
    scale_dag_edges,
    scale_dag_size,
)


def scale_dag_dataset(
    seed: int = 7,
    scale: float = 0.01,
    streamed: bool = False,
):
    """The scale-dag at ``scale`` (``1.0`` → ``n = 10^5``).

    The default ``scale=0.01`` (``n = 1000``) keeps blanket
    every-dataset sweeps test-sized; the scale tier passes ``scale`` and
    ``streamed=True`` explicitly.
    """
    if streamed:
        return scale_dag(scale, seed)
    return CGraph(
        scale_dag_edges(scale, seed), nodes=range(scale_dag_size(scale))
    )
