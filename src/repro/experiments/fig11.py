"""Figure 11: wall-clock seconds to place ten filters on the Twitter graph.

The paper (4 GHz Opteron, pure-Python plist engine) reports: ``G_1`` under
a minute, ``G_Max`` and ``G_L`` about an hour, ``G_All`` 83 minutes.  The
reproduced claim is the *ordering* — ``G_1`` is far cheaper than the
impact-based methods, and ``G_All``'s per-iteration recomputation makes it
the most expensive — not the absolute seconds: this library's two-pass
impact engine is asymptotically faster than the paper's plist bookkeeping
(run ``filter-placement experiment fig11 --backend python`` and
``--backend numpy`` for the backend comparison).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.report import format_table
from repro.analysis.runtime import runtime_comparison
from repro.datasets.twitter import twitter_like_graph
from repro.experiments.base import ExperimentResult

#: Figure 11's bar order; ``G_All_paper`` is Algorithm 1 without early
#: stopping (the cost the paper measured), ``G_All`` this library's default.
DEFAULT_ALGORITHMS: tuple[str, ...] = (
    "G_1",
    "G_Max",
    "G_L",
    "G_All",
    "G_All_paper",
)


def run(
    *,
    seed: int = 0,
    scale: float = 0.2,
    k: int = 10,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    repeats: int = 1,
) -> ExperimentResult:
    graph = twitter_like_graph(seed=seed, scale=scale)
    measurements = runtime_comparison(graph, algorithms, k, repeats=repeats)

    rows = [
        [m.algorithm, f"{m.seconds:.3f}", str(m.filters_found)]
        for m in measurements
    ]
    body = "\n".join([
        f"graph: {graph.number_of_nodes()} nodes, "
        f"{graph.number_of_edges()} edges (scale={scale}), k={k}",
        format_table(["algorithm", "seconds", "filters"], rows),
    ])
    return ExperimentResult(
        experiment="fig11",
        title="Figure 11: execution times for placing ten filters (Twitter)",
        body=body,
        series={
            "seconds": {m.algorithm: m.seconds for m in measurements},
            "k": k,
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
        },
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
