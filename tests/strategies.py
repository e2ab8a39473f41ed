"""Seeded random-DAG case generation for the differential fuzz harness.

Plain deterministic generators, not a property-testing library: every
case is a frozen :class:`DagCase` whose graph (and per-edge relay
probabilities) are a pure function of its seed, so a failure reproduces
from the printed case name alone and CI runs the identical corpus on
every machine.

The corpus deliberately covers the structural axes the sweep engines
branch on:

* **size** — from a handful of nodes up to wide-enough graphs that the
  NumPy level grouping has real work per level;
* **density** — sparse chains through near-complete prefix DAGs;
* **fan-out hubs** — designated nodes wired to *every* later node, the
  dense-adjacency analog of multi-edges (literal parallel edges are
  rejected by ``CGraph``, so fan-out pressure is how a node legally
  emits many copies at once);
* **isolated nodes** — present in the node set, touched by no edge;
* **source declaration** — half the corpus passes explicit sources,
  half lets ``CGraph`` infer them from in-degree (which promotes the
  isolated nodes to sources, a path worth fuzzing);
* **edge probabilities** — per-edge relay probabilities drawn from a
  small quantized palette, so probabilistic-model cases are exactly
  reproducible without float-repr surprises.

Edges always run from lower to higher node id, so every generated graph
is acyclic by construction and never contains a duplicate edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graphs.cgraph import CGraph

#: Quantized relay-probability palette for probabilistic cases.  Values
#: are exact binary fractions, so world sampling thresholds compare the
#: same way on every platform.
PROBABILITY_PALETTE = (0.25, 0.5, 0.75, 0.875, 1.0)


@dataclass(frozen=True)
class DagCase:
    """One reproducible fuzz case: a graph recipe, not a graph."""

    name: str
    seed: int
    n: int
    density: float
    sources: int
    isolated: int = 0
    fanout_hubs: int = 0
    explicit_sources: bool = True

    def build(self) -> CGraph:
        """Materialize the case's graph (pure function of the fields)."""
        rng = random.Random(self.seed)
        total = self.n + self.isolated
        edge_set: set[tuple[int, int]] = set()
        for i in range(self.n):
            for j in range(max(i + 1, self.sources), self.n):
                if rng.random() < self.density:
                    edge_set.add((i, j))
        # Fan-out hubs: wire a few nodes to every later (non-isolated)
        # node — maximal legal fan-out, since parallel edges are illegal.
        if self.fanout_hubs and self.n > self.sources + 1:
            hubs = rng.sample(
                range(self.n - 1), min(self.fanout_hubs, self.n - 1)
            )
            for h in hubs:
                for j in range(max(h + 1, self.sources), self.n):
                    edge_set.add((h, j))
        edges = sorted(edge_set)
        if self.explicit_sources:
            return CGraph(
                edges, nodes=range(total), sources=range(self.sources)
            )
        return CGraph(edges, nodes=range(total))

    def edge_probabilities(self) -> dict[tuple[int, int], float]:
        """Per-edge relay probabilities, seeded off the case seed."""
        rng = random.Random(self.seed + 0x9E3779B9)
        return {
            (u, v): rng.choice(PROBABILITY_PALETTE)
            for (u, v) in self.build().edges()
        }

    def filter_pool(self, count: int) -> list[int]:
        """A reproducible pick of ``count`` candidate filter nodes.

        Drawn from the non-source interior so filters are placeable in
        every source-declaration mode.
        """
        rng = random.Random(self.seed + 0x1F2E3D4C)
        interior = list(range(self.sources, self.n))
        rng.shuffle(interior)
        return sorted(interior[:count])


#: Structural grid the standard corpus walks.
SIZES = (6, 12, 24, 40)
DENSITIES = (0.08, 0.3, 0.6)


def standard_cases(base_seed: int = 20260808) -> tuple[DagCase, ...]:
    """The fixed fuzz corpus: one case per (size, density) grid point.

    The remaining axes (source count, isolated nodes, hubs, explicit vs
    inferred sources) cycle deterministically across the grid so every
    variation appears several times without exploding the corpus.
    """
    cases: list[DagCase] = []
    idx = 0
    for n in SIZES:
        for density in DENSITIES:
            sources = (1, 2, 4)[idx % 3]
            isolated = (0, 2)[idx % 2]
            hubs = (0, 1, 2)[idx % 3]
            explicit = idx % 2 == 0
            cases.append(
                DagCase(
                    name=(
                        f"n{n}-d{density:g}-s{sources}-i{isolated}"
                        f"-h{hubs}-{'ex' if explicit else 'in'}"
                    ),
                    seed=base_seed + idx,
                    n=n,
                    density=density,
                    sources=sources,
                    isolated=isolated,
                    fanout_hubs=hubs,
                    explicit_sources=explicit,
                )
            )
            idx += 1
    return tuple(cases)


@dataclass(frozen=True)
class ReachCase:
    """A many-source reach-warm case: a layered DAG with adversarial shapes.

    The standard corpus keeps at most 4 sources, all of them roots, so
    every warm block fits one 64-bit word.  These cases carry enough
    sources for multi-word rows and block boundaries, and the shapes the
    NumPy warm's reduction pass and column sweep branch on:

    * root sources spread over every layer (not only the first), so
      source ranks interleave with depth and late blocks prune early
      layers;
    * wide layers whose nodes draw 1–5 parents, mostly from the layer
      above — dense, sparse and thin in-neighbour columns;
    * an in-degree-1 source, and a source whose only parent is a source;
    * an in-degree-1 chain from an interior node through a source down
      to a sink;
    * a hub whose in-degree far exceeds its level's width;
    * isolated sources, touched by no edge.
    """

    name: str
    seed: int
    sources: int
    width: int
    layers: int

    #: Sources the special shapes declare (in-degree-1, parent-is-a-
    #: source, mid-chain, and two isolated ones).
    SPECIAL_SOURCES = 5

    def build(self) -> CGraph:
        rng = random.Random(self.seed)
        edges: set[tuple[int, int]] = set()
        sources: list[int] = []
        nodes: list[int] = []

        def fresh(*parents: int) -> int:
            v = len(nodes)
            nodes.append(v)
            edges.update((p, v) for p in parents)
            return v

        roots_left = self.sources - self.SPECIAL_SOURCES
        slots_left = self.width * self.layers
        earlier: list[int] = []
        prev: list[int] = []
        for _ in range(self.layers):
            layer = []
            for _ in range(self.width):
                if roots_left and (
                    not prev or rng.random() < roots_left / slots_left
                ):
                    v = fresh()
                    sources.append(v)
                    roots_left -= 1
                else:
                    pool = prev if rng.random() < 0.85 else earlier
                    degree = min(rng.choice((1, 1, 2, 3, 4, 5)), len(pool))
                    v = fresh(*rng.sample(pool, degree))
                layer.append(v)
                slots_left -= 1
            earlier += layer
            prev = layer
        while roots_left:  # (only when the layers ran out of slots)
            sources.append(fresh())
            roots_left -= 1
        middle = earlier[len(earlier) // 2:len(earlier) // 2 + self.width]
        # An in-degree-1 source, and a source whose only parent is one.
        sources.append(fresh(rng.choice(prev)))
        sources.append(fresh(rng.choice(sources[:-1])))
        # An in-degree-1 chain through a source, ending at a sink.
        link = fresh(rng.choice(middle))
        link = fresh(link)
        sources.append(link)
        for _ in range(3):
            link = fresh(link)
        # A hub far wider than its level.
        fresh(*rng.sample(earlier, min(len(earlier), 3 * self.width)))
        sources.extend((fresh(), fresh()))  # isolated sources
        return CGraph(sorted(edges), nodes=nodes, sources=sources)


def reach_cases(base_seed: int = 20261017) -> tuple[ReachCase, ...]:
    """The many-source reach corpus: S ∈ {65, 130, 300}, two shapes each."""
    cases = []
    for idx, (sources, width, layers) in enumerate(
        ((65, 24, 6), (65, 60, 4), (130, 40, 8), (130, 90, 5),
         (300, 70, 9), (300, 120, 6))
    ):
        cases.append(
            ReachCase(
                name=f"s{sources}-w{width}-l{layers}",
                seed=base_seed + idx,
                sources=sources,
                width=width,
                layers=layers,
            )
        )
    return tuple(cases)
