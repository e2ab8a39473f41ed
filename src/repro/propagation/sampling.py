"""Sampled live-edge worlds over the compiled CSR — the SAA substrate.

One :class:`SampledWorlds` holds the ``trials`` live-edge coin flips a
probabilistic placement run averages over.  Three properties carry the
whole design:

* **No per-trial graph rebuilds.**  A world is a 0/1 mask over the
  compiled forward-CSR edge positions (one ``bytearray`` per trial) plus
  a lazily derived *pruned adjacency* (``pred``/``succ`` id tuples over
  the same interned ids).  The full graph's cached topological order and
  level partition remain valid on every edge subset — every edge still
  crosses strictly upward in depth — so all existing sweeps run unchanged
  on a world.
* **Common random numbers.**  Worlds are sampled *once* per
  ``(graph, probabilities, trials, seed)`` and reused for every gain
  evaluation of a run (cached here, weak-keyed by graph).  Under a fixed
  set of worlds the sample-average objective
  ``F̂(A) = (1/T) Σ_t F_t(A)`` is an average of deterministic objectives
  on subgraphs — monotone and submodular — so greedy's guarantee holds
  for it *exactly*, not just in expectation.  Fresh coins per
  evaluation would break it.
* **Backend-independent sampling.**  Masks come from one pure-Python
  ``random.Random(seed)`` pass in canonical forward-CSR edge order, so the
  python and numpy backends — and environments without NumPy — see the
  *same* worlds: SAA placements are identical across backends, and the
  equivalence tests can assert so bitwise.

The module also hosts the pure-Python sampled evaluations (the ``python``
backend's implementation and every backend's overflow fallback): per
world, the usual exact id sweeps over the pruned adjacency.  All sampled
quantities are **summed over trials as exact integers** — the mean is
taken only at reporting boundaries — so argmax/tie-break behaviour is
bit-identical everywhere and byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import random
import weakref
from collections import OrderedDict
from time import perf_counter
from collections.abc import Collection, Iterable
from typing import TYPE_CHECKING, Hashable

from repro.exceptions import MissingSourceError
from repro.graphs.cgraph import CGraph
from repro.propagation.model import PropagationModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.compiled import CompiledGraph

Node = Hashable


class SampledWorlds:
    """``trials`` live-edge worlds for one graph and probability spec.

    Construction samples the masks; the pruned per-world adjacency (what
    the pure-Python sweeps consume) and the stacked mask bytes (what the
    NumPy backend converts to an array once) are derived lazily and
    cached, so each representation is paid for only by the backend that
    uses it.
    """

    def __init__(self, graph: CGraph, model: PropagationModel) -> None:
        compiled = graph.compiled()
        compiled.topo_order  # DAG check up front, like every consumer
        probs = compiled.edge_probabilities(
            model.probabilities, key=model.probabilities_key()
        )
        self.compiled: "CompiledGraph" = compiled
        self.probs = probs
        self.trials = model.trials
        self.seed = model.seed

        rng = random.Random(model.seed)
        r = rng.random
        out_probs = probs.out_probs
        # One coin per (trial, edge) in canonical forward-CSR order —
        # the whole identity of a world, identical on every backend.
        self.masks: list[bytearray] = [
            bytearray(r() < p for p in out_probs)
            for _ in range(model.trials)
        ]
        self._adjacency: list[
            tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
            | None
        ] = [None] * model.trials
        self._reach_counts: list[list[int] | None] = [None] * model.trials

    def adjacency(
        self, trial: int
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """``(pred_ids, succ_ids)`` of one world — pruned, cached.

        Built by replaying the forward-CSR scan against the trial's mask;
        after the first evaluation every later sweep of the run reuses
        the tuples (this is what replaced the per-trial ``CGraph``
        rebuild, which re-validated edges and re-derived sources on every
        single trial).
        """
        cached = self._adjacency[trial]
        if cached is not None:
            return cached
        compiled = self.compiled
        mask = self.masks[trial]
        pred_lists: list[list[int]] = [[] for _ in range(compiled.n)]
        succ_t: list[tuple[int, ...]] = []
        pos = 0
        for children in compiled.succ_ids:
            live: list[int] = []
            for c in children:
                if mask[pos]:
                    live.append(c)
                    pred_lists[c].append(len(succ_t))
                pos += 1
            succ_t.append(tuple(live))
        # pred_lists appended parent ids as the scan met them (ascending
        # u), matching the full graph's reverse-CSR convention.
        result = (
            tuple(tuple(ps) for ps in pred_lists),
            tuple(succ_t),
        )
        self._adjacency[trial] = result
        return result

    def reach_counts(self, trial: int) -> list[int]:
        """``nreach_t[v]``: sources reaching ``v`` in one world (cached).

        The per-world analogue of
        :meth:`~repro.graphs.compiled.CompiledGraph.reach_counts`, via
        the same bit-packed sweep over the world's pruned adjacency.
        Filter-independent within the world, so one sweep serves every
        gain evaluation of a run — the aggregate sampled sweeps' cached
        leg.
        """
        cached = self._reach_counts[trial]
        if cached is None:
            from repro.graphs.compiled import packed_reach_counts

            pred_t, _ = self.adjacency(trial)
            cached = packed_reach_counts(self.compiled, pred_t)
            self._reach_counts[trial] = cached
        return cached

    def mask_bytes(self) -> bytes:
        """All masks concatenated, trial-major — ``(trials · m)`` bytes.

        The NumPy backend reshapes this to its ``(trials, m)`` live
        matrix in one ``frombuffer`` call.
        """
        return b"".join(bytes(m) for m in self.masks)


# Weak-keyed so worlds die with their graphs; the inner mapping is keyed
# by the model's worlds_key() (mechanism-independent: both mechanisms
# score through the same live-edge SAA coupling) and LRU-bounded — in a
# long-lived service the (trials, seed) axis is client-controlled, and
# without a bound every fresh seed would pin another world set (masks
# plus pruned adjacency, megabytes each) for the graph's lifetime.
_worlds_cache: "weakref.WeakKeyDictionary[CGraph, OrderedDict]" = (
    weakref.WeakKeyDictionary()
)

#: Most world sets kept per resident graph (LRU beyond this).
MAX_WORLD_SETS_PER_GRAPH = 8


def get_worlds(graph: CGraph, model: PropagationModel) -> SampledWorlds:
    """The (cached) sampled worlds of ``graph`` under ``model``.

    Common-random-numbers contract: every evaluation of a run — gain sweeps,
    objective scoring — receives the same worlds, so SAA gains are consistent
    across the run.  Eviction cannot break that: worlds are a pure function of
    ``(graph, probabilities, trials, seed)`` (the sampler is seeded and
    dependency-free), so a rebuilt set is bit-identical to the evicted one —
    the bound trades only rebuild time, never results.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import span

    cache_counter = REGISTRY.counter(
        "fp_sampling_world_cache_total",
        "Sampled-world cache lookups by outcome.",
        labels=("outcome",),
    )
    per_graph = _worlds_cache.get(graph)
    if per_graph is None:
        per_graph = _worlds_cache.setdefault(graph, OrderedDict())
    key = model.worlds_key()
    worlds = per_graph.get(key)
    if worlds is None:
        cache_counter.inc(outcome="miss")
        start = perf_counter()
        with span(
            "sampling.build_worlds", trials=model.trials, seed=model.seed
        ):
            worlds = SampledWorlds(graph, model)
        elapsed = perf_counter() - start
        REGISTRY.counter(
            "fp_sampling_worlds_built_total",
            "Sampled world sets constructed (cache misses that built).",
        ).inc()
        REGISTRY.histogram(
            "fp_sampling_world_build_seconds",
            "Wall-clock seconds spent sampling a world set.",
        ).observe(elapsed)
        per_graph[key] = worlds
        while len(per_graph) > MAX_WORLD_SETS_PER_GRAPH:
            per_graph.popitem(last=False)
    else:
        cache_counter.inc(outcome="hit")
        per_graph.move_to_end(key)
    return worlds


# ----------------------------------------------------------------------
# Pure-Python sampled evaluations (the exact/fallback implementations)
# ----------------------------------------------------------------------
#
# Every function below runs the aggregate formulation per world (one
# cached reachability sweep per world, then T + W per evaluation) and
# takes one extra axis, ``trial_range``: evaluate only worlds
# ``[lo, hi)``.  ``None`` means all worlds *and* makes the call eligible
# for process-pool sharding (:mod:`repro.propagation.parallel`): with
# the pool armed and enough worlds, the call fans out to workers that
# each re-sample the same seeded worlds and evaluate an explicit
# sub-range; the integer reduce is bit-identical to this serial loop.


def _resolve_trials(
    worlds: SampledWorlds, trial_range: "tuple[int, int] | None"
) -> range:
    if trial_range is None:
        return range(worlds.trials)
    lo, hi = trial_range
    if not 0 <= lo <= hi <= worlds.trials:
        from repro.exceptions import ParameterError

        raise ParameterError(
            f"trial range [{lo}, {hi}) outside [0, {worlds.trials})"
        )
    return range(lo, hi)


def sampled_marginal_gains_ids_exact(
    graph: CGraph,
    filter_ids: Iterable[int] = (),
    *,
    model: PropagationModel,
    trial_range: "tuple[int, int] | None" = None,
) -> list[int]:
    """``Σ_t I_t(v | A)`` over interned ids — exact big-int SAA gains.

    Per world: one ``W`` pass plus one aggregate ``T`` pass on the
    world's pruned adjacency.
    Summed (not averaged) so ties and argmax compare on exact integers;
    divide by ``model.trials`` for the mean.
    """
    from repro.core.impact import absorbing_suffix_ids
    from repro.propagation import parallel
    from repro.propagation.engine import aggregate_receipts_ids

    if not graph.sources:
        raise MissingSourceError("graph has no sources")
    compiled = graph.compiled()
    filter_ids = list(filter_ids)
    mask = compiled.filter_mask(filter_ids)
    worlds = get_worlds(graph, model)
    if parallel.should_shard(worlds.trials, trial_range):
        return parallel.evaluate_sharded(
            "marginal_gains", graph, filter_ids, model
        )
    gains = [0] * compiled.n
    for trial in _resolve_trials(worlds, trial_range):
        pred_t, succ_t = worlds.adjacency(trial)
        w = absorbing_suffix_ids(compiled, mask, succ_t)
        nreach_t = worlds.reach_counts(trial)
        totals = aggregate_receipts_ids(compiled, mask, nreach_t, pred_t)
        for v in range(compiled.n):
            if mask[v]:
                continue
            excess = totals[v] - nreach_t[v]
            if excess:
                wv = w[v]
                if wv:
                    gains[v] += excess * wv
    return gains


def sampled_simplified_impacts_ids_exact(
    graph: CGraph,
    filter_ids: Iterable[int] = (),
    *,
    model: PropagationModel,
    trial_range: "tuple[int, int] | None" = None,
) -> list[int]:
    """``Σ_t ψ_t(v) · dout_t(v)`` over interned ids (``Greedy_L``'s SAA
    score; ``dout_t`` counts the world's *live* out-edges)."""
    from repro.propagation import parallel
    from repro.propagation.engine import aggregate_receipts_ids

    compiled = graph.compiled()
    filter_ids = list(filter_ids)
    mask = compiled.filter_mask(filter_ids)
    worlds = get_worlds(graph, model)
    if parallel.should_shard(worlds.trials, trial_range):
        return parallel.evaluate_sharded(
            "simplified_impacts", graph, filter_ids, model
        )
    scores = [0] * compiled.n
    for trial in _resolve_trials(worlds, trial_range):
        pred_t, succ_t = worlds.adjacency(trial)
        totals = aggregate_receipts_ids(
            compiled, mask, worlds.reach_counts(trial), pred_t
        )
        for v, total in enumerate(totals):
            if total:
                scores[v] += total * len(succ_t[v])
    return scores


def sampled_total_receipts_exact(
    graph: CGraph,
    filters: Collection[Node] = (),
    *,
    model: PropagationModel,
    trial_range: "tuple[int, int] | None" = None,
) -> int:
    """``Σ_t Φ_t(A, V)`` — the summed-over-worlds objective raw material.

    Exact integer; ``/ model.trials`` is the SAA estimate of
    ``E[Φ(A, V)]`` under live-edge relaying.
    """
    from repro.graphs.validation import validate_filter_set
    from repro.propagation import parallel
    from repro.propagation.engine import aggregate_receipts_ids

    if not graph.sources:
        raise MissingSourceError("graph has no sources")
    validate_filter_set(graph, set(filters))
    compiled = graph.compiled()
    filter_ids = compiled.to_ids(filters)
    mask = compiled.filter_mask(filter_ids)
    worlds = get_worlds(graph, model)
    if parallel.should_shard(worlds.trials, trial_range):
        return parallel.evaluate_sharded(
            "total_receipts", graph, filter_ids, model
        )
    total = 0
    for trial in _resolve_trials(worlds, trial_range):
        pred_t, _ = worlds.adjacency(trial)
        total += sum(
            aggregate_receipts_ids(
                compiled, mask, worlds.reach_counts(trial), pred_t
            )
        )
    return total
