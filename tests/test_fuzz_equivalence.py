"""Differential fuzzing: every backend vs the dict-path oracle.

The bit-packed sweeps answer every aggregate query from packed
source-reachability words — a different algorithm from the per-source
recurrence, not a different implementation of the same loop — so they
get the adversarial treatment: a fixed seeded corpus of random DAGs
(:mod:`strategies`) is driven through every query, algorithm, strategy
and backend, and each route must produce integers and placements
bit-identical to :mod:`oracle_dictpath`, the pre-refactor dict engine,
which touches neither ``repro.backends`` nor ``CGraph.compiled()`` and
sweeps one ``ψ`` lane per source.

Every deterministic case also runs under two reachability layouts (the
``bitpack``/``lanes`` id prefix, see :data:`REACH_LAYOUTS`): the
aggregate sweeps consume a per-graph ``nreach`` table, and the results
must not depend on how many source lanes one warm window packed.

Probabilistic cases compare every backend with the oracle's per-world,
per-source sums over identical sampled worlds (common random numbers),
where results are exact summed integers and so must match bit-for-bit,
not approximately.  The whole module runs without NumPy (the numpy axis
simply drops out), which is how the no-numpy CI job fuzzes the
pure-Python engine alone.
"""

from __future__ import annotations

import pytest

import oracle_dictpath as oracle
from strategies import DagCase, reach_cases, standard_cases
from repro.backends.registry import available_backends, build_backend
from repro.core.registry import STRATEGY_NAMES, get_algorithm
from repro.propagation.model import PropagationModel
from repro.propagation.reach import warm_reach_counts

CASES = standard_cases()
REACH_CASES = reach_cases()
K = 4
TRIALS = 6  # below the pool threshold: the fuzz corpus stays in-process

#: Reachability layouts the deterministic cases run under.  ``bitpack``
#: derives ``nreach`` the default way, packing up to
#: ``DEFAULT_REACH_BLOCK`` source lanes per warm window; ``lanes`` warms
#: it one source lane per window (``block=1``, the per-source
#: reachability recurrence) before any backend sees the graph.  Each
#: layout gets its own graph object, so neither inherits the other's
#: cached counts.
REACH_LAYOUTS = ("bitpack", "lanes")

_graphs: dict[tuple[str, str], object] = {}
_backends: dict[str, object] = {}


def case_graph(case: DagCase, layout: str = "bitpack"):
    key = (case.name, layout)
    if key not in _graphs:
        graph = case.build()
        if layout == "lanes":
            warm_reach_counts(graph.compiled(), block=1)
        _graphs[key] = graph
    return _graphs[key]


def fuzz_backend(name: str):
    if name not in _backends:
        _backends[name] = build_backend(name)
    return _backends[name]


def case_filter_sets(case: DagCase):
    return [(), tuple(case.filter_pool(2)), tuple(case.filter_pool(5))]


def test_corpus_is_stable():
    # The corpus is part of the contract: a silent regeneration with
    # different parameters would quietly shrink coverage.
    assert len(CASES) == len(set(c.name for c in CASES)) == 12
    assert {c.seed for c in CASES} == set(
        range(CASES[0].seed, CASES[0].seed + 12)
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("layout", REACH_LAYOUTS)
def test_sweep_numbers_match_dict_oracle(case, backend_name, layout):
    graph = case_graph(case, layout)
    backend = fuzz_backend(backend_name)
    for filters in case_filter_sets(case):
        assert backend.marginal_gains(
            graph, filters
        ) == oracle.marginal_gains_dict(graph, filters)
        assert backend.simplified_impacts(
            graph, filters
        ) == oracle.simplified_impacts_dict(graph, filters)
        assert backend.node_receipts(
            graph, filters
        ) == oracle.node_receipts_dict(graph, filters)
        assert backend.total_receipts(graph, filters) == oracle.phi_dict(
            graph, filters
        )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("algorithm", sorted(oracle.ORACLE_PLACERS))
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("layout", REACH_LAYOUTS)
def test_placements_match_dict_oracle(
    case, algorithm, strategy, backend_name, layout
):
    graph = case_graph(case, layout)
    expected = oracle.ORACLE_PLACERS[algorithm](graph, K)
    backend = fuzz_backend(backend_name)
    instance = get_algorithm(algorithm, strategy=strategy, backend=backend)
    result = instance.place(graph, K)
    assert result.filters == expected, (
        f"{case.name}/{algorithm}/{strategy}/{backend_name}/{layout} "
        "diverged from the dict-path oracle"
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("backend_name", available_backends())
def test_incremental_sessions_match_oracle_across_tiers(case, backend_name):
    """Gains re-swept after each placement match the oracle, per layout.

    A caller walking a placement sequence (the sketch strategy's exact
    rescore) re-sweeps ``marginal_gains_ids`` on every prefix; each
    prefix's gains must equal the oracle's in both reachability layouts,
    through the id path and the node-keyed path alike.
    """
    backend = fuzz_backend(backend_name)
    pool = list(case.filter_pool(3))
    for step in range(len(pool) + 1):
        placed = pool[:step]
        expected = oracle.marginal_gains_dict(case_graph(case), placed)
        for layout in REACH_LAYOUTS:
            graph = case_graph(case, layout)
            compiled = graph.compiled()
            assert backend.marginal_gains(graph, placed) == expected, (
                f"{case.name}/{backend_name}/{layout} diverged after "
                f"placing {placed}"
            )
            assert list(
                backend.marginal_gains_ids(graph, compiled.to_ids(placed))
            ) == [expected[v] for v in compiled.nodes]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("mechanism", ("live-edge", "per-copy"))
def test_sampled_queries_bit_identical_across_tiers_and_backends(
    case, mechanism
):
    """Every backend, in both reachability layouts, equals the oracle."""
    graph = case_graph(case)
    model = PropagationModel(
        mechanism=mechanism,
        probabilities=case.edge_probabilities(),
        trials=TRIALS,
        seed=case.seed,
    )
    filters = case_filter_sets(case)[1]
    filter_ids = graph.compiled().to_ids(filters)
    nodes = graph.nodes()
    gains = oracle.sampled_marginal_gains_dict(graph, filters, model)
    impacts = oracle.sampled_simplified_impacts_dict(graph, filters, model)
    expected = (
        [gains[v] for v in nodes],
        [impacts[v] for v in nodes],
        oracle.sampled_total_receipts_dict(graph, filters, model),
    )
    for backend_name in available_backends():
        backend = fuzz_backend(backend_name)
        for layout in REACH_LAYOUTS:
            graph = case_graph(case, layout)
            got = (
                list(
                    backend.sampled_marginal_gains_ids(
                        graph, filter_ids, model=model
                    )
                ),
                list(
                    backend.sampled_simplified_impacts_ids(
                        graph, filter_ids, model=model
                    )
                ),
                backend.sampled_total_receipts(graph, filters, model=model),
            )
            assert got == expected, (
                f"{case.name}/{mechanism}: sampled results of "
                f"{backend_name}/{layout} diverged from the dict-path "
                "oracle over identical worlds"
            )


# ----------------------------------------------------------------------
# Blocked reachability warm: bit-equality for every engine × block ×
# worker combination (the out-of-core nreach sweep's contract).
# ----------------------------------------------------------------------

#: Block sizes straddling the lane-word boundaries: single-lane, partial
#: word, exact word, word+1, and larger-than-every-corpus-source-set.
REACH_BLOCKS = (1, 3, 64, 65, 1000)

#: Worker counts the sharded reduce is fuzzed at.
REACH_WORKERS = (1, 2, 4)


def _numpy_or_none():
    try:
        import numpy as np
    except ImportError:
        return None
    return np


def _oracle_reach_counts(graph) -> list[int]:
    """Dict-path oracle: per-source DFS over the successor dicts.

    ``nreach[v] = #{s : ψ_s(v) > 0}`` — sources with a ≥ 1-edge path to
    ``v`` — computed with none of the compiled machinery under test.
    """
    compiled = graph.compiled()
    counts = {v: 0 for v in graph.nodes()}
    for s in graph.sources:
        seen = set()
        stack = [s]
        while stack:
            for w in graph.successors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        for v in seen:
            counts[v] += 1
    return [counts[v] for v in compiled.nodes]


def _numpy_plane_counts(compiled, block: int) -> "list[int] | None":
    """The NumPy node-major engine's counts at ``block`` (None without
    NumPy).

    Drives the raw sweep, not :func:`warm_reach_counts` — the public
    entry caches on first call, which would collapse the block axis of
    the parametrization to whichever value ran first.
    """
    np = _numpy_or_none()
    if np is None:
        return None
    from repro.propagation.reach import (
        _compiled_tables,
        _node_major_counts,
        _subtract_mark,
    )

    raw = _node_major_counts(np, *_compiled_tables(np, compiled), block)
    return _subtract_mark(np, raw, compiled).tolist()


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("block", REACH_BLOCKS)
def test_blocked_reach_counts_bit_identical_across_blocks(case, block):
    from repro.graphs.compiled import (
        blocked_reach_counts,
        packed_reach_counts,
    )

    graph = case_graph(case)
    compiled = graph.compiled()
    monolithic = packed_reach_counts(compiled)
    assert monolithic == _oracle_reach_counts(graph)
    assert blocked_reach_counts(compiled, block) == monolithic
    plane = _numpy_plane_counts(compiled, block)
    if plane is not None:
        assert plane == monolithic


@pytest.mark.parametrize("workers", REACH_WORKERS)
def test_sharded_reach_counts_bit_identical_across_workers(workers):
    np = _numpy_or_none()
    if np is None:
        pytest.skip("sharding is the NumPy engine's axis")
    from repro.graphs.compiled import packed_reach_counts
    from repro.propagation.reach import _sharded_reach_counts

    for case in CASES:
        graph = case_graph(case)
        compiled = graph.compiled()
        if not compiled.source_ids:
            continue
        sharded = _sharded_reach_counts(np, compiled, 2, workers)
        assert sharded == packed_reach_counts(compiled), (
            f"{case.name}: sharded counts diverged at {workers} workers"
        )


_reach_graphs: dict[str, object] = {}


def reach_case_graph(case):
    if case.name not in _reach_graphs:
        _reach_graphs[case.name] = case.build()
    return _reach_graphs[case.name]


def test_reach_corpus_has_the_adversarial_shapes():
    """Every many-source case carries the shapes it exists to fuzz."""
    assert sorted({c.sources for c in REACH_CASES}) == [65, 130, 300]
    for case in REACH_CASES:
        graph = reach_case_graph(case)
        sources = graph.sources
        assert len(sources) == case.sources
        indeg = {v: graph.in_degree(v) for v in graph.nodes()}
        one_parent_sources = [s for s in sources if indeg[s] == 1]
        assert one_parent_sources, case.name
        assert any(
            graph.predecessors(s)[0] in sources for s in one_parent_sources
        ), case.name
        # A source inside an in-degree-1 chain that ends at a sink.
        assert any(
            indeg[s] == 1
            and indeg[graph.predecessors(s)[0]] == 1
            and graph.predecessors(s)[0] not in sources
            and _chain_ends_at_sink(graph, s, indeg)
            for s in sources
        ), case.name
        assert sum(
            1 for s in sources
            if indeg[s] == 0 and graph.out_degree(s) == 0
        ) >= 2, case.name
        # A hub whose in-degree far exceeds its level's width.
        compiled = graph.compiled()
        offsets = compiled.level_offsets
        width = [b - a for a, b in zip(offsets, offsets[1:])]
        assert any(
            indeg[v] > 4 * width[compiled.depth[compiled.index[v]]]
            for v in graph.nodes()
        ), case.name


def _chain_ends_at_sink(graph, node, indeg) -> bool:
    while graph.out_degree(node):
        children = graph.successors(node)
        if len(children) != 1 or indeg[children[0]] != 1:
            return False
        node = children[0]
    return True


@pytest.mark.parametrize("case", REACH_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("block", REACH_BLOCKS)
def test_many_source_reach_counts_match_oracle_across_blocks(case, block):
    from repro.graphs.compiled import blocked_reach_counts

    graph = reach_case_graph(case)
    compiled = graph.compiled()
    expected = _oracle_reach_counts(graph)
    assert blocked_reach_counts(compiled, block) == expected
    plane = _numpy_plane_counts(compiled, block)
    if plane is not None:
        assert plane == expected


@pytest.mark.parametrize("workers", REACH_WORKERS)
def test_many_source_sharded_counts_match_oracle(workers):
    np = _numpy_or_none()
    if np is None:
        pytest.skip("sharding is the NumPy engine's axis")
    from repro.propagation.reach import _sharded_reach_counts

    for case in REACH_CASES:
        graph = reach_case_graph(case)
        expected = _oracle_reach_counts(graph)
        for block in (64, 65):
            sharded = _sharded_reach_counts(
                np, graph.compiled(), block, workers
            )
            assert sharded == expected, (
                f"{case.name}: sharded counts diverged at {workers} "
                f"workers, block {block}"
            )


def test_warm_reach_counts_caches_and_matches_backends():
    """The public entry: every backend's warm lands the identical list."""
    from repro.backends.registry import available_backends, build_backend
    from repro.graphs.compiled import packed_reach_counts
    from repro.propagation.reach import warm_reach_counts

    case = CASES[0]
    expected = None
    for backend_name in available_backends():
        graph = case.build()  # fresh graph: an unwarmed compiled cache
        compiled = graph.compiled()
        assert compiled._reach_counts is None
        build_backend(backend_name).warm(graph)
        assert compiled._reach_counts is not None
        assert warm_reach_counts(compiled) is compiled._reach_counts
        counts = list(compiled._reach_counts)
        assert counts == packed_reach_counts(compiled)
        if expected is None:
            expected = counts
        assert counts == expected
