"""The scale tier: streamed compilation, the scale-dag, the .fpc layout.

Pins the three contracts the million-node tier rests on:

* :func:`compile_edge_stream` builds the *same* compiled tables as the
  materialized ``CGraph(...).compiled()`` path — same interning order,
  same CSR ordering, same source defaulting, same structural errors —
  in both the NumPy and the pure-python CSR builders.
* The scale-dag generator is a pure function of ``(scale, seed)``:
  byte-reproducible streams, ``u < v`` on every edge (acyclic by
  construction), and the documented node-count law.
* ``save_compiled``/``load_compiled`` round-trip a graph through the
  ``.fpc`` directory losslessly (including cached reach counts and the
  levelization), memory-map it back when NumPy is present, and reject
  foreign or corrupt directories loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.core.registry import get_algorithm
from repro.exceptions import (
    GraphStructureError,
    MissingNodeError,
    ParameterError,
)
from repro.graphs.cgraph import CGraph
from repro.graphs.io import write_edge_list
from repro.graphs.largescale import (
    StreamedGraph,
    _compile_id_arrays,
    _csr_from_buffers_numpy,
    _csr_from_buffers_python,
    _scale_dag_arrays,
    compile_edge_list,
    compile_edge_stream,
    load_compiled,
    save_compiled,
    scale_dag,
    scale_dag_edges,
    scale_dag_size,
)

try:
    import numpy

    HAVE_NUMPY = True
except Exception:  # pragma: no cover - the no-numpy CI job
    numpy = None
    HAVE_NUMPY = False

#: A small irregular DAG: merge nodes, a diamond, an isolated-ish tail.
EDGES = [
    ("a", "c"), ("b", "c"), ("c", "d"), ("a", "d"),
    ("d", "e"), ("b", "f"), ("f", "e"), ("c", "f"),
]


def tables_of(graph):
    compiled = graph.compiled()
    return {
        "n": compiled.n,
        "m": compiled.m,
        "nodes": list(compiled.nodes),
        "source_ids": tuple(compiled.source_ids),
        "out_offsets": [int(x) for x in compiled.out_offsets],
        "out_targets": [int(x) for x in compiled.out_targets],
        "in_offsets": [int(x) for x in compiled.in_offsets],
        "in_sources": [int(x) for x in compiled.in_sources],
    }


# ----------------------------------------------------------------------
# compile_edge_stream ≡ CGraph(...).compiled()
# ----------------------------------------------------------------------


def test_streamed_tables_match_materialized_path():
    streamed = compile_edge_stream(iter(EDGES))
    materialized = CGraph(EDGES)
    assert tables_of(streamed) == tables_of(materialized)


def test_streamed_pins_sources_and_isolated():
    streamed = compile_edge_stream(
        iter(EDGES), sources=["a", "e"], isolated=["z"]
    )
    materialized = CGraph(EDGES, nodes=["z"], sources=["a", "e"])
    assert tables_of(streamed) == tables_of(materialized)
    assert streamed.sources == {"a", "e"}
    assert "z" in streamed


def test_streamed_rejects_unknown_source():
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter(EDGES), sources=["nope"])


def test_streamed_rejects_self_loop():
    with pytest.raises(GraphStructureError):
        compile_edge_stream(iter([("a", "b"), ("b", "b")]))


def test_identity_fast_path_matches_interned_path():
    # First-seen interning order must equal identity order for the two
    # paths to agree, so the edge list introduces nodes in id order.
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    fast = compile_edge_stream(iter(edges), num_nodes=4)
    slow = compile_edge_stream(iter(edges))
    assert fast.compiled().nodes == range(4)
    assert tables_of(fast) == tables_of(slow)


def test_identity_fast_path_rejects_foreign_ids():
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter([(0, 7)]), num_nodes=4)
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter([("a", 1)]), num_nodes=4)
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter([(0, 1), (2, -1)]), num_nodes=4)


def test_identity_fast_path_rejects_self_loop_and_bad_num_nodes():
    with pytest.raises(GraphStructureError):
        compile_edge_stream(iter([(1, 1)]), num_nodes=4)
    with pytest.raises(ParameterError):
        compile_edge_stream(iter([]), num_nodes=-1)


def test_identity_fast_path_pins_int_sources():
    graph = compile_edge_stream(
        iter([(0, 1), (1, 2)]), num_nodes=3, sources=[0, 1]
    )
    assert graph.sources == {0, 1}
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter([(0, 1)]), num_nodes=2, sources=[5])


@pytest.mark.parametrize(
    "builder",
    ([_csr_from_buffers_numpy] if HAVE_NUMPY else [])
    + [_csr_from_buffers_python],
)
def test_both_csr_builders_reject_duplicates(builder):
    from array import array

    us = array("i", [0, 1, 0])
    vs = array("i", [1, 2, 1])
    with pytest.raises(GraphStructureError):
        builder(3, 3, us, vs, list(range(3)))


@pytest.mark.skipif(not HAVE_NUMPY, reason="differential test needs numpy")
def test_csr_builders_agree():
    from array import array

    rng_edges = [(u, v) for (u, v) in scale_dag_edges(0.001, seed=3)]
    us = array("i", [u for u, _ in rng_edges])
    vs = array("i", [v for _, v in rng_edges])
    n = scale_dag_size(0.001)
    m = len(us)
    fast = _csr_from_buffers_numpy(n, m, us, vs, range(n))
    slow = _csr_from_buffers_python(n, m, us, vs, range(n))
    for a, b in zip(fast, slow):
        assert [int(x) for x in a] == [int(x) for x in b]


def test_empty_stream_compiles():
    graph = compile_edge_stream(iter([]), isolated=["only"])
    assert graph.number_of_nodes() == 1
    assert graph.number_of_edges() == 0
    assert graph.sources == {"only"}


# ----------------------------------------------------------------------
# The StreamedGraph protocol face
# ----------------------------------------------------------------------


def test_streamed_graph_protocol_matches_cgraph():
    streamed = compile_edge_stream(iter(EDGES))
    reference = CGraph(EDGES)
    assert isinstance(streamed, StreamedGraph)
    assert streamed.number_of_nodes() == reference.number_of_nodes()
    assert streamed.number_of_edges() == reference.number_of_edges()
    assert list(streamed.nodes()) == list(reference.nodes())
    assert sorted(streamed.edges()) == sorted(reference.edges())
    assert streamed.sources == reference.sources
    assert streamed.sources_explicit
    assert streamed.is_dag() == reference.is_dag()
    assert sorted(streamed.merge_nodes()) == sorted(reference.merge_nodes())
    for node in reference.nodes():
        assert sorted(streamed.successors(node)) == sorted(
            reference.successors(node)
        )
        assert sorted(streamed.predecessors(node)) == sorted(
            reference.predecessors(node)
        )
        assert streamed.out_degree(node) == reference.out_degree(node)
        assert streamed.in_degree(node) == reference.in_degree(node)
    assert "a" in streamed and "nope" not in streamed


def test_placement_runs_on_streamed_graphs():
    graph = scale_dag(0.0005, seed=0)
    exact = get_algorithm("G_All", strategy="exact").place(graph, 3)
    sketch = get_algorithm("G_All", strategy="sketch").place(graph, 3)
    assert len(exact.filters) == 3
    assert len(sketch.filters) == 3


# ----------------------------------------------------------------------
# The scale-dag generator
# ----------------------------------------------------------------------


def test_scale_dag_size_law():
    assert scale_dag_size(1.0) == 100_000
    assert scale_dag_size(10.0) == 1_000_000
    assert scale_dag_size(0.001) == 100
    assert scale_dag_size(1e-9) == 10  # floor
    with pytest.raises(ParameterError):
        scale_dag_size(0.0)


def test_scale_dag_stream_is_pure_and_ascending():
    first = list(scale_dag_edges(0.002, seed=5))
    again = list(scale_dag_edges(0.002, seed=5))
    reseeded = list(scale_dag_edges(0.002, seed=6))
    assert first == again
    assert first != reseeded
    n = scale_dag_size(0.002)
    assert all(0 <= u < v < n for u, v in first)
    assert len(set(first)) == len(first)  # no duplicate edges


def test_scale_dag_compiles_with_spontaneous_sources():
    graph = scale_dag(0.002, seed=0)
    assert graph.number_of_nodes() == scale_dag_size(0.002)
    assert graph.is_dag()
    # Level 0 plus ~30% spontaneous nodes: a constant fraction of n.
    assert len(graph.sources) > graph.number_of_nodes() // 10
    # Sources are exactly the in-degree-zero nodes.
    for s in sorted(graph.sources)[:20]:
        assert graph.in_degree(s) == 0


#: (scale, n, levels, per): windows narrower than 48 (per 1, 12, 25),
#: clamped last levels (n % levels != 0), and wide multi-window levels.
GENERATOR_SCALES = (1e-9, 0.00013, 0.001, 0.002, 0.0047, 0.02, 0.1)
#: Seeds the masked 64-bit mix must fold the same way on both paths:
#: negative, above 2^64, and with the 64-bit high bit set.
GENERATOR_SEEDS = (0, 7, -3, 2**64 + 11, 2**63 + 5)


def full_tables_of(graph):
    """``tables_of`` plus the levelization, as plain int lists."""
    compiled = graph.compiled()
    tables = tables_of(graph)
    tables.update(
        topo_order=[int(x) for x in compiled.topo_order],
        depth=[int(x) for x in compiled.depth],
        level_offsets=[int(x) for x in compiled.level_offsets],
    )
    return tables


@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
@pytest.mark.parametrize("scale", GENERATOR_SCALES)
def test_scale_dag_equals_the_compiled_stream(scale, seed):
    """``scale_dag`` (array kernels with NumPy) builds table for table
    what compiling the reference edge stream builds."""
    n = scale_dag_size(scale)
    reference = compile_edge_stream(
        scale_dag_edges(scale, seed), num_nodes=n
    )
    assert full_tables_of(scale_dag(scale, seed)) == full_tables_of(
        reference
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array kernels need numpy")
@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
def test_scale_dag_arrays_replay_the_stream_in_order(seed):
    for scale in GENERATOR_SCALES:
        us, vs = _scale_dag_arrays(scale, seed)
        assert us.dtype == vs.dtype == numpy.int32
        assert list(zip(us.tolist(), vs.tolist())) == list(
            scale_dag_edges(scale, seed)
        )


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array kernels need numpy")
def test_array_ingest_keeps_the_stream_checks():
    def arrays(*edges):
        return (
            numpy.array([u for u, _ in edges], dtype=numpy.int32),
            numpy.array([v for _, v in edges], dtype=numpy.int32),
        )

    with pytest.raises(MissingNodeError) as out_of_range:
        _compile_id_arrays(4, *arrays((0, 1), (2, 7), (9, 1)))
    assert out_of_range.value.node == 7  # first offending edge's id
    with pytest.raises(MissingNodeError):
        _compile_id_arrays(4, *arrays((0, 1), (-1, 2)))
    with pytest.raises(GraphStructureError, match="self-loop"):
        _compile_id_arrays(4, *arrays((0, 1), (2, 2)))
    with pytest.raises(GraphStructureError, match="duplicate edge"):
        _compile_id_arrays(4, *arrays((0, 1), (1, 2), (0, 1)))
    graph = _compile_id_arrays(4, *arrays((0, 2), (1, 2), (2, 3)))
    assert tables_of(graph) == tables_of(
        compile_edge_stream(iter([(0, 2), (1, 2), (2, 3)]), num_nodes=4)
    )


def test_identity_lookup_matches_the_dict_index():
    """Identity-interned graphs answer ``to_id``/``in`` without the dict,
    with the dict's answer for every key."""
    from decimal import Decimal
    from fractions import Fraction

    graph = scale_dag(0.0001, seed=0)  # n = 10
    compiled = graph.compiled()
    keys = [
        0, 9, 10, -1, True, False, 3.0, -0.0, 3.5, float("nan"),
        float("inf"), "3", None, (3,), Fraction(4, 1), Decimal(5),
        complex(2, 0), 2**61 - 1, 2**61 + 2, 2**64 + 3,
    ]
    if HAVE_NUMPY:
        keys += [numpy.int64(4), numpy.float64(6.0), numpy.uint8(11)]
    assert compiled._index is None
    answers = []
    for key in keys:
        try:
            answers.append(compiled.to_id(key))
        except MissingNodeError:
            answers.append("missing")
        assert (key in graph) == (answers[-1] != "missing")
    assert compiled._index is None  # answered without building the dict
    for unhashable in ([3], {3: 3}):
        with pytest.raises(MissingNodeError):
            compiled.to_id(unhashable)
        assert unhashable not in graph
    index = compiled.index  # now built: the reference answers
    expected = [index.get(key, "missing") for key in keys]
    assert answers == expected
    assert [type(a) for a in answers] == [type(e) for e in expected]


# ----------------------------------------------------------------------
# compile_edge_list: the chunked file reader
# ----------------------------------------------------------------------


def test_compile_edge_list_honors_directives(tmp_path):
    reference = CGraph(EDGES, nodes=["lone"], sources=["a", "b"])
    path = tmp_path / "graph.txt"
    write_edge_list(reference, path)
    streamed = compile_edge_list(path)
    assert streamed.sources == reference.sources
    assert "lone" in streamed
    assert streamed.number_of_nodes() == reference.number_of_nodes()
    assert sorted(streamed.edges()) == sorted(reference.edges())


def test_compile_edge_list_sources_override(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(CGraph(EDGES), path)
    streamed = compile_edge_list(path, sources=["c"])
    assert streamed.sources == {"c"}
    with pytest.raises(MissingNodeError):
        compile_edge_list(path, sources=["nope"])


# ----------------------------------------------------------------------
# The .fpc on-disk layout
# ----------------------------------------------------------------------


def fpc_fixture(tmp_path):
    graph = scale_dag(0.001, seed=0)
    graph.compiled().reach_counts()  # cache so the sweep persists too
    return graph, save_compiled(graph, tmp_path / "g.fpc")


def test_fpc_round_trip(tmp_path):
    graph, target = fpc_fixture(tmp_path)
    loaded = load_compiled(target)
    assert tables_of(loaded) == tables_of(graph)
    original = graph.compiled()
    reloaded = loaded.compiled()
    assert reloaded.reach_counts() == original.reach_counts()
    assert reloaded.is_dag and reloaded.num_levels == original.num_levels
    assert [int(x) for x in reloaded.topo_order] == [
        int(x) for x in original.topo_order
    ]
    # The reload is placement-equivalent, not just table-equivalent.
    before = get_algorithm("G_All").place(graph, 3)
    after = get_algorithm("G_All").place(loaded, 3)
    assert before.filters == after.filters


@pytest.mark.skipif(not HAVE_NUMPY, reason="memory-mapping needs numpy")
def test_fpc_loads_memory_mapped(tmp_path):
    _, target = fpc_fixture(tmp_path)
    loaded = load_compiled(target)
    split = loaded.compiled().nbytes_split()
    assert split["mapped"] > 0
    # Cached reach counts materialize resident; CSR tables stay mapped.
    assert split["resident"] > 0


def test_fpc_preserves_string_nodes(tmp_path):
    graph = compile_edge_stream(iter(EDGES), isolated=["z"])
    target = save_compiled(graph, tmp_path / "named.fpc")
    loaded = load_compiled(target)
    assert list(loaded.nodes()) == list(graph.nodes())
    assert loaded.sources == graph.sources


def test_fpc_rejects_tuple_nodes(tmp_path):
    graph = CGraph([((0, 0), (1, 1))])
    with pytest.raises(ParameterError):
        save_compiled(graph, tmp_path / "t.fpc")


def test_fpc_rejects_non_fpc_directory(tmp_path):
    with pytest.raises(ParameterError):
        load_compiled(tmp_path)


def test_fpc_rejects_unknown_format(tmp_path):
    _, target = fpc_fixture(tmp_path)
    meta_path = target / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format"] = "fpc-99"
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ParameterError, match="fpc-99"):
        load_compiled(target)


def test_fpc_rejects_foreign_byteorder(tmp_path):
    _, target = fpc_fixture(tmp_path)
    meta_path = target / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["byteorder"] = "big" if meta["byteorder"] == "little" else "little"
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ParameterError, match="endian"):
        load_compiled(target)


def test_fpc_rejects_truncated_tables(tmp_path):
    _, target = fpc_fixture(tmp_path)
    table = target / "out_targets.bin"
    table.write_bytes(table.read_bytes()[:-4])
    with pytest.raises(ParameterError, match="bytes"):
        load_compiled(target)


def test_fpc_failed_save_keeps_previous_snapshot(tmp_path, monkeypatch):
    from repro.graphs import largescale

    previous, target = fpc_fixture(tmp_path)
    other = scale_dag(0.002, seed=1)
    other.compiled().reach_counts()
    real_write = largescale._write_array
    calls = []

    def failing_write(path, values, typecode):
        if calls:
            raise OSError("disk full")
        calls.append(path)
        return real_write(path, values, typecode)

    monkeypatch.setattr(largescale, "_write_array", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_compiled(other, target)
    monkeypatch.undo()

    assert len(calls) == 1  # the failure came after one table landed
    loaded = load_compiled(target)
    assert tables_of(loaded) == tables_of(previous)
    assert (loaded.compiled().reach_counts()
            == previous.compiled().reach_counts())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.fpc"]
    # A complete save then replaces the snapshot whole.
    save_compiled(other, target)
    assert tables_of(load_compiled(target)) == tables_of(other)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.fpc"]


def test_fpc_save_refuses_a_foreign_directory(tmp_path):
    graph = scale_dag(0.001, seed=0)
    (tmp_path / "keep.txt").write_text("not a snapshot")
    with pytest.raises(ParameterError, match="not a .fpc"):
        save_compiled(graph, tmp_path)
    assert (tmp_path / "keep.txt").read_text() == "not a snapshot"


def test_fpc_rejects_reach_counts_of_the_wrong_length(tmp_path):
    graph, target = fpc_fixture(tmp_path)
    n = graph.compiled().n
    table = target / "reach_counts.bin"
    table.write_bytes(table.read_bytes()[:-8])
    meta_path = target / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["arrays"]["reach_counts"]["len"] = n - 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ParameterError, match="reach counts"):
        load_compiled(target)
