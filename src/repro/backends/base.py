"""The ``PropagationBackend`` protocol.

Every quantity the placement algorithms consume — ``Φ(A, V)``, per-node
receipt totals, the marginal gains ``I(v | A)`` of ``Greedy_All``, and
``Greedy_L``'s simplified impacts ``I'(v)`` — reduces to topological-order
sweeps over the c-graph.  A backend is one implementation of those sweeps;
the algorithms never care *how* the numbers were produced, only that they
are exact.

Contract (shared by all backends, enforced by the equivalence tests):

* Results are **exact integers**, bit-identical across backends.  A backend
  whose fast path cannot guarantee exactness (e.g. fixed-width overflow)
  must fall back to an exact path rather than return approximations.
* Dict results are keyed by node id with plain Python ``int`` values, so
  downstream tie-breaking, serialization and comparisons behave identically
  regardless of backend.
* Backends are stateless with respect to *results*; per-graph derived
  data lives in the shared compiled view
  (:meth:`repro.graphs.cgraph.CGraph.compiled`), which every backend
  consumes instead of building private index maps.  A backend may cache
  only representation-specific adapters over it (the NumPy backend's
  level groupings), never a second copy of the structure.

Every query has exactly one evaluation path per backend: the eager
bit-packed formulation, which answers the aggregate queries from
packed source-reachability counts (a cached per-graph constant) plus
two sweeps per evaluation, independent of the source count.  See
:mod:`repro.backends.probe` for how each route picks a safely-wide
representation before committing to fixed-width arithmetic.

Implementations live next to this module:

* :class:`repro.backends.python_backend.PythonBackend` — the exact
  arbitrary-precision engine (index sweeps over big integers).
* :class:`repro.backends.numpy_backend.NumpyBackend` — the dense vectorized
  engine (levelized batched sweeps, int64 with overflow detection).

Use :func:`repro.backends.registry.get_backend` /
:func:`repro.backends.registry.use_backend` to select one, or
:func:`repro.backends.registry.build_backend` for a private instance.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Hashable, Protocol, runtime_checkable

from repro.graphs.cgraph import CGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.propagation.model import PropagationModel

Node = Hashable


@runtime_checkable
class PropagationBackend(Protocol):
    """The interface the placement/objective layers program against."""

    #: Registry name ("python", "numpy", ...); informational for wrappers.
    name: str

    def node_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> dict[Node, int]:
        """Total receipts per node, aggregated over all sources' items."""
        ...  # pragma: no cover

    def total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> int:
        """``Φ(A, V)``: the grand total number of received copies."""
        ...  # pragma: no cover

    def marginal_gains(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """``I(v | A) = F(A ∪ {v}) − F(A)`` for every node at once."""
        ...  # pragma: no cover

    def simplified_impacts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """``Greedy_L``'s ``I'(v) = Prefix(v) × dout(v)`` under ``A``."""
        ...  # pragma: no cover

    # -- id fast path ---------------------------------------------------
    # The greedy family evaluates gains thousands of times per run; the
    # id variants skip the node-keyed dict boundary entirely and return
    # flat lists indexed by interned id (= ``graph.nodes()`` rank, so an
    # index compare doubles as the canonical tie-break).  ``filter_ids``
    # must be valid ids of ``graph.compiled()`` — the node-keyed entry
    # points remain the validating surface.

    def marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ) -> "Sequence[int]":
        """``I(v | A)`` as a list indexed by interned node id."""
        ...  # pragma: no cover

    def simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ) -> "Sequence[int]":
        """``I'(v)`` as a list indexed by interned node id."""
        ...  # pragma: no cover

    # -- propagation-model axis -----------------------------------------
    # Sample-average evaluation under a probabilistic relaying model
    # (:class:`repro.propagation.model.PropagationModel`).  The contract
    # mirrors the deterministic one: ``sampled_*`` results are **exact
    # integers summed over the model's sampled worlds** (common random
    # numbers — every evaluation of a run shares one world set), so they
    # are bit-identical across backends and byte-reproducible per seed;
    # the ``expected_*`` entry points divide by ``trials`` at the
    # reporting boundary.  ``model=None`` is deterministic relaying and
    # must take exactly the deterministic path.

    def sampled_marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> "Sequence[int]":
        """``Σ_t I_t(v | A)`` as a list indexed by interned node id."""
        ...  # pragma: no cover

    def sampled_simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> "Sequence[int]":
        """``Σ_t ψ_t(v) · dout_t(v)`` as a list indexed by interned id."""
        ...  # pragma: no cover

    def sampled_total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> int:
        """``Σ_t Φ_t(A, V)`` — exact; ``/ trials`` is the SAA estimate."""
        ...  # pragma: no cover

    def expected_total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> float:
        """SAA estimate of ``E[Φ(A, V)]`` (exact ``Φ`` when no model)."""
        ...  # pragma: no cover

    def expected_marginal_gains(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> dict[Node, float]:
        """SAA estimate of ``E[I(v | A)]`` for every node at once."""
        ...  # pragma: no cover

    def warm(self, graph: CGraph) -> None:
        """Perform any one-time per-graph preprocessing now.

        Timing harnesses call this outside their measured region so a
        backend's setup cost (levelization plans, cached topological
        orders) does not land on whichever cell happens to run first.
        Backends without per-graph state implement it as a no-op;
        wrappers must forward it.
        """
        ...  # pragma: no cover
