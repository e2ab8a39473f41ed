"""Name-based algorithm lookup, with an execution-strategy axis.

The experiment drivers, benchmarks and CLI all refer to algorithms by the
names the paper's figures use (``G_All``, ``G_Max``, ``G_1``, ``G_L``,
``Rand_W``, ``Rand_I``, ``Rand_K``) plus this library's extras.

Orthogonal to the *name* is the **strategy** — how the selections are
computed, never *what* they are:

* ``exact`` (default) — the direct implementations; eager ``Greedy_All``
  gets every marginal gain from one bit-packed two-sweep evaluation per
  placement.
* ``sketch`` — selection on bottom-k reachability estimates
  (:mod:`repro.sketches`): float sweeps whose cost is independent of the
  source count, with the winning prefix exactly rescored.  On graphs
  with fewer sources than sketch registers (every built-in dataset) the
  estimates are exact and results stay bit-identical to ``exact``;
  beyond that the strategy trades a bounded ``(1 ± ε)`` estimator error
  for the million-node scale tier.

Algorithms without a sketch path (the heuristics, the randomized
baselines, the exact searches) ignore the strategy.  Scope a strategy with
:func:`use_strategy` (the CLI's ``--strategy`` flag does this) or pass it
per lookup via ``get_algorithm(name, strategy=...)``.

A third orthogonal axis is the **propagation model**
(:mod:`repro.propagation.model`): ``get_algorithm(name, model=...)`` pins
a probabilistic relaying model on model-aware algorithms
(:data:`MODEL_AWARE_NAMES`), under which every gain/score evaluation
becomes a seeded sample-average over live-edge worlds.  ``model=None``
(the default) is deterministic relaying and leaves every code path —
and therefore every result — bit-identical to before the axis existed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.core.base import PlacementAlgorithm
from repro.scoping import ScopedDefault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend
    from repro.propagation.model import PropagationModel
from repro.core.betweenness import BetweennessPlacement
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.greedy_all import GreedyAll
from repro.core.greedy_l import GreedyL
from repro.core.greedy_max import GreedyMax
from repro.core.greedy_one import GreedyOne
from repro.core.random_placement import (
    RandomIndependent,
    RandomK,
    RandomWeighted,
)
from repro.core.tree_dp import TreeDynamicProgram
from repro.exceptions import ParameterError
from repro.sketches.celf import SketchCelfGreedyAll


_FACTORIES: dict[str, Callable[[], PlacementAlgorithm]] = {
    "G_All": GreedyAll,
    # Algorithm 1 exactly as printed: all k iterations, no early stop —
    # the cost profile Figure 11 measures.
    "G_All_paper": lambda: GreedyAll(early_stop=False),
    "G_All_sketch": SketchCelfGreedyAll,
    "G_Max": GreedyMax,
    "G_1": GreedyOne,
    "G_L": GreedyL,
    "Rand_K": RandomK,
    "Rand_I": RandomIndependent,
    "Rand_W": RandomWeighted,
    "Tree_DP": TreeDynamicProgram,
    "Optimal": ExhaustiveSearch,
    "Betweenness": BetweennessPlacement,
}

#: Sketch-capable names: under ``strategy="sketch"`` these resolve to the
#: bottom-k estimate-driven implementation, keeping the original reported
#: name (in the exactness regime results are identical; beyond it the
#: label still denotes the same selection rule, executed on estimates).
_SKETCH_FACTORIES: dict[str, Callable[[], PlacementAlgorithm]] = {
    "G_All": lambda: SketchCelfGreedyAll(name="G_All"),
    "G_All_paper": lambda: SketchCelfGreedyAll(
        early_stop=False, name="G_All_paper"
    ),
    "G_All_sketch": SketchCelfGreedyAll,
}

#: Every registered algorithm name, in presentation order.
ALGORITHM_NAMES: tuple[str, ...] = tuple(_FACTORIES)

#: Execution strategies accepted by ``get_algorithm`` / ``--strategy``.
STRATEGY_NAMES: tuple[str, ...] = ("exact", "sketch")

#: Algorithm names whose scores change under a probabilistic relaying
#: model (the rest score structurally or draw at random and ignore it).
MODEL_AWARE_NAMES: tuple[str, ...] = (
    "G_All",
    "G_All_paper",
    "G_Max",
    "G_L",
)

#: Algorithm names that actually change execution under ``sketch``.
SKETCH_CAPABLE_NAMES: tuple[str, ...] = tuple(_SKETCH_FACTORIES)

#: The seven algorithms the paper's FR figures plot, in legend order.
PAPER_ALGORITHM_NAMES: tuple[str, ...] = (
    "G_All",
    "G_Max",
    "G_1",
    "G_L",
    "Rand_W",
    "Rand_I",
    "Rand_K",
)

# ``use_strategy`` scopes are per-thread, mirroring ``use_backend``: the
# service resolves algorithms concurrently and one request's strategy must
# not leak into another's.
_default_strategy: ScopedDefault[str] = ScopedDefault("exact")


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGY_NAMES:
        known = ", ".join(STRATEGY_NAMES)
        raise ParameterError(
            f"unknown strategy {strategy!r}; known strategies: {known}"
        )


def get_default_strategy() -> str:
    """The strategy used when ``get_algorithm`` gets no explicit one.

    The innermost :func:`use_strategy` scope on the calling thread wins;
    otherwise the process-wide default applies.
    """
    return _default_strategy.get()


def set_default_strategy(strategy: str) -> None:
    """Set the process-wide default execution strategy."""
    _check_strategy(strategy)
    _default_strategy.set_global(strategy)


@contextmanager
def use_strategy(strategy: str) -> Iterator[str]:
    """Scope the default strategy to a ``with`` block, on this thread only.

    This is how the strategy reaches code that looks algorithms up by
    name deep inside a run (experiment drivers, the FR sweep) without
    threading a parameter through every layer.  Scopes nest and never
    bleed between threads.
    """
    _check_strategy(strategy)
    with _default_strategy.scoped(strategy):
        yield strategy


def get_algorithm(
    name: str,
    *,
    strategy: str | None = None,
    backend: "str | PropagationBackend | None" = None,
    model: "PropagationModel | None" = None,
    sketch_k: int | None = None,
    epsilon: float | None = None,
    sketch_seed: int | None = None,
) -> PlacementAlgorithm:
    """Instantiate the algorithm registered under ``name``.

    ``strategy`` selects the execution strategy (``"exact"`` or
    ``"sketch"``; None uses the scoped/process default).  Sketch execution
    returns the bottom-k
    estimate-driven implementation for capable names
    (:data:`SKETCH_CAPABLE_NAMES`); ``sketch_k`` / ``epsilon`` /
    ``sketch_seed`` tune it (``epsilon`` wins over ``sketch_k`` via
    :func:`repro.sketches.bottomk.k_for_epsilon`) and are ignored by algorithms
    without sketch attributes.

    ``backend`` pins the propagation backend on the returned instance for
    algorithms that evaluate gains through one (the greedy family) —
    this is how the service resolves a fully-specified ``(name, strategy,
    backend)`` request without touching any process-wide default.
    Sweep-free algorithms ignore it.

    ``model`` pins a probabilistic relaying model
    (:class:`~repro.propagation.model.PropagationModel`) the same way —
    the third axis of a fully-specified request.  None inherits the
    :func:`repro.propagation.model.use_model` scope (which defaults to
    deterministic relaying, the exact fast path).  Algorithms whose
    scores are structural (``G_1``) or random (``Rand_*``) accept and
    ignore it; the exact searches reject model-aware use by simply not
    exposing the attribute.

    Raises :class:`~repro.exceptions.ParameterError` for unknown names or
    strategies, listing the valid ones.
    """
    if strategy is None:
        strategy = _default_strategy.get()
    _check_strategy(strategy)
    if name not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise ParameterError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        )
    factory = _FACTORIES[name]
    if strategy == "sketch":
        factory = _SKETCH_FACTORIES.get(name, factory)
    algorithm = factory()
    if backend is not None and hasattr(algorithm, "backend"):
        algorithm.backend = backend
    if hasattr(algorithm, "sketch_k"):
        if epsilon is not None:
            from repro.sketches.bottomk import k_for_epsilon

            algorithm.sketch_k = k_for_epsilon(epsilon)
        elif sketch_k is not None:
            algorithm.sketch_k = sketch_k
        if sketch_seed is not None:
            algorithm.sketch_seed = sketch_seed
    if model is not None:
        from repro.propagation.model import _check_model_spec

        _check_model_spec(model)
        if hasattr(algorithm, "model"):
            algorithm.model = model
    return algorithm


def is_deterministic(name: str) -> bool:
    """True when ``name``'s results are a pure function of the graph.

    The randomized baselines (``Rand_*``) are *not* in this set — their
    results depend on the rng.  They are still cacheable by the service
    because its cache key carries an explicit ``rng_seed`` that pins the
    draw; this predicate tells clients (via ``GET /algorithms``) which
    names are reproducible without one.
    """
    return name in _FACTORIES and not name.startswith("Rand_")


def algorithm_catalog() -> list[dict[str, object]]:
    """One row per registered algorithm, for service discovery endpoints."""
    return [
        {
            "name": name,
            "sketch_capable": name in _SKETCH_FACTORIES,
            "deterministic": is_deterministic(name),
            "model_aware": name in MODEL_AWARE_NAMES,
            "paper": name in PAPER_ALGORITHM_NAMES,
        }
        for name in _FACTORIES
    ]
