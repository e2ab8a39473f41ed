"""The propagation-model axis: ``deterministic | live-edge | per-copy``.

The paper presents deterministic relaying "for ease of presentation" and
notes (§3) that the theory and experiments carry over when links relay
probabilistically.  This module makes that a first-class *axis* of every
placement request — alongside the algorithm, strategy and backend axes —
instead of an isolated analysis module:

* ``deterministic`` — every edge always relays.  The zero-cost default:
  a request under this model (or under ``p ≡ 1`` probabilities, which is
  the same thing) takes exactly the pre-existing exact integer paths and
  produces bit-identical placements.
* ``live-edge`` — each edge flips one coin per item world; if live, every
  copy crosses it (the independent-cascade convention of Kempe et al.).
* ``per-copy`` — every individual copy flips its own coin on each edge.

Both probabilistic mechanisms share the same *expected* filter-free flow
(linearity of expectation over path indicators), and the optimizers score
both through the same *sample-average approximation* (SAA): a fixed set of
``trials`` live-edge worlds is sampled once from ``seed`` and reused for
**every** gain evaluation of a run (common random numbers).  Each world's
objective is monotone submodular — it is the deterministic objective on a
subgraph — so the sample-average objective is too, which is exactly what
keeps greedy's ``(1 − 1/e)`` guarantee valid under SAA
(:mod:`repro.propagation.sampling` holds the worlds; the backends evaluate
them).

A :class:`PropagationModel` is the resolved spec the layers thread around:
``(mechanism, probabilities, trials, seed)``.  ``deterministic`` is
represented by ``None`` — the absence of a model — so every pre-existing
code path stays untouched unless a model is actually in play;
:func:`build_model` normalizes names (and unit probabilities) to that
fast path.  :func:`use_model` scopes a default the same way
:func:`repro.backends.registry.use_backend` and
:func:`repro.core.registry.use_strategy` do, which is how the model
reaches the experiment drivers without threading a parameter through
every figure.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Hashable

from repro.exceptions import ParameterError
from repro.scoping import ScopedDefault

Node = Hashable
Edge = tuple[Node, Node]

#: Every value accepted on the model axis (CLI ``--model``, service
#: ``"model"`` field, ``experiment --model``).
MODEL_NAMES: tuple[str, ...] = ("deterministic", "live-edge", "per-copy")

#: The genuinely random mechanisms (everything except ``deterministic``).
MECHANISM_NAMES: tuple[str, ...] = ("live-edge", "per-copy")

#: Default Monte-Carlo sample count when a probabilistic model is
#: requested without an explicit ``trials``.
DEFAULT_TRIALS = 64


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability {p!r} outside [0, 1]")
    return p


@dataclass(frozen=True, eq=False)
class PropagationModel:
    """A resolved probabilistic relaying spec.

    Parameters
    ----------
    mechanism:
        ``"live-edge"`` or ``"per-copy"``.  Deterministic relaying is the
        *absence* of a model (``None``), never an instance.
    probabilities:
        A single float applied to every edge, or a mapping from ``(u, v)``
        edges to floats.  Values must lie in ``[0, 1]``; edges missing
        from a mapping default to 1 (deterministic relay).  Edge
        *membership* is validated when the model is bound to a graph
        (:meth:`repro.graphs.compiled.CompiledGraph.edge_probabilities`),
        the point where a graph first exists to validate against.
    trials:
        Number of sampled worlds the SAA objective averages over.
    seed:
        Seed of the world sampler.  Worlds are a pure function of
        ``(graph, probabilities, trials, seed)`` — same seed, same worlds,
        byte-reproducible results on every backend.
    """

    mechanism: str
    probabilities: "float | Mapping[Edge, float]" = 1.0
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISM_NAMES:
            known = ", ".join(MECHANISM_NAMES)
            raise ParameterError(
                f"unknown mechanism {self.mechanism!r}; "
                f"known mechanisms: {known}"
            )
        if not isinstance(self.trials, int) or self.trials <= 0:
            raise ParameterError("trials must be a positive integer")
        if isinstance(self.probabilities, Mapping):
            for p in self.probabilities.values():
                _check_probability(p)
        else:
            _check_probability(self.probabilities)

    @property
    def is_unit(self) -> bool:
        """True when every edge relays with probability exactly 1.

        A unit model *is* deterministic relaying; :func:`build_model`
        collapses it to ``None`` so it rides the exact fast path.
        """
        if isinstance(self.probabilities, Mapping):
            return all(float(p) >= 1.0 for p in self.probabilities.values())
        return float(self.probabilities) >= 1.0

    def probabilities_key(self) -> "tuple[Any, ...]":
        """A hashable canonical key of the probability spec.

        ``repr`` keeps the int/string node distinction, mirroring the
        service digest convention.
        """
        if isinstance(self.probabilities, Mapping):
            return (
                "map",
                tuple(
                    sorted(
                        ((repr(u), repr(v)), float(p))
                        for (u, v), p in self.probabilities.items()
                    )
                ),
            )
        return ("uniform", float(self.probabilities))

    def worlds_key(self) -> "tuple[Any, ...]":
        """Cache key of the sampled worlds this model induces.

        Deliberately excludes ``mechanism``: both mechanisms are scored
        through the same live-edge SAA coupling, so they share worlds.
        """
        return (self.trials, self.seed, self.probabilities_key())

    def describe(self) -> dict[str, Any]:
        """JSON-compatible summary for placement payloads."""
        if isinstance(self.probabilities, Mapping):
            edge_prob: Any = f"per-edge({len(self.probabilities)})"
        else:
            edge_prob = float(self.probabilities)
        return {
            "name": self.mechanism,
            "edge_prob": edge_prob,
            "trials": self.trials,
            "seed": self.seed,
        }


def build_model(
    name: str,
    *,
    edge_prob: "float | Mapping[Edge, float]" = 1.0,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> PropagationModel | None:
    """Normalize a model-axis request to its resolved form.

    ``"deterministic"`` — and any probabilistic name whose probabilities
    are identically 1 — resolves to ``None``: the zero-cost exact path,
    bit-identical to a request that never mentioned a model at all.
    """
    if name not in MODEL_NAMES:
        known = ", ".join(MODEL_NAMES)
        raise ParameterError(
            f"unknown propagation model {name!r}; known models: {known}"
        )
    if name == "deterministic":
        return None
    model = PropagationModel(
        mechanism=name, probabilities=edge_prob, trials=trials, seed=seed
    )
    if model.is_unit:
        return None
    return model


# Scoped like the backend/strategy defaults: per-thread, so the service's
# concurrent jobs and nested experiment drivers cannot leak a model into
# each other's evaluations.
_default_model: ScopedDefault[PropagationModel | None] = ScopedDefault(None)


def get_default_model() -> PropagationModel | None:
    """The model used when an algorithm has none pinned (None = exact)."""
    return _default_model.get()


def set_default_model(model: PropagationModel | None) -> None:
    """Set the process-wide default propagation model."""
    _check_model_spec(model)
    _default_model.set_global(model)


def _check_model_spec(model: PropagationModel | None) -> None:
    if model is not None and not isinstance(model, PropagationModel):
        raise ParameterError(
            "model must be a PropagationModel instance or None; "
            "use build_model() to construct one from a name"
        )


@contextmanager
def use_model(
    model: PropagationModel | None,
) -> Iterator[PropagationModel | None]:
    """Scope the default propagation model to a ``with`` block (per-thread).

    This is how ``--model`` reaches the experiment drivers without
    threading a parameter through every figure function —
    the exact pattern of :func:`repro.core.registry.use_strategy`.
    """
    _check_model_spec(model)
    with _default_model.scoped(model):
        yield model


def resolve_model(
    spec: PropagationModel | None,
) -> PropagationModel | None:
    """Resolve an algorithm's pinned model (None = the scoped default)."""
    if spec is None:
        return _default_model.get()
    _check_model_spec(spec)
    return spec
