"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner all            # every figure
    python -m repro.experiments.runner fig7 fig9      # a selection
    python -m repro.experiments.runner all --fast     # CI-sized scales
    python -m repro.experiments.runner fig8 --scale 1.0 --trials 25

``--fast`` shrinks every dataset and trial count so the full suite runs in
well under a minute; without it the defaults match EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENT_NAMES, get_experiment

#: Per-experiment keyword overrides applied by --fast.
FAST_OVERRIDES: dict[str, dict[str, object]] = {
    "fig4": {"scale": 0.1},
    "fig5": {"scale": 0.1, "trials": 3, "ks": (0, 5, 10, 20)},
    "fig6": {"scale": 0.25},
    "fig7": {"scale": 0.25, "trials": 3},
    "fig8": {"scale": 0.02, "trials": 3},
    "fig9": {"scale": 0.05, "trials": 3},
    "fig10": {},
    "fig11": {"scale": 0.02},
    "tabled": {"scale": 0.1},
}


def run_experiments(
    names: Sequence[str],
    *,
    fast: bool = False,
    seed: int = 0,
    scale: float | None = None,
    trials: int | None = None,
    backend: str | None = None,
    strategy: str | None = None,
    model: "object | None" = None,
) -> list[ExperimentResult]:
    """Run the named experiments and return their results in order.

    ``backend`` scopes the propagation backend for the whole run (a name
    from :data:`repro.backends.BACKEND_NAMES`; None keeps the default).
    ``strategy`` scopes the execution strategy the same way (a name from
    :data:`repro.core.registry.STRATEGY_NAMES`): under ``"sketch"`` the
    ``Greedy_All`` family selects on bottom-k reachability estimates.
    ``model`` scopes a probabilistic relaying model
    (:class:`repro.propagation.model.PropagationModel`; None keeps
    deterministic relaying): every model-aware gain evaluation inside
    the figures becomes the seeded sample average over live-edge worlds.
    """
    if model is not None:
        from repro.propagation.model import use_model

        with use_model(model):
            return run_experiments(
                names,
                fast=fast,
                seed=seed,
                scale=scale,
                trials=trials,
                backend=backend,
                strategy=strategy,
            )
    if strategy is not None:
        from repro.core.registry import use_strategy

        with use_strategy(strategy):
            return run_experiments(
                names,
                fast=fast,
                seed=seed,
                scale=scale,
                trials=trials,
                backend=backend,
            )
    if backend is not None:
        from repro.backends.registry import use_backend

        with use_backend(backend):
            return run_experiments(
                names, fast=fast, seed=seed, scale=scale, trials=trials
            )
    results: list[ExperimentResult] = []
    for name in names:
        driver = get_experiment(name)
        kwargs: dict[str, object] = {"seed": seed}
        if fast:
            kwargs.update(FAST_OVERRIDES.get(name, {}))
        if scale is not None:
            kwargs["scale"] = scale
        if trials is not None:
            kwargs["trials"] = trials
        # Drop knobs the driver does not accept (fig10 has no scale, etc.).
        import inspect

        accepted = inspect.signature(driver).parameters
        kwargs = {k: v for k, v in kwargs.items() if k in accepted}
        results.append(driver(**kwargs))
    return results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner", description=__doc__
    )
    parser.add_argument(
        "names",
        nargs="+",
        help=f"experiment names or 'all' (known: {', '.join(EXPERIMENT_NAMES)})",
    )
    parser.add_argument("--fast", action="store_true", help="CI-sized runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--trials", type=int, default=None)
    from repro.backends.registry import BACKEND_NAMES

    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="propagation backend for every evaluation (default: auto)",
    )
    from repro.core.registry import STRATEGY_NAMES

    parser.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default=None,
        help="execution strategy for sketch-capable algorithms "
        "(lazy = deprecated alias of exact; default: exact)",
    )
    from repro.propagation.model import DEFAULT_TRIALS, MODEL_NAMES

    parser.add_argument(
        "--model",
        choices=MODEL_NAMES,
        default="deterministic",
        help="propagation model for every model-aware evaluation "
        "(default: deterministic)",
    )
    parser.add_argument(
        "--edge-prob",
        type=float,
        default=1.0,
        help="uniform edge relay probability for probabilistic models",
    )
    parser.add_argument(
        "--mc-trials",
        type=int,
        default=DEFAULT_TRIALS,
        help="Monte-Carlo worlds per sample-average evaluation "
        "(--trials is the experiments' own repetition knob)",
    )
    args = parser.parse_args(argv)

    from repro.propagation.model import build_model

    model = build_model(
        args.model,
        edge_prob=args.edge_prob,
        trials=args.mc_trials,
        seed=args.seed,
    )
    names = list(EXPERIMENT_NAMES) if "all" in args.names else args.names
    start = time.perf_counter()
    for result in run_experiments(
        names,
        fast=args.fast,
        seed=args.seed,
        scale=args.scale,
        trials=args.trials,
        backend=args.backend,
        strategy=args.strategy,
        model=model,
    ):
        print(result.render())
    print(f"[{time.perf_counter() - start:.1f}s total]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
