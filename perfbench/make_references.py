"""Write ``references.json``: the outputs the default seed must give.

    python3 perfbench/make_references.py

Paper-sweep references come from the exact python backend.  The
cold-place exact placement is too large for the python backend's greedy
loop, so its reference is the numpy placement, with the objective
checked against a python-backend rescoring before it is stored.  Run
this only when a change of outputs is intended, and say why in the
change that commits the new file.
"""

from __future__ import annotations

import json

import cold_place
import paper_sweep
from lib import DEFAULT_SEED, HERE, Tracer, use_source_tree


def cold_references() -> dict:
    exact, _ = cold_place.run_child("exact", DEFAULT_SEED, False)
    sketch, _ = cold_place.run_child("sketch", DEFAULT_SEED, False)
    rescored, _ = cold_place.run_child(
        "rescore", DEFAULT_SEED, False, json.dumps(exact["filters"])
    )
    if rescored["objective"] != exact["objective"]:
        raise SystemExit("numpy objective disagrees with the python rescoring")
    return {
        "exact": {
            "filters": exact["filters"],
            "objective": exact["objective"],
            "filter_ratio": exact["filter_ratio"],
        },
        "sketch": {"filters": sketch["filters"]},
    }


def sweep_references() -> dict:
    from repro.backends import use_backend
    from repro.core import get_algorithm, objective_value
    from repro.core.objective import expected_phi

    sweep = paper_sweep.Sweep(DEFAULT_SEED, Tracer(False))
    deterministic, saa = {}, {}
    with use_backend("python"):
        for label, graph in sweep.graphs.items():
            if label not in sweep.constants:
                continue
            phi_empty, _ = sweep.constants[label]
            for alg in paper_sweep.ALGORITHMS:
                for k in paper_sweep.KS:
                    result = get_algorithm(alg).place(graph, k)
                    deterministic[f"{label} {alg} {k}"] = [
                        [repr(v) for v in result.filters],
                        objective_value(graph, result.filters, phi_empty=phi_empty),
                    ]
        for label, graph in sweep.saa_graphs.items():
            phi_empty = expected_phi(graph, (), model=sweep.model)
            for alg in paper_sweep.SAA_ALGORITHMS:
                result = get_algorithm(alg, model=sweep.model).place(
                    graph, paper_sweep.SAA_K
                )
                saa[f"{label} {alg} {paper_sweep.SAA_K}"] = [
                    [repr(v) for v in result.filters],
                    phi_empty - expected_phi(graph, result.filters, model=sweep.model),
                ]
    return {"deterministic": deterministic, "saa": saa}


def main() -> None:
    use_source_tree()
    refs = {
        "seed": DEFAULT_SEED,
        "cold-place": cold_references(),
        "paper-sweep": sweep_references(),
    }
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
