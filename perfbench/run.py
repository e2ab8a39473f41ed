"""Run one workload of the benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload cold-place --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The lines above it name every figure the workload
measured, with its unit and sample count.  A traced run also writes its
spans to ``perfbench/out/``.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from lib import HERE, OUT, ROOT, SRC, Tracer, check_nesting, use_source_tree

#: A layer whose unattributed share of wall exceeds this is flagged.
UNATTRIBUTED_LIMIT = 0.10


def _workloads():
    import cold_place
    import paper_sweep
    import service_http

    return {
        "cold-place": cold_place.run,
        "paper-sweep": paper_sweep.run,
        "service-http": service_http.run,
    }


def _layer_sum(report, tracer: Tracer) -> None:
    """Layer self times plus unattributed must equal each iteration's
    wall; flag an unattributed share above the limit."""
    problems = check_nesting(tracer.spans)
    report.check(not problems, "spans do not nest: " + "; ".join(problems[:3]))
    split = getattr(report, "layer_split", None)
    if split is None:
        return
    for error, wall in zip(split.sum_errors(), split.walls):
        report.check(
            error <= 1e-9 + 1e-9 * wall,
            f"layer self times miss an iteration's wall by {error:.3g} s",
        )
    wall = sum(split.walls)
    share = sum(split.unattributed) / wall if wall else 0.0
    report.per_layer["unattributed_share"] = (share, "ratio")
    if share > UNATTRIBUTED_LIMIT:
        report.notes.append(
            f"FLAG: unattributed time is {share:.1%} of wall "
            f"(limit {UNATTRIBUTED_LIMIT:.0%})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    use_source_tree()
    references = json.loads((HERE / "references.json").read_text())
    tracer = Tracer(bool(args.trace))
    report = workloads[args.workload](args.seed, args.seconds, tracer, references)

    if tracer.enabled:
        _layer_sum(report, tracer)
        for name, (value, unit) in report.end_to_end.items():
            report.per_layer[f"traced.{name}"] = (value, unit)
        for name, (value, unit) in sorted(report.per_layer.items()):
            report.name(name, value, unit, "traced")
        # Layers this workload never calls were measured at zero.
        idle = [m for m in spec["per_layer"] if m["name"] not in report.per_layer]
        for metric in idle:
            report.per_layer[metric["name"]] = (0.0, metric["unit"])
        if idle:
            report.notes.append(
                "not called by this workload, reported as 0: "
                + ", ".join(m["name"] for m in idle)
            )
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in wanted if name not in report.result()["metrics"]]
    report.check(not missing, f"metrics not measured: {missing}")

    print(report.render())
    result = report.result()
    result["metrics"] = {
        name: result["metrics"][name] for name in wanted
        if name in result["metrics"]
    }
    print(json.dumps(result))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
