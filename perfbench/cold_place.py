"""cold-place: placing filters from nothing on a many-source graph.

Each placement runs in a fresh child interpreter, one child at a time,
so no cache that an earlier placement filled can serve a later one.
The children alternate exact and sketch placements until the measuring
time is up; a pair is always completed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

from lib import (
    HERE,
    DEFAULT_SEED,
    LayerSplit,
    Report,
    Tracer,
    child_env,
    median,
    roots_named,
)

CHILD = HERE / "cold_child.py"

#: Set-up probes (start an interpreter, import the program) per run.
SETUP_REPEATS = 5

CHILD_TIMEOUT_S = 120


def run_child(kind: str, seed: int, traced: bool, stdin: str = "") -> tuple[dict, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(CHILD), kind, str(seed), "1" if traced else "0"],
        input=stdin,
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(
            f"cold child {kind} failed ({done.returncode}): "
            f"{done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def run(seed: int, seconds: float, tracer: Tracer, refs: dict) -> Report:
    report = Report("cold-place", seed, tracer.enabled)

    setups = []
    for _ in range(SETUP_REPEATS):
        _, elapsed = run_child("import", seed, False)
        setups.append(elapsed)

    outputs: dict[str, list[dict]] = {"exact": [], "sketch": []}
    pair_walls: list[float] = []
    start = time.perf_counter()
    while not pair_walls or time.perf_counter() - start < seconds:
        pair = 0.0
        for kind in ("exact", "sketch"):
            report.attempted += 1
            try:
                out, elapsed = run_child(kind, seed, tracer.enabled)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                report.failed += 1
                report.check(False, str(exc))
                return report
            pair += elapsed
            tracer.adopt(out.pop("spans"))
            outputs[kind].append(out)
        pair_walls.append(pair)

    exact, sketch = outputs["exact"], outputs["sketch"]
    _check(report, seed, exact, sketch, refs)

    cold_exact = [o["wall_s"] for o in exact]
    cold_sketch = [o["wall_s"] for o in sketch]
    exact_rss = [o["rss_mb"] for o in exact]
    sketch_rss = [o["rss_mb"] for o in sketch]
    ops_per_s = 2 * len(pair_walls) / sum(pair_walls)

    setup_s = median(setups)
    report.name("setup_s", setup_s, "s", f"median of {len(setups)}")
    report.name("cold_exact_s", median(cold_exact), "s", f"median of {len(exact)}")
    report.name("cold_sketch_s", median(cold_sketch), "s", f"median of {len(sketch)}")
    report.name("exact_peak_rss_mb", median(exact_rss), "MB", f"median of {len(exact)}")
    report.name("sketch_peak_rss_mb", median(sketch_rss), "MB", f"median of {len(sketch)}")
    report.name("cold_placements_per_s", ops_per_s, "1/s",
                f"{2 * len(pair_walls)} children, start-up included")
    report.notes.append(
        "tail percentiles need >= 10 samples beyond them; "
        f"{len(exact)} exact and {len(sketch)} sketch children give none"
    )
    report.end_to_end = {
        "setup_s": (setup_s, "s"),
        "main_ms": (median(cold_exact) * 1e3, "ms"),
        "alt_ms": (median(cold_sketch) * 1e3, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (median(exact_rss), "MB"),
    }
    if tracer.enabled:
        _layers(report, tracer, exact)
    return report


def _check(report: Report, seed: int, exact: list, sketch: list, refs: dict) -> None:
    first = exact[0]
    for out in exact:
        expected_blocks = math.ceil(out["sources"] / out["block"])
        report.check(
            out["blocks_swept"] == expected_blocks,
            f"exact child swept {out['blocks_swept']} reach blocks, "
            f"expected ceil(S/block) = {expected_blocks}: the warm was not cold",
        )
        report.check(
            not out["reach_before"],
            "reach counts existed before the timed warm",
        )
        report.check(
            out["payload"] == first["payload"],
            "two cold exact placements of one graph differ",
        )
    for out in sketch:
        report.check(
            out["payload"] == sketch[0]["payload"],
            "two cold sketch placements of one graph differ",
        )
    rescored, _ = run_child("rescore", seed, False, json.dumps(first["filters"]))
    report.check(
        rescored["objective"] == first["objective"],
        f"cold exact objective {first['objective']} != python-backend "
        f"rescoring {rescored['objective']}",
    )
    if seed == DEFAULT_SEED:
        ref = refs["cold-place"]
        report.check(first["filters"] == ref["exact"]["filters"],
                     "cold exact filters differ from the reference")
        report.check(first["objective"] == ref["exact"]["objective"],
                     "cold exact objective differs from the reference")
        report.check(first["filter_ratio"] == ref["exact"]["filter_ratio"],
                     "cold exact filter ratio differs from the reference")
        report.check(sketch[0]["filters"] == ref["sketch"]["filters"],
                     "cold sketch filters differ from the reference")


def _layers(report: Report, tracer: Tracer, exact: list) -> None:
    spans = tracer.spans
    exact_roots = roots_named(spans, "cold.exact")
    sketch_roots = roots_named(spans, "cold.sketch")
    split = LayerSplit(spans, exact_roots + sketch_roots)
    ex = LayerSplit(spans, exact_roots)
    sk = LayerSplit(spans, sketch_roots)
    layer = report.per_layer
    layer["graphs.ingest_s"] = (split.mean_self("graphs.ingest"), "s")
    layer["propagation.reach.warm_s"] = (ex.mean_self("propagation.reach.warm"), "s")
    layer["propagation.reach.blocks"] = (float(median([o["blocks_swept"] for o in exact])), "count")
    layer["backends.warm_s"] = (ex.mean_self("backends.warm"), "s")
    layer["core.solve_s"] = (ex.mean_total("core.solve"), "s")
    layer["core.select_s"] = (ex.mean_self("core.solve"), "s")
    layer["backends.sweep_s"] = (ex.mean_self("backends.sweep"), "s")
    layer["backends.sweeps"] = (ex.count("backends.sweep") / len(exact_roots), "count")
    layer["sketches.place_s"] = (sk.mean_self("sketches.place"), "s")
    layer["core.objective.score_s"] = (split.mean_self("core.objective.score"), "s")
    layer["service.serialize_s"] = (split.mean_self("service.serialize"), "s")
    layer["unattributed_s"] = (sum(split.unattributed) / len(split.roots), "s")
    report.layer_split = split
    report.notes.append(
        "per-layer times are means per child over exact and sketch "
        "children; exact-only layers are means over exact children"
    )
