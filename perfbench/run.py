"""Benchmark runner: one workload, one seed, one timed run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload table3-l1 --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` times the closed item loop with nothing attached and
reports the end-to-end metrics; ``--trace 1`` splits the time between
an untraced and a traced phase (profiler + boundary spans, see
``attribution.py``) and reports the per-layer metrics.  Either way
every item is checked after its loop has ended, a summary is printed,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import subprocess
import sys
import typing

import attribution
import harness

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)), "out")

#: fresh interpreters that repeat set-up, besides this process's own
SETUP_PROBES = 4
#: item floor per timed loop, so the 90th percentile has ten items
#: beyond it
MIN_ITEMS = 100
#: share of a traced run's seconds spent untraced (for overhead_x)
UNTRACED_SHARE = 0.35
#: items whose deterministic per-layer counts a traced run reports
COUNT_ITEMS = {"table3-l1": 4, "table3-l2": 4, "chaos": 24, "t1-link": 24}
#: coverage below which a traced run is flagged
COVERAGE_FLOOR = 0.9

#: per-item profiler self time reported for these buckets
SELF_TIME_BUCKETS = (
    "tlm.layer1", "tlm.layer2", "tlm.layer3", "tlm.master", "tlm.slave",
    "tlm.bus_base", "tlm.arbiter", "tlm.queues", "ec", "power.engine",
    "power.layer1", "power.layer2", "power.dpm", "kernel", "soc",
    "fabric", "faults", "chaos", "experiments", "link")
#: set-up profiler self time reported for these buckets
SETUP_BUCKETS = ("rtl", "workloads")


def _median_setup_s(workload: str, seed: int, own: float) -> float:
    """Median set-up seconds over this process and fresh probes."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, os.path.realpath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=170)
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(args, run: harness.Setup
              ) -> typing.Tuple[dict, list, typing.List[str]]:
    setup_s = _median_setup_s(args.workload, args.seed, run.normalized_s)
    results = harness.run_for(run, args.seconds, MIN_ITEMS)
    figures = harness.end_to_end(results)
    host_s = sum(result.seconds for result in results)
    lines = [f"set-up (host time): imports {run.import_s:.3f} s, "
             f"characterization {run.characterize_s:.3f} s, stimulus "
             f"{run.stimulus_s:.3f} s; median of {1 + SETUP_PROBES} "
             f"set-ups scaled to the reference host {setup_s:.3f} s",
             f"timed loop: {len(results)} items, {host_s:.2f} s host time "
             f"in items ({len(results) / host_s:.4g} items/s unscaled), "
             f"median host factor "
             f"{statistics.median(r.host_factor for r in results):.3f}"]
    if args.workload.startswith("table3"):
        shape = harness.table3_shape(run)
        lines.append(
            f"Table-3 shape: table3-l2 / table3-l1 txns_per_s = "
            f"{shape:.2f} (paper: {harness.PAPER_L2_OVER_L1:.2f}; "
            f"informational)")
    figures["setup_s"] = setup_s
    figures["peak_rss_mb"] = _peak_rss_mb()
    return figures, results, lines


def _traced(args, run: harness.Setup, setup_profile: cProfile.Profile,
            tracer) -> typing.Tuple[dict, list, typing.List[str]]:
    untraced = harness.run_for(run, args.seconds * UNTRACED_SHARE)
    count_items = COUNT_ITEMS[args.workload]
    snapshot: typing.Dict[str, float] = {}

    def on_item(result: harness.ItemResult) -> None:
        if result.index == count_items - 1:
            snapshot.update(tracer.counts)

    tracer.counts.clear()
    profile = attribution.new_profile()
    tracer.install(harness)
    try:
        traced = harness.run_for(run, args.seconds * (1 - UNTRACED_SHARE),
                                 count_items, on_item, profile)
    finally:
        tracer.uninstall()
    traced_s = sum(result.seconds for result in traced)
    buckets, unattributed = attribution.self_seconds(profile)
    setup_buckets, _ = attribution.self_seconds(setup_profile)
    covered = sum(seconds for name, seconds in buckets.items()
                  if name != attribution.HARNESS)
    per_item = 1.0 / len(traced)
    first = traced[:count_items]
    txns = sum(result.txns for result in first)
    flushes = snapshot.get("power.flushes", 0)

    def item_count(name: str) -> int:
        return sum(result.counts.get(name, 0) for result in first)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {
        f"{name}.self_s": buckets.get(name, 0.0) * per_item
        for name in SELF_TIME_BUCKETS}
    values.update({
        "power.flushes": flushes,
        "power.words_per_flush": ratio(snapshot.get("power.words", 0),
                                       flushes),
        "power.flush_s": tracer.seconds("engine.flush") * per_item,
        "kernel.fastlane_share": ratio(
            snapshot.get("kernel.fastlane_time", 0),
            snapshot.get("kernel.sim_time", 0)),
        "kernel.fastlane_entries": snapshot.get(
            "kernel.fastlane_entries", 0),
        "kernel.deltas_per_cycle": ratio(snapshot.get("kernel.deltas", 0),
                                         snapshot.get("kernel.cycles", 0)),
        "soc.build_s": tracer.seconds("SmartCardPlatform.__init__")
        * per_item,
        "soc.builds": snapshot.get("soc.builds", 0),
        "fabric.crossings": snapshot.get("fabric.crossings", 0),
        "faults.fired": item_count("faults.fired"),
        "link.retransmissions": item_count("link.retransmissions"),
        "setup.characterize_s": run.characterize_s,
        "tlm.txns": txns,
        "tlm.retries": sum(result.retries for result in first),
        "tlm.errors": sum(result.errors for result in first),
        "tlm.sim_cycles_per_txn": ratio(
            sum(result.cycles for result in first), txns),
        "trace.overhead_x": (harness.items_per_s(untraced)
                             / harness.items_per_s(traced)),
        "trace.coverage": covered / traced_s,
    })
    values.update({f"{name}.self_s": setup_buckets.get(name, 0.0)
                   for name in SETUP_BUCKETS})
    lines = [f"untraced: {len(untraced)} items; "
             f"traced: {len(traced)} items, {traced_s:.2f} s in items "
             f"(counts over the first {count_items})",
             "self time per item by layer (traced, s): " + ", ".join(
                 f"{name} {seconds * per_item:.4f}" for name, seconds
                 in sorted(buckets.items(), key=lambda kv: -kv[1])),
             f"unattributed builtin/stdlib time: {unattributed:.3f} s"]
    if values["trace.coverage"] < COVERAGE_FLOOR:
        lines.append(f"WARNING: trace coverage "
                     f"{values['trace.coverage']:.3f} is below "
                     f"{COVERAGE_FLOOR}")
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}"
                        ".json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "traced_items": len(traced), "traced_s": traced_s,
                        "self_seconds": buckets,
                        "setup_self_seconds": setup_buckets,
                        "unattributed_s": unattributed,
                        "metrics": values})
    lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    return values, untraced + traced, lines


def _declared(trace: int) -> typing.List[dict]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    return declared["per_layer" if trace else "end_to_end"]


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    declared = _declared(args.trace)
    if args.setup_probe:
        run = harness.setup(args.workload, args.seed)
        print(json.dumps({"setup_s": run.normalized_s}))
        return 0
    if args.trace:
        harness.import_program()
        tracer = attribution.Tracer()
        setup_profile = attribution.new_profile()
        tracer.install(harness)
        setup_profile.enable()
        try:
            run = harness.setup(args.workload, args.seed)
        finally:
            setup_profile.disable()
            tracer.uninstall()
        values, results, lines = _traced(args, run, setup_profile, tracer)
    else:
        run = harness.setup(args.workload, args.seed)
        values, results, lines = _untraced(args, run)
    if set(values) != {metric["name"] for metric in declared}:
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(values)}")
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in declared}
    reasons = harness.check(results, harness.oracle_expectations(run))
    failed = len(reasons)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    if args.workload.startswith("table3"):
        print(f"  oracle: {harness.TABLE3_ORACLE_SAMPLE} of "
              f"{len(run.stimulus)} scripts replayed on the generic lane "
              f"+ reference engine")
    print(f"  items: {len(results)} attempted, {failed} failed "
          f"(error_rate {failed / len(results):.4f})")
    for reason in reasons[:10]:
        print(f"  FAILED {reason}")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
