"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload bu-sweep --seed 42 --seconds 15 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics (``req_per_s``,
``setup_s``, ``peak_rss_mb``) and ``error_rate``; with ``--trace 1`` it
records spans around every call into the program and prints the
per-layer ledger instead, and writes the spans as Chrome Trace Event JSON
under ``perfbench/out/``. Every replay's result is checked against a
reference digest (see ``reference.py``), and the run checks that the
workload still has the regime shape it was chosen for. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``. The exit code is 0 only when every replay matched
its reference and the shape holds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SPEC = ROOT / "BENCHMARK.json"

END_TO_END = {"req_per_s": "req/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one workload of the benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="time whole passes until this many seconds have elapsed (at least 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the trace (self-tests only; stored digests are for 1)")
    return parser.parse_args(argv)


def count_failures(replays, expected: Dict[str, Optional[str]]) -> int:
    """Replays that raised or whose digest differs from the reference."""
    failed = 0
    for r in replays:
        if r.digest is None or r.digest != expected.get(r.point.name):
            failed += 1
            why = r.error or f"digest {r.digest} != reference {expected.get(r.point.name)}"
            print(f"FAILED {r.point.name}: {why}", file=sys.stderr)
    return failed


def run_workload(workload, config, seconds: float, trace: bool,
                 expected: Optional[Dict[str, Optional[str]]] = None) -> dict:
    """One run: set up, measure, check; returns everything there is to print.

    ``expected`` overrides the reference digests (the self-tests corrupt
    one); by default they come from :func:`reference.stored` or an untimed
    columnar replay.
    """
    from perfbench import ledger, reference
    from perfbench.workloads import (
        SIM_COUNTS,
        set_up,
        shape_check,
        timed_passes,
        timed_setup,
        traced_pass,
    )
    from repro.obs.spans import SpanTracer
    from repro.trace.stream import source_fingerprint, source_num_records

    out: dict = {}
    if not trace:
        source, setup_samples = timed_setup(workload, config)
        replays, pass_s = timed_passes(workload, source, seconds)
        out["metrics"] = {
            "req_per_s": source_num_records(source) * len(workload.points) / pass_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        pull_share = None
    else:
        tracer = SpanTracer()
        with tracer.span("run", "group"):
            with tracer.span("setup", "group"):
                source = set_up(workload, config, tracer)
            traced, baseline = traced_pass(workload, source, tracer)
        replays = traced + baseline
        counts = {k: sum(r.counts[k] for r in traced if r.counts) for k in SIM_COUNTS}
        out["metrics"] = ledger.per_layer(ledger.span_tree(tracer.rows), counts)
        pull_share = out["metrics"]["trace.stream_pull_share"] if workload.streamed else None
        out["tracer"] = tracer
    out["reference"] = "caller-supplied digests"
    if expected is None:
        expected = reference.stored(workload, config)
        out["reference"] = "object engine (stored digests)"
    if expected is None:
        expected = reference.replay_reference(workload, source)
        out["reference"] = "columnar engine (untimed replay)"
    out["fingerprint"] = source_fingerprint(source)
    out["replays"] = replays
    out["attempted"] = len(replays)
    out["failed"] = count_failures(replays, expected)
    out["shape"] = shape_check(workload, replays, pull_share)
    return out


def write_spans(out: dict, workload: str, seed: int, stamp: dict) -> None:
    """Write the traced run's spans as Chrome Trace Event JSON under ``out/``."""
    from repro.obs.registry import ObsError

    try:
        payload = out["tracer"].to_chrome()
    except ObsError as exc:  # a replay that raised can leave a program span open
        print(f"spans not written: {exc}", file=sys.stderr)
        return
    payload["otherData"].update(
        workload=workload, seed=seed, fingerprint=out["fingerprint"], calibration=stamp
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.trace.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"spans {path.relative_to(ROOT)}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import calibration, ledger
        from perfbench.workloads import WORKLOADS, trace_config
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    config = trace_config(workload, args.seed, args.scale)
    stamp = calibration.stamp()
    out = run_workload(workload, config, args.seconds, bool(args.trace))

    print(f"workload {workload.name}: {why}")
    print(f"seed {args.seed} scale {args.scale} requests {config.num_requests} "
          f"fingerprint {out['fingerprint']}")
    print(f"reference {out['reference']}")
    print("calibration " + json.dumps(stamp, sort_keys=True))
    for holds, message in out["shape"]:
        print(f"shape {'ok' if holds else 'VIOLATED'}: {message}")
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in ledger.PER_LAYER.items()}
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"metric {name} {shown} {metric['unit']}")
    print(f"metric error_rate {out['failed'] / out['attempted']:.6g} fraction "
          f"({out['failed']} of {out['attempted']} replays)")
    if args.trace:
        write_spans(out, workload.name, args.seed, stamp)
    shape_holds = all(holds for holds, _ in out["shape"])
    if not shape_holds:
        print(f"error: {workload.name} no longer has the regime shape it was chosen for; "
              "choose the workload again", file=sys.stderr)
    correct = out["failed"] == 0 and shape_holds
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
