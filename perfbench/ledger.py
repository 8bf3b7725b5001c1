"""Per-layer ledger: self times and counts from a traced run's spans.

The traced run records spans around each call into a layer (see
``workloads.py``), grouped under ``run`` / ``sweep`` spans of category
``group``. A span's *self time* is its duration minus the time its direct
children cover; a layer's number is the sum of its spans' self times.
The self time of the ``group`` spans is wall time no layer span covers,
reported as ``unattributed_s``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.workloads import SIM_COUNTS, WORKLOADS

Span = Dict[str, object]

#: Points whose replay is dominated by the scalar path on ``bu-sweep``:
#: ``batch.us_per_scalar_req`` divides their replay time by their scalar
#: requests.
SCALAR_CAPACITIES = ("100KB", "1MB", "10MB", "100MB")

#: Every per-layer metric, in print order: ``name -> (unit, better)``.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "trace.generate_s": ("s", "lower"),
    "trace.generate_us_per_req": ("us/req", "lower"),
    "trace.stream_pull_s": ("s", "lower"),
    "trace.stream_pull_share": ("fraction", "lower"),
    "trace.stream_generate_s": ("s", "lower"),
    "intern.s": ("s", "lower"),
    "intern.us_per_req": ("us/req", "lower"),
    "intern.stream_s": ("s", "lower"),
    **{f"batch.replay_s.{p.name}": ("s", "lower") for p in WORKLOADS["bu-sweep"].points},
    "batch.us_per_scalar_req": ("us/req", "lower"),
    "batch.cold_req": ("count", "higher"),
    "batch.hit_run_req": ("count", "higher"),
    "batch.scalar_req": ("count", "lower"),
    "batch.off_scalar_ratio": ("fraction", "higher"),
    "batch.precompute_s": ("s", "lower"),
    "batch.stream_replay_s": ("s", "lower"),
    **{f"columnar.replay_s.{p.name}": ("s", "lower") for p in WORKLOADS["bu-hier"].points},
    "columnar.us_per_req": ("us/req", "lower"),
    "results.serialize_ms": ("ms", "lower"),
    "sim.evictions": ("count", "lower"),
    "sim.admissions": ("count", "lower"),
    "sim.remote_hits": ("count", "higher"),
    "sim.icp_queries": ("count", "lower"),
    "sim.ea_declined": ("count", "lower"),
    "sim.promotions_withheld": ("count", "lower"),
    "tracing_overhead_pct": ("%", "lower"),
    "unattributed_s": ("s", "lower"),
}


def span_tree(rows: List[list]) -> List[Span]:
    """Spans from :class:`SpanTracer` rows, each with its self time.

    Rows of one lane nest by stack discipline, so sorting by
    ``(start, -end)`` visits every parent before its children.
    """
    spans: List[Span] = []
    stack: List[Span] = []
    for name, cat, start, end, _tid, args in sorted(rows, key=lambda r: (r[2], -r[3])):
        while stack and start >= stack[-1]["end"]:
            stack.pop()
        span: Span = {
            "name": name,
            "cat": cat,
            "start": start,
            "end": end,
            "args": args or {},
            "parent": stack[-1] if stack else None,
            "self_ns": end - start,
        }
        if stack:
            stack[-1]["self_ns"] -= end - start
        spans.append(span)
        stack.append(span)
    return spans


def _duration(span: Span) -> int:
    return span["end"] - span["start"]


def _s(ns: float) -> float:
    return ns / 1e9


def _per(total_s: float, count: int) -> float:
    """Microseconds per item."""
    return total_s * 1e6 / count if count else 0.0


def per_layer(spans: List[Span], counts: Dict[str, int]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``counts`` sums :func:`workloads.sim_counts` over the traced replays.
    ``baseline`` spans (untraced replays interleaved with the traced
    ones) count toward no layer; they give ``tracing_overhead_pct`` and,
    when the first point ran on the batch fast loop over a materialised
    trace, ``batch.precompute_s``. That first pair then differs by the
    precompute, so it is left out of the overhead: each difference lands
    in one metric.
    """
    m: Dict[str, float] = {
        name: 0 if unit == "count" else 0.0 for name, (unit, _) in PER_LAYER.items()
    }
    generated = interned = 0
    traced: List[int] = []  # per point: replay + serialize duration
    baseline: List[int] = []
    first_on_fast_loop = None  # did the first point replay on the batch fast loop?
    scalar_ns = scalar_req = 0
    fast_req = 0
    columnar_ns = columnar_req = 0
    for span in spans:
        name, args, self_ns = span["name"], span["args"], span["self_ns"]
        parent = span["parent"]
        if name in ("generate", "construct"):
            m["trace.generate_s"] += _s(self_ns)
            generated += args.get("records", 0)
        elif name == "pull":
            m["trace.stream_pull_s"] += _s(_duration(span))
            m["trace.stream_generate_s"] += _s(self_ns)
            m["trace.generate_s"] += _s(self_ns)
        elif name == "intern":
            m["intern.s"] += _s(self_ns)
            interned += args.get("records", 0)
            if parent is not None and parent["name"] == "pull":
                m["intern.stream_s"] += _s(self_ns)
                generated += args.get("records", 0)
        elif name == "baseline":
            baseline.append(_duration(span))
        elif name == "serialize":
            m["results.serialize_ms"] += self_ns / 1e6
            traced[-1] += _duration(span)
        elif name == "replay":
            traced.append(_duration(span))
            if first_on_fast_loop is None:
                first_on_fast_loop = args["core"] == "batch" and not args["streamed"]
            point = f"{args['scheme']}.{args['capacity']}"
            if args["core"] == "columnar":
                m[f"columnar.replay_s.{point}"] = _s(self_ns)
                columnar_ns += self_ns
                columnar_req += args["requests"]
                continue
            fast_req += args["requests"]
            for regime in ("cold", "hit_run", "scalar"):
                m[f"batch.{regime}_req"] += args[regime]
            if args["streamed"]:
                m["batch.stream_replay_s"] += _s(self_ns)
                continue
            m[f"batch.replay_s.{point}"] = _s(self_ns)
            if args["capacity"] in SCALAR_CAPACITIES:
                scalar_ns += self_ns
                scalar_req += args["scalar"]
        elif span["cat"] == "group":
            m["unattributed_s"] += _s(self_ns)
    root = next(s for s in spans if s["parent"] is None)
    wall_ns = _duration(root) - sum(baseline)
    m["trace.generate_us_per_req"] = _per(m["trace.generate_s"], generated)
    m["trace.stream_pull_share"] = m["trace.stream_pull_s"] / _s(wall_ns) if wall_ns else 0.0
    m["intern.us_per_req"] = _per(m["intern.s"], interned)
    m["batch.us_per_scalar_req"] = _per(_s(scalar_ns), scalar_req)
    m["batch.off_scalar_ratio"] = (
        (m["batch.cold_req"] + m["batch.hit_run_req"]) / fast_req if fast_req else 0.0
    )
    if first_on_fast_loop and baseline:
        m["batch.precompute_s"] = _s(traced[0] - baseline[0])
    m["columnar.us_per_req"] = _per(_s(columnar_ns), columnar_req)
    for key in SIM_COUNTS:
        m[f"sim.{key}"] = counts.get(key, 0)
    skip = 1 if first_on_fast_loop else 0  # that pair's difference is the precompute
    traced_ns, baseline_ns = sum(traced[skip:]), sum(baseline[skip:])
    if traced_ns and baseline_ns:
        m["tracing_overhead_pct"] = (traced_ns - baseline_ns) / traced_ns * 100.0
    return m
