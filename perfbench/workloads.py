"""The benchmark's three workloads and the passes that time them.

Every workload replays a set of *points* — one ``(scheme, capacity)`` pair
each, four caches, LRU, ``engine="batch"`` — over a trace built from
``bu_like_config(seed)``. A *pass* replays every point once, serially, in
this process. The benchmark only calls public entry points of the program
(``generate_trace``, ``SyntheticTraceStream``, ``Trace.interned``,
``run_simulation(..., regimes=)``, ``SimulationResult.to_json``) and times
them from outside.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import SpanTracer
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.stream import SyntheticTraceStream, source_num_records
from repro.trace.synthetic import SyntheticTraceConfig, bu_like_config, generate_trace

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: The paper's aggregate-capacity grid (Figures 1-3), by label.
CAPACITIES: Dict[str, int] = {
    "100KB": 100 * KB,
    "1MB": MB,
    "10MB": 10 * MB,
    "100MB": 100 * MB,
    "1GB": GB,
}
SCHEMES = ("adhoc", "ea")

#: Requests in the ``stream-gen`` source: 1.4x the BU trace, over the
#: same document and client universe. Generation dominates the run, and
#: one pass plus its reference replay stays within a run's time budget.
STREAM_REQUESTS = 800_000


@dataclass(frozen=True)
class Point:
    """One replay of a pass: a placement scheme at an aggregate capacity."""

    scheme: str
    capacity: str

    @property
    def name(self) -> str:
        return f"{self.scheme}.{self.capacity}"


@dataclass(frozen=True)
class Workload:
    """A named set of points over one trace source.

    ``streamed`` workloads replay a generator-direct
    :class:`SyntheticTraceStream`, so generation and interning happen
    inside every replay; the others replay one materialised, interned
    trace built during set-up. ``setup_reps`` is how many times a run
    repeats set-up to report its median. Why each workload was chosen is
    recorded once, in ``BENCHMARK.json``.
    """

    name: str
    architecture: str
    capacities: Tuple[str, ...]
    streamed: bool
    setup_reps: int

    @property
    def points(self) -> List[Point]:
        return [Point(s, c) for c in self.capacities for s in SCHEMES]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bu-sweep",
            "distributed",
            ("100KB", "1MB", "10MB", "100MB", "1GB"),
            streamed=False,
            setup_reps=3,
        ),
        Workload(
            "stream-gen",
            "distributed",
            ("1GB",),
            streamed=True,
            setup_reps=15,
        ),
        Workload(
            "bu-hier",
            "hierarchical",
            ("10MB", "100MB"),
            streamed=False,
            setup_reps=3,
        ),
    )
}


def trace_config(workload: Workload, seed: int, scale: float = 1.0) -> SyntheticTraceConfig:
    """The generator config a run of ``workload`` at ``seed`` replays.

    ``scale`` below 1 shrinks requests, documents and clients alike (the
    self-tests run at a tiny scale); the benchmark itself runs at 1.
    """
    config = bu_like_config(seed)
    if workload.streamed:
        config = replace(config, num_requests=STREAM_REQUESTS)
    if scale != 1.0:
        config = config.scaled(scale)
    return config


def sim_config(workload: Workload, point: Point, engine: str = "batch") -> SimulationConfig:
    return SimulationConfig(
        scheme=point.scheme,
        num_caches=4,
        aggregate_capacity=CAPACITIES[point.capacity],
        policy="lru",
        architecture=workload.architecture,
        engine=engine,
    )


def set_up(workload: Workload, config: SyntheticTraceConfig, tracer: Optional[SpanTracer] = None):
    """Build the source a pass replays: everything paid before the first replay.

    Materialised workloads generate the trace and intern it (the interned
    view is cached on the trace, so every point of a sweep shares it).
    Streamed workloads construct the stream and pull its first request:
    the generator builds its document and client universe when iteration
    starts, and a replay waits for that before its first request.
    """
    if workload.streamed:
        if tracer is None:
            return _started_stream(config)
        with tracer.span("construct", "generate"):
            return _started_stream(config)
    if tracer is None:
        trace = generate_trace(config)
        trace.interned()
        return trace
    tracer.begin("generate", "generate")
    trace = generate_trace(config)
    tracer.end(records=len(trace.records))
    tracer.begin("intern", "intern")
    trace.interned()
    tracer.end(records=len(trace.records))
    return trace


def _started_stream(config: SyntheticTraceConfig) -> SyntheticTraceStream:
    """A stream whose generator set-up has run once (first record pulled)."""
    stream = SyntheticTraceStream(config)
    next(stream.interned_chunks(1))
    return stream


def result_digest(result) -> str:
    """sha256 of the result's ``to_json()``, engine echo left out.

    The config echo names the engine that produced the result; every
    other byte must match across engines, so the echo's ``engine`` field
    is dropped before serialising.
    """
    result.config = {k: v for k, v in result.config.items() if k != "engine"}
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


SIM_COUNTS = (
    "evictions",
    "admissions",
    "remote_hits",
    "icp_queries",
    "ea_declined",
    "promotions_withheld",
)


def sim_counts(result) -> Dict[str, int]:
    """Simulated events of one replay: identical for identical inputs."""
    stats = result.cache_stats
    return {
        "evictions": sum(s.evictions for s in stats),
        "admissions": sum(s.admissions for s in stats),
        "remote_hits": result.metrics.remote_hits,
        "icp_queries": result.message_counters.icp_queries,
        "ea_declined": sum(s.placements_declined for s in stats),
        "promotions_withheld": sum(s.promotions_withheld for s in stats),
    }


@dataclass
class Replay:
    """The outcome of one replay of one point."""

    point: Point
    digest: Optional[str]  # None when the replay raised
    regimes: dict
    requests: int
    error: Optional[str] = None
    counts: Optional[Dict[str, int]] = None


class _PulledSource:
    """A streamed source whose every chunk pull is timed as a ``pull`` span.

    Interning inside a pull is recorded as a child ``intern`` span by
    the source's own ``interned_chunks(spans=)`` out-parameter, so pull
    self time is generation alone.
    """

    def __init__(self, inner, tracer: SpanTracer):
        self._inner = inner
        self._tracer = tracer
        self.num_records = inner.num_records
        self.fingerprint = inner.fingerprint

    def interned_chunks(self, chunk_size: int):
        chunks = self._inner.interned_chunks(chunk_size, spans=self._tracer)
        return self._tracer.wrap_source(chunks, "pull")


def replay(workload: Workload, point: Point, source, tracer: Optional[SpanTracer] = None) -> Replay:
    """Replay one point on the batch engine and digest its result.

    An exception is caught here, at the boundary that must keep the pass
    running, and recorded on the returned :class:`Replay` as a failure.
    """
    config = sim_config(workload, point)
    regimes: dict = {}
    requests = source_num_records(source)
    try:
        if tracer is None:
            result = run_simulation(config, source, regimes=regimes)
            digest = result_digest(result)
            return Replay(point, digest, regimes, requests)
        if workload.streamed:
            source = _PulledSource(source, tracer)
        tracer.begin("replay", "replay")
        try:
            result = run_simulation(config, source, regimes=regimes)
        finally:
            tracer.end(
                scheme=point.scheme,
                capacity=point.capacity,
                core="columnar" if "fallback_reason" in regimes else "batch",
                streamed=int(workload.streamed),
                requests=requests,
                cold=regimes.get("cold", 0),
                hit_run=regimes.get("hit_run", 0),
                scalar=regimes.get("scalar", 0),
            )
        tracer.begin("serialize", "results")
        try:
            digest = result_digest(result)
        finally:
            tracer.end()
        return Replay(point, digest, regimes, requests, counts=sim_counts(result))
    except Exception:  # a failed replay is a measured outcome
        return Replay(point, None, regimes, requests, error=traceback.format_exc())


def traced_pass(workload: Workload, source, tracer: SpanTracer) -> Tuple[List[Replay], List[Replay]]:
    """One traced pass, each point followed by an untraced ``baseline`` replay.

    The pairs run back to back, so the traced and untraced timings see
    the same host state and their difference is the tracing overhead.
    The baseline's only span is the one around it. On a materialised
    trace the first point's baseline also repeats that point after the
    per-trace precompute has been paid.
    """
    traced: List[Replay] = []
    baseline: List[Replay] = []
    with tracer.span("sweep", "group"):
        for point in workload.points:
            traced.append(replay(workload, point, source, tracer))
            with tracer.span("baseline", "baseline"):
                baseline.append(replay(workload, point, source))
    return traced, baseline


#: A run times at least this many passes, so each point's median has three
#: samples to choose from.
MIN_PASSES = 3


def timed_passes(workload: Workload, source, seconds: float) -> Tuple[List[Replay], float]:
    """Time whole passes until ``seconds`` have elapsed and three have run.

    Each replay is timed on its own. Returns every replay and the host
    seconds one pass takes: the sum over points of the point's median
    replay time. The median drops a host burst that hits one replay, and
    the first pass's per-trace precompute, which a sweep pays once and
    ``batch.precompute_s`` reports.
    """
    replays: List[Replay] = []
    samples: Dict[Point, List[float]] = {p: [] for p in workload.points}
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for point in workload.points:
            began = time.perf_counter()
            replays.append(replay(workload, point, source))
            samples[point].append(time.perf_counter() - began)
        passes += 1
    return replays, sum(statistics.median(s) for s in samples.values())


def timed_setup(workload: Workload, config: SyntheticTraceConfig) -> Tuple[object, List[float]]:
    """Set up ``workload.setup_reps`` times; keep the last source."""
    samples: List[float] = []
    for _ in range(workload.setup_reps):
        source = None  # free the previous trace before building the next
        start = time.perf_counter()
        source = set_up(workload, config)
        samples.append(time.perf_counter() - start)
    return source, samples


#: ``bu-sweep`` was chosen because the scalar path carries more than half
#: of the requests at these capacities.
SCALAR_HEAVY = ("100KB", "1MB", "10MB")


def shape_check(workload: Workload, replays: List[Replay],
                pull_share: Optional[float] = None) -> List[Tuple[bool, str]]:
    """Does the run still have the regime shape its workload was chosen for?

    Returns ``(holds, message)`` pairs with the measured shares. A broken
    shape fails the run: the workload no longer tests what it is named
    for, and the benchmark has to choose it again.
    """
    first = {r.point: r for r in reversed(replays) if r.digest is not None}
    checks: List[Tuple[bool, str]] = []
    if workload.name == "bu-sweep":
        for point in workload.points:
            if point.capacity in SCALAR_HEAVY and point in first:
                share = first[point].regimes.get("scalar", 0) / first[point].requests
                checks.append((share > 0.5, f"{point.name} scalar share {share:.1%} (want > 50%)"))
    elif workload.name == "stream-gen":
        scalar = sum(r.regimes.get("scalar", 0) for r in first.values())
        checks.append((scalar == 0, f"scalar requests {scalar} (want 0)"))
        if pull_share is not None:
            checks.append((pull_share > 0.5, f"pull share of wall time {pull_share:.1%} (want > 50%)"))
    elif workload.name == "bu-hier":
        columnar = sum("fallback_reason" in r.regimes for r in first.values())
        checks.append((columnar == len(first), f"{columnar}/{len(first)} points on the columnar core"))
    return checks
