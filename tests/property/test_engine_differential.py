"""Three-engine differential fuzzer: object vs columnar vs batch.

Hypothesis drives adversarial traces of at most 300 requests — equal
timestamps, fractional timestamps, zero sizes, a URL whose size changes
between requests, documents larger than a cache's share — through every
engine under configs sampled across the fast engines' envelope: 1-5
caches, count windows of 1-3 and cumulative windows, ``max_age``
responders, ``tie_break="responder"``, the EA replica cap, warm-up,
component latency, and batch chunk sizes None/1/7.

Two runs agree when their ``to_json()`` text is equal (every engine is
handed the same config, so the engine echo is equal too), or when both
raise the same exception type with the same message. A crash every
engine shares therefore counts as agreement: this test guards engine
parity, not the crash itself.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import simulate_batch, simulate_columnar
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace.record import Trace, TraceRecord

#: Time steps between requests: repeats (equal timestamps), fractions
#: whose sums are inexact in binary, and whole seconds.
STEPS = (0.0, 0.0, 0.1, 0.3, 0.7, 1.0, 2.5)

#: Base sizes: zero (patched), tiny, typical, and larger than many of
#: the sampled per-cache shares.
SIZES = (0, 1, 700, 4_096, 9_000, 60_000)

request = st.tuples(
    st.sampled_from(STEPS),
    st.integers(0, 6),  # client
    st.integers(0, 30),  # document
    st.sampled_from(SIZES),
    st.booleans(),  # document 0 only: take the alternate size
)
# Draw the length first: left alone, hypothesis keeps lists too short
# to fill a cache, and the eviction paths would go unexercised.
requests = st.integers(1, 300).flatmap(
    lambda n: st.lists(request, min_size=n, max_size=n)
)

configs = st.builds(
    SimulationConfig,
    scheme=st.sampled_from(["adhoc", "ea"]),
    num_caches=st.integers(1, 5),
    aggregate_capacity=st.integers(5_000, 150_000),
    partitioner=st.sampled_from(["hash", "round-robin-client", "round-robin-request"]),
    responder_strategy=st.sampled_from(["first", "max_age"]),
    tie_break=st.sampled_from(["requester", "responder"]),
    max_replica_fraction=st.sampled_from([None, None, 0.05, 0.3, 1.0]),
    window_mode=st.sampled_from(["count", "count", "cumulative"]),
    window_size=st.integers(1, 3),
    latency=st.sampled_from(["constant", "component"]),
    warmup_requests=st.sampled_from([0, 0, 5, 120]),
)


def build_trace(steps) -> Trace:
    records = []
    now = 0.0
    for step, client, doc, size, alternate in steps:
        now += step
        if doc == 0:
            # One URL whose size changes from request to request.
            size = 333 if alternate else 5_000
        else:
            # Per-document sizes otherwise, so documents differ.
            size = size + doc if size else 0
        records.append(
            TraceRecord(
                timestamp=now,
                client_id=f"client{client}",
                url=f"http://d/{doc}",
                size=size,
            )
        )
    return Trace(records)


def outcome(run):
    """The result text, or the exception type and message it raised."""
    try:
        return run().to_json()
    except Exception as exc:  # compared across engines, never swallowed
        return (type(exc).__name__, str(exc))


@given(steps=requests, config=configs, chunk_size=st.sampled_from([None, 1, 7]))
@settings(max_examples=120, deadline=None)
def test_engines_agree(steps, config, chunk_size):
    trace = build_trace(steps)
    expected = outcome(lambda: CooperativeSimulator(config).run(trace))
    assert outcome(lambda: simulate_columnar(config, trace)) == expected
    assert (
        outcome(lambda: simulate_batch(config, trace, chunk_size=chunk_size))
        == expected
    )
