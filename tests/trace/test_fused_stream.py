"""The fused synthetic stream against the record path it replaces.

``SyntheticTraceStream.interned_chunks`` maps the generator's document
and client indices straight to dense ids. The reference here builds
every :class:`TraceRecord` and interns it through ``ChunkingInterner``
(``RecordStream`` over ``iter_records``). Both drive the same emission
loop, so every :class:`InternedChunk` field must be equal.

The fused path never constructs a ``TraceRecord``, so it skips
``TraceRecord.__post_init__``. Neither of its two checks can fail on
generator output: sizes are drawn as ``max(size, 64)`` capped at
``max_size >= mean_size > 0``, or forced to 0, so none is negative; and
every URL is ``document_url(doc)``, a fixed non-empty format.
``test_fused_chunks_hold_record_invariants`` pins both facts.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.experiments.sweep import run_capacity_sweep
from repro.simulation.simulator import SimulationConfig
from repro.trace.stream import RecordStream, SyntheticTraceStream
from repro.trace.synthetic import (
    BULikeTraceGenerator,
    SyntheticTraceConfig,
    generate_trace,
)

FIELDS = (
    "doc_ids",
    "sizes",
    "timestamps",
    "clients",
    "new_urls",
    "new_client_names",
    "base_docs",
    "base_clients",
    "base_records",
    "num_records",
)


def _chunks(source, chunk_size):
    return [
        {name: getattr(chunk, name) for name in FIELDS}
        for chunk in source.interned_chunks(chunk_size)
    ]


def _reference(config):
    return RecordStream(BULikeTraceGenerator(config).iter_records)


configs = st.builds(
    SyntheticTraceConfig,
    num_requests=st.integers(1, 120),
    num_documents=st.integers(1, 40),
    num_clients=st.integers(1, 6),
    zipf_alpha=st.sampled_from((0.0, 0.75, 2.0)),
    temporal_locality=st.sampled_from((0.0, 0.3, 1.0)),
    locality_stack_depth=st.integers(0, 4),
    mean_interarrival=st.sampled_from((0.001, 0.5)),
    session_gap=st.sampled_from((0.0005, 1800.0)),
    zero_size_fraction=st.sampled_from((0.0, 0.3, 1.0)),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=120, deadline=None)
@given(config=configs, chunk_choice=st.sampled_from(("one", "seven", "whole")))
def test_fused_chunks_equal_interned_records(config, chunk_choice):
    chunk_size = {"one": 1, "seven": 7, "whole": config.num_requests}[chunk_choice]
    fused = _chunks(SyntheticTraceStream(config), chunk_size)
    assert fused == _chunks(_reference(config), chunk_size)


@pytest.mark.parametrize(
    "overrides",
    [
        {"num_documents": 1, "num_clients": 1},
        {"temporal_locality": 0.0},
        {"temporal_locality": 1.0},
        {"zero_size_fraction": 0.0},
        {"zero_size_fraction": 1.0},
        {"locality_stack_depth": 1},
        {"session_gap": 1e-6, "mean_interarrival": 1e-6},
    ],
)
@pytest.mark.parametrize("chunk_size", (1, 7, 300, 10_000))
def test_edge_configs(overrides, chunk_size):
    fields = dict(num_requests=300, num_documents=30, num_clients=4, seed=5)
    config = SyntheticTraceConfig(**{**fields, **overrides})
    fused = _chunks(SyntheticTraceStream(config), chunk_size)
    assert fused == _chunks(_reference(config), chunk_size)


def test_fused_chunks_hold_record_invariants():
    config = SyntheticTraceConfig(
        num_requests=2_000, num_documents=300, num_clients=8,
        mean_size=64, max_size=64, zero_size_fraction=0.2, seed=3,
    )
    for chunk in SyntheticTraceStream(config).interned_chunks(256):
        assert all(size == 0 or size >= 64 for size in chunk.sizes)
        assert all(chunk.new_urls)


@pytest.mark.parametrize("chunk_size", (0, -3))
def test_nonpositive_chunk_size_rejected(chunk_size):
    stream = SyntheticTraceStream(SyntheticTraceConfig(num_requests=10))
    with pytest.raises(TraceError):
        list(stream.interned_chunks(chunk_size))


def test_stream_pickles_and_sweeps_in_parallel():
    config = SyntheticTraceConfig(
        num_requests=2_000, num_documents=250, num_clients=10,
        zero_size_fraction=0.02, seed=23,
    )
    stream = SyntheticTraceStream(config)
    clone = pickle.loads(pickle.dumps(stream))
    assert clone.fingerprint == stream.fingerprint
    assert _chunks(clone, 512) == _chunks(stream, 512)

    capacities = [("500KB", 500 * 1024), ("2MB", 2 * 1024 * 1024)]
    base = SimulationConfig(num_caches=4)
    expected = run_capacity_sweep(
        generate_trace(config), capacities, base_config=base, engine="batch"
    )
    parallel = run_capacity_sweep(
        stream, capacities, base_config=base, engine="batch", jobs=2
    )
    assert [p.result.to_json() for p in parallel.points] == [
        p.result.to_json() for p in expected.points
    ]


def test_spans_time_the_id_mapping_without_changing_chunks():
    from repro.obs.spans import SpanTracer

    config = SyntheticTraceConfig(num_requests=1_000, num_documents=80, seed=11)
    tracer = SpanTracer()
    traced = list(SyntheticTraceStream(config).interned_chunks(300, spans=tracer))
    assert [{name: getattr(c, name) for name in FIELDS} for c in traced] == _chunks(
        SyntheticTraceStream(config), 300
    )
    # Rows are [name, cat, start_ns, end_ns, tid, counters].
    interns = [row[5] for row in tracer.rows if row[0] == "intern"]
    assert interns == [{"records": n} for n in (300, 300, 300, 100)]
