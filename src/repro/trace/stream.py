"""Streamed trace sources: replay without materialising the trace.

Both replay engines accept, in place of a :class:`~repro.trace.record.Trace`,
any *streamed source* — an object exposing:

* ``interned_chunks(chunk_size)`` — an iterator of
  :class:`repro.fastpath.interning.InternedChunk` covering the request
  stream in order, with globally consistent dense ids and per-chunk
  intern-table deltas (the streaming equivalent of
  :meth:`Trace.interned_chunks`).
* ``num_records`` — the total request count when known ahead of time
  (``None`` otherwise); progress reporting and run manifests read it.

Replaying a streamed source is **byte-identical** to materialising the
same records into a ``Trace`` first — intern ids depend only on record
order, and both engines' chunked replay is chunking-invariant. The win is
memory: a streamed replay holds one chunk of request columns plus
per-document state, so request count stops being a memory bound —
100M-request synthetic sweeps run in O(chunk) + O(universe).

This module provides the two generator-backed sources; packed columnar
trace files (:mod:`repro.trace.columnar_io`) implement the same protocol
over an on-disk format. :class:`RecordStream` interns records as they
come; :class:`SyntheticTraceStream` builds no records at all and interns
the synthetic generator's raw columns directly, so under a span tracer
its ``intern`` spans time only that id mapping.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.record import TraceRecord
from repro.trace.synthetic import (
    BULikeTraceGenerator,
    SyntheticTraceConfig,
    client_name,
    document_url,
)


def source_fingerprint(source, strict: bool = False) -> str:
    """Fingerprint of a trace source, materialised or streamed.

    ``Trace`` computes its fingerprint on demand (a method); streamed
    sources that know theirs ahead of time expose it as a plain string
    attribute (a packed reader's footer digest, a synthetic stream's
    config hash). Sources with neither get the ``"stream:opaque"``
    sentinel — fine for a manifest, but *not* a content address, so
    callers that key caches on the fingerprint pass ``strict=True`` and
    get a :class:`TraceError` instead.
    """
    fingerprint = getattr(source, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint()
    if isinstance(fingerprint, str):
        return fingerprint
    if strict:
        raise TraceError(
            f"trace source {type(source).__name__} exposes no fingerprint; "
            "content-addressed caching needs one (give the stream a "
            "'fingerprint' attribute or materialise it into a Trace)"
        )
    return "stream:opaque"


def source_num_records(source) -> Optional[int]:
    """Total request count of a trace source, or None when unknowable.

    A materialised ``Trace`` is counted directly; streamed sources
    declare ``num_records`` (a packed reader reads it from the file
    footer before decoding any chunk). Progress reporting must use this
    instead of ``len(trace.records)`` — a streamed source has no
    ``records`` list to measure.
    """
    records = getattr(source, "records", None)
    if records is not None:
        return len(records)
    return getattr(source, "num_records", None)


class RecordStream:
    """Adapt any record iterable into the streamed-source protocol.

    Args:
        records: A zero-argument callable returning a fresh iterator of
            :class:`TraceRecord` in trace order. A callable (not a bare
            iterator) because a source may be replayed more than once —
            e.g. a sweep re-driving the same stream at many capacities.
        num_records: Declared total request count, when the producer knows
            it ahead of time; ``None`` for open-ended streams.
    """

    def __init__(
        self,
        records: Callable[[], Iterable[TraceRecord]],
        num_records: Optional[int] = None,
    ):
        self._records = records
        self.num_records = num_records

    def interned_chunks(
        self, chunk_size: int, spans=None
    ) -> Iterator["InternedChunk"]:
        """Intern the stream incrementally into ``chunk_size``-record chunks.

        Dense ids continue across chunks (one :class:`ChunkingInterner`
        per iteration), so consecutive chunks replay exactly like the
        materialised trace would.

        ``spans`` (an optional :class:`repro.obs.spans.SpanTracer`) times
        each chunk's intern pass as an ``intern`` span — a child of the
        engine's source span, separating interning from raw generation
        inside the generation-vs-replay wall split. Telemetry only; the
        emitted chunks are identical with or without it.
        """
        if chunk_size <= 0:
            raise TraceError(f"chunk_size must be positive, got {chunk_size}")
        # Imported here: repro.fastpath sits above the trace layer.
        from repro.fastpath.interning import ChunkingInterner

        interner = ChunkingInterner()
        traced = spans is not None
        batch: List[TraceRecord] = []
        for record in self._records():
            batch.append(record)
            if len(batch) >= chunk_size:
                if traced:
                    spans.begin("intern", "source")
                    chunk = interner.intern_chunk(batch)
                    spans.end(records=len(batch))
                    yield chunk
                else:
                    yield interner.intern_chunk(batch)
                batch = []
        if batch:
            if traced:
                spans.begin("intern", "source")
                chunk = interner.intern_chunk(batch)
                spans.end(records=len(batch))
                yield chunk
            else:
                yield interner.intern_chunk(batch)


class SyntheticTraceStream(RecordStream):
    """Chunked synthetic generation: the BU-like workload as a stream.

    Drives :meth:`BULikeTraceGenerator.iter_columns` — the *same*
    emission loop ``generate_trace`` materialises, so the RNG consumption
    order and every request are identical by construction::

        stream = SyntheticTraceStream(SyntheticTraceConfig(num_requests=10**8))
        result = run_simulation(config, stream)   # O(chunk) request memory

    Interning is fused into generation: :meth:`interned_chunks` maps the
    generator's document and client indices straight to dense
    first-appearance ids, with no :class:`TraceRecord`, per-request URL
    or session string, or :class:`ChunkingInterner` in between. The
    chunks equal those of ``RecordStream(generator.iter_records)``
    field for field.

    ``num_records`` is the configured request count, so sweep progress
    totals are exact without generating anything up front.
    """

    def __init__(self, config: Optional[SyntheticTraceConfig] = None):
        generator = BULikeTraceGenerator(config)
        super().__init__(
            generator.iter_records, num_records=generator.config.num_requests
        )
        self._generator = generator
        self.config = generator.config
        # The config fully determines every emitted record (one seeded
        # RNG), so its canonical JSON is a sound content address for the
        # stream — namespaced apart from record-level Trace fingerprints.
        canonical = json.dumps(
            asdict(self.config), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        self.fingerprint = f"synthetic:{digest}"

    def interned_chunks(
        self, chunk_size: int, spans=None
    ) -> Iterator["InternedChunk"]:
        """Generate the stream as ``chunk_size``-request interned chunks.

        Dense ids are assigned in first-appearance order through two flat
        tables indexed by generator document and client index, exactly as
        :class:`ChunkingInterner` would assign them to the records' URLs
        and client names (both are one-to-one with the indices). Only a
        chunk's *new* documents and clients get their strings formatted.

        ``spans`` (an optional :class:`repro.obs.spans.SpanTracer`) times
        each chunk's id mapping as an ``intern`` span, a child of the
        engine's source span; the generation loop itself is the source
        span's self time. The mapping costs a few list and dict steps per
        distinct index, so the span is a small share of each pull.
        Telemetry only; the emitted chunks are identical with or without it.
        """
        if chunk_size <= 0:
            raise TraceError(f"chunk_size must be positive, got {chunk_size}")
        # Imported here: repro.fastpath sits above the trace layer.
        from repro.fastpath.interning import InternedChunk

        config = self.config
        doc_ids_of = [_UNSEEN] * config.num_documents
        client_ids_of = [_UNSEEN] * config.num_clients
        base_docs = base_clients = base_records = 0
        traced = spans is not None
        for timestamps, client_idx, docs, sizes, _ in self._generator.iter_columns(
            chunk_size
        ):
            if traced:
                spans.begin("intern", "source")
            doc_ids, new_docs = _first_appearance_ids(docs, doc_ids_of, base_docs)
            clients, new_clients = _first_appearance_ids(
                client_idx, client_ids_of, base_clients
            )
            chunk = InternedChunk(
                doc_ids=doc_ids,
                sizes=sizes,
                timestamps=timestamps,
                clients=clients,
                new_urls=[document_url(doc) for doc in new_docs],
                new_client_names=[client_name(ci) for ci in new_clients],
                base_docs=base_docs,
                base_clients=base_clients,
                base_records=base_records,
            )
            if traced:
                spans.end(records=chunk.num_records)
            yield chunk
            base_docs += len(new_docs)
            base_clients += len(new_clients)
            base_records += len(doc_ids)


#: Dense-id table entry of an index not seen yet.
_UNSEEN = -1


def _first_appearance_ids(
    indices: List[int], dense_of: List[int], base: int
) -> Tuple[List[int], List[int]]:
    """Map ``indices`` to dense ids, assigning new ids in first-appearance order.

    ``dense_of`` is the persistent index -> dense id table (``_UNSEEN``
    for indices not met yet), updated in place; ``base`` is the number of
    ids handed out before this call. Returns the mapped column and the
    indices first seen here, in the order their ids were assigned.
    """
    # dict.fromkeys keeps first-appearance order, so the Python-level
    # loop runs once per distinct index, not once per request.
    new = [index for index in dict.fromkeys(indices) if dense_of[index] == _UNSEEN]
    for dense, index in enumerate(new, base):
        dense_of[index] = dense
    ids = list(map(dense_of.__getitem__, indices))
    return ids, new


__all__ = [
    "RecordStream",
    "SyntheticTraceStream",
    "source_fingerprint",
    "source_num_records",
]
