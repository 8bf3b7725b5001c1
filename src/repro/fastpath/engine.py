"""The columnar replay engine.

One function, :func:`simulate_columnar`, replays a trace through the exact
protocol sequence of the object core — local lookup, ICP probe, remote or
origin HTTP fetch, placement decisions, hierarchical escalation — over
columnar state: per-cache parallel arrays indexed by dense doc id, an
array-backed intrusive LRU list or lazy LFU heap for victim order, and a
ring-buffer expiration-age tracker per cache. The replay loop performs no
per-request allocation (lint rule RPR009 enforces this statically).

Traces replay either whole (the classic path, using the per-trace memoised
columns) or as a stream of :class:`repro.fastpath.interning.InternedChunk`
slices with O(chunk) memory: every per-doc state array grows by exactly
the chunk's intern-table delta before its requests replay, so chunked and
whole-trace replay are byte-identical for any chunk size (the chunking
differential tests assert this, events included).

Byte identity with the object core is the contract, not an aspiration:

* Every expiration-age *read* the object core performs is mirrored here in
  the same order — in the time-window mode a read trims the window (a side
  effect), so even decision reads whose value is unused (the ad-hoc
  scheme's audit fields) must happen.
* Window sums follow the same ``+=``/``-=`` sequence as the deque tracker
  (see :mod:`repro.fastpath.ringtracker`), so ages are bit-equal floats.
* HTTP/ICP wire lengths use the same arithmetic as
  :class:`repro.protocol.http.HttpRequest` / ``HttpResponse`` /
  :mod:`repro.protocol.icp` (asserted by tests against the real classes).
* Metric and latency accumulation orders match ``GroupMetrics.observe``.

Configurations outside the engine's envelope (custom policies, the
sanitizer, stochastic latency, ICP loss injection, per-request outcome
consumers) report a reason via
:func:`repro.fastpath.columnar_unsupported_reason`, which interprets the
declared :data:`repro.fastpath.FALLBACK_MATRIX`; ``run_simulation`` logs
it and falls back to the object engine.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.architecture.base import split_capacity
from repro.cache.expiration import check_window
from repro.cache.stats import CacheStats
from repro.core.placement import EAScheme
from repro.errors import SimulationError, TraceError
from repro.fastpath import columnar_unsupported_reason
from repro.fastpath.interning import InternedChunk, client_leaf_positions
from repro.fastpath.ringtracker import RingAgeTracker
from repro.fastpath.structures import IntrusiveLRUList, LFUVictimHeap
from repro.network.bus import MessageCounters
from repro.network.latency import ComponentLatencyModel, ConstantLatencyModel
from repro.network.topology import StarTopology, two_level_tree
from repro.protocol.http import format_expiration_age
from repro.simulation.metrics import GroupMetrics, average_cache_expiration_age
from repro.simulation.results import SimulationResult
from repro.trace.record import Trace

#: Requests per chunk when replaying a streamed source that does not name
#: a chunk size. Large enough to amortise per-chunk column building,
#: small enough that the resident columns stay tens of megabytes.
DEFAULT_CHUNK_SIZE = 1 << 18


def _chunk_stream(trace, chunk_size: Optional[int], spans=None) -> Iterator[Tuple]:
    """Yield ``(chunk, cached_source)`` pairs for the replay loop.

    ``cached_source`` is the backing :class:`InternedTrace` when the chunk
    covers a whole materialised trace — the engine then uses the per-trace
    memoised columns (record sizes, digits, leaf assignment) instead of
    recomputing them. Streamed sources (anything exposing
    ``interned_chunks(chunk_size)``) and genuinely chunked traces yield
    ``None`` and the engine derives per-chunk columns from the intern
    deltas.

    ``spans`` (an optional :class:`repro.obs.spans.SpanTracer`) is handed
    to sources that accept it, so generation/decoding work inside the
    source shows up as child spans of the engine's source spans; sources
    without span support are called plain.
    """
    if isinstance(trace, Trace):
        if spans is not None:
            with spans.span("intern", "source"):
                interned = trace.interned()
        else:
            interned = trace.interned()
        if chunk_size is None or chunk_size >= max(interned.num_records, 1):
            whole = InternedChunk(
                doc_ids=interned.doc_ids,
                sizes=interned.sizes,
                timestamps=interned.timestamps,
                clients=interned.clients,
                new_urls=interned.urls,
                new_client_names=interned.client_names,
                base_docs=0,
                base_clients=0,
                base_records=0,
            )
            # Share the per-doc protocol columns already computed at intern
            # time instead of re-deriving them from the URL strings.
            whole._new_url_lens = interned.url_lens
            whole._new_icp_probe_bytes = interned.icp_probe_bytes
            return iter(((whole, interned),))
        return ((chunk, None) for chunk in interned.chunks(chunk_size))
    size = chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE
    if spans is not None:
        try:
            # Generator functions validate keywords at call time, so an
            # unsupported source raises here, not mid-iteration.
            chunks = trace.interned_chunks(size, spans=spans)
        except TypeError:
            chunks = trace.interned_chunks(size)
    else:
        chunks = trace.interned_chunks(size)
    return ((chunk, None) for chunk in chunks)


def group_capacities(config, num_caches: int) -> List[int]:
    """Validate ``config`` as the object core does, then split its capacity.

    The object core rejects a config while it builds the group and starts
    the replay: the placement scheme first, then the capacity split, then
    each cache's expiration-age window, then the record-size patch. This
    runs the same validators in the same order, so every engine raises the
    same exception with the same message for the same config. Returns the
    equal per-cache capacities of ``build_caches``.
    """
    if config.scheme == "ea":
        EAScheme(config.tie_break, config.max_replica_fraction)
    capacity = split_capacity(config.aggregate_capacity, [1.0] * num_caches)
    # Inside the envelope the policy name doubles as the tracker kind.
    check_window(
        config.policy, config.window_mode, config.window_size, config.window_seconds
    )
    if config.patch_size <= 0:
        # Same guard (and message) patch_zero_sizes raises in the object path.
        raise TraceError(f"patch_size must be positive, got {config.patch_size}")
    return capacity


def simulate_columnar(
    config, trace, obs=None, chunk_size: Optional[int] = None,
    spans=None, timeseries=None,
) -> SimulationResult:
    """Replay ``trace`` under ``config`` on the columnar engine.

    Raises :class:`SimulationError` when the config is outside the
    engine's envelope — use
    :func:`repro.simulation.simulator.run_simulation` for transparent
    fallback.

    Args:
        trace: A :class:`~repro.trace.record.Trace`, or any streamed
            source exposing ``interned_chunks(chunk_size)`` (packed
            columnar readers, chunked synthetic generators). Streamed
            sources replay with O(chunk) memory.
        obs: Optional :class:`repro.obs.events.RunRecorder`. Emission
            points mirror the object core exactly — same events, same
            order, same scalar payloads — so both engines produce
            byte-identical ``repro-events/1`` streams (enforced by the
            differential tests in ``tests/obs``). ``None`` keeps the loop
            on its zero-overhead path (one hoisted bool guard per branch).
        chunk_size: Replay the trace in interned chunks of this many
            requests. ``None`` replays a materialised trace whole (and a
            streamed source in :data:`DEFAULT_CHUNK_SIZE` chunks). Results
            and event streams are byte-identical for every choice.
        spans: Optional :class:`repro.obs.spans.SpanTracer`. The engine
            opens one ``engine:columnar`` span, times each source pull
            (generation/decoding) and each chunk replay, and attaches
            request counters. Pure telemetry: results, event bytes, and
            digests are identical with or without it (differential tests
            in ``tests/obs``); ``None`` costs nothing.
        timeseries: Optional
            :class:`repro.obs.timeseries.TimeseriesRecorder`; receives
            one cumulative counter reading per replayed chunk. Same
            out-of-band contract as ``spans``.
    """
    reason = columnar_unsupported_reason(config)
    if reason is not None:
        raise SimulationError(f"config unsupported by the columnar engine: {reason}")
    patch = config.patch_size
    partitioner = config.partitioner

    # ---------------------------------------------------------------- #
    # Topology, capacities, partitioning
    # ---------------------------------------------------------------- #
    hierarchical = config.architecture == "hierarchical"
    if hierarchical:
        topology = two_level_tree(config.num_caches, config.num_parents)
    else:
        topology = StarTopology(config.num_caches)
    num_caches = topology.num_caches
    leaves = topology.leaves()
    num_leaves = len(leaves)
    rr_request = partitioner == "round-robin-request"
    hash_partitioner = partitioner == "hash"
    parent = [topology.parent_of(i) for i in range(num_caches)]
    probe_targets: List[tuple] = [() for _ in range(num_caches)]
    for leaf in leaves:
        targets = list(topology.siblings_of(leaf))
        if hierarchical and parent[leaf] is not None:
            targets.append(parent[leaf])
        probe_targets[leaf] = tuple(targets)

    capacity = group_capacities(config, num_caches)

    # "cacheN" Via-header lengths, matching build_caches' naming.
    sender_len = [5 + len(str(i)) for i in range(num_caches)]

    # ---------------------------------------------------------------- #
    # Per-cache columnar state — empty, grown by each chunk's intern delta
    # ---------------------------------------------------------------- #
    num_docs = 0
    lru_kind = config.policy == "lru"
    present = [bytearray() for _ in range(num_caches)]
    doc_size: List[List[int]] = [[] for _ in range(num_caches)]
    entry_time: List[List[float]] = [[] for _ in range(num_caches)]
    last_hit: List[List[float]] = [[] for _ in range(num_caches)]
    hit_count: List[List[int]] = [[] for _ in range(num_caches)]
    used = [0] * num_caches
    copies = [0] * num_caches
    if lru_kind:
        order: List = [IntrusiveLRUList(0) for _ in range(num_caches)]
    else:
        order = [LFUVictimHeap(0) for _ in range(num_caches)]
    trackers = [
        RingAgeTracker(
            kind="lru" if lru_kind else "lfu",
            window_mode=config.window_mode,
            window_size=config.window_size,
            window_seconds=config.window_seconds,
        )
        for _ in range(num_caches)
    ]
    age_of = [tracker.cache_expiration_age for tracker in trackers]
    record_age = [tracker.record for tracker in trackers]

    # Per-doc protocol columns and per-client leaf assignment, grown with
    # the intern tables (engine-owned copies; chunk deltas append here).
    url_len: List[int] = []
    icp_pair: List[int] = []
    url_of: List[str] = []
    client_leaf: List[int] = []

    # Per-cache stats columns (CacheStats fields).
    st_lookups = [0] * num_caches
    st_local_hits = [0] * num_caches
    st_local_misses = [0] * num_caches
    st_remote_served = [0] * num_caches
    st_admissions = [0] * num_caches
    st_rejections = [0] * num_caches
    st_evictions = [0] * num_caches
    st_bytes_local = [0] * num_caches
    st_bytes_remote = [0] * num_caches
    st_bytes_admitted = [0] * num_caches
    st_bytes_evicted = [0] * num_caches
    st_declined = [0] * num_caches
    st_promo_granted = [0] * num_caches
    st_promo_withheld = [0] * num_caches

    # Bus counters: [icp_q, icp_r, http_req, http_resp, icp_B, hdr_B, body_B]
    bus = [0, 0, 0, 0, 0, 0, 0]
    # Metrics: [requests, local, remote, miss, B_req, B_local, B_remote, B_miss]
    met = [0, 0, 0, 0, 0, 0, 0, 0]
    latency_sum = [0.0]

    # ---------------------------------------------------------------- #
    # Scheme / latency / strategy parameters
    # ---------------------------------------------------------------- #
    ea = config.scheme == "ea"
    tie_requester = config.tie_break == "requester"
    replica_cap = config.max_replica_fraction if ea else None
    max_age_strategy = config.responder_strategy == "max_age"
    constant_latency = config.latency == "constant"
    if constant_latency:
        model = ConstantLatencyModel()
        lat_local = model.local_hit
        lat_remote = model.remote_hit
        lat_miss = model.miss
        lan_bw = wan_bw = 1.0  # unused
    else:
        model = ComponentLatencyModel()
        lat_local = model.local_service
        lat_remote = model.icp_rtt + model.proxy_http_setup
        lat_miss = model.icp_rtt + model.origin_http_setup
        lan_bw = model.lan_bandwidth
        wan_bw = model.wan_bandwidth
    fmt_age = format_expiration_age
    warmup = config.warmup_requests

    # ---------------------------------------------------------------- #
    # Observability (hoisted: the disabled path costs one bool test)
    # ---------------------------------------------------------------- #
    rec = obs
    emit = rec is not None
    probe_hit_hops = 1 if hierarchical else 0
    kind_local = "local_hit"
    kind_remote = "remote_hit"
    kind_miss = "miss"

    def _snapshot_rows(due: float):
        """Per-cache gauge rows mirroring CooperativeSimulator._snapshot_rows."""
        return [
            (
                age_of[c](due),
                used[c],
                copies[c],
                st_lookups[c],
                st_local_hits[c],
                st_remote_served[c],
                st_evictions[c],
            )
            for c in range(num_caches)
        ]

    # ---------------------------------------------------------------- #
    # Shared operations (closures over the columnar state)
    # ---------------------------------------------------------------- #

    def _admit(cache: int, doc: int, size: int, now: float) -> bool:
        """Mirror of ProxyCache.admit; returns AdmitOutcome.admitted."""
        held = present[cache]
        if held[doc]:
            # Already cached: refresh instead of re-admitting.
            last_hit[cache][doc] = now
            bumped = hit_count[cache][doc] + 1
            hit_count[cache][doc] = bumped
            if lru_kind:
                order[cache].touch(doc)
            else:
                order[cache].push(doc, bumped)
            return True
        cap = capacity[cache]
        if size > cap:
            st_rejections[cache] += 1
            return False
        in_use = used[cache]
        if in_use + size > cap:
            sizes_c = doc_size[cache]
            last_c = last_hit[cache]
            entry_c = entry_time[cache]
            hits_c = hit_count[cache]
            order_c = order[cache]
            record_c = record_age[cache]
            evicted = 0
            evicted_bytes = 0
            while in_use + size > cap:
                victim = order_c.head() if lru_kind else order_c.victim()
                held[victim] = 0
                victim_size = sizes_c[victim]
                in_use -= victim_size
                order_c.remove(victim)
                if lru_kind:
                    age = now - last_c[victim]
                else:
                    age = (now - entry_c[victim]) / hits_c[victim]
                record_c(age, now)
                if emit:
                    rec.eviction(now, cache, url_of[victim], victim_size, age)
                evicted += 1
                evicted_bytes += victim_size
            st_evictions[cache] += evicted
            st_bytes_evicted[cache] += evicted_bytes
            copies[cache] -= evicted
        held[doc] = 1
        doc_size[cache][doc] = size
        entry_time[cache][doc] = now
        last_hit[cache][doc] = now
        hit_count[cache][doc] = 1
        used[cache] = in_use + size
        if lru_kind:
            order[cache].push(doc)
        else:
            order[cache].push(doc, 1)
        st_admissions[cache] += 1
        st_bytes_admitted[cache] += size
        copies[cache] += 1
        return True

    def _serve_remote(cache: int, doc: int, now: float, refresh: bool) -> int:
        """Mirror of ProxyCache.serve_remote; returns the entry size."""
        size = doc_size[cache][doc]
        st_remote_served[cache] += 1
        st_bytes_remote[cache] += size
        if refresh:
            st_promo_granted[cache] += 1
            last_hit[cache][doc] = now
            bumped = hit_count[cache][doc] + 1
            hit_count[cache][doc] = bumped
            if lru_kind:
                order[cache].touch(doc)
            else:
                order[cache].push(doc, bumped)
        else:
            st_promo_withheld[cache] += 1
        return size

    def _resolve(node: int, doc: int, record_size: int, digits: int,
                 requester_age: float, now: float):
        """Mirror of HierarchicalGroup._resolve_at.

        Returns ``(size, found_at, node_age, hops)``; ``found_at`` None →
        origin.
        """
        if present[node][doc]:
            # EA promotes only a longer-lived copy; ad-hoc always refreshes
            # (and performs no age read for the decision).
            refresh = age_of[node](now) > requester_age if ea else True
            size = _serve_remote(node, doc, now, refresh)
            node_age = age_of[node](now)
            age_text = fmt_age(node_age)
            bus[3] += 1
            bus[5] += 70 + len(str(size)) + sender_len[node] + len(age_text)
            bus[6] += size
            if emit:
                rec.promotion(now, node, url_of[doc], requester_age, node_age, refresh)
            return size, node, node_age, 1

        grandparent = parent[node]
        node_age = age_of[node](now)
        if grandparent is None:
            # Root: fetch from the origin (request and response carry no age).
            bus[2] += 1
            bus[5] += url_len[doc] + sender_len[node] + 24
            bus[3] += 1
            bus[5] += 50 + digits
            bus[6] += record_size
            size = record_size
            found_at = None
            hops = 1
        else:
            age_text = fmt_age(node_age)
            bus[2] += 1
            bus[5] += url_len[doc] + sender_len[node] + len(age_text) + 50
            size, found_at, _upstream, above = _resolve(
                grandparent, doc, record_size, digits, node_age, now
            )
            hops = above + 1
        # Parent-store rule: both schemes read the node's own age.
        own_age = age_of[node](now)
        if (own_age > requester_age) if ea else True:
            stored_node = _admit(node, doc, size, now)
        else:
            st_declined[node] += 1
            stored_node = False
        if emit:
            rec.placement_node(
                now, "parent", node, url_of[doc], size, own_age, requester_age,
                stored_node,
            )
        node_age = age_of[node](now)
        age_text = fmt_age(node_age)
        bus[3] += 1
        bus[5] += 70 + len(str(size)) + sender_len[node] + len(age_text)
        bus[6] += size
        return size, found_at, node_age, hops

    # ---------------------------------------------------------------- #
    # Chunked replay — state grows per intern delta, then the zero-
    # allocation request loop runs over the chunk's columns
    # ---------------------------------------------------------------- #
    processed = 0
    traced = spans is not None
    sampling = timeseries is not None
    chunks = _chunk_stream(trace, chunk_size, spans)
    if traced:
        # Imported lazily so untraced replay never touches repro.obs.
        from repro.obs.spans import source_label

        spans.begin("engine:columnar", "engine")
        chunks = spans.wrap_source(chunks, source_label(trace))
    for chunk, cached_source in chunks:
        if traced:
            spans.begin("chunk", "replay")
        new_urls = chunk.new_urls
        if new_urls:
            add = len(new_urls)
            num_docs += add
            url_of.extend(new_urls)
            url_len.extend(chunk.new_url_lens)
            icp_pair.extend(chunk.new_icp_probe_bytes)
            zero_bytes = bytes(add)
            zero_ints = [0] * add
            zero_floats = [0.0] * add
            for c in range(num_caches):
                present[c].extend(zero_bytes)
                doc_size[c].extend(zero_ints)
                entry_time[c].extend(zero_floats)
                last_hit[c].extend(zero_floats)
                hit_count[c].extend(zero_ints)
                order[c].grow(num_docs)

        if cached_source is not None:
            # Whole materialised trace: per-trace memoised columns.
            leaf_column = cached_source.leaf_column(partitioner, leaves)
            record_sizes = cached_source.record_sizes(patch)
            size_digits = cached_source.size_digits(patch)
        else:
            new_clients = chunk.new_client_names
            if new_clients and not rr_request:
                base_client = len(client_leaf)
                if hash_partitioner:
                    client_leaf.extend(
                        leaves[pos]
                        for pos in client_leaf_positions(new_clients, num_leaves)
                    )
                else:  # round-robin-client: intern order == appearance order
                    client_leaf.extend(
                        leaves[(base_client + i) % num_leaves]
                        for i in range(len(new_clients))
                    )
            if rr_request:
                base_record = chunk.base_records
                leaf_column = [
                    leaves[(base_record + i) % num_leaves]
                    for i in range(chunk.num_records)
                ]
            else:
                leaf_column = [client_leaf[client] for client in chunk.clients]
            chunk_sizes = chunk.sizes
            if 0 in chunk_sizes:
                record_sizes = [
                    patch if size == 0 else size for size in chunk_sizes
                ]
            else:
                record_sizes = chunk_sizes
            size_digits = [len(str(size)) for size in record_sizes]

        for cache, doc, now, record_size, digits in zip(
            leaf_column, chunk.doc_ids, chunk.timestamps, record_sizes, size_digits
        ):
            if emit:
                rec.maybe_snapshot(now, _snapshot_rows)
            st_lookups[cache] += 1
            held = present[cache]
            if held[doc]:
                # Local hit: record_hit + policy refresh, then observe.
                size = doc_size[cache][doc]
                st_local_hits[cache] += 1
                st_bytes_local[cache] += size
                last_hit[cache][doc] = now
                bumped = hit_count[cache][doc] + 1
                hit_count[cache][doc] = bumped
                if lru_kind:
                    order[cache].touch(doc)
                else:
                    order[cache].push(doc, bumped)
                processed += 1
                if processed > warmup:
                    met[0] += 1
                    met[4] += size
                    latency_sum[0] += lat_local
                    met[1] += 1
                    met[5] += size
                if emit:
                    rec.request(
                        now, cache, url_of[doc], kind_local, size, None, False,
                        False, 0,
                    )
                continue

            st_local_misses[cache] += 1
            targets = probe_targets[cache]
            holders = [t for t in targets if present[t][doc]]
            num_targets = len(targets)
            bus[0] += num_targets
            bus[1] += num_targets
            bus[4] += num_targets * icp_pair[doc]

            if holders:
                # Remote hit via probe (same path for both architectures).
                if max_age_strategy:
                    responder = holders[0]
                    best_age = age_of[responder](now)
                    for candidate in holders[1:]:
                        candidate_age = age_of[candidate](now)
                        if candidate_age > best_age:
                            responder = candidate
                            best_age = candidate_age
                else:  # "first": lowest index
                    responder = min(holders)
                # Scheme decision (both schemes read requester then responder).
                requester_age = age_of[cache](now)
                responder_age = age_of[responder](now)
                if ea:
                    if requester_age > responder_age:
                        store = True
                    elif requester_age == responder_age:
                        store = tie_requester
                    else:
                        store = False
                    refresh = responder_age > requester_age
                else:
                    store = True
                    refresh = True
                size = doc_size[responder][doc]
                if (
                    store
                    and replica_cap is not None
                    and size > replica_cap * capacity[cache]
                ):
                    store = False
                    refresh = True
                age_text = fmt_age(requester_age)
                bus[2] += 1
                bus[5] += url_len[doc] + sender_len[cache] + len(age_text) + 50
                _serve_remote(responder, doc, now, refresh)
                age_text = fmt_age(responder_age)
                bus[3] += 1
                bus[5] += 70 + len(str(size)) + sender_len[responder] + len(age_text)
                bus[6] += size
                if emit:
                    rec.promotion(
                        now, responder, url_of[doc], requester_age, responder_age,
                        refresh,
                    )
                if store:
                    stored_here = _admit(cache, doc, size, now)
                else:
                    st_declined[cache] += 1
                    stored_here = False
                if emit:
                    rec.placement_remote(
                        now, cache, url_of[doc], size, requester_age, responder_age,
                        stored_here, refresh,
                    )
                processed += 1
                if processed > warmup:
                    met[0] += 1
                    met[4] += size
                    if constant_latency:
                        latency_sum[0] += lat_remote
                    else:
                        latency_sum[0] += lat_remote + size / lan_bw
                    met[2] += 1
                    met[6] += size
                if emit:
                    rec.request(
                        now, cache, url_of[doc], kind_remote, size, responder,
                        stored_here, refresh, probe_hit_hops,
                    )
                continue

            up = parent[cache]
            if up is None:
                # Group-wide miss (or hierarchy root): origin fetch, store local.
                bus[2] += 1
                bus[5] += url_len[doc] + sender_len[cache] + 24
                bus[3] += 1
                bus[5] += 50 + digits
                bus[6] += record_size
                own_age = age_of[cache](now)  # origin_fetch decision reads the own age
                stored_here = _admit(cache, doc, record_size, now)
                if emit:
                    rec.placement_origin(
                        now, cache, url_of[doc], record_size, own_age, stored_here
                    )
                processed += 1
                if processed > warmup:
                    met[0] += 1
                    met[4] += record_size
                    if constant_latency:
                        latency_sum[0] += lat_miss
                    else:
                        latency_sum[0] += lat_miss + record_size / wan_bw
                    met[3] += 1
                    met[7] += record_size
                if emit:
                    rec.request(
                        now, cache, url_of[doc], kind_miss, record_size, None,
                        stored_here, False, 0,
                    )
                continue

            # Hierarchical escalation: all probes negative, parent resolves.
            requester_age = age_of[cache](now)
            age_text = fmt_age(requester_age)
            bus[2] += 1
            bus[5] += url_len[doc] + sender_len[cache] + len(age_text) + 50
            size, found_at, upstream_age, hops = _resolve(
                up, doc, record_size, digits, requester_age, now
            )
            # Child-store rule (both schemes read the child's own age).
            child_age = age_of[cache](now)
            if ea:
                if child_age > upstream_age:
                    store = True
                elif child_age == upstream_age:
                    store = tie_requester
                else:
                    store = False
            else:
                store = True
            if store:
                stored_here = _admit(cache, doc, size, now)
            else:
                st_declined[cache] += 1
                stored_here = False
            if emit:
                rec.placement_node(
                    now, "child", cache, url_of[doc], size, child_age, upstream_age,
                    stored_here,
                )
            processed += 1
            if processed > warmup:
                met[0] += 1
                met[4] += size
                if found_at is not None:
                    if constant_latency:
                        latency_sum[0] += lat_remote
                    else:
                        latency_sum[0] += lat_remote + size / lan_bw
                    met[2] += 1
                    met[6] += size
                else:
                    if constant_latency:
                        latency_sum[0] += lat_miss
                    else:
                        latency_sum[0] += lat_miss + size / wan_bw
                    met[3] += 1
                    met[7] += size
            if emit:
                rec.request(
                    now, cache, url_of[doc],
                    kind_remote if found_at is not None else kind_miss,
                    size, found_at, stored_here, False, hops,
                )

        if traced:
            spans.end(records=chunk.num_records)
        if sampling:
            timeseries.sample(
                requests=processed,
                local_hits=sum(st_local_hits),
                remote_hits=sum(st_remote_served),
                evictions=sum(st_evictions),
                admissions=sum(st_admissions),
                declined=sum(st_declined),
                promoted=sum(st_promo_granted),
                bytes_local=sum(st_bytes_local),
                bytes_remote=sum(st_bytes_remote),
                body_bytes=bus[6],
                residency_bytes=sum(used),
                t_last=float(chunk.timestamps[-1]) if chunk.num_records else 0.0,
            )
    if traced:
        spans.end(requests=processed)

    # ---------------------------------------------------------------- #
    # Result assembly (object-core dataclasses; identical serialisation)
    # ---------------------------------------------------------------- #
    metrics = GroupMetrics(
        requests=met[0],
        local_hits=met[1],
        remote_hits=met[2],
        misses=met[3],
        bytes_requested=met[4],
        bytes_local_hit=met[5],
        bytes_remote_hit=met[6],
        bytes_miss=met[7],
        total_measured_latency=latency_sum[0],
    )
    counters = MessageCounters(
        icp_queries=bus[0],
        icp_replies=bus[1],
        http_requests=bus[2],
        http_responses=bus[3],
        icp_bytes=bus[4],
        http_header_bytes=bus[5],
        http_body_bytes=bus[6],
    )
    cache_stats = [
        CacheStats(
            lookups=st_lookups[c],
            local_hits=st_local_hits[c],
            local_misses=st_local_misses[c],
            remote_hits_served=st_remote_served[c],
            admissions=st_admissions[c],
            rejections=st_rejections[c],
            evictions=st_evictions[c],
            bytes_served_local=st_bytes_local[c],
            bytes_served_remote=st_bytes_remote[c],
            bytes_admitted=st_bytes_admitted[c],
            bytes_evicted=st_bytes_evicted[c],
            placements_declined=st_declined[c],
            promotions_granted=st_promo_granted[c],
            promotions_withheld=st_promo_withheld[c],
        )
        for c in range(num_caches)
    ]
    ages = [age_of[c](None) for c in range(num_caches)]
    unique_documents = sum(1 for held in zip(*present) if any(held))
    total_copies = sum(copies)
    replication = total_copies / unique_documents if unique_documents else 0.0
    return SimulationResult(
        config=config.to_dict(),
        metrics=metrics,
        message_counters=counters,
        cache_stats=cache_stats,
        expiration_ages=ages,
        avg_cache_expiration_age=average_cache_expiration_age(ages),
        unique_documents=unique_documents,
        total_copies=total_copies,
        replication_factor=replication,
        estimated_latency=metrics.estimated_latency(),
        manifest=None,
    )
