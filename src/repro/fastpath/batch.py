"""The batch replay engine: vectorised precompute + run-compressed loop.

:func:`simulate_batch` (``engine="batch"``) replays the same protocol
sequence as the object core and the columnar engine, but hoists every
request-independent computation out of the per-request loop into
whole-chunk batch precomputation:

* **Leaf assignment, patched record sizes, Content-Length digit counts**
  — per-request columns computed in one vectorised pass (numpy when
  available, pure-Python list columns otherwise; see
  :mod:`repro.fastpath.numeric`).
* **Wire-length components** — the request-header byte count of a remote
  fetch and the full origin request+response header bytes depend only on
  the (doc, leaf) pair, so they are precomputed per request and summed by
  outcome class after the loop.
* **Flat slot addressing** — per-(cache, doc) state lives in single flat
  arrays indexed ``slot = doc * num_caches + cache``, so the hit path
  costs one index computation, no nested list hops.
* **Lazy LRU** — recency is not a linked list but a per-cache min-heap
  of int keys ``(touch_index << 32) | slot`` plus a flat ``seq`` array
  holding each resident copy's latest touch index (the global request
  index). An int key orders exactly like the ``(touch_index, slot)``
  pair it packs (slots stay below 2**32, which the engine enforces) and
  compares without tuple allocation. A hit refreshes recency with *one*
  array store; the heap is only consulted at eviction time, where stale
  entries (``seq`` moved on) are lazily re-queued at their live index.
  The accepted victim is exactly the resident slot with the minimum
  current touch index — the LRU list's victim — so eviction order (and
  therefore every expiration age) is identical.
* **Lazy age window** — an eviction only appends its document age to
  the cache's log. :func:`fold_ages` folds the pending ages into the
  window sum when an age is actually read (a remote hit's placement
  decision, a ``max_age`` probe, the final result), with the same
  ``+=``/``-=`` sequence as the eager ring tracker, so every age is
  bit-equal. Eviction, byte-eviction and copy counts are not counted
  per victim either: each follows from admissions minus what is still
  resident.
* **Run-length segmentation** — consecutive requests for the same (doc,
  leaf) pair cannot change any observable decision after the first one
  resolves to a resident copy, so the stateful loop iterates *run starts*
  only; members are accounted in the vectorised post-pass.
* **Hit-run bulk scanning (the warm regime)** — once any cache has
  filled, replay still spends most of its time on *local hits on
  already-resident documents* (Zipf skew), whose only state effects are
  the two recency stores. The ``present_b`` byte table doubles as a
  dense residency bitmap: a vectorised gather classifies a whole block
  of pending runs at once (``resident[slot] != 0``), only the
  predicted-miss runs (miss, remote hit, admission, eviction) replay
  through the scalar protocol path, and all the predicted-hit runs'
  recency touches are applied in *one* fancy-indexed scatter per block
  (duplicate slots resolve last-wins, which is exactly the scalar
  loop's final state). Deferred touches are protected by per-slot
  prediction marks: if an eviction ever selects a marked slot, the
  block's consumed touches are flushed on the spot and the remaining
  classifications are discarded and redone. Local hits can never change
  placement in this protocol — EA placement and promotion decisions
  only happen on *remote* hits, which are local misses at the
  requesting leaf and therefore terminate the run under the residency
  test; the residency bitmap **is** the promotion-armed mask.
* **First-occurrence / compulsory-miss masks (the cold regime)** — while
  no cache has ever filled, every expiration age is ``inf``, EA placement
  decisions are constants, every admission succeeds, and a request can
  change cache state only if it is the *first occurrence of its (doc,
  leaf) slot*. Those first occurrences are found vectorially (one stable
  argsort per chunk, memoised for whole-trace replay), a split index is
  computed where the regime provably ends (first admission that would
  evict, reject, or trip the replica cap), and the prefix replays with a
  Python loop over first occurrences *only* — local hits are pure
  post-pass arithmetic. The general loop takes over at the split.
* **Outcome post-pass** — the loop records one outcome byte per request
  (0 local hit / 2 remote hit / 3 origin miss) plus the served size;
  metrics, per-cache stats, bus counters, and the latency fold are then
  computed from those columns in bulk. The ordered float latency
  accumulation uses ``np.add.accumulate`` (a strict left fold), which is
  bit-identical to the serial ``+=`` sequence.

Byte identity with both existing engines is the contract: the
differential matrix in ``tests/fastpath`` asserts equal ``to_json`` text
across object/columnar/batch for every supported configuration and every
chunking choice.

The vectorised fast loop covers the paper's evaluation envelope —
distributed architecture, LRU replacement, pure expiration-age windows
(``count``/``cumulative``), no observer. Everything else inside the
engine envelope (hierarchical escalation, LFU, time windows, an attached
``RunRecorder``) replays on the chunked columnar core via
:func:`repro.fastpath.engine.simulate_columnar`, which is already
byte-identical — :func:`batch_fastloop_reason` reports which path a
config takes. Configs outside the shared envelope raise, exactly like
``simulate_columnar`` (``run_simulation`` falls back to the object core).
"""

from __future__ import annotations

import math
from array import array
from heapq import heappop, heappush, heapreplace
from typing import List, Optional

from repro.cache.stats import CacheStats
from repro.errors import SimulationError
from repro.fastpath import columnar_unsupported_reason
from repro.fastpath.engine import _chunk_stream, group_capacities, simulate_columnar
from repro.fastpath.interning import client_leaf_positions
from repro.fastpath.numeric import load_numpy
from repro.network.bus import MessageCounters
from repro.network.latency import ComponentLatencyModel, ConstantLatencyModel
from repro.network.topology import StarTopology
from repro.protocol.http import format_expiration_age
from repro.simulation.metrics import GroupMetrics, average_cache_expiration_age
from repro.simulation.results import SimulationResult

_INF = math.inf


def batch_fastloop_reason(config, obs=None) -> Optional[str]:
    """Why ``config`` replays on the chunked columnar core instead of the
    batch fast loop, or None when the vectorised loop applies.

    Purely informational (both paths are byte-identical); the run
    manifest and ``repro analyze`` surface it so fast-loop coverage is
    observable.
    """
    if obs is not None:
        return "an attached observer requires the event-emitting columnar loop"
    if config.architecture != "distributed":
        return "hierarchical escalation replays on the columnar core"
    if config.policy != "lru":
        return "lfu victim accounting replays on the columnar core"
    if config.window_mode not in ("count", "cumulative"):
        return "time-window age reads have trim side effects; columnar core"
    return None


def simulate_batch(
    config, trace, obs=None, chunk_size: Optional[int] = None,
    regimes: Optional[dict] = None, spans=None, timeseries=None,
) -> SimulationResult:
    """Replay ``trace`` under ``config`` on the batch engine.

    Accepts the same sources as :func:`simulate_columnar`: a materialised
    :class:`~repro.trace.record.Trace` or any streamed source exposing
    ``interned_chunks(chunk_size)`` (packed columnar readers, chunked
    synthetic generators); streamed sources replay with O(chunk) memory.
    Raises :class:`SimulationError` for configs outside the shared
    engine envelope — use ``run_simulation`` for transparent fallback.

    ``regimes``, when given a dict, receives the per-regime request
    counts after the run: ``cold`` (vectorised first-occurrence replay),
    ``hit_run`` (warm local hits that never enter the protocol path),
    and ``scalar`` (per-request protocol path). ``hit_run`` has two
    sources: the warm scanner's block scatter, and the scalar core's
    residency recheck and run collapse, which resolve one run at a time.
    On the BU-scale trace at 100 KB–100 MB nearly all of it is the
    second (docs/PERFORMANCE.md, "Where hit-run requests are resolved").
    Configs that replay on the chunked columnar core instead record
    ``fallback_reason``. Counts only — the engine never reads a clock;
    ``repro profile`` derives wall-time shares from the profiler's
    per-function attribution.

    ``spans`` / ``timeseries`` are the out-of-band telemetry channels
    shared with :func:`simulate_columnar` (span tracer; per-chunk sample
    recorder). Unlike an attached observer they do *not* force the
    columnar fallback — the fast loop reports into them at chunk/regime
    granularity, with the wall-clock reads quarantined inside
    ``repro.obs``. Results are byte-identical with or without them.
    """
    reason = columnar_unsupported_reason(config)
    if reason is not None:
        raise SimulationError(f"config unsupported by the batch engine: {reason}")
    loop_reason = batch_fastloop_reason(config, obs)
    if loop_reason is not None:
        # Envelope configs the fast loop does not vectorise replay on the
        # chunked columnar core — byte-identical by its own contract.
        if regimes is not None:
            regimes["fallback_reason"] = loop_reason
        return simulate_columnar(
            config, trace, obs=obs, chunk_size=chunk_size,
            spans=spans, timeseries=timeseries,
        )
    return _simulate_fast(config, trace, chunk_size, regimes, spans, timeseries)


def _simulate_fast(
    config, trace, chunk_size: Optional[int], regimes: Optional[dict] = None,
    spans=None, timeseries=None,
) -> SimulationResult:
    """The vectorised fast loop (distributed + LRU + pure windows, no obs)."""
    np = load_numpy()
    patch = config.patch_size
    partitioner = config.partitioner

    # ---------------------------------------------------------------- #
    # Topology, capacities, partitioning (mirrors simulate_columnar)
    # ---------------------------------------------------------------- #
    topology = StarTopology(config.num_caches)
    num_caches = topology.num_caches
    leaves = topology.leaves()
    num_leaves = len(leaves)
    rr_request = partitioner == "round-robin-request"
    hash_partitioner = partitioner == "hash"
    probe_targets = [tuple(topology.siblings_of(leaf)) for leaf in leaves]
    num_targets = num_caches - 1

    # Equal shares: one scalar serves every admit check.
    cap = group_capacities(config, num_caches)[0]

    # "cacheN" Via-header lengths, matching build_caches' naming.
    sender_len = [5 + len(str(i)) for i in range(num_caches)]

    # ---------------------------------------------------------------- #
    # Flat doc-major state: slot = doc * NC + cache. Growth per chunk is
    # a pure extend — slot numbering never changes. ``seq[slot]`` is the
    # global index of the request that last touched the copy; ``heaps[c]``
    # orders candidates lazily (see the module docstring).
    # ---------------------------------------------------------------- #
    NC = num_caches
    num_docs = 0
    # repro: domains[present_b=cache-slot->any:uint8, pred=cache-slot->any:uint8]
    # repro: domains[dsz=cache-slot->byte-size:int64, lh=cache-slot->age-tick:float64]
    # repro: domains[seq=cache-slot->global-seq:int64]
    present_b = bytearray()
    # Per-slot metadata lives in buffer-protocol columns — ``array`` /
    # ``bytearray`` — so the scalar core (scalar_runs, which runs once
    # per *state-changing* request and dominates evicting replay) gets
    # Python-speed element access, while the warm/cold regimes take
    # zero-copy ``np.frombuffer`` views for bulk scatters. Views are created where needed and dropped before the
    # next growth (a buffer with an exported view cannot be resized).
    # ``array("d")`` holds C doubles, so ``lh`` arithmetic stays bit-
    # and serialisation-identical to the object core's floats.
    dsz = array("q")  # resident copy size
    lh = array("d")  # last-touch timestamp
    seq = array("q")  # last-touch global request index
    pred = bytearray() if np is not None else None
    # Warm-scanner shared cells (see warm_loop). ``pred_conflict`` is set
    # when an eviction invalidated the current block's classifications;
    # ``flush_cb`` holds the active block's flush closure so the scalar
    # core can apply deferred hit touches before evicting a marked slot;
    # ``touched`` records the newest scalar (touch index, timestamp) per
    # slot inside a block so the block-end scatter cannot roll a
    # promotion refresh back to an older bulk value.
    pred_conflict = [False]
    flushed = [False]
    flush_cb: List = [None]
    blk_state: List = [None, None, 0, 0]
    touched: dict = {}
    # Lazy-LRU heaps of (touch index << 32) | slot keys.
    heaps: List[list] = [[] for _ in range(NC)]
    used = [0] * NC

    # Lazy expiration-age windows, one ``[log, done, sum, count]`` per
    # cache (see fold_ages). Evictions append to ``alog[c]`` (the same
    # list as ``win[c][0]``) and mark ``cur_age[c]`` stale with None; a
    # read folds the log first. W == 0 selects the cumulative window.
    W = config.window_size if config.window_mode == "count" else 0
    win: List[list] = [[[], 0, 0.0, 0] for _ in range(NC)]
    alog = [w[0] for w in win]  # repro: domains[any->age-tick:float64]
    # Current age (None while evictions are unfolded) and the formatted
    # age's text length (-1 until a remote hit needs it) per cache.
    cur_age: List = [_INF] * NC
    age_len = [3] * NC  # len("inf")

    def age_of(c: int) -> float:
        age = cur_age[c] = fold_ages(win[c], W)
        age_len[c] = -1
        return age

    # Per-doc protocol columns (engine-owned copies, grown per chunk).
    url_len_l: List[int] = []
    icp_l: List[int] = []
    client_leaf: List[int] = []
    if np is not None:
        url_len_g = _NpGrow(np)
        icp_g = _NpGrow(np)
        client_leaf_g = _NpGrow(np)
        first_size_g = _NpGrow(np)  # -1 until a doc's first request lands
        leaves_np = np.array(leaves, dtype=np.intp)
        sender_np = np.array(sender_len, dtype=np.int64)
        pow10 = np.power(10, np.arange(1, 19, dtype=np.int64))
    else:
        url_len_g = icp_g = client_leaf_g = first_size_g = None
        leaves_np = sender_np = pow10 = None

    # Per-cache stats columns (CacheStats fields).
    st_lookups = [0] * NC
    st_local_hits = [0] * NC
    st_local_misses = [0] * NC
    st_remote_served = [0] * NC
    st_admissions = [0] * NC
    st_rejections = [0] * NC
    st_bytes_local = [0] * NC
    st_bytes_remote = [0] * NC
    st_bytes_admitted = [0] * NC
    st_declined = [0] * NC
    st_promo_granted = [0] * NC
    st_promo_withheld = [0] * NC

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
    rc_on = replica_cap is not None
    rc_limit = replica_cap * cap if rc_on else 0.0
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
    if np is not None:
        # Outcome-code-indexed latency components (index 1 unused).
        lat_lookup = np.array([lat_local, 0.0, lat_remote, lat_miss])
    fmt_age = format_expiration_age
    warmup = config.warmup_requests
    sdig: dict = {}  # stored-size -> len(str(size)), bounded by doc count

    # Rebound per chunk; scalar_runs reads them as free variables.
    # repro: domains[gbase=global-seq, out=chunk-offset->any:uint8]
    leaf_l: List[int] = []
    rsz_l: List[int] = []
    gbase = 0
    out = bytearray()
    served: List[int] = []
    # Lean mode is only sound while *every* request so far matched its
    # doc's first-seen size: one deviating chunk can leave a stored size
    # that differs from the size column, so the flag latches off.
    sizes_consistent = True

    # Cold regime (see module docstring): sound while no eviction has ever
    # happened anywhere, which this engine guarantees by construction — the
    # flag latches off *before* the first request that could evict runs.
    # EA with tie_break="responder" never stores on a remote hit, so seen
    # slots would not all be resident; that shape replays on the loop.
    cold = np is not None and (not ea or tie_requester)
    # Per doc: min leaf holding a copy (-1 until first seen). Cold-only
    # state, and cold is numpy-only, so this is always a numpy column.
    if np is not None:
        first_min_g = _NpGrow(np)
        first_min = first_min_g.view()  # repro: domains[first_min=interned-id->any:int64]
    else:
        first_min_g = None
        first_min = None
    # Deferred last-touch fixups from cold segments: (slot, touch index,
    # timestamp) arrays, applied only if the general loop (which reads
    # lh/seq at evictions) ever takes over. ``seq`` is touch-monotone, so
    # replaying fixups oldest-first under a ``g > seq[slot]`` guard
    # commutes with any direct writes the cold loop already made
    # (responder promotions). Slots are unique within each tuple, so the
    # masked scatters below are conflict-free.
    pending: List[tuple] = []

    def flush_pending() -> None:
        if not pending:
            return
        seq_v = np.frombuffer(seq, dtype=np.int64)
        lh_v = np.frombuffer(lh)
        for slots_p, gs_p, tss_p in pending:
            m = gs_p > seq_v[slots_p]
            sm = slots_p[m]
            seq_v[sm] = gs_p[m]
            lh_v[sm] = tss_p[m]
        pending.clear()

    def scalar_runs(r0: int, r1: int, deferring: bool) -> int:
        """Replay runs ``r0:r1`` through the per-request protocol path.

        The one scalar core: the warm scanner's churn blocks hand it a
        whole range, its mixed blocks one predicted-miss run at a time
        (``deferring``: touches of the block's predicted hits are still
        pending, so evictions must respect ``pred`` marks and promotion
        refreshes are logged in ``touched``), and the pure-Python leg
        every run of the chunk. Mirrors the columnar engine's miss branch
        for the distributed architecture — ICP probe scan, remote serve
        plus placement decision, or origin fetch plus admission — with
        the outcome-classifiable accounting (bus/metrics/latency) left to
        the post-pass via ``out``/``served``.

        A run whose slot is resident by the time it is reached (an
        admission earlier in a block made it so) is a plain hit run: the
        live recheck applies its final touch. Otherwise its first request
        misses; once an admission sticks, the remaining members collapse
        to local hits whose only state effect is the final touch, and a
        rejected or declined copy makes each member miss again. Returns
        the members resolved without entering the protocol path — by the
        recheck or by collapse — which the regime breakdown reports as
        hit-run work, not scalar fallback.
        """
        hits = 0
        g0 = gbase
        for i, e, slot, now in zip(
            starts_l[r0:r1], ends_l[r0:r1], sslots_l[r0:r1], sts_l[r0:r1]
        ):
            if present_b[slot]:
                lh[slot] = ts_l[e - 1]
                seq[slot] = g0 + e - 1
                if not lean:
                    served[i:e] = [dsz[slot]] * (e - i)
                hits += e - i
                continue
            cache = leaf_l[i]
            base = slot - cache
            j = i
            while True:
                # Request j misses locally. Probe scan in the engine's
                # target order (ascending siblings).
                responder = -1
                if max_age_strategy:
                    best_age = 0.0
                    for t in probe_targets[cache]:
                        if present_b[base + t]:
                            t_age = cur_age[t]
                            if t_age is None:
                                t_age = age_of(t)
                            if responder < 0 or t_age > best_age:
                                responder = t
                                best_age = t_age
                else:  # "first": lowest holder == first hit in the scan
                    for t in probe_targets[cache]:
                        if present_b[base + t]:
                            responder = t
                            break
                if responder < 0:
                    # Group-wide miss: origin fetch, store at the
                    # requester. The engine's own-age decision read is
                    # side-effect-free in pure window modes, so only the
                    # admission remains.
                    size = rsz_l[j]
                    store = True
                    out[j] = 3
                else:
                    # Remote hit: the scheme reads requester then
                    # responder age.
                    req_age = cur_age[cache]
                    if req_age is None:
                        req_age = age_of(cache)
                    resp_age = cur_age[responder]
                    if resp_age is None:
                        resp_age = age_of(responder)
                    if ea:
                        if req_age > resp_age:
                            store = True
                        elif req_age == resp_age:
                            store = tie_requester
                        else:
                            store = False
                        refresh = resp_age > req_age
                    else:
                        store = True
                        refresh = True
                    rslot = base + responder
                    size = dsz[rslot]
                    if rc_on and store and size > rc_limit:
                        store = False
                        refresh = True
                    # Header bytes that need the responder or the live
                    # ages stay inline; the (doc, leaf)-only request
                    # header is summed in the post-pass.
                    al = age_len[cache]
                    if al < 0:
                        al = age_len[cache] = len(fmt_age(req_age))
                    alr = age_len[responder]
                    if alr < 0:
                        alr = age_len[responder] = len(fmt_age(resp_age))
                    sd = sdig.get(size)
                    if sd is None:
                        sd = sdig[size] = len(str(size))
                    bus[5] += al + alr + 70 + sd + sender_len[responder]
                    # serve_remote at the responder.
                    st_remote_served[responder] += 1
                    st_bytes_remote[responder] += size
                    if refresh:
                        st_promo_granted[responder] += 1
                        lh[rslot] = now
                        seq[rslot] = g0 + j
                        if deferring:
                            touched[rslot] = (g0 + j, now)
                    else:
                        st_promo_withheld[responder] += 1
                    if not store:
                        st_declined[cache] += 1
                    out[j] = 2
                if not lean:
                    served[j] = size
                if store:
                    # ProxyCache.admit for a non-resident doc: its refresh
                    # branch is unreachable (the slot just missed), and
                    # entry_time/hit_count are dead state under LRU.
                    if size > cap:
                        st_rejections[cache] += 1
                    else:
                        in_use = used[cache]
                        if in_use + size > cap:
                            heap_c = heaps[cache]
                            log_c = alog[cache]  # repro: domains[any->age-tick:float64]
                            while in_use + size > cap:
                                # Heap keys pack (touch index, slot);
                                # 0xFFFFFFFF is the 32-bit slot field.
                                key = heap_c[0]
                                victim = key & 0xFFFFFFFF  # repro: domains[cache-slot]
                                if not present_b[victim]:
                                    heappop(heap_c)  # evicted earlier; dead
                                    continue
                                if deferring and pred[victim]:
                                    # The candidate carries a deferred
                                    # warm-block hit touch (or an
                                    # outstanding hit prediction): bring
                                    # the block's consumed touches
                                    # current, then re-examine. The
                                    # flush aborts the rest of the block.
                                    flush_cb[0]()
                                    continue
                                cur = seq[victim]
                                if cur != key >> 32:
                                    # Touched since queued: re-queue at
                                    # its live touch index.
                                    heapreplace(heap_c, cur << 32 | victim)
                                    continue
                                # Live minimum touch index: the LRU victim.
                                heappop(heap_c)
                                present_b[victim] = 0
                                in_use -= dsz[victim]
                                log_c.append(now - lh[victim])
                            cur_age[cache] = None
                        present_b[slot] = 1
                        dsz[slot] = size
                        lh[slot] = now
                        seq[slot] = g0 + j
                        heappush(heaps[cache], (g0 + j) << 32 | slot)
                        used[cache] = in_use + size
                        st_admissions[cache] += 1
                        st_bytes_admitted[cache] += size
                j += 1
                if j == e:
                    break
                if present_b[slot]:
                    lh[slot] = ts_l[e - 1]
                    seq[slot] = g0 + e - 1
                    if not lean:
                        served[j:e] = [dsz[slot]] * (e - j)
                    hits += e - j
                    break
                now = ts_l[j]
        return hits

    def warm_loop():
        """Warm-regime scanner: block classification, deferred bulk touches.

        Classifies runs in fixed-size blocks with one gather against the
        live residency bitmap (``present_b`` viewed as uint8 — mutations
        from :func:`scalar_runs` are visible through the view), replays
        only the predicted-miss runs through :func:`scalar_runs`, and
        applies all the predicted-hit runs' lazy-LRU touches in one
        fancy-indexed scatter per block after the scalar work (a slot recurring among the hits resolves
        last-wins under fancy assignment — numpy applies values in index
        order — which is exactly the scalar loop's final state).

        Deferring the hit touches within a block is sound because
        nothing reads them until an eviction selects one of the touched
        slots: every predicted-hit slot carries a ``pred`` mark, and
        :func:`scalar_runs` invokes the flush closure before evicting a
        marked slot, which applies the consumed touches immediately and
        aborts the rest of the block for reclassification
        (``pred_conflict``). Predicted-miss runs can only go stale in
        the hit direction (an earlier admission), handled by the live
        recheck in :func:`scalar_runs`. Promotion refreshes landing on
        scatter-covered slots are reconciled by the ``touched`` fixup —
        the newest touch index wins, matching scalar order. Returns
        (hit_run_requests, scalar_requests) for the chunk tail.
        """
        # repro: domains[starts_r=any->chunk-offset:intp, ends_r=any->chunk-offset:intp]
        # repro: domains[rslots=any->cache-slot:intp, rlast_ts=any->age-tick:float64]
        starts_r, ends_r, rslots, rlast_ts = runs_np
        rlast_g = ends_r + (gbase - 1)
        nruns = len(starts_r)
        hit_req = 0
        scal_req = 0
        # No reference to these views may survive the chunk body — the
        # backing buffers' extend() on the next chunk would raise
        # BufferError. They are locals of this call, which returns
        # before the next chunk grows anything.
        res = np.frombuffer(present_b, dtype=np.uint8)
        dszv = np.frombuffer(dsz, dtype=np.int64)
        lhv = np.frombuffer(lh)
        seqv = np.frombuffer(seq, dtype=np.int64)
        predv = np.frombuffer(pred, dtype=np.uint8)
        r = int(np.searchsorted(starts_r, tail_start)) if tail_start else 0
        B = 1024
        # Deferral credit: the block scatter machinery only pays for
        # itself when blocks complete. Conflict aborts burn credit;
        # conflict-free mixed blocks and pure-hit blocks (the signature
        # of a stable residency set) earn it back. At zero credit mixed
        # blocks replay fully scalar — eviction-churn regimes then run
        # at plain per-run cost instead of thrashing classification.
        credit = 4

        def fill_served(sg, s, e) -> None:
            # Non-lean only: fill each bulk hit run's member span with
            # the resident copy's stored size. Spans are disjoint from
            # the scalar runs' own served writes, so order is free.
            lens = e - s
            tot = int(lens.sum())
            if not tot:
                return
            off = np.cumsum(lens, dtype=np.int64)
            idx = np.arange(tot, dtype=np.intp) + np.repeat(s - (off - lens), lens)
            served[idx] = np.repeat(dszv[sg], lens)

        def apply_touches(sl_b, hitm_b, r0, upto) -> None:
            # Scatter the consumed hit prefix's touches, then re-assert
            # any newer scalar touches (promotion refreshes) the scatter
            # may have rolled back, and retire the block's marks.
            cons = upto - r0
            if cons:
                m = hitm_b[:cons]
                sg = sl_b[:cons][m]
                lhv[sg] = rlast_ts[r0:upto][m]
                seqv[sg] = rlast_g[r0:upto][m]
            if touched:
                for slot, gt in touched.items():
                    if gt[0] > seq[slot]:
                        seq[slot] = gt[0]
                        lh[slot] = gt[1]
                touched.clear()
            predv[sl_b] = 0

        def flush_block() -> None:
            apply_touches(
                blk_state[0], blk_state[1], blk_state[2], blk_state[3]
            )
            flushed[0] = True
            pred_conflict[0] = True

        flush_cb[0] = flush_block
        while r < nruns:
            blk = B if r + B <= nruns else nruns - r
            sl = rslots[r : r + blk]
            hitm = res[sl] != 0
            nh = int(hitm.sum())
            if nh == blk:
                # Pure hit block: one scatter pair, no scalar work, no
                # marks needed — nothing below can read stale recency
                # because nothing below runs.
                lhv[sl] = rlast_ts[r : r + blk]
                seqv[sl] = rlast_g[r : r + blk]
                if not lean:
                    fill_served(sl, starts_r[r : r + blk], ends_r[r : r + blk])
                hit_req += ends_l[r + blk - 1] - starts_l[r]
                r += blk
                if B < 8192:
                    B <<= 1
                if credit < 8:
                    credit += 1
                continue
            if nh * 4 < blk or not credit:
                # Churn block (hits scarce): replay every run through
                # the scalar core with live residency checks — no
                # deferral, no marks, no conflicts possible. This keeps
                # eviction-heavy regimes at the plain per-run cost
                # instead of thrashing the block machinery.
                hits = scalar_runs(r, r + blk, False)
                hit_req += hits
                scal_req += ends_l[r + blk - 1] - starts_l[r] - hits
                r += blk
                continue
            mpos = np.flatnonzero(~hitm)
            predv[sl] = hitm
            flushed[0] = False
            pred_conflict[0] = False
            blk_state[0] = sl
            blk_state[1] = hitm
            blk_state[2] = r
            stop = r + blk
            blk_scal = 0  # members of the runs replayed by the core
            blk_hits = 0  # ... of which it resolved as hits
            for p in (mpos + r).tolist():
                blk_state[3] = p
                blk_hits += scalar_runs(p, p + 1, True)
                blk_scal += ends_l[p] - starts_l[p]
                if pred_conflict[0]:
                    # An eviction invalidated the outstanding
                    # predictions; reclassify from the next run with a
                    # smaller block so conflict storms stay cheap.
                    stop = p + 1
                    if B > 128:
                        B >>= 1
                    credit = credit - 2 if credit > 2 else 0
                    break
            else:
                if B < 8192:
                    B <<= 1
                if credit < 8:
                    credit += 1
            if not flushed[0]:
                apply_touches(sl, hitm, r, stop)
            if not lean:
                cons = stop - r
                m = hitm[:cons]
                fill_served(
                    sl[:cons][m], starts_r[r:stop][m], ends_r[r:stop][m]
                )
            scal_req += blk_scal - blk_hits
            hit_req += ends_l[stop - 1] - starts_l[r] - blk_scal + blk_hits
            r = stop
        flush_cb[0] = None
        return hit_req, scal_req

    # Regime tallies (requests handled per path; see ``regimes``).
    reg_cold = 0
    reg_hit = 0
    reg_scalar = 0

    # ---------------------------------------------------------------- #
    # Chunked replay
    # ---------------------------------------------------------------- #
    traced = spans is not None
    sampling = timeseries is not None
    chunks = _chunk_stream(trace, chunk_size, spans)
    if traced:
        # Imported lazily so untraced replay never touches repro.obs.
        from repro.obs.spans import source_label

        spans.begin("engine:batch", "engine")
        chunks = spans.wrap_source(chunks, source_label(trace))
    grand_total = 0
    for chunk, cached_source in chunks:
        n = chunk.num_records
        if traced:
            spans.begin("chunk", "replay")
        new_urls = chunk.new_urls
        if new_urls:
            add = len(new_urls)
            num_docs += add
            if num_docs * NC >= 1 << 32:
                raise SimulationError(
                    f"{num_docs} documents x {NC} caches reach 2**32 slots; "
                    f"the batch engine's LRU heap keys hold 32-bit slots"
                )
            url_len_l.extend(chunk.new_url_lens)
            icp_l.extend(chunk.new_icp_probe_bytes)
            grown = add * NC
            present_b.extend(bytes(grown))
            # Zero-fill appends (8-byte elements for the q/d arrays); no
            # numpy view of these buffers is live here — the vector
            # paths create theirs after growth and drop them before the
            # next chunk.
            dsz.frombytes(bytes(8 * grown))
            lh.frombytes(bytes(8 * grown))
            seq.frombytes(bytes(8 * grown))
            if np is not None:
                pred.extend(bytes(grown))
                first_min_g.extend(np, np.full(add, -1, dtype=np.int64))
                first_min = first_min_g.view()
                url_len_g.extend(np, chunk.new_url_lens)
                icp_g.extend(np, chunk.new_icp_probe_bytes)
                first_size_g.extend(np, np.full(add, -1, dtype=np.int64))
        new_clients = chunk.new_client_names
        if new_clients and not rr_request:
            base_client = len(client_leaf)
            if hash_partitioner:
                fresh = [
                    leaves[pos]
                    for pos in client_leaf_positions(new_clients, num_leaves)
                ]
            else:  # round-robin-client: intern order == appearance order
                fresh = [
                    leaves[(base_client + k) % num_leaves]
                    for k in range(len(new_clients))
                ]
            client_leaf.extend(fresh)
            if np is not None:
                client_leaf_g.extend(np, fresh)
        if not n:
            if traced:
                spans.end(records=0)
            continue

        # ------------------------------------------------------------ #
        # Batch precompute: per-request columns + run segmentation.
        # Memoised on the interned trace for whole-trace replay (sweeps
        # re-replay the same trace at many capacities).
        # ------------------------------------------------------------ #
        if traced:
            spans.begin("columns", "replay")
        memo_key = None
        cols = None
        if cached_source is not None:
            memo_key = (
                "batch_cols", np is not None, patch, partitioner,
                tuple(leaves), NC,
            )
            cols = cached_source.derived_cache().get(memo_key)
        if cols is None:
            if np is not None:
                cols = _columns_np(
                    np, chunk, cached_source, patch, partitioner, leaves,
                    leaves_np, sender_np, pow10, NC, num_leaves,
                    client_leaf_g, url_len_g, icp_g, first_size_g,
                )
            else:
                cols = _columns_py(
                    chunk, cached_source, patch, partitioner, leaves,
                    sender_len, NC, num_leaves, client_leaf, url_len_l, icp_l,
                )
            if memo_key is not None:
                cached_source.derived_cache()[memo_key] = cols
        (starts_l, sslots_l, sts_l, ends_l, leaf_l, rsz_l, post, cconst, npx) = cols
        if traced:
            spans.end()
        sizes_consistent = sizes_consistent and cconst
        lean = sizes_consistent
        ts_l = chunk.timestamps
        gbase = chunk.base_records
        if np is not None:
            # repro: domains[docs_np=chunk-offset->interned-id:intp]
            # repro: domains[slots_np=chunk-offset->cache-slot:intp]
            # repro: domains[ts_np=chunk-offset->age-tick:float64]
            # repro: domains[fsreq_np=chunk-offset->byte-size:int64]
            docs_np, slots_np, ts_np, fsreq_np, runs_np = npx

        out = bytearray(n)
        served_np = None  # set by the cold path: first-size served column
        tail_start = 0  # first request index the general loop replays

        # ------------------------------------------------------------ #
        # Cold-regime prefix: replay first-slot-occurrences only, up to
        # the split where an admission would first evict/reject/decline.
        # ------------------------------------------------------------ #
        if cold:
            if traced:
                spans.begin("cold", "regime")
            leaf_np = post[0]
            grp = None
            if cached_source is not None:
                gkey = ("batch_grp", partitioner, tuple(leaves), NC)
                grp = cached_source.derived_cache().get(gkey)
            if grp is None:
                order = np.argsort(slots_np, kind="stable")
                ss = slots_np[order]
                bnd = np.empty(n, dtype=bool)
                bnd[0] = True
                if n > 1:
                    bnd[1:] = ss[1:] != ss[:-1]
                gpos = np.flatnonzero(bnd)
                gend = np.empty(len(gpos), dtype=np.intp)
                gend[:-1] = gpos[1:]
                gend[-1] = n
                # Stable sort keeps each group's original indices ascending,
                # so group boundaries give first/last occurrence directly.
                grp = (ss[gpos], order[gpos], order[gend - 1])
                if cached_source is not None:
                    cached_source.derived_cache()[gkey] = grp
            # repro: domains[grp_slot=any->cache-slot:intp, grp_first=any->chunk-offset:intp]
            # repro: domains[grp_last=any->chunk-offset:intp]
            grp_slot, grp_first, grp_last = grp
            # Cold invariant: a slot was seen before iff it is resident.
            # (No reference to the frombuffer view may outlive this
            # statement — present_b.extend() would raise BufferError.)
            new_g = np.frombuffer(present_b, dtype=np.uint8)[grp_slot] == 0
            ev_ord = np.argsort(grp_first[new_g])
            ev_idx = grp_first[new_g][ev_ord]
            ev_slot = grp_slot[new_g][ev_ord]
            ev_doc = docs_np[ev_idx]
            ev_size = fsreq_np[ev_idx]  # admitted size is always the first size
            ev_leaf = leaf_np[ev_idx]
            split = n
            bad = ev_size > cap
            if rc_on:
                bad = bad | (ev_size > replica_cap * cap)
            if bool(bad.any()):
                split = int(ev_idx[int(np.argmax(bad))])
            for c in range(NC):
                cm = ev_leaf == c
                cs = np.cumsum(ev_size[cm], dtype=np.int64)
                k = int(np.searchsorted(cs, cap - used[c], side="right"))
                if k < len(cs):
                    oidx = int(ev_idx[cm][k])
                    if oidx < split:
                        split = oidx
            if split:
                ecount = int(np.searchsorted(ev_idx, split))
                if ecount:
                    # Vectorised first-occurrence replay. Events are
                    # regrouped by doc (stable sort keeps time order
                    # inside each group); the serving sibling of every
                    # non-compulsory event is the doc's running-minimum
                    # holding leaf — the ascending probe scan under
                    # all-inf ages picks the minimum holding sibling —
                    # seeded with the carried-over ``first_min`` state.
                    e_idx = ev_idx[:ecount]
                    e_slot = ev_slot[:ecount]
                    e_leaf = ev_leaf[:ecount]
                    e_size = ev_size[:ecount]
                    e_ts = ts_np[e_idx]
                    e_g = e_idx + gbase
                    dorder = np.argsort(ev_doc[:ecount], kind="stable")
                    d_doc = ev_doc[:ecount][dorder]
                    d_leaf = e_leaf[dorder]
                    gstart = np.empty(ecount, dtype=bool)
                    gstart[0] = True
                    gstart[1:] = d_doc[1:] != d_doc[:-1]
                    # bool input would otherwise promote to the platform
                    # default integer (int32 on Windows).
                    gid = np.cumsum(gstart, dtype=np.int64) - 1
                    # Segmented inclusive running minimum of the leaf
                    # column via offset max-accumulate: group offsets
                    # dominate the encoded values, so earlier groups can
                    # never leak into later ones. NC encodes "no holder".
                    enc = gid * (NC + 1) + (NC - d_leaf)
                    run_incl = NC - (np.maximum.accumulate(enc) - gid * (NC + 1))
                    seed = first_min[d_doc[gstart]]
                    seed = np.where(seed < 0, NC, seed)
                    shifted = np.empty(ecount, dtype=np.int64)
                    shifted[0] = NC
                    shifted[1:] = run_incl[:-1]
                    before = np.minimum(
                        seed[gid], np.where(gstart, NC, shifted)
                    )
                    compulsory = before >= NC
                    gendm = np.empty(ecount, dtype=bool)
                    gendm[:-1] = gstart[1:]
                    gendm[-1] = True
                    first_min[d_doc[gstart]] = np.minimum(
                        seed, run_incl[gendm]
                    )
                    d_idx = e_idx[dorder]
                    ov = np.frombuffer(out, dtype=np.uint8)
                    ov[d_idx] = np.where(compulsory, 3, 2)
                    del ov
                    rem = ~compulsory
                    if bool(rem.any()):
                        fm_r = before[rem]
                        sz_r = e_size[dorder][rem]
                        # 76 + Content-Length digits + sender header.
                        bus[5] += int((
                            np.searchsorted(pow10, sz_r, side="right")
                            + 77
                            + sender_np[fm_r]
                        ).sum())
                        rcnt = np.bincount(fm_r, minlength=NC)
                        rbyt = np.bincount(fm_r, weights=sz_r, minlength=NC)
                        for c in range(NC):
                            k = int(rcnt[c])
                            if k:
                                st_remote_served[c] += k
                                st_bytes_remote[c] += int(rbyt[c])
                                if ea:
                                    # Equal (inf) ages: never granted.
                                    st_promo_withheld[c] += k
                                else:
                                    st_promo_granted[c] += k
                    # Admissions: slots are unique (first occurrences),
                    # so the scatters are conflict-free. (The residency
                    # view must not outlive this block.)
                    pb = np.frombuffer(present_b, dtype=np.uint8)
                    pb[e_slot] = 1
                    del pb
                    dszv = np.frombuffer(dsz, dtype=np.int64)
                    lhv = np.frombuffer(lh)
                    seqv = np.frombuffer(seq, dtype=np.int64)
                    dszv[e_slot] = e_size
                    lhv[e_slot] = e_ts
                    seqv[e_slot] = e_g
                    acnt = np.bincount(e_leaf, minlength=NC)
                    abyt = np.bincount(e_leaf, weights=e_size, minlength=NC)
                    for c in range(NC):
                        k = int(acnt[c])
                        if not k:
                            continue
                        cm = e_leaf == c
                        # Cold-regime heaps are append-only with globally
                        # ascending touch indices, so the key list is
                        # sorted — and a sorted list is a valid min-heap.
                        if e_g[-1] < 1 << 31:
                            # repro: domains[keys=any->any:int64]
                            keys = ((e_g[cm] << 32) | e_slot[cm]).tolist()
                        else:  # int64 would overflow: Python ints
                            keys = [
                                g << 32 | sl
                                for g, sl in zip(e_g[cm].tolist(), e_slot[cm].tolist())
                            ]
                        heaps[c].extend(keys)
                        used[c] += int(abyt[c])
                        st_admissions[c] += k
                        st_bytes_admitted[c] += int(abyt[c])
                    if not ea and bool(rem.any()):
                        # Responder promotions touch the serving slot.
                        # Applied *after* the admission scatter: a slot
                        # admitted earlier in this batch can be
                        # promotion-touched later, and the latest touch
                        # must win. Duplicates share a doc group, so
                        # array order is time order and fancy assignment
                        # resolves last-wins.
                        rslot_r = e_slot[dorder][rem] - d_leaf[rem] + fm_r
                        lhv[rslot_r] = e_ts[dorder][rem]
                        seqv[rslot_r] = e_g[dorder][rem]
                    del dszv, lhv, seqv
                served_np = fsreq_np  # never mutated: may be memo-shared
                if split == n:
                    tail_start = n
                    pending.append(
                        (grp_slot, grp_last + gbase, ts_np[grp_last])
                    )
                else:
                    tail_start = split
                    sl_p = slots_np[:split]
                    order_p = np.argsort(sl_p, kind="stable")
                    ssp = sl_p[order_p]
                    bnd = np.empty(split, dtype=bool)
                    bnd[0] = True
                    if split > 1:
                        bnd[1:] = ssp[1:] != ssp[:-1]
                    gpos = np.flatnonzero(bnd)
                    gend = np.empty(len(gpos), dtype=np.intp)
                    gend[:-1] = gpos[1:]
                    gend[-1] = split
                    p_last = order_p[gend - 1]
                    pending.append(
                        (ssp[gpos], p_last + gbase, ts_np[p_last])
                    )
            if split < n:
                # The next admission can evict: ages stop being inf, so
                # the regime is over for good. The general loop needs the
                # exact last-touch state, so apply the deferred fixups.
                flush_pending()
                cold = False
                if split:
                    # Rebuild run segmentation for the tail only. A run
                    # straddling the split re-enters as a fresh run start,
                    # which the loop handles identically.
                    tn = n - split
                    tkeep = np.empty(tn, dtype=bool)
                    tkeep[0] = True
                    if tn > 1:
                        tkeep[1:] = slots_np[split + 1 :] != slots_np[split:-1]
                    tstarts = np.flatnonzero(tkeep) + split
                    starts_l = tstarts.tolist()
                    ends_l = starts_l[1:]
                    ends_l.append(n)
                    sslots_l = slots_np[tstarts].tolist()
                    sts_l = ts_np[tstarts].tolist()
                    tends = np.empty(len(tstarts), dtype=np.intp)
                    tends[:-1] = tstarts[1:]
                    tends[-1] = n
                    runs_np = (
                        tstarts, tends, slots_np[tstarts], ts_np[tends - 1]
                    )
            if traced:
                spans.end(requests=tail_start)

        # The served column is only materialised when the stateful path
        # (whose miss branch records into it) actually runs outside lean
        # mode, which derives every served size from the precomputed
        # column instead. In numpy mode it is an int64 array so bulk
        # hit-runs can fill member spans with one np.repeat scatter.
        reg_cold += tail_start
        if np is None:
            served = [0] * n
        elif tail_start < n and not lean:
            served = np.zeros(n, dtype=np.int64)
        else:
            served = []

        # ------------------------------------------------------------ #
        # The stateful tail: run starts only. A run whose first request
        # leaves the doc resident collapses — members are local hits
        # whose only state effect is the final touch index and last-hit.
        # With numpy the warm scanner bulk-processes whole all-hit run
        # prefixes (see warm_loop); the pure-Python fallback replays
        # every run through the scalar core and reports all of them as
        # scalar work.
        # ------------------------------------------------------------ #
        if traced and tail_start < n:
            spans.begin("warm", "regime")
            warm_hit_base = reg_hit
            warm_scal_base = reg_scalar
        if tail_start >= n:
            pass  # fully cold chunk: no stateful loop at all
        elif np is not None:
            hit_req, scal_req = warm_loop()
            reg_hit += hit_req
            reg_scalar += scal_req
        else:
            reg_scalar += n
            scalar_runs(0, len(starts_l), False)
        if traced and tail_start < n:
            spans.end(
                hit_run=reg_hit - warm_hit_base,
                scalar=reg_scalar - warm_scal_base,
            )

        # ------------------------------------------------------------ #
        # Outcome post-pass: bus, per-cache stats, metrics, latency.
        # ------------------------------------------------------------ #
        if traced:
            spans.begin("post", "replay")
        base_records = gbase
        w_start = warmup - base_records
        if w_start < 0:
            w_start = 0
        elif w_start > n:
            w_start = n
        if np is not None:
            # repro: domains[leaf_np=chunk-offset->any:intp]
            # repro: domains[icp_req_np=chunk-offset->byte-size:int64]
            # repro: domains[remote_base_np=chunk-offset->byte-size:int64]
            # repro: domains[origin_hdr_np=chunk-offset->byte-size:int64]
            # repro: domains[rsz_np=chunk-offset->byte-size:int64]
            leaf_np, icp_req_np, remote_base_np, origin_hdr_np, rsz_np = post
            out_np = np.frombuffer(out, dtype=np.uint8)
            if served_np is None:
                served_np = rsz_np if lean else served
            elif not lean and tail_start < n:
                # Cold prefix served from the first-size column; the
                # stateful tail recorded into the served array. Copy
                # before patching: the column may be memo-shared.
                served_np = served_np.copy()
                served_np[tail_start:] = served[tail_start:]
            nonlocal_mask = out_np != 0
            nl = int(nonlocal_mask.sum())
            if nl:
                remote_mask = out_np == 2
                miss_mask = out_np == 3
                bus[0] += num_targets * nl
                bus[1] += num_targets * nl
                bus[2] += nl
                bus[3] += nl
                bus[4] += num_targets * int(icp_req_np[nonlocal_mask].sum())
                bus[5] += int(remote_base_np[remote_mask].sum())
                bus[5] += int(origin_hdr_np[miss_mask].sum())
                bus[6] += int(served_np[nonlocal_mask].sum())
            local_mask = out_np == 0
            lookup_counts = np.bincount(leaf_np, minlength=NC)
            hit_counts = np.bincount(leaf_np[local_mask], minlength=NC)
            leaf_loc = leaf_np[local_mask]
            srv_loc = served_np[local_mask]
            for c in range(NC):
                st_lookups[c] += int(lookup_counts[c])
                hits_c = int(hit_counts[c])
                st_local_hits[c] += hits_c
                st_local_misses[c] += int(lookup_counts[c]) - hits_c
                st_bytes_local[c] += int(srv_loc[leaf_loc == c].sum())
            m = n - w_start
            if m:
                outm = out_np[w_start:]
                srvm = served_np[w_start:]
                loc_m = outm == 0
                rem_m = outm == 2
                mis_m = outm == 3
                met[0] += m
                met[1] += int(loc_m.sum())
                met[2] += int(rem_m.sum())
                met[3] += int(mis_m.sum())
                met[4] += int(srvm.sum())
                met[5] += int(srvm[loc_m].sum())
                met[6] += int(srvm[rem_m].sum())
                met[7] += int(srvm[mis_m].sum())
                vals = lat_lookup[outm]
                if not constant_latency:
                    srvf = srvm.astype(np.float64)
                    add_term = srvf / np.where(rem_m, lan_bw, wan_bw)
                    vals = np.where(loc_m, vals, vals + add_term)
                fold = np.empty(m + 1, dtype=np.float64)
                fold[0] = latency_sum[0]
                fold[1:] = vals
                np.add.accumulate(fold, out=fold)
                latency_sum[0] = float(fold[m])
        else:
            icp_req_l, remote_base_l, origin_hdr_l = post
            _post_py(
                n, out, served, leaf_l, icp_req_l, remote_base_l, origin_hdr_l,
                w_start, num_targets, constant_latency,
                lat_local, lat_remote, lat_miss, lan_bw, wan_bw,
                bus, met, latency_sum,
                st_lookups, st_local_hits, st_local_misses, st_bytes_local,
            )
        if traced:
            spans.end()  # post
            spans.end(records=n)  # chunk
        grand_total = gbase + n
        if sampling:
            timeseries.sample(
                requests=grand_total,
                local_hits=sum(st_local_hits),
                remote_hits=sum(st_remote_served),
                # Every admitted copy is resident or was evicted.
                evictions=sum(st_admissions) - present_b.count(1),
                admissions=sum(st_admissions),
                declined=sum(st_declined),
                promoted=sum(st_promo_granted),
                bytes_local=sum(st_bytes_local),
                bytes_remote=sum(st_bytes_remote),
                body_bytes=bus[6],
                residency_bytes=sum(used),
                t_last=float(ts_l[n - 1]),
                cold=reg_cold,
                hit_run=reg_hit,
                scalar=reg_scalar,
            )
    if traced:
        spans.end(requests=grand_total)

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
    # Every admitted copy is still resident or was evicted, and a copy
    # keeps its admitted size while resident, so the eviction counters
    # follow from admissions minus what is resident now.
    if np is not None and num_docs:
        held = np.frombuffer(present_b, dtype=np.uint8).reshape(num_docs, NC)
        resident = held.sum(axis=0, dtype=np.int64).tolist()
        unique_documents = int((held != 0).any(axis=1).sum())
        del held
    else:
        resident = [present_b[c::NC].count(1) for c in range(NC)]
        unique_documents = sum(
            1 for d in range(num_docs)
            if any(present_b[d * NC : (d + 1) * NC])
        )
    cache_stats = [
        CacheStats(
            lookups=st_lookups[c],
            local_hits=st_local_hits[c],
            local_misses=st_local_misses[c],
            remote_hits_served=st_remote_served[c],
            admissions=st_admissions[c],
            rejections=st_rejections[c],
            evictions=st_admissions[c] - resident[c],
            bytes_served_local=st_bytes_local[c],
            bytes_served_remote=st_bytes_remote[c],
            bytes_admitted=st_bytes_admitted[c],
            bytes_evicted=st_bytes_admitted[c] - used[c],
            placements_declined=st_declined[c],
            promotions_granted=st_promo_granted[c],
            promotions_withheld=st_promo_withheld[c],
        )
        for c in range(NC)
    ]
    if regimes is not None:
        regimes["cold"] = reg_cold
        regimes["hit_run"] = reg_hit
        regimes["scalar"] = reg_scalar
    # float(): timestamps from a numpy-backed source can make the window
    # sums np.float64; values are bit-identical.
    ages = [float(fold_ages(win[c], W)) for c in range(NC)]
    total_copies = sum(resident)
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


# repro: domains[log=any->age-tick:float64, total=age-tick]
def fold_ages(win: list, window: int) -> float:
    """Fold one cache's pending evicted ages into its window; return its age.

    ``win`` is ``[log, done, total, count]``: ``log`` holds document ages
    in eviction order, ``log[:done]`` are already folded into ``total``
    (the window sum) and ``count`` (the victims it covers). ``window`` is
    the count window's size, or 0 for the cumulative window. The fold
    performs the same ``+=``/``-=`` sequence as
    :meth:`repro.fastpath.ringtracker.RingAgeTracker.record` — add the
    new age, then subtract the one it displaces — so the sums are
    bit-equal however the reads fall. A folded count log is trimmed to
    its last ``window`` ages once it reaches twice that, and a folded
    cumulative log is emptied, so a streamed replay keeps O(window)
    memory per cache. Returns the mean age (paper Eq. 5), ``+inf`` while
    the window is empty.
    """
    log, done, total, count = win
    n = len(log)
    if window:
        # log[k] displaces log[k - window] once the window is full.
        for k in range(done, n):
            total += log[k]
            if k >= window:
                total -= log[k - window]
        count = n if n < window else window
        if n >= 2 * window:
            del log[: n - window]
            n = window
    else:
        for k in range(done, n):
            total += log[k]
        count += n - done
        log.clear()
        n = 0
    win[1] = n
    win[2] = total
    win[3] = count
    return total / count if count else _INF


class _NpGrow:
    """Amortised-growth numpy column (int64 by default).

    Streamed replay extends per-doc/per-slot columns every chunk;
    rebuilding a numpy array from the python list each time would be
    O(docs x chunks). This doubles capacity instead, so total copy work
    is O(docs). Callers re-fetch :meth:`view` after every extend — the
    buffer may have been reallocated.
    """

    __slots__ = ("buf", "used")

    def __init__(self, np, dtype: str = "int64"):
        self.buf = np.empty(1024, dtype=dtype)
        self.used = 0

    def extend(self, np, values) -> None:
        need = self.used + len(values)
        capacity = len(self.buf)
        if need > capacity:
            while capacity < need:
                capacity *= 2
            grown = np.empty(capacity, dtype=self.buf.dtype)
            grown[: self.used] = self.buf[: self.used]
            self.buf = grown
        self.buf[self.used : need] = values
        self.used = need

    def view(self):
        return self.buf[: self.used]


# repro: domains[pow10=any->any:int64, leaves_np=any->any:intp]
# repro: domains[sender_np=any->byte-size:int64]
# repro: domains[url_len_g=interned-id->byte-size:int64]
# repro: domains[icp_g=interned-id->byte-size:int64]
# repro: domains[first_size_g=interned-id->byte-size:int64]
def _columns_np(
    np, chunk, cached_source, patch, partitioner, leaves,
    leaves_np, sender_np, pow10, NC, num_leaves,
    client_leaf_g, url_len_g, icp_g, first_size_g,
):
    """Vectorised per-chunk columns + run segmentation (numpy path)."""
    n = chunk.num_records
    # repro: domains[leaf_np=chunk-offset->any:intp, rsz_np=chunk-offset->byte-size:int64]
    docs_np = np.array(chunk.doc_ids, dtype=np.intp)  # repro: domains[docs_np=chunk-offset->interned-id:intp]
    ts_np = np.array(chunk.timestamps, dtype=np.float64)  # repro: domains[ts_np=chunk-offset->age-tick:float64]
    if cached_source is not None:
        leaf_l = cached_source.leaf_column(partitioner, leaves)
        leaf_np = np.array(leaf_l, dtype=np.intp)
        rsz_l = cached_source.record_sizes(patch)
        rsz_np = np.array(rsz_l, dtype=np.int64)
    else:
        if partitioner == "round-robin-request":
            base = chunk.base_records
            leaf_np = leaves_np[
                np.arange(base, base + n, dtype=np.intp) % num_leaves
            ]
        else:
            leaf_np = client_leaf_g.view()[
                np.array(chunk.clients, dtype=np.intp)
            ].astype(np.intp)
        leaf_l = leaf_np.tolist()
        sz_np = np.array(chunk.sizes, dtype=np.int64)
        if bool((sz_np == 0).any()):
            rsz_np = np.where(sz_np == 0, patch, sz_np)
        else:
            rsz_np = sz_np
        rsz_l = rsz_np.tolist()
    digits_np = np.searchsorted(pow10, rsz_np, side="right") + 1
    remote_base_np = url_len_g.view()[docs_np] + sender_np[leaf_np] + 50
    origin_hdr_np = remote_base_np + 24 + digits_np
    icp_req_np = icp_g.view()[docs_np]
    # Lean-mode eligibility: every doc's patched size constant so far.
    # First-occurrence assignment: reversed fancy indexing makes the
    # earliest duplicate win; docs seen in prior chunks keep their value.
    fs = first_size_g.view()
    known = fs[docs_np]
    unseen = known < 0
    if bool(unseen.any()):
        fs[docs_np[unseen][::-1]] = rsz_np[unseen][::-1]
        known = fs[docs_np]
    lean = bool((known == rsz_np).all())
    slots_np = docs_np * NC + leaf_np  # repro: domains[slots_np=chunk-offset->cache-slot:intp]
    keep = np.empty(n, dtype=bool)  # repro: domains[keep=chunk-offset->any:bool]
    keep[0] = True
    if n > 1:
        keep[1:] = slots_np[1:] != slots_np[:-1]
    starts_np = np.flatnonzero(keep)  # repro: domains[starts_np=any->chunk-offset:intp]
    starts_l = starts_np.tolist()
    ends_l = starts_l[1:]
    ends_l.append(n)
    sslots_l = slots_np[starts_np].tolist()
    sts_l = ts_np[starts_np].tolist()
    ends_np = np.empty(len(starts_np), dtype=np.intp)  # repro: domains[ends_np=any->chunk-offset:intp]
    ends_np[:-1] = starts_np[1:]
    ends_np[-1] = n
    # Run columns for the warm-regime bulk scanner: per-run slot plus the
    # final member's timestamp (its sequence number is ends-1 + the
    # chunk's base, added at replay time — the memoised columns must stay
    # chunk-position-independent only in what varies per replay).
    runs = (starts_np, ends_np, slots_np[starts_np], ts_np[ends_np - 1])
    post = (leaf_np, icp_req_np, remote_base_np, origin_hdr_np, rsz_np)
    # ``known`` is the per-request first-seen-size column — the size any
    # resident copy of the doc holds while the cold regime lasts.
    npx = (docs_np, slots_np, ts_np, known, runs)
    return (starts_l, sslots_l, sts_l, ends_l, leaf_l, rsz_l, post, lean, npx)


def _columns_py(
    chunk, cached_source, patch, partitioner, leaves,
    sender_len, NC, num_leaves, client_leaf, url_len_l, icp_l,
):
    """Pure-Python per-chunk columns (numpy absent / REPRO_NO_NUMPY)."""
    n = chunk.num_records
    docs = chunk.doc_ids
    ts_l = chunk.timestamps
    if cached_source is not None:
        leaf_l = cached_source.leaf_column(partitioner, leaves)
        rsz_l = cached_source.record_sizes(patch)
        digits_l = cached_source.size_digits(patch)
    else:
        if partitioner == "round-robin-request":
            base = chunk.base_records
            leaf_l = [leaves[(base + k) % num_leaves] for k in range(n)]
        else:
            leaf_l = [client_leaf[client] for client in chunk.clients]
        sizes = chunk.sizes
        if 0 in sizes:
            rsz_l = [patch if size == 0 else size for size in sizes]
        else:
            rsz_l = sizes
        digits_l = [len(str(size)) for size in rsz_l]
    remote_base_l = [
        url_len_l[doc] + sender_len[leaf] + 50
        for doc, leaf in zip(docs, leaf_l)
    ]
    origin_hdr_l = [
        rb + 24 + dg for rb, dg in zip(remote_base_l, digits_l)
    ]
    icp_req_l = [icp_l[doc] for doc in docs]
    slots_l = [doc * NC + leaf for doc, leaf in zip(docs, leaf_l)]
    starts_l = []
    sslots_l = []
    sts_l = []
    prev = -1
    for idx, slot in enumerate(slots_l):
        if slot != prev:
            starts_l.append(idx)
            sslots_l.append(slot)
            sts_l.append(ts_l[idx])
            prev = slot
    ends_l = starts_l[1:]
    ends_l.append(n)
    post = (icp_req_l, remote_base_l, origin_hdr_l)
    # The serial fallback always replays the full loop (explicit served
    # column); lean/cold modes are numpy-path specialisations only.
    return (starts_l, sslots_l, sts_l, ends_l, leaf_l, rsz_l, post, False, None)


def _post_py(
    n, out, served, leaf_l, icp_req_l, remote_base_l, origin_hdr_l,
    w_start, num_targets, constant_latency,
    lat_local, lat_remote, lat_miss, lan_bw, wan_bw,
    bus, met, latency_sum,
    st_lookups, st_local_hits, st_local_misses, st_bytes_local,
):
    """Serial outcome post-pass (fallback path); same fold order as the
    columnar engine's inline accounting, so floats are bit-equal."""
    lat = latency_sum[0]
    nl = 0
    bus4 = 0
    bus5 = 0
    bus6 = 0
    m0 = m1 = m2 = m3 = m4 = m5 = m6 = m7 = 0
    for i in range(n):
        o = out[i]
        c = leaf_l[i]
        s = served[i]
        st_lookups[c] += 1
        if o == 0:
            st_local_hits[c] += 1
            st_bytes_local[c] += s
        else:
            st_local_misses[c] += 1
            nl += 1
            bus4 += icp_req_l[i]
            bus5 += remote_base_l[i] if o == 2 else origin_hdr_l[i]
            bus6 += s
        if i >= w_start:
            m0 += 1
            m4 += s
            if o == 0:
                lat += lat_local
                m1 += 1
                m5 += s
            elif o == 2:
                if constant_latency:
                    lat += lat_remote
                else:
                    lat += lat_remote + s / lan_bw
                m2 += 1
                m6 += s
            else:
                if constant_latency:
                    lat += lat_miss
                else:
                    lat += lat_miss + s / wan_bw
                m3 += 1
                m7 += s
    bus[0] += num_targets * nl
    bus[1] += num_targets * nl
    bus[2] += nl
    bus[3] += nl
    bus[4] += num_targets * bus4
    bus[5] += bus5
    bus[6] += bus6
    met[0] += m0
    met[1] += m1
    met[2] += m2
    met[3] += m3
    met[4] += m4
    met[5] += m5
    met[6] += m6
    met[7] += m7
    latency_sum[0] = lat
