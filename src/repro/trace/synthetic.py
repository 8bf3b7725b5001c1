"""Synthetic workload generator standing in for the BU proxy traces.

The paper evaluates against the Boston University proxy traces (Nov 1994 -
Feb 1995; 575,775 requests, 46,830 unique documents, 591 users). Those traces
are not redistributable, so this module generates a *seeded, deterministic*
workload with the statistical properties that drive the paper's results:

* **Zipf-like document popularity** — the skew that makes the same popular
  documents get requested at several proxies, creating both remote-hit
  opportunities and the uncontrolled replication the EA scheme targets.
* **Heavy-tailed document sizes** — lognormal body sizes with a mean around
  the BU trace's 4 KB average; each document keeps a consistent size across
  requests.
* **Per-client sessions and temporal locality** — clients re-request
  recently seen documents (LRU-stack model), producing the local-hit
  component, and carry session identifiers like the BU condensed logs.
* **Zero-size records** — an optional fraction of records is emitted with
  size 0 to exercise the paper's 4 KB patch rule.

Determinism: all randomness flows from one ``random.Random(seed)`` instance;
identical configs yield identical traces.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.record import Trace, TraceRecord


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters of the synthetic BU-like workload.

    Attributes:
        num_requests: Total requests to generate.
        num_documents: Size of the document universe.
        num_clients: Number of distinct clients (BU trace: 591 users).
        zipf_alpha: Exponent of the Zipf popularity law (web traces cluster
            around 0.6-0.9; default 0.75).
        mean_size: Target mean document size in bytes (BU average: 4 KB).
        size_sigma: Lognormal shape parameter for sizes (higher = heavier tail).
        max_size: Hard cap on a single document size.
        temporal_locality: Probability a request re-references a document
            from the issuing client's recent-history stack instead of the
            global popularity law.
        locality_stack_depth: Depth of the per-client recency stack.
        mean_interarrival: Mean seconds between consecutive requests
            (global, exponential).
        session_gap: Idle seconds after which a client's next request opens
            a new session.
        zero_size_fraction: Fraction of emitted records whose size field is
            forced to 0 (to exercise the 4 KB patch rule); 0 disables.
        start_time: Timestamp of the first request.
        seed: PRNG seed; same seed + config = identical trace.
    """

    num_requests: int = 50_000
    num_documents: int = 5_000
    num_clients: int = 64
    zipf_alpha: float = 0.75
    mean_size: int = 4096
    size_sigma: float = 1.3
    max_size: int = 8 * 1024 * 1024
    temporal_locality: float = 0.3
    locality_stack_depth: int = 32
    mean_interarrival: float = 0.5
    session_gap: float = 1800.0
    zero_size_fraction: float = 0.0
    start_time: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise TraceError("num_requests must be positive")
        if self.num_documents <= 0:
            raise TraceError("num_documents must be positive")
        if self.num_clients <= 0:
            raise TraceError("num_clients must be positive")
        # NaN slips past every ordered comparison below, and an infinite
        # rate, time or shape breaks the RNG draws; reject both up front.
        for name in ("zipf_alpha", "size_sigma", "mean_interarrival", "start_time"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise TraceError(f"{name} must be finite, got {value!r}")
        # An infinite gap is meaningful (sessions never split); NaN is not.
        if math.isnan(self.session_gap):
            raise TraceError("session_gap must not be NaN")
        if self.zipf_alpha < 0:
            raise TraceError("zipf_alpha must be non-negative")
        if not 0.0 <= self.temporal_locality <= 1.0:
            raise TraceError("temporal_locality must be within [0, 1]")
        if not 0.0 <= self.zero_size_fraction <= 1.0:
            raise TraceError("zero_size_fraction must be within [0, 1]")
        if self.locality_stack_depth < 0:
            raise TraceError("locality_stack_depth must be non-negative")
        if self.mean_interarrival <= 0:
            raise TraceError("mean_interarrival must be positive")
        if self.mean_size <= 0 or self.max_size < self.mean_size:
            raise TraceError("require 0 < mean_size <= max_size")

    def scaled(self, fraction: float) -> "SyntheticTraceConfig":
        """Return a config with request/document/client counts scaled down.

        Useful for fast tests: ``bu_like_config().scaled(0.01)``.
        """
        if not 0.0 < fraction <= 1.0:
            raise TraceError("fraction must be within (0, 1]")
        return replace(
            self,
            num_requests=max(1, int(self.num_requests * fraction)),
            num_documents=max(1, int(self.num_documents * fraction)),
            num_clients=max(1, int(self.num_clients * fraction)),
        )


def bu_like_config(seed: int = 42) -> SyntheticTraceConfig:
    """Config matching the BU trace's published aggregate shape.

    575,775 requests over 46,830 unique documents from 591 users
    (Section 4.1 of the paper). Generating the full-size trace takes a few
    seconds; experiments normally use ``bu_like_config().scaled(...)``.
    """
    return SyntheticTraceConfig(
        num_requests=575_775,
        num_documents=46_830,
        num_clients=591,
        zero_size_fraction=0.02,
        seed=seed,
    )


class ZipfSampler:
    """Draws ranks 1..n from a Zipf(alpha) law via inverse-CDF lookup.

    Probability of rank ``k`` is ``k**-alpha / H(n, alpha)``. The cumulative
    table costs O(n) memory and each draw is O(log n).
    """

    def __init__(self, n: int, alpha: float, rng: random.Random):
        if n <= 0:
            raise TraceError("ZipfSampler requires n >= 1")
        self._rng = rng
        weights = [k ** -alpha for k in range(1, n + 1)]
        total = math.fsum(weights)
        #: Cumulative rank probabilities; a rank is ``bisect_left(cdf, u)``.
        self.cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cdf.append(acc)
        self.cdf[-1] = 1.0  # guard against float round-off

    def sample(self) -> int:
        """Return a rank in [0, n)."""
        return bisect.bisect_left(self.cdf, self._rng.random())


#: Requests per column chunk when the record path drives the core loop.
_RECORD_CHUNK = 4096


def document_url(doc: int) -> str:
    """URL of generator document ``doc`` (its identity in emitted records)."""
    return f"http://origin{doc % 97}.example.com/doc/{doc}"


def client_name(client: int) -> str:
    """Client id string of generator client index ``client``."""
    return f"host{client % 37}/user{client}"


class _URLTable(dict):
    """Generator doc id -> URL, formatted on first lookup and shared after."""

    def __missing__(self, doc: int) -> str:
        url = self[doc] = document_url(doc)
        return url


class BULikeTraceGenerator:
    """Generates a deterministic BU-like synthetic trace.

    Usage::

        trace = BULikeTraceGenerator(SyntheticTraceConfig(seed=7)).generate()
    """

    def __init__(self, config: Optional[SyntheticTraceConfig] = None):
        self.config = config or SyntheticTraceConfig()

    def _document_sizes(self, rng: random.Random) -> List[int]:
        """Draw one consistent size per document (lognormal, capped).

        The lognormal ``mu`` is chosen so the distribution's mean equals
        ``config.mean_size``: mean = exp(mu + sigma^2/2).
        """
        cfg = self.config
        mu = math.log(cfg.mean_size) - cfg.size_sigma ** 2 / 2.0
        sizes = []
        for _ in range(cfg.num_documents):
            size = int(rng.lognormvariate(mu, cfg.size_sigma))
            sizes.append(min(max(size, 64), cfg.max_size))
        return sizes

    def generate(self) -> Trace:
        """Produce the full trace as a :class:`~repro.trace.record.Trace`."""
        return Trace(list(self.iter_records()))

    def iter_records(self) -> Iterator[TraceRecord]:
        """Yield the trace's records one at a time, in trace order.

        Records are built from :meth:`iter_columns`, the one emission loop
        that :class:`repro.trace.stream.SyntheticTraceStream` also drives,
        so the RNG consumption order (and therefore every record) is
        identical by construction. Each document's URL is formatted once,
        on its first appearance, and shared by every later record of it.
        """
        urls = _URLTable()
        clients = [client_name(i) for i in range(self.config.num_clients)]
        for timestamps, client_idx, docs, sizes, sessions in self.iter_columns(
            _RECORD_CHUNK
        ):
            for now, ci, doc, size, session in zip(
                timestamps, client_idx, docs, sizes, sessions
            ):
                yield TraceRecord(
                    now, clients[ci], urls[doc], size, f"s{ci}.{session}"
                )

    def iter_columns(
        self, chunk_size: int
    ) -> Iterator[Tuple[List[float], List[int], List[int], List[int], List[int]]]:
        """The emission loop: yield the trace as raw per-chunk columns.

        Each item is ``(timestamps, client_idx, docs, sizes, sessions)``
        for the next ``chunk_size`` requests (fewer in the last chunk):
        client indices and generator document ids index the config's
        client and document universes, and ``sessions`` holds each
        request's per-client session number. Records render these as
        ``client_name(ci)``, ``document_url(doc)`` and ``f"s{ci}.{session}"``.

        Every output of this module comes from here, so the RNG draws
        happen in one order whatever the consumer and its chunk size.
        Streamed replay uses the columns directly, with O(chunk) request
        memory (the per-document and per-client tables still scale with
        the universe, not the request count).
        """
        if chunk_size <= 0:
            raise TraceError(f"chunk_size must be positive, got {chunk_size}")
        cfg = self.config
        rng = random.Random(cfg.seed)
        sampler = ZipfSampler(cfg.num_documents, cfg.zipf_alpha, rng)

        # Shuffle the rank->document mapping so popular documents are not
        # clustered at low ids (which would correlate with partitioners
        # that hash on the id).
        doc_ids = list(range(cfg.num_documents))
        rng.shuffle(doc_ids)
        doc_sizes = self._document_sizes(rng)

        # Client activity is itself skewed: a few heavy users dominate
        # real proxy traces. Lognormal weights reproduce that.
        weights = [rng.lognormvariate(0.0, 1.0) for _ in range(cfg.num_clients)]
        client_cdf: List[float] = []
        acc = 0.0
        total_w = math.fsum(weights)
        for w in weights:
            acc += w / total_w
            client_cdf.append(acc)
        client_cdf[-1] = 1.0

        # Per-client state as flat tables: recency stack (most recent
        # last, no repeats, at most locality_stack_depth long), last
        # request time and current session number.
        recents: List[List[int]] = [[] for _ in range(cfg.num_clients)]
        last_times = [-math.inf] * cfg.num_clients
        session_numbers = [0] * cfg.num_clients

        draw = rng.random
        expovariate = rng.expovariate
        bisect_left = bisect.bisect_left
        zipf_cdf = sampler.cdf
        rate = 1.0 / cfg.mean_interarrival
        locality = cfg.temporal_locality
        depth = cfg.locality_stack_depth
        session_gap = cfg.session_gap
        zero_fraction = cfg.zero_size_fraction
        now = cfg.start_time
        remaining = cfg.num_requests
        while remaining:
            n = min(chunk_size, remaining)
            remaining -= n
            timestamps = [0.0] * n
            client_idx = [0] * n
            docs = [0] * n
            sizes = [0] * n
            sessions = [0] * n
            for i in range(n):
                now += expovariate(rate)
                ci = bisect_left(client_cdf, draw())
                recent = recents[ci]
                if recent and draw() < locality:
                    # Re-reference: geometric preference for the most
                    # recent documents in the client's stack.
                    idx = len(recent) - 1
                    while idx > 0 and draw() < 0.5:
                        idx -= 1
                    doc = recent.pop(idx)
                else:
                    doc = doc_ids[bisect_left(zipf_cdf, draw())]
                    if doc in recent:
                        recent.remove(doc)
                recent.append(doc)
                if len(recent) > depth:
                    del recent[0]

                session = session_numbers[ci]
                if now - last_times[ci] > session_gap:
                    session += 1
                    session_numbers[ci] = session
                last_times[ci] = now

                size = doc_sizes[doc]
                if zero_fraction and draw() < zero_fraction:
                    size = 0
                timestamps[i] = now
                client_idx[i] = ci
                docs[i] = doc
                sizes[i] = size
                sessions[i] = session
            yield timestamps, client_idx, docs, sizes, sessions


def generate_trace(config: Optional[SyntheticTraceConfig] = None) -> Trace:
    """Convenience wrapper: ``generate_trace(cfg)`` == ``BULikeTraceGenerator(cfg).generate()``."""
    return BULikeTraceGenerator(config).generate()
