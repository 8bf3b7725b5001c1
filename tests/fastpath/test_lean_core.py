"""The batch engine's lazy age window and its packed heap keys.

:func:`repro.fastpath.batch.fold_ages` folds a cache's logged eviction
ages into the window sum only when the age is read. It must give
bit-equal ages to :class:`RingAgeTracker`, which folds every eviction as
it happens, wherever the reads fall — including across the point where
the folded log is trimmed. Lazy-LRU heap keys pack ``(touch index <<
32) | slot``: slots must stay below 2**32, and touch indices past the
int64 range of the cold regime's numpy keys must still order exactly.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import SimulationError
from repro.fastpath.batch import fold_ages, simulate_batch
from repro.fastpath.interning import InternedChunk
from repro.fastpath.ringtracker import RingAgeTracker
from repro.simulation.simulator import SimulationConfig


def _bits(x: float) -> str:
    return x.hex() if math.isfinite(x) else repr(x)


@pytest.mark.parametrize("window", [1, 2, 1000, 0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_matches_eager_ring(window, seed):
    rng = random.Random(seed)
    mode = "count" if window else "cumulative"
    ring = RingAgeTracker(window_mode=mode, window_size=window or 1000)
    win = [[], 0, 0.0, 0]
    log = win[0]
    assert fold_ages(win, window) == math.inf
    longest = 0
    # Enough ages to cross the trim point (2 * window) several times.
    for step in range(4_500):
        # Fractional ages whose float sums are order-sensitive, with
        # runs of zeros that expose any reordering of the subtractions.
        age = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 1.0) * 10 ** rng.randint(-3, 4)
        ring.record(age, float(step))
        log.append(age)
        longest = max(longest, len(log))
        if rng.random() < 0.05 or step == 4_499:
            got = fold_ages(win, window)
            assert _bits(got) == _bits(ring.cache_expiration_age())
    if window:
        assert longest <= 2 * window + 250  # trimmed, not grown without bound
    else:
        assert log == []


def test_fold_is_idempotent_between_evictions():
    win = [[0.3, 0.6, 0.0, 0.0], 0, 0.0, 0]
    first = fold_ages(win, 2)
    assert fold_ages(win, 2) == first
    assert win[1] == len(win[0])


class _Universe:
    """A new-URL delta that only reports its length."""

    def __init__(self, size: int):
        self.size = size

    def __len__(self) -> int:
        return self.size


class _Chunk:
    num_records = 0
    new_client_names = ()

    def __init__(self, new_urls):
        self.new_urls = new_urls


class _HugeSource:
    """A streamed source whose first chunk introduces ``docs`` documents."""

    def __init__(self, docs: int):
        self.docs = docs

    def interned_chunks(self, chunk_size: int):
        yield _Chunk(_Universe(self.docs))


def test_slot_universe_guard():
    # 4 caches x 2**30 documents = 2**32 slots: heap keys would overflow
    # their 32-bit slot field, so the engine refuses before allocating.
    config = SimulationConfig(num_caches=4, engine="batch")
    with pytest.raises(SimulationError, match="2\\*\\*32 slots"):
        simulate_batch(config, _HugeSource(1 << 30))


class _Shifted:
    """A trace's interned chunks, renumbered as if ``offset`` requests
    had been replayed before it."""

    def __init__(self, trace, offset: int):
        self.trace = trace
        self.offset = offset

    def interned_chunks(self, chunk_size: int):
        for chunk in self.trace.interned().chunks(chunk_size):
            yield InternedChunk(
                doc_ids=chunk.doc_ids,
                sizes=chunk.sizes,
                timestamps=chunk.timestamps,
                clients=chunk.clients,
                new_urls=chunk.new_urls,
                new_client_names=chunk.new_client_names,
                base_docs=chunk.base_docs,
                base_clients=chunk.base_clients,
                base_records=chunk.base_records + self.offset,
            )


@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_touch_indices_past_int32_order_exactly(small_trace, scheme):
    # Shifting every touch index by 2**31 moves the cold regime's heap
    # keys past int64 and the scalar core's keys past 2**63; relative
    # order, and so every result byte, must not change.
    config = SimulationConfig(scheme=scheme, aggregate_capacity=300_000)
    expected = simulate_batch(config, _Shifted(small_trace, 0), chunk_size=1_500)
    shifted = simulate_batch(config, _Shifted(small_trace, 1 << 31), chunk_size=1_500)
    assert sum(s.evictions for s in expected.cache_stats) > 0
    assert shifted.to_json() == expected.to_json()
