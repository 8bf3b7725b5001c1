"""Unit tests for the synthetic BU-like trace generator."""

from __future__ import annotations

import math

import pytest

from repro.errors import TraceError
from repro.trace.stats import compute_stats, fit_zipf_alpha
from repro.trace.synthetic import (
    BULikeTraceGenerator,
    SyntheticTraceConfig,
    ZipfSampler,
    bu_like_config,
    generate_trace,
)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_requests": 0},
            {"num_documents": 0},
            {"num_clients": -1},
            {"zipf_alpha": -0.1},
            {"temporal_locality": 1.5},
            {"zero_size_fraction": -0.01},
            {"mean_interarrival": 0.0},
            {"mean_size": 0},
            {"mean_size": 100, "max_size": 50},
            {"mean_interarrival": math.inf},
            {"mean_interarrival": math.nan},
            {"start_time": math.nan},
            {"start_time": math.inf},
            {"zipf_alpha": math.nan},
            {"zipf_alpha": math.inf},
            {"size_sigma": math.nan},
            {"size_sigma": math.inf},
            {"session_gap": math.nan},
            {"locality_stack_depth": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(TraceError):
            SyntheticTraceConfig(**kwargs)

    def test_scaled(self):
        config = SyntheticTraceConfig(num_requests=1000, num_documents=100, num_clients=10)
        scaled = config.scaled(0.1)
        assert scaled.num_requests == 100
        assert scaled.num_documents == 10
        assert scaled.num_clients == 1

    def test_scaled_never_zero(self):
        tiny = SyntheticTraceConfig(num_requests=5, num_documents=5, num_clients=5).scaled(0.01)
        assert tiny.num_requests >= 1
        assert tiny.num_documents >= 1

    def test_scaled_rejects_bad_fraction(self):
        with pytest.raises(TraceError):
            SyntheticTraceConfig().scaled(0.0)
        with pytest.raises(TraceError):
            SyntheticTraceConfig().scaled(1.5)

    def test_bu_like_config_matches_paper_dimensions(self):
        config = bu_like_config()
        assert config.num_requests == 575_775
        assert config.num_documents == 46_830
        assert config.num_clients == 591


class TestZipfSampler:
    def test_rejects_empty_universe(self):
        import random

        with pytest.raises(TraceError):
            ZipfSampler(0, 0.8, random.Random(0))

    def test_samples_in_range(self):
        import random

        sampler = ZipfSampler(50, 0.8, random.Random(3))
        draws = [sampler.sample() for _ in range(2000)]
        assert min(draws) >= 0
        assert max(draws) < 50

    def test_rank_zero_is_most_popular(self):
        import random

        sampler = ZipfSampler(100, 1.0, random.Random(5))
        from collections import Counter

        counts = Counter(sampler.sample() for _ in range(20000))
        # Rank 0 must dominate the tail ranks decisively.
        assert counts[0] > counts.get(50, 0) * 5

    def test_alpha_zero_is_uniformish(self):
        import random

        sampler = ZipfSampler(10, 0.0, random.Random(7))
        from collections import Counter

        counts = Counter(sampler.sample() for _ in range(20000))
        assert max(counts.values()) < 2 * min(counts.values())


class TestGenerator:
    def _config(self, **kw):
        defaults = dict(
            num_requests=3000, num_documents=400, num_clients=12, seed=99
        )
        defaults.update(kw)
        return SyntheticTraceConfig(**defaults)

    def test_request_count(self):
        assert len(generate_trace(self._config())) == 3000

    def test_deterministic_for_same_seed(self):
        a = generate_trace(self._config())
        b = generate_trace(self._config())
        assert [r.url for r in a] == [r.url for r in b]
        assert [r.timestamp for r in a] == [r.timestamp for r in b]

    def test_different_seeds_differ(self):
        a = generate_trace(self._config(seed=1))
        b = generate_trace(self._config(seed=2))
        assert [r.url for r in a] != [r.url for r in b]

    def test_timestamps_strictly_increasing(self):
        trace = generate_trace(self._config())
        stamps = [r.timestamp for r in trace]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_unique_documents_bounded_by_universe(self):
        trace = generate_trace(self._config())
        assert trace.unique_urls <= 400

    def test_client_count_bounded(self):
        trace = generate_trace(self._config())
        assert trace.unique_clients <= 12

    def test_popularity_is_skewed(self):
        trace = generate_trace(self._config(num_requests=20000))
        alpha = fit_zipf_alpha(trace)
        assert 0.4 < alpha < 1.6, f"fitted alpha {alpha} outside web-trace range"

    def test_sizes_consistent_per_document(self):
        trace = generate_trace(self._config(zero_size_fraction=0.0))
        sizes = {}
        for record in trace:
            assert record.size > 0
            previous = sizes.setdefault(record.url, record.size)
            assert previous == record.size

    def test_zero_size_fraction_produces_zero_records(self):
        trace = generate_trace(self._config(zero_size_fraction=0.3))
        zeros = sum(1 for r in trace if r.size == 0)
        assert 0.2 < zeros / len(trace) < 0.4

    def test_mean_size_roughly_matches_target(self):
        trace = generate_trace(
            self._config(num_requests=20000, zero_size_fraction=0.0, mean_size=4096)
        )
        stats = compute_stats(trace)
        # Popularity-weighted mean won't match exactly, but must be same
        # order of magnitude.
        assert 1000 < stats.mean_size < 20000

    def test_sizes_capped(self):
        trace = generate_trace(self._config(max_size=10_000, zero_size_fraction=0.0))
        assert max(r.size for r in trace) <= 10_000

    def test_sessions_assigned(self):
        trace = generate_trace(self._config())
        assert all(r.session_id for r in trace)

    def test_session_rolls_over_after_gap(self):
        # Huge interarrival + tiny gap forces a new session per request.
        trace = generate_trace(
            self._config(
                num_requests=50,
                num_clients=1,
                mean_interarrival=1000.0,
                session_gap=1.0,
            )
        )
        sessions = {r.session_id for r in trace}
        # Exponential gaps with mean 1000s rarely dip under the 1s threshold,
        # so nearly every request opens a new session.
        assert len(sessions) >= 45

    def test_temporal_locality_increases_repeats(self):
        low = generate_trace(self._config(temporal_locality=0.0, num_requests=10000))
        high = generate_trace(self._config(temporal_locality=0.8, num_requests=10000))
        assert high.unique_urls < low.unique_urls

    def test_start_time_respected(self):
        trace = generate_trace(self._config(start_time=1000.0))
        assert trace[0].timestamp > 1000.0

    def test_generator_class_equivalent_to_helper(self):
        config = self._config()
        a = BULikeTraceGenerator(config).generate()
        b = generate_trace(config)
        assert [r.url for r in a] == [r.url for r in b]
