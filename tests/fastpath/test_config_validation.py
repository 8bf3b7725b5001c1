"""Every engine rejects exactly the configs the object engine rejects.

The fast engines validate through the object core's own validators, in
the order the object core meets them while it builds a group and starts
the replay, so an invalid config raises the same exception type with the
same message on every engine, whatever else is wrong with it.
"""

from __future__ import annotations

import pytest

from repro.errors import CacheConfigurationError, SimulationError, TraceError
from repro.fastpath import simulate_batch, simulate_columnar
from repro.simulation.simulator import (
    CooperativeSimulator,
    SimulationConfig,
    run_simulation,
)
from repro.trace import SyntheticTraceConfig, generate_trace

ENGINES = ("object", "columnar", "batch")


@pytest.fixture(scope="module")
def evicting_trace():
    """3,000 requests that overflow the 200 KB group within the replay."""
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=3_000, num_documents=400, num_clients=10, seed=3
        )
    )


REJECTED = [
    ({"window_mode": "count", "window_size": 0}, CacheConfigurationError,
     "window_size must be positive"),
    ({"window_mode": "count", "window_size": -3}, CacheConfigurationError,
     "window_size must be positive"),
    ({"window_mode": "time", "window_seconds": 0.0}, CacheConfigurationError,
     "window_seconds must be positive"),
    ({"scheme": "ea", "max_replica_fraction": 0.0}, CacheConfigurationError,
     "max_replica_fraction must be in (0, 1] when given"),
    ({"scheme": "ea", "max_replica_fraction": 1.5}, CacheConfigurationError,
     "max_replica_fraction must be in (0, 1] when given"),
    ({"patch_size": 0}, TraceError, "patch_size must be positive, got 0"),
    # Several faults at once: the object core's first check wins.
    ({"scheme": "ea", "max_replica_fraction": 0.0, "aggregate_capacity": 2,
      "window_size": 0, "patch_size": 0}, CacheConfigurationError,
     "max_replica_fraction must be in (0, 1] when given"),
    ({"aggregate_capacity": 2, "window_size": 0}, SimulationError,
     "aggregate capacity 2 too small"),
    ({"window_size": 0, "patch_size": 0}, CacheConfigurationError,
     "window_size must be positive"),
    ({"policy": "lfu", "window_size": 0}, CacheConfigurationError,
     "window_size must be positive"),
    ({"architecture": "hierarchical", "window_size": 0},
     CacheConfigurationError, "window_size must be positive"),
]


@pytest.mark.parametrize("fields,exc_type,message", REJECTED)
@pytest.mark.parametrize("engine", ENGINES)
def test_invalid_config_rejected_like_object(
    evicting_trace, engine, fields, exc_type, message
):
    kwargs = {"aggregate_capacity": 200_000, **fields}
    config = SimulationConfig(engine=engine, **kwargs)
    with pytest.raises(exc_type) as info:
        run_simulation(config, evicting_trace)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "fields",
    [
        # Inert fields: the object engine ignores them, so must the others.
        {"scheme": "adhoc", "max_replica_fraction": 1.5},
        {"window_mode": "cumulative", "window_size": 0},
        {"window_mode": "count", "window_seconds": -1.0},
        # Boundary values that are valid.
        {"scheme": "ea", "max_replica_fraction": 1.0},
        {"window_mode": "count", "window_size": 1},
    ],
)
def test_valid_configs_still_agree(evicting_trace, fields):
    config = SimulationConfig(aggregate_capacity=200_000, **fields)
    expected = CooperativeSimulator(config).run(evicting_trace).to_json()
    assert simulate_columnar(config, evicting_trace).to_json() == expected
    assert simulate_batch(config, evicting_trace).to_json() == expected
