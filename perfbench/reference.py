"""Reference digests every replay of the benchmark is checked against.

For the default seed and one held-out seed, ``reference_digests.json``
stores the sha256 of each point's result as the object engine — the
oracle — produces it. Any other seed is checked against an untimed replay
of the same points on the columnar engine (the object engine takes about
a minute per workload at BU scale, more than a run's budget). A streamed
workload's reference replays the materialised trace, which holds the same
records, so the trace is generated once rather than once per point.

Regenerate the stored digests after a deliberate change to simulated
results::

    python3 perfbench/reference.py --seed 42 --seed 2002
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":
    ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import (
    WORKLOADS,
    Workload,
    result_digest,
    set_up,
    sim_config,
    trace_config,
)
from repro.trace.synthetic import SyntheticTraceConfig

STORE = Path(__file__).resolve().with_name("reference_digests.json")
DEFAULT_SEED = 42
HELD_OUT_SEED = 2002


def stored(workload: Workload, config: SyntheticTraceConfig) -> Optional[Dict[str, str]]:
    """Object-engine digests for ``workload`` over ``config``, when stored.

    Digests are stored per seed for the full-scale trace only.
    """
    if config != trace_config(workload, config.seed):
        return None
    with open(STORE, encoding="utf-8") as handle:
        seeds = json.load(handle)["seeds"]
    return seeds.get(str(config.seed), {}).get(workload.name)


def replay_reference(workload: Workload, source, engine: str = "columnar") -> Dict[str, Optional[str]]:
    """Digest of every point replayed on ``engine``; None where it raised."""
    from repro.simulation.simulator import run_simulation
    from repro.trace.synthetic import generate_trace

    if workload.streamed:
        source = generate_trace(source.config)
    digests: Dict[str, Optional[str]] = {}
    for point in workload.points:
        try:
            result = run_simulation(sim_config(workload, point, engine), source)
            digests[point.name] = result_digest(result)
        except Exception:  # an unverifiable point fails its replays
            print(f"reference {point.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            digests[point.name] = None
    return digests


def oracle_digests(workload: Workload, seed: int) -> Dict[str, Optional[str]]:
    """Object-engine digests at full scale."""
    return replay_reference(workload, set_up(workload, trace_config(workload, seed)), "object")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    payload = json.loads(STORE.read_text(encoding="utf-8")) if STORE.exists() else {}
    seeds = payload.setdefault("seeds", {})
    for seed in args.seed:
        for name in WORKLOADS:
            digests = oracle_digests(WORKLOADS[name], seed)
            if None in digests.values():
                print(f"error: the object engine raised on {name} seed {seed}", file=sys.stderr)
                return 1
            seeds.setdefault(str(seed), {})[name] = digests
            print(f"{name} seed {seed}: {len(digests)} points", flush=True)
    payload["about"] = (
        "sha256 of SimulationResult.to_json() without the config echo's "
        "engine field, produced by the object engine"
    )
    STORE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
