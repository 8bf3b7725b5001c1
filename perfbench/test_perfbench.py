"""Self-tests of the benchmark, at a tiny trace scale.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import ledger, reference, run, workloads  # noqa: E402
from perfbench.run import run_workload  # noqa: E402
from perfbench.workloads import WORKLOADS, set_up, trace_config  # noqa: E402
from repro.obs.spans import validate_trace_events  # noqa: E402
from repro.trace.stream import source_fingerprint  # noqa: E402

TINY = 0.01
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    config = trace_config(WORKLOADS[workload], seed, TINY)
    return run_workload(WORKLOADS[workload], config, 0, bool(trace))


def _cli(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", str(TINY)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = _cli("bu-hier", trace)  # its shape, unlike bu-sweep's, holds at a tiny scale
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("metric error_rate 0 fraction") for line in lines)


def test_corrupted_reference_fails_exactly_that_point():
    workload = WORKLOADS["bu-sweep"]
    config = trace_config(workload, 3, TINY)
    expected = reference.replay_reference(workload, set_up(workload, config))
    bad = workload.points[1].name
    expected[bad] = "0" * 64
    out = run_workload(workload, config, 0, False, expected=expected)
    of_point = [r for r in out["replays"] if r.point.name == bad]
    assert of_point and out["failed"] == len(of_point)
    assert out["attempted"] == len(out["replays"]) > len(of_point)


def test_traced_spans_nest_and_report_unattributed_time():
    out = _run("stream-gen", 1)
    payload = out["tracer"].to_chrome()
    assert validate_trace_events(payload) == []
    names = {e["name"] for e in payload["traceEvents"]}
    assert {"run", "setup", "sweep", "replay", "pull", "intern", "serialize", "baseline"} <= names
    metrics = out["metrics"]
    assert metrics["unattributed_s"] > 0
    assert metrics["trace.stream_pull_s"] == pytest.approx(
        metrics["trace.stream_generate_s"] + metrics["intern.stream_s"]
    )
    assert metrics["batch.scalar_req"] == 0 and out["failed"] == 0


def test_traced_counts_repeat_exactly():
    first, second = _run("bu-sweep", 1)["metrics"], _run("bu-sweep", 1)["metrics"]
    counts = [k for k in first if k.startswith("sim.") or k.endswith("_req") and "us_per" not in k]
    assert counts and all(first[k] == second[k] for k in counts)
    assert first["sim.evictions"] > 0 and first["batch.scalar_req"] > 0


def test_seed_changes_the_trace_fingerprint():
    workload = WORKLOADS["bu-sweep"]
    one, two = (source_fingerprint(set_up(workload, trace_config(workload, s, TINY))) for s in (1, 2))
    assert one != two


def test_bu_hier_falls_back_to_the_columnar_core():
    out = _run("bu-hier", 0)
    assert out["replays"] and all("fallback_reason" in r.regimes for r in out["replays"])
    assert all(holds for holds, _ in out["shape"])


def test_reference_digests_are_stored_for_both_seeds():
    for seed in (reference.DEFAULT_SEED, reference.HELD_OUT_SEED):
        for workload in WORKLOADS.values():
            digests = reference.stored(workload, trace_config(workload, seed))
            assert digests is not None
            assert set(digests) == {p.name for p in workload.points}


def _pair_rows(precompute_ns: int) -> list:
    """Spans of a two-point traced pass; the first replay pays ``precompute_ns``."""
    rows, t = [], 0
    for i, capacity in enumerate(("100KB", "1MB")):
        took = 1_000 + (precompute_ns if i == 0 else 0)
        args = {"scheme": "adhoc", "capacity": capacity, "core": "batch", "streamed": 0,
                "requests": 10, "cold": 0, "hit_run": 0, "scalar": 10}
        rows.append(["replay", "replay", t, t + took, 0, args])
        rows.append(["baseline", "baseline", t + took, t + took + 900, 0, {}])
        t += took + 900
    rows.append(["sweep", "group", 0, t, 0, {}])
    rows.append(["run", "group", 0, t, 0, {}])
    return rows


def test_tracing_overhead_leaves_out_the_precompute():
    small, large = (ledger.per_layer(ledger.span_tree(_pair_rows(p)), {}) for p in (100, 5_000))
    assert large["batch.precompute_s"] - small["batch.precompute_s"] == pytest.approx(4_900e-9)
    assert small["tracing_overhead_pct"] == large["tracing_overhead_pct"] == pytest.approx(10.0)


def test_a_broken_shape_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "shape_check", lambda *a, **k: [(False, "forced")])
    code = run.main(["--workload", "bu-hier", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--scale", str(TINY)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "shape VIOLATED: forced" in out
    assert json.loads(out[-1])["correct"] is False
