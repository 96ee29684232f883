"""Self-test of the benchmark at toy size. From the repository root:

    python3 -m pytest -q perfbench/test_benchmark.py

Checks that every workload prints exactly the metrics BENCHMARK.json names,
that a traced op's summed self times fit in its wall time, and that a
corrupted reference fails every op.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run(workload: str, trace: int, references: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", "toy"]
    if references is not None:
        cmd += ["--references", str(references)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_match_spec(workload):
    result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_match_spec_and_self_times_fit(workload):
    result = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("per_layer")

    sys.path.insert(0, str(HERE))
    import spans
    trace = json.loads((OUT / f"trace-toy-{workload}-seed{SEED}.json").read_text())
    assert len(trace["ops"]) == len(trace["op_walls"]) >= 1
    for op, wall in zip(trace["ops"], trace["op_walls"]):
        recorded = [spans.Span(*row) for row in op]
        assert sum(1 for s in recorded if s.parent is None) == 1
        total_self = sum(spans.self_times(recorded).values())
        assert 0 < total_self <= wall * trace["threads"] * (1 + 1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_the_check(workload):
    refs = json.loads((HERE / "references.json").read_text())
    entry = refs["toy"][workload][str(SEED % 16)]

    def corrupt(node):
        """Scale the first float found by 1 + 1e-6; return whether one was."""
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float) and abs(value) > 1e-3:
                node[key] = value * (1 + 1e-6)
                return True
            if isinstance(value, (dict, list)) and corrupt(value):
                return True
        return False

    assert corrupt(entry)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"corrupted-{workload}.json"
    path.write_text(json.dumps(refs))
    result = run(workload, 0, references=path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
