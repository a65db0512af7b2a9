"""Smoke tests of the benchmark on every workload, traced and untraced.

Each runs `perfbench/run.py` briefly and checks that the run is correct
(no failed output check or span self-check, such as the trunk no longer
being reached through `DualStreamAR.forward_states`, or a traced span
such as `engine.softmax`, `nn.layer_norm`, `train.adam` or
`engine.gradients` seeing no call in a training stage) and that it
prints exactly the metrics `BENCHMARK.json` declares for its mode:
per-layer when traced, end-to-end when not. Wall-clock figures are not
asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["synth_long", "synth_short", "train"]


def _run(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", ["synth_long", "synth_short"])
def test_traced_synthesis_run_is_correct(workload):
    _run(workload, trace=1)


def test_traced_train_run_is_correct():
    _run("train", trace=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct(workload):
    _run(workload, trace=0)
