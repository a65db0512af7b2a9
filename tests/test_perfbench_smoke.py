"""Smoke tests of the benchmark on every workload, traced and untraced.

Each runs `perfbench/run.py` briefly and checks that the run is correct
(no failed output check or span self-check, such as the trunk no longer
being reached through `DualStreamAR.forward_states`, or a traced span
such as `engine.softmax`, `nn.layer_norm`, `train.adam` or
`engine.gradients` seeing no call in a training stage) and that it
prints exactly the metrics `BENCHMARK.json` declares for its mode:
per-layer when traced, end-to-end when not. Wall-clock figures are not
asserted.

A traced run's `exact` section (loss and mel digests, tape nodes per
step, trunk calls and positions, NAR predict calls) must also equal the
figures pinned in `perfbench_pins.json`. A change that means to move a
pin updates it there and says why.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import host_note

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["synth_long", "synth_short", "train"]
PINS = json.loads((Path(__file__).with_name("perfbench_pins.json")).read_text())


def _run(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(PINS["seed"]),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace:
        record = json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed{PINS['seed']}-trace1.json").read_text())
        pinned = PINS["exact"][workload]
        differ = sorted(k for k in set(pinned) | set(record["exact"]) if pinned.get(k) != record["exact"].get(k))
        assert not differ, (f"{workload} exact figures differ from the pins: "
                            + ", ".join(f"{k} {pinned.get(k)} -> {record['exact'].get(k)}" for k in differ)
                            + "; " + host_note(PINS["host"]))


@pytest.mark.parametrize("workload", ["synth_long", "synth_short"])
def test_traced_synthesis_run_is_correct(workload):
    _run(workload, trace=1)


def test_traced_train_run_is_correct():
    _run("train", trace=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct(workload):
    _run(workload, trace=0)
