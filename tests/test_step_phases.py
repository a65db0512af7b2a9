"""The phase-split harness: its summary on canned runs, and one real pair on the mini config."""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import mini_pipeline_config

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("step_phases", _ROOT / "scripts" / "step_phases.py")
step_phases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_phases)


def test_summary_takes_medians_of_process_medians_and_counts_pairs_won():
    parent = [{"ar": {"backward": b, "step": s}} for b, s in ((6.0, 13.0), (6.2, 13.4), (5.9, 12.9))]
    change = [{"ar": {"backward": b, "step": s}} for b, s in ((6.1, 12.5), (6.3, 12.6), (5.8, 13.0))]
    runs = [{"pair": i, "side": side, "medians": m}
            for i in range(3) for side, m in (("parent", parent[i]), ("change", change[i]))]
    runs.append({"pair": 3, "side": "parent", "medians": {"ar": {"step": 20.0}, "flow": {"step": 1.4}}})
    summary = step_phases.summarise(runs)
    step = summary["ar"]["step"]
    assert (step["parent"], step["change"]) == (13.2, 12.6)  # pair 3 has no change side
    assert step["ratio"] == pytest.approx(12.6 / 13.2)
    assert (step["pairs_won"], step["pairs"]) == (2, 3)
    backward = summary["ar"]["backward"]
    assert (backward["parent"], backward["change"], backward["pairs_won"]) == (6.0, 6.1, 1)
    assert summary["flow"]["step"] == {"parent": 1.4}
    text = step_phases.table(summary)
    rows = [line.split() for line in text.splitlines()]
    assert ["ar", "step", "13.200", "12.600", "0.955", "2/3"] in rows
    assert ["flow", "step", "1.400", "-", "-", "-"] in rows


def test_one_pair_on_the_mini_config(tmp_path, capsys):
    """Both sides are this checkout: each process trains the four stages of
    the mini config for 3 steps and reports every phase of every stage."""
    pcfg = mini_pipeline_config()
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(pcfg.to_dict()))
    out = tmp_path / "phases.json"
    assert step_phases.main(["--parent", str(_ROOT), "--change", str(_ROOT), "--pairs", "1", "--steps", "3",
                             "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [(r["pair"], r["side"]) for r in doc["runs"]] == [(0, "parent"), (0, "change")]
    assert {s["total_steps"] for s in doc["config"]["schedules"].values()} == {3}
    assert list(doc["summary"]) == ["tokenizer", "ar", "nar", "flow"]
    for stage, phases in doc["summary"].items():
        assert list(phases) == ["forward", "gated", "backward", "optimiser", "step"], stage
        for phase, entry in phases.items():
            assert entry["pairs"] == 1 and entry["parent"] >= 0 and entry["change"] >= 0, (stage, phase)
        assert phases["step"]["parent"] > 0
    assert "ar         step" in capsys.readouterr().out
