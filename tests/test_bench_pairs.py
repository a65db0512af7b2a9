"""The paired-run summariser's maths, on canned runs; perfbench never runs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"op_ms_p50": "lower", "work_per_s": "higher"}


def _run(workload, pair, side, op_ms, work, seed=1):
    return {"workload": workload, "seed": seed, "seconds": 15.0, "pair": pair, "side": side,
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"op_ms_p50": op_ms, "work_per_s": work}}


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_medians_quartiles_ratio_and_pairs_won():
    parent = [10.0, 11.0, 12.0, 13.0]
    change = [9.0, 11.5, 9.5, 10.0]
    runs = [_run("train", i, side, ms, 1000.0 / ms)
            for i in range(4) for side, ms in (("parent", parent[i]), ("change", change[i]))]
    (s,) = bench_pairs.summarise(runs, BETTER)
    assert (s["workload"], s["seed"], s["seconds"]) == ("train", 1, 15.0)
    op = s["metrics"]["op_ms_p50"]
    assert op["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25, "n": 4}
    assert op["change"] == {"q1": 9.375, "median": 9.75, "q3": 10.375, "n": 4}
    assert op["ratio"] == pytest.approx(9.75 / 11.5)
    # pair 1 has the change slower (11.5 against 11.0)
    assert (op["pairs_won"], op["pairs"]) == (3, 4)
    # 11.5 - 9.75 = 1.75 against a parent IQR of 1.5
    assert op["beyond_parent_iqr"] is True
    work = s["metrics"]["work_per_s"]
    assert (work["pairs_won"], work["pairs"], work["beyond_parent_iqr"]) == (3, 4, True)
    assert work["ratio"] > 1.0


def test_summary_within_the_parent_spread_is_not_beyond_it():
    runs = [_run("train", i, side, ms, 1.0)
            for i, (p, c) in enumerate([(10.0, 9.9), (12.0, 11.9), (10.0, 9.9), (12.0, 11.9)])
            for side, ms in (("parent", p), ("change", c))]
    (s,) = bench_pairs.summarise(runs, BETTER)
    op = s["metrics"]["op_ms_p50"]
    assert op["pairs_won"] == 4 and op["beyond_parent_iqr"] is False


def test_summary_skips_failed_runs_and_splits_workloads_and_seeds():
    runs = [_run("synth_long", 0, "parent", 20.0, 1.0), _run("synth_long", 0, "change", 19.0, 1.0),
            {"workload": "synth_long", "seed": 1, "seconds": 15.0, "pair": 1, "side": "change",
             "error": "exit 1: boom"},
            _run("synth_long", 1, "parent", 22.0, 1.0),
            _run("synth_short", 0, "parent", 6.0, 1.0),
            _run("synth_long", 0, "parent", 30.0, 1.0, seed=2), _run("synth_long", 0, "change", 31.0, 1.0, seed=2)]
    long1, short, long2 = bench_pairs.summarise(runs, BETTER)
    assert [(s["workload"], s["seed"]) for s in (long1, short, long2)] == [
        ("synth_long", 1), ("synth_short", 1), ("synth_long", 2)]
    op = long1["metrics"]["op_ms_p50"]
    assert (op["pairs_won"], op["pairs"]) == (1, 1)
    assert op["parent"]["n"] == 2 and op["change"]["n"] == 1
    assert set(short["metrics"]["op_ms_p50"]) == {"parent"}
    op = long2["metrics"]["op_ms_p50"]
    assert (op["pairs_won"], op["pairs"], op["parent"]["median"]) == (0, 1, 30.0)


def test_traced_runs_are_summarised_apart_by_the_per_layer_directions():
    """Traced and untraced runs of one workload and seed are two entries,
    each over the metrics its runs report; a per-layer metric whose
    better direction is "higher" counts a rise as a win."""
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert better["train.adam.ar.ms"] == "lower" and better["pipeline.infer.coverage"] == "higher"

    def traced(pair, side, adam_ms, forward_ms, cover):
        return {"workload": "train", "seed": 1, "seconds": 15.0, "trace": 1, "pair": pair, "side": side,
                "correct": True, "attempted": 10, "failed": 0,
                "metrics": {"train.adam.ar.ms": adam_ms, "train.ar.forward_ms": forward_ms,
                            "pipeline.infer.coverage": cover}}

    runs = [_run("train", 0, "parent", 10.0, 100.0), _run("train", 0, "change", 9.0, 111.0)]
    runs += [traced(0, "parent", 3.1, 5.7, 0.96), traced(0, "change", 0.7, 6.6, 0.97),
             traced(1, "change", 0.6, 6.7, 0.95), traced(1, "parent", 3.2, 5.8, 0.97)]
    untraced, traced_entry = bench_pairs.summarise(runs, better)
    assert (untraced["trace"], traced_entry["trace"]) == (0, 1)
    assert set(untraced["metrics"]) == {"op_ms_p50", "work_per_s"}
    assert set(traced_entry["metrics"]) == {"train.adam.ar.ms", "train.ar.forward_ms", "pipeline.infer.coverage"}
    adam, forward, cover = (traced_entry["metrics"][k] for k in
                            ("train.adam.ar.ms", "train.ar.forward_ms", "pipeline.infer.coverage"))
    assert (adam["pairs_won"], adam["pairs"], adam["ratio"]) == (2, 2, pytest.approx(0.65 / 3.15))
    assert forward["pairs_won"] == 0 and forward["beyond_parent_iqr"] is False
    assert cover["pairs_won"] == 1  # 0.97 against 0.96 wins, 0.95 against 0.97 loses


def test_run_once_passes_the_trace_mode(monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, cwd, capture_output, text):
        calls.append((cmd, cwd))
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"train.adam.ar.ms": {"value": 0.7, "unit": "ms"}}}
        return SimpleNamespace(returncode=0, stderr="",
                               stdout="# env " + json.dumps({"git_commit": "abc"}) + "\n" + json.dumps(result))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run, env = bench_pairs.run_once(tmp_path, "train", 1, 15.0, 1)
    ((cmd, cwd),) = calls
    assert cmd[cmd.index("--trace") + 1] == "1" and cwd == tmp_path
    assert run == {"correct": True, "attempted": 3, "failed": 0, "metrics": {"train.adam.ar.ms": 0.7}}
    assert env == {"git_commit": "abc"}


def test_parse_output_reads_the_last_line_and_the_environment():
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"op_ms_p50": {"value": 9.5, "unit": "ms"}}}
    stdout = "\n".join(["# env " + json.dumps({"nproc": 2, "git_commit": "abc"}),
                        "# op_ms_p50 = 9.5 ms", json.dumps(result)]) + "\n"
    got, env = bench_pairs.parse_output(stdout)
    assert got == result and env == {"nproc": 2, "git_commit": "abc"}


def test_src_digest_follows_the_sources(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n")
    first = bench_pairs.src_digest(tmp_path)
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    (tmp_path / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    assert bench_pairs.src_digest(tmp_path) == first
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 2\n")
    assert bench_pairs.src_digest(tmp_path) != first


def test_copies_alternate_every_two_pairs():
    assert [bench_pairs.copy_index(i) for i in range(6)] == [0, 0, 1, 1, 0, 0]
    met = {(bench_pairs.order(i), bench_pairs.copy_index(i)) for i in range(4)}
    assert len(met) == 4  # each run order meets each copy within four pairs


def _checkout(root: Path, text: str) -> Path:
    (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg" / "a.py").write_text(text)
    (root / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "op_ms_p50", "better": "lower"}],
                                                     "per_layer": []}))
    return root


def test_each_side_runs_from_two_copies_of_its_checkout(monkeypatch, tmp_path):
    """Canned runs over four pairs: each side runs from two copies of its
    checkout, which hold its files and sit at paths of equal length for
    both sides, the copy changing every two pairs. Each run records its
    copy, and the copies are gone once the script returns."""
    roots = {side: _checkout(tmp_path / side, f"x = {i}\n") for i, side in enumerate(bench_pairs.SIDES)}
    calls = []

    def fake_run(cmd, cwd, capture_output, text):
        calls.append((Path(cwd), (Path(cwd) / "src" / "pkg" / "a.py").read_text()))
        assert not (Path(cwd) / "src" / "pkg" / "__pycache__").exists()
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"op_ms_p50": {"value": float(len(calls)), "unit": "ms"}}}
        return SimpleNamespace(returncode=0, stderr="",
                               stdout="# env " + json.dumps({"git_commit": None}) + "\n" + json.dumps(result))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                             "--workloads", "train", "--pairs", "4", "--seed", "1", "--seconds", "1",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [(r["pair"], r["side"], r["copy"]) for r in doc["runs"]] == [
        (0, "parent", 0), (0, "change", 0), (1, "change", 0), (1, "parent", 0),
        (2, "parent", 1), (2, "change", 1), (3, "change", 1), (3, "parent", 1)]
    dirs = [cwd for cwd, _ in calls]
    assert [text for _, text in calls] == [f"x = {bench_pairs.SIDES.index(r['side'])}\n" for r in doc["runs"]]
    for side in bench_pairs.SIDES:
        used = {d for d, r in zip(dirs, doc["runs"]) if r["side"] == side}
        assert len(used) == 2 and not used & set(roots.values())
    assert len({len(str(d)) for d in dirs}) == 1
    assert not any(d.exists() for d in dirs)
    assert doc["summary"][0]["metrics"]["op_ms_p50"]["pairs"] == 4
