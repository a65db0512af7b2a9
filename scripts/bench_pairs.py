"""Run perfbench in alternating pairs over two checkouts and summarise.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads train --pairs 10 --seed 1 --seconds 15 --out BENCH_26.json

Each pair runs `perfbench/run.py --trace T` once for each side, as a
subprocess from the root of a copy of that side's checkout; even pairs
run the parent first, odd pairs the change, so a slow phase of the host
falls on both sides alike. Byte-identical code can read differently
from two directories, so each side runs from two copies of its
checkout, made in a temporary directory at the start and removed at the
end: pairs 0 and 1 run from the first copies, pairs 2 and 3 from the
second, and so on, so that each run order meets each copy. Every run's
metrics come from the last line of its standard output, and each side's
environment from its `# env` line. With `--trace 0` (the default) they
are the end-to-end metrics; with `--trace 1`, the per-layer metrics of
a traced run.

The output file holds both sides (commit, a digest of `src/`, the
environment), every run with the copy it ran from, and per workload,
seed, run length and trace mode, per metric: each side's median and
quartiles, the change/parent ratio of the medians, the pairs the change
won, and whether the medians differ by more than the parent's
interquartile range. Which way is better comes from BENCHMARK.json's
`end_to_end` and `per_layer` lists. An existing output file for the
same two `src/` digests is extended: its runs are kept and the summary
is recomputed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def src_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every file under src/."""
    h = hashlib.sha256()
    for path in sorted(p for p in (root / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def copy_index(pair: int) -> int:
    """Which of a side's two checkout copies pair `pair` runs from: the
    copy changes every two pairs, so each run order meets both copies."""
    return pair // 2 % 2


def make_copies(roots: dict[str, Path], tmp: Path) -> dict[str, list[Path]]:
    """Two copies of each side's checkout under `tmp`, at paths of equal
    length for both sides, without `__pycache__` directories."""
    return {side: [shutil.copytree(root, tmp / f"copy{i}" / side, ignore=shutil.ignore_patterns("__pycache__"))
                   for i in range(2)]
            for side, root in roots.items()}


def parse_output(stdout: str) -> tuple[dict, dict | None]:
    """(the last line's result object, the `# env` object or None)."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), None)
    return json.loads(lines[-1]), env


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict | None]:
    """One perfbench run in `root`, traced if `trace`: (run record, environment)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    try:
        result, env = parse_output(proc.stdout)
    except (ValueError, IndexError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}, None
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {key: result[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}, env


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3), "n": len(values)}


def _group(run: dict) -> tuple:
    """(workload, seed, seconds, trace) of a run; a run without "trace" is untraced."""
    return run["workload"], run["seed"], run["seconds"], run.get("trace", 0)


def summarise(runs: list[dict], better: dict[str, str]) -> list[dict]:
    """One entry per (workload, seed, seconds, trace) the runs cover, in
    first-run order, whose "metrics" map each metric the runs report to:
    per side, the median and quartiles; the change/parent ratio of the
    medians; the pairs won by the change, of the pairs where both sides
    ran; and whether the medians differ, in the better direction, by
    more than the parent's interquartile range. `better` maps each metric
    to "lower" or "higher"; a run with an "error" counts on neither side."""
    out = []
    for group in dict.fromkeys(map(_group, runs)):
        ok = [r for r in runs if _group(r) == group and "error" not in r]
        pairs: dict[int, dict] = {}
        for r in ok:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        both = [p for p in pairs.values() if len(p) == 2]
        metrics: dict = {}
        reported = {m for r in ok for m in r["metrics"]}
        for metric, direction in ((m, d) for m, d in better.items() if m in reported):
            sign = 1.0 if direction == "lower" else -1.0
            entry: dict = {side: quartiles([r["metrics"][metric] for r in ok if r["side"] == side])
                           for side in SIDES if any(r["side"] == side for r in ok)}
            if len(entry) == 2:
                parent, change = entry["parent"], entry["change"]
                entry["ratio"] = change["median"] / parent["median"] if parent["median"] else None
                entry["pairs_won"] = sum(sign * (p["change"][metric] - p["parent"][metric]) < 0 for p in both)
                entry["pairs"] = len(both)
                entry["beyond_parent_iqr"] = bool(
                    sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"])
            metrics[metric] = entry
        out.append(dict(zip(("workload", "seed", "seconds", "trace"), group)) | {"metrics": metrics})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    digests = {side: src_digest(root) for side, root in roots.items()}
    doc = {"sides": {side: {"src_sha256": digests[side]} for side in SIDES}, "runs": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if {side: doc["sides"][side]["src_sha256"] for side in SIDES} != digests:
            sys.exit(f"{args.out} holds runs of other sources; write a new file")
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown_metric = "trace.overhead_ratio" if args.trace else "op_ms_p50"
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        copies = make_copies(roots, Path(tmp))
        for workload in args.workloads:
            group = (workload, args.seed, args.seconds, args.trace)
            done = sum(_group(r) == group for r in doc["runs"]) // 2
            for pair in range(done, done + args.pairs):
                for side in order(pair):
                    run, env = run_once(copies[side][copy_index(pair)], workload, args.seed, args.seconds,
                                        args.trace)
                    if env is not None:
                        doc["sides"][side].update(commit=env.pop("git_commit"), environment=env)
                    doc["runs"].append({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                                        "trace": args.trace, "pair": pair, "side": side,
                                        "copy": copy_index(pair)} | run)
                    shown = run.get("error") or \
                        f"{shown_metric} {run['metrics'].get(shown_metric, float('nan')):.4g}"
                    print(f"{workload} pair {pair} {side} (copy {copy_index(pair)}): {shown}", flush=True)
                doc["summary"] = summarise(doc["runs"], better)
                args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
