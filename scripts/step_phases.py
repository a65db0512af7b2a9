"""Per-phase training step time of two checkouts, in alternating processes.

    python3 scripts/step_phases.py --parent ../parent --change . \\
        --pairs 10 --steps 40 --seed 1 --out phases.json

Each process trains every stage of one config in-process, tokenizer
first, from its checkout's `src/`, with one BLAS thread. The config is
the `train` workload's (`perfbench/workloads.py`'s `train_config` at
`--seed`, from the change's checkout), or the JSON config given by
`--config`, with every stage's step count set to `--steps`. Per stage and
phase of `StageReport.step_ms`, and for `step`, their sum, a process
reports the median over its steps after the first. Even pairs run the
parent first, odd pairs the change, so a slow phase of the host falls
on both sides alike.

The table gives, per stage and phase, each side's median of its
per-process medians, the change/parent ratio, and the pairs in which
the change's process read faster. `--out` writes every process's
medians and that summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
BLAS_THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def stage_config(root: Path, config: Path | None, seed: int, steps: int):
    """The pipeline config in `config`, or else the `train` workload's at
    `seed`, read with `root`'s code, with `steps` steps per stage."""
    for path in (root, root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from paravox.pipeline import PipelineConfig
    from paravox.pipeline.config import config_with_overrides

    if config is not None:
        pcfg = PipelineConfig.from_json(config.read_text())
    else:
        from perfbench.workloads import train_config

        pcfg = train_config(seed)
    overrides = {}
    for stage, sched in pcfg.schedules.items():
        overrides[f"schedules.{stage}.total_steps"] = steps
        overrides[f"schedules.{stage}.warmup_steps"] = min(sched.warmup_steps, steps)
    return config_with_overrides(pcfg, overrides)


def measure(pcfg, workdir: Path) -> dict:
    """{stage: {phase: median ms}} of training every stage of `pcfg` in
    `workdir`, each phase's first step left out; `step` sums the phases."""
    from paravox import frontend
    from paravox.pipeline import train as train_mod
    from paravox.pipeline.data import corpus_items

    items = corpus_items(frontend.generate_corpus(pcfg.data))
    out = {}
    for stage in train_mod.STAGES:
        if stage == "nar" and not pcfg.ablation.use_refiner:
            continue
        report = train_mod.train_stage(stage, items, pcfg, workdir / train_mod.CHECKPOINT_NAMES[stage])
        phases = {phase: np.asarray(ms[1:]) for phase, ms in report.step_ms.items()}
        phases["step"] = sum(phases.values())
        out[stage] = {phase: float(np.median(ms)) for phase, ms in phases.items()}
    return out


def run_side(root: Path, config: Path) -> dict:
    """One measuring process over `config`, importing paravox from `root`'s src/."""
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory(prefix="step-phases-") as workdir:
        proc = subprocess.run([sys.executable, __file__, "--measure", str(config), "--workdir", workdir],
                              cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["paravox"]).resolve().parents[1] != root / "src":
        raise RuntimeError(f"{root}: paravox was imported from {result['paravox']}")
    return result["medians"]


def summarise(runs: list[dict]) -> dict:
    """{stage: {phase: entry}} over the runs (dicts with "pair", "side" and
    "medians"): per side, the median of its processes' medians; the
    change/parent ratio; and the pairs in which the change read lower."""
    out: dict = {}
    for stage in dict.fromkeys(s for r in runs for s in r["medians"]):
        out[stage] = {}
        for phase in dict.fromkeys(p for r in runs for p in r["medians"].get(stage, {})):
            by_pair: dict[int, dict] = {}
            for r in runs:
                if phase in r["medians"].get(stage, {}):
                    by_pair.setdefault(r["pair"], {})[r["side"]] = r["medians"][stage][phase]
            entry: dict = {side: float(np.median([p[side] for p in by_pair.values() if side in p]))
                           for side in SIDES if any(side in p for p in by_pair.values())}
            both = [p for p in by_pair.values() if len(p) == 2]
            if len(entry) == 2:
                entry["ratio"] = entry["change"] / entry["parent"] if entry["parent"] else None
                entry["pairs_won"] = sum(p["change"] < p["parent"] for p in both)
                entry["pairs"] = len(both)
            out[stage][phase] = entry
    return out


def table(summary: dict) -> str:
    lines = [f"{'stage':<10} {'phase':<10} {'parent ms':>10} {'change ms':>10} {'ratio':>7} {'won':>6}"]
    for stage, phases in summary.items():
        for phase, e in phases.items():
            cells = [f"{e[side]:10.3f}" if side in e else f"{'-':>10}" for side in SIDES]
            ratio = f"{e['ratio']:7.3f}" if e.get("ratio") is not None else f"{'-':>7}"
            won = f"{e['pairs_won']}/{e['pairs']}" if "pairs" in e else "-"
            lines.append(f"{stage:<10} {phase:<10} {cells[0]} {cells[1]} {ratio} {won:>6}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="root of the parent checkout")
    p.add_argument("--change", type=Path, help="root of the changed checkout")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--steps", type=int, default=40, help="steps per stage")
    p.add_argument("--seed", type=int, default=1, help="the train workload's seed (not with --config)")
    p.add_argument("--config", type=Path, help="a pipeline config JSON to train instead")
    p.add_argument("--out", type=Path, help="write the runs and the summary here as JSON")
    p.add_argument("--measure", type=Path, help=argparse.SUPPRESS)  # one side's process
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure is not None:
        import paravox
        from paravox.pipeline import PipelineConfig

        medians = measure(PipelineConfig.from_json(args.measure.read_text()), args.workdir)
        print(json.dumps({"paravox": paravox.__file__, "medians": medians}))
        return 0
    if args.parent is None or args.change is None:
        p.error("--parent and --change are required")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    with tempfile.TemporaryDirectory(prefix="step-phases-") as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(stage_config(roots["change"], args.config, args.seed, args.steps).to_dict()))
        for pair in range(args.pairs):
            for side in order(pair):
                runs.append({"pair": pair, "side": side, "medians": run_side(roots[side], config)})
                step = {stage: round(m["step"], 3) for stage, m in runs[-1]["medians"].items()}
                print(f"pair {pair} {side}: step ms {step}", flush=True)
        doc = {"config": json.loads(config.read_text()), "runs": runs, "summary": summarise(runs)}
    print(table(doc["summary"]))
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
