"""Repeat check: the exact counts and digests must repeat for a seed.

Run from the repository root:

    python3 perfbench/selfcheck.py --seed 7 --seconds 8

Runs each workload's traced mode twice with the same seed, each run in
a process of its own, and compares the `exact` sections of the two
results files: tape nodes per training step, trunk calls and positions
per request, NAR predict calls, and the sha256 digests of the loss
curves and of the synthesized mels. These are the figures a later
change may cite as counts. Exits 1 on any difference or failed run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("synth_long", "synth_short", "train")


def traced_run(workload: str, seed: int, seconds: float) -> tuple[bool, dict]:
    """(correct, exact section) of one traced run."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    correct = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    return correct, record["exact"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=8.0)
    args = p.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        (c1, first), (c2, second) = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        diffs = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        verdict = "ok" if c1 and c2 and not diffs else "FAIL"
        ok = ok and verdict == "ok"
        print(f"{workload}: {verdict}; correct {c1}/{c2}; {len(first)} exact figures"
              + (f"; differ: {', '.join(diffs)}" if diffs else ""))
        for key in sorted(first):
            print(f"  {key} = {first[key]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
