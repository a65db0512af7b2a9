"""paravox benchmark: synthesis latency and training step time.

Run from the repository root:

    python3 perfbench/run.py --workload synth_long --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with nothing in paravox
patched. `--trace 1` measures the same work twice, untraced and then
traced, and reports the per-layer metrics with the tracing overhead.
Metric names and units come from BENCHMARK.json at the repository root.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A results file with the
environment, exact counts and loss digests goes to perfbench/out/; a
traced run also writes its spans there.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, as the criterion-06 overfit run uses. BLAS reads these
# once, when numpy is first imported, so they are set before any import.
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("synth_long", "synth_short", "train")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_paravox() -> None:
    """Import paravox from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "paravox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no paravox sources under {src}; run it from a full checkout")
    sys.path.insert(0, str(src))
    import paravox

    if Path(paravox.__file__).resolve().parent != (src / "paravox").resolve():
        sys.exit(f"perfbench: imported paravox from {paravox.__file__}, not from {src}")


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        blas = {"show_config": text.getvalue()}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def measure(args, scratch: Path, tracer):
    import workloads

    if args.workload == "train":
        if tracer is not None:
            return workloads.train_traced(args.seed, args.seconds, scratch, tracer)
        return workloads.train_e2e(args.seed, args.seconds, scratch)
    if tracer is not None:
        return workloads.synth_traced(args.workload, args.seed, args.seconds, scratch, tracer)
    return workloads.synth_e2e(args.workload, args.seed, args.seconds, scratch)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_paravox()
    units = declared_metrics(args.trace)
    import spans

    OUT_DIR.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    scratch = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        outcome = measure(args, scratch, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if set(outcome.metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(units) - set(outcome.metrics))}, "
                           f"undeclared {sorted(set(outcome.metrics) - set(units))}")

    tally = outcome.tally
    correct = tally.failed == 0 and not outcome.checks
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    record = {"args": vars(args), "environment": env, "correct": correct,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": outcome.metrics, "exact": outcome.exact, "info": outcome.info,
              "checks": outcome.checks, "problems": tally.problems}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")

    for why in outcome.checks + tally.problems:
        print(f"perfbench: {why}", file=sys.stderr)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for key, value in sorted(outcome.info.items()):
        print(f"# {key} {json.dumps(value, sort_keys=True)}")
    for name in sorted(units):
        print(f"# {name} = {outcome.metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
