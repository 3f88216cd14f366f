"""Run the benchmark on several seeds; report every metric's median and spread.

Usage (from the root of a checkout):

    python3 bench/spread.py --workload exact --seeds 101-110 --out set1.json

Runs ``bench/run.py`` once per seed, one after another, and prints for
each metric its median, quartiles and spread: the interquartile range of
``statistics.quantiles(values, n=4)`` over the median.  With ``--out``
the runs and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    meta = next(json.loads(line[len("# meta "):]) for line in lines
                if line.startswith("# meta "))
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "wall_s": round(time.monotonic() - start, 1),
            "wall": {k: v for k, v in meta.items() if k.startswith("wall_")},
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        r = runs[-1]
        print(f"seed {seed}: failed {r['failed']}/{r['attempted']} correct={r['correct']} "
              f"wall {r['wall_s']} s  " +
              "  ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()), flush=True)
    stats = summary(runs) if len(runs) > 1 else {}
    for name, s in stats.items():
        spread = "-" if s["spread"] is None else f"{100 * s['spread']:.1f} %"
        print(f"{name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {spread}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "trace": args.trace, "runs": runs,
                                        "summary": stats}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
