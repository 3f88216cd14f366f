"""Benchmark of the gmd CLI: one command generates, runs, checks and reports.

Usage (from the root of a checkout):

    python3 bench/run.py --workload exact --seed 1 --seconds 26 --trace 0

Steps:
  1. Set-up probes: fresh interpreters each import gmd.cli and run one
     2-d closed-form; one warms the caches, then four run before the
     workload and three after it, and ``setup_s`` is the median of those
     seven.
  2. One fresh workload process (bench/child.py) generates the seeded
     spec files block by block and calls gmd.cli.main(argv) on them in a
     closed loop, with stdout captured.  The number of whole blocks is
     fixed by the workload and ``--seconds`` (about that many seconds of
     operations on the machine it was built on), never by how fast they
     ran, so a seed always gives the same operations and failures.
     Operations are timed by the process CPU clock.
  3. Every output is checked against references computed here, untimed,
     with mpmath as the judge (bench/oracle.py).  A failure is counted,
     never raised, and classified by cause and by known defect.
  4. The metrics print by name with their units; with ``--trace 0`` the
     end-to-end metrics, with ``--trace 1`` the per-layer ones from a
     traced run.  The last stdout line is the JSON result.

Child processes run with GMD_THREADS, OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1.  Scratch files live in .bench_work/ and are
removed; the full result with its machine metadata is kept in
.bench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0
PROBES_BEFORE, PROBES_AFTER = 4, 3
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

THREAD_ENV = {
    "GMD_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_probes(count: int, workdir: Path, env: dict[str, str], deadline: float) -> list[dict]:
    from workloads import warmup_spec, write_spec

    spec = workdir / "probe.json"
    write_spec(spec, warmup_spec())
    results = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(spec)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        value = probe["value"]
        if probe["rc"] != 0 or value is None or not abs(value - TWO_OVER_SQRT_PI) <= 1e-12:
            raise RuntimeError(f"set-up probe's closed-form gave a wrong answer: {probe}")
        results.append(probe)
    return results


def run_child(job: dict, workdir: Path, env: dict[str, str], deadline: float) -> dict:
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    with (workdir / "child.log").open("w") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                env=env, cwd=BENCH, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("workload process ran past the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (workdir / "child.log").read_text()[-3000:]
        raise RuntimeError(f"workload process exited with {code}:\n{tail}")
    return json.loads((workdir / "records.json").read_text())


def check_records(records: list[dict], workdir: Path) -> list[tuple[str, str | None]]:
    """(cause, known defect) for every failed operation, checking each output."""
    from oracle import check, false_alarm_cap, finite_variance, known_defect, load_reference

    for rec in records:
        op = rec["op"]
        ref = load_reference(workdir / op["spec"], sample_seed=op["seed"])
        out = (workdir / op["spec"].replace(".json", ".out")).read_text()
        cause = check(op, rec["code"], out, rec["exc"], rec.get("dump_lines"), ref)
        rec["cause"] = cause
        if cause is not None:
            rec["known_defect"] = known_defect(op, cause)
    # More 3-SE false alarms than chance allows are a bias of the estimate.
    alarms = [r for r in records if r.get("known_defect") == "verify-mc-3se-false-alarm"]
    tested = sum(r["op"]["kind"] == "verify" and finite_variance(r["op"]) for r in records)
    if len(alarms) > false_alarm_cap(tested):
        for rec in alarms:
            rec["known_defect"] = None
    return [(r["cause"], r["known_defect"]) for r in records if r["cause"] is not None]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q quantile.

    It weights every order statistic by the beta law of the sample's q
    quantile, in effect about ten of them around the 90th percentile of
    150 operations, where ``numpy.percentile`` reads two; so the noise of
    one operation moves it less.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def end_to_end(records: list[dict], probes: list[dict], peak_rss_kb: int,
               failed: int) -> dict:
    import numpy as np

    lat_ms = np.array([r["cpu_ns"] for r in records]) / 1e6
    total_s = lat_ms.sum() / 1e3
    pairs = sum(pairs_of(r["op"]) for r in records)
    return {
        "setup_s": metric(statistics.median(p["setup_s"] for p in probes), "s"),
        "op_p50_ms": metric(quantile(lat_ms, 0.5), "ms"),
        "op_p90_ms": metric(quantile(lat_ms, 0.9), "ms"),
        "pairs_per_s": metric(pairs / total_s, "1/s"),
        "ok_frac": metric((len(records) - failed) / len(records), "1"),
        "peak_rss_mb": metric(peak_rss_kb / 1024.0, "MB"),
    }


def pairs_of(op: dict) -> int:
    """Coordinate pairs an operation reduces over; the i.i.d. quantile
    integral counts as one pair."""
    return 1 if op["kind"] == "quantile-gmd" else op["n"] * (op["n"] - 1) // 2


def machine_meta(args: argparse.Namespace) -> dict:
    import mpmath
    import numpy
    import scipy

    commit = "unknown"
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "gmd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "env": THREAD_ENV,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (SRC / "gmd" / "cli.py").is_file():
        print(f"program source not found at {SRC / 'gmd'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = child_env()
        probes = run_probes(1 + PROBES_BEFORE, workdir, env, deadline)[1:]
        job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": bool(args.trace), "workdir": str(workdir)}
        result = run_child(job, workdir, env, deadline)
        probes += run_probes(PROBES_AFTER, workdir, env, deadline)
        records = result["records"]
        failures = check_records(records, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    unexpected = Counter(c for c, d in failures if d is None)
    if args.trace:
        from tracing import layer_metrics
        metrics = layer_metrics(args.workload, records, probes, failed, result["absent"])
    else:
        metrics = end_to_end(records, probes, result["peak_rss_kb"], failed)

    by_cause = Counter(f"{d or 'UNEXPECTED'} / {c}" for c, d in failures)
    by_class = Counter(
        (r["op"]["kind"], r["op"]["family"], r["op"]["nu"], r["op"]["offset"], r["cause"])
        for r in records if r["cause"] is not None)
    meta = machine_meta(args)
    # Gated times are CPU times; these wall figures show waiting a change adds.
    wall_ms = [r["wall_ns"] / 1e6 for r in records]
    meta.update(blocks=result["blocks"], attempted=len(records), failed=failed,
                wall_setup_s=statistics.median(p["wall_setup_s"] for p in probes),
                wall_op_p50_ms=quantile(wall_ms, 0.5),
                wall_op_p90_ms=quantile(wall_ms, 0.9),
                absent_symbols=result.get("absent", []))
    full = {
        "meta": meta,
        "failures_by_cause": dict(sorted(by_cause.items())),
        "failures_by_class": [
            {"kind": k, "family": f, "nu": nu, "offset": off, "cause": c, "count": cnt}
            for (k, f, nu, off, c), cnt in sorted(by_class.items(), key=str)],
        "metrics": metrics,
        "ops": [
            {**{k: r["op"][k] for k in ("index", "kind", "n", "family", "nu", "offset",
                                       "draws", "chunks", "dump")},
             "cpu_ms": r["cpu_ns"] / 1e6, "wall_ms": r["wall_ns"] / 1e6,
             "cause": r["cause"]}
            for r in records],
    }
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1))
    if args.trace:
        # (operation, span id, parent span id, name, start ns, end ns)
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(result["spans"]))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} blocks={result['blocks']} "
          f"attempted={len(records)} failed={failed} unexpected={sum(unexpected.values())}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for cause, count in sorted(by_cause.items()):
        print(f"# fail {count:5d}  {cause}")
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
