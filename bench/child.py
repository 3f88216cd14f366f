"""Workload process: one fresh interpreter runs a workload through gmd.cli.main.

Usage: python3 bench/child.py JOB.json

The job names the workload, seed, measuring time, trace flag and work
directory.  A fixed number of whole blocks of operations runs, set by
the workload and ``seconds`` (``Workload.blocks``).  Each operation is
timed around ``gmd.cli.main(argv)`` with stdout captured, by the wall
clock and by the process CPU clock; spec writing, output saving and
garbage collection happen between operations, outside the timed region.
With tracing on, every operation runs twice, untraced and traced, the
order alternating from one operation to the next; the untraced run
gives the outputs and the tracing overhead.
Results go to ``records.json`` in the work directory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter_ns, process_time_ns

from workloads import WORKLOADS, block_ops, warmup_spec, write_spec


def run_op(main, argv: list[str]) -> tuple[int, str, str | None, int, int]:
    """(exit code, captured stdout, exception or None, wall ns, CPU ns)."""
    buf = io.StringIO()
    exc = None
    code = 0
    start = perf_counter_ns()
    cpu_start = process_time_ns()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as e:  # argparse rejects argv
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # the program raised: one failed operation
        exc = f"{type(e).__name__}: {e}"
    cpu = process_time_ns() - cpu_start
    wall = perf_counter_ns() - start
    return code, buf.getvalue(), exc, wall, cpu


def count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    workdir = Path(job["workdir"])
    workload = WORKLOADS[job["workload"]]
    import gmd.cli as cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()

    write_spec(workdir / "warmup.json", warmup_spec())
    run_op(cli.main, ["closed-form", str(workdir / "warmup.json")])
    # Keep the imported modules out of the collections between operations,
    # which would otherwise traverse them every time.
    gc.collect()
    gc.freeze()

    records = []
    blocks = workload.blocks(job["seconds"], tracer is not None)
    for block in range(blocks):
        ops = []
        for op, spec in block_ops(workload, job["seed"], block, len(records)):
            write_spec(workdir / op.spec, spec)
            ops.append(op)
        for op in ops:
            argv = op.argv(workdir)
            rec = {"op": op.to_dict()}
            order = (False, True) if op.index % 2 == 0 else (True, False)
            for traced in (order if tracer else (False,)):
                gc.collect()
                if traced:
                    tracer.install()
                    tracer.begin_op(op.index)
                code, out, exc, wall, cpu = run_op(cli.main, argv)
                if traced:
                    rec["trace"] = tracer.end_op()
                    rec.update(traced_wall_ns=wall, traced_cpu_ns=cpu)
                    tracer.uninstall()
                    continue
                rec.update(wall_ns=wall, cpu_ns=cpu, code=code, exc=exc, out_bytes=len(out))
                out_path = workdir / op.spec.replace(".json", ".out")
                out_path.write_text(out)
                if op.dump:
                    dump_path = workdir / op.dump_name
                    rec["dump_lines"] = count_lines(dump_path) if dump_path.exists() else -1
            if op.dump:
                (workdir / op.dump_name).unlink(missing_ok=True)
            records.append(rec)

    result = {
        "records": records,
        "blocks": blocks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
    (workdir / "records.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
