"""Set-up probe: one fresh interpreter imports gmd.cli and runs one 2-d closed-form.

Usage: python3 bench/probe.py SPEC.json
Prints one JSON object with the import and set-up CPU times in seconds,
the set-up wall time, and the warm-up's exit code and value.
"""

import time

T0 = time.perf_counter()
C0 = time.process_time()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import gmd.cli  # noqa: E402

T1 = time.perf_counter()
C1 = time.process_time()
with contextlib.redirect_stdout(io.StringIO()) as captured:
    code = gmd.cli.main(["closed-form", sys.argv[1]])
T2 = time.perf_counter()
C2 = time.process_time()
try:
    value = json.loads(captured.getvalue())["value"]
except (ValueError, KeyError, TypeError):
    value = None
print(json.dumps({"import_s": C1 - C0, "setup_s": C2 - C0, "wall_setup_s": T2 - T0,
                  "rc": code, "value": value}))
