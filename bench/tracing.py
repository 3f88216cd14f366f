"""Layer tracing from outside the program.

The package's modules call one another through module attributes that
Python resolves at call time (``closed_form.normal_gmd``,
``quadrature._gk15``, ...).  ``Tracer.install`` replaces those attributes
with timing wrappers and ``uninstall`` puts the originals back, so no
program file changes.  Each wrapper names the layer (module) whose code
it enters.  Integrands handed to the quadrature engine are wrapped too
and charged to the module that built them.

A layer's self time is the time its frames spend on the stack minus the
time covered by child frames; its busy time is the time at least one of
its frames is on the stack.  Calls at the operation level are also kept
as spans (name, start, end, parent) in memory; hot per-pair and
per-panel calls are only counted and timed, to keep the overhead and the
memory small.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from time import perf_counter_ns

# (module, attribute, traced name, kind, layer of the integrand passed as
# first argument).  The traced name starts with its layer, one of the
# package's modules.  Kinds: 'span' calls are also kept as spans, 'call'
# calls are timed and counted, 'leaf' calls are hot per-pair calls that
# enter no other wrapped call and get a cheaper wrapper.
WRAPPED = (
    ("gmd.cli", "main", "cli.main", "span", None),
    ("gmd.cli", "_load_spec", "cli._load_spec", "span", None),
    ("gmd.cli", "_emit", "cli._emit", "span", None),
    ("gmd.cli", "_dump_csv", "cli._dump_csv", "span", None),
    ("gmd.cli", "spec_from_json", "model.spec_from_json", "span", None),
    ("gmd.cli", "validate", "model.validate", "span", None),
    ("gmd.model", "GmdResult.to_dict", "model.GmdResult.to_dict", "span", None),
    ("gmd.closed_form", "pair_params", "model.pair_params", "leaf", None),
    ("gmd.bounds", "pair_params", "model.pair_params", "leaf", None),
    ("gmd.general_ec", "pair_params", "model.pair_params", "leaf", None),
    ("gmd.closed_form", "normal_gmd", "closed_form.normal_gmd", "span", None),
    ("gmd.closed_form", "student_gmd", "closed_form.student_gmd", "span", None),
    ("gmd.closed_form", "quantile_gmd", "closed_form.quantile_gmd", "span", None),
    ("gmd.closed_form", "std_normal_pdf", "special.std_normal_pdf", "leaf", None),
    ("gmd.closed_form", "std_normal_cdf", "special.std_normal_cdf", "leaf", None),
    ("gmd.closed_form", "student_t_pdf", "special.student_t_pdf", "leaf", None),
    ("gmd.closed_form", "student_t_cdf", "special.student_t_cdf", "leaf", None),
    ("gmd.bounds", "lp_norm_std_normal", "special.lp_norm_std_normal", "leaf", None),
    ("gmd.cli", "build_bound_report", "bounds.build_bound_report", "span", None),
    ("gmd.bounds", "second_moment_bound", "bounds.second_moment_bound", "span", None),
    ("gmd.general_ec", "gmd_quadrature", "general_ec.gmd_quadrature", "span", None),
    ("gmd.general_ec", "reliability_quadrature",
     "general_ec.reliability_quadrature", "call", None),
    ("gmd.general_ec", "_mu_h", "general_ec._mu_h", "call", None),
    ("gmd.general_ec", "integrate_real_line",
     "quadrature.integrate_real_line", "call", "general_ec"),
    ("gmd.general_ec", "integrate_real_line_split",
     "quadrature.integrate_real_line_split", "call", "general_ec"),
    ("gmd.closed_form", "integrate_interval",
     "quadrature.integrate_interval", "call", "closed_form"),
    ("gmd.quadrature", "integrate_interval", "quadrature.integrate_interval", "call", None),
    ("gmd.quadrature", "_gk15", "quadrature._gk15", "call", None),
    ("gmd.quadrature", "_geometric_tail", "quadrature._geometric_tail", "call", None),
    ("gmd.monte_carlo", "estimate_gmd", "monte_carlo.estimate_gmd", "span", None),
    ("gmd.monte_carlo", "sample", "monte_carlo.sample", "span", None),
    ("gmd.monte_carlo", "estimate_from_samples",
     "monte_carlo.estimate_from_samples", "span", None),
)

LAYERS = ("cli", "model", "special", "closed_form", "bounds", "general_ec",
          "quadrature", "monte_carlo")

_GK15 = "quadrature._gk15"
_TAIL = "quadrature._geometric_tail"


class Tracer:
    """Timing wrappers plus the spans and counters they record.

    Between ``begin_op`` and ``end_op`` every wrapped call adds to the
    current operation's counters; ``end_op`` returns them.  The cost of a
    wrapper is measured once on a no-op function and taken out of the
    times it reports: the part inside the timed interval from the callee,
    the part outside it from the caller's self time.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._op = -1
        self._cur: dict[str, Counter] = self._fresh()
        self._leaf: dict[str, list] = {}
        self._last_exc: BaseException | None = None
        self._cost = {"call": (0, 0), "leaf": (0, 0)}
        self._cost = {"call": self._calibrate(False), "leaf": self._calibrate(True)}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module, attr, name, kind, cb_layer in WRAPPED:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            if kind == "leaf":
                wrapper = self._wrap_leaf(original, name)
            else:
                wrapper = self._wrap(original, name, kind == "span", cb_layer)
            setattr(owner, leaf, wrapper)
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed = []

    def _wrap(self, fn, name, keep, cb_layer):
        call = self._call
        layer = name.split(".", 1)[0]
        if cb_layer is None:
            def wrapper(*args, **kwargs):
                return call(fn, name, layer, keep, args, kwargs)
        else:
            cb_name = f"{cb_layer}.integrand"

            def wrapper(f, *args, **kwargs):
                def integrand(x):
                    return call(f, cb_name, cb_layer, False, (x,), {})
                return call(fn, name, layer, keep, (integrand,) + args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, fn, name):
        """Cheaper wrapper for hot calls that enter no other wrapped call."""
        stack = self._stack
        leaf = self._leaf
        outside = self._cost["leaf"][1]

        def wrapper(*args):
            start = perf_counter_ns()
            result = fn(*args)
            elapsed = perf_counter_ns() - start
            acc = leaf.get(name)
            if acc is None:
                acc = leaf[name] = [0, 0]
            acc[0] += 1
            acc[1] += elapsed
            if stack:
                stack[-1][3] += elapsed + outside
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _calibrate(self, leaf: bool, calls: int = 20000) -> tuple[float, float]:
        """(ns inside, ns outside the timed interval) that one wrapper adds."""
        def noop(x):
            return x

        wrapped = self._wrap_leaf(noop, "calibration") if leaf else \
            self._wrap(noop, "calibration.noop", False, None)
        best = None
        for _ in range(5):
            self.begin_op(-1)
            frame = ["calibration", "calibration", 0, 0, -1]
            self._stack.append(frame)
            start = perf_counter_ns()
            for _ in range(calls):
                noop(1.0)
            raw = perf_counter_ns() - start
            start = perf_counter_ns()
            for _ in range(calls):
                wrapped(1.0)
            total = perf_counter_ns() - start
            self._stack.pop()
            timed = self._leaf["calibration"][1] if leaf else \
                self._cur["incl_ns"]["calibration.noop"]
            inside = max(0.0, (timed - raw) / calls)
            outside = max(0.0, (total - raw) / calls - inside)
            if best is None or inside + outside < sum(best):
                best = (inside, outside)
        self.end_op()
        return best

    # -- recording ---------------------------------------------------------

    @staticmethod
    def _fresh() -> dict[str, Counter]:
        return {k: Counter() for k in ("calls", "incl_ns", "self_ns", "busy_ns", "events")}

    def begin_op(self, op_index: int) -> None:
        self._op = op_index
        self._cur = self._fresh()
        self._leaf.clear()

    def end_op(self) -> dict[str, dict]:
        inside = self._cost["leaf"][0]
        cur = self._cur
        for name, (calls, ns) in self._leaf.items():
            ns = max(0.0, ns - calls * inside)
            layer = name.split(".", 1)[0]
            cur["calls"][name] += calls
            cur["incl_ns"][name] += ns
            cur["self_ns"][layer] += ns
            cur["busy_ns"][layer] += ns
        self._leaf.clear()
        self._op = -1
        return {k: dict(v) for k, v in cur.items()}

    def _call(self, fn, name, layer, keep, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        cur = self._cur
        cur["calls"][name] += 1
        if name == _GK15 and parent is not None and parent[0] == _TAIL:
            cur["events"]["tail_panels"] += 1
        span_id = -1
        if keep:
            span_id = len(self.spans)
            self.spans.append(None)
        depth = self._depth
        depth[layer] += 1
        start = perf_counter_ns()
        frame = [name, layer, start, 0, span_id]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if layer == "quadrature" and exc is not self._last_exc \
                    and type(exc).__name__ == "NonconvergenceError":
                self._last_exc = exc
                cur["events"]["nonconverged"] += 1
            raise
        finally:
            end = perf_counter_ns()
            stack.pop()
            inside, outside = self._cost["call"]
            dur = max(0.0, end - start - inside)
            cur["incl_ns"][name] += dur
            cur["self_ns"][layer] += max(0.0, dur - frame[3])
            depth[layer] -= 1
            if depth[layer] == 0:
                cur["busy_ns"][layer] += dur
            if parent is not None:
                parent[3] += end - start + outside
            if keep:
                parent_span = next((f[4] for f in reversed(stack) if f[4] >= 0), -1)
                self.spans[span_id] = (self._op, span_id, parent_span, name, start, end)


# Target and off-target compute layers of each workload.  The CLI is in
# neither set because every operation passes through it; the exact
# workload also counts the emit of the pair breakdown, the estimate
# workload the CSV writer.
COMPUTE = {
    "exact": ("closed_form", "special", "bounds"),
    "verify-quad": ("general_ec", "quadrature"),
    "estimate": ("monte_carlo",),
}
TARGET_CALLS = {"exact": ("cli._emit",), "verify-quad": (), "estimate": ("cli._dump_csv",)}

# Metrics (by name prefix) that read a wrapped call directly.  When a later
# change removes that call, the metric is left out of the result instead
# of reading 0.
READS = {
    "cli.emit_ms": ("cli._emit",),
    "cli.dump_ms": ("cli._dump_csv",),
    "model.validate_ms": ("model.validate",),
    "special.": ("special.std_normal_pdf", "special.std_normal_cdf",
                 "special.student_t_pdf", "special.student_t_cdf"),
    "closed_form.us_per_pair": ("closed_form.normal_gmd", "closed_form.student_gmd"),
    "general_ec.integrals": ("quadrature.integrate_real_line",
                             "quadrature.integrate_real_line_split"),
    "general_ec.ms_per_spec": ("general_ec.gmd_quadrature",),
    "quadrature.panels": (_GK15,),
    "quadrature.tail_panels": (_GK15, _TAIL),
    "monte_carlo.sample": ("monte_carlo.sample",),
    "monte_carlo.reduce": ("monte_carlo.estimate_from_samples",),
}

N_CLOSED = (2, 10, 50, 200, 500)
N_MC = (2, 10, 50)
NU_CLASSES = (("normal", None), ("nu1.05", 1.05), ("nu1.5", 1.5), ("nu2", 2.0),
              ("nu4", 4.0), ("nu30", 30.0))


def layer_metrics(workload: str, records: list[dict], probes: list[dict],
                  failed: int, absent: list[str]) -> dict[str, dict]:
    """Per-layer metrics of a traced run; times are means per traced operation."""
    traced = [r for r in records if "trace" in r]
    count = len(traced)

    def total(field: str, key: str, rs=traced) -> float:
        return sum(r["trace"][field].get(key, 0) for r in rs)

    def per_op_ms(field: str, key: str) -> float:
        return total(field, key) / count / 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def of(pred):
        return [r for r in traced if pred(r["op"])]

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (per_op_ms("self_ns", layer), "ms/op")
    out["cli.emit_ms"] = (per_op_ms("incl_ns", "cli._emit"), "ms/op")
    out["cli.dump_ms"] = (per_op_ms("incl_ns", "cli._dump_csv"), "ms/op")
    out["cli.out_bytes"] = (sum(r["out_bytes"] for r in traced) / count, "B/op")
    out["model.validate_ms"] = (per_op_ms("incl_ns", "model.validate"), "ms/op")
    scalar = sum(v for r in traced for k, v in r["trace"]["calls"].items()
                 if k.startswith("special."))
    out["special.scalar_calls"] = (scalar / count, "count/op")
    out["special.busy_ms"] = (per_op_ms("busy_ns", "special"), "ms/op")

    for n in N_CLOSED:
        rs = of(lambda op: op["kind"] in ("closed-form", "bound") and op["n"] == n)
        ns = total("incl_ns", "closed_form.normal_gmd", rs) + \
            total("incl_ns", "closed_form.student_gmd", rs)
        out[f"closed_form.us_per_pair.n{n}"] = (
            ratio(ns / 1e3, len(rs) * n * (n - 1) // 2), "us/pair")
    rs = of(lambda op: op["kind"] == "bound")
    out["bounds.us_per_pair"] = (
        ratio(total("self_ns", "bounds", rs) / 1e3,
              sum(r["op"]["n"] * (r["op"]["n"] - 1) // 2 for r in rs)), "us/pair")

    integrals = total("calls", "quadrature.integrate_real_line") + \
        total("calls", "quadrature.integrate_real_line_split")
    out["general_ec.integrals"] = (integrals / count, "count/op")
    for label, nu in NU_CLASSES:
        rs = of(lambda op: op["kind"] == "verify" and op["nu"] == nu)
        out[f"general_ec.ms_per_spec.{label}"] = (
            ratio(total("incl_ns", "general_ec.gmd_quadrature", rs) / 1e6, len(rs)), "ms/spec")
    out["quadrature.busy_ms"] = (per_op_ms("busy_ns", "quadrature"), "ms/op")
    out["quadrature.panels"] = (total("calls", "quadrature._gk15") / count, "count/op")
    out["quadrature.tail_panels"] = (total("events", "tail_panels") / count, "count/op")
    out["quadrature.nonconverged"] = (total("events", "nonconverged") / count, "count/op")

    out["monte_carlo.sample_ms"] = (per_op_ms("incl_ns", "monte_carlo.sample"), "ms/op")
    out["monte_carlo.reduce_ms"] = (
        per_op_ms("incl_ns", "monte_carlo.estimate_from_samples"), "ms/op")
    for n in N_MC:
        rs = of(lambda op: op["kind"] in ("verify", "estimate") and op["n"] == n)
        draws = sum(r["op"]["draws"] for r in rs)
        out[f"monte_carlo.sample_ns_per_draw.n{n}"] = (
            ratio(total("incl_ns", "monte_carlo.sample", rs), draws), "ns/draw")
        out[f"monte_carlo.reduce_ns_per_draw.n{n}"] = (
            ratio(total("incl_ns", "monte_carlo.estimate_from_samples", rs), draws), "ns/draw")
    out["monte_carlo.sample_bytes"] = (
        float(max((r["op"]["draws"] * r["op"]["n"] * 8 for r in traced), default=0)), "B")

    cpu_s = sum(r["cpu_ns"] for r in traced) / 1e9
    out["draws_per_s"] = (ratio(sum(r["op"]["draws"] for r in traced), cpu_s), "1/s")
    out["fail_frac"] = (failed / len(records), "1")
    # Self times are wall times with the wrappers' cost taken out; shares
    # are of the time attributed to all layers, and the attributed time is
    # compared with the untraced wall time of the same operations.
    attributed = sum(total("self_ns", layer) for layer in LAYERS)
    target = sum(total("self_ns", layer) for layer in COMPUTE[workload]) + \
        sum(total("incl_ns", name) for name in TARGET_CALLS[workload])
    other = sum(total("self_ns", layer) for w, layers in COMPUTE.items() if w != workload
                for layer in layers)
    out["share.target_pct"] = (100.0 * ratio(target, attributed), "%")
    out["share.other_compute_pct"] = (100.0 * ratio(other, attributed), "%")
    out["trace.attributed_pct"] = (
        100.0 * attributed / sum(r["wall_ns"] for r in traced), "%")
    out["trace.overhead_pct"] = (
        100.0 * (sum(r["traced_cpu_ns"] for r in traced) / (cpu_s * 1e9) - 1.0), "%")
    out["setup.import_ms"] = (1e3 * statistics.median(p["import_s"] for p in probes), "ms")
    missing = {prefix for prefix, names in READS.items() if set(names) & set(absent)}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()
            if not any(name.startswith(prefix) for prefix in missing)}
