"""Self-tests of the benchmark: oracle, failure accounting, generation, tracing.

Run with: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IID_NORMAL = {"family": "normal", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
T3 = {"family": "student-t", "nu": 3.0, "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}


def test_oracle_independent_normal_pair_is_two_over_sqrt_pi():
    ref = oracle.SpecReference(IID_NORMAL, sample_seed=0)
    assert ref.gmd == pytest.approx(2 / math.sqrt(math.pi), rel=1e-15)
    assert ref.sample_mp[0] == pytest.approx(2 / math.sqrt(math.pi), rel=1e-15)


def test_oracle_t_pair_at_nu_3_matches_readme():
    ref = oracle.SpecReference(T3, sample_seed=0)
    assert round(ref.gmd, 4) == 1.5594
    # E|T1 - T2| for the bivariate t with rho = 0 is sqrt(2) E|T_3|.
    assert ref.gmd == pytest.approx(math.sqrt(2) * 2 * math.sqrt(3) / math.pi, rel=1e-14)


def test_folded_float64_agrees_with_mpmath_off_centre():
    for nu in (None, 1.05, 1.5, 4.0, 30.0):
        for m, v in ((0.3, 1.7), (-2.5, 0.4), (1e-9, 3.0), (40.0, 0.9)):
            got = float(oracle.folded_f64([m], [v], nu)[0])
            assert got == pytest.approx(float(oracle.folded_mp(m, v, nu)), rel=1e-12)


def test_iid_quantile_reference():
    assert oracle.iid_quantile_gmd(None) == pytest.approx(2 / math.sqrt(math.pi), rel=1e-15)
    assert oracle.iid_quantile_gmd(3.0) == pytest.approx(3 * math.sqrt(3) / math.pi, rel=1e-14)
    assert oracle.iid_quantile_gmd(1.5) == pytest.approx(3.41264, abs=5e-6)
    # The closed form against the integral 4 int_0^inf x (2F(x) - 1) f(x) dx.
    nu = mp.mpf(4)

    def integrand(x):
        pdf = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2)) \
            * (1 + x * x / nu) ** (-(nu + 1) / 2)
        return x * mp.betainc(0.5, nu / 2, 0, x * x / (nu + x * x), regularized=True) * pdf

    with mp.workdps(20):
        direct = float(4 * mp.quad(integrand, [0, 1, 10, mp.inf]))
    assert oracle.iid_quantile_gmd(4.0) == pytest.approx(direct, rel=1e-12)


def _closed_form_output(value: float) -> str:
    return json.dumps({"value": value, "method": "ClosedForm",
                       "pair_contributions": [{"pair": [0, 1], "value": value}],
                       "diagnostics": {}})


def _record(directory: Path, k: int, code: int, out: str, exc: str | None,
            spec: dict = IID_NORMAL, **op_fields) -> dict:
    fields = dict(kind="closed-form", n=2, family="normal", nu=None, offset=0.0)
    fields.update(op_fields)
    op = workloads.Op(k, 0, fields.pop("kind"), fields.pop("n"), fields.pop("family"),
                      fields.pop("nu"), fields.pop("offset"), seed=k, spec=f"op{k:05d}.json",
                      **fields)
    workloads.write_spec(directory / op.spec, spec)
    (directory / op.spec.replace(".json", ".out")).write_text(out)
    return {"op": op.to_dict(), "code": code, "exc": exc}


def test_failures_are_counted_not_raised(tmp_path):
    import gmd.cli

    exact = 2 / math.sqrt(math.pi)
    workloads.write_spec(tmp_path / "spec.json", IID_NORMAL)
    argv = ["closed-form", str(tmp_path / "spec.json")]

    def raises(argv):
        raise TypeError("cannot serialize numpy.bool")

    def exits_2(argv):
        print(json.dumps({"errors": ["quadrature did not converge"]}))
        return 2

    records = []
    for k, main in enumerate((raises, exits_2)):
        code, out, exc, _, _ = child.run_op(main, argv)
        records.append(_record(tmp_path, k, code, out, exc))
    assert records[0]["code"] == 0 and records[0]["exc"].startswith("TypeError")
    assert records[1]["code"] == 2 and records[1]["exc"] is None
    records.append(_record(tmp_path, 2, 0, _closed_form_output(exact * (1 + 1e-6)), None))
    code, out, exc, _, _ = child.run_op(gmd.cli.main, argv)
    records.append(_record(tmp_path, 3, code, out, exc))
    failures = run.check_records(records, tmp_path)
    assert [c for c, _ in failures] == [
        "raised:TypeError:serialize", "exit:2:nonconvergence", "tol:closed-form-value"]
    assert all(defect is None for _, defect in failures)
    assert records[3]["cause"] is None


def test_known_defects():
    def op(kind, family="normal", nu=None, offset=0.0):
        return {"kind": kind, "family": family, "nu": nu, "offset": offset}

    assert oracle.known_defect(op("closed-form", offset=1e8), "tol:closed-form-value") == \
        "translation"
    assert oracle.known_defect(op("verify", "student-t", 1.5, 1e4),
                               "raised:TypeError:serialize") == "translation"
    assert oracle.known_defect(op("verify", offset=1e8), "exit:2:nonconvergence") == \
        "translation"
    assert oracle.known_defect(op("verify", "student-t", 1.05),
                               "exit:2:verify-mc-check-beyond-5se") == \
        "verify-mc-infinite-variance"
    assert oracle.known_defect(op("verify"), "exit:2:verify-mc-check-within-5se") == \
        "verify-mc-3se-false-alarm"
    assert oracle.known_defect(op("quantile-gmd", "student-t", 1.5),
                               "tol:quantile-truncated") == "quantile-truncation"
    # Outside the classes where each defect shows, a failure is unexpected.
    unexpected = [
        (op("closed-form", offset=1e4), "tol:closed-form-value"),
        (op("bound", "student-t", 4.0, 1e4), "tol:bound-below-gmd"),
        (op("bound", offset=1e12), "tol:second-moment"),
        (op("estimate", offset=1e4), "tol:estimate-se"),
        (op("estimate", "student-t", 4.0, 1e12), "raised:ValueError"),
        (op("verify", offset=1e4), "exit:2:nonconvergence"),
        (op("verify", offset=1e4), "raised:TypeError"),
        (op("verify"), "raised:TypeError:serialize"),
        (op("verify"), "exit:2:verify-mc-check-beyond-5se"),
        (op("quantile-gmd", "student-t", 30.0), "tol:quantile"),
        (op("quantile-gmd", "student-t", 30.0), "tol:quantile-truncated"),
        (op("quantile-gmd", "student-t", 1.5), "tol:quantile"),
    ]
    for o, cause in unexpected:
        assert oracle.known_defect(o, cause) is None, (o, cause)


def test_quantile_miss_is_truncation_only_at_the_truncation_size(tmp_path):
    spec = {"family": "student-t", "nu": 1.5, "mu": [0.0, 0.0],
            "sigma": [[1.0, 0.0], [0.0, 1.0]]}
    full = oracle.iid_quantile_gmd(1.5)
    truncated = full - oracle.iid_quantile_tail(1.5)
    assert truncated == pytest.approx(3.41201, abs=5e-6)
    records = [_record(tmp_path, k, 0, json.dumps({"value": value}), None, spec,
                       kind="quantile-gmd", family="student-t", nu=1.5)
               for k, value in enumerate((full, truncated, truncated * (1 + 1e-6)))]
    failures = run.check_records(records, tmp_path)
    assert failures == [("tol:quantile-truncated", "quantile-truncation"),
                        ("tol:quantile", None)]


def test_false_alarms_beyond_chance_are_unexpected(tmp_path):
    exact = 2 / math.sqrt(math.pi)

    def verify_records(count, alarms):
        records = []
        for k in range(count):
            mc = exact + (4e-3 if k < alarms else 0.0)
            out = json.dumps({"closed_form": exact, "quadrature": exact, "monte_carlo": mc,
                              "mc_std_error": 1e-3, "abs_diff_quadrature": 0.0,
                              "quad_tol": 1e-6, "mc_diff_in_se": 4.0, "pass": k >= alarms})
            records.append(_record(tmp_path, k, 2 if k < alarms else 0, out, None,
                                   kind="verify", draws=2000))
        return records

    cap = oracle.false_alarm_cap(100)
    assert 1 <= cap <= 6
    failures = run.check_records(verify_records(100, cap), tmp_path)
    assert failures == [("exit:2:verify-mc-check-within-5se", "verify-mc-3se-false-alarm")] * cap
    failures = run.check_records(verify_records(100, cap + 1), tmp_path)
    assert failures == [("exit:2:verify-mc-check-within-5se", None)] * (cap + 1)


def _block_files(directory: Path, name: str, seed: int) -> tuple[list, dict[str, bytes]]:
    directory.mkdir()
    ops, files = [], {}
    for op, spec in workloads.block_ops(workloads.WORKLOADS[name], seed, 0, 0):
        workloads.write_spec(directory / op.spec, spec)
        ops.append(op)
        files[op.spec] = (directory / op.spec).read_bytes()
    return ops, files


def _mix(ops):
    return sorted((o.kind, o.n, o.family, o.nu or 0.0, o.offset, o.draws, o.chunks, o.dump)
                  for o in ops)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_seeded_and_keeps_the_mix(tmp_path, name):
    ops_a, files_a = _block_files(tmp_path / "a", name, 7)
    ops_b, files_b = _block_files(tmp_path / "b", name, 7)
    ops_c, files_c = _block_files(tmp_path / "c", name, 8)
    assert ops_a == ops_b
    assert files_a == files_b
    assert files_a != files_c
    assert _mix(ops_a) == _mix(ops_c)


def test_tracer_wraps_counts_and_restores():
    import gmd.cli
    import gmd.closed_form

    original = gmd.closed_form.normal_gmd
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gmd.closed_form.normal_gmd is not original
        spec = gmd.cli.validate(gmd.cli.spec_from_json(json.dumps(IID_NORMAL)))
        tracer.begin_op(0)
        gmd.closed_form.normal_gmd(spec)
        counts = tracer.end_op()
    finally:
        tracer.uninstall()
    assert gmd.closed_form.normal_gmd is original
    assert counts["calls"]["closed_form.normal_gmd"] == 1
    assert counts["calls"]["special.std_normal_pdf"] == 2
    assert counts["calls"]["model.pair_params"] == 1
    assert tracer.absent == []


def test_tracer_reports_a_removed_symbol_as_absent(monkeypatch):
    import gmd.cli

    monkeypatch.delattr(gmd.cli, "_dump_csv")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["cli._dump_csv"]
    record = {"op": workloads.Op(0, 0, "estimate", 2, "normal", None, 0.0, 1000).to_dict(),
              "trace": tracer._fresh(), "wall_ns": 1, "cpu_ns": 1, "traced_cpu_ns": 1,
              "out_bytes": 0}
    metrics = tracing.layer_metrics("estimate", [record], [{"import_s": 0.1}], 0,
                                    tracer.absent)
    assert "cli.dump_ms" not in metrics
    assert "cli.emit_ms" in metrics


def test_quantile_estimates_the_median_and_90th_percentile():
    assert run.quantile([5.0] * 150, 0.9) == pytest.approx(5.0, rel=1e-12)
    assert run.quantile(list(range(1001)), 0.9) == pytest.approx(900.0, abs=1.0)
    assert run.quantile(list(range(1001)), 0.5) == pytest.approx(500.0, abs=1e-9)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_block_count_depends_on_seconds_only(name):
    workload = workloads.WORKLOADS[name]
    blocks = workload.blocks(20, traced=False)
    assert blocks * len(workload.layout) >= 100
    assert workload.blocks(20, traced=False) == blocks
    assert workload.blocks(60, traced=False) > blocks
    assert 1 <= workload.blocks(20, traced=True) <= blocks
