"""The benchmark's tracer must find the symbols its metrics read.

``bench/tracing.py`` times the package from outside by replacing module
attributes with timing wrappers.  A metric whose wrapped call has gone
is left out of the benchmark result, so renaming or dropping one of
those attributes silently removes a measured layer.  These tests keep
the names in place and check that the exact path still enters them.
``bench/oracle.py`` reads verify's report by its keys to tell which
check failed; the last test keeps those keys.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gmd import cli
from gmd.general_ec import gmd_quadrature
from gmd.model import spec_from_json, validate

from helpers import monte_carlo_off_by, quadrature_off_by

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
# Layers the exact path runs through; none of their wrapped calls may be absent.
EXACT_LAYERS = ("cli", "special", "closed_form", "bounds")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("bench_tracing", TRACING)


def test_every_read_symbol_is_present(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    read = {name for names in tracing.READS.values() for name in names}
    assert sorted(read & set(tracer.absent)) == []
    assert [name for name in tracer.absent if name.split(".")[0] in EXACT_LAYERS] == []


@pytest.mark.parametrize(
    "family, nu, special",
    [
        ("normal", None, ("special.std_normal_pdf", "special.std_normal_cdf")),
        ("student-t", 4.0, ("special.student_t_pdf", "special.student_t_cdf")),
    ],
)
def test_exact_path_enters_the_traced_calls(tracing, tmp_path, capsys, family, nu, special):
    data = {"family": family, "mu": [0.0, 0.5, -1.0],
            "sigma": [[1.0, 0.3, 0.1], [0.3, 2.0, -0.4], [0.1, -0.4, 1.5]]}
    if nu is not None:
        data["nu"] = nu
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        assert cli.main(["closed-form", str(path)]) == 0
        assert cli.main(["bound", str(path)]) == 0
        calls = tracer.end_op()["calls"]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in special:
        assert calls.get(name, 0) > 0, name
    gmd_call = "closed_form.normal_gmd" if nu is None else "closed_form.student_gmd"
    assert calls[gmd_call] == 2
    assert calls["bounds.second_moment_bound"] == 1
    assert calls["cli._emit"] == 2


def test_estimate_path_enters_the_traced_calls(tracing, tmp_path, capsys):
    # The tracer reads the Monte Carlo route by these three names; each
    # must be entered once per `estimate --dump`.
    data = {"family": "student-t", "nu": 5.0, "mu": [0.0, 0.5, -1.0],
            "sigma": [[1.0, 0.3, 0.1], [0.3, 2.0, -0.4], [0.1, -0.4, 1.5]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    dump = tmp_path / "samples.csv"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        assert cli.main(["estimate", str(path), "--draws", "2000", "--seed", "3",
                         "--dump", str(dump)]) == 0
        calls = tracer.end_op()["calls"]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("monte_carlo.sample", "monte_carlo.estimate_from_samples", "cli._dump_csv"):
        assert calls.get(name, 0) == 1, name
        assert name not in tracer.absent, name
    assert len(dump.read_text().splitlines()) == 2001


def test_verify_path_enters_the_traced_calls(tracing, tmp_path, capsys):
    # verify-quad's per-layer metrics read the quadrature route by these
    # names: the route once per spec, the GK15 rule once per refinement
    # round of the spec's batch of integrals.
    data = {"family": "student-t", "nu": 4.0, "mu": [0.0, 0.5],
            "sigma": [[1.0, 0.3], [0.3, 2.0]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        assert cli.main(["verify", str(path), "--draws", "2000", "--seed", "3"]) == 0
        calls = tracer.end_op()["calls"]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert calls.get("general_ec.gmd_quadrature", 0) == 1
    quad = gmd_quadrature(validate(spec_from_json(path.read_text())))
    assert calls.get("quadrature._gk15", 0) == quad.diagnostics["quadrature_rounds"]
    assert [name for name in tracer.absent
            if name.split(".")[0] in ("general_ec", "quadrature")] == []


@pytest.mark.parametrize("off_by, amount, cause", [
    (quadrature_off_by, 10.0, "exit:2:verify-quad-check"),
    (monte_carlo_off_by, 4.0, "exit:2:verify-mc-check-within-5se"),
])
def test_oracle_classifies_a_failed_verify(tmp_path, capsys, monkeypatch, off_by, amount, cause):
    # The oracle names the failed check from abs_diff_quadrature, quad_tol
    # and mc_std_error; a renamed key would read as an unparsable report.
    oracle = _load("bench_oracle", BENCH / "oracle.py")
    data = {"family": "student-t", "nu": 4.0, "mu": [0.0, 0.5],
            "sigma": [[1.0, 0.3], [0.3, 2.0]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    off_by(monkeypatch, amount)
    code = cli.main(["verify", str(path), "--draws", "2000", "--seed", "3"])
    out = capsys.readouterr().out
    op = {"kind": "verify", "family": "student-t", "nu": 4.0, "offset": 0.0}
    ref = oracle.load_reference(path, sample_seed=0)
    assert oracle.check(op, code, out, None, None, ref) == cause
