"""End-to-end CLI behavior: subcommands, exit codes, report formats."""

import contextlib
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from gmd import cli, monte_carlo
from gmd.bounds import build_bound_report
from gmd.cli import main
from gmd.closed_form import normal_gmd, student_gmd
from gmd.model import GmdMethod, GmdResult, spec_from_dict, validate
from gmd.monte_carlo import BLOCK_VALUES, MonteCarloConfig, estimate_gmd, sample
from gmd.special import DegreesOfFreedom

from helpers import (
    MU_3D,
    SIGMA_3D,
    exchangeable_student_gmd,
    monte_carlo_off_by,
    quadrature_off_by,
    reference_output,
    stacked,
)

TWO_OVER_SQRT_PI = 1.1283791670955126


@pytest.fixture
def iid_normal_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "family": "normal", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
    }))
    return str(path)


@pytest.fixture
def student_spec(tmp_path):
    path = tmp_path / "tspec.json"
    path.write_text(json.dumps({
        "family": "student-t", "nu": 3.0,
        "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestClosedFormCommand:
    def test_iid_normal_value(self, capsys, iid_normal_spec):
        code, out = run(capsys, "closed-form", iid_normal_spec)
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "ClosedForm"
        assert report["value"] == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)
        assert report["pair_contributions"][0]["pair"] == [0, 1]

    def test_text_output(self, capsys, iid_normal_spec):
        code, out = run(capsys, "closed-form", iid_normal_spec, "--output", "text")
        assert code == 0
        assert any(line.startswith("value = 1.1283791670955126") for line in out.splitlines())

    def test_seventeen_digit_round_trip(self, capsys, iid_normal_spec):
        _, out = run(capsys, "closed-form", iid_normal_spec)
        report = json.loads(out)
        assert report["value"] == float(format(TWO_OVER_SQRT_PI, ".17g"))

    def test_nu_override_on_student(self, capsys, student_spec):
        code, out = run(capsys, "closed-form", student_spec, "--nu", "2.0")
        assert code == 0
        expected = exchangeable_student_gmd(1.0, DegreesOfFreedom(2.0), [0.0])
        assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-12)

    def test_nu_override_on_normal_rejected(self, capsys, iid_normal_spec):
        code, out = run(capsys, "closed-form", iid_normal_spec, "--nu", "4")
        assert code == 1
        assert "student-t" in json.loads(out)["errors"][0]

    def test_missing_file(self, capsys):
        code, out = run(capsys, "closed-form", "/nonexistent/spec.json")
        assert code == 1
        assert "cannot read" in json.loads(out)["errors"][0]

    def test_control_characters_in_a_path_stay_valid_json(self, capsys, tmp_path):
        path = str(tmp_path / "no\tsuch\nfile\x01.json")
        code, out = run(capsys, "closed-form", path)
        assert code == 1
        assert path in json.loads(out)["errors"][0]

    def test_control_characters_in_a_path_stay_one_line_of_text(self, capsys, tmp_path):
        path = str(tmp_path / "no\tsuch\nfile.json")
        code, out = run(capsys, "closed-form", path, "--output", "text")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1
        assert all(re.fullmatch(r"[\w.]+ = \S.*", line) for line in lines)
        assert "no\\tsuch\\nfile.json" in lines[0]

    def test_spec_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"family": "normal", "mu": [0, 0], "sigma": [[1, 0], [0, 1]]}\xff')
        code, out = run(capsys, "closed-form", str(bad))
        assert code == 1
        assert "cannot read" in json.loads(out)["errors"][0]

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out = run(capsys, "closed-form", str(bad))
        assert code == 1
        assert "malformed JSON" in json.loads(out)["errors"][0]

    GOOD = b'{"family": "normal", "mu": [0.5, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}'

    @pytest.mark.parametrize("content", [
        GOOD.replace(b"0.5", b"NaN"),
        GOOD.replace(b"0.5", b"Infinity"),
        GOOD.replace(b"0.5", b"-Infinity"),
        GOOD.replace(b"0.5", b"1e400"),
        b"\xef\xbb\xbf" + GOOD,
        GOOD.replace(b"]]", b"],]"),
        GOOD[:40],
    ], ids=["nan", "infinity", "minus-infinity", "overflow", "bom", "trailing-comma",
            "truncated"])
    def test_strict_json(self, capsys, tmp_path, content):
        # Specs are strict RFC 8259 JSON; test_spec_not_utf8 covers bytes
        # that are not UTF-8.
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        code, out = run(capsys, "closed-form", str(path))
        assert code == 1
        assert json.loads(out)["errors"][0].startswith("malformed JSON")

    @pytest.mark.parametrize("fields, message", [
        ({"mu": ["a", "b"]}, "mu must be an array of numbers, found str"),
        ({"mu": {"a": 1}}, "mu must be an array of numbers, found dict"),
        ({"sigma": [[1, 0], [0]]}, "sigma must be an array of numbers, found list"),
        ({"family": "student-t", "nu": "abc"}, "nu must be a number, got 'abc'"),
        ({"mu": [10**399, 0]}, "malformed JSON"),
        ({"mu": ["1.5", "2"]}, "mu must be an array of numbers, found str"),
        ({"mu": [True, 1.5]}, "mu must be an array of numbers, found bool"),
        ({"sigma": [[1, None], [0, 1]]}, "sigma must be an array of numbers, found NoneType"),
        ({"family": "student-t", "nu": "4"}, "nu must be a number, got '4'"),
        ({"family": "student-t", "nu": True}, "nu must be a number, got True"),
    ], ids=["mu-strings", "mu-object", "ragged-sigma", "nu-string", "mu-400-digits",
            "mu-numeric-strings", "mu-boolean", "sigma-null", "nu-numeric-string",
            "nu-boolean"])
    def test_values_that_are_not_numbers_rejected(self, capsys, tmp_path, fields, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": "normal", "mu": [0, 0],
                                    "sigma": [[1, 0], [0, 1]], **fields}))
        code = main(["closed-form", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        errors = json.loads(captured.out)["errors"]
        assert errors[0].startswith(message), errors

    def test_not_positive_definite(self, capsys, tmp_path):
        bad = tmp_path / "npd.json"
        bad.write_text(json.dumps({
            "family": "normal", "mu": [0, 0], "sigma": [[1, 2], [2, 1]],
        }))
        code, out = run(capsys, "closed-form", str(bad))
        assert code == 1
        errors = json.loads(out)["errors"]
        assert any("positive definite" in e for e in errors)

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({
            "family": "normal", "mu": [0, 0], "sigma": [[1, 0], [0, 1]], "foo": 1,
        }))
        code, out = run(capsys, "closed-form", str(bad))
        assert code == 1
        assert "unknown spec keys" in json.loads(out)["errors"][0]

    def test_moment_error_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "nu1.json"
        spec.write_text(json.dumps({
            "family": "student-t", "nu": 1.0, "mu": [0, 0],
            "sigma": [[1, 0], [0, 1]],
        }))
        code, out = run(capsys, "closed-form", str(spec))
        assert code == 1
        assert any("mean" in e for e in json.loads(out)["errors"])


class TestBoundCommand:
    def test_report_shape_and_domination(self, capsys, iid_normal_spec):
        code, out = run(capsys, "bound", iid_normal_spec)
        assert code == 0
        report = json.loads(out)
        assert report["second_moment"] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert report["exact_gmd"] <= report["second_moment"] + 1e-9
        assert report["cp"]["p"] == 2.0

    def test_low_nu_bounds_inapplicable(self, capsys, tmp_path):
        spec = tmp_path / "nu15.json"
        spec.write_text(json.dumps({
            "family": "student-t", "nu": 1.5, "mu": [0, 0],
            "sigma": [[1, 0], [0, 1]],
        }))
        code, out = run(capsys, "bound", str(spec))
        assert code == 0
        report = json.loads(out)
        assert report["second_moment"] is None
        assert report["exact_gmd"] is not None  # the GMD itself needs only nu > 1


class TestWithoutAMean:
    """A t spec with nu <= 1 is valid, but has no mean: the commands that
    need one exit 1 naming it, before writing anything, and ``bound`` gives
    its report without the exact value."""

    @staticmethod
    def _spec(tmp_path, nu):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "family": "student-t", "nu": nu, "mu": [0, 0], "sigma": [[1, 0], [0, 1]],
        }))
        return str(spec)

    @pytest.mark.parametrize("nu", [1.0, 0.5, 1e-300])
    @pytest.mark.parametrize("command",
                             ["closed-form", "estimate", "verify", "quantile-gmd", "bound"])
    def test_contract(self, capsys, tmp_path, command, nu):
        # Every route asks DegreesOfFreedom and gives its one message;
        # quantile-gmd once built its tail first, and at nu = 1e-300 that
        # tail's K underflowed to 0.
        dump = tmp_path / "samples.csv"
        extra = {"estimate": ["--draws", "2000", "--dump", str(dump)],
                 "verify": ["--draws", "2000"]}.get(command, [])
        code, out = run(capsys, command, self._spec(tmp_path, nu), *extra)
        report = json.loads(out)
        if command == "bound":
            assert code == 0
            assert report["exact_gmd"] is None
        else:
            assert code == 1
            assert report["errors"] == [
                f"mean requires nu > 1, got nu = {nu} (mean-existence check)"]
        assert not dump.exists()

    def test_checks_are_raised_not_asserted(self, tmp_path):
        # Under python -O every assert is gone; the estimate must still refuse.
        dump = tmp_path / "samples.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "gmd.cli", "estimate", self._spec(tmp_path, 0.5),
             "--draws", "2000", "--dump", str(dump)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stderr[-2000:]
        assert any("mean" in e for e in json.loads(proc.stdout)["errors"])
        assert not dump.exists()


class TestSubnormalScales:
    """Below the normal range the relative pivot check underflows, so the
    range check on the difference scales is what refuses such a spec:
    every command exits 1 with its message, before writing anything."""

    U = 5e-324  # the smallest subnormal double

    @pytest.mark.parametrize("command",
                             ["closed-form", "bound", "estimate", "verify", "quantile-gmd"])
    def test_contract(self, capsys, tmp_path, command):
        dump = tmp_path / "samples.csv"
        extra = {"estimate": ["--draws", "2000", "--dump", str(dump)],
                 "verify": ["--draws", "2000"]}.get(command, [])
        u = self.U
        sigmas = {
            # Not positive definite: its eigenvalues are -0.40 u and 12.4 u.
            "not-pd": [[2 * u, -5 * u], [-5 * u, 10 * u]],
            # Positive definite, but symmetrizing rounds 3 u to 4 u, where
            # rho reads 1.
            "pd": [[2 * u, 3 * u], [3 * u, 10 * u]],
        }
        for name, sigma in sigmas.items():
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps({"family": "normal", "mu": [0, 0], "sigma": sigma}))
            code, out = run(capsys, command, str(spec), *extra)
            assert code == 1, (name, out)
            assert json.loads(out)["errors"] == [
                "difference scales S_ii + S_jj - 2 S_ij underflow"], name
            assert not dump.exists()
        # Small but normal scales stay accepted, and their answers agree.
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps({"family": "normal", "mu": [0, 0],
                                    "sigma": [[1e-300, 0.6e-300], [0.6e-300, 1e-300]]}))
        code, out = run(capsys, "verify", str(spec), "--draws", "2000")
        assert code == 0, out
        assert json.loads(out)["pass"] is True


class TestEstimateCommand:
    def test_deterministic(self, capsys, iid_normal_spec):
        code1, out1 = run(capsys, "estimate", iid_normal_spec,
                          "--draws", "20000", "--seed", "5")
        code2, out2 = run(capsys, "estimate", iid_normal_spec,
                          "--draws", "20000", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["method"] == "MonteCarlo"
        assert report["diagnostics"]["prng"] == "philox4x64"

    def test_value_close_to_truth(self, capsys, iid_normal_spec):
        _, out = run(capsys, "estimate", iid_normal_spec,
                     "--draws", "200000", "--seed", "5")
        report = json.loads(out)
        se = report["diagnostics"]["std_error"]
        assert abs(report["value"] - TWO_OVER_SQRT_PI) < 4 * se

    @pytest.mark.parametrize("nu, valid", [(1.5, False), (2.0, False), (4.0, True)])
    def test_std_error_flagged_without_a_variance(self, capsys, tmp_path, nu, valid):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"family": "student-t", "nu": nu, "mu": [0.0, 0.5],
                                    "sigma": [[1.0, 0.3], [0.3, 1.0]]}))
        code, out = run(capsys, "estimate", str(spec), "--draws", "2000", "--seed", "1")
        diagnostics = json.loads(out)["diagnostics"]
        assert code == 0
        assert diagnostics["std_error_valid"] is valid
        assert isinstance(diagnostics["std_error"], float) and diagnostics["std_error"] > 0

    def test_pairs_only_on_request(self, capsys, iid_normal_spec):
        argv = ("estimate", iid_normal_spec, "--draws", "5000", "--seed", "5")
        _, out = run(capsys, *argv)
        assert '"pair_contributions": null' in out
        assert json.loads(out)["pair_contributions"] is None
        _, with_pairs = run(capsys, *argv, "--pairs")
        (pair,) = json.loads(with_pairs)["pair_contributions"]
        assert pair["pair"] == [0, 1]
        assert json.loads(with_pairs)["value"] == pytest.approx(json.loads(out)["value"],
                                                                rel=1e-14)

    def test_draw_floor_enforced(self, capsys, iid_normal_spec):
        code, out = run(capsys, "estimate", iid_normal_spec, "--draws", "999")
        assert code == 1
        assert "draws" in json.loads(out)["errors"][0]

    def test_dump_csv(self, capsys, iid_normal_spec, tmp_path):
        dump = tmp_path / "samples.csv"
        code, _ = run(capsys, "estimate", iid_normal_spec,
                      "--draws", "1000", "--seed", "1", "--dump", str(dump))
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 1001
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 2 and all(math.isfinite(v) for v in first)

    def test_dump_into_a_missing_directory(self, capsys, monkeypatch, iid_normal_spec, tmp_path):
        def no_draws(*args):
            raise AssertionError("drew samples for a dump that cannot be written")

        monkeypatch.setattr(monte_carlo, "_chunk_rng", no_draws)
        dump = tmp_path / "missing" / "samples.csv"
        code, out = run(capsys, "estimate", iid_normal_spec,
                        "--draws", "1000", "--seed", "1", "--dump", str(dump))
        assert code == 1
        assert "cannot write samples" in json.loads(out)["errors"][0]
        assert not dump.exists()

    @staticmethod
    def _fail_after_one_block(monkeypatch, spec, dump, error):
        def fails_after_one_block(blocks, *args):
            next(blocks)
            raise error

        monkeypatch.setattr(monte_carlo, "estimate_from_samples", fails_after_one_block)
        # 200 000 draws at n = 2 span four blocks of the stream.
        with pytest.raises(error):
            main(["estimate", spec, "--draws", "200000", "--dump", str(dump)])

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_failed_reduction_leaves_no_dump(self, monkeypatch, iid_normal_spec,
                                             tmp_path, error):
        dump = tmp_path / "samples.csv"
        self._fail_after_one_block(monkeypatch, iid_normal_spec, dump, error)
        assert not dump.exists()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_reduction_failing_before_the_first_block_leaves_no_dump(
            self, monkeypatch, iid_normal_spec, tmp_path, error):
        def fails_at_once(blocks, *args):
            raise error

        monkeypatch.setattr(monte_carlo, "estimate_from_samples", fails_at_once)
        dump = tmp_path / "samples.csv"
        with pytest.raises(error):
            main(["estimate", iid_normal_spec, "--draws", "2000", "--dump", str(dump)])
        assert not dump.exists()

    def test_failed_close_is_a_validation_error(self, capsys, monkeypatch, iid_normal_spec,
                                                tmp_path):
        # A full disk may show only when the buffered tail is flushed.
        real_open = open

        class FailsOnClose:
            def __init__(self, out):
                self._out = out

            def __getattr__(self, name):
                return getattr(self._out, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._out.close()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *a, **k: FailsOnClose(real_open(*a, **k)),
                            raising=False)
        dump = tmp_path / "samples.csv"
        code, out = run(capsys, "estimate", iid_normal_spec, "--draws", "2000",
                        "--dump", str(dump))
        assert code == 1
        assert "No space left on device" in json.loads(out)["errors"][0]
        assert not dump.exists()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_failed_reduction_keeps_a_link_to_a_device(self, monkeypatch, iid_normal_spec,
                                                       tmp_path, error):
        link = tmp_path / "samples.csv"
        link.symlink_to(os.devnull)
        self._fail_after_one_block(monkeypatch, iid_normal_spec, link, error)
        assert link.is_symlink() and os.readlink(link) == os.devnull

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_failed_reduction_empties_a_linked_file(self, monkeypatch, iid_normal_spec,
                                                    tmp_path, error):
        target = tmp_path / "target.csv"
        target.write_text("x1,x2\n")
        link = tmp_path / "samples.csv"
        link.symlink_to(target)
        self._fail_after_one_block(monkeypatch, iid_normal_spec, link, error)
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == b""

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_seed_above_2_53_is_reported_exactly(self, capsys, iid_normal_spec, output):
        seed = 2**60 + 1  # not a float64: float(seed) == 2**60
        code, out = run(capsys, "estimate", iid_normal_spec, "--draws", "1000",
                        "--seed", str(seed), "--chunks", "2", "--output", output)
        assert code == 0
        if output == "json":
            diagnostics = json.loads(out)["diagnostics"]
            assert diagnostics["seed"] == seed
            assert (diagnostics["draws"], diagnostics["chunks"]) == (1000, 2)
        else:
            lines = out.splitlines()
            assert f"diagnostics.seed = {seed}" in lines
            assert "diagnostics.draws = 1000" in lines

    @pytest.mark.parametrize("family, nu, offset, chunks, n, draws", [
        # 100 000 draws of n = 3 span three blocks of the stream.
        ("normal", None, 0.0, 3, 3, 100_000),
        ("student-t", 4.0, 1e12, 1, 3, 100_000),
        # One block and a row, and two blocks and half a dump slice, at the
        # smallest n and at one whose 81-row slices do not divide a block.
        *[(family, nu, 0.0, chunks, n, draws)
          for family, nu in (("normal", None), ("student-t", 4.0))
          for chunks in (1, 3)
          for n in (2, 50)
          for draws in (BLOCK_VALUES // n + 1,
                        2 * (BLOCK_VALUES // n) + cli._DUMP_VALUES_PER_SLICE // n // 2)],
    ])
    def test_dump_equals_savetxt(self, capsys, tmp_path, family, nu, offset, chunks, n, draws):
        path, spec = _spec_file(tmp_path, "spec.json", family, nu, n, 11)
        if offset:
            data = json.loads(Path(path).read_text())
            data["mu"] = [offset + m for m in data["mu"]]
            Path(path).write_text(json.dumps(data))
            spec = validate(spec_from_dict(data))
        dump, ref = tmp_path / "samples.csv", tmp_path / "ref.csv"
        code, _ = run(capsys, "estimate", path, "--draws", str(draws), "--seed", "4",
                      "--chunks", str(chunks), "--dump", str(dump))
        assert code == 0
        samples = stacked(sample(spec, MonteCarloConfig(draws=draws, seed=4, chunks=chunks)))
        header = ",".join(f"x{k + 1}" for k in range(n))
        np.savetxt(ref, samples, fmt="%.17g", delimiter=",", header=header, comments="")
        assert dump.read_bytes() == ref.read_bytes()

    def test_dump_writes_each_block_in_slices_before_passing_it(self, tmp_path):
        # Two full n = 2 blocks; one formatted whole peaks at about 9 MB.
        assert inspect.isgeneratorfunction(cli._dump_csv)
        rows = BLOCK_VALUES // 2
        blocks = [np.random.default_rng(k).normal(size=(rows, 2)) for k in range(2)]
        path = tmp_path / "samples.csv"
        dump = cli._dump_csv(iter(blocks), str(path), 2)
        peaks = []
        for k, block in enumerate(blocks, 1):
            tracemalloc.start()
            try:
                assert next(dump) is block
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert path.read_text().count("\n") == 1 + k * rows
        with pytest.raises(StopIteration):
            next(dump)
        assert max(peaks) < 1e6, peaks
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, np.vstack(blocks), fmt="%.17g", delimiter=",", header="x1,x2",
                   comments="")
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("command", ["estimate", "verify"])
    def test_more_chunks_than_draws_rejected(self, capsys, iid_normal_spec, command):
        code, out = run(capsys, command, iid_normal_spec, "--draws", "1000", "--chunks", "3000")
        assert code == 1
        assert json.loads(out)["errors"] == [
            "chunks must be <= draws, got 3000 chunks for 1000 draws"]

    def test_chunked_estimate_matches_known_layout(self, capsys, iid_normal_spec):
        _, out1 = run(capsys, "estimate", iid_normal_spec,
                      "--draws", "20000", "--seed", "5", "--chunks", "4")
        _, out2 = run(capsys, "estimate", iid_normal_spec,
                      "--draws", "20000", "--seed", "5", "--chunks", "4")
        assert out1 == out2


class TestVerifyCommand:
    def test_passes_on_iid_normal(self, capsys, iid_normal_spec):
        code, out = run(capsys, "verify", iid_normal_spec,
                        "--draws", "100000", "--seed", "2")
        report = json.loads(out)
        assert code == 0
        assert report["pass"] is True
        assert report["abs_diff_quadrature"] <= 1e-6
        assert report["mc_diff_in_se"] <= 3.0

    def test_fails_with_impossible_tolerance(self, capsys, monkeypatch, iid_normal_spec):
        # A Monte Carlo estimate 4 standard errors off fails the 3-SE check.
        monte_carlo_off_by(monkeypatch, 4.0)
        code, out = run(capsys, "verify", iid_normal_spec, "--draws", "50000", "--seed", "2")
        report = json.loads(out)
        assert code == 2
        assert report["pass"] is False
        assert report["mc_diff_in_se"] == pytest.approx(4.0, rel=1e-12)
        assert report["mc_se_tol"] == 3.0

    def test_never_asks_for_the_pairs(self, capsys, monkeypatch, iid_normal_spec):
        calls = []
        original = monte_carlo.estimate_gmd

        def spy(*args, **kwargs):
            calls.append((args[2:], kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(monte_carlo, "estimate_gmd", spy)
        code, _ = run(capsys, "verify", iid_normal_spec, "--draws", "2000", "--seed", "2")
        assert code == 0
        assert calls == [((False,), {})]

    def test_student_spec(self, capsys, student_spec):
        code, out = run(capsys, "verify", student_spec,
                        "--draws", "200000", "--seed", "3")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_text_table(self, capsys, iid_normal_spec):
        code, out = run(capsys, "verify", iid_normal_spec,
                        "--draws", "50000", "--seed", "2", "--output", "text")
        assert code == 0
        assert "closed-form" in out and "quadrature" in out and "monte-carlo" in out

    HEAVY = {"family": "student-t", "mu": [0.0, 0.5], "sigma": [[1.0, 0.3], [0.3, 1.0]]}

    def _heavy_spec(self, tmp_path, nu):
        spec = tmp_path / "heavy.json"
        spec.write_text(json.dumps({**self.HEAVY, "nu": nu}))
        return str(spec)

    def test_no_variance_passes_on_quadrature_alone(self, capsys, tmp_path):
        # At nu = 1.5, E|D|^2 is infinite; seed 21 puts the estimate 7 of
        # its (meaningless) standard errors from the closed form.
        code, out = run(capsys, "verify", self._heavy_spec(tmp_path, 1.5),
                        "--draws", "2000", "--seed", "21")
        report = json.loads(out)
        assert report["mc_diff_in_se"] > 3.0
        assert code == 0 and report["pass"] is True
        assert report["mc_check"] == "n/a"
        assert "nu <= 2" in report["mc_check_reason"]
        assert report["decided_by"] == ["quadrature"]
        assert isinstance(report["mc_std_error"], float)

    def test_no_variance_still_gates_on_quadrature(self, capsys, monkeypatch, tmp_path):
        quadrature_off_by(monkeypatch, 10.0)
        code, out = run(capsys, "verify", self._heavy_spec(tmp_path, 1.5), "--draws", "2000")
        report = json.loads(out)
        assert code == 2 and report["pass"] is False
        assert report["mc_check"] == "n/a"
        assert report["abs_diff_quadrature"] > report["quad_tol"]

    def test_finite_variance_gates_on_monte_carlo(self, capsys, monkeypatch, tmp_path):
        monte_carlo_off_by(monkeypatch, 4.0)
        code, out = run(capsys, "verify", self._heavy_spec(tmp_path, 4.0),
                        "--draws", "2000", "--seed", "21")
        report = json.loads(out)
        assert code == 2 and report["pass"] is False
        assert report["abs_diff_quadrature"] <= report["quad_tol"]
        assert report["mc_check"] == "applied" and report["mc_check_reason"] is None
        assert report["decided_by"] == ["quadrature", "monte-carlo"]

    def test_text_table_says_n_a(self, capsys, tmp_path):
        code, out = run(capsys, "verify", self._heavy_spec(tmp_path, 1.5),
                        "--draws", "2000", "--seed", "21", "--output", "text")
        mc_row = next(line for line in out.splitlines() if line.startswith("monte-carlo"))
        assert code == 0 and "n/a" in mc_row and "SE" not in mc_row

    def test_nonconvergence_exit_code(self, capsys, tmp_path):
        # A mean gap of 1e20 at unit scale is beyond what float64 resolves
        # in quadrature's abscissae; the closed form still has its value.
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps({"family": "normal", "mu": [1e20, 0.0],
                                    "sigma": [[1.0, 0.0], [0.0, 1.0]]}))
        code, out = run(capsys, "verify", str(spec), "--draws", "50000")
        assert code == 2
        assert json.loads(out)["errors"] == [
            "pair (0,1): mean gap 1e+20 is beyond what float64 resolves at scale 1.0"]

    def test_mean_gap_past_the_float_range_of_its_scale(self, capsys, tmp_path):
        # The gap over the scale, about 1e450, overflows a double: the row is
        # refused before it is divided by its unit, with no overflow warning.
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps({"family": "normal", "mu": [1e300, 0.0],
                                    "sigma": [[1e-300, 0.0], [0.0, 1e-300]]}))
        code, out = run(capsys, "verify", str(spec), "--draws", "2000")
        assert code == 2
        assert json.loads(out)["errors"] == [
            "pair (0,1): mean gap 1e+300 is beyond what float64 resolves at scale 1e-150"]

    @pytest.mark.parametrize("factor", [2.0**-100, 1e-9, 1.0, 2.0**100, 1e12])
    def test_verdict_does_not_depend_on_units(self, capsys, tmp_path, factor):
        # The quadrature check reads the routes' own error estimates, so a
        # spec passes in any units.  At a factor 2^k every value and
        # estimate scales by exactly 2^k, and so does the tolerance.
        reports = []
        for scale in (1.0, factor):
            spec = tmp_path / "scaled.json"
            spec.write_text(json.dumps({"family": "student-t", "nu": 1.5,
                                        "mu": (scale * MU_3D).tolist(),
                                        "sigma": (scale**2 * SIGMA_3D).tolist()}))
            code, out = run(capsys, "verify", str(spec), "--draws", "2000", "--seed", "3")
            assert code == 0, out
            reports.append(json.loads(out))
        unit, scaled = (r["quad_tol"] / r["closed_form"] for r in reports)
        if math.frexp(factor)[0] == 0.5:  # a power of two
            assert scaled == unit


class TestQuantileCommand:
    def test_normal_marginal(self, capsys, iid_normal_spec):
        code, out = run(capsys, "quantile-gmd", iid_normal_spec)
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "Quantile"
        assert report["value"] == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-8)
        assert report["gini_index"] is None  # mean zero

    def test_student_marginal(self, capsys, student_spec):
        # The i.i.d. GMD of the t_3 marginal, oracle: 2*(mean of 2fF - mean).
        from scipy import integrate, stats

        mu_g, _ = integrate.quad(
            lambda x: x * 2.0 * stats.t.pdf(x, 3) * stats.t.cdf(x, 3), -np.inf, np.inf
        )
        code, out = run(capsys, "quantile-gmd", student_spec)
        assert code == 0
        value = json.loads(out)["value"]
        assert value == pytest.approx(2.0 * mu_g, abs=1e-6)
        # Uncorrelated joint-t components are dependent through the common
        # mixing variable, so the joint GMD at rho=0 is a different number.
        joint = exchangeable_student_gmd(1.0, DegreesOfFreedom(3.0), [0.0])
        assert abs(value - joint) > 0.05

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_reports_its_estimate_and_cost(self, capsys, student_spec, output):
        # The new keys follow the existing ones; two runs print the same bytes.
        code, out = run(capsys, "quantile-gmd", student_spec, "--output", output)
        assert code == 0
        assert run(capsys, "quantile-gmd", student_spec, "--output", output) == (code, out)
        if output == "text":
            keys = [line.split(" = ")[0] for line in out.splitlines()]
            assert keys == ["value", "method", "gini_index", "note", "abs_error_estimate",
                            "quadrature_panels", "quadrature_rounds"]
            return
        report = json.loads(out)
        assert list(report) == ["value", "method", "gini_index", "note", "abs_error_estimate",
                                "quadrature_panels", "quadrature_rounds"]
        assert type(report["abs_error_estimate"]) is float
        assert type(report["quadrature_panels"]) is int
        assert type(report["quadrature_rounds"]) is int
        truth = 3.0 * math.sqrt(3.0) / math.pi  # E|X - Y| of two i.i.d. t_3
        assert abs(report["value"] - truth) <= report["abs_error_estimate"]
        assert report["quadrature_rounds"] <= 3 and report["quadrature_panels"] <= 30

    def test_gini_with_positive_mean(self, capsys, tmp_path):
        spec = tmp_path / "pos.json"
        spec.write_text(json.dumps({
            "family": "normal", "mu": [10.0, 10.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
        }))
        code, out = run(capsys, "quantile-gmd", str(spec))
        report = json.loads(out)
        assert report["gini_index"] == pytest.approx(report["value"] / 20.0, rel=1e-12)

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_negative_mean_gini_note(self, capsys, tmp_path, output):
        spec = tmp_path / "neg.json"
        spec.write_text(json.dumps({
            "family": "normal", "mu": [-2.0, 1.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
        }))
        code, out = run(capsys, "quantile-gmd", str(spec), "--output", output)
        assert code == 0
        note = "interpretation requires a nonnegative variable"
        if output == "json":
            assert json.loads(out)["gini_note"] == note
        else:
            assert f"gini_note = {note}" in out.splitlines()
            assert "method = Quantile" in out.splitlines()

    def test_negative_mean_notes_without_a_warning(self, tmp_path):
        # The report's gini_note says what the library's UserWarning says;
        # a fresh interpreter shows that nothing else reaches stderr.
        spec = tmp_path / "neg.json"
        spec.write_text(json.dumps({
            "family": "normal", "mu": [-2.0, 1.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
        }))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "gmd.cli", "quantile-gmd", str(spec)],
                              env=env, cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["gini_note"] == "interpretation requires a nonnegative variable"
        assert report["gini_index"] == pytest.approx(report["value"] / -4.0, rel=1e-12)

    @pytest.mark.parametrize("nu", [1e306, 1e308])
    def test_t_law_near_the_largest_double(self, capsys, tmp_path, nu):
        # The tail's (nu - 1) log(nu) overflowed there; the GMD is the
        # normal's to far below the estimate.
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({
            "family": "student-t", "nu": nu, "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
        }))
        code, out = run(capsys, "quantile-gmd", str(spec))
        assert code == 0
        report = json.loads(out)
        assert abs(report["value"] - TWO_OVER_SQRT_PI) <= report["abs_error_estimate"]

    @pytest.mark.parametrize("nu", [1.05, 1.5, 2.0, 30.0, 1e6, 1e300, 1e308])
    def test_tail_constant_against_mpmath(self, nu):
        # K = (c nu^((nu - 1)/2))^(1/nu), c the t density at 0, in 50 digits.
        import mpmath

        with mpmath.workdps(50):
            n = mpmath.mpf(nu)
            c = mpmath.gamma((n + 1) / 2) / (mpmath.sqrt(n * mpmath.pi) * mpmath.gamma(n / 2))
            expected = float(mpmath.exp((mpmath.log(c) + (n - 1) / 2 * mpmath.log(n)) / n))
        k, a = cli._student_t_quantile_tail(DegreesOfFreedom(nu))
        assert k == pytest.approx(expected, rel=1e-13, abs=0)
        assert a == 1.0 / nu


class TestReportRoundTrip:
    def test_every_float_reparses_identically(self, capsys, iid_normal_spec):
        _, out = run(capsys, "estimate", iid_normal_spec, "--draws", "5000", "--seed", "8")
        report = json.loads(out)
        again = json.loads(json.dumps(report))
        assert again == report


class TestVerifyAtLargeOffset:
    OFFSET_SPEC = {"family": "student-t", "nu": 1.5, "mu": [10000.0, 10000.5],
                   "sigma": [[1.0, 0.3], [0.3, 1.0]]}

    def test_failed_quadrature_check_exits_2_with_json(self, capsys, monkeypatch, tmp_path):
        # A quadrature value 10 of its estimates off fails the quadrature
        # check; the verdict must still be a JSON boolean.
        quadrature_off_by(monkeypatch, 10.0)
        spec = tmp_path / "offset.json"
        spec.write_text(json.dumps(self.OFFSET_SPEC))
        code, out = run(capsys, "verify", str(spec), "--draws", "2000", "--seed", "1")
        report = json.loads(out)
        assert code == 2
        assert report["pass"] is False
        assert report["abs_diff_quadrature"] > report["quad_tol"]

    def test_heavy_tail_offset_passes(self, capsys, tmp_path):
        spec = tmp_path / "offset.json"
        spec.write_text(json.dumps(self.OFFSET_SPEC))
        code, out = run(capsys, "verify", str(spec), "--draws", "2000", "--seed", "1")
        report = json.loads(out)
        assert code == 0
        assert report["pass"] is True
        assert report["abs_diff_quadrature"] <= 1e-12


class TestQuantileAtLargeOffset:
    @pytest.mark.parametrize("family, nu", [("normal", None), ("student-t", 4.0),
                                            ("student-t", 30.0)])
    def test_offset_1e12_matches_offset_0(self, capsys, tmp_path, family, nu):
        values = []
        for offset in (0.0, 1e12):
            data = {"family": family, "mu": [offset + 0.25, offset - 0.5],
                    "sigma": [[2.0, 0.3], [0.3, 1.0]]}
            if nu is not None:
                data["nu"] = nu
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(data))
            code, out = run(capsys, "quantile-gmd", str(spec))
            assert code == 0, out
            values.append(json.loads(out)["value"])
        assert values[1] == pytest.approx(values[0], rel=1e-12)


def _spec_file(tmp_path, name, family, nu, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    sigma = a @ a.T + n * np.eye(n)
    data = {"family": family, "mu": rng.normal(0.0, 2.0, n).tolist(),
            "sigma": (0.5 * (sigma + sigma.T)).tolist()}
    if nu is not None:
        data["nu"] = nu
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path), validate(spec_from_dict(data))


class TestQuantileScale:
    """quantile-gmd integrates the unit quantile and scales the result."""

    def _value(self, capsys, tmp_path, family, nu, var):
        data = {"family": family, "mu": [0.0, 0.0], "sigma": [[var, 0.0], [0.0, var]]}
        if nu is not None:
            data["nu"] = nu
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code, out = run(capsys, "quantile-gmd", str(spec))
        assert code == 0, out
        return json.loads(out)["value"]

    @pytest.mark.parametrize("family, nu", [("normal", None), ("student-t", 3.0),
                                            ("student-t", 1.05)])
    def test_equivariant(self, capsys, tmp_path, family, nu):
        unit = self._value(capsys, tmp_path, family, nu, 1.0)
        # sd 2^-30 is exact, and so is the product.
        assert self._value(capsys, tmp_path, family, nu, 2.0**-60) == unit * 2.0**-30
        assert self._value(capsys, tmp_path, family, nu, 1e-18) == pytest.approx(
            unit * 1e-9, rel=1e-12)

    @pytest.mark.parametrize("nu", [1.05, 1.5, 30.0])
    def test_student_t_against_mpmath(self, capsys, tmp_path, nu):
        import mpmath as mp

        with mp.workdps(40):
            x, half = mp.mpf(nu), mp.mpf(1) / 2
            exact = float(2 * 4 * mp.sqrt(x) * mp.beta(half, x - half)
                          / ((x - 1) * mp.beta(half, x / 2) ** 2))
        assert self._value(capsys, tmp_path, "student-t", nu, 4.0) == pytest.approx(
            exact, rel=1e-10)


class TestReportBytes:
    """The array writer of the pair breakdown against the recursive emitter."""

    @pytest.mark.parametrize("output", ["json", "text"])
    @pytest.mark.parametrize("family, nu", [("normal", None), ("student-t", 4.0)])
    def test_closed_form(self, capsys, tmp_path, output, family, nu):
        path, spec = _spec_file(tmp_path, "spec.json", family, nu, 7, 3)
        _, out = run(capsys, "closed-form", path, "--output", output)
        result = normal_gmd(spec) if nu is None else student_gmd(spec)
        assert out == reference_output(result.to_dict(), output)

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_estimate(self, capsys, tmp_path, output):
        path, spec = _spec_file(tmp_path, "spec.json", "student-t", 5.0, 3, 4)
        _, out = run(capsys, "estimate", path, "--draws", "5000", "--seed", "9",
                     "--chunks", "2", "--output", output, "--pairs")
        cfg = MonteCarloConfig(draws=5000, seed=9, chunks=2)
        assert out == reference_output(estimate_gmd(spec, cfg).to_dict(), output)

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_estimate_without_pairs(self, capsys, tmp_path, output):
        path, spec = _spec_file(tmp_path, "spec.json", "student-t", 5.0, 3, 4)
        _, out = run(capsys, "estimate", path, "--draws", "5000", "--seed", "9",
                     "--chunks", "2", "--output", output)
        cfg = MonteCarloConfig(draws=5000, seed=9, chunks=2)
        assert out == reference_output(estimate_gmd(spec, cfg, False).to_dict(), output)

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_bound(self, capsys, tmp_path, output):
        path, spec = _spec_file(tmp_path, "spec.json", "student-t", 4.0, 5, 5)
        _, out = run(capsys, "bound", path, "--output", output)
        report = build_bound_report(spec, exact_gmd=student_gmd(spec).value)
        assert out == reference_output(report.to_dict(), output)

    def test_verify(self, capsys, tmp_path):
        path, _ = _spec_file(tmp_path, "spec.json", "normal", None, 3, 6)
        _, out = run(capsys, "verify", path, "--draws", "5000", "--seed", "2")
        # 17 significant digits re-parse to the same doubles, so the parsed
        # report is the report the program emitted.
        assert out == reference_output(json.loads(out), "json")

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_non_finite_pair_values(self, capsys, output):
        values = np.array([1.5, math.nan, math.inf, -0.25, 1e-300, 12345678.9])
        result = GmdResult(1.0, GmdMethod.CLOSED_FORM, values, {"abs_error_estimate": 2.5e-16})
        cli._emit(cli._result_report(result), output)
        assert capsys.readouterr().out == reference_output(result.to_dict(), output)

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_closed_form_over_slices(self, capsys, tmp_path, output):
        # n = 100 has 4,950 pairs: more than one slice of the breakdown.
        path, spec = _spec_file(tmp_path, "spec.json", "normal", None, 100, 8)
        assert spec.pair_index[0].size > cli._PAIRS_PER_SLICE
        _, out = run(capsys, "closed-form", path, "--output", output)
        assert out == reference_output(normal_gmd(spec).to_dict(), output)

    @pytest.mark.parametrize("output", ["json", "text"])
    @pytest.mark.parametrize("offsets", [(-1,), (0,), (-1, 0), (-2, 1), (-2, -1, 0, 1)])
    def test_non_finite_at_a_slice_boundary(self, capsys, output, offsets):
        # Offsets from the first pair of the second slice: -1 is the last
        # pair of the first slice, 0 the first of the next, -2 and 1 their
        # neighbours.  A slice is formatted by value only if it holds a
        # non-finite value, so each side of the boundary takes either way.
        values = np.random.default_rng(5).lognormal(0.0, 3.0, 4950)
        for k, offset in enumerate(offsets):
            values[cli._PAIRS_PER_SLICE + offset] = (math.nan, math.inf, -math.inf)[k % 3]
        result = GmdResult(1.0, GmdMethod.CLOSED_FORM, values, {"abs_error_estimate": 2.5e-16})
        cli._emit(cli._result_report(result), output)
        assert capsys.readouterr().out == reference_output(result.to_dict(), output)


class TestEmitMemory:
    """A report is written slice by slice, and all of it within ``_emit``."""

    class _CountingSink:
        """A stdout that keeps only the count and a hash of what it is sent."""

        def __init__(self):
            self.chars = 0
            self.digest = hashlib.sha256()

        def write(self, piece):
            self.chars += len(piece)
            self.digest.update(piece.encode())
            return len(piece)

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_n500_breakdown_peak_and_eagerness(self, output):
        values = np.random.default_rng(2).lognormal(0.0, 1.0, 124_750)
        result = GmdResult(1.0, GmdMethod.CLOSED_FORM, values, {"abs_error_estimate": 2.5e-16})
        report = cli._result_report(result)
        sink = self._CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                cli._emit(report, output)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The whole breakdown as one string took 37 MB (json) and 53 MB (text).
        assert peak < 8e6, peak
        expected = reference_output(result.to_dict(), output)
        assert sink.chars == len(expected)
        assert sink.digest.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()

    def test_closed_form_releases_the_spec_before_the_report(self, monkeypatch, capsys,
                                                             iid_normal_spec):
        # The spec holds sigma, chol, pair_index and the pair law (m, v,
        # S_ii + S_jj): held while the breakdown streams, they raised the
        # peak of an n = 500 report.
        specs, alive = [], []
        load, emit = cli._load_spec, cli._emit

        def loaded(args):
            spec = load(args)
            specs.append(weakref.ref(spec))
            return spec

        def emitted(report, out):
            alive.append(specs[0]() is not None)
            emit(report, out)

        monkeypatch.setattr(cli, "_load_spec", loaded)
        monkeypatch.setattr(cli, "_emit", emitted)
        code, out = run(capsys, "closed-form", iid_normal_spec)
        assert code == 0 and out
        assert alive == [False]

    def test_emit_is_not_a_generator(self):
        # A lazy _emit would write nothing when called, and a caller timing
        # the call would time nothing.
        assert not inspect.isgeneratorfunction(cli._emit)


_SCIPY_FREE_RUN = """
import contextlib, io, sys
from gmd.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))

normal, student = sys.argv[1:]
for argv in (["closed-form", normal], ["bound", normal],
             ["verify", normal, "--draws", "2000"], ["estimate", normal, "--draws", "2000"],
             ["estimate", normal, "--draws", "2000", "--dump", "samples.csv"]):
    assert run(*argv) == 0, argv
    loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
    assert not loaded, (argv, loaded[:5])
assert "concurrent.futures" not in sys.modules
for argv in (["closed-form", student], ["quantile-gmd", normal], ["quantile-gmd", student]):
    assert run(*argv) == 0, argv
assert "scipy.special" in sys.modules
"""


def test_normal_commands_never_import_scipy(tmp_path, iid_normal_spec, student_spec):
    # A fresh interpreter: this one has scipy loaded by the test modules.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, iid_normal_spec, student_spec],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
