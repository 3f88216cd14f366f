"""Command-line front end: closed-form, bound, estimate, verify, quantile-gmd.

Specs are JSON files of the form
{"family": "normal"|"student-t", "nu": ..., "mu": [...], "sigma": [[...], ...]}.
Reports go to stdout as JSON (default) or aligned text; every numeric is
emitted with 17 significant digits so reports are bit-stable and re-parse
to the same doubles.  A report is written piece by piece, and a pair
breakdown in slices of a few thousand pairs, so its memory grows by one
slice, not by the breakdown.  Loading, validation and computation all run
before the first byte is written, so the only failure after it is a failed
write to stdout itself.  Exit codes: 0 success, 1 validation error (with a
machine-readable error list), 2 numerical nonconvergence or a failed
verify comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
import warnings
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import numpy as np

from . import closed_form, general_ec, monte_carlo
from .bounds import build_bound_report
from .errors import GmdError, MomentExistenceError, NonconvergenceError, ValidationError
from .model import (
    Family,
    GmdMethod,
    GmdResult,
    ValidatedSpec,
    dimension_of_pairs,
    pair_indices,
    spec_from_json,
    validate,
)
from .special import NO_VARIANCE, DegreesOfFreedom, student_t_pdf

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _format_rows(row: str, sep: str, count: int, fields: list) -> str:
    """``count`` copies of the ``%`` template ``row`` joined by ``sep``, filled
    in order from ``fields``.  One ``%`` over the repeated template is the
    fastest way to print many numbers with 17 significant digits."""
    return sep.join([row] * count) % tuple(fields)


def _interleave(*columns: list) -> list:
    """The entries of equally long ``columns`` row by row, as one flat list."""
    fields: list = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        fields[k :: len(columns)] = column
    return fields


# A float64 array in a report is a pair breakdown in ``pair_index`` order.
# It is written as the list of {"pair": [i, j], "value": v} objects that
# ``GmdResult.to_dict`` gives, with one template per pair, since a
# breakdown can hold n (n - 1) / 2 = 124 750 pairs at n = 500.  It is
# formatted and written this many pairs at a time, so the memory of a
# report grows by one slice, not by the breakdown.
_PAIRS_PER_SLICE = 4096


def _pair_slices(values: np.ndarray,
                 non_finite: str) -> Iterator[tuple[range, list, list, str, list]]:
    """Per slice of the breakdown ``values``: its pair numbers, row indices,
    column indices, the values' ``%`` conversion and the values.

    Finite values are converted by ``%.17g``; a slice with a non-finite
    value is formatted value by value instead, so that those print as
    ``non_finite``."""
    rows, cols = pair_indices(dimension_of_pairs(values.size))
    for a in range(0, values.size, _PAIRS_PER_SLICE):
        b = min(a + _PAIRS_PER_SLICE, values.size)
        chunk = values[a:b]
        if np.isfinite(chunk).all():
            conversion, texts = "%.17g", chunk.tolist()
        else:
            conversion = "%s"
            texts = [_fmt(v) if math.isfinite(v) else non_finite for v in chunk.tolist()]
        yield range(a, b), rows[a:b].tolist(), cols[a:b].tolist(), conversion, texts


def _pairs_json(values: np.ndarray, indent: int) -> Iterator[str]:
    p1, p2, p3 = ("  " * (indent + k) for k in (1, 2, 3))
    sep = "[\n"
    for _, rows, cols, conversion, texts in _pair_slices(values, "null"):
        row = f'{p1}{{\n{p2}"pair": [\n{p3}%d,\n{p3}%d\n{p2}],\n{p2}"value": {conversion}\n{p1}}}'
        yield sep
        yield _format_rows(row, ",\n", len(texts), _interleave(rows, cols, texts))
        sep = ",\n"
    yield f"\n{'  ' * indent}]"


def _pairs_text(values: np.ndarray, prefix: str) -> Iterator[str]:
    for index, rows, cols, conversion, texts in _pair_slices(values, "nan"):
        row = (f"{prefix}%d.pair.0 = %d\n{prefix}%d.pair.1 = %d\n"
               f"{prefix}%d.value = {conversion}\n")
        index = list(index)
        fields = _interleave(index, rows, index, cols, index, texts)
        yield _format_rows(row, "", len(texts), fields)


def _to_json(obj: Any, indent: int = 0) -> Iterator[str]:
    """Minimal JSON emitter with 17-significant-digit floats, piece by piece."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        yield "null"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, str):
        yield json.dumps(obj, ensure_ascii=False)
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        yield _fmt(obj) if math.isfinite(obj) else "null"
    elif isinstance(obj, np.ndarray):
        yield from _pairs_json(obj, indent)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        sep = "[\n"
        for v in obj:
            yield sep + inner
            yield from _to_json(v, indent + 1)
            sep = ",\n"
        yield f"\n{pad}]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{\n"
        for k, v in obj.items():
            yield f'{sep}{inner}"{k}": '
            yield from _to_json(v, indent + 1)
            sep = ",\n"
        yield f"\n{pad}}}"
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _to_text(obj: Any, prefix: str = "") -> Iterator[str]:
    """``key.sub.0 = value`` lines, each ending in a newline, piece by piece."""
    if isinstance(obj, np.ndarray):
        yield from _pairs_text(obj, prefix)
        return
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        yield f"{prefix.rstrip('.')} = {_scalar_text(obj)}\n"
        return
    for k, v in items:
        key = f"{prefix}{k}"
        if isinstance(v, (dict, list, tuple, np.ndarray)):
            yield from _to_text(v, key + ".")
        else:
            yield f"{key} = {_scalar_text(v)}\n"


def _scalar_text(v: Any) -> str:
    if isinstance(v, float):
        return _fmt(v) if math.isfinite(v) else "nan"
    if isinstance(v, str):
        # Escaped as in the JSON report, without the quotes, so that a
        # newline in a value cannot start a line of its own.
        return json.dumps(v, ensure_ascii=False)[1:-1]
    return str(v)


def _emit(report: dict[str, Any], output: str) -> None:
    """Write ``report`` to stdout piece by piece, all of it before returning.

    stdout is looked up on each call, so a redirected stdout receives it."""
    write = sys.stdout.write
    if output == "json":
        for piece in _to_json(report):
            write(piece)
        write("\n")
    else:
        for piece in _to_text(report):
            write(piece)


def _emit_errors(messages: list[str], output: str) -> None:
    _emit({"errors": messages}, output)


def _load_spec(args: argparse.Namespace) -> ValidatedSpec:
    path = Path(args.spec)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError([f"cannot read spec file {path}: {exc}"]) from exc
    try:
        raw = spec_from_json(data)
    except ValidationError:
        # The parser refuses bytes that are not UTF-8 as malformed JSON;
        # decoding only here tells that apart at no cost to a good file.
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError([f"cannot read spec file {path}: {exc}"]) from exc
        raise
    if args.nu is not None:
        if raw.family != Family.STUDENT_T.value:
            raise ValidationError(["--nu override requires a student-t spec"])
        raw.nu = args.nu
    return validate(raw)


def _closed_result(spec: ValidatedSpec):
    if spec.dof is None:
        return closed_form.normal_gmd(spec)
    return closed_form.student_gmd(spec)


def _result_report(result: GmdResult) -> dict[str, Any]:
    """``result.to_dict()`` with the pair breakdown kept as its array."""
    return {
        "value": result.value,
        "method": result.method.value,
        "pair_contributions": result.pair_values,
        "diagnostics": dict(result.diagnostics),
    }


def _cmd_closed_form(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    _emit(_result_report(_closed_result(spec)), args.output)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    try:
        exact = _closed_result(spec).value
    except MomentExistenceError:  # a t law without a mean: bounds only
        exact = None
    report = build_bound_report(spec, exact_gmd=exact)
    _emit(report.to_dict(), args.output)
    return EXIT_OK


# A --dump block is formatted and written this many values at a time, in
# whole rows (at least one), so that a dump's memory grows by one slice,
# not by a block of the stream.
_DUMP_VALUES_PER_SLICE = 4096


def _dump_csv(blocks: Iterator[np.ndarray], path: str, n: int) -> Iterator[np.ndarray]:
    """The stream ``blocks`` of n-column samples, each block written to
    ``path`` as CSV, in slices of rows, and flushed before it passes on.

    The file is created on the first pull, before any draw, so that an
    unwritable path fails before drawing and a stream never pulled leaves
    no file; it is removed if the stream is closed or fails before its
    last block.  An ``OSError`` on the file is a ``ValidationError``.  The
    bytes are those of ``np.savetxt`` with ``fmt="%.17g"``,
    ``delimiter=","``, ``header="x1,...,xn"`` and ``comments=""``.
    """
    try:
        out = open(path, "w", encoding="ascii")
    except OSError as exc:
        raise ValidationError([f"cannot write samples to {path}: {exc}"]) from exc
    opened = os.fstat(out.fileno())
    row = ",".join(["%.17g"] * n) + "\n"
    step = max(1, _DUMP_VALUES_PER_SLICE // n)
    try:
        with out:
            out.write(",".join(f"x{k + 1}" for k in range(n)) + "\n")
            for block in blocks:
                for a in range(0, len(block), step):
                    rows = block[a : a + step]
                    out.write(_format_rows(row, "", len(rows), rows.ravel().tolist()))
                out.flush()
                yield block
    except OSError as exc:
        _discard_partial_dump(path, opened)
        raise ValidationError([f"cannot write samples to {path}: {exc}"]) from exc
    except BaseException:
        _discard_partial_dump(path, opened)
        raise


def _discard_partial_dump(path: str, opened: os.stat_result) -> None:
    """Remove ``path`` if it is still the regular file ``opened``: a partial
    dump would read as a valid, shorter sample.  Through a symlink the target
    is emptied and the link kept; a device or FIFO is left alone."""
    if not stat.S_ISREG(opened.st_mode):
        return
    with contextlib.suppress(FileNotFoundError):
        if os.path.samestat(os.lstat(path), opened):
            os.unlink(path)
        elif os.path.samestat(os.stat(path), opened):
            os.truncate(path, 0)


def _cmd_estimate(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    cfg = monte_carlo.MonteCarloConfig(draws=args.draws, seed=args.seed, chunks=args.chunks)
    samples = monte_carlo.sample(spec, cfg)
    if args.dump:
        samples = _dump_csv(samples, args.dump, spec.n)
    # Closing the stream when the reduction fails removes a partial dump.
    with contextlib.closing(samples):
        result = monte_carlo.estimate_from_samples(samples, cfg,
                                                   monte_carlo.finite_variance(spec), args.pairs)
    _emit(_result_report(result), args.output)
    return EXIT_OK


# Why verify's Monte Carlo check does not apply to a spec without a variance.
_MC_CHECK_REASON = (f"E|X_i - X_j|^2 is infinite for {NO_VARIANCE}, so the standard "
                    "error estimates nothing")
# verify's Monte Carlo check: the estimate within this many standard errors.
_MC_SE_TOL = 3.0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    closed = _closed_result(spec)
    quad = general_ec.gmd_quadrature(spec)
    # Closed form and quadrature agree within the errors they report, in the spec's units.
    quad_tol = closed.diagnostics["abs_error_estimate"] + quad.diagnostics["abs_error_estimate"]
    mc_cfg = monte_carlo.MonteCarloConfig(draws=args.draws, seed=args.seed, chunks=args.chunks)
    # verify reads only the value and the standard error: no pair breakdown.
    mc = monte_carlo.estimate_gmd(spec, mc_cfg, False)
    se = float(mc.diagnostics["std_error"])
    mc_applies = bool(mc.diagnostics["std_error_valid"])
    quad_diff = abs(closed.value - quad.value)
    mc_diff = abs(closed.value - mc.value)
    mc_diff_se = mc_diff / se if se > 0 else (0.0 if mc_diff == 0 else math.inf)
    # A Python bool: numpy's comparison result does not serialize.
    ok = bool(quad_diff <= quad_tol and (not mc_applies or mc_diff_se <= _MC_SE_TOL))
    report = {
        "closed_form": closed.value,
        "quadrature": quad.value,
        "monte_carlo": mc.value,
        "mc_std_error": se,
        "abs_diff_quadrature": quad_diff,
        "quad_tol": quad_tol,
        "mc_diff_in_se": mc_diff_se,
        "mc_se_tol": _MC_SE_TOL,
        "mc_check": "applied" if mc_applies else "n/a",
        "mc_check_reason": None if mc_applies else _MC_CHECK_REASON,
        "decided_by": ["quadrature", "monte-carlo"] if mc_applies else ["quadrature"],
        "pass": ok,
    }
    if args.output == "text":
        width = max(len(_fmt(v)) for v in (closed.value, quad.value, mc.value))
        mc_verdict = (f"{mc_diff_se:.3f} SE (tol {_MC_SE_TOL:g} SE)" if mc_applies
                      else f"n/a: {_MC_CHECK_REASON}")
        print(f"{'route':<14}{'value':<{width + 2}}discrepancy")
        print(f"{'closed-form':<14}{_fmt(closed.value):<{width + 2}}-")
        print(f"{'quadrature':<14}{_fmt(quad.value):<{width + 2}}"
              f"{quad_diff:.3e} abs (tol {quad_tol:.3e})")
        print(f"{'monte-carlo':<14}{_fmt(mc.value):<{width + 2}}{mc_verdict}")
        print(f"pass = {str(ok).lower()}")
    else:
        _emit(report, args.output)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _student_t_quantile_tail(dof: DegreesOfFreedom) -> tuple[float, float]:
    """(K, 1/nu) with F^{-1}(u) ~ K (1 - u)^(-1/nu) as u -> 1 for the standard t.

    The tail 1 - F(x) ~ c nu^((nu - 1)/2) x^-nu, c the density at 0
    (Hill, Algorithm 396, CACM 1970), inverts to K = (c nu^((nu - 1)/2))^(1/nu).
    Its log is taken as log(c)/nu + (1 - 1/nu) log(nu)/2, which does not
    form (nu - 1) log(nu): that overflows at nu near 1e306, where K is
    close to its normal limit.
    """
    nu = dof.nu
    log_c = math.log(student_t_pdf(0.0, dof))
    return math.exp(log_c / nu + 0.5 * (1.0 - 1.0 / nu) * math.log(nu)), 1.0 / nu


def _cmd_quantile(args: argparse.Namespace) -> int:
    # The only command that needs scipy for a normal spec; the others stay
    # free of its import time.
    from scipy.special import ndtri, stdtrit

    spec = _load_spec(args)
    mu1 = float(spec.mu[0])
    sd1 = math.sqrt(spec.sigma_mat[0, 0])
    # The unit quantile is integrated and scaled afterwards, so the value is
    # scale-equivariant; the location integrates to zero against 2u - 1, and
    # left in it would bury the scale term under rounding at large offsets.
    if spec.dof is None:
        q = closed_form.QuantileFunction(ndtri)
    else:
        spec.dof.require_mean()
        nu = spec.dof.nu
        q = closed_form.QuantileFunction(lambda u: stdtrit(nu, u),
                                         tail=_student_t_quantile_tail(spec.dof))
    result = closed_form.quantile_gmd(q)
    value = sd1 * result.value
    with warnings.catch_warnings():
        # gini_index warns on a negative mean; the report says so in gini_note.
        warnings.simplefilter("ignore", UserWarning)
        gini = None if mu1 == 0 else closed_form.gini_index(value, mu1)
    report: dict[str, Any] = {
        "value": value,
        "method": GmdMethod.QUANTILE.value,
        "gini_index": gini,
        "note": "classical i.i.d. GMD of the first marginal",
    }
    if mu1 < 0:
        report["gini_note"] = "interpretation requires a nonnegative variable"
    report["abs_error_estimate"] = sd1 * result.diagnostics["abs_error_estimate"]
    report["quadrature_panels"] = result.diagnostics["quadrature_panels"]
    report["quadrature_rounds"] = result.diagnostics["quadrature_rounds"]
    _emit(report, args.output)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="gmd",
        description="Gini mean difference of correlated normal / Student-t vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="path to a JSON distribution spec")
        p.add_argument("--nu", type=float, default=None,
                       help="override the spec's degrees of freedom")
        p.add_argument("--output", choices=("json", "text"), default="json")

    def add_sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--draws", type=int, default=1_000_000, help="Monte Carlo draws")
        p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
        p.add_argument("--chunks", type=int, default=1,
                       help="independent streams the draws are split into")

    p_closed = sub.add_parser("closed-form", help="exact GMD by closed form")
    add_common(p_closed)
    p_closed.set_defaults(func=_cmd_closed_form)

    p_bound = sub.add_parser("bound", help="upper bounds with the exact value")
    add_common(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_est = sub.add_parser("estimate", help="Monte Carlo GMD estimate")
    add_common(p_est)
    add_sampling(p_est)
    p_est.add_argument("--dump", metavar="PATH", default=None,
                       help="write the samples as CSV (header x1,...,xn)")
    p_est.add_argument("--pairs", action="store_true",
                       help="also report each pair's mean |x_i - x_j|, at O(n^2) cost per "
                            "draw; without it pair_contributions is null and the estimate "
                            "takes O(n log n) per draw")
    p_est.set_defaults(func=_cmd_estimate)

    p_ver = sub.add_parser(
        "verify", help="cross-check closed form against quadrature and Monte Carlo",
        description="Passes when |closed - quadrature| is within the sum of the two "
                    "routes' error estimates and, for a spec with a variance, "
                    f"|closed - Monte Carlo| is within {_MC_SE_TOL:g} standard errors.",
    )
    add_common(p_ver)
    add_sampling(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_q = sub.add_parser(
        "quantile-gmd", help="i.i.d. GMD of the first marginal via the quantile integral"
    )
    add_common(p_q)
    p_q.set_defaults(func=_cmd_quantile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _emit_errors(exc.violations, args.output)
        return EXIT_VALIDATION
    except NonconvergenceError as exc:
        _emit_errors([str(exc)], args.output)
        return EXIT_NUMERICAL
    except GmdError as exc:
        _emit_errors([str(exc)], args.output)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
