"""Command line interface.

Exit codes: 0 success (all requested verdicts passing; a family of two
or more paths too large or too deep to enumerate reports as unchecked,
while a single path is always counted), 1 a mathematical verdict
failed, 2 usage or input errors.  All output is deterministic for a
fixed argument list and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring

from . import acceptance, basis, group_ops, linsys, paths, quasi
from .poly import Polynomial, parse_poly

OK, MATH_FAIL, USAGE = 0, 1, 2
# A polynomial JSON file nested deeper than this is refused as nested too
# deeply.  A term needs depth 3; the limit sits far below the interpreter's
# recursion limit, so a file within it reads the same from any caller whose
# stack is not already near that limit
JSON_DEPTH_LIMIT = 100


# json.dumps with indent encodes in pure Python; this writer makes the
# same text, with strings escaped by json's C function.  Each value's
# first part carries the separator and key before it: fewer parts keep
# the writer's peak memory below json.dumps's
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def _write_json(obj, out, lead, indent):
    """Append lead + json.dumps(obj, indent=2, ensure_ascii=False) to out, in
    parts, a Polynomial written as its to_json_obj; the text before each
    value rides in that value's first part."""
    if isinstance(obj, str):
        out.append(lead + encode_basestring(obj))
    elif type(obj) is int:  # not bool; the encoder's own call is slow
        out.append(lead + repr(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append(lead + "[]")
            return
        inner = indent + "  "
        sep = lead + "[" + inner
        for value in obj:
            _write_json(value, out, sep, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append(lead + "{}")
            return
        inner = indent + "  "
        sep = lead + "{" + inner
        for key, value in obj.items():  # str only: encode_basestring rejects others
            _write_json(value, out, sep + encode_basestring(key) + ": ", inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, Polynomial):  # as its to_json_obj, one part per term
        if not obj.nums:
            out.append(lead + "[]")
            return
        i1 = indent + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "
        sep = lead + "[" + i1
        for (a, b, c), coeff in obj.json_terms():
            out.append(f'{sep}{{{i2}"e": [{i3}{a},{i3}{b},{i3}{c}{i2}],{i2}"c": "{coeff}"{i1}}}')
            sep = "," + i1
        out.append(indent + "]")
    else:
        out.append(lead + _encode_scalar(obj))


def _print_json(obj):
    out = []
    _write_json(obj, out, "", "\n")
    print("".join(out))


def _str_rows(matrix):
    return [[str(x) for x in row] for row in matrix]


def _format_matrix(entries, row_labels=None, col_labels=None):
    """Right-aligned columns; the column labels are one more row on top."""
    rows = _str_rows(entries)
    ncols = len(rows[0]) if rows else 0
    stubs = [str(r) for r in row_labels] if row_labels else [""] * len(rows)
    if col_labels:
        rows.insert(0, [str(c) for c in col_labels][:ncols])
        stubs.insert(0, "")
    stub_w = max(map(len, stubs), default=0)
    widths = [max(len(row[c]) for row in rows) for c in range(ncols)]
    return "\n".join(
        stub.rjust(stub_w) + "  " + "  ".join(x.rjust(w) for x, w in zip(row, widths))
        for stub, row in zip(stubs, rows)
    )


def _read_poly_file(path: str) -> Polynomial:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read polynomial file: {exc}") from None
    stripped = text.strip()
    if not stripped:
        raise ValueError(f"polynomial file {path!r} is empty")
    if stripped.startswith("["):
        try:
            return Polynomial.from_json_obj(json.loads(stripped))
        except (RecursionError, ValueError) as exc:
            if isinstance(exc, ValueError) and not _nested_too_deeply(stripped):
                if isinstance(exc, json.JSONDecodeError):
                    raise ValueError(f"malformed polynomial JSON in {path!r}: {exc}") from None
                raise
        raise ValueError(f"malformed polynomial JSON in {path!r}: nested too deeply")
    return parse_poly(stripped)


def _nested_too_deeply(text: str) -> bool:
    """Whether JSON text nests [ and { deeper than JSON_DEPTH_LIMIT outside
    its strings.  Counted in a loop, so the answer, unlike json.loads and
    repr, does not depend on the caller's stack depth; run only once
    reading has failed."""
    depth = 0
    for ch in re.sub(r'"(?:[^"\\]|\\.)*"', "", text):
        if ch in "[{":
            depth += 1
            if depth > JSON_DEPTH_LIMIT:
                return True
        elif ch in "]}":
            depth -= 1
    return False


def _print_blocks(blocks, dets=None):
    """Print each diagonal block, smallest first, with its det when given."""
    for f, b in enumerate(blocks, start=1):
        label = "final block" if f == len(blocks) else f"block {f}"
        det = "" if dets is None else f" (det {dets[f - 1]})"
        print(f"{label}{det}:")
        print(_format_matrix(b))


# --- subcommands ------------------------------------------------------------


def cmd_basis(args) -> int:
    report = basis.build_basis(args.m, verify=args.verify)
    null_vectors = (("A1", report.null_vector_a1), ("A2", report.null_vector_a2))
    if args.format == "json":
        obj = {
            "m": report.m,
            "verify": report.verify,
            "elements": {e.name: e.poly for e in report.elements},
            "degrees": {e.name: e.degree for e in report.elements},
            "expected_degrees": {
                e.name: e.expected_degree for e in report.elements
            },
            "null_vectors": {
                name: {
                    "columns": [list(c) for c in labels],
                    "coefficients": [str(x) for x in vec],
                }
                for name, (labels, vec) in null_vectors
            },
            "verdicts": {
                "degrees_ok": report.degrees_ok,
                "quasi_ok": report.quasi_ok,
                "s23_ok": report.s23_ok,
                "independence": report.independence,
            },
            "passed": report.passed,
        }
        _print_json(obj)
    elif args.format == "latex":
        for e in report.elements:
            print(f"{e.name}: {basis.poly_to_latex(e.poly)}")
    else:
        for e in report.elements:
            print(f"{e.name} (degree {e.degree}): {e.poly}")
        for name, (labels, vec) in null_vectors:
            print(
                f"null vector {name}:",
                ", ".join(f"C{list(l)}={v}" for l, v in zip(labels, vec)),
            )
        print(f"degrees ok: {report.degrees_ok}")
        if report.verify in ("quasi", "full"):
            print(f"quasiinvariance ok: {report.quasi_ok}")
            print(f"s23 invariance ok: {report.s23_ok}")
        if report.verify == "full":
            for name, verdict in report.independence.items():
                if verdict is None:
                    over = report.m > basis.IDEAL_BUDGET
                    verdict = "skipped (budget)" if over else "not certified"
                print(f"independence {name}: {verdict}")
    return OK if report.passed else MATH_FAIL


def cmd_check(args) -> int:
    P = _read_poly_file(args.poly)
    report = quasi.is_quasiinvariant(P, args.m)
    if args.format == "json":
        _print_json(
            {
                "m": report.m,
                "is_quasiinvariant": report.is_quasiinvariant,
                "checks": [c._asdict() for c in report.checks],
            }
        )
    else:
        print(f"polynomial: {P}")
        for c in report.checks:
            power = "infinite" if c.largest_power is None else c.largest_power
            print(
                f"pair {c.pair}: difference {'zero' if c.difference_zero else 'nonzero'},"
                f" largest dividing power {power}, required {c.required_power},"
                f" {'ok' if c.divisible else 'FAIL'}"
            )
        print(
            f"{'is' if report.is_quasiinvariant else 'is NOT'} quasiinvariant"
            f" of order m={report.m}"
        )
    return OK if report.is_quasiinvariant else MATH_FAIL


def cmd_system(args) -> int:
    sys_ = linsys.build_system(args.m, args.d)
    shown = linsys.restrict_Bm(sys_) if args.restrict_bm else sys_
    blocks = linsys.extract_blocks(args.m, args.d) if args.blocks else None
    if args.format == "json":
        obj = {
            "m": shown.m,
            "d": shown.d,
            "rows": [list(r) for r in shown.rows],
            "cols": [list(c) for c in shown.cols],
            "entries": _str_rows(shown.entries),
        }
        if args.blocks:
            obj["blocks"] = [_str_rows(b) for b in blocks]
        _print_json(obj)
    else:
        name = "restricted system" if args.restrict_bm else "full system"
        print(f"{name} m={shown.m} d={shown.d} shape {shown.shape}")
        print(_format_matrix(shown.entries, shown.rows, shown.cols))
        if args.blocks:
            _print_blocks(blocks)
    return OK


def cmd_blocks(args) -> int:
    blocks = linsys.extract_blocks(args.m, args.d)
    dets = [linsys.det_exact(b) for b in blocks]
    if args.format == "json":
        _print_json(
            {
                "m": args.m,
                "d": args.d,
                "blocks": [_str_rows(b) for b in blocks],
                "determinants": [str(x) for x in dets],
            }
        )
    else:
        _print_blocks(blocks, dets)
    return OK


def cmd_det(args) -> int:
    sub = linsys.restrict_Bm(linsys.build_system(args.m, args.d))
    blocks = linsys.extract_blocks(args.m, args.d)
    det = linsys.det_exact(sub.entries)
    block_dets = [linsys.det_exact(b) for b in blocks]
    product = math.prod(block_dets, start=Fraction(1))
    agree = det == product
    if args.format == "json":
        _print_json(
            {
                "m": args.m,
                "d": args.d,
                "det": str(det),
                "block_dets": [str(x) for x in block_dets],
                "product": str(product),
                "agree": agree,
                "nonzero": det != 0,
            }
        )
    else:
        print(f"det of restricted system (m={args.m}, d={args.d}): {det}")
        print(f"block determinants: {[str(x) for x in block_dets]}")
        print(f"product: {product}")
        print(f"agreement: {agree}; nonzero: {det != 0}")
    return OK if (agree and det != 0) else MATH_FAIL


def cmd_dims(args) -> int:
    series = quasi.qi_dimension_series(args.m, args.max_degree)
    computed = [quasi.qi_dimension(args.m, d) for d in range(args.max_degree + 1)]
    agree = series == computed
    if args.format == "json":
        _print_json(
            {
                "m": args.m,
                "max_degree": args.max_degree,
                "series": series,
                "computed": computed,
                "agree": agree,
            }
        )
    else:
        print("degree  series  computed")
        for d, (s, c) in enumerate(zip(series, computed)):
            print(f"{d:6d}  {s:6d}  {c:8d}")
        print(f"agreement: {agree}")
    return OK if agree else MATH_FAIL


def _parse_point(text, option):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be X,Y: {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(
            f"{option} point must be X,Y with integer X and Y, got {text!r}"
        ) from None


def cmd_paths(args) -> int:
    start = _parse_point(args.start, "--start")
    end = _parse_point(args.end, "--end")
    count = paths.count_paths_dp(start, end, args.barrier)
    if args.format == "json":
        _print_json(
            {
                "start": list(start),
                "end": list(end),
                "barrier": args.barrier,
                "count": str(count),
            }
        )
    else:
        where = f" avoiding x+y={args.barrier}" if args.barrier is not None else ""
        print(f"paths {start} -> {end}{where}: {count}")
    return OK


def _report_obj(report):
    """JSON object of a thm2 report; a thm1 report adds its two keys last."""
    obj = report._asdict()
    obj["entries"] = _str_rows(report.entries)
    for key in ("det", "family_count", "prefactor"):
        if obj.get(key) is not None:
            obj[key] = str(obj[key])
    return obj


def _print_thm_report(report):
    thm1 = isinstance(report, paths.Thm1Report)
    print(f"{'thm1' if thm1 else 'thm2'} params: {report.params}")
    print(f"matrix det: {report.det}")
    if thm1:
        print(f"prefactor: {report.prefactor}")
    print(f"starts: {list(report.starts)}")
    print(f"ends: {list(report.ends)}")
    print(f"barrier: x+y={report.barrier}")
    if not report.checked:
        print(f"family count: unchecked ({report.note})")
    else:
        print(f"family count: {report.family_count}")
        print(f"identity holds: {report.equal}")


def _parse_params(text, count, label):
    parts = text.split(",")
    needs = f"{label} needs {count} comma-separated integers"
    if len(parts) != count:
        raise ValueError(needs)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"{needs}, got {text!r}") from None


def cmd_identity(args) -> int:
    kind = args.identity_command
    # looked up at call time, so a wrapped verifier is the one called
    report = getattr(paths, f"verify_{kind}")(*_parse_params(args.params, 6, kind))
    if args.format == "json":
        _print_json(_report_obj(report))
    else:
        _print_thm_report(report)
    return MATH_FAIL if report.checked and not report.equal else OK


def cmd_identity_sweep(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = random.Random(args.seed)
    instances = [
        ("thm1", params) for params in paths.sample_thm1_instances(rng, args.trials)
    ]
    grid = list(paths.thm2_grid(coord_bound=8, nmax=2))
    step = max(1, len(grid) // args.trials)
    instances += [("thm2", params) for params in grid[::step][: args.trials]]
    results = []
    failed = 0
    unchecked = 0
    for kind, params in instances:
        report = getattr(paths, f"verify_{kind}")(*params)
        results.append({**_report_obj(report), "kind": kind})
        if not report.checked:
            unchecked += 1
        elif not report.equal:
            failed += 1
    _print_json(
        {
            "seed": args.seed,
            "trials": args.trials,
            "instances": len(results),
            "failed": failed,
            "unchecked": unchecked,
            "results": results,
        }
    )
    return MATH_FAIL if failed else OK


def cmd_identities(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    report = group_ops.verify_identities(
        group_ops.random_samples(args.seed, args.samples)
    )
    if args.format == "json":
        _print_json(
            {
                "seed": args.seed,
                "samples": args.samples,
                "element_level": report.element_level,
                "sample_failures": [
                    {"sample": i, "identity": label}
                    for i, verdicts in enumerate(report.sample_level)
                    for label, ok in verdicts.items()
                    if not ok
                ],
                "passed": report.passed,
            }
        )
    else:
        for label, ok in report.element_level.items():
            print(f"element level: {label}: {'ok' if ok else 'FAIL'}")
        print(
            f"samples: {args.samples}, all pass: "
            f"{all(all(v.values()) for v in report.sample_level)}"
        )
    return OK if report.passed else MATH_FAIL


def cmd_selftest(args) -> int:
    indices = None
    if args.only is not None:
        indices, bad = set(), []
        for item in args.only.split(","):
            try:
                indices.add(int(item))
            except ValueError:
                bad.append(repr(item))
        count = len(acceptance.ALL_CRITERIA)
        bad = [str(i) for i in sorted(indices) if not 1 <= i <= count] + bad
        if bad:
            raise ValueError(f"--only takes criteria 1..{count}, got {', '.join(bad)}")
    results = acceptance.run_all(indices)
    failed = sum(not (r.passed and r.within_limit) for r in results)
    if args.format == "json":
        _print_json([
            {
                "index": r.index,
                "title": r.title,
                "passed": r.passed,
                "seconds": r.seconds,
                "limit": r.limit,
                "within_limit": r.within_limit,
                "detail": r.detail,
            }
            for r in results
        ])
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            timing = f"{r.seconds:.2f}s"
            over = "" if r.within_limit else f" (over {r.limit:.0f}s limit)"
            print(f"[{status}] criterion {r.index}: {r.title} [{timing}{over}] {r.detail}")
        print(f"{len(results) - failed}/{len(results)} criteria passed")
    return OK if failed == 0 else MATH_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args keeps no state."""
    # parents= copies each shared option into a subcommand; add_help=False
    # keeps the parents from adding a second -h
    m_opt, d_opt, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    m_opt.add_argument("--m", type=int, required=True)
    d_opt.add_argument("--d", type=int, required=True)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    parser = argparse.ArgumentParser(
        prog="quasi3",
        description=(
            "Exact construction of the six-element quasiinvariant quotient "
            "basis for S3, with determinant and lattice-path verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[m_opt], help="construct and verify the six elements")
    p.add_argument(
        "--verify", choices=basis.VERIFY_LEVELS, default="quasi",
        help="verification depth (default: quasi)",
    )
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser(
        "check", parents=[m_opt, fmt], help="check a polynomial file for quasiinvariance"
    )
    p.add_argument("--poly", required=True, help="file with JSON or text polynomial")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("system", parents=[m_opt, d_opt, fmt], help="print a coefficient system")
    p.add_argument("--restrict-bm", action="store_true")
    p.add_argument("--blocks", action="store_true")
    p.set_defaults(func=cmd_system)

    sub.add_parser(
        "blocks", parents=[m_opt, d_opt, fmt], help="print the diagonal blocks and their dets"
    ).set_defaults(func=cmd_blocks)
    sub.add_parser(
        "det", parents=[m_opt, d_opt, fmt], help="determinant vs product of block dets"
    ).set_defaults(func=cmd_det)

    p = sub.add_parser("dims", parents=[m_opt, fmt], help="graded dimensions vs the series")
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("paths", help="lattice path counting")
    psub = p.add_subparsers(dest="paths_command", required=True)
    pc = psub.add_parser("count", parents=[fmt], help="count barrier-avoiding paths")
    pc.add_argument("--start", required=True, metavar="X0,Y0")
    pc.add_argument("--end", required=True, metavar="X1,Y1")
    pc.add_argument("--barrier", type=int, default=None, metavar="L")
    pc.set_defaults(func=cmd_paths)

    p = sub.add_parser("identity", help="verify a determinant identity")
    isub = p.add_subparsers(dest="identity_command", required=True)
    for kind, help_, metavar in (
        ("thm1", "prefactor times family count", "C,D,E,ALPHA,BETA,K"),
        ("thm2", "determinant equals family count", "A,B,C,D,E,N"),
    ):
        pi = isub.add_parser(kind, parents=[fmt], help=help_)
        pi.add_argument("--params", required=True, metavar=metavar)
        pi.set_defaults(func=cmd_identity)
    isw = isub.add_parser("sweep", help="seeded random verification sweep")
    isw.add_argument("--seed", type=int, required=True)
    isw.add_argument("--trials", type=int, required=True)
    isw.set_defaults(func=cmd_identity_sweep)

    p = sub.add_parser("identities", parents=[fmt], help="group algebra identity checks")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("selftest", parents=[fmt], help="run the acceptance criteria")
    p.add_argument("--only", default=None, metavar="N[,N...]")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
