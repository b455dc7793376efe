"""Command-line front end: verification suites and batch sweeps.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
validation error. JSON output is schema-stable; text output is for humans.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .categorified import verify_categorifieds
from .cycle_stats import (
    METHOD_BRUTE,
    METHOD_CYCLE_TYPE,
    check_cycle_type_sweep,
    check_monte_carlo_degree,
    expected_products_by_type,
    expected_total_cycles,
    monte_carlo_moments,
    verify_clls,
)
from .functors import (
    functor_from_json,
    make_cycle_tuple_functor,
    make_fixed_point_functor,
    verify_general_theorem,
)
from .groupoids import cardinality_of_orders, perm_skeleton_groups, rational_str
from .permutations import check_partition_cap, iter_pvectors, parse_integer, validate_pvector


# About this many skeleton rows go to each write.
_SKELETON_CHUNK = 1024
# The sweep's entry bound when --all-p is given without --max-entry.
_DEFAULT_MAX_ENTRY = 2


class UsageError(ValueError):
    """Bad configuration detected after argument parsing."""


def _parse_pvector(text: str, n: int) -> tuple[int, ...]:
    """The comma-separated integers of text, checked by validate_pvector;
    the empty text is the empty p-vector."""
    try:
        p = tuple(map(parse_integer, text.split(","))) if text else ()
    except ValueError:
        raise UsageError(f"could not parse p-vector {text!r}; expected comma-separated integers")
    return validate_pvector(n, p)


def _selected_pvectors(args) -> Iterable[tuple[int, ...]]:
    """The p-vectors a sweeping subcommand checks: every one within
    --max-entry (default 2, filled in on args) and --max-weight (default n)
    for --all-p, unlisted, else the --p one. --p with --all-p, and a sweep
    bound without it, are refused. iter_pvectors counts the sweep against
    the sweep cap when it is first read, after the command's degree caps,
    and before any vector is listed."""
    bounds = (("--max-entry", args.max_entry), ("--max-weight", args.max_weight))
    for flag, bound in bounds:
        if bound is not None and bound < 0:
            raise UsageError(f"{flag} must be nonnegative, got {bound}")
    if args.all_p:
        if args.p is not None:
            raise UsageError("--p and --all-p cannot both be given")
        if args.max_entry is None:
            args.max_entry = _DEFAULT_MAX_ENTRY
        return iter_pvectors(args.n, max_entry=args.max_entry, max_weight=args.max_weight)
    for flag, bound in bounds:
        if bound is not None:
            raise UsageError(f"{flag} bounds only the --all-p sweep; give --all-p or drop {flag}")
    if args.p is None:
        raise UsageError("provide --p or --all-p")
    return [_parse_pvector(args.p, args.n)]


def _emit(payloads: list[dict], fmt: str, rows: Callable[[], list[dict]], text_lines: Callable[[], list[str]]) -> None:
    """Print each payload as one JSON line, or build and print only the CSV
    rows, under the keys of all rows in first-seen order, or the text lines
    that fmt asks for."""
    if fmt == "json":
        for payload in payloads:
            print(json.dumps(payload))
    elif fmt == "csv":
        rows = rows()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(key for row in rows for key in row)))
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines():
            print(line)


def _csv_row(fields: dict) -> dict:
    """A report's JSON fields as one CSV row: p joined by commas, and the
    nested fields (skeletons, orbits) left out."""
    row = {**fields, "p": ",".join(map(str, fields["p"]))}
    return {key: value for key, value in row.items() if not isinstance(value, (list, dict))}


def _emit_reports(args, command: str, reports: list, verdict: str, text: Callable[[object], list[str]], **extra) -> int:
    """Print the report that --p asks for, with its text lines, or the
    --all-p sweep's summary: n, extra, the count, all_<verdict> and the
    failing p-vectors, a report failing when its verdict field is false.
    The CSV rows are every report's. Returns the exit code."""
    failures = [list(r.p) for r in reports if not getattr(r, verdict)]
    if args.all_p:
        payload = {"command": command, "n": args.n, **extra, "count": len(reports),
                   f"all_{verdict}": not failures, "failures": failures}
        lines = lambda: [f"checked {len(reports)} p-vectors at n={args.n}: " + (f"{len(failures)} failures" if failures else f"all {verdict}")]
    else:
        report, = reports
        payload = {"command": command, **report.to_json_dict()}
        lines = lambda: text(report)
    _emit([payload], args.format, lambda: [_csv_row(r.to_json_dict()) for r in reports], lines)
    return 1 if failures else 0


def cmd_verify_lemma(args) -> int:
    method = METHOD_CYCLE_TYPE if args.method == "cycle-type" else METHOD_BRUTE
    ps = _selected_pvectors(args)
    if args.all_p and method == METHOD_CYCLE_TYPE:
        check_cycle_type_sweep(args.n, max_entry=args.max_entry, max_weight=args.max_weight)
    return _emit_reports(args, "verify-lemma", verify_clls(args.n, ps, method=method), "equal", lambda report: [
        f"n={args.n} p={list(report.p)} method={method}",
        f"expectation = {rational_str(report.lhs)}",
        f"closed form = {rational_str(report.rhs)}",
        f"equal: {report.equal}",
    ], method=method)


def cmd_verify_categorified(args) -> int:
    return _emit_reports(args, "verify-categorified", verify_categorifieds(args.n, _selected_pvectors(args)), "ok", lambda report: [
        f"n={report.n} p={list(report.p)}",
        f"quotient aut orders = {list(report.lhs_skeleton.aut_orders())}",
        f"product aut orders  = {list(report.rhs_skeleton.aut_orders())}",
        f"equivalent: {report.equivalent}  cardinalities: {rational_str(report.lhs_card)} vs {rational_str(report.rhs_card)}",
        f"bridge |Q|/n! identity: {report.bridge_check}",
    ])


def _write_skeleton_groups(groups: list[tuple[int, list[str]]], ends: Callable[[int], tuple[str, str]], sep: str) -> None:
    """Write every label text of groups as head + text + tail, with the
    (head, tail) that ends gives its group's aut order, and sep between
    rows; an empty group writes nothing. A group is one join, and about
    _SKELETON_CHUNK rows go to each write, so no string of the whole output
    is built."""
    write = sys.stdout.write
    lead, pieces, rows = "", [], 0
    for z, texts in filter(itemgetter(1), groups):
        head, tail = ends(z)
        pieces.append(head + (tail + sep + head).join(texts) + tail)
        rows += len(texts)
        if rows >= _SKELETON_CHUNK:
            write(lead + sep.join(pieces))
            lead, pieces, rows = sep, [], 0
    if pieces:
        write(lead + sep.join(pieces))


def cmd_skeleton(args) -> int:
    n = args.n
    groups = perm_skeleton_groups(n)
    card = rational_str(cardinality_of_orders((z, len(texts)) for z, texts in groups))
    write = sys.stdout.write
    if args.format == "csv" and not groups:
        # With no component the payload is the one row; its components are
        # the empty tuple.
        _emit([], "csv", lambda: [{"command": "skeleton", "n": n, "components": (), "cardinality": card}], list)
        return 0
    if args.format == "json":
        # The bytes of json.dumps(payload), with its default separators.
        write(f'{{"command": "skeleton", "n": {n}, "components": [')
        _write_skeleton_groups(groups, lambda z: (f'{{"aut_order": {z}, "label": [', "]}"), ", ")
        write(f'], "cardinality": "{card}"}}\n')
    elif args.format == "csv":
        # The bytes of csv.writer's rows (n, z, "[text]"): it quotes a label
        # only when it holds a comma, so every label is quoted but the
        # one-part [n] ([] at degree 0), in the group of aut order max(n, 1).
        g = bisect.bisect_left(groups, max(n, 1), key=itemgetter(0))
        z, texts = groups[g]
        i = texts.index(str(n) if n else "")
        quoted = lambda z: (f'{n},{z},"[', f']"\r\n')
        write("n,aut_order,label\r\n")
        _write_skeleton_groups([*groups[:g], (z, texts[:i])], quoted, "")
        write(f"{n},{z},[{texts[i]}]\r\n")
        _write_skeleton_groups([(z, texts[i + 1:]), *groups[g + 1:]], quoted, "")
    else:
        write(f"degree {n}: {sum(len(texts) for _, texts in groups)} components, cardinality {card}\n")
        _write_skeleton_groups(groups, lambda z: ("  partition [", f"]: aut order {z}\n"), "")
    return 0


def cmd_stats(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    check_partition_cap(args.n)
    units = [tuple(1 if m == k else 0 for m in range(1, args.n + 1)) for k in range(1, args.n + 1)]
    per_k = []
    ok = True
    total = Fraction(0)
    for k, value in enumerate(expected_products_by_type(args.n, units), start=1):
        target = Fraction(1, k)
        equal = value == target
        ok = ok and equal
        total += value
        per_k.append({"k": k, "expected": rational_str(value), "target": rational_str(target), "equal": equal})
    harmonic = expected_total_cycles(args.n)
    total_ok = total == harmonic
    payload = {
        "command": "stats",
        "n": args.n,
        "per_k": per_k,
        "total_expected_cycles": rational_str(total),
        "harmonic": rational_str(harmonic),
        "total_equal": total_ok,
        "all_equal": ok and total_ok,
    }
    rows = lambda: [{"n": args.n, **entry} for entry in per_k]
    text = lambda: (
        [f"expected k-cycle counts at n={args.n}:"]
        + [f"  k={entry['k']}: {entry['expected']} (target {entry['target']})" for entry in per_k]
        + [f"total expected cycles: {rational_str(total)} (harmonic {rational_str(harmonic)})"]
    )
    _emit([payload], args.format, rows, text)
    return 0 if ok and total_ok else 1


def _montecarlo_pvector(flag: str, text: str, n: int) -> tuple[int, ...]:
    if flag == "--p":
        return _parse_pvector(text, n)
    if not text.startswith("k="):
        raise UsageError(f'--p-one expects "k=<cycle length>", got {text!r}')
    try:
        k = parse_integer(text[2:])
    except ValueError:
        raise UsageError(f'--p-one expects "k=<cycle length>", got {text!r}')
    if not 1 <= k <= n:
        raise UsageError(f"--p-one cycle length {k} out of range 1..{n}")
    return tuple(1 if m == k else 0 for m in range(1, n + 1))


def cmd_montecarlo(args) -> int:
    if args.samples < 2:
        raise UsageError(f"--samples must be at least 2, got {args.samples}")
    check_monte_carlo_degree(args.n)
    if not args.statistics:
        raise UsageError("provide --p or --p-one")
    pvectors = [_montecarlo_pvector(flag, text, args.n) for flag, text in args.statistics]
    reports = monte_carlo_moments(args.n, pvectors, args.samples, args.seed)
    payloads, rows, text = [], [], []
    for report in reports:
        target = report.rhs
        if report.standard_error > 0:
            z = (report.estimate - float(target)) / report.standard_error
        else:
            z = 0.0 if report.estimate == float(target) else math.inf
        within = abs(z) <= 4.0
        fields = report.to_json_dict()
        checked = {"target": rational_str(target), "z": z, "within_4se": within}
        # JSON has no infinity: a zero standard error off target reads null.
        payloads.append({"command": "montecarlo", **fields, **checked, "z": z if math.isfinite(z) else None})
        rows.append({**_csv_row(fields), **checked})
        text += [
            f"n={args.n} p={list(report.p)} samples={args.samples} seed={args.seed}",
            f"estimate = {report.estimate} +- {report.standard_error}",
            f"target   = {rational_str(target)}",
            f"z = {z} ({'within' if within else 'OUTSIDE'} 4 standard errors)",
        ]
    _emit(payloads, args.format, lambda: rows, lambda: text)
    return 0 if all(row["within_4se"] for row in rows) else 1


def cmd_theorem_general(args) -> int:
    # A flag the chosen functor does not read is refused, not ignored.
    if args.functor is not None:
        ignored = [flag for flag, value in (("--builtin", args.builtin), ("--n", args.n), ("--p", args.p)) if value is not None]
        if ignored:
            raise UsageError(f"{', '.join(ignored)} cannot be given with --functor")
    elif args.p is not None and args.builtin != "cycle-tuples":
        raise UsageError("--p applies only to --builtin cycle-tuples")
    if args.functor is not None:
        with open(args.functor, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise UsageError(f"functor file {args.functor!r} is nested too deeply to parse")
        functor = functor_from_json(data)
    elif args.builtin == "fixed-points":
        if args.n is None:
            raise UsageError("--builtin fixed-points requires --n")
        functor = make_fixed_point_functor(args.n)
    elif args.builtin == "cycle-tuples":
        if args.n is None or args.p is None:
            raise UsageError("--builtin cycle-tuples requires --n and --p")
        functor = make_cycle_tuple_functor(args.n, _parse_pvector(args.p, args.n))
    else:
        raise UsageError("provide --functor FILE or --builtin {fixed-points,cycle-tuples}")
    report = verify_general_theorem(functor)
    payload = {"command": "theorem-general", **report.to_json_dict()}
    rows = lambda: [{
        "functor": report.functor_name,
        "group": report.group_name,
        "expected_size": rational_str(report.expected),
        "elements_cardinality": rational_str(report.elements_cardinality),
        "equal": report.equal,
    }]
    text = lambda: [
        f"functor {report.functor_name} on {report.group_name} (order {report.group_order})",
        f"average fiber size    = {rational_str(report.expected)}",
        f"groupoid cardinality  = {rational_str(report.elements_cardinality)}",
        f"equal: {report.equal}",
    ]
    _emit([payload], args.format, rows, text)
    return 0 if report.equal else 1


def _int_flag(text: str) -> int:
    """The argparse type of every integer flag: parse_integer, refused with
    argparse's own "invalid int value" message."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and returned
    by every later one, so a process that runs main many times builds it
    once. Parsing reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="groupoid-card",
        description="Exact groupoid cardinality and random-permutation cycle statistics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_sweep(p):
        """The p-vector selection shared by the sweeping subcommands."""
        p.add_argument("--n", type=_int_flag, required=True)
        p.add_argument("--p", type=str, default=None, help="comma-separated p-vector of length n")
        p.add_argument("--all-p", action="store_true", help="sweep all bounded p-vectors")
        p.add_argument("--max-entry", type=_int_flag, default=None)
        p.add_argument("--max-weight", type=_int_flag, default=None, help="weight bound of the sweep (default n)")

    def add_format(p):
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")

    p = sub.add_parser("verify-lemma", help="check the expectation of falling-power products against the closed form")
    add_sweep(p)
    p.add_argument("--method", choices=["brute", "cycle-type"], default="brute")
    add_format(p)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("verify-categorified", help="compare the decorated-permutation quotient against the product skeleton")
    add_sweep(p)
    add_format(p)
    p.set_defaults(func=cmd_verify_categorified)

    p = sub.add_parser("skeleton", help="print the permutation-groupoid skeleton for a degree")
    p.add_argument("--n", type=_int_flag, required=True)
    add_format(p)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("stats", help="exact expected k-cycle counts and their harmonic total")
    p.add_argument("--n", type=_int_flag, required=True)
    add_format(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("montecarlo", help="seeded sampling estimates of falling-power moments, all from one stream")
    p.add_argument("--n", type=_int_flag, required=True)
    # Both flags append to one list, so the reports follow command-line order.
    p.add_argument("--p", dest="statistics", action="append", type=lambda text: ("--p", text), metavar="P", help="comma-separated p-vector of length n; repeatable")
    p.add_argument("--p-one", dest="statistics", action="append", type=lambda text: ("--p-one", text), metavar="P_ONE", help='single cycle length, e.g. "k=2"; repeatable')
    p.add_argument("--samples", type=_int_flag, required=True)
    p.add_argument("--seed", type=_int_flag, default=0)
    add_format(p)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("theorem-general", help="check average fiber size against the category-of-elements cardinality")
    p.add_argument("--builtin", choices=["fixed-points", "cycle-tuples"], default=None)
    p.add_argument("--n", type=_int_flag, default=None)
    p.add_argument("--p", type=str, default=None)
    p.add_argument("--functor", type=str, default=None, help="path to a functor JSON file")
    add_format(p)
    p.set_defaults(func=cmd_theorem_general)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # UsageError, CapExceededError, GroupValidationError, ActionValidationError
    # and JSONDecodeError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
