"""Command-line front end.

Groups are named by family identifiers (``cyclic:6``, ``dihedral:8``,
``dicyclic:8``, ``symmetric:4``, ``alternating:5``, ``elemab:2^3``,
``product:cyclic:2,cyclic:3``, ``psl2:7``), the names the catalog lists,
whose integers are ASCII decimal digits; or by input files: a Cayley
table (first line n, then n rows of 0-based indices with the identity at
index 0) or a generator list (first line ``degree: k``, then one 1-based
cycle word per line).  Products apply the left factor first.

Exit codes: 0 success/pass, 1 verification failure, 2 bad input,
3 cap exceeded, 141 (128 + SIGPIPE) when the reader of stdout closed it.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

import numpy as np

from .catalog import catalog_iter, decimal, group_from_spec
from .core import (
    BLOCK_ENTRIES,
    ELEMENT_CAP,
    SUBGROUP_CAP,
    TABLE_LIMIT,
    CapExceededError,
    FiniteGroup,
    from_cayley,
    generate_group,
)
from .metric import classify, distance_matrix, report_records, report_text, write_distance_csv
from .perm import parse_cycles
from .verify import TARGETS, run_verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command killed by it


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1, so a bound or cap below 1
    exits 2 with a usage error instead of running an empty sweep or
    refusing every group as over the cap.  Its digits are ASCII, as in a
    group spec: ``1_0``, ``+4`` and non-ASCII digits are not integers here."""
    value = decimal(text)
    if value is None:
        raise ValueError(text)  # argparse reports an invalid positive_int value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def load_group_file(path: str, element_cap: int = ELEMENT_CAP) -> FiniteGroup:
    """Auto-detect and load a Cayley-table or generator file; blank lines are skipped."""
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="utf-8") as handle:
        lines = filter(None, (ln.strip() for ln in handle))
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: empty group file")
        if not header.lower().startswith("degree:"):
            n = decimal(header)
            if n is None or n < 0:
                raise ValueError(f"{path}: header {header!r} is neither a table order in digits nor 'degree: k'")
            return from_cayley(_read_table(path, n, lines), name=name)
        degree = decimal(header.split(":", 1)[1])
        if degree is None or degree < 1:
            raise ValueError(f"{path}: header {header!r} needs a degree of at least 1 in digits")
        if degree > BLOCK_ENTRIES:
            raise CapExceededError(f"{path}: degree {degree} exceeds BLOCK_ENTRIES={BLOCK_ENTRIES}, the width of one block")
        gens = [parse_cycles(word, degree) for word in lines]
    if not gens:
        raise ValueError(f"{path}: generator file lists no generators")
    return generate_group(gens, cap=element_cap, name=name)


def _read_table(path: str, n: int, rows: Iterator[str]) -> np.ndarray:
    """The n rows of a Cayley-table file that follow its header, parsed one
    at a time into the int32 array the group keeps; no row is held once it
    is parsed.  For a header of no rows or above TABLE_LIMIT the rows are
    only counted: a count that differs from the header is bad input, and
    a table above the cap is refused before any row is parsed."""
    if not 0 < n <= TABLE_LIMIT:
        found = sum(1 for _ in rows)
        if found != n:
            raise ValueError(f"{path}: expected {n} table rows, found {found}")
        if n:
            raise CapExceededError(f"{path}: order {n} exceeds the Cayley-table cap TABLE_LIMIT={TABLE_LIMIT}")
        raise ValueError(f"{path}: the Cayley table has no rows")
    table = np.empty((n, n), dtype=np.int32)
    found = 0
    for found, row in enumerate(rows, 1):
        if found > n:
            break
        try:
            entries = np.loadtxt([row], dtype=np.int32, comments=None, ndmin=1)
        except ValueError:
            raise ValueError(f"{path}: table row {found} has an entry that is not an integer or is out of range") from None
        if len(entries) != n:
            raise ValueError(f"{path}: table row {found} has {len(entries)} entries, expected {n}")
        table[found - 1] = entries
    if found != n:
        raise ValueError(f"{path}: expected {n} table rows, found {found + sum(1 for _ in rows)}")
    return table


def resolve_group(spec: str, element_cap: int = ELEMENT_CAP) -> FiniteGroup:
    """A family identifier first, an existing file path second."""
    try:
        return group_from_spec(spec)
    except ValueError:
        if os.path.exists(spec):
            return load_group_file(spec, element_cap=element_cap)
        raise


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """The file at path, opened for writing, or stdout without a path."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield sys.stdout


def _emit(text: str, output: Optional[str]) -> None:
    with _output(output) as stream:
        stream.write(text)


def _cmd_analyze(args) -> int:
    group = resolve_group(args.spec, element_cap=args.cap_elements)
    report = classify(group, audit=args.audit_triangle)
    if args.format == "records":
        text = report_records(group, report) + "\n"
    else:
        text = report_text(group, report) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _classify_rows(max_order: int) -> list[dict]:
    rows = []
    for name, group in catalog_iter(max_order):
        report = classify(group, name=name)
        rows.append(
            {
                "name": name,
                "order": str(report.order),
                "cp": "true" if report.in_cp else "false",
                "cp2": "true" if report.in_cp2 else "false",
                "cp3": "true" if report.in_cp3 else "false",
                "solvable": "true" if report.solvable else "false",
                "p_group": str(report.p_group) if report.p_group is not None else "-",
            }
        )
    return rows


def _cmd_classify(args) -> int:
    rows = _classify_rows(args.max_order)
    columns = ("name", "order", "cp", "cp2", "cp3", "solvable", "p_group")
    if args.format == "records":
        text = "\n".join(" ".join(f"{c}={row[c]}" for c in columns) for row in rows) + "\n"
    else:
        widths = {c: max(len(c), *(len(row[c]) for row in rows)) for c in columns}
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        body = [
            "  ".join(row[c].ljust(widths[c]) for c in columns)
            for row in rows
        ]
        text = "\n".join([header] + body) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = run_verify(args.target, max_order=args.max_order, subgroup_cap=args.cap_subgroups)
    text = "\n".join(result.lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


def _cmd_distance_matrix(args) -> int:
    group = resolve_group(args.spec, element_cap=args.cap_elements)
    d = distance_matrix(group)  # refuses a group above the cap before any output
    with _output(args.output) as stream:
        write_distance_csv(group, d, stream)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpgroups",
        description=(
            "Order-distance and CP-class computations on small finite groups. "
            "Multiplication applies the left factor first."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify one group and print its report")
    analyze.add_argument("spec", help="group identifier or input file path")
    analyze.add_argument("--format", choices=("text", "records"), default="text")
    analyze.add_argument("--output", default=None, help="write the report to a file")
    analyze.add_argument(
        "--audit-triangle",
        action="store_true",
        help="also run the raw all-triples triangle check (order <= 60)",
    )
    analyze.add_argument("--cap-elements", type=positive_int, default=ELEMENT_CAP)
    analyze.set_defaults(func=_cmd_analyze)

    classify_cmd = sub.add_parser("classify", help="tabulate class flags over the catalog")
    classify_cmd.add_argument("--max-order", type=positive_int, required=True)
    classify_cmd.add_argument("--format", choices=("text", "records"), default="text")
    classify_cmd.add_argument("--output", default=None)
    classify_cmd.set_defaults(func=_cmd_classify)

    verify = sub.add_parser(
        "verify",
        help="run one bundled verification target",
        description=(
            "Targets: theorem1 (strict-triangle groups have prime-power element orders, "
            "properly), theorem2 (their abelian subgroups are p-groups), theorem3 "
            "(p-groups: strict triangle iff ultrametric, with normal order layers), "
            "theorem4 (no nonabelian simple group passes the strict triangle), "
            "conjecture5 (solvability scan), subgroup-closure, problem1 (quotient "
            "observations, non-conclusive).  Default bounds: "
            + ", ".join(f"{t}={bound}" for t, (bound, _) in TARGETS.items())
        ),
    )
    verify.add_argument("target", choices=tuple(TARGETS))
    verify.add_argument("--max-order", type=positive_int, default=None)
    verify.add_argument("--cap-subgroups", type=positive_int, default=SUBGROUP_CAP)
    verify.add_argument("--output", default=None)
    verify.set_defaults(func=_cmd_verify)

    dm = sub.add_parser("distance-matrix", help="export the order-distance matrix as CSV")
    dm.add_argument("spec", help="group identifier or input file path")
    dm.add_argument("--output", default=None)
    dm.add_argument("--cap-elements", type=positive_int, default=ELEMENT_CAP)
    dm.set_defaults(func=_cmd_distance_matrix)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading (``| head``): nothing to report, and
        # the interpreter's flush at exit must not fail on the pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
