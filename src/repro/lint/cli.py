"""Command-line front end: ``python -m repro.lint`` / ``three-dess lint``.

Exit codes (one small enum, per RPL003's own rule):

* 0 — clean run, no findings;
* 1 — at least one finding (diagnostics on stdout);
* 2 — usage error (unknown rule code, missing path).
"""

from __future__ import annotations

import argparse
import enum
from typing import List, Optional, Sequence

from .baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .core import all_rules, lint_paths
from .reporters import render_json, render_text

__all__ = ["LintExit", "build_parser", "main"]


class LintExit(enum.IntEnum):
    """Exit codes of the lint CLI."""

    OK = 0
    FINDINGS = 1
    USAGE = 2


def _split_codes(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="three-dess lint",
        description="project static analysis (AST rules RPL001-RPL006 "
        "plus the flow-sensitive RPL100-RPL102); see "
        "docs/STATIC_ANALYSIS.md",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src, and "
        "tests/faults.py when present)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run exclusively "
        "(e.g. RPL001,RPL003)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    baseline_group = parser.add_mutually_exclusive_group()
    baseline_group.add_argument(
        "--baseline",
        metavar="PATH",
        help="accepted-findings baseline file: findings fingerprinted "
        "there are reported as 'baselined' and do not fail the run",
    )
    baseline_group.add_argument(
        "--baseline-write",
        metavar="PATH",
        help="(re)generate the baseline from this run's findings "
        "(deterministic: sorted, deduplicated, path-relative) and exit 0",
    )
    return parser


def _default_paths() -> List[str]:
    import os

    paths: List[str] = []
    if os.path.isdir("src"):
        paths.append("src")
        if os.path.isfile(os.path.join("tests", "faults.py")):
            paths.append(os.path.join("tests", "faults.py"))
    else:
        paths.append(".")
    return paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_obj in all_rules():
            print(f"{rule_obj.code}  {rule_obj.name}: {rule_obj.summary}")
        return LintExit.OK
    paths = list(args.paths) or _default_paths()
    try:
        baseline = (
            load_baseline(args.baseline) if args.baseline is not None else None
        )
        report = lint_paths(
            paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except (BaselineError, ValueError, FileNotFoundError) as exc:
        parser.print_usage()
        print(f"error: {exc}")
        return LintExit.USAGE
    if args.baseline_write is not None:
        try:
            count = write_baseline(args.baseline_write, report.diagnostics)
        except OSError as exc:
            parser.print_usage()
            print(f"error: cannot write baseline: {exc}")
            return LintExit.USAGE
        print(
            f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} "
            f"to {args.baseline_write}"
        )
        return LintExit.OK
    if baseline is not None:
        apply_baseline(report, baseline)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return LintExit.OK if report.ok else LintExit.FINDINGS
