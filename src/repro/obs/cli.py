"""repro-obs: inspect ``traces.jsonl`` span files.

Subcommands
-----------
``tail PATH [PATH ...]``
    Print span records, newest last, optionally filtered by ``--trace`` /
    ``--stage``.  Directories are searched recursively for
    ``traces.jsonl`` — pointing the tool at a cluster directory picks up
    every shard's file.
``tree TRACE_ID PATH [PATH ...]``
    Reconstruct one request's span tree across all the given files (the
    cross-process join: gateway spans from one file, shard spans from
    another) and print it indented, with durations and attrs.
``stages PATH [PATH ...]``
    Aggregate every span by stage name and print a per-stage latency
    breakdown table (count / mean / p50 / p95 / max).

This is a CLI module: printing is its product (repro-lint RL009 exempts
``cli.py`` / ``__main__.py`` from the no-print rule).
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.api.telemetry import percentile
from repro.obs.trace import TRACE_FILENAME

__all__ = ["build_tree", "format_tree", "load_spans", "main", "stage_table"]


def _iter_files(paths: Iterable[os.PathLike]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob(TRACE_FILENAME))
        elif path.exists():
            yield path


def load_spans(paths: Iterable[os.PathLike],
               trace_id: Optional[str] = None,
               stage: Optional[str] = None) -> List[Dict[str, object]]:
    """Read span records from files/directories, oldest first.

    Records are sorted by their monotonic ``start`` stamp, which is
    comparable across the processes of one host — exactly the property
    the tracer's ``perf_counter`` discipline provides.  Truncated tail
    lines (a process killed mid-append) are skipped, same as the result
    journal reader.
    """
    spans: List[Dict[str, object]] = []
    for path in _iter_files(paths):
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line from an interrupted writer
                if trace_id and record.get("trace_id") != trace_id:
                    continue
                if stage and record.get("name") != stage:
                    continue
                record["file"] = str(path)
                spans.append(record)
    spans.sort(key=lambda r: float(r.get("start", 0.0)))
    return spans


def build_tree(spans: Sequence[Dict[str, object]]
               ) -> List[Dict[str, object]]:
    """Arrange one trace's spans into parent/child trees.

    Returns the root spans (``parent_id`` absent or unresolvable in the
    given set), each with a ``children`` list, recursively.  Spans whose
    parent is missing — e.g. the root file was not passed — surface as
    extra roots rather than disappearing.
    """
    by_id: Dict[str, Dict[str, object]] = {}
    for span in spans:
        node = dict(span)
        node["children"] = []
        by_id[str(node["span_id"])] = node
    roots: List[Dict[str, object]] = []
    for node in by_id.values():
        parent = by_id.get(str(node.get("parent_id") or ""))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in by_id.values():
        node["children"].sort(key=lambda n: float(n.get("start", 0.0)))
    roots.sort(key=lambda n: float(n.get("start", 0.0)))
    return roots


def _format_attrs(attrs: Optional[Dict[str, object]]) -> str:
    if not attrs:
        return ""
    inner = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    return f"  [{inner}]"


def format_tree(roots: Sequence[Dict[str, object]]) -> str:
    """Indented plain-text rendering of :func:`build_tree` output."""
    lines: List[str] = []

    def walk(node: Dict[str, object], depth: int) -> None:
        duration_ms = float(node.get("duration", 0.0)) * 1e3
        lines.append(f"{'  ' * depth}{node['name']}  {duration_ms:.3f} ms"
                     f"  (pid {node.get('pid', '?')})"
                     f"{_format_attrs(node.get('attrs'))}")
        for child in node["children"]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def stage_table(spans: Sequence[Dict[str, object]]) -> str:
    """Per-stage latency breakdown: count / mean / p50 / p95 / max (ms)."""
    by_stage: Dict[str, List[float]] = {}
    for span in spans:
        by_stage.setdefault(str(span["name"]), []).append(
            float(span.get("duration", 0.0)) * 1e3)
    header = f"{'stage':<24} {'count':>7} {'mean_ms':>9} " \
             f"{'p50_ms':>9} {'p95_ms':>9} {'max_ms':>9}"
    lines = [header, "-" * len(header)]
    for name in sorted(by_stage):
        values = by_stage[name]
        lines.append(
            f"{name:<24} {len(values):>7} "
            f"{sum(values) / len(values):>9.3f} "
            f"{percentile(values, 50):>9.3f} "
            f"{percentile(values, 95):>9.3f} "
            f"{max(values):>9.3f}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="inspect repro traces.jsonl span files")
    sub = parser.add_subparsers(dest="command", required=True)

    tail = sub.add_parser("tail", help="print span records, oldest first")
    tail.add_argument("paths", nargs="+",
                      help="traces.jsonl files or directories to search")
    tail.add_argument("--trace", help="only this trace id")
    tail.add_argument("--stage", help="only this stage name")
    tail.add_argument("--limit", type=int, default=0,
                      help="only the last N records (0 = all)")

    tree = sub.add_parser("tree", help="reconstruct one trace's span tree")
    tree.add_argument("trace_id")
    tree.add_argument("paths", nargs="+",
                      help="traces.jsonl files or directories to search")

    stages = sub.add_parser(
        "stages", help="per-stage latency breakdown across all spans")
    stages.add_argument("paths", nargs="+",
                        help="traces.jsonl files or directories to search")
    stages.add_argument("--trace", help="only this trace id")

    args = parser.parse_args(argv)

    if args.command == "tail":
        spans = load_spans(args.paths, trace_id=args.trace, stage=args.stage)
        if args.limit > 0:
            spans = spans[-args.limit:]
        for span in spans:
            print(json.dumps(span, sort_keys=True))
        return 0

    if args.command == "tree":
        spans = load_spans(args.paths, trace_id=args.trace_id)
        if not spans:
            print(f"no spans for trace {args.trace_id}")
            return 1
        print(format_tree(build_tree(spans)))
        return 0

    spans = load_spans(args.paths, trace_id=args.trace)
    if not spans:
        print("no spans found")
        return 1
    print(stage_table(spans))
    return 0
