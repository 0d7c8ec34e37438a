"""Print the two design-size measures ROADMAP tracks.

1. Line counts of every module in ``src/repro/weak``.
2. The named parameters of each public service constructor.
   ``*args``/``**kwargs`` are not counted.  Each class is listed and
   counted once; the names older callers import for it are listed on
   its line as aliases.  A name in ``ALIASES`` that stops being an
   alias (a wrapper class is back) is listed and counted as a class
   of its own.

Then, as context for the first measure, the per-module line counts of
``src/repro/data`` and ``src/repro/query`` — the relational algebra and
the query executor that reads run through.  They have totals of their
own and leave the ``src/repro/weak`` total as it was.

``--check`` also compares both measures, and the ``src/repro/query``
total, with the committed ceilings below and exits nonzero when one is
exceeded, so a change that re-adds a wrapper, a knob or a second query
path has to lower something else or raise the ceiling in plain sight.

Run with ``make loc`` / ``make loc-check`` (or
``PYTHONPATH=src python tools/loc.py [--check]``).
"""

import argparse
import importlib
import inspect
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

CONSTRUCTORS = (
    "service.WeakInstanceService",
    "sharded.ShardedWeakInstanceService",
    "server.WeakInstanceServer",
)
#: names older callers import for a class above
ALIASES = (
    "durable.DurableShardedService",
    "replication.ReplicatedShardedService",
)

#: ceilings ``--check`` enforces: the src/repro/weak line total, the
#: named constructor parameters summed over the classes, and the
#: src/repro/query line total
MAX_WEAK_LINES = 5878
MAX_PARAMETERS = 17
MAX_QUERY_LINES = 1197

_VARIADIC = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)


def _line_counts(layer: str) -> int:
    """Print the line count of each module of ``src/repro/<layer>``;
    returns their sum."""
    total = 0
    for path in sorted((PACKAGE / layer).glob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        print(f"{lines:6d} src/repro/{layer}/{path.name}")
    return total


def _resolve(dotted: str):
    module, attr = dotted.split(".")
    return getattr(importlib.import_module(f"repro.weak.{module}"), attr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when a measure exceeds its committed ceiling",
    )
    args = parser.parse_args(argv)
    lines = _line_counts("weak")
    print(f"{lines:6d} total")
    classes = {}  # class -> the dotted name it is listed under
    aliases = {}  # class -> dotted alias names
    for dotted in CONSTRUCTORS + ALIASES:
        cls = _resolve(dotted)
        if cls in classes:
            aliases.setdefault(cls, []).append(dotted)
        else:
            classes[cls] = dotted
    knobs = 0
    for cls, dotted in classes.items():
        params = [
            p.name
            for p in inspect.signature(cls).parameters.values()
            if p.kind not in _VARIADIC
        ]
        knobs += len(params)
        named = f" (aliases: {', '.join(aliases[cls])})" if cls in aliases else ""
        print(f"{len(params):6d} {dotted}{named}: {', '.join(params)}")
    print(f"{knobs:6d} named constructor parameters across {len(classes)} classes")
    totals = {}
    for layer in ("data", "query"):
        totals[layer] = _line_counts(layer)
        print(f"{totals[layer]:6d} total src/repro/{layer}")
    if not args.check:
        return 0
    failures = [
        f"{what} {value} exceeds the ceiling {ceiling}"
        for what, value, ceiling in (
            ("src/repro/weak line total", lines, MAX_WEAK_LINES),
            ("named constructor parameters", knobs, MAX_PARAMETERS),
            ("src/repro/query line total", totals["query"], MAX_QUERY_LINES),
        )
        if value > ceiling
    ]
    for failure in failures:
        print(f"loc-check: {failure}", file=sys.stderr)
    if not failures:
        print(f"loc-check: ok ({lines} <= {MAX_WEAK_LINES} lines, "
              f"{knobs} <= {MAX_PARAMETERS} parameters, "
              f"{totals['query']} <= {MAX_QUERY_LINES} query lines)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
