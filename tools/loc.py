"""Print the two design-size measures ROADMAP tracks.

1. Line counts of every module in ``src/repro/weak``.
2. The named parameters of each public service constructor.
   ``*args``/``**kwargs`` are not counted.  An alias of another class
   is listed under its own name but counted once in the total.

Then, as context for the first measure, the per-module line counts of
``src/repro/data`` and ``src/repro/query`` — the relational algebra and
the query executor that reads run through.  They have totals of their
own and leave the ``src/repro/weak`` total as it was.

Run with ``make loc`` (or ``PYTHONPATH=src python tools/loc.py``).
"""

import importlib
import inspect
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

CONSTRUCTORS = (
    "service.WeakInstanceService",
    "sharded.ShardedWeakInstanceService",
    "durable.DurableShardedService",
    "replication.ReplicatedShardedService",
    "server.WeakInstanceServer",
)

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


def main() -> None:
    print(f"{_line_counts('weak'):6d} total")
    seen = set()
    knobs = 0
    for dotted in CONSTRUCTORS:
        module, attr = dotted.split(".")
        cls = getattr(importlib.import_module(f"repro.weak.{module}"), attr)
        params = [
            p.name
            for p in inspect.signature(cls).parameters.values()
            if p.kind not in _VARIADIC
        ]
        alias = "" if cls.__name__ == attr else f" (alias of {cls.__name__})"
        if cls not in seen:
            knobs += len(params)
            seen.add(cls)
        print(f"{len(params):6d} {dotted}{alias}: {', '.join(params)}")
    print(f"{knobs:6d} named constructor parameters across {len(seen)} classes")
    for layer in ("data", "query"):
        print(f"{_line_counts(layer):6d} total src/repro/{layer}")


if __name__ == "__main__":
    main()
