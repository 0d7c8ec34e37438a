"""Print the two design-size measures ROADMAP tracks.

1. Line counts of every module in ``src/repro/weak``.
2. The named parameters of each public service constructor.
   ``*args``/``**kwargs`` are not counted.  An alias of another class
   is listed under its own name but counted once in the total.

Run with ``make loc`` (or ``PYTHONPATH=src python tools/loc.py``).
"""

import importlib
import inspect
import pathlib

WEAK = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "weak"

CONSTRUCTORS = (
    "service.WeakInstanceService",
    "sharded.ShardedWeakInstanceService",
    "durable.DurableShardedService",
    "replication.ReplicatedShardedService",
    "server.WeakInstanceServer",
)

_VARIADIC = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)


def main() -> None:
    total = 0
    for path in sorted(WEAK.glob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        print(f"{lines:6d} src/repro/weak/{path.name}")
    print(f"{total:6d} total")
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


if __name__ == "__main__":
    main()
