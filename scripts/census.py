#!/usr/bin/env python
"""Reachability census: which ``repro`` functions do the ids and examples call?

Runs experiment ids (quick mode, ``jobs=1``, no result cache) and the
scripts in ``examples/`` in this process under a ``sys.settrace``
call-event tracer, then prints

* every function or method defined under ``src/repro`` that nothing
  called, grouped by file, and
* every ``TuningConfig`` field value seen off its default, with the
  number of configs that carried it.

A deletion should cite this output.  Code reached only through the
worker pool, the result cache or a CLI flag shows as unreached here,
since the census runs serially, uncached and without the CLI::

    python scripts/census.py                    # all ids and examples
    python scripts/census.py pktgen --no-examples
    python scripts/census.py --no-ids           # examples only

Tracing slows the run several-fold: all ids take about 3.5 minutes and
all examples about 3 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import io
import os
import pathlib
import runpy
import sys
import threading
import types
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.experiments import (  # noqa: E402
    experiment_ids, run_experiment)
from repro.config import TuningConfig  # noqa: E402

#: (file, first line, name): how a code object is recognised in a trace
CodeKey = Tuple[str, int, str]


def _key(code: types.CodeType) -> CodeKey:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _functions(code: types.CodeType) -> Iterator[types.CodeType]:
    """Function code objects nested in ``code``: no module or class
    bodies, no lambdas or comprehensions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if (const.co_flags & inspect.CO_OPTIMIZED
                    and not const.co_name.startswith("<")):
                yield const
            yield from _functions(const)


def defined_functions() -> Dict[CodeKey, str]:
    """Every function under ``src/repro``: key -> qualified name."""
    out: Dict[CodeKey, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = os.path.realpath(path)
        module = compile(path.read_text(encoding="utf-8"), filename, "exec")
        for code in _functions(module):
            out[_key(code)] = getattr(code, "co_qualname", code.co_name)
    return out


class Census:
    """Call-event tracer over the ``repro`` package."""

    def __init__(self) -> None:
        self.called: Set[CodeKey] = set()
        self.configs = 0
        self.off_default: Counter = Counter()
        self._prefix = os.path.realpath(PACKAGE) + os.sep
        self._post_init = TuningConfig.__post_init__.__code__
        self._defaults = {f.name: f.default
                          for f in dataclasses.fields(TuningConfig)}

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(self._prefix):
            self.called.add(_key(code))
            if code is self._post_init:
                self._note_config(frame.f_locals["self"])
        return None  # no line events

    def _note_config(self, config: TuningConfig) -> None:
        self.configs += 1
        for name, default in self._defaults.items():
            value = getattr(config, name)
            if value != default:
                self.off_default[(name, repr(value))] += 1

    @contextlib.contextmanager
    def tracing(self) -> Iterator[None]:
        sys.settrace(self._trace)
        threading.settrace(self._trace)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_ids(census: Census, ids: List[str]) -> List[str]:
    failures = []
    for name in ids:
        with census.tracing():
            try:
                run_experiment(name, quick=True, jobs=1, cache=False)
            except Exception as exc:  # report, and census the rest
                failures.append(f"id {name}: {exc!r}")
        print(f"ran id {name}", file=sys.stderr)
    return failures


def run_examples(census: Census) -> List[str]:
    failures = []
    for path in sorted(EXAMPLES.glob("*.py")):
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    census.tracing():
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as stop:
            if stop.code not in (None, 0):
                failures.append(f"example {path.name}: exit {stop.code}")
        except Exception as exc:  # report, and census the rest
            failures.append(f"example {path.name}: {exc!r}")
        finally:
            sys.argv = argv
        print(f"ran example {path.name}", file=sys.stderr)
    return failures


def report(census: Census, defined: Dict[CodeKey, str]) -> str:
    unreached: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
    for key, qualname in defined.items():
        if key not in census.called:
            rel = os.path.relpath(key[0], PACKAGE.parent)
            unreached[rel].append((key[1], qualname))
    lines = [f"functions defined under src/repro: {len(defined)}",
             f"called: {len(defined) - sum(map(len, unreached.values()))}",
             ""]
    lines.append("unreached functions, by file:")
    for rel in sorted(unreached):
        lines.append(f"  {rel}")
        for lineno, qualname in sorted(unreached[rel]):
            lines.append(f"    {lineno:5d}  {qualname}")
    lines.append("")
    lines.append(f"TuningConfig values off their default "
                 f"({census.configs} configs built):")
    for (name, value), count in sorted(census.off_default.items()):
        lines.append(f"  {name} = {value}  ({count})")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: every registered id)")
    parser.add_argument("--no-ids", action="store_true",
                        help="run no experiment ids")
    parser.add_argument("--no-examples", action="store_true",
                        help="run no examples")
    args = parser.parse_args(argv)
    census = Census()
    failures = []
    if not args.no_ids:
        failures += run_ids(census, args.ids or experiment_ids())
    if not args.no_examples:
        failures += run_examples(census)
    print(report(census, defined_functions()))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
