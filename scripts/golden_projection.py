#!/usr/bin/env python
"""Compare two trees' experiment outputs with named dataclass fields left out.

``tests/golden/experiments.json`` digests each id's ``data`` with
``tests/support.value_digest``, which hashes every dataclass field's
*name* as well as its value.  Deleting a field from a dataclass that an
output embeds (``TuningConfig`` in ``opt_steps``, ``fig3`` and others)
therefore changes that id's digest even when no number moved.  This
script shows whether anything else moved: it runs every id (quick,
``jobs=1``, no cache) in each tree, digests the data the way
``value_digest`` does but skips the named fields, and reports per id
whether the two trees agree::

    git archive --prefix=old/ <parent-commit> | tar -x -C /tmp/cmp
    python scripts/golden_projection.py /tmp/cmp/old . \\
        --skip sack,tso,napi,adaptive_coalescing,delayed_ack

Exit status 0 means every id's projected ``data`` digest and ``text``
digest are equal in both trees.  Each tree's own ``tests/support.py``
and ``src/`` are used, so the old tree needs nothing from the new one.
The run takes a few minutes per tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, Iterable, List, Set, Tuple


def _emit(skip: Set[str], ids: List[str]) -> None:
    """Print projected digests for the tree in the current directory."""
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.getcwd()]
    import tests.support as support
    from repro.analysis.experiments import experiment_ids, run_experiment

    skipped: Set[Tuple[str, str]] = set()
    feed_rest = support._feed

    def feed(h, a):
        if dataclasses.is_dataclass(a) and not isinstance(a, type):
            t = type(a)
            h.update(f"<{t.__module__}.{t.__qualname__}>".encode())
            for f in dataclasses.fields(a):
                if f.name in skip:
                    skipped.add((t.__qualname__, f.name))
                    continue
                h.update(f.name.encode())
                feed(h, getattr(a, f.name))
        else:
            feed_rest(h, a)

    # containers and plain objects recurse through support._feed, which
    # looks _feed up as a module global: route that back here
    support._feed = feed
    out: Dict[str, object] = {}
    for name in ids or experiment_ids():
        result = run_experiment(name, quick=True, jobs=1, cache=False)
        h = hashlib.sha256()
        feed(h, result.data)
        out[name] = {"data": h.hexdigest(),
                     "text": hashlib.sha256(result.text.encode()).hexdigest()}
    out["__skipped__"] = sorted(".".join(p) for p in skipped)
    print(json.dumps(out, sort_keys=True))


def _run_tree(tree: str, skip: Iterable[str], ids: List[str]) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--emit",
           "--skip", ",".join(sorted(skip)), *ids]
    proc = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                          text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", metavar="TREE",
                    help="OLD_TREE NEW_TREE (experiment ids with --emit)")
    ap.add_argument("--skip", default="",
                    help="comma-separated dataclass field names to leave out")
    ap.add_argument("--ids", default="",
                    help="comma-separated experiment ids (default: all)")
    ap.add_argument("--emit", action="store_true",
                    help="print this tree's projected digests as JSON")
    args = ap.parse_args(argv)
    skip = {s for s in args.skip.split(",") if s}
    if args.emit:
        _emit(skip, args.paths)
        return 0
    if len(args.paths) != 2:
        ap.error("give OLD_TREE and NEW_TREE")
    ids = [i for i in args.ids.split(",") if i]
    old, new = (_run_tree(t, skip, ids) for t in args.paths)
    print(f"skipped in old: {', '.join(old['__skipped__']) or '-'}")
    print(f"skipped in new: {', '.join(new['__skipped__']) or '-'}")
    names = sorted(k for k in set(old) | set(new) if k != "__skipped__")
    differ = 0
    for name in names:
        same = old.get(name) == new.get(name)
        differ += not same
        print(f"{name:16s} {'equal' if same else 'DIFFERS'}")
    print(f"{len(names) - differ}/{len(names)} ids equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
