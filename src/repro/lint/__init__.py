"""reprolint: AST-based determinism & contract linting for the repro stack.

Every figure this repository regenerates rests on one invariant: a
simulation result is a pure function of (tuning configuration, topology/
workload parameters, code) — bit-identical across serial/parallel runs,
chaos on/off and warm/cold caches.  Runtime
parity tests police that invariant *after* the fact and at full
simulation cost; reprolint polices it *statically*, on
every PR, by scanning the source for the bug classes that break it:

* unseeded randomness (RPR001) and wall-clock reads (RPR002),
* hash-order-dependent iteration (RPR003),
* environment knobs missing from the central registry (RPR004),
* telemetry emitted outside the instrumentation catalog (RPR005),
* result-affecting knobs missing from cache keys (RPR006),
* overbroad exception handlers on engine paths (RPR007),
* exact float equality in simulation arithmetic (RPR008),
* processes that wait by polling on a timeout (RPR009),
* ``env.then`` hops that are not their function's last action (RPR010).

Run it as ``python -m repro.lint src/repro`` (see docs/LINTING.md).
Findings are suppressed inline with ``# reprolint: disable=RPR0xx --
rationale`` or accepted wholesale via a committed baseline file, so
legacy findings never block CI while new ones always do.
"""

from __future__ import annotations

from repro.lint.base import (ModuleContext, ProjectContext, Rule, RULES,
                             all_rules, rule)
from repro.lint.baseline import (Baseline, load_baseline, write_baseline)
from repro.lint.engine import LintResult, lint_paths
from repro.lint.findings import Finding, Severity

# Importing the rule modules registers every rule in RULES.
from repro.lint import rules_determinism as _rules_determinism  # noqa: F401
from repro.lint import rules_contracts as _rules_contracts  # noqa: F401

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "ModuleContext",
    "ProjectContext",
    "RULES",
    "Rule",
    "Severity",
    "all_rules",
    "lint_paths",
    "load_baseline",
    "rule",
    "write_baseline",
]
