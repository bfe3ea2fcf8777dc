"""Chaos engineering for the reproduction: declarative fault injection.

The paper's §5 record run succeeded *because nothing went wrong*: one
loss event over the 2×10^7-packet Sunnyvale–Geneva path would have
collapsed the Reno window for ~1.5 hours.  This package turns that
observation into a testbed — declare faults in a seeded
:class:`FaultPlan` (JSON or code), arm it with :func:`chaos_session`
(or ``--chaos PLAN.json`` / ``REPRO_CHAOS=PLAN.json``), and score the
stack's recovery with :func:`analyze_goodput`.  See
``docs/RESILIENCE.md``.

Guarantees: a run with no plan (or an empty plan) is bit-identical to a
build without chaos, and a seeded plan produces bit-identical results on
every run.

This module is import-light on purpose — ``sim/engine.py`` and
``cache.py`` import :mod:`repro.chaos.hooks` on their own hot import
paths, which executes this ``__init__`` first; everything heavier loads
lazily through PEP 562.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "FAULT_KINDS", "FaultSpec", "FaultPlan",
    "ChaosSession", "ChaosInjector", "ArmedFault", "chaos_session",
    "FaultWindow", "FaultRecovery", "analyze_goodput", "render_scorecard",
    "count_retransmits", "cwnd_trough", "enrich_with_telemetry",
    "LossTap", "DuplicateTap", "ReorderTap", "SinkTap",
    "CHAOS_ENV", "active_chaos", "active_plan_fingerprint",
]

_LAZY = {
    "FAULT_KINDS": "repro.chaos.plan",
    "FaultSpec": "repro.chaos.plan",
    "FaultPlan": "repro.chaos.plan",
    "ChaosSession": "repro.chaos.injector",
    "ChaosInjector": "repro.chaos.injector",
    "ArmedFault": "repro.chaos.injector",
    "chaos_session": "repro.chaos.injector",
    "FaultWindow": "repro.chaos.analyzer",
    "FaultRecovery": "repro.chaos.analyzer",
    "analyze_goodput": "repro.chaos.analyzer",
    "render_scorecard": "repro.chaos.analyzer",
    "count_retransmits": "repro.chaos.analyzer",
    "cwnd_trough": "repro.chaos.analyzer",
    "enrich_with_telemetry": "repro.chaos.analyzer",
    "LossTap": "repro.chaos.taps",
    "DuplicateTap": "repro.chaos.taps",
    "ReorderTap": "repro.chaos.taps",
    "SinkTap": "repro.chaos.taps",
    "CHAOS_ENV": "repro.chaos.hooks",
    "active_chaos": "repro.chaos.hooks",
    "active_plan_fingerprint": "repro.chaos.hooks",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
