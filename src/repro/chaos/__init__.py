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
paths, which executes this ``__init__`` first; every public name loads
on first use through :func:`repro.lazy.lazy_exports`.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.chaos.plan": ("FAULT_KINDS", "FaultSpec", "FaultPlan"),
    "repro.chaos.injector": ("ChaosSession", "ChaosInjector", "ArmedFault",
                             "chaos_session"),
    "repro.chaos.analyzer": ("FaultWindow", "FaultRecovery",
                             "analyze_goodput", "render_scorecard"),
    "repro.chaos.taps": ("LossTap", "DuplicateTap", "ReorderTap", "SinkTap"),
    "repro.chaos.hooks": ("CHAOS_ENV", "active_chaos",
                          "active_plan_fingerprint"),
})
