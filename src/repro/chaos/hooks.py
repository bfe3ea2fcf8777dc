"""Ambient chaos hooks: how the simulator discovers an active plan.

This module is the only chaos entry point the core simulator imports,
and it is deliberately import-light (stdlib only at module scope) so
``sim/engine.py`` and ``cache.py`` can depend on it without cycles or
startup cost.  It mirrors :mod:`repro.telemetry.session`: the active
:class:`~repro.chaos.injector.ChaosSession` lives in a module global —
not a ``contextvars`` var — so fork-based ``SweepRunner`` workers
inherit it, and every hook degrades to a single ``is None`` test when no
plan is loaded.  That degenerate path is what keeps no-plan runs
bit-identical to a build without chaos at all.

Hooks, in calling order during a run:

* :func:`attach_environment` — from ``Environment.__init__``; creates a
  per-environment :class:`~repro.chaos.injector.ChaosInjector` when a
  non-empty plan is active.
* :func:`register_target` — from component constructors (links,
  routers, switch ports, NICs, CPU complexes); hands the component to
  the environment's injector for fault-target matching.
* :func:`active_plan_fingerprint` — from ``cache.stable_key``; folds
  the plan into result-cache keys (``None`` — and therefore key-neutral
  — for no plan *and* for the empty plan).

Activation is either programmatic (``chaos_session(plan)``) or ambient
via ``REPRO_CHAOS=/path/to/plan.json`` — the environment variable is
read lazily on first hook use and the loaded session is memoized per
path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["CHAOS_ENV", "active_chaos", "chaos_active", "register_target",
           "attach_environment", "active_plan_fingerprint"]

#: Environment variable naming a fault-plan JSON file to auto-load.
CHAOS_ENV = "REPRO_CHAOS"

#: The explicitly-activated session (``chaos_session(...)``), if any.
_ACTIVE: Optional[Any] = None

#: Sessions auto-loaded from ``REPRO_CHAOS``, memoized by path so one
#: run never re-parses (or re-creates injector state for) the same file.
_ENV_SESSIONS: Dict[str, Any] = {}

#: Benchmark escape hatch: ``True`` turns every hook into a no-op so
#: the ``chaos-overhead`` gate of ``scripts/bench_compare.py`` can
#: measure the pre-chaos baseline.
_BYPASS = False

#: Memoized :func:`repro.core.knobs.env_value` — bound on first hook
#: use so this module stays import-light (repro.core transitively
#: imports the simulator) without re-paying the import machinery on
#: every no-plan hook call.
_ENV_VALUE: Optional[Any] = None


def _env_value(name: str) -> Any:
    global _ENV_VALUE
    if _ENV_VALUE is None:
        from repro.core.knobs import env_value
        _ENV_VALUE = env_value
    return _ENV_VALUE(name)


def active_chaos() -> Optional[Any]:
    """The active :class:`~repro.chaos.injector.ChaosSession`, or ``None``.

    Resolution order: the bypass switch wins, then an explicit
    ``chaos_session(...)`` activation, then the ``REPRO_CHAOS``
    environment variable.
    """
    if _BYPASS:
        return None
    if _ACTIVE is not None:
        return _ACTIVE
    path = _env_value(CHAOS_ENV)
    if not path:
        return None
    session = _ENV_SESSIONS.get(path)
    if session is None:
        from repro.chaos.injector import ChaosSession
        from repro.chaos.plan import FaultPlan
        session = ChaosSession(FaultPlan.load(path))
        _ENV_SESSIONS[path] = session
    return session


def chaos_active() -> bool:
    """Whether a (possibly empty) fault plan is currently loaded."""
    return active_chaos() is not None


def attach_environment(env: Any) -> None:
    """Hook called by ``Environment.__init__``.

    Arms the active plan against the new environment: the injector is
    created and its arm/fire/recover events are scheduled up-front, so
    they carry the lowest sequence numbers at their instants and win
    FIFO ties against frame deliveries — the property that makes fault
    boundaries identical across the train on/off data paths.
    """
    session = active_chaos()
    if session is not None:
        session.attach_environment(env)


def register_target(category: str, name: str, obj: Any) -> None:
    """Hook called by component constructors (no-op without a plan).

    ``category`` is one of ``link``/``router``/``switch_port``/``nic``/
    ``cpu``; ``name`` is the component's user-visible name, matched
    against plan target globs.
    """
    session = active_chaos()
    if session is not None:
        session.register_target(category, name, obj)


def active_plan_fingerprint() -> Optional[str]:
    """Fingerprint of the active plan for cache keys, or ``None``.

    Returns ``None`` for the empty plan too: a plan with no faults
    cannot influence results, so its cache keys must stay byte-identical
    to chaos-off keys.
    """
    session = active_chaos()
    if session is None:
        return None
    plan = session.plan
    if plan.is_empty:
        return None
    return plan.fingerprint()
