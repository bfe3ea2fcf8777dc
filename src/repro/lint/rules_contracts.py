"""Contract rules: registries, cache keys, excepts, poll loops, tail hops.

Where the determinism rules look for *local* hazards, these check the
repository's contracts: every ``REPRO_*`` environment switch is
declared in :data:`repro.core.knobs.ENV_KNOBS` (RPR004), every trace
point posted is in :data:`repro.telemetry.points.CATALOG` and every
catalog entry is emitted somewhere (RPR005), every result-affecting
knob reaches :func:`repro.cache.keys.stable_key` (RPR006), engine hot
paths never swallow arbitrary exceptions (RPR007), and no process
waits by re-checking state on a timer (RPR009), and every
``env.then`` hop is its function's last action (RPR010).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import ModuleContext, ProjectContext, Rule, rule
from repro.lint.findings import Finding, Severity

__all__ = ["EnvRegistryRule", "TelemetryCatalogRule", "CacheKeyRule",
           "BroadExceptRule", "PollLoopRule", "TailHopRule"]

#: Logical path of the sanctioned environment-read module.
_KNOBS_MODULE = "core/knobs.py"
#: Logical path of the key layer RPR006 inspects.
_KEYS_MODULE = "cache/keys.py"
#: Logical path of the telemetry catalog.
_POINTS_MODULE = "telemetry/points.py"


def _module_str_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings (e.g. ``HYBRID_ENV``)."""
    out: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value,
                                                       ast.Constant) \
                and isinstance(node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value.value
    return out


def _resolve_str(node: ast.AST, consts: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


def _is_os_environ(node: ast.AST) -> bool:
    """``os.environ`` (by any ``import os`` spelling — os is os)."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _env_reads(module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    """Yield ``(node, env_name)`` for every REPRO_* environment *read*:
    ``os.environ.get/getenv``, ``os.environ[...]`` loads, and registry
    accessor calls (``env_value``/``env_raw``/``env_knob``)."""
    consts = _module_str_constants(module.tree)
    for node in ast.walk(module.tree):
        name: Optional[str] = None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" \
                    and _is_os_environ(func.value) and node.args:
                name = _resolve_str(node.args[0], consts)
            elif isinstance(func, ast.Attribute) and func.attr == "getenv" \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "os" and node.args:
                name = _resolve_str(node.args[0], consts)
            elif node.args and (
                    (isinstance(func, ast.Name)
                     and func.id in ("env_value", "env_raw", "env_knob"))
                    or (isinstance(func, ast.Attribute)
                        and func.attr in ("env_value", "env_raw",
                                          "env_knob"))):
                resolved = _resolve_str(node.args[0], consts)
                if resolved is not None and resolved.startswith("REPRO_"):
                    yield node, f"registry:{resolved}"
                continue
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and _is_os_environ(node.value):
            name = _resolve_str(node.slice, consts)
        if name is not None and name.startswith("REPRO_"):
            yield node, name


def _live_env_registry() -> Dict[str, object]:
    from repro.core.knobs import ENV_KNOBS
    return dict(ENV_KNOBS)


@rule
class EnvRegistryRule(Rule):
    """RPR004: REPRO_* environment reads outside the knob registry."""

    id = "RPR004"
    name = "env-knob-registry"
    severity = Severity.ERROR
    paths = None
    rationale = (
        "A knob read straight from os.environ is invisible to the "
        "worker pool's ambient capsule audit, the cache-key "
        "completeness check (RPR006) and the docs — the exact recipe "
        "for a setting that silently stops being reproducible. Declare "
        "it in repro.core.knobs.ENV_KNOBS and read it through "
        "env_value()/env_raw().")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag REPRO_* reads that bypass (or miss) the knob registry."""
        registry = project.env_registry
        if registry is None:
            registry = _live_env_registry()
        for module in project.modules:
            for node, name in self._reads(module):
                if name.startswith("registry:"):
                    env_name = name[len("registry:"):]
                    if env_name not in registry:
                        finding = self.finding(
                            module, node,
                            f"{env_name} is read through the registry "
                            f"but never registered in "
                            f"repro.core.knobs.ENV_KNOBS")
                        if not module.suppressed(self.id, finding.line):
                            yield finding
                    continue
                if module.logical == _KNOBS_MODULE:
                    if name not in registry:
                        finding = self.finding(
                            module, node,
                            f"{name} read in the registry module but "
                            f"missing from ENV_KNOBS")
                        if not module.suppressed(self.id, finding.line):
                            yield finding
                    continue
                detail = (f"route it through repro.core.knobs.env_value()"
                          if name in registry else
                          f"register it in repro.core.knobs.ENV_KNOBS and "
                          f"read it through env_value()")
                finding = self.finding(
                    module, node,
                    f"direct os.environ read of {name} outside the knob "
                    f"registry; {detail}")
                if not module.suppressed(self.id, finding.line):
                    yield finding

    @staticmethod
    def _reads(module: ModuleContext):
        """Seam for tests: the env-read iterator for one module."""
        return _env_reads(module)


#: Method names whose first string argument names a metrics point.
_METRIC_EMITTERS = ("counter", "gauge", "_count")


def _emit_sites(module: ModuleContext) \
        -> Iterator[Tuple[ast.AST, str, str]]:
    """Yield ``(node, kind, point)`` for telemetry emits.

    ``kind`` is ``"trace"`` for ``*.post(t, "name", ...)`` call sites
    (the catalog contract applies) or ``"metric"`` for
    ``counter/gauge/_count("name")`` sites (free-form namespace, but
    they count as emits for dead-point analysis).
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "post" \
                and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            yield node, "trace", node.args[1].value
        elif node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str) \
                and ((isinstance(func, ast.Attribute)
                      and func.attr in _METRIC_EMITTERS)
                     or (isinstance(func, ast.Name)
                         and func.id in _METRIC_EMITTERS)):
            yield node, "metric", node.args[0].value


def _live_catalog() -> Dict[str, object]:
    from repro.telemetry.points import CATALOG
    return dict(CATALOG)


@rule
class TelemetryCatalogRule(Rule):
    """RPR005: trace posts off-catalog, and catalog points never emitted."""

    id = "RPR005"
    name = "telemetry-catalog"
    severity = Severity.ERROR
    paths = None
    rationale = (
        "telemetry/points.py is the contract between the instrumented "
        "layers and the exporters/docs: an undeclared trace point is "
        "invisible to the observability reference and breaks the "
        "every-posted-point-is-registered test only at runtime; a "
        "declared point emitted nowhere documents instrumentation that "
        "does not exist.")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag off-catalog trace posts and never-emitted catalog points."""
        catalog = project.telemetry_catalog
        if catalog is None:
            catalog = _live_catalog()
        emitted: Set[str] = set()
        for module in project.modules:
            for node, kind, point in _emit_sites(module):
                emitted.add(point)
                if kind == "trace" and point not in catalog:
                    finding = self.finding(
                        module, node,
                        f"trace point {point!r} is not declared in "
                        f"telemetry/points.py; add it to the catalog "
                        f"(with layer + description) before emitting")
                    if not module.suppressed(self.id, finding.line):
                        yield finding
        # Dead-point analysis is only meaningful when the scan saw the
        # whole package: a partial scan would report every point whose
        # emitter happens to live outside the scanned subtree.
        points_module = project.module(_POINTS_MODULE)
        if points_module is None or not project.covers_package:
            return
        lines = self._catalog_linenos(points_module)
        for point in sorted(set(catalog) - emitted):
            lineno = lines.get(point, 1)
            finding = Finding(
                rule=self.id, name=self.name, severity=self.severity,
                path=points_module.path, logical=points_module.logical,
                line=lineno, col=0,
                message=(f"catalog point {point!r} is emitted nowhere in "
                         f"the package; delete the entry or instrument "
                         f"the layer it documents"),
                line_text=points_module.line_text(lineno))
            if not points_module.suppressed(self.id, lineno):
                yield finding

    @staticmethod
    def _catalog_linenos(module: ModuleContext) -> Dict[str, int]:
        """First line each string constant appears on in points.py."""
        out: Dict[str, int] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and node.value not in out:
                out[node.value] = node.lineno
        return out


@rule
class CacheKeyRule(Rule):
    """RPR006: result-affecting knobs must reach the cache key."""

    id = "RPR006"
    name = "cache-key-completeness"
    severity = Severity.ERROR
    paths = None
    rationale = (
        "The result cache memoizes on (config, workload, code, chaos "
        "plan, ambient knobs). A knob that can change results but is "
        "missing from that key silently serves one mode's cached "
        "results to another — the worst reproducibility bug there is, "
        "because everything still looks deterministic.")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Check registry/key-route consistency and the stable_key fold."""
        registry = project.env_registry
        if registry is None:
            registry = _live_env_registry()
        knobs_module = project.module(_KNOBS_MODULE)
        anchor = knobs_module or project.module(_KEYS_MODULE)
        if anchor is None:
            return  # scan does not include the contract modules
        names = (self._catalog_linenos(knobs_module)
                 if knobs_module is not None else {})
        ambient_declared = False
        for name in sorted(registry):
            knob = registry[name]
            affects = getattr(knob, "affects_results", False)
            keyed_via = getattr(knob, "keyed_via", "none")
            if keyed_via == "ambient":
                ambient_declared = True
            lineno = names.get(name, 1)
            message = None
            if affects and keyed_via == "none":
                message = (f"{name} is declared result-affecting but "
                           f"keyed_via='none': its value never reaches "
                           f"stable_key, so cached results under "
                           f"different settings alias")
            elif not affects and keyed_via != "none":
                message = (f"{name} is declared result-neutral but "
                           f"keyed_via={keyed_via!r}: keying on it "
                           f"would fracture the cache for no reason")
            if message is not None:
                finding = Finding(
                    rule=self.id, name=self.name, severity=self.severity,
                    path=anchor.path, logical=anchor.logical,
                    line=lineno, col=0, message=message,
                    line_text=anchor.line_text(lineno))
                if not anchor.suppressed(self.id, lineno):
                    yield finding
        keys_module = project.module(_KEYS_MODULE)
        if keys_module is None or not ambient_declared:
            return
        if not self._stable_key_folds_ambient(keys_module):
            finding = Finding(
                rule=self.id, name=self.name, severity=self.severity,
                path=keys_module.path, logical=keys_module.logical,
                line=1, col=0,
                message=("stable_key never calls ambient_key_material() "
                         "although ambient-keyed knobs are registered; "
                         "non-default knob settings would alias cached "
                         "results"),
                line_text=keys_module.line_text(1))
            if not keys_module.suppressed(self.id, 1):
                yield finding

    @staticmethod
    def _catalog_linenos(module: ModuleContext) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and node.value not in out:
                out[node.value] = node.lineno
        return out

    @staticmethod
    def _stable_key_folds_ambient(module: ModuleContext) -> bool:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "stable_key":
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call):
                        func = inner.func
                        name = (func.id if isinstance(func, ast.Name)
                                else func.attr
                                if isinstance(func, ast.Attribute) else "")
                        if name == "ambient_key_material":
                            return True
        return False


@rule
class BroadExceptRule(Rule):
    """RPR007: bare/overbroad except on engine hot paths."""

    id = "RPR007"
    name = "broad-except"
    severity = Severity.ERROR
    paths = ("sim/", "tcp/", "net/", "hw/", "oskernel/", "cache/")
    rationale = (
        "A bare or Exception-wide handler on a hot path swallows the "
        "determinism guards (SimulationError, ProtocolError) and "
        "KeyboardInterrupt-adjacent state corruption alike, turning "
        "loud invariant violations into silently wrong results. Catch "
        "the specific exceptions the operation can raise; genuinely "
        "unbounded operations (unpickling foreign bytes) may be "
        "suppressed with a rationale.")

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag bare/Exception/BaseException handlers (tuples included)."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            label = "bare except:" if broad == "" else f"except {broad}:"
            yield self.finding(
                module, node,
                f"{label} on an engine path; catch the specific "
                f"exceptions this operation raises")

    @staticmethod
    def _broad_name(type_node: Optional[ast.AST]) -> Optional[str]:
        """"" for bare, the name for Exception/BaseException, else None."""
        if type_node is None:
            return ""
        names: List[ast.AST] = (list(type_node.elts)
                                if isinstance(type_node, ast.Tuple)
                                else [type_node])
        for name in names:
            if isinstance(name, ast.Name) \
                    and name.id in ("Exception", "BaseException"):
                return name.id
        return None


#: Event constructors whose yield inside a ``while`` makes a poll loop.
_TIMEOUT_CALLS = frozenset({"timeout", "_fast_timeout"})


def _own_nodes(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Every node under ``body`` outside nested function/class scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@rule
class PollLoopRule(Rule):
    """RPR009: a process that waits by polling on a timeout."""

    id = "RPR009"
    name = "poll-loop"
    severity = Severity.ERROR
    paths = None
    rationale = (
        "A while loop that yields a timeout to re-check a condition "
        "dispatches one event per tick whether or not anything changed, "
        "so the wait, not the model, dominates the run. Have the code "
        "that changes the state succeed an event the waiter yields "
        "(TcpReceiver.when_delivered), or use Environment.every for "
        "genuinely periodic work.")

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag while loops whose own body yields a timeout call."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.While):
                continue
            for inner in _own_nodes(node.body):
                if not (isinstance(inner, ast.Yield)
                        and isinstance(inner.value, ast.Call)):
                    continue
                called = self._call_name(inner.value)
                if called in _TIMEOUT_CALLS:
                    yield self.finding(
                        module, node,
                        f"while loop polls on {called}(); wake the waiter "
                        f"from the code that changes the state")
                    break

    @staticmethod
    def _call_name(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""


def _is_env_then(node: Optional[ast.AST]) -> bool:
    """``env.then(...)`` or ``<anything>.env.then(...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "then"):
        return False
    owner = node.func.value
    return ((isinstance(owner, ast.Name) and owner.id == "env")
            or (isinstance(owner, ast.Attribute) and owner.attr == "env"))


def _returns_nothing(stmt: ast.stmt) -> bool:
    """A bare ``return`` (or ``return None``)."""
    return isinstance(stmt, ast.Return) and (
        stmt.value is None or (isinstance(stmt.value, ast.Constant)
                               and stmt.value.value is None))


def _tail_thens(body: List[ast.stmt], tail: bool) -> Iterator[ast.Call]:
    """The ``env.then`` calls under ``body`` that end their function:
    the last statement of a block in tail position (an ``if`` passes
    its position on to both branches; a loop, ``with`` or ``try`` body
    is never in tail position), one followed by a bare ``return``, or
    the value of a ``return``."""
    for i, stmt in enumerate(body):
        if i + 1 < len(body):
            at_tail = _returns_nothing(body[i + 1])
        else:
            at_tail = tail
        if isinstance(stmt, ast.Expr) and _is_env_then(stmt.value):
            if at_tail:
                yield stmt.value
        elif isinstance(stmt, ast.Return) and _is_env_then(stmt.value):
            yield stmt.value
        elif isinstance(stmt, ast.If):
            yield from _tail_thens(stmt.body, at_tail)
            yield from _tail_thens(stmt.orelse, at_tail)
        elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            blocks = [getattr(stmt, field, None)
                      for field in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(stmt, "handlers", ())]
            for block in blocks:
                if isinstance(block, list):
                    yield from _tail_thens(block, False)


@rule
class TailHopRule(Rule):
    """RPR010: an ``env.then`` hop that is not its function's last action."""

    id = "RPR010"
    name = "then-not-tail"
    severity = Severity.ERROR
    paths = None
    rationale = (
        "Environment.then calls a zero-delay hop directly when nothing "
        "else is due now. That keeps (time, seq) order only when the "
        "hop is the last action of the entry being dispatched: work "
        "after the call would run after the hop instead of before it. "
        "The rule checks each function; the callers up to the entry "
        "must end in the call too. Use schedule_call(0.0, ...) for a "
        "hop that is not the last action.")

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag ``env.then`` calls outside their function's tail."""
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body: List[ast.AST] = list(node.body)
                tails = {id(c) for c in _tail_thens(node.body, True)}
                where = f"{node.name}()"
            elif isinstance(node, ast.Lambda):
                body = [node.body]
                tails = {id(node.body)} if _is_env_then(node.body) else set()
                where = "a lambda"
            else:
                continue
            for inner in _own_nodes(body):
                if _is_env_then(inner) and id(inner) not in tails:
                    yield self.finding(
                        module, inner,
                        f"env.then() is not the last action of {where}; "
                        f"use schedule_call(0.0, ...) for a hop that "
                        f"work follows")
