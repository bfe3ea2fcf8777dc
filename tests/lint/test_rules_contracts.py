"""Per-rule fixtures for the contract rules (RPR004/005/006/007).

The contract tables (knob registry, telemetry catalog) are injected as
fixtures through ``lint_paths(env_registry=..., telemetry_catalog=...)``
so these tests pin rule behaviour independently of the live tables.
"""

from types import SimpleNamespace

import pytest

from tests.lint.support import (lint_file, lint_tree, rules_fired,
                                suppress_line, write_module)


def knob(affects_results=False, keyed_via="none"):
    return SimpleNamespace(affects_results=affects_results,
                           keyed_via=keyed_via)


REGISTRY = {
    "REPRO_TRAIN": knob(),
    "REPRO_HYBRID": knob(affects_results=True, keyed_via="ambient"),
}


# ---------------------------------------------------------------------------
# RPR004 env reads outside the knob registry
# ---------------------------------------------------------------------------

def test_rpr004_flags_unregistered_direct_read(tmp_path):
    result = lint_file(tmp_path, "sim/fixture.py", """
        import os
        value = os.environ.get("REPRO_MYSTERY")
        """, select=["RPR004"], env_registry=REGISTRY)
    assert rules_fired(result) == {"RPR004"}
    assert "register it" in result.findings[0].message


def test_rpr004_flags_registered_but_direct_read(tmp_path):
    # Registered knobs must still be read through env_value()/env_raw().
    result = lint_file(tmp_path, "sim/fixture.py", """
        import os
        value = os.environ.get("REPRO_TRAIN")
        """, select=["RPR004"], env_registry=REGISTRY)
    assert rules_fired(result) == {"RPR004"}
    assert "route it through" in result.findings[0].message


@pytest.mark.parametrize("read", [
    'os.getenv("REPRO_MYSTERY")',
    'os.environ["REPRO_MYSTERY"]',
])
def test_rpr004_covers_every_read_spelling(tmp_path, read):
    result = lint_file(tmp_path, "sim/fixture.py",
                       f"import os\nvalue = {read}\n",
                       select=["RPR004"], env_registry=REGISTRY)
    assert rules_fired(result) == {"RPR004"}, read


def test_rpr004_resolves_module_constants(tmp_path):
    result = lint_file(tmp_path, "net/fixture.py", """
        import os
        MY_ENV = "REPRO_MYSTERY"
        value = os.environ.get(MY_ENV)
        """, select=["RPR004"], env_registry=REGISTRY)
    assert rules_fired(result) == {"RPR004"}


def test_rpr004_flags_unregistered_registry_accessor(tmp_path):
    result = lint_file(tmp_path, "sim/fixture.py", """
        from repro.core.knobs import env_value
        value = env_value("REPRO_MYSTERY")
        """, select=["RPR004"], env_registry=REGISTRY)
    assert rules_fired(result) == {"RPR004"}
    assert "never registered" in result.findings[0].message


def test_rpr004_accepts_registered_accessor_read(tmp_path):
    result = lint_file(tmp_path, "sim/fixture.py", """
        from repro.core.knobs import env_value
        value = env_value("REPRO_TRAIN")
        """, select=["RPR004"], env_registry=REGISTRY)
    assert result.ok, result.findings


def test_rpr004_knobs_module_is_the_sanctioned_reader(tmp_path):
    # os.environ reads of *registered* names are legal only in
    # core/knobs.py; an unregistered read there is still flagged.
    clean = lint_file(tmp_path, "core/knobs.py", """
        import os
        raw = os.environ.get("REPRO_TRAIN")
        """, select=["RPR004"], env_registry=REGISTRY)
    assert clean.ok, clean.findings
    dirty = lint_file(tmp_path, "core/knobs2.py", "", select=["RPR004"],
                      env_registry=REGISTRY)
    assert dirty.ok
    missing = lint_file(tmp_path, "core/knobs.py", """
        import os
        raw = os.environ.get("REPRO_MYSTERY")
        """, select=["RPR004"], env_registry=REGISTRY)
    assert rules_fired(missing) == {"RPR004"}
    assert "missing from ENV_KNOBS" in missing.findings[0].message


def test_rpr004_ignores_non_repro_names_and_writes(tmp_path):
    result = lint_file(tmp_path, "sim/fixture.py", """
        import os
        home = os.environ.get("HOME")
        os.environ["REPRO_CODE_FINGERPRINT"] = "abc"
        """, select=["RPR004"], env_registry=REGISTRY)
    assert result.ok, result.findings


def test_rpr004_suppression(tmp_path):
    source = suppress_line(
        'import os\nvalue = os.environ.get("REPRO_MYSTERY")\n',
        "REPRO_MYSTERY", "RPR004", "bootstrap read")
    result = lint_file(tmp_path, "sim/fixture.py", source,
                       select=["RPR004"], env_registry=REGISTRY)
    assert result.ok, result.findings


# ---------------------------------------------------------------------------
# RPR005 telemetry catalog
# ---------------------------------------------------------------------------

CATALOG = {"tcp.cwnd": object(), "nic.tx": object()}


def test_rpr005_flags_off_catalog_trace_post(tmp_path):
    result = lint_file(tmp_path, "tcp/fixture.py", """
        def instrument(trace, now):
            trace.post(now, "tcp.bogus", {})
        """, select=["RPR005"], telemetry_catalog=CATALOG)
    assert rules_fired(result) == {"RPR005"}
    assert "tcp.bogus" in result.findings[0].message


def test_rpr005_accepts_cataloged_trace_post(tmp_path):
    result = lint_file(tmp_path, "tcp/fixture.py", """
        def instrument(trace, now):
            trace.post(now, "tcp.cwnd", {})
        """, select=["RPR005"], telemetry_catalog=CATALOG)
    assert result.ok, result.findings


def test_rpr005_metric_names_are_free_form(tmp_path):
    result = lint_file(tmp_path, "cache/fixture.py", """
        def account(metrics):
            metrics.counter("cache.anything").inc()
            metrics.gauge("cache.bytes").set(0)
        """, select=["RPR005"], telemetry_catalog=CATALOG)
    assert result.ok, result.findings


def test_rpr005_dead_point_needs_package_coverage(tmp_path):
    write_module(tmp_path, "telemetry/points.py",
                 '"""Catalog."""\n_POINTS = ("tcp.cwnd", "nic.tx")\n')
    write_module(tmp_path, "tcp/emit.py", """
        def instrument(trace, now):
            trace.post(now, "tcp.cwnd", {})
        """)
    # Whole-package scan: "nic.tx" is declared but never emitted.
    covered = lint_tree(tmp_path, select=["RPR005"],
                        telemetry_catalog=CATALOG)
    assert rules_fired(covered) == {"RPR005"}
    [finding] = covered.findings
    assert "nic.tx" in finding.message
    assert finding.logical == "telemetry/points.py"
    assert "nic.tx" in finding.line_text  # anchored at the declaration
    # Partial scan (one file): dead-point analysis must stay silent —
    # the emitter may simply live outside the scanned subtree.
    partial = lint_file(tmp_path, "telemetry/points2.py", "x = 1\n",
                        select=["RPR005"], telemetry_catalog=CATALOG)
    assert partial.ok


def test_rpr005_suppression_on_trace_post(tmp_path):
    source = suppress_line(
        'def f(trace, now):\n    trace.post(now, "tcp.bogus", {})\n',
        "tcp.bogus", "RPR005", "experimental point")
    result = lint_file(tmp_path, "tcp/fixture.py", source,
                       select=["RPR005"], telemetry_catalog=CATALOG)
    assert result.ok, result.findings


# ---------------------------------------------------------------------------
# RPR006 cache-key completeness
# ---------------------------------------------------------------------------

KNOBS_FIXTURE = """
    ENV_KNOBS = {}
    NAMES = ("REPRO_TRAIN", "REPRO_HYBRID", "REPRO_EVIL")
    """

KEYS_WITH_AMBIENT = """
    def ambient_key_material():
        return {}

    def stable_key(*parts):
        ambient = ambient_key_material()
        return str((parts, ambient))
    """

KEYS_WITHOUT_AMBIENT = """
    def stable_key(*parts):
        return str(parts)
    """


def test_rpr006_flags_result_affecting_knob_not_keyed(tmp_path):
    write_module(tmp_path, "core/knobs.py", KNOBS_FIXTURE)
    write_module(tmp_path, "cache/keys.py", KEYS_WITH_AMBIENT)
    registry = dict(REGISTRY)
    registry["REPRO_EVIL"] = knob(affects_results=True, keyed_via="none")
    result = lint_tree(tmp_path, select=["RPR006"], env_registry=registry)
    assert rules_fired(result) == {"RPR006"}
    [finding] = result.findings
    assert "REPRO_EVIL" in finding.message
    assert "alias" in finding.message
    assert "REPRO_EVIL" in finding.line_text  # anchored at the declaration


def test_rpr006_flags_result_neutral_knob_that_is_keyed(tmp_path):
    write_module(tmp_path, "core/knobs.py", KNOBS_FIXTURE)
    write_module(tmp_path, "cache/keys.py", KEYS_WITH_AMBIENT)
    registry = dict(REGISTRY)
    registry["REPRO_EVIL"] = knob(affects_results=False,
                                  keyed_via="ambient")
    result = lint_tree(tmp_path, select=["RPR006"], env_registry=registry)
    assert rules_fired(result) == {"RPR006"}
    assert "fracture" in result.findings[0].message


def test_rpr006_flags_stable_key_that_ignores_ambient_knobs(tmp_path):
    write_module(tmp_path, "core/knobs.py", KNOBS_FIXTURE)
    write_module(tmp_path, "cache/keys.py", KEYS_WITHOUT_AMBIENT)
    result = lint_tree(tmp_path, select=["RPR006"], env_registry=REGISTRY)
    assert rules_fired(result) == {"RPR006"}
    [finding] = result.findings
    assert finding.logical == "cache/keys.py"
    assert "ambient_key_material" in finding.message


def test_rpr006_clean_when_contract_holds(tmp_path):
    write_module(tmp_path, "core/knobs.py", KNOBS_FIXTURE)
    write_module(tmp_path, "cache/keys.py", KEYS_WITH_AMBIENT)
    result = lint_tree(tmp_path, select=["RPR006"], env_registry=REGISTRY)
    assert result.ok, result.findings


def test_rpr006_silent_without_contract_modules(tmp_path):
    # A scan that never saw knobs.py/keys.py has nothing to anchor to.
    result = lint_file(tmp_path, "sim/fixture.py", "x = 1\n",
                       select=["RPR006"], env_registry=REGISTRY)
    assert result.ok


def test_rpr006_suppression_at_declaration(tmp_path):
    source = suppress_line(KNOBS_FIXTURE, "REPRO_EVIL", "RPR006",
                           "keyed out-of-band")
    write_module(tmp_path, "core/knobs.py", source)
    write_module(tmp_path, "cache/keys.py", KEYS_WITH_AMBIENT)
    registry = dict(REGISTRY)
    registry["REPRO_EVIL"] = knob(affects_results=True, keyed_via="none")
    result = lint_tree(tmp_path, select=["RPR006"], env_registry=registry)
    assert result.ok, result.findings


# ---------------------------------------------------------------------------
# RPR007 broad excepts on engine paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("handler", ["except Exception:",
                                     "except BaseException:",
                                     "except:",
                                     "except (ValueError, Exception):"])
def test_rpr007_fires(tmp_path, handler):
    source = f"try:\n    pass\n{handler}\n    pass\n"
    result = lint_file(tmp_path, "sim/fixture.py", source,
                       select=["RPR007"])
    assert rules_fired(result) == {"RPR007"}, handler


@pytest.mark.parametrize("handler", ["except ValueError:",
                                     "except (KeyError, OSError):"])
def test_rpr007_stays_quiet_on_specific_handlers(tmp_path, handler):
    source = f"try:\n    pass\n{handler}\n    pass\n"
    result = lint_file(tmp_path, "sim/fixture.py", source,
                       select=["RPR007"])
    assert result.ok, result.findings


def test_rpr007_scoped_to_engine_paths(tmp_path):
    source = "try:\n    pass\nexcept Exception:\n    pass\n"
    result = lint_file(tmp_path, "analysis/fixture.py", source,
                       select=["RPR007"])
    assert result.ok


def test_rpr007_suppression(tmp_path):
    source = suppress_line(
        "try:\n    pass\nexcept Exception:\n    pass\n",
        "except Exception:", "RPR007", "unpickling foreign bytes")
    result = lint_file(tmp_path, "cache/fixture.py", source,
                       select=["RPR007"])
    assert result.ok
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RPR009 poll loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("snippet", [
    # the two loops event-driven delivery waits replaced
    "def wait(env, rx, n):\n"
    "    while rx.bytes_delivered < n:\n"
    "        yield env._fast_timeout(1e-4)\n",
    "def recv(env, rx, cursor):\n"
    "    while rx.bytes_delivered <= cursor:\n"
    "        yield env.timeout(1e-4)\n",
    # nested under an if, bare name, value bound by the yield
    "def wait(ready, timeout):\n"
    "    while True:\n"
    "        if not ready():\n"
    "            _ = yield timeout(0.5)\n",
])
def test_rpr009_fires(tmp_path, snippet):
    result = lint_file(tmp_path, "tools/fixture.py", snippet,
                       select=["RPR009"])
    assert rules_fired(result) == {"RPR009"}, snippet
    assert len(result.findings) == 1


@pytest.mark.parametrize("snippet", [
    # one wait on an event the producer succeeds
    "def wait(rx, n):\n"
    "    wake = rx.when_delivered(n, 1e-4)\n"
    "    if wake is not None:\n"
    "        yield wake\n",
    # a loop that yields other events (a write per chunk)
    "def send(conn, n):\n"
    "    while n > 0:\n"
    "        yield conn.write_event(n)\n"
    "        n -= 1\n",
    # a timeout in a loop that does not yield it
    "def grid(t, step, now):\n"
    "    while t <= now:\n"
    "        t = t + step\n"
    "    return t\n",
    # a timeout yielded inside a function nested in the loop body
    "def outer(env, items):\n"
    "    while items:\n"
    "        def proc():\n"
    "            yield env.timeout(1.0)\n"
    "        env.process(proc())\n"
    "        items.pop()\n",
])
def test_rpr009_stays_quiet(tmp_path, snippet):
    result = lint_file(tmp_path, "tools/fixture.py", snippet,
                       select=["RPR009"])
    assert result.ok, result.findings


def test_rpr009_suppression(tmp_path):
    source = suppress_line(
        "def wait(env, rx, n):\n"
        "    while rx.bytes_delivered < n:\n"
        "        yield env.timeout(1e-4)\n",
        "while rx", "RPR009", "fixture")
    result = lint_file(tmp_path, "tcp/fixture.py", source,
                       select=["RPR009"])
    assert result.ok
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RPR010 env.then outside tail position
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("snippet", [
    # work follows the hop
    "def on_frame(self, skb):\n"
    "    self.env.then(self._charge, skb)\n"
    "    self.count += 1\n",
    # a hop per item of a loop
    "def deliver(env, handler, batch):\n"
    "    for skb in batch:\n"
    "        env.then(handler, skb)\n",
    # the hop ends its branch, but the function goes on after the if
    "def kick(self):\n"
    "    if self.idle:\n"
    "        self.env.then(self._start)\n"
    "    self.kicks += 1\n",
    # inside with: the context exit runs after the hop
    "def service(self, lock, skb):\n"
    "    with lock:\n"
    "        self.env.then(self._serve, skb)\n",
    # as an argument
    "def wrap(env, log, fn):\n"
    "    log.append(env.then(fn))\n",
    # a lambda whose hop is not its whole body
    "HOP = lambda env, fn: [env.then(fn)]\n",
])
def test_rpr010_fires(tmp_path, snippet):
    result = lint_file(tmp_path, "tcp/fixture.py", snippet,
                       select=["RPR010"])
    assert rules_fired(result) == {"RPR010"}, snippet
    assert len(result.findings) == 1


@pytest.mark.parametrize("snippet", [
    # the last statement
    "def start_drain(self, skb):\n"
    "    self.env.then(self._drain_charge, skb)\n",
    # the last statement of each branch of a trailing if/else
    "def enqueue(self, skb):\n"
    "    if self.busy:\n"
    "        self.backlog.append(skb)\n"
    "    else:\n"
    "        self.busy = True\n"
    "        self.env.then(self._service, skb)\n",
    "def done(self):\n"
    "    if self.backlog:\n"
    "        self.env.then(self._begin, self.backlog.popleft())\n"
    "    elif self.idle:\n"
    "        self.env.then(self._idle)\n",
    # followed by a bare return, even inside a loop
    "def first(env, items, fn):\n"
    "    for item in items:\n"
    "        if item:\n"
    "            env.then(fn, item)\n"
    "            return\n"
    "    env.then(fn, None)\n",
    # returned, and a lambda whose body is the hop
    "def hop(env, fn):\n"
    "    return env.then(fn)\n",
    "HOP = lambda env, fn: env.then(fn)\n",
    # a promise-style .then on something that is not an environment
    "def chain(future, fn):\n"
    "    future.then(fn)\n"
    "    return future\n",
    # the nested function's hop is its own tail
    "def outer(env, fn):\n"
    "    def inner():\n"
    "        env.then(fn)\n"
    "    env.schedule_call(1.0, inner)\n"
    "    return inner\n",
])
def test_rpr010_stays_quiet(tmp_path, snippet):
    result = lint_file(tmp_path, "tcp/fixture.py", snippet,
                       select=["RPR010"])
    assert result.ok, result.findings


def test_rpr010_suppression(tmp_path):
    source = suppress_line(
        "def on_frame(self, skb):\n"
        "    self.env.then(self._charge, skb)\n"
        "    self.count += 1\n",
        "env.then", "RPR010", "fixture")
    result = lint_file(tmp_path, "hw/fixture.py", source,
                       select=["RPR010"])
    assert result.ok
    assert result.suppressed == 1
