"""Stable cache keys: canonical hashing of configs, tasks and code.

Every memoized result is a pure function of (tuning configuration,
topology/workload parameters, code), so the key layer reduces arbitrary
nested inputs — dataclasses, dicts, numpy arrays, floats — to one
deterministic SHA-256.  The semantics here are *frozen*: any change to
:func:`stable_key` or :func:`_canon` silently invalidates every cache
in the wild, so new key ingredients (like the chaos plan fingerprint)
are folded in additively and only when active.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Dict, Optional

from repro.chaos.hooks import active_plan_fingerprint
from repro.core import knobs

__all__ = ["ambient_key_material", "code_fingerprint", "default_cache_dir",
           "stable_key"]


def default_cache_dir() -> pathlib.Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    env = knobs.env_value("REPRO_CACHE_DIR")
    return pathlib.Path(env) if env else pathlib.Path.cwd() / ".repro-cache"


def ambient_key_material() -> Dict[str, str]:
    """Raw non-default values of every ambient-keyed environment knob.

    Delegates to :func:`repro.core.knobs.ambient_key_material`; lives
    here too so the key layer owns one complete list of its
    ingredients (config + code fingerprint + chaos fingerprint +
    ambient knobs) and so lint rule RPR006 can check the wiring
    statically.
    """
    return knobs.ambient_key_material()


# ---------------------------------------------------------------------------
# Code fingerprint
# ---------------------------------------------------------------------------

_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + content).

    Part of every cache key: cached results survive edits *outside* the
    package (docs, tests, notebooks) but any change to the simulator
    itself misses the cache.  Computed once per process; the persistent
    worker pool ships the parent's value into workers via
    ``REPRO_CODE_FINGERPRINT`` so no worker ever repeats the source
    walk.
    """
    override = knobs.env_value("REPRO_CODE_FINGERPRINT")
    if override:
        return override
    global _fingerprint
    if _fingerprint is None:
        import repro

        pkg = pathlib.Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(pkg.rglob("*.py")):
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint


# ---------------------------------------------------------------------------
# Stable keys
# ---------------------------------------------------------------------------

def _canon(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable primitives, deterministically."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; avoids json float formatting drift
        return f"f:{obj!r}"
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                f.name: _canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {"__dict__": sorted(
            (json.dumps(_canon(k), sort_keys=True), _canon(v))
            for k, v in obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(
            json.dumps(_canon(v), sort_keys=True) for v in obj)}
    tolist = getattr(obj, "tolist", None)  # numpy arrays and scalars
    if callable(tolist):
        return {"__array__": _canon(tolist())}
    return {"__repr__": f"{type(obj).__module__}.{type(obj).__qualname__}:"
                        f"{obj!r}"}


def stable_key(*parts: Any) -> str:
    """A stable hex key for a tuple of (nested) inputs.

    Dataclasses (``TuningConfig``, ``HostSpec``, ``Calibration``, ...)
    hash by type + field values, so changing *any* field produces a
    different key.

    When a non-empty chaos fault plan is active its fingerprint is
    folded into every key, so results computed under fault injection can
    never alias clean results (or results under a different plan).  With
    no plan — or an empty one, which cannot affect results — the keys
    are byte-identical to a chaos-free build.

    Result-affecting environment knobs (the ``keyed_via="ambient"``
    rows of :data:`repro.core.knobs.ENV_KNOBS` — hybrid-mode gating and
    the coupling tick) fold in the same additive way: only when set to
    a non-default value.  Before this, ``REPRO_HYBRID=0`` (forced
    all-DES) could alias a cached hybrid-mode result under the same
    key; reprolint rule RPR006 now guards the completeness of that
    material statically.
    """
    canon_parts = [_canon(p) for p in parts]
    chaos_fp = active_plan_fingerprint()
    if chaos_fp is not None:
        canon_parts.append({"__chaos__": chaos_fp})
    ambient = ambient_key_material()
    if ambient:
        canon_parts.append({"__ambient__": ambient})
    canon = json.dumps(canon_parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
