"""The environment-knob registry: every ``REPRO_*`` switch in one table.

:data:`ENV_KNOBS` holds one :class:`EnvKnob` per switch the runtime
reads.  Each declares its default, its parser, whether flipping it can
change simulation *results* (as opposed to only changing how fast or
how observably they are computed), and — when it can — how that
influence reaches the result-cache key.  This table is the contract
reprolint checks statically: rule RPR004 flags any ``REPRO_*``
environment read that bypasses it, and RPR006 flags any
result-affecting knob whose value never reaches
:func:`repro.cache.keys.stable_key`.

All ``os.environ`` reads of ``REPRO_*`` names live in this module
(:func:`env_raw` / :func:`env_value`); everything else imports from
here.  That single choke point is what makes "did we forget a knob in
the cache key?" a lint-time question instead of a 2 a.m. bug hunt.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigError

__all__ = ["EnvKnob", "ENV_KNOBS", "env_knob", "env_raw", "env_value",
           "ambient_key_material",
           "parse_on_flag", "parse_truthy_flag"]


#: ``keyed_via`` values: how a result-affecting knob reaches cache keys.
#: ``"ambient"`` — :func:`ambient_key_material` folds the raw value into
#: every :func:`repro.cache.keys.stable_key` when it differs from the
#: default.  ``"chaos-fingerprint"`` — covered by the active fault
#: plan's content fingerprint, which the key layer already folds in.
#: ``"none"`` — the knob cannot change results (speed/observability
#: only), so it must stay out of keys to keep them stable.
_KEYED_VIA = ("none", "ambient", "chaos-fingerprint")

#: Values meaning "off" for default-on flags (hybrid mode).
_OFF_VALUES = ("0", "off", "false", "no")
#: Values meaning "on" for default-off flags (cache activation).
_TRUTHY_VALUES = ("1", "true", "yes", "on")


def parse_on_flag(raw: Optional[str]) -> bool:
    """Default-on boolean: unset/anything-but-an-off-word means True."""
    if raw is None:
        return True
    return raw.strip().lower() not in _OFF_VALUES


def parse_truthy_flag(raw: Optional[str]) -> bool:
    """Default-off boolean: only an explicit truthy word means True."""
    if raw is None:
        return False
    return raw.strip().lower() in _TRUTHY_VALUES


def _parse_optional_str(raw: Optional[str]) -> Optional[str]:
    return raw.strip() if raw and raw.strip() else None


def _parse_optional_int(raw: Optional[str]) -> Optional[int]:
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw.strip())
    except ValueError:
        return None  # historic lenient sites (cache caps) ignore garbage


@dataclass(frozen=True)
class EnvKnob:
    """One ``REPRO_*`` environment switch.

    Attributes
    ----------
    name:
        The environment variable, e.g. ``"REPRO_HYBRID"``.
    default:
        The *parsed* value when the variable is unset.
    parse:
        ``parse(raw_or_None) -> value``.  Parsers either total (return
        the default on garbage, matching historic lenient sites) or
        raise ``ValueError`` for call sites that map it to a typed
        error.
    affects_results:
        True when flipping the knob can change simulation *results* —
        not just wall time, telemetry or where files land.
    keyed_via:
        How a result-affecting value reaches cache keys (see
        ``_KEYED_VIA``).  Lint rule RPR006 enforces consistency.
    description:
        One line for the docs table.
    """

    name: str
    default: Any
    parse: Callable[[Optional[str]], Any]
    affects_results: bool
    keyed_via: str
    description: str

    def __post_init__(self) -> None:
        if self.keyed_via not in _KEYED_VIA:
            raise ConfigError(
                f"{self.name}: keyed_via must be one of {_KEYED_VIA}, "
                f"got {self.keyed_via!r}")


ENV_KNOBS: Dict[str, EnvKnob] = {}


def _register_env(name: str, default: Any,
                  parse: Callable[[Optional[str]], Any],
                  affects_results: bool, keyed_via: str,
                  description: str) -> None:
    ENV_KNOBS[name] = EnvKnob(name=name, default=default, parse=parse,
                              affects_results=affects_results,
                              keyed_via=keyed_via, description=description)


_register_env(
    "REPRO_JOBS", None, _parse_optional_str,
    affects_results=False, keyed_via="none",
    description="Default sweep parallelism ('auto' = one per core); "
                "serial and parallel runs are bit-identical by "
                "contract.")
_register_env(
    "REPRO_CACHE", False, parse_truthy_flag,
    affects_results=False, keyed_via="none",
    description="Enable the on-disk result cache process-wide; a hit "
                "returns the bit-identical stored result.")
_register_env(
    "REPRO_CACHE_DIR", None, _parse_optional_str,
    affects_results=False, keyed_via="none",
    description="Result-cache location (default ./.repro-cache).")
_register_env(
    "REPRO_CACHE_MAX_BYTES", None, _parse_optional_int,
    affects_results=False, keyed_via="none",
    description="On-disk cache cap; exceeding it evicts LRU entries.")
_register_env(
    "REPRO_CODE_FINGERPRINT", None, _parse_optional_str,
    affects_results=False, keyed_via="none",
    description="Override the computed source fingerprint (tests, "
                "pinned deployments); it is itself cache-key material.")
_register_env(
    "REPRO_CHAOS", None, _parse_optional_str,
    affects_results=True, keyed_via="chaos-fingerprint",
    description="Fault-plan JSON to auto-load; keyed by the plan's "
                "content fingerprint, which stable_key already folds "
                "into every key when a non-empty plan is active.")
_register_env(
    "REPRO_HYBRID", True, parse_on_flag,
    affects_results=True, keyed_via="ambient",
    description="Permit the hybrid fluid+DES fabric mode (default on); "
                "hybrid and all-DES results legitimately differ under "
                "background load, so the setting must reach cache "
                "keys.")
_register_env(
    "REPRO_SERVE_HOLD", None, _parse_optional_str,
    affects_results=False, keyed_via="none",
    description="Keep the replay-dashboard server in the foreground "
                "after a CLI run (unset falls back to 'is stdin a "
                "tty'; any value but 0/empty holds).")


def env_knob(name: str) -> EnvKnob:
    """Lookup an environment knob by variable name."""
    try:
        return ENV_KNOBS[name]
    except KeyError:
        raise ConfigError(
            f"unknown environment knob {name!r}; register it in "
            f"repro.core.knobs before reading it "
            f"(known: {sorted(ENV_KNOBS)})") from None


def env_raw(name: str) -> Optional[str]:
    """The raw environment value of a *registered* knob (or None).

    The one sanctioned ``os.environ`` read for ``REPRO_*`` names —
    reprolint rule RPR004 flags reads anywhere else.
    """
    env_knob(name)  # unregistered name -> ConfigError
    return os.environ.get(name)


def env_value(name: str) -> Any:
    """The parsed value of a registered knob (default when unset)."""
    knob_ = env_knob(name)
    raw = os.environ.get(name)
    if raw is None:
        return knob_.default
    return knob_.parse(raw)


def ambient_key_material() -> Dict[str, str]:
    """Raw values of ambient-keyed knobs that differ from their default.

    :func:`repro.cache.keys.stable_key` folds this mapping into every
    key, so results computed under a non-default ambient knob (say
    ``REPRO_HYBRID=0`` forcing all-DES) can never alias results
    computed under the default.  At defaults the mapping is empty and
    keys are byte-identical to builds that predate it.

    Unparseable values are included verbatim rather than raised on:
    key derivation must never crash an unrelated lookup, and a
    different raw string producing a different key is exactly the
    conservative behaviour we want.
    """
    material: Dict[str, str] = {}
    for name in sorted(ENV_KNOBS):
        knob_ = ENV_KNOBS[name]
        if knob_.keyed_via != "ambient":
            continue
        raw = os.environ.get(name)
        if raw is None:
            continue
        try:
            if knob_.parse(raw) == knob_.default:
                continue
        except (ValueError, TypeError):
            pass  # garbage: keep it in the key material verbatim
        material[name] = raw
    return material
