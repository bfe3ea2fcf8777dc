"""The environment-knob registry and its cache-key contract.

The headline property: a non-default result-affecting knob
(``REPRO_HYBRID=0`` forcing all-DES fabric paths) must change
``stable_key`` so hybrid and forced-DES results can never alias in the
cache — while leaving keys byte-identical at defaults so every
pre-existing cache entry stays valid.
"""

import pytest

from repro.cache import stable_key
from repro.core.knobs import (ENV_KNOBS, ambient_key_material, env_knob,
                              env_raw, env_value, parse_on_flag,
                              parse_truthy_flag)
from repro.errors import ConfigError


def test_registry_covers_the_runtime_switches():
    expected = {
        "REPRO_JOBS", "REPRO_POOL_CHUNK", "REPRO_CACHE",
        "REPRO_CACHE_DIR", "REPRO_CACHE_MAX_BYTES",
        "REPRO_CACHE_HOT_ENTRIES", "REPRO_CACHE_HOT_BYTES",
        "REPRO_CODE_FINGERPRINT", "REPRO_CHAOS", "REPRO_HYBRID",
        "REPRO_HYBRID_TICK", "REPRO_STREAM_TICK", "REPRO_SERVE_HOLD",
    }
    assert set(ENV_KNOBS) == expected


def test_every_knob_declares_a_consistent_key_route():
    for name, knob in ENV_KNOBS.items():
        if knob.affects_results:
            assert knob.keyed_via != "none", name
        else:
            assert knob.keyed_via == "none", name
        assert knob.description, name


def test_unknown_knob_is_a_config_error():
    with pytest.raises(ConfigError, match="REPRO_NOPE"):
        env_knob("REPRO_NOPE")
    with pytest.raises(ConfigError):
        env_value("REPRO_NOPE")
    with pytest.raises(ConfigError):
        env_raw("REPRO_NOPE")


def test_flag_parsers():
    assert parse_on_flag(None) is True
    assert parse_on_flag("1") is True
    for off in ("0", "off", "OFF", "false", "no"):
        assert parse_on_flag(off) is False, off
    assert parse_truthy_flag(None) is False
    assert parse_truthy_flag("0") is False
    for on in ("1", "true", "YES", "on"):
        assert parse_truthy_flag(on) is True, on


def test_env_value_parses_and_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_HYBRID", raising=False)
    assert env_value("REPRO_HYBRID") is True
    monkeypatch.setenv("REPRO_HYBRID", "off")
    assert env_value("REPRO_HYBRID") is False
    monkeypatch.setenv("REPRO_POOL_CHUNK", "7")
    assert env_value("REPRO_POOL_CHUNK") == 7
    monkeypatch.setenv("REPRO_POOL_CHUNK", "junk")  # historic leniency
    assert env_value("REPRO_POOL_CHUNK") is None


# ---------------------------------------------------------------------------
# Ambient key material -> stable_key
# ---------------------------------------------------------------------------

@pytest.fixture
def ambient_defaults(monkeypatch):
    for name in ("REPRO_HYBRID", "REPRO_HYBRID_TICK"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_ambient_material_empty_at_defaults(ambient_defaults):
    assert ambient_key_material() == {}


def test_ambient_material_ignores_default_equivalent_values(
        ambient_defaults):
    # "1" parses to True == the default, so it must stay out of keys:
    # explicitly asking for the default is not a different experiment.
    ambient_defaults.setenv("REPRO_HYBRID", "1")
    assert ambient_key_material() == {}


def test_ambient_material_captures_non_defaults(ambient_defaults):
    ambient_defaults.setenv("REPRO_HYBRID", "0")
    ambient_defaults.setenv("REPRO_HYBRID_TICK", "0.002")
    assert ambient_key_material() == {"REPRO_HYBRID": "0",
                                      "REPRO_HYBRID_TICK": "0.002"}


def test_ambient_material_keeps_garbage_verbatim(ambient_defaults):
    # Key derivation must never crash; an unparseable value still keys
    # differently from the default, which is the conservative choice.
    ambient_defaults.setenv("REPRO_HYBRID_TICK", "not-a-float")
    assert ambient_key_material() == {"REPRO_HYBRID_TICK": "not-a-float"}


def test_stable_key_distinguishes_hybrid_modes(ambient_defaults):
    # The bug this registry exists to prevent: REPRO_HYBRID=0 changes
    # fabric results, so it must change cache keys too.
    default_key = stable_key("fabric-point", 42)
    ambient_defaults.setenv("REPRO_HYBRID", "0")
    forced_des_key = stable_key("fabric-point", 42)
    assert default_key != forced_des_key
    # Restoring defaults restores the original key (cache stays warm).
    ambient_defaults.delenv("REPRO_HYBRID")
    assert stable_key("fabric-point", 42) == default_key
