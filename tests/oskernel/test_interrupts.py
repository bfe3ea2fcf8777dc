"""Tests for interrupt moderation (the fixed coalescing delay)."""

import pytest

from repro.errors import ConfigError
from repro.oskernel.interrupts import InterruptModerator
from repro.units import us


class TestModeratorPolicy:
    def test_fixed_policy_returns_base_delay(self):
        mod = InterruptModerator(delay_s=us(5))
        mod.note_arrival()
        mod.note_arrival()
        assert mod.delay_s == us(5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            InterruptModerator(delay_s=-1)
