"""Tests for the switch that turns forking off."""

from repro.parallel import FORCE_SERIAL_ENV, force_serial, fork_available


class TestEffectiveWorkers:
    def test_force_serial_context(self):
        with force_serial():
            assert not fork_available()

    def test_force_serial_env(self, monkeypatch):
        monkeypatch.setenv(FORCE_SERIAL_ENV, "1")
        assert not fork_available()
