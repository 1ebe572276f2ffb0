"""``REPRO_*`` environment knobs parse loudly.

:mod:`repro.common.config` reads every knob once, at import, so each
case sets the variable, reloads the module, and reloads it again after
the variable is restored — later tests see the real defaults.
"""

from __future__ import annotations

import importlib

import pytest

from repro.common import config
from repro.common.errors import InvalidEnvVar, ReproError
from repro.execution import ExecutorSelector


@pytest.fixture
def reload_with(monkeypatch):
    """Reload ``config`` under ``name=value``; restore both on exit."""

    def reload(name: str, value: str):
        monkeypatch.setenv(name, value)
        return importlib.reload(config)

    yield reload
    monkeypatch.undo()
    importlib.reload(config)


@pytest.mark.parametrize(
    "value,expected",
    [
        ("1", True), ("true", True), (" YES ", True), ("On", True),
        ("0", False), ("false", False), ("No", False), (" off", False),
        ("", False), ("  ", False),  # blank keeps the default (workset off)
    ],
)
def test_flag_words(reload_with, value, expected):
    assert reload_with("REPRO_WORKSET", value).DEFAULT_WORKSET is expected


@pytest.mark.parametrize("name", ["REPRO_WORKSET"])
@pytest.mark.parametrize("value", ["disabled", "disable", "nope", "2", "y"])
def test_unknown_flag_word_raises(reload_with, name, value):
    with pytest.raises(InvalidEnvVar) as excinfo:
        reload_with(name, value)
    assert excinfo.value.name == name
    assert excinfo.value.value == value
    assert name in str(excinfo.value) and repr(value) in str(excinfo.value)


@pytest.mark.parametrize(
    "name,value",
    [
        ("REPRO_SHARDS", "four"),
        ("REPRO_TASK_RETRIES", "2.5"),
        ("REPRO_MAX_WORKERS", "many"),
        ("REPRO_CHAOS_SEED", "0x1f"),
        ("REPRO_SERVING_TIMEOUT", "1s"),
        ("REPRO_CHAOS_RATE", "7"),
        ("REPRO_CHAOS_RATE", "-0.1"),
        ("REPRO_CHAOS_RATE", "nan"),
    ],
)
def test_unparsable_number_raises(reload_with, name, value):
    with pytest.raises(InvalidEnvVar, match=name) as excinfo:
        reload_with(name, value)
    assert excinfo.value.value == value
    # Typed, but still a ValueError for callers that catch the builtin.
    assert isinstance(excinfo.value, ReproError)
    assert isinstance(excinfo.value, ValueError)


def test_numbers_parse_with_whitespace(reload_with):
    assert reload_with("REPRO_SHARDS", " 3 ").DEFAULT_NUM_SHARDS == 3
    assert reload_with("REPRO_SERVING_TIMEOUT", "1.5").DEFAULT_SERVING_TIMEOUT_S == 1.5
    assert reload_with("REPRO_CHAOS_RATE", "1").CHAOS_RATE == 1.0
    assert reload_with("REPRO_CHAOS_RATE", "0").CHAOS_RATE == 0.0


def test_blank_executor_keeps_the_default(reload_with):
    assert reload_with("REPRO_EXECUTOR", "").DEFAULT_EXECUTOR == "serial"
    selector = ExecutorSelector()
    assert selector.get(None, None).name == "serial"
    selector.close()


def test_executor_name_is_stripped(reload_with):
    assert reload_with("REPRO_EXECUTOR", " process ").DEFAULT_EXECUTOR == "process"


@pytest.mark.parametrize("word", ["bogus", "processes"])
def test_unknown_executor_raises_at_import(reload_with, word):
    # The environment takes only the canonical names; the ``threads`` /
    # ``processes`` aliases stay a per-job spelling (``JobConf.executor``).
    with pytest.raises(InvalidEnvVar, match="REPRO_EXECUTOR") as excinfo:
        reload_with("REPRO_EXECUTOR", word)
    assert excinfo.value.value == word
    for name in config.EXECUTOR_NAMES:
        assert name in str(excinfo.value)


def test_restored_env_restores_defaults(monkeypatch):
    before = config.CHAOS_RATE
    monkeypatch.setenv("REPRO_CHAOS_RATE", "0.5")
    assert importlib.reload(config).CHAOS_RATE == 0.5
    monkeypatch.undo()
    assert importlib.reload(config).CHAOS_RATE == before
