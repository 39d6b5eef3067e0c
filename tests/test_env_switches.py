"""The boolean ``REPRO_*`` switches share one spelling rule: surrounding
whitespace and case are ignored, ``0`` / ``false`` / ``no`` / ``off``
mean off, and an unset switch keeps its default."""

import pytest

from repro.codegen import enabled as codegen_enabled
from repro.interp.interpreter import comm_cache_enabled
from repro.interp.vectorize import enabled as vectorize_enabled
from repro.obs.metrics import metrics_enabled

#: (variable, reader, default when unset)
SWITCHES = [
    ("REPRO_CODEGEN", codegen_enabled, True),
    ("REPRO_VECTORIZE", vectorize_enabled, True),
    ("REPRO_COMM_CACHE", comm_cache_enabled, True),
    ("REPRO_METRICS", metrics_enabled, False),
]


@pytest.mark.parametrize("var,read,default", SWITCHES,
                         ids=[s[0] for s in SWITCHES])
def test_boolean_switch_spellings(monkeypatch, var, read, default):
    for value in ("0", " 0", "0 ", "off", " OFF ", "No", "false"):
        monkeypatch.setenv(var, value)
        assert read(None) is False, repr(value)
    monkeypatch.delenv(var, raising=False)
    assert read(None) is default
    for value in ("1", "yes"):
        monkeypatch.setenv(var, value)
        assert read(None) is True, repr(value)
