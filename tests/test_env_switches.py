"""The ``REPRO_*`` variables are read in one place, by one set of rules.

:meth:`Settings.from_env` is the only reader of the environment.  Its
boolean rule: surrounding whitespace and case are ignored, ``0`` /
``false`` / ``no`` / ``off`` mean off, and an unset switch keeps its
default.  Its directory rule: unset means the default directory, empty
means no disk tier.  Each row checks the parsed field and the public
reader that falls back to it."""

import functools
import os
import pathlib
import re

import pytest

import repro
from repro.apps import stencil1d_source
from repro.cli import main as fdc
from repro.codegen import cache as gen_cache
from repro.codegen import enabled as codegen_enabled
from repro.core import Mode, Options, compile_program
from repro.interp.vectorize import enabled as vectorize_enabled
from repro.obs.metrics import metrics_enabled
from repro.service.client import default_socket_path, resolve_server
from repro.settings import Settings
from repro.tune import EvalMemo


@functools.cache
def _stencil():
    return compile_program(stencil1d_source(128, 4),
                           Options(nprocs=4, mode=Mode.INTER))


def run_hits_comm_cache(flag):
    """Whether a ``run_spmd`` of the stencil hits the communication
    schedule cache.  A run takes the switch from the environment only,
    so *flag* must be None."""
    assert flag is None
    return _stencil().run().stats.comm_cache_hits > 0


#: (variable, Settings field, reader, default when unset)
SWITCHES = [
    ("REPRO_CODEGEN", "codegen", codegen_enabled, True),
    ("REPRO_VECTORIZE", "vectorize", vectorize_enabled, True),
    ("REPRO_COMM_CACHE", "comm_cache", run_hits_comm_cache, True),
    ("REPRO_METRICS", "metrics", metrics_enabled, False),
]

OFF_SPELLINGS = ("0", " 0", "0 ", "off", " OFF ", "No", "false")


@pytest.mark.parametrize("var,name,read,default", SWITCHES,
                         ids=[s[0] for s in SWITCHES])
def test_boolean_switch_spellings(monkeypatch, var, name, read, default):
    def check(expect, value):
        assert getattr(Settings.from_env(), name) is expect, repr(value)
        assert read(None) is expect, repr(value)

    for value in OFF_SPELLINGS:
        monkeypatch.setenv(var, value)
        check(False, value)
    monkeypatch.delenv(var, raising=False)
    check(default, None)
    for value in ("1", "yes"):
        monkeypatch.setenv(var, value)
        check(True, value)


class TestServer:
    """``REPRO_SERVER`` and ``fdc --server`` share the switch rule's
    "off"; ``auto`` is any case; anything else is a socket path."""

    @pytest.mark.parametrize("value", OFF_SPELLINGS + ("", "  "))
    def test_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SERVER", value)
        assert resolve_server(None) is None
        assert resolve_server(value) is None

    @pytest.mark.parametrize("value", ["auto", " Auto ", "AUTO"])
    def test_auto(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SERVER", value)
        assert resolve_server(None) == default_socket_path()
        assert resolve_server(value) == default_socket_path()

    def test_path_and_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVER", raising=False)
        assert resolve_server(None) is None
        monkeypatch.setenv("REPRO_SERVER", " /env/Path.sock ")
        assert resolve_server(None) == "/env/Path.sock"
        assert resolve_server("/arg/wins.sock") == "/arg/wins.sock"
        assert resolve_server(" OFF ") is None

    @pytest.mark.parametrize("value", [" OFF ", "No", "0"])
    def test_fdc_server_off_compiles_in_process(self, tmp_path, capsys,
                                                value):
        src = tmp_path / "s.fd"
        src.write_text(stencil1d_source(32, 1))
        assert fdc([str(src), "--server", value, "--no-text"]) == 0
        assert "server fallback" not in capsys.readouterr().err


class TestDirectories:
    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_codegen_cache_means_no_disk_tier(self, monkeypatch,
                                                    value):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", value)
        assert Settings.from_env().codegen_cache is None
        assert gen_cache.cas().directory is None

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_tune_cache_means_no_disk_tier(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TUNE_CACHE", value)
        assert Settings.from_env().tune_cache is None
        assert EvalMemo(None).directory is None

    def test_unset_means_the_default_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODEGEN_CACHE", raising=False)
        monkeypatch.delenv("REPRO_TUNE_CACHE", raising=False)
        s = Settings.from_env()
        home = os.path.join(os.path.expanduser("~"), ".cache")
        assert s.codegen_cache == os.path.join(home, "repro-codegen")
        assert s.tune_cache == os.path.join(home, "repro-tune")

    def test_a_value_is_the_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "g"))
        assert gen_cache.cas().directory == str(tmp_path / "g")


def test_cold_codegen_reads_settings_once_per_program(monkeypatch, tmp_path):
    """Codegen resolves its store once per program, not once per emitted
    procedure: a cold compile of 32 stages reads the environment as
    often as one of 8."""
    from repro.codegen import GEN_COUNTS, reset_memory
    from repro.core.driver import compile_program
    from repro.core.options import Options

    from .conftest import pipeline_source

    monkeypatch.delenv("REPRO_CODEGEN", raising=False)
    reads = 0
    from_env = Settings.from_env.__func__

    def counted(cls):
        nonlocal reads
        reads += 1
        return from_env(cls)

    monkeypatch.setattr(Settings, "from_env", classmethod(counted))
    counts = {}
    for k in (8, 32):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / str(k)))
        reset_memory()
        reads = 0
        compile_program(pipeline_source(k), Options(nprocs=4))
        assert GEN_COUNTS["units_emitted"] == k + 1
        counts[k] = reads
    assert counts[8] == counts[32]
    reset_memory()


def test_settings_has_one_field_per_name():
    names = set(re.findall(r"REPRO_[A-Z_]+", pathlib.Path(
        repro.__file__).with_name("settings.py").read_text()))
    assert len(names) == len(Settings.__dataclass_fields__) == 16


def test_only_settings_reads_the_environment():
    """In ``src/repro`` the environment is touched only by
    ``settings.py`` and by the worker pool's copy for its children."""
    root = pathlib.Path(repro.__file__).parent
    touch = re.compile(r"\bos\.(environ|getenv|putenv|unsetenv)\b"
                       r"|\bfrom os import\b")
    found = {
        str(path.relative_to(root)): [line.strip() for line in
                                      path.read_text().splitlines()
                                      if touch.search(line)]
        for path in sorted(root.rglob("*.py"))
    }
    found = {path: lines for path, lines in found.items() if lines}
    assert found.pop("settings.py")
    assert found == {"service/pool.py": ["env = dict(os.environ)"]}
