"""The whole-program compile memo and its switch.

``REPRO_COMPILE_CACHE`` is a plain on/off switch for the in-process
memo of ``compile_program`` (``0``/``false``/``no``/``off`` disable it;
anything else, or unset, keeps it).  It is read on every call.  Reuse
*across* processes is the per-procedure summary store's job
(``tests/test_cas.py``, ``tests/test_service.py``).
"""

import os

import pytest

from repro.core import Options, compile_program
from repro.core.driver import _compile_cache, compile_cache_stats


def make_src(n):
    """A unique tiny program per *n* (unique memo keys per test)."""
    return (f"program p\nreal x({n})\ndistribute x(block)\n"
            f"do i = 1, {n}\n  x(i) = i\nenddo\nend\n")


@pytest.fixture(autouse=True)
def fresh_memo():
    _compile_cache.clear()
    yield
    _compile_cache.clear()


class TestCompileMemo:
    def test_on_shares_one_compilation_and_counts(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
        before = compile_cache_stats()
        a = compile_program(make_src(10), Options(nprocs=4))
        b = compile_program(make_src(10), Options(nprocs=4))
        c = compile_program(make_src(10), Options(nprocs=2))
        assert a is b and c is not a
        after = compile_cache_stats()
        assert set(after) == {"hits", "misses"}
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 2

    def test_off_means_off(self, monkeypatch):
        for n, value in enumerate(["0", "false", "No", " off "]):
            monkeypatch.setenv("REPRO_COMPILE_CACHE", value)
            before = compile_cache_stats()
            a = compile_program(make_src(20 + n), Options(nprocs=4))
            b = compile_program(make_src(20 + n), Options(nprocs=4))
            assert a is not b, value  # no memo sharing
            assert a.text() == b.text()
            after = compile_cache_stats()
            assert after["hits"] == before["hits"]
            assert after["misses"] == before["misses"] + 2

    def test_switch_is_read_on_every_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "1")
        a = compile_program(make_src(18), Options(nprocs=4))
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        assert compile_program(make_src(18), Options(nprocs=4)) is not a
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "1")
        assert compile_program(make_src(18), Options(nprocs=4)) is a

    def test_a_path_is_just_on(self, tmp_path, monkeypatch):
        """There is no disk tier: a value that used to name a cache
        directory only keeps the memo on, and nothing is written."""
        d = tmp_path / "ccache"
        monkeypatch.setenv("REPRO_COMPILE_CACHE", str(d))
        a = compile_program(make_src(19), Options(nprocs=4))
        assert compile_program(make_src(19), Options(nprocs=4)) is a
        assert not os.path.exists(d)
