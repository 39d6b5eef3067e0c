"""Benchmark fixtures (see _harness.py for measurement helpers)."""


from __future__ import annotations

import atexit
import os
import shutil
import tempfile

import pytest

# keep the benches out of ~/.cache (see tests/conftest.py); an explicit
# export still wins
_cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
atexit.register(shutil.rmtree, _cache_root, ignore_errors=True)
os.environ.setdefault("REPRO_CODEGEN_CACHE",
                      os.path.join(_cache_root, "codegen"))
os.environ.setdefault("REPRO_TUNE_CACHE", os.path.join(_cache_root, "tune"))


@pytest.fixture(scope="session")
def paper_table():
    """Collects printed rows so each bench emits a readable table."""
    printed: set[str] = set()

    def emit(title: str, header: str, rows: list[str]) -> None:
        if title in printed:
            return
        printed.add(title)
        print()
        print("=" * 74)
        print(title)
        print("=" * 74)
        print(header)
        print("-" * len(header))
        for r in rows:
            print(r)

    return emit
