"""The one malfunction matrix for :mod:`repro.cas`.

Every persistent store in the repo — the per-procedure summary store
(pickle), the tuning memo (JSON), the generated-module cache (text) —
is a ``Cas`` namespace, so the crash-safety contract is checked here,
once, against the three real clients: every way an entry can be bad is
a counted miss that heals, every way a directory can be bad degrades
the instance once, and nothing is ever left half-written.
"""

import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys

import pytest

from repro.cas import atomic_write
from repro.codegen import cache as gen_cache
from repro.codegen import get_generated, reset_memory, unit_keys
from repro.codegen.cache import GEN_VERSION, entry_stem
from repro.core import Options, compile_program
from repro.core.options import CompileReport
from repro.core.recompile import STORE_VERSION, ProcSummary, SummaryStore
from repro.lang import parse
from repro.tune.memo import EvalMemo
from repro.tune.plan import MEMO_VERSION

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

KEY = "k" * 64
STEM = entry_stem(KEY, 4, True)


def _skip_unless_denied(path, mode):
    if os.access(path, mode):
        pytest.skip("permission bits do not bind this user (root)")


def _summary(name="f"):
    proc = parse(f"subroutine {name}(x)\nreal x(10)\nend").units[0]
    return ProcSummary(name=name, proc=proc, exports=None, tag_count=2,
                       fragment=CompileReport())


def _module_source(stem=STEM):
    return (f"# repro-codegen {GEN_VERSION} {stem}\n"
            "UNITS = {}\nBLOCKING = frozenset()\nDEMOTED = {}\n")


@dataclasses.dataclass
class Client:
    """One real client of ``Cas``: how to open it on a directory, a key,
    a good payload, and bodies that decode to garbage / the wrong type."""

    name: str
    open: object        # directory -> Cas
    key: str
    payload: object     # () -> a good payload
    same: object        # (loaded, payload) -> bool
    garbage: bytes
    wrong: object       # bytes, or None where the codec has one type


CLIENTS = [
    Client("pickle", SummaryStore, KEY, _summary,
           lambda a, b: a.name == b.name and a.tag_count == b.tag_count,
           b"\xff\xfe not a pickle",
           pickle.dumps({"not": "a summary"})),
    Client("json", lambda d: EvalMemo(d, use_default_dir=False), KEY,
           lambda: {"time_us": 1.5}, lambda a, b: a == b,
           b"{not json", b"[1, 2]"),
    Client("text", None, STEM, _module_source, lambda a, b: a == b,
           b"\xff\xfe not utf-8", None),
]


@pytest.fixture(params=CLIENTS, ids=lambda c: c.name)
def client(request, monkeypatch):
    if request.param.name != "text":
        return request.param

    def open_codegen(d):  # the module cache finds its directory in env
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", d)
        return gen_cache.cas()

    return dataclasses.replace(request.param, open=open_codegen)


def _published(client, d):
    """Store one good entry; return (path, its bytes, its header)."""
    store = client.open(d)
    store.store(client.key, client.payload())
    path = store.path(client.key)
    with open(path, "rb") as fh:
        data = fh.read()
    return path, data, store.header(client.key)


def _assert_counted_miss_then_heals(client, d):
    """The behaviour-table row for every bad entry."""
    store = client.open(d)
    before = store.stats()
    assert store.load(client.key) is None
    delta = {k: v - before[k] for k, v in store.stats().items()}
    assert delta == {"hits": 0, "misses": 1, "disk_hits": 0, "stores": 0,
                     "corrupt": 1, "degraded": 0}
    assert not os.path.isfile(store.path(client.key))  # discarded
    store.store(client.key, client.payload())
    fresh = client.open(d)
    before = fresh.stats()
    assert client.same(fresh.load(client.key), client.payload())
    assert fresh.stats()["disk_hits"] == before["disk_hits"] + 1
    assert fresh.stats()["corrupt"] == before["corrupt"]


def _no_droppings(d):
    assert not [f for f in os.listdir(d) if f.endswith(".tmp")]


class TestBadEntries:
    def test_roundtrip_and_counters(self, client, tmp_path):
        d = str(tmp_path / "s")
        store = client.open(d)
        assert store.load(client.key) is None
        store.store(client.key, client.payload())
        assert client.same(client.open(d).load(client.key),
                           client.payload())
        assert store.stats()["misses"] == 1
        assert store.stats()["stores"] == 1
        assert store.stats()["corrupt"] == 0
        _no_droppings(d)

    def test_truncated_header(self, client, tmp_path):
        d = str(tmp_path / "s")
        path, _, _ = _published(client, d)
        with open(path, "r+b") as fh:
            fh.truncate(9)
        _assert_counted_miss_then_heals(client, d)

    def test_foreign_header(self, client, tmp_path):
        d = str(tmp_path / "s")
        path, data, header = _published(client, d)
        with open(path, "wb") as fh:
            fh.write(b"# some other format entirely\n"
                     + data[len(header):])
        _assert_counted_miss_then_heals(client, d)

    def test_stale_version(self, client, tmp_path):
        d = str(tmp_path / "s")
        path, data, header = _published(client, d)
        stale = re.sub(rb"^(# repro-[a-z-]+) \S+ ", rb"\1 0 ", header)
        assert stale != header
        with open(path, "wb") as fh:
            fh.write(stale + data[len(header):])
        _assert_counted_miss_then_heals(client, d)

    def test_garbage_body(self, client, tmp_path):
        d = str(tmp_path / "s")
        path, _, header = _published(client, d)
        with open(path, "wb") as fh:
            fh.write(header + client.garbage)
        _assert_counted_miss_then_heals(client, d)

    def test_wrong_payload_type(self, client, tmp_path):
        if client.wrong is None:
            pytest.skip("the text codec only decodes to str")
        d = str(tmp_path / "s")
        path, _, header = _published(client, d)
        with open(path, "wb") as fh:
            fh.write(header + client.wrong)
        _assert_counted_miss_then_heals(client, d)

    def test_unreadable_file(self, client, tmp_path):
        d = str(tmp_path / "s")
        path, _, _ = _published(client, d)
        os.chmod(path, 0)
        _skip_unless_denied(path, os.R_OK)
        _assert_counted_miss_then_heals(client, d)

    def test_entry_is_a_directory(self, client, tmp_path):
        """The root-proof unreadable entry: ``open`` raises
        IsADirectoryError.  It is counted; it cannot be unlinked, so
        the healing ``store`` fails at ``replace`` — which degrades the
        instance and still leaves no temp file behind."""
        d = str(tmp_path / "s")
        path, _, _ = _published(client, d)
        os.unlink(path)
        os.makedirs(path)
        store = client.open(d)
        assert store.load(client.key) is None
        assert store.stats()["corrupt"] == 1
        store.store(client.key, client.payload())
        assert store.degraded and store.stats()["degraded"] == 1
        _no_droppings(d)


class TestBadDirectories:
    def test_unwritable_directory_degrades_once(self, client, tmp_path):
        # a path *beneath an existing file* cannot be created — the
        # same OSError family as a read-only dir, but works under root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = client.open(str(blocker / "sub"))
        store.store(client.key, client.payload())
        store.store(client.key, client.payload())
        assert store.degraded
        assert store.stats()["degraded"] == 1  # once, not per write
        assert store.stats()["stores"] == 2
        if store.memory is not None:  # memory tier still serves
            assert client.same(store.load(client.key), client.payload())
        else:
            assert store.load(client.key) is None

    def test_read_only_directory_degrades_once(self, client, tmp_path):
        d = tmp_path / "ro"
        d.mkdir()
        d.chmod(0o555)
        _skip_unless_denied(d, os.W_OK)
        try:
            store = client.open(str(d))
            store.store(client.key, client.payload())
            store.store(client.key, client.payload())
            assert store.degraded and store.stats()["degraded"] == 1
            assert os.listdir(d) == []
        finally:
            d.chmod(0o755)


class TestUnencodablePayload:
    """A payload that does not encode costs that one entry — it is not
    a dead directory."""

    @pytest.mark.parametrize("open_, bad, good", [
        (lambda d: EvalMemo(d, use_default_dir=False),
         {"f": lambda: 0}, {"time_us": 2.0}),
        (SummaryStore, ProcSummary("g", None, lambda: 0, 0, None),
         _summary()),
    ], ids=["json", "pickle"])
    def test_next_good_store_still_lands_on_disk(self, tmp_path, open_,
                                                 bad, good):
        d = str(tmp_path / "s")
        store = open_(d)
        store.store(KEY, bad)
        assert not store.degraded and store.stats()["degraded"] == 0
        assert store.load(KEY) is bad  # the memory tier holds it
        assert not os.path.exists(d) or os.listdir(d) == []
        store.store("j" * 64, good)
        assert open_(d).load("j" * 64) is not None
        _no_droppings(d)


class TestAtomicWrite:
    def test_publishes_and_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "new" / "dir" / "f.bin")
        atomic_write(path, b"one")
        atomic_write(path, b"two")
        assert open(path, "rb").read() == b"two"
        _no_droppings(os.path.dirname(path))

    def test_failure_raises_oserror_and_cleans_up(self, tmp_path):
        target = tmp_path / "f.bin"
        target.mkdir()  # replace() onto a directory fails
        with pytest.raises(OSError):
            atomic_write(str(target), b"x")
        _no_droppings(str(tmp_path))


class TestOnDiskCompatibility:
    """Entries are byte-compatible with the stores this module
    replaced: literal old-format files are hits, and what is written
    today starts with the literal old header."""

    def test_versions_unchanged(self):
        # GEN_VERSION 10: an entry is always a text, never a demotion
        # cause (9: a proven rank variable reads as RANK; 8: one
        # text per procedure for every rank; 7: a
        # block computes each distinct non-loop-axis offset once; 6: the
        # prelude imports the runtime from
        # repro.runtime.node and blocks call trace_block; 5: outer-loop
        # blocks; 4: one entry per procedure);
        # MEMO_VERSION 2: plan keys cover the topology and fault plan
        assert (STORE_VERSION, MEMO_VERSION, GEN_VERSION) == ("2", "2", "10")

    def test_summary_store(self, tmp_path):
        d = tmp_path / "s"
        d.mkdir()
        header = f"# repro-summary 2 proc-{KEY}.pkl\n".encode()
        (d / f"proc-{KEY}.pkl").write_bytes(
            header + pickle.dumps(_summary("old"),
                                  protocol=pickle.HIGHEST_PROTOCOL))
        store = SummaryStore(str(d))
        assert store.load(KEY).name == "old"
        assert store.stats()["disk_hits"] == 1
        store.store("j" * 64, _summary())
        assert (d / f"proc-{'j' * 64}.pkl").read_bytes().startswith(
            f"# repro-summary 2 proc-{'j' * 64}.pkl\n".encode())

    def test_eval_memo(self, tmp_path):
        d = tmp_path / "m"
        d.mkdir()
        (d / f"eval-{KEY}.json").write_text(
            f"# repro-tune-eval 2 eval-{KEY}.json\n"
            + json.dumps({"time_us": 3.0, "msgs": 4}, sort_keys=True))
        memo = EvalMemo(str(d))
        assert memo.load(KEY) == {"time_us": 3.0, "msgs": 4}
        memo.store("j" * 64, {"b": 1, "a": 2})
        assert (d / f"eval-{'j' * 64}.json").read_text() == (
            f"# repro-tune-eval 2 eval-{'j' * 64}.json\n"
            '{"a": 2, "b": 1}')

    def test_codegen_cache(self, tmp_path, monkeypatch):
        d = tmp_path / "g"
        d.mkdir()
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(d))
        (d / f"{STEM}.py").write_text(_module_source())
        assert gen_cache.cas().load(STEM) == _module_source()
        assert gen_cache.entry_header(STEM) \
            == f"# repro-codegen {GEN_VERSION} {STEM}"
        assert gen_cache.entry_path(STEM) == str(d / f"{STEM}.py")
        other = entry_stem(KEY, 4, False)
        gen_cache.cas().store(other, _module_source(other))
        assert (d / f"{other}.py").read_text() == _module_source(other)


SRC = ("program p\nreal x(64)\ndistribute x(block)\n"
       "do i = 2, 63\n  x(i) = x(i - 1) + i\nenddo\nend\n")


class TestCodegenClient:
    """The generated-module cache used to retry a dead directory on
    every module of every compile, uncounted, and to overwrite a
    header-valid entry whose body does not ``exec`` without counting
    it; through ``cas`` both are visible."""

    def _program(self):
        return compile_program(SRC, Options(nprocs=4)).program

    def test_dead_directory_degrades_once(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(blocker / "cache"))
        # the compile-time resolve only runs when codegen is the default
        monkeypatch.setenv("REPRO_CODEGEN", "1")
        prog = self._program()  # resolves: its one procedure emitted
        reset_memory()
        gen, hits, misses = get_generated(prog, 4, True)
        assert (hits, misses) == (0, 1)
        stats = gen_cache.cas().stats()
        assert stats["stores"] == 2 and stats["degraded"] == 1
        reset_memory()

    def test_poisoned_body_is_counted_and_healed(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "g"))
        prog = self._program()
        reset_memory()
        get_generated(prog, 4, True)
        store = gen_cache.cas()
        stem = entry_stem(unit_keys(prog, 4, True)["p"], 4, True)
        good = open(store.path(stem)).read()
        with open(store.path(stem), "w") as fh:
            fh.write(good[: len(good) // 2] + "\ndef broken(:\n")
        reset_memory()
        before = store.stats()["corrupt"]
        _, hits, misses = get_generated(prog, 4, True)
        assert (hits, misses) == (0, 1)  # the procedure was emitted again
        assert store.stats()["corrupt"] == before + 1
        assert open(store.path(stem)).read() == good
        reset_memory()


_WRITER = r"""
import hashlib, os, sys
from repro.codegen import get_generated, reset_memory
from repro.core import Options
from repro.service import ServiceCompiler, SummaryStore

def make_src(n):
    return ("program p\nreal x(%d)\ncall f(x)\nend\n"
            "subroutine f(x)\nreal x(%d)\ndistribute x(block)\n"
            "do i = 1, %d\n  x(i) = i\nenddo\nend\n" % (n, n, n))

# the same keys from every process, plus keys only this process writes
sizes = [16, 24, 32, 40] + [int(a) for a in sys.argv[2:]]
out = []
for round in range(3):
    for n in sizes:
        # a fresh store per compile: the disk path every round
        cp, _ = ServiceCompiler(SummaryStore(sys.argv[1])).compile(
            make_src(n), Options(nprocs=4))
        reset_memory()
        get_generated(cp.program, 4, True)
        out.append("%d:%s" % (n, hashlib.sha256(
            cp.text().encode()).hexdigest()[:12]))
print(",".join(sorted(set(out))))
"""


class TestConcurrentWriters:
    def test_two_processes_one_directory(self, tmp_path, monkeypatch):
        """Two processes publishing the same and different keys into
        one summary-store directory and one codegen-cache directory:
        both succeed, agree on every shared program, and every
        published entry loads cleanly afterwards — no torn reads, no
        temp files."""
        sdir = str(tmp_path / "shared-store")
        gdir = str(tmp_path / "shared-codegen")
        env = dict(os.environ, REPRO_CODEGEN_CACHE=gdir,
                   PYTHONPATH=SRC_ROOT)
        procs = [subprocess.Popen(
            [sys.executable, "-c", _WRITER, sdir, *own],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            for own in (["48", "56"], ["64", "72"])]
        outs = []
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err.decode()
            outs.append(set(out.decode().strip().split(",")))
        shared = {o for o in outs[0] if int(o.split(":")[0]) <= 40}
        assert len(shared) == 4 and shared <= outs[1]

        _no_droppings(sdir)
        _no_droppings(gdir)
        store = SummaryStore(sdir)
        entries = [n for n in os.listdir(sdir) if n.startswith("proc-")]
        assert len(entries) >= 8 * 2  # 8 programs x (main + f)
        for name in entries:
            assert store.load(name[len("proc-"):-len(".pkl")]) is not None
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", gdir)
        modules = gen_cache.cas()
        stems = [n[:-len(".py")] for n in os.listdir(gdir)]
        assert len(stems) == 8 * 2  # 8 programs x (main + f)
        for stem in stems:
            assert modules.load(stem) is not None
        assert store.stats()["corrupt"] == 0
        assert modules.stats()["corrupt"] == 0


def test_one_atomic_publish_site():
    """``mkstemp`` / ``os.replace`` appear in ``repro/cas.py`` only."""
    sites = set()
    for root, _, files in os.walk(os.path.join(SRC_ROOT, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    if re.search(r"mkstemp|os\.replace", fh.read()):
                        sites.add(os.path.relpath(path, SRC_ROOT))
    assert sites == {os.path.join("repro", "cas.py")}
