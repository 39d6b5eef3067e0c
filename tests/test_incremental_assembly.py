"""Incremental assembly: a shared summary's renumbered tree and printed
text are memoised on it per tag base, and a served program's ``.text()``
is a join of those texts.

What must hold: the joined text is ``program_str`` of the program and
the cold ``compile_program``'s, byte for byte, through every caller
that assembles shared summaries (``ServiceCompiler``,
``RecompilationManager``, a daemon-backed client) — also across an
edit that adds a communication and so shifts every later tag base; an
edit clones and prints only the pieces whose (summary, tag base) is
new; nothing that reads a served program writes its memoised trees;
the memos are never pickled; and callee exports are spelled once per
exports object.
"""

import pickle
import re

import pytest

from repro.apps import adi_source, dgefa_source, stencil1d_source
from repro.codegen import get_generated
from repro.core import Options, compile_program
from repro.core import driver as driver_mod
from repro.core import recompile as recompile_mod
from repro.core.driver import assemble, sweep
from repro.core.localize import localized_procedure_text
from repro.core.recompile import (
    RecompilationManager,
    SummaryStore,
    exports_fingerprint,
)
from repro.lang import ast as A
from repro.lang import program_str
from repro.service import (
    CompileClient,
    CompileDaemon,
    ServiceCompiler,
    client_stats,
)
from repro.service import client as client_mod
from repro.service.client import reset_blob_cache

from .conftest import pipeline_source
from .test_recompilation import PURE_APPS
from .test_service import assert_same_program, sock_path

OPTS = Options(nprocs=4)
K = 6


def looped(src, j):
    """*src* with stage *j*'s body inside a time loop: the stage then
    places its own communication (2 tags) instead of exporting it."""
    head = f"subroutine stage{j}(x, y)\nreal x(64), y(64)\n"
    start = src.index(head) + len(head)
    end = src.index("\nend\n", start)
    return (src[:start] + "do t = 1, 2\n" + src[start:end] + "\nenddo"
            + src[end:])


def edit_session():
    """edit → revert → edit on a K-stage pipeline whose stage1 places
    its own communication, then stage0 gains a communication and loses
    it again: stage0's tag count changes, so stage1's tag base moves
    while its summary stays."""
    consts = [f"{100 + i}.25" for i in range(K)]
    base = looped(pipeline_source(K), 1)
    consts[K - 1] = "900.75"
    edit = looped(pipeline_source(K, consts), 1)
    comm = looped(base, 0)
    return [base, edit, base, edit, comm, base, comm, comm]


@pytest.fixture
def served(tmp_path):
    """``compile(src)`` through a fresh daemon and an empty blob cache."""
    path = sock_path(tmp_path)
    d = CompileDaemon(path, pool_size=0)
    t = d.serve_in_thread()
    reset_blob_cache()
    c = CompileClient(path)
    yield d, lambda src, opts=OPTS: c.compile(src, opts)
    reset_blob_cache()
    d.stop()
    t.join(timeout=5)


def local_compilers():
    sc, rm = ServiceCompiler(), RecompilationManager(OPTS)
    return {"service": lambda src: sc.compile(src, OPTS)[0],
            "manager": rm.compile}


def check_session(compile):
    cold = {}
    for src in edit_session():
        if src not in cold:
            cold[src] = compile_program(src, OPTS)
        got = compile(src)
        assert got.pieces is not None
        assert got.text() == program_str(got.program) == cold[src].text()
        # tags are not printed: compare them (and the tree) separately
        assert_same_program(got, cold[src])


@pytest.mark.parametrize("name", ["service", "manager"])
def test_joined_text_is_the_cold_compile(name):
    check_session(local_compilers()[name])


def test_served_joined_text_is_the_cold_compile(served):
    _, compile = served
    check_session(compile)


def test_the_session_shifts_tag_bases():
    """The session above moves a reused summary to another tag base
    (else it tests too little)."""
    base, _, _, _, comm, *_ = edit_session()
    sc = ServiceCompiler()
    placed = []
    for src in (base, comm):
        swept, _ = sc.sweep(src, OPTS)
        assert swept.order[:2] == ["stage0", "stage1"]
        placed.append((swept.summaries["stage0"].tag_count,
                       swept.summaries["stage1"]))
    assert [t for t, _ in placed] == [0, 2]
    assert placed[0][1] is placed[1][1] and placed[0][1].tag_count == 2


def test_unshared_compile_has_no_pieces():
    cp = compile_program(stencil1d_source(64, 2), OPTS)
    assert cp.pieces is None


def test_an_edit_clones_and_prints_only_new_pieces(monkeypatch):
    """Per request, the summary trees cloned and the texts printed are
    exactly the (summary, tag base) pairs no earlier request
    assembled: one for a one-stage edit, none for an exact repeat, and
    a summary moved to another base (stage1 under stage0's new
    communication) is cloned and printed again."""
    cloned, printed = [], []
    clone, show = A.clone_procedure, driver_mod.procedure_str
    monkeypatch.setattr(
        A, "clone_procedure",
        lambda p, *a, **k: cloned.append(p) or clone(p, *a, **k))
    monkeypatch.setattr(driver_mod, "procedure_str",
                        lambda p: printed.append(p) or show(p))
    sc = ServiceCompiler()
    seen, keep, counts = set(), [], []
    for src in edit_session():
        swept, _ = sc.sweep(src, OPTS)
        base, new = 0, set()
        for n in swept.order:
            s = swept.summaries[n]
            keep.append(s)
            # a summary without tags has one piece at every base
            at = (id(s), base if s.tag_count else 0)
            if at not in seen:
                new.add(at)
            base += s.tag_count
        trees = {id(s.proc) for s in swept.summaries.values()}
        cloned.clear()
        printed.clear()
        cp = assemble(swept, OPTS, shared=True)
        assert cp.text() == compile_program(src, OPTS).text()
        assert len([p for p in cloned if id(p) in trees]) == len(new)
        assert len(printed) == len(new)
        seen |= new
        counts.append(len(new))
    # base, edit, revert, edit, comm, no comm, comm, repeat
    assert counts[:4] == [K + 1, 1, 0, 0]
    assert counts[4] > 2 and counts[5:] == [0, 0, 0]


def test_served_prints_only_new_pieces(served):
    """``client_stats()["procs_printed"]`` grows by every procedure, one
    for a one-procedure edit and none for an exact repeat."""
    _, compile = served
    base = pipeline_source(K)
    edit = pipeline_source(K, [f"{100 + i}.25" for i in range(K - 1)]
                           + ["900.75"])
    growth, before = [], client_stats()["procs_printed"]
    for src in (base, edit, edit):
        assert compile(src).text() == compile_program(src, OPTS).text()
        after = client_stats()["procs_printed"]
        growth.append(after - before)
        before = after
    assert growth == [K + 1, 1, 0]


def _memo_reprs(summaries):
    return {(id(s), b): repr(p.proc)
            for s in summaries for b, p in s.pieces().items()}


@pytest.mark.parametrize("codegen", [True, False], ids=["gen", "interp"])
def test_reading_a_served_program_writes_no_memoised_tree(served, codegen):
    """Run, ``--codegen-dump``, ``--localize`` and ``--report`` only read
    the shared trees: their reprs are what assembly left."""
    _, compile = served
    for src in (stencil1d_source(64, 2), dgefa_source(16), adi_source(16, 2)):
        cp = compile(src)
        cp.text()
        held = list(client_mod._blob_cache.values())
        before = _memo_reprs(held)
        assert before
        cp.run(codegen=codegen)
        get_generated(cp.program, OPTS.nprocs, True, load=False)
        for u in cp.program.units:
            localized_procedure_text(u, {}, {})
        cp.explain()
        assert _memo_reprs(held) == before
        # and a second assembly of the same pieces is still the cold one
        assert_same_program(compile(src), compile_program(src, OPTS))


def test_exact_repeat_of_a_large_program_ships_nothing(served):
    """More procedures than the blob cache's bound: the bound stretches
    to the reply, so an exact repeat ships 0 blobs (the pieces keep
    their memo, so it prints nothing either)."""
    d, compile = served
    k = client_mod._BLOB_CACHE_CAP + 4
    src = pipeline_source(k, n=16)
    first = compile(src)
    assert len(client_mod._blob_cache) == k + 1
    assert first.text() == compile_program(src, OPTS).text()
    shipped = d.stats()["reply"]["blobs_shipped"]
    printed = client_stats()["procs_printed"]
    again = compile(src)
    assert d.stats()["reply"]["blobs_shipped"] == shipped
    assert again.text() == first.text()
    assert client_stats()["procs_printed"] == printed


def test_memos_are_not_pickled(tmp_path):
    """A summary pickles to the same bytes before and after it was
    assembled, printed and keyed on; its disk entry is those bytes."""
    store = SummaryStore(directory=str(tmp_path))
    src = pipeline_source(K)
    swept = sweep(src, OPTS, store=store)
    before = {n: pickle.dumps(s, pickle.HIGHEST_PROTOCOL)
              for n, s in swept.summaries.items()}
    assemble(swept, OPTS, shared=True).text()
    swept = sweep(src, OPTS, store=store)
    assert not swept.recompiled
    for n, s in swept.summaries.items():
        exports_fingerprint(s.exports)
        assert s.pieces() and "_fingerprint" in vars(s.exports)
        data = pickle.dumps(s, pickle.HIGHEST_PROTOCOL)
        assert data == before[n]
        with open(store.path(swept.keys[n]), "rb") as fh:
            assert fh.read().endswith(data)
        back = pickle.loads(data)
        assert "_pieces" not in vars(back)
        assert "_fingerprint" not in vars(back.exports)


def test_exports_are_spelled_once(monkeypatch):
    """Through one ``ServiceCompiler``: an exact repeat spells no
    exports fingerprint, a one-stage edit spells the edited stage's."""
    spelled = []
    spell = recompile_mod._spell_exports
    monkeypatch.setattr(recompile_mod, "_spell_exports",
                        lambda exp: spelled.append(exp.name) or spell(exp))
    sc = ServiceCompiler()
    base = pipeline_source(K)
    edit = pipeline_source(K, [f"{100 + i}.25" for i in range(K - 1)]
                           + ["900.75"])
    counts = []
    for src in (base, base, edit, edit):
        spelled.clear()
        sc.compile(src, OPTS)
        counts.append(sorted(spelled))
    assert counts[0] == sorted(f"stage{j}" for j in range(K))
    assert counts[1:] == [[], [f"stage{K - 1}"], []]


@pytest.mark.parametrize("src", [s for _, s in PURE_APPS],
                         ids=[n for n, _ in PURE_APPS])
def test_memoised_exports_spelling_stays_true(src):
    """Exports are read-only after their compile: after a warm compile
    (every caller keyed on its callees' memoised spelling), each memo
    still equals a fresh spelling."""
    rm = RecompilationManager(OPTS)
    rm.compile(src)
    for last in list(re.finditer(r"\d+\.\d+", src))[-1:]:
        rm.compile(src[:last.end()] + "5" + src[last.end():])
    rm.compile(src)
    exports = [s.exports for s in rm.summaries.memory.values()
               if s.exports is not None]
    assert exports
    for exp in exports:
        exports_fingerprint(exp)
        assert vars(exp)["_fingerprint"] \
            == recompile_mod._spell_exports(exp)
