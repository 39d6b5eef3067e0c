"""Name resolution: every ``name(...)`` in an expression gets one meaning,
once, in the front end (``lang/parser._resolve_unit``).

A declared array stays an ``ArrayRef``; a user ``function`` is a
``FuncRef`` and shadows the intrinsic of the same name; an intrinsic is
a ``CallExpr`` — including the ``min`` / ``max`` / ``pmod`` / ``owner``
calls the compiler inserts itself.  Every consumer dispatches on the
node type, and an ill-formed program is one ``CompileError`` on either
engine.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

import repro.lang.parser as parser_mod
from repro.cli import main
from repro.core.driver import CompileError, compile_program
from repro.core.options import Mode, Options
from repro.core.recompile import RecompilationManager
from repro.lang import ast as A
from repro.lang import parse
from repro.runtime.node import run_sequential

SHADOW = """\
program p
integer j, k
k = 3
j = f(k)
print *, j
end
"""

FUNC_F = """\
integer function f(m)
integer m
f = m + 1
end
"""

#: a user ``max`` that adds: ``max(3, 4)`` must not fold to 4, and
#: ``s = max(s, a(i))`` is no max-reduction
USER_MAX = """\
program p
real a(16), s
integer k
distribute a(block)
do i = 1, 16
  a(i) = i
enddo
s = 0.0
do i = 1, 16
  s = max(s, a(i))
enddo
k = max(3, 4)
print *, s, k
end
real function max(x, y)
real x, y
max = x + y
end
"""

#: a user ``min`` that multiplies, beside the intrinsic ``min`` the
#: compiler puts in the block bounds of both loops
USER_MIN = """\
program p
real a(10), b(10)
distribute a(block)
distribute b(block)
do i = 1, 10
  a(i) = i
enddo
do i = 2, 10
  b(i) = a(i - 1) + min(i, 3)
enddo
end
integer function min(x, y)
integer x, y
min = x * y
end
"""

COMM_IN_EXPR = """\
program p
real x(8)
distribute x(block)
y = g2(x) + 1.0
end
real function g2(x)
real x(8)
g2 = 0.0
call shift(x)
end
subroutine shift(x)
real x(8)
do i = 2, 8
  x(i) = x(i - 1)
enddo
end
"""

#: a function reading distributed data: a function reference adds no
#: call-graph edge, so no communication would be placed for the read
#: and each rank would read its own stale copy of ``x(1)``
DIST_READ = """\
program p
real x(16), b(16)
distribute x(block)
align b(i) with x(i)
do i = 1, 16
  x(i) = i * 10.0
enddo
y = g(x)
do i = 1, 16
  b(i) = y
enddo
end
real function g(x)
real x(16)
g = x(1) * 2.0
end
"""

#: the same read through a distributed COMMON array, one call deep
COMMON_READ = """\
program p
real x(16)
common /d/ x
distribute x(block)
do i = 1, 16
  x(i) = i * 10.0
enddo
y = g(2.0)
end
real function g(s)
g = s * h(1)
end
real function h(k)
real x(16)
common /d/ x
h = x(k)
end
"""

#: ill-formed program -> the one line its compile fails with
ILL_FORMED = {
    "unknown": (SHADOW.replace("f(k)", "nosuch(k)"),
                "p: unknown function 'nosuch'"),
    "subroutine": (SHADOW.replace("f(k)", "s(k)")
                   + "subroutine s(m)\ninteger m\nm = m + 1\nend\n",
                   "p: subroutine 's' used as a function"),
    "communicates": (COMM_IN_EXPR,
                     "p: function 'g2' communicates inside an expression; "
                     "restructure as a CALL statement"),
    "section": ("program p\nreal x(10)\ns = x(1:5)\nend\n",
                "p: array section outside communication"),
    "distributed-actual": (DIST_READ,
                           "p: function 'g' reads distributed array 'x'; "
                           "restructure as a CALL statement"),
    "distributed-common": (COMMON_READ,
                           "p: function 'g' reads distributed COMMON "
                           "array 'x'; restructure as a CALL statement"),
}

ENGINES = pytest.mark.parametrize("codegen", ["0", "1"],
                                  ids=["interp", "codegen"])


def _calls(program: A.Program, kind: type) -> set[str]:
    return {e.name for u in program.units for e in A.walk_all_exprs(u.body)
            if isinstance(e, kind)}


@ENGINES
def test_user_function_shadows_the_intrinsic(tmp_path, capsys, monkeypatch,
                                             codegen):
    """``j = f(3)`` calls the user's ``f`` (4), not the intrinsic F
    (3.5, truncated to 3), on both engines and in the reference."""
    monkeypatch.setenv("REPRO_CODEGEN", codegen)
    src = tmp_path / "shadow.fd"
    src.write_text(SHADOW + FUNC_F)
    assert main([str(src), "--run", "--verify", "--no-text", "-p", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sorted(line for line in out if line.startswith("[")) == \
        ["[0] 4", "[1] 4"]
    assert _calls(parse(SHADOW + FUNC_F), A.FuncRef) == {"f"}
    assert _calls(parse(SHADOW), A.CallExpr) == {"f"}


@ENGINES
def test_user_max_is_neither_folded_nor_a_reduction(monkeypatch, codegen):
    monkeypatch.setenv("REPRO_CODEGEN", codegen)
    cp = compile_program(USER_MAX, Options(nprocs=4, mode=Mode.INTER))
    assert not any(isinstance(s, A.GlobalReduce) for u in cp.program.units
                   for s in A.walk_stmts(u.body))
    res = cp.run(timeout_s=30.0)
    # the sum 1 + ... + 16, and 3 + 4: the user's max on every rank
    assert sorted(res.prints) == [f"[{r}] 136 7" for r in range(4)]


@ENGINES
def test_user_min_leaves_the_compiler_bounds_intrinsic(monkeypatch,
                                                       codegen):
    """The block bounds the compiler inserts stay the intrinsic ``min``
    in a program that defines ``function min``; the loop body calls the
    user's, and the distributed result equals the sequential one."""
    monkeypatch.setenv("REPRO_CODEGEN", codegen)
    cp = compile_program(USER_MIN, Options(nprocs=4, mode=Mode.INTER))
    bounds = {e.name for s in A.walk_stmts(cp.program.main.body)
              if isinstance(s, A.Do) for e in A.walk_exprs(s.hi)
              if isinstance(e, A.CallExpr)}
    assert bounds == {"min"}
    assert _calls(cp.program, A.FuncRef) == {"min"}
    res = cp.run(timeout_s=30.0)
    ref = run_sequential(parse(USER_MIN))
    for name in ("a", "b"):
        assert np.array_equal(res.gathered(name), ref.arrays[name].data)
    assert res.gathered("b")[4] == 4.0 + 5 * 3  # b(5) = a(4) + min(5, 3)


def test_function_edits_replay_like_cold_compiles():
    """Add ``function f``, remove it, add it again: the caller's text
    never changes, but what ``f(k)`` means does, so each compile of the
    session equals a cold one — and the caller is reused only when its
    meaning is back to one the session compiled."""
    opts = Options(nprocs=2, mode=Mode.INTER)
    mgr = RecompilationManager(opts=opts)
    for step, src in enumerate([SHADOW, SHADOW + FUNC_F, SHADOW,
                                SHADOW + FUNC_F]):
        cp, cold = mgr.compile(src), compile_program(src, opts)
        assert repr(cp.program) == repr(cold.program), step
        want = "4" if "function f" in src else "3"
        assert sorted(cp.run(timeout_s=30.0).prints) == \
            [f"[0] {want}", f"[1] {want}"], step
        assert ("p" in mgr.last_reused) == (step >= 2), step


@ENGINES
@pytest.mark.parametrize("case", sorted(ILL_FORMED))
def test_ill_formed_program_is_one_compile_error(tmp_path, capsys,
                                                 monkeypatch, codegen, case):
    monkeypatch.setenv("REPRO_CODEGEN", codegen)
    src, message = ILL_FORMED[case]
    with pytest.raises(CompileError) as ei:
        compile_program(src, Options(nprocs=2, mode=Mode.INTER))
    assert str(ei.value) == message
    path = tmp_path / "bad.fd"
    path.write_text(src)
    assert main([str(path), "--run", "--no-text", "-p", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"fdc: compilation failed: {message}\n"


@ENGINES
def test_distributed_element_actual_verifies(tmp_path, capsys, monkeypatch,
                                             codegen):
    """Passing one element of a distributed array is a read in the
    caller, which the compiler serves with a broadcast: the function
    sees the owner's value on every rank."""
    monkeypatch.setenv("REPRO_CODEGEN", codegen)
    path = tmp_path / "elem.fd"
    path.write_text(DIST_READ.replace("y = g(x)", "y = g(x(1))")
                    .replace("real x(16)\ng = x(1) * 2.0",
                             "g = x * 2.0"))
    assert main([str(path), "--run", "--verify", "--no-text", "-p", "4",
                 "--gather", "b"]) == 0
    out = capsys.readouterr().out
    assert "b = [20. 20. 20." in out and "MISMATCH" not in out


def test_name_classification_has_one_home():
    """Whether a called name is an intrinsic or a user function is
    decided in one place, name resolution in ``lang/parser.py``: no
    other module tests membership in an intrinsic table (``codegen/
    vectorize.py`` alone asks which intrinsics vectorize), none makes
    a ``FuncRef``, and the old guess tables are gone."""
    src_root = os.path.dirname(os.path.dirname(parser_mod.__file__))
    # "x in TABLE" and "x not in TABLE", but not "for x in TABLE"
    membership = re.compile(r"^(?!.*\bfor\s+\w+\s+in\b).*\bin\s+"
                            r"((?:PURE_|CONTEXT_|VEC_)?INTRINSICS)\b", re.M)
    found: dict[str, set[str]] = {}
    makers = set()
    for root, _, files in os.walk(src_root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, src_root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert "_INVARIANT_OK_CALLS" not in text, rel
            for table in membership.findall(text):
                found.setdefault(table, set()).add(rel)
            if re.search(r"\bFuncRef\(", text) and rel != "lang/ast.py":
                makers.add(rel)
    assert found == {"INTRINSICS": {"lang/parser.py"},
                     "VEC_INTRINSICS": {"codegen/vectorize.py"}}
    assert makers == {"lang/parser.py"}
    assert not hasattr(parser_mod, "INTRINSICS")
