"""Tests for message aggregation (§5.4) and for dependence pinning of
delayed communication (a write anywhere in the procedure that feeds the
nonlocal read keeps the message local, placed after the write)."""

import numpy as np
import pytest

from repro.core import Mode, Options, compile_program
from repro.interp import run_sequential
from repro.lang import ast as A
from repro.lang import parse
from repro.machine import FREE


def check(src, arrays, P=4, mode=Mode.INTER):
    seq = run_sequential(parse(src))
    cp = compile_program(src, Options(nprocs=P, mode=mode))
    res = cp.run(cost=FREE)
    for arr in arrays:
        assert np.allclose(res.gathered(arr), seq.arrays[arr].data), arr
    return cp, res


MULTIARRAY = """
program p
real u(64), v(64), w(64)
align v(i) with u(i)
align w(i) with u(i)
distribute u(block)
do i = 1, 64
  u(i) = i * 1.0
  v(i) = 65.0 - i
  w(i) = 0.0
enddo
call combine(u, v, w)
end

subroutine combine(u, v, w)
real u(64), v(64), w(64)
do i = 1, 63
  w(i) = u(i + 1) + v(i + 1)
enddo
end
"""


class TestAggregation:
    def test_two_arrays_one_message(self):
        """u and v strips to the same neighbour combine into one packed
        message per pair."""
        cp, res = check(MULTIARRAY, ["w"])
        assert res.stats.messages == 3  # one *packed* message per pair
        assert res.stats.bytes == 3 * 2 * 8  # both strips' bytes

    def test_packed_nodes_emitted(self):
        cp, _ = check(MULTIARRAY, ["w"])
        main = cp.program.main
        packs = [s for s in A.walk_stmts(main.body)
                 if isinstance(s, (A.SendPack, A.RecvPack))]
        assert len(packs) == 2  # one guarded send pack + one recv pack

    def test_pack_order_consistent(self):
        cp, _ = check(MULTIARRAY, ["w"])
        main = cp.program.main
        send = next(s for s in A.walk_stmts(main.body)
                    if isinstance(s, A.SendPack))
        recv = next(s for s in A.walk_stmts(main.body)
                    if isinstance(s, A.RecvPack))
        assert [a for a, _ in send.parts] == [a for a, _ in recv.parts]

    def test_three_arrays(self):
        src = MULTIARRAY.replace(
            "w(i) = u(i + 1) + v(i + 1)",
            "w(i) = u(i + 1) + v(i + 1) + w(i + 1)",
        )
        cp, res = check(src, ["w"])
        assert res.stats.messages == 3  # still one pack per pair

    def test_different_deltas_not_merged(self):
        src = MULTIARRAY.replace(
            "w(i) = u(i + 1) + v(i + 1)",
            "w(i) = u(i + 1) + v(i - 1)",
        ).replace("do i = 1, 63", "do i = 2, 63")
        cp, res = check(src, ["w"])
        # opposite directions: different neighbours, two messages per
        # adjacent pair
        assert res.stats.messages == 6

    def test_print_shows_aggregate(self):
        cp, _ = check(MULTIARRAY, ["w"])
        text = cp.text()
        assert " + " in text and "aggregated" in text


class TestDependencePinning:
    TWO_PHASE = """
program p
real u(64), v(64)
align v(i) with u(i)
distribute u(block)
do i = 1, 64
  u(i) = i * 1.0
  v(i) = 65.0 - i
enddo
call step(u, v)
end

subroutine step(u, v)
real u(64), v(64)
do i = 1, 63
  u(i) = u(i) + 0.5 * v(i + 1)
enddo
do i = 1, 63
  v(i) = v(i) + 0.5 * u(i + 1)
enddo
end
"""

    def test_cross_loop_dependence_correct(self):
        """The second loop reads u written by the first: the u-strip
        exchange must stay inside the callee, after the first loop
        (regression test for the export-past-a-write bug)."""
        check(self.TWO_PHASE, ["u", "v"])

    def test_comm_placed_between_the_loops(self):
        cp, _ = check(self.TWO_PHASE, ["u", "v"])
        step = cp.program.unit("step")
        kinds = [
            ("loop" if isinstance(s, A.Do) else
             "comm" if isinstance(s, (A.Send, A.Recv, A.If)) else "other")
            for s in step.body
            if not isinstance(s, A.SetMyProc)
        ]
        assert kinds == ["loop", "comm", "comm", "loop"]

    def test_v_exchange_still_delayed(self):
        """v is only written *after* its read: the v-strip exchange has
        no pinning dependence and hoists to the caller."""
        cp, _ = check(self.TWO_PHASE, ["u", "v"])
        main = cp.program.main
        sends = [s for s in A.walk_stmts(main.body)
                 if isinstance(s, (A.Send, A.SendPack))]
        assert len(sends) == 1

    def test_write_after_read_does_not_pin(self):
        src = """
program p
real u(32), v(32)
align v(i) with u(i)
distribute u(block)
do i = 1, 32
  u(i) = i * 1.0
  v(i) = 0.0
enddo
call f(u, v)
end

subroutine f(u, v)
real u(32), v(32)
do i = 1, 31
  v(i) = u(i + 1)
enddo
do i = 1, 32
  u(i) = 0.0
enddo
end
"""
        cp, _ = check(src, ["u", "v"])
        f = cp.program.unit("f")
        # the u-read precedes the u-write: no true dependence, comm
        # hoists to the caller
        assert not any(
            isinstance(s, (A.Send, A.Recv)) for s in A.walk_stmts(f.body)
        )


#: two same-direction shifts of x, the longer one read first; the time
#: loop makes every step read the values the previous step wrote, so a
#: missing strip shows in the result instead of being hidden by the
#: initial global storage
TWO_SHIFTS = """
program p
real x(64), y(64)
align y(i) with x(i)
distribute x(block)
do t = 1, 2
  do i = 1, 62
    y(i) = x(i + 2) + 0.5 * x(i + 1)
  enddo
  do i = 1, 64
    x(i) = y(i)
  enddo
enddo
end
"""


@pytest.mark.parametrize("mode", [Mode.INTER, Mode.INTRA],
                         ids=["inter", "intra"])
def test_shorter_shift_never_subsumes_a_longer_one(mode):
    """The 2-wide strip of ``x(i + 2)`` covers the 1-wide strip of
    ``x(i + 1)``, never the other way round: one 2-element message
    per neighbour pair per step, 3 pairs, 2 steps."""
    _, res = check(TWO_SHIFTS, ["x", "y"], mode=mode)
    assert (res.stats.messages, res.stats.bytes) == (6, 96)
