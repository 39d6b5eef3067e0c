"""The distribution auto-tuner: plans, memo, pruning, and search.

Covers the tuner's contracts:

* plan keys are content addresses — same (program, options, plan)
  always collides, any ingredient change never does;
* the evaluation memo is crash-safe in the repo's usual sense
  (atomic publish, corrupt/truncated/foreign entries are silent
  misses, unwritable directories degrade to memory-only);
* pruning: a compute-bound profile suppresses layout moves, cold
  arrays are never touched, and block_cyclic sweeps only chase
  cyclic wins;
* the search respects its budget, is deterministic, scores parallel
  and serial sweeps identically, and its winning plan re-runs
  bit-identical to sequential execution.
"""

import json
import os

import numpy as np
import pytest

from repro.apps.cg import cg_source
from repro.apps.stencil import stencil1d_source
from repro.core import Options
from repro.core.model import DistOverride
from repro.interp import run_sequential
from repro.lang import parse
from repro.tune import (
    EvalMemo,
    Plan,
    TuneSpace,
    autotune,
    initial_moves,
    plan_key,
    render_tune_report,
)
from repro.tune.space import refine_moves


@pytest.fixture(autouse=True)
def _isolated_memo(tmp_path, monkeypatch):
    """Every test gets its own memo directory (never ~/.cache)."""
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "memo"))


SRC = stencil1d_source(64, 4)
OPTS = Options(nprocs=4)


class TestPlanKeys:
    def test_same_inputs_same_key(self):
        p = Plan(8, (DistOverride("x", (("cyclic", None),)),))
        assert plan_key(SRC, OPTS, p) == plan_key(SRC, OPTS, p)

    def test_any_ingredient_changes_the_key(self):
        p = Plan(8, ())
        base = plan_key(SRC, OPTS, p)
        assert plan_key(SRC + "\n", OPTS, p) != base
        # the plan's nprocs overwrites the base's, so only options the
        # plan does not control may distinguish keys
        assert plan_key(SRC, Options(nprocs=2), p) == base
        assert plan_key(SRC, Options(strict=True), p) != base
        assert plan_key(SRC, OPTS, Plan(16, ())) != base
        assert plan_key(
            SRC, OPTS, Plan(8, (DistOverride("x", (("cyclic", None),)),))
        ) != base
        assert plan_key(SRC, OPTS, p, scheduler="threads") != base
        assert plan_key(SRC, OPTS, p, cost="free") != base

    def test_label_is_not_identity(self):
        assert Plan(8, (), label="a") == Plan(8, (), label="b")
        assert plan_key(SRC, OPTS, Plan(8, (), label="a")) == \
            plan_key(SRC, OPTS, Plan(8, (), label="b"))

    def test_apply_layers_overrides(self):
        base = Options(
            nprocs=4,
            distribute=(DistOverride("y", (("block", None),)),),
        )
        p = Plan(8, (DistOverride("x", (("cyclic", None),)),))
        applied = p.apply(base)
        assert applied.nprocs == 8
        assert {ov.array for ov in applied.distribute} == {"x", "y"}


class TestEvalMemo:
    def test_roundtrip_and_disk_hit(self, tmp_path):
        d = str(tmp_path / "m")
        m1 = EvalMemo(d)
        m1.store("k" * 64, {"time_us": 1.5})
        m2 = EvalMemo(d)  # fresh instance: must come from disk
        assert m2.load("k" * 64) == {"time_us": 1.5}
        assert m2.counters["disk_hits"] == 1

    def test_corrupt_entry_is_a_miss_and_dropped(self, tmp_path):
        d = str(tmp_path / "m")
        m = EvalMemo(d)
        m.store("k" * 64, {"time_us": 1.5})
        (path,) = [p for p in os.listdir(d) if p.endswith(".json")]
        full = os.path.join(d, path)
        with open(full, "w") as fh:
            fh.write("garbage")
        fresh = EvalMemo(d)
        assert fresh.load("k" * 64) is None
        assert fresh.counters["corrupt"] == 1
        assert not os.path.exists(full)

    def test_truncated_header_is_a_miss(self, tmp_path):
        d = str(tmp_path / "m")
        m = EvalMemo(d)
        m.store("k" * 64, {"time_us": 1.5})
        (path,) = os.listdir(d)
        with open(os.path.join(d, path), "r+") as fh:
            fh.truncate(5)
        assert EvalMemo(d).load("k" * 64) is None

    def test_unwritable_dir_degrades_to_memory(self, tmp_path):
        # a file where the directory should be: makedirs always fails,
        # even for root (chmod tricks don't)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        m = EvalMemo(str(blocker / "memo"))
        m.store("k" * 64, {"time_us": 1.0})
        assert m.degraded
        assert m.load("k" * 64) == {"time_us": 1.0}  # memory tier

    def test_empty_env_disables_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", "")
        assert EvalMemo(None).directory is None


class TestPruning:
    SPACE = TuneSpace(hot_targets=["x"],
                      current_kinds={"x": {"block"}, "cold": {"block"}},
                      nprocs0=4)

    def test_compute_bound_profile_suppresses_kind_moves(self):
        plans = initial_moves(self.SPACE, {"comm_share": 0.001})
        assert all(p.overrides == () for p in plans)

    def test_comm_bound_profile_generates_kind_moves(self):
        plans = initial_moves(self.SPACE, {"comm_share": 0.5})
        kinds = [p for p in plans if p.overrides]
        # x is all-block already: only the cyclic move is new
        assert [p.overrides[0].array for p in kinds] == ["x"]
        assert kinds[0].overrides[0].specs == (("cyclic", None),)

    def test_cold_targets_keep_defaults(self):
        plans = initial_moves(self.SPACE, {"comm_share": 0.5})
        assert all(
            ov.array != "cold" for p in plans for ov in p.overrides
        )

    def test_block_cyclic_only_chases_cyclic_wins(self):
        cyc = Plan(4, (DistOverride("x", (("cyclic", None),)),))
        lost = refine_moves(self.SPACE, 100.0, [(cyc, {"time_us": 150.0})])
        assert lost == []
        won = refine_moves(self.SPACE, 100.0, [(cyc, {"time_us": 50.0})])
        assert {p.overrides[0].specs[0] for p in won} == {
            ("block_cyclic", 2), ("block_cyclic", 4), ("block_cyclic", 8),
        }


class TestSearch:
    def test_budget_is_respected(self):
        out = autotune(SRC, OPTS, budget=3, workers=0)
        assert out.evaluated <= 3

    def test_budget_one_returns_base(self):
        out = autotune(SRC, OPTS, budget=1, workers=0)
        assert out.best == out.base.plan
        assert out.evaluated == 1

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            autotune(SRC, OPTS, budget=0)

    def test_finds_stencil_improvement(self):
        out = autotune(SRC, OPTS, budget=12, workers=0)
        assert out.best_metrics["time_us"] < out.base.time_us
        assert out.predicted_speedup > 1.0

    def test_deterministic(self):
        a = autotune(SRC, OPTS, budget=8, workers=0, memo_dir="")
        b = autotune(SRC, OPTS, budget=8, workers=0, memo_dir="")
        assert [(r.plan, r.metrics["time_us"]) for r in a.records] == \
            [(r.plan, r.metrics["time_us"]) for r in b.records]
        assert a.best == b.best

    def test_memo_hits_on_second_run(self):
        first = autotune(SRC, OPTS, budget=8, workers=0)
        again = autotune(SRC, OPTS, budget=8, workers=0)
        assert first.memo_hits == 0
        assert again.memo_hits == len(first.records)
        assert again.evaluated == 1  # only the (untraced-memo) base
        assert again.best == first.best

    def test_parallel_equals_serial(self):
        serial = autotune(SRC, OPTS, budget=8, workers=0, memo_dir="")
        par = autotune(SRC, OPTS, budget=8, workers=2, memo_dir="")
        key = lambda o: sorted(
            (r.plan.describe(), r.metrics.get("time_us"))
            for r in o.records
        )
        assert key(serial) == key(par)
        assert serial.best == par.best
        assert serial.best_metrics["time_us"] == \
            par.best_metrics["time_us"]

    def test_outcome_as_dict_is_json_ready(self):
        out = autotune(SRC, OPTS, budget=4, workers=0)
        d = json.loads(json.dumps(out.as_dict()))
        assert d["best"]["plan"]
        assert d["base"]["metrics"]["time_us"] > 0
        assert isinstance(d["plans"], list)
        assert d["predicted_speedup"] >= 1.0

    def test_report_renders(self):
        out = autotune(SRC, OPTS, budget=8, workers=0)
        text = render_tune_report(out)
        assert "as-written" in text
        assert "plans/s" in text


class TestTunedPlanCorrectness:
    def test_best_plan_reruns_bit_identical_to_sequential(self):
        """Applying the winning plan must not change program results:
        the tuned run's gathered arrays equal sequential execution."""
        from repro.core import compile_program
        from repro.machine import IPSC860

        src = cg_source(32, 4)
        out = autotune(src, Options(nprocs=4), budget=10, workers=0)
        tuned = out.best.apply(Options(nprocs=4))
        cp = compile_program(src, tuned)
        res = cp.run(cost=IPSC860, timeout_s=60.0)
        seq = run_sequential(parse(src))
        for name in ("x", "r"):
            if name in seq.arrays:
                got = res.gathered(name)
                assert np.array_equal(got, seq.arrays[name].data) or \
                    np.allclose(got, seq.arrays[name].data)

    def test_predicted_time_matches_applied_run(self):
        """The plan the tuner reports reproduces the tuner's own
        measurement when applied through the normal compile path."""
        from repro.core import compile_program
        from repro.machine import IPSC860

        out = autotune(SRC, OPTS, budget=8, workers=0)
        cp = compile_program(SRC, out.best.apply(OPTS))
        res = cp.run(cost=IPSC860, scheduler="event", codegen=False,
                     timeout_s=60.0)
        assert res.stats.time_us == pytest.approx(
            out.best_metrics["time_us"], rel=0, abs=1e-9
        )
