"""The five workloads of the end-to-end benchmark.

A *workload* is a list of programs plus the definition of one
*operation* on them; a *pass* executes every operation once.  All
measurement is from outside the program: operations call the public
entry points (``compile_program``, ``CompiledProgram.run``,
``run_sequential``, ``CompileClient.compile``, ``fdc serve`` as a
subprocess) and read what they already publish (``RunStats``,
``CompileReport``).

Every operation verifies its output against a reference that does not
come from the code under test: simulated runs against the independent
sequential interpreter, cold compiles against the text of a set-up
compile whose result was run and verified, service replies against the
in-process compiler.  A miss is a failed operation, never an exception
that aborts the run.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro import codegen
from repro.apps import (
    adi_source,
    cg_source,
    dgefa_pivot_source,
    dgefa_source,
    fig15_source,
    make_dgefa_init,
    stencil1d_source,
    stencil2d_source,
    wave_source,
)
from repro.core import Mode, Options, compile_program
from repro.interp import run_sequential
from repro.interp.interpreter import default_init
from repro.lang import parse
from repro.machine import IPSC860
from repro.service import (
    CompileClient,
    ServiceError,
    compile_with_fallback,
)
from repro.service.protocol import FrameError

#: per-operation deadline; an operation that overruns it is a failure
OP_DEADLINE_S = 120.0

#: the simulated (paper) metrics; identical on every pass of a run
EXACT = ("virtual_time_us", "messages", "bytes_sent", "node_program_bytes")


class VerifyError(Exception):
    """An operation's output differs from its reference."""


class OpTimeout(Exception):
    """An operation overran :data:`OP_DEADLINE_S`."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_DEADLINE_S:.0f} s")


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


# ---------------------------------------------------------------------------
# spans: the benchmark's own trace (kept in memory, written at exit)
# ---------------------------------------------------------------------------


class Spans:
    """Spans around the calls into each layer: name, start, end, the
    span that caused it, and the program it worked on."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._open: list[int] = []
        self.epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, program: Optional[str] = None):
        row = {"id": len(self.rows), "name": name, "program": program,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter() - self.epoch, "end": None}
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            self._open.pop()
            row["end"] = time.perf_counter() - self.epoch

    def add(self, name: str, program: Optional[str],
            t0: float, t1: float) -> None:
        """Adopt a span measured elsewhere (a Tracer phase), given in
        ``time.perf_counter`` seconds."""
        self.rows.append({
            "id": len(self.rows), "name": name, "program": program,
            "parent": self._open[-1] if self._open else None,
            "start": t0 - self.epoch, "end": t1 - self.epoch})

    def durations(self, name: str,
                  program: Optional[str] = None) -> list[float]:
        return [r["end"] - r["start"] for r in self.rows
                if r["name"] == name and r["end"] is not None
                and (program is None or r["program"] == program)]

    def total(self, name: str, program: Optional[str] = None) -> float:
        return sum(self.durations(name, program))


def span(spans: Optional[Spans], name: str, program: Optional[str] = None):
    """A span when tracing, nothing in the timed passes."""
    return spans.span(name, program) if spans is not None else nullcontext()


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


@dataclass
class Prog:
    """One (source, compile options, run options) the workload uses."""

    name: str
    src: str
    nprocs: int
    mode: Mode = Mode.INTER
    init_fn: Optional[Callable] = None
    run_kw: dict = field(default_factory=dict)

    @property
    def opts(self) -> Options:
        return Options(nprocs=self.nprocs, mode=self.mode)


def _const(rng: random.Random, whole: Optional[int] = None) -> str:
    """A fixed-width ``ddd.dd`` literal with no trailing zero, so the
    generated-code size does not depend on the seed.  Seeded integer
    parts stay below 900; edits pass *whole* >= 900 to be never-seen."""
    if whole is None:
        whole = rng.randrange(100, 900)
    return f"{whole}.{rng.randrange(0, 10)}{rng.randrange(1, 10)}"


def _shifts(k: int, rng: random.Random) -> list[int]:
    """A fixed multiset of stencil shifts in seeded order: the seed
    moves which stage gets which shift, not the total traffic."""
    out = [1 + j % 3 for j in range(k)]
    rng.shuffle(out)
    return out


def pipeline_spec(k: int, rng: random.Random) -> list[tuple[int, str]]:
    return [(s, _const(rng)) for s in _shifts(k, rng)]


def pipeline_source(spec: list[tuple[int, str]], n: int = 256) -> str:
    """main + one relaxation stage per spec entry (the shape of the
    legacy ``test_bench_service.make_app``): a one-procedure edit
    leaves every other procedure untouched."""
    parts = ["program p", f"real x({n}), y({n})",
             "align y(i) with x(i)", "distribute x(block)"]
    parts += [f"call stage{j}(x, y)" for j in range(len(spec))]
    parts.append("end")
    for j, (s, c) in enumerate(spec):
        parts += [f"subroutine stage{j}(x, y)", f"real x({n}), y({n})",
                  f"do i = {1 + s}, {n - s}",
                  f"  y(i) = f(x(i - {s})) + f(x(i + {s})) + {c}",
                  "enddo",
                  f"do i = 1, {n}", "  x(i) = y(i) * 0.5", "enddo",
                  "end"]
    return "\n".join(parts) + "\n"


def chain_source(depth: int, n: int, rng: random.Random) -> str:
    """A *depth*-deep call chain: every interprocedural fact travels
    the whole height of the call graph."""
    parts = ["program p", f"real x({n}), y({n})",
             "align y(i) with x(i)", "distribute x(block)",
             "call c1(x, y)", "end"]
    for j, s in enumerate(_shifts(depth, rng), start=1):
        parts += [f"subroutine c{j}(x, y)", f"real x({n}), y({n})",
                  f"do i = 1, {n - s}",
                  f"  y(i) = f(x(i + {s})) + {_const(rng)}", "enddo",
                  f"do i = 1, {n}", "  x(i) = y(i) * 0.5", "enddo"]
        if j < depth:
            parts.append(f"call c{j + 1}(x, y)")
        parts.append("end")
    return "\n".join(parts) + "\n"


def clonefan_source(fan: int, n: int, rng: random.Random) -> str:
    """Figure-4 shaped: each of *fan* callee pairs is reached with a
    row-distributed and a column-distributed actual, so interprocedural
    compilation must clone it."""
    parts = ["program p", f"real x({n},{n}), y({n},{n})",
             "align y(i, j) with x(j, i)", "distribute x(block, :)"]
    for j in range(fan):
        parts += [f"do i = 1, {n}", f"  call g{j}(x, i)", "enddo",
                  f"do j = 1, {n}", f"  call g{j}(y, j)", "enddo"]
    parts.append("end")
    for j, s in enumerate(_shifts(fan, rng)):
        parts += [f"subroutine g{j}(z, i)", f"real z({n},{n})",
                  f"call h{j}(z, i)", "end",
                  f"subroutine h{j}(z, i)", f"real z({n},{n})",
                  f"do k = 1, {n - s}",
                  f"  z(k, i) = f(z(k + {s}, i)) + {_const(rng)}",
                  "enddo", "end"]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# references and verification
# ---------------------------------------------------------------------------


def sequential_reference(prog: Prog) -> dict[str, np.ndarray]:
    """The independent sequential interpreter's arrays — what
    ``fdc --verify`` compares against."""
    frame = run_sequential(parse(prog.src),
                           init_fn=prog.init_fn or default_init)
    return {name: arr.data for name, arr in frame.arrays.items()}


def check_arrays(prog: Prog, res, ref: dict[str, np.ndarray]) -> None:
    """Compare every gathered array to the reference as ``fdc --verify``
    does; raise :class:`VerifyError` naming the mismatching arrays."""
    bad = [name for name, want in ref.items()
           if name in res.frames[0].arrays
           and not np.allclose(res.gathered(name), want)]
    if bad:
        raise VerifyError(f"{prog.name}: arrays differ from the "
                          f"sequential reference: {', '.join(bad)}")


def run_and_verify(prog: Prog, cp, ref, spans=None,
                   run_span: str = "machine.run", **override):
    """``cp.run`` on the simulated machine + verification; returns the
    RunStats.  *override* replaces entries of ``prog.run_kw``; the run
    alone (not the verification) is recorded as span *run_span*."""
    kw = {**prog.run_kw, **override}
    with span(spans, run_span, prog.name):
        res = cp.run(cost=IPSC860, init_fn=prog.init_fn,
                     timeout_s=OP_DEADLINE_S, **kw)
    with span(spans, "bench.verify", prog.name):
        check_arrays(prog, res, ref)
    return res.stats


def sim_facts(stats) -> dict:
    return {
        "virtual_time_us": stats.time_us,
        "messages": stats.messages + stats.collectives,
        # remap exchanges are already in ``bytes`` (record_exchange)
        "bytes_sent": stats.bytes + stats.collective_bytes,
    }


def add_facts(into: dict, facts: dict) -> None:
    for k, v in facts.items():
        into[k] = into.get(k, 0) + v


# ---------------------------------------------------------------------------
# operations and passes
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    seconds: float
    error: Optional[str] = None
    facts: dict = field(default_factory=dict)
    stats: object = None  # RunStats of a simulated run (traced pass)
    sample: bool = True   # counts toward the request-latency metrics


def run_op(name: str, fn: Callable[[], tuple[dict, object]],
           sample: bool = True) -> OpResult:
    """Run one operation under the deadline; failures are recorded with
    the program name, never raised."""
    facts, stats, error = {}, None, None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    try:
        facts, stats = fn()
    except Exception as e:  # the boundary: count it, keep running
        error = f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    if error is not None:
        print(f"  FAILED op {name}: {error}", flush=True)
    return OpResult(name, seconds, error, facts, stats, sample)


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    ops: list[OpResult]


class Workload:
    """Base: set-up builds inputs and references; ``run_pass`` executes
    every operation once and returns its timing and per-op results."""

    name = ""
    #: set-up already executes every operation once (no separate
    #: warm-up pass needed)
    setup_warms = False

    def __init__(self, seed: int, tmp: str, corrupt: bool = False) -> None:
        self.seed = seed
        self.tmp = tmp
        self.corrupt = corrupt
        self.progs: list[Prog] = []
        self.refs: dict[str, dict[str, np.ndarray]] = {}
        #: seconds spent in the sequential interpreter during set-up
        self.sequential_s = 0.0
        #: failures found during set-up verification
        self.setup_ops: list[OpResult] = []
        #: exact metrics that set-up (not the pass) establishes
        self.setup_facts: dict = {}

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def sources(self) -> dict[str, str]:
        """Distinct sources by name (several programs may share one)."""
        first_name: dict[str, str] = {}
        for p in self.progs:
            first_name.setdefault(p.src, p.name)
        return {name: src for src, name in first_name.items()}

    def build_references(self) -> None:
        by_src: dict[str, dict] = {}
        self.sequential_s = 0.0
        for p in self.progs:
            if p.src not in by_src:
                t0 = time.perf_counter()
                by_src[p.src] = sequential_reference(p)
                self.sequential_s += time.perf_counter() - t0
            self.refs[p.name] = by_src[p.src]
        if self.corrupt:
            first = self.refs[self.progs[0].name]
            name = sorted(first)[0]
            first[name] = first[name] + 1.0

    def fresh_codegen_cache(self) -> None:
        """An empty generated-module disk cache and in-process memo:
        the next compile emits every module."""
        shutil.rmtree(os.environ["REPRO_CODEGEN_CACHE"], ignore_errors=True)
        codegen.reset_memory()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, prog: Prog, spans=None) -> tuple[dict, object]:
        raise NotImplementedError

    def run_pass(self, spans: Optional[Spans] = None) -> PassResult:
        ops = []
        t0, c0 = time.perf_counter(), time.process_time()
        for prog in self.progs:
            with span(spans, "bench.op", prog.name):
                ops.append(run_op(prog.name,
                                  lambda p=prog: self.op(p, spans)))
        return PassResult(time.perf_counter() - t0,
                          time.process_time() - c0, ops)

    def latency_samples(self, passes: list[PassResult]) -> list[float]:
        """What ``req_p50_s`` / ``req_p90_s`` are quantiles of; empty
        where the request is the whole pass.  The operations of a pass
        differ (one per program), so a quantile of their latencies would
        sit in the gap between two programs and jump with the noise, and
        the 90th percentile of a handful of passes is their maximum:
        both metrics then read ``pass_s``."""
        return []


class SimWorkload(Workload):
    """source -> verified SPMD result, as ``fdc --run --verify`` does it
    in-process: compile (memo on, generated modules on disk) + run with
    the program's scheduler/topology + compare with the reference."""

    def make_progs(self) -> list[Prog]:
        raise NotImplementedError

    def setup(self) -> None:
        self.progs = self.make_progs()
        self.build_references()
        self.fresh_codegen_cache()

    def op(self, prog: Prog, spans=None) -> tuple[dict, object]:
        with span(spans, "core.compile_program", prog.name):
            cp = compile_program(prog.src, prog.opts)
        stats = run_and_verify(prog, cp, self.refs[prog.name], spans)
        facts = sim_facts(stats)
        facts["node_program_bytes"] = len(cp.text())
        return facts, stats


class SimCompute(SimWorkload):
    name = "sim_compute"

    def make_progs(self):
        return [
            Prog("dgefa128.p16", dgefa_source(128), 16,
                 init_fn=make_dgefa_init(128)),
            Prog("adi128x8.p16", adi_source(128, 8), 16),
            Prog("stencil2d256x8.p4", stencil2d_source(256, 8), 4),
        ]


class SimComm(SimWorkload):
    name = "sim_comm"

    def make_progs(self):
        st = stencil1d_source(4096, 200)
        return [
            Prog("stencil1d4096x200.p64", st, 64),
            Prog("stencil1d4096x200.p4", st, 4),
            Prog("wave1024x100.p32", wave_source(1024, 100), 32),
            Prog("cg256x20.p16", cg_source(256, 20), 16),
            Prog("fig15_2000x50.p8", fig15_source(2000, 50), 8),
        ]


class SimScale(SimWorkload):
    name = "sim_scale"

    def make_progs(self):
        st = stencil1d_source(16384, 20)
        return [
            Prog("stencil1d16384x20.p512.uniform", st, 512,
                 run_kw={"scheduler": "event"}),
            Prog("stencil1d16384x20.p512.hypercube", st, 512,
                 run_kw={"scheduler": "event", "topology": "hypercube"}),
        ]


class CompileCold(Workload):
    """source text -> CompiledProgram with generated modules loaded,
    nothing cached: compile memo off, empty generated-module cache."""

    name = "compile_cold"
    setup_warms = True
    NPROCS = 8

    def setup(self) -> None:
        rng = self.rng()
        sources = [
            ("pipeline64", pipeline_source(pipeline_spec(64, rng))),
            ("chain32", chain_source(32, 256, rng)),
            ("clonefan", clonefan_source(4, 32, rng)),
            ("dgefa_pivot64", dgefa_pivot_source(64)),
            ("cg256x20", cg_source(256, 20)),
            ("adi64x4", adi_source(64, 4)),
            ("fig15_100x10", fig15_source(100, 10)),
        ]
        self.progs = [
            Prog(f"{name}.{mode.value}", src, self.NPROCS, mode)
            for name, src in sources
            for mode in (Mode.RTR, Mode.INTRA, Mode.INTER)
        ]
        self.build_references()
        # one verified compile per (program, mode): its text is what
        # every timed compile must reproduce byte for byte
        self.want: dict[str, str] = {}
        self.setup_facts = {}
        self.setup_ops = []
        for prog in self.progs:
            r = run_op(f"setup:{prog.name}",
                       lambda p=prog: self.verified_compile(p))
            self.setup_ops.append(r)
            add_facts(self.setup_facts, r.facts)

    def cold_compile(self, prog: Prog, spans=None):
        self.fresh_codegen_cache()
        with span(spans, "core.compile_program", prog.name):
            cp = compile_program(prog.src, prog.opts)
        if codegen.GEN_COUNTS["generated"] == 0:
            raise VerifyError(f"{prog.name}: no node-program module "
                              f"was generated")
        return cp

    def verified_compile(self, prog: Prog):
        cp = self.cold_compile(prog)
        stats = run_and_verify(prog, cp, self.refs[prog.name])
        self.want[prog.name] = hashlib.sha256(
            cp.text().encode()).hexdigest()
        return sim_facts(stats), stats

    def op(self, prog: Prog, spans=None):
        text = self.cold_compile(prog, spans).text()
        with span(spans, "bench.verify", prog.name):
            got = hashlib.sha256(text.encode()).hexdigest()
            if got != self.want.get(prog.name):
                raise VerifyError(f"{prog.name}: node program differs "
                                  f"from the verified set-up compile")
        return {"node_program_bytes": len(text)}, None


# ---------------------------------------------------------------------------
# service_edit
# ---------------------------------------------------------------------------


def tree_cpu_s(root: int) -> float:
    """user+sys CPU seconds of *root* and its live descendants, read
    from /proc (0.0 where /proc is unavailable)."""
    procs: dict[int, tuple[int, int]] = {}
    try:
        pids = [d for d in os.listdir("/proc") if d.isdigit()]
    except OSError:
        return 0.0
    for d in pids:
        try:
            with open(f"/proc/{d}/stat") as fh:
                rest = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited between listdir and open
        procs[int(d)] = (int(rest[1]), int(rest[11]) + int(rest[12]))
    ticks, todo = 0, [root]
    while todo:
        pid = todo.pop()
        if pid in procs:
            ticks += procs[pid][1]
            todo += [c for c, (pp, _) in procs.items() if pp == pid]
    return ticks / os.sysconf("SC_CLK_TCK")


class Daemon:
    """One ``fdc serve`` child with its own socket and summary store in
    a session directory.  Paths are relative (the daemon runs inside the
    session directory) so the unix-socket path limit is never near."""

    def __init__(self, session_dir: str) -> None:
        self.dir = session_dir
        os.makedirs(session_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", "d.sock", "--store", "store",
             "--pool", "1", "--handlers", "2"],
            cwd=session_dir, stdout=subprocess.DEVNULL)
        self.client = CompileClient(os.path.join(session_dir, "d.sock"),
                                    timeout_s=OP_DEADLINE_S)
        give_up = time.monotonic() + 60.0
        while True:
            try:
                self.client.ping()
                return
            except OSError:
                if self.proc.poll() is not None \
                        or time.monotonic() > give_up:
                    self.stop()
                    raise RuntimeError("fdc serve did not start")
                time.sleep(0.01)

    def cpu_s(self) -> float:
        return tree_cpu_s(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, ServiceError, FrameError,
                    subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


class ServiceEdit(Workload):
    """An editing session against ``fdc serve``: one cold request, 48
    never-seen one-procedure edits, 48 exact repeats."""

    name = "service_edit"
    setup_warms = True  # a short session, see setup()
    STAGES = 32
    EDITS = 48
    NPROCS = 8

    def setup(self) -> None:
        rng = self.rng()
        spec = pipeline_spec(self.STAGES, rng)
        base = pipeline_source(spec)
        self.progs = [Prog("pipeline32", base, self.NPROCS)]
        self.opts = self.progs[0].opts
        # cumulative edits in seeded order: each request differs from
        # the one before in a single stage's constant
        order: list[int] = []
        while len(order) < self.EDITS:
            block = list(range(self.STAGES))
            rng.shuffle(block)
            order += block
        edits = []
        for t, j in enumerate(order[:self.EDITS]):
            spec[j] = (spec[j][0], _const(rng, whole=900 + t))
            edits.append(pipeline_source(spec))
        #: (label, source, counts toward the request-latency metrics)
        self.requests = [("cold", base, False)]
        self.requests += [(f"edit{t}", s, True)
                          for t, s in enumerate(edits)]
        self.requests += [(f"repeat{t}", s, False)
                          for t, s in enumerate(edits)]
        # the reference is the in-process whole-program compiler
        self.want = {src: compile_program(src, self.opts).text()
                     for _, src, _ in self.requests[:1 + self.EDITS]}
        if self.corrupt:
            self.want[base] += "\n"
        self.build_references()
        self.sessions = 0
        # the served program, run and verified once; then a short
        # session so the first timed one does not pay first-use costs
        self.setup_ops = []
        daemon = self.start_daemon()
        try:
            r = run_op("setup:cold-reply-runs",
                       lambda: self.verified_reply(daemon))
            self.setup_ops.append(r)
            self.setup_facts = dict(r.facts)
            for label, src, _ in (self.requests[1:3]
                                  + self.requests[-2:]):
                self.setup_ops.append(run_op(
                    f"setup:{label}",
                    lambda s=src: self.request(daemon.client, s)))
        finally:
            daemon.stop()

    def start_daemon(self) -> Daemon:
        self.sessions += 1
        # relative to the working directory (the run's temp dir), so
        # the socket path stays far below the sun_path limit
        return Daemon(f"s{self.sessions}")

    def verified_reply(self, daemon: Daemon):
        prog = self.progs[0]
        cp = daemon.client.compile(prog.src, self.opts)
        if cp.text() != self.want[prog.src]:
            raise VerifyError("cold reply differs from the in-process "
                              "compile")
        stats = run_and_verify(prog, cp, self.refs[prog.name])
        return sim_facts(stats), stats

    def request(self, client: CompileClient, src: str, spans=None,
                label: Optional[str] = None):
        with span(spans, "service.request", label):
            if spans is None:
                text = client.compile(src, self.opts).text()
            else:
                # the traced session goes through the CLI's client
                # path so its fallback/retry counters are live
                cp, info = compile_with_fallback(
                    src, self.opts, server=client.path)
                if info["used"] != "server":
                    raise VerifyError(f"served locally: "
                                      f"{info.get('cause')}")
                text = cp.text()
        if text != self.want[src]:
            raise VerifyError("reply differs from the in-process "
                              "compile")
        return {"node_program_bytes": len(text)}, None

    def run_pass(self, spans=None) -> PassResult:
        daemon = self.start_daemon()  # fresh daemon + store, untimed
        try:
            ops = []
            d0 = daemon.cpu_s()
            t0, c0 = time.perf_counter(), time.process_time()
            for label, src, sample in self.requests:
                ops.append(run_op(
                    label,
                    lambda s=src, n=label: self.request(
                        daemon.client, s, spans, n),
                    sample))
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0 + daemon.cpu_s() - d0
            if spans is not None:
                self.daemon_stats = daemon.client.stats()
        finally:
            daemon.stop()
        return PassResult(wall, cpu, ops)

    def latency_samples(self, passes: list[PassResult]) -> list[float]:
        """One latency per edit request: every session replays the same
        48 edits against a fresh daemon and store, and a request's
        latency is its fastest replay.  Host contention only ever adds
        time, in bursts that cover whole stretches of a session; pooled
        over the sessions, the median and above all the 90th percentile
        measure how much of the run the bursts covered (README,
        finding 7)."""
        best: dict[str, float] = {}
        for p in passes:
            for o in p.ops:
                if o.sample:
                    best[o.name] = min(best.get(o.name, o.seconds),
                                       o.seconds)
        return list(best.values())


WORKLOADS = {w.name: w for w in
             (CompileCold, SimCompute, SimComm, SimScale, ServiceEdit)}


def peak_rss_mb() -> float:
    """Peak resident set of this process, max with its waited-for
    children (the daemon and its worker)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0
