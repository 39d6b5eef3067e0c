"""Command-line driver: the ``fdc`` Fortran D compiler.

Usage::

    fdc program.fd                       # compile, print node program
    fdc program.fd --nprocs 8 --mode rtr
    fdc program.fd --run                 # execute on the simulated machine
    fdc program.fd --run --gather x      # print the gathered array
    fdc program.fd --report              # compilation decisions
    fdc program.fd --localize f1         # Figure-2-style local view
    fdc program.fd --sequential          # reference run of the source
    fdc program.fd --trace out.json      # Chrome/Perfetto event trace
    fdc program.fd --profile             # comm hot spots + critical path
    fdc program.fd --run --stats-json s.json
    fdc program.fd --run --scheduler event --topology hypercube

Compile-service subcommands and client mode::

    fdc serve --socket /tmp/fdc.sock   # run the compile daemon
    fdc ping --server /tmp/fdc.sock    # liveness + stats probe
    fdc metrics --server auto          # Prometheus text exposition
    fdc metrics --json --watch         # live JSON metrics snapshots
    fdc shutdown --server auto         # stop the daemon
    fdc program.fd --server auto       # compile via the daemon,
                                       # in-process fallback if down

(also available as ``python -m repro.cli``)
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import (
    DynOpt,
    Mode,
    Options,
    parse_distribute_args,
)
from .core.localize import localized_procedure_text
from .dist import Distribution
from .runtime.node import run_sequential
from .lang import parse
from .machine import FAST_NETWORK, FREE, IPSC860, FaultPlan, SimulationError
from .obs import Tracer, profile_report, write_chrome_trace


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fdc",
        description="Fortran D compiler for simulated MIMD "
                    "distributed-memory machines (SC'92 reproduction)",
    )
    p.add_argument("source", help="Fortran D source file ('-' for stdin)")
    p.add_argument("--nprocs", "-p", type=int, default=4,
                   help="number of node processors (default 4)")
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default="inter",
                   help="compilation strategy: inter(procedural), "
                        "intra (immediate instantiation), rtr "
                        "(run-time resolution)")
    p.add_argument("--dynopt", type=int, choices=[0, 1, 2, 3], default=3,
                   help="dynamic-decomposition optimization level "
                        "(0=none .. 3=array kills; Figure 16 a-d)")
    p.add_argument("--cost", choices=["ipsc860", "fast", "free"],
                   default="ipsc860", help="communication cost model")
    p.add_argument("--run", action="store_true",
                   help="execute the node program on the simulated "
                        "machine and print statistics")
    p.add_argument("--faults", metavar="SPEC",
                   help="with --run: inject deterministic faults, e.g. "
                        "'delay=0.5:80,drop=0.1,slow=1:2.0,crash=2@5000' "
                        "(also via REPRO_FAULTS)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault plan (default 0; also via "
                        "REPRO_FAULT_SEED)")
    p.add_argument("--scheduler", choices=["event", "threads"],
                   default=None,
                   help="with --run: simulation backend — 'event' is the "
                        "single-threaded event-driven core (default), "
                        "'threads' the thread-per-rank oracle it is "
                        "checked against (also via REPRO_SCHEDULER)")
    p.add_argument("--topology", metavar="NAME", default=None,
                   help="with --run: interconnect topology — uniform "
                        "(default), hypercube, mesh2d, torus2d, fattree; "
                        "append ':contention' for per-link contention, "
                        "e.g. 'mesh2d:contention' (also via "
                        "REPRO_TOPOLOGY)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="wall-clock safety-net timeout in seconds "
                        "(default REPRO_SIM_TIMEOUT or 60; deadlocks "
                        "are detected instantly regardless)")
    p.add_argument("--distribute", metavar="ARRAY=KIND[:k]",
                   action="append", default=None,
                   help="override an array's distribution without "
                        "editing source (repeatable): KIND is block, "
                        "cyclic, or block_cyclic:k; a comma list gives "
                        "per-dimension specs, e.g. a=:,cyclic — this is "
                        "the override the auto-tuner emits")
    p.add_argument("--autotune", action="store_true",
                   help="search per-array distributions and processor "
                        "counts on the simulator (event backend), report "
                        "the best plan + predicted speedup, and apply it "
                        "to this compilation")
    p.add_argument("--budget", type=int, default=32, metavar="N",
                   help="with --autotune: maximum candidate-plan "
                        "evaluations (default 32)")
    p.add_argument("--tune-workers", type=int, default=None, metavar="N",
                   help="with --autotune: evaluate candidates across N "
                        "worker processes (default: 0, the in-process "
                        "serial sweep)")
    p.add_argument("--tune-json", metavar="FILE",
                   help="with --autotune: write the machine-readable "
                        "search result (plans, objectives, best) as JSON")
    p.add_argument("--strict", action="store_true",
                   help="fail compilation on unanalyzable procedures "
                        "instead of demoting them to run-time "
                        "resolution")
    p.add_argument("--gather", metavar="ARRAY",
                   help="with --run: print the gathered global array")
    p.add_argument("--verify", action="store_true",
                   help="with --run: compare against sequential "
                        "execution of the source")
    p.add_argument("--sequential", action="store_true",
                   help="run the source sequentially and exit")
    p.add_argument("--report", action="store_true",
                   help="print compilation decisions (distributions, "
                        "clones, communication placements, fallbacks)")
    p.add_argument("--localize", metavar="PROC",
                   help="print PROC with Figure-2-style local "
                        "declarations (block distributions)")
    p.add_argument("--no-text", action="store_true",
                   help="suppress printing the node program")
    p.add_argument("--trace", metavar="FILE",
                   help="record compiler phases and simulation events, "
                        "write a Chrome trace-event JSON loadable in "
                        "Perfetto (implies --run)")
    p.add_argument("--profile", action="store_true",
                   help="print communication hot spots, the rank x rank "
                        "message matrix, and the virtual-time critical "
                        "path (implies --run)")
    p.add_argument("--stats-json", metavar="FILE",
                   help="with --run: write RunStats.as_dict() as JSON")
    p.add_argument("--metrics", action="store_true", default=None,
                   help="with --run: record simulator metrics; the "
                        "registry snapshot lands in --stats-json under "
                        "'metrics' (also via REPRO_METRICS)")
    p.add_argument("--codegen", dest="codegen", action="store_true",
                   default=None,
                   help="run generated node-program modules "
                        "(REPRO_CODEGEN, default on)")
    p.add_argument("--no-codegen", dest="codegen", action="store_false",
                   help="force the closure-tree interpreter")
    p.add_argument("--codegen-dump", metavar="FILE",
                   help="write the generated node-program source, "
                        "one module every rank runs, to FILE ('-' for "
                        "stdout)")
    p.add_argument("--server", metavar="WHERE", default=None,
                   help="compile via a running 'fdc serve' daemon: "
                        "'off', 'auto' (per-user default socket), or "
                        "a socket path (also via REPRO_SERVER; falls "
                        "back to in-process compilation when the "
                        "daemon is unreachable)")
    return p


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


COSTS = {"ipsc860": IPSC860, "fast": FAST_NETWORK, "free": FREE}


SERVICE_COMMANDS = ("serve", "ping", "metrics", "shutdown")


def _service_main(cmd: str, argv: list[str]) -> int:
    """``fdc serve`` / ``fdc ping`` / ``fdc shutdown``."""
    from .service import CompileClient, CompileDaemon, ServiceError
    from .service.client import default_socket_path, resolve_server

    p = argparse.ArgumentParser(prog=f"fdc {cmd}")
    p.add_argument("--socket", "--server", dest="socket", default=None,
                   metavar="PATH",
                   help="daemon socket path ('auto' or unset: the "
                        "per-user default, also via REPRO_SERVER)")
    if cmd == "serve":
        p.add_argument("--store", metavar="DIR", default=None,
                       help="persistent summary-store directory "
                            "(default: in-memory only)")
        p.add_argument("--pool", type=int, default=2,
                       help="worker processes (0 = compile in-daemon)")
        p.add_argument("--queue-limit", type=int, default=8,
                       help="bounded compile-queue length")
        p.add_argument("--handlers", type=int, default=2,
                       help="concurrent request handlers")
        p.add_argument("--max-deadline", type=float, default=300.0,
                       metavar="S", help="per-request deadline ceiling")
        p.add_argument("--seed", type=int, default=0,
                       help="supervisor backoff-jitter seed")
    if cmd == "metrics":
        p.add_argument("--json", action="store_true",
                       help="print the JSON metrics snapshot instead "
                            "of the Prometheus text exposition")
        p.add_argument("--watch", action="store_true",
                       help="refresh continuously until interrupted")
        p.add_argument("--interval", type=float, default=2.0,
                       metavar="S",
                       help="refresh period for --watch (default 2)")
    args = p.parse_args(argv)
    path = resolve_server(args.socket) or default_socket_path()

    if cmd == "serve":
        daemon = CompileDaemon(
            path, store_dir=args.store, pool_size=args.pool,
            queue_limit=args.queue_limit, handlers=args.handlers,
            max_deadline_s=args.max_deadline, seed=args.seed,
        )
        print(f"fdc serve: listening on {path} "
              f"(pool={args.pool} queue={args.queue_limit})")
        try:
            daemon.serve_forever()
        except KeyboardInterrupt:
            daemon.stop()
        return 0

    client = CompileClient(path)
    try:
        if cmd == "ping":
            rep = client.ping()
            print(f"pong from pid {rep['pid']} at {path}")
        elif cmd == "metrics":
            import time as _time

            while True:
                rep = client.metrics()
                if args.json:
                    print(json.dumps(rep["metrics"], indent=2,
                                     sort_keys=True))
                else:
                    sys.stdout.write(rep["prometheus"])
                if not args.watch:
                    break
                sys.stdout.flush()
                _time.sleep(max(0.1, args.interval))
        else:
            client.shutdown()
            print(f"shutdown sent to {path}")
        return 0
    except KeyboardInterrupt:
        return 0
    except (OSError, TimeoutError, ServiceError) as e:
        print(f"fdc {cmd}: {e}", file=sys.stderr)
        return 1


def _sequential_reference(source: str):
    """``run_sequential`` of *source*, or None once its failure has
    been reported as one ``fdc:`` line."""
    try:
        return run_sequential(parse(source))
    except Exception as e:
        print(f"fdc: sequential reference failed: {e}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SERVICE_COMMANDS:
        return _service_main(argv[0], argv[1:])
    args = build_parser().parse_args(argv)
    try:
        source = _read_source(args.source)
    except OSError as e:
        print(f"fdc: {e}", file=sys.stderr)
        return 2

    if args.sequential:
        frame = _sequential_reference(source)
        if frame is None:
            return 1
        for name, arr in frame.arrays.items():
            print(f"{name}: shape={arr.data.shape} "
                  f"sum={float(arr.data.sum()):.6g}")
        return 0

    if args.trace or args.profile:
        args.run = True
    tracer = Tracer() if (args.trace or args.profile) else None

    try:
        overrides = parse_distribute_args(args.distribute or [])
    except ValueError as e:
        print(f"fdc: {e}", file=sys.stderr)
        return 2

    opts = Options(
        nprocs=args.nprocs,
        mode=Mode(args.mode),
        dynopt=DynOpt(args.dynopt),
        strict=args.strict,
        distribute=overrides,
    )

    if args.autotune:
        from .tune import autotune, render_tune_report

        try:
            outcome = autotune(
                source, opts, budget=args.budget,
                workers=args.tune_workers,
            )
        except Exception as e:
            print(f"fdc: autotune failed: {e}", file=sys.stderr)
            return 1
        print(render_tune_report(outcome))
        if args.tune_json:
            with open(args.tune_json, "w") as f:
                json.dump(outcome.as_dict(), f, indent=2, sort_keys=True)
                f.write("\n")
        # apply the winning plan to this compilation: the rest of the
        # run (--run/--verify/--report/...) sees the tuned layout
        opts = outcome.best.apply(opts)
        args.nprocs = opts.nprocs

    try:
        from .service import compile_with_fallback

        cp, sinfo = compile_with_fallback(
            source, opts, server=args.server, trace=tracer)
    except Exception as e:  # surface compile errors with a clean message
        print(f"fdc: compilation failed: {e}", file=sys.stderr)
        return 1
    if sinfo.get("attempts") and sinfo["used"] != "server":
        # a server was configured (and tried) but not used
        print(f"! server fallback: {sinfo['cause']}", file=sys.stderr)

    if not args.no_text:
        print(cp.text())

    if args.report:
        print(cp.explain())

    if args.codegen_dump:
        from .codegen import get_generated
        from .codegen.vectorize import enabled as vec_enabled

        try:
            gen, _, _ = get_generated(cp.program, opts.nprocs,
                                      vec_enabled(None), load=False)
        except Exception as e:
            print(f"fdc: codegen failed: {e}", file=sys.stderr)
            return 1
        dump = gen.dump()
        if args.codegen_dump == "-":
            print(dump)
        else:
            with open(args.codegen_dump, "w") as f:
                f.write(dump)
            print(f"! codegen: node-program module -> {args.codegen_dump}")

    if args.localize:
        try:
            proc = cp.program.unit(args.localize)
        except KeyError:
            print(f"fdc: no procedure named {args.localize!r}",
                  file=sys.stderr)
            return 2
        dists: dict[str, Distribution] = {}
        for d in proc.decls:
            key = (args.localize, d.name)
            dist = cp.initial_dists.get(key)
            if dist is None and d.is_array:
                # formals: use any caller's distribution of that array
                for (_p, a), dd in cp.initial_dists.items():
                    if a == d.name:
                        dist = dd
                        break
            if dist is not None:
                dists[d.name] = dist
        overlaps = {
            arr: offs
            for (p, arr), offs in cp.report.overlaps.items()
        }
        print(localized_procedure_text(proc, dists, overlaps))

    if args.run:
        faults = None
        if args.faults:
            try:
                faults = FaultPlan.parse(args.faults, args.fault_seed)
            except ValueError as e:
                print(f"fdc: {e}", file=sys.stderr)
                return 2
        from .codegen import CodegenError

        try:
            res = cp.run(cost=COSTS[args.cost], faults=faults,
                         timeout_s=args.timeout,
                         scheduler=args.scheduler,
                         trace=tracer,
                         topology=args.topology,
                         codegen=args.codegen,
                         metrics=args.metrics)
        except CodegenError as e:  # an internal error, never the program's
            print(f"fdc: codegen failed: {e}", file=sys.stderr)
            return 1
        except (SimulationError, ValueError) as e:
            print(f"fdc: simulation failed: {e}", file=sys.stderr)
            return 1
        print(f"! {res.stats.summary()}")
        if args.report:
            print(f"! {res.stats.sched_summary()}")
        if args.stats_json:
            with open(args.stats_json, "w") as f:
                json.dump(res.stats.as_dict(), f, indent=2, sort_keys=True)
                f.write("\n")
        if args.trace:
            write_chrome_trace(tracer, args.trace)
            print(f"! trace: {tracer.event_count()} events -> "
                  f"{args.trace} (chrome://tracing or ui.perfetto.dev)")
        if args.profile:
            from .machine import resolve_topology

            topo = resolve_topology(args.topology, args.nprocs)
            print(profile_report(tracer, res.stats, topology=topo))
        for line in res.prints:
            print(line)
        if args.gather:
            try:
                data = res.gathered(args.gather)
            except KeyError:
                print(f"fdc: no array named {args.gather!r}",
                      file=sys.stderr)
                return 2
            np.set_printoptions(precision=4, threshold=64)
            print(f"{args.gather} = {data}")
        if args.verify:
            seq = _sequential_reference(source)
            if seq is None:
                return 1
            ok = True
            for name, arr in seq.arrays.items():
                if name not in res.frames[0].arrays:
                    continue
                got = res.gathered(name)
                same = np.allclose(got, arr.data, equal_nan=True)
                ok &= same
                # equal NaNs pass without a value compared: say how
                # many elements were compared by value
                finite = int(np.count_nonzero(np.isfinite(got)
                                              & np.isfinite(arr.data)))
                print(f"! verify {name}: "
                      f"{'OK' if same else 'MISMATCH'} "
                      f"({finite}/{got.size} finite)")
            if not ok:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
