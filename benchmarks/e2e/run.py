#!/usr/bin/env python3
"""End-to-end benchmark: Fortran D source -> verified SPMD result.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
        [--append-history FILE]
    python benchmarks/e2e/run.py --render FILE

Each workload runs in a fresh child process (``child.py``) with a
scrubbed environment and its own temp directory inside the checkout.
Prints every metric by name with its unit; the last line of standard
output is one JSON object (for one workload: ``correct``, ``attempted``,
``failed``, ``metrics``).  Exits non-zero when any operation failed.

Metric names, units, directions and regression bounds live in
``BENCHMARK.json`` at the repository root; see ``README.md`` beside this
file for what each one means and which layer should move it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: workload -> the compile-memo setting its operations are defined on
#: ("dir" = in-process memo plus a disk tier in the run's temp dir)
COMPILE_CACHE = {"compile_cold": "0", "service_edit": "0"}

#: service_edit never executes a node program in its timed passes, and
#: its 49 reference compiles would each emit 33 procedures' modules
CODEGEN_OFF = ("service_edit",)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() \
        else "unknown"


def child_env(workload: str, tmp: str) -> dict:
    """The ambient environment minus every REPRO_* knob, with each
    cache and scratch location pointed into *tmp*."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    env["REPRO_CODEGEN_CACHE"] = os.path.join(tmp, "codegen")
    env["REPRO_POSTMORTEM_DIR"] = os.path.join(tmp, "postmortem")
    env["REPRO_COMPILE_CACHE"] = COMPILE_CACHE.get(
        workload, os.path.join(tmp, "compile"))
    if workload in CODEGEN_OFF:
        env["REPRO_CODEGEN"] = "0"
    return env


def run_workload(name: str, args, cpus: list[int]) -> dict:
    """Run one workload in a fresh child; returns its result."""
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    cfg = {"workload": name, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "smoke": args.smoke,
           "corrupt": args.corrupt_reference, "cpus": cpus}
    # one CPU for the whole workload (the daemon inherits it): the
    # default scheduler hands a baton between threads, which is several
    # times slower, and bimodal, when they land on different CPUs
    pin = (lambda: os.sched_setaffinity(0, {cpus[-1]})) if cpus else None
    print(f"[{name}] seed={args.seed} seconds={args.seconds:g}"
          f"{' smoke' if args.smoke else ''}", flush=True)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)],
        cwd=tmp, env=child_env(name, tmp), preexec_fn=pin,
        start_new_session=True)
    try:
        code = proc.wait()
        if code != 0:
            raise SystemExit(f"run.py: workload {name} crashed "
                             f"(exit {code})")
        with open(os.path.join(tmp, "result.json")) as fh:
            return json.load(fh)
    finally:
        # nothing the child started may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def with_units(values: dict, declared: list[dict], what: str,
               workload: str, fill: bool) -> dict:
    """Attach the contract's units; every declared metric must be there
    (per-layer metrics a workload does not exercise read 0) and nothing
    undeclared may be."""
    extra = sorted(set(values) - {d["name"] for d in declared})
    if extra:
        raise SystemExit(f"run.py: {workload} produced {what} metrics "
                         f"BENCHMARK.json does not declare: {extra}")
    out = {}
    for d in declared:
        if d["name"] not in values and not fill:
            raise SystemExit(f"run.py: {workload} did not produce "
                             f"{what} metric {d['name']}")
        out[d["name"]] = {"value": values.get(d["name"], 0.0),
                          "unit": d["unit"]}
    return out


def print_table(title: str, metrics: dict, notes: dict) -> None:
    print(f"  {title}")
    for name, mv in metrics.items():
        v = mv["value"]
        shown = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"    {name:<32} {shown:>14} {mv['unit']:<13}"
              f"{notes.get(name, '')}")


def print_result(r: dict) -> None:
    notes = {
        "pass_s": "quartiles " + " / ".join(
            f"{q:.3f}" for q in r["pass_quartiles_s"])
        + f" over {r['passes']} passes",
        "setup_s": f"median of {r['setup_reps']} set-ups",
        "req_p50_s": f"{r['req_samples']} requests, each the fastest of "
        f"its {r['passes']} replays" if r["req_samples"]
        else "= pass_s: the request is the whole pass",
    }
    print(f"[{r['workload']}] failed_ops = {r['failed']} of "
          f"ops = {r['attempted']}")
    print_table("end to end (timed passes, telemetry off)",
                r["end_to_end"], notes)
    if "per_layer" in r:
        print_table("per layer (traced pass and probes; 0 = not "
                    "exercised by this workload)", r["per_layer"], {})
        for c in r["checks"]:
            verdict = "ok" if c["ok"] else (
                "FAILED" if c["asserted"] else "does not hold (reported)")
            print(f"    check {c['check']}: {c['value']:.3g} "
                  f"{c['op']} {c['limit']:g}  {verdict}")
    for f in r["failures"]:
        print(f"    FAILED {f}")


def render_markdown(report: dict) -> str:
    """The ledger as tables: one row per metric, one column per
    workload."""
    names = list(report["workloads"])
    cfg = report["config"]
    first = report["workloads"][names[0]]["config"]
    lines = [
        "# e2e benchmark ledger", "",
        f"commit `{cfg['git_sha']}`, seed {cfg['seed']}, "
        f"{cfg['seconds']:g} s of timed passes per workload, "
        f"generated {cfg['generated_at']}", "",
        f"host: {first['host_cpus']} CPUs, each workload pinned to one; "
        f"scheduler default `{first['scheduler_default']}`, topology "
        f"`{first['topology_default']}`, vectorize={first['vectorize']}, "
        f"Python {first['python']}, numpy {first['numpy']}", "",
    ]
    for section, title in (("end_to_end", "End to end"),
                           ("per_layer", "Per layer")):
        rows = [w for w in names if section in report["workloads"][w]]
        if not rows:
            continue
        lines += [f"## {title}", "",
                  "| metric | unit | " + " | ".join(rows) + " |",
                  "|---|---|" + "---:|" * len(rows)]
        metrics = report["workloads"][rows[0]][section]
        for m, mv in metrics.items():
            cells = []
            for w in rows:
                v = report["workloads"][w][section][m]["value"]
                cells.append(f"{v:.4g}" if isinstance(v, float) else str(v))
            lines.append(f"| `{m}` | {mv['unit']} | "
                         + " | ".join(cells) + " |")
        lines.append("")
    lines += ["## Passes and per-program operation time", "",
              "| workload | passes | set-ups | pass quartiles (s) | "
              "failed / ops |", "|---|---:|---:|---|---:|"]
    for w in names:
        r = report["workloads"][w]
        lines.append(
            f"| {w} | {r['passes']} | {r['setup_reps']} | "
            + " / ".join(f"{q:.3f}" for q in r["pass_quartiles_s"])
            + f" | {r['failed']} / {r['attempted']} |")
    lines += ["", "| workload | operation | median (s) |", "|---|---|---:|"]
    for w in names:
        ops = report["workloads"][w]["op_median_s"]
        if len(ops) > 24:  # service_edit: 97 requests, see the metrics
            continue
        lines += [f"| {w} | {n} | {s:.4f} |" for n, s in ops.items()]
    checks = [(w, c) for w in names
              for c in report["workloads"][w].get("checks", [])]
    if checks:
        lines += ["", "## Workload-separation checks", "",
                  "| workload | check | value | wanted | result |",
                  "|---|---|---:|---|---|"]
        for w, c in checks:
            verdict = "ok" if c["ok"] else (
                "FAILED" if c["asserted"] else "does not hold (reported)")
            lines.append(f"| {w} | {c['check']} | {c['value']:.3g} | "
                         f"{c['op']} {c['limit']:g} | {verdict} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed passes per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1),
                    help="add the traced pass and per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up and one timed pass per workload")
    ap.add_argument("--out", metavar="FILE",
                    help="write the full report (with spans) as JSON")
    ap.add_argument("--append-history", metavar="FILE",
                    help="append one line of metric values to FILE")
    ap.add_argument("--render", metavar="FILE",
                    help="print a report written by --out as markdown")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help=argparse.SUPPRESS)  # the smoke test's probe
    args = ap.parse_args(argv)
    # a terminated run still reaps its child (run_workload's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.render:
        with open(args.render) as fh:
            sys.stdout.write(render_markdown(json.load(fh)))
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    chosen = args.workload or known
    unknown = [w for w in chosen if w not in known]
    if unknown:
        ap.error(f"unknown workload {unknown}; choose from {known}")
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    cpus = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else []

    report = {"config": {
        "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": bool(args.trace),
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }, "workloads": {}}
    for name in chosen:
        r = run_workload(name, args, cpus)
        r["end_to_end"] = with_units(
            r["end_to_end"], contract["end_to_end"], "end-to-end", name,
            fill=False)
        if "per_layer" in r:
            r["per_layer"] = with_units(
                r["per_layer"], contract["per_layer"], "per-layer", name,
                fill=True)
        print_result(r)
        report["workloads"][name] = r

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    results = report["workloads"].values()
    if args.append_history:
        row = dict(report["config"])
        row["workloads"] = {
            r["workload"]: {
                **{k: v["value"] for k, v in r["end_to_end"].items()},
                **{k: v["value"] for k, v in
                   r.get("per_layer", {}).items()},
                "failed": r["failed"], "passes": r["passes"],
                "scheduler_default": r["config"]["scheduler_default"],
                "host_cpus": r["config"]["host_cpus"],
            } for r in results}
        with open(args.append_history, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    failed = sum(r["failed"] for r in results)
    last = {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed}
    if len(chosen) == 1:
        r = report["workloads"][chosen[0]]
        last["metrics"] = r["per_layer"] if args.trace else r["end_to_end"]
    else:
        last["workloads"] = {
            r["workload"]: {"end_to_end": r["end_to_end"],
                            **({"per_layer": r["per_layer"]}
                               if "per_layer" in r else {})}
            for r in results}
    print(json.dumps(last))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
