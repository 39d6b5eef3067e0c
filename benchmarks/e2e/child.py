"""One workload, measured in a fresh process (started by ``run.py``).

set-up (sources from the seed, sequential references, one untimed
warm-up pass; repeated while cheap, median reported) -> timed passes
with every telemetry switch off -> with tracing, one more pass under the
benchmark's own spans plus the per-layer probes (``layers.py``).  The
result goes to ``result.json`` in the run's temp directory.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

import numpy
from repro.codegen import enabled as codegen_enabled
from repro.interp.vectorize import enabled as vectorize_enabled
from repro.machine import resolve_scheduler, resolve_topology

from layers import traced
from workloads import (
    EXACT,
    WORKLOADS,
    add_facts,
    install_deadline_handler,
    peak_rss_mb,
)

#: timed passes of a run, however long one takes: a median needs three
MIN_PASSES = 3


def quantiles(values: list[float], n: int) -> list[float]:
    if len(values) < 2:
        return [values[0]] * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def measure(wl, cfg: dict) -> dict:
    seconds, smoke = cfg["seconds"], cfg["smoke"]

    setups, warm = [], None
    while True:
        t0 = time.perf_counter()
        wl.setup()
        if not wl.setup_warms:
            warm = wl.run_pass()
        setups.append(time.perf_counter() - t0)
        # several set-ups steady the median; stop before one more would
        # make them the major part of the run
        if smoke or len(setups) >= 3 \
                or sum(setups) + statistics.median(setups) > 0.6 * seconds:
            break
    checked = wl.setup_ops + (warm.ops if warm else [])
    print(f"  set-up x{len(setups)}: "
          f"{statistics.median(setups):.2f} s", flush=True)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass())
        if smoke:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES \
                and elapsed + typical / 2 > seconds:
            break
    rss = peak_rss_mb()
    walls = [p.wall_s for p in passes]
    print(f"  {len(passes)} timed passes, quartiles "
          + " / ".join(f"{q:.3f}" for q in quantiles(walls, 4)) + " s",
          flush=True)

    # the simulated metrics must repeat exactly on every pass
    def facts_of(p) -> dict:
        facts = dict(wl.setup_facts)
        for o in p.ops:
            add_facts(facts, o.facts)
        return facts

    every = [facts_of(p) for p in passes + ([warm] if warm else [])]
    failures = [f"{o.name}: {o.error}" for p in passes for o in p.ops
                if o.error] + [f"{o.name}: {o.error}" for o in checked
                               if o.error]
    attempted = sum(len(p.ops) for p in passes) + len(checked) + 1
    if any(f != every[0] for f in every[1:]) and not failures:
        failures.append(f"determinism: simulated metrics differ between "
                        f"passes: {every}")

    by_op: dict[str, list[float]] = {}
    for p in passes:
        for o in p.ops:
            by_op.setdefault(o.name, []).append(o.seconds)
    samples = wl.latency_samples(passes)
    pass_s = statistics.median(walls)
    e2e = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "pass_cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": rss,
        # no request samples: the request is the whole pass
        "req_p50_s": statistics.median(samples) if samples else pass_s,
        "req_p90_s": quantiles(samples, 10)[8] if samples else pass_s,
    }
    e2e.update({k: every[0].get(k, 0) for k in EXACT})

    result = {
        "workload": wl.name,
        "passes": len(passes),
        "setup_reps": len(setups),
        "pass_quartiles_s": quantiles(walls, 4),
        "pass_walls_s": walls,
        "pass_cpus_s": [p.cpu_s for p in passes],
        "req_samples": len(samples),
        "end_to_end": e2e,
        "op_median_s": {n: statistics.median(v)
                        for n, v in by_op.items()},
    }

    if cfg["trace"]:
        t = traced(wl, e2e["pass_s"], cfg["cpus"])
        result["per_layer"] = t["per_layer"]
        result["checks"] = t["checks"]
        result["spans"] = t["spans"]
        failures += [f"{o.name}: {o.error}" for o in t["ops"] if o.error]
        failures += [f"separation check failed: {c['check']} = "
                     f"{c['value']:.3g}, wanted {c['op']} {c['limit']:g}"
                     for c in t["checks"] if c["asserted"] and not c["ok"]]
        attempted += len(t["ops"]) + len(t["checks"])

    result.update(attempted=attempted, failed=len(failures),
                  correct=not failures, failures=failures)
    return result


def resolved_config() -> dict:
    """The defaults this run resolved to, so a flipped default shows as
    a configuration change and not as a mystery speed-up."""
    return {
        "scheduler_default": resolve_scheduler(None),
        "topology_default": resolve_topology(None, 1).describe(),
        "vectorize": vectorize_enabled(None),
        "codegen": codegen_enabled(None),
        "host_cpus": os.cpu_count() or 1,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    install_deadline_handler()
    wl = WORKLOADS[cfg["workload"]](cfg["seed"], os.getcwd(),
                                    cfg["corrupt"])
    result = measure(wl, cfg)
    result["config"] = resolved_config()
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
