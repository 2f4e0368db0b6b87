"""Benchmark of chunkmask: one workload per process, measured in-process.

    python3 perfbench/run.py --workload train_pcm_64 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. The command prints a table of every figure with its unit
and sample count, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones, from a run with spans around the calls into each module. --out also
writes the whole result, machine record included, as JSON. See README.md
in this directory.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS must not start a thread pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"
SETUP_REPEATS = 30
MODULES = ("toyworld", "phases", "scores", "sampling", "grpo", "trainer",
           "traces", "analysis", "allocation", "verify")


def set_up() -> tuple:
    """Import chunkmask and build the 64-chunk spec and its initial policy,
    SETUP_REPEATS times, each from a fresh import of the package (numpy stays
    loaded), with the calibration kernel between repeats. Returns the
    modules of the last import and the raw and scaled times in s."""
    raw, scaled = [], []
    before = workloads.calibrate()
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "chunkmask" or n.startswith("chunkmask.")]:
            del sys.modules[name]
        start = time.perf_counter()
        package = importlib.import_module("chunkmask")
        spec = package.ToyTaskSpec(chunks_per_traj=workloads.CHUNKS)
        package.initial_policy(spec)
        raw.append(time.perf_counter() - start)
        after = workloads.calibrate()
        scaled.append(raw[-1] * 2 * workloads.REFERENCE_S / (before + after))
        before = after
    mods = SimpleNamespace(**{m: sys.modules[f"chunkmask.{m}"] for m in MODULES})
    return package, mods, raw, scaled


def machine(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "chunkmask" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no chunkmask sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    package, mods, setup_raw, setup_scaled = set_up()
    if Path(package.__file__).resolve().parent != SRC / "chunkmask":
        print(f"error: imported chunkmask from {package.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = workloads.WORKLOADS[args.workload]()
    work.prepare(mods, args.seed, WORKDIR)
    result = workloads.run(work, args.seconds, bool(args.trace))
    if not args.trace and result.metrics:
        result.metrics["setup_s"] = float(np.median(setup_scaled))
        result.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.samples["setup_s"] = len(setup_scaled)
        result.extra["setup_s_raw"] = (float(np.median(setup_raw)), "s", len(setup_raw))

    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    for problem in result.violations[:20]:
        print(f"violation: {problem}", file=sys.stderr)
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {name: {"value": result.metrics[name], "unit": units[name]} for name in units}
    counters = dict(result.counters)
    if args.trace:
        counters.update({name: result.metrics[name] for name, unit in units.items()
                         if unit in ("count", "fraction")})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(args.seed),
        "correct": not result.violations, "attempted": result.attempted,
        "failed": result.failed, "error_rate": result.failed / max(result.attempted, 1),
        "missed_target_seeds": result.misses, "violations": result.violations[:50],
        "metrics": metrics,
        "samples": result.samples,
        "extra": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in result.extra.items()},
        "counters": counters,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(record["machine"]))
    rows = [(name, e["value"], e["unit"], result.samples.get(name)) for name, e in metrics.items()]
    rows += [(name, v, u, n) for name, (v, u, n) in result.extra.items()]
    rows.append(("error_rate", record["error_rate"], "fraction", result.attempted))
    for name, value, unit, samples in rows:
        count = "" if samples is None else f"n={samples}"
        print(f"  {name:<58} {value:>14.6g} {unit:<9} {count}")
    print(json.dumps({"correct": record["correct"], "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
