"""Summarize result files written by `run.py --out`.

    python3 perfbench/report.py RESULTS_DIR [SECOND_RESULTS_DIR]

For each workload: the median and quartiles of every end-to-end metric over
the runs in the directory, and their spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json; whether the exact counters of runs with
the same workload, seed and trace setting agree; and the pcm:vanilla ratios
of the north-star comparison. Given a second directory, it also checks that
each median there is not worse than the first one by more than the bound.
Exits 1 if a check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """(workload, trace) -> list of result records."""
    groups = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def stats(values) -> tuple:
    """(median, q1, q3, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = declared["end_to_end"]
    sets = [load(d) for d in argv]
    ok = True

    for key in sorted(sets[0]):
        workload, trace = key
        runs = sets[0][key]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload} trace={trace}: {len(runs)} runs, correct in "
              f"{sum(r['correct'] for r in runs)}, failed {failed} of {attempted} operations")
        ok &= all(r["correct"] for r in runs)
        if trace == 0:
            for metric in e2e:
                name, bound = metric["name"], metric["bound"]
                median, q1, q3, spread = stats([r["metrics"][name]["value"] for r in runs])
                verdict = "ok" if spread <= bound / 3 else "wide" if spread <= bound else "TOO WIDE"
                if name != "setup_s" and spread > bound:
                    ok = False
                line = (f"  {name:<18} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                        f"{metric['unit']:<4} spread {spread:.3f} / bound {bound} {verdict}")
                if len(sets) == 2 and key in sets[1]:
                    second = statistics.median(r["metrics"][name]["value"] for r in sets[1][key])
                    change = worse_by(median, second, metric["better"])
                    line += f" | second median {second:.6g}, worse by {change:+.3f}"
                    if change > bound:
                        line += " REGRESSION"
                        ok = False
                print(line)
        by_seed = {}
        for r in [r for s in sets for r in s.get(key, [])]:
            by_seed.setdefault(r["seed"], []).append(r["counters"])
        repeated = {seed: c for seed, c in by_seed.items() if len(c) > 1}
        for seed, counters in sorted(repeated.items()):
            same = all(c == counters[0] for c in counters[1:])
            ok &= same
            print(f"  exact counters, seed {seed}, {len(counters)} runs: "
                  f"{'identical' if same else 'DIFFER'}")

    pcm, vanilla = sets[0].get(("train_pcm_64", 0)), sets[0].get(("train_vanilla_64", 0))
    if pcm and vanilla:
        print("north star, pcm : vanilla (medians over runs; not gated)")
        for name, source in (("op_ms_p50", "metrics"), ("time_to_target_s", "metrics"),
                             ("backprop_chunks_per_update", "extra")):
            a = statistics.median(r[source][name]["value"] for r in pcm)
            b = statistics.median(r[source][name]["value"] for r in vanilla)
            unit = pcm[0][source][name]["unit"]
            print(f"  {name:<28} pcm {a:.6g} {unit}, vanilla {b:.6g} {unit}: "
                  f"pcm/vanilla {a / b:.3f}, vanilla/pcm {b / a:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
