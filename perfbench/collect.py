#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 0-9 [--workloads a,b] [--trace 0] [--out file.json]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, with
the ``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, which is the spread the
end-to-end bounds are checked against.  ``--out`` writes the summary and
every run's details as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", flush=True)
                continue
            lines = proc.stdout.splitlines()
            result, details = json.loads(lines[-1]), json.loads(lines[-2])["details"]
            runs.append({"seed": seed, "result": result, "details": details})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} probe={details['host_probe_ms']:.1f}ms "
                  f"sha256={details['output_sha256'][:16]}", flush=True)
        stats = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else None
            stats[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread, "n": len(vals)}
            bound = bounds.get(name)
            flag = "" if bound is None or spread is None else f"  bound {bound}  {'ok' if spread <= bound else 'OVER'}"
            shown = "n/a" if spread is None else f"{spread:.3f}"
            print(f"  {name:48s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} iqr/median {shown}{flag}")
        summary[workload] = {"stats": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
