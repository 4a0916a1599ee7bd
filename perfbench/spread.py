"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1] [--out FILE] [WORKLOAD ...]

For every workload and end-to-end metric: the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  With ``--trace 1`` it
reports the per-layer metrics instead and flags any count or ratio that
differs between runs.  ``--out`` stores every value, with the machine's
details, under the key ``trace0`` or ``trace1`` of a JSON file, keeping
the other key (this is how ``baseline.json`` was made).  Runs are
sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            command = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                return 1
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            shown = [(name, m) for name, m in result["metrics"].items()
                     if args.trace == 0 or name == "trace.overhead_s"]
            print(f"{workload} seed {seed}: fail_ratio {result['failed'] / result['attempted']:.6g} "
                  f"({result['failed']} of {result['attempted']} jobs); "
                  + ", ".join(f"{name} = {m['value']:.6g} {m['unit']}" for name, m in shown), flush=True)
        last = ROOT / ".perfbench" / f"result-{workload}-seed{args.seeds[-1]}-trace{args.trace}.json"
        environment = json.loads(last.read_text())["environment"]
        summary[workload] = {"seeds": args.seeds, "environment": environment, "runs": runs, "metrics": {}}
        for spec in specs:
            values = [run[spec["name"]] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload]["metrics"][spec["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "unit": spec["unit"]}
            if args.trace:
                exact = spec["unit"] in ("count", "ratio")
                flag = "  VARIES" if exact and len(set(values)) > 1 else ""
                print(f"  {workload:16s} {spec['name']:36s} median {median:.6g} {spec['unit']}{flag}")
            else:
                bound = spec["bound"]
                mark = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                print(f"  {workload:16s} {spec['name']:14s} median {median:.6g} {spec['unit']:5s} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} (bound {bound}) {mark}")
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[f"trace{args.trace}"] = summary
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
