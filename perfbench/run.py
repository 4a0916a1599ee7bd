"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Nothing is built: the workload process
imports the program from ``src/``.  Each workload runs in a fresh
interpreter (``harness.py``), a single client in a closed loop, so its
memory figure is its own.

Set-up time (``setup_s``) is measured from process start to the worker's
``ready`` line: interpreter start, ``import delzant``, generating and
validating the inputs, loading the expected outputs.  A discarded
warm-up set-up and four set-up-only processes precede the measuring one
and four follow it, so that the samples span the run; the median of the
nine timed set-ups, at the nominal machine speed (below), is reported.

The job times are reported twice.  As timed: ``wall_s`` (median pass)
and ``job_p50_ms`` (median job, a job's time being its mean over the
passes), in the readable report and the result file.  At a nominal machine speed: ``wall_norm_s`` and
``job_p50_norm_ms``, the end-to-end metrics of ``BENCHMARK.json``.  Each
pass's times are multiplied by ``reference.NOMINAL_S`` over the mean time
of the fixed reference workload timed between that pass's jobs, which
takes out the speed drift of a shared machine (see ``reference.py``).
Each set-up time is corrected in the same way, by the reference timed
just after that set-up, in the same process.

Prints a readable report, writes the full result (with the machine's
details) to ``.perfbench/``, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 if any job failed, 2 if the workload could not be
run (for example when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS = HERE / "harness.py"
WORKLOADS = ("corpus-cli", "hilbert-ladder", "symbolic-ladder", "dilation-count")
SETUP_SAMPLES = 9
TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker(args, extra, deadline):
    """Start a worker; return (process, seconds from start to ``ready``)."""
    argv = [sys.executable, str(HARNESS), "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise WorkerError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise WorkerError("worker timed out")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out


def measure(args):
    deadline = perf_counter() + TIMEOUT_S
    setups = []  # (seconds, reference seconds just after)

    def setup_only():
        proc, seconds = _worker(args, ["--setup-only"], deadline)
        return seconds, _last_json(_finish(proc, deadline))["setup_reference_s"]

    for i in range(SETUP_SAMPLES // 2 + 1):  # the first is a warm-up
        sample = setup_only()
        if i:
            setups.append(sample)
    proc, seconds = _worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    raw = _last_json(_finish(proc, deadline))
    setups.append((seconds, raw["setup_reference_s"]))
    while len(setups) < SETUP_SAMPLES:  # the rest after the run, to spread them over time
        setups.append(setup_only())
    return setups, raw


def _last_json(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="delzant benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "delzant").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'delzant'}", file=sys.stderr)
        return 2
    try:
        setups, raw = measure(args)
    except (WorkerError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2

    latencies_ms = [1000 * s for pass_latencies in raw["latencies_s"] for s in pass_latencies]
    attempted, failed = raw["attempted"], raw["failed"]
    lines = [
        f"workload {args.workload}, seed {args.seed}: {raw['jobs']} jobs per pass, "
        f"{len(raw['wall_s'])} pass(es), trace {args.trace}",
        f"fail_ratio {failed / attempted:.6g} = {failed} failed / {attempted} jobs attempted; "
        f"{raw['closed_form_checks']} closed-form values checked",
    ]
    if args.trace:
        metrics = raw["per_layer"]
        lines.append(
            f"tracing overhead {metrics['trace.overhead_s']['value']:.4f} s = traced wall_s "
            f"{raw['wall_s'][0]:.4f} s - untraced wall_s {raw['untraced_wall_s']:.4f} s "
            f"({raw['spans']} spans in {raw['trace_file']})"
        )
    else:
        # Each pass's times at the nominal machine speed: x NOMINAL_S / the
        # mean time of the reference workload in that pass.  The mean, not
        # the median: the machine flips between a fast and a slow state, and
        # a job's time follows the share of its time spent in each.
        speeds = [NOMINAL_S / statistics.fmean(refs) for refs in raw["reference_s"]]
        # A job's time is its mean over the run's passes; job_p50 is the median job.
        per_job = list(zip(*raw["latencies_s"]))
        job_ms = [1000 * statistics.fmean(times) for times in per_job]
        norm_job_ms = [1000 * statistics.fmean(s * v for s, v in zip(times, speeds)) for times in per_job]
        setup_norm = [s * NOMINAL_S / statistics.fmean(refs) for s, refs in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "wall_norm_s": {"value": statistics.median(w * v for w, v in zip(raw["wall_s"], speeds)), "unit": "s"},
            "job_p50_norm_ms": {"value": statistics.median(norm_job_ms), "unit": "ms"},
            "peak_rss_mib": {"value": raw["peak_rss_mib"], "unit": "MiB"},
        }
        references = [r for refs in raw["reference_s"] for r in refs]
        lines.append(
            f"raw, as timed: wall_s {statistics.median(raw['wall_s']):.6g} s (median of {len(raw['wall_s'])} passes), "
            f"job_p50_ms {statistics.median(job_ms):.6g} ms, "
            f"set-up {statistics.median(s for s, _ in setups):.6g} s"
        )
        lines.append(
            f"machine speed: reference workload {1000 * statistics.fmean(references):.4g} ms "
            f"(mean of {len(references)}; nominal {1000 * NOMINAL_S:g} ms), "
            f"pass speeds {min(speeds):.3f}-{max(speeds):.3f} x nominal"
        )
        lines.append(
            f"setup_s median of {len(setups)} set-ups at the nominal speed; job_p50_norm_ms median of "
            f"n={len(per_job)} jobs, each the mean of its {len(raw['latencies_s'])} passes"
        )
        tail_value = tail(latencies_ms)
        if tail_value is None:
            lines.append(f"job_tail_ms omitted: {len(latencies_ms)} job samples, fewer than 11")
        else:
            lines.append(f"job_tail_ms {tail_value[0]:.4f} ms (p{tail_value[1]:.1f}, n={len(latencies_ms)})")
    for name, metric in metrics.items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in raw["failures"]:
        lines.append(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**result, "environment": environment(args), "setup_samples_s": [s for s, _ in setups], "raw": raw}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    env = record["environment"]
    lines.append(
        f"commit {env['commit']}, python {env['python']}, nproc {env['nproc']}, {env['cpu_model']}; "
        f"full result: {path.relative_to(ROOT)}"
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
