"""One workload in a fresh interpreter: set up, run passes, check, report.

    python3 perfbench/harness.py --workload NAME --seed N [--seconds S] [--trace 0|1] [--setup-only]

Set-up imports the program from the checkout's ``src/``, generates the
workload's inputs from the seed, validates each one with the program, and
loads the expected outputs.  It then prints ``ready`` (``run.py`` times
set-up from process start to that line) and times the reference workload
of ``reference.py`` ``SETUP_REFERENCES`` times, for the machine's speed
during set-up.  ``--setup-only`` prints those times and exits there.

Untraced (``--trace 0``): passes over the fixed job list are repeated
while the next one is expected to end within ``--seconds``; at least one
pass runs.  Each pass also times the fixed reference workload of
``reference.py``, at its start and then between jobs every
``REFERENCE_EVERY_S``, so that the program's times can be put at a
nominal machine speed pass by pass.  Traced (``--trace 1``): one pass in which every job runs
twice back to back, first untraced and then with the span recorder
installed.  The counts are those of exactly one pass, and the tracing
overhead (traced minus untraced sum of job times) is measured in the
same machine state, which on a shared machine drifts from minute to
minute.

The last stdout line is a JSON object with the raw figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)
from reference import timed_reference  # noqa: E402

REFERENCE_EVERY_S = 0.1
SETUP_REFERENCES = 8


def import_program():
    """Import ``delzant`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import delzant
    from delzant import cli

    if not Path(delzant.__file__).resolve().is_relative_to(src):
        raise ImportError(f"delzant imported from {delzant.__file__}, not from {src}")
    return cli


def run_job(cli, argv, text):
    """One in-process ``delzant <argv> -`` call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main([*argv, "-"])
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code if isinstance(exc.code, int) else 2
            seconds = perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), seconds


def load_expected(workload: str) -> dict:
    with open(HERE / "expected" / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def validate_inputs(cli, jobs) -> None:
    """Every generated input must pass ``validate``; negatives must exit 4."""
    seen = set()
    for job in jobs:
        item = job.input
        if item.key in seen:
            continue
        seen.add(item.key)
        code, out, err, _ = run_job(cli, ("validate",), item.text)
        if code != (4 if item.negative else 0):
            raise RuntimeError(f"input {item.key!r} failed validation (exit {code}): {out}{err}")


def check(job, expected, code, stdout) -> tuple[int, list[str]]:
    """Compare one job's exit code and stdout with the recorded output and
    with the closed forms of its input.  Returns (closed-form values
    checked, problems)."""
    problems = []
    want = expected.get(job.key)
    if want is None:
        problems.append("no expected output recorded")
    else:
        if code != want["exit"]:
            problems.append(f"exit {code}, expected {want['exit']}")
        if workloads.normalize(job, stdout) != want["stdout"]:
            problems.append("stdout differs from the recorded output")
    if job.input.negative and code != 4:
        problems.append(f"invalid input exited {code}, not 4")
    checked, closed = workloads.closed_form_problems(job, stdout)
    return checked, problems + closed


def measured_pass(cli, jobs):
    """Run every job once, timing the reference workload first and then
    before a job whenever ``REFERENCE_EVERY_S`` has passed since the last
    time: (per-job seconds, (code, stdout) per job, reference seconds)."""
    latencies, outputs, references = [], [], [timed_reference()]
    last = perf_counter()
    for job in jobs:
        if perf_counter() - last >= REFERENCE_EVERY_S:
            references.append(timed_reference())
            last = perf_counter()
        code, stdout, _, seconds = run_job(cli, job.argv, job.input.text)
        latencies.append(seconds)
        outputs.append((code, stdout))
    return latencies, outputs, references


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_program()
    jobs = workloads.build(args.workload, args.seed, ROOT)
    validate_inputs(cli, jobs)
    expected = load_expected(args.workload)
    print("ready", flush=True)
    # The machine's speed just after set-up, for set-up time at the nominal speed.
    setup_references = [timed_reference() for _ in range(SETUP_REFERENCES)]
    if args.setup_only:
        print(json.dumps({"setup_reference_s": setup_references}))
        return 0

    report = {"jobs": len(jobs), "setup_reference_s": setup_references}
    passes = []
    if args.trace:
        from tracer import Recorder

        recorder = Recorder()
        untraced, latencies, passes = [], [], [[], []]
        for index, job in enumerate(jobs):
            code, stdout, _, seconds = run_job(cli, job.argv, job.input.text)
            untraced.append(seconds)
            passes[0].append((code, stdout))
            recorder.job = index
            recorder.install()
            try:
                code, stdout, _, seconds = run_job(cli, job.argv, job.input.text)
            finally:
                recorder.uninstall()
            latencies.append(seconds)
            passes[1].append((code, stdout))
        report["untraced_wall_s"] = sum(untraced)
        report["wall_s"] = [sum(latencies)]
        latencies = [latencies]
        report["per_layer"] = recorder.metrics(report["wall_s"][0] - sum(untraced))
        report["spans"] = len(recorder.spans)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.dump(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        latencies, references, longest = [], [], 0.0
        begin = perf_counter()
        while True:
            start = perf_counter()
            pass_latencies, outputs, pass_references = measured_pass(cli, jobs)
            longest = max(longest, perf_counter() - start)
            latencies.append(pass_latencies)
            references.append(pass_references)
            passes.append(outputs)
            if perf_counter() - begin + longest > args.seconds:
                break
        report["wall_s"] = [sum(pass_latencies) for pass_latencies in latencies]
        report["reference_s"] = references
        report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failures, closed_checks = 0, [], 0
    for outputs in passes:
        for job, (code, stdout) in zip(jobs, outputs):
            attempted += 1
            checked, problems = check(job, expected, code, stdout)
            closed_checks += checked
            if problems:
                failures.append({"job": job.key, "problems": problems})
    report.update(
        latencies_s=latencies,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:10],
        closed_form_checks=closed_checks,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
