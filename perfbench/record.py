"""Record the expected outputs of a workload's jobs on the canonical inputs.

    python3 perfbench/record.py [WORKLOAD ...]     (default: all four)

Writes ``perfbench/expected/<workload>.json``: for each job key, the exit
code and stdout of the program in this checkout.  Re-record only when a
change is meant to alter the program's output; the benchmark compares
every run against these files byte for byte.  Recording refuses to write
an output that contradicts a closed form or an invalid input that does
not exit 4.
"""

from __future__ import annotations

import json
import sys

from harness import HERE, ROOT, import_program, run_job, validate_inputs
import workloads


def record(cli, workload: str) -> None:
    jobs = workloads.build(workload, None, ROOT)
    validate_inputs(cli, jobs)
    expected = {}
    for job in jobs:
        code, stdout, stderr, seconds = run_job(cli, job.argv, job.input.text)
        _, problems = workloads.closed_form_problems(job, stdout)
        if job.input.negative and code != 4:
            problems.append(f"invalid input exited {code}, not 4")
        if problems:
            raise SystemExit(f"{workload}: {job.key}: {problems} {stderr}")
        expected[job.key] = {"exit": code, "stdout": stdout}
        print(f"{workload}: {job.key}: exit {code}, {seconds:.3f} s", file=sys.stderr)
    path = HERE / "expected" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv) -> int:
    cli = import_program()
    for workload in argv or list(workloads.WORKLOADS):
        record(cli, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
