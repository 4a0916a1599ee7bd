"""Self-tests of the benchmark (not of the program).

    python3 perfbench/selftest.py

They check that the traced counters count what their names say, that
counters and generated inputs repeat exactly, that a wrong output is
counted as a failure, that the outputs the benchmark compares are
invariant under the seeded transforms, and that the benchmark refuses to
run without the program's source.  About 10 s.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import closed_forms as cf
import harness
import workloads
from generator import Shape, random_image
from tracer import Recorder

CLI = harness.import_program()
ROOT = harness.ROOT


def traced(jobs):
    recorder = Recorder()
    recorder.install()
    try:
        _, outputs, _ = harness.measured_pass(CLI, jobs)
    finally:
        recorder.uninstall()
    return {name: m["value"] for name, m in recorder.metrics(0.0).items()}, outputs


def exact(metrics):
    """The metrics that must repeat exactly: counts and ratios."""
    return {name: value for name, value in metrics.items() if not name.endswith("_s") and name != "counting.points_per_s"}


class TracerCounts(unittest.TestCase):
    def test_points_classified_is_box_size_times_enumerations(self):
        (item,) = {job.input for job in workloads.build("dilation-count", 11, ROOT) if job.input.key == "cube_unit"}
        regions = ("full", "interior", "boundary", "face=1,3")
        jobs = [workloads.Job(r, ("count", "--k", "10", "--region", r), item) for r in regions]
        metrics, outputs = traced(jobs)
        self.assertEqual(metrics["counting.count_points.calls"], len(regions))
        self.assertEqual(metrics["counting.points_classified"], len(regions) * 11**3)
        counted = sum(int(stdout) for _, stdout in outputs)
        self.assertEqual(metrics["counting.hit_ratio"], counted / (len(regions) * 11**3))
        self.assertEqual(metrics["counting.distinct_ratio"], 1.0)

    def test_resolve_calls_on_16_gon(self):
        (job,) = [job for job in workloads.build("hilbert-ladder", 11, ROOT) if job.input.key == "16-gon"]
        metrics, outputs = traced([job])
        self.assertEqual(outputs[0][0], 0)
        # boundary degree m - 1 = 1: nodes k = 1, 2 and the probe k = 3
        self.assertEqual(metrics["hilbert.resolve.calls"], (2**16 - 1) * 3)
        self.assertEqual(metrics["cli.jobs"], 1)

    def test_counters_repeat_exactly(self):
        names = ("simplex_2", "pentagon", "prism", "pyramid_nonsimple")
        jobs = [job for job in workloads.build("corpus-cli", 11, ROOT) if job.input.key in names]
        first, _ = traced(jobs)
        second, _ = traced(jobs)
        self.assertEqual(exact(first), exact(second))
        self.assertGreater(first["volume.numeric_oracle.calls"], 0)
        self.assertGreater(first["hilbert.resolve.calls"], 0)

    def test_untraced_run_is_unwrapped(self):
        from delzant import counting, hilbert

        self.assertIs(hilbert.count_points, counting.count_points)
        self.assertFalse(hasattr(counting.count_points, "__wrapped__"))


class Generator(unittest.TestCase):
    def test_deterministic_per_seed(self):
        def snapshot(workload, seed):
            return [(job.key, job.argv, job.input.text) for job in workloads.build(workload, seed, ROOT)]

        for workload in workloads.WORKLOADS:
            self.assertEqual(snapshot(workload, 5), snapshot(workload, 5))
            self.assertNotEqual(snapshot(workload, 5), snapshot(workload, 6))

    def test_outputs_invariant_under_gl_images(self):
        """The byte-for-byte comparison relies on the reports of a GL_m(Z)
        image and translate equalling the canonical input's; check it with
        sheared, sign-flipped images, beyond the maps the ladders use."""
        corpus = workloads.Corpus(ROOT)
        rng = random.Random(3)
        for name in ("simplex_2", "pentagon", "prism", "hirzebruch_b"):
            canonical = corpus.polytope(name)
            image = random_image(canonical, rng, shears=4)  # signed, sheared, translated
            self.assertNotEqual(image.facets, canonical.facets)
            for argv in (("count", "--k", "3", "--region", "face=2"), ("ehrhart", "--kind", "interior"),
                         ("hilbert-cy",), ("volume-poly",), ("khovanskii", "--output", "tsv")):
                want = harness.run_job(CLI, argv, canonical.to_poly_text())[:2]
                got = harness.run_job(CLI, argv, image.to_poly_text())[:2]
                self.assertEqual(got, want, (name, argv))

    def test_closed_forms_of_the_projective_hypersurfaces(self):
        for m, text in ((2, "3k"), (3, "2k^2 + 2"), (4, "(5/6)k^3 + (25/6)k")):
            self.assertEqual(cf.ehrhart(Shape(simplices=((m, 1),)), "boundary"), cf.parse_kpoly(text))


class Reference(unittest.TestCase):
    def test_reference_is_timed_between_jobs(self):
        jobs = workloads.build("symbolic-ladder", 11, ROOT)[:3]
        latencies, outputs, references = harness.measured_pass(CLI, jobs)
        self.assertEqual(len(latencies), len(jobs))
        self.assertEqual([code for code, _ in outputs], [0] * len(jobs))
        # every job here takes more than REFERENCE_EVERY_S: one sample before each
        self.assertEqual(len(references), len(jobs))
        self.assertTrue(all(seconds > 0 for seconds in references))

    def test_reference_result_is_checked(self):
        import reference

        self.assertEqual(reference.reference(), reference.CHECKSUM)


class Checks(unittest.TestCase):
    def test_corrupted_expected_output_is_a_failure(self):
        expected = harness.load_expected("corpus-cli")
        jobs = [job for job in workloads.build("corpus-cli", 11, ROOT) if job.input.key == "simplex_3"]
        _, outputs, _ = harness.measured_pass(CLI, jobs)
        for job, (code, stdout) in zip(jobs, outputs):
            self.assertEqual(harness.check(job, expected, code, stdout)[1], [], job.key)
        job, (code, stdout) = jobs[0], outputs[0]
        corrupted = {**expected, job.key: {"exit": code, "stdout": stdout.replace("1", "2", 1)}}
        self.assertTrue(harness.check(job, corrupted, code, stdout)[1])
        wrong_exit = {**expected, job.key: {"exit": code + 1, "stdout": stdout}}
        self.assertTrue(harness.check(job, wrong_exit, code, stdout)[1])

    def test_wrong_count_contradicts_closed_form(self):
        (job,) = [job for job in workloads.build("dilation-count", 11, ROOT)
                  if job.key == "simplex_3: count --k 40 --region full"]
        self.assertEqual(workloads.closed_form_problems(job, "12341\n"), (1, []))
        self.assertEqual(len(workloads.closed_form_problems(job, "12342\n")[1]), 1)

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(harness.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "corpus-cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
