"""ecrkit's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dup-200k --seed 1 --seconds 4 --trace 0

Inputs for (workload, seed) are generated on first use into
``perfbench/.cache/<workload>-<seed>/`` by ``gen.py`` in a child process;
the program sees only those files. Every measured piece runs in a fresh
child process with ``PYTHONPATH`` set to this checkout's ``src``:

``--trace 0`` (end-to-end metrics):
  * ``job_s``, ``peak_rss_mb``: one ``python -m ecrkit.cli <verb> ...`` job,
    from its spawn to its exit, and its peak resident set from ``wait4``.
  * ``setup_s``, ``cluster_s``: ``worker.py``, one cold set-up timed from
    the process's start, then rounds of ``cluster()`` over the workload's
    methods until SECONDS of them are measured; ``cluster_s`` is the median
    round.
``--trace 1`` (per-layer metrics): ``traced.py`` replays the job with spans.

Every output is checked outside the timers against what ``gen.py``
computed apart from the program. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

from checks import check_matrix_csv, check_partition, check_summary
from common import CACHE, WORKLOADS, BenchError, check_sources, clock, \
    corpus_seed, expected_dump_path, input_paths, job_argv, last_json_line, \
    python_argv, run_child

# Each run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0


class Run:
    """Operation counts and output problems of one benchmark run."""

    def __init__(self, workload: str, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.expected = json.loads(
            input_paths(run_dir)["expected"].read_text(encoding="utf-8"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_job(self, child: dict, out: Path) -> None:
        """Count and check one CLI job (or its traced replay)."""
        is_matrix = WORKLOADS[self.workload]["argv"][0] == "matrix"
        self.attempted += len(self.expected["methods"]) if is_matrix else 1
        if child["code"] != 0 or not out.exists():
            self.failed += len(self.expected["methods"]) if is_matrix else 1
            print(f"job failed ({child['code']}): {child['stderr'][-500:]}",
                  file=sys.stderr)
            return
        text = out.read_text(encoding="utf-8")
        if is_matrix:
            problems, errors = check_matrix_csv(text, self.expected)
            self.failed += errors
            self.problems += problems
        else:
            want = expected_dump_path(self.run_dir, 0).read_text(encoding="utf-8")
            self.problems += check_partition(text, want, "job output")
            self.problems += check_summary(child["stdout"],
                                           self.expected["methods"][0])
        out.unlink()


def ensure_inputs(workload: str, seed: int, timeout: float) -> Path:
    """The seed's input directory, generated when missing. Only the latest
    seed of each workload is kept: a 200k corpus is about 100 MB."""
    seed = corpus_seed(workload, seed)
    run_dir = CACHE / f"{workload}-{seed}"
    if input_paths(run_dir)["makeup"].exists():
        return run_dir
    for old in CACHE.glob(f"{workload}-*"):
        shutil.rmtree(old, ignore_errors=True)
    tmp = CACHE / f"{workload}-{seed}.tmp"
    child = run_child(python_argv("gen.py", "--workload", workload,
                                  "--seed", seed, "--dir", tmp), timeout)
    if child["code"] != 0:
        raise BenchError(f"input generation failed: {child['stderr'][-2000:]}")
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp.rename(run_dir)
    return run_dir


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    check_sources()
    start = clock()

    def budget() -> float:
        left = RUN_BUDGET_S - (clock() - start)
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    run = Run(workload, ensure_inputs(workload, seed, budget()))
    if trace:
        out = CACHE / f"traced-{workload}.out"
        trace_path = CACHE / "traces" / f"{workload}-{seed}.json"
        out.unlink(missing_ok=True)
        child = run_child(python_argv("traced.py", "{t_spawn}", workload,
                                      run.run_dir, out, trace_path), budget())
        if child["code"] != 0:
            raise BenchError(f"traced job failed: {child['stderr'][-2000:]}")
        run.check_job(child, out)
        metrics = last_json_line(child["stdout"])
        print(f"spans written to {trace_path}", file=sys.stderr)
        units = {name: ("MiB" if name.endswith("_mb") else "s")
                 for name in metrics}
    else:
        out = CACHE / f"job-{workload}.out"
        out.unlink(missing_ok=True)
        job = run_child([sys.executable, "-m", "ecrkit.cli",
                         *job_argv(workload, run.run_dir, out)], budget())
        run.check_job(job, out)
        child = run_child(python_argv("worker.py", "{t_spawn}", workload,
                                      run.run_dir, seconds), budget())
        if child["code"] != 0:
            raise BenchError(f"worker failed: {child['stderr'][-2000:]}")
        worker = last_json_line(child["stdout"])
        run.attempted += worker["attempted"]
        run.failed += worker["failed"]
        run.problems += worker["problems"]
        for error in worker["errors"]:
            print(f"cluster() failed: {error}", file=sys.stderr)
        metrics = {
            "setup_s": worker["setup_s"],
            "cluster_s": statistics.median(worker["rounds"]),
            "job_s": job["wall_s"],
            "peak_rss_mb": job["peak_rss_mb"],
        }
        units = {"setup_s": "s", "cluster_s": "s", "job_s": "s",
                 "peak_rss_mb": "MiB"}
    for problem in run.problems:
        print(f"WRONG OUTPUT: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ecrkit benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
