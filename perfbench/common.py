"""Workload table and process helpers shared by the benchmark's scripts.

Everything here is standard library only: the parent process (``run.py``)
never imports ``ecrkit``, so its own heap and import time stay out of every
measured child process.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"
MATRIX_METHODS = BENCH_DIR / "matrix_methods.json"

# Criterion 5's corpus: the paper's duplicated corpus is
# ``synth_expand(random_corpus(1245, seed=1245), n)``.
DUP_SEED_SIZE = 1245

# A workload with a "seed" entry always uses that corpus seed, whatever the
# run's --seed; the others draw their corpus from --seed.
WORKLOADS = {
    "dup-200k": {
        "corpus": "dup", "mentions": 200_000, "seed": 1245,
        "method": {"base": "eid_n", "annotator": "A1"},
        "argv": ["cluster", "--method", "eid_n", "--annotator", "A1"],
    },
    "random-100k": {
        "corpus": "random", "mentions": 100_000,
        "method": {"base": "eid_n_vn", "combiner": "or",
                   "second": "eid_lt_vn", "annotator": "A1"},
        "argv": ["cluster", "--method", "eid_n_vn", "--or", "eid_lt_vn",
                 "--annotator", "A1"],
    },
    "matrix-random": {
        "corpus": "random", "mentions": 2_000,
        "method": None,  # the 14 methods of matrix_methods.json
        "argv": ["matrix"],
    },
}


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, bad inputs)."""


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def corpus_seed(workload: str, seed: int) -> int:
    return WORKLOADS[workload].get("seed", seed)


def input_paths(run_dir: Path) -> dict[str, Path]:
    return {
        "corpus": run_dir / "corpus.jsonl",
        "vn_map": run_dir / "vn_map.tsv",
        "alias_map": run_dir / "alias_map.tsv",
        "specs": run_dir / "methods.json",
        "expected": run_dir / "expected.json",
        "makeup": run_dir / "makeup.json",
    }


def expected_dump_path(run_dir: Path, index: int) -> Path:
    return run_dir / f"expected_{index}.tsv"


def methods(workload: str, run_dir: Path) -> list[dict]:
    """The workload's methods as matrix spec entries (keyword arguments of
    ``MethodSpec``)."""
    method = WORKLOADS[workload]["method"]
    if method is not None:
        return [method]
    return json.loads(input_paths(run_dir)["specs"].read_text(encoding="utf-8"))


def metric_name(method_name: str) -> str:
    """A method's name as it appears in a metric name."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", method_name)


def job_argv(workload: str, run_dir: Path, out: Path) -> list[str]:
    """The ``ecrkit`` command line of the workload's CLI job."""
    paths = input_paths(run_dir)
    argv = list(WORKLOADS[workload]["argv"])
    argv += ["--corpus", str(paths["corpus"]), "--vn-map", str(paths["vn_map"]),
             "--alias-map", str(paths["alias_map"]), "--out", str(out)]
    if argv[0] == "matrix":
        argv += ["--specs", str(paths["specs"])]
    return argv


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's own ``src`` first, so
    an installed ``ecrkit`` elsewhere is never picked up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def check_sources() -> None:
    if not (SRC / "ecrkit" / "cli.py").is_file():
        raise BenchError(f"no ecrkit sources under {SRC}")


def run_child(argv: list[str], timeout: float) -> dict:
    """Run ``argv`` in a fresh process and wait for it to end. An argument
    ``{t_spawn}`` is replaced by the spawn time on ``clock()``.

    Returns its exit code, stdout, stderr, wall time from just before the
    spawn to its exit, the spawn time on ``clock()``, and its peak resident
    set from ``wait4``. A child that outlives ``timeout`` is killed, reaped,
    and reported with exit code None.
    """
    stdout_path = CACHE / f"child-{os.getpid()}.out"
    stderr_path = CACHE / f"child-{os.getpid()}.err"
    CACHE.mkdir(parents=True, exist_ok=True)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_spawn = clock()
        argv = [a.replace("{t_spawn}", repr(t_spawn)) for a in argv]
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        code, rusage = _wait(proc, timeout)
        wall = clock() - t_spawn
    result = {
        "code": code,
        "wall_s": wall,
        "t_spawn": t_spawn,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0 if rusage else None,
        "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": stderr_path.read_text(encoding="utf-8", errors="replace"),
    }
    stdout_path.unlink()
    stderr_path.unlink()
    return result


def _wait(proc: subprocess.Popen, timeout: float):
    """Block in ``wait4`` until the child ends; a timer kills it at
    ``timeout``. The exit code is None when the timer fired."""
    fired = threading.Event()

    def kill():
        fired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if fired.is_set() else proc.returncode), rusage


def python_argv(script: str, *args) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *map(str, args)]


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("child printed no JSON result")
