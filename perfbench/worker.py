"""Untraced measurement of set-up and ``cluster()`` in a fresh process.

    python3 perfbench/worker.py T_SPAWN WORKLOAD RUN_DIR SECONDS

``T_SPAWN`` is the parent's ``common.clock()`` reading taken just before it
spawned this process, so ``setup_s`` runs from the process's start through
importing ``ecrkit``, ``load_corpus``, ``resolve_nested_links`` and
``load_lexicons`` (in ``ecrkit cluster``'s order): one cold set-up.

Then rounds of ``cluster()`` over the workload's methods run back to back
until SECONDS of them have been measured: a single call when one takes
longer, as at 100k mentions and more, which is the call the CLI job makes
after the same set-up. After each round, outside its timer, every partition
is checked against the expected one. The last stdout line is a JSON object with ``setup_s``, the
round times, and the operation counts.
"""

import sys
import time

T_SPAWN = float(sys.argv[1])

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from ecrkit import MethodSpec, cluster, load_corpus, load_lexicons, \
    resolve_nested_links  # noqa: E402

from checks import check_partition  # noqa: E402
from common import clock, expected_dump_path, input_paths, methods  # noqa: E402


def main(workload: str, run_dir: Path, seconds: float) -> dict:
    paths = input_paths(run_dir)
    corpus = load_corpus(paths["corpus"])
    resolve_nested_links(corpus)
    lexicons = load_lexicons(paths["vn_map"], paths["alias_map"])
    setup_s = clock() - T_SPAWN

    entries = methods(workload, run_dir)
    specs = [MethodSpec(**entry) for entry in entries]
    rounds: list[float] = []
    problems: list[str] = []
    errors: list[str] = []
    spent = 0.0
    while True:
        parts = []
        t0 = time.perf_counter()
        for spec in specs:
            try:
                parts.append(cluster(corpus, spec, lexicons))
            except Exception as exc:  # a failed operation, counted below
                parts.append(exc)
        elapsed = time.perf_counter() - t0
        rounds.append(elapsed)
        spent += elapsed
        for i, (spec, part) in enumerate(zip(specs, parts)):
            if isinstance(part, Exception):
                errors.append(f"{spec.name()}: {part!r}")
                continue
            want = expected_dump_path(run_dir, i).read_text(encoding="utf-8")
            problems += check_partition(part.dump(), want,
                                        f"cluster() {spec.name()}")
        del parts
        if spent >= seconds:
            break
    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "attempted": len(rounds) * len(specs),
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
    }


if __name__ == "__main__":
    result = main(sys.argv[2], Path(sys.argv[3]), float(sys.argv[4]))
    print(json.dumps(result))
