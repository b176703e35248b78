"""The benchmark's own checks: the expectations agree with the program's
references on small inputs, and each check rejects a wrong output.

    python3 -m pytest perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import expect
import gen
from common import BENCH_DIR, ROOT, expected_dump_path, input_paths, job_argv

from ecrkit import MethodSpec, Partition, pairwise_oracle, score, synth_expand
from ecrkit.cli import main as cli_main
from ecrkit.synthetic import random_corpus, synthetic_lexicons

MATRIX = json.loads((BENCH_DIR / "matrix_methods.json").read_text())


def run_cli(workload, run_dir, capsys):
    out = run_dir / "job.out"
    assert cli_main(job_argv(workload, run_dir, out)) == 0
    return out.read_text(encoding="utf-8"), capsys.readouterr().out


def parse_dump(text):
    return [line.split("\t")[1].split(",") for line in text.splitlines()]


def move_one_mention(text):
    clusters = parse_dump(text)
    src = next(i for i, c in enumerate(clusters) if len(c) > 1)
    dst = (src + 1) % len(clusters)
    clusters[dst].append(clusters[src].pop())
    return expect.canonical_dump(clusters)


def test_dup_lines_equal_synth_expand(tmp_path):
    seed = random_corpus(40, seed=3)
    path = tmp_path / "dup.jsonl"
    gen.write_dup_jsonl(seed, 130, path)
    assert path.read_text(encoding="utf-8") == synth_expand(seed, 130).to_jsonl()


@pytest.mark.parametrize("seed", [5, 6])
def test_key_graph_equals_oracle_for_every_matrix_method(seed):
    corpus = random_corpus(150, seed=seed)
    lexicons = synthetic_lexicons()
    for method in MATRIX:
        got = gen.graph_expectation(corpus, method, lexicons)["clusters"]
        want = pairwise_oracle(corpus, MethodSpec(**method), lexicons)
        assert expect.canonical_dump(got) == want.dump(), method


def test_contingency_scores_equal_score():
    rng = random.Random(9)
    for _ in range(50):
        ids = [f"m{i}" for i in range(rng.randint(1, 40))]
        gold = [rng.randint(0, 8) for _ in ids]
        pred = [rng.randint(0, 12) for _ in ids]
        exact = expect.contingency_scores(gold, pred)
        report = score(*(Partition(expect.groups(ids, labels))
                         for labels in (gold, pred)))
        got = {
            "muc_p": report.muc.precision, "muc_r": report.muc.recall,
            "b3_p": report.b3.precision, "b3_r": report.b3.recall,
            "ceafe_p": report.ceaf_e.precision, "ceafe_r": report.ceaf_e.recall,
            "conll_f1": report.conll_f1,
        }
        for name, value in got.items():
            assert abs(float(exact[name]) - value) < 1e-12, name


def test_half_up():
    assert checks.half_up(Fraction(5, 16)) == "31.3"
    assert checks.half_up(Fraction(1, 3)) == "33.3"
    assert checks.half_up(Fraction(0)) == "0.0"
    assert checks.half_up(Fraction(1)) == "100.0"
    assert checks.allowed_cells(Fraction(5, 16)) == {"31.2", "31.3"}


@pytest.mark.parametrize("workload,mentions", [("dup-200k", 2500),
                                               ("random-100k", 1500)])
def test_cluster_checks_reject_wrong_output(workload, mentions, tmp_path, capsys):
    gen.generate(workload, 17, tmp_path, mentions=mentions)
    expected = json.loads(input_paths(tmp_path)["expected"].read_text())
    want = expected_dump_path(tmp_path, 0).read_text(encoding="utf-8")
    text, stdout = run_cli(workload, tmp_path, capsys)
    assert checks.check_partition(text, want, "job") == []
    summary = expected["methods"][0]
    assert checks.check_summary(stdout, summary) == []

    assert checks.check_partition(move_one_mention(text), want, "job")
    off_by_one = stdout.replace(f"pair_mass={summary['pair_mass']}",
                                f"pair_mass={summary['pair_mass'] + 1}")
    assert off_by_one != stdout
    assert checks.check_summary(off_by_one, summary)


def test_matrix_checks_reject_wrong_output(tmp_path, capsys):
    gen.generate("matrix-random", 17, tmp_path, mentions=300)
    expected = json.loads(input_paths(tmp_path)["expected"].read_text())
    text, _ = run_cli("matrix-random", tmp_path, capsys)
    assert checks.check_matrix_csv(text, expected) == ([], 0)

    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[4] = f"{float(cells[4]) + 0.1:.1f}"
    off = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    problems, errors = checks.check_matrix_csv(off, expected)
    assert len(problems) == 1 and errors == 0

    name = lines[2].split(",")[0]
    error_row = ",".join([name] + ["error"] * 11 + ["boom"])
    with_error = "\n".join(lines[:2] + [error_row] + lines[3:]) + "\n"
    assert checks.check_matrix_csv(with_error, expected) == ([], 1)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / "perfbench" / ".cache").exists()
