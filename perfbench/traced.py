"""The workload's CLI job, replayed with a span around each public call.

    python3 perfbench/traced.py T_SPAWN WORKLOAD RUN_DIR OUT TRACE_JSON

The calls are those ``ecrkit.cli`` makes for the job, in the same order:
``load_corpus``, ``resolve_nested_links``, ``load_lexicons``; then per
method ``bucket_keys`` and ``components_from_keys`` (what ``cluster()`` runs
for bucket methods) or ``cluster()`` itself for annotator-∧; for
``cluster``, the second ``bucket_keys`` + ``pair_mass`` pass of the summary
line and ``Partition.dump``; for ``matrix``, ``muc``, ``b_cubed`` and
``ceaf_e`` in place of ``score`` and the table rendering. OUT receives the
same output the CLI writes.

Spans (name, start, end, parent) are kept in memory and written to
TRACE_JSON at the end, with the per-layer metrics, which are also the last
stdout line. Per-layer numbers are self times (a span's duration less its
children's), except ``cluster.method_s.*``, which are whole method spans.
Time in cyclic garbage collections is observed through ``gc.callbacks``.
"""

import sys

T_SPAWN = float(sys.argv[1])

import gc  # noqa: E402
import time  # noqa: E402


class GcClock:
    """Cyclic collections, observed through ``gc.callbacks``: each one's
    (start, end, generation) on the cross-process monotonic clock."""

    def __init__(self):
        self.events: list[tuple[float, float, int]] = []
        self._start = 0.0

    def __call__(self, phase, info):
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        if phase == "start":
            self._start = now
        else:
            self.events.append((self._start, now, info["generation"]))

    def total(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Collection time inside [start, end]."""
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e, _ in self.events)


GC_CLOCK = GcClock()
gc.callbacks.append(GC_CLOCK)

import json  # noqa: E402
import os  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from common import MATRIX_METHODS, WORKLOADS, clock, input_paths, methods, \
    metric_name  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        record = {"name": name, "start": clock() if start is None else start,
                  "end": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = clock()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def resident_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_job(tracer: Tracer, workload: str, run_dir: Path, out: Path) -> dict:
    span = tracer.span
    counters: dict = {}
    with span("cli.import", start=T_SPAWN):
        import ecrkit.cli  # noqa: F401  (what ``python -m ecrkit.cli`` loads)
        from ecrkit import MethodSpec, b_cubed, bucket_keys, ceaf_e, \
            cluster, load_corpus, load_lexicons, muc, resolve_nested_links
        from ecrkit.cluster import components_from_keys, pair_mass
        from ecrkit.metrics import MatrixRow, ScoreReport, \
            render_matrix_csv, render_matrix_text
    paths = input_paths(run_dir)
    with span("corpus.load"):
        before = resident_mb()
        corpus = load_corpus(paths["corpus"])
        counters["corpus_rss_mb"] = resident_mb() - before
    with span("corpus.resolve"):
        _, report = resolve_nested_links(corpus)
    with span("corpus.lexicons"):
        lexicons = load_lexicons(paths["vn_map"], paths["alias_map"])
    counters["links"] = {"resolved": len(report.resolved),
                         "unresolved": len(report.unresolved),
                         "ambiguous": len(report.ambiguous)}

    def clustered(spec):
        with span("cluster.method:" + spec.name()):
            if spec.annotator_mode == "and":
                return cluster(corpus, spec, lexicons)
            mention_ids = corpus.mention_ids()
            with span("cluster.keys"):
                keys = bucket_keys(corpus, spec, lexicons)
            with span("cluster.components"):
                return components_from_keys(mention_ids, keys)

    specs = [MethodSpec(**entry) for entry in methods(workload, run_dir)]
    if WORKLOADS[workload]["argv"][0] == "cluster":
        (spec,) = specs
        partition = clustered(spec)
        with span("cluster.pair_mass"):
            mass = pair_mass(bucket_keys(corpus, spec, lexicons))
        with span("partition.dump"):
            text = partition.dump()
        with span("output.write"):
            out.write_text(text, encoding="utf-8")
        singletons = sum(1 for c in partition.clusters if len(c) == 1)
        print(f"clusters={len(partition)} singletons={singletons} "
              f"pair_mass={mass}")
        return counters

    gold = corpus.gold
    rows = []
    for spec in specs:
        try:
            pred = clustered(spec)
            with span("metrics.muc"):
                m = muc(gold, pred)
            with span("metrics.b3"):
                b = b_cubed(gold, pred)
            with span("metrics.ceaf_e"):
                c = ceaf_e(gold, pred)
            rows.append(MatrixRow(spec.name(), report=ScoreReport(
                muc=m, b3=b, ceaf_e=c, conll_f1=(m.f1 + b.f1 + c.f1) / 3.0,
                r_avg=(m.recall + b.recall) / 2.0,
                p_avg=(m.precision + b.precision) / 2.0)))
        except Exception as exc:  # captured per row, as score_matrix does
            rows.append(MatrixRow(spec.name(), error=str(exc)))
    with span("metrics.render"):
        print(render_matrix_text(rows), end="")
        csv_text = render_matrix_csv(rows)
    with span("output.write"):
        out.write_text(csv_text, encoding="utf-8")
    return counters


def layer_metrics(tracer: Tracer, counters: dict, method_names: list[str]) -> dict:
    own = tracer.self_times()
    total: dict[str, float] = {}
    for s, t in zip(tracer.spans, own):
        total[s["name"]] = total.get(s["name"], 0.0) + t
    metrics = {
        "cli.import_s": total.get("cli.import", 0.0),
        "corpus.load_s": total.get("corpus.load", 0.0),
        "corpus.resolve_s": total.get("corpus.resolve", 0.0),
        "corpus.rss_mb": counters["corpus_rss_mb"],
        "cluster.keys_s": total.get("cluster.keys", 0.0),
        "cluster.components_s": total.get("cluster.components", 0.0),
        "cluster.pair_mass_s": total.get("cluster.pair_mass", 0.0),
    }
    whole = {s["name"]: s["end"] - s["start"] for s in tracer.spans}
    for name in method_names:
        metrics["cluster.method_s." + metric_name(name)] = \
            whole.get("cluster.method:" + name, 0.0)
    metrics.update({
        "partition.dump_s": total.get("partition.dump", 0.0),
        "metrics.muc_s": total.get("metrics.muc", 0.0),
        "metrics.b3_s": total.get("metrics.b3", 0.0),
        "metrics.ceaf_e_s": total.get("metrics.ceaf_e", 0.0),
        "python.gc_s": GC_CLOCK.total(),
    })
    return metrics


def main(workload: str, run_dir: Path, out: Path, trace_path: Path) -> dict:
    tracer = Tracer()
    with tracer.span("job", start=T_SPAWN) as root:
        counters = run_job(tracer, workload, run_dir, out)
    from ecrkit import MethodSpec
    matrix = json.loads(MATRIX_METHODS.read_text(encoding="utf-8"))
    metrics = layer_metrics(tracer, counters,
                            [MethodSpec(**entry).name() for entry in matrix])
    gc_in_span: dict[str, float] = {}
    for s in tracer.spans:
        gc_in_span[s["name"]] = (gc_in_span.get(s["name"], 0.0)
                                 + GC_CLOCK.total(s["start"], s["end"]))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": workload,
        "job_s": root["end"] - root["start"],
        "gc_collections": len(GC_CLOCK.events),
        "gc_full_collections": sum(1 for *_, g in GC_CLOCK.events if g == 2),
        "gc_s_in_span": gc_in_span,
        "counters": counters,
        "metrics": metrics,
        "spans": tracer.spans,
    }, indent=1), encoding="utf-8")
    return metrics


if __name__ == "__main__":
    result = main(sys.argv[2], Path(sys.argv[3]), Path(sys.argv[4]),
                  Path(sys.argv[5]))
    print(json.dumps(result))
