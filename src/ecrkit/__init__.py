"""Linear-time cross-document event coreference from symbolic event identifiers."""

from .corpus import (
    ArgValue,
    Arg1Value,
    Corpus,
    CorpusError,
    EventAnnotation,
    Lexicons,
    Mention,
    load_corpus,
    load_lexicons,
    resolve_nested_links,
    subset,
)
from .eid import (
    EidConfig,
    EventIdentifier,
    canonicalize_argument,
    canonicalize_roleset,
    eid0,
    eid_lt,
    eid_n,
    identifier_key,
)
from .cluster import (
    MethodSpec,
    bucket_keys,
    cluster,
    pairwise_oracle,
)
from .metrics import (
    PRF,
    ScoreReport,
    b_cubed,
    ceaf_e,
    format_score,
    muc,
    score,
    score_matrix,
)
from .partition import Partition
from .harness import BenchResult, diagnose, run_bench, synth_expand

__version__ = "0.1.0"

__all__ = [
    "ArgValue", "Arg1Value", "Corpus", "CorpusError", "EventAnnotation",
    "Lexicons", "Mention", "load_corpus", "load_lexicons",
    "resolve_nested_links", "subset",
    "EidConfig", "EventIdentifier", "canonicalize_argument",
    "canonicalize_roleset", "eid0", "eid_lt", "eid_n", "identifier_key",
    "MethodSpec", "bucket_keys", "cluster", "pairwise_oracle",
    "PRF", "ScoreReport", "b_cubed", "ceaf_e", "format_score", "muc", "score",
    "score_matrix",
    "Partition", "BenchResult", "diagnose", "run_bench", "synth_expand",
]
