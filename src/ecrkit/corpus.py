"""Corpus data model: annotated event mentions, lexicons, and nested-link resolution.

The on-disk format is JSON-lines, one mention per line (see ``load_corpus``).
Rolesets follow the ``lemma.dd`` sense convention (e.g. ``acquire.01``); an
ARG-1 is either an entity span or a link to another event, annotated by the
roleset of that event's head predicate.
"""

from __future__ import annotations

import bisect
import json
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .partition import Partition

SPLITS = ("train", "dev", "test", "dev_small")

_ROLESET_RE = re.compile(r"^\S+$")
# The bytes that join key tokens (eid.KEY_SEP) and combined keys
# (cluster.TAG_SEP); no lexicon value may hold them.
_SEPARATORS = re.compile("[\x1f\x1e]")


class CorpusError(Exception):
    """Raised for malformed corpus or lexicon files; carries the line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class ArgValue:
    """An argument surface form, possibly ``/``-separated alternatives."""

    surface: str

    def alternatives(self) -> list[str]:
        parts = [p.strip() for p in self.surface.split("/")]
        return [p for p in parts if p]


@dataclass
class Arg1Value:
    """ARG-1 slot: either an entity value or a link to another event."""

    kind: str  # "entity" | "event"
    entity: Optional[ArgValue] = None
    linked_roleset: Optional[str] = None
    linked_mention: Optional[str] = None
    # Set during resolution; not serialized, not compared.
    linked_ref: Optional["Mention"] = field(
        default=None, repr=False, compare=False
    )


@dataclass
class EventAnnotation:
    """One annotator's semantic graph for a mention: roleset plus four arguments."""

    roleset: str
    arg0: Optional[ArgValue] = None
    arg1: Optional[Arg1Value] = None
    arg_loc: Optional[ArgValue] = None
    arg_time: Optional[ArgValue] = None


@dataclass
class Mention:
    mention_id: str
    topic_id: str
    doc_id: str
    sentence_id: int
    sentence: str
    trigger_text: str
    trigger_span: tuple[int, int]
    lemma: str
    gold_cluster: str
    split: str
    annotations: dict[str, EventAnnotation] = field(default_factory=dict)


@dataclass
class Lexicons:
    """Roleset -> VerbNet classes, and normalized surface -> canonical entity id."""

    vn_classes: dict[str, set[str]] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "Lexicons":
        return cls()


@dataclass
class LinkReport:
    """Outcome of nested ARG-1 resolution."""

    resolved: list[tuple[str, str, str]] = field(default_factory=list)
    unresolved: list[tuple[str, str, str, str]] = field(default_factory=list)
    ambiguous: list[tuple[str, str, str, list[str]]] = field(default_factory=list)


class Corpus:
    """Immutable-after-construction collection of mentions with indexes."""

    def __init__(self, mentions: list[Mention]):
        self.mentions = mentions
        self.by_id: dict[str, Mention] = {}
        self.by_doc: dict[str, list[str]] = {}
        for m in mentions:
            if m.mention_id in self.by_id:
                raise CorpusError(f"duplicate mention_id {m.mention_id!r}")
            self.by_id[m.mention_id] = m
            self.by_doc.setdefault(m.doc_id, []).append(m.mention_id)
        self.gold = Partition.from_labels(
            {m.mention_id: m.gold_cluster for m in mentions}
        )

    def __len__(self) -> int:
        return len(self.mentions)

    def mention_ids(self) -> list[str]:
        return [m.mention_id for m in self.mentions]

    def document_text(self, doc_id: str) -> str:
        """Reconstruct a document as its sentences joined in sentence order."""
        seen: dict[int, str] = {}
        for mid in self.by_doc.get(doc_id, []):
            m = self.by_id[mid]
            seen.setdefault(m.sentence_id, m.sentence)
        return " ".join(seen[sid] for sid in sorted(seen))

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(_mention_record(m), ensure_ascii=False) + "\n"
            for m in self.mentions
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_jsonl())


def _parse_arg(value, *, line: int, name: str) -> Optional[ArgValue]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise CorpusError(f"field {name!r} must be a string", line)
    if not value.strip():
        raise CorpusError(f"field {name!r} is empty", line)
    return ArgValue(surface=value)


def _parse_arg1(value, *, line: int) -> Optional[Arg1Value]:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise CorpusError("field 'arg1' must be an object", line)
    kind = value.get("kind")
    if kind == "entity":
        entity = _parse_arg(value.get("text"), line=line, name="arg1.text")
        if entity is None:
            raise CorpusError("entity arg1 requires non-empty 'text'", line)
        return Arg1Value(kind="entity", entity=entity)
    if kind == "event":
        roleset = value.get("roleset")
        if not isinstance(roleset, str) or not _ROLESET_RE.match(roleset):
            raise CorpusError(f"invalid event arg1 roleset {roleset!r}", line)
        return Arg1Value(kind="event", linked_roleset=roleset)
    raise CorpusError(f"arg1.kind must be 'entity' or 'event', got {kind!r}", line)


def _parse_annotation(obj, *, line: int) -> EventAnnotation:
    if not isinstance(obj, dict):
        raise CorpusError("annotation must be an object", line)
    roleset = obj.get("roleset")
    if not roleset or not isinstance(roleset, str) or not _ROLESET_RE.match(roleset):
        raise CorpusError(f"invalid roleset {roleset!r}", line)
    return EventAnnotation(
        roleset=roleset,
        arg0=_parse_arg(obj.get("arg0"), line=line, name="arg0"),
        arg1=_parse_arg1(obj.get("arg1"), line=line),
        arg_loc=_parse_arg(obj.get("arg_loc"), line=line, name="arg_loc"),
        arg_time=_parse_arg(obj.get("arg_time"), line=line, name="arg_time"),
    )


def _parse_mention(obj, *, line: int) -> Mention:
    if not isinstance(obj, dict):
        raise CorpusError("a mention must be a JSON object", line)
    required = (
        "mention_id",
        "topic_id",
        "doc_id",
        "sentence_id",
        "sentence",
        "trigger_text",
        "trigger_start",
        "trigger_end",
        "lemma",
        "gold_cluster",
        "split",
    )
    for key in required:
        if key not in obj:
            raise CorpusError(f"missing field {key!r}", line)
    for key in ("mention_id", "sentence", "lemma"):
        if not isinstance(obj[key], str):
            raise CorpusError(f"field {key!r} must be a string", line)
    if not _is_int(obj["sentence_id"]):
        raise CorpusError("field 'sentence_id' must be an integer", line)
    gold_cluster = obj["gold_cluster"]
    if not (isinstance(gold_cluster, str) or _is_int(gold_cluster)):
        raise CorpusError("gold_cluster must be a string or an integer", line)
    annotations = obj.get("annotations") or {}
    if not isinstance(annotations, dict):
        raise CorpusError("field 'annotations' must be an object", line)
    start, end = obj["trigger_start"], obj["trigger_end"]
    sentence = obj["sentence"]
    if not isinstance(start, int) or not isinstance(end, int):
        raise CorpusError("trigger offsets must be integers", line)
    if start > end:
        raise CorpusError("span start exceeds end", line)
    if start < 0 or end > len(sentence):
        raise CorpusError("trigger span outside sentence bounds", line)
    if sentence[start:end] != obj["trigger_text"]:
        raise CorpusError(
            f"trigger span slices {sentence[start:end]!r}, "
            f"expected {obj['trigger_text']!r}",
            line,
        )
    if obj["split"] not in SPLITS:
        raise CorpusError(f"unknown split {obj['split']!r}", line)
    if not str(gold_cluster).strip():
        raise CorpusError("empty gold_cluster", line)
    if not obj["lemma"].strip():
        raise CorpusError("empty lemma", line)
    annotations = {annotator: _parse_annotation(ann, line=line)
                   for annotator, ann in annotations.items()}
    return Mention(
        mention_id=obj["mention_id"],
        topic_id=obj["topic_id"],
        doc_id=obj["doc_id"],
        sentence_id=obj["sentence_id"],
        sentence=sentence,
        trigger_text=obj["trigger_text"],
        trigger_span=(start, end),
        lemma=obj["lemma"],
        gold_cluster=str(gold_cluster),
        split=obj["split"],
        annotations=annotations,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _mention_record(m: Mention) -> dict:
    annotations = {}
    for annotator, ann in m.annotations.items():
        rec: dict = {"roleset": ann.roleset}
        if ann.arg0 is not None:
            rec["arg0"] = ann.arg0.surface
        if ann.arg1 is not None:
            if ann.arg1.kind == "entity":
                rec["arg1"] = {"kind": "entity", "text": ann.arg1.entity.surface}
            else:
                rec["arg1"] = {"kind": "event", "roleset": ann.arg1.linked_roleset}
        if ann.arg_loc is not None:
            rec["arg_loc"] = ann.arg_loc.surface
        if ann.arg_time is not None:
            rec["arg_time"] = ann.arg_time.surface
        annotations[annotator] = rec
    return {
        "mention_id": m.mention_id,
        "topic_id": m.topic_id,
        "doc_id": m.doc_id,
        "sentence_id": m.sentence_id,
        "sentence": m.sentence,
        "trigger_text": m.trigger_text,
        "trigger_start": m.trigger_span[0],
        "trigger_end": m.trigger_span[1],
        "lemma": m.lemma,
        "gold_cluster": m.gold_cluster,
        "split": m.split,
        "annotations": annotations,
    }


def load_corpus(path) -> Corpus:
    """Load a JSON-lines mention file into a Corpus with all indexes built."""
    mentions: list[Mention] = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"invalid JSON ({exc.msg})", lineno) from exc
            mention = _parse_mention(obj, line=lineno)
            if mention.mention_id in first_line:
                raise CorpusError(
                    f"duplicate mention_id {mention.mention_id!r} "
                    f"(first seen at line {first_line[mention.mention_id]})",
                    lineno,
                )
            first_line[mention.mention_id] = lineno
            mentions.append(mention)
    return Corpus(mentions)


def load_lexicons(vn_path, alias_path) -> Lexicons:
    """Load the roleset->VerbNet-class TSV and the surface->entity alias TSV."""
    lex = Lexicons()
    for lineno, row in _tsv_rows(vn_path):
        if len(row) != 2:
            raise CorpusError(f"expected 2 columns, got {len(row)}", lineno)
        roleset, class_id = row
        if not roleset or not class_id:
            raise CorpusError("blank roleset or class field", lineno)
        if _SEPARATORS.search(class_id):
            raise CorpusError(f"class {class_id!r} holds a separator byte",
                              lineno)
        lex.vn_classes.setdefault(roleset, set()).add(class_id)
    for lineno, row in _tsv_rows(alias_path):
        if len(row) != 2:
            raise CorpusError(f"expected 2 columns, got {len(row)}", lineno)
        surface, entity_id = row
        if not surface or not entity_id:
            raise CorpusError("blank surface or entity field", lineno)
        if _SEPARATORS.search(entity_id):
            raise CorpusError(f"entity {entity_id!r} holds a separator byte",
                              lineno)
        lex.aliases[surface] = entity_id
    return lex


def _tsv_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, [c.strip() for c in line.split("\t")]


def resolve_nested_links(corpus: Corpus) -> tuple[Corpus, LinkReport]:
    """Resolve event-kind ARG-1 links to same-document mentions.

    A link on mention ``m`` under annotator ``a`` targets the same-document
    mention whose annotation by ``a`` carries the linked roleset. Among
    multiple candidates the one nearest in sentence distance wins (ties go to
    the smaller sentence id, then file order) and the ambiguity is reported.
    Links that would close a cycle are left unresolved and reported.

    Idempotent: links are recomputed from scratch on every call.
    """
    report = LinkReport()
    # Index every annotated mention by (doc, annotator, roleset), sorted by
    # (sentence, file order), so each link resolves with a bisect instead of
    # a document scan (documents get very large under benchmark expansion).
    index: dict[tuple[str, str, str], list[tuple[int, int, Mention]]] = {}
    for order, m in enumerate(corpus.mentions):
        for annotator, ann in m.annotations.items():
            index.setdefault((m.doc_id, annotator, ann.roleset), []).append(
                (m.sentence_id, order, m)
            )
    for entries in index.values():
        entries.sort(key=lambda e: (e[0], e[1]))

    # Tentative targets, then cycle-break per annotator in corpus order.
    chosen: dict[str, list[tuple[Mention, Arg1Value, Mention]]] = {}
    for m in corpus.mentions:
        for annotator, ann in m.annotations.items():
            if ann.arg1 is None or ann.arg1.kind != "event":
                continue
            arg1 = ann.arg1
            arg1.linked_mention = None
            arg1.linked_ref = None
            wanted = arg1.linked_roleset
            entries = index.get((m.doc_id, annotator, wanted), [])
            n_candidates = len(entries) - (1 if ann.roleset == wanted else 0)
            if n_candidates < 1:
                report.unresolved.append(
                    (m.mention_id, annotator, wanted, "no same-document match")
                )
                continue
            target, sample = _nearest_candidate(entries, m)
            if n_candidates > 1:
                report.ambiguous.append((m.mention_id, annotator, wanted, sample))
            chosen.setdefault(annotator, []).append((m, arg1, target))

    for annotator, links in chosen.items():
        kept: dict[str, str] = {}  # source -> target, per annotator
        for m, arg1, target in links:
            if _closes_cycle(kept, m.mention_id, target.mention_id):
                report.unresolved.append(
                    (m.mention_id, annotator, arg1.linked_roleset,
                     "link would close a cycle")
                )
                continue
            kept[m.mention_id] = target.mention_id
            arg1.linked_mention = target.mention_id
            arg1.linked_ref = target
            report.resolved.append((m.mention_id, annotator, target.mention_id))
    return corpus, report


def _nearest_candidate(
    entries: list[tuple[int, int, Mention]], m: Mention
) -> tuple[Mention, list[str]]:
    """Pick the candidate nearest to ``m``'s sentence (ties: smaller sentence
    id, then file order), skipping ``m`` itself. ``entries`` is sorted by
    (sentence_id, file order); only the runs adjacent to ``m``'s sentence can
    win, so the search is logarithmic. Also returns a small sample of the
    runner-up candidate ids for the ambiguity report.
    """
    s = m.sentence_id
    pos = bisect.bisect_left(entries, (s, -1))
    pos_end = bisect.bisect_left(entries, (s + 1, -1))
    pool: list[tuple[int, int, Mention]] = list(entries[pos:pos + 2])
    if pos > 0:
        sid_left = entries[pos - 1][0]
        left_start = bisect.bisect_left(entries, (sid_left, -1))
        pool.extend(entries[left_start:left_start + 2])
    if pos_end < len(entries):
        pool.extend(entries[pos_end:pos_end + 2])
    best = min(
        (e for e in pool if e[2] is not m),
        key=lambda e: (abs(e[0] - s), e[0], e[1]),
    )
    sample = [e[2].mention_id for e in sorted(
        (e for e in pool if e[2] is not m),
        key=lambda e: (abs(e[0] - s), e[0], e[1]),
    )][:5]
    return best[2], sample


def _closes_cycle(links: dict[str, str], source: str, target: str) -> bool:
    node = target
    for _ in range(len(links) + 1):
        if node == source:
            return True
        nxt = links.get(node)
        if nxt is None:
            return False
        node = nxt
    return True  # defensive: should not happen while links stay acyclic


def copy_mention(m: Mention, *, mention_id: Optional[str] = None) -> Mention:
    """Deep-copy a mention's annotations. Resolved links are dropped; callers
    re-run ``resolve_nested_links`` on the new corpus."""
    annotations = {}
    for annotator, ann in m.annotations.items():
        arg1 = None
        if ann.arg1 is not None:
            if ann.arg1.kind == "entity":
                arg1 = Arg1Value(kind="entity", entity=replace(ann.arg1.entity))
            else:
                arg1 = Arg1Value(kind="event", linked_roleset=ann.arg1.linked_roleset)
        annotations[annotator] = EventAnnotation(
            roleset=ann.roleset,
            arg0=replace(ann.arg0) if ann.arg0 else None,
            arg1=arg1,
            arg_loc=replace(ann.arg_loc) if ann.arg_loc else None,
            arg_time=replace(ann.arg_time) if ann.arg_time else None,
        )
    return replace(m, mention_id=mention_id or m.mention_id, annotations=annotations)


def subset(corpus: Corpus, selector) -> Corpus:
    """Restrict a corpus to a split name or an explicit mention_id list."""
    if isinstance(selector, str):
        if selector not in SPLITS:
            raise ValueError(f"unknown split {selector!r}")
        keep = [m for m in corpus.mentions if m.split == selector]
    else:
        wanted = list(selector)
        if not wanted:
            raise ValueError("empty mention_id selector")
        missing = [mid for mid in wanted if mid not in corpus.by_id]
        if missing:
            raise ValueError(f"unknown mention_ids: {', '.join(sorted(missing))}")
        wanted_set = set(wanted)
        keep = [m for m in corpus.mentions if m.mention_id in wanted_set]
    sub = Corpus([copy_mention(m) for m in keep])
    resolve_nested_links(sub)
    return sub
