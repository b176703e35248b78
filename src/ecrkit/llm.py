"""Prompt construction, response parsing, and offline batch annotation.

Two prompting strategies exist: G1 marks the trigger inside its full source
document; G2 swaps the document for a de-duplicated list of complete event
descriptions gathered topic-wide from a prior G1 pass, and asks for the best
matching description first. Transport is pluggable; the replay transport
reads recorded responses keyed by a content hash, so nothing here needs
network access.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .cluster import components_from_keys
from .corpus import ArgValue, Arg1Value, Corpus, EventAnnotation, Lexicons, \
    Mention, copy_mention, resolve_nested_links
from .eid import EidConfig, eid_n, eid_lt

G1 = "G1"
G2 = "G2"

INSTRUCTIONS = """\
You are a concise annotator that follows these instructions:
1. Identify the target event trigger lemma and its correct roleset sense in the given text.
2. Annotate the document-level ARG-0 and ARG-1 roles using the PropBank website for the roleset definitions.
3. If the ARG-1 role is an event, identify the head predicate and provide its roleset ID.
4. Perform within-document and cross-document anaphora resolution of the ARG-0 and ARG-1 using Wikipedia.
5. Use external resources, such as Wikipedia, to annotate ARG-Loc and ARG-Time.
"""

LABEL_DEFINITIONS = """\
Here are the definitions of the keys in the JSON output:
- What is the event trigger?: The word or phrase in the sentence that evokes the event
- Is it a Nested Event?: Yes if the ARG-1 of the event is itself an event, otherwise No
- Who are the participants?: The entities taking part in the event
- When and where did the event take place?: The time and place of the event
- Roleset ID: The PropBank Roleset ID corresponding to the event trigger
- ARG-0: The text in the Document corresponding to the typical agent
- ARG-0 Coreference: The reference to the ARG-0 in Wikipedia in the format /wiki/Wikipedia_ID
- ARG-1: The text in the Document corresponding to the typical patient or theme
- ARG-1 Coreference: The reference to the ARG-1 in Wikipedia in the format /wiki/Wikipedia_ID
- ARG-1 Roleset ID: If the Event is Nested, provide the Roleset ID for the head event in ARG-1 clause
- ARG-Location: The reference to the event location in Wikipedia
- ARG-Time: The event time in the format of Month-Day-Year in your knowledge of the world or the document
- Event Description: In a single sentence, summarize the event capturing the Roleset_ID and the names and wiki links of the Participants, Location and Time
"""

BEST_MATCH_DEFINITION = (
    "- Best Matching Event Description: The most comprehensive and relevant "
    "description from the labeled Event Descriptions list in correlation to "
    "the target mention; answer this first\n"
)

_MODELED_KEYS = {
    "Roleset ID": "roleset",
    "ARG-0": "arg0",
    "ARG-0 Coreference": "arg0_coref",
    "ARG-1": "arg1",
    "ARG-1 Coreference": "arg1_coref",
    "ARG-1 Roleset ID": "arg1_roleset",
    "ARG-Location": "arg_location",
    "ARG-Time": "arg_time",
    "Event Description": "event_description",
    "Best Matching Event Description": "best_match",
}

_MONTHS = (
    "january february march april may june july august september october "
    "november december"
).split()
_TIME_RE = re.compile(
    r"^(?:(?:0?[1-9]|1[0-2])|(?:%s))-\d{1,2}-\d{4}$" % "|".join(_MONTHS),
    re.IGNORECASE,
)


class PromptError(Exception):
    pass


class ResponseError(Exception):
    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str
    strategy: str

    def request_hash(self) -> str:
        payload = (self.system_text + "\x00" + self.user_text).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class AnnotationResponse:
    roleset: str
    arg0: Optional[str] = None
    arg0_coref: Optional[str] = None
    arg1: Optional[str] = None
    arg1_coref: Optional[str] = None
    arg1_roleset: Optional[str] = None
    arg_location: Optional[str] = None
    arg_time: Optional[str] = None
    event_description: Optional[str] = None
    best_match: Optional[str] = None
    raw: str = ""
    warnings: list[str] = field(default_factory=list)

    def is_complete(self) -> bool:
        """All arguments, including location and time, were produced."""
        return all((self.arg0, self.arg1 or self.arg1_roleset,
                    self.arg_location, self.arg_time))

    def to_annotation(self) -> EventAnnotation:
        """Convert to the corpus annotation model. Wiki-style coreference
        paths, when present, stand in for the raw argument text since they
        are the canonical cross-document form."""
        arg1: Optional[Arg1Value] = None
        if self.arg1_roleset:
            arg1 = Arg1Value(kind="event", linked_roleset=self.arg1_roleset)
        elif self.arg1_coref or self.arg1:
            arg1 = Arg1Value(
                kind="entity", entity=ArgValue(self.arg1_coref or self.arg1)
            )
        arg0 = self.arg0_coref or self.arg0
        return EventAnnotation(
            roleset=self.roleset,
            arg0=ArgValue(arg0) if arg0 else None,
            arg1=arg1,
            arg_loc=ArgValue(self.arg_location) if self.arg_location else None,
            arg_time=ArgValue(self.arg_time) if self.arg_time else None,
        )

    def render(self) -> str:
        """JSON rendering of the modeled fields, the same shape the parser
        accepts; parse(render(x)) is the identity on modeled fields."""
        obj = {}
        for key, attr in _MODELED_KEYS.items():
            value = getattr(self, attr)
            if value is not None:
                obj[key] = value
        return json.dumps(obj, ensure_ascii=False, indent=2)


def marked_sentence(mention: Mention) -> str:
    start, end = mention.trigger_span
    if mention.sentence[start:end] != mention.trigger_text:
        raise PromptError(
            f"trigger {mention.trigger_text!r} not found at its span in "
            f"mention {mention.mention_id!r}"
        )
    return (mention.sentence[:start] + "<m> " + mention.trigger_text + " </m>"
            + mention.sentence[end:])


def build_g1_prompt(mention: Mention, document_text: str) -> PromptBundle:
    """Document-context prompt: label definitions, the full source document,
    and the sentence with the trigger marked by <m> ... </m>."""
    user = (
        LABEL_DEFINITIONS
        + "\nDocument:\n"
        + document_text
        + "\n\nSentence with the marked event trigger:\n"
        + marked_sentence(mention)
        + "\n\nRespond with a single JSON object using the keys defined above.\n"
    )
    return PromptBundle(system_text=INSTRUCTIONS, user_text=user, strategy=G1)


@dataclass
class PoolEntry:
    mention_id: str
    topic_id: str
    description: str
    complete: bool
    annotation: Optional[EventAnnotation] = None


@dataclass
class EventDescriptionPool:
    entries: list[PoolEntry] = field(default_factory=list)

    def for_topic(self, topic_id: str) -> list[PoolEntry]:
        return [e for e in self.entries if e.topic_id == topic_id and e.complete]

    def description_of(self, mention_id: str) -> Optional[str]:
        for e in self.entries:
            if e.mention_id == mention_id:
                return e.description
        return None


def build_g2_prompt(mention: Mention, pool: EventDescriptionPool) -> PromptBundle:
    """Corpus-context prompt: the topic's labeled event descriptions replace
    the document, and the best matching description is requested first."""
    entries = [e for e in pool.for_topic(mention.topic_id)
               if e.mention_id != mention.mention_id]
    if entries:
        listing = "\n".join(
            f"{i}. {e.description}" for i, e in enumerate(entries, start=1)
        )
    else:
        listing = "(no event descriptions available)"
    own = pool.description_of(mention.mention_id)
    user = (
        BEST_MATCH_DEFINITION
        + LABEL_DEFINITIONS
        + "\nEvent Descriptions:\n"
        + listing
        + "\n\nSentence with the marked event trigger:\n"
        + marked_sentence(mention)
        + "\n\nTarget Event Description:\n"
        + (own or "(none)")
        + "\n\nRespond with a single JSON object using the keys defined above, "
        + "answering Best Matching Event Description first.\n"
    )
    return PromptBundle(system_text=INSTRUCTIONS, user_text=user, strategy=G2)


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def parse_response(raw: str) -> AnnotationResponse:
    """Tolerant structured parse of an annotation response.

    Accepts code-fenced payloads and ignores extra chain-of-thought keys.
    Missing roleset is an error; an ill-formatted time is kept raw with a
    warning flag.
    """
    text = raw.strip()
    fenced = _FENCE_RE.search(text)
    if fenced:
        text = fenced.group(1).strip()
    if not text.startswith("{"):
        start, end = text.find("{"), text.rfind("}")
        if start == -1 or end == -1 or end < start:
            raise ResponseError("no JSON object found in response", raw)
        text = text[start:end + 1]
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResponseError(f"unparseable JSON payload: {exc.msg}", raw) from exc
    if not isinstance(obj, dict):
        raise ResponseError("response payload is not a JSON object", raw)

    values: dict[str, Optional[str]] = {}
    for key, attr in _MODELED_KEYS.items():
        value = obj.get(key)
        if value is None or (isinstance(value, str) and not value.strip()):
            values[attr] = None
        else:
            values[attr] = str(value).strip()
    if not values["roleset"]:
        raise ResponseError("response is missing the key 'Roleset ID'", raw)

    response = AnnotationResponse(raw=raw, **values)
    if response.arg_time and not _TIME_RE.match(response.arg_time):
        response.warnings.append(
            f"ARG-Time {response.arg_time!r} is not Month-Day-Year; kept raw"
        )
    for attr in ("arg0_coref", "arg1_coref", "arg_location"):
        value = getattr(response, attr)
        if value and not value.startswith("/wiki/"):
            response.warnings.append(
                f"{attr} {value!r} does not start with /wiki/"
            )
    return response


def dedupe_pool(pool: EventDescriptionPool, cfg: EidConfig,
                lexicons: Lexicons) -> EventDescriptionPool:
    """Collapse coreferent pool entries (same topic, matching nested or
    loc/time identifiers, transitively) to the earliest entry. Idempotent
    and order-stable."""
    entries = pool.entries
    keys: dict[int, set] = {}
    for pos, entry in enumerate(entries):
        if entry.annotation is None:
            continue
        m = Mention(
            mention_id=entry.mention_id, topic_id=entry.topic_id, doc_id="",
            sentence_id=0, sentence="", trigger_text="", trigger_span=(0, 0),
            lemma="", gold_cluster="-", split="dev",
            annotations={"pool": entry.annotation},
        )
        ids = eid_n(m, "pool", cfg, lexicons) | eid_lt(m, "pool", cfg, lexicons)
        keys[pos] = {(entry.topic_id, i) for i in ids}
    # Positions stand in for mention ids, so each component's first member
    # is its earliest entry, and components come in order of it.
    components = components_from_keys(list(range(len(entries))), keys)
    return EventDescriptionPool(
        entries=[entries[c[0]] for c in components.clusters])


@dataclass
class TransportResult:
    text: str
    usage: Optional[dict] = None


class TransportError(Exception):
    pass


Transport = Callable[[PromptBundle], TransportResult]


class ReplayTransport:
    """Replays recorded responses from a JSON-lines fixture of
    ``{"request_hash": ..., "response_text": ...}`` records."""

    def __init__(self, path):
        self.responses: dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                self.responses[obj["request_hash"]] = obj["response_text"]

    def __call__(self, prompt: PromptBundle) -> TransportResult:
        key = prompt.request_hash()
        if key not in self.responses:
            raise TransportError(f"no recorded response for request {key}")
        return TransportResult(text=self.responses[key])


@dataclass
class FailureEntry:
    mention_id: str
    error: str
    retries: int


@dataclass
class AnnotationRun:
    strategy: str
    responses: dict[str, AnnotationResponse] = field(default_factory=dict)
    failures: list[FailureEntry] = field(default_factory=list)
    usage_log: list[dict] = field(default_factory=list)

    def stable_hash(self) -> str:
        digest = hashlib.sha256()
        for mid in sorted(self.responses):
            digest.update(mid.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(self.responses[mid].render().encode("utf-8"))
            digest.update(b"\x01")
        return digest.hexdigest()

    def annotator_id(self) -> str:
        return self.strategy


def _attempt(transport: Transport, prompt: PromptBundle,
             max_retries: int = 2) -> tuple[TransportResult, int]:
    last_exc: Optional[Exception] = None
    for attempt in range(max_retries + 1):
        try:
            return transport(prompt), attempt
        except TransportError as exc:
            last_exc = exc
    raise last_exc


def build_pool(corpus: Corpus, g1_run: AnnotationRun) -> EventDescriptionPool:
    pool = EventDescriptionPool()
    for m in corpus.mentions:
        response = g1_run.responses.get(m.mention_id)
        if response is None or not response.event_description:
            continue
        pool.entries.append(PoolEntry(
            mention_id=m.mention_id,
            topic_id=m.topic_id,
            description=response.event_description,
            complete=response.is_complete(),
            annotation=response.to_annotation(),
        ))
    return pool


def annotate_corpus(corpus: Corpus, transport: Transport, strategy: str,
                    lexicons: Optional[Lexicons] = None,
                    eid_cfg: Optional[EidConfig] = None) -> AnnotationRun:
    """Batch-annotate a corpus. G2 internally runs a G1 pass first to seed
    the de-duplicated event description pool. Transport failures become
    per-mention failure entries; the batch continues."""
    if strategy not in (G1, G2):
        raise ValueError(f"unknown strategy {strategy!r}")
    lexicons = lexicons or Lexicons.empty()
    eid_cfg = eid_cfg or EidConfig()

    pool: Optional[EventDescriptionPool] = None
    if strategy == G2:
        g1_run = annotate_corpus(corpus, transport, G1)
        pool = dedupe_pool(build_pool(corpus, g1_run), eid_cfg, lexicons)

    run = AnnotationRun(strategy=strategy)
    for m in corpus.mentions:
        if strategy == G1:
            prompt = build_g1_prompt(m, corpus.document_text(m.doc_id))
        else:
            prompt = build_g2_prompt(m, pool)
        try:
            result, retries = _attempt(transport, prompt)
        except TransportError as exc:
            run.failures.append(FailureEntry(m.mention_id, str(exc), retries=2))
            continue
        if result.usage:
            run.usage_log.append({"mention_id": m.mention_id, **result.usage})
        try:
            run.responses[m.mention_id] = parse_response(result.text)
        except ResponseError as exc:
            run.failures.append(FailureEntry(m.mention_id, str(exc), retries))
    return run


def run_to_corpus(corpus: Corpus, run: AnnotationRun) -> Corpus:
    """Write the run's annotations onto a copy of the corpus under the
    strategy's annotator id, using the standard mention schema."""
    mentions = []
    for m in corpus.mentions:
        copied = copy_mention(m)
        response = run.responses.get(m.mention_id)
        if response is not None:
            copied.annotations[run.annotator_id()] = response.to_annotation()
        mentions.append(copied)
    out = Corpus(mentions)
    resolve_nested_links(out)
    return out
