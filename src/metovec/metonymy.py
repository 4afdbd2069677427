"""Metonymy target extraction, candidate harvesting and the rule-based
direct-object check that stands in for a statistical dependency parser."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, CorpusFormatError, Sentence

# tokens allowed between the verb and the first noun of its object NP
GAP_TAGS = frozenset({"DET", "ADJ", "ADV", "NUM"})
# prepositions that act as verb particles ("take in the scene")
PARTICLES = frozenset({"up", "out", "off", "on", "in", "down", "back", "over"})
MAX_GAP = 3


@dataclass(frozen=True)
class VerbSpec:
    lemma: str
    eventhood: float
    category: str  # aspectual | psychological


# eventhood scores from Utt et al.'s metonymic-verb dataset
DEFAULT_VERBS = (
    VerbSpec("begin", 0.91, "aspectual"),
    VerbSpec("finish", 0.66, "aspectual"),
    VerbSpec("enjoy", 0.57, "psychological"),
)


@dataclass(frozen=True)
class VerbObject:
    """A verb governing an object NP: a metonymy target ("begin the book")
    or a paraphrase candidate ("read the book").  ``validated`` says the
    direct-object check passed; every record the library builds has."""

    verb_lemma: str
    verb_position: int
    np_head_lemma: str
    np_span: tuple[int, int]  # [start, end) token indices
    sentence_ref: tuple[str, int]
    validated: bool = True


MetonymyTarget = CandidateSentence = VerbObject


def _is_particle(token) -> bool:
    return token.pos == "PREP" and token.lemma in PARTICLES


def object_np_after(sentence: Sentence, verb_position: int):
    """The object NP directly governed by the verb, or None.

    Scans forward over at most MAX_GAP determiner/modifier/particle tokens,
    then takes the maximal NOUN run; the NP head is its last noun.  Any
    intervening PUNCT, CONJ or VERB aborts the scan.
    """
    tokens = sentence.tokens
    pos = verb_position + 1
    gap = 0
    while pos < len(tokens) and tokens[pos].pos != "NOUN":
        token = tokens[pos]
        if token.pos in ("PUNCT", "CONJ", "VERB"):
            return None
        if not (token.pos in GAP_TAGS or _is_particle(token)):
            return None
        gap += 1
        if gap > MAX_GAP:
            return None
        pos += 1
    if pos >= len(tokens):
        return None
    start = pos
    while pos < len(tokens) and tokens[pos].pos == "NOUN":
        pos += 1
    return (start, pos), tokens[pos - 1].lemma


def validate_direct_object(sentence: Sentence, verb_position: int,
                           np_span: tuple[int, int]) -> bool:
    """True when the verb plausibly governs the NP as its direct object."""
    tokens = sentence.tokens
    np_start, np_end = np_span
    if not (0 <= verb_position < np_start <= np_end <= len(tokens)):
        return False
    between = tokens[verb_position + 1:np_start]
    if len(between) > MAX_GAP:
        return False
    for token in between:
        if token.pos in ("PUNCT", "CONJ", "VERB"):
            return False
        if not (token.pos in GAP_TAGS or _is_particle(token)):
            return False
    if between and between[0].pos == "PREP" and not _is_particle(between[0]):
        return False
    return tokens[np_end - 1].pos == "NOUN"


def _governed_pairs(sentence: Sentence):
    """(verb_position, np_span, head) for every validated verb-object pair.

    A verb immediately preceded by punctuation is skipped: that is the
    inversion pattern ("...?' began the top man") where the noun phrase is
    the subject, not an object.
    """
    for pos, token in enumerate(sentence.tokens):
        if token.pos != "VERB":
            continue
        if pos > 0 and sentence.tokens[pos - 1].pos == "PUNCT":
            continue
        found = object_np_after(sentence, pos)
        if found is None:
            continue
        np_span, head = found
        if validate_direct_object(sentence, pos, np_span):
            yield pos, np_span, head


@dataclass(frozen=True)
class VerbObjectIndex:
    """Every validated (verb, object NP) pair of a corpus, found in one pass.

    ``pairs`` holds them in document order, ``by_head`` per NP head lemma
    (document order within a head) and ``by_ref`` per sentence ref, with an
    empty tuple for a sentence that has none.  Built by ``index_corpus``.
    """

    pairs: tuple[VerbObject, ...]
    by_head: dict[str, tuple[VerbObject, ...]]
    by_ref: dict[tuple[str, int], tuple[VerbObject, ...]]


def index_corpus(corpus: Corpus) -> VerbObjectIndex:
    """Run ``_governed_pairs`` once per sentence and index the pairs."""
    pairs = []
    by_head = {}
    by_ref = {}
    for sentence in corpus:
        found = tuple(
            VerbObject(sentence.tokens[pos].lemma, pos, head, np_span,
                       sentence.ref)
            for pos, np_span, head in _governed_pairs(sentence))
        # a ref repeated in the corpus resolves to its last sentence
        by_ref[sentence.ref] = found
        for pair in found:
            by_head.setdefault(pair.np_head_lemma, []).append(pair)
        pairs.extend(found)
    return VerbObjectIndex(
        pairs=tuple(pairs),
        by_head={head: tuple(found) for head, found in by_head.items()},
        by_ref=by_ref)


def _as_index(corpus) -> VerbObjectIndex:
    if isinstance(corpus, VerbObjectIndex):
        return corpus
    return index_corpus(corpus)


def find_targets(corpus, verbs=DEFAULT_VERBS) -> list[VerbObject]:
    """All (metonymic verb, object NP) occurrences in document order.

    ``corpus`` is a Corpus or the VerbObjectIndex of one.
    """
    verb_lemmas = {spec.lemma for spec in verbs}
    return [pair for pair in _as_index(corpus).pairs
            if pair.verb_lemma in verb_lemmas]


def harvest_candidates(corpus, np_head: str,
                       excluded_verbs=frozenset()) -> list[VerbObject]:
    """Sentences where some non-excluded verb governs an NP headed by
    ``np_head``; one candidate per (verb, NP) occurrence, in document order.

    ``corpus`` is a Corpus or the VerbObjectIndex of one; pass the index
    when harvesting for many heads, so the corpus is scanned only once.
    """
    if not np_head:
        raise ValueError("np_head must be non-empty")
    return [pair for pair in _as_index(corpus).by_head.get(np_head, ())
            if pair.verb_lemma not in excluded_verbs]


def load_gold_targets(path, corpus) -> list[VerbObject]:
    """Parse a gold-target file: ``doc_id<TAB>index<TAB>verb<TAB>np_head``
    per line.  Each record must resolve to a (verb, NP) pair in ``corpus``,
    a Corpus or the VerbObjectIndex of one.
    """
    by_ref = _as_index(corpus).by_ref
    targets = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise CorpusFormatError(
                    path, lineno,
                    f"expected 4 tab-separated fields, got {len(fields)}")
            doc_id, index_str, verb, np_head = fields
            try:
                index = int(index_str)
            except ValueError:
                raise CorpusFormatError(
                    path, lineno, f"bad sentence index {index_str!r}") from None
            pairs = by_ref.get((doc_id, index))
            if pairs is None:
                raise CorpusFormatError(
                    path, lineno, f"no sentence ({doc_id!r}, {index})")
            target = next((pair for pair in pairs
                           if pair.verb_lemma == verb
                           and pair.np_head_lemma == np_head), None)
            if target is None:
                raise CorpusFormatError(
                    path, lineno,
                    f"no ({verb!r}, {np_head!r}) pair in ({doc_id!r}, {index})")
            targets.append(target)
    return targets
