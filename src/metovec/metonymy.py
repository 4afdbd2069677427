"""Metonymy target extraction, candidate harvesting and the rule-based
direct-object check that stands in for a statistical dependency parser."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import (CorpusFormatError, Sentence, numbered_lines,
                     sentence_index)

# tokens allowed between the verb and the first noun of its object NP
GAP_TAGS = frozenset({"DET", "ADJ", "ADV", "NUM"})
# prepositions that act as verb particles ("take in the scene")
PARTICLES = frozenset({"up", "out", "off", "on", "in", "down", "back", "over"})
MAX_GAP = 3


@dataclass(frozen=True)
class VerbSpec:
    lemma: str


# from Utt et al.'s (2013) metonymic-verb dataset, whose eventhood scores
# are begin 0.91 and finish 0.66 (aspectual) and enjoy 0.57 (psychological)
DEFAULT_VERBS = (VerbSpec("begin"), VerbSpec("finish"), VerbSpec("enjoy"))


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


CandidateSentence = VerbObject


def _gap_token(tag: str, lemma: str) -> bool:
    """May stand between a verb and the first noun of its object: a
    GAP_TAGS token or a particle PREP."""
    return tag in GAP_TAGS or (tag == "PREP" and lemma in PARTICLES)


def object_np_after(sentence: Sentence, verb_position: int):
    """The object NP directly governed by the verb, or None.

    Scans forward over at most MAX_GAP gap tokens (``_gap_token``), then
    takes the maximal NOUN run; the NP head is its last noun.  Any other
    token before the first noun aborts the scan.
    """
    tags, lemmas = sentence.tags, sentence.lemmas
    pos = verb_position + 1
    while pos < len(tags) and tags[pos] != "NOUN":
        if pos - verb_position > MAX_GAP \
                or not _gap_token(tags[pos], lemmas[pos]):
            return None
        pos += 1
    if pos >= len(tags):
        return None
    start = pos
    while pos < len(tags) and tags[pos] == "NOUN":
        pos += 1
    return (start, pos), lemmas[pos - 1]


def _governed_pairs(sentence: Sentence):
    """(verb_position, np_span, head) for every verb-object pair: the
    direct-object rule, stated once.

    A verb immediately preceded by punctuation is skipped: that is the
    inversion pattern ("...?' began the top man") where the noun phrase is
    the subject, not an object.
    """
    tags = sentence.tags
    for pos, tag in enumerate(tags):
        if tag != "VERB":
            continue
        if pos > 0 and tags[pos - 1] == "PUNCT":
            continue
        found = object_np_after(sentence, pos)
        if found is not None:
            yield pos, *found


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


def index_corpus(corpus) -> VerbObjectIndex:
    """Run ``_governed_pairs`` once per sentence and index the pairs."""
    pairs = []
    by_head = {}
    by_ref = {}
    for sentence in corpus:
        found = tuple(
            VerbObject(sentence.lemmas[pos], pos, head, np_span,
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

    ``corpus`` is an iterable of sentences, read once, or the
    VerbObjectIndex of one.
    """
    verb_lemmas = {spec.lemma for spec in verbs}
    return [pair for pair in _as_index(corpus).pairs
            if pair.verb_lemma in verb_lemmas]


def harvest_candidates(corpus, np_head: str,
                       excluded_verbs=frozenset()) -> list[VerbObject]:
    """Sentences where some non-excluded verb governs an NP headed by
    ``np_head``; one candidate per (verb, NP) occurrence, in document order.

    ``corpus`` is a sequence of sentences or the VerbObjectIndex of one;
    pass the index when harvesting for many heads, so the corpus is
    scanned only once.
    """
    if not np_head:
        raise ValueError("np_head must be non-empty")
    return [pair for pair in _as_index(corpus).by_head.get(np_head, ())
            if pair.verb_lemma not in excluded_verbs]


def load_gold_targets(path, corpus) -> list[VerbObject]:
    """Parse a gold-target file: ``doc_id<TAB>index<TAB>verb<TAB>np_head``
    per line.  Each record must resolve to a (verb, NP) pair in ``corpus``,
    a sequence of sentences or the VerbObjectIndex of one.  Blank lines are
    skipped, and so is a comment: a line that starts with "#" and holds no
    tab, so a record whose document id starts with "#" is read.
    """
    by_ref = _as_index(corpus).by_ref
    targets = []
    for lineno, line in numbered_lines(path):
        if not line.strip() or (line.startswith("#") and "\t" not in line):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CorpusFormatError(
                path, lineno,
                f"expected 4 tab-separated fields, got {len(fields)}")
        doc_id, index_str, verb, np_head = fields
        index = sentence_index(path, lineno, index_str)
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
