"""Confidence scoring and threshold labelling of paraphrase candidates."""

from __future__ import annotations

from dataclasses import dataclass

from .metonymy import CandidateSentence, MetonymyTarget
from .vectorspace import confidence, phrase_vector

DISCARD_THRESHOLD = 0.2
VIABLE_THRESHOLD = 0.5

VIABLE = "Viable"
REJECTED = "Rejected"
DISCARDED = "Discarded"
NOT_IN_VOCAB = "NotInVocabulary"


def label_for(score: float, discard=DISCARD_THRESHOLD,
              viable=VIABLE_THRESHOLD) -> str:
    """Viable strictly above ``viable``, Discarded strictly below
    ``discard``, Rejected on the closed band in between."""
    if score > viable:
        return VIABLE
    if score < discard:
        return DISCARDED
    return REJECTED


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: CandidateSentence
    confidence: float | None  # None marks NotInVocabulary
    label: str

    @property
    def scored(self) -> bool:
        return self.confidence is not None


@dataclass(frozen=True)
class RankingTable:
    target: MetonymyTarget
    rows: tuple[ScoredCandidate, ...]


def _check_head(target: MetonymyTarget, candidate: CandidateSentence):
    if candidate.np_head_lemma != target.np_head_lemma:
        raise ValueError(
            f"candidate NP head {candidate.np_head_lemma!r} does not match "
            f"target NP head {target.np_head_lemma!r}")


def _target_phrase(model, target: MetonymyTarget):
    return phrase_vector(model, [target.verb_lemma, target.np_head_lemma])


def _phrase_confidence(model, target_phrase, candidate: CandidateSentence):
    if candidate.verb_lemma not in model.vocab:
        return None
    candidate_phrase = phrase_vector(
        model, [candidate.verb_lemma, candidate.np_head_lemma])
    if not target_phrase.in_vocabulary or not candidate_phrase.in_vocabulary:
        return None
    return confidence(target_phrase.vector, candidate_phrase.vector)


def score_candidate(model, target: MetonymyTarget,
                    candidate: CandidateSentence):
    """Clamped cosine between the target and candidate joint phrase
    vectors (verb lemma + shared NP head), or None when the candidate
    verb is out of vocabulary."""
    _check_head(target, candidate)
    return _phrase_confidence(model, _target_phrase(model, target), candidate)


def rank(model, target: MetonymyTarget, candidates,
         discard=DISCARD_THRESHOLD, viable=VIABLE_THRESHOLD) -> RankingTable:
    """Score and label all candidates; sort by confidence descending with
    ties broken by verb lemma, NotInVocabulary rows last.

    Every candidate shares the target's NP head, so a row's score depends
    only on its verb: each distinct verb is scored once, with the same
    arithmetic as ``score_candidate``.
    """
    target_phrase = _target_phrase(model, target)
    scores = {}
    rows = []
    for candidate in candidates:
        _check_head(target, candidate)
        verb = candidate.verb_lemma
        if verb not in scores:
            scores[verb] = _phrase_confidence(model, target_phrase, candidate)
        score = scores[verb]
        if score is None:
            rows.append(ScoredCandidate(candidate, None, NOT_IN_VOCAB))
        else:
            rows.append(ScoredCandidate(
                candidate, score, label_for(score, discard, viable)))
    rows.sort(key=lambda row: (
        row.confidence is None,
        -(row.confidence if row.confidence is not None else 0.0),
        row.candidate.verb_lemma,
    ))
    return RankingTable(target=target, rows=tuple(rows))


def write_table(table: RankingTable, handle, gold=None):
    """Serialize one ranking table in the TSV exchange format.

    Header: ``#target<TAB>doc_id<TAB>index<TAB>verb<TAB>np_head``; rows:
    ``verb<TAB>confidence_or_NIV<TAB>label[<TAB>gold]``.  ``gold`` maps a
    row's candidate verb lemma to "+" or "-" when gold labels are known.
    """
    doc_id, index = table.target.sentence_ref
    handle.write("\t".join([
        "#target", doc_id, str(index),
        table.target.verb_lemma, table.target.np_head_lemma]) + "\n")
    for row in table.rows:
        score = "NIV" if row.confidence is None else f"{row.confidence:.5f}"
        fields = [row.candidate.verb_lemma, score, row.label]
        if gold is not None and row.candidate.verb_lemma in gold:
            fields.append(gold[row.candidate.verb_lemma])
        handle.write("\t".join(fields) + "\n")
