"""Confidence scoring and threshold labelling of paraphrase candidates,
and the TSV format of their ranking tables."""

from __future__ import annotations

from dataclasses import dataclass

from .metonymy import VerbObject
from .vectorspace import confidence_scores, phrase_vector

DISCARD_THRESHOLD = 0.2
VIABLE_THRESHOLD = 0.5

VIABLE = "Viable"
REJECTED = "Rejected"
DISCARDED = "Discarded"
NOT_IN_VOCAB = "NotInVocabulary"


def label_for(score: float) -> str:
    """Viable strictly above ``VIABLE_THRESHOLD``, Discarded strictly below
    ``DISCARD_THRESHOLD``, Rejected on the closed band in between."""
    if score > VIABLE_THRESHOLD:
        return VIABLE
    if score < DISCARD_THRESHOLD:
        return DISCARDED
    return REJECTED


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: VerbObject
    confidence: float | None  # None marks NotInVocabulary
    label: str


@dataclass(frozen=True)
class RankingTable:
    target: VerbObject
    rows: tuple[ScoredCandidate, ...]


def _check_head(target: VerbObject, candidate: VerbObject):
    if candidate.np_head_lemma != target.np_head_lemma:
        raise ValueError(
            f"candidate NP head {candidate.np_head_lemma!r} does not match "
            f"target NP head {target.np_head_lemma!r}")


def rank(model, target: VerbObject, candidates) -> RankingTable:
    """Score and label all candidates; sort by confidence descending with
    ties broken by verb lemma, NotInVocabulary rows last.

    Every candidate shares the target's NP head, so a row's score depends
    only on its verb: the table's distinct in-vocab verbs are scored as
    one block of phrase vectors against the target phrase.  The rows thus
    depend only on the target's verb and head and on the candidates, not
    on the target's sentence, which only ``table_header`` names.
    """
    candidates = list(candidates)
    for candidate in candidates:
        _check_head(target, candidate)
    scores = dict.fromkeys(candidate.verb_lemma for candidate in candidates)
    known = [verb for verb in scores if verb in model.vocab]
    phrase = phrase_vector(model, [target.verb_lemma, target.np_head_lemma])
    if known and phrase.in_vocabulary:
        block = model.input_vectors[[model.vocab.index[v] for v in known]]
        if target.np_head_lemma in model.vocab:
            # (verb + head) / 2 is phrase_vector's mean of the two rows
            block += model.vector(target.np_head_lemma)
            block /= 2
        scores.update(zip(known,
                          confidence_scores(block, phrase.vector).tolist()))
    rows = []
    for candidate in candidates:
        score = scores[candidate.verb_lemma]
        label = NOT_IN_VOCAB if score is None else label_for(score)
        rows.append(ScoredCandidate(candidate, score, label))
    rows.sort(key=lambda row: (
        row.confidence is None,
        -(row.confidence if row.confidence is not None else 0.0),
        row.candidate.verb_lemma,
    ))
    return RankingTable(target=target, rows=tuple(rows))


def table_header(target: VerbObject) -> str:
    """The first line of ``target``'s table:
    ``#target<TAB>doc_id<TAB>index<TAB>verb<TAB>np_head``."""
    doc_id, index = target.sentence_ref
    return "\t".join(["#target", doc_id, str(index), target.verb_lemma,
                      target.np_head_lemma]) + "\n"


def _row_line(row: ScoredCandidate) -> str:
    score = "NIV" if row.confidence is None else f"{row.confidence:.5f}"
    return f"{row.candidate.verb_lemma}\t{score}\t{row.label}\n"


def format_rows(rows) -> str:
    """The lines of a table's ``rows``, each
    ``verb<TAB>confidence_or_NIV<TAB>label``.  They name no sentence, so
    targets with the same verb, head and candidates share this text."""
    return "".join(map(_row_line, rows))


def write_table(table: RankingTable, handle):
    """Serialize one ranking table in the TSV exchange format: its
    ``table_header`` and then its ``format_rows``."""
    handle.write(table_header(table.target) + format_rows(table.rows))
