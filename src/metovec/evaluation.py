"""Binary-classifier evaluation: confusion counts, precision/recall,
P-R curve points, phi coefficient, and replay of the shipped result tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .corpus import CorpusFormatError, numbered_lines, sentence_index
from .ranking import DISCARDED, NOT_IN_VOCAB, REJECTED, VIABLE

FIXTURE_RESOURCE = "reference_rankings.tsv"
_LABELS = frozenset({VIABLE, REJECTED, DISCARDED, NOT_IN_VOCAB})


class UndefinedMetricError(ArithmeticError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other):
        return ConfusionMatrix(self.tp + other.tp, self.tn + other.tn,
                               self.fp + other.fp, self.fn + other.fn)


@dataclass(frozen=True)
class PRPoint:
    rank: int
    precision: float
    recall: float


def confusion(labels, gold, unscored="exclude") -> ConfusionMatrix:
    """Tally predictions (positive iff label == Viable) against gold.

    ``unscored`` controls NotInVocabulary rows: "exclude" leaves them out
    of the counts (they were never scored); "true-negative" adds them to
    tn, which is how the source experiment's per-verb summaries were
    tallied.
    """
    if unscored not in ("exclude", "true-negative"):
        raise ValueError(f"unknown unscored policy {unscored!r}")
    labels, gold = list(labels), list(gold)
    if len(labels) != len(gold):
        raise ValueError(f"{len(labels)} labels but {len(gold)} gold labels")
    tp = tn = fp = fn = 0
    for idx, (label, is_positive) in enumerate(zip(labels, gold)):
        if label == NOT_IN_VOCAB:
            if unscored == "true-negative":
                tn += 1
            continue
        if is_positive is None:
            raise ValueError(f"row {idx}: missing gold label")
        predicted = label == VIABLE
        if predicted and is_positive:
            tp += 1
        elif predicted and not is_positive:
            fp += 1
        elif not predicted and is_positive:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def precision(cm: ConfusionMatrix) -> float:
    retrieved = cm.tp + cm.fp
    if retrieved == 0:
        raise UndefinedMetricError("precision undefined: nothing retrieved")
    return cm.tp / retrieved


def recall(cm: ConfusionMatrix) -> float:
    relevant = cm.tp + cm.fn
    if relevant == 0:
        raise UndefinedMetricError("recall undefined: no relevant items")
    return cm.tp / relevant


def phi_coefficient(cm: ConfusionMatrix) -> float:
    """(tp*tn - fp*fn) / sqrt((tp+fp)(tp+fn)(tn+fp)(tn+fn))."""
    marginals = [cm.tp + cm.fp, cm.tp + cm.fn, cm.tn + cm.fp, cm.tn + cm.fn]
    if any(m == 0 for m in marginals):
        raise UndefinedMetricError("phi undefined: zero marginal sum")
    return (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(math.prod(marginals))


def phi_chi_square(phi: float, n: int) -> tuple[float, float]:
    """The chi-square test of a 2x2 table with coefficient ``phi`` over
    ``n`` items: chi2 = n * phi**2 on one degree of freedom, and its
    p-value, the chance of a chi2 at least this large from a classifier
    no better than chance, erfc(sqrt(chi2 / 2))."""
    chi2 = n * phi * phi
    return chi2, math.erfc(math.sqrt(chi2 / 2))


def pr_curve(scored_rows) -> list[PRPoint]:
    """One (precision, recall) point per retrieved row.

    ``scored_rows`` is a sequence of (confidence, is_positive) pairs; rows
    are pooled across targets and ranked by confidence descending.  Point k
    treats the top-k rows as retrieved positives; the recall denominator is
    the number of gold-positive rows overall.
    """
    ranked = sorted(scored_rows, key=lambda pair: -pair[0])
    total_positive = sum(1 for _, pos in ranked if pos)
    if total_positive == 0:
        raise UndefinedMetricError("recall undefined: no gold-positive rows")
    points = []
    tp = 0
    for rank, (_, is_positive) in enumerate(ranked, start=1):
        if is_positive:
            tp += 1
        points.append(PRPoint(rank, tp / rank, tp / total_positive))
    return points


@dataclass(frozen=True)
class FixtureTarget:
    doc_id: str
    sentence_index: int
    verb: str
    np_head: str


@dataclass(frozen=True)
class FixtureRow:
    target: FixtureTarget
    candidate: str
    confidence: float | None
    label: str
    gold: bool


@dataclass(frozen=True)
class Fixture:
    targets: tuple[FixtureTarget, ...]
    rows: tuple[FixtureRow, ...]

    def confusion_for_verb(self, verb):
        """The confusion matrix of ``verb``'s rows, tallied as the source
        experiment's per-verb summaries were: unscored rows as true
        negatives."""
        rows = [row for row in self.rows if row.target.verb == verb]
        return confusion([r.label for r in rows], [r.gold for r in rows],
                         unscored="true-negative")


def load_fixture(path=None) -> Fixture:
    """Parse a ranking-table file with gold labels.

    ``path=None`` loads the packaged transcription of the source
    experiment's full result tables (41 targets, 179 rows).  Each table is
    a ``#target<TAB>doc<TAB>index<TAB>verb<TAB>np_head`` header followed by
    ``candidate<TAB>confidence_or_NIV<TAB>label<TAB>gold`` rows where gold
    is "+" or "-".  A header is a line of 5 fields whose first is
    ``#target``; any other line is a row, so a row whose candidate is
    ``#target`` is read.  Blank lines are skipped, and so is a comment: a
    line that starts with "#" and holds no tab, so a row whose candidate
    starts with "#" is read.
    """
    if path is None:
        path = resources.files("metovec.data") / FIXTURE_RESOURCE
    targets = []
    rows = []
    current = None
    for lineno, line in numbered_lines(path):
        if not line.strip() or (line.startswith("#") and "\t" not in line):
            continue
        fields = line.split("\t")
        if fields[0] == "#target" and len(fields) == 5:
            index = sentence_index(path, lineno, fields[2])
            current = FixtureTarget(fields[1], index, fields[3], fields[4])
            targets.append(current)
            continue
        if current is None:
            raise CorpusFormatError(path, lineno,
                                    "row before any #target header")
        if len(fields) != 4:
            why = ": the gold column is missing" if len(fields) == 3 else ""
            raise CorpusFormatError(
                path, lineno, f"expected 4 fields, got {len(fields)}{why}")
        candidate, score_str, label, gold_str = fields
        if gold_str not in ("+", "-"):
            raise CorpusFormatError(path, lineno,
                                    f"bad gold label {gold_str!r}")
        if label not in _LABELS:
            raise CorpusFormatError(path, lineno, f"unknown label {label!r}")
        if score_str == "NIV":
            score = None
        else:
            try:
                score = float(score_str)
            except ValueError:
                raise CorpusFormatError(
                    path, lineno, f"bad confidence {score_str!r}") from None
            if not math.isfinite(score):
                raise CorpusFormatError(
                    path, lineno, f"non-finite confidence {score_str!r}")
        if (score is None) != (label == NOT_IN_VOCAB):
            raise CorpusFormatError(path, lineno, "confidence/label mismatch")
        rows.append(FixtureRow(current, candidate, score, label,
                               gold_str == "+"))
    return Fixture(tuple(targets), tuple(rows))
