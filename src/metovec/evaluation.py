"""Binary-classifier evaluation: confusion counts, precision/recall,
P-R curve points, phi coefficient, and replay of the shipped result tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .ranking import NOT_IN_VOCAB, VIABLE

FIXTURE_RESOURCE = "reference_rankings.tsv"


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


def _paired(first, second, first_name, second_name):
    """zip of two parallel sequences that must have the same length."""
    first, second = list(first), list(second)
    if len(first) != len(second):
        raise ValueError(f"{len(first)} {first_name} but "
                         f"{len(second)} {second_name}")
    return zip(first, second, strict=True)


def confusion(labels, gold, unscored="exclude") -> ConfusionMatrix:
    """Tally predictions (positive iff label == Viable) against gold.

    ``unscored`` controls NotInVocabulary rows: "exclude" leaves them out
    of the counts (they were never scored); "true-negative" adds them to
    tn, which is how the source experiment's per-verb summaries were
    tallied.
    """
    if unscored not in ("exclude", "true-negative"):
        raise ValueError(f"unknown unscored policy {unscored!r}")
    tp = tn = fp = fn = 0
    for idx, (label, is_positive) in enumerate(
            _paired(labels, gold, "labels", "gold labels")):
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

    def rows_for_verb(self, verb: str):
        return [row for row in self.rows if row.target.verb == verb]

    def confusion_for_verb(self, verb, unscored="true-negative"):
        rows = self.rows_for_verb(verb)
        return confusion([r.label for r in rows], [r.gold for r in rows],
                         unscored=unscored)


def load_fixture(path=None) -> Fixture:
    """Parse a ranking-table file with gold labels.

    ``path=None`` loads the packaged transcription of the source
    experiment's full result tables (41 targets, 179 rows).  Each table is
    a ``#target<TAB>doc<TAB>index<TAB>verb<TAB>np_head`` header followed by
    ``candidate<TAB>confidence_or_NIV<TAB>label<TAB>gold`` rows where gold
    is "+" or "-".
    """
    if path is None:
        text = (resources.files("metovec.data") / FIXTURE_RESOURCE) \
            .read_text(encoding="utf-8")
        name = FIXTURE_RESOURCE
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        name = str(path)
    targets = []
    rows = []
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("# "):
            continue
        fields = line.split("\t")
        if fields[0] == "#target":
            if len(fields) != 5:
                raise ValueError(f"{name}:{lineno}: bad target header")
            try:
                index = int(fields[2])
            except ValueError:
                raise ValueError(f"{name}:{lineno}: bad sentence index "
                                 f"{fields[2]!r}") from None
            current = FixtureTarget(fields[1], index, fields[3], fields[4])
            targets.append(current)
            continue
        if current is None:
            raise ValueError(f"{name}:{lineno}: row before any #target header")
        if len(fields) != 4:
            raise ValueError(
                f"{name}:{lineno}: expected 4 fields, got {len(fields)}")
        candidate, score_str, label, gold_str = fields
        if gold_str not in ("+", "-"):
            raise ValueError(f"{name}:{lineno}: bad gold label {gold_str!r}")
        score = None if score_str == "NIV" else float(score_str)
        if (score is None) != (label == NOT_IN_VOCAB):
            raise ValueError(f"{name}:{lineno}: confidence/label mismatch")
        rows.append(FixtureRow(current, candidate, score, label,
                               gold_str == "+"))
    return Fixture(tuple(targets), tuple(rows))
