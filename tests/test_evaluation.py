import pytest
from hypothesis import given, strategies as st

from metovec.evaluation import (ConfusionMatrix, UndefinedMetricError,
                                confusion, load_fixture, phi_coefficient,
                                pr_curve, precision, recall)
from metovec.ranking import NOT_IN_VOCAB, REJECTED, VIABLE

counts = st.integers(min_value=0, max_value=500)


def test_confusion_matrix_invariants():
    cm = ConfusionMatrix(1, 2, 3, 4)
    assert cm.total == 10
    with pytest.raises(ValueError):
        ConfusionMatrix(-1, 0, 0, 0)
    assert cm + ConfusionMatrix(1, 1, 1, 1) == ConfusionMatrix(2, 3, 4, 5)


def test_confusion_counts():
    labels = [VIABLE, VIABLE, REJECTED, REJECTED]
    gold = [True, False, True, False]
    assert confusion(labels, gold) == ConfusionMatrix(tp=1, tn=1, fp=1, fn=1)


def test_confusion_all_correct():
    cm = confusion([VIABLE, REJECTED], [True, False])
    assert cm.fp == 0 and cm.fn == 0


def test_confusion_unscored_policies():
    labels = [VIABLE, NOT_IN_VOCAB]
    gold = [True, False]
    assert confusion(labels, gold).total == 1
    assert confusion(labels, gold, unscored="true-negative") \
        == ConfusionMatrix(tp=1, tn=1, fp=0, fn=0)
    with pytest.raises(ValueError):
        confusion(labels, gold, unscored="drop")


def test_confusion_missing_gold():
    with pytest.raises(ValueError, match="row 1"):
        confusion([VIABLE, REJECTED], [True, None])


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="3 labels but 1 gold labels"):
        confusion([VIABLE, VIABLE, REJECTED], [True])


def test_precision_recall_headline_counts():
    cm = ConfusionMatrix(52, 94, 15, 18)
    assert precision(cm) == pytest.approx(52 / 67)
    assert recall(cm) == pytest.approx(52 / 70)


def test_perfect_classifier_metrics():
    cm = ConfusionMatrix(10, 10, 0, 0)
    assert precision(cm) == 1.0 and recall(cm) == 1.0
    assert phi_coefficient(cm) == pytest.approx(1.0)


def test_undefined_metrics():
    cm = ConfusionMatrix(0, 5, 0, 3)
    with pytest.raises(UndefinedMetricError):
        precision(cm)
    assert recall(cm) == 0.0
    with pytest.raises(UndefinedMetricError):
        phi_coefficient(ConfusionMatrix(0, 0, 0, 5))
    assert phi_coefficient(ConfusionMatrix(0, 0, 5, 5)) == pytest.approx(-1.0)


def test_phi_headline():
    phi = phi_coefficient(ConfusionMatrix(52, 94, 15, 18))
    assert phi == pytest.approx(0.61, abs=0.005)


def test_phi_inverted_classifier():
    phi = phi_coefficient(ConfusionMatrix(1, 1, 50, 50))
    assert phi == pytest.approx(-2499 / 2601)


@given(counts, counts, counts, counts)
def test_phi_symmetries(tp, tn, fp, fn):
    cm = ConfusionMatrix(tp, tn, fp, fn)
    try:
        phi = phi_coefficient(cm)
    except UndefinedMetricError:
        return
    assert -1 - 1e-12 <= phi <= 1 + 1e-12
    # swapping positives and negatives wholesale preserves phi
    assert phi_coefficient(ConfusionMatrix(tn, tp, fn, fp)) \
        == pytest.approx(phi)
    # negating the classifier negates phi
    assert phi_coefficient(ConfusionMatrix(fp, fn, tp, tn)) \
        == pytest.approx(-phi)


def test_pr_curve_example():
    rows = [(0.9, True), (0.8, True), (0.7, False), (0.6, True)]
    points = pr_curve(rows)
    assert [p.precision for p in points] \
        == pytest.approx([1.0, 1.0, 2 / 3, 3 / 4])
    assert [p.recall for p in points] \
        == pytest.approx([1 / 3, 2 / 3, 2 / 3, 1.0])
    assert [p.rank for p in points] == [1, 2, 3, 4]


def test_pr_curve_all_positive():
    points = pr_curve([(0.9, True), (0.5, True), (0.1, True)])
    assert all(p.precision == 1.0 for p in points)
    assert [p.recall for p in points] == pytest.approx([1 / 3, 2 / 3, 1.0])


def test_pr_curve_invariants():
    rows = [(0.8, False), (0.7, True), (0.5, False), (0.3, True)]
    points = pr_curve(rows)
    recalls = [p.recall for p in points]
    assert recalls == sorted(recalls)
    assert points[-1].recall == 1.0
    assert points[-1].precision == pytest.approx(2 / 4)


def test_pr_curve_no_positives():
    with pytest.raises(UndefinedMetricError):
        pr_curve([(0.5, False)])


def test_fixture_loads():
    fixture = load_fixture()
    assert len(fixture.targets) == 41
    assert len(fixture.rows) == 179
    niv = [r for r in fixture.rows if r.confidence is None]
    assert len(niv) == 5


def test_fixture_known_rows():
    fixture = load_fixture()
    by_candidate = {r.candidate: r for r in fixture.rows}
    concert = by_candidate["See the concert."]
    assert concert.label == VIABLE and concert.gold is True
    packet = by_candidate["Smoke the packet."]
    assert packet.label == REJECTED and packet.gold is True


def test_fixture_per_verb_confusions():
    fixture = load_fixture()
    assert fixture.confusion_for_verb("begin") == ConfusionMatrix(12, 29, 3, 4)
    assert fixture.confusion_for_verb("enjoy") == ConfusionMatrix(31, 39, 9, 5)
    assert fixture.confusion_for_verb("finish") == ConfusionMatrix(9, 27, 2, 9)


def test_fixture_parse_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("Read the book.\t0.5\tViable\t+\n")
    with pytest.raises(ValueError, match="before any"):
        load_fixture(bad)
    bad.write_text("#target\tdoc\t1\tbegin\n")
    with pytest.raises(ValueError, match="header"):
        load_fixture(bad)
    bad.write_text("#target\tdoc\t1\tbegin\tbook\nRead the book.\t0.5\tViable\n")
    with pytest.raises(ValueError, match="4 fields"):
        load_fixture(bad)
    bad.write_text("#target\tdoc\t1\tbegin\tbook\n"
                   "Read the book.\t0.5\tViable\tyes\n")
    with pytest.raises(ValueError, match="gold"):
        load_fixture(bad)
    bad.write_text("#target\tdoc\t1\tbegin\tbook\n"
                   "Read the book.\tNIV\tViable\t+\n")
    with pytest.raises(ValueError, match="mismatch"):
        load_fixture(bad)


def test_fixture_bad_sentence_index(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("#target\tdoc\t0\tbegin\tbook\n"
                   "Read the book.\t0.5\tViable\t+\n"
                   "#target\tdoc\tx\tbegin\tbook\n")
    with pytest.raises(ValueError) as err:
        load_fixture(bad)
    assert str(err.value) == f"{bad}:3: bad sentence index 'x'"


def test_fixture_confusion_totals():
    fixture = load_fixture()
    labels = [r.label for r in fixture.rows]
    gold = [r.gold for r in fixture.rows]
    cm = confusion(labels, gold)
    scored = sum(1 for r in fixture.rows if r.confidence is not None)
    assert cm.total == scored
