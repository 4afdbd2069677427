import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metovec.evaluation import (ConfusionMatrix, FixtureRow, FixtureTarget,
                                UndefinedMetricError, confusion, load_fixture,
                                phi_chi_square, phi_coefficient, pr_curve,
                                precision, recall)
from metovec.metonymy import VerbObject
from metovec.ranking import (DISCARDED, NOT_IN_VOCAB, REJECTED, VIABLE,
                             RankingTable, ScoredCandidate, write_table)

from conftest import BAD_SENTENCE_INDICES

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


def test_phi_chi_square_paper_figures():
    """The paper's phi of 0.61 over its 179 rows is far better than
    chance: chi2 = 179 * 0.61**2 on one degree of freedom."""
    chi2, p = phi_chi_square(0.61, 179)
    assert chi2 == pytest.approx(66.6, abs=0.01)
    assert 3e-16 < p < 3.5e-16
    assert phi_chi_square(0.0, 179) == (0.0, 1.0)


@settings(deadline=None)  # the first example imports scipy
@given(st.floats(-1, 1), st.integers(1, 10_000))
def test_phi_chi_square_is_the_chi2_tail(phi, n):
    stats = pytest.importorskip("scipy.stats")
    chi2, p = phi_chi_square(phi, n)
    assert chi2 == pytest.approx(n * phi ** 2)
    assert p == pytest.approx(stats.chi2.sf(chi2, 1), rel=1e-9, abs=1e-300)
    # the sign of phi does not change the test
    assert phi_chi_square(-phi, n) == (chi2, p)


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
    with pytest.raises(ValueError, match="row before any #target header"):
        load_fixture(bad)
    # a header is the 5-field "#target" line, so after a header a 4-field
    # one is a row, here with "begin" in its gold column
    bad.write_text("#target\tdoc\t1\tbegin\tbook\n"
                   "#target\tdoc\t1\tbegin\n")
    with pytest.raises(ValueError) as err:
        load_fixture(bad)
    assert str(err.value) == f"{bad}:2: bad gold label 'begin'"
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


@pytest.mark.parametrize("field", BAD_SENTENCE_INDICES.values(),
                         ids=list(BAD_SENTENCE_INDICES))
def test_fixture_bad_sentence_index(tmp_path, field):
    bad = tmp_path / "bad.tsv"
    bad.write_text("#target\tdoc\t0\tbegin\tbook\n"
                   "Read the book.\t0.5\tViable\t+\n"
                   f"#target\tdoc\t{field}\tbegin\tbook\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_fixture(bad)
    assert str(err.value) == f"{bad}:3: bad sentence index {field!r}"
    assert (err.value.path, err.value.lineno) == (str(bad), 3)


def test_fixture_confusion_totals():
    fixture = load_fixture()
    labels = [r.label for r in fixture.rows]
    gold = [r.gold for r in fixture.rows]
    cm = confusion(labels, gold)
    scored = sum(1 for r in fixture.rows if r.confidence is not None)
    assert cm.total == scored


def table_with_row(path, row):
    path.write_text("#target\tdoc\t0\tbegin\tbook\n"
                    "Read the book.\t0.5\tViable\t+\n" + row + "\n")
    return path


def test_fixture_bad_confidence(tmp_path):
    bad = table_with_row(tmp_path / "bad.tsv", "See the book.\tabc\tViable\t+")
    with pytest.raises(ValueError) as err:
        load_fixture(bad)
    assert str(err.value) == f"{bad}:3: bad confidence 'abc'"


@pytest.mark.parametrize("score", ["nan", "inf", "-Infinity"])
def test_fixture_non_finite_confidence(tmp_path, score):
    bad = table_with_row(tmp_path / "bad.tsv",
                      f"See the book.\t{score}\tViable\t+")
    with pytest.raises(ValueError) as err:
        load_fixture(bad)
    assert str(err.value) == f"{bad}:3: non-finite confidence {score!r}"


def test_fixture_unknown_label(tmp_path):
    bad = table_with_row(tmp_path / "bad.tsv", "See the book.\t0.9\tViabel\t-")
    with pytest.raises(ValueError) as err:
        load_fixture(bad)
    assert str(err.value) == f"{bad}:3: unknown label 'Viabel'"


def write_tables(path, tables, gold):
    """The tables as ``write_table`` writes them, each row followed by its
    gold column: ``gold`` holds one verb -> "+"/"-" map per table."""
    with open(path, "w", encoding="utf-8") as out:
        for table, table_gold in zip(tables, gold, strict=True):
            text = io.StringIO()
            write_table(table, text)
            # split at LF alone: a field may hold other line breaks
            header, *rows = text.getvalue().removesuffix("\n").split("\n")
            out.write(header + "\n")
            for line, row in zip(rows, table.rows, strict=True):
                out.write(f"{line}\t{table_gold[row.candidate.verb_lemma]}\n")


def test_fixture_reads_a_candidate_that_starts_with_hash(tmp_path):
    """A comment is a line that starts with "#" and holds no tab, so the
    row of a candidate verb such as "# read" (a vertical lemma may be one)
    is read, not skipped."""
    target = VerbObject("begin", 1, "book", (2, 3), ("d", 0))
    row = ScoredCandidate(VerbObject("# read", 1, "book", (2, 3), ("d", 1)),
                          0.9, VIABLE)
    path = tmp_path / "t.tsv"
    write_tables(path, [RankingTable(target, (row,))], [{"# read": "+"}])
    path.write_text("# a comment\n#another\n" + path.read_text())
    fixture = load_fixture(path)
    assert fixture.targets == (FixtureTarget("d", 0, "begin", "book"),)
    assert fixture.rows == (
        FixtureRow(fixture.targets[0], "# read", 0.9, VIABLE, True),)


def test_fixture_reads_a_target_candidate(tmp_path):
    """A header is the 5-field "#target" line, so the row of a candidate
    verb "#target" (a vertical lemma may be one) reads back as a row."""
    target = VerbObject("begin", 1, "book", (2, 3), ("d", 0))
    row = ScoredCandidate(VerbObject("#target", 1, "book", (2, 3), ("d", 1)),
                          0.9, VIABLE)
    path = tmp_path / "t.tsv"
    write_tables(path, [RankingTable(target, (row,))], [{"#target": "+"}])
    fixture = load_fixture(path)
    assert fixture.targets == (FixtureTarget("d", 0, "begin", "book"),)
    assert fixture.rows == (
        FixtureRow(fixture.targets[0], "#target", 0.9, VIABLE, True),)


# one tab-separated field: any UTF-8 text without a tab or a line end
field_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    max_size=8)
scored = st.one_of(
    st.tuples(st.none(), st.just(NOT_IN_VOCAB)),
    st.tuples(st.floats(0, 1), st.sampled_from([VIABLE, REJECTED,
                                                DISCARDED])))
ranked_target = st.tuples(
    field_text, st.integers(0, 10 ** 6), field_text, field_text,
    st.lists(st.tuples(field_text, scored, st.booleans()), max_size=4))


@given(st.lists(ranked_target, max_size=3))
def test_write_table_load_fixture_round_trip(specs):
    """Tables written with a gold column read back as the same targets,
    rows, labels, gold and confidences, the last to 5 decimals."""
    tables, gold, expected = [], [], []
    for doc_id, index, verb, head, rows in specs:
        target = VerbObject(verb, 0, head, (1, 2), (doc_id, index))
        table_gold = {candidate: "+" if positive else "-"
                      for candidate, _, positive in rows}
        tables.append(RankingTable(target, tuple(
            ScoredCandidate(VerbObject(candidate, 0, head, (1, 2),
                                       (doc_id, index)), score, label)
            for candidate, (score, label), _ in rows)))
        gold.append(table_gold)
        fixture_target = FixtureTarget(doc_id, index, verb, head)
        expected.append((fixture_target, [
            FixtureRow(fixture_target, candidate,
                       None if score is None else round(score, 5), label,
                       table_gold[candidate] == "+")
            for candidate, (score, label), _ in rows]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tables.tsv"
        write_tables(path, tables, gold)
        fixture = load_fixture(path)
    assert fixture.targets == tuple(target for target, _ in expected)
    assert fixture.rows == tuple(row for _, rows in expected for row in rows)
