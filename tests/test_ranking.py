import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metovec.metonymy import CandidateSentence
from metovec.ranking import (DISCARDED, DISCARD_THRESHOLD, NOT_IN_VOCAB,
                             REJECTED, VIABLE, VIABLE_THRESHOLD,
                             format_rows, label_for, rank, table_header,
                             write_table)
from metovec.vectorspace import confidence_scores, phrase_vector

from conftest import make_model


def target(verb="begin", head="chapter"):
    return CandidateSentence(verb, 0, head, (2, 3), ("d", 0))


def candidate(verb, head="chapter"):
    return CandidateSentence(verb, 0, head, (2, 3), ("d", 1), validated=True)


def angle_model(cos_value):
    """Verb vectors at a chosen angle plus a zero shared-head vector, so the
    joint-phrase cosine equals ``cos_value`` exactly."""
    theta = math.acos(cos_value)
    return make_model({
        "begin": [1.0, 0.0],
        "read": [math.cos(theta), math.sin(theta)],
        "chapter": [0.0, 0.0],
    })


def test_thresholds():
    assert DISCARD_THRESHOLD == 0.2 and VIABLE_THRESHOLD == 0.5


def test_label_boundaries():
    assert label_for(0.51) == VIABLE
    assert label_for(0.5) == REJECTED
    assert label_for(0.2) == REJECTED
    assert label_for(0.19) == DISCARDED


def test_label_partition_property():
    rng = random.Random(13)
    scores = [rng.random() for _ in range(1000)] + [0.2, 0.5, 0.0, 1.0]
    for score in scores:
        label = label_for(score)
        if score > 0.5:
            assert label == VIABLE
        elif score < 0.2:
            assert label == DISCARDED
        else:
            assert label == REJECTED


def test_identical_verb_scores_one():
    model = angle_model(0.75)
    assert rank(model, target(), [candidate("begin")]).rows[0].confidence \
        == pytest.approx(1.0)


def test_hand_built_viable_score():
    model = angle_model(0.75)
    row = rank(model, target(), [candidate("read")]).rows[0]
    assert row.confidence == pytest.approx(0.75)
    assert row.label == label_for(row.confidence) == VIABLE


def test_oov_candidate_verb():
    model = angle_model(0.75)
    row = rank(model, target(), [candidate("peruse")]).rows[0]
    assert row.confidence is None and row.label == NOT_IN_VOCAB


def test_head_mismatch_errors():
    model = angle_model(0.75)
    with pytest.raises(ValueError):
        rank(model, target(), [candidate("read", head="book")])


def test_rank_orders_and_labels():
    model = make_model({
        "begin": [1.0, 0.0],
        "read": [1.0, 0.2],
        "skim": [0.1, 1.0],
        "burn": [-1.0, 0.1],
        "chapter": [0.0, 0.0],
    })
    table = rank(model, target(),
                 [candidate(v) for v in ("burn", "skim", "read", "peruse")])
    labels = [(r.candidate.verb_lemma, r.label) for r in table.rows]
    assert labels[-1] == ("peruse", NOT_IN_VOCAB)
    scored = [r for r in table.rows if r.confidence is not None]
    confidences = [r.confidence for r in scored]
    assert confidences == sorted(confidences, reverse=True)
    assert scored[0].candidate.verb_lemma == "read"
    assert scored[0].label == VIABLE
    assert table.rows[-1].confidence is None


def test_rank_matches_per_row_scores():
    rng = np.random.default_rng(7)
    words = {f"v{i}": list(rng.normal(size=4)) for i in range(5)}
    words["chapter"] = list(rng.normal(size=4))
    model = make_model(words)
    verbs = ["v1", "v2", "v1", "oov", "v3", "v2", "oov", "v0", "v4", "v1"]
    table = rank(model, target("v0"), [candidate(v) for v in verbs])
    assert sorted(r.candidate.verb_lemma for r in table.rows) == sorted(verbs)
    for row in table.rows:
        assert row.confidence \
            == rank(model, target("v0"), [row.candidate]).rows[0].confidence


def test_rank_head_mismatch_errors():
    model = angle_model(0.75)
    with pytest.raises(ValueError):
        rank(model, target(),
             [candidate("read"), candidate("read", head="book")])


def test_rank_injected_target_verb_first():
    model = angle_model(0.75)
    table = rank(model, target(), [candidate("read"), candidate("begin")])
    assert table.rows[0].candidate.verb_lemma == "begin"
    assert table.rows[0].confidence == pytest.approx(1.0)


def test_rank_empty():
    table = rank(angle_model(0.5), target(), [])
    assert table.rows == ()


def test_viable_set_examples():
    # the all-viable and no-viable confidence sets from the experiment
    assert all(label_for(s) == VIABLE
               for s in (0.68158, 0.58792, 0.55673))
    assert all(label_for(s) != VIABLE
               for s in (0.44237, 0.40580, 0.35518, 0.36162))


def test_write_table_format():
    model = angle_model(0.75)
    table = rank(model, target(),
                 [candidate("read"), candidate("peruse")])
    out = io.StringIO()
    write_table(table, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "#target\td\t0\tbegin\tchapter"
    assert lines[1] == "read\t0.75000\tViable"
    assert lines[2] == "peruse\tNIV\tNotInVocabulary"


def test_write_table_is_header_and_rows():
    """A table is its target's header and its rows' lines; the lines do
    not depend on the target's sentence."""
    model = angle_model(0.3)
    rows = [candidate(v) for v in ("read", "peruse", "begin", "read")]
    table = rank(model, target(), rows)
    out = io.StringIO()
    write_table(table, out)
    assert out.getvalue() == table_header(table.target) \
        + format_rows(table.rows)
    assert table_header(target()) == "#target\td\t0\tbegin\tchapter\n"
    elsewhere = CandidateSentence("begin", 4, "chapter", (5, 6), ("e", 7))
    assert format_rows(rank(model, elsewhere, rows).rows) \
        == format_rows(table.rows)
    assert format_rows(()) == ""


def test_write_table_deterministic():
    model = angle_model(0.3)
    rows = [candidate(v) for v in ("read", "begin")]
    first, second = io.StringIO(), io.StringIO()
    write_table(rank(model, target(), rows), first)
    write_table(rank(model, target(), rows), second)
    assert first.getvalue() == second.getvalue()


def test_confidence_never_exceeds_one():
    rng = np.random.default_rng(4)
    words = {f"v{i}": list(rng.normal(size=3)) for i in range(6)}
    words["chapter"] = list(rng.normal(size=3))
    model = make_model(words)
    table = rank(model, target("v0"),
                 [candidate(f"v{i}") for i in range(1, 6)])
    assert all(r.confidence <= 1.0 for r in table.rows
               if r.confidence is not None)
    # candidate verbs parallel to the target verb, with a zero head vector:
    # every phrase pair is parallel, and cosines round up past 1 often
    direction = rng.normal(size=3)
    words = {f"v{i}": list((i + 1) * direction) for i in range(40)}
    words["chapter"] = [0.0, 0.0, 0.0]
    table = rank(make_model(words), target("v0"),
                 [candidate(f"v{i}") for i in range(1, 40)])
    assert all(r.confidence <= 1.0 for r in table.rows)


VERBS = ("v0", "v1", "v2", "v3", "v4")


@given(st.sets(st.sampled_from(("begin", "chapter", *VERBS))),
       st.lists(st.sampled_from(("begin", *VERBS)), max_size=12),
       st.lists(st.sampled_from([0, 900, -900]), min_size=7, max_size=7),
       st.integers(0, 2**32 - 1))
def test_rank_matches_per_row_scores_over_vocabularies(
        present, verbs, exponents, seed):
    """Any of the target verb, the head and the candidate verbs may be
    out of vocabulary; vectors scaled by 2**+-900 take the rescale path.
    Each row equals its candidate ranked alone and the joint-phrase
    definition, the clamped cosine of the two phrase vectors: NIV
    for an out-of-vocab candidate verb or an all-out target phrase, and
    the verb alone when the head is out."""
    rng = np.random.default_rng(seed)
    words = {w: np.ldexp(rng.normal(size=3), e)
             for w, e in zip(("begin", "chapter", *VERBS), exponents)
             if w in present}
    model = make_model({"filler": [1.0, 0.0, 0.0], **words})
    table = rank(model, target(), [candidate(v) for v in verbs])
    assert sorted(r.candidate.verb_lemma for r in table.rows) \
        == sorted(verbs)
    target_phrase = phrase_vector(model, ["begin", "chapter"])
    for row in table.rows:
        verb = row.candidate.verb_lemma
        assert row.confidence \
            == rank(model, target(), [row.candidate]).rows[0].confidence
        if verb not in model.vocab or not target_phrase.in_vocabulary:
            assert row.confidence is None and row.label == NOT_IN_VOCAB
        else:
            phrase = phrase_vector(model, [verb, "chapter"])
            assert row.confidence == confidence_scores(
                [phrase.vector], target_phrase.vector)[0]


@pytest.mark.parametrize("vectors", [
    {"begin": [0.0, 0.0], "read": [1.0, 0.0], "chapter": [0.0, 0.0]},
    {"begin": [1.0, 0.0], "read": [-1.0, -1.0], "chapter": [1.0, 1.0]}],
    ids=["target-phrase", "candidate-phrase"])
def test_zero_norm_phrase_raises(vectors):
    """A phrase vector of norm 0 has no cosine: an error, never a NaN row
    in a table."""
    model = make_model(vectors)
    with pytest.raises(ValueError, match="zero-norm"):
        rank(model, target(), [candidate("read")])
    with pytest.raises(ValueError, match="zero-norm"):
        rank(model, target(), [candidate("peruse"), candidate("read")])
