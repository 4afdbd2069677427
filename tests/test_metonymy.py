import pytest

from metovec.corpus import (Corpus, CorpusFormatError, Sentence, Token,
                            load_corpus)
from metovec.metonymy import (DEFAULT_VERBS, GAP_TAGS, CandidateSentence,
                              MetonymyTarget, VerbObject, find_targets,
                              harvest_candidates, index_corpus,
                              load_gold_targets, object_np_after,
                              validate_direct_object, _governed_pairs)

from conftest import write_vertical


def sent(*triples, doc_id="d", index=0):
    return Sentence(tuple(Token(s, l, p) for s, l, p in triples),
                    doc_id, index)


BEGIN_CHAPTER = [
    ("I", "i", "PRON"), ("think", "think", "VERB"), ("you", "you", "PRON"),
    ("should", "should", "VERB"), ("begin", "begin", "VERB"),
    ("the", "the", "DET"), ("next", "next", "ADJ"),
    ("chapter", "chapter", "NOUN"), ("now", "now", "ADV"),
]

ENJOY_JOB = [
    ("He", "he", "PRON"), ("seems", "seem", "VERB"), ("to", "to", "PREP"),
    ("enjoy", "enjoy", "VERB"), ("the", "the", "DET"),
    ("job", "job", "NOUN"), (",", ",", "PUNCT"),
    ("does", "do", "VERB"), ("n't", "not", "ADV"), ("he", "he", "PRON"),
    ("?", "?", "PUNCT"),
]

INVERSION = [
    ("'", "'", "PUNCT"), ("How", "how", "ADV"), ("about", "about", "PREP"),
    ("you", "you", "PRON"), ("?", "?", "PUNCT"), ("'", "'", "PUNCT"),
    ("began", "begin", "VERB"), ("the", "the", "DET"),
    ("top", "top", "NOUN"), ("man", "man", "NOUN"),
]


def test_find_target_begin_chapter(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [BEGIN_CHAPTER])
    targets = find_targets(load_corpus(path, "vertical"))
    assert len(targets) == 1
    t = targets[0]
    assert t.verb_lemma == "begin" and t.np_head_lemma == "chapter"
    assert t.np_span == (7, 8) and t.verb_position == 4


def test_find_target_enjoy_job(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [ENJOY_JOB])
    targets = find_targets(load_corpus(path, "vertical"))
    assert [(t.verb_lemma, t.np_head_lemma) for t in targets] \
        == [("enjoy", "job")]


def test_inversion_excluded(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [INVERSION])
    assert find_targets(load_corpus(path, "vertical")) == []


def test_object_np_head_is_last_noun():
    s = sent(("finish", "finish", "VERB"), ("the", "the", "DET"),
             ("last", "last", "ADJ"), ("packet", "packet", "NOUN"),
             ("of", "of", "PREP"), ("cigarettes", "cigarette", "NOUN"))
    span, head = object_np_after(s, 0)
    # the PREP blocks extension past "packet"
    assert span == (3, 4) and head == "packet"


def test_object_np_noun_run():
    s = sent(("began", "begin", "VERB"), ("the", "the", "DET"),
             ("top", "top", "NOUN"), ("man", "man", "NOUN"))
    span, head = object_np_after(s, 0)
    assert span == (2, 4) and head == "man"


def test_object_np_gap_too_long():
    s = sent(("begin", "begin", "VERB"), ("the", "the", "DET"),
             ("very", "very", "ADV"), ("very", "very", "ADV"),
             ("long", "long", "ADJ"), ("chapter", "chapter", "NOUN"))
    assert object_np_after(s, 0) is None


def test_validate_two_token_gap():
    s = sent(("finish", "finish", "VERB"), ("the", "the", "DET"),
             ("last", "last", "ADJ"), ("packet", "packet", "NOUN"))
    assert validate_direct_object(s, 0, (3, 4))


def test_validate_punct_blocks():
    s = sent(("began", "begin", "VERB"), (",", ",", "PUNCT"),
             ("the", "the", "DET"), ("man", "man", "NOUN"))
    assert not validate_direct_object(s, 0, (3, 4))


def test_validate_particle_allowed():
    s = sent(("take", "take", "VERB"), ("in", "in", "PREP"),
             ("the", "the", "DET"), ("scene", "scene", "NOUN"))
    assert validate_direct_object(s, 0, (3, 4))
    span, head = object_np_after(s, 0)
    assert head == "scene"


def test_validate_non_particle_prep_blocks():
    s = sent(("look", "look", "VERB"), ("at", "at", "PREP"),
             ("the", "the", "DET"), ("view", "view", "NOUN"))
    assert not validate_direct_object(s, 0, (3, 4))
    assert object_np_after(s, 0) is None


def test_validate_bad_span():
    s = sent(("begin", "begin", "VERB"), ("work", "work", "NOUN"))
    assert not validate_direct_object(s, 1, (0, 1))
    assert not validate_direct_object(s, 0, (5, 6))


def test_harvest_candidates(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [
        [("She", "she", "PRON"), ("read", "read", "VERB"),
         ("the", "the", "DET"), ("chapter", "chapter", "NOUN"),
         ("aloud", "aloud", "ADV")],
        [("the", "the", "DET"), ("chapter", "chapter", "NOUN"),
         ("was", "be", "VERB"), ("long", "long", "ADJ")],
        BEGIN_CHAPTER,
    ])
    corp = load_corpus(path, "vertical")
    excluded = {spec.lemma for spec in DEFAULT_VERBS}
    candidates = harvest_candidates(corp, "chapter", excluded)
    assert [(c.verb_lemma, c.np_head_lemma) for c in candidates] \
        == [("read", "chapter")]
    assert all(c.validated for c in candidates)


def test_harvest_requires_head():
    with pytest.raises(ValueError):
        harvest_candidates([], "")


def test_default_verb_specs():
    table = {spec.lemma: (spec.eventhood, spec.category)
             for spec in DEFAULT_VERBS}
    assert table == {
        "begin": (0.91, "aspectual"),
        "finish": (0.66, "aspectual"),
        "enjoy": (0.57, "psychological"),
    }


def test_targets_validate_their_own_pairs(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [BEGIN_CHAPTER, ENJOY_JOB])
    corp = load_corpus(path, "vertical")
    for t in find_targets(corp):
        sentence = next(s for s in corp if s.ref == t.sentence_ref)
        assert validate_direct_object(sentence, t.verb_position, t.np_span)


def brute_force_pairs(sentence):
    """Independent enumeration of validated (verb, NP) pairs."""
    found = []
    tokens = sentence.tokens
    for vp, token in enumerate(tokens):
        if token.pos != "VERB":
            continue
        if vp > 0 and tokens[vp - 1].pos == "PUNCT":
            continue
        for start in range(vp + 1, min(vp + 5, len(tokens))):
            if tokens[start].pos != "NOUN":
                continue
            end = start
            while end < len(tokens) and tokens[end].pos == "NOUN":
                end += 1
            if validate_direct_object(sentence, vp, (start, end)):
                found.append((vp, (start, end), tokens[end - 1].lemma))
            break
    return found


def random_sentences(seed, count=20):
    """Random tagged sentences over a few verbs, nouns and distractors."""
    import random
    rng = random.Random(seed)
    verbs = ["begin", "enjoy", "finish", "read", "eat", "see"]
    nouns = ["book", "meal", "film", "game"]
    fillers = [("the", "DET"), ("big", "ADJ"), ("very", "ADV"),
               (",", "PUNCT"), ("and", "CONJ"), ("at", "PREP"),
               ("in", "PREP"), ("two", "NUM")]
    sentences = []
    for _ in range(count):
        length = rng.randint(3, 9)
        triples = []
        for _ in range(length):
            kind = rng.random()
            if kind < 0.3:
                v = rng.choice(verbs)
                triples.append((v, v, "VERB"))
            elif kind < 0.6:
                n = rng.choice(nouns)
                triples.append((n, n, "NOUN"))
            else:
                w, pos = rng.choice(fillers)
                triples.append((w, w, pos))
        sentences.append(triples)
    return sentences


def test_brute_force_oracle(tmp_path):
    path = write_vertical(tmp_path / "c.vert", random_sentences(5))
    corp = load_corpus(path, "vertical")
    for sentence in corp:
        assert list(_governed_pairs(sentence)) == brute_force_pairs(sentence)


def rescan_targets(corpus, verbs=DEFAULT_VERBS):
    """Reference find_targets: scan every sentence for a metonymic verb."""
    verb_lemmas = {spec.lemma for spec in verbs}
    return [VerbObject(s.tokens[pos].lemma, pos, head, span, s.ref)
            for s in corpus for pos, span, head in _governed_pairs(s)
            if s.tokens[pos].lemma in verb_lemmas]


def rescan_candidates(corpus, np_head, excluded_verbs=frozenset()):
    """Reference harvest_candidates: rescan the whole corpus for one head."""
    return [VerbObject(s.tokens[pos].lemma, pos, head, span, s.ref)
            for s in corpus for pos, span, head in _governed_pairs(s)
            if head == np_head and s.tokens[pos].lemma not in excluded_verbs]


def test_index_matches_rescan(tmp_path):
    path = write_vertical(tmp_path / "c.vert", random_sentences(7, count=60))
    corp = load_corpus(path, "vertical")
    index = index_corpus(corp)
    targets = rescan_targets(corp)
    assert len(targets) > 3
    assert find_targets(index) == find_targets(corp) == targets
    excluded = {spec.lemma for spec in DEFAULT_VERBS}
    for head in ("book", "meal", "film", "game", "absent"):
        for skip in (frozenset(), excluded):
            assert harvest_candidates(index, head, skip) \
                == harvest_candidates(corp, head, skip) \
                == rescan_candidates(corp, head, skip)
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(
        f"{t.sentence_ref[0]}\t{t.sentence_ref[1]}\t{t.verb_lemma}\t"
        f"{t.np_head_lemma}\n" for t in reversed(targets)))
    assert load_gold_targets(gold, index) \
        == load_gold_targets(gold, corp) == targets[::-1]


def test_one_verb_object_record(tmp_path):
    assert MetonymyTarget is CandidateSentence is VerbObject
    path = write_vertical(tmp_path / "c.vert", random_sentences(7, count=60))
    index = index_corpus(load_corpus(path, "vertical"))
    targets = find_targets(index)
    assert targets and all(t.validated for t in index.pairs)
    # targets, candidates and gold targets are the index's own records
    indexed = {id(pair) for pair in index.pairs}
    assert all(id(t) in indexed for t in targets)
    assert all(id(c) in indexed for c in harvest_candidates(index, "book"))
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(
        f"{t.sentence_ref[0]}\t{t.sentence_ref[1]}\t{t.verb_lemma}\t"
        f"{t.np_head_lemma}\n" for t in targets))
    assert all(id(t) in indexed for t in load_gold_targets(gold, index))


def test_index_repeated_ref(tmp_path):
    # two sentences share a ref: targets keep both, a gold ref names the last
    corp = Corpus([sent(*BEGIN_CHAPTER, doc_id="d", index=0),
                   sent(*ENJOY_JOB, doc_id="d", index=0)])
    index = index_corpus(corp)
    assert [t.verb_lemma for t in find_targets(index)] == ["begin", "enjoy"]
    gold = tmp_path / "gold.tsv"
    gold.write_text("d\t0\tenjoy\tjob\n")
    assert [t.verb_lemma for t in load_gold_targets(gold, index)] == ["enjoy"]
    gold.write_text("d\t0\tbegin\tchapter\n")
    with pytest.raises(CorpusFormatError, match="no .'begin', 'chapter'. pair"):
        load_gold_targets(gold, index)


def test_load_gold_targets(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [BEGIN_CHAPTER, ENJOY_JOB])
    corp = load_corpus(path, "vertical")
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc1\t0\tbegin\tchapter\ndoc1\t1\tenjoy\tjob\n",
                    encoding="utf-8")
    targets = load_gold_targets(gold, corp)
    assert [(t.verb_lemma, t.np_head_lemma) for t in targets] \
        == [("begin", "chapter"), ("enjoy", "job")]


def test_load_gold_targets_empty(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [BEGIN_CHAPTER])
    corp = load_corpus(path, "vertical")
    gold = tmp_path / "gold.tsv"
    gold.write_text("")
    assert load_gold_targets(gold, corp) == []


def test_load_gold_targets_missing_sentence(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [BEGIN_CHAPTER])
    corp = load_corpus(path, "vertical")
    gold = tmp_path / "gold.tsv"
    gold.write_text("d\t99\tbegin\tchapter\n")
    with pytest.raises(CorpusFormatError) as err:
        load_gold_targets(gold, corp)
    assert err.value.lineno == 1


def test_load_gold_targets_malformed(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [BEGIN_CHAPTER])
    corp = load_corpus(path, "vertical")
    gold = tmp_path / "gold.tsv"
    gold.write_text("d\t0\tbegin\n")
    with pytest.raises(CorpusFormatError):
        load_gold_targets(gold, corp)


def test_gap_tags_stable():
    assert GAP_TAGS == {"DET", "ADJ", "ADV", "NUM"}
