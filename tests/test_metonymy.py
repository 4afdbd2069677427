import pytest
from hypothesis import given, settings, strategies as st

from metovec.corpus import CorpusFormatError, Sentence, load_corpus
from metovec.metonymy import (DEFAULT_VERBS, GAP_TAGS, MAX_GAP, PARTICLES,
                              CandidateSentence, VerbObject,
                              find_targets, harvest_candidates, index_corpus,
                              load_gold_targets, object_np_after,
                              _governed_pairs)

from conftest import BAD_SENTENCE_INDICES, write_vertical


def sent(*triples, doc_id="d", index=0):
    return Sentence(*zip(*triples), doc_id, index)


def governed(sentence):
    """(verb_position, np_span) of each pair ``index_corpus`` finds."""
    return {(pair.verb_position, pair.np_span)
            for pair in index_corpus([sentence]).pairs}


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
    assert governed(s) == {(0, (3, 4))}


def test_validate_punct_blocks():
    s = sent(("began", "begin", "VERB"), (",", ",", "PUNCT"),
             ("the", "the", "DET"), ("man", "man", "NOUN"))
    assert governed(s) == set()


def test_validate_particle_allowed():
    s = sent(("take", "take", "VERB"), ("in", "in", "PREP"),
             ("the", "the", "DET"), ("scene", "scene", "NOUN"))
    assert governed(s) == {(0, (3, 4))}
    span, head = object_np_after(s, 0)
    assert head == "scene"


def test_validate_non_particle_prep_blocks():
    s = sent(("look", "look", "VERB"), ("at", "at", "PREP"),
             ("the", "the", "DET"), ("view", "view", "NOUN"))
    assert governed(s) == set()
    assert object_np_after(s, 0) is None


def test_validate_bad_span():
    # the verb governs the noun; no other position or span is a pair
    s = sent(("begin", "begin", "VERB"), ("work", "work", "NOUN"))
    assert governed(s) == {(0, (1, 2))}


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
    assert [spec.lemma for spec in DEFAULT_VERBS] \
        == ["begin", "finish", "enjoy"]


def test_validate_checks_verb_and_whole_span():
    # position 0 is a noun and the span is empty
    s = sent(("book", "book", "NOUN"), ("read", "read", "VERB"))
    assert governed(s) == set()
    # position 2 is a noun and the span holds a VERB and a PRON
    s = sent(("begin", "begin", "VERB"), ("the", "the", "DET"),
             ("book", "book", "NOUN"), ("read", "read", "VERB"),
             ("it", "it", "PRON"), ("book", "book", "NOUN"))
    assert governed(s) == {(0, (2, 3))}


def test_targets_validate_their_own_pairs(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [BEGIN_CHAPTER, ENJOY_JOB])
    corp = load_corpus(path, "vertical")
    for t in find_targets(corp):
        sentence = next(s for s in corp if s.ref == t.sentence_ref)
        assert (t.verb_position, t.np_span) in governed(sentence)


def brute_force_pairs(sentence):
    """Independent enumeration of validated (verb, NP) pairs."""
    found = []
    tags = sentence.tags
    pairs = governed(sentence)
    for vp, tag in enumerate(tags):
        if tag != "VERB":
            continue
        if vp > 0 and tags[vp - 1] == "PUNCT":
            continue
        for start in range(vp + 1, min(vp + 5, len(tags))):
            if tags[start] != "NOUN":
                continue
            end = start
            while end < len(tags) and tags[end] == "NOUN":
                end += 1
            if (vp, (start, end)) in pairs:
                found.append((vp, (start, end), sentence.lemmas[end - 1]))
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
    return [VerbObject(s.lemmas[pos], pos, head, span, s.ref)
            for s in corpus for pos, span, head in _governed_pairs(s)
            if s.lemmas[pos] in verb_lemmas]


def rescan_candidates(corpus, np_head, excluded_verbs=frozenset()):
    """Reference harvest_candidates: rescan the whole corpus for one head."""
    return [VerbObject(s.lemmas[pos], pos, head, span, s.ref)
            for s in corpus for pos, span, head in _governed_pairs(s)
            if head == np_head and s.lemmas[pos] not in excluded_verbs]


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
    assert CandidateSentence is VerbObject
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
    corp = (sent(*BEGIN_CHAPTER, doc_id="d", index=0),
            sent(*ENJOY_JOB, doc_id="d", index=0))
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


@pytest.mark.parametrize("field", BAD_SENTENCE_INDICES.values(),
                         ids=list(BAD_SENTENCE_INDICES))
def test_load_gold_targets_bad_sentence_index(tmp_path, field):
    path = write_vertical(tmp_path / "c.vert", [BEGIN_CHAPTER])
    corp = load_corpus(path, "vertical")
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc1\t0\tbegin\tchapter\n"
                    f"doc1\t{field}\tbegin\tchapter\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_gold_targets(gold, corp)
    assert str(err.value) == f"{gold}:2: bad sentence index {field!r}"
    assert err.value.lineno == 2


def test_gap_tags_stable():
    assert GAP_TAGS == {"DET", "ADJ", "ADV", "NUM"}


def reference_object_np_after(sentence, verb_position):
    """The scan as first written: its own copy of the gap grammar."""
    tags, lemmas = sentence.tags, sentence.lemmas
    pos = verb_position + 1
    gap = 0
    while pos < len(tags) and tags[pos] != "NOUN":
        tag = tags[pos]
        if tag in ("PUNCT", "CONJ", "VERB"):
            return None
        if not (tag in GAP_TAGS
                or (tag == "PREP" and lemmas[pos] in PARTICLES)):
            return None
        gap += 1
        if gap > MAX_GAP:
            return None
        pos += 1
    if pos >= len(tags):
        return None
    start = pos
    while pos < len(tags) and tags[pos] == "NOUN":
        pos += 1
    return (start, pos), lemmas[pos - 1]


def reference_governed_pairs(sentence):
    """Pairs as first found: the reference scan from every verb that no
    PUNCT token precedes."""
    found = []
    for pos, tag in enumerate(sentence.tags):
        if tag != "VERB":
            continue
        if pos > 0 and sentence.tags[pos - 1] == "PUNCT":
            continue
        hit = reference_object_np_after(sentence, pos)
        if hit is not None:
            found.append((pos, *hit))
    return found


# every tag, with particles, non-particle PREPs and PUNCT before verbs
grammar_tokens = st.sampled_from([
    ("v", "VERB"), ("v", "VERB"), ("n", "NOUN"), ("m", "NOUN"),
    ("the", "DET"), ("big", "ADJ"), ("very", "ADV"), ("two", "NUM"),
    ("in", "PREP"), ("up", "PREP"), ("at", "PREP"), ("of", "PREP"),
    (",", "PUNCT"), ("and", "CONJ"), ("it", "PRON"), ("x", "OTHER")])


@settings(max_examples=300, deadline=None)
@given(st.lists(grammar_tokens, min_size=1, max_size=12))
def test_grammar_matches_reference(tokens):
    sentence = sent(*((lemma, lemma, pos) for lemma, pos in tokens))
    pairs = reference_governed_pairs(sentence)
    for verb_position in range(len(tokens)):
        assert object_np_after(sentence, verb_position) \
            == reference_object_np_after(sentence, verb_position)
    assert [(pair.verb_position, pair.np_span, pair.np_head_lemma)
            for pair in index_corpus([sentence]).pairs] == pairs
    assert list(_governed_pairs(sentence)) == pairs
