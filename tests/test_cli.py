import io
import json

import numpy as np
import pytest

from metovec.cli import CONFIG_ENV_VAR, load_config, main
from metovec.corpus import load_corpus
from metovec.embeddings import load_model, save_model
from metovec.metonymy import DEFAULT_VERBS, MetonymyTarget
from metovec.ranking import (NOT_IN_VOCAB, RankingTable, ScoredCandidate,
                             label_for, score_candidate, write_table)

from conftest import PROVERB, make_model, write_vertical
from test_metonymy import rescan_candidates, rescan_targets

CHAPTER_SENTENCES = [
    [("We", "we", "PRON"), ("begin", "begin", "VERB"),
     ("the", "the", "DET"), ("chapter", "chapter", "NOUN")],
    [("They", "they", "PRON"), ("read", "read", "VERB"),
     ("the", "the", "DET"), ("chapter", "chapter", "NOUN")],
    [("She", "she", "PRON"), ("discussed", "discuss", "VERB"),
     ("the", "the", "DET"), ("chapter", "chapter", "NOUN")],
]


@pytest.fixture
def chapter_corpus(tmp_path):
    return write_vertical(tmp_path / "c.vert", CHAPTER_SENTENCES)


@pytest.fixture
def trained_model(tmp_path, chapter_corpus):
    model_path = tmp_path / "model.txt"
    main(["train", "--corpus", str(chapter_corpus), "--mode", "cbow",
          "--dim", "8", "--epochs", "2", "--output", str(model_path)])
    return model_path


def test_load_config_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 32, "seed": 7}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    # env-var config applies when no explicit path is given
    assert load_config().training.dim == 32
    # flags win over the file
    assert load_config(overrides={"dim": 64}).training.dim == 64
    assert load_config(overrides={"dim": None}).training.seed == 7
    monkeypatch.delenv(CONFIG_ENV_VAR)
    assert load_config().training.dim == 100


def test_config_unknown_key(tmp_path, chapter_corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimm": 3, "seed": 2}))
    with pytest.raises(ValueError) as err:
        load_config(str(cfg))
    assert str(err.value) == f"{cfg}: unknown config key 'dimm'"
    with pytest.raises(SystemExit) as exit_:
        main(["--config", str(cfg), "train", "--corpus", str(chapter_corpus),
              "--output", str(tmp_path / "m.txt")])
    assert str(exit_.value) == f"error: {cfg}: unknown config key 'dimm'"


def test_config_threshold_invariant(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"discard_threshold": 0.7}))
    with pytest.raises(ValueError):
        load_config(str(cfg))


def test_cmd_vocab(tmp_path, capsys):
    corpus = tmp_path / "proverb.txt"
    corpus.write_text(PROVERB)
    out = tmp_path / "vocab.tsv"
    main(["vocab", "--corpus", str(corpus), "--format", "plain",
          "--output", str(out)])
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    counts = [int(line.split("\t")[1]) for line in lines]
    assert counts == sorted(counts, reverse=True)


def test_cmd_vocab_missing_corpus(tmp_path):
    with pytest.raises(SystemExit):
        main(["vocab", "--corpus", str(tmp_path / "nope.txt"),
              "--output", str(tmp_path / "v.tsv")])


def test_cmd_train_deterministic(tmp_path, chapter_corpus):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        main(["train", "--corpus", str(chapter_corpus), "--mode", "skipgram",
              "--dim", "6", "--seed", "5", "--output", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_cmd_train_bad_mode(tmp_path, chapter_corpus):
    with pytest.raises(SystemExit):
        main(["train", "--corpus", str(chapter_corpus), "--mode", "glove",
              "--output", str(tmp_path / "m.txt")])


def test_cmd_query_self_similarity(trained_model, capsys):
    main(["query", "similarity", "--model", str(trained_model),
          "chapter", "chapter"])
    assert capsys.readouterr().out.strip() == "1.00000"


def test_cmd_query_neighbors(trained_model, capsys):
    main(["query", "neighbors", "--model", str(trained_model), "-k", "2",
          "chapter"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all("\t" in line for line in lines)


def test_cmd_query_oov(trained_model):
    with pytest.raises(SystemExit):
        main(["query", "similarity", "--model", str(trained_model),
              "chapter", "zygote"])


def test_cmd_targets(chapter_corpus, capsys):
    main(["targets", "--corpus", str(chapter_corpus)])
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["doc1\t0\tbegin\tchapter"]


def test_cmd_paraphrase(tmp_path, chapter_corpus, trained_model):
    outdir = tmp_path / "tables"
    main(["paraphrase", "--corpus", str(chapter_corpus),
          "--model", str(trained_model), "--output-dir", str(outdir)])
    tables = sorted(outdir.glob("*.tsv"))
    assert len(tables) == 1
    lines = tables[0].read_text().splitlines()
    assert lines[0].startswith("#target\tdoc1\t0\tbegin\tchapter")
    verbs = {line.split("\t")[0] for line in lines[1:]}
    assert verbs == {"read", "discuss"}


def test_cmd_paraphrase_gold_targets(tmp_path, chapter_corpus,
                                     trained_model):
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc1\t0\tbegin\tchapter\n")
    outdir = tmp_path / "tables2"
    main(["paraphrase", "--corpus", str(chapter_corpus),
          "--model", str(trained_model), "--gold-targets", str(gold),
          "--output-dir", str(outdir)])
    assert len(list(outdir.glob("*.tsv"))) == 1


def tagged(text):
    """'word/lemma/POS ...' -> (surface, lemma, pos) triples."""
    return [tuple(item.split("/")) for item in text.split()]


# Several targets share the head "book"; "finish the meal" is a candidate
# with an excluded verb; skim, devour and enjoy are left out of the model;
# the last three "book" sentences are the punctuation-gap, inversion and
# conjunction distractors, which yield no pair.
PARAPHRASE_SENTENCES = [tagged(line) for line in [
    "We/we/PRON began/begin/VERB the/the/DET book/book/NOUN",
    "They/they/PRON read/read/VERB the/the/DET book/book/NOUN",
    "She/she/PRON will/will/VERB finish/finish/VERB the/the/DET "
    "old/old/ADJ book/book/NOUN",
    "I/i/PRON enjoy/enjoy/VERB a/a/DET good/good/ADJ book/book/NOUN",
    "He/he/PRON wrote/write/VERB the/the/DET book/book/NOUN",
    "They/they/PRON burned/burn/VERB the/the/DET book/book/NOUN",
    "We/we/PRON skim/skim/VERB the/the/DET book/book/NOUN",
    "Pack/pack/VERB up/up/PREP the/the/DET book/book/NOUN",
    "Read/read/VERB the/the/DET book/book/NOUN again/again/ADV",
    "He/he/PRON began/begin/VERB the/the/DET meal/meal/NOUN",
    "We/we/PRON ate/eat/VERB the/the/DET meal/meal/NOUN",
    "They/they/PRON cooked/cook/VERB a/a/DET meal/meal/NOUN",
    "She/she/PRON devoured/devour/VERB the/the/DET meal/meal/NOUN",
    "I/i/PRON finished/finish/VERB the/the/DET meal/meal/NOUN",
    "We/we/PRON enjoy/enjoy/VERB the/the/DET zyzzyva/zyzzyva/NOUN",
    "They/they/PRON pet/pet/VERB the/the/DET zyzzyva/zyzzyva/NOUN",
    "They/they/PRON read/read/VERB ,/,/PUNCT the/the/DET book/book/NOUN",
    "Now/now/ADV ?/?/PUNCT '/'/PUNCT began/begin/VERB the/the/DET "
    "book/book/NOUN",
    "He/he/PRON began/begin/VERB and/and/CONJ the/the/DET book/book/NOUN",
]]
PARAPHRASE_OOV = {"skim", "devour", "enjoy", "zyzzyva"}


@pytest.fixture
def paraphrase_inputs(tmp_path):
    corpus_path = write_vertical(tmp_path / "p.vert", PARAPHRASE_SENTENCES)
    lemmas = sorted({lemma for sentence in PARAPHRASE_SENTENCES
                     for _, lemma, _ in sentence} - PARAPHRASE_OOV)
    rng = np.random.default_rng(3)
    # verb norms spread over a decade so rows land in every label band
    model = make_model({w: rng.normal(size=6) * rng.uniform(0.3, 3.0)
                        for w in lemmas})
    model_path = tmp_path / "p.model"
    save_model(model, model_path)
    return corpus_path, model_path


def reference_tables(corpus, model, targets):
    """Tables as a per-target rescan and per-row score_candidate give them."""
    excluded = {spec.lemma for spec in DEFAULT_VERBS}
    tables = {}
    for n, target in enumerate(targets, start=1):
        rows = []
        for cand in rescan_candidates(corpus, target.np_head_lemma, excluded):
            score = score_candidate(model, target, cand)
            label = NOT_IN_VOCAB if score is None else label_for(score)
            rows.append(ScoredCandidate(cand, score, label))
        rows.sort(key=lambda row: (
            row.confidence is None,
            -(row.confidence if row.confidence is not None else 0.0),
            row.candidate.verb_lemma))
        out = io.StringIO()
        write_table(RankingTable(target, tuple(rows)), out)
        tables[f"{target.verb_lemma}-{n}.tsv"] = out.getvalue().encode()
    return tables


def written_tables(outdir):
    return {path.name: path.read_bytes() for path in outdir.glob("*.tsv")}


def test_cmd_paraphrase_matches_rescan(tmp_path, paraphrase_inputs):
    corpus_path, model_path = paraphrase_inputs
    corpus = load_corpus(corpus_path)
    targets = rescan_targets(corpus)
    assert [t.np_head_lemma for t in targets].count("book") == 3
    expected = reference_tables(corpus, load_model(model_path), targets)
    table_text = b"".join(expected.values()).decode()
    for needed in ("Viable", "Rejected", "Discarded", "NIV",
                   "#target\tdoc1\t14\tenjoy\tzyzzyva\npet\tNIV"):
        assert needed in table_text
    outdir = tmp_path / "tables"
    main(["paraphrase", "--corpus", str(corpus_path),
          "--model", str(model_path), "--output-dir", str(outdir)])
    assert written_tables(outdir) == expected


def test_cmd_paraphrase_gold_targets_match_rescan(tmp_path,
                                                  paraphrase_inputs):
    corpus_path, model_path = paraphrase_inputs
    corpus = load_corpus(corpus_path)
    # gold targets may use any verb and come in any order
    gold_records = [("doc1", 9, "begin", "meal"), ("doc1", 1, "read", "book"),
                    ("doc1", 3, "enjoy", "book"), ("doc1", 0, "begin", "book")]
    targets = []
    for doc_id, index, verb, head in gold_records:
        found = next(c for c in rescan_candidates(corpus, head)
                     if c.sentence_ref == (doc_id, index)
                     and c.verb_lemma == verb)
        targets.append(MetonymyTarget(verb, found.verb_position, head,
                                      found.np_span, found.sentence_ref))
    expected = reference_tables(corpus, load_model(model_path), targets)
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join("\t".join(map(str, record)) + "\n"
                            for record in gold_records))
    outdir = tmp_path / "tables"
    main(["paraphrase", "--corpus", str(corpus_path),
          "--model", str(model_path), "--gold-targets", str(gold),
          "--output-dir", str(outdir)])
    assert written_tables(outdir) == expected


def test_cmd_eval_shipped_fixture(capsys):
    main(["eval", "--unscored", "true-negative"])
    out = capsys.readouterr().out
    assert "targets: 41" in out
    assert "tp=52 tn=95 fp=14 fn=18" in out
    assert "phi=0.62" in out


def test_cmd_eval_perfect_toy_fixture(tmp_path, capsys):
    fixture = tmp_path / "toy.tsv"
    fixture.write_text(
        "#target\td\t0\tbegin\tbook\n"
        "Read the book.\t0.9\tViable\t+\n"
        "Burn the book.\t0.1\tDiscarded\t-\n")
    main(["eval", "--fixture", str(fixture)])
    out = capsys.readouterr().out
    assert "phi=1.0000" in out
    assert "precision=1.0000 recall=1.0000" in out


def test_cmd_eval_missing_gold_column(tmp_path):
    fixture = tmp_path / "bad.tsv"
    fixture.write_text("#target\td\t0\tbegin\tbook\n"
                       "Read the book.\t0.9\tViable\n")
    with pytest.raises(SystemExit):
        main(["eval", "--fixture", str(fixture)])


def test_cmd_prcurve(tmp_path):
    out = tmp_path / "pr.csv"
    main(["prcurve", "--output", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,precision,recall"
    assert len(lines) == 175  # header + 174 scored rows
    last = lines[-1].split(",")
    assert float(last[2]) == 1.0
