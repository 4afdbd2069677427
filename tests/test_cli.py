import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from metovec.cli import CONFIG_ENV_VAR, load_config, main
from metovec.corpus import load_corpus
from metovec.embeddings import TrainingConfig, load_model, save_model
from metovec.metonymy import DEFAULT_VERBS, MetonymyTarget
from metovec.ranking import (NOT_IN_VOCAB, RankingTable, ScoredCandidate,
                             label_for, score_candidate, write_table)

from conftest import (BAD_CONFIG_RANGES, PROVERB, make_model,
                      write_vertical)
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
    # with no file, the message names none
    with pytest.raises(ValueError) as err:
        load_config(overrides={"dimm": 1})
    assert str(err.value) == "unknown config key 'dimm'"


# each message follows "<file>:"
@pytest.mark.parametrize("text, message", [
    ('{"dim": "3"}', " config key 'dim' must be int, not '3'"),
    ("[1]", " config must be a JSON object, not list"),
    ('{"dim": 3,\n', "2:1: malformed JSON: Expecting property name "
                     "enclosed in double quotes"),
    ('{"dim": 3, "x": "\xff"}', " not UTF-8 at byte 17: invalid start byte"),
    *((json.dumps(values), " " + message)
      for values, message in BAD_CONFIG_RANGES.values())],
    ids=["wrong-type", "not-an-object", "malformed", "not-utf8",
         *BAD_CONFIG_RANGES])
def test_config_bad_file(tmp_path, chapter_corpus, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text.encode("latin-1"))
    with pytest.raises(SystemExit) as exit_:
        main(["--config", str(cfg), "train", "--corpus", str(chapter_corpus),
              "--output", str(tmp_path / "m.txt")])
    assert str(exit_.value) == f"error: {cfg}:{message}"


@pytest.mark.parametrize("command", [
    ["eval"], ["prcurve", "--output", "pr.csv"],
    ["query", "similarity", "--model", "MODEL", "chapter", "chapter"]],
    ids=["eval", "prcurve", "query"])
def test_config_checked_by_every_subcommand(tmp_path, trained_model,
                                            monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimm": 3}))
    argv = [str(trained_model) if arg == "MODEL" else arg for arg in command]
    with pytest.raises(SystemExit) as exit_:
        main(["--config", str(cfg), *argv])
    assert str(exit_.value) == f"error: {cfg}: unknown config key 'dimm'"
    # $METOVEC_CONFIG is read the same way
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert str(exit_.value) == f"error: {cfg}: unknown config key 'dimm'"


@pytest.mark.parametrize("verbs, bad", [
    ([["read"]], 0),
    ([["read", 0.5, "aspectual"], ["eat", "0.5", "aspectual"]], 1),
    ([["read", True, "aspectual"]], 0),
    ([["read", 0.5, "aspectual", "x"]], 0),
    ([[1, 0.5, "aspectual"]], 0),
    (["read"], 0)],
    ids=["one-field", "string-eventhood", "bool-eventhood", "four-fields",
         "int-lemma", "not-a-list"])
def test_config_bad_verbs_entry(tmp_path, chapter_corpus, verbs, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verbs": verbs}))
    with pytest.raises(SystemExit) as exit_:
        main(["--config", str(cfg), "targets", "--corpus",
              str(chapter_corpus)])
    assert str(exit_.value) == (
        f"error: {cfg}: config key 'verbs' entry {bad} must be "
        f"[lemma, eventhood, category], not {verbs[bad]!r}")


def test_config_verbs_entry_accepts_integer_eventhood(tmp_path,
                                                      chapter_corpus, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verbs": [["read", 1, "aspectual"]]}))
    main(["--config", str(cfg), "targets", "--corpus", str(chapter_corpus)])
    assert capsys.readouterr().out.splitlines() == ["doc1\t1\tread\tchapter"]


def test_paraphrase_output_dir_from_config(tmp_path, chapter_corpus,
                                           trained_model):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "from-config")}))
    argv = ["--config", str(cfg), "paraphrase", "--corpus",
            str(chapter_corpus), "--model", str(trained_model)]
    main(argv)
    assert len(list((tmp_path / "from-config").glob("*.tsv"))) == 1
    # the flag wins over the file
    main([*argv, "--output-dir", str(tmp_path / "from-flag")])
    assert len(list((tmp_path / "from-flag").glob("*.tsv"))) == 1
    assert len(list((tmp_path / "from-config").glob("*.tsv"))) == 1


def test_config_threshold_invariant(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"discard_threshold": 0.7}))
    with pytest.raises(ValueError) as err:
        load_config(str(cfg))
    assert str(err.value) \
        == f"{cfg}: bad config: need 0 <= discard < viable <= 1"


@pytest.mark.parametrize("config", [None, {"seed": 3}],
                         ids=["no-file", "good-file"])
def test_flag_range_error_names_no_file(tmp_path, chapter_corpus, config):
    """A flag's value out of range is the flag's fault, not the file's."""
    argv = ["train", "--corpus", str(chapter_corpus), "--dim", "0",
            "--output", str(tmp_path / "m.npz")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert str(exit_.value) == "error: dim must be >= 1"


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


def test_cmd_train_stops_at_non_finite_loss(tmp_path):
    """Too high a learning rate ends training at its first overflowed
    epoch, with an error naming the rate, and writes no model."""
    corpus, cfg = tmp_path / "proverb.txt", tmp_path / "cfg.json"
    corpus.write_text(PROVERB * 10)
    cfg.write_text(json.dumps({"lr_start": 10}))
    model = tmp_path / "m.model"
    with pytest.raises(SystemExit) as exit_:
        main(["--config", str(cfg), "train", "--corpus", str(corpus),
              "--format", "plain", "--mode", "skipgram",
              "--output", str(model)])
    assert str(exit_.value) == ("error: skipgram epoch 1: loss is not "
                                "finite; lr_start 10 is too high")
    assert not model.exists()


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


@pytest.mark.parametrize("subcommand, words", [
    ("neighbors", ["zebra"]), ("similarity", ["chapter", "zebra"]),
    ("analogy", ["chapter", "read", "zebra"])])
def test_cmd_query_oov_message(trained_model, subcommand, words):
    with pytest.raises(SystemExit) as exit_:
        main(["query", subcommand, "--model", str(trained_model), *words])
    assert str(exit_.value) == "error: 'zebra' is not in the model vocabulary"


def test_cmd_query_repeated_word(tmp_path, capsys):
    """A model with two 'a' words stops the query at one located error
    line, before any neighbour is printed."""
    config = asdict(TrainingConfig(dim=1)) | {"total_tokens": 4,
                                              "max_size": 2}
    path = tmp_path / "model"
    with open(path, "wb") as out:
        np.savez(out, inputs=np.array([[1.0], [2.0]]),
                 nodes=np.array([[0.5]]), counts=np.array([3, 1]),
                 words=np.frombuffer(b"a\na", dtype=np.uint8),
                 config=np.frombuffer(json.dumps(config).encode(),
                                      dtype=np.uint8))
    with pytest.raises(SystemExit) as exit_:
        main(["query", "neighbors", "--model", str(path), "a"])
    assert str(exit_.value) == f"error: {path}: word 'a' appears twice"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("subcommand, words, message", [
    ("similarity", ["chapter", "read", "the"],
     "query similarity takes 2 words, got 3"),
    ("similarity", ["chapter"], "query similarity takes 2 words, got 1"),
    ("neighbors", ["chapter", "read"], "query neighbors takes 1 word, got 2"),
    ("analogy", ["chapter", "read"], "query analogy takes 3 words, got 2")],
    ids=["similarity-3", "similarity-1", "neighbors-2", "analogy-2"])
def test_cmd_query_word_count(trained_model, subcommand, words, message):
    with pytest.raises(SystemExit) as exit_:
        main(["query", subcommand, "--model", str(trained_model), *words])
    assert str(exit_.value) == f"error: {message}"


def test_cmd_targets(chapter_corpus, capsys):
    main(["targets", "--corpus", str(chapter_corpus)])
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["doc1\t0\tbegin\tchapter"]


def test_cmd_query_k_below_one(trained_model, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["query", "neighbors", "--model", str(trained_model), "-k", "0",
              "chapter"])
    assert str(exit_.value) == "error: -k must be >= 1, got 0"
    assert capsys.readouterr().out == ""


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


def test_cmd_paraphrase_keeps_tables_in_output_dir(tmp_path, trained_model):
    """A verb lemma read from the corpus names its table: one that is not a
    plain file name is refused before any table is written."""
    corpus = write_vertical(tmp_path / "escape.vert", [
        CHAPTER_SENTENCES[0],
        [("We", "we", "PRON"), ("escaped", "../escaped", "VERB"),
         ("the", "the", "DET"), ("chapter", "chapter", "NOUN")]])
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc1\t0\tbegin\tchapter\n"
                    "doc1\t1\t../escaped\tchapter\n")
    outdir = tmp_path / "out" / "sub"
    with pytest.raises(SystemExit) as exit_:
        main(["paraphrase", "--corpus", str(corpus), "--model",
              str(trained_model), "--gold-targets", str(gold),
              "--output-dir", str(outdir)])
    assert str(exit_.value) == (
        "error: target ('doc1', 1, '../escaped'): table name "
        "'../escaped-2.tsv' is not a plain file name")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\x1c", "\x0c"])
def test_cmd_eval_fixture_phrase_with_line_separator(tmp_path, capsys,
                                                      separator):
    # LF, CR and CRLF end a line, as in every reader; no other character
    fixture = tmp_path / "toy.tsv"
    rows = ("#target\td\t0\tbegin\tbook\n"
            f"Read the{separator}book.\t0.9\tViable\t+\n"
            "Burn the book.\t0.1\tDiscarded\t-\n")
    fixture.write_text(rows, encoding="utf-8")
    main(["eval", "--fixture", str(fixture)])
    assert "precision=1.0000 recall=1.0000" in capsys.readouterr().out
    fixture.write_text(rows + "See the book.\t0.5\tViabel\t-\n",
                       encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["eval", "--fixture", str(fixture)])
    assert err.value.code == f"error: {fixture}:4: unknown label 'Viabel'"


def test_cmd_eval_missing_gold_column(tmp_path):
    fixture = tmp_path / "bad.tsv"
    fixture.write_text("#target\td\t0\tbegin\tbook\n"
                       "Read the book.\t0.9\tViable\n")
    with pytest.raises(SystemExit):
        main(["eval", "--fixture", str(fixture)])


@pytest.mark.parametrize("kind", ["vertical", "plain", "fixture",
                                  "gold-targets"])
def test_non_utf8_input_is_located(tmp_path, chapter_corpus, trained_model,
                                   kind):
    """A byte 0xe9 (Latin-1 "é") on line 3 of each kind of input file
    read by lines; a model archive has none."""
    bad = tmp_path / "bad.txt"
    corpus, model = str(chapter_corpus), str(trained_model)
    vocab = str(tmp_path / "vocab.tsv")
    source, argv = {
        "vertical": (chapter_corpus,
                     ["vocab", "--corpus", str(bad), "--output", vocab]),
        "plain": (None, ["vocab", "--corpus", str(bad), "--format", "plain",
                         "--output", vocab]),
        "fixture": (None, ["eval", "--fixture", str(bad)]),
        "gold-targets": (None, ["paraphrase", "--corpus", corpus, "--model",
                                model, "--gold-targets", str(bad),
                                "--output-dir", str(tmp_path / "tables")]),
    }[kind]
    lines = (source.read_bytes().split(b"\n") if source
             else [b"#target\td\t0\tbegin\tbook", b"", b" au lait"])
    lines[2] = b"caf\xe9" + lines[2]
    bad.write_bytes(b"\n".join(lines))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == (
        f"error: {bad}:3: not UTF-8: 'utf-8' codec can't decode byte 0xe9 in "
        "position 3: invalid continuation byte")


def test_cmd_prcurve(tmp_path):
    out = tmp_path / "pr.csv"
    main(["prcurve", "--output", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,precision,recall"
    assert len(lines) == 175  # header + 174 scored rows
    last = lines[-1].split(",")
    assert float(last[2]) == 1.0
