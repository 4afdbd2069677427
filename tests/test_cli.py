import io
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from metovec import _hs
from metovec.cli import build_parser, main
from metovec.corpus import load_corpus
from metovec.embeddings import TrainingConfig, load_model, save_model
from metovec.metonymy import DEFAULT_VERBS, CandidateSentence
from metovec.ranking import RankingTable, rank, write_table

from conftest import (BAD_CONFIG_RANGES, PROVERB, child_environ, make_model,
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


def test_config_not_read_from_environment(tmp_path, chapter_corpus,
                                          monkeypatch, capsys):
    # flags alone set a command's values: a config file named in the
    # environment changes nothing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimm": 1}))
    monkeypatch.setenv("METOVEC_CONFIG", str(cfg))
    assert main(["train", "--corpus", str(chapter_corpus), "--dim", "8",
                 "--output", str(tmp_path / "m.model")]) == 0
    assert "D=8" in capsys.readouterr().out


def flag(key, value):
    """The train flag and value that set TrainingConfig's ``key``."""
    return ["--" + key.replace("_", "-"), str(value)]


@pytest.mark.parametrize("values, message", [
    ({"dim": 0}, "dim must be >= 1"),
    *((values, message.removeprefix("bad config: "))
      for values, message in BAD_CONFIG_RANGES.values())],
    ids=["dim-0", *BAD_CONFIG_RANGES])
def test_flag_range_error_names_no_file(tmp_path, chapter_corpus, values,
                                        message):
    """A flag's value out of range fails with the range a model archive's
    config is held to, naming no file."""
    argv = ["train", "--corpus", str(chapter_corpus),
            "--output", str(tmp_path / "m.npz")]
    for key, value in values.items():
        argv += flag(key, value)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert str(exit_.value) == f"error: {message}"
    assert not (tmp_path / "m.npz").exists()


def test_every_training_field_is_a_train_flag():
    """Each TrainingConfig field is the dest of a train flag, None when
    the flag is left out, so every training value can be set."""
    args = build_parser().parse_args(["train", "--corpus", "c",
                                      "--output", "m"])
    assert {field.name: getattr(args, field.name, "no flag")
            for field in fields(TrainingConfig)} \
        == dict.fromkeys((field.name for field in fields(TrainingConfig)))


def test_train_flags_reach_the_model_config(tmp_path):
    corpus = tmp_path / "proverb.txt"
    corpus.write_text(PROVERB * 10)
    wanted = TrainingConfig(mode="cbow", window=2, dim=6, epochs=2,
                            lr_start=0.05, lr_end=0.001, seed=4,
                            min_count=2, max_vocab=5)
    argv = ["train", "--corpus", str(corpus), "--format", "plain",
            "--output", str(tmp_path / "m.npz")]
    for key, value in asdict(wanted).items():
        argv += flag(key, value)
    main(argv)
    model = load_model(tmp_path / "m.npz")
    assert model.config == wanted
    assert len(model.vocab) == 5


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


def test_cmd_vocab_to_stdout(chapter_corpus):
    """An output that is not a regular file, such as /dev/stdout on a
    pipe, is written in place, not replaced."""
    done = subprocess.run(
        [sys.executable, "-m", "metovec.cli", "vocab",
         "--corpus", str(chapter_corpus), "--output", "/dev/stdout"],
        env=child_environ(), capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        "chapter\t3", "the\t3", "begin\t1", "discuss\t1", "read\t1",
        "she\t1", "they\t1", "we\t1", "wrote 8 words to /dev/stdout"]


def test_cmd_vocab_to_stdout_redirected_to_a_file(tmp_path):
    """/dev/stdout redirected to a regular file is the command's own
    standard output: the word list and then the line that reports it both
    reach the file, as they reach a pipe."""
    corpus = tmp_path / "c.txt"
    corpus.write_text("The cat sat\nthe dog\n")
    with open(tmp_path / "out.txt", "w") as out:
        subprocess.run(
            [sys.executable, "-m", "metovec.cli", "vocab", "--corpus",
             str(corpus), "--format", "plain", "--output", "/dev/stdout"],
            env=child_environ(), stdout=out, check=True)
    assert (tmp_path / "out.txt").read_text().splitlines() == [
        "the\t2", "cat\t1", "dog\t1", "sat\t1",
        "wrote 4 words to /dev/stdout"]
    assert sorted(os.listdir(tmp_path)) == ["c.txt", "out.txt"]


# a command whose every file write stops at a size limit, as on a full disk
LIMITED = """import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
from metovec.cli import main
main(sys.argv[2:])
"""


@pytest.mark.parametrize("command", ["train", "vocab", "eval"])
def test_failed_write_keeps_the_old_file(tmp_path, chapter_corpus, command):
    """A write over an existing output that a file size limit cuts, set in
    a child process only, fails with an error naming the output.  The old
    file stays whole, a model still loads, and no temporary file is
    left."""
    _hs.library()  # built here: the child could not write it
    out = tmp_path / "out" / "old"
    out.parent.mkdir()
    argv = {"train": ["train", "--corpus", str(chapter_corpus),
                      "--dim", "8", "--epochs", "1", "--output", str(out)],
            "vocab": ["vocab", "--corpus", str(chapter_corpus),
                      "--output", str(out)],
            "eval": ["eval", "--pr-csv", str(out)]}[command]
    main(argv)
    old = out.read_bytes()
    done = subprocess.run(
        [sys.executable, "-c", LIMITED, str(len(old) // 2), *argv],
        env=child_environ(), capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        f"error: [Errno 27] File too large: '{out}'")
    assert out.read_bytes() == old
    assert os.listdir(out.parent) == ["old"]
    if command == "train":
        load_model(out)


def test_cmd_vocab_missing_corpus(tmp_path):
    missing = tmp_path / "nope.txt"
    with pytest.raises(SystemExit) as err:
        main(["vocab", "--corpus", str(missing),
              "--output", str(tmp_path / "v.tsv")])
    assert err.value.code == f"error: corpus file not found: {missing}"


def test_cmd_vocab_reads_dev_null(tmp_path):
    out = tmp_path / "v.tsv"
    main(["vocab", "--corpus", os.devnull, "--output", str(out)])
    assert out.read_text() == ""


def test_cmd_vocab_directory_corpus_is_an_error_line(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["vocab", "--corpus", str(tmp_path),
              "--output", str(tmp_path / "v.tsv")])
    assert err.value.code == f"error: [Errno 21] Is a directory: " \
                             f"'{tmp_path}'"


def test_cmd_train_deterministic(tmp_path, chapter_corpus):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        main(["train", "--corpus", str(chapter_corpus), "--mode", "skipgram",
              "--dim", "6", "--seed", "5", "--output", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_cmd_train_stops_at_non_finite_loss(tmp_path):
    """Too high a learning rate ends training at its first overflowed
    epoch, with an error naming the rate, and writes no model."""
    corpus = tmp_path / "proverb.txt"
    corpus.write_text(PROVERB * 10)
    model = tmp_path / "m.model"
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--corpus", str(corpus), "--format", "plain",
              "--mode", "skipgram", "--lr-start", "10",
              "--output", str(model)])
    assert str(exit_.value) == ("error: skipgram epoch 1: loss is not "
                                "finite; lr_start 10 is too high")
    assert not model.exists()


def test_cmd_train_out_of_memory(tmp_path, proverb_path):
    """A model too large to allocate fails as one error line.  The 7 x D
    float64 input matrix needs 2**60.8 bytes: more than a 64-bit kernel
    maps for a process (at most 2**57), yet below numpy's 2**63 size
    limit, so the kernel refuses the allocation at once, whatever its
    overcommit mode, and no memory is touched."""
    dim = 2 ** 55
    model = tmp_path / "m.model"
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--corpus", str(proverb_path), "--format", "plain",
              "--dim", str(dim), "--output", str(model)])
    assert str(exit_.value).startswith("error: Unable to allocate ")
    assert f"shape (7, {dim})" in str(exit_.value)
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


def test_cmd_query_missing_model(tmp_path):
    """A model file that is not there fails as the OSError it is, not as a
    bad model archive."""
    missing = tmp_path / "missing.model"
    with pytest.raises(SystemExit) as exit_:
        main(["query", "neighbors", "--model", str(missing), "chapter"])
    assert str(exit_.value) \
        == f"error: [Errno 2] No such file or directory: '{missing}'"


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


@pytest.mark.parametrize("command", ["targets", "paraphrase"])
def test_target_commands_take_no_format(tmp_path, chapter_corpus,
                                        trained_model, command, capsys):
    """Targets are found by POS tags, which only a vertical corpus carries,
    so `targets` and `paraphrase` reject --format as argparse rejects any
    unknown flag."""
    extra = {"targets": [],
             "paraphrase": ["--model", str(trained_model),
                            "--output-dir", str(tmp_path / "tables")]}
    with pytest.raises(SystemExit) as err:
        main([command, "--corpus", str(chapter_corpus), "--format", "plain",
              *extra[command]])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format plain" in captured.err
    assert not (tmp_path / "tables").exists()


def test_cmd_targets_into_a_closed_pipe(tmp_path):
    """A reader that stops early, as `| head -1` does, ends `targets` as
    SIGPIPE ends a filter: status 141 (128 + SIGPIPE), no error line and
    no "Exception ignored" at shutdown.  The 2 MB of target lines outgrow
    the pipe's buffer, so writes still follow the close."""
    corpus = write_vertical(tmp_path / "c.vert", CHAPTER_SENTENCES[:1] * 1000,
                            doc_id="d" * 2000)
    with subprocess.Popen(
            [sys.executable, "-m", "metovec.cli", "targets",
             "--corpus", str(corpus)], env=child_environ(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        assert process.stdout.readline() == (
            b"d" * 2000 + b"\t0\tbegin\tchapter\n")
        process.stdout.close()
        stderr = process.stderr.read()
    assert stderr == b""
    assert process.returncode == 141


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


def test_cmd_paraphrase_corpus_error_before_model_error(tmp_path,
                                                        chapter_corpus,
                                                        capsys):
    """The corpus is read and indexed before the model is loaded: with a
    malformed corpus and a missing model, the corpus's located error is
    the one reported, and no table directory is made."""
    lines = chapter_corpus.read_text().splitlines()
    lines[2] = "begin\tbegin"
    chapter_corpus.write_text("\n".join(lines) + "\n")
    outdir = tmp_path / "tables"
    with pytest.raises(SystemExit) as err:
        main(["paraphrase", "--corpus", str(chapter_corpus),
              "--model", str(tmp_path / "missing.model"),
              "--output-dir", str(outdir)])
    assert err.value.code == (f"error: {chapter_corpus}:3: expected 3 "
                              "tab-separated fields, got 2")
    assert capsys.readouterr().out == ""
    assert not outdir.exists()


def test_cmd_paraphrase_gold_targets(tmp_path, chapter_corpus,
                                     trained_model):
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc1\t0\tbegin\tchapter\n")
    outdir = tmp_path / "tables2"
    main(["paraphrase", "--corpus", str(chapter_corpus),
          "--model", str(trained_model), "--gold-targets", str(gold),
          "--output-dir", str(outdir)])
    assert len(list(outdir.glob("*.tsv"))) == 1


@pytest.mark.parametrize("lemma", ["../escaped", "v" * 300],
                         ids=["separator", "too-long"])
def test_cmd_paraphrase_keeps_tables_in_output_dir(tmp_path, trained_model,
                                                   capsys, lemma):
    """A table is named by its target's position, not by a verb lemma read
    from the corpus: a lemma that is not a plain file name, or is too long
    for one, still has its table written inside the output directory."""
    corpus = write_vertical(tmp_path / "escape.vert", [
        CHAPTER_SENTENCES[0],
        [("We", "we", "PRON"), ("escaped", lemma, "VERB"),
         ("the", "the", "DET"), ("chapter", "chapter", "NOUN")]])
    gold = tmp_path / "gold.tsv"
    gold.write_text("doc1\t0\tbegin\tchapter\n"
                    f"doc1\t1\t{lemma}\tchapter\n")
    before = set(tmp_path.rglob("*"))
    outdir = tmp_path / "out" / "sub"
    assert main(["paraphrase", "--corpus", str(corpus), "--model",
                 str(trained_model), "--gold-targets", str(gold),
                 "--output-dir", str(outdir)]) == 0
    tables = [outdir / "target-1.tsv", outdir / "target-2.tsv"]
    assert set(tmp_path.rglob("*")) - before \
        == {tmp_path / "out", outdir, *tables}
    assert tables[1].read_text().startswith(
        f"#target\tdoc1\t1\t{lemma}\tchapter\n")
    assert capsys.readouterr().out.splitlines() \
        == [f"wrote {table} (1 candidates)" for table in tables]


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
# a second document's "begin the book": a target with the verb and head of
# an earlier one, whose table has the same rows under its own header
SECOND_DOCUMENT = [tagged(
    "They/they/PRON begin/begin/VERB the/the/DET book/book/NOUN")]


@pytest.fixture
def paraphrase_inputs(tmp_path):
    corpus_path = tmp_path / "p.vert"
    corpus_path.write_text("".join(
        write_vertical(tmp_path / f"{doc_id}.vert", sentences,
                       doc_id).read_text()
        for doc_id, sentences in [("doc1", PARAPHRASE_SENTENCES),
                                  ("doc2", SECOND_DOCUMENT)]))
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
    """Tables as a per-target rescan and each candidate ranked alone give
    them."""
    excluded = {spec.lemma for spec in DEFAULT_VERBS}
    tables = {}
    for n, target in enumerate(targets, start=1):
        rows = [rank(model, target, [cand]).rows[0] for cand in
                rescan_candidates(corpus, target.np_head_lemma, excluded)]
        rows.sort(key=lambda row: (
            row.confidence is None,
            -(row.confidence if row.confidence is not None else 0.0),
            row.candidate.verb_lemma))
        out = io.StringIO()
        write_table(RankingTable(target, tuple(rows)), out)
        tables[f"target-{n}.tsv"] = out.getvalue().encode()
    return tables


def written_tables(outdir):
    return {path.name: path.read_bytes() for path in outdir.glob("*.tsv")}


def test_cmd_paraphrase_matches_rescan(tmp_path, paraphrase_inputs):
    corpus_path, model_path = paraphrase_inputs
    corpus = load_corpus(corpus_path)
    targets = rescan_targets(corpus)
    assert [t.np_head_lemma for t in targets].count("book") == 4
    assert targets[-1].sentence_ref == ("doc2", 0)
    expected = reference_tables(corpus, load_model(model_path), targets)
    table_text = b"".join(expected.values()).decode()
    for needed in ("Viable", "Rejected", "Discarded", "NIV",
                   "#target\tdoc1\t14\tenjoy\tzyzzyva\npet\tNIV"):
        assert needed in table_text
    outdir = tmp_path / "tables"
    main(["paraphrase", "--corpus", str(corpus_path),
          "--model", str(model_path), "--output-dir", str(outdir)])
    assert written_tables(outdir) == expected


def gold_tables(tmp_path, paraphrase_inputs, gold_records):
    """The tables ``paraphrase --gold-targets`` writes for ``gold_records``
    and those of ``reference_tables``."""
    corpus_path, model_path = paraphrase_inputs
    corpus = load_corpus(corpus_path)
    targets = []
    for doc_id, index, verb, head in gold_records:
        found = next(c for c in rescan_candidates(corpus, head)
                     if c.sentence_ref == (doc_id, index)
                     and c.verb_lemma == verb)
        targets.append(CandidateSentence(verb, found.verb_position, head,
                                         found.np_span, found.sentence_ref))
    expected = reference_tables(corpus, load_model(model_path), targets)
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join("\t".join(map(str, record)) + "\n"
                            for record in gold_records))
    outdir = tmp_path / "tables"
    main(["paraphrase", "--corpus", str(corpus_path),
          "--model", str(model_path), "--gold-targets", str(gold),
          "--output-dir", str(outdir)])
    return written_tables(outdir), expected


def test_cmd_paraphrase_gold_targets_match_rescan(tmp_path,
                                                  paraphrase_inputs):
    # gold targets may use any verb and come in any order
    written, expected = gold_tables(tmp_path, paraphrase_inputs, [
        ("doc1", 9, "begin", "meal"), ("doc1", 1, "read", "book"),
        ("doc1", 3, "enjoy", "book"), ("doc1", 0, "begin", "book")])
    assert written == expected


def test_cmd_paraphrase_repeated_gold_target_matches_rescan(
        tmp_path, paraphrase_inputs):
    """A record listed twice has two tables, written from one ranking;
    each is the per-target reference, byte for byte."""
    written, expected = gold_tables(tmp_path, paraphrase_inputs, [
        ("doc1", 1, "read", "book"), ("doc2", 0, "begin", "book"),
        ("doc1", 1, "read", "book"), ("doc1", 0, "begin", "book")])
    assert written == expected
    assert written["target-1.tsv"] == written["target-3.tsv"]


def test_cmd_paraphrase_logs_a_summary(tmp_path, paraphrase_inputs, capsys,
                                       caplog):
    """Each distinct (verb, head) is ranked once.  After the tables, one
    log line counts the targets, the distinct (verb, head) pairs ranked,
    the rows and the NotInVocabulary rows; the standard output is one line
    per table, in the targets' order."""
    corpus_path, model_path = paraphrase_inputs
    outdir = tmp_path / "tables"
    with caplog.at_level(logging.INFO, logger="metovec.cli"), \
            mock.patch("metovec.ranking.rank", wraps=rank) as ranked:
        main(["paraphrase", "--corpus", str(corpus_path),
              "--model", str(model_path), "--output-dir", str(outdir)])
    tables = {name: text.decode().splitlines()
              for name, text in written_tables(outdir).items()}
    rows = [row for lines in tables.values() for row in lines[1:]]
    keys = {tuple(lines[0].split("\t")[3:]) for lines in tables.values()}
    niv = [row for row in rows if row.split("\t")[1] == "NIV"]
    assert (len(tables), len(keys), len(rows), len(niv)) == (7, 6, 31, 7)
    assert ranked.call_count == 6
    assert [record.getMessage() for record in caplog.records] == [
        "paraphrase: 7 targets, 6 distinct (verb, head) ranked, "
        "31 rows written, 7 NotInVocabulary"]
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {outdir / f'target-{n}.tsv'} "
        f"({len(tables[f'target-{n}.tsv']) - 1} candidates)"
        for n in range(1, len(tables) + 1)]


def test_cmd_paraphrase_fails_on_unwritable_table(tmp_path, paraphrase_inputs,
                                                  capsys):
    """A table that cannot be written ends the run with an error line that
    names it, and no `wrote` line names a table that was not written."""
    corpus_path, model_path = paraphrase_inputs
    outdir = tmp_path / "tables"
    blocked = outdir / "target-2.tsv"
    blocked.mkdir(parents=True)
    with pytest.raises(SystemExit) as exit_:
        main(["paraphrase", "--corpus", str(corpus_path),
              "--model", str(model_path), "--output-dir", str(outdir)])
    assert str(exit_.value).startswith("error: ")
    assert str(blocked) in str(exit_.value)
    for line in capsys.readouterr().out.splitlines():
        path, = re.fullmatch(r"wrote (.+) \(\d+ candidates\)", line).groups()
        assert Path(path).is_file()


def test_targets_read_back_as_gold_targets(tmp_path, trained_model, capsys):
    """What `targets` prints, `paraphrase --gold-targets` reads, also when a
    document id starts with "#"; the tables are those of the found
    targets."""
    corpus = write_vertical(tmp_path / "c.vert", CHAPTER_SENTENCES,
                            doc_id="#x")
    main(["targets", "--corpus", str(corpus)])
    printed = capsys.readouterr().out
    assert printed == "#x\t0\tbegin\tchapter\n"
    gold = tmp_path / "gold.tsv"
    gold.write_text(printed)
    argv = ["paraphrase", "--corpus", str(corpus), "--model",
            str(trained_model), "--output-dir"]
    main([*argv, str(tmp_path / "found")])
    main([*argv, str(tmp_path / "gold"), "--gold-targets", str(gold)])
    found = written_tables(tmp_path / "found")
    assert list(found) == ["target-1.tsv"]
    assert written_tables(tmp_path / "gold") == found


def test_cmd_eval_shipped_fixture(capsys):
    main(["eval", "--unscored", "true-negative"])
    out = capsys.readouterr().out
    assert "targets: 41" in out
    assert "tp=52 tn=95 fp=14 fn=18" in out
    assert "phi=0.62" in out
    # the chi-square test of that phi over the 179 rows
    assert "chi2=69.1324 p=9.21e-17" in out


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


@pytest.mark.parametrize("rows, printed", [
    # nothing retrieved: precision and phi are undefined, recall is 0
    ("Read the book.\t0.4\tRejected\t+\nBurn the book.\t0.1\tDiscarded\t-\n",
     "tp=0 tn=1 fp=0 fn=1\nprecision=undefined recall=0.0000\n"),
    # no gold-positive row: recall and phi are undefined
    ("Read the book.\t0.9\tViable\t-\nBurn the book.\t0.1\tDiscarded\t-\n",
     "tp=0 tn=1 fp=1 fn=0\nprecision=0.0000 recall=undefined\n"),
], ids=["no-viable-row", "no-gold-positive"])
def test_cmd_eval_undefined_metrics(tmp_path, capsys, rows, printed):
    """An undefined metric is printed as such, and eval goes on."""
    fixture = tmp_path / "toy.tsv"
    fixture.write_text("#target\td\t0\tbegin\tbook\n" + rows)
    assert main(["eval", "--fixture", str(fixture)]) == 0
    assert capsys.readouterr().out == (
        "targets: 1  rows: 2\n" + printed
        + "phi=undefined\nchi2=undefined p=undefined\n")


def test_pr_curve_without_gold_positive_fails_first(tmp_path, capsys):
    """A PR curve has no recall without a gold-positive row: the command
    fails, naming the file, before it prints anything."""
    fixture = tmp_path / "toy.tsv"
    fixture.write_text("#target\td\t0\tbegin\tbook\n"
                       "Read the book.\t0.9\tViable\t-\n")
    with pytest.raises(SystemExit) as err:
        main(["eval", "--pr-csv", str(tmp_path / "pr.csv"),
              "--fixture", str(fixture)])
    assert capsys.readouterr().out == ""
    assert err.value.code == (f"error: {fixture}: recall undefined: "
                              "no gold-positive rows")
    assert not (tmp_path / "pr.csv").exists()


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
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "--fixture", str(fixture)])
    assert str(exit_.value) == (f"error: {fixture}:2: expected 4 fields, "
                                "got 3: the gold column is missing")


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
    if kind == "gold-targets":  # a comment, so the bad byte is the one error
        lines[0] = b"# doc index verb head"
    lines[2] = b"caf\xe9" + lines[2]
    bad.write_bytes(b"\n".join(lines))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == (
        f"error: {bad}:3: not UTF-8: 'utf-8' codec can't decode byte 0xe9 in "
        "position 3: invalid continuation byte")


def test_cmd_eval_pr_csv(tmp_path, capsys):
    out = tmp_path / "pr.csv"
    main(["eval", "--pr-csv", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,precision,recall"
    assert len(lines) == 175  # header + 174 scored rows
    last = lines[-1].split(",")
    assert float(last[2]) == 1.0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"


def test_cmd_eval_pr_csv_write_fails_first(tmp_path, capsys):
    """A PR CSV that cannot be written fails the command, naming the path,
    before it prints anything."""
    out = tmp_path / "missing" / "pr.csv"
    with pytest.raises(SystemExit) as err:
        main(["eval", "--pr-csv", str(out)])
    assert capsys.readouterr().out == ""
    assert err.value.code.startswith("error: [Errno 2] ")
    assert str(out) in err.value.code
