import os
import re
import string
import tempfile
import threading
from collections import Counter
from pathlib import Path
from sys import intern
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from metovec import corpus as corpus_module
from metovec.corpus import (COARSE_TAGS, CorpusFormatError, Sentence,
                            Vocabulary, build_vocabulary, load_corpus,
                            next_word_counts)
from metovec.evaluation import load_fixture
from metovec.metonymy import load_gold_targets

from conftest import write_vertical


def test_vertical_two_sentences(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [
        [("The", "the", "DET"), ("cat", "cat", "NOUN"),
         ("sat", "sit", "VERB")],
        [("A", "a", "DET"), ("dog", "dog", "NOUN"),
         ("ran", "run", "VERB")],
    ])
    corp = load_corpus(path, "vertical")
    sentences = list(corp)
    assert len(sentences) == 2
    assert all(len(s.tokens) == 3 for s in sentences)
    assert sentences[0].doc_id == "doc1"
    assert sentences[0].index == 0 and sentences[1].index == 1


def test_plain_mode_lowercases(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("What is good for the goose\n")
    sentences = list(load_corpus(path, "plain"))
    assert len(sentences) == 1
    assert len(sentences[0].tokens) == 6
    assert sentences[0].lemmas == (
        "what", "is", "good", "for", "the", "goose")
    assert sentences[0].tokens[0] == "What"


def test_plain_punct_token(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("hello , world !\n")
    tags = list(load_corpus(path, "plain"))[0].tags
    assert tags == ("OTHER", "PUNCT", "OTHER", "PUNCT")


# ASCII punctuation, letters, digits, and non-ASCII punctuation that the
# plain reader does not count as punctuation
plain_word = st.text(alphabet=st.sampled_from(
    [*string.punctuation, *"aZ7é", "\u2014", "\u00ab", "\u00bb", "\u2026"]),
    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(plain_word, min_size=1, max_size=6))
@example(["\u2014", "\u00ab", "...", "\u00ab,\u00bb", "-"])
def test_plain_punct_tag_is_all_ascii_punctuation(words):
    """A plain word is PUNCT when every character is ASCII punctuation."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        path.write_text(" ".join(words) + "\n", encoding="utf-8")
        (sentence,) = load_corpus(path, "plain")
    assert sentence.tags == tuple(
        "PUNCT" if all(c in string.punctuation for c in w) else "OTHER"
        for w in words)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert len(load_corpus(path, "vertical")) == 0
    assert len(load_corpus(path, "plain")) == 0


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope.txt", "plain")


def test_any_file_that_opens_is_read():
    assert load_corpus(os.devnull, "vertical") == ()
    assert load_corpus(os.devnull, "plain") == ()


def test_directory_fails_with_its_os_error(tmp_path):
    with pytest.raises(IsADirectoryError):
        load_corpus(tmp_path, "vertical")


def read_through_fifo(tmp_path, data):
    """``load_corpus`` of a named pipe that one thread writes ``data``
    into, read in a second thread: the sentences, or the exception raised.
    Both threads are joined with a timeout, so a reader that opened the
    pipe a second time would fail the test, not hang it."""
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    outcome = []

    def read():
        try:
            outcome.append(load_corpus(fifo, "vertical"))
        except Exception as exc:
            outcome.append(exc)

    threads = [threading.Thread(target=fifo.write_bytes, args=(data,),
                                daemon=True),
               threading.Thread(target=read, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    return outcome[0]


def test_vertical_corpus_through_a_named_pipe(tmp_path):
    path = write_vertical(tmp_path / "c.vert", [
        [("The", "the", "DET"), ("cat", "cat", "NOUN")],
        [("It", "it", "PRON"), ("ran", "run", "VERB")],
    ], doc_id="d")
    assert read_through_fifo(tmp_path, path.read_bytes()) \
        == load_corpus(path, "vertical")


def test_bad_byte_through_a_named_pipe_is_located(tmp_path):
    """A pipe is read once, and a bad byte's line is found in that read,
    as in a regular file."""
    error = read_through_fifo(tmp_path,
                              b"#doc d\nbook\tbook\tNOUN\ncaf\xe9\tx\tNOUN\n")
    assert isinstance(error, CorpusFormatError)
    assert error.lineno == 3
    assert str(error) == (
        f"{tmp_path / 'corpus.fifo'}:3: not UTF-8: 'utf-8' codec can't "
        "decode byte 0xe9 in position 3: invalid continuation byte")


def test_unknown_format(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("x\n")
    with pytest.raises(ValueError):
        load_corpus(path, "sideways")


def test_malformed_vertical_names_line(tmp_path):
    path = tmp_path / "bad.vert"
    path.write_text("The\tthe\tDET\ncat cat NOUN\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "vertical")
    assert err.value.lineno == 2


def test_bad_pos_tag(tmp_path):
    path = tmp_path / "bad.vert"
    path.write_text("The\tthe\tDET\ncat\tcat\tDETERMINER\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "vertical")
    assert err.value.lineno == 2
    assert str(err.value) == f"{path}:2: unknown POS tag 'DETERMINER'"


def test_doc_marker_has_no_tab(tmp_path):
    path = tmp_path / "c.vert"
    path.write_text("#doc a\n#doc x\tfoo\tNOUN\nbook\tbook\tNOUN\n")
    [sentence] = load_corpus(path, "vertical")
    assert sentence.ref == ("a", 0)
    assert sentence.tokens == ("#doc x", "book")
    assert sentence.lemmas == ("foo", "book")
    assert sentence.tags == ("NOUN", "NOUN")


@pytest.mark.parametrize("line, message", [
    ("\tthe\tDET", "empty surface form"),
    ("The\t\tDET", "empty lemma"),
])
def test_empty_field_names_line(tmp_path, line, message):
    path = tmp_path / "bad.vert"
    path.write_text(f"#doc d\nA\ta\tDET\n\n{line}\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "vertical")
    assert err.value.lineno == 4
    assert str(err.value) == f"{path}:4: {message}"


def test_sentence_columns_same_length():
    with pytest.raises(ValueError, match="differ in length"):
        Sentence(("a", "b"), ("a", "b"), ("DET",), "d", 0)
    with pytest.raises(ValueError, match="no tokens"):
        Sentence((), (), (), "d", 0)


def test_doc_markers(tmp_path):
    path = tmp_path / "c.vert"
    path.write_text("#doc aca/CRS\nx\tx\tNOUN\n\n#doc fic/CDB\ny\ty\tNOUN\n")
    sentences = list(load_corpus(path, "vertical"))
    assert [s.ref for s in sentences] == [("aca/CRS", 0), ("fic/CDB", 0)]


def test_proverb_vocabulary(proverb_path):
    corp = load_corpus(proverb_path, "plain")
    vocab = build_vocabulary(corp, max_size=100)
    assert sorted(vocab.words) == [
        "for", "gander", "good", "goose", "is", "the", "what"]
    assert vocab.total_tokens == 11
    assert vocab.counts[vocab.index["good"]] == 2
    assert vocab.counts[vocab.index["gander"]] == 1


def test_vocab_cap_tie_break(proverb_path):
    # count-2 words are {for, good, is, the}; the cap keeps the
    # lexicographically smallest
    corp = load_corpus(proverb_path, "plain")
    vocab = build_vocabulary(corp, max_size=2)
    assert vocab.words == ("for", "good")


def test_vocab_min_count(proverb_path):
    corp = load_corpus(proverb_path, "plain")
    vocab = build_vocabulary(corp, max_size=100, min_count=2)
    assert sorted(vocab.words) == ["for", "good", "is", "the"]


def test_empty_corpus_vocab(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    vocab = build_vocabulary(load_corpus(path, "plain"), max_size=10)
    assert len(vocab) == 0


def test_vocab_parameter_validation(proverb_path):
    corp = load_corpus(proverb_path, "plain")
    with pytest.raises(ValueError):
        build_vocabulary(corp, max_size=0)
    with pytest.raises(ValueError):
        build_vocabulary(corp, max_size=5, min_count=0)


def test_vocab_rejects_repeated_word():
    """Each word maps to one row; a repeat would leave its first row
    unreachable and make a model save_model writes but load_model
    refuses."""
    with pytest.raises(ValueError, match="^word 'a' appears twice$"):
        Vocabulary(words=("a", "a", "b"), counts=(3, 2, 1), total_tokens=6,
                   max_size=3)


def test_vocab_deterministic(proverb_path):
    corp = load_corpus(proverb_path, "plain")
    a = build_vocabulary(corp, max_size=100)
    b = build_vocabulary(corp, max_size=100)
    assert a.words == b.words and a.counts == b.counts


def test_next_word_counts_table(proverb_path):
    corp = load_corpus(proverb_path, "plain")
    vocab = build_vocabulary(corp, max_size=100)
    counts = next_word_counts(corp, vocab)
    assert counts.row_vector("good") == [2, 0, 0, 0, 0, 0, 0]
    assert counts.row_vector("goose") == [0, 0, 0, 0, 1, 0, 0]


def test_single_token_sentence_no_pairs(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alone\nalone\n")
    corp = load_corpus(path, "plain")
    vocab = build_vocabulary(corp, max_size=10)
    counts = next_word_counts(corp, vocab)
    assert counts.rows == {}


def test_no_cross_sentence_pairs(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc d\n")
    corp = load_corpus(path, "plain")
    vocab = build_vocabulary(corp, max_size=10)
    counts = next_word_counts(corp, vocab)
    assert counts.rows == {"a": {"b": 1}, "c": {"d": 1}}


def test_oov_tokens_skipped_in_counts(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b a b rare\n")
    corp = load_corpus(path, "plain")
    vocab = build_vocabulary(corp, max_size=2)
    counts = next_word_counts(corp, vocab)
    assert "rare" not in counts.rows
    assert counts.rows["b"] == {"a": 1}


def test_row_sum_matches_brute_force(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b c a b\nb a c c b a\na a a\n")
    corp = load_corpus(path, "plain")
    vocab = build_vocabulary(corp, max_size=10)
    counts = next_word_counts(corp, vocab)
    for focus in vocab.words:
        expected = 0
        for sentence in corp:
            lemmas = sentence.lemmas
            expected += sum(1 for i in range(len(lemmas) - 1)
                            if lemmas[i] == focus and lemmas[i + 1] in vocab)
        assert sum(counts.rows.get(focus, {}).values()) == expected


# lemmas from a small pool, so counts tie; "B" sorts before "a" by code
# point, as the order rule sorts
pooled_lemmas = st.lists(st.sampled_from(["a", "b", "c", "ab", "B", "é"]),
                         min_size=1, max_size=6)


def pooled_sentences(lemma_lists):
    return [Sentence(tuple(lemmas), tuple(lemmas), ("OTHER",) * len(lemmas),
                     "d", index)
            for index, lemmas in enumerate(lemma_lists)]


@settings(max_examples=200, deadline=None)
@given(st.lists(pooled_lemmas, max_size=6), st.integers(1, 7),
       st.integers(1, 4))
# a, b and c tie at the cut of max_size=2: the smaller lemmas stay
@example([["c", "b", "a"], ["a", "b", "c"]], 2, 1)
# b and c tie at the cut, and "é" falls under min_count
@example([["b", "c", "a", "a"], ["b", "c", "é"]], 2, 2)
def test_vocabulary_follows_the_order_rule(lemma_lists, max_size, min_count):
    """Words sorted by (-count, lemma), those under min_count dropped, then
    cut to max_size; total_tokens counts every token.  The corpus is a
    one-shot generator, read once."""
    sentences = pooled_sentences(lemma_lists)
    counts = {}
    for sentence in sentences:
        for lemma in sentence.lemmas:
            counts[lemma] = counts.get(lemma, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    kept = [(w, c) for w, c in ranked if c >= min_count][:max_size]
    vocab = build_vocabulary((s for s in sentences), max_size, min_count)
    assert vocab.words == tuple(w for w, _ in kept)
    assert vocab.counts == tuple(c for _, c in kept)
    assert vocab.total_tokens == sum(counts.values())
    assert vocab.max_size == max_size


@settings(max_examples=200, deadline=None)
@given(st.lists(pooled_lemmas, max_size=6),
       st.sets(st.sampled_from(["a", "b", "c", "ab", "B", "é"])))
# "c" ends one sentence and starts the next: no pair (c, c)
@example([["a", "c"], ["c", "a"]], {"a", "c"})
def test_next_word_counts_match_adjacent_pairs(lemma_lists, known):
    """Each row counts the in-vocabulary lemmas that follow its focus in
    one sentence: a pair with an OOV word on either side is skipped, no
    pair crosses a sentence and no row is empty.  The corpus is a one-shot
    generator."""
    sentences = pooled_sentences(lemma_lists)
    pairs = Counter()
    for sentence in sentences:
        lemmas = sentence.lemmas
        for i in range(len(lemmas) - 1):
            if lemmas[i] in known and lemmas[i + 1] in known:
                pairs[lemmas[i], lemmas[i + 1]] += 1
    words = tuple(sorted(known))
    vocab = Vocabulary(words=words, counts=(1,) * len(words),
                       total_tokens=len(words), max_size=len(words) or 1)
    rows = next_word_counts((s for s in sentences), vocab).rows
    assert {(focus, follower): count for focus, row in rows.items()
            for follower, count in row.items()} == pairs
    assert all(rows.values())


# one vertical field: any UTF-8 text without the tab and line-break
# characters that delimit fields and lines (spaces and non-ASCII included)
field_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    min_size=1, max_size=8)
vertical_sentence = st.lists(
    st.tuples(field_text, field_text, st.sampled_from(sorted(COARSE_TAGS))),
    min_size=1, max_size=5)
# each sentence with the number of blank lines written after it
document_body = st.lists(st.tuples(vertical_sentence, st.integers(0, 3)),
                         max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), document_body,
       st.lists(st.tuples(field_text, document_body), max_size=3))
def test_vertical_round_trip(leading_blanks, unmarked, documents):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.vert"
        lines = [""] * leading_blanks
        expected = []
        for marker, body in [(None, unmarked), *documents]:
            if marker is None:
                doc_id = str(path)
            else:
                lines.append(f"#doc {marker}")
                doc_id = marker.strip()
            for index, (rows, blanks) in enumerate(body):
                lines.extend("\t".join(row) for row in rows)
                # sentences of one document need a blank line between them
                last = index == len(body) - 1
                lines.extend([""] * (blanks if last else max(blanks, 1)))
                surfaces, lemmas, tags = zip(*rows)
                expected.append(((doc_id, index), surfaces,
                                 tuple(lemma.lower() for lemma in lemmas),
                                 tags))
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        corpus = load_corpus(path, "vertical")
    assert [(s.ref, s.tokens, s.lemmas, s.tags) for s in corpus] == expected


def vertical_oracle(path, text):
    """The vertical format's rules, one check at a time: the sentences of
    ``text`` as (tokens, lemmas, tags, doc_id, index) tuples, or the
    message of its first malformed line."""
    # a leading byte order mark is skipped; a later U+FEFF is text
    lines = re.split("\r\n|\r|\n", text.removeprefix("\ufeff"))
    if lines[-1] == "":  # the end of the last line starts no line
        lines.pop()
    doc_id, index, rows, sentences = str(path), 0, [], []

    def close():
        sentences.append((*map(tuple, zip(*rows)), doc_id, index))
        rows.clear()

    for lineno, line in enumerate(lines, 1):
        if line.startswith("#doc ") and "\t" not in line:
            if rows:
                close()
            doc_id, index = line[len("#doc "):].strip(), 0
        elif not line.strip():
            if rows:
                close()
                index += 1
        else:
            fields = line.split("\t")
            if len(fields) != 3:
                return (f"{path}:{lineno}: expected 3 tab-separated "
                        f"fields, got {len(fields)}")
            surface, lemma, pos = fields
            if not surface:
                return f"{path}:{lineno}: empty surface form"
            if not lemma:
                return f"{path}:{lineno}: empty lemma"
            if pos not in COARSE_TAGS:
                return f"{path}:{lineno}: unknown POS tag {pos!r}"
            rows.append((surface, lemma.lower(), pos))
    if rows:
        close()
    return sentences


tag = st.sampled_from(sorted(COARSE_TAGS))
token_line = st.builds("{}\t{}\t{}".format, field_text, field_text, tag)
spaces = st.text(" \t\x0b\x0c\x1c\x85\u2028", max_size=3)
# each kind of line a vertical file may hold
good_line = st.one_of(
    token_line,
    # a marker, whose id is stripped
    st.builds("#doc {}{}{}".format, spaces.filter(lambda s: "\t" not in s),
              field_text, st.sampled_from(["", " ", "\x0c"])),
    st.builds("#doc {}".format, token_line),  # a token, for it has tabs
    st.just(""),
    # whitespace only, with at least one tab: ends a sentence
    st.builds("{}\t{}".format, spaces, spaces))
# one line of each malformed kind: some have a later kind's fault too, and
# some start as a marker does
maybe_empty = field_text | st.just("")
bad_lines = st.tuples(*(
    st.builds("{}{}".format, st.sampled_from(["", "#doc "]), line)
    for line in [
        st.builds("\t".join, st.lists(maybe_empty, min_size=1, max_size=5)
                  .filter(lambda fields: len(fields) != 3)),
        st.builds("\t{}\t{}".format, maybe_empty, tag | st.just("noun")),
        st.builds("{}\t\t{}".format, field_text, tag | st.just("noun")),
        st.builds("{}\t{}\t{}".format, field_text, field_text,
                  st.sampled_from(["", "noun", "NOUN ", "DETERMINER"]))]))


@st.composite
def vertical_text(draw):
    lines = draw(st.lists(good_line, max_size=30))
    for line in draw(bad_lines):
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), line)
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):  # no end after the last line
        text = text[:-len(ends[-1])]
    return text


def assert_format_rules(text):
    """The reader gives the sentences the format's rules give ``text``, or
    their first error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.vert"
        path.write_bytes(text.encode())
        expected = vertical_oracle(path, text)
        if isinstance(expected, str):
            with pytest.raises(CorpusFormatError) as err:
                load_corpus(path, "vertical")
            assert str(err.value) == expected
        else:
            assert [(s.tokens, s.lemmas, s.tags, s.doc_id, s.index)
                    for s in load_corpus(path, "vertical")] == expected


@settings(max_examples=300, deadline=None)
@given(vertical_text())
@example("#doc a\rA\ta\tDET\r\n\t\r#doc b\tB\tNOUN\n \t \nc\tC\tADJ")
@example("A\ta\tDET\n#doc\tx\n")
@example("A\ta\tDET\n\tb\tNOUN\n\nB\t\tNOUN\n")
@example("\ufeffA\ta\tDET\n\ufeffB\tb\tNOUN\n")
# a marker right after a token line ends its sentence, as a blank line does
@example("A\ta\tDET\n#doc d\nB\tb\tNOUN\nC\tc\tNOUN\n#doc e\n")
# a run of blank and whitespace-only lines ends one sentence
@example("A\ta\tDET\n\n \t \n\n\t\nB\tb\tNOUN\n \t \n\n")
def test_vertical_reader_matches_the_format_rules(text):
    """Every line kind, malformed lines and mixed line ends: the reader
    gives the sentences the format's rules give, or their first error."""
    assert_format_rules(text)


@settings(max_examples=300, deadline=None)
@given(vertical_text(), st.integers(1, 16))
# with 1-character blocks each block is the first character of a line and
# the rest of it, which readline reads: every longer line crosses an edge
@example("#doc a\rA\ta\tDET\r\n\t\r#doc b\tB\tNOUN\n \t \nc\tC\tADJ", 1)
@example("caf\u00e9\tcaf\u00e9\tNOUN\r\n\r\ncaf\u00e9\tCAF\u00c9\tNOUN\r", 1)
# a byte order mark is skipped only at the start of the file
@example("A\ta\tDET\n\ufeffB\tb\tNOUN\n", 1)
@example("A\ta\tDET\n#doc d\nB\tb\tNOUN\nC\tc\tNOUN\n#doc e\n", 3)
@example("A\ta\tDET\n\n \t \n\n\t\nB\tb\tNOUN\n \t \n\n", 2)
def test_vertical_reader_matches_the_format_rules_in_small_blocks(
        text, block_size):
    """The format's rules hold whatever the block size: a line longer than
    a block, CRLF included, is completed by readline."""
    with mock.patch.object(corpus_module, "BLOCK_SIZE", block_size):
        assert_format_rules(text)


def test_a_repeated_token_line_gives_the_same_objects_in_every_block(
        tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_module, "BLOCK_SIZE", 8)
    path = tmp_path / "c.vert"
    path.write_text("Book\tBOOK\tNOUN\n\n" * 3)
    sentences = load_corpus(path, "vertical")
    assert [s.ref for s in sentences] == [(str(path), i) for i in range(3)]
    assert all(s.tokens[0] is intern("Book") and s.lemmas[0] is intern("book")
               and s.tags[0] is sentences[0].tags[0] for s in sentences)


def test_each_distinct_token_line_is_checked_once(tmp_path, monkeypatch):
    """The token-line rule sees each distinct token line once, whatever
    block its repeats fall in, and never a marker or a blank line."""
    monkeypatch.setattr(corpus_module, "BLOCK_SIZE", 8)
    rule = mock.Mock(wraps=corpus_module._token_row)
    monkeypatch.setattr(corpus_module, "_token_row", rule)
    path = tmp_path / "c.vert"
    path.write_text("#doc d\nBook\tbook\tNOUN\nread\tread\tVERB\n\n \t \n" * 3
                    + "Book\tbook\tNOUN\n")
    sentences = load_corpus(path, "vertical")
    assert [s.ref for s in sentences] == [("d", 0)] * 3 + [("d", 1)]
    assert [call.args[2] for call in rule.call_args_list] == [
        "Book\tbook\tNOUN", "read\tread\tVERB"]


def test_bad_byte_on_a_later_block_is_located(tmp_path, monkeypatch):
    """A bad byte is located by line whatever block holds it, and on a
    pipe as on a regular file."""
    monkeypatch.setattr(corpus_module, "BLOCK_SIZE", 5)
    data = b"#doc d\nbook\tbook\tNOUN\n\r\nread\tr\xe9ad\tVERB\n"
    path = tmp_path / "c.vert"
    path.write_bytes(data)
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "vertical")
    message = ("not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position "
               "6: invalid continuation byte")
    assert (err.value.lineno, str(err.value)) == (4, f"{path}:4: {message}")
    error = read_through_fifo(tmp_path, data)
    assert str(error) == f"{tmp_path / 'corpus.fifo'}:4: {message}"


@pytest.mark.parametrize("text", ["caf\u00e9", "\u20ac", "caf\u00e9\u20ac"],
                         ids=["e-acute", "euro", "both"])
def test_bad_byte_beside_non_ascii_text_is_located(tmp_path, text):
    """A block holding "\u00e9", "\u20ac" or both, and a bad byte, fails
    with the bad byte's located error; without the bad byte it reads."""
    good = f"#doc d\n{text}\tx\tNOUN\n".encode()
    path = tmp_path / "c.vert"
    path.write_bytes(good + b"read\tr\xe9ad\tVERB\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path, "vertical")
    assert str(err.value) == (
        f"{path}:3: not UTF-8: 'utf-8' codec can't decode byte 0xe9 in "
        "position 6: invalid continuation byte")
    path.write_bytes(good)
    assert [s.tokens for s in load_corpus(path, "vertical")] == [(text,)]


def lines_oracle(path, data):
    """The line rules on the bytes ``data`` of ``path``: its ``(lineno,
    line)`` pairs, up to the message of its first line that is not UTF-8."""
    # a leading byte order mark is skipped; LF, CR and CRLF each end a line
    lines = re.split(b"\r\n|\r|\n", data.removeprefix(b"\xef\xbb\xbf"))
    if lines[-1] == b"":  # the end of the last line starts no line
        lines.pop()
    read = []
    for lineno, line in enumerate(lines, 1):
        try:
            read.append((lineno, line.decode("utf-8")))
        except UnicodeDecodeError as exc:
            read.append(f"{path}:{lineno}: not UTF-8: {exc}")
            break
    return read


# ASCII, multi-byte characters, each line end, a byte order mark, a byte
# that never starts a character, a truncated "€" and an encoded surrogate
byte_piece = st.sampled_from([
    b"a", b"\t", b" ", "é".encode(), "€".encode(), "\U0001d11e".encode(),
    b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\xff", b"\xe2\x82",
    b"\xed\xa0\x80"])


@settings(max_examples=300, deadline=None)
@given(st.lists(byte_piece, max_size=30).map(b"".join),
       st.integers(1, 16) | st.just(corpus_module.BLOCK_SIZE))
# a bad byte on line 1 after a byte order mark: its position is counted
# from the start of the line, after the mark
@example(b"\xef\xbb\xbfcaf\xe9\r\nbook\n", corpus_module.BLOCK_SIZE)
# after a CRLF line, a truncated character that a 1-character block cuts
# and a CR ends: line 2 is the one located
@example(b"a\r\n\xe2\x82\rb\r\n\xff", 1)
def test_numbered_lines_follow_the_line_rules_on_any_bytes(data, block_size):
    """Bad bytes anywhere, at any block edge: the reader yields each line
    the rules give, and stops with the located error of the first line
    that is not UTF-8."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(corpus_module, "BLOCK_SIZE", block_size):
        path = Path(tmp) / "input"
        path.write_bytes(data)
        read = []
        try:
            read.extend(corpus_module.numbered_lines(path))
        except CorpusFormatError as exc:
            read.append(str(exc))
        assert read == lines_oracle(path, data)


BEGIN_THE_BOOK = Sentence(("They", "begin", "the", "book"),
                          ("they", "begin", "the", "book"),
                          ("PRON", "VERB", "DET", "NOUN"), "d", 0)
# one LF file per reader, with a blank line where the reader skips them,
# and what the reader makes of it
LF_INPUTS = {
    "vertical": ("#doc d\nThey\tthey\tPRON\nread\tread\tVERB\n\n"
                 "A\ta\tDET\nbook\tbook\tNOUN\n", load_corpus),
    "plain": ("the goose\n\nthe gander\n",
              lambda path: load_corpus(path, "plain")),
    "gold-targets": ("# doc index verb head\n\nd\t0\tbegin\tbook\n",
                     lambda path: load_gold_targets(path, [BEGIN_THE_BOOK])),
    "fixture": ("#target\td\t0\tbegin\tbook\n\n"
                "Read the book.\t0.9\tViable\t+\n"
                "Burn the book.\tNIV\tNotInVocabulary\t-\n", load_fixture),
}


@pytest.mark.parametrize("kind, data, message", [
    ("vertical", b"a\tb\n\ncaf\xe9\tcafe\tNOUN\n",
     "expected 3 tab-separated fields, got 2"),
    ("gold-targets", b"d\t0\tbegin\n\ncaf\xe9\t0\tbegin\tbook\n",
     "expected 4 tab-separated fields, got 3")],
    ids=["vertical", "gold-targets"])
def test_a_malformed_line_before_a_bad_byte_is_reported_first(
        tmp_path, kind, data, message):
    """A malformed line 1 fails the read before a bad byte on line 3 of
    the same block: each file's first error is the one reported."""
    path = tmp_path / "input"
    path.write_bytes(data)
    assert len(data) < corpus_module.BLOCK_SIZE
    with pytest.raises(CorpusFormatError) as err:
        LF_INPUTS[kind][1](path)
    assert str(err.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
@pytest.mark.parametrize("kind", LF_INPUTS)
def test_every_reader_ends_lines_alike(tmp_path, kind, end):
    """LF, CRLF and a lone CR each end a line, in every input reader."""
    text, read = LF_INPUTS[kind]
    path = tmp_path / "input"
    path.write_bytes(text.encode())
    expected = read(path)
    path.write_bytes(text.replace("\n", end).encode())
    assert read(path) == expected


@pytest.mark.parametrize("kind", LF_INPUTS)
def test_every_reader_skips_a_leading_bom(tmp_path, kind):
    """A UTF-8 byte order mark, as some editors write, is not part of the
    first line."""
    text, read = LF_INPUTS[kind]
    path = tmp_path / "input"
    path.write_bytes(text.encode())
    expected = read(path)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert read(path) == expected


@pytest.mark.parametrize("block_size", [1, 2, 3, 7])
@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
@pytest.mark.parametrize("kind", LF_INPUTS)
def test_every_reader_ends_lines_alike_in_small_blocks(
        tmp_path, monkeypatch, kind, end, block_size):
    monkeypatch.setattr(corpus_module, "BLOCK_SIZE", block_size)
    test_every_reader_ends_lines_alike(tmp_path, kind, end)


@pytest.mark.parametrize("block_size", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", LF_INPUTS)
def test_every_reader_skips_a_leading_bom_in_small_blocks(
        tmp_path, monkeypatch, kind, block_size):
    monkeypatch.setattr(corpus_module, "BLOCK_SIZE", block_size)
    test_every_reader_skips_a_leading_bom(tmp_path, kind)


def test_lone_cr_ends_a_fixture_row(tmp_path):
    path = tmp_path / "cr.tsv"
    path.write_bytes(b"#target\td\t0\tbegin\tbook\n"
                     b"Read the\rbook.\t0.9\tViable\t+\n")
    with pytest.raises(ValueError) as err:
        load_fixture(path)
    assert str(err.value) == f"{path}:2: expected 4 fields, got 1"
