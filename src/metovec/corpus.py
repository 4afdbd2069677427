"""Corpus ingestion: tagged sentences, vocabulary, next-word counts."""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from sys import intern

COARSE_TAGS = frozenset({
    "NOUN", "VERB", "ADJ", "DET", "PRON", "ADV",
    "PREP", "CONJ", "NUM", "PUNCT", "OTHER",
})
# characters read from an input file at a time, before the rest of the
# block's last line.  A load holds one block; 1 MiB blocks read no faster,
# and doubled the traced peak of a 100k-token load
BLOCK_SIZE = 1 << 16


class CorpusFormatError(ValueError):
    """A malformed line of an input file, located by path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def sentence_index(path, lineno, field) -> int:
    """The sentence index ``field`` of line ``lineno`` of ``path``: ASCII
    digits only, as ``targets`` and ``write_table`` write it, so a sign,
    a space, an underscore or a non-ASCII digit is a CorpusFormatError."""
    if not (field.isascii() and field.isdigit()):
        raise CorpusFormatError(path, lineno, f"bad sentence index {field!r}")
    return int(field)


def numbered_blocks(path):
    """Yield ``(first_lineno, lines)`` for each block of the UTF-8 file at
    ``path``: its lines, their ends removed, the first of them line
    ``first_lineno``, counting from 1.  This is the one reader of every
    text input.  The file is read once, in text mode, so any file that
    opens may be read, a pipe too.  A leading byte order mark is skipped
    (``utf-8-sig``), and LF, CR and CRLF each end a line, as text mode's
    universal newlines read them; no other character does.

    Each block is ``BLOCK_SIZE`` characters and then ``readline()``, which
    completes the block's last line, however long.  A byte that does not
    decode is read as a surrogate escape, so a block that does not encode
    strictly holds one: the lines before its line are yielded as a block
    of their own, and its line raises ``path:line: not UTF-8: ...``, from
    decoding that line's own bytes, so the position is counted from the
    start of the line.  An error the caller finds on an earlier line is
    thus raised first."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape",
              newline=None) as handle:
        lineno = 1
        while block := handle.read(BLOCK_SIZE) + handle.readline():
            lines = block.split("\n")
            if not lines[-1]:  # the end of the last line starts no line
                lines.pop()
            try:
                block.encode()  # strictly, so an escaped byte fails
            except UnicodeEncodeError:
                # the line of an escaped byte does not decode: this raises
                for bad, line in enumerate(lines):
                    try:
                        line.encode("utf-8", "surrogateescape").decode()
                    except UnicodeDecodeError as exc:
                        if bad:
                            yield lineno, lines[:bad]
                        raise CorpusFormatError(
                            path, lineno + bad, f"not UTF-8: {exc}") from None
            yield lineno, lines
            lineno += len(lines)


def numbered_lines(path):
    """Yield ``(lineno, line)`` for each line of the UTF-8 file at ``path``:
    the lines of ``numbered_blocks``, one at a time, with its rules and
    errors."""
    for first, lines in numbered_blocks(path):
        yield from enumerate(lines, first)


@dataclass(slots=True)
class Sentence:
    """One sentence as three parallel columns: surface forms, lowercased
    lemmas and coarse POS tags.  A slots record, compared by value and not
    hashable; a frozen one costs ~1 us more per sentence to build."""

    tokens: tuple[str, ...]
    lemmas: tuple[str, ...]
    tags: tuple[str, ...]
    doc_id: str
    index: int

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence has no tokens")
        if not len(self.tokens) == len(self.lemmas) == len(self.tags):
            raise ValueError("sentence columns differ in length")

    @property
    def ref(self) -> tuple[str, int]:
        return (self.doc_id, self.index)


def _token_row(path, lineno, line):
    """The ``(surface, lemma, tag)`` row of token line ``line``, its
    strings interned and its lemma lowercased: three tab-separated fields,
    a non-empty surface form, a non-empty lemma and a coarse tag, or the
    located error of the first that fails, in that order."""
    fields = line.split("\t")
    if len(fields) != 3:
        raise CorpusFormatError(
            path, lineno,
            f"expected 3 tab-separated fields, got {len(fields)}")
    surface, lemma, pos = fields
    if not surface:
        raise CorpusFormatError(path, lineno, "empty surface form")
    if not lemma:
        raise CorpusFormatError(path, lineno, "empty lemma")
    if pos not in COARSE_TAGS:
        raise CorpusFormatError(path, lineno, f"unknown POS tag {pos!r}")
    return intern(surface), intern(lemma.lower()), intern(pos)


def _read_vertical(path):
    doc_id = str(path)
    index = 0
    pending = []  # (surface, lemma, tag) rows of the open sentence
    parsed = {}  # each distinct token line, by its text: its row
    for first, lines in numbered_blocks(path):
        for lineno, line in enumerate(lines, first):
            row = parsed.get(line)
            if row is None:
                # a #doc marker or a blank line ends the open sentence.  A
                # token line has tabs, so "#doc x<TAB>..." is a token
                marker = line.startswith("#doc ") and "\t" not in line
                if marker or not line.strip():
                    if pending:
                        yield Sentence(*zip(*pending), doc_id, index)
                        pending = []
                        index += 1
                    if marker:
                        doc_id = line[len("#doc "):].strip()
                        index = 0
                    continue
                row = parsed[line] = _token_row(path, lineno, line)
            pending.append(row)
    if pending:
        yield Sentence(*zip(*pending), doc_id, index)


def _read_plain(path):
    doc_id = str(path)
    index = 0
    for _, line in numbered_lines(path):
        words = line.split()
        if not words:
            continue
        yield Sentence(
            tuple(words), tuple(w.lower() for w in words),
            tuple("OTHER" if w.strip(string.punctuation) else "PUNCT"
                  for w in words),
            doc_id, index)
        index += 1


def load_corpus(path, format: str = "vertical") -> tuple[Sentence, ...]:
    """Read a corpus file into a tuple of sentences.

    ``vertical`` is one ``surface<TAB>lemma<TAB>pos`` token per line with
    blank lines between sentences and ``#doc <id>`` lines (with no tab)
    starting a new document.  ``plain`` is one sentence per line,
    whitespace-tokenized, with lemma = lowercased surface and pos = OTHER
    (PUNCT for punctuation-only tokens).  ``path`` may name any file that
    opens for reading, such as a named pipe or ``/dev/stdin``: both readers
    take its lines from ``numbered_blocks``, which reads it once in text
    mode, in blocks of ``BLOCK_SIZE`` characters each completed to a line
    end by ``readline``, and locates a byte that is not UTF-8, read as a
    surrogate escape, by line on any file.  The plain reader takes them
    one at a time from ``numbered_lines``; the vertical reader loops over
    each block's lines itself, which saves resuming a generator per line.

    The vertical reader looks each line up in a table of the token lines
    it has read, keyed by their text.  Only a line not in the table is
    checked: a marker or a blank line ends the open sentence, and any other
    line is held to the token-line rule, which is stated once, in
    ``_token_row``, and its row added to the table.  Beside one block, the
    table takes about 200 bytes per distinct token line, ~2 MiB for the 10k
    of a 100k-token corpus: it grows with the corpus's distinct (surface,
    lemma, tag) triples, not with its tokens.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    if format == "vertical":
        return tuple(_read_vertical(path))
    if format == "plain":
        return tuple(_read_plain(path))
    raise ValueError(f"unknown corpus format {format!r}")


@dataclass
class Vocabulary:
    """Lemma -> dense id map, capped at the ``max_size`` most frequent types.

    Words are ordered by descending count, ties broken by ascending lemma,
    and ids assigned densely in that order.
    """

    words: tuple[str, ...]
    counts: tuple[int, ...]
    total_tokens: int
    max_size: int
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            seen = set()  # name the first word equal to an earlier one
            for word in self.words:
                if word in seen:
                    raise ValueError(f"word {word!r} appears twice")
                seen.add(word)

    def __len__(self):
        return len(self.words)

    def __contains__(self, lemma):
        return lemma in self.index


def build_vocabulary(corpus, max_size: int, min_count: int = 1) -> Vocabulary:
    """Count lemmas and keep the top ``max_size`` at or above ``min_count``,
    in descending count, ties by ascending lemma (code point order).
    ``corpus`` may be any iterable of sentences, a one-shot generator
    too: it is read once."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(chain.from_iterable(
        sentence.lemmas for sentence in corpus))
    # ascending, then a stable sort by descending count: the order of
    # (-count, lemma), with no key tuple or lambda call per word
    words = sorted(counts)
    words.sort(key=counts.__getitem__, reverse=True)
    # counts descend, so the words under min_count are a suffix
    kept = [w for w in words[:max_size] if counts[w] >= min_count]
    return Vocabulary(
        words=tuple(kept),
        counts=tuple(map(counts.__getitem__, kept)),
        total_tokens=counts.total(),
        max_size=max_size,
    )


class NextWordCounts:
    """Sparse count(w_i | w_{i+1}) rows over the vocabulary."""

    def __init__(self, rows: dict, vocab: Vocabulary):
        self.rows = rows
        self.vocab = vocab

    def row_vector(self, focus: str) -> list[int]:
        """Dense row over the vocabulary, in alphabetical order."""
        row = self.rows.get(focus, {})
        return [row.get(col, 0) for col in sorted(self.vocab.words)]


def next_word_counts(corpus, vocab: Vocabulary) -> NextWordCounts:
    """Count immediate successors within sentences; OOV tokens are skipped
    both as focus and as successor, and no pairs cross sentence boundaries.
    ``corpus`` may be any iterable of sentences: it is read once."""
    rows: dict[str, dict[str, int]] = {}
    known = vocab.index
    for sentence in corpus:
        lemmas = sentence.lemmas
        for focus, follower in zip(lemmas, lemmas[1:]):
            if focus in known and follower in known:
                row = rows.get(focus)
                if row is None:
                    rows[focus] = {follower: 1}
                else:
                    row[follower] = row.get(follower, 0) + 1
    return NextWordCounts(rows, vocab)
