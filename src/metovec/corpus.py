"""Corpus ingestion: tagged sentences, vocabulary, next-word counts."""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from sys import intern

COARSE_TAGS = frozenset({
    "NOUN", "VERB", "ADJ", "DET", "PRON", "ADV",
    "PREP", "CONJ", "NUM", "PUNCT", "OTHER",
})
# bytes read from an input file at a time.  A load holds one block; 1 MiB
# blocks read no faster, and doubled the traced peak of a 100k-token load
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


def _blocks(path):
    """Yield ``(lineno, lines)`` for each block of the UTF-8 file at
    ``path``: the block's lines, their ends removed, and the number of the
    first, counting from 1.  The file is read once, ``BLOCK_SIZE`` bytes at
    a time, and each block is cut after its last line end; a trailing CR
    is held back, for it may be the first half of a CRLF.  A line longer
    than a block is held until its end is read.  Each block is decoded
    before its first line is yielded, so a bad byte in a block fails the
    read before any other error on its lines does, and the last block
    holds all that is left at the end of the file."""
    with open(path, "rb") as handle:
        rest = bytearray()
        lineno = 1
        while True:
            data = handle.read(BLOCK_SIZE)
            # the held-back part has no line end, but for a trailing CR
            seen = max(len(rest) - 1, 0)
            rest += data
            if len(data) == BLOCK_SIZE:  # a shorter read ends the file
                cut = max(rest.rfind(b"\n", seen),
                          rest.rfind(b"\r", seen, -1)) + 1
                if not cut:
                    continue
            elif rest:
                cut = len(rest)
            else:
                return
            block = bytes(rest[:cut])
            del rest[:cut]
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                _locate_bad_byte(path, lineno, block, exc.start)
                raise
            if lineno == 1 and text.startswith("\ufeff"):
                text = text[1:]
            lines = text.split("\n")
            if not lines[-1]:  # the end of the last line starts no line
                lines.pop()
            yield lineno, lines
            lineno += len(lines)


def _locate_bad_byte(path, lineno, block, position):
    """Raise the located error for the byte at ``position`` of ``block``,
    whose first line is line ``lineno``.  Its line is decoded alone, so the
    message gives the byte's position in that line."""
    start = block.rfind(b"\n", 0, position) + 1
    end = block.find(b"\n", position)
    try:
        block[start:end if end >= 0 else None].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(path,
                                lineno + block.count(b"\n", 0, start),
                                f"not UTF-8: {exc}") from None


def numbered_lines(path):
    """Yield ``(lineno, line)`` for each line of the UTF-8 file at ``path``,
    counting from 1, its end removed.  A leading byte order mark is skipped.
    LF, CR and CRLF each end a line, as in text mode, and no other character
    does.  The file is read once, in blocks of ``BLOCK_SIZE`` bytes, so any
    file that opens may be read, a pipe too.  A byte that does not decode
    raises ``path:line: not UTF-8: ...`` on any file, its position counted
    from the start of its line."""
    for lineno, lines in _blocks(path):
        yield from enumerate(lines, lineno)


@dataclass(frozen=True)
class Sentence:
    """One sentence as three parallel columns: surface forms, lowercased
    lemmas and coarse POS tags."""

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


def _read_vertical(path):
    doc_id = str(path)
    index = 0
    pending = []  # (surface, lemma, tag) rows of the open sentence
    # each distinct token line, parsed: (surface, lemma, tag), interned
    parsed = {}
    tag_of = {tag: tag for tag in COARSE_TAGS}.get

    def token(line):
        try:
            surface, lemma, pos = line.split("\t")
        except ValueError:
            return None
        tag = tag_of(pos)
        if not (tag and surface and lemma):
            return None
        row = parsed[line] = (intern(surface), intern(lemma.lower()), tag)
        return row

    for first, lines in _blocks(path):
        rows = [parsed.get(line) or token(line) for line in lines]
        start = 0
        while True:
            try:
                stop = rows.index(None, start)
            except ValueError:
                pending += rows[start:]
                break
            pending += rows[start:stop]
            start = stop + 1
            # not a token line: a #doc marker, a blank line or an error, in
            # that order.  A token line has tabs, so "#doc x<TAB>..." is a
            # token
            line = lines[stop]
            if line.startswith("#doc ") and "\t" not in line:
                if pending:
                    yield Sentence(*zip(*pending), doc_id, index)
                    pending = []
                doc_id = line[len("#doc "):].strip()
                index = 0
                continue
            if not line.strip():
                if pending:
                    yield Sentence(*zip(*pending), doc_id, index)
                    pending = []
                    index += 1
                continue
            lineno = first + stop
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
            raise CorpusFormatError(path, lineno, f"unknown POS tag {pos!r}")
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
    starting a new document.  ``plain`` is one sentence per line, whitespace-tokenized,
    with lemma = lowercased surface and pos = OTHER (PUNCT for
    punctuation-only tokens).  ``path`` may name any file that opens for
    reading, such as a named pipe or ``/dev/stdin``: it is read once, in
    blocks of ``BLOCK_SIZE`` bytes (see ``numbered_lines``), and a byte that
    is not UTF-8 is located by line on any file.

    Beside one block, the vertical reader holds a table of each distinct
    token line it has read, parsed once and reused at every repeat: about
    200 bytes a line, ~2 MiB for the 10k distinct lines of a 100k-token
    corpus.  It grows with the corpus's distinct (surface, lemma, tag)
    triples, not with its tokens.
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
    """Count lemmas and keep the top ``max_size`` at or above ``min_count``."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter()
    for sentence in corpus:
        counts.update(sentence.lemmas)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    kept = [(w, c) for w, c in ranked if c >= min_count][:max_size]
    return Vocabulary(
        words=tuple(w for w, _ in kept),
        counts=tuple(c for _, c in kept),
        total_tokens=sum(counts.values()),
        max_size=max_size,
    )


class NextWordCounts:
    """Sparse count(w_i | w_{i+1}) rows over the vocabulary."""

    def __init__(self, rows: dict, vocab: Vocabulary):
        self.rows = rows
        self.vocab = vocab

    def row_vector(self, focus: str, columns=None) -> list[int]:
        """Dense row over ``columns`` (default: vocabulary, alphabetical)."""
        if columns is None:
            columns = sorted(self.vocab.words)
        row = self.rows.get(focus, {})
        return [row.get(col, 0) for col in columns]


def next_word_counts(corpus, vocab: Vocabulary) -> NextWordCounts:
    """Count immediate successors within sentences; OOV tokens are skipped
    both as focus and as successor, and no pairs cross sentence boundaries."""
    rows: dict[str, dict[str, int]] = {}
    known = vocab.index
    for sentence in corpus:
        lemmas = sentence.lemmas
        for focus, follower in zip(lemmas, lemmas[1:]):
            if focus not in known or follower not in known:
                continue
            row = rows.setdefault(focus, {})
            row[follower] = row.get(follower, 0) + 1
    return NextWordCounts(rows, vocab)
