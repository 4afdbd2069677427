"""Corpus ingestion: tagged sentences, vocabulary, next-word counts."""

from __future__ import annotations

import os
import stat
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from sys import intern

COARSE_TAGS = frozenset({
    "NOUN", "VERB", "ADJ", "DET", "PRON", "ADV",
    "PREP", "CONJ", "NUM", "PUNCT", "OTHER",
})


class CorpusFormatError(ValueError):
    """A malformed line of an input file, located by path and line number
    (``None`` where the line is not known)."""

    def __init__(self, path, lineno, message):
        where = path if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.lineno = lineno


def sentence_index(path, lineno, field) -> int:
    """The sentence index ``field`` of line ``lineno`` of ``path``: ASCII
    digits only, as ``targets`` and ``write_table`` write it, so a sign,
    a space, an underscore or a non-ASCII digit is a CorpusFormatError."""
    if not (field.isascii() and field.isdigit()):
        raise CorpusFormatError(path, lineno, f"bad sentence index {field!r}")
    return int(field)


def numbered_lines(path):
    """Yield ``(lineno, line)`` for each line of the UTF-8 file at ``path``,
    counting from 1, its end removed.  A leading byte order mark is skipped.
    LF, CR and CRLF each end a line, as in text mode, and no other character
    does.  A byte that does not decode raises ``path:line: not UTF-8: ...``;
    to find its line, a regular file is read again in binary and split at
    the same three ends.  Any other file, such as a pipe, cannot be read
    twice, so there the error is ``path: not UTF-8: ...``."""
    regular = False
    try:
        with open(path, encoding="utf-8-sig") as handle:
            regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
            for lineno, line in enumerate(handle, 1):
                yield lineno, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        if not regular:
            raise CorpusFormatError(path, None, f"not UTF-8: {exc}") from None
        for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(path, lineno,
                                        f"not UTF-8: {exc}") from None
        raise


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


def _sentence(surfaces, lemmas, tags, doc_id, index) -> Sentence:
    return Sentence(tuple(surfaces), tuple(lemmas), tuple(tags), doc_id, index)


def _read_vertical(path):
    doc_id = str(path)
    index = 0
    surfaces, lemmas, tags = [], [], []
    tag_of = {tag: tag for tag in COARSE_TAGS}.get
    for lineno, line in numbered_lines(path):
        try:
            surface, lemma, pos = line.split("\t")
        except ValueError:
            tag = None
        else:
            tag = tag_of(pos)
        if tag and surface and lemma:
            surfaces.append(intern(surface))
            lemmas.append(intern(lemma.lower()))
            tags.append(tag)
            continue
        # not a token line: a #doc marker, a blank line or an error, in
        # that order.  A token line has tabs, so "#doc x<TAB>..." is a token
        if line.startswith("#doc ") and "\t" not in line:
            if surfaces:
                yield _sentence(surfaces, lemmas, tags, doc_id, index)
                surfaces, lemmas, tags = [], [], []
            doc_id = line[len("#doc "):].strip()
            index = 0
            continue
        if not line.strip():
            if surfaces:
                yield _sentence(surfaces, lemmas, tags, doc_id, index)
                surfaces, lemmas, tags = [], [], []
                index += 1
            continue
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
    if surfaces:
        yield _sentence(surfaces, lemmas, tags, doc_id, index)


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
    reading, such as a named pipe or ``/dev/stdin``.
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
