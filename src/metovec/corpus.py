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


class CorpusFormatError(ValueError):
    """A malformed line of an input file, located by path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def numbered_lines(path):
    """Yield ``(lineno, line)`` for each line of the UTF-8 file at ``path``,
    counting from 1, its end removed.  LF, CR and CRLF each end a line, as
    in text mode, and no other character does.  A byte that does not decode
    raises ``path:line: not UTF-8: ...``; to find its line, the file is
    read again in binary and split at the same three ends."""
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
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


def _sentence(rows, doc_id, index) -> Sentence:
    return Sentence(*zip(*rows), doc_id, index)


def _read_vertical(path):
    doc_id = str(path)
    index = 0
    rows = []
    for lineno, line in numbered_lines(path):
        # a token line has tabs, so "#doc x<TAB>..." is a token
        if line.startswith("#doc ") and "\t" not in line:
            if rows:
                yield _sentence(rows, doc_id, index)
                rows = []
            doc_id = line[len("#doc "):].strip()
            index = 0
            continue
        if not line.strip():
            if rows:
                yield _sentence(rows, doc_id, index)
                rows = []
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
        if pos not in COARSE_TAGS:
            raise CorpusFormatError(path, lineno, f"unknown POS tag {pos!r}")
        rows.append((intern(surface), intern(lemma.lower()), intern(pos)))
    if rows:
        yield _sentence(rows, doc_id, index)


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
    punctuation-only tokens).
    """
    path = Path(path)
    if not path.is_file():
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

    def id_of(self, lemma: str) -> int:
        return self.index[lemma]

    def count_of(self, lemma: str) -> int:
        return self.counts[self.index[lemma]]


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

    def count(self, focus: str, follower: str) -> int:
        return self.rows.get(focus, {}).get(follower, 0)

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
    for sentence in corpus:
        lemmas = sentence.lemmas
        for focus, follower in zip(lemmas, lemmas[1:]):
            if focus not in vocab or follower not in vocab:
                continue
            row = rows.setdefault(focus, {})
            row[follower] = row.get(follower, 0) + 1
    return NextWordCounts(rows, vocab)
