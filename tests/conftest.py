import math
import os
from pathlib import Path

import numpy as np
import pytest

import metovec
from metovec.corpus import Vocabulary
from metovec.embeddings import EmbeddingModel, TrainingConfig


PROVERB = "what is good for the goose is good for the gander\n"

# out-of-range config values by test id, each with the error that follows
# "<file>: " when a model archive's config holds them; a train flag's value
# gives it without "bad config: "
BAD_CONFIG_RANGES = {
    "window-0": ({"window": 0}, "bad config: window must be >= 1"),
    "lr-infinity": ({"lr_start": math.inf},
                    "bad config: lr_start must be finite"),
    "lr-past-float": ({"lr_start": 10 ** 400},
                      "bad config: lr_start must be finite"),
    "max-vocab-0": ({"max_vocab": 0}, "bad config: max_vocab must be >= 1"),
    "min-count-0": ({"min_count": 0}, "bad config: min_count must be >= 1"),
    "seed-negative": ({"seed": -1}, "bad config: seed must be >= 0"),
}

# sentence-index fields by test id: a sentence index is ASCII digits, as
# `targets` and `write_table` write it, though int() reads most of these
BAD_SENTENCE_INDICES = {
    "letter": "x", "empty": "", "minus": "-1", "plus": "+0", "space": " 0",
    "underscore": "0_0", "arabic-indic-zero": "\u0660",
}


def child_environ():
    """The environment of a child ``python``, with this checkout's
    package first on its path."""
    source = str(Path(metovec.__file__).resolve().parent.parent)
    return os.environ | {"PYTHONPATH": os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.fixture
def proverb_path(tmp_path):
    path = tmp_path / "proverb.txt"
    path.write_text(PROVERB)
    return path


def make_model(vectors: dict, counts=None):
    """Hand-built model from a lemma -> vector mapping (uniform counts
    unless given)."""
    words = tuple(vectors)
    dim = len(next(iter(vectors.values())))
    vocab = Vocabulary(
        words=words,
        counts=tuple((counts or {}).get(w, 1) for w in words),
        total_tokens=sum((counts or {}).get(w, 1) for w in words),
        max_size=len(words),
    )
    inputs = np.array([vectors[w] for w in words], dtype=float)
    nodes = np.zeros((len(words) - 1, dim))
    config = TrainingConfig(dim=dim)
    return EmbeddingModel(inputs, nodes, vocab, config)


def write_vertical(path, sentences, doc_id="doc1"):
    """sentences: list of lists of (surface, lemma, pos) triples."""
    lines = [f"#doc {doc_id}"]
    for sentence in sentences:
        for surface, lemma, pos in sentence:
            lines.append(f"{surface}\t{lemma}\t{pos}")
        lines.append("")
    path.write_text("\n".join(lines) + "\n")
    return path
