"""CBOW / Skip-gram training with a hierarchical softmax over a Huffman tree."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Vocabulary, build_vocabulary
from .huffman import HuffmanTree, build_huffman_tree

log = logging.getLogger(__name__)

CBOW = "cbow"
SKIPGRAM = "skipgram"

# sigmoid arguments are clamped to keep exp() finite; 6 is ample for scores
# reached at word2vec learning rates
SIGMOID_CLAMP = 6.0


class NotInVocabularyError(KeyError):
    pass


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)))


@dataclass(frozen=True)
class TrainingConfig:
    mode: str = SKIPGRAM
    window: int = 4
    dim: int = 100
    epochs: int = 5
    lr_start: float = 0.025
    lr_end: float = 0.0001
    seed: int = 1
    min_count: int = 1
    max_vocab: int = 10000

    def __post_init__(self):
        if self.mode not in (CBOW, SKIPGRAM):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.lr_start >= self.lr_end > 0):
            raise ValueError("need lr_start >= lr_end > 0")


@dataclass
class TrainStats:
    examples: int = 0
    skipped: int = 0
    node_updates: int = 0
    predictions: int = 0

    def record(self, touched: int):
        self.predictions += 1
        self.node_updates += touched

    @property
    def mean_node_updates(self) -> float:
        return self.node_updates / self.predictions if self.predictions else 0.0


@dataclass
class EmbeddingModel:
    """Learned input vectors (V x D) plus internal-node vectors ((V-1) x D)."""

    input_vectors: np.ndarray
    node_vectors: np.ndarray
    vocab: Vocabulary
    config: TrainingConfig
    tree: HuffmanTree = field(repr=False, default=None)

    def __post_init__(self):
        if self.tree is None and len(self.vocab) >= 2:
            self.tree = build_huffman_tree(self.vocab)
        v, d = self.input_vectors.shape
        if v != len(self.vocab) or d != self.config.dim:
            raise ValueError("input matrix shape inconsistent with vocab/config")
        if self.node_vectors.shape != (max(v - 1, 0), d):
            raise ValueError("node matrix shape inconsistent with vocab")

    def vector(self, lemma: str) -> np.ndarray:
        try:
            return self.input_vectors[self.vocab.id_of(lemma)]
        except KeyError:
            raise NotInVocabularyError(lemma) from None


def init_model(vocab: Vocabulary, config: TrainingConfig) -> EmbeddingModel:
    """Seeded uniform init in [-0.5/D, 0.5/D] for inputs, zeros for nodes."""
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / config.dim
    inputs = rng.uniform(-bound, bound, size=(len(vocab), config.dim))
    nodes = np.zeros((len(vocab) - 1, config.dim))
    return EmbeddingModel(inputs, nodes, vocab, config)


def leaf_probability(model: EmbeddingModel, tree: HuffmanTree,
                     context_vector, word: str) -> float:
    """Probability of the random walk from the root ending at ``word``:
    the product over path nodes of sigma(+-context . node), sign per code bit.
    """
    if word not in model.vocab:
        raise NotInVocabularyError(word)
    wid = model.vocab.id_of(word)
    prob = 1.0
    for node, bit in zip(tree.paths[wid], tree.codes[wid]):
        score = float(np.dot(context_vector, model.node_vectors[node]))
        prob *= float(sigmoid(score if bit == 0 else -score))
    return prob


def _hs_forward(model, tree, hidden, target_id):
    """Residuals along the Huffman path of ``target_id``.

    Returns (path, nodes, residual) where residual_j is the derivative of
    -log leaf_probability with respect to score_j = hidden . node_j, i.e.
    sigma(score_j) - (1 - bit_j).
    """
    path = list(tree.paths[target_id])
    bits = np.array(tree.codes[target_id], dtype=float)
    nodes = model.node_vectors[path]
    residual = sigmoid(nodes @ hidden) - (1.0 - bits)
    return path, nodes, residual


def _hs_step(model, tree, hidden, target_id, lr):
    """One hierarchical-softmax gradient step toward ``target_id``.

    Updates the path node vectors in place and returns (grad wrt hidden,
    number of node rows touched).  Loss is -log leaf_probability.
    """
    path, nodes, residual = _hs_forward(model, tree, hidden, target_id)
    grad_hidden = residual @ nodes
    model.node_vectors[path] = nodes - lr * residual[:, None] * hidden
    return grad_hidden, len(path)


def example_loss_cbow(model, tree, sentence_ids, focus, window):
    """-log p(focus | mean of context inputs); None when no in-vocab context."""
    context = _context_ids(sentence_ids, focus, window)
    if not context:
        return None
    hidden = model.input_vectors[context].mean(axis=0)
    word = model.vocab.words[sentence_ids[focus]]
    return -np.log(leaf_probability(model, tree, hidden, word))


def train_example_cbow(model, tree, focus, sentence_ids, lr,
                       window=None, stats=None):
    """One CBOW gradient step at ``focus``; returns False when skipped."""
    window = model.config.window if window is None else window
    context = _context_ids(sentence_ids, focus, window)
    if not context:
        if stats:
            stats.skipped += 1
        return False
    hidden = model.input_vectors[context].mean(axis=0)
    grad_hidden, touched = _hs_step(model, tree, hidden, sentence_ids[focus], lr)
    model.input_vectors[context] -= lr * grad_hidden / len(context)
    if stats:
        stats.examples += 1
        stats.record(touched)
    return True


def example_gradients_cbow(model, tree, sentence_ids, focus, window):
    """Exact gradients of the CBOW example loss, keyed by parameter row.

    Keys are ("input", word_id) and ("node", node_id); values are D-vectors.
    Returns None when the example has no in-vocab context.
    """
    context = _context_ids(sentence_ids, focus, window)
    if not context:
        return None
    hidden = model.input_vectors[context].mean(axis=0)
    path, nodes, residual = _hs_forward(model, tree, hidden, sentence_ids[focus])
    grads = {}
    for node, res in zip(path, residual):
        grads[("node", node)] = grads.get(("node", node), 0.0) + res * hidden
    grad_hidden = residual @ nodes
    for cid in context:
        grads[("input", cid)] = grads.get(("input", cid), 0.0) \
            + grad_hidden / len(context)
    return grads


def example_gradients_skipgram(model, tree, sentence_ids, focus, window):
    """Exact gradients of the summed Skip-gram example loss (all pairs)."""
    context = _context_ids(sentence_ids, focus, window)
    if not context:
        return None
    fid = sentence_ids[focus]
    hidden = model.input_vectors[fid]
    grads = {}
    for cid in context:
        path, nodes, residual = _hs_forward(model, tree, hidden, cid)
        for node, res in zip(path, residual):
            grads[("node", node)] = grads.get(("node", node), 0.0) + res * hidden
        grads[("input", fid)] = grads.get(("input", fid), 0.0) + residual @ nodes
    return grads


def example_loss_skipgram(model, tree, sentence_ids, focus, window):
    """Sum of -log p(context | focus) over the window; None when empty."""
    context = _context_ids(sentence_ids, focus, window)
    if not context:
        return None
    hidden = model.input_vectors[sentence_ids[focus]]
    loss = 0.0
    for cid in context:
        word = model.vocab.words[cid]
        loss -= np.log(leaf_probability(model, tree, hidden, word))
    return loss

def train_example_skipgram(model, tree, focus, sentence_ids, lr,
                           window=None, stats=None):
    """One gradient step per (focus input vector, context target) pair."""
    window = model.config.window if window is None else window
    context = _context_ids(sentence_ids, focus, window)
    if not context:
        if stats:
            stats.skipped += 1
        return False
    fid = sentence_ids[focus]
    for cid in context:
        hidden = model.input_vectors[fid].copy()
        grad_hidden, touched = _hs_step(model, tree, hidden, cid, lr)
        model.input_vectors[fid] -= lr * grad_hidden
        if stats:
            stats.record(touched)
    if stats:
        stats.examples += 1
    return True


def _context_ids(sentence_ids, focus, window):
    lo = max(0, focus - window)
    hi = min(len(sentence_ids), focus + window + 1)
    return [sentence_ids[i] for i in range(lo, hi) if i != focus]


def train(corpus, config: TrainingConfig, vocab: Vocabulary | None = None,
          stats: TrainStats | None = None) -> EmbeddingModel:
    """Train an embedding model over ``corpus``.

    Single-threaded and deterministic for a fixed seed.  Sentences are
    mapped to vocabulary ids with OOV tokens dropped; the learning rate
    decays linearly with tokens processed from lr_start to lr_end.
    """
    if vocab is None:
        vocab = build_vocabulary(corpus, config.max_vocab, config.min_count)
    if len(vocab) < 2:
        raise ValueError("vocabulary too small to train (need >= 2 words)")
    model = init_model(vocab, config)
    tree = model.tree
    step = train_example_cbow if config.mode == CBOW else train_example_skipgram
    stats = stats if stats is not None else TrainStats()

    encoded = []
    for sentence in corpus:
        ids = [vocab.index[t.lemma] for t in sentence.tokens
               if t.lemma in vocab.index]
        if ids:
            encoded.append(ids)
    total_tokens = sum(len(ids) for ids in encoded) * config.epochs
    if total_tokens == 0:
        raise ValueError("corpus has no in-vocabulary tokens")

    seen = 0
    started = time.perf_counter()
    for _ in range(config.epochs):
        for ids in encoded:
            for focus in range(len(ids)):
                progress = seen / total_tokens
                lr = config.lr_start - (config.lr_start - config.lr_end) * progress
                step(model, tree, focus, ids, lr, stats=stats)
                seen += 1
    elapsed = time.perf_counter() - started
    log.info("trained %s: %d tokens in %.2fs (%.0f tokens/s), "
             "%d examples, %d skipped",
             config.mode, seen, elapsed, seen / elapsed if elapsed else 0.0,
             stats.examples, stats.skipped)
    return model


def save_model(model: EmbeddingModel, path):
    """Write the text model format.

    Line 1 is ``V D``, then V ``word v1 .. vD`` rows, a ``#nodes`` sentinel
    and V-1 node rows in the same layout.  A trailing ``#counts`` section
    stores the vocabulary frequencies so the Huffman tree (and with it
    leaf_probability and resumed training) is reproducible after a load.
    Fields are space-separated, but a word may itself contain spaces (the
    vertical corpus format allows a lemma like ``ice cream``): the last D
    fields of a row are the vector, the last field of a ``#counts`` row
    the count, and everything before them is the word.
    """
    v, d = model.input_vectors.shape
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"{v} {d}\n")
        for word, row in zip(model.vocab.words, model.input_vectors):
            out.write(word + " " + " ".join(repr(float(x)) for x in row) + "\n")
        out.write("#nodes\n")
        for idx, row in enumerate(model.node_vectors):
            out.write(f"n{idx} " + " ".join(repr(float(x)) for x in row) + "\n")
        out.write("#counts\n")
        for word, count in zip(model.vocab.words, model.vocab.counts):
            out.write(f"{word} {count}\n")


def load_model(path) -> EmbeddingModel:
    """Read a model written by save_model; raises on truncation/mismatch."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines:
        raise ValueError(f"{path}: empty model file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    v, d = int(header[0]), int(header[1])
    expected = 1 + v + 1 + (v - 1) + 1 + v
    if len(lines) != expected:
        raise ValueError(f"{path}: expected {expected} lines, found {len(lines)}")

    def parse_row(line, label):
        fields = line.rsplit(" ", d)
        if len(fields) != d + 1:
            raise ValueError(f"{path}: bad {label} row {fields[0]!r}")
        return fields[0], [float(x) for x in fields[1:]]

    words, inputs = [], []
    for line in lines[1:1 + v]:
        word, row = parse_row(line, "vector")
        words.append(word)
        inputs.append(row)
    if lines[1 + v] != "#nodes":
        raise ValueError(f"{path}: missing #nodes sentinel")
    nodes = [parse_row(line, "node")[1] for line in lines[2 + v:1 + 2 * v]]
    if lines[1 + 2 * v] != "#counts":
        raise ValueError(f"{path}: missing #counts sentinel")
    counts = []
    for lineno, (line, vector_word) in enumerate(
            zip(lines[2 + 2 * v:], words), start=3 + 2 * v):
        word, _, count_field = line.rpartition(" ")
        try:
            count = int(count_field)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: bad count {count_field!r}") from None
        if word != vector_word:
            raise ValueError(f"{path}:{lineno}: #counts word {word!r} differs "
                             f"from vector word {vector_word!r}")
        if count < 1:
            raise ValueError(f"{path}:{lineno}: count {count} is below 1")
        counts.append(count)
    inputs = np.array(inputs)
    nodes = np.array(nodes, dtype=float).reshape(v - 1, d)
    for label, array, first_lineno in (("vector", inputs, 2),
                                       ("node", nodes, 3 + v)):
        bad_rows = np.flatnonzero(~np.isfinite(array).all(axis=1))
        if bad_rows.size:
            raise ValueError(f"{path}:{first_lineno + bad_rows[0]}: "
                             f"non-finite {label} entry")

    vocab = Vocabulary(words=tuple(words), counts=tuple(counts),
                       total_tokens=sum(counts), max_size=max(v, 1))
    config = TrainingConfig(dim=d)
    return EmbeddingModel(inputs, nodes, vocab, config)
