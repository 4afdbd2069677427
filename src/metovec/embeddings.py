"""CBOW / Skip-gram training with a hierarchical softmax over a Huffman tree."""

from __future__ import annotations

import ctypes
import io
import json
import logging
import math
import mmap
import os
import struct
import sys
import time
import typing
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property

import numpy as np

from . import _hs
from .corpus import Vocabulary, build_vocabulary
from .files import whole_file
from .huffman import HuffmanTree, build_huffman_tree

log = logging.getLogger(__name__)

CBOW = "cbow"
SKIPGRAM = "skipgram"

# sigmoid arguments are clamped to keep exp() finite; 6 is ample for scores
# reached at word2vec learning rates
SIGMOID_CLAMP = 6.0


class NotInVocabularyError(KeyError):
    """A lemma the model has no vector for; the one argument is the lemma."""

    def __str__(self):
        # KeyError's own str is the bare repr of the lemma
        return f"{self.args[0]!r} is not in the model vocabulary"


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
        for name in ("window", "dim", "epochs", "min_count", "max_vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (self.lr_start >= self.lr_end > 0):
            raise ValueError("need lr_start >= lr_end > 0")
        # JSON reads Infinity, and any integer, even one past the largest
        # float; lr_end <= lr_start is then finite too
        if not self.lr_start <= sys.float_info.max:
            raise ValueError("lr_start must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# the members of a model archive, one .npy file each
_MEMBER_DTYPES = {name: np.dtype(kind) for name, kind in (
    ("inputs", "float64"), ("nodes", "float64"), ("counts", "int64"),
    ("words", "uint8"), ("config", "uint8"))}
# A member this large, such as a V=10k, D=100 vector matrix, gets an
# anonymous mapping of its own, which goes back to the kernel when the array
# is freed.  On glibc's heap, once a freed block has raised its mmap
# threshold, it could stay resident after its free, depending on the order
# of earlier frees.  The mapping is advised for huge pages, as numpy advises
# its own arrays of 4 MiB or more.
_OWN_MAPPING_BYTES = 4 << 20
_MADV_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)  # Linux only
# the archive's config JSON: the TrainingConfig fields plus the Vocabulary
# fields that no array holds, each with the type of its value
_VOCABULARY_KEYS = ("total_tokens", "max_size")
_CONFIG_TYPES = (typing.get_type_hints(TrainingConfig)
                 | dict.fromkeys(_VOCABULARY_KEYS, int))


@dataclass(frozen=True)
class EpochStats:
    """One training epoch: the learning rate of its last step, its wall
    time, its throughput and its mean loss (-log leaf probability) per
    prediction."""

    lr: float
    seconds: float
    tokens_per_s: float
    loss: float


@dataclass
class TrainStats:
    examples: int = 0
    skipped: int = 0
    node_updates: int = 0
    predictions: int = 0
    epochs: list[EpochStats] = field(default_factory=list)

    def add(self, counts):
        """Add the examples, skipped, predictions, node_updates of _hs.c."""
        for name, count in zip(("examples", "skipped", "predictions",
                                "node_updates"), counts.tolist()):
            setattr(self, name, getattr(self, name) + count)

    @property
    def mean_node_updates(self) -> float:
        return self.node_updates / self.predictions if self.predictions else 0.0


@dataclass
class EmbeddingModel:
    """Learned input vectors (V x D) plus internal-node vectors ((V-1) x D).

    A loaded model's ``node_vectors`` is a copy-on-write view of its
    file (see ``load_model``).

    The first neighbour or analogy query keeps the row norms of
    ``input_vectors`` in ``input_norms``, next to the array they were
    computed from, and makes that array read-only.  To edit the vectors
    after a query, rebind ``input_vectors`` to an edited copy; the next
    query computes the norms of the new array."""

    input_vectors: np.ndarray
    node_vectors: np.ndarray
    vocab: Vocabulary
    config: TrainingConfig
    # (input_vectors, its vectorspace._with_norms triple), set by
    # vectorspace on a model's first neighbour query
    input_norms: tuple = field(default=(None, None), init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        v, d = self.input_vectors.shape
        if v != len(self.vocab) or d != self.config.dim:
            raise ValueError("input matrix shape inconsistent with vocab/config")
        if self.node_vectors.shape != (max(v - 1, 0), d):
            raise ValueError("node matrix shape inconsistent with vocab")

    @cached_property
    def tree(self) -> HuffmanTree:
        """The Huffman tree of ``vocab``, built on first use."""
        return build_huffman_tree(self.vocab)

    def vector(self, lemma: str) -> np.ndarray:
        try:
            return self.input_vectors[self.vocab.index[lemma]]
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
    wid = model.vocab.index[word]
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
    path = tree.paths[target_id]
    nodes = model.node_vectors[path]
    residual = sigmoid(nodes @ hidden) - (1.0 - tree.codes[target_id])
    return path, nodes, residual


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
    """One CBOW gradient step at ``focus``; returns False when skipped.

    A context word that occurs k times in the window gets k updates, as in
    word2vec.c and ``example_gradients_cbow``.
    """
    return _train_example(model, tree, focus, sentence_ids, lr, window,
                          stats, cbow=True)


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
    """One gradient step per (focus, context word) pair; False if skipped."""
    return _train_example(model, tree, focus, sentence_ids, lr, window,
                          stats, cbow=False)


def _train_example(model, tree, focus, sentence_ids, lr, window, stats, cbow):
    """``hs_example`` of ``_hs.c``, the step ``train`` runs, at ``focus``;
    C checks no bounds, so the ids, tree and window are checked first, and
    ``work`` is sized from ``tree`` (see ``_work``).  A node matrix that
    is not aligned for C, as a loaded model's view of its file is not, is
    first replaced by an aligned copy of its own."""
    window = model.config.window if window is None else window
    if window < 1:
        raise ValueError("window must be >= 1")
    vocab_size = len(model.vocab)
    if len(tree.starts) - 1 != vocab_size:
        raise ValueError(f"tree of {len(tree.starts) - 1} words, "
                         f"not {vocab_size}")
    ids = np.array(sentence_ids, dtype=np.int64)
    if not 0 <= focus < len(ids):
        raise IndexError(f"focus {focus} outside a sentence of {len(ids)}")
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise IndexError(f"word id outside [0, {vocab_size})")
    if not model.node_vectors.flags.aligned:
        model.node_vectors = model.node_vectors.copy()
    counts = np.zeros(4, dtype=np.int64)
    # as in train: a window as long as the sentence reaches all of it
    trained = _hs.library().hs_example(
        ids.astype(np.int32), 0, len(ids), focus, tree.starts, tree.nodes,
        tree.targets, model.input_vectors, model.node_vectors,
        _work(tree, model.config.dim), model.config.dim,
        min(window, len(ids)), cbow, lr, counts, np.zeros(2))
    if stats is not None:
        stats.add(counts)
    return bool(trained)


def _work(tree, dim):
    """The scratch of ``_hs.c``'s step on ``tree``: the hidden vector, its
    gradient and one residual per node of the tree's longest path."""
    return np.empty(2 * dim + int(np.diff(tree.starts).max()))


def _context_ids(sentence_ids, focus, window):
    """Ids within ``window`` of ``focus``; ``sentence_ids`` is a list."""
    return (sentence_ids[max(0, focus - window):focus]
            + sentence_ids[focus + 1:focus + window + 1])


def train(corpus, config: TrainingConfig, vocab: Vocabulary | None = None,
          stats: TrainStats | None = None) -> EmbeddingModel:
    """Train an embedding model over ``corpus``.

    Single-threaded and deterministic for a fixed seed.  Sentences are
    mapped to vocabulary ids with OOV tokens dropped; the learning rate
    decays linearly with tokens processed from lr_start to lr_end.  Each
    epoch is one ``hs_epoch`` call into ``_hs.c``: one ``hs_example``, the
    step ``train_example_*`` run, per token.  Each node's score sums its
    dot product in four interleaved lanes, combined as
    ``(s0 + s1) + (s2 + s3)``; each prediction adds its loss with one log
    of the product of its node probabilities.  A prediction scores its path
    four nodes at a time, then updates it four nodes at a time, with the
    bits of one node at a time (see ``_hs.c``); its scratch holds one
    residual per node of the tree's longest path.  The first call compiles
    the step (see ``_hs``), so a missing or failing C compiler raises
    OSError.
    An epoch whose loss is not finite, as at too high a learning rate,
    raises ValueError, so no overflowed model is returned.
    ``python_train`` in tests/test_embeddings.py is its bit-exact reference.
    """
    if vocab is None:
        vocab = build_vocabulary(corpus, config.max_vocab, config.min_count)
    if len(vocab) < 2:
        raise ValueError("vocabulary too small to train (need >= 2 words)")
    model = init_model(vocab, config)
    stats = stats if stats is not None else TrainStats()

    index = vocab.index
    encoded = [[index[lemma] for lemma in sentence.lemmas if lemma in index]
               for sentence in corpus]
    ids = np.fromiter((i for sentence in encoded for i in sentence),
                      dtype=np.int32)
    starts = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(sentence) for sentence in encoded], out=starts[1:])
    epoch_tokens = len(ids)
    total_tokens = epoch_tokens * config.epochs
    if total_tokens == 0:
        raise ValueError("corpus has no in-vocabulary tokens")

    epoch_function = _hs.library().hs_epoch
    tree = model.tree
    # _hs.c takes the window as an int64 and adds a position to it; one as
    # long as the corpus already reaches every word of every sentence
    window = min(config.window, epoch_tokens)
    work = _work(tree, config.dim)
    for epoch in range(1, config.epochs + 1):
        counts = np.zeros(4, dtype=np.int64)
        out = np.zeros(2)
        started = time.perf_counter()
        epoch_function(ids, starts, len(encoded), tree.starts, tree.nodes,
                       tree.targets, model.input_vectors, model.node_vectors,
                       work, config.dim, window, config.mode == CBOW,
                       config.lr_start, config.lr_end,
                       (epoch - 1) * epoch_tokens, total_tokens, counts, out)
        elapsed = time.perf_counter() - started
        stats.add(counts)
        predictions = int(counts[2])
        record = EpochStats(lr=float(out[0]), seconds=elapsed,
                            tokens_per_s=epoch_tokens / elapsed
                            if elapsed else 0.0,
                            loss=float(out[1]) / predictions
                            if predictions else 0.0)
        stats.epochs.append(record)
        log.info("%s epoch %d/%d: lr %.6f, loss %.4f, %d tokens in %.2fs "
                 "(%.0f tokens/s)", config.mode, epoch, config.epochs,
                 record.lr, record.loss, epoch_tokens, record.seconds,
                 record.tokens_per_s)
        if not math.isfinite(out[1]):
            raise ValueError(f"{config.mode} epoch {epoch}: loss is not "
                             f"finite; lr_start {config.lr_start:g} is too "
                             "high")
    log.info("trained %s: %d examples, %d skipped",
             config.mode, stats.examples, stats.skipped)
    return model


def save_model(model: EmbeddingModel, path):
    """Write ``model`` to ``path`` as a binary archive, the one model file
    format.

    The archive is the uncompressed ``.npz`` of ``np.savez``, at ``path``
    as given.  Its members are ``inputs`` (V x D float64), ``nodes``
    ((V-1) x D float64), ``counts`` (V int64), ``words`` (the words joined
    by line breaks, as UTF-8 ``uint8``) and ``config`` (the
    ``TrainingConfig`` fields plus the vocabulary's ``total_tokens`` and
    ``max_size``, as UTF-8 JSON ``uint8``).  Each member carries the
    earliest zip date, not the time of writing, so one model saved twice
    gives the same bytes.  A word holding a line break cannot be stored
    and raises ValueError; no reader yields one.  Neither can a non-finite
    vector or node entry, which ``load_model`` refuses.  The archive
    replaces the file at ``path`` whole (``files.whole_file``): a failed
    write leaves the old file, and a process that has it loaded, intact.
    """
    for label, array in (("vector", model.input_vectors),
                         ("node", model.node_vectors)):
        if not np.isfinite(array).all():
            raise ValueError(f"cannot save non-finite {label} entry")
    for word in model.vocab.words:
        if "\n" in word:
            raise ValueError(f"cannot save word {word!r}: it holds a line "
                             "break")
    config = asdict(model.config) | {key: getattr(model.vocab, key)
                                     for key in _VOCABULARY_KEYS}
    members = {
        "inputs": np.asarray(model.input_vectors, dtype=np.float64),
        "nodes": np.asarray(model.node_vectors, dtype=np.float64),
        "counts": np.array(model.vocab.counts, dtype=np.int64),
        "words": _utf8("\n".join(model.vocab.words)),
        "config": _utf8(json.dumps(config)),
    }
    # through a handle: given a path, np.savez would append ".npz"
    with whole_file(path, "wb") as out:
        np.savez(out, **members)


def _utf8(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def load_model(path) -> EmbeddingModel:
    """Read a model archive written by ``save_model``.  Member names,
    dtypes and shapes are checked before any value is used.  A malformed
    archive, or any other file, raises a ValueError that starts
    ``path: ``; a file that is not a zip fails as
    ``path: bad model archive: File is not a zip file``.  Each member's
    CRC-32 is checked with ``libdeflate_crc32`` of the system's
    ``libdeflate.so.0`` where that loads, else with ``zlib.crc32``: the
    values, and so the errors, are the same either way.

    ``node_vectors``, which no query reads, is a view of the ``nodes``
    member in a private copy-on-write mapping of the file, not a copy; it
    is checked as the other members are.  A write to it stays in the
    process.  Its data sits at an odd offset in the file, so it is not
    aligned for C (``_train_example`` copies it before a step).  The
    other members are copied out of the file."""
    # open outside the try: a missing file is an OSError, not a bad archive
    with open(path, "rb") as handle:
        try:
            with zipfile.ZipFile(handle) as archive:
                names = sorted(archive.namelist())
                expected = sorted(name + ".npy" for name in _MEMBER_DTYPES)
                if names != expected:
                    raise ValueError(f"members {names}, expected {expected}")
                arrays = {name: _read_member(archive, handle, name + ".npy",
                                             mapped=name == "nodes")
                          for name in _MEMBER_DTYPES}
        # a cut or corrupt zip raises BadZipFile, a member whose data ends
        # early EOFError, a corrupt offset OSError, and a member flagged as
        # encrypted or compressed by an unknown method RuntimeError
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError,
                ValueError) as exc:
            raise ValueError(f"{path}: bad model archive: {exc}") from None
    for name, dtype in _MEMBER_DTYPES.items():
        if arrays[name].dtype != dtype:
            raise ValueError(f"{path}: member {name} has dtype "
                             f"{arrays[name].dtype}, expected {dtype}")
    inputs, nodes, counts = arrays["inputs"], arrays["nodes"], arrays["counts"]
    if inputs.ndim != 2 or min(inputs.shape) < 1:
        raise ValueError(f"{path}: vectors of shape {inputs.shape} need "
                         "V >= 1 and D >= 1")
    v, d = inputs.shape
    # words and config are 1-D of any length
    for name, shape in (("nodes", (v - 1, d)), ("counts", (v,)),
                        ("words", (arrays["words"].size,)),
                        ("config", (arrays["config"].size,))):
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: member {name} has shape "
                             f"{arrays[name].shape}, expected {shape}")
    for label, array in (("vector", inputs), ("node", nodes)):
        if not np.isfinite(array).all():
            raise ValueError(f"{path}: non-finite {label} entry")
    if counts.min() < 1:
        raise ValueError(f"{path}: count {counts.min()} is below 1")
    try:
        words = arrays["words"].tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: words are not UTF-8: {exc}") from None
    if len(words) != v:
        raise ValueError(f"{path}: {len(words)} words for {v} counts")
    config, vocab_fields = _config_from_json(arrays["config"], path)
    if config.dim != d:
        raise ValueError(f"{path}: config dim {config.dim} differs from "
                         f"vector width {d}")
    try:  # Vocabulary's one error: a word that appears twice
        vocab = Vocabulary(words=tuple(words), counts=tuple(counts.tolist()),
                           **vocab_fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return EmbeddingModel(inputs, nodes, vocab, config)


def _read_member(archive, handle, name, mapped) -> np.ndarray:
    """The array in the uncompressed member ``name`` of ``archive``.  The
    member is read from ``handle`` into one buffer, or, when ``mapped``,
    taken as a view of a private copy-on-write mapping of its part of the
    file, and its CRC-32 checked, as zipfile checks it, before the .npy header
    is parsed; the array is a view of the buffer past the header.  np.load
    would copy the member through a 256 KiB bytes object at a time."""
    info = archive.getinfo(name)
    with archive.open(info):  # checks the local header, flags and method
        pass
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"member {name} is compressed")
    # the local header: 30 bytes, the last four the sizes of the name and
    # of the extra field that follow it
    handle.seek(info.header_offset + 26)
    name_size, extra_size = struct.unpack("<HH", handle.read(4))
    start = info.header_offset + 30 + name_size + extra_size
    if mapped:
        if os.fstat(handle.fileno()).st_size - start < info.file_size:
            raise EOFError(f"member {name} ends early")
        # the member's pages only: the kernel maps the pages around each
        # one touched, which over the whole file would add other members'
        # pages to the process.  They are the file's until written, then
        # the process's own; the mapping lives as long as a view of it
        skip = start % mmap.ALLOCATIONGRANULARITY
        file = mmap.mmap(handle.fileno(), skip + info.file_size,
                         access=mmap.ACCESS_COPY, offset=start - skip)
        member = np.frombuffer(file, np.uint8)[skip:]
    else:
        if info.file_size >= _OWN_MAPPING_BYTES:
            buffer = mmap.mmap(-1, info.file_size, flags=mmap.MAP_PRIVATE)
            if _MADV_HUGEPAGE is not None:
                buffer.madvise(_MADV_HUGEPAGE)
            member = np.frombuffer(buffer, np.uint8)
        else:
            member = np.empty(info.file_size, dtype=np.uint8)
        handle.seek(start)
        if handle.readinto(member) != info.file_size:
            raise EOFError(f"member {name} ends early")
    if _crc32()(member) != info.CRC:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {name!r}")
    # numpy reads at most 10000 header bytes
    header = io.BytesIO(member[:1 << 16].tobytes())
    version = np.lib.format.read_magic(header)
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    shape, fortran_order, dtype = read_header(header)
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when "
                         "allow_pickle=False")
    data = member[header.tell():]
    if data.size != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"member {name} holds {data.size} bytes for an "
                         f"array of shape {shape} and dtype {dtype}")
    array = data.view(dtype)
    if fortran_order:
        return array.reshape(shape[::-1]).T
    return array.reshape(shape)


@cache
def _crc32():
    """The CRC-32 of a uint8 array, as ``zlib.crc32`` gives it: through
    ``libdeflate_crc32`` of the system's ``libdeflate.so.0``, 4-8x as
    fast as zlib's on an 8 MB member, or ``zlib.crc32`` itself where that
    library or symbol does not load."""
    try:
        function = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return zlib.crc32
    # uint32_t libdeflate_crc32(uint32_t crc, const void *buffer, size_t len)
    function.argtypes = (
        ctypes.c_uint32,
        np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS"),
        ctypes.c_size_t)
    function.restype = ctypes.c_uint32

    def libdeflate_crc32(member):
        return function(0, member, member.size)
    return libdeflate_crc32


def _config_from_json(raw: np.ndarray, path):
    """``(TrainingConfig, {"total_tokens": .., "max_size": ..})`` from the
    archive's config member.  Checked against ``_CONFIG_TYPES`` in this
    order: it is a JSON object, it names no other key, it names every key,
    and each value has its key's type, where a JSON integer is a valid
    float and a boolean is never a number.  Ranges are left to
    ``TrainingConfig.__post_init__``.  A failure raises ValueError,
    prefixed ``path: ``."""
    try:
        values = json.loads(raw.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: bad config: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError(f"{path}: config must be a JSON object, "
                         f"not {type(values).__name__}")
    unknown = sorted(values.keys() - _CONFIG_TYPES.keys())
    if unknown:
        raise ValueError(f"{path}: unknown config key "
                         + ", ".join(map(repr, unknown)))
    missing = sorted(_CONFIG_TYPES.keys() - values.keys())
    if missing:
        raise ValueError(f"{path}: missing config key "
                         + ", ".join(map(repr, missing)))
    for key, value in values.items():
        expected = _CONFIG_TYPES[key]
        accepted = int | float if expected is float else expected
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"{path}: config key {key!r} must be "
                             f"{expected.__name__}, not {value!r}")
    vocab_fields = {key: values.pop(key) for key in _VOCABULARY_KEYS}
    try:
        return TrainingConfig(**values), vocab_fields
    except ValueError as exc:
        raise ValueError(f"{path}: bad config: {exc}") from None
