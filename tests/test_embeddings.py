import ctypes
import functools
import io
import json
import math
import re
import struct
import subprocess
import tempfile
import time
import tracemalloc
import zipfile
import zlib
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from metovec import _hs, embeddings
from metovec.cli import main
from metovec.corpus import Vocabulary, build_vocabulary, load_corpus
from metovec.embeddings import (CBOW, SKIPGRAM, EmbeddingModel,
                                NotInVocabularyError, TrainingConfig,
                                TrainStats,
                                example_gradients_cbow,
                                example_gradients_skipgram,
                                example_loss_cbow, example_loss_skipgram,
                                init_model, leaf_probability, load_model,
                                save_model, sigmoid, train,
                                train_example_cbow, train_example_skipgram)
from metovec.huffman import build_huffman_tree
from metovec.vectorspace import nearest_neighbours

from conftest import BAD_CONFIG_RANGES, make_model
from test_huffman import same_tree, vocab_from_counts


def random_model(n_words=6, dim=4, seed=0, mode=SKIPGRAM):
    rng = np.random.default_rng(seed)
    counts = {f"w{i}": int(rng.integers(1, 10)) for i in range(n_words)}
    vocab = vocab_from_counts(counts)
    config = TrainingConfig(mode=mode, dim=dim, seed=seed)
    model = init_model(vocab, config)
    # non-trivial node vectors so gradients are exercised off the origin
    model.node_vectors[:] = rng.normal(scale=0.3,
                                       size=model.node_vectors.shape)
    model.input_vectors[:] = rng.normal(scale=0.3,
                                        size=model.input_vectors.shape)
    return model


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(mode="glove")
    with pytest.raises(ValueError):
        TrainingConfig(window=0)
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(lr_start=0.001, lr_end=0.01)


def test_sigmoid_clamp_preserves_symmetry():
    for x in (-50.0, -6.0, -1.5, 0.0, 2.0, 100.0):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_clamp_matches_compiled_step():
    """_hs.c states the clamp again, as CLAMP; the two must agree."""
    define = re.search(r"^#define CLAMP (\S+)$", _hs.SOURCE.read_text(),
                       re.MULTILINE)
    assert float(define.group(1)) == embeddings.SIGMOID_CLAMP


def test_leaf_probability_zero_nodes():
    model = random_model()
    model.node_vectors[:] = 0.0
    context = np.ones(4)
    for wid, word in enumerate(model.vocab.words):
        expected = 0.5 ** len(model.tree.codes[wid])
        assert leaf_probability(model, model.tree, context, word) \
            == pytest.approx(expected)


def test_leaf_probability_sums_to_one():
    model = random_model(n_words=5, seed=3)
    context = np.random.default_rng(1).normal(size=4)
    total = sum(leaf_probability(model, model.tree, context, w)
                for w in model.vocab.words)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_leaf_probability_two_words_sigmoid_symmetry():
    model = random_model(n_words=2)
    context = np.random.default_rng(2).normal(size=4)
    p0 = leaf_probability(model, model.tree, context, model.vocab.words[0])
    p1 = leaf_probability(model, model.tree, context, model.vocab.words[1])
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_leaf_probability_oov():
    model = random_model()
    with pytest.raises(NotInVocabularyError):
        leaf_probability(model, model.tree, np.zeros(4), "missing")


def finite_difference(model, loss_fn, grads, h=1e-5):
    """Worst relative error of analytic vs central-difference gradients."""
    worst = 0.0
    for (kind, idx), grad in grads.items():
        mat = model.input_vectors if kind == "input" else model.node_vectors
        for j in range(mat.shape[1]):
            orig = mat[idx, j]
            mat[idx, j] = orig + h
            hi = loss_fn()
            mat[idx, j] = orig - h
            lo = loss_fn()
            mat[idx, j] = orig
            numeric = (hi - lo) / (2 * h)
            scale = max(abs(numeric), abs(grad[j]), 1e-8)
            worst = max(worst, abs(numeric - grad[j]) / scale)
    return worst


def test_gradient_check_cbow():
    model = random_model(seed=11, mode=CBOW)
    sentence = [0, 2, 4, 1, 3]
    grads = example_gradients_cbow(model, model.tree, sentence, 2, 2)
    err = finite_difference(
        model,
        lambda: example_loss_cbow(model, model.tree, sentence, 2, 2),
        grads)
    assert err < 1e-4


def test_gradient_check_skipgram():
    model = random_model(seed=12)
    sentence = [1, 3, 0, 5, 2]
    grads = example_gradients_skipgram(model, model.tree, sentence, 2, 2)
    err = finite_difference(
        model,
        lambda: example_loss_skipgram(model, model.tree, sentence, 2, 2),
        grads)
    assert err < 1e-4


def test_step_decreases_loss():
    for mode, step, loss_fn in (
            (CBOW, train_example_cbow, example_loss_cbow),
            (SKIPGRAM, train_example_skipgram, example_loss_skipgram)):
        model = random_model(seed=21, mode=mode)
        sentence = [0, 1, 2, 3, 4]
        before = loss_fn(model, model.tree, sentence, 2, model.config.window)
        assert step(model, model.tree, 2, sentence, lr=1e-3)
        after = loss_fn(model, model.tree, sentence, 2, model.config.window)
        assert after < before


def test_cbow_touches_code_length_nodes():
    model = random_model(seed=31, mode=CBOW)
    sentence = [0, 1, 2]
    stats = TrainStats()
    train_example_cbow(model, model.tree, 1, sentence, 0.01, stats=stats)
    assert stats.predictions == 1
    assert stats.node_updates == len(model.tree.codes[sentence[1]])


def test_skipgram_eight_targets_at_window_four():
    model = random_model(n_words=12, seed=32)
    sentence = list(range(9))
    stats = TrainStats()
    train_example_skipgram(model, model.tree, 4, sentence, 0.01,
                           window=4, stats=stats)
    assert stats.predictions == 8


def test_update_locality():
    for mode, step in ((CBOW, train_example_cbow),
                       (SKIPGRAM, train_example_skipgram)):
        model = random_model(seed=41, mode=mode)
        sentence = [0, 2, 4]
        inputs_before = model.input_vectors.copy()
        nodes_before = model.node_vectors.copy()
        step(model, model.tree, 1, sentence, 0.05)
        changed_inputs = {int(i) for i in
                          np.nonzero((model.input_vectors
                                      != inputs_before).any(axis=1))[0]}
        changed_nodes = {int(i) for i in
                         np.nonzero((model.node_vectors
                                     != nodes_before).any(axis=1))[0]}
        if mode == CBOW:
            allowed_inputs = {0, 4}
            allowed_nodes = set(model.tree.paths[2])
        else:
            allowed_inputs = {2}
            allowed_nodes = set(model.tree.paths[0]) | set(model.tree.paths[4])
        assert changed_inputs <= allowed_inputs
        assert changed_nodes <= allowed_nodes


def test_example_skipped_without_context():
    model = random_model()
    stats = TrainStats()
    assert not train_example_cbow(model, model.tree, 0, [3], 0.01,
                                  stats=stats)
    assert stats.skipped == 1 and stats.examples == 0


def other_tree(model):
    """The Huffman tree of a vocabulary one word larger than ``model``'s."""
    return build_huffman_tree(vocab_from_counts(
        {f"x{i}": i + 1 for i in range(len(model.vocab) + 1)}))


@pytest.mark.parametrize("step", [train_example_cbow, train_example_skipgram])
@pytest.mark.parametrize("sentence, focus, tree, window, error", [
    ([0, -1, 2], 1, None, 2, IndexError),
    ([0, 6, 2], 0, None, 2, IndexError),
    ([0, 1, 2], 3, None, 2, IndexError),
    ([0, 1, 2], 1, other_tree, 2, ValueError),
    ([0, 1, 2], 1, None, 0, ValueError)],
    ids=["negative-id", "id-equal-to-V", "focus-past-end", "other-tree",
         "window-0"])
def test_train_example_checks_bounds(step, sentence, focus, tree, window,
                                     error):
    model = random_model(seed=61)  # V = 6
    tree = tree(model) if tree else model.tree
    inputs_before = model.input_vectors.copy()
    nodes_before = model.node_vectors.copy()
    with pytest.raises(error):
        step(model, tree, focus, sentence, 0.05, window=window)
    assert np.array_equal(model.input_vectors, inputs_before)
    assert np.array_equal(model.node_vectors, nodes_before)


# past an int64 (2**63 - 1 and up) a window reaches _hs.c only as one
# as long as the sentence or corpus, with the same bits
HUGE_WINDOWS = [2 ** 63 - 1, 2 ** 63, 2 ** 64 + 1]


@pytest.mark.parametrize("step", [train_example_cbow, train_example_skipgram])
@pytest.mark.parametrize("window", HUGE_WINDOWS)
def test_train_example_huge_window(step, window):
    sentence = [0, 1, 2, 3, 4]
    models = [random_model(seed=62), random_model(seed=62)]
    for model, w in zip(models, [window, len(sentence)]):
        for focus in range(len(sentence)):
            assert step(model, model.tree, focus, sentence, 0.05, window=w)
    assert np.array_equal(models[0].input_vectors, models[1].input_vectors)
    assert np.array_equal(models[0].node_vectors, models[1].node_vectors)


@pytest.mark.parametrize("mode", [CBOW, SKIPGRAM])
@pytest.mark.parametrize("window", HUGE_WINDOWS)
def test_train_huge_window(tiny_corpus, mode, window):
    longest = max(len(sentence.lemmas) for sentence in tiny_corpus)
    models, stats = [], []
    for w in (window, longest):
        stats.append(TrainStats())
        models.append(train(tiny_corpus, TrainingConfig(
            mode=mode, window=w, dim=6, epochs=2, seed=9), stats=stats[-1]))
    assert np.array_equal(models[0].input_vectors, models[1].input_vectors)
    assert np.array_equal(models[0].node_vectors, models[1].node_vectors)
    assert stats[0].examples == stats[1].examples > 0
    assert stats[0].skipped == stats[1].skipped == 0


def test_cbow_repeated_context_word_updated_per_occurrence():
    # the compiled step against the numpy gradient oracle; the context of
    # focus 2 at window 2 is [1, 3, 1, 4], so word 1 occurs twice
    model = random_model(seed=51, mode=CBOW)
    sentence, lr = [1, 3, 2, 1, 4], 0.05
    grads = example_gradients_cbow(model, model.tree, sentence, 2, 2)
    inputs_before = model.input_vectors.copy()
    nodes_before = model.node_vectors.copy()
    assert train_example_cbow(model, model.tree, 2, sentence, lr, window=2)
    for kind, before, after in (
            ("input", inputs_before, model.input_vectors),
            ("node", nodes_before, model.node_vectors)):
        for row in range(len(before)):
            expected = -lr * grads.get((kind, row), np.zeros(4))
            np.testing.assert_allclose(after[row] - before[row], expected,
                                       rtol=0, atol=1e-12)


def repeats_corpus(path, seed):
    """Seeded plain corpus over 7 Zipf-weighted words: many repeated words
    in one window, and one-word sentences that train nothing."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(7)]
    weights = 1.0 / np.arange(1, 8)
    lines = [" ".join(rng.choice(words, size=int(rng.integers(1, 10)),
                                 p=weights / weights.sum()))
             for _ in range(40)] + ["w0", "w3"]
    path.write_text("\n".join(lines) + "\n")
    return load_corpus(path, "plain")


def long_paths_corpus(path, seed):
    """Seeded plain corpus of 11 words counted 512, 256, ..., 2, 1, 1 in
    sentences of 1 to 12 words: their Huffman paths are 1 to 10 nodes long,
    so the step meets every remainder of a path's length divided by four."""
    rng = np.random.default_rng(seed)
    counts = [2 ** i for i in range(9, -1, -1)] + [1]
    tokens = rng.permutation([f"w{i}" for i, count in enumerate(counts)
                              for _ in range(count)]).tolist()
    lines = []
    while tokens:
        size = int(rng.integers(1, 13))
        lines.append(" ".join(tokens[:size]))
        del tokens[:size]
    path.write_text("\n".join(lines) + "\n")
    return load_corpus(path, "plain")


def python_train(corpus, config):
    """Sequential trainer in pure Python, the reference for the one
    compiled step that ``train`` and ``train_example_*`` run, in its order
    of operations: each dot product summed in four interleaved lanes
    (``k % 4`` below ``dim - dim % 4``, the tail into lane 0) and combined
    as ``(s0 + s1) + (s2 + s3)``, gradients summed left to right from 0.0,
    ``math.exp``, and one ``math.log`` per prediction of the product of its
    node probabilities.  Returns the model, the TrainStats counts and the
    mean loss per prediction of each epoch."""
    vocab = build_vocabulary(corpus, config.max_vocab, config.min_count)
    model = init_model(vocab, config)
    tree = model.tree
    inputs = model.input_vectors.tolist()
    nodes = model.node_vectors.tolist()
    dim = config.dim
    lanes_end = dim - dim % 4

    def step(hidden, word, lr):
        grad = [0.0] * dim
        prob = 1.0
        for node_id, bit in zip(tree.paths[word], tree.codes[word]):
            node = nodes[node_id]
            lanes = [0.0] * 4
            for k in range(dim):  # not sum(): it compensates from 3.12 on
                lanes[k % 4 if k < lanes_end else 0] += node[k] * hidden[k]
            score = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
            score = min(max(score, -6.0), 6.0)
            e = math.exp(-score)
            p = 1.0 / (1.0 + e)
            residual = p - (1.0 - bit)
            prob *= e / (1.0 + e) if bit else p
            for k in range(dim):
                grad[k] += residual * node[k]
                node[k] -= lr * residual * hidden[k]
        return grad, -math.log(prob)

    encoded = [ids for ids in ([vocab.index[lemma] for lemma in s.lemmas
                                if lemma in vocab.index] for s in corpus)
               if ids]
    total = sum(map(len, encoded)) * config.epochs
    seen = 0
    counts = dict(examples=0, skipped=0, predictions=0, node_updates=0)
    epoch_losses = []
    for _ in range(config.epochs):
        epoch_loss, epoch_predictions = 0.0, 0
        for ids in encoded:
            for focus, fid in enumerate(ids):
                lr = config.lr_start \
                    - (config.lr_start - config.lr_end) * (seen / total)
                seen += 1
                context = (ids[max(0, focus - config.window):focus]
                           + ids[focus + 1:focus + config.window + 1])
                if not context:
                    counts["skipped"] += 1
                    continue
                counts["examples"] += 1
                targets = [fid] if config.mode == CBOW else context
                for target in targets:
                    if config.mode == CBOW:
                        hidden = [0.0] * dim
                        for cid in context:
                            for k in range(dim):
                                hidden[k] += inputs[cid][k]
                        hidden = [h / len(context) for h in hidden]
                    else:
                        hidden = inputs[fid]
                    grad, loss = step(hidden, target, lr)
                    epoch_loss += loss
                    epoch_predictions += 1
                    counts["node_updates"] += len(tree.paths[target])
                    if config.mode == CBOW:
                        update = [lr * g / len(context) for g in grad]
                        for cid in context:
                            for k in range(dim):
                                inputs[cid][k] -= update[k]
                    else:
                        for k in range(dim):
                            hidden[k] -= lr * grad[k]
        counts["predictions"] += epoch_predictions
        epoch_losses.append(epoch_loss / epoch_predictions)
    model.input_vectors[:] = inputs
    model.node_vectors[:] = nodes
    return model, counts, epoch_losses


@pytest.mark.parametrize("mode", [CBOW, SKIPGRAM])
@pytest.mark.parametrize("seed, window, dim", [(1, 1, 3), (2, 2, 5),
                                               (3, 4, 8), (4, 3, 17),
                                               (5, 2, 2), (6, 3, 6)])
def test_train_matches_python_trainer(tmp_path, mode, seed, window, dim):
    corpus = repeats_corpus(tmp_path / "repeats.txt", seed)
    # at word2vec's 0.025 the scores stay so small that exp(-score) rounds
    # alike under any order of the dot product's sum; 1.0 makes the order
    # show in the vectors
    config = TrainingConfig(mode=mode, window=window, dim=dim, epochs=2,
                            lr_start=1.0, seed=seed)
    assert_trains_as_python_train(corpus, config)


@pytest.mark.parametrize("mode", [CBOW, SKIPGRAM])
@pytest.mark.parametrize("dim", [5, 8, 17])
def test_train_matches_python_trainer_at_every_path_remainder(tmp_path, mode,
                                                              dim):
    """The step scores and updates a path's nodes four at a time, then the
    one to three left over: paths of every length % 4, some of two full
    groups, train the bits of python_train's one node at a time."""
    corpus = long_paths_corpus(tmp_path / "long.txt", dim)
    config = TrainingConfig(mode=mode, window=3, dim=dim, epochs=2,
                            lr_start=1.0, seed=dim)
    vocab = build_vocabulary(corpus, config.max_vocab, config.min_count)
    lengths = np.diff(init_model(vocab, config).tree.starts).tolist()
    assert set(range(1, 10)) <= set(lengths)
    assert {length % 4 for length in lengths} == {0, 1, 2, 3}
    assert max(lengths) >= 8
    assert_trains_as_python_train(corpus, config)


def assert_trains_as_python_train(corpus, config):
    stats = TrainStats()
    model = train(corpus, config, stats=stats)
    expected, counts, losses = python_train(corpus, config)
    assert np.array_equal(model.input_vectors, expected.input_vectors)
    assert np.array_equal(model.node_vectors, expected.node_vectors)
    assert dict(examples=stats.examples, skipped=stats.skipped,
                predictions=stats.predictions,
                node_updates=stats.node_updates) == counts
    assert [epoch.loss for epoch in stats.epochs] \
        == pytest.approx(losses, rel=1e-12, abs=0)


@pytest.mark.parametrize("mode, step", [(CBOW, train_example_cbow),
                                        (SKIPGRAM, train_example_skipgram)])
def test_loss_at_deepest_tree(tmp_path, mode, step):
    """Fibonacci counts up to the int64 limit give the deepest Huffman
    path, 91 nodes; training on its word alone logs, per epoch, the mean
    of the per-node log1p sums of its predictions.  Each two-word sentence
    makes one prediction per example, so replaying the examples one by one
    through the same step gives the state before each prediction."""
    fibonacci = [1, 1]
    while fibonacci[-1] + fibonacci[-2] < 2**63:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    vocab = vocab_from_counts({f"w{i}": count
                               for i, count in enumerate(fibonacci)})
    config = TrainingConfig(mode=mode, epochs=3, lr_start=1.0, seed=7)
    replay = init_model(vocab, config)
    tree = replay.tree
    deepest = max(range(len(vocab)), key=lambda w: len(tree.codes[w]))
    assert len(tree.codes[deepest]) == 91
    corpus_path = tmp_path / "deepest.txt"
    corpus_path.write_text(f"{vocab.words[deepest]} "
                           f"{vocab.words[deepest]}\n" * 3)
    stats = TrainStats()
    model = train(load_corpus(corpus_path, "plain"), config, vocab=vocab,
                  stats=stats)

    path, bits = tree.paths[deepest], tree.codes[deepest]
    total, seen, losses = 6 * config.epochs, 0, []
    for _ in range(config.epochs):
        loss = 0.0
        for focus in (0, 1, 0, 1, 0, 1):
            scores = np.clip(replay.node_vectors[path]
                             @ replay.input_vectors[deepest], -6.0, 6.0)
            loss += sum(math.log1p(math.exp(-score)) + score * bit
                        for score, bit in zip(scores.tolist(), bits))
            lr = config.lr_start \
                - (config.lr_start - config.lr_end) * (seen / total)
            seen += 1
            assert step(replay, tree, focus, [deepest, deepest], lr)
        losses.append(loss / 6)
    assert np.array_equal(replay.input_vectors, model.input_vectors)
    assert np.array_equal(replay.node_vectors, model.node_vectors)
    assert all(math.isfinite(epoch.loss) for epoch in stats.epochs)
    assert [epoch.loss for epoch in stats.epochs] \
        == pytest.approx(losses, rel=1e-12, abs=0)


def fibonacci_vocab():
    """Fibonacci counts up to the int64 limit: the deepest Huffman tree,
    whose longest path is 91 nodes."""
    fibonacci = [1, 1]
    while fibonacci[-1] + fibonacci[-2] < 2**63:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    return vocab_from_counts({f"w{i}": count
                              for i, count in enumerate(fibonacci)})


@pytest.mark.parametrize("vocab", [
    fibonacci_vocab(), vocab_from_counts({"a": 3, "b": 2, "c": 1})],
    ids=["deepest", "short"])
@pytest.mark.parametrize("cbow", [True, False], ids=["cbow", "skipgram"])
def test_step_stays_inside_work(vocab, cbow):
    """hs_example writes, and reads, no double past a work of 2 * dim plus
    the longest path, the size _train_example gives it: NaN sentinels past
    its end stay NaN, and the step trains what train_example_* train."""
    config = TrainingConfig(dim=5, seed=3)
    model = init_model(vocab, config)
    tree, dim = model.tree, config.dim
    size = 2 * dim + int(np.diff(tree.starts).max())
    assert embeddings._work(tree, dim).shape == (size,)
    # the longest path's word is the focus, with every word as context
    ids = sorted(range(len(vocab)), key=lambda w: tree.starts[w + 1]
                 - tree.starts[w])[::-1]
    buffer = np.full(size + 64, np.nan)
    inputs, nodes = model.input_vectors.copy(), model.node_vectors.copy()
    assert _hs.library().hs_example(
        np.array(ids, dtype=np.int32), 0, len(ids), 0, tree.starts,
        tree.nodes, tree.targets, inputs, nodes, buffer[:size], dim,
        len(ids), cbow, 1.0, np.zeros(4, dtype=np.int64), np.zeros(2))
    assert np.isnan(buffer[size:]).all()
    step = train_example_cbow if cbow else train_example_skipgram
    assert step(model, tree, 0, ids, 1.0, window=len(ids))
    assert np.array_equal(inputs, model.input_vectors)
    assert np.array_equal(nodes, model.node_vectors)


def test_train_compiles_once_per_cache(tmp_path, monkeypatch, tiny_corpus):
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    commands = []
    run = subprocess.run

    def counting_run(command, **kwargs):
        commands.append(command)
        return run(command, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    config = TrainingConfig(dim=4, epochs=1)
    first = train(tiny_corpus, config)
    train(tiny_corpus, config)
    assert len(commands) == 1 and commands[0][0] == "cc"
    _hs._load.cache_clear()  # as a new process would: load the cached file
    again = train(tiny_corpus, config)
    assert len(commands) == 1
    assert [p.name for p in (cache / "metovec").iterdir()] \
        == [_hs.library_path().name]
    assert np.array_equal(first.input_vectors, again.input_vectors)


def test_a_build_removes_the_libraries_of_other_keys(tmp_path, monkeypatch,
                                                    tiny_corpus):
    """A library left by an earlier source goes; a concurrent build's
    temporary file and any other file stay."""
    cache = tmp_path / "cache" / "metovec"
    cache.mkdir(parents=True)
    for name in ("_hs-00000000.so", "tmpq8z1_x.so", "notes.txt"):
        (cache / name).write_text(name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    train(tiny_corpus, TrainingConfig(dim=4, epochs=1))
    assert sorted(p.name for p in cache.iterdir()) \
        == sorted([_hs.library_path().name, "tmpq8z1_x.so", "notes.txt"])


@pytest.mark.parametrize("compiler, reason", [
    (None, "No such file or directory"),
    ("#!/bin/sh\necho 'fatal error: no space left' >&2\nexit 1\n",
     "exited 1: fatal error: no space left")], ids=["missing", "failing"])
def test_train_without_compiler_is_an_error(tmp_path, monkeypatch,
                                            compiler, reason):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if compiler:
        (bin_dir / "cc").write_text(compiler)
        (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the dog barks at the fox\n")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(corpus), "--format", "plain",
              "--output", str(tmp_path / "model.txt")])
    message = str(exc.value.code)
    assert message.startswith("error: cannot compile the training loop: "
                              + " ".join(_hs.COMPILE) + " -o ")
    assert reason in message
    assert list((tmp_path / "cache" / "metovec").iterdir()) == []
    assert not (tmp_path / "model.txt").exists()


def test_compile_rounds_as_written():
    """The step must round every operation as python_train does: no fused
    multiply-add, no fast-math reassociation, and no flag that ties the
    library to the building machine's CPU.  The cache key names only the
    machine (x86_64), so a library built with -mavx2 would load, and fail,
    on a CPU of that name without AVX2; _hs.c gets its AVX2 step from a
    clone that the loader picks by CPU instead."""
    assert "-ffp-contract=off" in _hs.COMPILE
    assert not {"-ffast-math", "-Ofast", "-march=native", "-mavx2"} \
        & set(_hs.COMPILE)


def test_baseline_build_matches(tmp_path, monkeypatch):
    """The step built with -DMETOVEC_NO_CLONES, which has no AVX2 clone,
    trains the same bits as the library train loads, in both modes, at
    every dim % 4 tail and, on the long-path corpus, at every path length
    % 4.  On a CPU with AVX2 this is the one test that runs the baseline
    step, whose vectors are split into SSE2 halves."""
    corpora = [repeats_corpus(tmp_path / "repeats.txt", 3),
               long_paths_corpus(tmp_path / "long.txt", 3)]
    # lr_start 1.0 makes any change in the order of a sum show
    configs = [TrainingConfig(mode=mode, window=3, dim=dim, epochs=2,
                              lr_start=1.0, seed=dim)
               for mode in (CBOW, SKIPGRAM) for dim in range(2, 18)]
    loaded = [train(corpus, config)
              for corpus in corpora for config in configs]
    monkeypatch.setattr(_hs, "COMPILE", (*_hs.COMPILE, "-DMETOVEC_NO_CLONES"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _hs._load.cache_clear()
    _hs._key.cache_clear()
    try:
        baseline = [train(corpus, config)
                    for corpus in corpora for config in configs]
        assert [p.name for p in (tmp_path / "cache" / "metovec").iterdir()] \
            == [_hs.library_path().name]
    finally:  # the next caller keys and loads the library of _hs.COMPILE
        _hs._load.cache_clear()
        _hs._key.cache_clear()
    for config, model, other in zip(configs * len(corpora), loaded,
                                    baseline):
        assert np.array_equal(model.input_vectors, other.input_vectors), \
            config
        assert np.array_equal(model.node_vectors, other.node_vectors), config


def test_train_records_each_epoch(tmp_path, caplog):
    corpus = repeats_corpus(tmp_path / "repeats.txt", 4)
    config = TrainingConfig(dim=4, epochs=3, lr_start=0.02, lr_end=0.002)
    stats = TrainStats()
    with caplog.at_level("INFO", logger="metovec.embeddings"):
        train(corpus, config, stats=stats)
    assert len(stats.epochs) == 3
    lrs = [epoch.lr for epoch in stats.epochs]
    assert lrs == sorted(lrs, reverse=True)
    assert config.lr_end < lrs[-1] < config.lr_end + 1e-4
    assert all(epoch.seconds > 0 and epoch.tokens_per_s > 0
               for epoch in stats.epochs)
    assert all(epoch.loss > 0 for epoch in stats.epochs)
    messages = [record.getMessage() for record in caplog.records]
    epoch_lines = [m for m in messages if " epoch " in m]
    assert [m.split(":")[0] for m in epoch_lines] == [
        f"skipgram epoch {i}/3" for i in (1, 2, 3)]
    assert [f"loss {epoch.loss:.4f}," in m
            for m, epoch in zip(epoch_lines, stats.epochs)] == [True] * 3


def test_train_stops_at_non_finite_loss(tmp_path):
    """Too high a learning rate overflows the vectors; training stops at
    the first epoch whose loss is not finite, naming the rate."""
    corpus = repeats_corpus(tmp_path / "repeats.txt", 4)
    stats = TrainStats()
    with pytest.raises(ValueError) as err:
        train(corpus, TrainingConfig(dim=8, epochs=3, lr_start=10),
              stats=stats)
    assert str(err.value) \
        == "skipgram epoch 1: loss is not finite; lr_start 10 is too high"
    assert len(stats.epochs) == 1


@pytest.fixture
def tiny_corpus(tmp_path):
    text = ("the quick fox jumps over the lazy dog\n"
            "the dog barks at the fox\n") * 4
    path = tmp_path / "tiny.txt"
    path.write_text(text)
    return load_corpus(path, "plain")


@pytest.mark.parametrize("mode", [CBOW, SKIPGRAM])
def test_train_deterministic(tiny_corpus, mode):
    config = TrainingConfig(mode=mode, dim=6, epochs=2, seed=9)
    a = train(tiny_corpus, config)
    b = train(tiny_corpus, config)
    assert np.array_equal(a.input_vectors, b.input_vectors)
    assert np.array_equal(a.node_vectors, b.node_vectors)


def test_train_rejects_tiny_vocab(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("word word word\n")
    with pytest.raises(ValueError):
        train(load_corpus(path, "plain"), TrainingConfig(dim=4))


def test_save_load_round_trip(tiny_corpus, tmp_path):
    model = train(tiny_corpus, TrainingConfig(dim=5, epochs=1, seed=2))
    path = tmp_path / "model"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(model.input_vectors, loaded.input_vectors)
    assert np.array_equal(model.node_vectors, loaded.node_vectors)
    assert model.vocab.words == loaded.vocab.words
    assert same_tree(model.tree, loaded.tree)
    path2 = tmp_path / "model2"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# lemmas as the vertical reader yields them: any UTF-8 text without the tab
# and line-break characters that delimit its fields and lines, lowercased
vertical_lemmas = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    min_size=1).map(str.lower)


def test_save_load_multiword_lemmas(tmp_path):
    words = ["ice cream", " lead", "trail ", "a  b", "x"]
    model = make_model({w: [float(i), -0.5] for i, w in enumerate(words)})
    path = tmp_path / "model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocab.words == tuple(words)
    assert np.array_equal(loaded.input_vectors, model.input_vectors)
    path2 = tmp_path / "model2"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_model_peak_memory_near_its_arrays(tmp_path):
    """Each member is read into its array, with no copy of the archive's
    bytes."""
    rng = np.random.default_rng(0)
    model = make_model({f"w{i}": row for i, row in
                        enumerate(rng.normal(size=(2000, 50)))})
    model.node_vectors[:] = rng.normal(size=model.node_vectors.shape)
    path = tmp_path / "model"
    save_model(model, path)
    tracemalloc.start()
    try:
        loaded = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.node_vectors, model.node_vectors)
    assert peak < 2 * (loaded.input_vectors.nbytes
                       + loaded.node_vectors.nbytes)


training_configs = st.builds(
    TrainingConfig, mode=st.sampled_from([CBOW, SKIPGRAM]),
    window=st.integers(1, 10), epochs=st.integers(1, 10),
    lr_start=st.floats(0.5, 1.0), lr_end=st.floats(1e-6, 0.5),
    seed=st.integers(0, 2**32 - 1), min_count=st.integers(1, 5),
    max_vocab=st.integers(1, 10**6))


@settings(max_examples=50, deadline=None)
@given(st.lists(vertical_lemmas, min_size=1, max_size=8, unique=True),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1), training_configs,
       st.integers(0, 10**12), st.integers(1, 10**6))
def test_binary_round_trip_any_lemmas(words, dim, seed, config,
                                      total_tokens, max_size):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(tuple(words),
                       tuple(int(c) for c in rng.integers(1, 10**6,
                                                          len(words))),
                       total_tokens, max_size)
    model = EmbeddingModel(rng.uniform(-1e3, 1e3, size=(len(words), dim)),
                           rng.normal(size=(len(words) - 1, dim)), vocab,
                           replace(config, dim=dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.vocab == model.vocab
    assert np.array_equal(loaded.input_vectors, model.input_vectors)
    assert np.array_equal(loaded.node_vectors, model.node_vectors)


def saved_bytes(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        save_model(model, path)
        return path.read_bytes()


SMALL_MODEL = make_model({"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]},
                         {"a": 3, "b": 2, "c": 1})


@functools.cache
def small_archive() -> bytes:
    return saved_bytes(SMALL_MODEL)


def libdeflate_crc32():
    """The CRC-32 function that ``load_model`` chose, which is
    libdeflate's wherever ``libdeflate.so.0`` loads."""
    crc32 = embeddings._crc32()
    if crc32 is zlib.crc32:
        pytest.skip("libdeflate.so.0 does not load")
    return crc32


@pytest.fixture(params=["libdeflate", "zlib"])
def crc32(request, monkeypatch):
    """Each ``load_model`` in the test checks CRC-32s with libdeflate's
    function or with ``zlib.crc32``, forced in the cached chooser's place.
    A patch that stays for all of a hypothesis test's examples is safe."""
    if request.param == "libdeflate":
        libdeflate_crc32()  # skips where libdeflate.so.0 does not load
    else:
        monkeypatch.setattr(embeddings, "_crc32", lambda: zlib.crc32)


# the crc32 fixture is function-scoped: hypothesis would flag it
CORRUPT_ARCHIVE_SETTINGS = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(max_examples=200, deadline=None)
@given(st.binary())
@example(b"")
def test_libdeflate_crc32_is_zlibs(data):
    assert libdeflate_crc32()(np.frombuffer(data, np.uint8)) == \
        zlib.crc32(data)


@pytest.mark.parametrize("library", ["missing", "without-symbol"])
def test_crc32_falls_back_to_zlib(monkeypatch, library):
    """Where ``libdeflate.so.0`` or its ``libdeflate_crc32`` does not load,
    ``load_model`` checks CRC-32s with ``zlib.crc32``, as before."""
    def cdll(name):
        if library == "missing":
            raise OSError(f"{name}: cannot open shared object file")
        return object()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    embeddings._crc32.cache_clear()
    try:
        assert embeddings._crc32() is zlib.crc32
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model"
            path.write_bytes(small_archive())
            assert load_model(path).vocab == SMALL_MODEL.vocab
    finally:
        embeddings._crc32.cache_clear()


@CORRUPT_ARCHIVE_SETTINGS
@given(st.data())
def test_cut_binary_model_is_located(crc32, data):
    archive = small_archive()
    cut = data.draw(st.integers(0, len(archive) - 1), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        path.write_bytes(archive[:cut])
        with pytest.raises(ValueError) as err:
            load_model(path)
    assert str(err.value).startswith(f"{path}:")


@CORRUPT_ARCHIVE_SETTINGS
@given(st.data())
def test_flipped_bit_in_binary_model_is_located(crc32, data):
    """Any one flipped bit gives the same model (the zip does not check
    every field it reads) or a ValueError naming the file, never another
    exception."""
    archive = bytearray(small_archive())
    offset = data.draw(st.integers(0, len(archive) - 1), label="offset")
    archive[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        path.write_bytes(archive)
        try:
            loaded = load_model(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")
            return
    assert loaded.vocab == SMALL_MODEL.vocab
    assert np.array_equal(loaded.input_vectors, SMALL_MODEL.input_vectors)


def test_flipped_bit_in_large_member_header_is_located(tmp_path, crc32):
    """zipfile checks a member's CRC-32 once its reads reach the member's
    end, which for a member over 4 KiB came after numpy had parsed the .npy
    header: a flipped bit there raised tokenize.TokenError."""
    rng = np.random.default_rng(0)
    words = {f"w{i}": rng.standard_normal(10).tolist() for i in range(100)}
    path = tmp_path / "model"
    save_model(make_model(words, {w: 100 - i for i, w in enumerate(words)}),
               path)
    archive = bytearray(path.read_bytes())
    archive[archive.find(b"'shape': (100, 10), }") + 20] ^= 1  # } -> |
    path.write_bytes(archive)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == (f"{path}: bad model archive: Bad CRC-32 for "
                              "file 'inputs.npy'")


@pytest.fixture(scope="module")
def full_size_model(tmp_path_factory):
    """A V=10,000, D=100 model of random vectors and nodes, saved: each of
    its two 8 MB matrices is read into a mapping of its own."""
    rng = np.random.default_rng(0)
    model = make_model({f"w{i}": row for i, row in
                        enumerate(rng.normal(size=(10_000, 100)))})
    model.node_vectors[:] = rng.normal(size=model.node_vectors.shape)
    path = tmp_path_factory.mktemp("full-size") / "model"
    save_model(model, path)
    return model, path


def test_full_size_model_round_trip(full_size_model, crc32):
    """The zip's CRC-32s, written by zlib, match the chosen function's over
    8 MB of random bytes in a member's own mapping."""
    model, path = full_size_model
    loaded = load_model(path)
    assert loaded.node_vectors.nbytes >= embeddings._OWN_MAPPING_BYTES
    assert np.array_equal(loaded.input_vectors, model.input_vectors)
    assert np.array_equal(loaded.node_vectors, model.node_vectors)


@pytest.mark.parametrize("member", ["inputs.npy", "nodes.npy"])
def test_flipped_bit_in_full_size_member_is_located(full_size_model, crc32,
                                                    member, tmp_path):
    """A flipped bit in the middle of a member read into its own mapping."""
    archive = bytearray(full_size_model[1].read_bytes())
    with zipfile.ZipFile(io.BytesIO(archive)) as zipped:
        info = zipped.getinfo(member)
    # the local header: 30 bytes, then the member's name and extra field
    name_size, extra_size = struct.unpack_from("<HH", archive,
                                               info.header_offset + 26)
    start = info.header_offset + 30 + name_size + extra_size
    assert info.file_size >= embeddings._OWN_MAPPING_BYTES
    archive[start + info.file_size // 2] ^= 1
    path = tmp_path / "model"
    path.write_bytes(archive)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == (f"{path}: bad model archive: Bad CRC-32 for "
                              f"file {member!r}")


@pytest.mark.parametrize("offset, bit", [(6, 7), (8, 0), (10, 0), (-3, 7)],
                         ids=["zip-version", "encrypted", "compression",
                              "directory-offset"])
def test_unsupported_zip_field_is_located(tmp_path, offset, bit):
    """Flips that zipfile reports as NotImplementedError, RuntimeError or
    OSError: in the first central directory entry its version needed, its
    encryption flag and its compression method, and the directory's offset
    in the end record (counted from the end of the file)."""
    archive = bytearray(small_archive())
    if offset >= 0:
        offset += archive.find(b"PK\x01\x02")
    archive[offset] ^= 1 << bit
    path = tmp_path / "model"
    path.write_bytes(archive)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: bad model archive: ")


def test_binary_save_is_byte_identical_later(monkeypatch):
    """No time of writing reaches the archive: the zip would otherwise
    stamp each member with it, at a resolution of 2 seconds."""
    first = saved_bytes(SMALL_MODEL)
    clock = time.time
    monkeypatch.setattr(time, "time", lambda: clock() + 5.0)
    assert saved_bytes(SMALL_MODEL) == first


def test_save_rejects_line_break_in_word(tmp_path):
    model = make_model({"a": [1.0], "b\nc": [2.0]})
    with pytest.raises(ValueError, match=r"cannot save word 'b\\nc'"):
        save_model(model, tmp_path / "model")


@pytest.mark.parametrize("matrix, label", [("input_vectors", "vector"),
                                           ("node_vectors", "node")])
def test_save_rejects_non_finite_entry(tmp_path, matrix, label):
    """load_model takes no non-finite entry back, so none is written."""
    model = make_model({"a": [1.0, 2.0], "b": [3.0, 4.0]})
    getattr(model, matrix)[-1, 1] = np.inf
    path = tmp_path / "model"
    with pytest.raises(ValueError) as err:
        save_model(model, path)
    assert str(err.value) == f"cannot save non-finite {label} entry"
    assert not path.exists()


def archive_error(tmp_path, **changes):
    """The error of load_model on SMALL_MODEL's archive with each member
    named in ``changes`` replaced by its value, or dropped when None."""
    with np.load(io.BytesIO(small_archive()), allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    for name, value in changes.items():
        if value is None:
            del members[name]
        else:
            members[name] = value
    path = tmp_path / "model.npz"
    with open(path, "wb") as out:
        np.savez(out, **members)
    with pytest.raises(ValueError) as err:
        load_model(path)
    return str(err.value).removeprefix(f"{path}: ")


def utf8(text):
    return np.frombuffer(text.encode(), dtype=np.uint8)


def config_json(drop=(), **changes):
    """SMALL_MODEL's config member with ``changes`` and without ``drop``."""
    values = {**asdict(SMALL_MODEL.config), "total_tokens": 6,
              "max_size": 3, **changes}
    return utf8(json.dumps({k: v for k, v in values.items()
                            if k not in drop}))


MEMBERS = ("['config.npy', 'counts.npy', 'inputs.npy', 'nodes.npy', "
           "'words.npy']")


@pytest.mark.parametrize("changes, message", [
    ({"config": None}, "bad model archive: members ['counts.npy', "
     "'inputs.npy', 'nodes.npy', 'words.npy'], expected " + MEMBERS),
    ({"extra": np.zeros(1)}, "bad model archive: members ['config.npy', "
     "'counts.npy', 'extra.npy', 'inputs.npy', 'nodes.npy', 'words.npy'], "
     "expected " + MEMBERS),
    ({"words": np.array(["a", "b", "c"], dtype=object)},
     "bad model archive: Object arrays cannot be loaded when "
     "allow_pickle=False"),
    ({"inputs": np.ones((3, 2), dtype=np.float32)},
     "member inputs has dtype float32, expected float64"),
    ({"counts": np.array([3.0, 2.0, 1.0])},
     "member counts has dtype float64, expected int64"),
    ({"words": np.array(["a", "b", "c"])},
     "member words has dtype <U1, expected uint8"),
    ({"inputs": np.ones(3)}, "vectors of shape (3,) need V >= 1 and D >= 1"),
    ({"inputs": np.ones((0, 2))},
     "vectors of shape (0, 2) need V >= 1 and D >= 1"),
    ({"nodes": np.ones((3, 2))},
     "member nodes has shape (3, 2), expected (2, 2)"),
    ({"counts": np.array([3, 2])},
     "member counts has shape (2,), expected (3,)"),
    ({"words": np.ones((1, 3), dtype=np.uint8)},
     "member words has shape (1, 3), expected (3,)"),
    ({"inputs": np.array([[1.0, 2.0], [3.0, np.nan], [5.0, 6.0]])},
     "non-finite vector entry"),
    ({"nodes": np.array([[0.0, 0.0], [-np.inf, 0.0]])},
     "non-finite node entry"),
    ({"counts": np.array([3, 0, 1])}, "count 0 is below 1"),
    ({"words": utf8("a\nb")}, "2 words for 3 counts"),
    ({"words": utf8("a\nb\nc\nd")}, "4 words for 3 counts"),
    ({"words": np.frombuffer(b"a\nb\n\xe9", dtype=np.uint8)},
     "words are not UTF-8: 'utf-8' codec can't decode byte 0xe9 in "
     "position 4: unexpected end of data"),
    ({"config": utf8("{")}, "bad config: Expecting property name enclosed "
     "in double quotes: line 1 column 2 (char 1)"),
    ({"config": utf8("[]")}, "config must be a JSON object, not list"),
    ({"config": config_json(dimm=2)}, "unknown config key 'dimm'"),
    ({"config": config_json(drop=["max_size", "seed"])},
     "missing config key 'max_size', 'seed'"),
    ({"config": config_json(dim="2")}, "config key 'dim' must be int, "
     "not '2'"),
    ({"config": config_json(seed=True)}, "config key 'seed' must be int, "
     "not True"),
    ({"config": config_json(lr_end=None)}, "config key 'lr_end' must be "
     "float, not None"),
    ({"config": config_json(mode="glove")},
     "bad config: unknown training mode 'glove'"),
    ({"config": config_json(dim=3)}, "config dim 3 differs from vector "
     "width 2"),
    *(({"config": config_json(**values)}, message)
      for values, message in BAD_CONFIG_RANGES.values())],
    ids=["missing-member", "extra-member", "object-array", "inputs-dtype",
         "counts-dtype", "unicode-words", "inputs-1d", "no-words",
         "nodes-shape", "counts-shape", "words-2d", "nan-vector",
         "inf-node", "count-0", "fewer-words", "more-words", "words-utf8",
         "config-json", "config-list", "config-unknown", "config-missing",
         "config-str", "config-bool", "config-null", "config-mode",
         "config-dim", *BAD_CONFIG_RANGES])
def test_load_rejects_bad_archive(tmp_path, changes, message):
    assert archive_error(tmp_path, **changes) == message


def test_load_rejects_repeated_word_binary(tmp_path):
    assert archive_error(tmp_path, words=utf8("a\nb\na")) \
        == "word 'a' appears twice"


def test_load_rejects_compressed_archive(tmp_path):
    """Members are read straight from the file, so each must be stored
    uncompressed, as save_model stores it."""
    with np.load(io.BytesIO(small_archive()), allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    path = tmp_path / "model.npz"
    np.savez_compressed(path, **members)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) \
        == f"{path}: bad model archive: member inputs.npy is compressed"


def test_load_rejects_non_archive(tmp_path):
    """A model file is a zip archive; any other file, such as a text
    model, fails with a located error."""
    path = tmp_path / "model.txt"
    for text in ("2 1\na 0.5\nb -1.5\n#nodes\nn0 0.25\n#counts\na 2\nb 1\n",
                 ""):
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) \
            == f"{path}: bad model archive: File is not a zip file"


def test_binary_load_gives_writable_arrays(tmp_path):
    """The loaded vectors are views of the buffer each member was read
    into; training goes on in place from them."""
    path = tmp_path / "model"
    save_model(SMALL_MODEL, path)
    loaded = load_model(path)
    for array in (loaded.input_vectors, loaded.node_vectors):
        assert array.flags.writeable and array.flags.c_contiguous
    loaded.input_vectors[0, 0] = 9.0
    assert loaded.input_vectors[0, 0] == 9.0


def test_archive_config_takes_integer_float(tmp_path):
    """A JSON integer serves as a float, as in a --config file."""
    path = tmp_path / "model"
    save_model(replace(SMALL_MODEL, config=replace(SMALL_MODEL.config,
                                                   lr_start=1)), path)
    assert load_model(path).config.lr_start == 1


def test_tree_derived_on_first_use(tmp_path, monkeypatch):
    model = make_model({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]},
                       {"a": 3, "b": 2, "c": 1})
    path = tmp_path / "model.txt"
    save_model(model, path)
    builds = []

    def counting_build(vocab):
        builds.append(vocab)
        return build_huffman_tree(vocab)

    monkeypatch.setattr(embeddings, "build_huffman_tree", counting_build)
    loaded = load_model(path)
    nearest_neighbours(loaded, loaded.vector("a"), 2, exclude={"a"})
    assert builds == []  # loading and querying need no tree
    tree = loaded.tree
    assert builds == [loaded.vocab]
    assert loaded.tree is tree and len(builds) == 1
    assert same_tree(tree, build_huffman_tree(loaded.vocab))


def test_train_with_prebuilt_vocab(tiny_corpus):
    vocab = build_vocabulary(tiny_corpus, max_size=5)
    model = train(tiny_corpus, TrainingConfig(dim=4, epochs=1), vocab=vocab)
    assert len(model.vocab) == 5
