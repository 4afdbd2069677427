import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metovec.corpus import build_vocabulary, load_corpus
from metovec.embeddings import (CBOW, SKIPGRAM, NotInVocabularyError,
                                TrainingConfig, TrainStats,
                                example_gradients_cbow,
                                example_gradients_skipgram,
                                example_loss_cbow, example_loss_skipgram,
                                init_model, leaf_probability, load_model,
                                save_model, sigmoid, train,
                                train_example_cbow, train_example_skipgram)

from conftest import make_model
from test_huffman import vocab_from_counts


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
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(model.input_vectors, loaded.input_vectors)
    assert np.array_equal(model.node_vectors, loaded.node_vectors)
    assert model.vocab.words == loaded.vocab.words
    assert model.tree.codes == loaded.tree.codes
    path2 = tmp_path / "model2.txt"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# lemmas as the vertical reader yields them: any UTF-8 text without the tab
# and line-break characters that delimit its fields and lines, lowercased
vertical_lemmas = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    min_size=1).map(str.lower)


@settings(max_examples=50, deadline=None)
@given(st.lists(vertical_lemmas, min_size=1, max_size=8, unique=True),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_save_load_round_trip_any_lemmas(words, dim, seed):
    rng = np.random.default_rng(seed)
    model = make_model(
        {w: rng.uniform(-1e3, 1e3, size=dim) for w in words},
        {w: int(rng.integers(1, 10**6)) for w in words})
    model.node_vectors[:] = rng.normal(size=model.node_vectors.shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
    assert loaded.vocab.words == model.vocab.words
    assert loaded.vocab.counts == model.vocab.counts
    assert np.array_equal(loaded.input_vectors, model.input_vectors)
    assert np.array_equal(loaded.node_vectors, model.node_vectors)


def test_save_load_multiword_lemmas(tmp_path):
    words = ["ice cream", " lead", "trail ", "a  b", "x"]
    model = make_model({w: [float(i), -0.5] for i, w in enumerate(words)})
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocab.words == tuple(words)
    assert np.array_equal(loaded.input_vectors, model.input_vectors)
    path2 = tmp_path / "model2.txt"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_header(tiny_corpus, tmp_path):
    model = train(tiny_corpus, TrainingConfig(dim=5, epochs=1))
    path = tmp_path / "model.txt"
    save_model(model, path)
    header = path.read_text().splitlines()[0]
    assert header == f"{len(model.vocab)} 5"


def test_load_truncated_model(tiny_corpus, tmp_path):
    model = train(tiny_corpus, TrainingConfig(dim=5, epochs=1))
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError):
        load_model(tmp_path / "cut.txt")


def test_load_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n")
    with pytest.raises(ValueError):
        load_model(path)
    path.write_text("")
    with pytest.raises(ValueError):
        load_model(path)


def load_error(tmp_path, lineno, row):
    """The error of load_model on a saved 3-word, D=2 model whose line
    ``lineno`` is replaced by ``row``.  Lines 2-4 are vectors, 6-7 nodes
    and 9-11 counts."""
    model = make_model({"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]},
                       {"a": 3, "b": 2, "c": 1})
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_model(path)
    return str(err.value).removeprefix(f"{path}:")


@pytest.mark.parametrize("lineno, row, message", [
    (10, "z 2", "#counts word 'z' differs from vector word 'b'"),
    (11, "c 0", "count 0 is below 1"),
    (9, "a x", "bad count 'x'")])
def test_load_rejects_bad_count_row(tmp_path, lineno, row, message):
    assert load_error(tmp_path, lineno, row) == f"{lineno}: {message}"


@pytest.mark.parametrize("lineno, row, label", [
    (3, "b 3.0 nan", "vector"), (4, "c inf 6.0", "vector"),
    (7, "n1 0.0 -inf", "node")])
def test_load_rejects_non_finite(tmp_path, lineno, row, label):
    assert load_error(tmp_path, lineno, row) \
        == f"{lineno}: non-finite {label} entry"


def test_train_with_prebuilt_vocab(tiny_corpus):
    vocab = build_vocabulary(tiny_corpus, max_size=5)
    model = train(tiny_corpus, TrainingConfig(dim=4, epochs=1), vocab=vocab)
    assert len(model.vocab) == 5
