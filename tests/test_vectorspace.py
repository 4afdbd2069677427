import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from metovec.embeddings import EmbeddingModel, NotInVocabularyError
from metovec.vectorspace import (SAFE_NORM_RANGE, _with_norms, analogy,
                                 confidence_scores,
                                 cosine_similarity, nearest_neighbours,
                                 phrase_vector)

from conftest import make_model

finite_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False,
              allow_subnormal=False), min_size=2, max_size=6)


def nonzero_norm(vec):
    return float(np.linalg.norm(vec)) > 0.0


def test_cosine_identical():
    assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) \
        == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)


def test_cosine_antipodal():
    assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)


def test_cosine_zero_norm_errors():
    with pytest.raises(ValueError):
        cosine_similarity([0, 0], [1, 0])


@given(finite_vectors, finite_vectors)
def test_cosine_symmetric(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    if not (nonzero_norm(a) and nonzero_norm(b)):
        return
    assert cosine_similarity(a, b) == cosine_similarity(b, a)
    assert -1 - 1e-12 <= cosine_similarity(a, b) <= 1 + 1e-12


@given(finite_vectors, st.floats(min_value=0.01, max_value=50))
# a norm computed from squares this small would underflow into subnormals
@example(a=[0.0, 1.9e-158], alpha=0.5)
def test_cosine_scale_invariant(a, alpha):
    b = [x + 1 for x in a]
    scaled = [alpha * x for x in a]
    if not (nonzero_norm(a) and nonzero_norm(b) and nonzero_norm(scaled)):
        return
    assert cosine_similarity(scaled, b) \
        == pytest.approx(cosine_similarity(a, b), abs=1e-9)


# the first norm of a vector scaled far up overflows before it is rescaled
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(finite_vectors, finite_vectors,
       st.integers(min_value=-900, max_value=900))
def test_cosine_power_of_two_scale_invariant(a, b, k):
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    assume(np.abs(a).max() > 1e-6 and nonzero_norm(b))
    assert cosine_similarity(np.ldexp(a, k), b) \
        == pytest.approx(cosine_similarity(a, b), abs=1e-12)


def test_confidence_clamps():
    assert confidence_scores([[1, 0]], [-1, 0])[0] == 0.0
    assert confidence_scores([[1, 0]], [0, 1])[0] == 0.0
    assert confidence_scores([[2, 2]], [1, 1])[0] == pytest.approx(1.0)


GRID = {
    "france": [1.0, 0.0],
    "paris": [1.0, 1.0],
    "italy": [2.0, 0.0],
    "rome": [2.0, 1.0],
    "banana": [-5.0, -7.0],
    "quark": [-8.0, 3.0],
}


def test_phrase_vector_single_word():
    model = make_model(GRID)
    pv = phrase_vector(model, ["paris"])
    assert np.allclose(pv.vector, [1.0, 1.0])
    assert pv.in_vocabulary and pv.oov_words == ()


def test_phrase_vector_mean():
    model = make_model(GRID)
    pv = phrase_vector(model, ["france", "italy"])
    assert np.allclose(pv.vector, [1.5, 0.0])
    assert pv.contributing_words == ("france", "italy")


def test_phrase_vector_all_oov():
    model = make_model(GRID)
    pv = phrase_vector(model, ["martian", "blorp"])
    assert not pv.in_vocabulary
    assert pv.vector is None
    assert pv.oov_words == ("martian", "blorp")


def test_phrase_vector_empty_errors():
    with pytest.raises(ValueError):
        phrase_vector(make_model(GRID), [])


def test_nearest_k_zero():
    model = make_model(GRID)
    assert nearest_neighbours(model, [1, 1], 0) == []


def test_nearest_self_first():
    model = make_model(GRID)
    hits = nearest_neighbours(model, GRID["rome"], 1)
    assert hits[0][0] == "rome"
    assert hits[0][1] == pytest.approx(1.0)


def test_nearest_full_vocab():
    model = make_model(GRID)
    hits = nearest_neighbours(model, [1, 0.5], len(GRID), exclude={"quark"})
    assert sorted(w for w, _ in hits) == sorted(set(GRID) - {"quark"})
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_zero_rows_left_out_of_rankings():
    with_zero = make_model({"zero": [0.0, 0.0], **GRID})
    without = make_model(GRID)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 RuntimeWarning
        hits = nearest_neighbours(with_zero, GRID["rome"], len(GRID) + 1)
        best = analogy(with_zero, "france", "paris", "italy", k=len(GRID))
    assert hits == nearest_neighbours(without, GRID["rome"], len(GRID))
    assert best == analogy(without, "france", "paris", "italy", k=len(GRID))
    assert best[0][0] == "rome"


def test_analogy_planted():
    model = make_model(GRID)
    hits = analogy(model, "france", "paris", "italy", k=1)
    assert hits[0][0] == "rome"
    # brute-force confirmation over the remaining vocabulary
    query = np.array(GRID["paris"]) - np.array(GRID["france"]) \
        + np.array(GRID["italy"])
    best = max((w for w in GRID if w not in ("france", "paris", "italy")),
               key=lambda w: cosine_similarity(query, GRID[w]))
    assert best == "rome"


def test_analogy_degenerate_offset():
    model = make_model(GRID)
    hits = analogy(model, "france", "france", "rome", k=1)
    expected = nearest_neighbours(model, GRID["rome"], 1,
                                  exclude={"france", "rome"})
    assert hits == expected


def test_analogy_oov():
    with pytest.raises(NotInVocabularyError):
        analogy(make_model(GRID), "france", "paris", "atlantis")


def test_nearest_scale_invariant_argmax():
    model = make_model(GRID)
    base = nearest_neighbours(model, [1.0, 0.4], 3)
    scaled = nearest_neighbours(model, [3.0, 1.2], 3)
    assert [w for w, _ in base] == [w for w, _ in scaled]


def test_nearest_tie_break_by_vocab_id():
    model = make_model({"a": [1.0, 0.0], "b": [2.0, 0.0], "c": [0.0, 1.0]})
    hits = nearest_neighbours(model, [1.0, 0.0], 2)
    # a and b tie at cosine 1; the lower vocab id wins
    assert [w for w, _ in hits] == ["a", "b"]


def test_similarity_matches_math():
    a, b = [3.0, 4.0], [4.0, 3.0]
    expected = (3 * 4 + 4 * 3) / (5 * 5)
    assert cosine_similarity(a, b) == pytest.approx(expected)
    assert math.isclose(confidence_scores([a], b)[0], expected)


@st.composite
def tied_models(draw):
    """Models of 2-9 rows drawn from a few small integer vectors, so that
    duplicated and parallel rows give exact ties; some hold zero rows."""
    dim = draw(st.integers(1, 3))
    vectors = st.lists(st.integers(-2, 2).map(float), min_size=dim,
                       max_size=dim)
    distinct = draw(st.lists(vectors, min_size=1, max_size=4))
    if draw(st.booleans()):
        distinct.append([0.0] * dim)
    rows = draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=9))
    return make_model({f"w{i}": row for i, row in enumerate(rows)})


def brute_neighbours(model, query, k, exclude):
    """Every nonzero, non-excluded row sorted by (-cosine, vocab id)."""
    hits = sorted((-cosine_similarity(row, query), wid)
                  for wid, row in enumerate(model.input_vectors)
                  if row.any() and model.vocab.words[wid] not in exclude)
    return [(model.vocab.words[wid], -score) for score, wid in hits[:k]]


@given(tied_models(), st.data())
def test_nearest_matches_brute_force(model, data):
    size, dim = model.input_vectors.shape
    query = data.draw(st.lists(st.integers(-2, 2).map(float), min_size=dim,
                               max_size=dim).filter(any), label="query")
    exclude = data.draw(st.sets(st.sampled_from(
        [*model.vocab.words, "unknown"])), label="exclude")
    k = data.draw(st.sampled_from([1, size - 1, size, size + 2]), label="k")
    assert nearest_neighbours(model, query, k, exclude) \
        == brute_neighbours(model, query, k, exclude)


def test_nearest_ties_at_kth_place():
    """Rows 1-3 tie exactly; a top-2 must keep the two lowest ids."""
    model = make_model({"a": [0.0, 1.0], "b": [2.0, 2.0], "c": [1.0, 1.0],
                        "d": [1.0, 1.0], "e": [0.0, 0.0]})
    assert [w for w, _ in nearest_neighbours(model, [1.0, 1.0], 2)] \
        == ["b", "c"]
    assert [w for w, _ in nearest_neighbours(model, [1.0, 1.0], 3,
                                             exclude={"c"})] \
        == ["b", "d", "a"]


def test_confidence_of_parallel_vectors_at_most_one():
    """(a, 3a) has cosine 1 up to rounding, which often lands above 1;
    the clamp keeps every score at most 1."""
    rng = np.random.default_rng(3)
    scores = [confidence_scores([a], 3 * a)[0]
              for a in rng.normal(size=(2000, 5))]
    assert max(scores) == 1.0 and min(scores) > 1.0 - 1e-15


@st.composite
def scaled_models(draw):
    """Models of 2-8 rows with a row of zeros, and rows scaled by 2**600
    or 2**-600, whose norms lie outside SAFE_NORM_RANGE."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.floats(-4, 4, allow_nan=False, allow_subnormal=False),
                   min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    exponents = draw(st.lists(st.sampled_from([-600, 0, 600]),
                              min_size=len(rows), max_size=len(rows)))
    rows = [np.ldexp(r, e).tolist() for r, e in zip(rows, exponents)]
    rows.insert(draw(st.integers(0, len(rows))), [0.0] * dim)
    return make_model({f"w{i}": r for i, r in enumerate(rows)})


def full_rescaling(rows):
    """``_with_norms`` with no shortcut: the rows whose norm is outside
    SAFE_NORM_RANGE are rescaled, whether there are some or none."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    low, high = SAFE_NORM_RANGE
    ids = np.flatnonzero(~((low < norms) & (norms < high)))
    _, exponents = np.frexp(np.abs(rows[ids]).max(axis=1, initial=0.0))
    scaled = np.ldexp(rows[ids], -exponents[:, None])
    norms[ids] = np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    return norms, ids, scaled


@st.composite
def mixed_blocks(draw):
    """Blocks of 1-6 rows, each in range, scaled by 2**-600 (tiny) or
    2**600 (huge), or a row of zeros."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.floats(-4, 4, allow_nan=False, allow_subnormal=False),
                   min_size=dim, max_size=dim)
    kinds = st.sampled_from([0, 0, -600, 600, None])  # None: zeros
    rows = draw(st.lists(st.tuples(row, kinds), min_size=1, max_size=6))
    return np.array([[0.0] * dim if exponent is None
                     else np.ldexp(r, exponent) for r, exponent in rows])


@given(mixed_blocks())
@example(np.array([[1.0, 2.0], [-3.0, 0.5]]))
@example(np.array([[1.0, 2.0], [0.0, 0.0], [2.0 ** -600, 0.0],
                   [0.0, 2.0 ** 600]]))
def test_with_norms_matches_full_rescaling(block):
    """The norms, ids and rescaled rows have the bits, shapes and dtypes of
    the full rescaling path, also where no row is rescaled."""
    got, want = _with_norms(block.copy()), full_rescaling(block.copy())
    for ours, theirs in zip(got, want, strict=True):
        assert (ours.shape, ours.dtype) == (theirs.shape, theirs.dtype)
        assert ours.tobytes() == theirs.tobytes()


def fresh_copy(model):
    """An equal model that no query has touched."""
    return EmbeddingModel(model.input_vectors.copy(),
                          model.node_vectors.copy(), model.vocab,
                          model.config)


def exact_outcome(query, model):
    """The hits of ``query(model)`` with each score's exact bits, or the
    ValueError it raises (a zero-norm query)."""
    try:
        return [(word, score.hex()) for word, score in query(model)]
    except ValueError as exc:
        return str(exc)


@given(scaled_models(), st.data())
def test_repeated_queries_match_a_fresh_model(model, data):
    """The norms kept after the first query rank as norms computed anew."""
    words = st.sampled_from(model.vocab.words)
    k = st.integers(1, len(model.vocab) + 1)
    neighbours = st.builds(
        lambda w, k: lambda m: nearest_neighbours(m, m.vector(w), k, {w}),
        words, k)
    analogies = st.builds(lambda a, b, c, k: lambda m: analogy(m, a, b, c, k),
                          words, words, words, k)
    queries = data.draw(st.lists(neighbours | analogies, min_size=2,
                                 max_size=6), label="queries")
    for query in queries:
        assert exact_outcome(query, model) \
            == exact_outcome(query, fresh_copy(model))


def test_input_vectors_read_only_after_a_query():
    model = make_model(GRID)
    model.input_vectors[0, 0] = 1.0
    nearest_neighbours(model, GRID["rome"], 1)
    with pytest.raises(ValueError):
        model.input_vectors[0, 0] = 1.0
    assert not any(array.flags.writeable for array in model.input_norms[1])


def test_deep_copy_edited_in_place_is_ranked():
    model = make_model(GRID)
    assert nearest_neighbours(model, GRID["rome"], 1)[0][0] == "rome"
    edited = copy.deepcopy(model)
    edited.input_vectors[[0, 3]] = edited.input_vectors[[3, 0]]
    hits = nearest_neighbours(edited, GRID["rome"], len(GRID))
    assert hits == nearest_neighbours(fresh_copy(edited), GRID["rome"],
                                      len(GRID))
    assert hits[0][0] == "france"
    assert nearest_neighbours(model, GRID["rome"], 1)[0][0] == "rome"


def test_rebound_input_vectors_are_ranked():
    model = make_model(GRID)
    assert nearest_neighbours(model, GRID["rome"], 1)[0][0] == "rome"
    other = model.input_vectors.copy()
    other[[0, 3]] = other[[3, 0]]  # france <-> rome
    model.input_vectors = other
    assert other.flags.writeable
    assert nearest_neighbours(model, GRID["rome"], 1)[0][0] == "france"
    assert analogy(model, "rome", "paris", "italy") \
        == analogy(fresh_copy(model), "rome", "paris", "italy")
    assert not other.flags.writeable

