import functools
import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metovec.corpus import Vocabulary
from metovec.huffman import build_huffman_tree


def vocab_from_counts(counts: dict) -> Vocabulary:
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return Vocabulary(
        words=tuple(w for w, _ in ranked),
        counts=tuple(c for _, c in ranked),
        total_tokens=sum(counts.values()),
        max_size=len(counts),
    )


def same_tree(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in ((a.starts, b.starts),
                                                 (a.nodes, b.nodes),
                                                 (a.targets, b.targets)))


@functools.cache
def optimal_weighted_length(weights):
    """Brute-force minimal prefix-code cost by trying all merge orders.

    ``weights`` is a sorted tuple, so each multiset is solved once."""
    if len(weights) == 1:
        return 0
    best = math.inf
    for i, j in itertools.combinations(range(len(weights)), 2):
        merged = [w for k, w in enumerate(weights) if k not in (i, j)]
        merged.append(weights[i] + weights[j])
        cost = weights[i] + weights[j] \
            + optimal_weighted_length(tuple(sorted(merged)))
        best = min(best, cost)
    return best


def test_two_word_codes():
    tree = build_huffman_tree(vocab_from_counts({"a": 3, "b": 1}))
    assert all(len(code) == 1 for code in tree.codes)
    assert tree.nodes.tolist() == [0, 0]  # one internal node, the root
    assert tree.codes[0] != tree.codes[1]


def test_eleven_equal_frequency_words():
    counts = {f"w{i}": 5 for i in range(11)}
    vocab = vocab_from_counts(counts)
    tree = build_huffman_tree(vocab)
    mean = tree.mean_code_length(vocab.counts)
    assert 3 <= mean <= 4  # log2(11) is about 3.46


def test_textbook_frequencies():
    vocab = vocab_from_counts({"a": 4, "b": 2, "c": 1, "d": 1})
    tree = build_huffman_tree(vocab)
    lengths = {word: len(tree.codes[vocab.index[word]])
               for word in vocab.words}
    assert lengths == {"a": 1, "b": 2, "c": 3, "d": 3}


def test_too_small_vocab():
    with pytest.raises(ValueError):
        build_huffman_tree(vocab_from_counts({"only": 1}))


def test_codes_prefix_free():
    counts = {f"w{i}": i + 1 for i in range(9)}
    tree = build_huffman_tree(vocab_from_counts(counts))
    for a, b in itertools.permutations(tree.codes, 2):
        assert not np.array_equal(a[:len(b)], b)


def test_paths_match_codes():
    counts = {f"w{i}": (i % 3) + 1 for i in range(7)}
    tree = build_huffman_tree(vocab_from_counts(counts))
    assert all(len(c) == len(p) for c, p in zip(tree.codes, tree.paths))
    internal_nodes = len(counts) - 1
    assert all(0 <= node < internal_nodes
               for path in tree.paths for node in path)
    # every path starts at the root (the last internal node created)
    root = internal_nodes - 1
    assert all(path[0] == root for path in tree.paths)


def test_optimality_brute_force():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 8)
        counts = {f"w{i}": rng.randint(1, 20) for i in range(n)}
        vocab = vocab_from_counts(counts)
        tree = build_huffman_tree(vocab)
        cost = sum(len(code) * count
                   for code, count in zip(tree.codes, vocab.counts))
        assert cost == optimal_weighted_length(tuple(sorted(vocab.counts)))


def test_deterministic():
    counts = {f"w{i}": 2 for i in range(12)}
    a = build_huffman_tree(vocab_from_counts(counts))
    b = build_huffman_tree(vocab_from_counts(counts))
    assert same_tree(a, b)


def test_weighted_mean_code_length():
    vocab = vocab_from_counts({"a": 4, "b": 2, "c": 1, "d": 1})
    tree = build_huffman_tree(vocab)
    # (4*1 + 2*2 + 1*3 + 1*3) / 8
    assert tree.mean_code_length(vocab.counts) == pytest.approx(14 / 8)


def reference_tree(counts):
    """The reference builder: the same heap and tie rule as
    ``build_huffman_tree``, then a walk from each leaf up through parent
    and branch dicts, giving ``(codes, paths)`` as tuples of tuples."""
    n = len(counts)
    heap = [(count, idx) for idx, count in enumerate(counts)]
    heapq.heapify(heap)
    parent, branch, next_id = {}, {}, n
    while len(heap) > 1:
        c0, left = heapq.heappop(heap)
        c1, right = heapq.heappop(heap)
        parent[left] = parent[right] = next_id
        branch[left], branch[right] = 0, 1
        heapq.heappush(heap, (c0 + c1, next_id))
        next_id += 1
    codes, paths = [], []
    for leaf in range(n):
        code, path, node = [], [], leaf
        while node in parent:
            code.append(branch[node])
            path.append(parent[node] - n)
            node = parent[node]
        codes.append(tuple(reversed(code)))
        paths.append(tuple(reversed(path)))
    return tuple(codes), tuple(paths)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=60), st.booleans())
def test_matches_reference_builder(counts, ranked):
    """Counts of 1-5 over up to 60 words tie often, so the tie rule shows.
    A vocabulary built by hand or read from a model need not be ranked by
    count, so the counts are also taken in the order drawn."""
    if ranked:
        vocab = vocab_from_counts({f"w{i}": c for i, c in enumerate(counts)})
    else:
        vocab = Vocabulary(words=tuple(f"w{i}" for i in range(len(counts))),
                           counts=tuple(counts), total_tokens=sum(counts),
                           max_size=len(counts))
    tree = build_huffman_tree(vocab)
    codes, paths = reference_tree(vocab.counts)
    assert tree.starts.dtype == np.int64 and tree.nodes.dtype == np.int32
    assert tree.targets.dtype == np.float64
    assert np.array_equal(tree.starts,
                          [0, *itertools.accumulate(map(len, codes))])
    assert np.array_equal(tree.nodes, [n for path in paths for n in path])
    assert np.array_equal(tree.targets, [1 - b for code in codes for b in code])
    for w, (start, end) in enumerate(itertools.pairwise(tree.starts)):
        assert np.array_equal(tree.paths[w], tree.nodes[start:end])
        assert np.array_equal(tree.codes[w], 1 - tree.targets[start:end])
