"""Huffman coding of the vocabulary for the hierarchical softmax."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class HuffmanTree:
    """Per-word prefix codes and root-to-leaf paths of internal node ids.

    ``codes[w]`` is the bit sequence for word id ``w`` and ``paths[w]`` the
    ids (0-based, ``n_internal`` of them in total) of the internal nodes
    visited from the root.  ``len(codes[w]) == len(paths[w])`` always holds.
    """

    codes: tuple[tuple[int, ...], ...]
    paths: tuple[tuple[int, ...], ...]

    @cached_property
    def flat_paths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every path in one array, as the trainer reads them:
        ``(starts, nodes, targets)``.  Word ``w``'s path is
        ``nodes[starts[w]:starts[w + 1]]`` (``int32`` node ids) and
        ``targets`` over the same span holds ``1 - code bits`` as floats.
        Built on first use and kept for the life of the tree."""
        starts = np.zeros(len(self.paths) + 1, dtype=np.int64)
        np.cumsum([len(path) for path in self.paths], out=starts[1:])
        nodes = np.fromiter((n for path in self.paths for n in path),
                            dtype=np.int32, count=starts[-1])
        bits = np.fromiter((b for code in self.codes for b in code),
                           dtype=float, count=starts[-1])
        return starts, nodes, 1.0 - bits

    @property
    def n_internal(self) -> int:
        return len(self.codes) - 1

    def mean_code_length(self, counts=None) -> float:
        """Mean code length, frequency-weighted when ``counts`` is given."""
        lengths = [len(c) for c in self.codes]
        if counts is None:
            return sum(lengths) / len(lengths)
        total = sum(counts)
        return sum(l * c for l, c in zip(lengths, counts)) / total


def build_huffman_tree(vocab) -> HuffmanTree:
    """Build the Huffman tree over vocabulary frequencies.

    Deterministic: heap ties are resolved by lowest node id first, where
    leaves carry their vocabulary ids and internal nodes are numbered in
    creation order from ``len(vocab)`` upward.
    """
    n = len(vocab)
    if n < 2:
        raise ValueError("need at least 2 vocabulary words to build a tree")
    # heap entries: (count, node_id); node ids < n are leaves
    heap = [(count, idx) for idx, count in enumerate(vocab.counts)]
    heapq.heapify(heap)
    parent = {}
    branch = {}
    next_id = n
    while len(heap) > 1:
        c0, left = heapq.heappop(heap)
        c1, right = heapq.heappop(heap)
        parent[left] = parent[right] = next_id
        branch[left] = 0
        branch[right] = 1
        heapq.heappush(heap, (c0 + c1, next_id))
        next_id += 1
    codes = []
    paths = []
    for leaf in range(n):
        code = []
        path = []
        node = leaf
        while node in parent:
            code.append(branch[node])
            path.append(parent[node] - n)
            node = parent[node]
        code.reverse()
        path.reverse()
        codes.append(tuple(code))
        paths.append(tuple(path))
    return HuffmanTree(codes=tuple(codes), paths=tuple(paths))
