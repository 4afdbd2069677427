"""Huffman coding of the vocabulary for the hierarchical softmax."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class HuffmanTree:
    """Every word's root-to-leaf path, in the three read-only arrays the
    trainer reads.

    Word ``w``'s path spans ``starts[w]:starts[w + 1]`` (``int64``,
    ``V + 1`` long).  Over it ``nodes`` holds the ``int32`` ids (0-based,
    ``V - 1`` in all, the root last) of the internal nodes visited from the
    root and ``targets`` the ``float64`` ``1 - bit`` of each bit of the
    word's code.
    ``paths[w]`` and ``codes[w]`` are the word's spans of ``nodes`` and of
    the ``int8`` code bits, built once per tree.  Compare trees by arrays.
    """

    starts: np.ndarray
    nodes: np.ndarray
    targets: np.ndarray

    @cached_property
    def paths(self) -> list[np.ndarray]:
        return np.split(self.nodes, self.starts[1:-1])

    @cached_property
    def codes(self) -> list[np.ndarray]:
        bits = (1 - self.targets).astype(np.int8)
        bits.flags.writeable = False
        return np.split(bits, self.starts[1:-1])

    def mean_code_length(self, counts) -> float:
        """Mean code length weighted by ``counts``; summed in Python ints,
        as counts may reach 2**63."""
        lengths = np.diff(self.starts).tolist()
        return sum(l * c for l, c in zip(lengths, counts)) / sum(counts)


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
    root = 2 * n - 2
    parent = [0] * root
    target = [1.0] * root  # 1 - the branch bit into each node
    for node in range(n, root + 1):
        c0, left = heapq.heappop(heap)
        c1, right = heapq.heappop(heap)
        parent[left] = parent[right] = node
        target[right] = 0.0
        heapq.heappush(heap, (c0 + c1, node))
    # a node's id is below its parent's, so depths fill from the root down
    depth = [0] * (root + 1)
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(depth[:n], out=starts[1:])
    nodes = [0] * int(starts[-1])
    targets = [0.0] * int(starts[-1])
    for leaf, end in enumerate(starts[1:].tolist()):
        node = leaf
        while node != root:  # the path, written backwards from its end
            end -= 1
            nodes[end], targets[end] = parent[node] - n, target[node]
            node = parent[node]
    arrays = (starts, np.array(nodes, dtype=np.int32), np.array(targets))
    for array in arrays:
        array.flags.writeable = False
    return HuffmanTree(*arrays)
