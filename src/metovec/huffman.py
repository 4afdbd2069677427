"""Huffman coding of the vocabulary for the hierarchical softmax."""

from __future__ import annotations

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

    Deterministic: each merge takes the two nodes of lowest count, ties
    resolved by lowest node id first, where leaves carry their vocabulary
    ids and internal nodes are numbered in creation order from
    ``len(vocab)`` upward.  As in ``word2vec.c``, the nodes come from two
    queues, each in that order: the leaves, sorted by (count, id), and the
    internal nodes, whose counts never fall as they are made.  A tie
    between the queues' heads goes to the leaf, whose id is lower.
    """
    counts = vocab.counts
    n = len(counts)
    if n < 2:
        raise ValueError("need at least 2 vocabulary words to build a tree")
    leaves = sorted(range(n), key=counts.__getitem__)  # stable: (count, id)
    merged = []  # the counts of the internal nodes, in creation order
    taken = []  # node ids in the order merges take them, in pairs
    leaf = internal = 0  # the head of each queue
    for _ in range(n - 1):
        total = 0
        for _ in range(2):
            if internal == len(merged) or (
                    leaf < n and counts[leaves[leaf]] <= merged[internal]):
                total += counts[leaves[leaf]]
                taken.append(leaves[leaf])
                leaf += 1
            else:
                total += merged[internal]
                taken.append(n + internal)
                internal += 1
        merged.append(total)
    root = 2 * n - 2
    # each pair taken is the left, then the right child of the next node
    parent = np.full(root + 1, root)
    parent[taken] = n + np.arange(root) // 2
    target = np.ones(root + 1)  # 1 - the branch bit into each node
    target[taken[1::2]] = 0.0
    # depths by pointer jumping: depth[x] is the distance from x to up[x]
    depth = np.ones(root + 1, dtype=np.int64)
    depth[root] = 0
    up = parent
    while (up != root).any():
        depth += depth[up]
        up = up[up]
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(depth[:n], out=starts[1:])
    nodes = np.empty(starts[-1], dtype=np.int32)
    targets = np.empty(starts[-1])
    # every path at once, written backwards from its end, one level a pass
    node, end = np.arange(n), starts[1:] - 1
    while node.size:
        nodes[end], targets[end] = parent[node] - n, target[node]
        node, end = parent[node], end - 1
        below_root = node != root
        node, end = node[below_root], end[below_root]
    arrays = (starts, nodes, targets)
    for array in arrays:
        array.flags.writeable = False
    return HuffmanTree(*arrays)
