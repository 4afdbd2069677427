"""Output checks.  Each one is computed from the generator's own facts
with numpy, or tests a property the method must have; none of them reads
a value back through the code path it checks."""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction

import numpy as np

from inputs import INGEST_MAX_VOCAB, K

# intra-topic minus inter-topic mean cosine of the planted topic words;
# over 40 seeds at 1200 training tokens the least margins were 1.08
# (skip-gram, 2 epochs) and 0.20 (CBOW, 4 epochs); more tokens raise them
MARGIN_BOUND = {"skipgram": 0.8, "cbow": 0.1}
LEAF_SUM_TOLERANCE = 1e-9
TABLE_TOLERANCE = 5e-6 + 1e-12  # half a unit in the tables' 5th decimal
DISCARD, VIABLE = 0.2, 0.5
EVAL_COUNTS = "tp=52 tn=95 fp=14 fn=18"


def topic_margin(model, topics):
    rows = np.array([[model.vector(w) for w in group] for group in topics])
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    flat = rows.reshape(-1, rows.shape[2])
    cos = flat @ flat.T
    group = np.repeat(np.arange(len(topics)), len(topics[0]))
    same = group[:, None] == group[None, :]
    intra = same & ~np.eye(len(group), dtype=bool)
    return float(cos[intra].mean() - cos[~same].mean())


def check_train(metovec, train_inputs, mode, model_path, scratch):
    errors = []
    model = metovec.load_model(model_path)
    margin = topic_margin(model, train_inputs.topics)
    if not margin > MARGIN_BOUND[mode]:
        errors.append(f"{mode}: topic margin {margin:.4f} "
                      f"<= {MARGIN_BOUND[mode]}")
    rng = np.random.default_rng(len(model.vocab))
    for size in (1, 4):  # a skip-gram hidden vector and a CBOW mean
        context = model.input_vectors[
            rng.choice(len(model.vocab), size, replace=False)].mean(axis=0)
        total = sum(metovec.leaf_probability(model, model.tree, context, w)
                    for w in model.vocab.words)
        if abs(total - 1.0) > LEAF_SUM_TOLERANCE:
            errors.append(f"{mode}: HS leaf probabilities sum to {total!r}")
    resaved = scratch / f"resaved-{mode}.model"
    metovec.save_model(model, resaved)
    again = metovec.load_model(resaved)
    if not (np.array_equal(again.input_vectors, model.input_vectors)
            and np.array_equal(again.node_vectors, model.node_vectors)
            and again.vocab.words == model.vocab.words
            and again.vocab.counts == model.vocab.counts):
        errors.append(f"{mode}: load_model(save_model(m)) differs from m")
    return errors


def parse_tables(texts):
    tables = []
    for text in texts:
        lines = text.splitlines()
        head = lines[0].split("\t")
        rows = [line.split("\t") for line in lines[1:]]
        tables.append(((head[1], int(head[2]), head[3], head[4]), rows))
    return tables


def expected_confidence(vectors, verb, head, candidate):
    target = (vectors[verb] + vectors[head]) / 2
    cand = (vectors[candidate] + vectors[head]) / 2
    cos = target @ cand / (np.linalg.norm(target) * np.linalg.norm(cand))
    return max(0.0, float(cos))


def check_paraphrase(para_inputs, table_texts):
    errors = []
    tables = parse_tables(table_texts)
    found = [target for target, _ in tables]
    if found != para_inputs.targets:
        errors.append(f"paraphrase: {len(found)} targets found, "
                      f"{len(para_inputs.targets)} planted, or order differs")
        return errors
    for (doc, index, verb, head), rows in tables:
        where = f"paraphrase table ({doc}, {index}, {verb}, {head})"
        if sorted(r[0] for r in rows) != para_inputs.candidates[head]:
            errors.append(f"{where}: candidates differ from planted")
        last = float("inf")
        for candidate, score, label in rows:
            if candidate in para_inputs.omitted:
                if score != "NIV" or label != "NotInVocabulary":
                    errors.append(f"{where}: {candidate} should be NIV")
                last = -1.0
                continue
            if score == "NIV":
                errors.append(f"{where}: {candidate} is NIV but in vocab")
                continue
            expected = expected_confidence(para_inputs.vectors, verb, head,
                                           candidate)
            if abs(float(score) - expected) > TABLE_TOLERANCE:
                errors.append(f"{where}: {candidate} confidence {score} "
                              f"!= {expected:.7f}")
            want = ("Viable" if expected > VIABLE else
                    "Discarded" if expected < DISCARD else "Rejected")
            if label != want:
                errors.append(f"{where}: {candidate} label {label} "
                              f"!= {want}")
            if float(score) > last:
                errors.append(f"{where}: rows not in non-increasing order")
            last = float(score)
    return errors


def check_ingest(ingest_inputs, vocab, nwc):
    errors = []
    lemmas = ingest_inputs.lemmas
    tally = Counter()
    for sentence in ingest_inputs.sentences:
        tally.update(sentence)
    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], lemmas[kv[0]]))
    kept = ranked[:INGEST_MAX_VOCAB]
    if (vocab.words != tuple(lemmas[i] for i, _ in kept)
            or vocab.counts != tuple(c for _, c in kept)
            or vocab.total_tokens != sum(tally.values())):
        errors.append("ingest: vocabulary differs from the generator's tally")
    in_vocab = {i for i, _ in kept}
    pairs = Counter()
    for sentence in ingest_inputs.sentences:
        pairs.update((a, b) for a, b in zip(sentence, sentence[1:])
                     if a in in_vocab and b in in_vocab)
    rows = {}
    for (a, b), count in pairs.items():
        rows.setdefault(lemmas[a], {})[lemmas[b]] = count
    if nwc.rows != rows:
        errors.append("ingest: next-word counts differ from the "
                      "generator's tally")
    return errors


def huffman_cost(counts):
    """Sum of code length x count of an optimal prefix code: the sum of
    the weights formed by repeatedly merging the two lightest nodes."""
    heap = list(counts)
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        cost += merged
        heapq.heappush(heap, merged)
    return cost


def check_huffman(model):
    errors = []
    lengths = [len(code) for code in model.tree.codes]
    if sum(Fraction(1, 2 ** n) for n in lengths) != 1:
        errors.append("huffman: Kraft sum of the code lengths is not 1")
    counts = model.vocab.counts
    weighted = sum(n * c for n, c in zip(lengths, counts))
    if weighted != huffman_cost(counts):
        errors.append(f"huffman: weighted code length {weighted} is not "
                      f"the optimal {huffman_cost(counts)}")
    if abs(model.tree.mean_code_length(counts) - weighted / sum(counts)) \
            > 1e-12:
        errors.append("huffman: mean_code_length disagrees with the codes")
    return errors


class BruteNeighbours:
    """Numpy top-k by descending cosine, ties by ascending vocab id."""

    def __init__(self, query_inputs):
        self.words = query_inputs.words
        self.index = {w: i for i, w in enumerate(self.words)}
        self.vectors = query_inputs.vectors
        self.norms = np.linalg.norm(self.vectors, axis=1)

    def top(self, query, exclude, k=K):
        scores = self.vectors @ query / (self.norms * np.linalg.norm(query))
        order = np.lexsort((np.arange(len(scores)), -scores))
        hits = [(self.words[i], float(scores[i])) for i in order[:k + 3]
                if self.words[i] not in exclude]
        return hits[:k]

    def neighbours(self, word):
        return self.top(self.vectors[self.index[word]], {word})

    def analogy(self, a, b, c):
        v = self.vectors
        query = v[self.index[b]] - v[self.index[a]] + v[self.index[c]]
        return self.top(query, {a, b, c})


def same_hits(got, want, tolerance):
    return (len(got) == len(want)
            and all(g[0] == w[0] and abs(g[1] - w[1]) <= tolerance
                    for g, w in zip(got, want)))


def check_queries(query_inputs, command_outputs, neighbour_results):
    errors = []
    brute = BruteNeighbours(query_inputs)
    for word, out in zip(query_inputs.command_words, command_outputs):
        got = [(w, float(s)) for w, s in
               (line.split("\t") for line in out.splitlines())]
        if not same_hits(got, brute.neighbours(word), TABLE_TOLERANCE):
            errors.append(f"query neighbors {word}: differs from brute force")
    wanted = [brute.neighbours(w) for w in query_inputs.neighbour_words]
    wanted += [brute.analogy(*abc) for abc in query_inputs.analogies]
    for n, (got, want) in enumerate(zip(neighbour_results, wanted)):
        if not same_hits(got, want, 1e-9):
            errors.append(f"in-process neighbour query {n}: differs "
                          f"from brute force")
    return errors


def check_eval(output):
    if EVAL_COUNTS not in output:
        return [f"eval: pooled counts are not {EVAL_COUNTS}"]
    return []
