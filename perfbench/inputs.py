"""Seeded input generators for the metovec benchmark.

Every input is a pure function of ``(seed, sizes)``; the generators keep
the facts the checks need (planted targets and candidates, topic groups,
token streams, the vectors written into model files) so that each check
is computed apart from the program.

Run as a script to write one workload's inputs to a directory, for
feeding to ``metovec`` by hand:

    python3 perfbench/inputs.py --workload paraphrase --seed 1 --out inputs-dir
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import program

DIM = 100
# CBOW learns its input vectors more slowly; 4 epochs make the topic margin
# clear at 1200 tokens for every seed (2 do not)
EPOCHS = {"skipgram": 2, "cbow": 4}

# One size set per workload.  Every workload runs every operation (so every
# run reports every metric); the sizes decide which layer dominates.
SIZES = {
    "train": dict(train_tokens=3000, para_sentences=400, ingest_tokens=20000,
                  query_words=1000, para_model_words=1000),
    "paraphrase": dict(train_tokens=1200, para_sentences=4000,
                       ingest_tokens=20000, query_words=1000,
                       para_model_words=1000),
    "ingest_query": dict(train_tokens=1200, para_sentences=400,
                         ingest_tokens=100000, query_words=10000,
                         para_model_words=1000),
}
SMOKE_SIZES = dict(train_tokens=1200, para_sentences=200, ingest_tokens=3000,
                   query_words=300, para_model_words=300)

# --- train: plain-text Zipf corpus with planted topic groups -------------

TOPICS = 4
TOPIC_WORDS = 4
BACKGROUND_TYPES = 3000
TOPIC_SHARE = 0.6


@dataclass
class TrainInputs:
    path: Path
    tokens: int
    topics: list  # list of lists of topic words


def zipf_probs(n, s=1.05):
    weights = 1.0 / np.arange(1, n + 1) ** s
    return weights / weights.sum()


def make_train(rng, n_tokens, path: Path) -> TrainInputs:
    """One sentence per line; each sentence leans on one topic group."""
    topics = [[f"t{t}x{j}" for j in range(TOPIC_WORDS)] for t in range(TOPICS)]
    background = [f"w{r:04d}" for r in range(BACKGROUND_TYPES)]
    bg_probs = zipf_probs(BACKGROUND_TYPES)
    lines = []
    written = 0
    while written < n_tokens:
        length = min(int(rng.integers(8, 15)), n_tokens - written)
        topic = topics[int(rng.integers(TOPICS))]
        is_topic = rng.random(length) < TOPIC_SHARE
        topic_pick = rng.integers(TOPIC_WORDS, size=length)
        bg_pick = rng.choice(BACKGROUND_TYPES, size=length, p=bg_probs)
        words = [topic[tp] if it else background[bp]
                 for it, tp, bp in zip(is_topic, topic_pick, bg_pick)]
        lines.append(" ".join(words))
        written += length
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return TrainInputs(path, written, topics)


# --- paraphrase: tagged corpus with planted targets and candidates -------

TARGET_VERBS = (("begin", "began"), ("enjoy", "enjoyed"),
                ("finish", "finished"))
CANDIDATE_VERBS = (
    "read", "write", "eat", "drink", "watch", "play", "sing", "paint",
    "build", "cook", "study", "review", "translate", "edit", "print", "sell",
    "buy", "open", "close", "clean", "fix", "wash", "carry", "draw", "bake",
    "brew", "design", "film", "record", "publish", "sign", "draft", "type",
    "recite", "perform", "rehearse", "compose", "decorate", "repair", "pack")
OMITTED_VERBS = 6  # candidate verbs left out of the model -> NIV rows
HEADS = 60
SUBJECTS = (("man", "NOUN"), ("woman", "NOUN"), ("teacher", "NOUN"),
            ("he", "PRON"), ("she", "PRON"), ("they", "PRON"))
ADJS = ("old", "new", "long", "short", "red")
DETS = ("the", "a", "this")
INTRANSITIVE = ("sit", "sleep", "laugh", "wait")
PLACES = ("room", "house", "garden", "station")

# shares of the sentence kinds; "filler" takes the rest.  The counts are
# exact, so every seed plants the same number of targets and candidates.
KIND_SHARES = {"target": 0.03, "candidate": 0.15,
               "particle": 0.02,  # candidate with a particle: "pack up the x"
               "gap": 0.05, "inversion": 0.05, "conjunction": 0.05}


@dataclass
class ParaphraseInputs:
    corpus: Path
    model: Path
    targets: list  # (doc, index, verb, head) in document order
    candidates: dict  # head -> sorted list of candidate verbs (multiset)
    omitted: frozenset
    vectors: dict  # lemma -> vector, as written into the model


def _subject(rng):
    word, pos = SUBJECTS[int(rng.integers(len(SUBJECTS)))]
    if pos == "PRON":
        return [(word.capitalize(), word, "PRON")]
    det = DETS[int(rng.integers(len(DETS)))]
    return [(det.capitalize(), det, "DET"), (word, word, "NOUN")]


def _object(rng, head):
    det = DETS[int(rng.integers(len(DETS)))]
    np_ = [(det, det, "DET")]
    if rng.random() < 0.5:
        adj = ADJS[int(rng.integers(len(ADJS)))]
        np_.append((adj, adj, "ADJ"))
    return np_ + [(head, head, "NOUN")]


def _any_verb(rng):
    if rng.random() < 0.5:
        lemma, surface = TARGET_VERBS[int(rng.integers(len(TARGET_VERBS)))]
        return (surface, lemma, "VERB")
    lemma = CANDIDATE_VERBS[int(rng.integers(len(CANDIDATE_VERBS)))]
    return (lemma, lemma, "VERB")


def exact_draw(rng, n, types, s):
    """``n`` type ids in shuffled order whose counts follow Zipf(``s``)
    exactly (largest remainder), so the head skew does not vary by seed."""
    share = zipf_probs(types, s) * n
    counts = np.floor(share).astype(int)
    rest = np.argsort(-(share - counts), kind="stable")[:n - counts.sum()]
    counts[rest] += 1
    return rng.permutation(np.repeat(np.arange(types), counts)).tolist()


def paraphrase_sentences(rng, n_sentences):
    """Yield (tokens, planted) pairs; ``planted`` is None or
    ("target" | "candidate", verb_lemma, head)."""
    heads = [f"obj{i:02d}" for i in range(HEADS)]
    kinds = []
    for kind, share in KIND_SHARES.items():
        kinds += [kind] * round(share * n_sentences)
    kinds += ["filler"] * (n_sentences - len(kinds))
    kind_heads = {kind: iter(exact_draw(rng, kinds.count(kind), HEADS, 1.0))
                  for kind in KIND_SHARES}
    end = (".", ".", "PUNCT")
    for kind in rng.permutation(kinds):
        head = heads[next(kind_heads[kind])] if kind != "filler" else None
        if kind == "target":
            lemma, surface = TARGET_VERBS[int(rng.integers(3))]
            tokens = _subject(rng) + [(surface, lemma, "VERB")] \
                + _object(rng, head) + [end]
            yield tokens, ("target", lemma, head)
        elif kind in ("candidate", "particle"):
            verb = CANDIDATE_VERBS[int(rng.integers(len(CANDIDATE_VERBS)))]
            particle = [("up", "up", "PREP")] if kind == "particle" else []
            tokens = _subject(rng) + [(verb, verb, "VERB")] + particle \
                + _object(rng, head) + [end]
            yield tokens, ("candidate", verb, head)
        elif kind == "gap":  # punctuation gap: "read , the book"
            tokens = _subject(rng) + [_any_verb(rng), (",", ",", "PUNCT")] \
                + _object(rng, head) + [end]
            yield tokens, None
        elif kind == "inversion":  # "... ?' began the book": a subject
            tokens = [("Now", "now", "ADV"), ("?", "?", "PUNCT"),
                      ("'", "'", "PUNCT"), _any_verb(rng)] \
                + _object(rng, head) + [end]
            yield tokens, None
        elif kind == "conjunction":  # "began and the book"
            tokens = _subject(rng) + [_any_verb(rng), ("and", "and", "CONJ")] \
                + _object(rng, head) + [end]
            yield tokens, None
        else:  # no verb governs a noun ("near" is not a particle)
            verb = INTRANSITIVE[int(rng.integers(len(INTRANSITIVE)))]
            place = PLACES[int(rng.integers(len(PLACES)))]
            tokens = _subject(rng) + [(verb, verb, "VERB"),
                                      ("quietly", "quietly", "ADV"),
                                      ("near", "near", "PREP"),
                                      ("the", "the", "DET"),
                                      (place, place, "NOUN"), end]
            yield tokens, None


def write_vertical(sentences, path: Path, doc_size=100):
    """Write ``(tokens, planted)`` pairs; returns planted facts with refs
    and the lemma counts."""
    lines = []
    planted = []
    counts = {}
    for n, (tokens, fact) in enumerate(sentences):
        doc, index = f"d{n // doc_size}", n % doc_size
        if index == 0:
            lines.append(f"#doc {doc}")
        for surface, lemma, pos in tokens:
            lines.append(f"{surface}\t{lemma}\t{pos}")
            counts[lemma] = counts.get(lemma, 0) + 1
        lines.append("")
        if fact is not None:
            planted.append((doc, index) + fact)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return planted, counts


def phrase_test_vectors(rng, words, verbs):
    """Gaussian vectors; verb norms spread log-uniformly so that phrase
    cosines fall into all three label bands."""
    vectors = {}
    for word in words:
        vec = rng.standard_normal(DIM)
        if word in verbs:
            vec *= np.exp(rng.uniform(np.log(0.25), np.log(4.0)))
        vectors[word] = vec
    return vectors


def make_paraphrase(rng, n_sentences, model_words, directory: Path,
                    write_model) -> ParaphraseInputs:
    corpus = directory / "paraphrase.vert"
    planted, counts = write_vertical(
        paraphrase_sentences(rng, n_sentences), corpus)
    targets = [(doc, index, verb, head)
               for doc, index, kind, verb, head in planted
               if kind == "target"]
    target_heads = {head for _, _, _, head in targets}
    candidates = {head: [] for head in target_heads}
    for _, _, kind, verb, head in planted:
        if kind == "candidate" and head in target_heads:
            candidates[head].append(verb)
    for verbs in candidates.values():
        verbs.sort()
    omitted = frozenset(str(v) for v in rng.choice(
        CANDIDATE_VERBS, size=OMITTED_VERBS, replace=False))
    words = sorted(w for w in counts if w not in omitted)
    words += [f"pad{i:05d}" for i in range(max(0, model_words - len(words)))]
    counts = [counts.get(w, 1 + int(rng.integers(50))) for w in words]
    vectors = phrase_test_vectors(
        rng, words, set(CANDIDATE_VERBS) | {v for v, _ in TARGET_VERBS})
    model = directory / "paraphrase.model"
    write_model(words, counts, np.array([vectors[w] for w in words]), rng,
                model)
    return ParaphraseInputs(corpus, model, targets, candidates, omitted,
                            vectors)


# --- ingest_query: large vertical corpus and a V=query_words model ------

INGEST_TYPES = 15000
INGEST_MAX_VOCAB = 10000
POS_CYCLE = ("NOUN", "VERB", "ADJ", "DET", "NOUN", "ADV", "PREP", "NOUN",
             "PRON", "CONJ", "NUM")


@dataclass
class IngestInputs:
    corpus: Path
    tokens: int
    sentences: list = field(repr=False)  # lists of lemma ids
    lemmas: list = field(repr=False)


def make_ingest(rng, n_tokens, path: Path) -> IngestInputs:
    lemmas = [f"l{r:05d}" for r in range(INGEST_TYPES)]
    ids = rng.choice(INGEST_TYPES, size=n_tokens, p=zipf_probs(INGEST_TYPES))
    lengths = []
    total = 0
    while total < n_tokens:
        length = min(int(rng.integers(5, 26)), n_tokens - total)
        lengths.append(length)
        total += length
    lines = []
    sentences = []
    start = 0
    for n, length in enumerate(lengths):
        if n % 50 == 0:
            lines.append(f"#doc g{n // 50}")
        sentence = ids[start:start + length].tolist()
        start += length
        sentences.append(sentence)
        lines.extend(f"{lemmas[i].upper()}\t{lemmas[i]}\t"
                     f"{POS_CYCLE[i % len(POS_CYCLE)]}" for i in sentence)
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return IngestInputs(path, n_tokens, sentences, lemmas)


@dataclass
class QueryInputs:
    model: Path
    words: list
    vectors: np.ndarray = field(repr=False)
    command_words: list  # words queried by `metovec query neighbors`
    neighbour_words: list  # in-process nearest_neighbours queries
    analogies: list  # in-process (a, b, c) analogy queries


QUERY_COMMANDS = 2
NEIGHBOUR_CALLS = 40
ANALOGY_CALLS = 10
K = 10


def make_query(rng, n_words, path: Path, write_model) -> QueryInputs:
    words = [f"q{i:05d}" for i in range(n_words)]
    counts = np.maximum(1, (1e6 / np.arange(1, n_words + 1) ** 1.05)
                        .astype(int)).tolist()
    vectors = rng.standard_normal((n_words, DIM))
    write_model(words, counts, vectors, rng, path)
    pick = lambda n: [words[i] for i in rng.choice(n_words, size=n)]
    command_words = pick(QUERY_COMMANDS)
    neighbour_words = pick(NEIGHBOUR_CALLS)
    analogies = [tuple(words[i] for i in rng.choice(n_words, 3,
                                                    replace=False))
                 for _ in range(ANALOGY_CALLS)]
    return QueryInputs(path, words, vectors, command_words, neighbour_words,
                       analogies)


# --- the multi-word-lemma round-trip (seed-independent) -----------------

MULTIWORD_CORPUS = (
    "#doc mw\n"
    "We\twe\tPRON\nate\teat\tVERB\nice cream\tice cream\tNOUN\n.\t.\tPUNCT\n\n"
    "They\tthey\tPRON\nsold\tsell\tVERB\nice cream\tice cream\tNOUN\n"
    "cones\tcone\tNOUN\n.\t.\tPUNCT\n")


# --- all inputs of one workload ------------------------------------------

@dataclass
class Inputs:
    directory: Path
    train: TrainInputs
    paraphrase: ParaphraseInputs
    ingest: IngestInputs
    query: QueryInputs
    multiword: Path


def make_inputs(seed, sizes, directory: Path, write_model) -> Inputs:
    """Write every input of one workload into ``directory``.

    ``write_model(words, counts, vectors, rng, path)`` writes a model file;
    the benchmark passes one that builds a program model and saves it with
    the program's own writer, so the files stay in the program's format.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    train = make_train(rng, sizes["train_tokens"], directory / "train.txt")
    paraphrase = make_paraphrase(rng, sizes["para_sentences"],
                                 sizes["para_model_words"], directory,
                                 write_model)
    ingest = make_ingest(rng, sizes["ingest_tokens"],
                         directory / "ingest.vert")
    query = make_query(rng, sizes["query_words"], directory / "query.model",
                       write_model)
    multiword = directory / "multiword.vert"
    multiword.write_text(MULTIWORD_CORPUS, encoding="utf-8")
    return Inputs(directory, train, paraphrase, ingest, query, multiword)


def write_facts(inputs: Inputs):
    """Write the planted lists next to the inputs, for reading by hand."""
    d = inputs.directory
    p = inputs.paraphrase
    (d / "targets.tsv").write_text("".join(
        f"{doc}\t{index}\t{verb}\t{head}\n"
        for doc, index, verb, head in p.targets), encoding="utf-8")
    (d / "candidates.tsv").write_text("".join(
        f"{head}\t{verb}\n" for head in sorted(p.candidates)
        for verb in p.candidates[head]), encoding="utf-8")
    (d / "facts.json").write_text(json.dumps({
        "train_tokens": inputs.train.tokens,
        "epochs": EPOCHS, "dim": DIM,
        "topics": inputs.train.topics,
        "omitted_verbs": sorted(p.omitted),
        "query_command_words": inputs.query.command_words,
        "neighbour_words": inputs.query.neighbour_words,
        "analogies": inputs.query.analogies,
    }, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the smoke-mode sizes)")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    metovec = program.import_metovec()
    sizes = SMOKE_SIZES if args.smoke else SIZES[args.workload]
    inputs = make_inputs(args.seed, sizes, args.out,
                         program.model_writer(metovec))
    write_facts(inputs)
    print(f"wrote {args.workload} inputs (seed {args.seed}) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
