"""Command-line front end for the embedding / paraphrase pipeline."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation, metonymy, ranking
from .embeddings import (CBOW, SKIPGRAM, TrainingConfig, TrainStats,
                         load_model, save_model, train)
from .vectorspace import analogy, cosine_similarity, nearest_neighbours

log = logging.getLogger(__name__)

CONFIG_ENV_VAR = "METOVEC_CONFIG"


@dataclass
class PipelineConfig:
    train_corpus: str | None = None
    test_corpus: str | None = None
    corpus_format: str = "vertical"
    training: TrainingConfig = field(default_factory=TrainingConfig)
    discard_threshold: float = 0.2
    viable_threshold: float = 0.5
    gold_targets: str | None = None
    output_dir: str = "."
    verbs: list = field(default_factory=lambda: [
        [spec.lemma, spec.eventhood, spec.category]
        for spec in metonymy.DEFAULT_VERBS])

    def __post_init__(self):
        if not 0 <= self.discard_threshold < self.viable_threshold <= 1:
            raise ValueError("need 0 <= discard < viable <= 1")

    def verb_specs(self):
        return tuple(metonymy.VerbSpec(l, e, c) for l, e, c in self.verbs)


TRAINING_KEYS = {f.name for f in fields(TrainingConfig)}
PIPELINE_KEYS = {f.name for f in fields(PipelineConfig)} - {"training"}


def load_config(path=None, overrides=None) -> PipelineConfig:
    """Config file (JSON), then flag overrides; flags win.

    Training keys (``mode``, ``dim``, ...) are flat, next to the pipeline
    keys, and go to ``PipelineConfig.training``; any other key is an error.
    """
    values = {}
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path, encoding="utf-8") as handle:
            values.update(json.load(handle))
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    unknown = sorted(values.keys() - TRAINING_KEYS - PIPELINE_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config key "
                         + ", ".join(repr(key) for key in unknown))
    training = {key: values.pop(key) for key in TRAINING_KEYS & values.keys()}
    return PipelineConfig(training=TrainingConfig(**training), **values)


def _load(path, fmt):
    if path is None:
        raise SystemExit("error: no corpus path configured")
    return corpus_mod.load_corpus(path, fmt)


def cmd_vocab(args):
    config = load_config(args.config, {
        "train_corpus": args.corpus, "corpus_format": args.format,
        "max_vocab": args.max_vocab, "min_count": args.min_count})
    corp = _load(config.train_corpus, config.corpus_format)
    vocab = corpus_mod.build_vocabulary(
        corp, config.training.max_vocab, config.training.min_count)
    with open(args.output, "w", encoding="utf-8") as out:
        for word, count in zip(vocab.words, vocab.counts):
            out.write(f"{word}\t{count}\n")
    print(f"wrote {len(vocab)} words to {args.output}")


def cmd_train(args):
    config = load_config(args.config, {
        "train_corpus": args.corpus, "corpus_format": args.format,
        "mode": args.mode, "dim": args.dim, "epochs": args.epochs,
        "seed": args.seed})
    corp = _load(config.train_corpus, config.corpus_format)
    stats = TrainStats()
    model = train(corp, config.training, stats=stats)
    save_model(model, args.output)
    print(f"trained {config.training.mode} model (V={len(model.vocab)}, "
          f"D={config.training.dim}, seed={config.training.seed}): "
          f"{args.output}")
    print(f"examples={stats.examples} skipped={stats.skipped}")


def cmd_query(args):
    model = load_model(args.model)
    if args.subcommand == "similarity":
        a, b = args.words
        print(f"{cosine_similarity(model.vector(a), model.vector(b)):.5f}")
    elif args.subcommand == "neighbors":
        word, = args.words
        hits = nearest_neighbours(model, model.vector(word), args.k,
                                  exclude={word})
        for neighbour, score in hits:
            print(f"{neighbour}\t{score:.5f}")
    else:  # analogy: b - a + c
        a, b, c = args.words
        for neighbour, score in analogy(model, a, b, c, args.k):
            print(f"{neighbour}\t{score:.5f}")


def cmd_targets(args):
    config = load_config(args.config, {
        "test_corpus": args.corpus, "corpus_format": args.format})
    corp = _load(config.test_corpus, config.corpus_format)
    targets = metonymy.find_targets(corp, config.verb_specs())
    for t in targets:
        doc_id, index = t.sentence_ref
        print(f"{doc_id}\t{index}\t{t.verb_lemma}\t{t.np_head_lemma}")
    print(f"# {len(targets)} targets", file=sys.stderr)


def cmd_paraphrase(args):
    config = load_config(args.config, {
        "test_corpus": args.corpus, "corpus_format": args.format,
        "gold_targets": args.gold_targets})
    corp = _load(config.test_corpus, config.corpus_format)
    model = load_model(args.model)
    index = metonymy.index_corpus(corp)
    if config.gold_targets:
        targets = metonymy.load_gold_targets(config.gold_targets, index)
    else:
        targets = metonymy.find_targets(index, config.verb_specs())
    excluded = {spec.lemma for spec in config.verb_specs()}
    outdir = Path(config.output_dir if args.output_dir is None
                  else args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for n, target in enumerate(targets, start=1):
        candidates = metonymy.harvest_candidates(
            index, target.np_head_lemma, excluded)
        table = ranking.rank(model, target, candidates,
                             config.discard_threshold,
                             config.viable_threshold)
        path = outdir / f"{target.verb_lemma}-{n}.tsv"
        with open(path, "w", encoding="utf-8") as out:
            ranking.write_table(table, out)
        print(f"wrote {path} ({len(table.rows)} candidates)")


def _fixture_rows(args):
    fixture = evaluation.load_fixture(args.fixture)
    labels = [row.label for row in fixture.rows]
    gold = [row.gold for row in fixture.rows]
    scored = [(row.confidence, row.gold) for row in fixture.rows
              if row.confidence is not None]
    return fixture, labels, gold, scored


def cmd_eval(args):
    fixture, labels, gold, scored = _fixture_rows(args)
    cm = evaluation.confusion(labels, gold, unscored=args.unscored)
    print(f"targets: {len(fixture.targets)}  rows: {len(fixture.rows)}")
    print(f"tp={cm.tp} tn={cm.tn} fp={cm.fp} fn={cm.fn}")
    print(f"precision={evaluation.precision(cm):.4f} "
          f"recall={evaluation.recall(cm):.4f}")
    print(f"phi={evaluation.phi_coefficient(cm):.4f}")
    if args.pr_csv:
        _write_pr_csv(scored, args.pr_csv)
        print(f"wrote {args.pr_csv}")


def cmd_prcurve(args):
    _, _, _, scored = _fixture_rows(args)
    _write_pr_csv(scored, args.output)
    print(f"wrote {args.output}")


def _write_pr_csv(scored, path):
    points = evaluation.pr_curve(scored)
    with open(path, "w", encoding="utf-8") as out:
        out.write("rank,precision,recall\n")
        for p in points:
            out.write(f"{p.rank},{p.precision:.6f},{p.recall:.6f}\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metovec",
        description="Train word embeddings and rank covert-event "
                    "paraphrases for verbal metonymy.")
    parser.add_argument("--config", default=None,
                        help=f"config file (JSON); default ${CONFIG_ENV_VAR}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab", help="write word<TAB>count vocabulary file")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["vertical", "plain"], default=None)
    p.add_argument("--max-vocab", type=int, dest="max_vocab")
    p.add_argument("--min-count", type=int, dest="min_count")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("train", help="train an embedding model")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["vertical", "plain"], default=None)
    p.add_argument("--mode", choices=[CBOW, SKIPGRAM], default=None)
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("query", help="similarity / neighbour / analogy queries")
    p.add_argument("subcommand", choices=["neighbors", "analogy", "similarity"])
    p.add_argument("--model", required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("words", nargs="+")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("targets", help="list metonymy targets in a corpus")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["vertical", "plain"], default=None)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("paraphrase", help="rank paraphrase candidates "
                                          "for every target")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["vertical", "plain"], default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--gold-targets", dest="gold_targets")
    p.add_argument("--output-dir", dest="output_dir")
    p.set_defaults(func=cmd_paraphrase)

    p = sub.add_parser("eval", help="confusion / precision / recall / phi "
                                    "for a fixture file")
    p.add_argument("--fixture", default=None,
                   help="ranking tables with gold column "
                        "(default: packaged result tables)")
    p.add_argument("--unscored", choices=["exclude", "true-negative"],
                   default="exclude")
    p.add_argument("--pr-csv", dest="pr_csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prcurve", help="write rank,precision,recall CSV")
    p.add_argument("--fixture", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_prcurve)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (OSError, ValueError, KeyError,
            evaluation.UndefinedMetricError) as exc:
        raise SystemExit(f"error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
