"""Command-line front end for the embedding / paraphrase pipeline."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation, metonymy, ranking
from .embeddings import (CBOW, SKIPGRAM, TRAINING_TYPES, TrainingConfig,
                         TrainStats, check_config, is_json_type, load_model,
                         save_model, train)
from .vectorspace import analogy, cosine_similarity, nearest_neighbours

log = logging.getLogger(__name__)

CONFIG_ENV_VAR = "METOVEC_CONFIG"
FORMATS = ["vertical", "plain"]


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


# the type of each key of a config file: the pipeline keys and, flat next
# to them, the training keys
KEY_TYPES = {key: hint for key, hint
             in typing.get_type_hints(PipelineConfig).items()
             if key != "training"} | TRAINING_TYPES


def _read_config_file(path) -> dict:
    """The JSON object in ``path``; a located ValueError when the file is
    not UTF-8 JSON, fails ``check_config`` or holds a malformed ``verbs``
    entry.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            values = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: malformed "
                             f"JSON: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 at byte {exc.start}: "
                             f"{exc.reason}") from None
    check_config(values, KEY_TYPES, path)
    for n, entry in enumerate(values.get("verbs", ())):
        if not (isinstance(entry, list) and len(entry) == 3
                and all(map(is_json_type, entry, (str, float, str)))):
            raise ValueError(f"{path}: config key 'verbs' entry {n} must be "
                             f"[lemma, eventhood, category], not {entry!r}")
    return values


def load_config(path=None, overrides=None) -> PipelineConfig:
    """Config file (JSON), then flag overrides; flags win.

    Training keys (``mode``, ``dim``, ...) are flat, next to the pipeline
    keys, and go to ``PipelineConfig.training``.  The file's values are
    checked first, so an out-of-range value in it fails as
    ``path: bad config: ...``, as in a model archive.
    """
    config = PipelineConfig()
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        values = _read_config_file(path)
        try:
            config = _updated(config, values)
        except ValueError as exc:
            raise ValueError(f"{path}: bad config: {exc}") from None
    flags = {key: value for key, value in (overrides or {}).items()
             if value is not None}
    check_config(flags, KEY_TYPES)
    return _updated(config, flags)


def _updated(config, values) -> PipelineConfig:
    """``config`` with the keys of ``values`` replaced; the dataclasses
    check the ranges."""
    training = {key: values.pop(key) for key in values.keys() & TRAINING_TYPES}
    return replace(config, training=replace(config.training, **training),
                   **values)


def _load(path, fmt):
    if path is None:
        raise SystemExit("error: no corpus path configured")
    return corpus_mod.load_corpus(path, fmt)


def cmd_vocab(args, config):
    corp = _load(config.train_corpus, config.corpus_format)
    vocab = corpus_mod.build_vocabulary(
        corp, config.training.max_vocab, config.training.min_count)
    with open(args.output, "w", encoding="utf-8") as out:
        for word, count in zip(vocab.words, vocab.counts):
            out.write(f"{word}\t{count}\n")
    print(f"wrote {len(vocab)} words to {args.output}")


def cmd_train(args, config):
    corp = _load(config.train_corpus, config.corpus_format)
    stats = TrainStats()
    model = train(corp, config.training, stats=stats)
    save_model(model, args.output)
    print(f"trained {config.training.mode} model (V={len(model.vocab)}, "
          f"D={config.training.dim}, seed={config.training.seed}): "
          f"{args.output}")
    print(f"examples={stats.examples} skipped={stats.skipped}")


QUERY_WORDS = {"similarity": 2, "neighbors": 1, "analogy": 3}


def cmd_query(args, config):
    wanted = QUERY_WORDS[args.subcommand]
    if len(args.words) != wanted:
        raise ValueError(f"query {args.subcommand} takes {wanted} "
                         f"word{'s' * (wanted > 1)}, got {len(args.words)}")
    if args.k < 1:
        raise ValueError(f"-k must be >= 1, got {args.k}")
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


def cmd_targets(args, config):
    corp = _load(config.test_corpus, config.corpus_format)
    targets = metonymy.find_targets(corp, config.verb_specs())
    for t in targets:
        doc_id, index = t.sentence_ref
        print(f"{doc_id}\t{index}\t{t.verb_lemma}\t{t.np_head_lemma}")
    print(f"# {len(targets)} targets", file=sys.stderr)


def cmd_paraphrase(args, config):
    corp = _load(config.test_corpus, config.corpus_format)
    model = load_model(args.model)
    index = metonymy.index_corpus(corp)
    if config.gold_targets:
        targets = metonymy.load_gold_targets(config.gold_targets, index)
    else:
        targets = metonymy.find_targets(index, config.verb_specs())
    # a verb lemma comes from the corpus: one holding a path separator
    # would put its table outside the output directory
    names = [f"{t.verb_lemma}-{n}.tsv" for n, t in enumerate(targets, 1)]
    for name, t in zip(names, targets):
        if os.path.basename(name) != name or "\0" in name:
            raise ValueError(f"target {(*t.sentence_ref, t.verb_lemma)!r}: "
                             f"table name {name!r} is not a plain file name")
    excluded = {spec.lemma for spec in config.verb_specs()}
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, target in zip(names, targets):
        candidates = metonymy.harvest_candidates(
            index, target.np_head_lemma, excluded)
        table = ranking.rank(model, target, candidates,
                             config.discard_threshold,
                             config.viable_threshold)
        path = outdir / name
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


def cmd_eval(args, config):
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


def cmd_prcurve(args, config):
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
    p.add_argument("--corpus", dest="train_corpus", metavar="CORPUS")
    p.add_argument("--format", choices=FORMATS, dest="corpus_format")
    p.add_argument("--max-vocab", type=int)
    p.add_argument("--min-count", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("train", help="train an embedding model")
    p.add_argument("--corpus", dest="train_corpus", metavar="CORPUS")
    p.add_argument("--format", choices=FORMATS, dest="corpus_format")
    p.add_argument("--mode", choices=[CBOW, SKIPGRAM])
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
    p.add_argument("--corpus", dest="test_corpus", metavar="CORPUS")
    p.add_argument("--format", choices=FORMATS, dest="corpus_format")
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("paraphrase", help="rank paraphrase candidates "
                                          "for every target")
    p.add_argument("--corpus", dest="test_corpus", metavar="CORPUS")
    p.add_argument("--format", choices=FORMATS, dest="corpus_format")
    p.add_argument("--model", required=True)
    p.add_argument("--gold-targets")
    p.add_argument("--output-dir")
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
    # an option whose dest is a config key overrides that key
    overrides = {k: v for k, v in vars(args).items() if k in KEY_TYPES}
    try:
        args.func(args, load_config(args.config, overrides))
    except (OSError, ValueError, KeyError,
            evaluation.UndefinedMetricError) as exc:
        raise SystemExit(f"error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
