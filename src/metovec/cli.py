"""Command-line front end for the embedding / paraphrase pipeline."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation, metonymy, ranking
from .embeddings import (CBOW, SKIPGRAM, TrainingConfig, TrainStats,
                         load_model, save_model, train)
from .files import whole_file
from .vectorspace import analogy, cosine_similarity, nearest_neighbours

log = logging.getLogger(__name__)

FORMATS = ["vertical", "plain"]


def _training_config(args) -> TrainingConfig:
    """The ``TrainingConfig`` of the training flags given; a flag left out,
    or one the command does not take, keeps the field's default."""
    return TrainingConfig(**{
        field.name: getattr(args, field.name)
        for field in fields(TrainingConfig)
        if getattr(args, field.name, None) is not None})


def cmd_vocab(args):
    config = _training_config(args)
    corp = corpus_mod.read_corpus(args.corpus, args.format)
    vocab = corpus_mod.build_vocabulary(corp, config.max_vocab,
                                        config.min_count)
    with whole_file(args.output, encoding="utf-8") as out:
        for word, count in zip(vocab.words, vocab.counts):
            out.write(f"{word}\t{count}\n")
    print(f"wrote {len(vocab)} words to {args.output}")


def cmd_train(args):
    config = _training_config(args)
    corp = corpus_mod.load_corpus(args.corpus, args.format)
    stats = TrainStats()
    model = train(corp, config, stats=stats)
    save_model(model, args.output)
    print(f"trained {config.mode} model (V={len(model.vocab)}, "
          f"D={config.dim}, seed={config.seed}): {args.output}")
    print(f"examples={stats.examples} skipped={stats.skipped}")


QUERY_WORDS = {"similarity": 2, "neighbors": 1, "analogy": 3}


def cmd_query(args):
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


def cmd_targets(args):
    corp = corpus_mod.read_corpus(args.corpus)
    targets = metonymy.find_targets(corp)
    for t in targets:
        doc_id, index = t.sentence_ref
        print(f"{doc_id}\t{index}\t{t.verb_lemma}\t{t.np_head_lemma}")
    print(f"# {len(targets)} targets", file=sys.stderr)


def cmd_paraphrase(args):
    # indexed as it is read, before the model loads: a corpus error first
    index = metonymy.index_corpus(corpus_mod.read_corpus(args.corpus))
    model = load_model(args.model)
    if args.gold_targets:
        targets = metonymy.load_gold_targets(args.gold_targets, index)
    else:
        targets = metonymy.find_targets(index)
    excluded = {spec.lemma for spec in metonymy.DEFAULT_VERBS}
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    # a table's rows depend only on its target's verb and head, so each
    # (verb, head) group is harvested, ranked and formatted once and every
    # table of the group is written from that text: one group's text is
    # held at a time.  A table's name is its target's position: a corpus
    # lemma in it could leave the directory or be too long for a file
    # name.  The #target header names the document, sentence, verb and
    # head.  The wrote lines follow the tables, so none names a table that
    # a failed write left unwritten
    groups = {}  # (verb, head) -> the numbers of its targets
    for n, target in enumerate(targets, 1):
        groups.setdefault((target.verb_lemma, target.np_head_lemma),
                          []).append(n)
    sizes = [0] * len(targets)  # the row count of each target's table
    niv_rows = 0
    for (_, head), numbers in groups.items():
        candidates = metonymy.harvest_candidates(index, head, excluded)
        rows = ranking.rank(model, targets[numbers[0] - 1], candidates).rows
        text = ranking.format_rows(rows)
        for n in numbers:
            with open(outdir / f"target-{n}.tsv", "w",
                      encoding="utf-8") as out:
                out.write(ranking.table_header(targets[n - 1]) + text)
            sizes[n - 1] = len(rows)
        niv_rows += len(numbers) * sum(row.confidence is None for row in rows)
    for n, size in enumerate(sizes, 1):
        print(f"wrote {outdir / f'target-{n}.tsv'} ({size} candidates)")
    log.info("paraphrase: %d targets, %d distinct (verb, head) ranked, "
             "%d rows written, %d NotInVocabulary", len(targets),
             len(groups), sum(sizes), niv_rows)


def _pr_points(args, fixture):
    """The PR curve of ``fixture``, read from ``args.fixture``; an undefined
    curve raises with the file's name."""
    scored = [(row.confidence, row.gold) for row in fixture.rows
              if row.confidence is not None]
    try:
        return evaluation.pr_curve(scored)
    except evaluation.UndefinedMetricError as exc:
        raise evaluation.UndefinedMetricError(
            f"{args.fixture}: {exc}") from None


def _defined(metric, cm):
    """``metric(cm)``, or None where the counts leave it undefined."""
    try:
        return metric(cm)
    except evaluation.UndefinedMetricError:
        return None


def _shown(value, spec=".4f"):
    return "undefined" if value is None else format(value, spec)


def cmd_eval(args):
    fixture = evaluation.load_fixture(args.fixture)
    # written before the first line is printed, so an undefined curve or
    # a failed write fails with no output
    if args.pr_csv:
        _write_pr_csv(_pr_points(args, fixture), args.pr_csv)
    cm = evaluation.confusion([row.label for row in fixture.rows],
                              [row.gold for row in fixture.rows],
                              unscored=args.unscored)
    print(f"targets: {len(fixture.targets)}  rows: {len(fixture.rows)}")
    print(f"tp={cm.tp} tn={cm.tn} fp={cm.fp} fn={cm.fn}")
    phi = _defined(evaluation.phi_coefficient, cm)
    chi2, p = ((None, None) if phi is None
               else evaluation.phi_chi_square(phi, cm.total))
    print(f"precision={_shown(_defined(evaluation.precision, cm))} "
          f"recall={_shown(_defined(evaluation.recall, cm))}")
    print(f"phi={_shown(phi)}")
    print(f"chi2={_shown(chi2)} p={_shown(p, '.3g')}")
    if args.pr_csv:
        print(f"wrote {args.pr_csv}")


def _write_pr_csv(points, path):
    with whole_file(path, encoding="utf-8") as out:
        out.write("rank,precision,recall\n")
        for p in points:
            out.write(f"{p.rank},{p.precision:.6f},{p.recall:.6f}\n")


def _add_corpus(parser):
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--format", choices=FORMATS, default="vertical")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metovec",
        description="Train word embeddings and rank covert-event "
                    "paraphrases for verbal metonymy.")
    sub = parser.add_subparsers(dest="command", required=True)

    # a training flag's dest is its TrainingConfig field; left out, it is
    # None and the field keeps its default
    p = sub.add_parser("vocab", help="write word<TAB>count vocabulary file")
    _add_corpus(p)
    p.add_argument("--max-vocab", type=int)
    p.add_argument("--min-count", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("train", help="train an embedding model")
    _add_corpus(p)
    p.add_argument("--mode", choices=[CBOW, SKIPGRAM])
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr-start", type=float)
    p.add_argument("--lr-end", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--min-count", type=int)
    p.add_argument("--max-vocab", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("query", help="similarity / neighbour / analogy queries")
    p.add_argument("subcommand", choices=["neighbors", "analogy", "similarity"])
    p.add_argument("--model", required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("words", nargs="+")
    p.set_defaults(func=cmd_query)

    # targets are found by POS tags, which only a vertical corpus carries
    p = sub.add_parser("targets", help="list metonymy targets in a corpus")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("paraphrase", help="rank paraphrase candidates "
                                          "for every target")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--gold-targets")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_paraphrase)

    p = sub.add_parser("eval", help="confusion / precision / recall / phi "
                                    "for a fixture file")
    p.add_argument("--fixture", default=None,
                   help="ranking tables with gold column "
                        "(default: packaged result tables)")
    p.add_argument("--unscored", choices=["exclude", "true-negative"],
                   default="exclude")
    p.add_argument("--pr-csv", dest="pr_csv",
                   help="also write the PR curve as rank,precision,recall CSV")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here
    except BrokenPipeError:
        # the reader left, as `| head` does: exit as a filter killed by
        # SIGPIPE would (128 + 13), and send the interpreter's own flush at
        # shutdown to /dev/null rather than to the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        raise SystemExit(141)
    except (OSError, MemoryError, ValueError, KeyError,
            evaluation.UndefinedMetricError) as exc:
        raise SystemExit(f"error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
