"""metovec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed`` (set-up, done three times),
then runs whole rounds of the same operations against ``src/metovec`` of
this checkout until ``--seconds`` have passed, checks every output, and
prints one JSON result as the last line of stdout.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics.  ``--smoke`` uses tiny inputs.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs as gen  # noqa: E402
import program  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SETUPS = 3
OUT = program.ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB",
    "skipgram_tokens_per_s": "tokens/s", "cbow_tokens_per_s": "tokens/s",
    "paraphrase_targets_per_s": "targets/s",
    "ingest_tokens_per_s": "tokens/s", "query_cmd_s": "s",
    "neighbour_queries_per_s": "queries/s",
}
PER_LAYER_UNITS = {
    "corpus.load_s": "s", "corpus.load_tokens_per_s": "tokens/s",
    "corpus.load_traced_peak_mib": "MiB", "corpus.build_vocabulary_s": "s",
    "corpus.next_word_counts_s": "s",
    "huffman.build_s": "s", "huffman.mean_code_length": "nodes",
    "embeddings.skipgram_train_s": "s", "embeddings.cbow_train_s": "s",
    "embeddings.skipgram_hs_predictions_per_s": "predictions/s",
    "embeddings.cbow_hs_predictions_per_s": "predictions/s",
    "embeddings.node_updates_per_prediction": "nodes",
    "embeddings.save_s": "s", "embeddings.load_s": "s",
    "embeddings.model_bytes": "bytes",
    "vectorspace.nearest_neighbours_s": "s", "vectorspace.analogy_s": "s",
    "metonymy.find_targets_s": "s", "metonymy.harvest_s": "s",
    "metonymy.harvest_per_target_s": "s",
    "ranking.rank_s": "s", "ranking.write_table_s": "s",
    "evaluation.replay_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}

# --- machine-speed correction ---------------------------------------------
# The host's speed drifts by up to ~1.5x within seconds (shared cores), and
# the drift moves every timing together.  While a run measures, a SIGALRM
# handler times a tiny fixed loop every SAMPLE_INTERVAL_S of wall time.  A
# timed step is scaled by REFERENCE_S over the mean loop time sampled during
# it, i.e. reported at the speed at which the loop takes REFERENCE_S.  The
# sampling costs ~2% of each step, on every commit alike.  Raw figures go to
# the results file beside the corrected ones.
REFERENCE_S = 0.0005
SAMPLE_INTERVAL_S = 0.02
MIN_SAMPLES = 3
_REFERENCE_ITERATIONS = 300
_REFERENCE_VECTOR = np.arange(64.0)


def reference_loop():
    """Interpreter and small-numpy work, the mix the program runs."""
    counts = {}
    vector = _REFERENCE_VECTOR
    for i in range(_REFERENCE_ITERATIONS):
        counts[i % 97] = counts.get(i % 97, 0) + 1
        vector @ vector
    return counts


class SpeedMeter:
    """Samples of the reference loop's time, taken from a timer signal."""

    def __init__(self):
        self.starts = []
        self.times = []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrived during a slow sample
            return
        self._busy = True
        started = time.perf_counter()
        reference_loop()
        self.starts.append(started)
        self.times.append(time.perf_counter() - started)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start, end):
        """REFERENCE_S over the mean loop time sampled in [start, end], or
        at the MIN_SAMPLES samples nearest to it for a short step."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        n = len(self.starts)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            if lo > 0 and (hi == n or start - self.starts[lo - 1]
                           <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        times = self.times[lo:hi]
        return REFERENCE_S / (sum(times) / len(times)) if times else 1.0


class Round:
    """Timings and outputs of one round of operations."""

    def __init__(self):
        self.samples = {}  # key -> [(corrected s, raw s, units of work)]
        self.wall = 0.0  # corrected seconds of all operations
        self.outputs = {}
        self.attempted = 0
        self.failed = 0


class Bench:
    def __init__(self, metovec, workload, seed, inputs, query_model, work,
                 meter):
        from metovec import cli
        self.m = metovec
        self.cli_main = cli.main
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.query_model = query_model
        self.work = work
        self.meter = meter
        self.tracer = None
        self.first = None  # the first round, whose outputs are checked
        self.rounds = 0
        self.errors = []  # later rounds whose outputs differ from the first
        self.op_errors = {}  # message -> times seen

    def _command(self, argv):
        span = (self.tracer.span("cli." + argv[0]) if self.tracer
                else contextlib.nullcontext())
        with span:
            return program.run_command(self.cli_main, argv)

    def _op(self, rnd, name, func, *args):
        """Run one operation; a raised error counts it as failed.  ``func``
        returns {key: (start, end, units of work)} for its timed part."""
        rnd.attempted += 1
        timed = {}
        started = time.perf_counter()
        try:
            timed = func(rnd, *args) or {}
        except (Exception, SystemExit) as exc:
            rnd.failed += 1
            message = f"{name}: {type(exc).__name__}: {exc}"
            self.op_errors[message] = self.op_errors.get(message, 0) + 1
        ended = time.perf_counter()
        rnd.wall += (ended - started) * self.meter.factor(started, ended)
        for key, (start, end, units) in timed.items():
            raw = end - start
            rnd.samples.setdefault(key, []).append(
                (raw * self.meter.factor(start, end), raw, units))

    def round(self) -> Round:
        gc.collect()
        rnd = Round()
        for mode in ("skipgram", "cbow"):
            self._op(rnd, f"train {mode}", self.train, mode)
        self._op(rnd, "paraphrase", self.paraphrase)
        self._op(rnd, "ingest", self.ingest)
        for word in self.inputs.query.command_words:
            self._op(rnd, f"query {word}", self.query, word)
        self._op(rnd, "neighbours", self.neighbours)
        self._op(rnd, "eval", self.eval)
        if self.workload == "ingest_query":
            self._op(rnd, "multi-word round-trip", self.multiword)
        self._settle(rnd)
        return rnd

    def _settle(self, rnd):
        """Keep the first round's outputs; compare later ones to them and
        drop them, so memory does not grow with the number of rounds."""
        self.rounds += 1
        if self.first is None:
            self.first = rnd
            return
        for key, value in rnd.outputs.items():
            want = self.first.outputs.get(key)
            if key == "ingest" and want is not None:
                value, want = [(v.words, v.counts, n.rows)
                               for v, n in (value, want)]
            if value != want:
                self.errors.append(
                    f"round {self.rounds}: {key} output differs from round 1")
        rnd.outputs.clear()

    def train(self, rnd, mode):
        out = self.work / f"{mode}.model"
        started = time.perf_counter()
        self._command(["train", "--corpus", str(self.inputs.train.path),
                       "--format", "plain", "--mode", mode,
                       "--dim", str(gen.DIM),
                       "--epochs", str(gen.EPOCHS[mode]),
                       "--seed", str(self.seed), "--output", str(out)])
        ended = time.perf_counter()
        rnd.outputs[mode] = out.read_bytes()
        tokens = self.inputs.train.tokens * gen.EPOCHS[mode]
        return {mode: (started, ended, tokens)}

    def paraphrase(self, rnd):
        tables = self.work / "tables"
        shutil.rmtree(tables, ignore_errors=True)
        started = time.perf_counter()
        self._command(["paraphrase",
                       "--corpus", str(self.inputs.paraphrase.corpus),
                       "--model", str(self.inputs.paraphrase.model),
                       "--output-dir", str(tables)])
        ended = time.perf_counter()
        files = sorted(tables.iterdir(),
                       key=lambda p: int(p.stem.rsplit("-", 1)[1]))
        rnd.outputs["tables"] = [p.read_text(encoding="utf-8")
                                 for p in files]
        return {"paraphrase": (started, ended, len(files))}

    def ingest(self, rnd):
        m = self.m
        started = time.perf_counter()
        corpus = m.load_corpus(self.inputs.ingest.corpus, "vertical")
        vocab = m.build_vocabulary(corpus, gen.INGEST_MAX_VOCAB)
        nwc = m.next_word_counts(corpus, vocab)
        ended = time.perf_counter()
        rnd.outputs["ingest"] = (vocab, nwc)
        return {"ingest": (started, ended, self.inputs.ingest.tokens)}

    def query(self, rnd, word):
        started = time.perf_counter()
        out = self._command(["query", "neighbors",
                             "--model", str(self.inputs.query.model),
                             "-k", str(gen.K), word])
        ended = time.perf_counter()
        rnd.outputs.setdefault("query", []).append(out)
        return {"query": (started, ended, 1)}

    def neighbours(self, rnd):
        m, q, model = self.m, self.inputs.query, self.query_model
        started = time.perf_counter()
        results = [m.nearest_neighbours(model, model.vector(w), gen.K,
                                        exclude={w})
                   for w in q.neighbour_words]
        results += [m.analogy(model, a, b, c, gen.K)
                    for a, b, c in q.analogies]
        ended = time.perf_counter()
        rnd.outputs["neighbours"] = results
        return {"neighbours": (started, ended, len(results))}

    def eval(self, rnd):
        rnd.outputs["eval"] = self._command(["eval", "--unscored",
                                             "true-negative"])

    def multiword(self, rnd):
        """Round-trip a model whose vocabulary holds the lemma
        'ice cream', which the vertical corpus format allows."""
        m = self.m
        corpus = m.load_corpus(self.inputs.multiword, "vertical")
        vocab = m.build_vocabulary(corpus, 100)
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((len(vocab), gen.DIM))
        model = program.build_model(m, vocab.words, vocab.counts, vectors,
                                    rng)
        path = self.work / "multiword.model"
        m.save_model(model, path)
        loaded = m.load_model(path)
        rnd.outputs["multiword_equal"] = (
            loaded.vocab.words == vocab.words
            and np.array_equal(loaded.input_vectors, model.input_vectors)
            and np.array_equal(loaded.node_vectors, model.node_vectors))


def setup(metovec, seed, sizes, directory, meter):
    """Make every input; returns (corrected s, raw s, inputs, query model)."""
    started = time.perf_counter()
    inputs = gen.make_inputs(seed, sizes, directory,
                             program.model_writer(metovec))
    query_model = metovec.load_model(inputs.query.model)
    ended = time.perf_counter()
    seconds = ended - started
    return (seconds * meter.factor(started, ended), seconds, inputs,
            query_model)


def run_rounds(bench, seconds, traced):
    """Whole rounds until ``seconds`` have passed.  Traced runs alternate an
    untraced and a traced round; returns the two lists of rounds and the
    span range of each traced round."""
    untraced, traced_rounds, ranges = [], [], []
    started = time.perf_counter()
    while True:
        untraced.append(bench.round())
        if traced:
            tracer = bench.tracer
            first = len(tracer.spans)
            tracer.install()
            try:
                traced_rounds.append(bench.round())
            finally:
                tracer.uninstall()
            ranges.append((first, len(tracer.spans)))
        if time.perf_counter() - started >= seconds:
            return untraced, traced_rounds, ranges


def end_to_end(rounds, setup_times, column=0):
    """Medians over every sample of the run; ``column`` 0 gives corrected
    figures, 1 raw ones."""
    def samples(key):
        return [s for r in rounds for s in r.samples.get(key, ())]

    def rate(key):
        return statistics.median(s[2] / s[column] for s in samples(key))

    return {
        "setup_s": statistics.median(s[column] for s in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "skipgram_tokens_per_s": rate("skipgram"),
        "cbow_tokens_per_s": rate("cbow"),
        "paraphrase_targets_per_s": rate("paraphrase"),
        "ingest_tokens_per_s": rate("ingest"),
        "query_cmd_s": statistics.median(s[column] for s in samples("query")),
        "neighbour_queries_per_s": rate("neighbours"),
    }


def per_layer(spans, untraced, traced, ranges, main_peak, query_model,
              model_bytes):
    """Per-round totals of each layer's spans, median over traced rounds;
    per-call figures are medians over every traced call."""
    own = self_times(spans)
    per_round = []
    per_call = {"vectorspace.nearest_neighbours": [],
                "vectorspace.analogy": []}
    for lo, hi in ranges:
        seconds, calls, counts = Counter(), Counter(), Counter()
        for i in range(lo, hi):
            span = spans[i]
            name = span.name
            if name == "embeddings.train":
                name += "." + span.counts["mode"]
            layer = name.split(".")[0]
            seconds[name] += span.seconds
            seconds[layer] += span.seconds
            seconds["self." + layer] += own[i]
            calls[name] += 1
            for counter, value in span.counts.items():
                if counter != "mode":
                    counts[f"{name}:{counter}"] += value
            if name in per_call:
                per_call[name].append(span.seconds)
        sg, cbow = "embeddings.train.skipgram", "embeddings.train.cbow"
        per_round.append({
            "corpus.load_s": seconds["corpus.load_corpus"],
            "corpus.load_tokens_per_s": counts["corpus.load_corpus:tokens"]
            / seconds["corpus.load_corpus"],
            "corpus.build_vocabulary_s": seconds["corpus.build_vocabulary"],
            "corpus.next_word_counts_s": seconds["corpus.next_word_counts"],
            "huffman.build_s": seconds["huffman.build_huffman_tree"],
            "embeddings.skipgram_train_s": seconds[sg],
            "embeddings.cbow_train_s": seconds[cbow],
            "embeddings.skipgram_hs_predictions_per_s":
                counts[sg + ":predictions"] / seconds[sg],
            "embeddings.cbow_hs_predictions_per_s":
                counts[cbow + ":predictions"] / seconds[cbow],
            "embeddings.node_updates_per_prediction":
                (counts[sg + ":node_updates"]
                 + counts[cbow + ":node_updates"])
                / (counts[sg + ":predictions"]
                   + counts[cbow + ":predictions"]),
            "embeddings.save_s": seconds["embeddings.save_model"],
            "embeddings.load_s": seconds["embeddings.load_model"],
            "metonymy.find_targets_s": seconds["metonymy.find_targets"],
            "metonymy.harvest_s": seconds["metonymy.harvest_candidates"],
            "metonymy.harvest_per_target_s":
                seconds["metonymy.harvest_candidates"]
                / calls["metonymy.harvest_candidates"],
            "ranking.rank_s": seconds["ranking.rank"],
            "ranking.write_table_s": seconds["ranking.write_table"],
            "evaluation.replay_s": seconds["evaluation"],
            "cli.self_s": seconds["self.cli"],
        })
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in per_round[0]}
    metrics.update({
        "corpus.load_traced_peak_mib": main_peak,
        "huffman.mean_code_length": query_model.tree.mean_code_length(
            query_model.vocab.counts),
        "embeddings.model_bytes": model_bytes,
        "vectorspace.nearest_neighbours_s": statistics.median(
            per_call["vectorspace.nearest_neighbours"]),
        "vectorspace.analogy_s": statistics.median(
            per_call["vectorspace.analogy"]),
        "trace.overhead_s": statistics.median(r.wall for r in traced)
        - statistics.median(r.wall for r in untraced),
    })
    return metrics


# the corpus whose load_corpus peak is traced, per workload
MAIN_CORPUS = {"train": lambda i: (i.train.path, "plain"),
               "paraphrase": lambda i: (i.paraphrase.corpus, "vertical"),
               "ingest_query": lambda i: (i.ingest.corpus, "vertical")}


def traced_load_peak(metovec, inputs, workload):
    """tracemalloc peak of one load_corpus of the workload's main corpus,
    measured apart from the timed rounds (tracemalloc slows everything)."""
    path, fmt = MAIN_CORPUS[workload](inputs)
    gc.collect()
    tracemalloc.start()
    try:
        metovec.load_corpus(path, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def run_checks(metovec, bench, inputs, query_model, work):
    """Check the first round's outputs against the generator's facts."""
    first = bench.first.outputs
    errors = list(bench.errors)
    for mode in ("skipgram", "cbow"):
        if mode in first:
            errors += checks.check_train(metovec, inputs.train, mode,
                                         work / f"{mode}.model", work)
    if "tables" in first:
        errors += checks.check_paraphrase(inputs.paraphrase, first["tables"])
    if "ingest" in first:
        errors += checks.check_ingest(inputs.ingest, *first["ingest"])
    errors += checks.check_huffman(query_model)
    if "neighbours" in first and len(first.get("query", ())) == len(
            inputs.query.command_words):
        errors += checks.check_queries(inputs.query, first["query"],
                                       first["neighbours"])
    if "eval" in first:
        errors += checks.check_eval(first["eval"])
    if first.get("multiword_equal") is False:
        errors.append("multi-word round-trip: loaded model differs")
    return errors


def git_sha():
    head = program.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (program.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_info():
    return {"platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.SIZES),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (with --seconds 0: one round)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    metovec = program.import_metovec()
    sizes = gen.SMOKE_SIZES if args.smoke else gen.SIZES[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"run-{tag}-{os.getpid()}"
    meter = SpeedMeter()
    try:
        with meter:
            setup_times = []
            for n in range(SETUPS):
                corrected, raw, inputs, query_model = setup(
                    metovec, args.seed, sizes, work / f"setup{n}", meter)
                setup_times.append((corrected, raw))
            bench = Bench(metovec, args.workload, args.seed, inputs,
                          query_model, work, meter)
            if args.trace:
                bench.tracer = Tracer(metovec)
            untraced, traced, ranges = run_rounds(bench, args.seconds,
                                                  args.trace)
        rounds = untraced + traced
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        raw = {}
        if args.trace:
            for span in bench.tracer.spans:
                span.factor = meter.factor(span.start, span.end)
            metrics = per_layer(
                bench.tracer.spans, untraced, traced, ranges,
                traced_load_peak(metovec, inputs, args.workload),
                query_model, inputs.query.model.stat().st_size)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(untraced, setup_times)
            raw = end_to_end(untraced, setup_times, column=1)
            units = END_TO_END_UNITS
        errors = run_checks(metovec, bench, inputs, query_model, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message, times in bench.op_errors.items():
        print(f"failed {times}x: {message}", file=sys.stderr)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "sizes": sizes,
              "rounds": len(untraced), "traced_rounds": len(traced),
              "raw_metrics": raw, "machine": machine_info(),
              "check_errors": errors, "failed_operations": bench.op_errors,
              **result}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(
            [s.as_dict() for s in bench.tracer.spans]) + "\n")
    print(f"{args.workload}: attempted {attempted} failed {failed} "
          f"({len(untraced)} rounds, {len(traced)} traced)")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
