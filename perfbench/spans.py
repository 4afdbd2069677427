"""Spans around the calls into each metovec layer, recorded from outside
the program by swapping the public functions for timing wrappers."""

from __future__ import annotations

import contextlib
import sys
import time

# The public functions each `metovec` command calls, by layer.
LAYER_FUNCTIONS = {
    "corpus": ("load_corpus", "build_vocabulary", "next_word_counts"),
    "huffman": ("build_huffman_tree",),
    "embeddings": ("train", "save_model", "load_model"),
    "vectorspace": ("nearest_neighbours", "analogy"),
    "metonymy": ("find_targets", "harvest_candidates", "load_gold_targets"),
    "ranking": ("rank", "write_table"),
    "evaluation": ("load_fixture", "confusion", "precision", "recall",
                   "phi_coefficient", "pr_curve"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "factor")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = {}
        self.factor = 1.0  # machine-speed correction, set by the benchmark

    @property
    def seconds(self):
        """Duration corrected for machine speed."""
        return (self.end - self.start) * self.factor

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "factor": self.factor, **self.counts}


class Tracer:
    """In-memory span recorder; spans keep the index of their parent."""

    def __init__(self, metovec):
        self.metovec = metovec
        self.spans = []
        self._open = []
        self._originals = {}

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def finish(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    def _wrap(self, name, func):
        counter = _COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                args, kwargs = counter.before(tracer.metovec, args, kwargs)
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.finish(span)
            if counter is not None:
                counter.after(span, args, kwargs, result)
            return result
        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        """Swap every metovec module's reference to a layer function for
        its wrapper, so calls made between modules are traced as well."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "metovec" or n.startswith("metovec.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"metovec.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals[(mod, attr)] = original
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for (mod, attr), original in self._originals.items():
            setattr(mod, attr, original)
        self._originals.clear()


class _LoadCounter:
    """Tokens read by load_corpus (counted after the span ends)."""

    def before(self, metovec, args, kwargs):
        return args, kwargs

    def after(self, span, args, kwargs, corpus):
        span.counts["tokens"] = sum(len(s.tokens) for s in corpus)


class _TrainCounter:
    """TrainStats of the train call; one is passed in when the caller
    passed none."""

    def before(self, metovec, args, kwargs):
        if len(args) < 4 and kwargs.get("stats") is None:
            kwargs = dict(kwargs, stats=metovec.TrainStats())
        return args, kwargs

    def after(self, span, args, kwargs, model):
        stats = args[3] if len(args) > 3 else kwargs["stats"]
        config = args[1] if len(args) > 1 else kwargs["config"]
        span.counts.update(mode=config.mode, predictions=stats.predictions,
                           node_updates=stats.node_updates,
                           examples=stats.examples)


_COUNTERS = {"corpus.load_corpus": _LoadCounter(),
             "embeddings.train": _TrainCounter()}


def self_times(spans):
    """Each span's seconds minus the seconds its direct children cover."""
    times = [s.seconds for s in spans]
    for span in spans:
        if span.parent is not None:
            times[span.parent] -= span.seconds
    return times
