"""Locating and driving the program under test: ``src/metovec`` of the
checkout that holds this benchmark."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def import_metovec():
    """Import metovec from ``src/`` of this checkout, never an installed
    copy; exits with status 2 when the checkout has no program."""
    if not (SOURCE / "metovec" / "__init__.py").is_file():
        print(f"error: no program at {SOURCE / 'metovec'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SOURCE))
    import metovec
    if Path(metovec.__file__).resolve().parent != SOURCE / "metovec":
        print(f"error: imported metovec from {metovec.__file__}, "
              f"not from {SOURCE}", file=sys.stderr)
        raise SystemExit(2)
    return metovec


def build_model(metovec, words, counts, vectors, rng):
    """A program model holding benchmark vectors; node vectors from ``rng``."""
    vocab = metovec.Vocabulary(words=tuple(words), counts=tuple(counts),
                               total_tokens=sum(counts), max_size=len(words))
    nodes = 0.1 * rng.standard_normal((len(words) - 1, vectors.shape[1]))
    config = metovec.TrainingConfig(dim=vectors.shape[1])
    return metovec.EmbeddingModel(np.asarray(vectors, dtype=float), nodes,
                                  vocab, config)


def model_writer(metovec):
    """A ``write_model(words, counts, vectors, rng, path)`` for the input
    generators: writes benchmark vectors with the program's own
    ``save_model``, so model files stay in the program's format."""
    def write(words, counts, vectors, rng, path):
        metovec.save_model(build_model(metovec, words, counts, vectors, rng),
                           path)
    return write


def run_command(cli_main, argv):
    """Run one ``metovec`` command in-process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(argv)
    if status not in (0, None):
        raise RuntimeError(f"metovec {' '.join(argv)} exited {status}")
    return out.getvalue()
