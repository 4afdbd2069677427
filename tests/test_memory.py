import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metovec

from conftest import make_model

SOURCE = str(Path(metovec.__file__).resolve().parent.parent)

# runs the imports and the set-up, then makes and frees a block three times
# and prints the most any round left the resident size above where that
# round started
PROBE = """
import numpy as np
{imports}

def resident():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096

{setup}
grown = []
for _ in range(3):
    before = resident()
    block = {block}
    del block
    grown.append(resident() - before)
print(max(grown))
"""

# a 16 MB array
ARRAY = "np.ones(2_000_000)"

pytestmark = pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                                reason="needs /proc")


def probe_environ():
    """The environment of a child ``python``, with this checkout's package
    first on its path and the allocator's own settings left out."""
    environ = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_")}
    environ["PYTHONPATH"] = os.pathsep.join(
        [SOURCE, *filter(None, [os.environ.get("PYTHONPATH")])])
    return environ


def kept_after_free(imports, block, setup=""):
    """The probe's figure in a fresh process."""
    probe = PROBE.format(imports=imports, setup=setup, block=block)
    done = subprocess.run([sys.executable, "-c", probe], env=probe_environ(),
                          capture_output=True, text=True, check=True)
    return int(done.stdout)


# runs ``{run}`` and prints the process's peak resident size in KiB to
# stderr as it exits: VmHWM, its own high-water mark, for ru_maxrss keeps
# that of the process it was started from when that one was larger
PEAK = """
import atexit, re, sys

def peak():
    with open("/proc/self/status") as status:
        print(re.search(r"VmHWM:\\s*(\\d+)", status.read())[1],
              file=sys.stderr)

atexit.register(peak)
{run}
"""


def peak_resident(run, *args):
    """The peak resident size, in bytes, of a fresh ``python`` that runs
    ``run`` with ``args`` as its arguments."""
    done = subprocess.run(
        [sys.executable, "-c", PEAK.format(run=run), *args],
        env=probe_environ(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, check=True)
    return int(done.stderr.split()[-1]) * 1024


def test_importing_metovec_leaves_the_allocator_alone():
    """Importing the package sets no process-wide allocator state: freed
    arrays stay resident, or not, as they do with numpy alone (with glibc,
    its moving mmap threshold keeps the second 16 MB array on the heap)."""
    alone = kept_after_free("", ARRAY)
    assert abs(kept_after_free("import metovec", ARRAY) - alone) < 1 << 20


def test_a_freed_model_leaves_no_resident_memory(tmp_path):
    """A loaded model's 8 MB matrices live in mappings of their own, so a
    freed model leaves nothing resident, even after a freed 16 MB array
    has moved glibc's mmap threshold above their size.  A first load, in
    the set-up, leaves the imports and caches it needs."""
    path = tmp_path / "big.model"
    metovec.save_model(make_model({f"w{i}": [0.5] * 100
                                   for i in range(10_000)}), path)
    load = f"metovec.load_model({str(path)!r})"
    assert kept_after_free("import metovec", load,
                           setup=f"{load}\n{ARRAY}") < 1 << 20


def test_vocab_streams_its_corpus(tmp_path):
    """`vocab` counts lemmas as the corpus is read and holds no sentence
    after its pass: on a 300k-token vertical corpus it adds less than half
    of what `load_corpus`, which holds every sentence, adds to a bare
    `import metovec.cli`."""
    rng = np.random.default_rng(1)
    tags = ["NOUN", "VERB", "ADJ", "DET"]
    ranks = np.minimum(rng.zipf(1.2, 300_000), 20_000)  # Zipf word ids
    lines = []
    for start in range(0, len(ranks), 20):  # sentences of 20 tokens
        lines.extend(f"W{r}\tw{r}\t{tags[r % 4]}"
                     for r in ranks[start:start + 20])
        lines.append("")
    corpus = tmp_path / "c.vert"
    corpus.write_text("\n".join(lines) + "\n")
    bare = peak_resident("import metovec.cli")
    loaded = peak_resident(
        "import metovec.cli; metovec.load_corpus(sys.argv[1])", str(corpus))
    streamed = peak_resident(
        "import runpy; runpy.run_module('metovec.cli', run_name='__main__')",
        "vocab", "--corpus", str(corpus), "--output", str(tmp_path / "v"))
    assert loaded - bare > 8 << 20  # the tuple is what is compared
    assert streamed - bare < (loaded - bare) / 2
