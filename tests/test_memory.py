import os
import subprocess
import sys
from pathlib import Path

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


def kept_after_free(imports, block, setup=""):
    """The probe's figure in a fresh process, with the allocator's own
    settings from the environment left out."""
    environ = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_")}
    environ["PYTHONPATH"] = os.pathsep.join(
        [SOURCE, *filter(None, [os.environ.get("PYTHONPATH")])])
    probe = PROBE.format(imports=imports, setup=setup, block=block)
    done = subprocess.run([sys.executable, "-c", probe], env=environ,
                          capture_output=True, text=True, check=True)
    return int(done.stdout)


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
