"""The classifier frontier in cold command-line processes, under the limits
of the benchmark's children: a 2.5 GiB address space, set before higherop
is imported, and one BLAS thread.  Each child reports its own peak
resident set (VmHWM, which starts afresh at exec, unlike ru_maxrss) on its
last stderr line."""

import json
import os
import subprocess
import sys

import pytest
from oracles import config_space_betti

import higherop

ADDRESS_LIMIT = int(2.5 * 2**30)
_CHILD = ("import resource, sys\n"
          f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_LIMIT}, {ADDRESS_LIMIT}))\n"
          "from higherop.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "with open('/proc/self/status') as status:\n"
          "    print(*(int(line.split()[1]) << 10 for line in status if line.startswith('VmHWM')),\n"
          "          file=sys.stderr)\n"
          "sys.exit(code)\n")
pytestmark = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the peak resident set from /proc")


def _cold(argv):
    """(exit code, stdout, stderr lines before the peak, peak bytes) of one cold process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(higherop.__file__)),
               OPENBLAS_NUM_THREADS="1")
    env.pop("HIGHEROP_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True,
                          env=env, timeout=300)
    *err, peak = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, err, int(peak)


@pytest.mark.parametrize("n, k", [(4, 5), (2, 6)])
def test_past_the_dense_frontier(n, k):
    code, out, err, peak = _cold(["--json", "classifier", "--fresh", "--n", str(n), "--k", str(k),
                                  "--max-objects", "40000"])
    assert code == 0 and err == []
    data = json.loads(out)["data"]
    assert data["betti"] == config_space_betti(n, k) and not any(data["torsion"])
    assert peak < 300 << 20


def test_seven_points_in_the_plane_are_refused_from_the_entry_count():
    code, out, err, peak = _cold(["classifier", "--fresh", "--n", "2", "--k", "7",
                                  "--max-objects", "400000"])
    assert code == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("error: 4354560 boundary entries need")
    assert peak < 24 * 4354560  # below three int64 arrays of that many entries
