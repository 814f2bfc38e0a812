"""The benchmark's own gate, under Tier-1, on both backends.

``perfbench/run.py --check`` runs each ``perfbench/workloads.json`` workload
through ``zoomgrad.cli.main`` and refuses an invocation whose exit code,
simulated-work totals or CSV digest differ from the workload's record.  This
test replays the four workloads the same way, through the benchmark's own
``harness.invoke``, on the compiled and the pure backend; the benchmark
itself times only the backend its build gives.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import harness  # noqa: E402
from zoomgrad.cli import main as cli_main  # noqa: E402

WORKLOADS = harness.load_workloads()


@pytest.mark.parametrize("backend", ["kernel", "no_kernel"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_matches_its_fingerprint(name, backend, request, tmp_path):
    request.getfixturevalue(backend)
    invocation = harness.invoke(cli_main, WORKLOADS[name], str(tmp_path))
    assert invocation.error == ""
