"""Pinned report bytes: the SHA-256 of every CSV that acceptance criterion
10's ``run``, ``sweep`` and ``compare`` commands write, on both backends.

Criterion 10 compares reruns with each other; these digests compare them
with fixed values, so a change that moves one report byte fails here.  The
``backend`` column names the backend that ran and is masked before hashing;
every other byte is covered.
"""

import hashlib

import pytest

from zoomgrad.config import RunConfig
from zoomgrad.runner import cmd_compare, cmd_run, cmd_sweep

COMMANDS = {
    "run": lambda d: cmd_run(RunConfig(seed=1, out_dir=d)),
    "sweep": lambda d: cmd_sweep(RunConfig(out_dir=d), [2, 3]),
    "compare": lambda d: cmd_compare(RunConfig(seed=5, n=5, out_dir=d, stop={"max_steps": 40})),
}

DIGESTS = {
    ("run", "history.csv"): "e808d546b7dad35b2a6d268b83db61b4fa75497c546feb1cbac27a4dad560c82",
    ("run", "summary.csv"): "676d9b2e22dd80c02caaf23bb2cea07348a415ccc2cdfe9d96e5d82cdaff3a46",
    ("sweep", "sweep_aggregate.csv"): "d68c88f26dd7d0d1f41c29b99f7f11488a27b54a214fbac6360c2028af20c900",
    ("sweep", "sweep_seeds.csv"): "7b41eee174e68e32695e83264affa3d6f5b17ff834909ae90d934000a7c64a4c",
    ("compare", "compare.csv"): "f1defd9a5c3f65f9c6673a510d3dcbe9e308063ba8c1cc4bf4601e33a7213803",
    ("compare", "compare_summary.csv"): "33325431d5a28f607b83659c2e300560c5783949fffe24f5c5a407a4b7ca3cbe",
}


def masked_digest(text):
    """SHA-256 of a CSV with every ``backend`` cell replaced by ``*``."""
    assert '"' not in text  # no quoted cells, so splitting on commas is exact
    lines = text.split("\n")
    header = lines[0].split(",")
    if "backend" in header:
        col = header.index("backend")
        for i in range(1, len(lines)):
            if lines[i]:
                cells = lines[i].split(",")
                cells[col] = "*"
                lines[i] = ",".join(cells)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("backend", ["compiled", "pure"])
def test_report_bytes_are_pinned(backend, request, tmp_path):
    request.getfixturevalue("kernel" if backend == "compiled" else "no_kernel")
    got = {}
    for name, command in COMMANDS.items():
        out = tmp_path / name
        assert command(str(out)) == 0
        for path in sorted(out.iterdir()):
            got[(name, path.name)] = masked_digest(path.read_text())
    assert got == DIGESTS
