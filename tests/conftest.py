"""Shared test fixtures and the acceptance-report terminal section.

The acceptance tests (tests/test_acceptance.py) record one PASS/FAIL line
per criterion through the ``acceptance`` fixture; the lines are replayed in
a dedicated section at the end of the pytest run so they are visible even
for passing tests (pytest normally swallows stdout of passing tests).

The ``kernel`` fixture builds the C kernel (consensus rounds and the graph's
edge draws) from this checkout into a temporary directory once per session,
so the compiled paths are checked wherever a C compiler exists, whether or
not an in-place build is present.
"""

import glob
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction

import pytest

from zoomgrad import graph
from zoomgrad.consensus import engine
from zoomgrad.graph import Digraph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The compiler setuptools will call: $CC, else the one Python was built with.
CC = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")[0]


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance(request):
    """Recorder for one acceptance-criterion result line.

    Usage: ``ok = <verdict>; acceptance(3, ok, "detail"); assert ok, ...``.
    The line is recorded before the assert so a FAIL still reaches the
    terminal summary.
    """

    def record(number, ok, detail):
        line = "ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", detail)
        request.config._acceptance_lines.append(line)
        print(line)
        return ok

    return record


@pytest.fixture(scope="session")
def built_kernel(tmp_path_factory):
    """The ``_ckernel`` module built into a temp dir, or None without a C compiler.

    Nothing is written under ``src/``.  A build that fails, or that makes the
    compiler warn, while a compiler exists fails every test that uses the
    kernel.
    """
    if shutil.which(CC) is None:
        return None
    tmp = tmp_path_factory.mktemp("ckernel")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    built = glob.glob(str(tmp / "lib" / "zoomgrad" / "_ckernel*"))
    if proc.returncode != 0 or not built:
        pytest.fail("C compiler %r found but the kernel did not build:\n%s%s" % (CC, proc.stdout, proc.stderr))
    if "warning:" in proc.stdout + proc.stderr:
        pytest.fail("the kernel built with compiler warnings:\n%s%s" % (proc.stdout, proc.stderr))
    spec = importlib.util.spec_from_file_location("zoomgrad._ckernel", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def kernel(built_kernel, monkeypatch):
    """The freshly built kernel, installed as the engine's and the graph's backend."""
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    monkeypatch.setattr(engine, "_kernel", built_kernel)
    monkeypatch.setattr(graph, "_kernel", built_kernel)
    return built_kernel


@pytest.fixture
def no_kernel(monkeypatch):
    """Neither the engine nor the graph module sees a compiled kernel."""
    monkeypatch.setattr(engine, "_kernel", None)
    monkeypatch.setattr(graph, "_kernel", None)


def ring(n):
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0 (diameter n-1)."""
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    """Complete digraph on n nodes (diameter 1)."""
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def bidirectional_pair():
    return Digraph(2, [(0, 1), (1, 0)])


@pytest.fixture
def ring3():
    return ring(3)


F = Fraction
