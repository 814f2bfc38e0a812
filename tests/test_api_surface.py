"""Every name that ``src/zoomgrad`` defines has a caller in ``src/zoomgrad``,
and every parameter is read.

The package's Python is parsed with ``ast``.  A module-level function or
class, or a method that is not a dunder, fails the check when no ``Name`` or
``Attribute`` node anywhere in the package uses its name.  A parameter fails
when no function of its name that takes it reads it, so a method whose
sibling on another class reads an argument (``message_width(k)``) passes.
The allowlists hold the names that only the benchmark uses, each with the
file under ``perfbench/`` that pins it: removing one breaks the benchmark.
"""

import ast
import os

import zoomgrad

PACKAGE = os.path.dirname(zoomgrad.__file__)

BENCHMARK_PINS = {
    "optimizer.gradient_step": "perfbench/tracing.py HOOKS",
    "engine.init_consensus": "perfbench/tracing.py HOOKS",
    "Digraph.edge_count": "perfbench/tracing.py _count_graph",
    "PCG32.getstate": "perfbench/run.py parity_run",
    "PCG32.setstate": "perfbench/run.py parity_run",
}

UNREAD_PARAMETER_PINS = {
    "run_consensus.q": "perfbench/run.py parity_run",
}


def package_trees():
    for root, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as f:
                    yield name[:-3], ast.parse(f.read())


def definitions(module, tree):
    """(qualified name, name) of each module-level function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "%s.%s" % (module, node.name), node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield "%s.%s" % (node.name, item.name), item.name


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_defined_name_has_a_caller_in_the_package():
    trees = list(package_trees())
    used = {name for _, tree in trees for name in used_names(tree)}
    unused = {q for module, tree in trees for q, name in definitions(module, tree) if name not in used}
    assert sorted(unused - set(BENCHMARK_PINS)) == []
    assert sorted(set(BENCHMARK_PINS) - unused) == []  # a pin that gained a caller leaves the allowlist


def parameters(tree):
    """(function name, parameter, whether the function's body reads it) for every function in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            loaded = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for name in names:
                yield node.name, name, name in loaded


def test_every_parameter_is_read_by_a_function_of_its_name():
    taken, read = set(), set()
    for _, tree in package_trees():
        for function, name, loaded in parameters(tree):
            taken.add("%s.%s" % (function, name))
            if loaded:
                read.add("%s.%s" % (function, name))
    unread = taken - read
    assert sorted(unread - set(UNREAD_PARAMETER_PINS)) == []
    assert sorted(set(UNREAD_PARAMETER_PINS) - unread) == []  # a pin that became read leaves the allowlist
