"""Every name that ``src/zoomgrad`` defines has a caller in ``src/zoomgrad``,
every parameter is read, every default is both used and overridden by the
package, and no module imports a name it never uses.

The package's Python is parsed with ``ast``.  A module-level function or
class, or a method that is not a dunder, fails the check when no ``Name`` or
``Attribute`` node anywhere in the package uses its name.  A parameter fails
when no function of its name that takes it reads it, so one of a
protocol's methods (a zoom policy's ``on_repeat(q, m)``) may ignore an
argument that a sibling on another class reads.
A defaulted parameter or dataclass field fails when every call in the
package that reaches it passes it (only the tests use the default) or none
does (only the tests use the option); calls are matched by name, a class's
name standing for its ``__init__`` or its fields, and ``RunConfig``, the
table of defaults, is exempt.  The allowlists hold the names that only the
benchmark or the console script uses, each with its reason: removing one
breaks that user.  The import check covers ``tests/`` too.

The grid ``(b_q, delta)`` is one integer form, ``QuantizerState``'s
``den``, ``base`` and ``step``, and its ``b_q`` and ``delta`` build a
``Fraction`` on each read.  Outside ``quantizer.py`` only the functions in
``GRID_FRACTION_READERS`` read an attribute of either name, each with its
reason, and no module reads their ``numerator`` or ``denominator``: the
step path works out its per-grid constants from the integers.

A config is read one way: outside ``config.py`` no module calls
``parse_rational`` or subscripts a nested block field (``config.policy[...]``
and its siblings in ``BLOCK_FIELDS``); ``RunConfig.block`` is the one read
of a block, with its rationals already parsed.

The C kernel exports exactly what the package calls: the names in
``_ckernel.c``'s ``methods[]`` table, read from the source text so that the
check needs no compiler, equal the attributes that ``src/zoomgrad`` reads
on a kernel (``_kernel.<name>`` and ``kernel.<name>``).  An entry point that
no package path calls fails, and so does a call to a name the kernel does
not export.
"""

import ast
import os
import re

import zoomgrad
from zoomgrad.consensus.engine import ConsensusStats
from zoomgrad.optimizer import RunRecord
from zoomgrad.quantizer import QuantizerState

PACKAGE = os.path.dirname(zoomgrad.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))

BENCHMARK_PINS = {
    "optimizer.gradient_step": "perfbench/tracing.py HOOKS",
    "engine.init_consensus": "perfbench/tracing.py HOOKS",
    "ConsensusStats.mass_transmissions": "perfbench/run.py parity_run and perfbench/tracing.py _count_consensus",
    "ConsensusStats.measured_alphabet": "perfbench/tracing.py _count_consensus; the product reads alphabet_size",
    "Digraph.edge_count": "perfbench/tracing.py _count_graph",
    "PCG32.getstate": "perfbench/run.py parity_run",
    "PCG32.setstate": "perfbench/run.py parity_run",
}

UNREAD_PARAMETER_PINS = {
    "run_consensus.q": "perfbench/run.py parity_run",
}

DEFAULT_PINS = {
    "main.argv": "the console script calls main()",
    "PCG32.initseq": "perfbench/run.py parity_run calls type(rng)(0)",
    "run_consensus.force_backend": "perfbench/run.py parity_run passes it",
}

DEFAULT_TABLE = "RunConfig"

GRID_FRACTION_READERS = {
    "runner.write_history_csv": "the history report renders delta and b_q",
    "engine.init_consensus": "the per-node oracle of the masses",
}

BLOCK_FIELDS = ("policy", "cost_spec", "stop", "accounting")


def package_trees(top=PACKAGE):
    for root, _, files in os.walk(top):
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


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _field_default(value):
    """Whether a dataclass field's value gives its ``__init__`` parameter a
    default; None when the field is no parameter (``field(init=False)``)."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        if "init" in keywords and isinstance(keywords["init"], ast.Constant) and keywords["init"].value is False:
            return None
        return "default" in keywords or "default_factory" in keywords
    return value is not None


def defaulted_parameters(tree):
    """(callee, parameter, positional index or None) of each defaulted
    parameter and dataclass field in ``tree``.

    The callee is the name a call uses: a function's own, or its class's for
    ``__init__`` and for dataclass fields.  A method's positional index
    counts from the argument after ``self``; a keyword-only parameter has
    none.
    """
    functions = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name == DEFAULT_TABLE:
            continue
        functions += [(node.name, item) for item in node.body if isinstance(item, ast.FunctionDef)]
        if _is_dataclass(node):
            index = 0  # of the field among __init__'s parameters
            for item in node.body:
                if not isinstance(item, ast.AnnAssign) or _field_default(item.value) is None:
                    continue
                if _field_default(item.value):
                    yield node.name, item.target.id, index
                index += 1
    for cls, node in functions:
        args = node.args
        positional = args.posonlyargs + args.args
        callee = node.name
        if cls is not None:
            positional = positional[1:]
            callee = cls if node.name == "__init__" else node.name
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield callee, positional[i].arg, i
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, a.arg, None


def passes(call, parameter, index):
    """Whether ``call`` sets ``parameter`` (at ``index`` when positional)."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def calls_by_name(trees):
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    return calls


def one_sided_defaults(top=PACKAGE):
    """``callee.parameter`` of each default that every call in ``top``
    overrides, or that no call there sets."""
    trees = [tree for _, tree in package_trees(top)]
    calls = calls_by_name(trees)
    flagged = set()
    for tree in trees:
        for callee, parameter, index in defaulted_parameters(tree):
            passed = [passes(call, parameter, index) for call in calls.get(callee, [])]
            if all(passed) or not any(passed):  # no call at all is "none sets it"
                flagged.add("%s.%s" % (callee, parameter))
    return flagged


def test_every_default_is_both_used_and_overridden_by_the_package():
    flagged = one_sided_defaults()
    assert sorted(flagged - set(DEFAULT_PINS)) == []
    assert sorted(set(DEFAULT_PINS) - flagged) == []  # a pin the package now uses both ways leaves the allowlist


def unused_imports(top):
    """``module.name`` of each name that a module under ``top`` imports and
    never uses; a name listed in the module's ``__all__`` counts as used."""
    unused = set()
    for module, tree in package_trees(top):
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(e.value for e in node.value.elts)
        unused.update("%s.%s" % (module, name) for name in imported - used)
    return unused


def test_no_module_imports_a_name_it_never_uses():
    assert sorted(unused_imports(PACKAGE) | unused_imports(TESTS)) == []


def owners(tree):
    """node -> name of its innermost enclosing function: ast.walk visits outer ones first."""
    owner = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            owner.update((node, function.name) for node in ast.walk(function))
    return owner


def grid_reads(top=PACKAGE):
    """``module.function:line`` of each read of an attribute named ``b_q`` or
    ``delta`` in a module other than ``quantizer`` (``<module>`` outside any
    function), and whether it reads that attribute's ``numerator`` or
    ``denominator``."""
    reads = []
    for module, tree in package_trees(top):
        if module == "quantizer":
            continue
        owner = owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
                value, split = node.value, True
            else:
                value, split = node, False
            if isinstance(value, ast.Attribute) and value.attr in ("b_q", "delta"):
                where = "%s.%s:%d" % (module, owner.get(value, "<module>"), value.lineno)
                reads.append((where, split))
    return reads


def test_only_the_quantizer_derives_the_grid_integers():
    reads = grid_reads()
    assert [where for where, split in reads if split] == []
    readers = {where.split(":")[0] for where, _ in reads}
    assert sorted(readers - set(GRID_FRACTION_READERS)) == []
    assert sorted(set(GRID_FRACTION_READERS) - readers) == []  # a reader that stopped reading leaves the allowlist


def config_reads(top=PACKAGE):
    """``module.function:line`` of each call of ``parse_rational`` and each
    subscript of a block field (``<expr>.policy[...]``, ...) in a module
    other than ``config``."""
    reads = []
    for module, tree in package_trees(top):
        if module == "config":
            continue
        owner = owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                hit = getattr(node.func, "id", getattr(node.func, "attr", None)) == "parse_rational"
            else:
                hit = isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) in BLOCK_FIELDS
            if hit:
                reads.append("%s.%s:%d" % (module, owner.get(node, "<module>"), node.lineno))
    return reads


def test_a_block_is_read_only_through_the_config():
    assert config_reads() == []


def kernel_exports():
    """The names in ``_ckernel.c``'s ``methods[]`` table."""
    with open(os.path.join(PACKAGE, "_ckernel.c")) as f:
        table = re.search(r"^static PyMethodDef methods\[\] = \{$(.*?)^\};$", f.read(), re.M | re.S).group(1)
    return re.findall(r'^    \{"(\w+)", ', table, re.M)


def kernel_reads(top=PACKAGE):
    """Each attribute that a module under ``top`` reads on a name ``_kernel`` or ``kernel``."""
    return {
        node.attr
        for _, tree in package_trees(top)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("_kernel", "kernel")
    }


def test_the_kernel_exports_exactly_what_the_package_calls():
    exports = kernel_exports()
    assert len(exports) == len(set(exports)) > 0
    assert sorted(exports) == sorted(kernel_reads())


def test_the_grid_holds_its_three_integers_only():
    # Every RunRecord keeps the grid its step ran on alive, so the grid holds
    # nothing it can derive: a grid that also cached per-grid constants raised
    # the reference sweep's peak RSS.  Those constants live on OptimizerState.
    assert QuantizerState.__slots__ == ("den", "base", "step")
    assert not hasattr(QuantizerState.of(0, 1), "__dict__")


def test_a_record_holds_only_what_its_step_measured():
    # Every run keeps every RunRecord, so a derived field (a step number, a
    # price, the estimate) costs every step of every run: step k's record is
    # history[k - 1], the runner prices the counts, and x_value builds the
    # estimate when read.
    assert RunRecord._fields == ("level", "error", "q", "zoom_event", "consensus_rounds", "alphabet_size")


def test_a_consensus_call_returns_its_counts_and_its_pieces():
    # A call hands back numbers: the optimizer reads rounds and
    # alphabet_size.  The pieces themselves ride along unread by the
    # product, as the kernel's bytes or the pure path's set, for the
    # benchmark's measured_alphabet and the tests.
    assert ConsensusStats._fields == ("n", "rounds", "alphabet_size", "pieces")
