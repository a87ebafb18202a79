import ast
import importlib
import re
import sys
from collections import Counter
from collections.abc import MutableMapping, MutableSequence, MutableSet
from pathlib import Path

import prodvc
from prodvc import labeling


def test_runtime_imports_only_stdlib():
    src = Path(prodvc.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "prodvc" or top in sys.stdlib_module_names, (path.name, name)


def test_runtime_holds_no_assert_statement():
    # python -O strips assert statements, so a certificate check written as
    # one would stop checking; every check in the package raises instead
    src = Path(prodvc.__file__).parent
    found = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


# Public top-level functions and classes, and public methods and properties
# of top-level classes (as "Class.member"), that no module of the package
# uses, so only tests (or the benchmark) call them, each with the reason it
# stays. A new one fails `test_every_helper_only_tests_call_is_listed` until
# it is listed here, or used, or removed.
ONLY_TESTS_CALL = {
    "arboricity_bruteforce": "named oracle",
    "densest_subgraph_bruteforce": "named oracle",
    "is_chordal_bruteforce": "named oracle",
    "is_dismantlable_bruteforce": "named oracle",
    "vcd_set_system": "named oracle",
    "shatters_subproduct": "named oracle",
    "to_edgelist": "file format: writes what from_edgelist reads",
    "check_hypercube_bound": "acceptance criterion (Thm1); no verify suite runs it",
    "connected_partitions": "read by the benchmark",
}


def _named(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_helper_only_tests_call_is_listed():
    src = Path(prodvc.__file__).parent
    defined, used = set(), set()
    members = []  # (class name, method or property definition)
    every_name = Counter()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are not uses
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        every_name.update(_named(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.add(node.name)
                # a definition that names itself (recursion) does not use itself
                used.update(name for name in _named(node) if name != node.name)
            else:
                used.update(_named(node))
            if isinstance(node, ast.ClassDef):
                members += [(node.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    unused = defined - used
    # a member is matched by name: used if some module names it outside its
    # own definition
    unused.update(f"{cls}.{item.name}" for cls, item in members
                  if every_name[item.name] == Counter(_named(item))[item.name])
    assert unused - ONLY_TESTS_CALL.keys() == set(), "no module uses these: use, delete or list"
    assert ONLY_TESTS_CALL.keys() - unused == set(), "listed, but used or gone: unlist"


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_constants(*names):
    """Top-level constants of bench/tracing.py, read without importing it."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    found = {target.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name) and target.id in names}
    return [found[name] for name in names]


def test_every_prodvc_name_the_benchmark_reaches_resolves():
    # the benchmark imports each layer of LAYERS and reaches into it by name:
    # the traced FUNCTIONS, two traced methods, the caches it clears and
    # reads, and each mods.<layer>.<name> of its workloads
    layers, functions = _bench_constants("LAYERS", "FUNCTIONS")
    mods = {layer: importlib.import_module(f"prodvc.{layer}") for layer in layers}
    reached = {name for name, _ in functions}
    for source in ("workloads.py", "make_reference.py", "child.py"):
        text = (BENCH / source).read_text(encoding="utf-8")
        reached.update(".".join(pair) for pattern in (r"\bmods\.(\w+)\.(\w+)",
                                                       r"\bmods\[\"(\w+)\"\]\.(\w+)")
                       for pair in re.findall(pattern, text))
    assert len(reached) > len(functions)
    # two traced names are methods, which the tracer patches on their class
    methods = {"flow.max_flow": ("MaxFlow", "max_flow"),
               "products.ProductSubgraph": ("ProductSubgraph", "__init__")}
    for name, (cls, attr) in methods.items():
        assert callable(vars(getattr(mods[name.split(".")[0]], cls))[attr]), name
    missing = []
    for name in sorted(reached - methods.keys()):
        layer, attr = name.split(".")
        if not callable(getattr(mods.get(layer), attr, None)):
            missing.append(name)
    assert missing == [], "the benchmark reaches these names"
    for cache in (mods["vc"].connected_partitions, mods["vc"]._partition_density,
                  mods["vc"]._scan):
        assert callable(cache.cache_info) and callable(cache.cache_clear)


def test_what_the_benchmark_tracer_reads_of_each_result():
    # the hooks in bench/tracing.py read: result[1] of the vc minor searches
    # as the exact flag, .verdict of run_suite's list and of fuzz_records'
    # result[0], .n and .bits_per_label of encode's scheme, len(MaxFlow.to)
    # and len(ProductSubgraph.vertices)
    from prodvc import flow, harness, labeling, products, vc
    from prodvc.graph import cycle_graph, path_graph
    verdicts = {"holds", "violated", "inconclusive"}
    k2k2 = products.ProductSpace([path_graph(2)] * 2).materialize()
    assert len(k2k2.vertices) == 4
    for search in (vc.vcd_minor, vc.vcdens_minor):
        assert search(k2k2)[1] is True and search(k2k2, budget=0)[1] is False
    records = harness.run_suite("thm4", trials=2, seed=0)
    assert type(records) is list and records and {r.verdict for r in records} <= verdicts
    fuzzed = harness.fuzz_records(k2k2.space, trials=5)
    assert type(fuzzed) is tuple and {r.verdict for r in fuzzed[0]} <= verdicts
    scheme = labeling.encode(cycle_graph(5))
    assert (scheme.n, scheme.bits_per_label) == (5, 9)
    net = flow.MaxFlow(3)
    net.add_edge(0, 1, 1)
    net.add_edge(1, 2, 1)
    assert len(net.to) == 4 and net.max_flow(0, 2) == 1


def _is_cache_decorator(node) -> bool:
    """True for `lru_cache`, `cache`, `lru_cache(...)` and their
    `functools.` spellings."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def test_every_module_cache_is_bounded_and_found_by_its_module():
    # the benchmark clears, before every job, each module-level object with
    # `cache_clear` whose __module__ is the module it sits in; a cache that
    # escaped that test would carry results from one job to the next, and
    # an unbounded one would grow for the life of the process
    src = Path(prodvc.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        mod = importlib.import_module(f"prodvc.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorated = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                     and any(_is_cache_decorator(d) for d in node.decorator_list)}
        cleared = {attr for attr, obj in vars(mod).items() if hasattr(obj, "cache_clear")
                   and getattr(obj, "__module__", None) == mod.__name__}
        assert cleared == decorated, path.name
        for name in decorated:
            cache = getattr(mod, name)
            assert cache.cache_parameters()["maxsize"] is not None, f"{path.name}: {name}"
        found |= {f"{path.stem}.{name}" for name in decorated}
    assert {"vc._scan", "vc.connected_partitions", "vc._stream_record"} <= found


def test_labeling_keeps_no_mutable_state_at_module_level():
    # a label keeps its own split; a memo at module level (a dict of splits)
    # grows with every label set a process decodes, as do mutable defaults
    # and class attributes
    held = {name: obj for name, obj in vars(labeling).items() if not name.startswith("__")}
    for name, obj in list(held.items()):
        if isinstance(obj, type) and obj.__module__ == labeling.__name__:
            held.update((f"{name}.{attr}", value) for attr, value in vars(obj).items()
                        if not attr.startswith("__"))
        if callable(obj) and getattr(obj, "__module__", None) == labeling.__name__:
            defaults = (getattr(obj, "__defaults__", None) or ()) + tuple(
                (getattr(obj, "__kwdefaults__", None) or {}).values())
            held.update((f"{name} default {i}", value) for i, value in enumerate(defaults))
    mutable = (MutableMapping, MutableSequence, MutableSet)
    assert [name for name, obj in held.items() if isinstance(obj, mutable)] == []
