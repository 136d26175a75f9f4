"""The benchmark's span tracer (bench/spans.py) looks functions up by name.

A refactor that renames or re-signs a traced function would otherwise break
only the traced benchmark pass, so the names are checked here.
"""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "modpoly"


def _layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans").LAYERS


def test_every_traced_name_resolves(monkeypatch):
    for layer, modname, attr in _layers(monkeypatch):
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), (layer, modname, attr)
            owner = getattr(owner, part)
        assert callable(owner), (layer, modname, attr)


def test_importing_the_cli_loads_every_traced_module():
    # the tracer wraps the LAYERS functions it finds in sys.modules right
    # after `import modpoly.cli`; a module loaded later would go untraced
    script = ("import sys\n"
              "sys.path.insert(0, %r)\n"
              "from spans import LAYERS\n"
              "import modpoly.cli\n"
              "missing = sorted({mod for _, mod, _ in LAYERS} - set(sys.modules))\n"
              "assert not missing, missing\n" % str(BENCH))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_intersection_hook_parameters(monkeypatch):
    _layers(monkeypatch)
    from modpoly.engine import intersection_order

    params = inspect.signature(intersection_order).parameters
    assert {"a", "b", "enum_bound"} <= set(params)


def test_chain_counts_read_a_lifted_chain(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    chain_counts = importlib.import_module("spans").chain_counts
    from modpoly.diagram import parse_diagram
    from modpoly.engine import StabChain
    from modpoly.matrep import ModularRep

    mats = ModularRep(parse_diagram("1 - 2 - 1"), 4).mats
    lifted = StabChain(mats, 4, order_only=True)
    assert lifted.lift == 2
    schreier, levels, gens, max_orbit = chain_counts(lifted)
    assert levels == len(lifted.levels) and gens == len(lifted.gens)
    assert 0 < max_orbit <= 2 ** 3 and schreier > 0


def test_intersection_hook_reads_listed_sides(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("spans").Tracer()
    from modpoly.diagram import parse_diagram
    from modpoly.engine import Listed, StabChain, intersection_order
    from modpoly.matrep import ModularRep

    rep = ModularRep(parse_diagram("1 - 1 - 1 - 1"), 3)
    a, b = Listed(rep.select([0, 1, 2]), 3), Listed(rep.select([1, 2, 3]), 3)
    sub = Listed(rep.select([1, 2]), 3)
    result = intersection_order(a, b, sub)
    assert result == 6
    tracer._after_intersection(intersection_order, (a, b, sub), {}, result)
    assert tracer.counts["coset_walks"] == tracer.counts["coset_orbit_sum"] == 0
    # a listed side is sifted whatever the bound, while the hook counts a
    # walk from the orders alone
    chain = StabChain(rep.select([1, 2, 3]), 3)
    result = intersection_order(a, chain, sub, enum_bound=1)
    assert result == 6
    tracer._after_intersection(intersection_order, (a, chain, sub),
                               {"enum_bound": 1}, result)
    assert tracer.counts["coset_walks"] == 1
    assert tracer.counts["coset_orbit_sum"] == 24 // 6


def test_only_the_verifier_builds_chains():
    # chains and listed groups are built in one place, so the segment cache
    # is the only source of orders and memberships and spans see every
    # chain build; the two other chain constructions are a split chain's
    # kernel chain, built inside its parent's span, and the chain a coset
    # walk puts a listed shared segment in, built inside the intersection's
    # span; the verifier's other listing is the closure of generators that
    # are not involutions, which have no segment groups
    def builds(name):
        counts = {path.name: path.read_text(encoding="utf-8").count(name + "(")
                  for path in SRC.glob("*.py")}
        return {path: k for path, k in counts.items() if k}

    assert builds("StabChain") == {"polytopality.py": 1, "engine.py": 2}
    assert builds("Listed") == {"polytopality.py": 2}


def test_no_assert_statements_in_the_package():
    # python -O drops assert statements, so no check may rest on one
    found = [(path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_private_module_name_is_read():
    # a module-level _function, _Class or _CONSTANT that no other code in
    # the package reads is dead; a definition's reads of itself do not count
    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = {top.name}
            elif isinstance(top, ast.Assign):
                names = {t.id for t in top.targets if isinstance(t, ast.Name)}
            defined.update((name, path.name) for name in names
                           if name.startswith("_") and not name.startswith("__"))
            read.update(set(reads(top)) - names)
    assert {name: mod for name, mod in defined.items() if name not in read} == {}


def test_every_imported_name_is_read():
    # an import that its module never reads is dead, except the CLI's
    # intended re-export of the entry's main
    reexports = {("cli.py", "main")}
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {(path.name, name) for name in imported - read}
    assert unread == reexports
