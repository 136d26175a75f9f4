"""The benchmark's span tracer (bench/spans.py) looks functions up by name.

A refactor that renames or re-signs a traced function would otherwise break
only the traced benchmark pass, so the names are checked here.
"""

import ast
import importlib
import inspect
import pathlib

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
    # chain build; the one other chain construction is a split chain's
    # kernel chain, built inside its parent's span
    def builds(name):
        counts = {path.name: path.read_text(encoding="utf-8").count(name + "(")
                  for path in SRC.glob("*.py")}
        return {path: k for path, k in counts.items() if k}

    assert builds("StabChain") == {"polytopality.py": 1, "engine.py": 1}
    assert builds("Listed") == {"polytopality.py": 1}


def test_no_assert_statements_in_the_package():
    # python -O drops assert statements, so no check may rest on one
    found = [(path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
