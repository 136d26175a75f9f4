"""The benchmark's span tracer (bench/spans.py) looks functions up by name.

A refactor that renames or re-signs a traced function would otherwise break
only the traced benchmark pass, so the names are checked here.
"""

import importlib
import inspect
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


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
