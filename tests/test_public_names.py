"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import agreeloss

MODULES = ["estimators", "hydro", "losses", "simulate", "vector_stats"]


def test_the_listed_modules_are_those_with_all():
    with_all = [
        info.name
        for info in pkgutil.iter_modules(agreeloss.__path__)
        if hasattr(importlib.import_module(f"agreeloss.{info.name}"), "__all__")
    ]
    assert sorted(with_all) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_name(module):
    namespace = {}
    exec(f"from agreeloss.{module} import *", namespace)
    exported = importlib.import_module(f"agreeloss.{module}").__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if name not in namespace] == []
