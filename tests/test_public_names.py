"""Every name a module exports through ``__all__`` resolves, and every name
the benchmark's tracer wraps is bound."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench's tracer wraps names in six modules and needs each one bound."""
    from agreeloss import cli, estimators, hydro, losses, simulate, vector_stats

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"cli": cli, "hydro": hydro, "estimators": estimators, "simulate": simulate,
               "losses": losses, "vector_stats": vector_stats}
    render, l_nrp = cli.render, cli.l_nrp
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
    assert cli.render is render and cli.l_nrp is l_nrp
