"""The names the benchmark harness reaches into the package by.

`bench/tracer.py` wraps each name in its TARGETS in every module it lists,
and `bench/child.py` calls a few public functions directly; a rename would
otherwise break only traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import trapcert.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_in_every_module():
    targets = load_tracer().TARGETS
    assert targets
    for name, (modules, attr, _) in targets.items():
        for module in modules:
            assert callable(getattr(importlib.import_module(module), attr, None)), (
                f"{name}: {module}.{attr} is missing")


def test_child_entry_points_exist():
    for module, attr in (("trapcert.cli", "load_config"),
                         ("trapcert.geometry", "suggested_resolution"),
                         ("trapcert.specfun", "validation_grid")):
        assert callable(getattr(importlib.import_module(module), attr))
    assert callable(trapcert.cli.RunConfig.schedule)
