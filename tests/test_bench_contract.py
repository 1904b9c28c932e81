"""The names the benchmark harness reaches into the package by.

`bench/tracer.py` wraps each name in its TARGETS in every module it lists,
and `bench/child.py` calls a few public functions directly; a rename would
otherwise break only traced benchmark runs.  The tracer's work counters read
the return values of their targets, so each is applied to a real one.
"""

import importlib
import importlib.util
from pathlib import Path

import trapcert.cli
from trapcert.certify import certify_geometry
from trapcert.cli import StageOutputs
from trapcert.geometry import build_layered
from trapcert.sequences import demo_schedule

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


def test_tracer_counters_read_real_return_values(tmp_path):
    # each work counter applied to what its target returns at smoke size, so
    # that a change of return type breaks this test and not only `--trace 1`
    sched = demo_schedule()
    boxes, summary = build_layered(sched, 3)
    records = certify_geometry(boxes)
    paths = {name: str(tmp_path / name) for name in ("g.json", "c.csv", "f.svg")}
    # span name -> (arguments as the program passes them, expected count, or
    # None for the size of the file the call writes)
    cases = {
        "geometry.build_layered": ((sched, 3), 9),
        "geometry.disjointness_certificate": ((boxes, sched), 2),  # adjacent level pairs
        "certify.certify_geometry": ((boxes,), 9),
        "cli.emit_geometry_json": ((boxes, summary, paths["g.json"]), None),
        "cli.emit_certificates_csv": ((records, paths["c.csv"]), None),
        "cli.emit_svg": ((boxes, paths["f.svg"]), None),
        "cli.render_report": ((StageOutputs(),), len("certificate report\n"
                                                     "==================\n\n"
                                                     "no stages executed\n")),
        "dtnverify.verify_sweep": (((2,), 2, [1.0, 2.0]), 18),  # 2 radii x 3 modes x 3
        # a one-row batch: this counter counts calls, not orders (ROADMAP item 1)
        "specfun.bessel_ladder": ((0.5, 2.0, 4), 1),
    }
    targets = load_tracer().TARGETS
    counted = {name for name, (_, _, counter) in targets.items() if counter is not None}
    assert counted == set(cases)
    for name, (args, expected) in cases.items():
        modules, attr, (_, count) = targets[name]
        result = getattr(importlib.import_module(modules[0]), attr)(*args)
        if expected is None:
            expected = len(Path(args[-1]).read_bytes())
        assert count(args, {}, result) == expected, name
