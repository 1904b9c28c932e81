"""Benchmark workloads: the seeded config documents and the operations each
workload runs, with the verdict every operation must reproduce.

The program only ever sees config documents, which run.py writes into
the round's working directory from `configs(name, seed)`.  Seed
`DEFAULT_SEED` reproduces the committed `configs/figure2d.json` and
`configs/dtn_sweep.json` exactly; any other seed perturbs schedule values
inside the families' constraints and the sweep's radius range inside the
special-function envelope (nu <= 200, t in [1e-3, 1e3]).  Box, layer and
check counts do not depend on the seed, so neither does the work size.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 0

WORKLOADS = ("figure-pipeline", "bulk-certify", "dtn-sweep", "oracle-audit")

# Copies of configs/figure2d.json and configs/dtn_sweep.json at the commit
# that defined this benchmark; the inputs must not move when those example
# files change.
FIGURE = {
    "dimension": 2,
    "schedule": {
        "wavenumbers": {"family": "log-growth", "c": 2.0},
        "targets": {"family": "power", "amplitude": 1.0e-4, "exponent": 0.25},
        "paddings": {"family": "shifted-power", "amplitude": 2.0,
                     "shift": 6.0, "exponent": 1.2},
    },
    "layout": "layered",
    "layers": 30,
    "outputs": {
        "json": "out/geometry.json",
        "csv": "out/certificates.csv",
        "svg": "out/figure.svg",
        "report": "out/report.txt",
    },
}
SWEEP = {
    "sweep": {
        "nValues": [2, 3, 4, 5],
        "mMax": 100,
        "rhoPoints": 2000,
        "rhoMin": 0.05,
        "rhoMax": 200.0,
    },
}

# (figure layers, n=4 layers, bulk layers, sweep radii, flood-fill layers)
FULL_SIZES = (60, 6, 256, 2000, 5)
SMOKE_SIZES = (3, 3, 3, 20, 3)

# Boxes in the first L levels: level i holds floor(i ln(i+e))^(n-1) boxes.
_BOXES = {(2, 3): 9, (2, 5): 26, (2, 60): 6717, (2, 256): 166590,
          (4, 3): 153, (4, 6): 3224}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation or one oracle call.

    `stdout` is a regular expression the captured standard output must
    match in full, at every seed; `report` lists patterns that must each
    match a line of the report artifact.  At the default seed the exact
    standard output and every artifact's SHA-256 must also equal the
    recorded ones.
    """

    name: str
    kind: str  # "cli", "flood-fill" or "wronskian-grid"
    argv: Tuple[str, ...] = ()
    layers: int = 0
    stdout: str = ""
    artifacts: Tuple[str, ...] = ()
    report: Tuple[str, ...] = ()


def _figure_doc(seed: int) -> dict:
    doc = copy.deepcopy(FIGURE)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        sched = doc["schedule"]
        sched["targets"]["amplitude"] = 1.0e-4 * rng.uniform(0.9, 1.1)
        sched["paddings"]["amplitude"] = 2.0 * rng.uniform(0.95, 1.05)
        sched["paddings"]["shift"] = 6.0 + rng.uniform(-0.25, 0.25)
    return doc


def _sweep_doc(seed: int, radii: int) -> dict:
    doc = copy.deepcopy(SWEEP)
    doc["sweep"]["rhoPoints"] = radii
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        doc["sweep"]["rhoMin"] = 0.05 * rng.uniform(0.9, 1.1)
        doc["sweep"]["rhoMax"] = 200.0 * rng.uniform(0.95, 1.05)
    return doc


def configs(name: str, seed: int, smoke: bool = False) -> Dict[str, dict]:
    """Config documents of one round, by file name."""
    radii = (SMOKE_SIZES if smoke else FULL_SIZES)[3]
    if name == "dtn-sweep":
        return {"sweep.json": _sweep_doc(seed, radii)}
    return {"figure.json": _figure_doc(seed)}


def _report_lines(boxes: int, dimension: int) -> Tuple[str, ...]:
    return (
        r"^growth floor \(c=2, j <= \d+\): pass$",
        rf"^geometry: layered, {boxes} boxes, dimension {dimension}$",
        r"^  disjointness: pass$",
        r"^  connectivity: pass \(4/4 facts\)$",
        rf"^certification: {boxes} boxes, min margin \S+ at j=\d+: pass$",
        r"^overall: pass$",
    )


def _geometry_ops(tag: str, layers: int, dimension: int,
                  commands: Tuple[str, ...]) -> List[Op]:
    boxes = _BOXES[(dimension, layers)]
    argv = ["--config", "figure.json", "--layers", str(layers), "--out", tag]
    if dimension != 2:
        argv[2:2] = ["--dimension", str(dimension)]
    done = {
        "build": ("geometry.json",
                  rf"wrote {tag}/geometry\.json \({boxes} boxes, "
                  r"disjointness and connectivity certified\)\n"),
        "certify": ("certificates.csv",
                    rf"wrote {tag}/certificates\.csv \({boxes} certificates, "
                    r"min margin \S+ at j=\d+\)\n"),
        "plot": ("figure.svg",
                 rf"wrote {tag}/figure\.svg \({boxes} box outlines\)\n"),
        "report": ("report.txt", rf"wrote {tag}/report\.txt\n"),
    }
    ops = []
    for command in commands:
        artifact, stdout = done[command]
        ops.append(Op(
            name=f"{command} {tag}", kind="cli", argv=(command, *argv),
            stdout=stdout, artifacts=(f"{tag}/{artifact}",),
            report=_report_lines(boxes, dimension) if command == "report" else (),
        ))
    return ops


def operations(name: str, smoke: bool = False) -> List[Op]:
    """The operations of one round of workload `name`, in order."""
    fig, fig4, bulk, radii, flood = SMOKE_SIZES if smoke else FULL_SIZES
    if name == "figure-pipeline":
        return (_geometry_ops("n2", fig, 2, ("build", "certify", "plot", "report"))
                + _geometry_ops("n4", fig4, 4, ("build", "report")))
    if name == "bulk-certify":
        return _geometry_ops("bulk", bulk, 2, ("certify", "plot"))
    if name == "dtn-sweep":
        checks = radii * 101 * 12  # orders 0..100, 3 multipliers for each n in 2..5
        return [Op(
            name="verify-dtn", kind="cli", argv=("verify-dtn", "--config", "sweep.json"),
            stdout=(rf"dtn sweep: n in \{{2, 3, 4, 5\}}, m <= 100, {radii} radii, "
                    rf"{checks} checks: 0 interior, 0 boundary, 0 sign, "
                    r"0 wronskian violations: pass\n"),
        )]
    if name == "oracle-audit":
        if smoke:
            selftest = Op(name="wronskian-grid", kind="wronskian-grid",
                          stdout=r"wronskian subset: 110 points, 0 failures\n")
        else:
            selftest = Op(
                name="specfun-selftest", kind="cli", argv=("specfun-selftest",),
                stdout=(r"special-function selftest: 80400 grid points, 0 failures, "
                        r"worst wronskian residual \S+, worst half-integer error \S+: "
                        r"pass\n"),
            )
        boxes = _BOXES[(2, flood)]
        return [selftest, Op(
            name="flood-fill", kind="flood-fill", layers=flood,
            stdout=rf"flood-fill oracle: {boxes} boxes at resolution \S+: connected\n",
        )]
    raise ValueError(f"unknown workload {name!r}")
