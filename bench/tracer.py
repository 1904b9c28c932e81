"""Outside-in spans around the calls into each trapcert module.

The tracer replaces public names in the namespaces where the program looks
them up (for example `trapcert.cli.disjointness_certificate`, which
`cli.py` imported from `geometry`), so no file of the program changes.
Each span is kept in memory as [name, start, end, parent, op] and written
out once the round ends; `op` is the index of the operation that caused
it, and every span of a round shares the round's run id.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


def _artifact_size(args, kwargs, result) -> int:
    return os.path.getsize(kwargs.get("path", args[-1]))


# span name -> (modules whose global the program calls through, attribute,
# work counter fed from the call, or None)
TARGETS = {
    "cli.run": (("trapcert.cli",), "run", None),
    "cli.load_config": (("trapcert.cli",), "load_config", None),
    "geometry.build_layered": (("trapcert.cli", "trapcert.geometry"), "build_layered",
                               ("geometry.boxes", lambda a, k, r: len(r[0]))),
    "sequences.derived_params": (("trapcert.geometry",), "derived_params", None),
    "sequences.growth_floor_check": (("trapcert.cli",), "growth_floor_check", None),
    "geometry.disjointness_certificate": (
        ("trapcert.cli",), "disjointness_certificate",
        ("geometry.cross_pairs", lambda a, k, r: len(r.cross))),
    "geometry.connectivity_certificate": (("trapcert.cli",), "connectivity_certificate",
                                          None),
    "certify.certify_geometry": (("trapcert.cli",), "certify_geometry",
                                 ("certify.records", lambda a, k, r: len(r))),
    "cli.emit_geometry_json": (("trapcert.cli",), "emit_geometry_json",
                               ("cli.artifact_bytes", _artifact_size)),
    "cli.emit_certificates_csv": (("trapcert.cli",), "emit_certificates_csv",
                                  ("cli.artifact_bytes", _artifact_size)),
    "cli.emit_svg": (("trapcert.cli",), "emit_svg",
                     ("cli.artifact_bytes", _artifact_size)),
    "cli.render_report": (("trapcert.cli",), "render_report",
                          ("cli.artifact_bytes", lambda a, k, r: len(r.encode("utf-8")))),
    "dtnverify.verify_sweep": (("trapcert.cli",), "verify_sweep",
                               ("dtnverify.checks", lambda a, k, r: r.checked_modes)),
    "specfun.bessel_ladder": (("trapcert.dtnverify",), "bessel_ladder",
                              ("specfun.ladder_orders", lambda a, k, r: len(r.jm))),
    "specfun.wronskian_residual": (("trapcert.specfun",), "wronskian_residual", None),
    "specfun.spherical_hankel": (("trapcert.specfun",), "spherical_hankel", None),
    "specfun.spherical_hankel_closed": (("trapcert.specfun",), "spherical_hankel_closed",
                                        None),
    "geometry.flood_fill_oracle": (("trapcert.geometry",), "flood_fill_oracle", None),
}

# spans whose wrapped callees are themselves traced, so self time differs
SELF_TIMED = ("cli.run", "geometry.build_layered", "dtnverify.verify_sweep")
COUNTERS = ("geometry.boxes", "geometry.cross_pairs", "certify.records",
            "cli.artifact_bytes", "dtnverify.checks", "specfun.ladder_orders")


class Tracer:
    """Span recorder for one round; `op` is set by the caller per operation."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.op = -1
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable, counter) -> Callable:
        spans, open_spans, clock, counts = self.spans, self._open, time.perf_counter, self.counts

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1, self.op]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                span[2] = clock()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target name with its traced wrapper."""
        for name, (modules, attr, counter) in TARGETS.items():
            first = importlib.import_module(modules[0])
            traced = self.wrap(name, getattr(first, attr), counter)
            for module in modules:
                setattr(importlib.import_module(module), attr, traced)

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics: `.calls`, `.s` and, for SELF_TIMED spans,
        `.self_s` (duration minus the direct child spans), plus counters."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, float] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = 0.0
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            if name in SELF_TIMED:
                out[f"{name}.self_s"] += end - start - child_s[idx]
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "fields": SPAN_FIELDS,
                       "spans": self.spans}, handle, separators=(",", ":"))
