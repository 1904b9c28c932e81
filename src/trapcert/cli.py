"""Config parsing, subcommand dispatch, and deterministic artifact emitters.

Everything a run produces (geometry JSON, certification CSV, figure SVG,
text report) is a pure function of the configuration document, so re-running
with the same config reproduces every artifact byte for byte.  Files are
written to a temporary sibling and renamed into place, which leaves no
partial artifact behind on failure.  The JSON, CSV and SVG emitters stream
their text into that sibling in blocks of rows, and the numbers in a block
come from the exact digit kernel in `trapcert._digits`, which writes the
bytes of `%r` (as json.dumps does), `%.17g`, `%.6f` and `%d`.

Exit codes follow one contract for every subcommand: 0 on success, 1 when a
certificate or sign check fails (the run itself worked, the claim did not
hold), 2 on configuration, domain, usage, or I/O errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from collections import Counter
from dataclasses import astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from trapcert import _digits
from trapcert.certify import Certificates, CertifyError, certify_geometry
from trapcert.dtnverify import SweepParams, SweepSummary, verify_sweep
from trapcert.geometry import (
    Boxes,
    ConnectivityReport,
    DisjointnessReport,
    GeometryError,
    GeometrySummary,
    build_layered,
    connectivity_certificate,
    disjointness_certificate,
    layer_plans,
)
from trapcert.sequences import (
    APower,
    ATable,
    DShiftedPower,
    DTable,
    GrowthFloorReport,
    KLogGrowth,
    KTable,
    Schedule,
    ScheduleError,
    growth_floor_check,
)
from trapcert.specfun import (
    BesselDomainError,
    BesselRangeError,
    ConvergenceError,
    selftest_grid,
)


class ConfigError(ValueError):
    """The configuration document or command line is invalid."""


# -------------------------------------------------------------------
# configuration document
# -------------------------------------------------------------------

@dataclass(frozen=True)
class OutputPaths:
    """Requested artifact paths; an emitter runs only if its path is set."""

    json: Optional[str] = None
    csv: Optional[str] = None
    svg: Optional[str] = None
    report: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration.

    `dimension`, the schedule families, `layout`, and `layers` (the number
    of levels on either layout; a stacked level is one box) are only
    required by the subcommands that build geometry; a sweep-only config can
    omit them.  `sweep` is None when the config has no "sweep" key, which
    tells the report subcommand to skip that stage.
    """

    dimension: Optional[int] = None
    k_family: Optional[object] = None
    a_family: Optional[object] = None
    d_family: Optional[object] = None
    layout: Optional[str] = None
    layers: Optional[int] = None
    outputs: OutputPaths = OutputPaths()
    sweep: Optional[SweepParams] = None

    def schedule(self) -> Schedule:
        if self.dimension is None:
            raise ConfigError("config needs 'dimension' for geometry commands")
        if self.k_family is None:
            raise ConfigError("config needs 'schedule' for geometry commands")
        return Schedule(
            n=self.dimension,
            k_family=self.k_family,
            a_family=self.a_family,
            d_family=self.d_family,
        )

    def geometry(self) -> Tuple[Boxes, GeometrySummary]:
        if self.layout is None or self.layers is None:
            raise ConfigError("config needs 'layout' and 'layers' for geometry commands")
        return build_layered(self.schedule(), self.layers, self.layout)


def _as_mapping(value, where: str) -> Mapping:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _reject_unknown(doc: Mapping, allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


# A reader takes a JSON value and the name it goes by in messages (its key,
# `object.key`, or the flag that overrides the key) and returns the setting.
def _as_int(value, where: str, minimum: int, maximum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    if value > maximum:
        raise ConfigError(f"{where} must be <= {maximum}")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where} overflows binary64") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _as_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a nonempty string, got {value!r}")
    return value


def _as_choice(value, where: str, choices: Iterable[str]) -> str:
    name = _as_str(value, where)
    if name not in choices:
        names = " or ".join(f"'{choice}'" for choice in choices)
        raise ConfigError(f"{where} must be {names}, got {name!r}")
    return name


def _as_array(value, where: str, item=_as_float) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty array")
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def _read_object(value, where: str, table: Mapping[str, Tuple[str, Callable]]) -> dict:
    """The fields that the JSON object `value` sets, through `table`: key ->
    (field, reader of (value, name)).  Keys outside the table are refused;
    the others are read in the table's order, named `where.key` (top-level
    keys bare)."""
    doc = _as_mapping(value, where)
    _reject_unknown(doc, table, where)
    prefix = "" if where == "config" else f"{where}."
    return {field: read(doc[key], prefix + key)
            for key, (field, read) in table.items() if key in doc}


# schedule key -> {family name: its class, whose fields are the family's keys}
_FAMILIES = {
    "wavenumbers": {"log-growth": KLogGrowth, "table": KTable},
    "targets": {"power": APower, "table": ATable},
    "paddings": {"shifted-power": DShiftedPower, "table": DTable},
}


def _read_family(value, where: str, families: Mapping[str, type]):
    doc = _as_mapping(value, where)
    fam = _as_choice(doc.get("family"), f"{where}.family", families)
    keys = [f.name for f in fields(families[fam])]
    _reject_unknown(doc, ["family", *keys], where)
    # a table's one key is its array of "values", any other key a number
    return families[fam](*((_as_array if key == "values" else _as_float)(
        doc.get(key), f"{where}.{key}") for key in keys))


def _read_schedule(value, where: str) -> dict:
    """All three families, as the RunConfig fields k_family, a_family, d_family."""
    doc = _as_mapping(value, where)
    _reject_unknown(doc, _FAMILIES, where)
    for key in _FAMILIES:
        if key not in doc:
            raise ConfigError(f"schedule needs '{key}'")
    return {field: _read_family(doc[key], f"{where}.{key}", families) for field, (key, families)
            in zip(("k_family", "a_family", "d_family"), _FAMILIES.items())}


def _read_outputs(value, where: str) -> OutputPaths:
    keys = {f.name: (f.name, _as_str) for f in fields(OutputPaths)}
    return OutputPaths(**_read_object(value, where, keys))


_sweep_size = partial(_as_int, maximum=1_000_000)


def _read_n_values(value, where: str) -> Tuple[int, ...]:
    n_values = _as_array(value, where, partial(_sweep_size, minimum=2))
    repeated = sorted(n for n, count in Counter(n_values).items() if count > 1)
    if repeated:
        raise ConfigError(f"{where} repeats dimension(s) {', '.join(map(str, repeated))}")
    return n_values


_SWEEP_KEYS = {
    "nValues": ("n_values", _read_n_values),
    "mMax": ("m_max", partial(_sweep_size, minimum=0)),
    "rhoPoints": ("rho_points", partial(_sweep_size, minimum=2)),
    "rhoMin": ("rho_min", _as_float),
    "rhoMax": ("rho_max", _as_float),
}


def _read_sweep(value, where: str) -> SweepParams:
    """`SweepParams()` with the fields that the object sets.  Its size bound
    only keeps the sizes convertible; the sweep itself refuses orders past
    the special-function envelope."""
    params = SweepParams(**_read_object(value, where, _SWEEP_KEYS))
    if not (0.0 < params.rho_min < params.rho_max):
        raise ConfigError("sweep needs 0 < rhoMin < rhoMax")
    return params


# Past the upper bounds of the integer settings a box index no longer
# converts to binary64 (at 32 dimensions and 10,000 layers the box indices
# already reach about 1e154).
_CONFIG_KEYS = {
    "dimension": ("dimension", partial(_as_int, minimum=2, maximum=32)),
    "schedule": ("schedule", _read_schedule),
    "layout": ("layout", partial(_as_choice, choices=("layered", "stacked"))),
    "layers": ("layers", partial(_as_int, minimum=1, maximum=10_000)),
    "outputs": ("outputs", _read_outputs),
    "sweep": ("sweep", _read_sweep),
}

# flag -> the config key whose reader takes its value, under the flag's name
_OVERRIDES = {"--layers": "layers", "--dimension": "dimension"}


def config_from_mapping(doc: Mapping) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, rejecting unknown keys
    at every level."""
    values = _read_object(doc, "config", _CONFIG_KEYS)
    return RunConfig(**values.pop("schedule", {}), **values)


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key given twice (json.loads
    would keep the last value)."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"config repeats the key {key!r} in one object")
        seen.add(key)
    return dict(pairs)


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    # also an over-long integer literal, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_mapping(doc)


# -------------------------------------------------------------------
# deterministic emitters
# -------------------------------------------------------------------

def _write_text_atomic(path: str, chunks: Iterable[Union[str, bytes]]) -> None:
    """Write the concatenated chunks (str as UTF-8) via a temporary sibling
    and rename, so failures (also one raised while the chunks are produced)
    leave either the old file or nothing.  Makes a missing parent directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        # mkstemp makes the file 0600; publish it with the mode open() gives
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
                del chunk  # freed once written, not while the next one is made
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_blocks(boxes: Boxes, summary: GeometrySummary) -> Iterator[bytes]:
    """`json.dumps(document, indent=1)` and a newline, in blocks: the head
    from json.dumps, then the boxes, each number laid out by the digit
    kernel as json.dumps writes it: `%d` for j and layer, repr for a float."""
    head = json.dumps({
        "dimension": summary.dimension, "layout": summary.layout,
        "summary": {"boxCount": summary.box_count,
                    "horizontalExtent": summary.horizontal_extent,
                    "heightInterval": list(summary.height_interval),
                    "volumeInterval": list(summary.volume_interval),
                    "rGammaUpper": summary.r_gamma_upper},
        "boxes": []}, indent=1)[:-len("]\n}")].encode("utf-8")
    floats = (boxes.side, *boxes.lo.T, boxes.gap, boxes.k, boxes.a)
    keys = [b',\n  {\n   "j": ', b',\n   "layer": ', b',\n   "side": ',
            b',\n   "translation": [\n    ', *[b',\n    '] * (len(floats) - 5),
            b'\n   ],\n   "gap": ', b',\n   "wavenumber": ', b',\n   "targetA": ']
    for rows in _blocks(len(boxes)):
        fields = [_digits.d(boxes.j[rows]), _digits.d(boxes.layer[rows])]
        # four float columns per kernel call: more would hold more temporaries at once
        for start in range(0, len(floats), 4):
            fields += list(_digits.r([column[rows] for column in floats[start:start + 4]]))
        parts = [*itertools.chain.from_iterable(zip(keys, fields)), b"\n  }"]
        del fields  # so that `join` frees the canvases once copied
        block = _digits.join(parts)
        # rows open with their separator; the first block drops it
        yield head + memoryview(block)[1:] if rows.start == 0 else block
        del block  # freed once written, not while the next block is made
    yield b"\n ]\n}\n"


def emit_geometry_json(boxes: Boxes, summary: GeometrySummary, path: str) -> None:
    _write_text_atomic(path, _json_blocks(boxes, summary))


# rows per block of the emitters: a block is a few hundred KiB of text,
# and the artifact is streamed block by block
_BLOCK_ROWS = 2048


def _blocks(count: int) -> Iterator[slice]:
    for start in range(0, count, _BLOCK_ROWS):
        yield slice(start, start + _BLOCK_ROWS)


def _svg_blocks(boxes: Boxes) -> Iterator[Union[str, bytes]]:
    """The SVG text in blocks, every number `%.6f` with no sign on a value
    that rounds to zero.  The arrangement is checked here, before the first
    block is asked for."""
    if boxes.lo.shape[1] != 2:
        raise GeometryError(
            f"SVG output is only defined for dimension 2, "
            f"got dimension {boxes.lo.shape[1]}"
        )
    xs_lo, ys_lo = boxes.lo.min(axis=0).tolist()
    # the upper corners' maxima a block at a time: boxes.hi would copy all of them
    xs_hi, ys_hi = np.max([(boxes.lo[rows] + boxes.side[rows, None]).max(axis=0)
                           for rows in _blocks(len(boxes))], axis=0).tolist()
    margin = 0.05 * max(xs_hi - xs_lo, ys_hi - ys_lo)
    # world y points up; SVG y points down
    view = (xs_lo - margin, -ys_hi - margin,
            (xs_hi - xs_lo) + 2.0 * margin, (ys_hi - ys_lo) + 2.0 * margin)
    stroke = max(1.0e-6, 0.02 * boxes.side.min().item())
    *view_text, stroke_text = _digits.join(
        [_digits.f6(np.array([*view, stroke])), b" "]).decode("ascii").split()
    return itertools.chain([
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{" ".join(view_text)}">\n'
        f'<g fill="#e6e6e6" stroke="#000000" stroke-width="{stroke_text}" '
        'stroke-linecap="butt" stroke-linejoin="miter">\n'],
        _path_blocks(boxes), ["</g>\n</svg>\n"])


def _path_blocks(boxes: Boxes) -> Iterator[bytes]:
    for rows in _blocks(len(boxes)):
        (x0, y0), side = boxes.lo[rows].T, boxes.side[rows]
        # the five distinct numbers of a path, each formatted once, in one call
        slot, low, x1, top, left = _digits.f6((
            x0 + side * boxes.gap[rows], -y0, x0 + side, -(y0 + side), x0))
        # start at the slot's inner end, trace bottom-right-top-left back to
        # the corner; the fill closes the subpath, the stroke leaves it open
        parts = [b'<path d="M ', slot, b" ", low, b" L ", x1, b" ", low, b" L ", x1, b" ",
                 top, b" L ", left, b" ", top, b" L ", left, b" ", low, b'"/>\n']
        del slot, low, x1, top, left  # so that `join` frees the canvas once copied
        yield _digits.join(parts)


def emit_svg(boxes: Boxes, path: str) -> None:
    """Vector figure of a planar arrangement: per box, the closed outline
    minus the slot on the bottom edge, grey fill, 5% view margin."""
    _write_text_atomic(path, _svg_blocks(boxes))


_CSV_COLUMNS = ("j", "k", "a", "eps", "infsup_ub", "cprime_lb", "c_lb", "margin")


def _csv_blocks(records: Certificates) -> Iterator[Union[str, bytes]]:
    yield ",".join(_CSV_COLUMNS) + "\n"
    columns = (records.k, records.a, records.eps, records.infsup_ub,
               records.c_prime_lb, records.c_lb, records.margin)
    for rows in _blocks(len(records)):
        # 17 significant digits (round-trip exact) per value, in two kernel
        # calls: more columns per call would hold more temporaries at once
        parts = [_digits.d(records.j[rows])]
        for batch in (columns[:4], columns[4:]):
            for canvas in _digits.g17([column[rows] for column in batch]):
                parts += [b",", canvas]
        parts.append(b"\n")
        del canvas  # so that `join` frees the canvases once copied
        yield _digits.join(parts)


def emit_certificates_csv(records: Certificates, path: str) -> None:
    """One row per box, 17 significant digits (round-trip exact), LF line
    endings."""
    _write_text_atomic(path, _csv_blocks(records))


# -------------------------------------------------------------------
# report
# -------------------------------------------------------------------

@dataclass(frozen=True)
class StageOutputs:
    """Everything the stages of one run produced, for the composed report."""

    schedule_note: Optional[str] = None
    growth: Optional[GrowthFloorReport] = None
    summary: Optional[GeometrySummary] = None
    disjointness: Optional[DisjointnessReport] = None
    connectivity: Optional[ConnectivityReport] = None
    certificates: Optional[Certificates] = None
    certify_error: Optional[str] = None
    sweep: Optional[SweepSummary] = None

    @property
    def empty(self) -> bool:
        return self.summary is None and self.sweep is None

    @property
    def passed(self) -> bool:
        checks = [self.certify_error is None]
        for stage in (self.growth, self.disjointness, self.connectivity,
                      self.sweep):
            if stage is not None:
                checks.append(stage.passed)
        return all(checks) and not self.empty


def _family_label(fam) -> str:
    if isinstance(fam, KLogGrowth):
        return f"log-growth(c={fam.c:g})"
    if isinstance(fam, APower):
        return f"power({fam.amplitude:g} * j^{fam.exponent:g})"
    if isinstance(fam, DShiftedPower):
        return f"shifted-power({fam.amplitude:g} * (i+{fam.shift:g})^-{fam.exponent:g})"
    return f"table[{len(fam.values)} values]"


def schedule_label(sched: Schedule) -> str:
    return (f"n={sched.n}; wavenumbers {_family_label(sched.k_family)}; "
            f"targets {_family_label(sched.a_family)}; "
            f"paddings {_family_label(sched.d_family)}")


def _min_margin(records: Certificates) -> str:
    """The smallest certificate margin and the first box that attains it."""
    i = int(np.argmin(records.margin))
    return f"min margin {records.margin[i].item():.6g} at j={records.j[i].item()}"


def _sweep_line(w: SweepSummary) -> str:
    """One-line verdict of a sign-check sweep, as verify-dtn and the report
    print it."""
    return (f"dtn sweep: n in {{{', '.join(str(n) for n in w.n_values)}}}, "
            f"m <= {w.m_max}, {w.rho_count} radii, {w.checked_modes} checks: "
            f"{w.a_violations} interior, {w.b_violations} boundary, "
            f"{w.re_violations} sign, {w.im_violations} wronskian violations: "
            f"{'pass' if w.passed else 'FAIL'}")


def render_report(stages: StageOutputs) -> str:
    """Human-readable composition of everything the run checked."""
    lines = ["certificate report", "=" * len("certificate report"), ""]
    if stages.empty:
        lines.append("no stages executed")
        return "\n".join(lines) + "\n"

    if stages.schedule_note is not None:
        lines.append(f"schedule: {stages.schedule_note}")
    if stages.growth is not None:
        g = stages.growth
        verdict = "pass" if g.passed else f"FAIL at j={g.first_failure}"
        lines.append(f"growth floor (c={g.c:g}, j <= {g.j_max}): {verdict}")

    if stages.summary is not None:
        s = stages.summary
        lines.append(f"geometry: {s.layout}, {s.box_count} boxes, dimension {s.dimension}")
        lines.append(f"  horizontal extent {s.horizontal_extent:.6g}")
        lines.append(f"  accumulation height in [{s.height_interval[0]:.6g}, "
                     f"{s.height_interval[1]:.6g}]")
        lines.append(f"  total volume in [{s.volume_interval[0]:.6g}, "
                     f"{s.volume_interval[1]:.6g}]")
        lines.append(f"  circumradius <= {s.r_gamma_upper:.6g}")
    if stages.disjointness is not None:
        d = stages.disjointness
        verdict = "pass" if d.passed else f"FAIL ({d.failure})"
        lines.append(f"  disjointness: {verdict}")
    if stages.connectivity is not None:
        c = stages.connectivity
        if c.passed:
            lines.append(f"  connectivity: pass ({len(c.facts)}/{len(c.facts)} facts)")
        else:
            for fact in c.facts:
                if not fact.passed:
                    lines.append(f"  connectivity: FAIL ({fact.name}: {fact.detail})")
    if stages.certificates is not None:
        lines.append(f"certification: {len(stages.certificates)} boxes, "
                     f"{_min_margin(stages.certificates)}: pass")
    if stages.certify_error is not None:
        lines.append(f"certification: FAIL ({stages.certify_error})")

    if stages.sweep is not None:
        lines.append(_sweep_line(stages.sweep))

    lines.append("")
    lines.append(f"overall: {'pass' if stages.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------
# subcommands
# -------------------------------------------------------------------

def _effective_outputs(cfg: RunConfig, out_dir: Optional[str]) -> OutputPaths:
    """Config paths, redirected into --out when given (keeping basenames,
    filling defaults for paths the config left unset)."""
    if out_dir is None:
        return cfg.outputs
    defaults = ("geometry.json", "certificates.csv", "figure.svg", "report.txt")
    return OutputPaths(*(str(Path(out_dir) / (Path(path).name if path else default))
                         for path, default in zip(astuple(cfg.outputs), defaults)))


def _require_path(outputs: OutputPaths, kind: str, command: str) -> str:
    path = getattr(outputs, kind)
    if not path:
        raise ConfigError(
            f"'{command}' needs an output path: set outputs.{kind} in the "
            f"config or pass --out DIR"
        )
    return path


def _cmd_plan(cfg: RunConfig, outputs: OutputPaths, out) -> int:
    boxes, _ = cfg.geometry()  # build's construction and checks, before any output
    sched = cfg.schedule()
    print(f"schedule: {schedule_label(sched)}", file=out)
    print(f"{'level':>5} {'boxes':>6} {'first-j':>8} {'height':>12} "
          f"{'side':>10} {'pitch':>10} {'width':>10}", file=out)
    plans = layer_plans(sched, cfg.layers, cfg.layout)
    for i, count, start, height, side, pitch, width in zip(
            plans.i.tolist(), plans.count, plans.start, plans.height.tolist(),
            plans.max_side.tolist(), plans.pitch.tolist(), plans.width.tolist()):
        print(f"{i:>5} {count:>6} {start:>8} {height:>12.6f} {side:>10.6f} "
              f"{pitch:>10.6f} {width:>10.6f}", file=out)
    print(f"total boxes through level {cfg.layers}: {len(boxes)}", file=out)
    return 0


def _geometry_with_certificates(cfg: RunConfig):
    boxes, summary = cfg.geometry()
    sched = cfg.schedule()
    disj = disjointness_certificate(boxes, sched)
    conn = connectivity_certificate(boxes, summary, disj)
    return boxes, summary, disj, conn


def _cmd_build(cfg: RunConfig, outputs: OutputPaths, out) -> int:
    path = _require_path(outputs, "json", "build")
    boxes, summary, disj, conn = _geometry_with_certificates(cfg)
    if not disj.passed:
        print(f"disjointness certificate failed: {disj.failure}", file=sys.stderr)
        return 1
    if not conn.passed:
        failed = [f.name for f in conn.facts if not f.passed]
        print(f"connectivity certificate failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    emit_geometry_json(boxes, summary, path)
    print(f"wrote {path} ({summary.box_count} boxes, "
          f"disjointness and connectivity certified)", file=out)
    return 0


def _cmd_certify(cfg: RunConfig, outputs: OutputPaths, out) -> int:
    path = _require_path(outputs, "csv", "certify")
    boxes, _ = cfg.geometry()
    records = certify_geometry(boxes)
    emit_certificates_csv(records, path)
    print(f"wrote {path} ({len(records)} certificates, {_min_margin(records)})",
          file=out)
    return 0


def _cmd_plot(cfg: RunConfig, outputs: OutputPaths, out) -> int:
    path = _require_path(outputs, "svg", "plot")
    if cfg.dimension not in (None, 2):
        raise ConfigError(
            f"'plot' draws planar figures only, config has dimension {cfg.dimension}"
        )
    boxes, summary = cfg.geometry()
    emit_svg(boxes, path)
    print(f"wrote {path} ({summary.box_count} box outlines)", file=out)
    return 0


def _sweep(params: SweepParams) -> SweepSummary:
    return verify_sweep(n_values=params.n_values, m_max=params.m_max,
                        rho_grid=params.rho_grid())


def _cmd_verify_dtn(cfg: RunConfig, outputs: OutputPaths, out) -> int:
    summary = _sweep(cfg.sweep if cfg.sweep is not None else SweepParams())
    print(_sweep_line(summary), file=out)
    if not summary.passed:
        print(f"  worst scaled margins: interior {summary.worst_a_scaled:.6g}, "
              f"boundary {summary.worst_b_scaled:.6g}, sign {summary.worst_re_scaled:.6g}, "
              f"wronskian residual {summary.worst_im_residual:.6g}", file=sys.stderr)
        return 1
    return 0


def _worst(values: np.ndarray) -> float:
    """The largest entry, at least 0.0, NaN skipped: what a Python max fold
    from 0.0 keeps (a failing NaN is counted through the ok mask)."""
    return float(np.fmax.reduce(values, axis=None, initial=0.0))


def _cmd_selftest(cfg: RunConfig, outputs: OutputPaths, out) -> int:
    grid = selftest_grid()
    failures = grid.ok.size - int(np.count_nonzero(grid.ok))
    verdict = "pass" if failures == 0 else "FAIL"
    print(f"special-function selftest: {grid.ok.size} grid points, {failures} failures, "
          f"worst wronskian residual {_worst(grid.residuals):.3g}, "
          f"worst half-integer error {_worst(grid.halfint):.3g}: {verdict}", file=out)
    return 0 if failures == 0 else 1


def _cmd_report(cfg: RunConfig, outputs: OutputPaths, out) -> int:
    kwargs = {}
    wants_geometry = (cfg.layout is not None or cfg.layers is not None
                      or cfg.k_family is not None)
    if wants_geometry:
        sched = cfg.schedule()
        boxes, summary, disj, conn = _geometry_with_certificates(cfg)
        kwargs.update(schedule_note=schedule_label(sched), summary=summary,
                      disjointness=disj, connectivity=conn)
        if isinstance(sched.k_family, KLogGrowth):
            j_max = min(summary.box_count, 1000)
            kwargs["growth"] = growth_floor_check(sched, sched.k_family.c, j_max)
        try:
            kwargs["certificates"] = certify_geometry(boxes)
        except CertifyError as exc:
            kwargs["certify_error"] = str(exc)
    if cfg.sweep is not None:
        kwargs["sweep"] = _sweep(cfg.sweep)
    stages = StageOutputs(**kwargs)
    text = render_report(stages)
    if outputs.report:
        _write_text_atomic(outputs.report, [text])
        print(f"wrote {outputs.report}", file=out)
    else:
        out.write(text)
    if stages.empty:
        return 0
    return 0 if stages.passed else 1


_GEOMETRY_FLAGS = ("--config", *_OVERRIDES)
_ARTIFACT_FLAGS = _GEOMETRY_FLAGS + ("--out",)

# subcommand -> (handler, help, the flags it reads)
_COMMANDS = {
    "plan": (_cmd_plan, "build the arrangement and print its layout table",
             _GEOMETRY_FLAGS),
    "build": (_cmd_build, "build the arrangement, certify packing, write geometry JSON",
              _ARTIFACT_FLAGS),
    "certify": (_cmd_certify, "run the resolvent-bound chain per box, write CSV",
                _ARTIFACT_FLAGS),
    "verify-dtn": (_cmd_verify_dtn, "sweep the modal sign checks on spheres", ()),
    "specfun-selftest": (_cmd_selftest,
                         "residual checks for the special-function engine", ()),
    "plot": (_cmd_plot, "write the planar figure as SVG", _ARTIFACT_FLAGS),
    "report": (_cmd_report, "run all configured stages and write a combined report",
               _ARTIFACT_FLAGS),
}

_FLAGS = {
    "--config": dict(metavar="PATH", required=True, help="JSON run configuration"),
    "--layers": dict(type=int, metavar="N", help="override the configured number of levels"),
    "--dimension": dict(type=int, metavar="N", help="override the configured dimension"),
    "--out": dict(metavar="DIR", help="redirect all artifacts into DIR"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapcert",
        description="Build slotted-box scatterer families and check their "
                    "resolvent-growth certificates.",
    )
    # a subcommand leaves the flags it does not take at these values
    parser.set_defaults(**{flag[2:]: None for flag in _FLAGS})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    # the sweep has built-in defaults, so its config is optional
    sub.choices["verify-dtn"].add_argument(
        "--config", metavar="PATH", help="JSON run configuration (optional)")
    return parser


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and map every failure onto the exit contract."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        for flag, key in _OVERRIDES.items():
            value = getattr(args, flag[2:])
            if value is not None:
                field, read = _CONFIG_KEYS[key]
                cfg = replace(cfg, **{field: read(value, flag)})
        outputs = _effective_outputs(cfg, args.out)
        return _COMMANDS[args.command][0](cfg, outputs, sys.stdout)
    except CertifyError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ScheduleError, GeometryError, BesselDomainError,
            BesselRangeError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # schedule values past binary64's range
        print(f"error: a derived value leaves binary64: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
