"""Tests for config parsing, the deterministic emitters, and subcommand
dispatch with its exit-code contract."""

import dataclasses
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import trapcert.dtnverify
from columns import make_boxes
from trapcert.cli import (
    ConfigError,
    OutputPaths,
    RunConfig,
    StageOutputs,
    _CONFIG_KEYS,
    _OVERRIDES,
    config_from_mapping,
    emit_certificates_csv,
    emit_geometry_json,
    emit_svg,
    load_config,
    render_report,
    run,
)
from trapcert.certify import certify_geometry
from trapcert.dtnverify import SweepParams
from trapcert.geometry import (
    GeometryError,
    build_layered,
    connectivity_certificate,
    disjointness_certificate,
)
from trapcert.sequences import (
    APower,
    DShiftedPower,
    KLogGrowth,
    KTable,
    demo_schedule,
)


def demo_mapping(**overrides):
    doc = {
        "dimension": 2,
        "schedule": {
            "wavenumbers": {"family": "log-growth", "c": 2.0},
            "targets": {"family": "power", "amplitude": 1.0e-4, "exponent": 0.25},
            "paddings": {"family": "shifted-power", "amplitude": 2.0,
                         "shift": 6.0, "exponent": 1.2},
        },
        "layout": "layered",
        "layers": 4,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -------------------------------------------------------------------
# config parsing
# -------------------------------------------------------------------

def test_config_round_trip():
    cfg = config_from_mapping(demo_mapping())
    assert cfg.dimension == 2
    assert cfg.k_family == KLogGrowth(2.0)
    assert cfg.a_family == APower(1.0e-4, 0.25)
    assert cfg.d_family == DShiftedPower(2.0, 6.0, 1.2)
    assert cfg.layout == "layered"
    assert cfg.truncation == 4
    assert cfg.sweep is None
    sched = cfg.schedule()
    assert sched == demo_schedule()


def test_config_table_families():
    doc = demo_mapping(layout="stacked")
    del doc["layers"]
    doc["boxCount"] = 2
    doc["schedule"] = {
        "wavenumbers": {"family": "table", "values": [5.0, 9.0]},
        "targets": {"family": "table", "values": [0.01, 0.02]},
        "paddings": {"family": "table", "values": [1.0]},
    }
    cfg = config_from_mapping(doc)
    assert cfg.k_family == KTable((5.0, 9.0))
    assert cfg.truncation == 2
    boxes, summary = cfg.geometry()
    assert summary.layout == "stacked" and len(boxes) == 2


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="layerz"):
        config_from_mapping(demo_mapping(layerz=3))
    doc = demo_mapping()
    doc["schedule"]["targets"]["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        config_from_mapping(doc)
    with pytest.raises(ConfigError, match="sweep"):
        config_from_mapping(demo_mapping(sweep={"mmax": 3}))


def test_config_truncation_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        config_from_mapping(demo_mapping(boxCount=7))


@pytest.mark.parametrize("layout, key, other", [("layered", "layers", "boxCount"),
                                                ("stacked", "boxCount", "layers")])
def test_config_refuses_the_truncation_key_of_the_other_layout(tmp_path, capsys, layout,
                                                               key, other):
    doc = demo_mapping() if layout == "layered" else stacked_table_mapping()
    doc[other] = doc.pop(key)
    refusal = f"layout '{layout}' takes '{key}', not '{other}'"
    with pytest.raises(ConfigError) as info:
        config_from_mapping(doc)
    assert str(info.value) == refusal
    assert run(["plan", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr() == ("", f"error: {refusal}\n")
    # --layers overrides the key the layout takes
    doc[key] = doc.pop(other)
    assert run(["plan", "--config", write_config(tmp_path, doc), "--layers", "2"]) == 0
    total = 4 if layout == "layered" else 2
    assert capsys.readouterr().out.endswith(f"total boxes through level 2: {total}\n")


def test_config_type_validation():
    with pytest.raises(ConfigError, match="dimension"):
        config_from_mapping(demo_mapping(dimension="2"))
    with pytest.raises(ConfigError, match="layers"):
        config_from_mapping(demo_mapping(layers=True))
    with pytest.raises(ConfigError, match="layers"):
        config_from_mapping(demo_mapping(layers=0))
    doc = demo_mapping()
    doc["schedule"]["targets"]["amplitude"] = "big"
    with pytest.raises(ConfigError, match="amplitude"):
        config_from_mapping(doc)
    with pytest.raises(ConfigError, match="layout"):
        config_from_mapping(demo_mapping(layout="spiral"))


def test_config_family_names_checked():
    doc = demo_mapping()
    doc["schedule"]["wavenumbers"] = {"family": "geometric", "ratio": 2.0}
    with pytest.raises(ConfigError, match="log-growth' or 'table"):
        config_from_mapping(doc)


@pytest.mark.parametrize("key, names", [
    ("wavenumbers", "'log-growth' or 'table'"),
    ("targets", "'power' or 'table'"),
    ("paddings", "'shifted-power' or 'table'"),
])
def test_config_family_error_messages(key, names):
    doc = demo_mapping()
    doc["schedule"][key] = {"family": "geometric"}
    with pytest.raises(ConfigError) as info:
        config_from_mapping(doc)
    assert str(info.value) == (f"schedule.{key}.family must be {names}, "
                               f"got 'geometric'")


def test_config_schedule_needs_all_three():
    doc = demo_mapping()
    del doc["schedule"]["paddings"]
    with pytest.raises(ConfigError, match="paddings"):
        config_from_mapping(doc)


def test_config_sweep_parsing():
    cfg = config_from_mapping({"sweep": {}})
    assert cfg.sweep == SweepParams()
    cfg = config_from_mapping(
        {"sweep": {"nValues": [2, 3], "mMax": 7, "rhoPoints": 50,
                   "rhoMin": 0.1, "rhoMax": 10.0}})
    assert cfg.sweep.n_values == (2, 3)
    assert cfg.sweep.m_max == 7
    grid = cfg.sweep.rho_grid()
    assert len(grid) == 50
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(10.0)
    with pytest.raises(ConfigError, match="rhoMin"):
        config_from_mapping({"sweep": {"rhoMin": 5.0, "rhoMax": 1.0}})
    with pytest.raises(ConfigError, match=r"^sweep.nValues repeats dimension\(s\) 2, 4$"):
        config_from_mapping({"sweep": {"nValues": [4, 2, 3, 2, 4]}})


def test_config_outputs_need_nonempty_paths():
    with pytest.raises(ConfigError, match="outputs.json"):
        config_from_mapping(demo_mapping(outputs={"json": ""}))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


# -------------------------------------------------------------------
# emitters
# -------------------------------------------------------------------

def test_geometry_document_schema(tmp_path):
    boxes, summary = build_layered(demo_schedule(), 3)
    path = tmp_path / "geom.json"
    emit_geometry_json(boxes, summary, str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc) == ["dimension", "layout", "summary", "boxes"]
    assert doc["summary"]["boxCount"] == 9
    assert len(doc["boxes"]) == 9
    first = doc["boxes"][0]
    assert list(first) == ["j", "layer", "side", "translation", "gap",
                           "wavenumber", "targetA"]
    assert first["translation"] == [0.0, 0.0]
    assert first["side"] == boxes.side[0]  # exact, no rounding anywhere


def test_geometry_json_round_trips_exactly(tmp_path):
    boxes, summary = build_layered(demo_schedule(), 3)
    path = tmp_path / "geom.json"
    emit_geometry_json(boxes, summary, str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    for row, entry in enumerate(doc["boxes"]):
        assert entry["wavenumber"] == boxes.k[row]
        assert entry["gap"] == boxes.gap[row]
        assert entry["targetA"] == boxes.a[row]
        assert entry["translation"] == boxes.lo[row].tolist()
    assert doc["summary"]["rGammaUpper"] == summary.r_gamma_upper


def test_geometry_json_byte_stable(tmp_path):
    boxes, summary = build_layered(demo_schedule(), 5)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_geometry_json(boxes, summary, str(a))
    emit_geometry_json(boxes, summary, str(b))
    assert a.read_bytes() == b.read_bytes()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_certificates_csv_format(tmp_path):
    boxes, _ = build_layered(demo_schedule(), 2)
    records = certify_geometry(boxes)
    emit_certificates_csv(records, str(tmp_path / "c.csv"))
    text = (tmp_path / "c.csv").read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "j,k,a,eps,infsup_ub,cprime_lb,c_lb,margin"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == len(records) + 2
    assert "\r" not in text
    fields = lines[1].split(",")
    assert int(fields[0]) == records.j[0]
    # 17 significant digits reproduce the binary64 values exactly
    assert float(fields[1]) == records.k[0]
    assert float(fields[7]) == records.margin[0]


def test_svg_single_box_slot(tmp_path):
    box = make_boxes(j=[1], layer=[1], side=[1.0], lo=[(0.0, 0.0)], gap=[0.5],
                     k=[3.0], a=[0.1])
    emit_svg(box, str(tmp_path / "f.svg"))
    text = (tmp_path / "f.svg").read_text(encoding="utf-8")
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert 'viewBox="-0.050000 -1.050000 1.100000 1.100000"' in text
    # the bottom edge starts at x = 0.5: the slot [0, 0.5] stays open
    assert ('M 0.500000 0.000000 L 1.000000 0.000000 '
            'L 1.000000 -1.000000 L 0.000000 -1.000000 '
            'L 0.000000 0.000000') in text
    assert text.count("<path") == 1


def test_svg_one_path_per_box_in_index_order(tmp_path):
    boxes, _ = build_layered(demo_schedule(), 3)
    path = tmp_path / "fig.svg"
    emit_svg(boxes, str(path))
    text = path.read_text(encoding="utf-8")
    assert text.count("<path") == len(boxes)
    # box 1 spans the full first level, so its outline comes first
    first_path = text.split("<path")[1]
    assert f"{boxes.side[0] * boxes.gap[0]:.6f}" in first_path
    emit_svg(boxes, str(tmp_path / "fig2.svg"))
    assert path.read_bytes() == (tmp_path / "fig2.svg").read_bytes()


def test_svg_rejects_other_dimensions(tmp_path):
    boxes, _ = build_layered(demo_schedule(3), 2)
    with pytest.raises(GeometryError, match="dimension 2"):
        emit_svg(boxes, str(tmp_path / "f.svg"))
    assert not os.listdir(tmp_path)


# -------------------------------------------------------------------
# report rendering
# -------------------------------------------------------------------

def test_report_empty_run():
    text = render_report(StageOutputs())
    assert "no stages executed" in text
    assert not StageOutputs().passed


def test_report_full_pass():
    sched = demo_schedule()
    boxes, summary = build_layered(sched, 3)
    stages = StageOutputs(
        schedule_note="demo",
        summary=summary,
        disjointness=disjointness_certificate(boxes, sched),
        connectivity=connectivity_certificate(boxes, summary,
                                              disjointness_certificate(boxes, sched)),
        certificates=certify_geometry(boxes),
    )
    assert stages.passed
    text = render_report(stages)
    assert "overall: pass" in text
    assert "disjointness: pass" in text
    assert "min margin" in text


def test_report_shows_connectivity_fault():
    sched = demo_schedule()
    boxes, summary = build_layered(sched, 3)
    sealed = dataclasses.replace(boxes, gap=np.zeros(len(boxes)))
    stages = StageOutputs(
        summary=summary,
        connectivity=connectivity_certificate(sealed, summary,
                                              disjointness_certificate(sealed, sched)),
    )
    assert not stages.passed
    text = render_report(stages)
    assert "connectivity: FAIL" in text
    assert "positive_gap_fractions" in text
    assert "overall: FAIL" in text


def test_report_shows_certify_error():
    boxes, summary = build_layered(demo_schedule(), 2)
    stages = StageOutputs(summary=summary, certify_error="margin not positive")
    text = render_report(stages)
    assert "certification: FAIL (margin not positive)" in text
    assert "overall: FAIL" in text


# -------------------------------------------------------------------
# dispatch and exit codes
# -------------------------------------------------------------------

def test_run_build_writes_json_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, demo_mapping())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["build", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["build", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "geometry.json").read_bytes()
    assert b1 == (out2 / "geometry.json").read_bytes()
    doc = json.loads(b1)
    assert doc["summary"]["boxCount"] == 16  # 1 + 3 + 5 + 7


def test_run_layers_override(tmp_path):
    cfg = write_config(tmp_path, demo_mapping())
    assert run(["build", "--config", cfg, "--layers", "5",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert doc["summary"]["boxCount"] == 26


def test_run_certify_csv_margins_positive(tmp_path):
    cfg = write_config(tmp_path, demo_mapping())
    assert run(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "certificates.csv").read_text().strip().split("\n")
    assert len(lines) == 17
    margins = [float(line.split(",")[7]) for line in lines[1:]]
    assert all(m > 0.0 for m in margins)


def test_run_plan_prints_table(tmp_path, capsys):
    cfg = write_config(tmp_path, demo_mapping())
    assert run(["plan", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "total boxes through level 4: 16" in out
    assert "log-growth(c=2)" in out


def test_run_plot_and_rerun_identical(tmp_path):
    cfg = write_config(tmp_path, demo_mapping())
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert run(["plot", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["plot", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "figure.svg").read_bytes()
    assert b1 == (out2 / "figure.svg").read_bytes()
    assert b1.count(b"<path") == 16


def test_run_plot_dimension_guard(tmp_path):
    cfg = write_config(tmp_path, demo_mapping(dimension=3))
    assert run(["plot", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("case", ["sweep-only", "no-dimension"])
def test_run_plot_without_a_geometry_refuses_like_build(tmp_path, capsys, case):
    if case == "sweep-only":
        cfg = str(CONFIGS / "dtn_sweep.json")
    else:
        doc = demo_mapping()
        del doc["dimension"]
        cfg = write_config(tmp_path, doc)
    assert run(["build", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
    build = capsys.readouterr()
    assert build.out == "" and build.err.startswith("error: config needs ")
    assert run(["plot", "--config", cfg, "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr() == build
    assert not (tmp_path / "b").exists() and not (tmp_path / "p").exists()


def test_run_verify_dtn_small(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweep": {"nValues": [2], "mMax": 5,
                                            "rhoPoints": 40}})
    assert run(["verify-dtn", "--config", cfg]) == 0
    assert "pass" in capsys.readouterr().out


def test_run_report_stdout_when_no_path(tmp_path, capsys):
    cfg = write_config(tmp_path, demo_mapping(layers=2))
    assert run(["report", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "growth floor (c=2, j <= 4): pass" in out


def test_run_report_to_file(tmp_path):
    doc = demo_mapping(layers=2,
                       outputs={"report": str(tmp_path / "sub" / "r.txt")})
    (tmp_path / "sub").mkdir()
    cfg = write_config(tmp_path, doc)
    assert run(["report", "--config", cfg]) == 0
    assert "overall: pass" in (tmp_path / "sub" / "r.txt").read_text()


def test_run_report_empty_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dimension": 2})
    assert run(["report", "--config", cfg]) == 0
    assert "no stages executed" in capsys.readouterr().out


def test_run_usage_errors(tmp_path, capsys):
    assert run(["frobnicate"]) == 2
    assert run(["build", "--config", "x", "--bogus"]) == 2
    assert run(["build"]) == 2  # --config is required here
    assert run(["--help"]) == 0
    capsys.readouterr()  # swallow argparse output


def test_run_config_errors_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, demo_mapping(layerz=1))
    assert run(["build", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, demo_mapping(), name="ok.json")
    assert run(["build", "--config", cfg]) == 2  # no output path anywhere
    assert run(["build", "--config", cfg, "--layers", "-3",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_run_build_dimension_nine(tmp_path, capsys):
    # 6,562 boxes: the packing certificate must run in bounded memory
    cfg = write_config(tmp_path, demo_mapping())
    assert run(["build", "--config", cfg, "--dimension", "9", "--layers", "2",
                "--out", str(tmp_path)]) == 0
    assert "6562 boxes" in capsys.readouterr().out


def test_run_stacked_needs_wavenumber_table(tmp_path, capsys):
    doc = demo_mapping(layout="stacked")
    doc["boxCount"] = doc.pop("layers")
    cfg = write_config(tmp_path, doc)
    assert run(["build", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "summable" in err
    assert not (tmp_path / "out").exists()  # no artifact, no directory


def test_run_table_exhausted_exit_2(tmp_path, capsys):
    doc = demo_mapping()
    doc["schedule"]["wavenumbers"] = {"family": "table", "values": [5.0, 9.0]}
    doc["schedule"]["targets"] = {"family": "table", "values": [0.01, 0.01]}
    doc["schedule"]["paddings"] = {"family": "table", "values": [1.0]}
    doc["layers"] = 3
    cfg = write_config(tmp_path, doc)
    assert run(["build", "--config", cfg, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


SELFTEST_LINE = ("special-function selftest: 80400 grid points, {} failures, "
                 "worst wronskian residual {}, worst half-integer error {}: {}\n")


def test_run_specfun_selftest(capsys):
    assert run(["specfun-selftest"]) == 0
    assert capsys.readouterr().out == SELFTEST_LINE.format(0, "4.02e-15", "8.43e-13", "pass")


@pytest.mark.parametrize("bad", [math.nan, 2e-10])
@pytest.mark.parametrize("grid", ["_wronskian_residuals", "_halfint_errors"])
def test_run_specfun_selftest_fails_on_one_bad_value(monkeypatch, capsys, grid, bad):
    # one residual (or closed-form error) of the first batch that has any is
    # NaN or past the 1e-10 tolerance: one failure, and a NaN never becomes
    # the printed worst value, as in a Python max fold from 0.0
    import trapcert.specfun

    real = getattr(trapcert.specfun, grid)
    first = iter([True])

    def one_bad(*args):
        values = real(*args)
        if next(first, False):
            values[2, 3] = bad  # not the worst entry of either grid
        return values

    monkeypatch.setattr(trapcert.specfun, grid, one_bad)
    assert run(["specfun-selftest"]) == 1
    worst = ["4.02e-15", "8.43e-13"]
    if bad == 2e-10:  # a finite bad value is the new worst of its grid
        worst[grid == "_halfint_errors"] = "2e-10"
    assert capsys.readouterr().out == SELFTEST_LINE.format(1, *worst, "FAIL")


def stacked_table_mapping():
    doc = demo_mapping(layout="stacked", boxCount=3)
    del doc["layers"]
    doc["schedule"]["wavenumbers"] = {"family": "table",
                                      "values": [5.0, 9.0, 17.0, 30.0]}
    doc["schedule"]["paddings"] = {"family": "table", "values": [0.7, 0.3, 0.1]}
    return doc


def test_run_plan_stacked_prints_the_built_depths(tmp_path, capsys):
    # the level table of the layered layout, one box a level, whose pitch
    # and width are its side
    cfg = write_config(tmp_path, stacked_table_mapping())
    assert run(["plan", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["level", "boxes", "first-j", "height", "side", "pitch", "width"]
    assert out[-1] == "total boxes through level 3: 3"
    rows = [line.split() for line in out[2:-1]]
    assert run(["build", "--config", cfg, "--out", str(tmp_path)]) == 0
    boxes = json.loads((tmp_path / "geometry.json").read_text())["boxes"]
    assert rows == [[str(b["layer"]), "1", str(b["j"]), f"{b['translation'][-1]:.6f}"]
                    + [f"{b['side']:.6f}"] * 3 for b in boxes]


def test_run_plan_stacked_log_growth_exit_2(tmp_path, capsys):
    doc = demo_mapping(layout="stacked")
    doc["boxCount"] = doc.pop("layers")
    cfg = write_config(tmp_path, doc)
    assert run(["plan", "--config", cfg]) == 2
    assert "summable" in capsys.readouterr().err


def test_run_flags_only_where_read(tmp_path, capsys):
    cfg = write_config(tmp_path, demo_mapping())
    assert run(["specfun-selftest", "--config", cfg]) == 2
    assert run(["verify-dtn", "--layers", "3"]) == 2
    assert run(["verify-dtn", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert run(["plan", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "v").exists() and not (tmp_path / "d").exists()
    capsys.readouterr()


def test_report_and_verify_dtn_print_one_sweep_line(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweep": {"nValues": [2, 3], "mMax": 4,
                                            "rhoPoints": 20}})
    assert run(["verify-dtn", "--config", cfg]) == 0
    line = capsys.readouterr().out
    assert line == ("dtn sweep: n in {2, 3}, m <= 4, 20 radii, 600 checks: "
                    "0 interior, 0 boundary, 0 sign, 0 wronskian violations: pass\n")
    assert run(["report", "--config", cfg]) == 0
    assert line in capsys.readouterr().out


def test_report_and_verify_dtn_fail_a_failed_sweep(tmp_path, capsys, monkeypatch):
    # a tolerance of -1 times the scale flags every check whose scaled
    # margin lies above -1
    monkeypatch.setattr(trapcert.dtnverify, "_SIGN_TOL", -1.0)
    cfg = write_config(tmp_path, {"sweep": {"nValues": [2, 3], "mMax": 4,
                                            "rhoPoints": 20}})
    line = ("dtn sweep: n in {2, 3}, m <= 4, 20 radii, 600 checks: 180 interior, "
            "556 boundary, 169 sign, 0 wronskian violations: FAIL\n")
    assert run(["verify-dtn", "--config", cfg]) == 1
    assert capsys.readouterr() == (
        line, "  worst scaled margins: interior 5.33114e-16, boundary 4.58434e-16, "
              "sign -7.95767e-06, wronskian residual 4.44089e-16\n")
    assert run(["report", "--config", cfg]) == 1
    assert capsys.readouterr() == (
        "certificate report\n==================\n\n" + line + "\noverall: FAIL\n", "")


@pytest.mark.parametrize("sweep", [{"rhoMax": 1.0e6}, {"mMax": 300}])
def test_run_sweep_outside_envelope_exit_2(tmp_path, capsys, sweep):
    cfg = write_config(tmp_path, {"sweep": sweep})
    assert run(["verify-dtn", "--config", cfg]) == 2
    assert run(["report", "--config", cfg]) == 2
    assert "envelope" in capsys.readouterr().err


@pytest.mark.parametrize("command, family, key, literal", [
    ("build", "paddings", "amplitude", "NaN"),
    ("certify", "paddings", "amplitude", "NaN"),
    ("certify", "paddings", "exponent", "Infinity"),
    ("certify", "paddings", "amplitude", "1e400"),
    ("certify", "wavenumbers", "c", "1" + "0" * 400),
], ids=["build-nan", "certify-nan", "certify-infinity", "certify-1e400",
        "certify-401-digit-int"])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, command, family, key,
                                        literal):
    doc = demo_mapping(layers=3)
    doc["schedule"][family][key] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
    assert run([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"schedule.{family}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "geometry.json").exists()
    assert not (tmp_path / "certificates.csv").exists()


def test_effective_outputs_defaults(tmp_path):
    cfg = RunConfig(outputs=OutputPaths(json="/elsewhere/custom.json"))
    from trapcert.cli import _effective_outputs
    eff = _effective_outputs(cfg, str(tmp_path / "dir"))
    assert eff.json == str(tmp_path / "dir" / "custom.json")
    assert eff.csv == str(tmp_path / "dir" / "certificates.csv")
    assert not (tmp_path / "dir").exists()  # made by the first artifact written
    assert _effective_outputs(cfg, None) is cfg.outputs


HUGE = 10**400  # written out by json.dumps as 401 digits


@pytest.mark.parametrize("command, overrides", [
    ("plan", dict(dimension=HUGE)),
    ("plan", dict(dimension=33)),
    ("plan", dict(layers=HUGE)),
    ("plan", dict(layers=10_001)),
    ("build", dict(dimension=HUGE)),
    ("certify", dict(layers=HUGE)),
], ids=["dimension-401-digits", "dimension-33", "layers-401-digits", "layers-10001",
        "build-dimension", "certify-layers"])
def test_run_huge_integers_exit_2(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path, demo_mapping(**overrides))
    assert run([command, "--config", cfg, "--out", str(tmp_path)]
               if command != "plan" else [command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be <= " in err
    assert not (tmp_path / "geometry.json").exists()


@pytest.mark.parametrize("command", ["plan", "build", "certify", "plot", "report"])
def test_precision_key_and_flag_are_refused(tmp_path, capsys, command):
    # wavenumbers have one route, binary64: there is no precision to set
    out = ["--out", str(tmp_path / "out")] if command != "plan" else []
    cfg = write_config(tmp_path, demo_mapping(precisionDigits=30))
    assert run([command, "--config", cfg, *out]) == 2
    assert capsys.readouterr() == ("", (
        "error: unknown key(s) in config: precisionDigits (allowed: boxCount, "
        "dimension, layers, layout, outputs, schedule, sweep)\n"))
    cfg = write_config(tmp_path, demo_mapping(), name="ok.json")
    assert run([command, "--config", cfg, "--precision", "30", *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith("error: unrecognized arguments: --precision 30\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ok.json"]


def test_run_build_stacked_at_the_box_count_bound(tmp_path, monkeypatch, capsys):
    # 10,000 one-box levels, the most `boxCount` allows: the packing
    # certificate keeps one row per level, where a table of all pairs of
    # levels would need about 7 GiB
    count = 10_000
    doc = demo_mapping(layout="stacked", boxCount=count)
    del doc["layers"]
    doc["schedule"]["wavenumbers"] = {"family": "table",
                                      "values": [10.0 + j for j in range(count)]}
    doc["schedule"]["paddings"] = {"family": "table",
                                   "values": [1.0 / (i + 1) ** 2 for i in range(1, count)]}
    cfg = write_config(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    assert run(["build", "--config", cfg, "--out", "out"]) == 0
    assert capsys.readouterr() == (
        "wrote out/geometry.json (10000 boxes, disjointness and connectivity certified)\n", "")


def test_run_huge_box_count_and_flags_exit_2(tmp_path, capsys):
    doc = stacked_table_mapping()
    doc["boxCount"] = HUGE
    assert run(["plan", "--config", write_config(tmp_path, doc)]) == 2
    cfg = write_config(tmp_path, demo_mapping(), name="ok.json")
    for flag in ("--dimension", "--layers"):
        assert run(["plan", "--config", cfg, flag, str(HUGE)]) == 2
        assert f"error: {flag} must be <= " in capsys.readouterr().err
    # the bounds themselves are accepted; the plan is then refused only by
    # the box-count bound that build applies
    assert run(["plan", "--config", cfg, "--dimension", "32", "--layers", "1"]) == 0
    assert run(["plan", "--config", cfg, "--dimension", "32", "--layers", "3"]) == 2
    assert "3 layers hold 4656613490750788862073 boxes" in capsys.readouterr().err


# the documented bounds of the settings that a flag overrides
BOUNDS = {"dimension": (2, 32), "layers": (1, 10_000)}


@pytest.mark.parametrize("flag, key", list(_OVERRIDES.items()))
def test_flag_and_config_key_share_their_bounds(tmp_path, capsys, flag, key):
    assert set(BOUNDS) == set(_OVERRIDES.values())
    low, high = BOUNDS[key]
    cfg = write_config(tmp_path, demo_mapping(layers=1))
    field = _CONFIG_KEYS[key][0]
    for value in (low, high):
        assert getattr(config_from_mapping(demo_mapping(**{key: value})), field) == value
        # accepted: whatever else refuses the run, it is not the flag
        run(["plan", "--config", cfg, flag, str(value)])
        assert flag not in capsys.readouterr().err
    for value, refusal in ((high + 1, f"must be <= {high}"),
                           (low - 1, f"must be >= {low}, got {low - 1}")):
        with pytest.raises(ConfigError) as info:
            config_from_mapping(demo_mapping(**{key: value}))
        assert str(info.value) == f"{key} {refusal}"
        assert run(["plan", "--config", cfg, flag, str(value)]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} {refusal}\n")


@pytest.mark.parametrize("sweep", [dict(mMax=HUGE), dict(nValues=[2, HUGE]),
                                   dict(rhoPoints=HUGE)],
                         ids=["mMax", "nValues", "rhoPoints"])
def test_run_huge_sweep_integers_exit_2(tmp_path, capsys, sweep):
    cfg = write_config(tmp_path, {"sweep": sweep})
    assert run(["verify-dtn", "--config", cfg]) == 2
    assert "must be <= " in capsys.readouterr().err


def test_run_integer_past_the_digit_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"dimension": ' + "1" * 5000 + "}", encoding="utf-8")
    assert run(["plan", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["specfun-selftest"], ["verify-dtn"]])
def test_run_convergence_error_exit_2(monkeypatch, capsys, argv):
    import trapcert.specfun

    def stalled(mu, x):
        raise trapcert.specfun.ConvergenceError(
            f"CF2 stalled at mu={float(mu[0])}, t={float(x[0])}")

    monkeypatch.setattr(trapcert.specfun, "_cf2_batch", stalled)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: CF2 stalled at mu=")
    assert captured.out == ""


def test_run_certify_huge_wavenumbers(tmp_path, capsys):
    # 8 k^2 S overflows binary64 here; the resolvent floor must not read 0
    doc = stacked_table_mapping()
    doc["boxCount"] = 2
    doc["schedule"]["wavenumbers"] = {"family": "table", "values": [1e150, 2e150]}
    doc["schedule"]["paddings"] = {"family": "table",
                                   "values": [3e-151, 2e-151, 1e-151]}
    cfg = write_config(tmp_path, doc)
    assert run(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "2 certificates" in capsys.readouterr().out
    rows = (tmp_path / "certificates.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        fields = row.split(",")  # j,k,a,eps,infsup_ub,cprime_lb,c_lb,margin
        a, c_lb, margin = float(fields[2]), float(fields[6]), float(fields[7])
        assert margin > 0.0 and c_lb > a


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "cannot read config"),
    (b"[" * 200_000, "not valid JSON"),
], ids=["not-utf8", "nested-200000-deep"])
def test_run_malformed_config_file_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert run(["plan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("text, key", [
    ('{"dimension": 2, "layers": 3, "dimension": 3}', "dimension"),
    ('{"sweep": {"mMax": 2, "rhoPoints": 3, "mMax": 3}}', "mMax"),
], ids=["top-level", "nested"])
def test_run_repeated_config_key_exit_2(tmp_path, capsys, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert run(["verify-dtn", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: config repeats the key '{key}' in one object\n")


def test_run_repeated_sweep_dimension_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweep": {"nValues": [2, 2], "mMax": 1,
                                            "rhoPoints": 2}})
    assert run(["verify-dtn", "--config", cfg]) == 2
    assert capsys.readouterr() == (
        "", "error: sweep.nValues repeats dimension(s) 2\n")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_the_mode_open_gives(tmp_path, umask, mode):
    cfg = write_config(tmp_path, {**demo_mapping(layers=2),
                                  "sweep": {"nValues": [2], "mMax": 1, "rhoPoints": 2}})
    old = os.umask(umask)
    try:
        for command in ("build", "certify", "plot", "report"):
            assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    names = ("geometry.json", "certificates.csv", "figure.svg", "report.txt")
    assert {name: (tmp_path / "out" / name).stat().st_mode & 0o777 for name in names} == \
        dict.fromkeys(names, mode)


OVERSIZE = [(dict(layers=10_000), 435_585_210),
            (dict(dimension=32, layers=2), 617_673_396_283_948)]


@pytest.mark.parametrize("command, overrides, count", [
    (command, *case) for command in ("build", "certify", "report")
    for case in OVERSIZE] + [("plot", *OVERSIZE[0])],
    ids=[f"{command}-{size}" for command in ("build", "certify", "report")
         for size in ("layers-10000", "dimension-32")] + ["plot-layers-10000"])
def test_run_oversize_arrangement_exit_2(tmp_path, capsys, monkeypatch, command,
                                         overrides, count):
    import trapcert.geometry

    def no_boxes(*args):
        raise AssertionError("a box was built")

    monkeypatch.setattr(trapcert.geometry, "derived_params", no_boxes)
    monkeypatch.setattr(trapcert.geometry, "derived_columns", no_boxes)
    cfg = write_config(tmp_path, demo_mapping(**overrides))
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"hold {count} boxes" in err
    assert not (tmp_path / "out").exists()


def _c_1e300():
    doc = demo_mapping()
    doc["schedule"]["wavenumbers"]["c"] = 1e300
    return doc


def _plan_build_cases():
    tiny = []
    for c in (1e-307, 1e-200, 1e-160):
        doc = demo_mapping(layers=3)
        doc["schedule"]["wavenumbers"]["c"] = c
        tiny.append(doc)
    # finite down to level 256; only the width bound past it leaves binary64
    wide = demo_mapping(layers=3)
    wide["schedule"]["paddings"].update(amplitude=1e300, exponent=1.0001)
    two_layers = demo_mapping(layers=3)
    two_layers["schedule"]["wavenumbers"] = {"family": "table",
                                             "values": [5.0, 9.0, 17.0, 30.0, 40.0]}
    two_layers["schedule"]["paddings"] = {"family": "table", "values": [0.7, 0.3, 0.1]}
    return tiny + [wide, two_layers]


@pytest.mark.parametrize("doc, message", [
    (_c_1e300(), "design identity 1 + 2k sqrt(2k^2 a^2 + a) leaves binary64 "
                 "at n=2, k="),
    (demo_mapping(layers=10_000), "10000 layers hold 435585210 boxes, more than"),
] + list(zip(_plan_build_cases(), [
    "built volume leaves binary64: box 1 has side 3.7028612242571093e+307\n",
    "built volume leaves binary64: box 1 has side 3.702861224257109e+200\n",
    "built volume leaves binary64: box 1 has side 3.702861224257109e+160\n",
    "circumradius bound leaves binary64: width 9.766419601969611e+299 "
    "(bound for the levels past 256), lowest height -9.998129297044348e+303\n",
    "schedule tables support only 2 complete layers, 3 requested\n",
])), ids=["c-1e300", "layers-10000", "c-1e-307", "c-1e-200", "c-1e-160",
          "padding-1e300", "table-of-2-layers"])
def test_run_plan_refuses_what_build_refuses(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, doc)
    assert run(["build", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    build_err = capsys.readouterr().err
    assert run(["plan", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == build_err
    assert build_err.startswith(f"error: {message}")
    assert captured.out == ""


def _out_of_range_mappings():
    # box side 5.4e300: its cube overflows in the volume sum
    tiny_k = demo_mapping(dimension=3, layers=1)
    tiny_k["schedule"] = {"wavenumbers": {"family": "table", "values": [1e-300]},
                          "targets": {"family": "table", "values": [1.0]},
                          "paddings": {"family": "table", "values": [0.5]}}
    # box 1 of side 3.7e170: its square overflows, and so does the volume
    # tail bound (pi sqrt(n) / c)^n
    tiny_c = demo_mapping(layers=2)
    tiny_c["schedule"]["wavenumbers"]["c"] = 1e-170
    return [tiny_k, tiny_c]


@pytest.mark.parametrize("command", ["build", "certify", "report"])
@pytest.mark.parametrize("case", [0, 1], ids=["overflow", "zero-division"])
def test_run_values_outside_binary64_exit_2(tmp_path, capsys, command, case):
    cfg = write_config(tmp_path, _out_of_range_mappings()[case])
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == [
        "error: built volume leaves binary64: box 1 has side 5.441398092702653e+300\n",
        "error: built volume leaves binary64: box 1 has side 3.702861224257109e+170\n"][case]


@pytest.mark.parametrize("command", ["build", "certify", "report"])
def test_run_design_identity_past_binary64_exit_2(tmp_path, capsys, command):
    # 2k^2a^2 overflows at box 1; the gap fraction used to report 0.0
    # "left (0,1)", as if the schedule broke its own hypotheses
    doc = demo_mapping(layers=3)
    doc["schedule"]["targets"]["amplitude"] = 1e160
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: design identity 1 + 2k sqrt(2k^2 a^2 + a) "
                                       "leaves binary64 at n=2, k=2.39970264564788, "
                                       "a=1e+160\n")


@pytest.mark.parametrize("command", ["build", "report"])
@pytest.mark.parametrize("values, message", [
    # two n = 3 cubes of side about 4.6e102: each volume is finite, the
    # enclosure's upper end (built volume plus tail) is not
    ([1.18e-102, 1.19e-102], "volume enclosure leaves binary64: built volume "
     "9.805855253668339e+307 plus tail 9.560720364752048e+307"),
    # the sum of the four tail volumes overflows
    ([1.0e-102, 1.1e-102, 1.2e-102, 1.3e-102, 1.4e-102],
     "volume tail leaves binary64: box 2 has side 4.946725538820594e+102"),
], ids=["enclosure", "tail-sum"])
def test_run_volume_past_binary64_exit_2(tmp_path, capsys, command, values, message):
    doc = demo_mapping(dimension=3, layout="stacked", boxCount=1)
    del doc["layers"]
    doc["schedule"]["wavenumbers"] = {"family": "table", "values": values}
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["plan", "build", "certify", "plot", "report"])
def test_run_subnormal_growth_constant_exit_2(tmp_path, capsys, command):
    # c = 1e-320 makes every wavenumber subnormal and every side infinite
    doc = demo_mapping(layers=3)
    doc["schedule"]["wavenumbers"]["c"] = 1e-320
    out = [] if command == "plan" else ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", write_config(tmp_path, doc)] + out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level 1 leaves binary64: side inf, pitch inf, height 0.0\n"


@pytest.mark.parametrize("command", ["plan", "build", "certify", "plot", "report"])
def test_run_stacked_subnormal_wavenumber_exit_2(tmp_path, capsys, command):
    doc = stacked_table_mapping()
    doc["schedule"]["wavenumbers"]["values"][0] = 1e-320  # box 1 has side inf
    out = [] if command == "plan" else ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", write_config(tmp_path, doc)] + out) == 2
    assert capsys.readouterr() == (
        "", "error: level 1 leaves binary64: side inf, pitch inf, height 0.0\n")
    assert not (tmp_path / "out").exists()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# `plan` stdout for configs/figure2d.json as the per-level loop printed it
# before the plan columns: as configured, at n=3 and at n=4
PLAN_FIGURE2D = {
    (): """\
schedule: n=2; wavenumbers log-growth(c=2); targets power(0.0001 * j^0.25); paddings shifted-power(2 * (i+6)^-1.2)
level  boxes  first-j       height       side      pitch      width
    1      1        1     0.000000   1.851431   1.998852   1.998852
    2      3        2    -1.349332   1.155729   1.262042   3.786125
    3      5        5    -2.088869   0.574599   0.656724   3.283618
    4      7       10    -2.553351   0.321283   0.387531   2.712718
    5     10       17    -2.881069   0.201526   0.256602   2.566024
    6     12       27    -3.126962   0.133340   0.180164   2.161965
    7     15       39    -3.324465   0.096109   0.136614   2.049204
    8     18       54    -3.488749   0.072177   0.107705   1.938681
    9     22       72    -3.629277   0.056257   0.087776   1.931083
   10     25       94    -3.751684   0.044833   0.073064   1.826607
   11     28      119    -3.860282   0.036804   0.062296   1.744294
   12     32      147    -3.957966   0.030927   0.054106   1.731402
   13     35      179    -4.046657   0.026361   0.047566   1.664794
   14     39      214    -4.127924   0.022851   0.042353   1.651782
   15     43      253    -4.202872   0.020020   0.038042   1.635790
   16     46      296    -4.272387   0.017711   0.034434   1.583969
   17     50      342    -4.337219   0.015840   0.031418   1.570909
   18     54      392    -4.397935   0.014269   0.028830   1.556837
   19     58      446    -4.455008   0.012939   0.026591   1.542295
   20     62      504    -4.508835   0.011802   0.024639   1.527619
   21     66      566    -4.559750   0.010823   0.022925   1.513021
   22     70      632    -4.608040   0.009973   0.021409   1.498630
   23     74      702    -4.653952   0.009231   0.020061   1.484527
   24     78      776    -4.697698   0.008578   0.018856   1.470757
   25     83      854    -4.739465   0.008000   0.017773   1.475119
   26     87      937    -4.779410   0.007481   0.016788   1.460598
   27     91     1024    -4.817677   0.007018   0.015897   1.446647
   28     95     1115    -4.854397   0.006602   0.015087   1.433226
   29    100     1210    -4.889682   0.006228   0.014346   1.434649
   30    104     1310    -4.923633   0.005887   0.013665   1.421179
total boxes through level 30: 1413
""",
    ("--dimension", "3", "--layers", "10"): """\
schedule: n=3; wavenumbers log-growth(c=2); targets power(0.0001 * j^0.25); paddings shifted-power(2 * (i+6)^-1.2)
level  boxes  first-j       height       side      pitch      width
    1      1        1     0.000000   2.372894   2.520315   2.520315
    2      9        2    -1.903078   1.709475   1.815788   5.447363
    3     25       11    -2.702248   0.634232   0.716357   3.581784
    4     49       36    -3.130465   0.285018   0.351266   2.458862
    5    100       85    -3.417597   0.160941   0.216018   2.160176
    6    144      185    -3.629045   0.098894   0.145718   1.748617
    7    225      329    -3.800841   0.070402   0.110906   1.663597
    8    324      554    -3.945434   0.052486   0.088014   1.584244
    9    484      878    -4.070590   0.040885   0.072405   1.592903
   10    625     1362    -4.180627   0.032462   0.060694   1.517343
total boxes through level 10: 1986
""",
    ("--dimension", "4", "--layers", "6"): """\
schedule: n=4; wavenumbers log-growth(c=2); targets power(0.0001 * j^0.25); paddings shifted-power(2 * (i+6)^-1.2)
level  boxes  first-j       height       side      pitch      width
    1      1        1     0.000000   2.802917   2.950339   2.950339
    2     27        2    -2.362868   2.169265   2.275578   6.826733
    3    125       29    -3.087602   0.559796   0.641920   3.209602
    4    343      154    -3.453221   0.222421   0.288669   2.020683
    5   1000      497    -3.705147   0.125734   0.180811   1.808108
    6   1728     1497    -3.895195   0.077494   0.124319   1.491823
total boxes through level 6: 3224
""",
}


@pytest.mark.parametrize("flags", PLAN_FIGURE2D, ids=["configured", "n3-10", "n4-6"])
def test_run_plan_prints_the_recorded_table(capsys, flags):
    assert run(["plan", "--config", str(CONFIGS / "figure2d.json"), *flags]) == 0
    assert capsys.readouterr() == (PLAN_FIGURE2D[flags], "")


def test_stacked_table_config_plans_one_box_a_level(capsys):
    # configs/stacked_table.json is the table of `stacked_table_mapping`
    cfg = CONFIGS / "stacked_table.json"
    assert json.loads(cfg.read_text()) == stacked_table_mapping()
    assert run(["plan", "--config", str(cfg)]) == 0
    assert capsys.readouterr() == ("""\
schedule: n=2; wavenumbers table[4 values]; targets power(0.0001 * j^0.25); paddings table[3 values]
level  boxes  first-j       height       side      pitch      width
    1      1        1     0.000000   0.888577   0.888577   0.888577
    2      1        2    -1.193654   0.493654   0.493654   0.493654
    3      1        3    -1.755000   0.261346   0.261346   0.261346
total boxes through level 3: 3
""", "")


def test_run_build_makes_the_configured_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example config writes into ./out
    assert run(["build", "--config", str(CONFIGS / "figure2d.json"),
                "--layers", "3"]) == 0
    assert capsys.readouterr().out.startswith("wrote out/geometry.json (9 boxes")
    assert json.loads((tmp_path / "out" / "geometry.json").read_text())[
        "summary"]["boxCount"] == 9


def test_run_packing_failure_names_the_first_failing_check(tmp_path, monkeypatch, capsys):
    # paddings of order 1e-12: no two boxes overlap, but the in-layer gap of
    # level 2 misses its promised value by a relative 1.65e-3, far past the
    # 1e-12 tolerance, so the failure is a gap, not a count of 0 overlaps
    doc = json.loads((CONFIGS / "figure2d.json").read_text())
    doc["schedule"]["paddings"] = {"family": "shifted-power", "amplitude": 1e-12,
                                   "shift": 6, "exponent": 1.2}
    doc["layers"] = 3
    cfg = write_config(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    failure = "level 2 in-layer gap 5.30687e-14 against 5.31564e-14, relative error 0.00165"
    assert run(["build", "--config", cfg]) == 1
    assert capsys.readouterr() == ("", f"disjointness certificate failed: {failure}\n")
    assert not (tmp_path / "out" / "geometry.json").exists()
    assert run(["report", "--config", cfg]) == 1
    report = (tmp_path / "out" / "report.txt").read_text()
    assert f"  disjointness: FAIL ({failure})\n" in report
    assert "overlap" not in report


# one box on the stacked layout at the edge of binary64: eps^(3(n-1)/2) is
# subnormal, so the inf-sup bound has lost bits (n=32), or the threshold has
# overflowed as well (n=2 at 5e153, n=32 at 2e153); both used to pass with an
# inf margin or fail the inf-sup routes, and now exit 2 before any output
RANGE_EDGE = {
    (2, 5e153): "5.513288954218137e-309",
    (2, 4e153): "8.61451399096584e-309",
    (2, 3e153): "1.531469153949482e-308",
    (32, 2e153): "1.8374e-320",
    (32, 1e153): "7.3487e-320",
    (32, 5e152): "2.9396e-319",
}


def one_box_mapping(n, k):
    doc = stacked_table_mapping()
    doc.update(dimension=n, boxCount=1)
    doc["schedule"] = {key: {"family": "table", "values": [value]} for key, value in
                       (("wavenumbers", k), ("targets", 1.0), ("paddings", 1.0))}
    return doc


@pytest.mark.parametrize("n, k", list(RANGE_EDGE))
def test_run_refuses_a_box_whose_bound_leaves_binary64(tmp_path, monkeypatch, capsys, n, k):
    cfg = write_config(tmp_path, one_box_mapping(n, k))
    monkeypatch.chdir(tmp_path)
    err = (f"error: a derived value leaves binary64: box 1: eps^(3(n-1)/2) = "
           f"{RANGE_EDGE[n, k]} is below the normal range\n")
    assert run(["certify", "--config", cfg, "--out", "out"]) == 2
    assert capsys.readouterr() == ("", err)
    assert run(["report", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", err)
    assert run(["report", "--config", cfg, "--out", "out"]) == 2
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "out").exists()


def test_run_certifies_a_box_inside_binary64s_normal_range(tmp_path, capsys):
    cfg = write_config(tmp_path, one_box_mapping(2, 2e153))
    assert run(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith("(1 certificates, min margin 1.9809 at j=1)\n")
    assert run(["report", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "certification: 1 boxes, min margin 1.9809 at j=1: pass\n" in out
    assert out.endswith("overall: pass\n")
