"""Tests for config parsing, the deterministic emitters, and subcommand
dispatch with its exit-code contract."""

import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest

from columns import make_boxes
from trapcert.cli import (
    ConfigError,
    OutputPaths,
    RunConfig,
    StageOutputs,
    SweepParams,
    certificates_csv,
    config_from_mapping,
    emit_geometry_json,
    emit_svg,
    geometry_document,
    load_config,
    render_report,
    run,
    svg_document,
)
from trapcert.certify import certify_geometry
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
    assert cfg.precision_digits == 15
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
    with pytest.raises(ConfigError, match="precisionDigits"):
        config_from_mapping(demo_mapping(precisionDigits=10))
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

def test_geometry_document_schema():
    boxes, summary = build_layered(demo_schedule(), 3)
    doc = geometry_document(boxes, summary)
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


def test_certificates_csv_format():
    boxes, _ = build_layered(demo_schedule(), 2)
    records = certify_geometry(boxes)
    text = certificates_csv(records)
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


def test_svg_single_box_slot():
    box = make_boxes(j=[1], layer=[1], side=[1.0], lo=[(0.0, 0.0)], gap=[0.5],
                     k=[3.0], a=[0.1])
    text = svg_document(box)
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert 'viewBox="-0.050000 -1.050000 1.100000 1.100000"' in text
    # the bottom edge starts at x = 0.5: the slot [0, 0.5] stays open
    assert ('M 0.500000 0.000000 L 1.000000 0.000000 '
            'L 1.000000 -1.000000 L 0.000000 -1.000000 '
            'L 0.000000 0.000000') in text
    assert text.count("<path") == 1


def test_svg_one_path_per_box_in_index_order(tmp_path):
    boxes, _ = build_layered(demo_schedule(), 3)
    text = svg_document(boxes)
    assert text.count("<path") == len(boxes)
    # box 1 spans the full first level, so its outline comes first
    first_path = text.split("<path")[1]
    assert f"{boxes.side[0] * boxes.gap[0]:.6f}" in first_path
    path = tmp_path / "fig.svg"
    emit_svg(boxes, str(path))
    emit_svg(boxes, str(tmp_path / "fig2.svg"))
    assert path.read_bytes() == (tmp_path / "fig2.svg").read_bytes()


def test_svg_rejects_other_dimensions():
    boxes, _ = build_layered(demo_schedule(3), 2)
    with pytest.raises(GeometryError, match="dimension 2"):
        svg_document(boxes)
    with pytest.raises(GeometryError, match="no boxes"):
        svg_document([])


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
        connectivity=connectivity_certificate(boxes, summary),
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
        connectivity=connectivity_certificate(sealed, summary),
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
    assert run(["certify", "--config", cfg, "--precision", "3",
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
    cfg = write_config(tmp_path, doc)
    assert run(["build", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "summable" in err
    assert not (tmp_path / "geometry.json").exists()


def test_run_table_exhausted_exit_2(tmp_path, capsys):
    doc = demo_mapping()
    doc["schedule"]["wavenumbers"] = {"family": "table", "values": [5.0, 9.0]}
    doc["schedule"]["targets"] = {"family": "table", "values": [0.01, 0.01]}
    doc["schedule"]["paddings"] = {"family": "table", "values": [1.0]}
    doc["layers"] = 3
    cfg = write_config(tmp_path, doc)
    assert run(["build", "--config", cfg, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_run_specfun_selftest(capsys):
    assert run(["specfun-selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert "pass" in out


def stacked_table_mapping():
    doc = demo_mapping(layout="stacked", boxCount=3)
    del doc["layers"]
    doc["schedule"]["wavenumbers"] = {"family": "table",
                                      "values": [5.0, 9.0, 17.0, 30.0]}
    doc["schedule"]["paddings"] = {"family": "table", "values": [0.7, 0.3, 0.1]}
    return doc


def test_run_plan_stacked_prints_the_built_depths(tmp_path, capsys):
    cfg = write_config(tmp_path, stacked_table_mapping())
    assert run(["plan", "--config", cfg]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:-1]]
    assert run(["build", "--config", cfg, "--out", str(tmp_path)]) == 0
    boxes = json.loads((tmp_path / "geometry.json").read_text())["boxes"]
    assert [(int(j), k, side, depth) for j, k, side, depth in rows] == [
        (b["j"], f"{b['wavenumber']:.6f}", f"{b['side']:.6f}",
         f"{b['translation'][-1]:.6f}") for b in boxes]


def test_run_plan_stacked_log_growth_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, demo_mapping(layout="stacked"))
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
    assert (tmp_path / "dir").is_dir()
    assert _effective_outputs(cfg, None) is cfg.outputs


HUGE = 10**400  # written out by json.dumps as 401 digits


@pytest.mark.parametrize("command, overrides", [
    ("plan", dict(dimension=HUGE)),
    ("plan", dict(dimension=33)),
    ("plan", dict(layers=HUGE)),
    ("plan", dict(layers=10_001)),
    ("plan", dict(precisionDigits=HUGE)),
    ("build", dict(dimension=HUGE)),
    ("certify", dict(layers=HUGE)),
], ids=["dimension-401-digits", "dimension-33", "layers-401-digits", "layers-10001",
        "precision-401-digits", "build-dimension", "certify-layers"])
def test_run_huge_integers_exit_2(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path, demo_mapping(**overrides))
    assert run([command, "--config", cfg, "--out", str(tmp_path)]
               if command != "plan" else [command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be <= " in err
    assert not (tmp_path / "geometry.json").exists()


def test_run_huge_box_count_and_flags_exit_2(tmp_path, capsys):
    doc = stacked_table_mapping()
    doc["boxCount"] = HUGE
    assert run(["plan", "--config", write_config(tmp_path, doc)]) == 2
    cfg = write_config(tmp_path, demo_mapping(), name="ok.json")
    for flag in ("--dimension", "--layers", "--precision"):
        assert run(["plan", "--config", cfg, flag, str(HUGE)]) == 2
        assert f"error: {flag} must be <= " in capsys.readouterr().err
    # the bounds themselves are accepted; the plan is then refused only by
    # the box-count bound that build applies
    assert run(["plan", "--config", cfg, "--dimension", "32", "--layers", "1"]) == 0
    assert run(["plan", "--config", cfg, "--dimension", "32", "--layers", "3"]) == 2
    assert "3 layers hold 4656613490750788862073 boxes" in capsys.readouterr().err


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
    assert not [p for p in (tmp_path / "out").iterdir() if p.is_file()]


def _c_1e300():
    doc = demo_mapping()
    doc["schedule"]["wavenumbers"]["c"] = 1e300
    return doc


@pytest.mark.parametrize("doc, message", [
    (_c_1e300(), "gap fraction 0.0 left (0,1) at n=2, k="),
    (demo_mapping(layers=10_000), "10000 layers hold 435585210 boxes, more than"),
], ids=["c-1e300", "layers-10000"])
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
    # c^n underflows to 0 in the volume tail bound's denominator
    tiny_c = demo_mapping(layers=2)
    tiny_c["schedule"]["wavenumbers"]["c"] = 1e-170
    return [tiny_k, tiny_c]


@pytest.mark.parametrize("command", ["build", "certify", "report"])
@pytest.mark.parametrize("case", [0, 1], ids=["overflow", "zero-division"])
def test_run_values_outside_binary64_exit_2(tmp_path, capsys, command, case):
    cfg = write_config(tmp_path, _out_of_range_mappings()[case])
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: a derived value leaves binary64")


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
