"""The command-line entry points, each run in a child interpreter at tiny
size: `scripts/make_figure.py`, `scripts/run_dtn_sweep.py` and
`python -m trapcert.cli`.  Their stdout and artifacts must equal those of
the same subcommands run in process through `trapcert.cli.run`."""

import json
import os
import subprocess
import sys
from pathlib import Path

from trapcert.cli import run

ROOT = Path(__file__).resolve().parents[1]
FIGURE = str(ROOT / "configs" / "figure2d.json")
ARTIFACTS = ("geometry.json", "certificates.csv", "figure.svg", "report.txt")


def child(args, cwd):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def in_process(argvs, cwd, monkeypatch, capsys):
    """Exit codes and stdout of `run` over argvs, with cwd as the working
    directory."""
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    codes = [run(argv) for argv in argvs]
    return codes, capsys.readouterr().out


def test_make_figure_script(tmp_path, monkeypatch, capsys):
    script = child([str(ROOT / "scripts" / "make_figure.py"), "--layers", "3",
                    "--out", "fig"], tmp_path)
    assert script.returncode == 0, script.stderr
    codes, out = in_process(
        [[command, "--config", FIGURE, "--layers", "3", "--out", "fig"]
         for command in ("build", "certify", "plot", "report")],
        tmp_path / "in-process", monkeypatch, capsys)
    assert codes == [0, 0, 0, 0]
    assert script.stdout == out
    assert "wrote fig/geometry.json (9 boxes" in out
    for name in ARTIFACTS:
        assert ((tmp_path / "fig" / name).read_bytes()
                == (tmp_path / "in-process" / "fig" / name).read_bytes()), name


def test_run_dtn_sweep_script(tmp_path, monkeypatch, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweep": {"nValues": [2, 3], "mMax": 5,
                                            "rhoPoints": 20}}), encoding="utf-8")
    script = child([str(ROOT / "scripts" / "run_dtn_sweep.py"), "--config",
                    str(config)], tmp_path)
    assert script.returncode == 0, script.stderr
    codes, out = in_process([["verify-dtn", "--config", str(config)]],
                            tmp_path / "in-process", monkeypatch, capsys)
    assert codes == [0]
    assert script.stdout == out
    assert out.startswith("dtn sweep: n in {2, 3}, m <= 5, 20 radii, 720 checks: ")


def test_module_entry_point(tmp_path, monkeypatch, capsys):
    argvs = [["plan", "--config", FIGURE, "--layers", "3"],
             ["build", "--config", FIGURE, "--layers", "3", "--out", "mod"]]
    outs = []
    for argv in argvs:
        module = child(["-m", "trapcert.cli", *argv], tmp_path)
        assert module.returncode == 0, module.stderr
        assert module.stderr == ""
        outs.append(module.stdout)
    codes, out = in_process(argvs, tmp_path / "in-process", monkeypatch, capsys)
    assert codes == [0, 0]
    assert "".join(outs) == out
    assert ((tmp_path / "mod" / "geometry.json").read_bytes()
            == (tmp_path / "in-process" / "mod" / "geometry.json").read_bytes())
    # the exit code reaches the shell
    missing = child(["-m", "trapcert.cli", "plan", "--config", "missing.json"], tmp_path)
    assert missing.returncode == 2
    assert missing.stdout == ""
    assert missing.stderr.splitlines()[-1].startswith("error: cannot read config")
