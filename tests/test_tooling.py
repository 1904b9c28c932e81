"""The command-line entry point `python -m trapcert.cli`, run in a child
interpreter at tiny size: its stdout and artifacts must equal those of the
same subcommands run in process through `trapcert.cli.run`.  And every
public name of the package has a caller outside the tests."""

import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import trapcert
from trapcert import cli
from trapcert.cli import run

import mutants

ROOT = Path(__file__).resolve().parents[1]
# the `src/` this session imports the package from, which children run too
SRC = Path(trapcert.__file__).resolve().parents[1]
FIGURE = str(ROOT / "configs" / "figure2d.json")
ARTIFACTS = ("geometry.json", "certificates.csv", "figure.svg", "report.txt")


def child(args, cwd):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
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


# mpmath is a test dependency only: None in sys.modules makes its import fail
NUMPY_ONLY_CHILD = """
import json, sys
sys.modules["mpmath"] = None
from trapcert.cli import run
codes = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def test_every_command_runs_on_numpy_alone(tmp_path, monkeypatch, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"sweep": {"nValues": [2, 3], "mMax": 5,
                                           "rhoPoints": 20}}), encoding="utf-8")
    argvs = ([["plan", "--config", FIGURE, "--layers", "3"]]
             + [[command, "--config", FIGURE, "--layers", "3", "--out", "np"]
                for command in ("build", "certify", "plot", "report")]
             + [["verify-dtn", "--config", str(sweep)], ["specfun-selftest"]])
    script = child(["-c", NUMPY_ONLY_CHILD, json.dumps(argvs)], tmp_path)
    assert script.returncode == 0, script.stderr
    assert script.stderr == ""
    *lines, codes = script.stdout.splitlines(keepends=True)
    assert json.loads(codes) == [0] * len(argvs)
    assert in_process(argvs, tmp_path / "in-process", monkeypatch, capsys) == (
        [0] * len(argvs), "".join(lines))
    for name in ARTIFACTS:
        assert ((tmp_path / "np" / name).read_bytes()
                == (tmp_path / "in-process" / "np" / name).read_bytes()), name


PACKAGE = ROOT / "src" / "trapcert"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} | {"trapcert"}


def references(tree, skip=(), strings=False):
    """The names that `tree` reads outside the nodes in `skip`: bare names,
    attributes of the package's modules, imports, and with `strings` every
    string constant (the benchmark tracer names its targets by string)."""
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and MODULES & {
                getattr(node.value, "id", None), getattr(node.value, "attr", None)}:
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def attributes(tree):
    """Every attribute name that `tree` reads, of any object."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_public_name_has_a_caller_outside_the_tests():
    """Every public module-level name, and every public method or property
    of a class, is read by the package, the benchmark or the README's
    examples, not by the tests alone."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    outside = set()
    members_read = set()  # attribute names, so a member is read as `x.name`
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        outside |= references(ast.parse(block))
        members_read |= attributes(ast.parse(block))
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside |= references(tree, strings=True)
        members_read |= attributes(tree)
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    read = {module: references(tree) for module, tree in trees.items()}
    members_read |= outside.union(*map(attributes, trees.values()))
    uncalled, unused_members = [], []
    for module, tree in trees.items():
        elsewhere = outside.union(*(names for key, names in read.items() if key != module))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                unused_members += [f"{top.name}.{member.name}" for member in top.body
                                   if isinstance(member, ast.FunctionDef)
                                   and not member.name.startswith("_")
                                   and member.name not in members_read]
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            else:  # assignments, annotated or not
                targets = getattr(top, "targets", []) + [getattr(top, "target", None)]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            own = {id(node) for node in ast.walk(top)}
            uncalled += [name for name in names if not name.startswith("_")
                         and name not in elsewhere and name not in references(tree, own)]
    assert (uncalled, unused_members) == ([], [])


def test_every_mutant_edits_one_place():
    """Each row of the mutation table applies once and compiles; `python
    tests/mutants.py` runs the mutants themselves."""
    assert mutants.check_table() == []


def test_readme_configuration_names_every_accepted_key():
    """Every key the config readers accept, and every family name, appears
    quoted or in backticks in README's Configuration section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = [*cli._CONFIG_KEYS, *cli._SWEEP_KEYS, *(f.name for f in fields(cli.OutputPaths)),
            *cli._FAMILIES, "family"]
    for families in cli._FAMILIES.values():
        for name, family in families.items():
            keys += [name, *(f.name for f in fields(family))]
    assert sorted({key for key in keys
                   if not re.search(f"[`\"]{re.escape(key)}[`\"]", section)}) == []
