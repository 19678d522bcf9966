import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
MODULES = sorted(p.stem for p in (ROOT / "src" / "moclab").glob("*.py"))


def test_every_declared_script_target_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    # an entry point naming a module that does not exist installs a console
    # script that fails on its first run
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} names {target!r}"


def test_import_loads_no_adaptive_scipy():
    # scipy.integrate, scipy.optimize and scipy.interpolate load where they
    # are called, not on import: no bench workload needs the first or last
    code = (
        "import importlib, json, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('moclab.' + name)\n"
        "import moclab.moduli as moduli\n"
        "print(json.dumps({'loaded': sorted(sys.modules),\n"
        "                  'quad': callable(vars(moduli).get('quad'))}))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    seen = json.loads(out.stdout)
    for heavy in ("scipy.integrate", "scipy.optimize", "scipy.interpolate"):
        assert heavy not in seen["loaded"], f"importing moclab loads {heavy}"
    # bench/layertrace.py and the moduli tests patch this attribute by name
    assert seen["quad"]


# public names that only tests call, each kept as a reference that tests
# compare live code against or for a caller ROADMAP plans
ORACLES = {
    "apply_dissipation_physical": "physical route, against the multiplier",
    "dissipation_direct_1d": "physical route, against the multiplier",
    "dissipation_lower": "callable route, against the criteria's D",
    "measured_curvature_constant": "one-point form of the criteria's side "
                                   "value",
    "validate_modulus": "every property the argument asks of a modulus",
    "check_lyapunov_inequality": "the inequality the blow-up design uses",
    "check_conditions": "a symbol's structure conditions, by decade",
    "omega_tilde": "closed-form pin of the SQG advective pair",
    "VERDICTS": "the closed set a record's verdict is checked against",
    "save_checkpoint": "restart, ROADMAP item 4",
    "load_checkpoint": "restart, ROADMAP item 4",
    "euler_regularity_experiment": "the Euler sweep, ROADMAP item 2",
    "symbol_from_callable": "user symbols, ROADMAP item 2",
    "symbol_from_json": "inverse of DissipationSymbol.to_dict",
    "symbol_from_multiplier": "user symbols, ROADMAP item 2",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def _references(tree):
    # (name, line) of every name, attribute and imported name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def test_every_public_name_has_a_caller():
    # a public top-level name of src/moclab is referenced outside its own
    # definition in src/, bench/ or a README, or is a listed oracle
    sources = sorted((ROOT / "src" / "moclab").glob("*.py"))
    trees = {p: ast.parse(p.read_text())
             for p in sources + sorted((ROOT / "bench").glob("*.py"))}
    refs = [(p, n, line) for p, t in trees.items()
            for n, line in _references(t)]
    docs = " ".join(p.read_text() for p in (ROOT / "README.md",
                                            ROOT / "bench" / "README.md"))
    defined, unused = set(), []
    for path in sources:
        for name, node in _public_definitions(trees[path]):
            if name.startswith("_"):
                continue
            defined.add(name)
            span = range(node.lineno, node.end_lineno + 1)
            if name in ORACLES or re.search(rf"\b{name}\b", docs) or any(
                    n == name and not (p == path and line in span)
                    for p, n, line in refs):
                continue
            unused.append(f"{path.stem}.{name}")
    assert unused == [], unused
    assert set(ORACLES) <= defined, "an oracle left src/moclab"
