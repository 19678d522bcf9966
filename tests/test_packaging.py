import importlib
import json
import os
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
