import ast
import importlib
import json
import math
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


def _loaded_after(code: str, **env_vars: str) -> dict:
    # run ``code`` in a fresh interpreter, with ``env_vars`` added to its
    # environment; it prints one JSON line
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    return json.loads(out.stdout)


def _scipy_modules(loaded):
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_import_loads_no_adaptive_scipy():
    # no scipy module loads on import: scipy.fft at the first transform,
    # scipy.special, scipy.integrate and scipy.interpolate where they are
    # called
    seen = _loaded_after(
        "import importlib, json, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('moclab.' + name)\n"
        "import moclab.moduli as moduli\n"
        "print(json.dumps({'loaded': sorted(sys.modules),\n"
        "                  'quad': callable(vars(moduli).get('quad'))}))\n")
    assert _scipy_modules(seen["loaded"]) == [], "importing moclab loads scipy"
    # bench/layertrace.py and the moduli tests patch this attribute by name
    assert seen["quad"]


def test_a_certify_pass_loads_no_scipy_and_a_transform_loads_scipy_fft():
    # the bench certify workload at its tiny grid: build, then both
    # criteria at B = 1 and 2^20; certifying transforms nothing
    seen = _loaded_after(
        "import json, sys\n"
        "import numpy as np\n"
        "from moclab import certificates, fields, kernels, moduli, symbols\n"
        "sym = symbols.make_symbol('power', a=1.0,\n"
        "    scale=kernels.fractional_normalization(2, 1.0))\n"
        "grid = certificates.default_xi_grid(1e-3, 1e1, 2)\n"
        "for B in (1.0, 2.0 ** 20):\n"
        "    mem = moduli.build_modulus(sym, 0.05, 0.01, B)\n"
        "    for crit in (certificates.sqg_criterion,\n"
        "                 certificates.burgers_criterion):\n"
        "        assert crit(mem, xi_grid=grid).passed\n"
        "certify = sorted(sys.modules)\n"
        "fields.ScalarField1D(np.sin(fields.ScalarField1D.grid_of(8))).spec\n"
        "print(json.dumps({'certify': certify,\n"
        "                  'spec': sorted(sys.modules)}))\n")
    assert _scipy_modules(seen["certify"]) == []
    assert "scipy.fft" in seen["spec"]


def test_a_symbols_multiplier_loads_no_scipy_and_a_burgers_run_no_quadpack():
    # a log symbol's 1-D multiplier is closed form plus Gauss-Legendre: it
    # loads no scipy module, and a Burgers run on it only scipy.fft
    seen = _loaded_after(
        "import json, sys\n"
        "import numpy as np\n"
        "from moclab import burgers, fields, kernels, symbols\n"
        "sym = symbols.make_symbol('log', a=1.0)\n"
        "kernels.multiplier_of_symbol_1d(sym, np.arange(33.0))\n"
        "multiplier = sorted(sys.modules)\n"
        "x = fields.ScalarField1D.grid_of(64)\n"
        "burgers.simulate_burgers(fields.ScalarField1D(np.sin(x)), 0.01,\n"
        "                         sym=sym)\n"
        "print(json.dumps({'multiplier': multiplier,\n"
        "                  'run': sorted(sys.modules)}))\n")
    assert _scipy_modules(seen["multiplier"]) == []
    assert "scipy.fft" in seen["run"]
    assert "scipy.integrate" not in seen["run"]


def test_a_2d_multiplier_loads_scipy_special_for_a_core_alone():
    # a power symbol's 2-D multiplier is its closed form and loads no scipy
    # module; a core correction loads what importing scipy.special loads,
    # for J0, and nothing else: no QUADPACK
    seen = _loaded_after(
        "import json, sys\n"
        "import numpy as np\n"
        "from moclab import kernels, symbols\n"
        "K = np.hypot(*np.divmod(np.arange(256.0), 16.0))\n"
        "kernels.multiplier_of_symbol_2d(symbols.make_symbol('power', a=1.0), K)\n"
        "power = sorted(sys.modules)\n"
        "kernels.multiplier_of_symbol_2d(symbols.make_symbol('log', a=1.0), K)\n"
        "print(json.dumps({'power': power, 'log': sorted(sys.modules)}))\n")
    special = _loaded_after("import json, sys\n"
                            "import scipy.special\n"
                            "print(json.dumps(sorted(sys.modules)))\n")
    assert _scipy_modules(seen["power"]) == []
    assert "scipy.special" in seen["log"]
    assert _scipy_modules(seen["log"]) == _scipy_modules(special)


def test_compute_Lw_loads_no_scipy_and_a_blowup_pass_only_scipy_fft():
    # the sign changes of L w are pinned by quadrature.brentq, so
    # compute_Lw loads no scipy module; a tiny blowup pass (design,
    # simulate, detect) adds the transforms and no root finder
    seen = _loaded_after(
        "import json, sys\n"
        "from moclab import burgers, symbols\n"
        "sym = symbols.make_symbol('power', a=0.5)\n"
        "inst = burgers.compute_Lw(sym)\n"
        "lw = sorted(sys.modules)\n"
        "rep = burgers.design_blowup_data(sym, N=256, instrumentation=inst)\n"
        "rec = burgers.simulate_burgers(\n"
        "    rep.field, 0.5, sym=sym, grad_stop=50.0 * rep.field.grad_linf())\n"
        "burgers.detect_blowup(rec, inst, grad_factor=50.0)\n"
        "print(json.dumps({'lw': lw, 'pass': sorted(sys.modules)}))\n")
    assert _scipy_modules(seen["lw"]) == []
    assert "scipy.fft" in seen["pass"]
    assert "scipy.optimize" not in seen["pass"]


def test_the_euler_bound_loads_no_scipy():
    # the envelope, its escape and the blow-up time come from one
    # Gauss-Legendre table of t(ln B): no ODE solver and no QUADPACK
    seen = _loaded_after(
        "import json, sys\n"
        "from moclab import sqg_euler, symbols\n"
        "sqg_euler.gradient_bound_ode(\n"
        "    symbols.make_multiplier('loglog', g=1.0), 1.0, 1.0, 10.0)\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert _scipy_modules(seen) == []


def test_omega_bits_do_not_depend_on_blas_threads():
    # a threaded BLAS dot's last bits follow its thread count; a member's
    # tables sum with numpy alone, so omega and omega' of the critical
    # member agree to the bit under one and under two BLAS threads
    code = (
        "import json\n"
        "from moclab import certificates, kernels, moduli, symbols\n"
        "sym = symbols.make_symbol('power', a=1.0,\n"
        "    scale=kernels.fractional_normalization(2, 1.0))\n"
        "xi = certificates.default_xi_grid(1e-8, 1e4, 8)\n"
        "out = []\n"
        "for B in (1.0, 2.0 ** 20):\n"
        "    mem = moduli.build_modulus(sym, 0.05, 0.01, B)\n"
        "    out += [v.hex() for v in mem.omega(xi).tolist()]\n"
        "    out += [v.hex() for v in mem.omega_prime(xi).tolist()]\n"
        "print(json.dumps(out))\n")
    one = _loaded_after(code, OPENBLAS_NUM_THREADS="1")
    two = _loaded_after(code, OPENBLAS_NUM_THREADS="2")
    assert len(one) == 2 * 2 * 97
    assert one == two


def _family_reads(tree):
    # lines that read a symbol's family: .family or getattr(x, "family")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "family":
            yield node.lineno
        elif isinstance(node, ast.Call) and _callee(node.func) == "getattr" \
                and any(isinstance(a, ast.Constant) and a.value == "family"
                        for a in node.args):
            yield node.lineno


def test_no_module_but_symbols_names_a_family():
    # a family is how a symbol was made; every other module reads only the
    # symbol's m, envelope, tail and exponent, so a new family needs no fork
    found = [f"{path.stem}:{line}"
             for path in sorted((ROOT / "src" / "moclab").glob("*.py"))
             if path.stem != "symbols"
             for line in _family_reads(ast.parse(path.read_text()))]
    assert found == [], found
    fork = "if sym.family == 'power':\n    pass\ngetattr(sym, 'family')\n"
    assert len(list(_family_reads(ast.parse(fork)))) == 2


def _scipy_integrate_sites(tree):
    # (enclosing top-level function or None, line) of every name of
    # scipy.integrate: an import of it, or the dotted name read
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                named = any(a.name.startswith("scipy.integrate")
                            for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                named = (node.module or "").startswith("scipy.integrate") or (
                    node.module == "scipy"
                    and any(a.name == "integrate" for a in node.names))
            elif isinstance(node, ast.Attribute):
                named = node.attr == "integrate" and getattr(
                    node.value, "id", None) == "scipy"
            else:
                continue
            if named:
                yield owner, node.lineno


def test_only_the_quad_shim_names_scipy_integrate():
    # no library quadrature runs on QUADPACK: scipy.integrate is named only
    # inside moduli.quad, which the bench patches by name
    found = [f"{path.stem}:{line} ({owner})"
             for path in sorted((ROOT / "src" / "moclab").glob("*.py"))
             for owner, line in _scipy_integrate_sites(
                 ast.parse(path.read_text()))
             if (path.stem, owner) != ("moduli", "quad")]
    assert found == [], found
    shim = [owner for owner, _ in _scipy_integrate_sites(
        ast.parse((ROOT / "src" / "moclab" / "moduli.py").read_text()))]
    assert shim == ["quad"]
    fork = ("import scipy.integrate\n"
            "from scipy import integrate\n"
            "def f():\n    from scipy.integrate import quad\n"
            "    return scipy.integrate.quad\n")
    assert [o for o, _ in _scipy_integrate_sites(ast.parse(fork))] == [
        None, None, "f", "f"]


# public names that only tests call, each kept as a reference that tests
# compare live code against or for a caller ROADMAP plans
ORACLES = {
    "check_lyapunov_inequality": "the inequality the blow-up design uses",
    "check_conditions": "a symbol's structure conditions, by decade",
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


def _public_methods(tree):
    # (Class.method, node) of every public method of a public class
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name[0] != "_":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name[0] != "_":
                    yield f"{cls.name}.{fn.name}", fn


def _attribute_reads(tree):
    # (name, line) of every attribute read and every string constant (a
    # method named as data: records.VERDICT_KEYS, the tracer's targets)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_public_name_has_a_caller():
    # a public top-level name of src/moclab is referenced, and a public
    # method of a public class is read as an attribute or named by a string,
    # outside its own definition in src/ or bench/; or it is named in a
    # README, or is a listed oracle
    sources = sorted((ROOT / "src" / "moclab").glob("*.py"))
    trees = {p: ast.parse(p.read_text())
             for p in sources + sorted((ROOT / "bench").glob("*.py"))}
    refs = [(p, n, line) for p, t in trees.items()
            for n, line in _references(t)]
    reads = [(p, n, line) for p, t in trees.items()
             for n, line in _attribute_reads(t)]
    docs = " ".join(p.read_text() for p in (ROOT / "README.md",
                                            ROOT / "bench" / "README.md"))
    defined, unused = set(), []
    for path in sources:
        public = [(name, node, refs) for name, node
                  in _public_definitions(trees[path]) if name[0] != "_"]
        public += [(name, node, reads) for name, node
                   in _public_methods(trees[path])]
        for qualified, node, uses in public:
            name = qualified.rpartition(".")[2]
            defined.add(qualified)
            span = range(node.lineno, node.end_lineno + 1)
            if qualified in ORACLES or re.search(rf"\b{name}\b", docs) or any(
                    n == name and not (p == path and line in span)
                    for p, n, line in uses):
                continue
            unused.append(f"{path.stem}.{qualified}")
    assert unused == [], unused
    assert set(ORACLES) <= defined, "an oracle left src/moclab"


# defaulted public parameters that only tests set, each kept for a
# behaviour a test can reach through it alone
TEST_OPTIONS = {
    "burgers.simulate_burgers(P)": "the multiplier route: the exact linear "
                                   "semigroup of P(k) = |k|",
    "burgers.simulate_burgers(nonlinear)": "the exact linear flow",
    "burgers.simulate_burgers(dt_max)": "a step cap below T/64: a final step "
                                        "under the dt floor, and the inviscid "
                                        "run on its characteristics",
    "burgers.simulate_burgers(dt_floor)": "the dt-floor exit",
    "burgers.detect_blowup(certified_B)": "a REGULAR verdict certified by a "
                                          "modulus bound",
    "certificates.sqg_criterion(A)": "the perpendicular-absorption gate, "
                                     "which fails above the default A",
    "certificates.sqg_criterion(per_decade)": "another quadrature rule is "
                                              "another grid evaluation "
                                              "(ROADMAP item 3)",
    "certificates.sqg_criterion(order)": "as per_decade",
    "certificates.burgers_criterion(per_decade)": "as sqg_criterion's",
    "certificates.burgers_criterion(order)": "as sqg_criterion's",
    "moduli.StratifiedPairSearch.run(refine)": "the lattice margin before "
                                               "the off-lattice refinement",
    "moduli.find_B_for_data(max_doublings)": "the refusal of a ladder cut "
                                             "short",
    "records.save_checkpoint(meta)": "the run metadata a restart reads back "
                                     "(ROADMAP item 4)",
    "sqg_euler.simulate_sqg(dt_floor)": "the dt-floor exit",
    "sqg_euler.simulate_sqg(tail_limit)": "the spectral-tail exit",
    "sqg_euler.simulate_p_euler(dt_max)": "steps left to the CFL bound, "
                                          "against the stepper reference",
    "sqg_euler.euler_regularity_experiment(c_scale)": "an undercalibrated "
                                                      "envelope",
}


def _defaulted(fn, method):
    # (name, position after self or None for keyword-only) of each
    # parameter with a default
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    for i, a in enumerate(pos[first:], start=first):
        yield a.arg, i - method
    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _options(tree):
    # (owner, callee name, parameter, position) of every defaulted
    # parameter of a public function, or of a public method of a public
    # class (its __init__ called by the class name)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
            for p, i in _defaulted(node, 0):
                yield node.name, node.name, p, i
        elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name[0] == "_" and fn.name != "__init__"):
                    continue
                static = any(getattr(d, "id", "") == "staticmethod"
                             for d in fn.decorator_list)
                callee = node.name if fn.name == "__init__" else fn.name
                for p, i in _defaulted(fn, 0 if static else 1):
                    yield f"{node.name}.{fn.name}", callee, p, i


def _callee(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _calls(tree):
    # (callee name, positional count, keywords set) of every call; a loop
    # variable over a literal tuple of functions calls each of them
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.iter,
                                                    (ast.Tuple, ast.List)):
            unpack = isinstance(node.target, ast.Tuple)
            targets = node.target.elts if unpack else [node.target]
            for item in node.iter.elts:
                values = item.elts if unpack and isinstance(
                    item, ast.Tuple) else [item]
                for t, v in zip(targets, values):
                    if isinstance(t, ast.Name) and _callee(v):
                        aliases.setdefault(t.id, set()).add(_callee(v))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node.func):
            npos = (math.inf if any(isinstance(a, ast.Starred)
                                    for a in node.args) else len(node.args))
            kws = {k.arg for k in node.keywords}
            name = _callee(node.func)
            for n in aliases.get(name, {name}):
                yield n, npos, kws


def _unset_options():
    sources = sorted((ROOT / "src" / "moclab").glob("*.py"))
    trees = {p: ast.parse(p.read_text())
             for p in sources + sorted((ROOT / "bench").glob("*.py"))}
    trees.update((f"README block {i}", ast.parse(block)) for i, block in
                 enumerate(re.findall(r"```python\n(.*?)```",
                                      (ROOT / "README.md").read_text(),
                                      re.S)))
    setters = [c for t in trees.values() for c in _calls(t)]
    options, unset = [], []
    for path in sources:
        for owner, callee, param, at in _options(trees[path]):
            options.append(f"{path.stem}.{owner}({param})")
            if not any(n == callee and (param in kws or (
                    at is not None and npos > at))
                       for n, npos, kws in setters):
                unset.append(options[-1])
    return options, unset


def test_every_option_has_a_setter():
    # a defaulted public parameter of src/moclab is set by a call in src/,
    # bench/ or a README example, or names in TEST_OPTIONS the behaviour a
    # test reaches through it alone; any other is a constant
    _, unset = _unset_options()
    constants = [o for o in unset if o not in TEST_OPTIONS]
    assert constants == [], constants
    assert set(TEST_OPTIONS) <= set(unset), \
        "a test option is set outside the tests, or left src/moclab"


# the stage rules of a run: their helpers and constants live in fields
STAGE_RULES = re.compile(r"regrid|start_grid|spectral_tail|tail_band|"
                         r"_REFINE_TAIL|_MIN_STAGE_N|_DROP_RTOL")


def _second_loop_sites(tree):
    # what a second time loop would need: the run loop subclassed outside
    # fields, or a stage-rule helper or constant defined there
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                name == "_StagedRun" for base in node.bases
                for name, _ in _references(base)):
            yield f"subclasses _StagedRun (line {node.lineno})"
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [t.id for t in (node.targets if isinstance(
                node, ast.Assign) else [node.target])
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if STAGE_RULES.search(name):
                yield f"defines {name} (line {node.lineno})"


def test_fields_owns_the_only_time_loop():
    # every spectral solver runs through fields._StagedRun: no other
    # module steps a spectrum or re-states the rules of its stages
    found = [f"{path.stem} {site}"
             for path in sorted((ROOT / "src" / "moclab").glob("*.py"))
             if path.stem != "fields"
             for site in _second_loop_sites(ast.parse(path.read_text()))]
    assert found == [], found
    fork = ("from .fields import _StagedRun\n"
            "class _Loop(_StagedRun):\n    pass\n"
            "_REFINE_TAIL = 1e-8\n"
            "def _regrid(spec, n, m):\n    return spec\n")
    assert len(list(_second_loop_sites(ast.parse(fork)))) == 3


ROOT_FINDERS = re.compile(r"bisect|brent|secant|newton", re.IGNORECASE)


def _second_root_finder_sites(tree):
    # what a second root finder would need: a function named for a
    # root-finding method, or scipy.optimize imported
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                ROOT_FINDERS.search(node.name)):
            yield f"defines {node.name} (line {node.lineno})"
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        if any(m == "scipy.optimize" or m.startswith("scipy.optimize.")
               for m in modules):
            yield f"imports scipy.optimize (line {node.lineno})"


def test_quadrature_owns_the_only_root_finder():
    # every root (the crossover scale, the sign changes of L w) comes from
    # quadrature.brentq: no other module defines or imports a solver
    found = [f"{path.stem} {site}"
             for path in sorted((ROOT / "src" / "moclab").glob("*.py"))
             if path.stem != "quadrature"
             for site in _second_root_finder_sites(
                 ast.parse(path.read_text()))]
    assert found == [], found
    fork = ("import scipy.optimize\n"
            "from scipy import optimize\n"
            "from scipy.optimize import brentq\n"
            "def _bisect(f, xa, xb):\n    return xa\n"
            "def pin_by_Newton(f, x):\n    return x\n")
    assert len(list(_second_root_finder_sites(ast.parse(fork)))) == 5


# the tail rule and the modulus adapter of callables: a certificate takes a
# family member, whose tails are closed forms
_CALLABLE_ROUTE = {"decade_increments", "classify_decades", "decade_sum",
                   "_omega_fn"}


def _names(tree):
    # every identifier a module reads, imports or defines an attribute by
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_the_certificates_name_no_callable_route():
    tree = ast.parse((ROOT / "src" / "moclab" / "certificates.py").read_text())
    assert sorted(_CALLABLE_ROUTE & set(_names(tree))) == []
    fork = ("from .quadrature import decade_sum\n"
            "from .moduli import _omega_fn as fn\n"
            "quadrature.classify_decades(decade_increments(f, 1.0, 40))\n")
    assert _CALLABLE_ROUTE <= set(_names(ast.parse(fork)))
