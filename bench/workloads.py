"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), computes its
answers in a timed pass (``solve``), and then checks every answer
(``check``). ``solve`` fills a dict op by op, so an exception leaves the
answers already computed in place and every missing answer counts as a
failed op.

Library functions are always looked up through their module at call time
(``moduli.build_modulus(...)``), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import math

import numpy as np

from moclab import burgers, certificates, fields, kernels, moduli, sqg_euler
from moclab import symbols

EPS = np.finfo(float).eps


def critical_symbol():
    """m(r) = c/r normalized so that its operator is (-Laplacian)^(1/2) in 2D."""
    return symbols.make_symbol("power", a=1.0,
                               scale=kernels.fractional_normalization(2, 1.0))


def _within(value, ref, rel_err):
    # an error bar below float resolution is not one the program can state:
    # allow 8 ulps on top of it
    return abs(value - ref) <= (rel_err + 8.0 * EPS) * abs(ref)


class Workload:
    name = ""

    def setup(self, seed: int, tiny: bool) -> dict:
        raise NotImplementedError

    def solve(self, inputs: dict, out: dict) -> None:
        raise NotImplementedError

    def ops(self, inputs: dict) -> list[str]:
        """Names of the ops one pass attempts, in order."""
        raise NotImplementedError

    def check(self, inputs: dict, out: dict, ref: dict | None) -> dict:
        """Map every op of a pass to None (right) or the reason it failed."""
        raise NotImplementedError

    def check_setup(self, inputs: dict, ref: dict | None) -> dict:
        """Checks of answers computed while building the inputs."""
        return {}


class Certify(Workload):
    """build_modulus, then sqg_criterion and burgers_criterion per member."""

    name = "certify"

    def setup(self, seed, tiny):
        grid = (certificates.default_xi_grid(1e-3, 1e1, 2) if tiny
                else certificates.default_xi_grid(1e-5, 1e2, 16))
        return {"sym": critical_symbol(), "kappa": 0.05, "gamma": 0.01,
                "log2_B": (0, 20), "grid": grid}

    def ops(self, inputs):
        return [f"{kind}@B=2^{k}" for k in inputs["log2_B"]
                for kind in ("sqg", "burgers")]

    def solve(self, inputs, out):
        grid = inputs["grid"]
        for k in inputs["log2_B"]:
            mem = moduli.build_modulus(inputs["sym"], inputs["kappa"],
                                       inputs["gamma"], 2.0 ** k)
            for kind, criterion in (
                    ("sqg", certificates.sqg_criterion),
                    ("burgers", certificates.burgers_criterion)):
                rep = criterion(mem, xi_grid=grid)
                out[f"{kind}@B=2^{k}"] = {
                    "passed": bool(rep.passed),
                    "margin": rep.margin.tolist(),
                    "margin_err": rep.margin_err.tolist()}

    def check(self, inputs, out, ref):
        res = {}
        for op in self.ops(inputs):
            rep = out.get(op)
            if rep is None:
                res[op] = "no answer"
            elif not rep["passed"]:
                res[op] = "criterion did not PASS"
            elif ref is not None:
                res[op] = _margins_match(rep, ref[op])
            else:
                res[op] = None
        return res


def _margins_match(rep, ref):
    if len(rep["margin"]) != len(ref["margin"]):
        return "grid length changed"
    for i, (m, e, rm, re_) in enumerate(zip(rep["margin"], rep["margin_err"],
                                            ref["margin"], ref["margin_err"])):
        # two estimates of one margin differ by at most the sum of their bars
        if not abs(m - rm) <= e + re_ + 8.0 * EPS * abs(rm):
            return (f"margin[{i}] = {m!r} is outside the stored "
                    f"{rm!r} +- {e + re_:.3g}")
    return None


class Blowup(Workload):
    """compute_Lw, then design, simulate and detect at two resolutions."""

    name = "blowup"

    def setup(self, seed, tiny):
        return {"sym": symbols.make_symbol("power", a=0.5),
                "N": (1024, 2048) if tiny else (4096, 8192),
                "T": 0.5, "grad_factor": 50.0}

    def ops(self, inputs):
        return ["compute_Lw"] + [f"{op} N={n}" for n in inputs["N"]
                                 for op in ("design", "simulate", "detect")]

    def solve(self, inputs, out):
        sym = inputs["sym"]
        factor = inputs["grad_factor"]
        inst = burgers.compute_Lw(sym)
        out["compute_Lw"] = {"kernel_functional": inst.kernel_functional,
                             "integral_error": inst.integral_error}
        for n in inputs["N"]:
            rep = burgers.design_blowup_data(sym, N=n, instrumentation=inst)
            out[f"design N={n}"] = {
                "condition_value": rep.condition_value,
                "condition_scale": rep.lyapunov0 ** 2 + rep.margin
                * rep.kernel_functional * rep.sup0}
            rec = burgers.simulate_burgers(
                rep.field, inputs["T"], sym=sym,
                grad_stop=factor * rep.field.grad_linf(), record_every=5)
            out[f"simulate N={n}"] = {"termination": rec.termination,
                                      "steps": rec.meta["steps"]}
            v = burgers.detect_blowup(rec, inst, grad_factor=factor)
            out[f"detect N={n}"] = {
                "verdict": v.verdict,
                "bracket": list(v.blowup_bracket) if v.blowup_bracket
                else None}

    def check(self, inputs, out, ref):
        res = dict.fromkeys(self.ops(inputs), "no answer")
        lw = out.get("compute_Lw")
        if lw is not None:
            res["compute_Lw"] = None
            if not math.isfinite(lw["kernel_functional"]):
                res["compute_Lw"] = "kernel functional not finite"
            elif ref is not None and not _within(
                    lw["kernel_functional"],
                    ref["compute_Lw"]["kernel_functional"],
                    lw["integral_error"]
                    + ref["compute_Lw"]["integral_error"]):
                res["compute_Lw"] = "kernel functional left its error bar"
        brackets = []
        for n in inputs["N"]:
            design = out.get(f"design N={n}")
            if design is not None:
                # L0^2 - margin*I*sup is a difference of two terms of size
                # condition_scale; the bisection pins it at 0 to rounding
                res[f"design N={n}"] = (
                    None if design["condition_value"]
                    > -8.0 * EPS * design["condition_scale"]
                    else "designed data fails the blow-up condition")
            sim = out.get(f"simulate N={n}")
            if sim is not None:
                res[f"simulate N={n}"] = (
                    None if sim["termination"] == "gradient-threshold"
                    else f"run ended by {sim['termination']}")
            det = out.get(f"detect N={n}")
            if det is None:
                continue
            why = None
            if det["verdict"] != "BLOWUP":
                why = f"verdict {det['verdict']}"
            elif ref is not None and ref[f"detect N={n}"]["verdict"] != \
                    det["verdict"]:
                why = "verdict differs from the stored one"
            else:
                brackets.append(det["bracket"])
                if max(b[0] for b in brackets) > min(b[1] for b in brackets):
                    why = "blow-up brackets do not overlap across N"
            res[f"detect N={n}"] = why
        return res


class SqgMonitored(Workload):
    """A monitored 2-D SQG run of the member certified for its data."""

    name = "sqg_monitored"

    def setup(self, seed, tiny):
        n = 32 if tiny else 128
        fld = fields.ScalarField2D.random_band_limited(
            n, kmax=4, amplitude=0.05, seed=seed)
        sym = critical_symbol()
        B = moduli.find_B_for_data(fld, sym, kappa=0.05, gamma=0.01)
        return {"field": fld, "B": B,
                "member": moduli.build_modulus(sym, 0.05, 0.01, B),
                "P": symbols.make_multiplier("power", s=1.0),
                "T": 0.05 if tiny else 0.5,
                "dt_max": 0.0125 if tiny else None}

    def ops(self, inputs):
        return ["simulate_sqg"]

    def solve(self, inputs, out):
        rec = sqg_euler.simulate_sqg(inputs["field"], inputs["T"],
                                     P=inputs["P"], member=inputs["member"],
                                     dt_max=inputs["dt_max"])
        out["simulate_sqg"] = {
            "verdict": rec.verdict, "termination": rec.termination,
            "steps": rec.meta["steps"],
            "min_obedience_margin": rec.meta["min_obedience_margin"]}

    def check(self, inputs, out, ref):
        rec = out.get("simulate_sqg")
        if rec is None:
            why = "no answer"
        elif rec["termination"] != "completed":
            why = f"run ended by {rec['termination']}"
        elif rec["verdict"] != "REGULAR":
            why = f"verdict {rec['verdict']}"
        elif not rec["min_obedience_margin"] > 0.0:
            why = "obedience margin not positive"
        elif ref is not None and ref["simulate_sqg"]["verdict"] != \
                rec["verdict"]:
            why = "verdict differs from the stored one"
        else:
            why = None
        return {"simulate_sqg": why}

    def check_setup(self, inputs, ref):
        B = inputs["B"]
        why = None
        if not (math.isfinite(B) and B >= 1.0):
            why = f"certified B = {B!r}"
        elif ref is not None and B != ref["find_B"]["B"]:
            why = f"certified B = {B!r}, stored {ref['find_B']['B']!r}"
        return {"find_B": why}


class Ladder(Workload):
    """find_B_for_data for one field at five amplitudes."""

    name = "ladder"

    def setup(self, seed, tiny):
        n, kmax = (64, 8) if tiny else (256, 20)
        base = fields.ScalarField1D.random_band_limited(
            n, kmax=kmax, amplitude=1.0, seed=seed)
        lams = (0.05, 0.1) if tiny else (0.05, 0.1, 0.2, 0.4, 0.8)
        return {"sym": symbols.make_symbol("power", a=1.0),
                "kappa": 0.1, "gamma": 0.01, "lambda": lams,
                "fields": [fields.ScalarField1D(lam * base.values)
                           for lam in lams]}

    def ops(self, inputs):
        return [f"find_B lambda={lam}" for lam in inputs["lambda"]]

    def solve(self, inputs, out):
        for op, fld in zip(self.ops(inputs), inputs["fields"]):
            out[op] = {"B": moduli.find_B_for_data(
                fld, inputs["sym"], kappa=inputs["kappa"],
                gamma=inputs["gamma"])}

    def check(self, inputs, out, ref):
        res = {}
        prev = None
        for op, fld in zip(self.ops(inputs), inputs["fields"]):
            if op not in out:
                res[op] = "no answer"
                prev = None
                continue
            B = out[op]["B"]
            mem = moduli.build_modulus(inputs["sym"], inputs["kappa"],
                                       inputs["gamma"], B)
            if prev is not None and not B > prev:
                res[op] = f"B = {B!r} does not increase with lambda"
            elif not moduli.check_obeys(fld, mem).margin > 0.0:
                res[op] = f"field does not obey the member at B = {B!r}"
            elif ref is not None and B != ref[op]["B"]:
                res[op] = f"certified B = {B!r}, stored {ref[op]['B']!r}"
            else:
                res[op] = None
            prev = B
        return res


WORKLOADS = {w.name: w for w in (Certify(), Blowup(), SqgMonitored(),
                                 Ladder())}
