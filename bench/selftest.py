"""Self-test of the benchmark (not part of the repository's test suite).

    python3 bench/selftest.py

Checks, on small inputs, that one run emits every metric BENCHMARK.json
names with its unit, that a perturbed answer counts as a failed op, and
that the tracer patches every site of a traced name and restores it.
Exits non-zero on the first failure.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import run  # sets the thread variables before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(cond, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def _declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_smoke_emits_every_metric() -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all",
             "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
             "--tiny"], capture_output=True, text=True, timeout=600, cwd=ROOT)
        expect(proc.returncode == 0, f"tiny run failed: {proc.stderr}")
        lines = [json.loads(x) for x in proc.stdout.splitlines()]
        per_wl = [x for x in lines if "workload" in x]
        expect(len(per_wl) == len(run.WORKLOAD_NAMES),
               "one result line per workload")
        for res in per_wl + [lines[-1]]:
            expect(set(res) >= {"correct", "attempted", "failed", "metrics"},
                   "result keys")
        expect(set(lines[-1]) == {"correct", "attempted", "failed",
                                  "metrics"}, "last line has exactly the keys")
        want = _declared(kind)
        for res in per_wl:
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{res['workload']} trace={trace} metrics "
                                f"differ: {set(got) ^ set(want)}")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{res['workload']} trace={trace}: {res}")
        if trace:
            for res in per_wl:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                gap = abs(m["trace.solve_s"] - m["trace.self_sum_s"])
                expect(gap <= m["trace.unattributed_s"] + 1e-3,
                       f"{res['workload']}: self times do not add up")


def _failures(results: dict) -> set:
    return {op for op, why in results.items() if why is not None}


def test_perturbed_answers_fail() -> None:
    wls = run._import_workloads().WORKLOADS
    for name, wl in wls.items():
        inputs = wl.setup(2, tiny=True)
        out = {}
        wl.solve(inputs, out)
        ref = copy.deepcopy(out)
        if name == "sqg_monitored":
            ref["find_B"] = {"B": inputs["B"]}
        expect(not _failures(wl.check(inputs, out, ref)),
               f"{name}: answers fail against themselves")
        expect(not _failures(wl.check_setup(inputs, ref)),
               f"{name}: set-up fails against itself")

        bad = copy.deepcopy(ref)
        if name == "certify":
            op = "sqg@B=2^0"
            r = bad[op]
            r["margin"][3] += 3.0 * (2.0 * r["margin_err"][3]) + 1e-300
            expect(_failures(wl.check(inputs, out, bad)) == {op},
                   "a margin shifted past its margin_err must fail")
        elif name == "blowup":
            lw = bad["compute_Lw"]
            lw["kernel_functional"] *= 1.0 + 4.0 * (
                2.0 * lw["integral_error"] + 8.0 * 2.0 ** -52)
            bad["detect N=2048"]["verdict"] = "REGULAR"
            expect(_failures(wl.check(inputs, out, bad))
                   == {"compute_Lw", "detect N=2048"},
                   "a kernel functional off its error bar and a changed "
                   "verdict must fail")
        elif name == "sqg_monitored":
            bad["find_B"]["B"] *= 2.0
            expect(_failures(wl.check_setup(inputs, bad)) == {"find_B"},
                   "a certified B one rung off must fail")
            bad["simulate_sqg"]["verdict"] = "UNRESOLVED"
            expect(_failures(wl.check(inputs, out, bad)) == {"simulate_sqg"},
                   "a changed verdict must fail")
        elif name == "ladder":
            op = wl.ops(inputs)[-1]
            bad[op]["B"] /= 2.0
            expect(_failures(wl.check(inputs, out, bad)) == {op},
                   "a ladder B one rung off must fail")
            wrong = copy.deepcopy(out)
            wrong[op]["B"] = wrong[wl.ops(inputs)[0]]["B"]
            expect(op in _failures(wl.check(inputs, wrong, None)),
                   "a B that does not increase with lambda must fail")

        missing = dict(list(out.items())[:-1])
        tally = run.Tally()
        run._checked(wl, inputs, missing, "RuntimeError: boom", None, tally,
                     "")
        expect(tally.failed >= 1 and any("raised RuntimeError" in r
                                         for r in tally.reasons),
               f"{name}: an op that raised must count as failed")


def test_tracer_patches_and_restores() -> None:
    run._import_workloads()
    import layertrace
    from moclab import certificates, moduli, symbols

    tracer = layertrace.Tracer(layertrace.moclab_targets())
    sites = tracer.sites()
    for key in ("DissipationSymbol.m", "DissipationSymbol.__call__",
                "moclab.moduli.quad", "moclab.moduli.build_modulus",
                "moclab.certificates.build_modulus",
                "moclab.burgers.panel_nodes", "moclab.moduli.panel_nodes",
                "moclab.burgers.multiplier_of_symbol_1d"):
        expect(key in sites, f"{key} is not a traced site")
    originals = {k: v[2] for k, v in sites.items()}
    tracer.install()
    try:
        expect(all(vars(o)[n] is not originals[k]
                   for k, (o, n, _, _) in sites.items()),
               "every site is patched while installed")
        expect(symbols.DissipationSymbol.__call__
               is symbols.DissipationSymbol.m, "alias kept as one wrapper")
        expect(moduli.build_modulus is certificates.build_modulus,
               "one wrapper per traced function")
    finally:
        tracer.uninstall()
    expect(not layertrace.unrestored(sites), "every site restored")


def main() -> int:
    for test in (test_tracer_patches_and_restores,
                 test_perturbed_answers_fail,
                 test_smoke_emits_every_metric):
        test()
        print(f"ok {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
