"""moclab benchmark: time to a certificate, verdict or certified B.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

``--workload`` is one of certify, blowup, sqg_monitored, ladder, or ``all``
(every workload, one after another in this process). With ``--trace 0``
the last line of standard output is one JSON object whose metrics are the
end-to-end ones (setup_s, solve_s, peak_rss_mb); with ``--trace 1`` they
are the per-layer ones from a traced run (see ``layertrace.py``). The line
before it carries the details: every solve sample, the error rate and the
provenance of the result.

Timed passes repeat until ``--seconds`` have elapsed (at least one pass),
and ``solve_s`` is their median. ``setup_s`` is the median of three fresh
interpreters, each importing moclab and building the inputs, run one after
another. Both are rescaled to a reference machine speed (``SpeedProbe``).
Every answer of every pass is checked; ``failed`` counts the ops whose
answer raised or failed a check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is imported anywhere: one thread per BLAS/OpenMP pool
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify", "blowup", "sqg_monitored", "ladder")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
SLICE_INTERVAL_S = 0.02
REF_SLICE_S = 200e-6


def _import_workloads():
    if not (SRC / "moclab").is_dir():
        raise SystemExit(f"bench: no moclab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def _reference(name: str, seed: int, tiny: bool):
    """Stored answers for this workload and seed, or None."""
    if tiny:
        return None
    entry = json.loads((HERE / "reference.json").read_text())[name]
    if entry["seed"] is not None and entry["seed"] != seed:
        return None
    return entry["outputs"]


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Samples of the machine's speed, taken inside the timed sections.

    On a shared host the speed of one core drifts by up to 1.5x over tens
    of seconds, which is far more than the changes the benchmark must
    resolve. While the probe is entered, a SIGALRM handler in this thread
    times a fixed slice of work every ``SLICE_INTERVAL_S`` of wall time
    (about 1% of it). ``rescale`` removes the slices from a section's wall
    time and rescales the rest to the speed at which one slice takes
    ``REF_SLICE_S``.

    The slice is an rfft/irfft round trip of 8192 points (the spectral
    steppers' kind of work) and ten scalar calls through small-array numpy
    code (the symbol and modulus evaluations' kind). Of six candidate
    kernels timed alongside the workloads, these two tracked them best; a
    pure Python loop and a small matmul tracked them worst.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._signal = np.random.default_rng(0).standard_normal(8192)
        self.slices: list[float] = []
        self._old = None
        self._slice(None, None)   # first-call costs are not speed
        self.slices.clear()

    def _slice(self, signum, frame):
        np = self._np
        start = time.perf_counter()
        np.fft.irfft(np.fft.rfft(self._signal))
        for _ in range(10):
            r = np.atleast_1d(np.asarray(0.5, dtype=float))
            out = np.empty_like(r)
            low = r <= 1.0
            if low.any():
                out[low] = r[low] ** -1.0
        self.slices.append(time.perf_counter() - start)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S,
                         SLICE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, since: int) -> float:
        """Reference speed over the speed seen since ``len(slices)`` was
        ``since``; 1 if no slice was taken."""
        got = self.slices[since:]
        return REF_SLICE_S / statistics.fmean(got) if got else 1.0

    def rescale(self, wall: float, since: int) -> float:
        """A section's wall time without the slices, at reference speed."""
        return (wall - sum(self.slices[since:])) * self.factor(since)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int, tiny: bool) -> dict:
    """Import moclab and build the inputs in this fresh interpreter."""
    start = time.perf_counter()
    import numpy  # noqa: F401  (moclab's first import; part of set-up)
    with SpeedProbe() as probe:
        wl = _import_workloads().WORKLOADS[name]
        wl.setup(seed, tiny)
        wall = time.perf_counter() - start
        return {"setup_s": probe.rescale(wall, 0), "wall_s": wall}


def setup_samples(name: str, seed: int, tiny: bool) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed ops, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, results: dict, tag: str = "") -> None:
        for op, why in results.items():
            self.attempted += 1
            if why is not None:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{tag}{op}: {why}")


def _solve(wl, inputs, solve=None):
    """One pass; returns (seconds, answers, exception text or None)."""
    out: dict = {}
    err = None
    start = time.perf_counter()
    try:
        (solve or wl.solve)(inputs, out)
    except Exception as exc:  # a raising op is a failed op, not a crash
        err = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, err


def _checked(wl, inputs, out, err, ref, tally: Tally, tag: str) -> None:
    try:
        results = wl.check(inputs, out, ref)
    except Exception as exc:  # e.g. a returned B that no member can have
        results = dict.fromkeys(wl.ops(inputs),
                                f"check raised {type(exc).__name__}: {exc}")
    if err is not None:
        results = {op: (why if why != "no answer" else f"raised {err}")
                   for op, why in results.items()}
    tally.add(results, tag)


def run_plain(wl, seed: int, seconds: float, tiny: bool):
    ref = _reference(wl.name, seed, tiny)
    setups = setup_samples(wl.name, seed, tiny)
    inputs = wl.setup(seed, tiny)
    tally = Tally()
    tally.add(wl.check_setup(inputs, ref), "setup ")
    times, walls, factors = [], [], []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while not times or time.perf_counter() - start < seconds:
            since = len(probe.slices)
            wall, out, err = _solve(wl, inputs)
            times.append(probe.rescale(wall, since))
            walls.append(wall)
            factors.append(probe.factor(since))
            _checked(wl, inputs, out, err, ref, tally, f"pass {len(times)} ")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "solve_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {"setup_samples": setups, "solve_samples_s": times,
              "solve_wall_s": walls, "speed_factors": factors}
    return metrics, tally, detail


def run_traced(wl, seed: int, seconds: float, tiny: bool):
    """Alternate untraced and traced passes; per-layer medians."""
    import layertrace as tr

    ref = _reference(wl.name, seed, tiny)
    tracer = tr.Tracer(tr.moclab_targets())
    sites = tracer.install()           # before any input is built
    try:
        inputs = wl.setup(seed, tiny)
    finally:
        tracer.uninstall()
    tally = Tally()
    tally.add(wl.check_setup(inputs, ref), "setup ")
    # times here keep the probe's slices (about 1%) in both kinds of pass,
    # so that the spans of a traced pass add up to its time
    plain, traced, per_pass = [], [], []
    scaled_units = {"s", "ms", "us", "us/point"}
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while not traced or time.perf_counter() - start < seconds:
            since = len(probe.slices)
            dt, out_u, err_u = _solve(wl, inputs)
            plain.append(dt * probe.factor(since))
            _checked(wl, inputs, out_u, err_u, ref, tally, "untraced ")
            tracer.reset()
            tracer.install()
            since = len(probe.slices)
            try:
                dt, out_t, err_t = _solve(
                    wl, inputs,
                    lambda i, o: tracer.run_root(wl.solve, i, o))
            finally:
                tracer.uninstall()
            f = probe.factor(since)
            traced.append(dt * f)
            _checked(wl, inputs, out_t, err_t, ref, tally, "traced ")
            same = json.dumps(out_u, sort_keys=True) == \
                json.dumps(out_t, sort_keys=True)
            tally.add({"traced answers equal untraced":
                       None if same else "traced pass changed an answer"})
            per_pass.append({
                name: fn(tracer.stats) * (f if unit in scaled_units else 1.0)
                for name, unit, _, fn in tr.LAYER_METRICS})
    left = tr.unrestored(sites)
    tally.add({"tracer restored every patched attribute":
               None if not left else f"still patched: {left}"})
    units = {name: unit for name, unit, _, _ in tr.LAYER_METRICS}
    metrics = {name: (statistics.median(p[name] for p in per_pass),
                      units[name]) for name in units}
    t_med, u_med = statistics.median(traced), statistics.median(plain)
    metrics["trace.solve_s"] = (t_med, "s")
    metrics["trace.untraced_solve_s"] = (u_med, "s")
    metrics["trace.overhead_s"] = (t_med - u_med, "s")
    detail = {"traced_samples_s": traced, "untraced_samples_s": plain,
              "patched_sites": len(sites)}
    return metrics, tally, detail


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy
    import scipy

    loc = {p.stem: sum(1 for _ in p.open())
           for p in sorted((SRC / "moclab").glob("*.py"))}
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loc": loc,
        "loc_total": sum(loc.values()),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _result_line(metrics: dict, tally: Tally) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    wl = _import_workloads().WORKLOADS[name]
    runner = run_traced if trace else run_plain
    metrics, tally, detail = runner(wl, seed, seconds, tiny)
    detail.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  tiny=tiny, attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / tally.attempted,
                  failures=tally.reasons)
    return metrics, tally, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs for the self-test; not a measurement")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one set-up in this interpreter")
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, args.tiny)))
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    merged, total = {}, Tally()
    for name in names:
        metrics, tally, detail = run_one(name, args.seed, args.seconds,
                                         bool(args.trace), args.tiny)
        if len(names) > 1:
            print(json.dumps({"workload": name,
                              **_result_line(metrics, tally)}))
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        merged.update(metrics)
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.reasons += tally.reasons
        print(json.dumps({"detail": detail}))
    print(json.dumps({"provenance": provenance()}))
    print(json.dumps(_result_line(merged, total)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
