import functools
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from moclab import (burgers, certificates, kernels, moduli, records,
                    sqg_euler, symbols)
from moclab.fields import ScalarField1D, ScalarField2D
from moclab.records import (
    UNRESOLVED,
    VERDICTS,
    RunRecord,
    load_checkpoint,
    save_checkpoint,
    to_csv,
    to_dict,
    write_json_atomic,
)


def sample_record():
    t = np.linspace(0.0, 1.0, 5)
    return RunRecord(
        equation="burgers",
        columns=("t", "linf"),
        series={"t": t, "linf": np.exp(-t)},
        meta={"N": 64, "note": "sample", "grid": [1, 2]},
    )


def test_record_basics():
    rec = sample_record()
    assert len(rec) == 5
    assert rec.verdict == UNRESOLVED
    assert rec.verdict in VERDICTS
    assert_array_equal(rec.t, rec["t"])


def test_record_requires_time_first():
    with pytest.raises(ValueError):
        RunRecord(equation="burgers", columns=("linf", "t"),
                  series={"linf": np.ones(2), "t": np.zeros(2)})


def test_record_csv_round_trip():
    rec = sample_record()
    parsed = np.genfromtxt(io.StringIO(to_csv(rec.series)), delimiter=",",
                           names=True)
    assert parsed.dtype.names == ("t", "linf")
    assert_array_equal(parsed["linf"], rec["linf"])


def test_csv_refuses_unequal_columns():
    with pytest.raises(ValueError, match="unequal"):
        to_csv({"t": [0.0, 1.0], "x": [1.0]})


def test_record_dict_keeps_meta_and_leaves_out_live_state():
    rec = sample_record()
    rec.final_state = ScalarField1D(np.ones(8))
    doc = to_dict(rec)
    assert doc["equation"] == "burgers"
    assert doc["verdict"] == UNRESOLVED
    assert doc["columns"] == ["t", "linf"]
    assert doc["series"]["linf"] == rec["linf"].tolist()
    assert doc["meta"] == {"N": 64, "note": "sample", "grid": [1, 2]}
    assert "final_state" not in doc


def test_dict_nulls_non_finite_and_lists_arrays():
    rec = RunRecord(equation="burgers", columns=(), series={},
                    meta={"N": np.int64(3), "t_floor": math.nan},
                    wall_time=np.float64(1.5))
    doc = to_dict(rec)
    assert doc == {"equation": "burgers", "columns": [], "series": {},
                   "verdict": UNRESOLVED, "termination": "completed",
                   "meta": {"N": 3, "t_floor": None}, "wall_time": 1.5,
                   "final_state": None}
    assert type(doc["wall_time"]) is float and type(doc["meta"]["N"]) is int
    osg = sqg_euler.OsgoodReport(
        M_values=np.array([1.0, 10.0]), partials=np.array([0.0, math.inf]),
        decade_increments=np.array([[1.0, -math.inf]]),
        tail_ratios=np.array([], dtype=float), classification="ambiguous",
        window=(0.96, 0.9))
    assert to_dict(osg) == {
        "M_values": [1.0, 10.0], "partials": [0.0, None],
        "decade_increments": [[1.0, None]], "tail_ratios": [],
        "classification": "ambiguous", "window": [0.96, 0.9]}


def test_dict_refuses_what_it_cannot_represent_by_field_name():
    @dataclass
    class StandIn:
        omega_fn: object
        sym: object

    plain = StandIn(omega_fn=math.sqrt, sym=symbols.make_symbol("power", a=0.5))
    with pytest.raises(TypeError, match=r"StandIn\.omega_fn"):
        to_dict(plain)
    rec = sample_record()
    rec.meta["spectrum"] = np.zeros(2, complex)
    with pytest.raises(TypeError, match=r"RunRecord\.meta\['spectrum'\]"):
        to_dict(rec)


def test_dict_of_symbol_member_and_multiplier_is_their_round_trip_form():
    sym = symbols.make_symbol("log", a=1.0, alpha=0.5)
    mem = moduli.build_modulus(sym, 0.05, 0.01, 32.0)
    P = symbols.make_multiplier("loglog", g=1.0)
    for obj in (sym, mem, P):
        assert to_dict(obj) == obj.to_dict()
    doc = json.loads(json.dumps(to_dict(mem)))
    back = moduli.build_modulus(symbols.symbol_from_json(doc["symbol"]),
                                doc["kappa"], doc["gamma"], doc["B"])
    assert back.delta == pytest.approx(mem.delta, rel=1e-12)


def test_atomic_writers(tmp_path):
    p = tmp_path / "doc.json"
    write_json_atomic(p, {"b": 1, "a": [1.5, None]})
    assert os.listdir(tmp_path) == ["doc.json"]
    doc = json.loads(p.read_text())
    assert doc == {"a": [1.5, None], "b": 1}
    assert p.read_text().index('"a"') < p.read_text().index('"b"')


@pytest.mark.parametrize("make", [
    lambda: ScalarField1D.random_band_limited(64, 6, 1.0, seed=1),
    lambda: ScalarField2D.random_band_limited(32, 6, 1.0, seed=2),
])
def test_checkpoint_round_trip(tmp_path, make):
    fld = make()
    path = tmp_path / "state.ck"
    save_checkpoint(path, fld, 0.375, meta={"step": 12})
    back, t, meta = load_checkpoint(path)
    assert t == 0.375
    assert meta["step"] == 12
    assert type(back) is type(fld)
    # the spectrum is stored verbatim; values pass through one irfft
    assert np.max(np.abs(back.values - fld.values)) < 1e-14


# ---------------------------------------------------------------------------
# every report the library returns, through the one converter
# ---------------------------------------------------------------------------

HALF = symbols.make_symbol("power", a=0.5)
CRITICAL_2D = symbols.make_symbol(
    "power", a=1.0, scale=kernels.fractional_normalization(2, 1.0))
XI = certificates.default_xi_grid(1e-2, 1e1, 2)


@functools.lru_cache(maxsize=None)
def _member():
    return moduli.build_modulus(CRITICAL_2D, 0.05, 0.01, 1.0)


@functools.lru_cache(maxsize=None)
def _field_2d():
    return ScalarField2D.random_band_limited(32, 4, 1.0, seed=1)


@functools.lru_cache(maxsize=None)
def _instrumentation():
    return burgers.compute_Lw(HALF)


@functools.lru_cache(maxsize=None)
def _design():
    return burgers.design_blowup_data(HALF, N=256,
                                      instrumentation=_instrumentation())


@functools.lru_cache(maxsize=None)
def _burgers_run():
    fld = _design().field
    return burgers.simulate_burgers(fld, 0.02, sym=HALF,
                                    grad_stop=50.0 * fld.grad_linf())


def _constant_verdict():
    rec = burgers.simulate_burgers(ScalarField1D(np.full(64, 0.3)), 0.1,
                                   sym=HALF)
    return burgers.detect_blowup(rec)


def _2d_run(simulate):
    return simulate(ScalarField2D.random_band_limited(32, 4, 0.05, seed=2),
                    0.02, P=symbols.make_multiplier("power", s=1.0))


REPORTS = {
    "CertificateReport-sqg": lambda: certificates.sqg_criterion(
        _member(), certificates.DEFAULT_A, XI),
    "CertificateReport-burgers": lambda: certificates.burgers_criterion(
        _member(), XI),
    "BlowupInstrumentation": _instrumentation,
    "DesignReport": _design,
    "VerdictReport": lambda: burgers.detect_blowup(
        _burgers_run(), _instrumentation(), grad_factor=50.0),
    "VerdictReport-constant": _constant_verdict,
    "ObedienceReport": lambda: moduli.check_obeys(
        ScalarField1D.random_band_limited(64, 6, 0.05, seed=1), _member()),
    "ConditionReport": lambda: symbols.check_conditions(HALF),
    "OsgoodReport": lambda: sqg_euler.osgood_check(
        symbols.make_multiplier("loglog", g=1.0)),
    "EulerBound": lambda: sqg_euler.gradient_bound_ode(
        symbols.make_multiplier("power", s=1.5), 1.0, 1.0, 1.0),
    "EulerExperimentReport": lambda: sqg_euler.euler_regularity_experiment(
        _field_2d(), symbols.make_multiplier("loglog", g=1.0), 0.5),
    "RunRecord-burgers": _burgers_run,
    "RunRecord-sqg": lambda: _2d_run(sqg_euler.simulate_sqg),
    "RunRecord-p_euler": lambda: _2d_run(sqg_euler.simulate_p_euler),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_report_is_strict_json_with_its_verdict(name):
    rep = REPORTS[name]()
    assert type(rep).__name__ == name.split("-")[0]
    doc = json.loads(json.dumps(to_dict(rep), allow_nan=False))
    for key in records.VERDICT_KEYS:
        assert (key in doc) == hasattr(rep, key), key
        if key in doc:
            assert doc[key] == getattr(rep, key), key
    if name.startswith("CertificateReport"):
        assert {"passed", "worst_xi", "worst_margin"} <= set(doc)
    for live in ("field", "final_state"):
        assert live not in doc
    if name == "EulerExperimentReport":
        assert "final_state" not in doc["record"]
        assert doc["bound"]["osgood"]["classification"] == \
            rep.bound.osgood.classification
