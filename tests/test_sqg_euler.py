import numpy as np
from numpy.testing import assert_allclose

from moclab.fields import ScalarField2D
from moclab.moduli import StratifiedPairSearch, build_modulus, check_obeys
from moclab.sqg_euler import ObedienceMonitor
from moclab.symbols import make_symbol

CRITICAL = make_symbol("power", a=1.0)


def _member_and_field():
    mem = build_modulus(CRITICAL, 0.1, 0.01, 2.0 ** 10)
    fld = ScalarField2D.random_band_limited(32, kmax=6, amplitude=0.05,
                                            seed=3)
    return mem, fld


def test_monitor_full_sweep_equals_pair_search():
    mem, fld = _member_and_field()
    monitor = ObedienceMonitor(mem, 32, full_every=1)
    search = StratifiedPairSearch(32, mem.omega, directions=32,
                                  separations_per_decade=8)
    swept = []
    for scale in (1.0, 4.0, 0.5):
        moved = ScalarField2D(scale * fld.values)
        swept.append(search.run(moved).margin)
        assert monitor.margin(moved) == swept[-1]
    assert monitor.min_margin == min(swept)

def test_check_obeys_scalar_only_callable_matches_member():
    mem, fld = _member_and_field()

    def scalar_only(xi):
        if np.ndim(xi):
            raise TypeError("scalars only")
        return float(mem.omega(xi))

    via_member = check_obeys(fld, mem, directions=16,
                             separations_per_decade=6)
    via_callable = check_obeys(fld, scalar_only, directions=16,
                               separations_per_decade=6)
    assert_allclose(via_callable.margin, via_member.margin, rtol=1e-13)
    assert via_callable.worst_separation == via_member.worst_separation
