"""Every refusal of a bad input, by exception type and message.

One case per refusal that no other test reaches by its message: each
entry point refuses its bad input by name instead of computing on it.
"""
import numpy as np
import pytest

from moclab import burgers, certificates, moduli, sqg_euler
from moclab.fields import ScalarField1D, ScalarField2D, velocity_multipliers
from moclab.records import RunRecord
from moclab.symbols import (make_multiplier, make_symbol, symbol_from_json,
                            symbol_from_multiplier, symbol_from_table)

CRITICAL = make_symbol("power", a=1.0)
MEMBER = moduli.build_modulus(CRITICAL, 0.1, 0.01, 1.0)
P15 = make_multiplier("power", s=1.5)
RADII = np.geomspace(1e-3, 1.0, 6)


def _bound(log_B):
    t = np.linspace(0.0, 1.0, len(log_B))
    return sqg_euler.EulerBound(A=1.0, C=1.0, t=t, log_B=np.asarray(log_B))


REFUSALS = {
    "power alpha != a": (
        lambda: make_symbol("power", a=0.5, alpha=0.7),
        ValueError, "power family has tail exponent a"),
    "log a outside (0, 1]": (
        lambda: make_symbol("log", a=1.5),
        ValueError, "log family needs a in (0, 1]"),
    "log alpha outside (0, 1)": (
        lambda: make_symbol("log", a=1.0, alpha=1.0),
        ValueError, "log family tail exponent must lie in (0, 1)"),
    "table radii unordered": (
        lambda: symbol_from_table(RADII[::-1], RADII),
        ValueError, "radii must be positive and strictly increasing"),
    "table tail exponent not positive": (
        lambda: symbol_from_table(RADII, 1.0 / RADII, alpha=0.0),
        ValueError, "tail exponent must come out positive"),
    "json unknown family": (
        lambda: symbol_from_json({"family": "callable"}),
        ValueError, "cannot rebuild symbol family 'callable'"),
    "multiplier exponent outside (0, 1]": (
        lambda: symbol_from_multiplier(make_multiplier("constant", c=1.0)),
        ValueError, "multiplier growth exponent outside (0, 1]"),
    "velocity law unknown": (
        lambda: velocity_multipliers(8, "euler"),
        ValueError, "unknown velocity law: 'euler'"),
    "1-D field shape": (
        lambda: ScalarField1D(np.zeros(5)),
        ValueError, "need a 1-D array of even length >= 4"),
    "2-D field shape": (
        lambda: ScalarField2D(np.zeros((4, 6))),
        ValueError, "need a square array of even size"),
    "kernel density negative": (
        lambda: burgers.kernel_mass(lambda r: -r ** -0.5),
        ValueError, "kernel density must be nonnegative"),
    "comparison constant negative": (
        lambda: burgers.comparison_lyapunov(0.5, 1.0, -1.0),
        ValueError, "comparison constant must be nonnegative"),
    "obedience of a non-field": (
        lambda: moduli.check_obeys(np.zeros(8), MEMBER),
        TypeError, "unsupported field type: ndarray"),
    "pair search at another N": (
        lambda: moduli.StratifiedPairSearch(16, MEMBER.omega).run(
            ScalarField2D(np.zeros((8, 8)))),
        ValueError, "field resolution does not match the search grid"),
    "omega_prime at 0": (
        lambda: MEMBER.omega_prime(0.0),
        ValueError, "slope evaluated at non-positive separation"),
    "omega_second below 0": (
        lambda: MEMBER.omega_second(np.array([0.5, -1.0])),
        ValueError, "curvature evaluated at non-positive separation"),
    "omega at a non-finite separation": (
        lambda: MEMBER.omega(np.inf),
        ValueError, "modulus evaluated at a non-finite separation"),
    "modulus not callable": (
        lambda: moduli._omega_fn(3.0),
        TypeError, "cannot evaluate float"),
    "dissipation at 0": (
        lambda: certificates.burgers_criterion(MEMBER, [0.0, 0.5]),
        ValueError, "criterion evaluated at non-positive separation"),
    "sqg on 1-D data": (
        lambda: sqg_euler.simulate_sqg(
            ScalarField1D(np.zeros(8)), 0.1, P=P15),
        TypeError, "need a ScalarField2D initial condition"),
    "bound with A = 0": (
        lambda: sqg_euler.gradient_bound_ode(P15, 0.0, 1.0, 1.0),
        ValueError, "need A > 0 and C >= 0"),
    "bound with C < 0": (
        lambda: sqg_euler.gradient_bound_ode(P15, 1.0, -1.0, 1.0),
        ValueError, "need A > 0 and C >= 0"),
    "bound not starting at 1": (
        lambda: _bound([0.1, 0.2]),
        ValueError, "comparison bound must start at B(0) = 1"),
    "bound decreasing": (
        lambda: _bound([0.0, 0.5, 0.2]),
        ValueError, "comparison bound must be non-decreasing"),
    "bound read past its blow-up": (
        lambda: sqg_euler.gradient_bound_ode(P15, 1.0, 1.0, 1.0).at(0.3),
        ValueError, "comparison bound blew up inside the horizon"),
    "experiment on zero data": (
        lambda: sqg_euler.euler_regularity_experiment(
            ScalarField2D(np.zeros((8, 8))), P15, 0.1),
        ValueError, "data constant A vanished"),
    "record columns unequal": (
        lambda: RunRecord(equation="x", columns=("t", "a"),
                          series={"t": [0.0, 1.0], "a": [1.0]}),
        ValueError, "series columns have unequal lengths"),
}


# every public certificate function, on a modulus: each takes a family
# member alone, whose tails are closed forms
CERTIFICATES = {
    "sqg_criterion": lambda m: certificates.sqg_criterion(m),
    "burgers_criterion": lambda m: certificates.burgers_criterion(m),
}


class _OmegaMethod:
    # a member's omega, on an object that is no member
    omega = staticmethod(MEMBER.omega)


@pytest.mark.parametrize("modulus, kind", [(np.sqrt, "ufunc"),
                                           (_OmegaMethod(), "_OmegaMethod")],
                         ids=["callable", "omega method"])
@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_a_certificate_refuses_a_non_member_by_name(name, modulus, kind):
    with pytest.raises(TypeError) as info:
        CERTIFICATES[name](modulus)
    assert str(info.value) == f"{name} takes a ModulusMember, got {kind}"


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_bad_input_is_refused_by_name(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert info.type is error
    assert fragment in str(info.value)
