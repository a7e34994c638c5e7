"""The library API under a derandomised fuzz: every call returns finite
numbers or raises a DotxError.

Floats come from a list of edges (0, +-5e-324, 1e-154, where d^2
underflows, 1 - 1e-12, the smallest b accepted, 745, where exp(-x)
underflows, 1.35e154, where d^2 overflows, the largest float, +-inf and
nan), from log-uniform draws of either sign, and from any float.  The
documented non-finite results are the -inf `coulomb_term` where exp(2 x2)
overflows, and `efield_switch`'s nan where no switch exists and inf where
E* is past the float range.  A singular sweep row is nan past x.  The
switch searches and the scenario also draw ranges and fields near the GaAs
switches, so that some calls find one.  The oracle draws those fields too,
and a complete report of it is finite.
"""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from dotx.closed_form import efield_switch, exchange_energy, exchange_energy_lab, overlap
from dotx.errors import DotxError
from dotx.oracle import assemble_oracle
from dotx.special import QuadratureSpec, bessel_i0e
from dotx.sweeps import SweepSpec, find_switch, scan_switches, switching_scenario
from dotx.units import GAAS, FieldConfig, MaterialParams, bohr_radius_nm

from conftest import sweep_both

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-154, 1.0 - 1e-12, 745.0, 1.35e154,
         sys.float_info.max, math.inf, -math.inf, math.nan]

FLOATS = st.one_of(
    st.sampled_from(EDGES),
    st.builds(lambda sign, t: sign * 10.0**t, st.sampled_from([1.0, -1.0]),
              st.floats(-323.0, 308.0)),
    st.floats(),
)

# Each field of a material is an edge, a draw, or GaAs's own value.
MATERIALS = st.one_of(
    st.just(GAAS),
    st.builds(
        MaterialParams,
        st.one_of(st.just(0.067), FLOATS),
        st.one_of(st.just(13.1), FLOATS),
        st.one_of(st.just(3.0), FLOATS),
        st.one_of(st.none(), FLOATS),
    ),
)


def spread(lo, hi):
    """Floats over [lo, hi], drawn as a fraction so that they spread over the
    range rather than crowd its ends."""
    return st.floats(0.0, 1.0).map(lambda u: lo + (hi - lo) * u)


# Fields near the GaAs switches (B in 0-10 T, E in 0-2e5 V/m, a near a_B),
# or anywhere.
FIELDS = st.builds(
    FieldConfig,
    st.one_of(st.floats(0.0, 10.0), FLOATS),
    st.one_of(st.floats(0.0, 2e5), FLOATS),
    st.one_of(st.floats(0.1, 2.0).map(lambda t: t * bohr_radius_nm(GAAS)), FLOATS),
)

FUZZ = settings(derandomize=True, database=None, deadline=None)


def finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def assert_breakdown_finite(bd):
    for name, value in bd._asdict().items():
        assert finite(value) or (name == "coulomb_term" and value == -math.inf), (name, bd)


def assert_switch_finite(point):
    assert finite(point.value) and finite(point.residual), point
    assert all(finite(v) for v in point.bracket + point.final_bracket), point


def outcome(call, *args):
    """call(*args), or None where it raises a DotxError."""
    try:
        return call(*args)
    except DotxError:
        return None


@settings(FUZZ, max_examples=500)
@given(FLOATS, FLOATS, FLOATS, FLOATS, st.one_of(st.just(1.0), FLOATS))
def test_exchange_energy(b, d, c, chi, scale):
    bd = outcome(exchange_energy, b, d, c, chi, scale)
    if bd is not None:
        assert_breakdown_finite(bd)


@settings(FUZZ, max_examples=300)
@given(FLOATS, FLOATS)
def test_overlap(b, d):
    s = outcome(overlap, b, d)
    assert s is None or (finite(s) and 0.0 <= s <= 1.0), s


@settings(FUZZ, max_examples=500)
@given(MATERIALS, FIELDS)
def test_exchange_energy_lab(mat, fields):
    bd = outcome(exchange_energy_lab, mat, fields)
    if bd is not None:
        assert_breakdown_finite(bd)


@settings(FUZZ, max_examples=300)
@given(MATERIALS, FIELDS)
def test_efield_switch(mat, fields):
    e_star = outcome(efield_switch, mat, fields.B, fields.a)
    assert e_star is None or finite(e_star) or math.isnan(e_star) or e_star == math.inf, e_star


@settings(FUZZ, max_examples=200)
@given(FLOATS)
def test_bessel_i0e(x):
    value = outcome(bessel_i0e, x)
    assert value is None or (finite(value) and value >= 0.0), value


@settings(FUZZ, max_examples=150)
@given(st.sampled_from(["B", "E", "d"]), FLOATS, FLOATS, st.integers(2, 9), MATERIALS, FIELDS)
def test_sweep_on_both_paths(vary, x, y, steps, mat, fields):
    start, stop = (x, y) if x < y else (y, x)
    spec = SweepSpec(vary, start, stop, steps, fields, mat)
    rows = outcome(sweep_both, spec)  # the two paths agree, or raise the same error
    for row in rows or []:
        assert finite(row.x), row
        if not row.singular:
            assert all(finite(v) for v in row[1:6] + row[7:10]), row
            assert finite(row.coulomb_term) or row.coulomb_term == -math.inf, row


AXES = st.sampled_from(["B", "E", "d"])


def near_range(axis):
    """A range (x, y) on the axis's scale near the GaAs switches (1 T, 5e4 V/m,
    0.5 a_B)."""
    scale = {"B": 1.0, "E": 5e4, "d": 0.5}[axis]
    return st.tuples(spread(0.1, 1.0), spread(1.0, 4.0)).map(
        lambda ends: (scale * ends[0], scale * ends[1])
    )


def scan_range(axis):
    """(axis, (x, y)): a `near_range`, or any two floats."""
    return st.tuples(st.just(axis), st.one_of(near_range(axis), st.tuples(FLOATS, FLOATS)))


# Fields where GaAs has a switch on each axis's near range, or any.
NEAR_FIELDS = st.builds(FieldConfig, spread(1.5, 5.0), spread(0.0, 5e4),
                        spread(0.5, 1.0).map(lambda t: t * bohr_radius_nm(GAAS)))
SWITCH_FIELDS = st.one_of(NEAR_FIELDS, FIELDS)


@settings(FUZZ, max_examples=150)
@given(st.one_of(
    # all four parts near a GaAs switch, which independent draws rarely are at once
    st.tuples(AXES.flatmap(lambda axis: st.tuples(st.just(axis), near_range(axis))),
              st.just(1e-9), st.just(GAAS), NEAR_FIELDS),
    st.tuples(AXES.flatmap(scan_range), st.one_of(st.just(1e-9), FLOATS), MATERIALS, SWITCH_FIELDS),
))
def test_find_switch(case):
    (axis, (x, y)), tol, mat, fields = case
    point = outcome(find_switch, axis, mat, fields, (x, y) if x < y else (y, x), tol)
    if point is not None:
        assert_switch_finite(point)


@settings(FUZZ, max_examples=400)
@given(AXES.flatmap(scan_range), st.integers(2, 25),
       st.one_of(st.just(1e-9), FLOATS), MATERIALS, SWITCH_FIELDS)
def test_scan_switches(axis_range, scan_steps, tol, mat, fields):
    axis, (x, y) = axis_range
    lo, hi = (x, y) if x < y else (y, x)
    for point in outcome(scan_switches, axis, mat, fields, lo, hi, scan_steps, tol) or []:
        assert_switch_finite(point)


@settings(FUZZ, max_examples=200)
@given(MATERIALS,
       # a, B and the E limit near the GaAs switches (a in 0.5-1 a_B, B in
       # 2-10 T, E* below 1e7 V/m), or anywhere
       st.one_of(spread(0.5, 1.0).map(lambda t: t * bohr_radius_nm(GAAS)),
                 FIELDS.map(lambda fields: fields.a)),
       st.one_of(spread(2.0, 10.0), FLOATS),
       st.one_of(spread(5.5, 7.0).map(lambda t: 10.0**t), FLOATS),
       st.integers(1, 6))
def test_switching_scenario(mat, a_nm, b_operating, e_limit, steps_per_phase):
    result = outcome(switching_scenario, mat, a_nm, b_operating, e_limit, steps_per_phase)
    if result is not None:
        assert_switch_finite(result.b_switch)
        assert_switch_finite(result.e_switch)
        for step in result.steps:
            assert finite(step.B) and finite(step.E) and finite(step.j_mev), step


@settings(FUZZ, max_examples=400)
@given(MATERIALS, SWITCH_FIELDS,
       st.one_of(st.none(),
                 st.builds(QuadratureSpec, st.integers(4, 12), st.sampled_from([1e-10, 1e-15, 0.5]))))
def test_assemble_oracle(mat, fields, quad):
    hb = outcome(assemble_oracle, mat, fields, quad)
    if hb is not None and not hb.incomplete:
        terms = [x for est in hb.upsilon.values() for x in est]
        values = [hb.s_num, hb.j_oracle, hb.j_error, hb.j_closed_form, hb.rel_discrepancy] + terms
        assert all(finite(v) for v in values), hb
