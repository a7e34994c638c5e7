"""The scalar evaluator of J along one axis, and the switch finder that uses it.

`exchange_energy_along` derives the material's constants once and then
runs only the per-point arithmetic, along E from a held chi-free part;
every value must still carry the bits of `exchange_energy_lab(...).j_mev`,
every rejected point its error, and the E evaluator's `e_star()` the E*
of `efield_switch` as written on `derive_parameters`.
Values are compared by repr, which tells nan, -inf and -0.0 apart.
"""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dotx.closed_form
import dotx.sweeps
import dotx.units as units
from dotx.cli import _switch_point_dict
from dotx.closed_form import efield_switch, exchange_energy_along, exchange_energy_lab
from dotx.errors import InvalidParameterError, RootConvergenceError
from dotx.special import bessel_i0e
from dotx.sweeps import AXIS_XTOL, brent, find_switch, scan_switches
from dotx.units import GAAS, FieldConfig, MaterialParams, bohr_radius_nm, derive_parameters

from conftest import EPS, is_final_bracket

A_B = bohr_radius_nm(GAAS)
FIXED = FieldConfig(B=1.5, E=5e4, a=0.7 * A_B)
REFERENCE = FieldConfig(B=0.0, E=0.0, a=0.7 * A_B)


def lab_fields(fixed, axis, x):
    if axis == "B":
        return fixed._replace(B=x)
    if axis == "E":
        return fixed._replace(E=x)
    return fixed._replace(a=x * A_B)


def lab_outcome(mat, fields):
    """repr of J from the lab path, or its error type and message."""
    try:
        return repr(exchange_energy_lab(mat, fields).j_mev)
    except Exception as exc:  # the comparison is of whatever the path raises
        return type(exc), str(exc)


def along_outcome(mat, fixed, axis, x):
    try:
        return repr(exchange_energy_along(mat, fixed, axis)(x))
    except Exception as exc:
        return type(exc), str(exc)


class TestMatchesLabPath:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.floats(-60.0, 60.0),
        st.floats(-1e7, 1e7),
        st.floats(1e-7, 8.0),
        st.sampled_from(["B", "E", "d"]),
    )
    def test_random_points(self, B, E, d, axis):
        fixed = FieldConfig(B=B, E=E, a=d * A_B)
        x = {"B": B, "E": E, "d": d}[axis]
        j = exchange_energy_along(GAAS, fixed, axis)
        assert repr(j(x)) == repr(exchange_energy_lab(GAAS, lab_fields(fixed, axis, x)).j_mev)

    @pytest.mark.parametrize(
        "axis, x, message",
        [
            ("d", 0.0, None),  # coincident dots
            ("d", -0.5, None),
            ("d", 1e-9, None),  # 1 - S^4 rounds to 0
            ("d", 1e-200, None),  # d^2 underflows to 0
            ("d", 1e160, None),  # d^2 overflows
            ("d", math.inf, None),
            ("d", math.nan, None),
            ("B", math.inf, None),
            ("B", math.nan, None),
            ("B", 1e300, "compression factor b must be finite and >= 1, got inf"),  # b overflows
            ("E", math.inf, None),
            ("E", -math.inf, None),
            ("E", math.nan, None),
            ("E", 1e305, None),  # chi^2 / d^2 overflows: J would be inf
        ],
    )
    def test_rejections_are_the_lab_ones(self, axis, x, message):
        want = lab_outcome(GAAS, lab_fields(FIXED, axis, x))
        if message is not None:
            with pytest.raises(InvalidParameterError, match=message):
                exchange_energy_along(GAAS, FIXED, axis)(x)
        assert along_outcome(GAAS, FIXED, axis, x) == want

    @pytest.mark.parametrize(
        "mat",
        [
            MaterialParams(effective_mass=-1.0, dielectric_const=13.1, confinement_energy=3.0),
            MaterialParams(effective_mass=0.067, dielectric_const=math.nan, confinement_energy=3.0),
            MaterialParams(effective_mass=0.067, dielectric_const=1e-320, confinement_energy=3.0),
            GAAS._replace(c_override=-1.0),
            GAAS._replace(c_override=math.inf),
            GAAS._replace(c_override=0.0),
            GAAS._replace(c_override=1.5),
        ],
    )
    @pytest.mark.parametrize("axis", ["B", "E", "d"])
    def test_material_and_c_override(self, mat, axis):
        x = {"B": 2.0, "E": 1e5, "d": 0.8}[axis]
        want = lab_outcome(mat, lab_fields(FIXED, axis, x))
        assert along_outcome(mat, FIXED, axis, x) == want

    def test_unknown_axis(self):
        with pytest.raises(InvalidParameterError, match="axis must be one of"):
            exchange_energy_along(GAAS, FIXED, "x")

    @pytest.mark.parametrize(
        "axis, name, value",
        [
            (axis, name, value)
            for axis in ("B", "E", "d")
            for name, value in [
                ("a", 0.0), ("a", -3.0), ("a", math.nan), ("a", math.inf),
                ("B", math.nan), ("B", math.inf),
                ("E", math.inf), ("E", -math.inf), ("E", math.nan), ("E", 1e305),
            ]
            if name != axis
        ],
    )
    def test_rejected_fixed_coordinate_raises_at_each_point(self, axis, name, value):
        # The evaluator maps the fixed coordinates when it is made, so a bad
        # one must raise nothing then, and at each point what the lab path
        # raises there: the moving coordinate's error where that comes
        # first, and a J where the moving coordinate replaces the bad one.
        fixed = FIXED._replace(**{name: value})
        j = exchange_energy_along(GAAS, fixed, axis)
        moving = {"B": [2.0, math.nan], "E": [1e5, math.nan], "d": [0.7, math.nan, 0.0]}[axis]
        for x in moving + moving:
            try:
                got = repr(j(x))
            except Exception as exc:  # the comparison is of whatever the path raises
                got = type(exc), str(exc)
            assert got == lab_outcome(GAAS, lab_fields(fixed, axis, x)), x
        if axis == "E":
            assert e_star_outcome(j) == reference_e_star(GAAS, fixed.B, fixed.a)

    @pytest.mark.parametrize(
        "axis, name, value, x, want",
        [
            ("B", "E", math.inf, math.nan, "B must be finite, got nan"),
            ("d", "a", -3.0, 0.7, None),
            ("B", "E", 1e305, 2.0, "chi^2/d^2 overflows"),
        ],
    )
    def test_rejected_fixed_coordinate_examples(self, axis, name, value, x, want):
        got = along_outcome(GAAS, FIXED._replace(**{name: value}), axis, x)
        assert isinstance(got, str) if want is None else want in got[1]


def recording_along(points, e_star=None):
    """`exchange_energy_along` that appends every point it evaluates to `points`;
    its E evaluator keeps `e_star()`, or returns `e_star` where that is given."""

    def along(mat, fixed, axis):
        j = exchange_energy_along(mat, fixed, axis)

        @functools.wraps(j)  # keeps the E evaluator's e_star
        def recorded(x):
            points.append(x)
            return j(x)

        if e_star is not None:
            recorded.e_star = lambda: e_star
        return recorded

    return along


class TestFindSwitchEvaluations:
    def test_valid_bracket_makes_no_lab_call(self, monkeypatch):
        def lab(*args):
            raise AssertionError("exchange_energy_lab called")

        monkeypatch.setattr(dotx.closed_form, "exchange_energy_lab", lab)
        point = find_switch("B", GAAS, REFERENCE, (0.5, 3.0))
        assert 1.2 <= point.value <= 1.5

    @pytest.mark.parametrize(
        "axis, fixed, bracket, tol, brent_runs",
        [
            ("B", REFERENCE, (0.5, 3.0), 1e-9, True),
            ("B", REFERENCE._replace(E=2e5), (0.2, 9.5), 1e-14, True),
            ("E", REFERENCE._replace(B=2.0), (0.0, 2e5), 1e-9, False),
            ("d", REFERENCE._replace(B=1.5), (0.3, 1.2), 1e-12, True),
            ("E", REFERENCE._replace(B=2.0), (0.0, 2e5), 1e-16, True),
        ],
    )
    def test_counts_every_distinct_point_once(
        self, monkeypatch, axis, fixed, bracket, tol, brent_runs
    ):
        # find_switch evaluates J at both ends and hands both to Brent (or to
        # the E axis's closed form, which evaluates E* and runs Brent only
        # where |J(E*)| > tol): no point is evaluated twice, also while
        # Brent narrows on for the residual, and |J| at the root is <= tol.
        points = []
        iterations = []

        def counting_brent(*args, **kwargs):
            result = brent(*args, **kwargs)
            iterations.append(result[3])
            return result

        monkeypatch.setattr(dotx.sweeps, "exchange_energy_along", recording_along(points))
        monkeypatch.setattr(dotx.sweeps, "brent", counting_brent)
        point = find_switch(axis, GAAS, fixed, bracket, tol=tol)
        assert point.evaluations == len(points) == len(set(points))
        assert point.residual <= tol
        assert point.iterations == sum(iterations) and bool(iterations) == brent_runs
        if not brent_runs:
            assert point.evaluations == 3 and point.iterations == 0
        # The final bracket is a sign change of J with the root at one end,
        # or (root, root) where J is exactly 0 there, and wherever Brent ran
        # it is no wider than the axis resolution.
        lo, hi = point.final_bracket
        j = exchange_energy_along(GAAS, fixed, axis)
        assert is_final_bracket(j, point.value, (lo, hi))
        if brent_runs:
            assert hi - lo <= AXIS_XTOL[axis] + 4.0 * EPS * abs(point.value)

    @pytest.mark.parametrize(
        "axis, fixed, lo, hi, switches",
        [
            ("B", REFERENCE, 0.3, 4.0, 1),
            ("B", REFERENCE._replace(E=1e5), 0.2, 9.5, 1),
            ("E", REFERENCE._replace(B=2.0), 0.0, 2e6, 1),
            ("E", REFERENCE._replace(B=2.0), -2e6, 2e6, 2),  # -E* and +E*
            ("d", REFERENCE._replace(B=1.5), 0.3, 1.2, 1),
        ],
    )
    def test_scan_evaluates_each_point_once(self, monkeypatch, axis, fixed, lo, hi, switches):
        # A scan refines each sign change with its own evaluator, from the J
        # values it gave at the bracket ends: the ends are not evaluated
        # again, and each switch is find_switch's on its bracket.
        want = [find_switch(axis, GAAS, fixed, bracket) for bracket in
                [p.bracket for p in scan_switches(axis, GAAS, fixed, lo, hi, 61)]]
        points = []
        monkeypatch.setattr(dotx.sweeps, "exchange_energy_along", recording_along(points))
        got = scan_switches(axis, GAAS, fixed, lo, hi, 61)
        assert len(got) == switches and got == want
        assert len(points) == len(set(points)) == 61 + sum(p.evaluations - 2 for p in got)

    def test_switch_dict_keeps_its_keys(self):
        point = find_switch("B", GAAS, REFERENCE, (0.5, 3.0))
        assert point.evaluations > point.iterations > 0
        assert list(_switch_point_dict(point)) == [
            "axis", "value", "bracket", "residual_mev", "direction"
        ]


def polish_residual(f, bracket, f_bracket, best_x, best_f, ftol, max_iter=200):
    """The residual polish find_switch ran after a width-only Brent: bisect
    the final bracket until |f| at the best point seen is at most ftol, or
    the ends are adjacent floats.  (best_x, f(best_x), final bracket)."""
    lo, hi = bracket
    f_lo, f_hi = f_bracket
    if abs(f_lo) <= abs(best_f):
        best_x, best_f = lo, f_lo
    if abs(f_hi) <= abs(best_f):
        best_x, best_f = hi, f_hi
    for _ in range(max_iter):
        if abs(best_f) <= ftol or hi - lo <= math.ulp(max(abs(lo), abs(hi))):
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < abs(best_f):
            best_x, best_f = mid, f_mid
        if f_mid == 0.0:
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return best_x, best_f, (lo, hi)


def brent_switch(mat, fixed, lo, hi, tol):
    """find_switch along E as it was before the closed form and the residual
    stop: a width-only Brent to the 1 V/m bracket width, then the residual
    polish.  (root, residual, direction)."""
    j = exchange_energy_along(mat, fixed, "E")
    j_lo = j(lo)
    root, j_root, bracket, _ = brent(j, lo, hi, AXIS_XTOL["E"], fa=j_lo, fb=j(hi))
    if abs(j_root) > tol:
        root, j_root, _ = polish_residual(j, bracket, tuple(map(j, bracket)), root, j_root, tol)
    return root, abs(j_root), "antiferro_to_ferro" if j_lo > 0.0 else "ferro_to_antiferro"


def outcome(run, *args):
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


def efield_switch_lab(mat, B, a):
    """efield_switch written on `derive_parameters`, as it was before it took
    b and d from the material constants: its result must keep these bits."""
    p = derive_parameters(mat, FieldConfig(B, 0.0, a))
    x2, _, _, csb, i0e_x1, i0e_x2, quartic_term, _, _ = dotx.closed_form._terms(
        p.b, p.d, p.c_coulomb, 0.0
    )
    radicand = csb * i0e_x2 - (csb * i0e_x1 + quartic_term) * math.exp(-2.0 * x2)
    if not radicand >= 0.0:
        return math.nan
    try:
        chi = p.d * math.sqrt(radicand / 1.5) * math.exp(x2)
    except OverflowError:
        return math.inf
    return chi * mat.confinement_energy * units.MEV_TO_J / (units.E_CHARGE * a * units.NM_TO_M)


def counted_switch(mat, fixed, bracket, tol=1e-9, e_star=None):
    """find_switch along E, and the points J was evaluated at; E* is
    `e_star` where that is given."""
    points = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dotx.sweeps, "exchange_energy_along", recording_along(points, e_star))
        return find_switch("E", mat, fixed, bracket, tol=tol), points


class TestEfieldSwitch:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        # Each range is drawn as a fraction so that the values spread over
        # it rather than crowd one end: B in [0, 10] T, a in [0.3, 1.5] a_B,
        # and the bracket ends relative to the root (below).
        st.floats(0.0, 1.0).map(lambda u: 10.0 * u),
        st.floats(0.0, 1.0).map(lambda u: 0.3 + 1.2 * u),
        st.just(0.0) | st.floats(0.005, 1.0).map(lambda u: -2.0 * u),
        st.floats(0.0, 1.0).map(lambda u: 0.3 + 2.7 * u),
        st.sampled_from([GAAS, GAAS._replace(c_override=1.5)]),
    )
    def test_matches_brent(self, B, a_rel, lo_rel, hi_rel, mat):
        # The bracket is drawn relative to Brent's root on [0, 1e9] (1e5 V/m
        # where there is none), so that it holds +E*, -E* or neither.
        fixed = FieldConfig(B=B, E=0.0, a=a_rel * A_B)
        wide = outcome(brent_switch, mat, fixed, 0.0, 1e9, 1e-9)
        scale = 1e5 if isinstance(wide[0], type) else wide[0]
        lo, hi = lo_rel * scale, hi_rel * scale
        want = outcome(brent_switch, mat, fixed, lo, hi, 1e-9)
        if isinstance(want[0], type):  # no sign change: the same error
            assert outcome(find_switch, "E", mat, fixed, (lo, hi)) == want
            return
        point, points = counted_switch(mat, fixed, (lo, hi))
        assert abs(point.value - want[0]) <= AXIS_XTOL["E"]
        assert point.residual <= 1e-9 and point.direction == want[2]
        assert point.iterations == 0
        # J at both ends and at whichever of +-E* lies inside; no polish
        assert point.evaluations == len(points) == len(set(points)) == 3

    @pytest.mark.parametrize("lost", [math.nan, math.inf, 0.0, 2e5, 3e5, -7e4])
    def test_polish_recovers_a_lost_closed_form(self, lost):
        # E* nan, on an end or outside the bracket: the polish bisects the
        # whole bracket; E* off the root by 5 V/m: the polish starts from it.
        fixed = REFERENCE._replace(B=2.0)
        want = brent_switch(GAAS, fixed, 0.0, 2e5, 1e-9)[0]
        point, points = counted_switch(GAAS, fixed, (0.0, 2e5), e_star=lost)
        assert abs(point.value - want) <= AXIS_XTOL["E"] and point.residual <= 1e-9
        assert point.evaluations == len(points) == len(set(points)) > 3
        point, points = counted_switch(GAAS, fixed, (0.0, 2e5), e_star=want + 5.0)
        assert abs(point.value - want) <= AXIS_XTOL["E"] and point.residual <= 1e-9
        assert points[2] == want + 5.0 and len(points) == len(set(points)) > 3

    @pytest.mark.parametrize(
        "B, a",
        [
            (math.nan, 0.7), (math.inf, 0.7), (1e300, 0.7),
            (2.0, math.inf), (2.0, math.nan), (2.0, 0.0), (2.0, -0.7), (2.0, 1e160),
        ],
    )
    def test_rejected_fixed_fields_raise_like_brent(self, B, a):
        fixed = FieldConfig(B=B, E=0.0, a=a * A_B)
        want = outcome(brent_switch, GAAS, fixed, 0.0, 2e5, 1e-9)
        assert isinstance(want[0], type)
        assert outcome(find_switch, "E", GAAS, fixed, (0.0, 2e5)) == want
        assert outcome(efield_switch, GAAS, B, a * A_B) == want

    def test_closed_form_switch(self):
        a = 0.7 * A_B
        assert math.isnan(efield_switch(GAAS, 0.0, a))  # J(B=0, E) > 0 for every E
        for B in (1.5, 2.0, 5.0, 9.0):
            e_star = efield_switch(GAAS, B, a)
            j = exchange_energy_along(GAAS, REFERENCE._replace(B=B), "E")
            assert j(0.0) < 0.0 < j(1.01 * e_star) and abs(j(e_star)) <= 1e-14
            assert j(-e_star) == j(e_star)
        # 2 x2 = 1242 at B = 60 T, a = 6 a_B: exp(2 x2) would overflow, but
        # only exp(x2) is formed; at a = 30 a_B exp(x2) itself overflows.
        assert 1e274 < efield_switch(GAAS, 60.0, 6.0 * A_B) < 1e275
        assert efield_switch(GAAS, 60.0, 30.0 * A_B) == math.inf


    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.floats(-60.0, 60.0),
        st.floats(0.0, 1.0).map(lambda u: 0.05 + 30.0 * u),
        st.sampled_from(
            [
                GAAS,
                GAAS._replace(c_override=1.5),
                MaterialParams(effective_mass=0.023, dielectric_const=15.15, confinement_energy=3.0),
            ]
        ),
    )
    def test_closed_form_switch_keeps_the_lab_bits(self, B, a_rel, mat):
        assert repr(efield_switch(mat, B, a_rel * A_B)) == repr(efield_switch_lab(mat, B, a_rel * A_B))

    @pytest.mark.parametrize(
        "B, a",
        [
            (math.nan, 0.7), (math.inf, 0.7), (1e300, 0.7), (-2.0, 0.7),
            (2.0, math.inf), (2.0, math.nan), (2.0, 0.0), (2.0, -0.7), (2.0, 1e160),
            (2.0, 1e-170), (2.0, 1e-200),
        ],
    )
    @pytest.mark.parametrize(
        "mat",
        [
            GAAS,
            MaterialParams(effective_mass=-1.0, dielectric_const=13.1, confinement_energy=3.0),
            MaterialParams(effective_mass=1e-300, dielectric_const=13.1, confinement_energy=1e-20),
        ],
    )
    def test_closed_form_switch_rejects_like_the_lab_path(self, B, a, mat):
        assert outcome(efield_switch, mat, B, a * A_B) == outcome(
            efield_switch_lab, mat, B, a * A_B
        )

    def test_switch_derives_no_parameters(self, count_derivations):
        calls = count_derivations(dotx.closed_form, units)
        for B in (1.5, 2.0, 5.0, 9.0):
            point = find_switch("E", GAAS, REFERENCE._replace(B=B), (0.0, 1.5e6))
            assert point.evaluations == 3
        assert calls == []

    @pytest.mark.parametrize(
        "B, a_rel", [(2.0, 0.7), (1.5, 1.3), (2.5, 0.5), (5.0, 0.5), (5.0, 0.7), (9.0, 0.7)]
    )
    def test_polish_starts_a_few_ulps_from_the_closed_form(self, B, a_rel):
        # At tol 1e-16 E* misses by an ulp or a few; bisecting the half-bracket
        # took about 55 evaluations to get there (53 to 59 on these points).
        fixed = FieldConfig(B=B, E=0.0, a=a_rel * A_B)
        e_star = efield_switch(GAAS, B, fixed.a)
        point, points = counted_switch(GAAS, fixed, (0.0, 1.5e6), tol=1e-16)
        assert point.residual <= 1e-16
        assert point.evaluations == len(points) == len(set(points)) <= 10
        assert abs(point.value - e_star) <= 16 * math.ulp(e_star)

    def test_polish_that_cannot_reach_tol_stops_early(self):
        fixed = FieldConfig(B=1.5, E=0.0, a=0.7 * A_B)
        points = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dotx.sweeps, "exchange_energy_along", recording_along(points))
            with pytest.raises(RootConvergenceError, match="exceeds tol 1e-16"):
                find_switch("E", GAAS, fixed, (0.0, 1.5e6), tol=1e-16)
        assert len(points) == len(set(points)) <= 10


# E values the E evaluator rejects: chi^2/d^2 overflows (after the chi-free
# part is formed), or E is not finite (before it is).
REJECTED_E = st.sampled_from([1e305, -1e305, math.inf, -math.inf, math.nan])
E_STAR = "E*"  # a step of a sequence that asks the evaluator for E*

# Materials near GaAs, so that most points are valid and some have a switch.
MATERIALS = st.one_of(
    st.just(GAAS),
    st.builds(
        MaterialParams,
        st.floats(0.02, 0.2),
        st.floats(5.0, 20.0),
        st.floats(0.5, 10.0),
        st.none() | st.floats(0.0, 5.0),
    ),
)


def e_star_outcome(j):
    try:
        return repr(j.e_star())
    except Exception as exc:
        return type(exc), str(exc)


def reference_e_star(mat, B, a):
    try:
        return repr(efield_switch_lab(mat, B, a))
    except Exception as exc:
        return type(exc), str(exc)


class TestHeldPart:
    """The E evaluator keeps the chi-free part of J from its first admitted
    point on: every later value, error and E* must be what a fresh
    evaluation gives."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        MATERIALS,
        st.floats(0.0, 10.0) | st.sampled_from([60.0, -2.0]),
        st.floats(0.3, 1.5) | st.sampled_from([6.0, 30.0]),
        REJECTED_E | st.floats(-1e7, 1e7),  # the first point, rejected or not
        st.lists(
            st.floats(-1e7, 1e7) | REJECTED_E | st.just(E_STAR), min_size=1, max_size=8
        ),
    )
    def test_sequences_keep_the_lab_outcomes(self, mat, B, a_rel, first, rest):
        # 2 x2 is 1242 at B = 60 T, a = 6 a_B (E* near 1e274 V/m), and exp(x2)
        # overflows at a = 30 a_B (E* = inf); below the B threshold E* is nan.
        fixed = FieldConfig(B=B, E=0.0, a=a_rel * bohr_radius_nm(mat))
        j = exchange_energy_along(mat, fixed, "E")
        for x in [first] + rest:
            if x == E_STAR:
                assert e_star_outcome(j) == reference_e_star(mat, B, fixed.a)
                continue
            try:
                got = repr(j(x))
            except Exception as exc:
                got = type(exc), str(exc)
            assert got == lab_outcome(mat, fixed._replace(E=x)), x
        assert e_star_outcome(j) == reference_e_star(mat, B, fixed.a)
        assert along_outcome(mat, fixed, "E", 0.0) == lab_outcome(mat, fixed)

    @pytest.mark.parametrize(
        "B, a_rel, want",
        [
            (0.0, 0.7, "nan"),  # J(B=0, E) > 0 for every E
            (60.0, 30.0, "inf"),  # exp(x2) overflows
            (60.0, 6.0, None),  # 2 x2 = 1242: exp(2 x2) would overflow
            (2.0, 0.7, None),
        ],
    )
    def test_e_star_before_and_after_the_points(self, B, a_rel, want):
        fixed = FieldConfig(B=B, E=0.0, a=a_rel * A_B)
        reference = repr(efield_switch_lab(GAAS, B, fixed.a))
        assert want is None or reference == want
        first = exchange_energy_along(GAAS, fixed, "E")
        assert repr(first.e_star()) == reference  # before any point
        after = exchange_energy_along(GAAS, fixed, "E")
        after(1e5)
        assert repr(after.e_star()) == repr(first.e_star()) == repr(efield_switch(GAAS, B, fixed.a))

    @pytest.mark.parametrize("B, a", [(math.nan, 0.7), (2.0, 1e160), (2.0, 1e-170)])
    def test_e_star_raises_like_the_lab_path(self, B, a):
        fixed = FieldConfig(B=B, E=0.0, a=a * A_B)
        j = exchange_energy_along(GAAS, fixed, "E")
        want = reference_e_star(GAAS, B, fixed.a)
        assert isinstance(want[0], type)
        assert e_star_outcome(j) == e_star_outcome(j) == want

    @pytest.mark.parametrize(
        "axis, fixed, bracket, calls",
        [
            ("E", REFERENCE._replace(B=2.0), (0.0, 2e5), 1),  # 4 before the part was held
            ("B", REFERENCE._replace(E=1e5), (0.2, 9.5), 11),  # 1 per evaluation, of 11
        ],
    )
    def test_bessel_calls_per_switch(self, monkeypatch, axis, fixed, bracket, calls):
        # `_formula` takes each point's two I0e values from one pair call.
        counted = []

        def i0e_pair(x1, x2):
            counted.append((x1, x2))
            return bessel_i0e(x1), bessel_i0e(x2)

        monkeypatch.setattr(dotx.closed_form, "_i0e_pair", i0e_pair)
        point = find_switch(axis, GAAS, fixed, bracket)
        assert len(counted) == calls
        assert len(counted) == point.evaluations or axis == "E"


class TestMaterialMemo:
    """`units._material_constants` remembers the last material object it
    accepted: by identity, never a rejected one."""

    def test_signed_zero_overrides_stay_apart(self):
        fields = FieldConfig(B=2.0, E=0.0, a=0.7 * A_B)
        plus, minus = GAAS._replace(c_override=0.0), GAAS._replace(c_override=-0.0)
        assert plus == minus and hash(plus) == hash(minus)  # an equality cache merges them
        signs = [
            math.copysign(1.0, exchange_energy_lab(mat, fields).coulomb_term)
            for mat in (plus, minus, plus, minus)
        ]
        assert signs[0] == -signs[1] and signs == signs[:2] * 2
        for mat in (plus, minus):
            assert repr(units._material_constants(mat).c) == repr(mat.c_override)

    @pytest.mark.parametrize(
        "mat",
        [
            MaterialParams(effective_mass=-1.0, dielectric_const=13.1, confinement_energy=3.0),
            GAAS._replace(c_override=math.nan),
            # these pass `validate`; their Bohr radius or c is not finite
            MaterialParams(effective_mass=1e-300, dielectric_const=13.1, confinement_energy=1e-20),
            MaterialParams(effective_mass=0.067, dielectric_const=1e-320, confinement_energy=3.0),
        ],
    )
    def test_a_rejected_material_raises_on_every_call(self, mat):
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                units._material_constants(mat)
            with pytest.raises(InvalidParameterError):
                exchange_energy_along(mat, FIXED, "E")
            assert units._material_constants(GAAS) == units._material_constants(GAAS)

    def test_a_material_is_checked_once_while_it_is_the_last(self):
        checks = []

        class Counted(MaterialParams):
            __slots__ = ()

            def validate(self):
                checks.append(self)
                super().validate()

        mat = Counted(*GAAS)
        first = units._material_constants(mat)
        for _ in range(3):
            assert units._material_constants(mat) is first
        assert len(checks) == 1
        units._material_constants(GAAS)
        assert units._material_constants(mat) == first and len(checks) == 2
