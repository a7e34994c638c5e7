import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import dotx.closed_form
import dotx.sweeps
from dotx.closed_form import ExchangeBreakdown, exchange_energy_lab, overlap
from dotx.errors import (
    InvalidParameterError,
    NoRootInBracketError,
    ScenarioError,
)
from dotx.sweeps import (
    SweepRow,
    SweepSpec,
    _grid,
    brent,
    find_switch,
    scan_switches,
    sweep,
    sweep_csv_text,
    switching_scenario,
)
from dotx.units import (
    FieldConfig,
    bohr_radius_nm,
    coulomb_strength,
    derive_arrays,
    derive_parameters,
)

from conftest import assert_kernel_close, assert_rows_close, loop_sweep, rel_err, row_columns


def make_spec(gaas, **kw):
    base = dict(
        vary="B",
        start=0.0,
        stop=3.0,
        steps=61,
        fixed=FieldConfig(B=0.0, E=0.0, a=0.7 * bohr_radius_nm(gaas)),
        material=gaas,
    )
    base.update(kw)
    return SweepSpec(**base)


def sign_changes(rows):
    pairs = zip(rows[:-1], rows[1:])
    return sum(
        1
        for r1, r2 in pairs
        if not (r1.singular or r2.singular) and (r1.j_mev > 0) != (r2.j_mev > 0)
    )


class TestSweep:
    def test_b_sweep_single_sign_change(self, gaas):
        rows = sweep(make_spec(gaas, stop=10.0, steps=201))
        assert rows[0].j_mev > 0.0
        assert sign_changes(rows) == 1

    def test_d_sweep_zero_field_all_positive(self, gaas):
        rows = sweep(make_spec(gaas, vary="d", start=0.1, stop=1.5, steps=57))
        assert all(r.j_mev > 0.0 for r in rows)

    def test_d_sweep_at_1p5_tesla_crosses(self, gaas):
        fixed = FieldConfig(B=1.5, E=0.0, a=0.7 * bohr_radius_nm(gaas))
        rows = sweep(make_spec(gaas, vary="d", start=0.1, stop=1.5, steps=57, fixed=fixed))
        assert sign_changes(rows) >= 1

    def test_rows_carry_breakdown_and_grid(self, gaas):
        spec = make_spec(gaas, steps=11)
        rows = sweep(spec)
        assert len(rows) == 11
        assert rows[0].x == 0.0 and rows[-1].x == 3.0
        xs = [r.x for r in rows]
        assert xs == sorted(xs)
        for r in rows:
            assert r.breakdown is not None
            assert rel_err(
                r.j_mev,
                r.breakdown.prefactor
                * (r.breakdown.coulomb_term + r.breakdown.quartic_term + r.breakdown.efield_term)
                * gaas.confinement_energy,
            ) < 1e-9
            assert 0.0 < r.s_overlap < 1.0

    def test_deterministic(self, gaas):
        spec = make_spec(gaas, steps=31)
        assert sweep(spec) == sweep(spec)

    def test_singular_rows_do_not_abort(self, gaas):
        # a degenerate fixed geometry flags every row, sweep still runs
        fixed = FieldConfig(B=0.0, E=0.0, a=0.0)
        rows = sweep(make_spec(gaas, fixed=fixed, steps=7))
        assert len(rows) == 7
        assert all(r.singular and math.isnan(r.j_mev) for r in rows)

    def test_invalid_specs(self, gaas):
        with pytest.raises(InvalidParameterError):
            sweep(make_spec(gaas, vary="T"))
        with pytest.raises(InvalidParameterError):
            sweep(make_spec(gaas, start=2.0, stop=1.0))
        with pytest.raises(InvalidParameterError):
            sweep(make_spec(gaas, steps=1))
        with pytest.raises(InvalidParameterError):
            sweep(make_spec(gaas, vary="d", start=0.0, stop=1.0))

    @pytest.mark.parametrize(
        "start, stop", [(-math.inf, 1.0), (0.0, math.inf), (-1e308, 1e308)]
    )
    def test_non_finite_range_rejected(self, gaas, start, stop):
        with pytest.raises(InvalidParameterError, match="finite"):
            sweep(make_spec(gaas, vary="E", start=start, stop=stop))
        with pytest.raises(InvalidParameterError, match="finite"):
            scan_switches("E", gaas, make_spec(gaas).fixed, start, stop)

    def test_tiny_distance_row_is_singular(self, gaas):
        # 1 - S^4 rounds to 0 at d = 1e-170: singular, not a ZeroDivisionError
        rows = sweep(make_spec(gaas, vary="d", start=1e-170, stop=1.0, steps=3))
        assert [r.singular for r in rows] == [True, False, False]

    @pytest.mark.parametrize(
        "vary, start, stop", [("B", 0.0, 8.0), ("E", -2e5, 2e5), ("d", 0.05, 4.0)]
    )
    def test_breakdown_equals_lab_evaluation(self, gaas, vary, start, stop):
        fixed = FieldConfig(B=1.5, E=5e4, a=0.7 * bohr_radius_nm(gaas))
        spec = make_spec(gaas, vary=vary, start=start, stop=stop, steps=41, fixed=fixed)
        for row in sweep(spec):
            if vary == "d":
                cfg = replace(fixed, a=row.x * bohr_radius_nm(gaas))
            else:
                cfg = replace(fixed, **{vary: row.x})
            p = derive_parameters(gaas, cfg)
            want = {**exchange_energy_lab(gaas, cfg)._asdict(), "x": row.x, "b": p.b, "d": p.d,
                    "s_overlap": overlap(p.b, p.d)}
            assert_kernel_close(
                row_columns(row), want, coulomb_strength(gaas), gaas.confinement_energy, row.x
            )

    def test_derives_each_point_once(self, gaas, count_derivations, monkeypatch):
        # All 31 points come from one array derivation; none is derived alone.
        per_point = count_derivations(dotx.closed_form)
        arrays = []

        def counting(mat, B, E, a):
            arrays.append(np.size(B))
            return derive_arrays(mat, B, E, a)

        def scalar(*args):
            raise AssertionError("scalar closed form called")

        monkeypatch.setattr(dotx.closed_form, "derive_arrays", counting)
        monkeypatch.setattr(dotx.sweeps, "exchange_energy_lab", scalar)
        sweep(make_spec(gaas, steps=31))
        assert arrays == [31]
        assert per_point == []

    def test_csv_text_layout(self, gaas):
        spec = make_spec(gaas, steps=5)
        text = sweep_csv_text(spec, sweep(spec), {"material": "gaas"})
        lines = text.splitlines()
        assert lines[0] == "# dotx sweep"
        assert lines[1] == "# material = 'gaas'"
        assert lines[2] == "x,J_meV,prefactor,coulomb_term,quartic_term,efield_term,b,d,S"
        assert len(lines) == 3 + 5


class TestRowContract:
    """Rows and breakdowns are immutable records with fixed fields."""

    def singular_start_spec(self, gaas):
        # J overflows below d ~ 1e-154 and 1 - S^4 rounds to 0 below d ~ 1e-162:
        # the first rows are singular
        return make_spec(gaas, vary="d", start=1e-170, stop=2e-153, steps=41)

    def test_fields_and_positional_constructors(self):
        assert ExchangeBreakdown._fields == (
            "prefactor", "coulomb_term", "quartic_term", "efield_term", "j_dimensionless", "j_mev"
        )
        assert SweepRow._fields == ("x", "j_mev", "breakdown", "b", "d", "s_overlap", "singular")
        bd = ExchangeBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert (bd.prefactor, bd.efield_term, bd.j_mev) == (1.0, 4.0, 6.0)
        row = SweepRow(0.5, 6.0, bd, 1.5, 0.7, 0.2)
        assert (row.x, row.breakdown, row.s_overlap, row.singular) == (0.5, bd, 0.2, False)
        assert SweepRow(0.5, 6.0, None, 1.5, 0.7, 0.2, True).singular is True

    def test_rows_are_exact_record_types(self, gaas):
        # sweep builds its records with tuple.__new__; they must still be the
        # named types, with singular given, not left to the field default.
        rows = sweep(make_spec(gaas, steps=5))
        for row in rows:
            assert type(row) is SweepRow and type(row.breakdown) is ExchangeBreakdown
            assert row.singular is False and len(row) == len(SweepRow._fields)
        assert repr(rows[0]).startswith("SweepRow(x=0.0, j_mev=")
        assert "breakdown=ExchangeBreakdown(prefactor=" in repr(rows[0])

    def test_fields_are_read_only(self, gaas):
        row = sweep(make_spec(gaas, steps=3))[0]
        with pytest.raises(AttributeError):
            row.j_mev = 0.0
        with pytest.raises(AttributeError):
            row.breakdown.j_mev = 0.0

    def test_singular_rows(self, gaas):
        rows = sweep(self.singular_start_spec(gaas))
        singular = [r for r in rows if r.singular]
        assert rows[0].singular and not rows[-1].singular
        assert 0 < len(singular) < len(rows)
        for r in singular:
            assert r.singular is True and r.breakdown is None
            assert all(math.isnan(v) for v in (r.j_mev, r.b, r.d, r.s_overlap))
        assert all(r.singular is False and r.breakdown is not None for r in rows if not r.singular)

    def test_singular_grid_is_deterministic_and_matches_loop(self, gaas):
        spec = self.singular_start_spec(gaas)
        rows = sweep(spec)
        assert repr(rows) == repr(sweep(spec))
        assert_rows_close(rows, loop_sweep(spec), gaas)


class TestBrent:
    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: x * x - 2.0, 0.0, 2.0),
            (lambda x: math.cos(x) - x, 0.0, 1.5),
            (lambda x: math.exp(x) - 3.0 * x * x, -1.0, 0.0),
            (lambda x: x**3 - 2.0 * x - 5.0, 1.0, 3.0),
        ],
    )
    def test_against_scipy(self, f, a, b):
        root, froot, bracket = brent(f, a, b, 1e-12)[:3]
        ref = scipy.optimize.brentq(f, a, b, xtol=1e-14)
        assert abs(root - ref) < 1e-10
        assert abs(froot) < 1e-10
        assert bracket[0] <= root <= bracket[1]

    def test_same_sign_raises(self):
        with pytest.raises(NoRootInBracketError):
            brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)

    def test_endpoint_root(self):
        root, froot = brent(lambda x: x, 0.0, 1.0, 1e-10)[:2]
        assert root == 0.0 and froot == 0.0


class TestFindSwitch:
    def test_b_star_in_expected_band(self, gaas, gaas_fields):
        point = find_switch("B", gaas, gaas_fields, (0.5, 3.0))
        assert 1.2 <= point.value <= 1.5
        assert point.residual <= 1e-9
        assert point.direction == "antiferro_to_ferro"

    def test_bracket_endpoints_flank_root(self, gaas, gaas_fields):
        from dotx.closed_form import ExchangeBreakdown, exchange_energy_lab, overlap

        point = find_switch("B", gaas, gaas_fields, (0.5, 3.0))
        j_lo = exchange_energy_lab(gaas, replace(gaas_fields, B=point.bracket[0])).j_mev
        j_hi = exchange_energy_lab(gaas, replace(gaas_fields, B=point.bracket[1])).j_mev
        assert (j_lo > 0.0) != (j_hi > 0.0)

    def test_no_root_in_bracket(self, gaas, gaas_fields):
        with pytest.raises(NoRootInBracketError):
            find_switch("B", gaas, gaas_fields, (0.0, 0.5))

    def test_e_switch_above_threshold_field(self, gaas, gaas_fields):
        fixed = replace(gaas_fields, B=2.0)
        point = find_switch("E", gaas, fixed, (0.0, 2e5))
        assert point.direction == "ferro_to_antiferro"
        assert 1e4 < point.value < 2e5
        assert point.residual <= 1e-9

    def test_root_sits_between_sweep_neighbours(self, gaas, gaas_fields):
        rows = sweep(make_spec(gaas, stop=3.0, steps=61))
        cell = next(
            (r1, r2)
            for r1, r2 in zip(rows[:-1], rows[1:])
            if (r1.j_mev > 0) != (r2.j_mev > 0)
        )
        point = find_switch("B", gaas, gaas_fields, (0.5, 3.0))
        assert cell[0].x <= point.value <= cell[1].x

    def test_d_axis(self, gaas, gaas_fields):
        fixed = replace(gaas_fields, B=1.5)
        point = find_switch("d", gaas, fixed, (0.3, 1.2))
        assert 0.5 < point.value < 0.9
        assert point.direction == "antiferro_to_ferro"

    def test_invalid_axis_and_bracket(self, gaas, gaas_fields):
        with pytest.raises(InvalidParameterError):
            find_switch("x", gaas, gaas_fields, (0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            find_switch("B", gaas, gaas_fields, (2.0, 1.0))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_unusable_tol_rejected(self, gaas, gaas_fields, tol):
        with pytest.raises(InvalidParameterError, match=f"tol must be finite and >= 0, got {tol}"):
            find_switch("B", gaas, gaas_fields, (0.5, 3.0), tol=tol)

    def test_b_star_nondecreasing_in_efield(self, gaas, gaas_fields):
        stars = []
        for e_field in (0.0, 2.5e5, 5e5, 7.5e5):
            fixed = replace(gaas_fields, E=e_field)
            points = scan_switches("B", gaas, fixed, 0.1, 15.0, scan_steps=150)
            assert len(points) == 1
            stars.append(points[0].value)
        assert all(s2 >= s1 for s1, s2 in zip(stars[:-1], stars[1:]))


class TestScanSwitches:
    def test_single_crossing_found(self, gaas, gaas_fields):
        points = scan_switches("B", gaas, gaas_fields, 0.0, 8.0)
        assert len(points) == 1
        assert 1.2 <= points[0].value <= 1.5

    def test_no_crossing_empty(self, gaas, gaas_fields):
        assert scan_switches("B", gaas, gaas_fields, 0.0, 0.5) == []

    def test_unknown_axis_rejected(self, gaas):
        fixed = FieldConfig(1.5, 0.0, 0.7 * bohr_radius_nm(gaas))
        with pytest.raises(InvalidParameterError, match="axis must be one of"):
            scan_switches("T", gaas, fixed, 0.3, 0.5)

    @pytest.mark.parametrize("lo, hi", [(3.0, 2.0), (4.0, 0.3), (1.0, 1.0)])
    def test_range_must_increase(self, gaas, gaas_fields, lo, hi):
        with pytest.raises(InvalidParameterError, match="scan range must satisfy lo < hi"):
            scan_switches("B", gaas, gaas_fields, lo, hi)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_unusable_tol_rejected(self, gaas, gaas_fields, tol):
        # [0, 0.5] holds no sign change, so no find_switch call would see tol.
        with pytest.raises(InvalidParameterError, match=f"tol must be finite and >= 0, got {tol}"):
            scan_switches("B", gaas, gaas_fields, 0.0, 0.5, tol=tol)


class TestGrid:
    """`_grid`, the pre-scan and scenario grid, is `np.linspace(...).tolist()`
    bit for bit; float.hex tells -0.0 and the last bit apart."""

    @staticmethod
    def check(start, stop, n):
        want = [x.hex() for x in np.linspace(start, stop, n).tolist()]
        assert [x.hex() for x in _grid(start, stop, n)] == want

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.integers(1, 300))
    def test_matches_linspace(self, start, stop, n):
        self.check(start, stop, n)

    @pytest.mark.parametrize(
        "start, stop, n",
        [
            (0.0, 2.0, 1),
            (-0.0, -0.0, 1),
            (0.0, 2.0, 2),
            (0.3, 0.1, 2),
            (1.5, 1.5, 7),  # equal ends
            (-0.0, -0.0, 3),
            (0.0, 1e-310, 11),  # subnormal step
            (0.0, 4 * 5e-324, 1000),  # the step underflows to 0
            (1.0, 1.0 + 2**-52, 1000),  # the step is below an ulp of the points
            (0.0, 3, 121),  # integer ends
        ],
    )
    def test_edge_cases(self, start, stop, n):
        self.check(start, stop, n)


class TestScenario:
    def test_four_phases(self, gaas, gaas_fields):
        result = switching_scenario(gaas, gaas_fields.a, b_operating=2.0)
        phases = [s.phase for s in result.steps]
        assert set(phases) == {"A", "B", "C", "D"}
        a_signs = [s.sign for s in result.steps if s.phase == "A"]
        assert a_signs[0] > 0 and a_signs[-1] < 0
        assert sum(1 for s1, s2 in zip(a_signs[:-1], a_signs[1:]) if s1 != s2) == 1
        assert all(s.sign < 0 for s in result.steps if s.phase == "B")
        c_signs = [s.sign for s in result.steps if s.phase == "C"]
        assert c_signs[0] < 0 and c_signs[-1] > 0
        assert sum(1 for s1, s2 in zip(c_signs[:-1], c_signs[1:]) if s1 != s2) == 1
        assert all(s.sign > 0 for s in result.steps if s.phase == "D")
        assert result.b_switch.direction == "antiferro_to_ferro"
        assert result.e_switch.direction == "ferro_to_antiferro"

    def test_below_threshold_rejected(self, gaas, gaas_fields):
        with pytest.raises(ScenarioError, match="threshold"):
            switching_scenario(gaas, gaas_fields.a, b_operating=1.0)

    @pytest.mark.parametrize("b_operating", [-3.0, 0.0, math.nan, math.inf])
    def test_operating_field_must_be_finite_and_positive(self, gaas, gaas_fields, b_operating):
        message = f"operating field {b_operating!r} T must be finite and > 0"
        with pytest.raises(InvalidParameterError, match=message):
            switching_scenario(gaas, gaas_fields.a, b_operating=b_operating)

    @pytest.mark.parametrize("e_limit", [-1.0, 0.0, math.nan, math.inf])
    def test_e_limit_must_be_finite_and_positive(self, gaas, gaas_fields, e_limit):
        message = f"e_limit {e_limit!r} V/m must be finite and > 0"
        with pytest.raises(InvalidParameterError, match=message):
            switching_scenario(gaas, gaas_fields.a, e_limit=e_limit)

    @pytest.mark.parametrize("b_operating", [1e5, 1e20])
    def test_underflowed_operating_j_rejected(self, gaas, gaas_fields, b_operating):
        # J is exactly 0 there, neither antiferromagnetic nor ferromagnetic
        assert exchange_energy_lab(gaas, replace(gaas_fields, B=b_operating)).j_mev == 0.0
        message = f"J underflows to 0 at the operating field {b_operating} T"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            switching_scenario(gaas, gaas_fields.a, b_operating=b_operating)
