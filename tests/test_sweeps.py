import gc
import math
import re
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dotx.closed_form
import dotx.sweeps
from dotx.cli import _csv_text
from dotx.closed_form import (
    ExchangeBreakdown,
    exchange_energy_along,
    exchange_energy_arrays,
    exchange_energy_lab,
    overlap,
)
from dotx.errors import (
    DotxError,
    InvalidParameterError,
    NoRootInBracketError,
    ParameterOverflowError,
    RootConvergenceError,
    ScenarioError,
    SingularConfigurationError,
)
from dotx.sweeps import (
    AXIS_XTOL,
    SweepRow,
    SweepSpec,
    _grid,
    brent,
    find_switch,
    scan_switches,
    sweep,
    switching_scenario,
)
from dotx.units import (
    GAAS,
    FieldConfig,
    bohr_radius_nm,
    coulomb_strength,
    derive_parameters,
)

from conftest import (
    EPS,
    assert_kernel_close,
    is_final_bracket,
    assert_rows_close,
    loop_sweep,
    rel_err,
    row_columns,
    sweep_both,
)


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
        rows = sweep_both(make_spec(gaas, fixed=fixed, steps=7))
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

    @pytest.mark.parametrize("steps", [5.0, np.float64(5.0), True], ids=["float", "numpy", "bool"])
    def test_step_count_must_be_an_integer(self, gaas, steps):
        message = f"sweep needs between 2 and 100000 steps, got {steps!r}"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            sweep(make_spec(gaas, steps=steps))
        assert len(sweep(make_spec(gaas, steps=np.int64(5)))) == 5  # numpy ints are integers

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
        rows = sweep_both(make_spec(gaas, vary="d", start=1e-170, stop=1.0, steps=3))
        assert [r.singular for r in rows] == [True, False, False]

    def test_infinite_field_ratio_row_is_singular(self, gaas):
        # chi = e E a / (hbar omega_0) is inf at E = 1e300 V/m, a = 1e15 nm:
        # a singular row on both paths, as the kernel's mask makes it, not an error
        fixed = FieldConfig(B=1.0, E=0.0, a=1e15)
        rows = sweep_both(make_spec(gaas, vary="E", start=0.0, stop=1e300, steps=2, fixed=fixed))
        assert [r.singular for r in rows] == [False, True]

    @pytest.mark.parametrize(
        "vary, start, stop", [("B", 0.0, 8.0), ("E", -2e5, 2e5), ("d", 0.05, 4.0)]
    )
    def test_breakdown_equals_lab_evaluation(self, gaas, vary, start, stop):
        fixed = FieldConfig(B=1.5, E=5e4, a=0.7 * bohr_radius_nm(gaas))
        spec = make_spec(gaas, vary=vary, start=start, stop=stop, steps=41, fixed=fixed)
        for row in sweep(spec):
            if vary == "d":
                cfg = fixed._replace(a=row.x * bohr_radius_nm(gaas))
            else:
                cfg = fixed._replace(**{vary: row.x})
            p = derive_parameters(gaas, cfg)
            want = {**exchange_energy_lab(gaas, cfg)._asdict(), "x": row.x, "b": p.b, "d": p.d,
                    "s_overlap": overlap(p.b, p.d)}
            assert_kernel_close(
                row_columns(row), want, coulomb_strength(gaas), gaas.confinement_energy, row.x
            )

    def test_derives_each_point_once(self, gaas, count_derivations, monkeypatch):
        # Up to 512 points, each is one scalar closed-form call and there is
        # no array call; past 512, all come from one array kernel call and
        # none from the scalar form.  Neither derives a point alone.
        per_point = count_derivations(dotx.closed_form)
        arrays, scalars = [], []
        kernel, scalar = dotx.sweeps.exchange_energy_arrays, dotx.sweeps.exchange_energy

        def counting_kernel(mat, B, E, a):
            arrays.append(np.broadcast(B, E, a).size)
            return kernel(mat, B, E, a)

        def counting_scalar(*args):
            scalars.append(args)
            return scalar(*args)

        monkeypatch.setattr(dotx.sweeps, "exchange_energy_arrays", counting_kernel)
        monkeypatch.setattr(dotx.sweeps, "exchange_energy", counting_scalar)
        assert dotx.sweeps._SCALAR_MAX_STEPS == 512
        for steps, want in ((31, ([], 31)), (512, ([], 512)), (513, ([513], 0))):
            arrays.clear()
            scalars.clear()
            sweep(make_spec(gaas, steps=steps))
            assert (arrays, len(scalars)) == want, steps
        assert per_point == []

    def test_csv_text_layout(self):
        # the title, the provenance keys in sorted order, the column names,
        # then each row's floats by repr: a singular row's nan is written as nan
        text = _csv_text("sweep", {"steps": 2, "material": "gaas"}, ["x", "J_meV"],
                         [(0.0, 0.125), (1.0, math.nan)])
        assert text == "# dotx sweep\n# material = 'gaas'\n# steps = 2\nx,J_meV\n0.0,0.125\n1.0,nan\n"


class TestKernelSweepCollector:
    """A kernel sweep builds its rows with the cyclic collector paused and
    leaves it as the caller had it, also where the kernel raises."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_kept(self, gaas, monkeypatch, enabled):
        paused = []
        row_columns = dotx.sweeps._row_columns

        def spied(spec):
            paused.append(not gc.isenabled())
            return row_columns(spec)

        monkeypatch.setattr(dotx.sweeps, "_row_columns", spied)
        long_b = make_spec(gaas, stop=8.0, steps=1601)
        # chi^2/d^2 overflows from the first point: a ParameterOverflowError
        overflowing = make_spec(gaas, vary="E", start=1e304, stop=1e305, steps=600)
        caller = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            rows = sweep(long_b)
            after_rows = gc.isenabled()
            with pytest.raises(ParameterOverflowError):
                sweep(overflowing)
            after_raise = gc.isenabled()
        finally:
            (gc.enable if caller else gc.disable)()
        assert len(rows) == 1601 and paused == [True, True]
        assert after_rows is after_raise is enabled


class TestRowContract:
    """Rows and breakdowns are immutable records with fixed fields."""

    def singular_start_spec(self, gaas, steps=41):
        # J overflows below d ~ 1e-154 and 1 - S^4 rounds to 0 below d ~ 1e-162:
        # the first rows are singular
        return make_spec(gaas, vary="d", start=1e-170, stop=2e-153, steps=steps)

    def axis_spec(self, gaas, axis, steps):
        """A grid along `axis` over J's whole range, or the singular-start one."""
        if axis == "singular-start":
            return self.singular_start_spec(gaas, steps)
        start, stop = {"B": (-60.0, 60.0), "E": (-1e12, 1e12), "d": (1e-9, 15.0)}[axis]
        fixed = FieldConfig(B=1.5, E=5e4, a=0.7 * bohr_radius_nm(gaas))
        return make_spec(gaas, vary=axis, start=start, stop=stop, steps=steps, fixed=fixed)

    def test_fields_and_positional_constructors(self):
        assert ExchangeBreakdown._fields == (
            "prefactor", "coulomb_term", "quartic_term", "efield_term", "j_dimensionless", "j_mev"
        )
        assert SweepRow._fields == (
            "x", "j_mev", "b", "d", "s_overlap", "prefactor", "coulomb_term", "quartic_term",
            "efield_term", "j_dimensionless", "singular",
        )
        bd = ExchangeBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert (bd.prefactor, bd.efield_term, bd.j_mev) == (1.0, 4.0, 6.0)
        row = SweepRow(0.5, 6.0, 1.5, 0.7, 0.2, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert (row.x, row.breakdown, row.s_overlap, row.singular) == (0.5, bd, 0.2, False)
        assert type(row.breakdown) is ExchangeBreakdown and row.breakdown is not row.breakdown
        singular = SweepRow(0.5, *[math.nan] * 9, True)
        assert singular.singular is True and singular.breakdown is None

    def test_rows_are_exact_record_types(self, gaas):
        # sweep builds its records with tuple.__new__; they must still be the
        # named types, with singular given, not left to the field default.
        rows = sweep(make_spec(gaas, steps=5))
        for row in rows:
            assert type(row) is SweepRow and type(row.breakdown) is ExchangeBreakdown
            assert row.singular is False and len(row) == len(SweepRow._fields)
        assert repr(rows[0]).startswith("SweepRow(x=0.0, j_mev=")
        assert type(rows[0].breakdown) is ExchangeBreakdown

    def test_fields_are_read_only(self, gaas):
        row = sweep(make_spec(gaas, steps=3))[0]
        with pytest.raises(AttributeError):
            row.j_mev = 0.0
        with pytest.raises(AttributeError):
            row.prefactor = 0.0
        with pytest.raises(AttributeError):
            row.breakdown = None
        with pytest.raises(AttributeError):
            row.breakdown.j_mev = 0.0

    def test_singular_rows(self, gaas):
        rows = sweep_both(self.singular_start_spec(gaas))
        singular = [r for r in rows if r.singular]
        assert rows[0].singular and not rows[-1].singular
        assert 0 < len(singular) < len(rows)
        for r in singular:
            assert r.singular is True and r.breakdown is None
            assert all(math.isnan(v) for v in (r.j_mev, r.b, r.d, r.s_overlap))
        assert all(r.singular is False and r.breakdown is not None for r in rows if not r.singular)

    @pytest.mark.parametrize("axis", ["B", "E", "d", "singular-start"])
    def test_breakdown_is_the_kernel_columns(self, gaas, axis):
        # Each row's breakdown is built from its own fields, and is None
        # exactly on singular rows: up to 512 points bit for bit the scalar
        # closed form's at its x, past 512 the kernel's columns at its index.
        a_b = bohr_radius_nm(gaas)
        for steps in (41, 1601):
            spec = self.axis_spec(gaas, axis, steps)
            rows = sweep(spec)
            grid = np.linspace(spec.start, spec.stop, spec.steps)
            if steps <= dotx.sweeps._SCALAR_MAX_STEPS:
                want = []
                for x in grid.tolist():
                    fields = FieldConfig(*dotx.sweeps._axis_fields(spec.fixed, spec.vary, x, a_b))
                    try:
                        want.append(exchange_energy_lab(gaas, fields))
                    except (InvalidParameterError, SingularConfigurationError):
                        want.append(None)
            else:
                with np.errstate(over="ignore"):
                    lab = dotx.sweeps._axis_fields(spec.fixed, spec.vary, grid, a_b)
                cols = exchange_energy_arrays(gaas, *lab)
                want = [
                    ExchangeBreakdown(*(getattr(cols, name)[i].item()
                                        for name in ExchangeBreakdown._fields))
                    if valid else None
                    for i, valid in enumerate(cols.valid.tolist())
                ]
            singular = [r.singular for r in rows]
            assert singular == [w is None for w in want]
            assert (0 < sum(singular) < len(rows)) == (axis == "singular-start")
            for i, row in enumerate(rows):
                assert not any(isinstance(v, tuple) for v in row)
                assert repr(row.breakdown) == repr(want[i]), (steps, i)

    @pytest.mark.parametrize("axis", ["B", "E", "d", "singular-start"])
    def test_short_grid_is_the_loop_by_repr(self, gaas, axis):
        spec = self.axis_spec(gaas, axis, dotx.sweeps._SCALAR_MAX_STEPS)
        assert repr(sweep(spec)) == repr(loop_sweep(spec))

    def test_singular_grid_is_deterministic_and_matches_loop(self, gaas):
        spec = self.singular_start_spec(gaas)
        rows = sweep_both(spec)
        assert repr(rows) == repr(sweep(spec))
        assert_rows_close(rows, loop_sweep(spec), gaas)


def brent_width_only(f, a, b, xtol, max_iter=200, *, fa, fb):
    """`brent` as it was before its residual stop: it stopped on the bracket
    width alone.  Kept as the reference its default must still reproduce."""
    if fa == 0.0 or fb == 0.0 or (fa > 0.0) == (fb > 0.0):
        raise NoRootInBracketError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")
    c, fc = a, fa
    e = d = b - a
    for it in range(1, max_iter + 1):
        if fb == 0.0:
            return b, fb, (b, b), it
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b, fb, (b, c) if b <= c else (c, b), it
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
    raise RootConvergenceError(f"root refinement exceeded {max_iter} iterations")


def brent_before_hoist(
    f, a: float, b: float, xtol: float, max_iter: int = 200, *,
    fa: float, fb: float, ftol: float = math.inf,
):
    """`brent` as it was before it formed each |f(b)| once and hoisted its
    constant factors, verbatim: the reference whose points, results and
    errors it must keep bit for bit."""
    if fa == 0.0 or fb == 0.0 or (fa > 0.0) == (fb > 0.0):
        raise NoRootInBracketError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")
    c, fc = a, fa
    e = d = b - a
    eps = sys.float_info.epsilon
    for it in range(1, max_iter + 1):
        if fb == 0.0:
            return b, fb, (b, b), it
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        done = abs(m) <= tol
        fine = done and abs(fb) > ftol
        if fine:
            # Narrow enough, but |f| is not small enough: narrow on, at least
            # one float per step, until the ends are adjacent floats.
            tol = math.ulp(min(abs(b), abs(c)))
            done = b + m in (b, c)
        if done:
            return b, fb, (b, c) if b <= c else (c, b), it
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        if fine and b in (a, c):  # rounded back onto an end
            b = math.nextafter(a, c)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
    lo, hi = (b, c) if b <= c else (c, b)
    raise RootConvergenceError(
        f"root refinement exceeded {max_iter} iterations", bracket=(lo, hi)
    )


def replay(run, f, a, b, xtol, max_iter, fa, fb, ftol):
    """`run`'s outcome, the repr of its result or its error with the error's
    bracket, and the points at which it evaluated f, in order."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)

    try:
        outcome = repr(run(recorded, a, b, xtol, max_iter, fa=fa, fb=fb, ftol=ftol))
    except (NoRootInBracketError, RootConvergenceError) as error:
        outcome = (type(error), str(error), getattr(error, "bracket", None))
    return outcome, points


def objective(shape, r, k, c, w):
    """A sign change at r: smooth, with a jump that no float closes (so
    ftol = 0 narrows to adjacent floats), with f exactly 0 or nan on a window
    of half-width w around r."""
    def smooth(x):
        return math.tanh(k * (x - r)) + c * (x - r) ** 3

    if shape == "smooth":
        return smooth
    if shape == "jump":
        return lambda x: (x - r) * k + (1e-6 if x > r else -1.0)
    hole = 0.0 if shape == "zero" else math.nan
    return lambda x: hole if abs(x - r) < w else smooth(x)


def opposite_signs(u, v):
    """A sign change of J between u and v, counting an exact 0 at either."""
    return u == 0.0 or v == 0.0 or (u > 0.0) != (v > 0.0)


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
        root, froot, bracket, _ = brent(f, a, b, 1e-12, fa=f(a), fb=f(b))
        ref = scipy.optimize.brentq(f, a, b, xtol=1e-14)
        assert abs(root - ref) < 1e-10
        assert abs(froot) < 1e-10
        assert froot == f(root) and is_final_bracket(f, root, bracket)

    def test_same_sign_raises(self):
        with pytest.raises(NoRootInBracketError):
            brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10, fa=2.0, fb=2.0)

    @pytest.mark.parametrize("a, b, fa, fb", [(0.0, 1.0, 0.0, 1.0), (-1.0, 0.0, -1.0, 0.0)])
    def test_endpoint_root(self, a, b, fa, fb):
        # f = 0 has no sign, as in find_switch: an end where f is 0 is no root.
        with pytest.raises(NoRootInBracketError, match=re.escape(
            f"no sign change on [{a}, {b}]: f={fa}, {fb}"
        )):
            brent(lambda x: x, a, b, 1e-6, fa=fa, fb=fb)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.05, 20.0),
        st.floats(0.0, 3.0),
        st.floats(1e-3, 10.0),
        st.floats(1e-3, 10.0),
        st.sampled_from([1e-14, 1e-10, 1e-6, 1e-3]),
    )
    def test_width_stop_keeps_its_bits(self, r, k, c, left, right, xtol):
        # Without ftol, brent evaluates the points the width-only Brent did
        # and returns its result bit for bit.
        def f(x):
            return math.tanh(k * (x - r)) + c * (x - r) ** 3

        a, b = r - left, r + right
        outcomes = []
        for run in (brent_width_only, brent):
            points = []

            def recorded(x):
                points.append(x)
                return f(x)

            result = run(recorded, a, b, xtol, fa=f(a), fb=f(b))
            outcomes.append((repr(result), points))
        assert outcomes[0] == outcomes[1]

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(
        st.sampled_from(["smooth", "jump", "zero", "nan"]),
        st.floats(-5.0, 5.0),
        st.floats(0.05, 20.0),
        st.floats(0.0, 3.0),
        st.floats(1e-9, 1e-2),
        st.floats(1e-3, 10.0),
        st.floats(1e-3, 10.0),
        st.sampled_from([1e-14, 1e-10, 1e-6, 1e-3, 0.0]),
        st.sampled_from([math.inf, 1e-9, 0.0]),
        st.just(200) | st.integers(1, 30),
        st.sampled_from([1.0] * 6 + [-1.0, 0.0]),
    )
    def test_replays_the_reference(self, shape, r, k, c, w, left, right, xtol, ftol, max_iter, flip):
        # The same points, in the same order, and the same result or error,
        # with its bracket: past max_iter, for an end value of the wrong sign
        # or 0 (flip), and where an iterate finds f exactly 0 or nan.
        f = objective(shape, r, k, c, w)
        a, b = r - left, r + right
        fa, fb = f(a), flip * f(b)
        want = replay(brent_before_hoist, f, a, b, xtol, max_iter, fa, fb, ftol)
        assert replay(brent, f, a, b, xtol, max_iter, fa, fb, ftol) == want

    @pytest.mark.parametrize(
        "shape, ftol, max_iter, exit",
        [
            ("smooth", math.inf, 200, "width"),
            ("smooth", 1e-9, 200, "residual"),
            ("jump", 0.0, 200, "adjacent"),
            ("jump", 0.0, 6, "max_iter"),
            ("zero", 1e-9, 200, "zero"),
            ("nan", 1e-9, 200, "nan"),
        ],
    )
    def test_replay_reaches_each_exit(self, shape, ftol, max_iter, exit):
        # Examples of the exits the replay's draws take.
        f = objective(shape, 0.3, 200.0, 0.5, 1e-3)
        a, b = -0.4, 2.0
        want = replay(brent_before_hoist, f, a, b, 1e-6, max_iter, f(a), f(b), ftol)
        assert replay(brent, f, a, b, 1e-6, max_iter, f(a), f(b), ftol) == want
        if exit == "max_iter":
            with pytest.raises(RootConvergenceError) as error:
                brent(f, a, b, 1e-6, max_iter, fa=f(a), fb=f(b), ftol=ftol)
            lo, hi = error.value.bracket
            assert a < lo < hi < b
            return
        _, f_root, (lo, hi), _ = brent(f, a, b, 1e-6, max_iter, fa=f(a), fb=f(b), ftol=ftol)
        reached = {
            "width": 0.0 < hi - lo <= 1e-6 + 4.0 * EPS and abs(f_root) > 1e-6,
            "residual": 0.0 < abs(f_root) <= ftol,
            "adjacent": hi == math.nextafter(lo, math.inf) and f_root != 0.0,
            "zero": f_root == 0.0 and lo == hi,
            "nan": math.isnan(f_root),
        }
        assert reached[exit]

    @pytest.mark.parametrize(
        "f, a, b, xtol, ftol",
        [
            (lambda x: x * x - 2.0, 0.0, 2.0, 1e-3, 1e-12),
            (lambda x: math.cos(x) - x, 0.0, 1.5, 1e-2, 1e-15),
            (lambda x: 1e3 * (x**3 - 2.0 * x - 5.0), 1.0, 3.0, 1e-4, 1e-10),
            (lambda x: math.exp(x) - 3.0 * x * x, -1.0, 0.0, 1e-6, 1e-13),
        ],
    )
    def test_residual_stop(self, f, a, b, xtol, ftol):
        points = []

        def recorded(x):
            points.append(x)
            return f(x)

        root, f_root, (lo, hi), _ = brent(recorded, a, b, xtol, fa=f(a), fb=f(b), ftol=ftol)
        assert abs(f_root) <= ftol and f_root == f(root) and is_final_bracket(f, root, (lo, hi))
        assert hi - lo <= xtol + 4.0 * EPS * abs(root)
        assert len(points) == len(set(points))
        # The width-only stop leaves a residual above ftol on these brackets.
        assert abs(brent(f, a, b, xtol, fa=f(a), fb=f(b))[1]) > ftol

    def test_unreachable_residual_stops_at_adjacent_floats(self):
        # |f| > 0 at every float, so ftol = 0 is out of reach: brent stops
        # where no float lies between the ends, each evaluated once.
        points = []

        def f(x):
            points.append(x)
            return x * x - 2.0

        root, f_root, (lo, hi), _ = brent(f, 1.0, 2.0, 1e-6, fa=-1.0, fb=2.0, ftol=0.0)
        assert hi == math.nextafter(lo, math.inf) and root in (lo, hi) and f_root != 0.0
        assert lo <= math.sqrt(2.0) <= hi
        assert len(points) == len(set(points)) < 20
        with pytest.raises(RootConvergenceError):
            brent(lambda x: x * x - 2.0, 1.0, 2.0, 1e-6, max_iter=5, fa=-1.0, fb=2.0, ftol=0.0)

    @pytest.mark.parametrize("quarter_ulps", range(-8, 9))
    def test_root_next_to_two_evaluates_each_point_once(self, quarter_ulps):
        # Below 2.0 the floats are twice as dense as above it, so a one-ulp
        # step of the lower binade from an end above 2.0 can round back onto
        # that end; every step must still reach a new float.  |f| >= 1e-6
        # everywhere, so brent narrows to adjacent floats around r.
        r = 2.0 + quarter_ulps * math.ulp(2.0) / 4
        for slope in (1.5e10, 3e12, 1e15):
            for a, b in ((1.27, 2.0012), (1.99825, 2.00269), (1.757, 2.005), (1.4164, 2.00122)):
                points = []

                def f(x):
                    points.append(x)
                    return (x - r) * slope + (1e-6 if x > r else -1.0)

                _, _, (lo, hi), _ = brent(f, a, b, 1e-6, fa=f(a), fb=f(b), ftol=0.0)
                assert hi == math.nextafter(lo, math.inf) and lo <= r <= hi
                assert len(points) == len(set(points)), (slope, a, b)

    @pytest.mark.parametrize("ftol", [math.inf, 1e-15, 0.0])
    def test_evaluates_f_only_inside_the_bracket(self, ftol):
        # f(a) and f(b) are given, so f is never evaluated at a or b.
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(x) - x

        brent(f, 0.0, 1.5, 1e-12, fa=1.0, fb=math.cos(1.5) - 1.5, ftol=ftol)
        assert calls and all(0.0 < x < 1.5 for x in calls)


class TestFindSwitch:
    def test_b_star_in_expected_band(self, gaas, gaas_fields):
        point = find_switch("B", gaas, gaas_fields, (0.5, 3.0))
        assert 1.2 <= point.value <= 1.5
        assert point.residual <= 1e-9
        assert point.direction == "antiferro_to_ferro"

    def test_bracket_endpoints_flank_root(self, gaas, gaas_fields):
        from dotx.closed_form import ExchangeBreakdown, exchange_energy_lab, overlap

        point = find_switch("B", gaas, gaas_fields, (0.5, 3.0))
        j_lo = exchange_energy_lab(gaas, gaas_fields._replace(B=point.bracket[0])).j_mev
        j_hi = exchange_energy_lab(gaas, gaas_fields._replace(B=point.bracket[1])).j_mev
        assert (j_lo > 0.0) != (j_hi > 0.0)

    def test_no_root_in_bracket(self, gaas, gaas_fields):
        with pytest.raises(NoRootInBracketError):
            find_switch("B", gaas, gaas_fields, (0.0, 0.5))

    def test_e_switch_above_threshold_field(self, gaas, gaas_fields):
        fixed = gaas_fields._replace(B=2.0)
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
        fixed = gaas_fields._replace(B=1.5)
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
            fixed = gaas_fields._replace(E=e_field)
            points = scan_switches("B", gaas, fixed, 0.1, 15.0, scan_steps=150)
            assert len(points) == 1
            stars.append(points[0].value)
        assert all(s2 >= s1 for s1, s2 in zip(stars[:-1], stars[1:]))


def switch_draw(axis, u, v):
    """(fixed, bracket) for the switch drawn at u, v in [0, 1] along B or d."""
    a_b = bohr_radius_nm(GAAS)
    if axis == "B":  # B*(E), as on the switch curves
        return FieldConfig(0.0, 3e5 * u, (0.5 + 0.4 * v) * a_b), (0.2, 9.5)
    # d*(B): the pair turns ferromagnetic as the dots move apart
    return FieldConfig(1.2 + 3.8 * u, 4e4 * v, a_b), (0.3, 1.5)


# A d draw where a Brent iterate lands on J == 0.0 exactly, at d =
# 0.41262770663093895, while the bracket is still 2.1e-4 wide.
EXACT_ZERO_DRAW = ("d", 0.41318610723227944, 0.4827560759857191)


class TestFindSwitchAgainstBrentq:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        st.sampled_from(["B", "d"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([1e-6, 1e-9, 1e-12]),
    )
    @example(*EXACT_ZERO_DRAW, 1e-6)
    def test_root_residual_and_direction(self, axis, u, v, tol):
        fixed, (lo, hi) = switch_draw(axis, u, v)
        j = exchange_energy_along(GAAS, fixed, axis)
        j_lo, j_hi = j(lo), j(hi)
        if not opposite_signs(j_lo, j_hi):
            with pytest.raises(NoRootInBracketError):
                find_switch(axis, GAAS, fixed, (lo, hi), tol=tol)
            return
        want = scipy.optimize.brentq(j, lo, hi, xtol=1e-14)
        point = find_switch(axis, GAAS, fixed, (lo, hi), tol=tol)
        assert abs(point.value - want) <= AXIS_XTOL[axis]
        assert point.residual == abs(j(point.value)) <= tol
        assert point.direction == ("antiferro_to_ferro" if j_lo > 0.0 else "ferro_to_antiferro")
        # brentq's root may sit a few ulps outside it, where J's rounding
        # makes it a root too: the final bracket is checked on its own.
        f_lo, f_hi = point.final_bracket
        assert f_lo <= point.value <= f_hi
        assert f_hi - f_lo <= AXIS_XTOL[axis] + 4.0 * EPS * f_hi
        assert opposite_signs(j(f_lo), j(f_hi))

    def test_exact_zero_iterate_ends_with_a_zero_width_bracket(self):
        # Brent returned the whole 2.1e-4 wide bracket it had when it landed
        # on J == 0.0; that iterate is the root, and its bracket is (x, x).
        axis, u, v = EXACT_ZERO_DRAW
        fixed, bracket = switch_draw(axis, u, v)
        point = find_switch(axis, GAAS, fixed, bracket, tol=1e-6)
        assert point.value == 0.41262770663093895 and point.residual == 0.0
        assert point.final_bracket == (point.value, point.value)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        st.sampled_from(["B", "d"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([1e-6, 1e-9, 1e-12, 1e-16]),
    )
    def test_final_bracket_holds_the_root_at_the_axis_resolution(self, axis, u, v, tol):
        # The final bracket holds the root and is at most the axis resolution
        # wide; it has zero width exactly where J is 0 at the root.
        fixed, bracket = switch_draw(axis, u, v)
        j = exchange_energy_along(GAAS, fixed, axis)
        try:
            point = find_switch(axis, GAAS, fixed, bracket, tol=tol)
        except NoRootInBracketError:
            return
        except RootConvergenceError as err:  # |J| > tol even at adjacent floats
            lo, hi = err.bracket
            assert hi == math.nextafter(lo, math.inf) and (j(lo) > 0.0) != (j(hi) > 0.0)
            return
        lo, hi = point.final_bracket
        assert lo <= point.value <= hi
        assert hi - lo <= AXIS_XTOL[axis] + 4.0 * EPS * abs(point.value)
        assert (lo == hi) == (j(point.value) == 0.0)

    def test_domain_holds_both_outcomes(self):
        # The d draws above hold brackets with a sign change (low B) and
        # without one (high B, where J < 0 at every d in the bracket).
        a_b = bohr_radius_nm(GAAS)
        along = [exchange_energy_along(GAAS, FieldConfig(b, 0.0, a_b), "d") for b in (1.2, 5.0)]
        changes = [opposite_signs(j(0.3), j(1.5)) for j in along]
        assert changes == [True, False]


def fixed_along(monkeypatch, j):
    """Make every J find_switch and scan_switches evaluate the function j."""
    monkeypatch.setattr(dotx.sweeps, "exchange_energy_along", lambda *args: j)


class TestExactZeros:
    """J exactly 0 at a sample: a root on the grid, or J underflowing."""

    @pytest.mark.parametrize(
        "j, want",
        [
            # 0 on a grid point between opposite signs: one switch, across it
            (lambda x: 1.0 - x, [(1.0, (0.5, 1.5), "antiferro_to_ferro")]),
            (lambda x: x - 1.0, [(1.0, (0.5, 1.5), "ferro_to_antiferro")]),
            # J falls to 0 and stays there, as where it underflows: no switch
            (lambda x: min(0.0, x - 1.0), []),
            (lambda x: max(0.0, 1.0 - x), []),
            # J leaves 0 with no nonzero sample before it: no switch
            (lambda x: min(0.0, 1.0 - x), []),
            # zeros over several samples between opposite signs: one switch
            (
                lambda x: 0.0 if abs(x - 1.0) < 0.6 else x - 1.0,
                [(None, (0.0, 2.0), "ferro_to_antiferro")],
            ),
        ],
    )
    def test_scan_reports_each_sign_change_once(self, monkeypatch, j, want):
        fixed_along(monkeypatch, j)
        points = scan_switches("B", GAAS, FieldConfig(0.0, 0.0, 10.0), 0.0, 2.0, scan_steps=5)
        assert [(p.bracket, p.direction) for p in points] == [w[1:] for w in want]
        for point, (value, _, _) in zip(points, want):
            assert j(point.value) == 0.0 and value in (None, point.value)

    def test_zero_and_nan_have_no_sign(self):
        # the rule both the scan and `sweep --out`'s count use: a sign change
        # lies between consecutive signed samples, past any 0, -0.0 or nan
        points = [(0.0, 1.0), (1.0, 0.0), (2.0, -1.0), (3.0, math.nan), (4.0, -2.0),
                  (5.0, 5e-324), (6.0, -0.0), (7.0, 3.0), (8.0, math.nan)]
        assert dotx.sweeps._sign_changes(points) == [(0.0, 2.0), (4.0, 5.0)]
        assert dotx.sweeps._sign_changes([(0.0, math.nan), (1.0, 0.0)]) == []

    @pytest.mark.parametrize("axis", ["B", "E", "d"])
    @pytest.mark.parametrize(
        "j, bracket",
        [
            (lambda x: 1.0 - x, (1.0, 2.0)),
            (lambda x: x - 1.0, (1.0, 2.0)),
            (lambda x: 1.0 - x, (0.0, 1.0)),
            (lambda x: x - 1.0, (0.0, 1.0)),
        ],
    )
    def test_zero_at_an_end_is_no_switch(self, monkeypatch, axis, j, bracket):
        # J = 0 has no sign, as in the scan, so a root on an end is no switch.
        fixed_along(monkeypatch, j)
        with pytest.raises(NoRootInBracketError, match=re.escape(
            f"no sign change on [{bracket[0]}, {bracket[1]}]: f={j(bracket[0])}, {j(bracket[1])}"
        )):
            find_switch(axis, GAAS, FieldConfig(0.0, 0.0, 10.0), bracket)

    @pytest.mark.parametrize(
        "j, direction",
        [(lambda x: 1.0 - x, "antiferro_to_ferro"), (lambda x: x - 1.0, "ferro_to_antiferro")],
    )
    @pytest.mark.parametrize("bracket", [(0.5, 2.0), (0.0, 1.5)])
    def test_direction_from_the_lower_end(self, monkeypatch, j, direction, bracket):
        fixed_along(monkeypatch, j)
        point = find_switch("B", GAAS, FieldConfig(0.0, 0.0, 10.0), bracket)
        assert abs(point.value - 1.0) <= AXIS_XTOL["B"] and point.residual <= 1e-9
        assert point.direction == direction

    def test_efield_exact_zero_near_e_star_is_the_root(self, monkeypatch):
        # |J(E*)| > tol, and J is exactly 0 16 ulps from E*: brent, run from
        # E* to the far end, lands on that zero and ends with its zero-width
        # bracket; J was evaluated at E* too.
        e_star = 1e5
        near = e_star + 16 * math.ulp(e_star)

        def j(x):
            return 1e3 * (x - near)

        got = dotx.sweeps._efield_root(j, 0.0, 2e5, j(0.0), j(2e5), 1e-9, e_star)
        assert got == (near, 0.0, (near, near), 3, 1)
        j.e_star = lambda: e_star  # as the E evaluator of exchange_energy_along has it
        fixed_along(monkeypatch, j)
        point = find_switch("E", GAAS, FieldConfig(2.0, 0.0, 10.0), (0.0, 2e5))
        assert (point.value, point.residual, point.final_bracket) == (near, 0.0, (near, near))
        assert (point.iterations, point.evaluations) == (3, 5)

    def test_zero_at_both_ends_is_no_switch(self, monkeypatch):
        # J underflows to 0 over [60, 100] T at a = 5 a_B; the bracket's
        # lower end was reported as a ferro-to-antiferro switch.
        fixed = FieldConfig(0.0, 0.0, 5.0 * bohr_radius_nm(GAAS))
        with pytest.raises(NoRootInBracketError, match="no sign change"):
            find_switch("B", GAAS, fixed, (60.0, 100.0))
        fixed_along(monkeypatch, lambda x: 0.0)
        with pytest.raises(NoRootInBracketError, match="no sign change"):
            find_switch("E", GAAS, fixed, (0.0, 1e5))

    def test_underflow_at_one_end_is_no_switch(self):
        # J > 0 below the switch near 0.88 T, < 0 past it, and exactly 0 from
        # 51.67 T on: the bracket holds a switch, but its 100 T end has no sign.
        fixed = FieldConfig(0.0, 0.0, 5.0 * bohr_radius_nm(GAAS))
        assert exchange_energy_along(GAAS, fixed, "B")(100.0) == 0.0
        with pytest.raises(NoRootInBracketError, match=re.escape(
            "no sign change on [0.0, 100.0]: f="
        )):
            find_switch("B", GAAS, fixed, (0.0, 100.0))
        # J > 0 up to d = 19.3 and exactly 0 past it, never < 0: no switch.
        fixed = FieldConfig(0.0, 0.0, 0.7 * bohr_radius_nm(GAAS))
        j = exchange_energy_along(GAAS, fixed, "d")
        values = [j(x) for x in _grid(0.5, 40.0, 400)]
        assert min(values) == 0.0 == j(40.0) and not any(v < 0.0 for v in values)
        with pytest.raises(NoRootInBracketError, match="no sign change"):
            find_switch("d", GAAS, fixed, (0.5, 40.0))

    def test_underflow_is_not_a_switch(self):
        # At a = 5 a_B, J < 0 past the switch near 0.88 T underflows to 0
        # between two pre-scan samples (at 51.67 T), which was reported as a
        # second, ferro-to-antiferro switch.
        fixed = FieldConfig(0.0, 0.0, 5.0 * bohr_radius_nm(GAAS))
        grid = _grid(0.0, 100.0, 121)
        values = list(map(exchange_energy_along(GAAS, fixed, "B"), grid))
        first_zero = values.index(0.0)
        assert grid[first_zero] == pytest.approx(51.67, abs=0.01) and values[first_zero - 1] < 0.0
        points = scan_switches("B", GAAS, fixed, 0.0, 100.0)
        assert [p.direction for p in points] == ["antiferro_to_ferro"]
        assert 0.8 < points[0].value < 0.9


def switch_outcome(run):
    """repr of what `run` returns, or the type and message of the dotx error it raises."""
    try:
        return repr(run())
    except DotxError as exc:
        return type(exc), str(exc)


# Each lab field as a map of [0, 1]: B in [0, 150] T, E in [-1e6, 2e6] V/m and
# d in [0.1, 63], cubed so that the draws hold the switches at small B, |E|
# and d as well as the ranges where J underflows to exactly 0.
CUBED_DRAWS = {
    "B": lambda u: 150.0 * u**3,
    "E": lambda u: 1e6 * (-1.0 + (1.0 + 2.0 ** (1.0 / 3.0)) * u) ** 3,
    "d": lambda u: 0.1 + 62.9 * u**3,
}


class TestOneSignRule:
    """`find_switch` on [lo, hi] decides as `scan_switches` does on the two
    samples lo and hi: J = 0 has no sign, so an end where J underflows to 0
    (or is a root) is no switch."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(
        st.sampled_from(["B", "E", "d"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0).map(CUBED_DRAWS["B"]),
        st.floats(0.0, 1.0).map(CUBED_DRAWS["E"]),
        st.floats(0.0, 1.0).map(lambda u: (0.3 + 15.7 * u**3) * bohr_radius_nm(GAAS)),
    )
    def test_find_switch_is_the_two_sample_scan(self, axis, u, v, B, E, a):
        lo, hi = sorted(map(CUBED_DRAWS[axis], (u, v)))
        assume(lo < hi)
        fixed = FieldConfig(B, E, a)
        scanned = switch_outcome(lambda: scan_switches(axis, GAAS, fixed, lo, hi, scan_steps=2))
        found = switch_outcome(lambda: find_switch(axis, GAAS, fixed, (lo, hi)))
        if scanned == "[]":
            assert found[0] is NoRootInBracketError
        elif isinstance(scanned, str):  # one switch point
            assert f"[{found}]" == scanned
        else:  # J, or the switch, raises the same error on both
            assert found == scanned


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


    @pytest.mark.parametrize("scan_steps", [13.0, np.float64(13.0), True], ids=["float", "numpy", "bool"])
    def test_step_count_must_be_an_integer(self, gaas, gaas_fields, scan_steps):
        message = f"scan needs between 2 and 100000 steps, got {scan_steps!r}"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            scan_switches("B", gaas, gaas_fields, 0.1, 3.0, scan_steps=scan_steps)
        want = scan_switches("B", gaas, gaas_fields, 0.1, 3.0, scan_steps=13)
        assert scan_switches("B", gaas, gaas_fields, 0.1, 3.0, scan_steps=np.int64(13)) == want


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

    @pytest.mark.parametrize(
        "steps_per_phase", [5.0, np.float64(5.0), True], ids=["float", "numpy", "bool"]
    )
    def test_step_count_must_be_an_integer(self, gaas, gaas_fields, steps_per_phase):
        message = f"scenario needs between 1 and 100000 steps per phase, got {steps_per_phase!r}"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            switching_scenario(gaas, gaas_fields.a, steps_per_phase=steps_per_phase)
        want = switching_scenario(gaas, gaas_fields.a, steps_per_phase=5)
        assert switching_scenario(gaas, gaas_fields.a, steps_per_phase=np.int64(5)) == want

    @pytest.mark.parametrize("b_operating", [1e5, 1e20])
    def test_underflowed_operating_j_rejected(self, gaas, gaas_fields, b_operating):
        # J is exactly 0 there, neither antiferromagnetic nor ferromagnetic
        assert exchange_energy_lab(gaas, gaas_fields._replace(B=b_operating)).j_mev == 0.0
        message = f"J underflows to 0 at the operating field {b_operating} T"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            switching_scenario(gaas, gaas_fields.a, b_operating=b_operating)
