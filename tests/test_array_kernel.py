"""The array closed form against the scalar one, and both against mpmath.

`sweep` evaluates a grid of more than 512 points through
`exchange_energy_arrays`; a shorter one, the point evaluators, Brent, the
switch pre-scan and the scenario phases use the scalar closed form.  The kernel
runs the scalar operations as numpy ufuncs, whose exp, expm1, sinh and
hypot may round differently from the C library's, so each array row is
held to the scalar one within the per-column bounds of
`conftest.kernel_bounds`; which points are valid, and the errors raised,
match exactly.  Both forms are held to a 50-digit J.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dotx.closed_form
import dotx.special
import dotx.sweeps
from dotx.closed_form import exchange_energy, exchange_energy_arrays, exchange_energy_lab, overlap
from dotx.errors import (
    InvalidArgumentError,
    InvalidParameterError,
    ParameterOverflowError,
    SingularConfigurationError,
)
from dotx.special import _I0_SPLIT, bessel_i0e, bessel_i0e_array
from dotx.sweeps import SweepSpec, scan_switches, sweep, switching_scenario
from dotx.units import (
    GAAS,
    FieldConfig,
    MaterialParams,
    bohr_radius_nm,
    coulomb_strength,
    derive_parameters,
    fields_from_dimensionless,
)

from conftest import (
    EPS,
    assert_kernel_close,
    assert_rows_close,
    j_bound,
    j_mp,
    loop_sweep,
    rel_err,
    sweep_both,
)

A_B = bohr_radius_nm(GAAS)


# Any float, with the lab map's edges drawn often: nan, +-inf, +-0, a
# negative distance, the smallest subnormal, and values near both ends.
ANY_FLOAT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -0.7 * A_B, 5e-324, 1e-300, 1e308]),
    st.floats(),
)

COLUMNS = ("b", "d", "efield_ratio", "prefactor", "coulomb_term", "quartic_term",
           "efield_term", "j_dimensionless", "j_mev", "s_overlap")


def scalar_rows(mat, B, E, a):
    """Per point: the scalar columns (b, d, chi, breakdown..., S), or None where
    it raises the error a sweep turns into a singular row."""
    rows = []
    for point in zip(B, E, a):
        fields = FieldConfig(*map(float, point))
        try:
            p = derive_parameters(mat, fields)
            bd = exchange_energy_lab(mat, fields)
        except (InvalidParameterError, SingularConfigurationError):
            rows.append(None)
            continue
        rows.append(dict(zip(COLUMNS, (
            p.b, p.d, p.efield_ratio, bd.prefactor, bd.coulomb_term, bd.quartic_term,
            bd.efield_term, bd.j_dimensionless, bd.j_mev, overlap(p.b, p.d),
        ))))
    return rows


def array_rows(mat, B, E, a):
    cols = exchange_energy_arrays(mat, *(np.asarray(v, dtype=float) for v in (B, E, a)))
    columns = [getattr(cols, name).tolist() for name in COLUMNS]
    return [
        dict(zip(COLUMNS, (column[i] for column in columns))) if valid else None
        for i, valid in enumerate(cols.valid.tolist())
    ]


def assert_close(mat, B, E, a):
    """The same valid points in both forms, each within `kernel_bounds`."""
    got, want = array_rows(mat, B, E, a), scalar_rows(mat, B, E, a)
    assert [g is not None for g in got] == [w is not None for w in want]
    c = coulomb_strength(mat)
    for i, (g, w) in enumerate(zip(got, want)):
        if w is not None:
            assert_kernel_close(g, w, c, mat.confinement_energy, (B[i], E[i], a[i]))
    return got


def assert_i0e_close(got, x):
    """`bessel_i0e_array` against `bessel_i0e`: the large-argument branch
    exactly, the series branch, whose exp(-x) is numpy's, within 4 eps
    (1.77 eps at most on 240 000 points)."""
    for g, v in zip(got, x):
        w = bessel_i0e(v)
        if abs(v) >= _I0_SPLIT:
            assert repr(g) == repr(w), v
        else:
            assert abs(g - w) <= 4.0 * EPS * w, v


class TestBesselArray:
    def test_matches_scalar_on_both_branches(self):
        x = np.concatenate([
            np.linspace(0.0, 10.0, 20001),
            np.linspace(-50.0, 800.0, 20001),
            [math.nextafter(_I0_SPLIT, 0.0), _I0_SPLIT, 5e-324, 1e-300, 1e300, math.inf, -math.inf],
        ])
        assert_i0e_close(bessel_i0e_array(x).tolist(), x.tolist())

    @pytest.mark.parametrize(
        "x, large_calls",
        [
            ([0.0, 1.5, -7.0, math.nextafter(_I0_SPLIT, 0.0)], 0),
            ([_I0_SPLIT, 12.0, -800.0, 1e300, math.inf], 1),
            ([0.3, _I0_SPLIT, -2.0, 40.0], 1),
            ([], 0),
            ([1, 2], 0),
        ],
        ids=["all-small", "all-large", "mixed", "empty", "int"],
    )
    def test_branches_run_only_on_their_arguments(self, monkeypatch, x, large_calls):
        calls = []
        large = dotx.special._i0e_large

        def counted(values, *args):
            calls.append(np.size(values))
            return large(values, *args)

        monkeypatch.setattr(dotx.special, "_i0e_large", counted)
        got = bessel_i0e_array(np.array(x)).tolist()
        assert len(calls) == large_calls and 0 not in calls
        monkeypatch.undo()
        assert_i0e_close(got, x)

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bessel_i0e_array(np.array([1.0, math.nan]))

    def test_series_length_is_the_longest_scalar_loop(self):
        def loop_length(x):  # the early-exit loop of special._i0_series, counted
            q = 0.25 * x * x
            total = term = 1.0
            k = 0
            while True:
                k += 1
                term *= q / (k * k)
                if total + term == total:
                    return k
                total += term

        xs = np.linspace(0.0, _I0_SPLIT, 50001)[:-1].tolist() + [math.nextafter(_I0_SPLIT, 0.0)]
        assert dotx.special._I0_SERIES_TERMS == max(map(loop_length, xs))


def i0e_whole_series(x):
    """`bessel_i0e_array` with every term of the series summed, each branch
    gathered from and scattered back into the whole array."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x < _I0_SPLIT
    xs, xl = x[small], x[~small]
    if xs.size:
        q = 0.25 * xs * xs
        total, term = np.ones_like(xs), np.ones_like(xs)
        for k in range(1, dotx.special._I0_SERIES_TERMS + 1):
            term *= q / float(k * k)
            total += term
        out[small] = np.exp(-xs) * total
    if xl.size:
        with np.errstate(over="ignore"):
            out[~small] = dotx.special._i0e_large(xl, np.sqrt)
    return out


def kernel_whole_work(mat, B, E, a):
    """`exchange_energy_arrays` with every point's whole work: the inputs
    broadcast to the grid's shape up front and flattened, the series of
    `i0e_whole_series` for each of `_formula`'s I0e pair, the accept rule
    folded on every row, `prefactor` and `coulomb_term` gathered on their
    branches and scattered back, and the scalar form's error raised at the
    first point, in flat order, where an overflow case fails."""
    from dotx.closed_form import _ADMITS, _SETTLES, _admits, _formula, _settles, _terms
    from dotx.units import E_CHARGE, NM_TO_M, _material_constants

    def fold(cases, tests, valid, overflows):
        for test, (error, _) in zip(tests, cases):
            if error is ParameterOverflowError:
                overflows |= valid & ~test
            valid &= test

    B, E, a = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (B, E, a)))
    shape = B.shape
    B, E, a = B.ravel(), E.ravel(), a.ravel()
    m, omega0, a_b, c, quantum = _material_constants(mat)
    with np.errstate(all="ignore"):
        b = np.hypot(omega0, E_CHARGE * np.abs(B) / (2.0 * m)) / omega0
        d = a / a_b
        chi = E_CHARGE * E * a * NM_TO_M / quantum
        points = b, d, chi
        valid = np.isfinite(a) & (a > 0.0) & np.isfinite(B) & np.isfinite(E)
        overflows = np.zeros_like(valid)
        fold(_ADMITS, _admits(b, d, c, chi, np.isfinite), valid, overflows)
        kept = np.flatnonzero(valid)
        b, d, chi = b[kept], d[kept], chi[kept]
        x2, arg, em, csb, i0e_x1, i0e_x2, quartic_term, efield_term, j_dimensionless = _formula(
            b, d * d, c, chi, lambda x1, x2: (i0e_whole_series(x1), i0e_whole_series(x2)),
            None, np.exp, np.expm1, np.sqrt,
        )
        j_mev = j_dimensionless * mat.confinement_energy
        ok, kept_overflows = np.ones_like(kept, dtype=bool), np.zeros_like(kept, dtype=bool)
        fold(_SETTLES, _settles(arg, csb, efield_term, j_mev, np.isfinite), ok, kept_overflows)
        overflows[kept] |= kept_overflows
        if overflows.any():
            i = overflows.argmax()
            b0, d0, chi0 = (v.item(i) for v in points)
            _terms(b0, d0, c, chi0, mat.confinement_energy)
            raise AssertionError("an overflow case fails, but _terms raises nothing")
        valid[kept[~ok]] = False
        prefactor = 2.0 * em
        near = arg < 350.0
        prefactor[near] = 1.0 / np.sinh(arg[near])
        coulomb_term = np.full_like(arg, -math.inf)
        finite = 2.0 * x2 < 700.0
        coulomb_term[finite] = csb[finite] * (
            i0e_x1[finite] - np.exp(2.0 * x2[finite]) * i0e_x2[finite]
        )
        s_overlap = np.exp(-d * d * (2.0 * b - 1.0 / b))
    columns = []
    for values in (b, d, chi, prefactor, coulomb_term, quartic_term, efield_term,
                   j_dimensionless, j_mev, s_overlap):
        out = np.full(valid.shape, math.nan)
        out[valid] = values[ok]
        columns.append(out.reshape(shape))
    return columns + [valid.reshape(shape)]


# A d row from 1e-170 to 2e-153, whose first 64 points the accept rule rejects.
SINGULAR_D_ROW = (np.zeros(1601), np.zeros(1601), np.linspace(1e-170, 2e-153, 1601) * A_B)


def rejection_row():
    """A 1601-point B row at 1e5 V/m and a = 0.7 a_B, every 7th point of
    which is changed so that one of the accept rule's cases that do not
    overflow rejects it, each case in turn; and those points' mask."""
    a0 = 0.7 * A_B
    lab = {"B": np.linspace(0.0, 7.5, 1601), "E": np.full(1601, 1e5), "a": np.full(1601, a0)}
    rejections = [
        {"B": math.nan}, {"B": math.inf}, {"B": -math.inf}, {"B": 1e300},  # b not finite
        {"E": math.inf}, {"E": -math.inf},  # chi not finite
        {"a": 0.0}, {"a": -0.0}, {"a": -a0}, {"a": math.nan}, {"a": math.inf},  # d out of range
        {"a": 1e-170 * A_B},  # d^2 rounds to 0
        {"a": 1e-158 * A_B},  # J overflows
        {"B": 30.0, "a": 1e-155 * A_B},  # 1/sinh(arg) overflows
    ]
    rejected = np.zeros(1601, dtype=bool)
    rejected[3::7] = True
    for k, i in enumerate(np.flatnonzero(rejected)):
        for name, value in rejections[k % len(rejections)].items():
            lab[name][i] = value
    B, E, a = lab.values()
    return B, E, a, rejected


def phase_map_rows():
    """(B, E, a) rows of 1601 points over the bench phase-map's ranges: B
    rows to 7-8 T at E up to 3e5 V/m, d rows over 0.1-1.5 at B up to 3 T,
    both at a/a_B in 0.6-0.8; `SINGULAR_D_ROW`; and `rejection_row`'s row."""
    rng = np.random.default_rng(35)
    rows = []
    for i in range(6):
        a = np.full(1601, rng.uniform(0.6, 0.8) * A_B)
        B = np.linspace(0.0, rng.uniform(7.0, 8.0), 1601)
        rows.append(pytest.param(B, np.full(1601, rng.uniform(0.0, 3e5)), a, id=f"B-{i}"))
        d = np.linspace(rng.uniform(0.1, 0.15), rng.uniform(1.4, 1.5), 1601)
        B, E = np.full(1601, rng.uniform(0.0, 3.0)), np.full(1601, rng.uniform(0.0, 5e4))
        rows.append(pytest.param(B, E, d * A_B, id=f"d-{i}"))
    return rows + [
        pytest.param(*SINGULAR_D_ROW, id="singular-d"),
        pytest.param(*rejection_row()[:3], id="rejections"),
    ]


def unbroadcast_inputs():
    """(B, E, a) as `sweep` passes them, the fixed coordinates as floats:
    rows along B, E and d; (161, 1) x (1, 101) outer grids in (B, E) and
    (B, d); those grids with a nan B and with a d whose square underflows;
    and 0-d inputs."""
    rng = np.random.default_rng(40)
    B_col = np.linspace(0.0, 8.0, 161)[:, None]
    E_row = np.linspace(-3e5, 3e5, 101)[None, :]
    a_row = np.linspace(0.1, 1.5, 101)[None, :] * A_B
    nan_B = B_col.copy()
    nan_B[37, 0] = math.nan
    tiny_a = a_row.copy()
    tiny_a[0, 23] = 1e-170 * A_B
    params = []
    for i in range(3):
        a = rng.uniform(0.6, 0.8) * A_B
        B, E = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3e5)
        params += [
            pytest.param(np.linspace(0.0, rng.uniform(7.0, 8.0), 1601), E, a, id=f"B-{i}"),
            pytest.param(B, np.linspace(-3e5, 3e5, 1601), a, id=f"E-{i}"),
            pytest.param(B, E, np.linspace(0.1, 1.5, 1601) * A_B, id=f"d-{i}"),
        ]
    return params + [
        pytest.param(2.0, np.linspace(-1e12, 1e12, 1601), 0.7 * A_B, id="E-wide"),
        pytest.param(B_col, E_row, 0.7 * A_B, id="BE-grid"),
        pytest.param(B_col, 1e5, a_row, id="Bd-grid"),
        pytest.param(nan_B, E_row, 0.7 * A_B, id="BE-grid-nan-B"),
        pytest.param(B_col, 1e5, tiny_a, id="Bd-grid-d2-underflows"),
        pytest.param(np.array(1.5), np.array(1e5), np.array(0.7 * A_B), id="0-d"),
    ]


# Inputs at which an overflow case fails first at a point past the first:
# chi^2/d^2 at flat index 1 (E = 1e298 at a = 1e-5 a_B), and b*d^2 in row
# 5 of a (d, B) grid, at the first B whose b passes 1.8 (d^2 = 1e308).
OVERFLOW_INPUTS = [
    pytest.param(np.linspace(0.0, 8.0, 161)[:, None], np.linspace(0.0, 1e300, 101)[None, :],
                 1e-5 * A_B, "chi^2/d^2 overflows", id="chi2-over-d2"),
    pytest.param(np.linspace(0.0, 30.0, 101)[None, :], 0.0,
                 np.where(np.arange(161) == 5, 1e154, 0.7)[:, None] * A_B, "b*d^2 overflows",
                 id="b-d2"),
]


class TestSameBitsAsWholeWork:
    """The early-stopping series and the row that skips its mask work give
    the bytes of the forms that do all of it, on the machine that runs the
    test (numpy's exp and sinh bits vary by CPU, so no digest is pinned)."""

    @pytest.mark.parametrize("B, E, a", phase_map_rows())
    def test_kernel_columns(self, B, E, a):
        got = exchange_energy_arrays(GAAS, B, E, a)
        want = kernel_whole_work(GAAS, B, E, a)
        for name, g, w in zip(COLUMNS + ("valid",), got, want):
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("B, E, a", unbroadcast_inputs())
    def test_unbroadcast_inputs(self, B, E, a):
        got = exchange_energy_arrays(GAAS, B, E, a)
        want = kernel_whole_work(GAAS, B, E, a)
        for name, g, w in zip(COLUMNS + ("valid",), got, want):
            assert g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("B, E, a, case", OVERFLOW_INPUTS)
    def test_overflow_past_the_first_point(self, B, E, a, case):
        with pytest.raises(ParameterOverflowError) as want:
            kernel_whole_work(GAAS, B, E, a)
        with pytest.raises(ParameterOverflowError) as got:
            exchange_energy_arrays(GAAS, B, E, a)
        assert case in str(want.value)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_grid_sums_each_series_once_per_b(self, monkeypatch):
        # On a (161, 1) x (1, 101) (B, E) grid, x1 and x2 depend on B alone
        sizes = []
        series = dotx.special._i0e_series_array

        def counted(x):
            sizes.append(x.size)
            return series(x)

        monkeypatch.setattr(dotx.special, "_i0e_series_array", counted)
        cols = exchange_energy_arrays(
            GAAS, np.linspace(0.0, 8.0, 161)[:, None], np.linspace(-3e5, 3e5, 101)[None, :],
            0.7 * A_B,
        )
        assert cols.j_mev.shape == (161, 101)
        assert sizes == [161, 161]

    def test_broadcast_columns_are_read_only_views(self):
        cols = exchange_energy_arrays(GAAS, 2.0, np.linspace(-3e5, 3e5, 1601), 0.7 * A_B)
        assert cols.b.shape == (1601,) and cols.b.strides == (0,)
        assert not cols.b.flags.writeable
        assert cols.j_mev.flags.writeable  # formed at every point

    def test_singular_row_rejects_its_first_64_points(self):
        valid = exchange_energy_arrays(GAAS, *SINGULAR_D_ROW).valid
        assert not valid[:64].any() and valid[64:].all()

    def test_rejection_row_rejects_its_changed_points(self):
        B, E, a, rejected = rejection_row()
        assert (exchange_energy_arrays(GAAS, B, E, a).valid == ~rejected).all()

    @pytest.mark.parametrize(
        "x",
        [
            [0.0],
            [5e-324],
            [math.nextafter(_I0_SPLIT, 0.0)],
            [_I0_SPLIT],
            [1e300],
            [0.0, 5e-324, math.nextafter(_I0_SPLIT, 0.0), _I0_SPLIT, 40.0, 800.0, 1e300, math.inf],
            [3.0, -0.5, 12.0, 7.4],
            [12.0, 1e5, 1e300],
            [],
        ],
        ids=["0", "subnormal", "below-split", "split", "large", "mixed", "mixed-2", "all-large",
             "empty"],
    )
    def test_i0e_special_arguments(self, x):
        x = np.array(x)
        assert bessel_i0e_array(x).tobytes() == i0e_whole_series(x).tobytes()

    def test_i0e_at_every_stopping_length(self):
        # rows whose largest argument runs the series from 1 term to all 20
        for top in np.linspace(0.0, _I0_SPLIT, 1001)[:-1].tolist() + [math.nextafter(_I0_SPLIT, 0.0)]:
            x = np.linspace(0.0, top, 65)[::-1]
            assert bessel_i0e_array(x).tobytes() == i0e_whole_series(x).tobytes(), top


class TestKernelMatchesScalar:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-60.0, 60.0),
                st.floats(-1e7, 1e7),
                st.floats(1e-7, 8.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_random_lab_points(self, points):
        B, E, a_rel = zip(*points)
        assert_close(GAAS, B, E, [x * A_B for x in a_rel])

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=20))
    def test_mask_over_the_whole_float_domain(self, points):
        # valid is False exactly where the scalar path raises an error that
        # is not an overflow; where a point overflows, the kernel raises the
        # scalar path's error of the first such point.
        valid, overflow = [], None
        for point in points:
            try:
                exchange_energy_lab(GAAS, FieldConfig(*point))
            except (InvalidParameterError, SingularConfigurationError) as exc:
                valid.append(False)
                if type(exc) is ParameterOverflowError:
                    overflow = overflow or exc
            else:
                valid.append(True)
        if overflow is None:
            assert exchange_energy_arrays(GAAS, *zip(*points)).valid.tolist() == valid
        else:
            with pytest.raises(InvalidParameterError) as raised:
                exchange_energy_arrays(GAAS, *zip(*points))
            assert str(raised.value) == str(overflow)

    def test_branch_thresholds(self):
        # Lab points whose x1 = b d^2 straddles the I0 splice at 7.5, whose
        # arg = 2 d^2 (2b - 1/b) straddles the prefactor switch at 350, and
        # whose 2 x2 = 2 d^2 (b - 1/b) straddles 700, where the printed
        # coulomb term turns to -inf.
        targets = [  # (b, d) on each threshold
            (1.0, math.sqrt(_I0_SPLIT)),
            (2.0, math.sqrt(_I0_SPLIT / 2.0)),
            (2.0, math.sqrt(_I0_SPLIT / 1.5)),
            (1.0, math.sqrt(175.0)),
            (1.5, math.sqrt(175.0 / (3.0 - 1.0 / 1.5))),
            (3.0, math.sqrt(350.0 / (3.0 - 1.0 / 3.0))),
            (1.2, math.sqrt(350.0 / (1.2 - 1.0 / 1.2))),
        ]
        B, E, a = [], [], []
        for b, d in targets:
            for k in range(-40, 41):
                fields = fields_from_dimensionless(GAAS, b, d * (1.0 + k * 1e-13), efield_ratio=0.3)
                B.append(fields.B)
                E.append(fields.E)
                a.append(fields.a)
        rows = assert_close(GAAS, B, E, a)
        b, d = np.array([r["b"] for r in rows]), np.array([r["d"] for r in rows])
        x1, x2 = b * d * d, d * d * (b - 1.0 / b)
        arg = 2.0 * (x1 + x2)
        for value, threshold in ((x1, _I0_SPLIT), (x2, _I0_SPLIT), (arg, 350.0), (2.0 * x2, 700.0)):
            assert (value < threshold).any() and (value >= threshold).any()
        assert any(r["coulomb_term"] == -math.inf for r in rows)

    def test_singular_inputs(self):
        a = 0.7 * A_B
        points = [  # (B, E, a, whether the scalar path gives a breakdown)
            (1.0, 0.0, a, True),
            (0.0, 0.0, 0.0, False),
            (1.0, math.inf, a, False),
            (1.0, -math.inf, a, False),
            (math.nan, 0.0, a, False),
            (1e300, 0.0, a, False),  # b overflows
            (-1e300, 0.0, a, False),
            (1.0, 0.0, -a, False),
            (1.0, 1e5, 1e-9 * A_B, True),  # 1 - S^4 = 8e-18, from expm1
            (1.0, 1e5, 1e-158 * A_B, False),  # 1 - S^4 is subnormal: J overflows
            (1.0, 1e5, 1e-170 * A_B, False),  # d^2, and with it 1 - S^4, rounds to 0
            (30.0, 0.0, 1e-155 * A_B, False),  # J is finite, 1/sinh(arg) overflows
            (30.0, 0.0, 2e-155 * A_B, True),
        ]
        B, E, A, valid = zip(*points)
        rows = assert_close(GAAS, B, E, A)
        assert [row is not None for row in rows] == list(valid)

    def test_field_overflow_raises_like_scalar(self):
        # chi^2 / d^2 overflows: J would be +inf; both forms name the field
        # and the distance at the first such point, after the singular ones.
        a = 0.7 * A_B
        fields = FieldConfig(B=1.0, E=1e305, a=a)
        overflows = r"chi=.*d=.*chi\^2/d\^2 overflows"
        with pytest.raises(InvalidParameterError, match=overflows) as scalar:
            exchange_energy_lab(GAAS, fields)
        p = derive_parameters(GAAS, fields)
        assert f"chi={p.efield_ratio!r}" in str(scalar.value) and f"d={p.d!r}" in str(scalar.value)
        with pytest.raises(InvalidParameterError) as array:
            exchange_energy_arrays(
                GAAS, 1.0, [1e5, 1e305, math.inf, 1e306, 1e306], [a, a, a, a, 1e-170 * A_B]
            )
        assert type(array.value) is type(scalar.value) and str(array.value) == str(scalar.value)
        cols = exchange_energy_arrays(GAAS, 1.0, [1e5, 1e306], [a, 1e-170 * A_B])
        assert cols.valid.tolist() == [True, False]  # singular before it overflows

    def test_grid_columns_are_the_flat_rows(self):
        # A (B, E) grid with a rejected point gives the columns of its points
        # as one row, reshaped (an IndexError in the gathers before).
        B = np.linspace(0.0, 7.5, 12).reshape(3, 4)
        B[1, 2] = math.nan
        E = np.linspace(0.0, 3e5, 5)[:, None, None]
        a = 0.7 * A_B
        grid = exchange_energy_arrays(GAAS, B, E, a)
        flat = exchange_energy_arrays(GAAS, *(np.broadcast_to(v, (5, 3, 4)).ravel() for v in (B, E, a)))
        assert grid.valid.shape == (5, 3, 4) and grid.valid.sum() == 55
        assert not grid.valid[:, 1, 2].any()
        for name, g, f in zip(COLUMNS + ("valid",), grid, flat):
            assert g.shape == (5, 3, 4), name
            assert g.tobytes() == f.tobytes(), name

    def test_grid_overflow_raises_the_flat_rows_error(self):
        # chi^2/d^2 overflows at one point of a 2-D grid: the flat row's error
        # (numpy's broadcast ValueError before)
        with pytest.raises(InvalidParameterError) as flat:
            exchange_energy_arrays(GAAS, 1.0, [0.0, 1.0, 1e300, 2.0], 10.0)
        assert "chi^2/d^2 overflows" in str(flat.value)
        with pytest.raises(InvalidParameterError) as grid:
            exchange_energy_arrays(GAAS, 1.0, [[0.0, 1.0], [1e300, 2.0]], 10.0)
        assert type(grid.value) is type(flat.value) and str(grid.value) == str(flat.value)

    @pytest.mark.parametrize(
        "mat",
        [
            MaterialParams(effective_mass=-1.0, dielectric_const=13.1, confinement_energy=3.0),
            MaterialParams(effective_mass=0.067, dielectric_const=1e-320, confinement_energy=3.0),
            MaterialParams(effective_mass=1e-300, dielectric_const=13.1, confinement_energy=1e-20),
        ],
    )
    def test_bad_material_raises_like_scalar(self, mat):
        a = 0.7 * A_B
        with pytest.raises(InvalidParameterError) as scalar:
            exchange_energy_lab(mat, FieldConfig(1.0, 0.0, a))
        with pytest.raises(InvalidParameterError) as array:
            exchange_energy_arrays(mat, [1.0, 0.0], 0.0, [a, 0.0])
        assert str(array.value) == str(scalar.value)
        spec = SweepSpec(vary="B", start=0.0, stop=3.0, steps=5, fixed=FieldConfig(0.0, 0.0, a),
                         material=mat)
        for run in (
            lambda: sweep_both(spec),
            lambda: scan_switches("E", mat, FieldConfig(2.0, 0.0, a), 0.0, 2e5),
            lambda: switching_scenario(mat, a),
        ):
            with pytest.raises(InvalidParameterError) as raised:
                run()
            assert str(raised.value) == str(scalar.value)

    @pytest.mark.parametrize("steps", [7, 513])
    def test_coulomb_overflow_raises_on_both_sweep_paths(self, steps):
        # c sqrt(b) overflows at every point: the scalar path wrote rows of
        # nan not marked singular, the array path marked every row singular
        mat = MaterialParams(0.067, 13.1, 3.0, c_override=1e308)
        spec = SweepSpec(vary="d", start=2.0, stop=8.0, steps=steps,
                         fixed=FieldConfig(60.0, 0.0, A_B), material=mat)
        with pytest.raises(
            ParameterOverflowError,
            match=r"^coulomb strength c=1e\+308 is too large at b=17.30766472151697: "
                  r"c\*sqrt\(b\) overflows$",
        ):
            sweep_both(spec)

    @pytest.mark.parametrize("B", [0.0, 1.0])
    def test_distance_overflow_raises_like_scalar(self, B):
        # d^2 overflows: at b = 1 x2 = inf * 0 would be nan, at b > 1 J would
        # be nan; both forms name the distance instead.
        fields = FieldConfig(B=B, E=0.0, a=1e300)
        with pytest.raises(InvalidParameterError, match=r"distance d=.*d\^2 overflows") as scalar:
            exchange_energy_lab(GAAS, fields)
        assert repr(fields.a / A_B) in str(scalar.value)
        with pytest.raises(InvalidParameterError) as array:
            exchange_energy_arrays(GAAS, [1.0, B, B], 0.0, [0.7 * A_B, 1e300, 1e301])
        assert str(array.value) == str(scalar.value)

    def test_scaled_distance_overflow_raises_like_scalar(self):
        # b d^2 overflows while d^2 does not: J would be 0 * inf = nan in
        # both forms; both name the distance and b at the first such point.
        fields = FieldConfig(B=30.0, E=0.0, a=1.2e154 * A_B)
        with pytest.raises(InvalidParameterError, match=r"b\*d\^2 overflows") as scalar:
            exchange_energy_lab(GAAS, fields)
        p = derive_parameters(GAAS, fields)
        assert f"d={p.d!r}" in str(scalar.value) and f"b={p.b!r}" in str(scalar.value)
        with pytest.raises(InvalidParameterError) as array:
            exchange_energy_arrays(GAAS, 30.0, 0.0, [0.7 * A_B, fields.a, 1.3e154 * A_B])
        assert str(array.value) == str(scalar.value)
        # b (d d), which the checks form, overflows but (b d) d does not: the
        # error still names b d^2, not the field, which is 0
        b, d = 36.47438656052323, 2.2200552445553755e153
        assert b * (d * d) == math.inf and b * d * d < math.inf
        with pytest.raises(InvalidParameterError, match=r"b\*d\^2 overflows"):
            exchange_energy(b, d, 2.36, 0.0)

    def test_tiny_distance_is_singular_in_both(self):
        # 1 - S^4 comes from expm1, so it rounds to 0 only where d^2 does,
        # below d ~ 1e-162; J at d = 1e-9 is finite and accurate.
        j = exchange_energy(1.0, 1e-9, 2.36, 0.0).j_dimensionless
        assert abs(j - float(j_mp(1.0, 1e-9, 2.36, 0.0))) <= j_bound(MP_BOUND, 1.0, 1e-9, 2.36, 0.0)
        with pytest.raises(SingularConfigurationError, match="J overflows"):
            exchange_energy(1.0, 1e-158, 2.36, 0.0)  # 1 - S^4 is subnormal
        with pytest.raises(SingularConfigurationError, match="1 - S"):
            exchange_energy(1.0, 1e-170, 2.36, 0.0)
        with pytest.raises(SingularConfigurationError):
            exchange_energy(1.0, 1e-200, 2.36, 0.0)
        cols = exchange_energy_arrays(
            GAAS, 0.0, 0.0, [1e-9 * A_B, 1e-158 * A_B, 1e-170 * A_B, 1e-200, 1e-7 * A_B]
        )
        assert cols.valid.tolist() == [True, False, False, False, True]
        assert np.isnan(cols.j_mev[1:4]).all() and np.isnan(cols.prefactor[1:4]).all()

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.floats(1.0 - 1e-12, 1e3), st.floats(-170.0, -150.0).map(lambda t: 10.0**t))
    def test_singular_exactly_where_one_minus_s4_rounds_to_0(self, b, d):
        # Both forms check 0 < d^2 in place of 1 - S^4 != 0: the same points for b >= 1 - 1e-12
        def rounds_to_0(b, d):
            d2 = d * d
            return -math.expm1(-2.0 * (2.0 * (b * d2 + d2 * (b - 1.0 / b)))) == 0.0

        def singular(f, *args):
            try:
                f(*args)
            except SingularConfigurationError as exc:
                return str(exc)
            return ""

        terms = singular(dotx.closed_form._terms, b, d, 2.36, 0.0)
        assert ("1 - S^4 rounds to 0" in terms) == rounds_to_0(b, d)
        fields = fields_from_dimensionless(GAAS, max(b, 1.0), d)
        p = derive_parameters(GAAS, fields)
        lab = singular(exchange_energy_lab, GAAS, fields)
        assert ("1 - S^4 rounds to 0" in lab) == rounds_to_0(p.b, p.d)
        assert exchange_energy_arrays(GAAS, fields.B, fields.E, fields.a).valid.tolist() == [not lab]

    def test_overflowing_prefactor_is_singular_in_both(self):
        # 1/sinh(arg) = 1/arg overflows for arg <= 1/DBL_MAX, where J, about
        # 3/(4 b arg), can still be finite: such a point is singular, so that
        # J = prefactor * (coulomb + quartic + efield) holds wherever J is given
        with pytest.raises(SingularConfigurationError, match=r"prefactor 1/sinh.* at d=1e-155, b=10.0"):
            exchange_energy(10.0, 1e-155, 2.36, 0.0)
        bd = exchange_energy(10.0, 1.2e-155, 2.36, 0.0)  # arg just past 1/DBL_MAX
        assert math.isfinite(bd.prefactor) and bd.prefactor > 1e308
        terms = bd.coulomb_term + bd.quartic_term + bd.efield_term
        assert rel_err(bd.prefactor * terms, bd.j_dimensionless) < 1e-14
        ds = [1e-155 * A_B, 2e-155 * A_B, 0.7 * A_B]
        cols = exchange_energy_arrays(GAAS, 30.0, 0.0, ds)
        assert cols.valid.tolist() == [False, True, True]
        assert np.isnan(cols.j_mev[0]) and np.isnan(cols.prefactor[0])
        assert np.isfinite(cols.prefactor[1:]).all()
        with pytest.raises(SingularConfigurationError, match="prefactor"):
            exchange_energy_lab(GAAS, FieldConfig(B=30.0, E=0.0, a=ds[0]))


# (b, d, chi) over b in [1, 50], d in [1e-8, 6] (log-uniform) and |chi| <= 10.
DIMENSIONLESS_POINTS = st.tuples(
    st.floats(1.0, 50.0),
    st.floats(-8.0, math.log10(6.0)).map(lambda t: min(10.0**t, 6.0)),
    st.floats(-10.0, 10.0),
)

# J within 32 eps (1 + arg) M of the 50-digit J at the same floats (`j_bound`):
# the largest ratio seen on 8000 random points was 5.4, at b - 1 = 2e-7,
# where b - 1/b cancels in x2.  arg, the condition of exp(-arg), reaches
# about 1400 where J leaves the normal range; plain eps M would need
# about 650 there.
MP_BOUND = 32.0


class TestAgainstMpmath:
    """Both forms of J against `j_mp`, the formula in 50-digit arithmetic;
    with 1 - S^4 from expm1, small d no longer cancels."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(DIMENSIONLESS_POINTS)
    def test_scalar(self, point):
        b, d, chi = point
        c = coulomb_strength(GAAS)
        got = exchange_energy(b, d, c, chi).j_dimensionless
        efield = 1.5 * chi * chi / (d * d)
        assert abs(got - float(j_mp(b, d, c, chi))) <= j_bound(MP_BOUND, b, d, c, efield)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.lists(DIMENSIONLESS_POINTS, min_size=1, max_size=20))
    def test_array(self, points):
        # Each point goes to the lab and back; the kernel is held to the
        # 50-digit J at its own (b, d, chi).
        fields = [fields_from_dimensionless(GAAS, *point) for point in points]
        cols = exchange_energy_arrays(
            GAAS, *(np.array([getattr(f, name) for f in fields]) for name in ("B", "E", "a"))
        )
        assert cols.valid.all()
        c = coulomb_strength(GAAS)
        for b, d, chi, j in zip(
            cols.b.tolist(), cols.d.tolist(), cols.efield_ratio.tolist(),
            cols.j_dimensionless.tolist(),
        ):
            efield = 1.5 * chi * chi / (d * d)
            assert abs(j - float(j_mp(b, d, c, chi))) <= j_bound(MP_BOUND, b, d, c, efield)


class TestDriversMatchLoops:
    @pytest.mark.parametrize(
        "vary, start, stop, fixed",
        [
            ("B", -60.0, 60.0, (0.0, 3e5, 0.7)),
            ("E", -1e7, 1e7, (2.0, 0.0, 0.7)),
            ("d", 1e-9, 15.0, (1.5, 5e4, 0.7)),
            ("B", 0.0, 3.0, (0.0, 0.0, 0.0)),
            ("E", -1e12, 1e12, (1.0, 0.0, 0.7)),
        ],
    )
    def test_sweep(self, vary, start, stop, fixed):
        B, E, a_rel = fixed
        spec = SweepSpec(vary=vary, start=start, stop=stop, steps=1601,
                         fixed=FieldConfig(B, E, a_rel * A_B), material=GAAS)
        assert_rows_close(sweep(spec), loop_sweep(spec), GAAS)

    @pytest.mark.parametrize(
        "vary, start, stop, repeated",
        [
            ("B", 0.0, 8.0, {"d", "efield_term"}),
            ("E", -3e5, 3e5, {"b", "d", "s_overlap", "prefactor", "coulomb_term", "quartic_term"}),
            ("d", 0.1, 1.5, {"b"}),
        ],
    )
    def test_row_columns_repeat_broadcast_values(self, vary, start, stop, repeated):
        spec = SweepSpec(vary=vary, start=start, stop=stop, steps=1601,
                         fixed=FieldConfig(1.5, 3e4, 0.7 * A_B), material=GAAS)
        got = dict(zip(dotx.sweeps.SweepRow._fields, dotx.sweeps._row_columns(spec)))
        lab = dotx.sweeps._axis_fields(spec.fixed, vary, np.linspace(start, stop, 1601), A_B)
        cols = exchange_energy_arrays(GAAS, *lab)._asdict()
        cols["singular"] = ~cols.pop("valid")
        for name in set(got) - {"x"}:
            want = np.array(cols[name]).tolist()  # materialised, not a view
            assert repr(got[name]) == repr(want), name
            assert {type(v) for v in got[name]} == {bool if name == "singular" else float}, name
            # a repeated column holds one float object
            assert (len({id(v) for v in got[name]}) == 1) == (name in repeated | {"singular"}), name

    def test_scan_prescan_makes_no_array_call(self, monkeypatch):
        def array(*args):
            raise AssertionError("array closed form called")

        monkeypatch.setattr(dotx.sweeps, "exchange_energy_arrays", array)
        fixed = FieldConfig(0.0, 0.0, 0.7 * A_B)
        assert scan_switches("B", GAAS, fixed, 0.0, 0.5) == []
        assert [point.axis for point in scan_switches("B", GAAS, fixed, 0.5, 3.0)] == ["B"]

    def test_scan_rejection_is_the_scalar_one(self):
        fixed = FieldConfig(1.5, 0.0, 0.7 * A_B)
        with pytest.raises(SingularConfigurationError, match="d=0"):
            scan_switches("d", GAAS, fixed, 0.0, 1.5)
        # Past d ~ 1e154 d^2 overflows; the error names the first such distance.
        with pytest.raises(InvalidParameterError, match=r"distance d=.*d\^2 overflows"):
            scan_switches("d", GAAS, FieldConfig(0.0, 0.0, 0.7 * A_B), 1.0, 1e160)

    @pytest.mark.parametrize("steps_per_phase", [1, 13, 40])
    def test_scenario_phases(self, steps_per_phase):
        a = 0.7 * A_B
        result = switching_scenario(GAAS, a, b_operating=2.0, steps_per_phase=steps_per_phase)
        e_stop = 1.25 * result.e_switch.value
        plateau = max(2, steps_per_phase // 4)
        path = (
            [("A", x, 0.0) for x in np.linspace(0.0, 2.0, steps_per_phase).tolist()]
            + [("B", 2.0, 0.0)] * plateau
            + [("C", 2.0, x) for x in np.linspace(0.0, e_stop, steps_per_phase).tolist()]
            + [("D", 2.0, e_stop)] * plateau
        )
        want = []
        for phase, B, E in path:
            j = exchange_energy_lab(GAAS, FieldConfig(B, E, a)).j_mev
            want.append((phase, B, E, j, 0 if j == 0.0 else (1 if j > 0.0 else -1)))
        got = [(s.phase, s.B, s.E, s.j_mev, s.sign) for s in result.steps]
        assert repr(got) == repr(want)
