"""The stacked single-particle brackets against the per-bracket 1-D factor
form they replaced, which is kept here as the reference: one `_refine` and
one `_separable_sample` per level for each bracket, each with its own X, Y,
P and Q.  The stacked pass keeps every operation's order, so the two agree
exactly: value, error, orders sampled, failures and their order.  The sum
of |f| both take is a bound from 1-D sums, checked here against the n x n
tensor sum it replaced.
"""

import math

import numpy as np
import pytest

from dotx.errors import QuadratureError
import dotx.oracle
from dotx.oracle import (
    _PAIRS, _U1, _U2, _U5, _brackets, _coulomb, _point, _quadratic, assemble_oracle,
)
from dotx.special import _EPS, QuadratureSpec, _hermite_nodes
from dotx.units import GAAS, FieldConfig, bohr_radius_nm

from conftest import coulomb_spec, point_orbital

LABELS = ("overlap",) + _U1 + _U2 + _U5


def refine(sample, nodes, spec, label):
    """The one-integral refinement the stacked pass runs per bracket."""
    n = spec.order
    value = err = None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            n_hi = n + max(2, n // 2)
            if nodes(n) is None or nodes(n_hi) is None:
                raise QuadratureError(
                    f"{label} did not converge to rel_tol={spec.rel_tol}: no rule of order "
                    f"{n if nodes(n) is None else n_hi} with finite nodes and positive weights",
                    value=value,
                    error_estimate=err,
                )
            v_lo, _ = sample(n, False)
            v_hi, l1 = sample(n_hi, True)
            diff = math.hypot(v_hi.real - v_lo.real, v_hi.imag - v_lo.imag)
            err = max(diff, 16.0 * _EPS * l1)
            value = v_hi.real if v_hi.imag == 0.0 else v_hi
            if err <= spec.rel_tol * max(math.hypot(v_hi.real, v_hi.imag), l1) < math.inf:
                return value, err
            n *= 2
    raise QuadratureError(
        f"{label} did not converge to rel_tol={spec.rel_tol} by order {n_hi}",
        value=value,
        error_estimate=err,
    )


def separable_sample(factors, n, center, scale, with_l1):
    """The tensor rule's sum of X(x) Y(y) (P(x) + Q(y)) as 1-D sums, with
    Q = q2 y^2 + q0, and the sum of |f| bounded by 1-D sums through
    |P + Q| <= |P + q0| + |q2| y^2."""
    t, w = _hermite_nodes(n)
    x, y = center[0] + scale * t, center[1] + scale * t
    x_factor, p, y_factor, (q2, q0) = factors(x, y)
    wx = w * x_factor
    wy = w * y_factor
    q = q2 * y * y + q0
    value = complex((wx * p).sum() * wy.sum() + wx.sum() * (wy * q).sum()) * scale * scale
    if not with_l1:
        return value, None
    abs_wy = np.abs(wy)
    l1 = np.abs(wx * (p + q0)).sum() * abs_wy.sum() + np.abs(wx).sum() * (
        abs_wy * (abs(q2) * (y * y))
    ).sum()
    return value, float(l1) * scale * scale


def exact_l1(factors, n, center, scale):
    """The tensor rule's sum of |f|, an n x n pass over |P_i + Q_j|."""
    t, w = _hermite_nodes(n)
    x, y = center[0] + scale * t, center[1] + scale * t
    x_factor, p, y_factor, (q2, q0) = factors(x, y)
    p_plus_q = np.add.outer(p + 0.0 * x, q2 * y * y + q0)
    return float(np.abs(w * x_factor) @ np.abs(p_plus_q) @ np.abs(w * y_factor)) * scale * scale


def bracket_factors(bra, ket, poly):
    """(factors, center, scale) of <bra| P(x) + Q(y) |ket>, with poly(x)
    giving P(x) and Q's coefficients (q2, q0)."""
    center = (0.5 * (bra.center_x + ket.center_x), 0.0)
    beta = bra.compression
    kappa = ket.phase_slope - bra.phase_slope

    def factors(x, y):
        dx_bra, dx_ket = x - bra.center_x, x - ket.center_x
        x_factor = beta / math.pi * np.exp(-0.5 * beta * (dx_bra * dx_bra + dx_ket * dx_ket))
        y_factor = np.exp(1j * kappa * y - beta * y * y)
        p, q = poly(x)
        return x_factor, p, y_factor, q

    return factors, center, 1.0 / math.sqrt(beta)


def reference_bracket(factors, center, scale, quad, orders):
    """The bracket's (value, error) or QuadratureError; appends each order
    sampled to `orders`."""

    def sample(n, with_l1):
        orders.append(n)
        return separable_sample(factors, n, center, scale, with_l1)

    try:
        return refine(sample, _hermite_nodes, quad, "Gauss-Hermite bracket rule")
    except QuadratureError as exc:
        return exc


def point_factors(pt):
    """{label: (factors, center, scale)} for the point's 13 brackets."""
    fr, a, b = pt, point_orbital(pt, 1), point_orbital(pt, 2)
    d2 = fr.d * fr.d

    def h_poly(j, ket):
        beta, k, cx, lam = ket.compression, ket.phase_slope, ket.center_x, fr.lam
        s_well = -fr.d if j == 1 else fr.d
        c2 = 0.5 * (1.0 + lam * lam - beta * beta)
        p1 = beta * beta * cx + lam * k + fr.fshift - s_well
        p0 = beta - 0.5 * beta * beta * cx * cx + 0.5 * s_well * s_well
        q0 = 0.5 * k * k
        return lambda x: ((c2 * x + p1) * x + p0, (c2, q0))

    c4, c0 = 0.25 / d2, -0.75 * d2

    def w_poly(x):
        x2 = x * x
        return (c4 * x2 - 1.5) * x2 + c0, (0.0, 0.0)

    orb = {"A": a, "B": b}
    out = {"overlap": bracket_factors(b, a, lambda x: (1.0, (0.0, 0.0)))}
    for label in _U1 + _U2:
        bra, op, ket = label[4:-1].split("|")
        out[label] = bracket_factors(orb[bra], orb[ket], h_poly(int(op[1]), orb[ket]))
    for label in _U5:
        bra, _, ket = label[4:-1].split("|")
        out[label] = bracket_factors(orb[bra], orb[ket], w_poly)
    return out


def reference_brackets(pt, quad):
    """{label: (result, orders sampled)} for the point's 13 brackets."""
    out = {}
    for label, (factors, center, scale) in point_factors(pt).items():
        orders = []
        out[label] = (reference_bracket(factors, center, scale, quad, orders), orders)
    return out


def settle(result, label, failures):
    if isinstance(result, QuadratureError):
        failures.append(f"{label}: {result}")
        return (
            result.value if result.value is not None else math.nan,
            result.error_estimate if result.error_estimate is not None else math.inf,
        )
    return result


def reference_terms(ref):
    """S, u1, u2, u5 and the failures, summed in the oracle's order."""
    failures = []

    def total(labels):
        value, err = 0.0 + 0.0j, 0.0
        for label in labels:
            v, e = settle(ref[label][0], label, failures)
            value += complex(v)
            err += e
        return value.real, err + abs(value.imag)

    s, _ = total(["overlap"])
    u1, cross = total(_U1), total(_U2)
    diag, w_cross = total(_U5[:2]), total(_U5[2:])
    return s, {
        "u1": u1,
        "u2": (s * cross[0], abs(s) * cross[1]),
        "u5": (diag[0] - w_cross[0] / s, diag[1] + w_cross[1] / abs(s)),
    }, failures


def same(got, want):
    """Exact agreement of two bracket results, failures included."""
    if isinstance(want, QuadratureError):
        return (
            isinstance(got, QuadratureError)
            and str(got) == str(want)
            and (got.value, got.error_estimate) == (want.value, want.error_estimate)
        )
    return not isinstance(got, QuadratureError) and tuple(got) == tuple(want)


def assert_stacked_matches(quad, fields, factored_samples):
    pt = _point(GAAS, fields)
    ref = reference_brackets(pt, quad)
    got = _brackets(pt, quad, LABELS)
    assert factored_samples == [orders for _, orders in ref.values()]
    for label in LABELS:
        assert same(got[label], ref[label][0]), label
    del factored_samples[:]
    hb = assemble_oracle(GAAS, fields, quad)
    assert len(factored_samples) == len(LABELS)
    s, upsilon, failures = reference_terms(ref)
    assert hb.s_num == s
    for key, want in upsilon.items():
        assert tuple(hb.upsilon[key]) == want, key
    # the Coulomb integrals run at the rule derived from quad, which these specs do not fail
    coulomb_failures = []
    u3, u4 = _coulomb(pt, coulomb_spec(quad), coulomb_failures)
    assert (hb.upsilon["u3"], hb.upsilon["u4"]) == (u3, u4) and coulomb_failures == []
    assert list(hb.failures) == failures
    return ref


A_B = bohr_radius_nm(GAAS)


@pytest.mark.parametrize("E", [0.0, 1e5])
@pytest.mark.parametrize("d", [0.5, 0.6, 0.7, 0.85, 1.0])
@pytest.mark.parametrize("B", [0.0, 1.0, 1.5, 2.0, 3.0])
def test_oracle_check_points(B, d, E, factored_samples):
    assert_stacked_matches(QuadratureSpec(), FieldConfig(B=B, E=E, a=d * A_B), factored_samples)


def test_brackets_converge_at_different_rounds(factored_samples):
    fields = FieldConfig(B=3.0, E=1e5, a=A_B)
    ref = assert_stacked_matches(QuadratureSpec(order=8), fields, factored_samples)
    assert [len(orders) for _, orders in ref.values()] == [4, 2, 2, 2, 2, 4, 4, 4, 4, 2, 2, 4, 4]


@pytest.mark.parametrize("B, d", [(1.0, 0.7), (3.0, 1.0)])
def test_failing_spec(B, d, factored_samples):
    fields = FieldConfig(B=B, E=0.0, a=d * A_B)
    ref = assert_stacked_matches(QuadratureSpec(order=4, rel_tol=1e-15), fields, factored_samples)
    assert all(isinstance(result, QuadratureError) for result, _ in ref.values())


def one_level_sampler(pt, brackets):
    """The stacked sampler as it was before a round took both levels in one
    pass: sample(n, with_l1, open_) builds X, Y, P and Q on the order-n
    nodes alone, the reference for each level's bits."""
    pairs = [(point_orbital(pt, bra), point_orbital(pt, ket)) for bra, ket in _PAIRS]
    pair = np.array([br.pair for br in brackets])
    u_row = pair + len(pairs) * np.array([br.quartic for br in brackets])
    p_coef = np.array([br.p for br in brackets])
    q_coef = np.array([br.q or (0.0, 0.0) for br in brackets])
    bra_x, ket_x = (np.array([[orb.center_x] for orb in side]) for side in zip(*pairs))
    center = 0.5 * (bra_x + ket_x)
    i_kappa = np.array([[1j * (ket.phase_slope - bra.phase_slope)] for bra, ket in pairs])
    beta = pairs[0][0].compression
    scale = 1.0 / math.sqrt(beta)

    def sample(n, with_l1, open_):
        t, w = _hermite_nodes(n)
        st = scale * t
        x, y = center + st, 0.0 + st
        dx_bra, dx_ket = x - bra_x, x - ket_x
        wx = w * (beta / math.pi * np.exp(-0.5 * beta * (dx_bra * dx_bra + dx_ket * dx_ket)))
        wy, rows = w * np.exp(i_kappa * y - beta * y * y), pair[open_]
        p = _quadratic(*p_coef[open_].T[..., None], np.concatenate((x, x * x))[u_row[open_]])
        q2, q0 = q_coef[open_].T[..., None]
        wx_p, wy_q = wx[rows] * p, wy[rows] * (q2 * y * y + q0)
        sums = zip(wx_p.sum(1), wy.sum(1)[rows], wx.sum(1)[rows], wy_q.sum(1))
        values = [complex(a * b + c * d) * scale * scale for a, b, c, d in sums]
        if not with_l1:
            return [(value, None) for value in values]
        abs_wy = np.abs(wy)[rows]
        l1s = np.abs(wx[rows] * (p + q0)).sum(1) * abs_wy.sum(1) + np.abs(wx)[rows].sum(1) * (
            abs_wy * (np.abs(q2) * (y * y))
        ).sum(1)
        return [(value, float(l1) * scale * scale) for value, l1 in zip(values, l1s)]

    return sample


def stacked_sample(pt, monkeypatch):
    """The stacked round sampler `_brackets` builds for the point's 13
    brackets, and the one-level reference sampler of the same brackets."""
    captured = []
    build = dotx.oracle._stacked_sampler
    monkeypatch.setattr(dotx.oracle, "_stacked_sampler", lambda *args: captured.append(args) or build(*args))
    monkeypatch.setattr(dotx.oracle, "_refine_many", lambda sample, count, *_: captured.append(sample) or [None] * count)
    _brackets(pt, QuadratureSpec(), LABELS)
    args, sample = captured
    return sample, one_level_sampler(*args)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 30, 64, 96, 128, 192])
@pytest.mark.parametrize(
    "B, d, E", [(0.0, 0.7, 0.0), (1.0, 0.5, 1e5), (3.0, 1.0, 1e5), (30.0, 2.0, 0.0), (1.0, 0.7, 1e15)]
)
def test_round_pass_matches_two_levels(B, d, E, n, monkeypatch):
    # one pass over the nodes of both levels gives each level the bits of its
    # own pass, whichever brackets are still open
    sample, one_level = stacked_sample(_point(GAAS, FieldConfig(B=B, E=E, a=d * A_B)), monkeypatch)
    n_hi = n + max(2, n // 2)
    with np.errstate(over="ignore", invalid="ignore"):  # E = 1e15 samples to inf and nan
        for open_ in (list(range(len(LABELS))), [0, 4, 5, 9, 12], [7]):
            lo, hi = sample(n, n_hi, open_)
            assert repr(lo) == repr(one_level(n, False, open_))
            assert repr(hi) == repr(one_level(n_hi, True, open_))


@pytest.mark.parametrize("n", [8, 64, 96, 192])
@pytest.mark.parametrize(
    "B, d, E", [(0.0, 0.7, 0.0), (1.0, 0.5, 1e5), (3.0, 1.0, 1e5), (0.5, 1.5, 1e5), (2.0, 1.5, 1e5)]
)
def test_l1_bound_against_tensor_sum(B, d, E, n, monkeypatch):
    # Q = 0: the factored sum of |X P| times that of |Y|, bit for bit.  The H
    # brackets: their ket is an eigenstate of its own well, which makes
    # c2 = (1 + lambda^2 - b^2)/2 only a rounding residue, so
    # the bound exceeds the n^2 sum by at most 2 |c2| sum|X| sum|Y| y^2, and
    # the two sums round P + Q apart by a few eps of sum |X| |Y| (|P| + |Q|).
    pt = _point(GAAS, FieldConfig(B=B, E=E, a=d * A_B))
    _, got = stacked_sample(pt, monkeypatch)[0](n // 2, n, list(range(len(LABELS))))
    t, w = _hermite_nodes(n)
    for label, (_, l1) in zip(LABELS, got):
        factors, center, scale = point_factors(pt)[label]
        y = scale * t
        x_factor, p, y_factor, (q2, q0) = factors(center[0] + y, y)
        abs_wx, abs_wy = np.abs(w * x_factor), np.abs(w * y_factor)
        if label.startswith(("u1", "u2")):
            assert abs(q2) < 1e-14
            want = exact_l1(factors, n, center, scale)
            slack = 2.0 * abs(q2) * abs_wx.sum() * (abs_wy * y * y).sum() * scale * scale
            mass = abs_wx @ np.add.outer(np.abs(p), np.abs((q2 * y) * y + q0)) @ abs_wy * scale * scale
            assert abs(l1 - want) <= slack + 4.0 * _EPS * mass, label
        else:
            want = np.abs(w * x_factor * p).sum() * abs_wy.sum()
            assert l1 == float(want) * scale * scale, label

