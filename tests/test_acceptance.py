"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dotx.cli import main as cli_main
from dotx.closed_form import exchange_energy, exchange_energy_lab, overlap
from dotx.oracle import assemble_oracle
from dotx.oracle import _Point, _brackets
from dotx.special import QuadratureSpec, bessel_i0
from dotx.sweeps import find_switch, scan_switches
from dotx.units import (
    GAAS,
    FieldConfig,
    bohr_radius_nm,
    coulomb_strength,
    derive_parameters,
    fields_from_dimensionless,
)

from conftest import build_orbital, orbital_norm, rel_err

A_B = bohr_radius_nm(GAAS)
GAAS_C236 = replace(GAAS, c_override=2.36)
REFERENCE_FIELDS = FieldConfig(B=0.0, E=0.0, a=0.7 * A_B)


def report(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_ac1_sign_switch_in_b():
    """AC-1: J(B) positive at B=0, exactly one zero on (0, 3] T located
    in [1.2, 1.5] T, within a 1 s budget."""
    start = time.perf_counter()
    j0 = exchange_energy_lab(GAAS_C236, REFERENCE_FIELDS).j_mev
    grid = np.linspace(1e-3, 3.0, 301)
    signs = [
        exchange_energy_lab(GAAS_C236, replace(REFERENCE_FIELDS, B=float(B))).j_mev > 0.0
        for B in grid
    ]
    flips = sum(1 for s1, s2 in zip(signs[:-1], signs[1:]) if s1 != s2)
    b_star = find_switch("B", GAAS_C236, REFERENCE_FIELDS, (0.5, 3.0)).value
    elapsed = time.perf_counter() - start
    ok = j0 > 0.0 and flips == 1 and 1.2 <= b_star <= 1.5 and elapsed < 1.0
    report(
        "AC-1",
        ok,
        f"J(0)={j0:.4f} meV > 0, {flips} sign change, B*={b_star:.4f} T, {elapsed:.2f} s",
    )


def test_ac2_oracle_equivalence():
    """AC-2: quadrature oracle vs closed form within 1% (noise-floored)
    and matching signs over the 25-point grid; E-field shift at B=1 T,
    d=0.7 within 5% of the closed form's fourth term; under 5 min."""
    start = time.perf_counter()
    worst = 0.0
    sign_ok = True
    reports = []
    for B in (0.0, 1.0, 1.5, 2.0, 3.0):
        for d in (0.5, 0.6, 0.7, 0.85, 1.0):
            hb = assemble_oracle(GAAS, FieldConfig(B=B, E=0.0, a=d * A_B))
            reports.append((B, d, hb))
            worst = max(worst, hb.rel_discrepancy)
            floor = 1e-6
            if abs(hb.j_oracle) > floor or abs(hb.j_closed_form) > floor:
                sign_ok = sign_ok and (hb.j_oracle > 0) == (hb.j_closed_form > 0)

    h0 = assemble_oracle(GAAS, FieldConfig(B=1.0, E=0.0, a=0.7 * A_B))
    h1 = assemble_oracle(GAAS, FieldConfig(B=1.0, E=5e5, a=0.7 * A_B))
    bd = exchange_energy_lab(GAAS, FieldConfig(B=1.0, E=5e5, a=0.7 * A_B))
    shift = h1.j_oracle - h0.j_oracle
    shift_want = bd.prefactor * bd.efield_term
    shift_rel = rel_err(shift, shift_want)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and sign_ok and shift_rel <= 0.05 and elapsed < 300.0
    if not ok:  # emit the per-term reports for diagnosis
        for B, d, hb in reports:
            print(json.dumps(hb.to_report_dict({"B_T": B, "d": d})))
    report(
        "AC-2",
        ok,
        f"max rel discrepancy {worst:.3e} (<=1%), signs agree: {sign_ok}, "
        f"E-shift rel err {shift_rel:.3e} (<=5%), {elapsed:.1f} s",
    )


def test_ac3_overlap():
    """AC-3: numerical overlap vs exp(-d^2 (2b - 1/b)) within 1e-6 on a
    4x4 (b, d) grid, under 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for b in np.linspace(1.0, 2.0, 4):
        for d in np.linspace(0.3, 1.5, 4):
            fields = fields_from_dimensionless(GAAS, float(b), float(d))
            s_num = assemble_oracle(GAAS, fields).s_num
            worst = max(worst, rel_err(s_num, overlap(float(b), float(d))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report("AC-3", ok, f"max rel err {worst:.3e} (<=1e-6) on 16 points, {elapsed:.2f} s")


def test_ac4_efield_properties():
    """AC-4: algebraic E-shift identity at 1e-12; switch field
    nondecreasing in E; exactly one ferro->antiferro crossing in E at
    B=2 T and none at B=1 T."""
    ident_worst = 0.0
    for b, d, chi in [(1.1, 0.7, 0.455), (1.4, 0.5, 1.2), (2.0, 1.0, 2.3)]:
        with_e = exchange_energy(b, d, 2.36, chi)
        without = exchange_energy(b, d, 2.36, 0.0)
        shift = with_e.j_dimensionless - without.j_dimensionless
        ident_worst = max(
            ident_worst, rel_err(shift, with_e.prefactor * with_e.efield_term)
        )

    stars = []
    for e_field in (0.0, 2.5e5, 5e5, 7.5e5):
        fixed = replace(REFERENCE_FIELDS, E=e_field)
        points = scan_switches("B", GAAS_C236, fixed, 0.1, 15.0, scan_steps=150)
        stars.append(points[0].value)
    monotone = all(s2 >= s1 for s1, s2 in zip(stars[:-1], stars[1:]))

    at_2t = scan_switches("E", GAAS_C236, replace(REFERENCE_FIELDS, B=2.0), 0.0, 2e6)
    at_1t = scan_switches("E", GAAS_C236, replace(REFERENCE_FIELDS, B=1.0), 0.0, 2e6)
    crossing_ok = (
        len(at_2t) == 1
        and at_2t[0].direction == "ferro_to_antiferro"
        and len(at_1t) == 0
    )
    ok = ident_worst <= 1e-12 and monotone and crossing_ok
    report(
        "AC-4",
        ok,
        f"identity rel err {ident_worst:.2e} (<=1e-12), B*(E)={[f'{s:.2f}' for s in stars]} "
        f"nondecreasing: {monotone}, E-crossings at 2T/1T: {len(at_2t)}/{len(at_1t)}",
    )


def test_ac5_coulomb_strength():
    """AC-5: GaAs defaults give c = 2.36 +/- 0.05."""
    c = coulomb_strength(GAAS)
    ok = abs(c - 2.36) <= 0.05
    report("AC-5", ok, f"c = {c:.4f} vs 2.36 +/- 0.05")


def test_ac6_special_functions(golden):
    """AC-6: I0 within 1e-13 of the extended-precision series oracle;
    orbital normalization within 1e-8; single-dot energy within 1e-8."""
    worst_i0 = max(
        rel_err(bessel_i0(float(key)), want) for key, want in golden["bessel_i0"].items()
    )
    norm_worst = 0.0
    for idx in (1, 2):
        value, _ = orbital_norm(build_orbital(idx, GAAS, REFERENCE_FIELDS))
        norm_worst = max(norm_worst, abs(value - 1.0))
    label = "u1 <A|H1|A>"  # dot 1's orbital under its own well's Hamiltonian
    energy, _ = _brackets(_Point(GAAS, REFERENCE_FIELDS), QuadratureSpec(), [label])[label]
    energy_err = rel_err(complex(energy).real, 1.0)
    ok = worst_i0 <= 1e-13 and norm_worst <= 1e-8 and energy_err <= 1e-8
    report(
        "AC-6",
        ok,
        f"I0 worst {worst_i0:.2e} (<=1e-13), norm err {norm_worst:.2e} (<=1e-8), "
        f"ground energy err {energy_err:.2e} (<=1e-8)",
    )


def _read_figure(path):
    xs, curves = [], None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if cells[0] == "x":
            curves = [[] for _ in cells[1:]]
            continue
        xs.append(float(cells[0]))
        for col, cell in zip(curves, cells[1:]):
            col.append(float(cell))
    return xs, curves


def _crossings(values):
    return [
        i
        for i, (v1, v2) in enumerate(zip(values[:-1], values[1:]))
        if (v1 > 0.0) != (v2 > 0.0)
    ]


def test_ac7_figure_data(tmp_path, capsys):
    """AC-7: figure CSVs byte-identical across runs and matching the
    captions' qualitative features."""
    for fig_id in ("1", "2", "4"):
        assert cli_main(["figure", "--id", fig_id, "--out", str(tmp_path)]) == 0
    first = {f: (tmp_path / f"fig{f}.csv").read_bytes() for f in ("1", "2", "4")}
    for fig_id in ("1", "2", "4"):
        assert cli_main(["figure", "--id", fig_id, "--out", str(tmp_path)]) == 0
    identical = all(
        (tmp_path / f"fig{f}.csv").read_bytes() == first[f] for f in ("1", "2", "4")
    )
    capsys.readouterr()

    # fig 1: each J(B) curve starts antiferromagnetic and switches to
    # ferromagnetic exactly once; the switch field grows with E
    xs, curves = _read_figure(tmp_path / "fig1.csv")
    fig1_ok = True
    last_cross = -1
    for col in curves:
        crossings = _crossings(col)
        fig1_ok = fig1_ok and col[0] > 0.0 and len(crossings) == 1 and col[-1] < 0.0
        fig1_ok = fig1_ok and crossings[0] > last_cross
        last_cross = crossings[0]

    # fig 2: each J(E) curve runs ferro -> antiferro exactly once
    xs, curves = _read_figure(tmp_path / "fig2.csv")
    fig2_ok = all(
        col[0] < 0.0 and col[-1] > 0.0 and len(_crossings(col)) == 1 for col in curves
    )

    # fig 4: every curve starts antiferromagnetic; B = 0 never switches;
    # where a switch exists its distance d* shrinks as B grows
    xs, curves = _read_figure(tmp_path / "fig4.csv")
    fig4_ok = all(col[0] > 0.0 for col in curves)
    fig4_ok = fig4_ok and not _crossings(curves[0]) and min(curves[0]) > 0.0
    d_stars = []
    for col in curves[1:]:
        crossings = _crossings(col)
        if crossings:
            fig4_ok = fig4_ok and col[crossings[0]] > 0.0 > col[crossings[0] + 1]
            d_stars.append(xs[crossings[0]])
    fig4_ok = fig4_ok and len(d_stars) >= 2
    fig4_ok = fig4_ok and all(d2 < d1 for d1, d2 in zip(d_stars[:-1], d_stars[1:]))

    ok = identical and fig1_ok and fig2_ok and fig4_ok
    report(
        "AC-7",
        ok,
        f"byte-identical: {identical}, fig1: {fig1_ok}, fig2: {fig2_ok}, "
        f"fig4: {fig4_ok} (d* = {[f'{d:.2f}' for d in d_stars]})",
    )


def test_ac8_pinned_value_regression(golden):
    """AC-8: every independently derived golden value reproduced to 1e-6."""
    p1 = derive_parameters(GAAS, replace(REFERENCE_FIELDS, B=1.0))
    hbar_larmor_mev = p1.larmor * 1.0545718176461565e-34 / 1.602176634e-22
    checks = {
        "bohr_radius_gaas_nm": bohr_radius_nm(GAAS),
        "hbar_omega_larmor_1t_mev": hbar_larmor_mev,
        "b_at_1t": p1.b,
        "c_coulomb_gaas": coulomb_strength(GAAS),
        "efield_ratio_e1e5_a13p65nm": derive_parameters(
            GAAS, FieldConfig(B=0.0, E=1e5, a=13.65)
        ).efield_ratio,
        "j_dimensionless_b1_d0p7_c2p36": exchange_energy(1.0, 0.7, 2.36, 0.0).j_dimensionless,
        "j_mev_gaas_b0_a0p7ab": exchange_energy_lab(GAAS, REFERENCE_FIELDS).j_mev,
        "j_mev_gaas_1t_a0p7ab": exchange_energy_lab(
            GAAS, replace(REFERENCE_FIELDS, B=1.0)
        ).j_mev,
        "overlap_b1_d0p7": overlap(1.0, 0.7),
        "overlap_b1p0406_d0p7": overlap(1.0406, 0.7),
    }
    worst_key, worst = max(
        ((key, rel_err(got, golden[key])) for key, got in checks.items()),
        key=lambda item: item[1],
    )
    ok = worst <= 1e-6
    report("AC-8", ok, f"{len(checks)} pinned values, worst {worst:.2e} ({worst_key})")
