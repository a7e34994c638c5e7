import json
import math

import pytest

import dotx.cli
import dotx.closed_form
import dotx.special
from dotx.cli import main
from dotx.sweeps import AXIS_XTOL
from dotx.units import GAAS, bohr_radius_nm

from conftest import efield_switch_mp


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--material", "gaas", "--B", "0", "--E", "0",
            "--a-over-ab", "0.7",
        )
        assert code == 0
        assert "c: derived" in out
        j_line = next(line for line in out.splitlines() if line.startswith("J:"))
        assert float(j_line.split()[1]) > 0.0

    def test_singular_distance(self, capsys):
        code, _, err = run(capsys, "eval", "--B", "0", "--E", "0", "--a-over-ab", "0")
        assert code == 2
        assert "singular configuration d=0" in err

    def test_c_override_provenance(self, capsys):
        code, out, _ = run(capsys, "eval", "--c-override", "2.36", "--B", "1")
        assert code == 0
        assert "c: override" in out
        assert "2.36" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--json", "--B", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["c_source"] == "derived"
        assert payload["J_meV"] == pytest.approx(0.28336649412393045, rel=1e-9)

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_derives_parameters_once(self, capsys, count_derivations, fmt):
        calls = count_derivations(dotx.cli, dotx.closed_form)
        assert run(capsys, "eval", "--B", "1.0", *fmt)[0] == 0
        assert len(calls) == 1

    def test_unknown_material(self, capsys):
        code, _, err = run(capsys, "eval", "--material", "unobtainium")
        assert code == 2
        assert "unknown material" in err


class TestUsage:
    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "sweep", "--vary", "B")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_choice(self, capsys):
        code, _, _ = run(capsys, "sweep", "--vary", "Q", "--from", "0", "--to", "1")
        assert code == 1


class TestSweepCommand:
    def test_csv_file_deterministic(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        args = (
            "sweep", "--vary", "B", "--from", "0", "--to", "3", "--steps", "31",
            "--out", str(out),
        )
        code, stdout, _ = run(capsys, *args)
        assert code == 0
        assert "sign change(s)" in stdout
        first = out.read_bytes()
        assert run(capsys, *args)[0] == 0
        assert out.read_bytes() == first
        lines = first.decode().splitlines()
        assert lines[0] == "# dotx sweep"
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx].split(",")[:2] == ["x", "J_meV"]
        assert len(lines) == header_idx + 1 + 31

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "sweep", "--vary", "d", "--from", "0.2", "--to", "1.0",
            "--steps", "9", "--format", "json", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 9
        assert payload["params"]["vary"] == "d"

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "sweep", "--vary", "B", "--from", "3", "--to", "1")
        assert code == 2
        assert "start < stop" in err


class TestSwitchCommand:
    def test_b_switch_json(self, capsys, tmp_path):
        out = tmp_path / "switch.json"
        code, stdout, _ = run(
            capsys, "switch", "--vary", "B", "--from", "0.5", "--to", "3",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        point = payload["switch_point"]
        assert 1.2 <= point["value"] <= 1.5
        assert point["direction"] == "antiferro_to_ferro"
        assert point["residual_mev"] <= 1e-9
        assert "switch point" in stdout

    def test_no_root_exit_two(self, capsys):
        code, _, err = run(capsys, "switch", "--vary", "B", "--from", "0", "--to", "0.5")
        assert code == 2
        assert "no sign change" in err

    def test_scan_mode(self, capsys, tmp_path):
        out = tmp_path / "scan.json"
        code, _, _ = run(
            capsys, "switch", "--vary", "B", "--from", "0", "--to", "8", "--scan",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["switch_points"]) == 1


@pytest.fixture(scope="module")
def e_switch_at_2t():
    """The 50-digit E-switch of GaAs at B = 2 T and the default a = 0.7 a_B."""
    return efield_switch_mp(GAAS, 2.0, 0.7 * bohr_radius_nm(GAAS), 0.0, 2e5)


class TestEfieldSwitchCommands:
    @pytest.mark.parametrize("scan", [(), ("--scan",)])
    def test_switch_along_e(self, capsys, tmp_path, e_switch_at_2t, scan):
        out = tmp_path / "switch.json"
        code, _, err = run(
            capsys, "switch", "--vary", "E", "--B", "2", "--from", "0", "--to", "2e5",
            *scan, "--out", str(out),
        )
        assert (code, err) == (0, "")
        payload = json.loads(out.read_text())
        points = payload["switch_points"] if scan else [payload["switch_point"]]
        assert len(points) == 1
        assert abs(points[0]["value"] - e_switch_at_2t) <= AXIS_XTOL["E"]
        assert points[0]["direction"] == "ferro_to_antiferro"
        assert points[0]["residual_mev"] <= 1e-9

    def test_scenario(self, capsys, tmp_path, e_switch_at_2t):
        out = tmp_path / "scenario.json"
        code, _, err = run(capsys, "scenario", "--b-operating", "2.0", "--out", str(out))
        assert (code, err) == (0, "")
        e_switch = json.loads(out.read_text())["e_switch"]
        assert abs(e_switch["value"] - e_switch_at_2t) <= AXIS_XTOL["E"]

    @pytest.mark.parametrize(
        "B, lo, hi, scan",
        [
            (2.0, 1e5, 2e5, ()),  # both ends above E*
            (2.0, 1e5, 2e5, ("--scan",)),
            (1.0, 0.0, 2e5, ()),  # below the B threshold: no E* at all
            (1.0, 0.0, 2e5, ("--scan",)),
            (2.0, -2e5, 2e5, ()),  # J is even in E: -E* and E* cancel out
        ],
    )
    def test_no_sign_change_exits_two(self, capsys, B, lo, hi, scan):
        code, out, err = run(
            capsys, "switch", "--vary", "E", "--B", repr(B), f"--from={lo!r}", "--to", repr(hi),
            *scan,
        )
        assert (code, out) == (2, "")
        assert err.startswith("dotx: error: no sign change") and err.count("\n") == 1


class TestScenarioCommand:
    def test_writes_script(self, capsys, tmp_path):
        out = tmp_path / "scenario.json"
        code, stdout, _ = run(capsys, "scenario", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert {s["phase"] for s in payload["steps"]} == {"A", "B", "C", "D"}
        assert payload["b_switch"]["direction"] == "antiferro_to_ferro"
        assert payload["e_switch"]["direction"] == "ferro_to_antiferro"

    def test_below_threshold(self, capsys):
        code, _, err = run(capsys, "scenario", "--b-operating", "1.0")
        assert code == 2
        assert "threshold" in err


class TestFigureCommand:
    @pytest.mark.parametrize("fig_id", ["1", "2", "4"])
    def test_emit_and_rerun_identical(self, capsys, tmp_path, fig_id):
        code, _, _ = run(capsys, "figure", "--id", fig_id, "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / f"fig{fig_id}.csv"
        first = path.read_bytes()
        assert first.splitlines()[0].decode() == f"# dotx figure {fig_id}"
        assert run(capsys, "figure", "--id", fig_id, "--out", str(tmp_path))[0] == 0
        assert path.read_bytes() == first


class TestOracleCommand:
    def test_small_grid_within_threshold(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "oracle", "--grid-b", "0,1.5", "--grid-d", "0.5,0.85",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_within_threshold"] is True
        assert len(payload["points"]) == 4
        record = payload["points"][0]
        assert set(record["upsilon"]) == {"u1", "u2", "u3", "u4", "u5"}
        assert record["rel_discrepancy"] <= 1e-9

    def test_threshold_exceeded_exit_four(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7",
            "--threshold", "1e-20", "--out", str(out),
        )
        assert code == 4
        assert out.exists()  # report still written

    def test_far_separated_point_flagged_not_failed(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "oracle", "--grid-b", "0", "--grid-d", "3.0", "--out", str(out)
        )
        assert code == 0
        record = json.loads(out.read_text())["points"][0]
        assert record["below_noise_floor"] is True
        assert abs(record["j_oracle"]) < 1e-5


class TestMaterialResolution:
    def test_material_file(self, capsys, tmp_path):
        mat = tmp_path / "custom.json"
        mat.write_text(
            '{"effective_mass": 0.067, "dielectric_const": 13.1,'
            ' "confinement_energy_mev": 3.0, "c_override": 2.36}'
        )
        code, out, _ = run(capsys, "eval", "--material-file", str(mat))
        assert code == 0
        assert "c: override (2.36)" in out

    def test_material_path_env(self, capsys, tmp_path, monkeypatch):
        mat = tmp_path / "inas.json"
        mat.write_text(
            '{"effective_mass": 0.023, "dielectric_const": 15.15,'
            ' "confinement_energy_mev": 3.0}'
        )
        monkeypatch.setenv("DOTX_MATERIAL_PATH", str(tmp_path))
        code, out, _ = run(capsys, "eval", "--material", "inas")
        assert code == 0
        assert "material: inas" in out


class TestErrorMapping:
    """Bad inputs exit with their documented code and a one-line error."""

    @pytest.mark.parametrize("flag", ["--grid-b", "--grid-d"])
    def test_malformed_grid_is_usage_error(self, capsys, flag):
        code, _, err = run(capsys, "oracle", flag, "1,x")
        assert code == 1
        assert f"error: argument {flag}: expected comma-separated numbers: '1,x'" in err

    @pytest.mark.parametrize(
        "text", [None, "{not json", "[1, 2]", '{"effective_mass": "heavy"}']
    )
    def test_missing_or_invalid_material_file(self, capsys, tmp_path, text):
        mat = tmp_path / "material.json"
        if text is not None:
            mat.write_text(text)
        code, _, err = run(capsys, "eval", "--material-file", str(mat))
        assert code == 2
        assert err.startswith("dotx: error: ")
        assert err.count("\n") == 1

    def test_unwritable_output(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        out = blocker / "sweep.csv"
        code, _, err = run(
            capsys, "sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "3",
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith(f"dotx: error: cannot write {out}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, message",
        [("--quad-order", "quadrature order must be >= 4"), ("--quad-rel-tol", "rel_tol must lie")],
    )
    def test_zero_quadrature_override_is_validated(self, capsys, flag, message):
        code, out, err = run(capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", flag, "0")
        assert code == 2
        assert out == ""
        assert err.startswith("dotx: error: ") and message in err

    @pytest.mark.parametrize("grid_b, grid_d", [("0", "20"), ("1e6", "0.7")])
    def test_underflowing_overlap_is_domain_error(self, capsys, grid_b, grid_d):
        code, out, err = run(capsys, "oracle", "--grid-b", grid_b, "--grid-d", grid_d)
        assert code == 2
        assert out == ""
        assert err.startswith("dotx: error: overlap S = ") and "b*d^2" in err
        assert err.count("\n") == 1

    def test_coinciding_dots_are_domain_error(self, capsys):
        # 1 - S^4 rounds to 0 at d = 1e-9: a domain error, not a ZeroDivisionError
        code, out, err = run(capsys, "oracle", "--grid-b", "1", "--grid-d", "1e-9")
        assert (code, out) == (2, "")
        assert err.startswith("dotx: error: overlap S = 1.0 leaves 1 - S^4 = 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("efield", ["1e15", "1e100"])
    def test_unconverged_brackets_are_listed(self, capsys, tmp_path, efield):
        # no bracket converges by order 192, and numpy's Gauss-Hermite rule
        # is unusable at 384; each is reported instead of an OverflowError
        out = tmp_path / "report.json"
        code, _, err = run(
            capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", "--E", efield, "--out", str(out)
        )
        assert (code, err) == (4, "")
        failures = json.loads(out.read_text())["points"][0]["failures"]
        assert len(failures) == 13
        assert all("no rule of order 384 with finite nodes" in line for line in failures)

    def test_field_overflow_after_quadrature_is_named(self, capsys):
        code, out, err = run(capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", "--E", "1e300")
        assert (code, out) == (2, "")
        assert err.startswith("dotx: error: electric field chi=")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    def test_unusable_threshold_is_usage_error(self, capsys, threshold):
        code, out, err = run(
            capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", "--threshold", threshold
        )
        assert code == 1
        assert out == ""
        assert err.startswith("dotx: error: --threshold must be finite and >= 0")
        assert err.count("\n") == 1

    def test_huge_quadrature_order_fails_before_any_node(self, capsys, monkeypatch):
        def no_nodes(n):
            raise AssertionError(f"built {n} quadrature nodes")

        monkeypatch.setattr(dotx.special, "_hermite_nodes", no_nodes)
        monkeypatch.setattr(dotx.special, "_legendre_nodes", no_nodes)
        code, out, err = run(
            capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", "--quad-order", "100000"
        )
        assert code == 2
        assert out == ""
        assert err == "dotx: error: quadrature order must be <= 128\n"

    @pytest.mark.parametrize(
        "argv, message",
        [(["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "100001"],
          "sweep needs between 2 and 100000 steps, got 100001")]
        + [(["switch", "--vary", "B", "--from", "0.1", "--to", "3", "--scan", "--scan-steps", n],
            f"scan needs between 2 and 100000 steps, got {n}") for n in ("-5", "0", "1", "100001")]
        + [(["scenario", "--steps-per-phase", n],
            f"scenario needs between 1 and 100000 steps per phase, got {n}")
           for n in ("-3", "0", "100001")],
    )
    def test_step_counts_are_bounded(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"dotx: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [(["switch", "--vary", "B", "--from", "0", "--to", "3", "--tol", tol],
          f"tol must be finite and >= 0, got {tol}") for tol in ("nan", "-1.0", "inf")]
        + [(["switch", "--vary", "B", "--scan", "--from", "0", "--to", "3", "--tol", "nan"],
            "tol must be finite and >= 0, got nan")]
        + [(["switch", "--vary", "B", "--scan", "--from", lo, "--to", hi],
            "scan range must satisfy lo < hi") for lo, hi in (("3", "2"), ("4", "0.3"))]
        + [(["scenario", "--b-operating", b], f"operating field {b} T must be finite and > 0")
           for b in ("-3.0", "0.0", "nan")]
        + [(["scenario", "--b-operating", "1e5"],
            "J underflows to 0 at the operating field 100000.0 T, so its sign is unknown there; "
            "choose a smaller field or distance")],
    )
    def test_unusable_switch_and_scenario_inputs(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"dotx: error: {message}\n"

    @pytest.mark.parametrize("n", ["-5", "0", "1", "100001"])
    def test_scan_steps_bounded_without_scan(self, capsys, n):
        code, out, err = run(
            capsys, "switch", "--vary", "B", "--from", "0.1", "--to", "3", "--scan-steps", n
        )
        assert code == 2
        assert out == ""
        assert err == f"dotx: error: scan needs between 2 and 100000 steps, got {n}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--vary", "E", "--from=-1e308", "--to", "1e308"],
            ["sweep", "--vary", "B", "--from", "0", "--to", "inf"],
            ["switch", "--vary", "E", "--scan", "--from=-inf", "--to", "1e6"],
        ],
    )
    def test_non_finite_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("dotx: error: ") and "must be finite" in err
        assert err.count("\n") == 1

    def test_coincident_in_double_precision(self, capsys):
        # 1 - S^4 comes from expm1: at d = 1e-9 J is finite; it rounds to 0
        # at d = 1e-170, a domain error, not a ZeroDivisionError
        code, out, err = run(capsys, "eval", "--a-over-ab", "1e-9")
        assert code == 0 and err == ""
        assert math.isfinite(float(out.split("J: ")[1].split()[0]))
        code, out, err = run(capsys, "eval", "--a-over-ab", "1e-170")
        assert code == 2
        assert out == ""
        assert err.startswith("dotx: error: singular configuration d=1e-170")
        assert err.count("\n") == 1
        code, out, _ = run(
            capsys, "sweep", "--vary", "d", "--from", "1e-170", "--to", "1", "--steps", "3"
        )
        assert code == 0
        assert out.splitlines()[-3] == "1e-170,nan,nan,nan,nan,nan,nan,nan,nan"

    def test_overflowing_prefactor(self, capsys):
        # J is finite but 1/sinh(arg) is not: the breakdown used to print
        # "prefactor: inf" next to a finite J, with exit 0
        code, out, err = run(capsys, "eval", "--B", "30", "--a-over-ab", "1e-155")
        assert code == 2
        assert out == ""
        assert err == (
            "dotx: error: prefactor 1/sinh(2 d^2 (2b - 1/b)) overflows at d=1e-155, "
            "b=8.697057808713865: the two dots all but coincide\n"
        )
        code, out, _ = run(
            capsys, "sweep", "--vary", "d", "--B", "30", "--from", "1e-155", "--to", "1", "--steps", "2"
        )
        assert code == 0
        assert out.splitlines()[-2] == "1e-155,nan,nan,nan,nan,nan,nan,nan,nan"

    @pytest.mark.parametrize(
        "argv, d, chi",
        [
            (["--a-over-ab", "1e-158"], "1e-158", "0.0"),  # 1 - S^4 is subnormal
            (["--E", "1.5e159", "--a-over-ab", "0.1"], "0.1", "9.735279883095482e+152"),
        ],
    )
    def test_overflowing_j(self, capsys, argv, d, chi):
        # J past the float range used to print as inf with exit 0
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"dotx: error: J overflows at d={d}, chi={chi}: the two dots all but coincide, "
            "or the field is too strong\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval"],
            ["eval", "--json"],
            ["sweep", "--vary", "B", "--from", "0", "--to", "3", "--steps", "5"],
            ["switch", "--vary", "B", "--from", "0.5", "--to", "3"],
        ],
    )
    def test_coulomb_strength_underflow(self, capsys, tmp_path, argv):
        # 4 pi eps0 kappa a_B underflows to 0: a domain error naming kappa,
        # not a ZeroDivisionError traceback
        mat = tmp_path / "material.json"
        mat.write_text(
            '{"effective_mass": 0.067, "dielectric_const": 1e-320, "confinement_energy_mev": 3.0}'
        )
        code, out, err = run(capsys, *argv, "--material-file", str(mat))
        assert code == 2
        assert out == ""
        assert err == (
            "dotx: error: dielectric_const 1e-320 gives a Coulomb strength that is not finite\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval"],
            ["eval", "--json"],
            ["sweep", "--vary", "B", "--from", "0", "--to", "3", "--steps", "5"],
            ["switch", "--vary", "B", "--from", "0.5", "--to", "3"],
        ],
    )
    def test_bohr_radius_not_finite(self, capsys, tmp_path, argv):
        # m * omega_0 underflows to 0: a domain error naming the mass and the
        # confinement energy, not a ZeroDivisionError traceback
        mat = tmp_path / "material.json"
        mat.write_text(
            '{"effective_mass": 1e-300, "dielectric_const": 13.1, "confinement_energy_mev": 1e-20}'
        )
        code, out, err = run(capsys, *argv, "--material-file", str(mat))
        assert code == 2
        assert out == ""
        assert err == (
            "dotx: error: effective_mass 1e-300 and confinement_energy_mev 1e-20 give a "
            "Bohr radius that is not finite and > 0\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--a-over-ab", "1.2e154"],
            ["eval", "--json", "--a-over-ab", "1.2e154"],
            ["sweep", "--vary", "d", "--from", "1", "--to", "1.2e154", "--steps", "3"],
            ["switch", "--vary", "d", "--from", "1", "--to", "1.2e154"],
        ],
    )
    def test_scaled_distance_overflow_is_named(self, capsys, argv):
        # At b > 1 and d ~ 1e154, b d^2 overflows while d^2 does not: an
        # error naming d and b, not "J: nan meV" with exit 0
        code, out, err = run(capsys, *argv, "--B", "30")
        assert code == 2
        assert out == ""
        assert err.startswith("dotx: error: distance d=")
        assert "at b=8.697057808713865: b*d^2 overflows" in err
        assert err.count("\n") == 1

    def test_distance_overflow_is_named(self, capsys):
        # d^2 overflows at d ~ 1.3e154: the error names the distance rather
        # than the NaN that would reach I0
        code, out, err = run(capsys, "eval", "--B", "0", "--a-over-ab", "1e155")
        assert code == 2
        assert out == ""
        assert err.startswith("dotx: error: distance d=") and "d^2 overflows" in err
        assert err.count("\n") == 1
        code, out, err = run(
            capsys, "sweep", "--vary", "d", "--from", "1", "--to", "1e160", "--steps", "3"
        )
        assert code == 2
        assert err == "dotx: error: distance d=5e+159 is too large: d^2 overflows\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--E", "1e305"],
            ["eval", "--json", "--E", "1e305"],
            ["sweep", "--vary", "E", "--from", "1e304", "--to", "1e305", "--steps", "2"],
        ],
    )
    def test_field_overflow_is_named(self, capsys, argv):
        # chi^2 / d^2 overflows: an error naming the field and the distance,
        # not "J: inf meV" with exit 0
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("dotx: error: electric field chi=")
        assert "at distance d=0.7: chi^2/d^2 overflows" in err
        assert err.count("\n") == 1
