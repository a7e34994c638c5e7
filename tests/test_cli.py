import hashlib
import json
import math
import pathlib
import sys

import pytest

import dotx.cli
import dotx.closed_form
import dotx.special
import dotx.units
from dotx.cli import main
from dotx.sweeps import AXIS_XTOL
from dotx.units import GAAS, bohr_radius_nm

from conftest import efield_switch_mp, on_both_sweep_paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_both(capsys, *argv):
    """`run` with a sweep on its scalar path and on its array path: the same
    exit code, error text and singular rows (the CSV lines of nan).  Returns
    the scalar path's run."""
    scalar, array = on_both_sweep_paths(lambda: run(capsys, *argv))

    def singular(out):
        return [line.endswith(",nan" * 8) for line in out.splitlines()]

    assert (array[0], array[2]) == (scalar[0], scalar[2])
    assert singular(array[1]) == singular(scalar[1])
    return scalar


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


PARSER_TEXT = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_parser_text.json").read_text(encoding="utf-8")
)["cases"]


@pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="pinned from the argparse of Python 3.10-3.11 (CI)"
)
class TestParserText:
    """Help and usage-error text, byte for byte: each command builds only
    its own subparser's arguments, and that must not show."""

    @pytest.mark.parametrize("case", PARSER_TEXT, ids=lambda c: " ".join(c["argv"]) or "no-args")
    def test_main_prints_the_pinned_text(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("case", [c for c in PARSER_TEXT if "--help" in c["argv"]],
                             ids=lambda c: " ".join(c["argv"]))
    def test_full_parser_prints_the_same_help(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit, match="0"):
            dotx.cli.build_parser().parse_args(case["argv"])
        assert capsys.readouterr().out == case["stdout"]


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

    def test_underflow_to_zero_is_no_sign_change(self, capsys, tmp_path):
        # J > 0 decays to exactly 0 from d = 20 on: no switch, as `switch --scan` finds
        out = tmp_path / "s.csv"
        argv = ("--vary", "d", "--from", "1", "--to", "40")
        code, stdout, _ = run(capsys, "sweep", *argv, "--steps", "40", "--out", str(out))
        assert (code, stdout) == (0, f"wrote {out} (40 rows, 0 sign change(s))\n")
        j = [float(line.split(",")[1]) for line in out.read_text().splitlines()[-40:]]
        assert min(j[:19]) > 0.0 and set(j[19:]) == {0.0}
        code, _, err = run(capsys, "switch", *argv, "--scan")
        assert code == 2 and "no sign change" in err

    @pytest.mark.parametrize("steps, n_singular", [(41, 2), (1601, 64)])
    def test_singular_rows_are_no_sign_change(self, capsys, tmp_path, steps, n_singular):
        # J overflows, or 1 - S^4 = 0, at the first rows: their J is nan, which has no sign
        out = tmp_path / "s.csv"
        code, stdout, _ = run(capsys, "sweep", "--vary", "d", "--from", "1e-170", "--to", "2e-153",
                              "--steps", str(steps), "--out", str(out))
        assert (code, stdout) == (0, f"wrote {out} ({steps} rows, 0 sign change(s))\n")
        assert out.read_text().count(",nan" * 8 + "\n") == n_singular

    def test_one_switch_is_one_sign_change(self, capsys, tmp_path):
        # 8 steps on [0, 3] T cross the B switch near 1.4 T once
        out = tmp_path / "s.csv"
        code, stdout, _ = run(
            capsys, "sweep", "--vary", "B", "--from", "0", "--to", "3", "--steps", "8",
            "--out", str(out),
        )
        assert (code, stdout) == (0, f"wrote {out} (8 rows, 1 sign change(s))\n")

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

    @pytest.mark.parametrize(
        "argv",
        [
            # J underflows to exactly 0 from 51.67 T on; the switch is near 0.88 T
            ("--vary", "B", "--from", "0", "--to", "100", "--a-over-ab", "5"),
            # J > 0 up to d = 19.3 and exactly 0 past it, never < 0
            ("--vary", "d", "--from", "0.5", "--to", "40"),
        ],
    )
    def test_zero_at_an_end_exits_two(self, capsys, argv):
        # J = 0 has no sign, so an end where J underflows is no switch
        code, out, err = run(capsys, "switch", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("dotx: error: no sign change") and err.count("\n") == 1

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

    def test_negative_exponent_value_attached_with_equals(self, capsys, tmp_path, e_switch_at_2t):
        # argparse reads a separate "-2e5" as an option; "--from=-2e5" is the value.
        out = tmp_path / "switch.json"
        code, _, err = run(
            capsys, "switch", "--vary", "E", "--B", "2", "--from=-2e5", "--to", "0",
            "--out", str(out),
        )
        assert (code, err) == (0, "")
        point = json.loads(out.read_text())["switch_point"]
        assert abs(point["value"] + e_switch_at_2t) <= AXIS_XTOL["E"]
        assert point["direction"] == "antiferro_to_ferro"

    def test_negative_exponent_value_as_its_own_word(self, capsys, tmp_path, e_switch_at_2t):
        # "-2e5" after an option is its value, as "-2" and "-0.5" are
        out = tmp_path / "switch.json"
        code, _, err = run(
            capsys, "switch", "--vary", "E", "--B", "2", "--from", "-2e5", "--to", "0",
            "--out", str(out),
        )
        assert (code, err) == (0, "")
        point = json.loads(out.read_text())["switch_point"]
        assert abs(point["value"] + e_switch_at_2t) <= AXIS_XTOL["E"]

    @pytest.mark.parametrize(
        "word, value", [("-1e5", -1e5), ("-2.5E-3", -2.5e-3), ("-.5e+1", -5.0)]
    )
    def test_negative_exponent_values_in_eval(self, capsys, word, value):
        code, out, err = run(capsys, "eval", "--json", "--E", word)
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]["E_Vm"] == value

    @pytest.mark.parametrize("word", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
    @pytest.mark.parametrize("attach", [False, True])
    def test_negative_non_finite_values_in_eval(self, capsys, word, attach):
        # "--E -inf" was read as an option missing its value (exit 1), while
        # "--E=-inf" reached the field check (exit 2): both are the value
        argv = [f"--E={word}"] if attach else ["--E", word]
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err == f"dotx: error: E must be finite, got {float(word)!r}\n"

    def test_an_option_after_an_option_is_still_missing_its_value(self, capsys):
        code, _, err = run(capsys, "eval", "--E", "--B", "1")
        assert code == 1 and "argument --E: expected one argument" in err

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

    def test_no_point_compared(self, capsys, tmp_path):
        # the one point is incomplete (E = 1e100 V/m): nothing was compared, so
        # there is no maximum discrepancy, and the run still fails
        out = tmp_path / "report.json"
        code, stdout, err = run(
            capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", "--E", "1e100", "--out", str(out)
        )
        assert (code, err) == (4, "")
        assert stdout.splitlines()[-1] == "no point compared (threshold 0.01)"
        payload = json.loads(out.read_text())
        assert payload["max_rel_discrepancy"] is None and payload["all_within_threshold"] is False

    def test_nan_discrepancy_fails(self, capsys, tmp_path):
        # u4/S^2 overflows in the assembly: j_oracle is -inf against a finite
        # closed-form J, so the complete point's discrepancy is nan, the
        # maximum is nan and the run fails
        out = tmp_path / "report.json"
        code, stdout, err = run(
            capsys, "oracle", "--grid-b", "10", "--grid-d", "1.9572078416108338", "--E", "1e5",
            "--c-override", "6.167970177000712e+301", "--out", str(out),
        )
        assert (code, err) == (4, "")
        assert stdout.splitlines()[-1] == "max relative discrepancy: nan (threshold 0.01)"
        payload = json.loads(out.read_text())
        assert payload["max_rel_discrepancy"] is None and payload["all_within_threshold"] is False
        (point,) = payload["points"]
        assert "incomplete" not in point and point["j_oracle"] is None and point["rel_discrepancy"] is None
        assert math.isfinite(point["j_closed_form"])

    def test_each_grid_point_derived_once(self, capsys, tmp_path, count_derivations):
        # one derivation for the provenance, one per grid point, whose b, d and
        # c the report takes from the oracle's own point
        import dotx.oracle

        calls = count_derivations(dotx.cli, dotx.oracle)
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "oracle", "--grid-b", "0,1,2", "--grid-d", "0.5,0.7", "--out", str(out))
        assert code == 0
        assert len(calls) == 1 + 6
        for record in json.loads(out.read_text())["points"]:
            params = record["params"]
            p = dotx.units.derive_parameters(GAAS, dotx.units.FieldConfig(params["B_T"], 0.0, params["a_nm"]))
            assert (params["b"], params["d"], params["c"]) == (p.b, p.d, p.c_coulomb)

    def test_far_separated_point_flagged_not_failed(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "oracle", "--grid-b", "0", "--grid-d", "3.0", "--out", str(out)
        )
        assert code == 0
        record = json.loads(out.read_text())["points"][0]
        assert record["below_noise_floor"] is True
        assert abs(record["j_oracle"]) < 1e-5


class TestOracleReport:
    def test_default_report_bytes(self, capsys):
        # The trapezoid sums add their nodes left to right, so the report has
        # these bytes on every Python version; built-in sum compensates from 3.12 on.
        code, out, err = run(capsys, "oracle")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fd5ad86d2fc41dfc1e88645f9fb0eeb4d24257db2954a3463a1ebada3b2f10d9"
        )


class TestSwitchReports:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["scenario"], "23a8c74c11dd28b2d2af517faf6b569efef96e3ecd2775727897642b3c59391d"),
            (["switch", "--vary", "E", "--B", "2", "--scan", "--from", "0", "--to", "2e6"],
             "a4ecf7eebe37dc547c0c57f14ee6fd6efbfcf76f4a8ead7fe93c3377b7955069"),
        ],
    )
    def test_e_switch_report_bytes(self, capsys, argv, digest):
        # The E switches come from the closed form E*; these reports have
        # these bytes on CPython 3.10-3.13.
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCsvAndScanBytes:
    # Grids of at most 512 points run the scalar closed form, so these bytes
    # are the same on CPython 3.10-3.13 and every CPU; the array kernel's
    # may differ with numpy's SIMD paths.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["sweep", "--vary", "B", "--from", "0", "--to", "8", "--steps", "161"],
             "5463c08a94ab428366fa0cbeefd69242442fde90197cd3a2164d06e9f125cb78"),
            (["sweep", "--vary", "B", "--from", "0", "--to", "8", "--steps", "161", "--format", "json"],
             "987efd227e5e45c374268f5d8a514bc2d438bcefcebb3b957f6ce6aa1713dd50"),
            # the first 2 rows are singular
            (["sweep", "--vary", "d", "--from", "1e-170", "--to", "2e-153", "--steps", "41"],
             "559eb3bd6f1272501e134e32a50b3f948e82fde50f607bbe17bea83ca769a6b2"),
            (["switch", "--vary", "B", "--scan", "--from", "0.3", "--to", "4"],
             "181e0bb0bf385b0bbcb23db514cd2dedf9a0d8c5ae2f0dcf8386218dff0abc25"),
        ],
    )
    def test_stdout_bytes(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fig_id, digest",
        [
            ("1", "8c0c36074710238927851143e8a4c46f8b1ced79da55e618cb9a6b799991054e"),
            ("2", "53f83aeaf82124c2c8349bf79a3a71941f194179a6b6addf76967e3b752d9cc2"),
            ("4", "77efbe716a5750023336aa7eb5bb589e9f8c65285959c00bd67d6fa34f4fa451"),
        ],
    )
    def test_figure_file_bytes(self, capsys, tmp_path, fig_id, digest):
        code, _, err = run(capsys, "figure", "--id", fig_id, "--out", str(tmp_path))
        assert (code, err) == (0, "")
        data = (tmp_path / f"fig{fig_id}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestMaterialResolution:
    def test_overflowing_coulomb_strength_exits_two(self, capsys, tmp_path):
        # c sqrt(b) overflows: `eval` printed "J: nan meV" with exit 0
        mat = tmp_path / "huge_c.json"
        mat.write_text(
            '{"effective_mass": 0.067, "dielectric_const": 13.1,'
            ' "confinement_energy_mev": 3.0, "c_override": 1e308}'
        )
        code, out, err = run(
            capsys, "eval", "--material-file", str(mat), "--B", "60", "--a-over-ab", "3"
        )
        assert (code, out) == (2, "")
        assert err == (
            "dotx: error: coulomb strength c=1e+308 is too large at b=17.30766472151697: "
            "c*sqrt(b) overflows\n"
        )

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
        # 1 - S^4 lies within its error of 0 at d = 1e-9: a domain error, not a ZeroDivisionError
        code, out, err = run(capsys, "oracle", "--grid-b", "1", "--grid-d", "1e-9")
        assert (code, out) == (2, "")
        assert err.startswith("dotx: error: overlap S = 0.99999999999999")
        assert "within its error" in err and err.endswith(": the two dots coincide\n")
        assert err.count("\n") == 1

    def test_unresolvable_quartic_term_exits_four(self, capsys, tmp_path):
        # at E = 1e15 V/m the quartic brackets, of size (chi/d)^4 ~ 1e39, cancel
        # down to J ~ 5e19: every bracket converges, but u5's error estimate
        # exceeds its value, and the discrepancy exceeds the threshold
        out = tmp_path / "report.json"
        code, _, err = run(
            capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", "--E", "1e15", "--out", str(out)
        )
        assert (code, err) == (4, "")
        record = json.loads(out.read_text())["points"][0]
        assert "failures" not in record
        assert record["rel_discrepancy"] > 0.01
        assert record["upsilon"]["u5"]["error"] > abs(record["upsilon"]["u5"]["value"])

    def test_unconverged_brackets_are_listed(self, capsys, tmp_path):
        # at E = 1e100 V/m x^4 overflows in the quartic brackets; each is
        # reported instead of an OverflowError
        out = tmp_path / "report.json"
        code, _, err = run(
            capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", "--E", "1e100", "--out", str(out)
        )
        assert (code, err) == (4, "")
        failures = json.loads(out.read_text())["points"][0]["failures"]
        assert [line.split(":")[0] for line in failures] == [
            "u5 <A|W|A>", "u5 <B|W|B>", "u5 <B|W|A>", "u5 <A|W|B>",
        ]
        assert all(line.endswith("Gauss-Hermite bracket rule did not converge to rel_tol=1e-10 by order 4")
                   for line in failures)

    def test_root_above_tol_is_a_convergence_error(self, capsys):
        # |J| at the float nearest the root cannot reach tol 0
        code, out, err = run(capsys, "switch", "--vary", "B", "--from", "0.5", "--to", "3",
                             "--a-over-ab", "0.5", "--tol", "0")
        assert (code, out) == (3, "")
        assert err == "dotx: error: |J(root)| = 1.717454288848172e-15 meV exceeds tol 0.0\n"

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

    def test_quadrature_order_error_comes_after_the_material_ahead_of_the_grid(
        self, capsys, tmp_path
    ):
        missing = tmp_path / "missing.json"
        for argv, message in [
            (["--material-file", str(missing)], f"cannot read material file {missing}"),
            (["--c-override", "-1"], "c_override must be finite and >= 0, got -1.0"),
            (["--grid-d", "0"], "quadrature order must be <= 128"),
        ]:
            code, out, err = run(capsys, "oracle", "--quad-order", "129", *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"dotx: error: {message}") and err.count("\n") == 1
        code, _, err = run(capsys, "oracle", "--grid-d", "0")
        assert (code, err) == (2, "dotx: error: singular configuration d=0: the two dots coincide\n")

    def test_huge_quadrature_order_fails_before_any_node(self, capsys, monkeypatch):
        def no_nodes(n):
            raise AssertionError(f"built {n} quadrature nodes")

        import dotx.oracle

        monkeypatch.setattr(dotx.special, "_hermite_nodes", no_nodes)
        monkeypatch.setattr(dotx.oracle, "_sin_squared", no_nodes)
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
        code, out, _ = run_both(
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
        code, out, _ = run_both(
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
        code, out, err = run_both(capsys, *argv, "--material-file", str(mat))
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
        code, out, err = run_both(capsys, *argv, "--material-file", str(mat))
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
        code, out, err = run_both(capsys, *argv, "--B", "30")
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
        code, out, err = run_both(
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
        code, out, err = run_both(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("dotx: error: electric field chi=")
        assert "at distance d=0.7: chi^2/d^2 overflows" in err
        assert err.count("\n") == 1

    def test_scenario_ferromagnetic_at_zero_field(self, capsys):
        # At c = 8, J < 0 on all of [0, 2] T, so the B scan finds no switch:
        # this used to end in an IndexError traceback
        code, out, err = run(capsys, "scenario", "--c-override", "8")
        assert (code, out) == (2, "")
        assert err == (
            "dotx: error: J is already ferromagnetic at B = 0: no sign change of J on "
            "[0, 2.0] T, so no B-driven switch exists\n"
        )

    def test_oracle_distance_squared_underflow(self, capsys):
        # d^2 underflows to 0: the closed form's error, raised before any
        # bracket divides by d^2 (a ZeroDivisionError traceback before)
        code, out, err = run(capsys, "oracle", "--grid-b", "1", "--grid-d", "1e-300")
        assert (code, out) == (2, "")
        assert err == (
            "dotx: error: singular configuration d=1e-300: 1 - S^4 rounds to 0, "
            "the two dots coincide\n"
        )

    @pytest.mark.parametrize("extra, code", [([], 2), (["--B", "1e300", "--c-override", "1e5"], 0)])
    def test_sweep_distance_overflow_warns_nothing(self, capsys, extra, code):
        # d * a_B overflows to a = inf on the grid: both sweep paths mark that
        # row singular, with no numpy RuntimeWarning (an error under pytest)
        argv = ["sweep", "--vary", "d", "--from", "0.3", "--to", "1e308", *extra]
        got, out, err = run_both(capsys, *argv)
        assert got == code
        if code == 2:
            assert out == ""
            assert err == "dotx: error: distance d=1e+306 is too large: d^2 overflows\n"
        else:
            assert err == "" and out.splitlines()[-1] == "1e+308,nan,nan,nan,nan,nan,nan,nan,nan"

    def test_sweep_up_to_the_largest_float_warns_nothing(self, capsys):
        # linspace's last product, replaced by stop, overflows on this grid:
        # the array path printed a numpy RuntimeWarning (an error under pytest)
        got, out, err = run_both(
            capsys, "sweep", "--vary", "B", "--from", "0", "--to", "1.7976931348623157e308",
            "--steps", "514",
        )
        assert (got, err) == (0, "")
        assert out.splitlines()[-1].startswith("1.7976931348623157e+308,")


def strict_json(text: str):
    """`text` parsed as strict JSON: a bare NaN or Infinity token fails."""

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """A float that is not finite is written as null, which every JSON
    parser reads; the bare NaN and -Infinity tokens before were not JSON."""

    def test_eval_overflowing_coulomb_term(self, capsys):
        # 2 d^2 (b - 1/b) >= 700: the printed coulomb term is -inf, J is finite
        code, out, _ = run(capsys, "eval", "--json", "--B", "20", "--a-over-ab", "30")
        payload = strict_json(out)
        assert code == 0 and payload["coulomb_term"] is None
        assert math.isfinite(payload["J_meV"]) and math.isfinite(payload["prefactor"])

    def test_sweep_singular_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--vary", "d", "--from", "1e-170", "--to", "1", "--steps", "3",
            "--format", "json",
        )
        rows = strict_json(out)["rows"]
        assert code == 0 and [row["singular"] for row in rows] == [True, False, False]
        assert rows[0] == {"x": 1e-170, "J_meV": None, "b": None, "d": None, "S": None,
                           "singular": True}
        assert all(math.isfinite(row["J_meV"]) for row in rows[1:])

    def test_oracle_failed_point(self, capsys, tmp_path):
        # At E = 1e100 V/m the field bracket does not converge: the oracle J,
        # its discrepancy and the bracket's estimate are nan
        out = tmp_path / "oracle.json"
        code, _, _ = run(capsys, "oracle", "--grid-b", "1", "--grid-d", "0.7", "--E", "1e100",
                         "--out", str(out))
        payload = strict_json(out.read_text())
        point = payload["points"][0]
        assert code == 4 and point["incomplete"] is True
        assert point["j_oracle"] is None and point["rel_discrepancy"] is None
        assert point["upsilon"]["u5"] == {"error": None, "value": None}
        assert math.isfinite(point["j_closed_form"])
