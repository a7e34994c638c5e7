"""Command-line surface: point evaluation, sweeps, switch finding,
figure-data emission, and the closed-form/oracle comparison report.

Exit codes: 0 success, 1 usage, 2 domain error, 3 convergence error,
4 oracle discrepancy above threshold (report still written).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import NamedTuple

from .closed_form import AXES, exchange_energy
from .errors import (
    DotxError,
    InvalidArgumentError,
    NoRootInBracketError,
    QuadratureError,
    RootConvergenceError,
)
from .special import QuadratureSpec
from .units import (
    DerivedParams,
    FieldConfig,
    MaterialParams,
    bohr_radius_nm,
    derive_parameters,
    load_material,
    material_by_name,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_ORACLE = 4

_CONVERGENCE_ERRORS = (RootConvergenceError, QuadratureError)

#: Default per-figure curve sets; the published plots do not state their
#: field values numerically, so these are config choices that keep every
#: crossing inside the plotted range.
FIGURES = {
    "1": {
        "vary": "B",
        "start": 0.0,
        "stop": 8.0,
        "steps": 161,
        "curves": [("E_Vm", e) for e in (0.0, 1e5, 2e5, 3e5)],
    },
    "2": {
        "vary": "E",
        "start": 0.0,
        "stop": 2e5,
        "steps": 101,
        "curves": [("B_T", b) for b in (1.5, 2.0, 2.5)],
    },
    "4": {
        "vary": "d",
        "start": 0.1,
        "stop": 1.5,
        "steps": 141,
        "curves": [("B_T", b) for b in (0.0, 1.0, 1.5, 2.0)],
    },
}


class RunConfig(NamedTuple):
    """Resolved common CLI state."""

    material: MaterialParams
    material_name: str
    fields: FieldConfig


class _Output(NamedTuple):
    """A command's `text`, printed, or written to `path` with a "wrote" line
    ending in `wrote`; the summary lines `before` and `after` it, if any."""

    text: str
    path: str | None = None
    wrote: str = ""
    before: str = ""
    after: str = ""
    code: int = EXIT_OK


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e5" and "-inf" for options: read them as numbers too
        self._negative_number_matcher = re.compile(
            r"^-((\d+|\d*\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_material_args(p):
    p.add_argument("--material", default="gaas", help="preset name (default: gaas)")
    p.add_argument("--material-file", default=None, help="material JSON file (overrides preset)")
    p.add_argument("--c-override", type=float, default=None, help="fix the Coulomb strength c")


def _add_field_args(p):
    p.add_argument("--B", type=float, default=0.0, help="magnetic field, Tesla")
    p.add_argument("--E", type=float, default=0.0, help="electric field, V/m")
    geom = p.add_mutually_exclusive_group()
    geom.add_argument("--a-nm", type=float, default=None, help="half inter-dot distance, nm")
    geom.add_argument(
        "--a-over-ab",
        type=float,
        default=0.7,
        help="half distance in units of the effective Bohr radius (default 0.7)",
    )


def _float_list(text: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}") from None


def _resolve_config(args) -> RunConfig:
    name = args.material_file or args.material
    mat = load_material(name) if args.material_file else material_by_name(name)
    if args.c_override is not None:
        mat = mat._replace(c_override=args.c_override)
    a_nm = args.a_over_ab * bohr_radius_nm(mat) if args.a_nm is None else args.a_nm
    return RunConfig(mat, name, FieldConfig(args.B, args.E, a_nm))


def _provenance(cfg: RunConfig, extra: dict | None = None, p: DerivedParams | None = None) -> dict:
    p = p or derive_parameters(cfg.material, cfg.fields)
    out = {
        "material": cfg.material_name,
        "effective_mass": cfg.material.effective_mass,
        "dielectric_const": cfg.material.dielectric_const,
        "confinement_energy_mev": cfg.material.confinement_energy,
        "c_coulomb": p.c_coulomb,
        "c_source": "derived" if cfg.material.c_override is None else "override",
        "bohr_radius_nm": p.bohr_radius,
        "B_T": cfg.fields.B,
        "E_Vm": cfg.fields.E,
        "a_nm": cfg.fields.a,
    }
    if extra:
        out.update(extra)
    return out


def _write_text(path: str, text: str):
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from exc


def _finite(value):
    """`value` with every float in it that is not finite (nan, +-inf) as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _json_text(payload: dict) -> str:
    """`payload` as strict JSON, which every parser reads: a float that is
    not finite is written as null, never as a bare NaN or Infinity token."""
    import json

    return json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(title: str, provenance: dict, names, rows) -> str:
    """A CSV: a title line, one comment line per provenance key, the column
    `names`, then each of `rows`, a tuple of floats, by repr (nan as nan)."""
    lines = [f"# dotx {title}"] + [f"# {key} = {provenance[key]!r}" for key in sorted(provenance)]
    lines.append(",".join(names))
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _switch_point_dict(point) -> dict:
    return {
        "axis": point.axis,
        "value": point.value,
        "bracket": list(point.bracket),
        "residual_mev": point.residual,
        "direction": point.direction,
    }


def cmd_eval(args, cfg: RunConfig) -> _Output:
    p = derive_parameters(cfg.material, cfg.fields)
    bd = exchange_energy(
        p.b, p.d, p.c_coulomb, p.efield_ratio, energy_scale_mev=cfg.material.confinement_energy
    )
    if args.json:
        return _Output(_json_text({
            "params": _provenance(cfg, {"b": p.b, "d": p.d, "efield_ratio": p.efield_ratio}, p),
            "prefactor": bd.prefactor,
            "coulomb_term": bd.coulomb_term,
            "quartic_term": bd.quartic_term,
            "efield_term": bd.efield_term,
            "j_dimensionless": bd.j_dimensionless,
            "J_meV": bd.j_mev,
        }))
    return _Output(
        f"material: {cfg.material_name}\n"
        f"B: {cfg.fields.B!r} T   E: {cfg.fields.E!r} V/m   a: {cfg.fields.a!r} nm\n"
        f"b: {p.b!r}   d: {p.d!r}   efield_ratio: {p.efield_ratio!r}\n"
        f"c: {'derived' if cfg.material.c_override is None else 'override'} ({p.c_coulomb!r})\n"
        f"prefactor:    {bd.prefactor!r}\n"
        f"coulomb_term: {bd.coulomb_term!r}\n"
        f"quartic_term: {bd.quartic_term!r}\n"
        f"efield_term:  {bd.efield_term!r}\n"
        f"J/(hbar*omega0): {bd.j_dimensionless!r}\n"
        f"J: {bd.j_mev!r} meV\n"
    )


def cmd_sweep(args, cfg: RunConfig) -> _Output:
    from .sweeps import SweepSpec, _sign_changes, sweep

    spec = SweepSpec(args.vary, getattr(args, "from"), args.to, args.steps, cfg.fields,
                     cfg.material)
    rows = sweep(spec)
    prov = _provenance(
        cfg, {"vary": spec.vary, "from": spec.start, "to": spec.stop, "steps": spec.steps}
    )
    if args.format == "json":
        text = _json_text({
            "params": prov,
            "rows": [
                {"x": r.x, "J_meV": r.j_mev, "b": r.b, "d": r.d, "S": r.s_overlap,
                 "singular": r.singular}
                for r in rows
            ],
        })
    else:
        text = _csv_text(
            "sweep", prov, "x J_meV prefactor coulomb_term quartic_term efield_term b d S".split(),
            ((r.x, r.j_mev, r.prefactor, r.coulomb_term, r.quartic_term, r.efield_term, r.b, r.d,
              r.s_overlap) for r in rows),
        )
    if not args.out:
        return _Output(text)
    n_sign = len(_sign_changes((r.x, r.j_mev) for r in rows))
    return _Output(text, args.out, wrote=f" ({len(rows)} rows, {n_sign} sign change(s))")


def cmd_switch(args, cfg: RunConfig) -> _Output:
    from .sweeps import find_switch, scan_switches, validate_scan_steps

    validate_scan_steps(args.scan_steps)
    lo, hi = getattr(args, "from"), args.to
    if args.scan:
        points = scan_switches(args.vary, cfg.material, cfg.fields, lo, hi,
                               scan_steps=args.scan_steps, tol=args.tol)
        if not points:
            raise NoRootInBracketError(f"no sign change of J on [{lo}, {hi}] along {args.vary}")
        payload = {
            "params": _provenance(cfg),
            "switch_points": [_switch_point_dict(pt) for pt in points],
        }
    else:
        point = find_switch(args.vary, cfg.material, cfg.fields, (lo, hi), tol=args.tol)
        payload = {"params": _provenance(cfg), "switch_point": _switch_point_dict(point)}
        points = [point]
    summary = f"{len(points)} switch point(s): " + ", ".join(
        f"{args.vary}={pt.value!r} ({pt.direction})" for pt in points
    )
    return _Output(_json_text(payload), args.out, before=summary)


def cmd_scenario(args, cfg: RunConfig) -> _Output:
    from .sweeps import switching_scenario

    result = switching_scenario(cfg.material, cfg.fields.a, args.b_operating,
                                steps_per_phase=args.steps_per_phase)
    payload = {
        "params": _provenance(cfg, {"b_operating_T": args.b_operating}),
        "b_switch": _switch_point_dict(result.b_switch),
        "e_switch": _switch_point_dict(result.e_switch),
        "steps": [
            {"phase": s.phase, "B_T": s.B, "E_Vm": s.E, "J_meV": s.j_mev, "sign": s.sign}
            for s in result.steps
        ],
    }
    summary = f"B switch at {result.b_switch.value!r} T, E switch at {result.e_switch.value!r} V/m"
    return _Output(_json_text(payload), args.out, after=summary)


def cmd_figure(args, cfg: RunConfig) -> _Output:
    from .sweeps import SweepSpec, sweep

    layout = FIGURES[args.id]
    names, curves = ["x"], []
    for key, value in layout["curves"]:
        fixed = cfg.fields._replace(**({"B": value} if key == "B_T" else {"E": value}))
        spec = SweepSpec(layout["vary"], layout["start"], layout["stop"], layout["steps"], fixed,
                         cfg.material)
        names.append(f"J_meV_{key}={value!r}")
        curves.append(sweep(spec))
    text = _csv_text(
        f"figure {args.id}", _provenance(cfg, {"vary": layout["vary"], "steps": layout["steps"]}),
        names, ((rows[0].x, *(r.j_mev for r in rows)) for rows in zip(*curves)),
    )
    return _Output(text, os.path.join(args.out or ".", f"fig{args.id}.csv"))


def cmd_oracle(args, cfg: RunConfig) -> _Output:
    from .oracle import assemble_oracle

    overrides = {"order": args.quad_order, "rel_tol": args.quad_rel_tol}
    quad = QuadratureSpec(**{k: v for k, v in overrides.items() if v is not None})
    quad.validate()  # after a bad material (resolved first), ahead of the grid's first point
    a_b = bohr_radius_nm(cfg.material)
    records, compared = [], []
    for b_field in args.grid_b:
        for d in args.grid_d:
            fields = FieldConfig(B=b_field, E=cfg.fields.E, a=d * a_b)
            breakdown = assemble_oracle(cfg.material, fields, quad)
            records.append(breakdown.to_report_dict({
                "B_T": b_field, "E_Vm": cfg.fields.E, "a_nm": fields.a, "b": breakdown.b,
                "d": breakdown.d, "c": breakdown.c,
            }))
            if not breakdown.incomplete:
                compared.append(breakdown.rel_discrepancy)
    # an incomplete point is not compared, and fails the run; with none compared
    # there is no maximum, and a nan discrepancy (j_oracle not finite) is the
    # maximum, which no threshold passes
    worst = (math.nan if any(math.isnan(r) for r in compared) else max(compared)) if compared else None
    failed = len(compared) < len(records) or not worst <= args.threshold
    payload = {
        "params": _provenance(cfg, {"grid_B_T": args.grid_b, "grid_d": args.grid_d}),
        "threshold": args.threshold,
        "max_rel_discrepancy": worst,
        "all_within_threshold": not failed,
        "points": records,
    }
    return _Output(
        _json_text(payload), args.out,
        after=(f"max relative discrepancy: {worst!r}" if compared else "no point compared")
        + f" (threshold {args.threshold!r})",
        code=EXIT_ORACLE if failed else EXIT_OK,
    )


def _run(args) -> int:
    """Resolve the config, run the command, then write `--out` or print the
    text, with the command's summary lines around it; returns the exit code."""
    if args.command == "oracle" and not 0.0 <= args.threshold < math.inf:
        # a usage error, reported ahead of any material error
        print(f"dotx: error: --threshold must be finite and >= 0, got {args.threshold!r}",
              file=sys.stderr)
        return EXIT_USAGE
    text, path, wrote, before, after, code = args.func(args, _resolve_config(args))
    if path:
        _write_text(path, text)
    if before:
        print(before)
    if path:
        print(f"wrote {path}{wrote}")
    else:
        print(text, end="")
    if after:
        print(after)
    return code


def _eval_args(p):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _sweep_args(p):
    p.add_argument("--vary", required=True, choices=AXES)
    p.add_argument("--from", type=float, required=True, dest="from")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _switch_args(p):
    p.add_argument("--vary", required=True, choices=AXES)
    p.add_argument("--from", type=float, required=True, dest="from")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9, help="|J| tolerance at root, meV")
    p.add_argument("--scan", action="store_true", help="pre-scan the range for every sign change "
                   "instead of treating it as one bracket")
    p.add_argument("--scan-steps", type=int, default=121)
    p.add_argument("--out", default=None)


def _scenario_args(p):
    p.add_argument("--b-operating", type=float, default=2.0, help="plateau field, Tesla")
    p.add_argument("--steps-per-phase", type=int, default=13)
    p.add_argument("--out", default=None)


def _figure_args(p):
    p.add_argument("--id", required=True, choices=sorted(FIGURES))
    p.add_argument("--out", default=".", help="output directory")


def _oracle_args(p):
    p.add_argument("--quad-order", type=int, default=None, help="first level of the Coulomb trapezoid sums, "
                   "in intervals, 4..128 (default 64); the single-particle brackets are exact at a fixed order")
    p.add_argument("--quad-rel-tol", type=float, default=None, help="quadrature rel_tol override")
    p.add_argument(
        "--grid-b", type=_float_list, default="0,1,1.5,2,3", help="comma-separated B values, T"
    )
    p.add_argument(
        "--grid-d", type=_float_list, default="0.5,0.6,0.7,0.85,1.0",
        help="comma-separated d values",
    )
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--out", default=None)


#: Subcommand name -> (help, its own arguments after the material and field
#: ones, handler).
_COMMANDS = {
    "eval": ("print J and its term breakdown at one point", _eval_args, cmd_eval),
    "sweep": ("scan J along B, E, or d", _sweep_args, cmd_sweep),
    "switch": ("locate the sign change of J", _switch_args, cmd_switch),
    "scenario": ("four-phase switching trajectory", _scenario_args, cmd_scenario),
    "figure": ("emit figure datasets", _figure_args, cmd_figure),
    "oracle": ("closed form vs quadrature comparison report", _oracle_args, cmd_oracle),
}


def build_parser() -> _Parser:
    """The `dotx` parser, with every subcommand and its arguments."""
    parser = _Parser(prog="dotx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_material_args(p)
        _add_field_args(p)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        return _run(parser.parse_args(argv))
    except SystemExit as exc:  # argparse usage errors come through here
        return exc.code if exc.code is not None else EXIT_OK
    except _CONVERGENCE_ERRORS as exc:
        print(f"dotx: error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except DotxError as exc:
        print(f"dotx: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
