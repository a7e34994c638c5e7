"""Command-line surface: point evaluation, sweeps, switch finding,
figure-data emission, and the closed-form/oracle comparison report.

Exit codes: 0 success, 1 usage, 2 domain error, 3 convergence error,
4 oracle discrepancy above threshold (report still written).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import NamedTuple

from .closed_form import exchange_energy
from .errors import (
    DotxError,
    InvalidArgumentError,
    NoRootInBracketError,
    QuadratureError,
    RootConvergenceError,
)
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
    c_is_override: bool
    fields: FieldConfig
    output_path: str | None
    format: str


class _Parser(argparse.ArgumentParser):
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


def _add_quadrature_args(p):
    p.add_argument("--quad-order", type=int, default=None, help="first-level nodes per axis, 4..128 (default "
                   "64); Gauss-Hermite ends at order 370, so a larger order leaves fewer refinement rounds")
    p.add_argument("--quad-rel-tol", type=float, default=None, help="quadrature rel_tol override")


def _resolve_config(args) -> RunConfig:
    if getattr(args, "material_file", None):
        mat = load_material(args.material_file)
        name = args.material_file
    else:
        mat = material_by_name(args.material)
        name = args.material
    c_override = getattr(args, "c_override", None)
    if c_override is not None:
        mat = replace(mat, c_override=c_override)
    a_nm = getattr(args, "a_nm", None)
    if a_nm is None:
        a_nm = getattr(args, "a_over_ab", 0.7) * bohr_radius_nm(mat)
    fields = FieldConfig(B=getattr(args, "B", 0.0), E=getattr(args, "E", 0.0), a=a_nm)
    return RunConfig(
        material=mat,
        material_name=name,
        c_is_override=c_override is not None or mat.c_override is not None,
        fields=fields,
        output_path=getattr(args, "out", None),
        format=getattr(args, "format", "csv"),
    )


def _provenance(cfg: RunConfig, extra: dict | None = None, p: DerivedParams | None = None) -> dict:
    p = p or derive_parameters(cfg.material, cfg.fields)
    out = {
        "material": cfg.material_name,
        "effective_mass": cfg.material.effective_mass,
        "dielectric_const": cfg.material.dielectric_const,
        "confinement_energy_mev": cfg.material.confinement_energy,
        "c_coulomb": p.c_coulomb,
        "c_source": "override" if cfg.c_is_override else "derived",
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


def _json_text(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    p = derive_parameters(cfg.material, cfg.fields)
    bd = exchange_energy(
        p.b, p.d, p.c_coulomb, p.efield_ratio, energy_scale_mev=cfg.material.confinement_energy
    )
    if getattr(args, "json", False):
        payload = {
            "params": _provenance(cfg, {"b": p.b, "d": p.d, "efield_ratio": p.efield_ratio}, p),
            "prefactor": bd.prefactor,
            "coulomb_term": bd.coulomb_term,
            "quartic_term": bd.quartic_term,
            "efield_term": bd.efield_term,
            "j_dimensionless": bd.j_dimensionless,
            "J_meV": bd.j_mev,
        }
        print(_json_text(payload), end="")
        return EXIT_OK
    print(f"material: {cfg.material_name}")
    print(f"B: {cfg.fields.B!r} T   E: {cfg.fields.E!r} V/m   a: {cfg.fields.a!r} nm")
    print(f"b: {p.b!r}   d: {p.d!r}   efield_ratio: {p.efield_ratio!r}")
    print(f"c: {'override' if cfg.c_is_override else 'derived'} ({p.c_coulomb!r})")
    print(f"prefactor:    {bd.prefactor!r}")
    print(f"coulomb_term: {bd.coulomb_term!r}")
    print(f"quartic_term: {bd.quartic_term!r}")
    print(f"efield_term:  {bd.efield_term!r}")
    print(f"J/(hbar*omega0): {bd.j_dimensionless!r}")
    print(f"J: {bd.j_mev!r} meV")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .sweeps import SweepSpec, sweep, sweep_csv_text

    cfg = _resolve_config(args)
    spec = SweepSpec(
        vary=args.vary,
        start=getattr(args, "from"),
        stop=args.to,
        steps=args.steps,
        fixed=cfg.fields,
        material=cfg.material,
    )
    rows = sweep(spec)
    extra = {"vary": spec.vary, "from": spec.start, "to": spec.stop, "steps": spec.steps}
    if cfg.format == "json":
        payload = {
            "params": _provenance(cfg, extra),
            "rows": [
                {"x": r.x, "J_meV": r.j_mev, "b": r.b, "d": r.d, "S": r.s_overlap,
                 "singular": r.singular}
                for r in rows
            ],
        }
        text = _json_text(payload)
    else:
        text = sweep_csv_text(spec, rows, _provenance(cfg, extra))
    if cfg.output_path:
        _write_text(cfg.output_path, text)
        n_sign = sum(
            1
            for r1, r2 in zip(rows[:-1], rows[1:])
            if not (r1.singular or r2.singular) and (r1.j_mev > 0) != (r2.j_mev > 0)
        )
        print(f"wrote {cfg.output_path} ({len(rows)} rows, {n_sign} sign change(s))")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_switch(args) -> int:
    from .sweeps import find_switch, scan_switches, switch_point_dict, validate_scan_steps

    cfg = _resolve_config(args)
    validate_scan_steps(args.scan_steps)
    lo, hi = getattr(args, "from"), args.to
    if args.scan:
        points = scan_switches(
            args.vary, cfg.material, cfg.fields, lo, hi, scan_steps=args.scan_steps,
            tol=args.tol,
        )
        if not points:
            raise NoRootInBracketError(f"no sign change of J on [{lo}, {hi}] along {args.vary}")
        payload = {
            "params": _provenance(cfg),
            "switch_points": [switch_point_dict(pt) for pt in points],
        }
    else:
        point = find_switch(args.vary, cfg.material, cfg.fields, (lo, hi), tol=args.tol)
        payload = {"params": _provenance(cfg), "switch_point": switch_point_dict(point)}
        points = [point]
    text = _json_text(payload)
    if cfg.output_path:
        _write_text(cfg.output_path, text)
    print(
        f"{len(points)} switch point(s): "
        + ", ".join(f"{args.vary}={pt.value!r} ({pt.direction})" for pt in points)
    )
    if cfg.output_path:
        print(f"wrote {cfg.output_path}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_scenario(args) -> int:
    from .sweeps import scenario_dict, switching_scenario

    cfg = _resolve_config(args)
    result = switching_scenario(
        cfg.material,
        cfg.fields.a,
        b_operating=args.b_operating,
        steps_per_phase=args.steps_per_phase,
    )
    payload = {"params": _provenance(cfg, {"b_operating_T": args.b_operating})}
    payload.update(scenario_dict(result))
    text = _json_text(payload)
    if cfg.output_path:
        _write_text(cfg.output_path, text)
        print(f"wrote {cfg.output_path}")
    else:
        print(text, end="")
    print(
        f"B switch at {result.b_switch.value!r} T, "
        f"E switch at {result.e_switch.value!r} V/m"
    )
    return EXIT_OK


def cmd_figure(args) -> int:
    from .sweeps import SweepSpec, sweep

    cfg = _resolve_config(args)
    layout = FIGURES[args.id]
    curves = layout["curves"]
    columns = []
    for key, value in curves:
        fixed = replace(cfg.fields, **({"B": value} if key == "B_T" else {"E": value}))
        spec = SweepSpec(
            vary=layout["vary"],
            start=layout["start"],
            stop=layout["stop"],
            steps=layout["steps"],
            fixed=fixed,
            material=cfg.material,
        )
        columns.append(((key, value), sweep(spec)))
    xs = [row.x for row in columns[0][1]]
    lines = [f"# dotx figure {args.id}"]
    prov = _provenance(cfg, {"vary": layout["vary"], "steps": layout["steps"]})
    for key in sorted(prov):
        lines.append(f"# {key} = {prov[key]!r}")
    header = ["x"] + [f"J_meV_{key}={value!r}" for (key, value), _ in columns]
    lines.append(",".join(header))
    for i, x in enumerate(xs):
        vals = [repr(float(x))]
        for _, rows in columns:
            vals.append(repr(float(rows[i].j_mev)))
        lines.append(",".join(vals))
    text = "\n".join(lines) + "\n"
    out_dir = cfg.output_path or "."
    path = os.path.join(out_dir, f"fig{args.id}.csv")
    _write_text(path, text)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import _DEFAULT_COULOMB, _DEFAULT_SINGLE, assemble_oracle

    if not 0.0 <= args.threshold < math.inf:
        print(f"dotx: error: --threshold must be finite and >= 0, got {args.threshold!r}",
              file=sys.stderr)
        return EXIT_USAGE
    cfg = _resolve_config(args)
    overrides = {"order": args.quad_order, "rel_tol": args.quad_rel_tol}
    quad_single = replace(_DEFAULT_SINGLE, **{k: v for k, v in overrides.items() if v is not None})
    rel_tol = max(quad_single.rel_tol, _DEFAULT_COULOMB.rel_tol)
    quad_coulomb = replace(_DEFAULT_COULOMB, order=quad_single.order, rel_tol=rel_tol)
    a_b = bohr_radius_nm(cfg.material)
    records = []
    worst = 0.0
    any_incomplete = False
    for b_field in args.grid_b:
        for d in args.grid_d:
            fields = FieldConfig(B=b_field, E=cfg.fields.E, a=d * a_b)
            p = derive_parameters(cfg.material, fields)
            breakdown = assemble_oracle(
                cfg.material, fields, quad_single=quad_single, quad_coulomb=quad_coulomb
            )
            params = {
                "B_T": b_field,
                "E_Vm": cfg.fields.E,
                "a_nm": fields.a,
                "b": p.b,
                "d": p.d,
                "c": p.c_coulomb,
            }
            records.append(breakdown.to_report_dict(params))
            if breakdown.incomplete:
                any_incomplete = True
            else:
                worst = max(worst, breakdown.rel_discrepancy)
    payload = {
        "params": _provenance(cfg, {"grid_B_T": args.grid_b, "grid_d": args.grid_d}),
        "threshold": args.threshold,
        "max_rel_discrepancy": worst,
        "all_within_threshold": worst <= args.threshold and not any_incomplete,
        "points": records,
    }
    text = _json_text(payload)
    if cfg.output_path:
        _write_text(cfg.output_path, text)
        print(f"wrote {cfg.output_path}")
    else:
        print(text, end="")
    print(f"max relative discrepancy: {worst!r} (threshold {args.threshold!r})")
    if worst > args.threshold or any_incomplete:
        return EXIT_ORACLE
    return EXIT_OK


def _eval_args(p):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _sweep_args(p):
    p.add_argument("--vary", required=True, choices=("B", "E", "d"))
    p.add_argument("--from", type=float, required=True, dest="from")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _switch_args(p):
    p.add_argument("--vary", required=True, choices=("B", "E", "d"))
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
    _add_quadrature_args(p)
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


def build_parser(command: str | None = None) -> _Parser:
    """The `dotx` parser.  Every subcommand is listed, so the top-level help
    and errors do not change, but only `command`'s subparser (every one's
    when None) gets its arguments."""
    parser = _Parser(prog="dotx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or name == command:
            _add_material_args(p)
            _add_field_args(p)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse runs the first argument not led by "-" as the command, or
    # rejects one before it, so only that subparser needs its arguments.
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
