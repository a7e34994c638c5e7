"""A seeded argv corpus through `dotx.cli.main`: every argv, however bad its
values, ends in a documented exit code with one line of error, and never in
an exception or a warning (pytest turns warnings into errors).

`argv_corpus(seed, n, work_dir)` builds the argv from each command's own
parser flags, so a flag added to a command is fuzzed without an edit here.
Step counts, grid sizes and quadrature orders come from capped pools.
"""

import argparse
import json
import os
import random
import re

import pytest

from dotx.cli import _COMMANDS, _add_field_args, _add_material_args, main

EDGE_FLOATS = ["0", "-0", "inf", "-inf", "nan", "5e-324", "1e-300", "1e308", "1.8e308",
               "-1e308", "-3", "bad", "", "-nan", "-Infinity"]
EDGE_INTS = ["0", "-1", "1", "4", "128", "129", "100001", "2.5", "1e3", "x"]

#: Ordinary values per argument dest; an argument not named here draws from
#: the edge values of its type only.
TYPICAL = {
    "B": ["0", "1", "1.5", "2", "30", "-2"],
    "E": ["0", "1e5", "2e5", "-1e5", "1e15"],
    "a_nm": ["10", "28", "0", "-1"],
    "a_over_ab": ["0.7", "0.5", "1", "5", "1e-9", "1e-158", "1e-170", "1.2e154"],
    "c_override": ["0", "2.36", "8", "1e5"],
    "material": ["gaas", "unobtainium"],
    "from": ["0", "0.3", "0.5", "1", "3", "4", "8", "2e5", "-2e5", "100"],
    "to": ["0", "0.3", "1", "3", "4", "8", "2e5", "100", "1e308"],
    "steps": ["2", "5", "41", "161"],
    "tol": ["1e-9", "1e-12", "0", "1"],
    "scan_steps": ["2", "13", "121"],
    "b_operating": ["1", "2", "3", "1e5"],
    "steps_per_phase": ["1", "4", "13"],
    "threshold": ["0.01", "0", "1"],
    "quad_order": ["8", "16", "64"],
    "quad_rel_tol": ["1e-10", "1e-6", "1e-15", "0", "1"],
}
GRID_B = ["0", "1", "1.5", "3", "30", "1e6"]
GRID_D = ["0.5", "0.7", "1", "20", "1e-9", "1e-300"]


def _write_materials(work_dir: str) -> list:
    """Material files for --material-file: good, with c so large that c sqrt(b)
    overflows, malformed, missing a key, absent."""
    files = {
        "good.json": {"effective_mass": 0.067, "dielectric_const": 13.1,
                      "confinement_energy_mev": 3.0},
        "tiny_kappa.json": {"effective_mass": 0.067, "dielectric_const": 1e-320,
                            "confinement_energy_mev": 3.0},
        "huge_c.json": {"effective_mass": 0.067, "dielectric_const": 13.1,
                        "confinement_energy_mev": 3.0, "c_override": 1e308},
        "no_mass.json": {"dielectric_const": 13.1, "confinement_energy_mev": 3.0},
    }
    for name, raw in files.items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
    with open(os.path.join(work_dir, "broken.json"), "w", encoding="utf-8") as fh:
        fh.write("{")
    return [os.path.join(work_dir, name) for name in [*files, "broken.json", "absent.json"]]


def _command_actions(command: str) -> list:
    parser = argparse.ArgumentParser(add_help=False)
    _add_material_args(parser)
    _add_field_args(parser)
    _COMMANDS[command][1](parser)
    return parser._actions


def _value(rng: random.Random, action, work_dir: str, materials: list) -> str:
    dest = action.dest
    if dest == "out":
        blocked = os.path.join(work_dir, "blocker")  # a file, so no directory can be made under it
        return rng.choice([os.path.join(work_dir, "o.out"), os.path.join(work_dir, "sub", "o.out"),
                           os.path.join(blocked, "o.out"), work_dir, ""])
    if dest == "material_file":
        return rng.choice(materials)
    if dest in ("grid_b", "grid_d"):
        if rng.random() < 0.1:
            return rng.choice(["1,,2", "x", "", "1;2"])
        pool = (GRID_B if dest == "grid_b" else GRID_D) + EDGE_FLOATS[:10]  # the numbers
        return ",".join(rng.choice(pool) for _ in range(rng.randint(1, 2)))
    if action.choices:
        return "Q" if rng.random() < 0.05 else rng.choice(list(action.choices))
    edge = EDGE_INTS if action.type is int else EDGE_FLOATS
    if dest in TYPICAL and rng.random() < 0.8:
        return rng.choice(TYPICAL[dest])
    return rng.choice(edge)


def argv_corpus(seed: int, n: int, work_dir: str) -> list:
    """`n` argv lists from `seed`; --out and material files point into `work_dir`."""
    rng = random.Random(seed)
    materials = _write_materials(work_dir)
    with open(os.path.join(work_dir, "blocker"), "w", encoding="utf-8"):
        pass
    actions = {command: _command_actions(command) for command in _COMMANDS}
    corpus = []
    for _ in range(n):
        command = rng.choice(sorted(_COMMANDS))
        argv = [command]
        flags = []
        for action in actions[command]:
            if rng.random() >= (0.97 if action.required else 0.3):
                continue
            flag = action.option_strings[-1]
            if action.nargs == 0:
                flags.append([flag])
                continue
            value = _value(rng, action, work_dir, materials)
            flags.append([f"{flag}={value}"] if rng.random() < 0.5 else [flag, value])
        rng.shuffle(flags)
        for words in flags:
            argv += words
        if rng.random() < 0.02:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "frobnicate", "1"]))
        corpus.append(argv)
    return corpus


def _number_read_as_option(argv: list, err: str) -> bool:
    """Whether argparse reported an option as missing its value where the
    word after it is a number, such as the "-1e5" of "--E -1e5" or "-inf"."""
    match = re.search(r"argument (\S+): expected one argument", err)
    if match is None or match.group(1) not in argv:
        return False
    following = argv[argv.index(match.group(1)) + 1:][:1]
    try:
        float(*following)
    except (TypeError, ValueError):  # no word follows, or it is not a number
        return False
    return True


@pytest.mark.parametrize("seed", [1])
def test_every_argv_exits_with_one_documented_line(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("DOTX_MATERIAL_PATH", raising=False)
    monkeypatch.chdir(tmp_path)  # where `figure` writes without --out
    problems = []
    for argv in argv_corpus(seed, 2000, str(tmp_path)):
        try:
            code = main(list(argv))
        except Exception as exc:
            capsys.readouterr()
            problems.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        out, err = capsys.readouterr()
        lines = err.splitlines()
        if code in (0, 4):
            ok = err == ""
        elif code in (2, 3):
            ok = len(lines) == 1 and lines[0].startswith("dotx: error: ")
        elif code == 1:  # argparse's usage and one error line, or the --threshold line alone
            usage = lines[:1] != [] and lines[0].startswith("usage: dotx ")
            ok = out == "" and (
                (usage and [line for line in lines if ": error: " in line] == lines[-1:])
                or (len(lines) == 1 and lines[0].startswith("dotx: error: --threshold "))
            ) and not _number_read_as_option(argv, err)
        else:
            ok = False
        if not ok:
            problems.append((argv, f"exit {code!r}, stderr {err!r}"))
    assert not problems, f"{len(problems)} argv failed, e.g. {problems[:5]}"
