"""Golden CLI outputs: the cases, how one is run, and the command that rewrites them.

``tests/test_golden.py`` runs every case below through ``spinheat.cli.main``
and compares its standard output, standard error and exit code byte for byte
with the files in this directory:

* ``<name>.out`` holds the case's standard output;
* ``outcomes.json`` holds each case's exit code and standard error.

Rewrite the files, from the root of a checkout, with::

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

Named cases are rewritten alone, and the other entries of ``outcomes.json``
are kept, so a new case can be added without touching the files of the
others.  With no name, every case is rewritten.  Before a file is rewritten,
the command prints its largest change per column against the file it
replaces: a CSV table's columns, a JSON record's keys, and the ``name =
value`` lines of standard error; a column that changed other than in a
number is marked ``changed``.  Regenerating changes what the test checks.
CHANGES.md must then name the files that changed, the reason, and that
table.
The bytes depend on the BLAS build and its thread count; a mismatch on another
machine is a finding to record, not a reason to loosen the comparison.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from spinheat import cli

HERE = Path(__file__).resolve().parent
OUTCOMES = HERE / "outcomes.json"

# fig1-3 leave beta_L open, and fig4, fig5 and eq16 leave h_L open (it is their
# sweep parameter), so a single point of each needs both
BETA_H_L = "[bath_L]\nbeta = 0.8\nh = 0.7\n"
BETA_L = "[bath_L]\nbeta = 0.8\n"
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "eq16")
ISING = ("ising_boson_n2", "ising_boson_n3", "ising_spin_n2", "ising_spin_n3")

# field-free xxz n=5 with asymmetric bonds, and xxz n=4 in a field, both between (beta, h) baths
XXZ5_FLIP_F = (
    "[model]\nkind = xxz\nn = 5\nalpha = 1.1\nh = 0\nbond_Delta = 0.3, -0.8, 1.1, 0.5\n"
    "[bath_L]\nkind = spin\nbeta = 1\nh = 0.7\ngamma = 1\n"
    "[bath_R]\nkind = spin\nbeta = 2\nh = -0.4\ngamma = 0.8\n"
    "[inversion]\nkind = flip_f\n"
)
XXZ4 = (
    "[model]\nkind = xxz\nn = 4\nalpha = 0.9\nh = 0.2\nbond_Delta = 0.4, -0.6, 1.2\n"
    "[bath_L]\nkind = spin\nbeta = 0.8\nh = 1.1\ngamma = 1.2\n"
    "[bath_R]\nkind = spin\nbeta = 1.5\nh = -0.3\ngamma = 0.7\n"
)

# name -> (arguments, INI overlay passed as --config, or None)
CASES: dict[str, tuple[list[str], str | None]] = {
    **{f"steady_{p}": (["steady", "--preset", p], BETA_H_L) for p in FIGURES},
    **{f"steady_{p}": (["steady", "--preset", p], None) for p in ISING},
    **{f"sweep_{p}": (["sweep", "--preset", p], BETA_L if p in ("fig1", "fig2", "fig3") else None)
       for p in FIGURES},
    "ri_converge_ising_boson_n2": (["ri-converge", "--preset", "ising_boson_n2"], None),
    "check_one_way_eq16_kappa_swap": (
        ["check-one-way", "--preset", "eq16"],
        "[inversion]\nkind = kappa_swap\nkappa_L = 2\nkappa_R = 0.5\n",
    ),
    "steady_json_ising_boson_n2": (["steady", "--preset", "ising_boson_n2", "--format", "json"],
                                   None),
    "sweep_json_eq16": (["sweep", "--preset", "eq16", "--format", "json"], None),
    "check_one_way_json_eq16_flip_f": (
        ["check-one-way", "--preset", "eq16", "--format", "json"], "[inversion]\nkind = flip_f\n",
    ),
    "ri_converge_json_eq16": (["ri-converge", "--preset", "eq16", "--format", "json"], BETA_H_L),
    # chains whose kernel is one faithful state, so that the solve factors
    # only the block of the populations
    "check_one_way_json_xxz5_flip_f": (["check-one-way", "--format", "json"], XXZ5_FLIP_F),
    "steady_xxz4": (["steady"], XXZ4),
}


def run_case(name: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one case run in process."""
    argv, overlay = CASES[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if overlay is not None:
            config = Path(tmp) / "overlay.ini"
            config.write_text(overlay)
            argv += ["--config", str(config)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def columns(text: str) -> dict[str, list]:
    """The values of each column of an output, in order.

    Columns are the keys of a JSON record (or of each record of a list), the
    header of a CSV table, or the names of ``name = value`` lines.
    """
    text = text.strip()
    out: dict[str, list] = {}
    if not text:
        return out
    if text[0] in "[{":
        records = json.loads(text)
        for record in [records] if isinstance(records, dict) else records:
            for name, value in record.items():
                out.setdefault(name, []).append(value)
        return out
    lines = text.splitlines()
    if " = " in lines[0]:
        for line in lines:
            name, _, value = line.rpartition(" = ")
            out.setdefault(name, []).append(value)
        return out
    header, *rows = csv.reader(lines)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _number(value) -> float | None:
    """A value as a float, or None for a string that is no number, a flag or nothing."""
    if value is None or isinstance(value, bool):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _integral(value) -> bool:
    """Whether a value is written as an integer: a count, not a measured number."""
    if isinstance(value, str):
        return value.lstrip("-").isdigit()
    return isinstance(value, int) and not isinstance(value, bool)


def changes(old: str, new: str) -> dict[str, str]:
    """Per column that differs between two outputs: its largest change, or ``changed``.

    A column is ``changed`` when a value that is no number changes, when an
    integer changes into another integer, or when the values do not pair up.
    """
    before, after = columns(old), columns(new)
    out = {}
    for name in dict.fromkeys([*before, *after]):
        a, b = before.get(name), after.get(name)
        if a == b:
            continue
        if a is None or b is None or len(a) != len(b):
            out[name] = "changed"
            continue
        largest = 0.0
        for x, y in zip(a, b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None or _integral(x) and _integral(y):
                largest = math.nan
                break
            largest = max(largest, abs(fx - fy))
        out[name] = f"{largest:.2g}" if math.isfinite(largest) else "changed"
    return out


def report(label: str, old: str, new: str) -> None:
    """Print the largest change per column of one output."""
    for name, change in changes(old, new).items():
        print(f"{label}\t{name}\t{change}")


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    kept = json.loads(OUTCOMES.read_text()) if names and OUTCOMES.exists() else {}
    committed = json.loads(OUTCOMES.read_text()) if OUTCOMES.exists() else {}
    print("file\tcolumn\tlargest change")
    for name in names or CASES:
        code, out, err = run_case(name)
        path = HERE / f"{name}.out"
        report(path.name, path.read_text() if path.exists() else "", out)
        before = committed.get(name, {"exit": None, "stderr": ""})
        report(f"{name} stderr", before["stderr"], err)
        if before["exit"] != code:
            print(f"{name}\texit\tchanged")
        path.write_text(out, newline="")
        kept[name] = {"exit": code, "stderr": err}
    outcomes = {name: kept[name] for name in CASES if name in kept}  # in the order of CASES
    OUTCOMES.write_text(json.dumps(outcomes, indent=2) + "\n")
    print(f"wrote {len(names or CASES)} case(s) to {HERE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
