"""Correctness checks of the benchmark's outputs.

Each check takes what one item produced (parsed CSV rows, captured rows or
rates) and raises ``CheckFailed`` with a reason when a result is wrong.  The
runner counts every raised check as a failed item.
"""

from __future__ import annotations

import csv
import io
import math

from spinheat import energy_current_closed_form_3site

SWEEP_CLOSED_FORM_TOL = 1e-8    # fig4 F against energy_current_closed_form_3site
INVARIANCE_TOL = 1e-10          # check-one-way default tolerance
DEAD_WIRE_TOL = 1e-10           # ising heat/work values and vanishing rates
ORDER_RANGE = (0.8, 1.2)        # first-order convergence of the collision map

DEAD_WIRE_RATES = ("qdot_L", "qdot_R", "wdot_L", "wdot_R", "wdot_total", "F", "pi_ss", "J")


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _float(row: dict[str, str], key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, ValueError):
        raise CheckFailed(f"column {key!r} missing or not a number: {row.get(key)!r}") from None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _no_errors(rows: list[dict[str, str]]) -> None:
    for row in rows:
        _require(not row.get("error"), f"row at value {row.get('value')!r} has error {row['error']!r}")


def check_sweep(rows: list[dict[str, str]], meta: dict) -> None:
    """Every row solved; fig4 rows match the three-site closed form."""
    _require(len(rows) == meta["points"], f"expected {meta['points']} rows, got {len(rows)}")
    _no_errors(rows)
    if meta["model"] != "fig4":
        return
    for row in rows:
        h_l = _float(row, "value")
        expect = energy_current_closed_form_3site(meta["beta_L"], h_l, meta["beta_R"], meta["h_R"])
        got = _float(row, "F")
        _require(
            abs(got - expect) <= SWEEP_CLOSED_FORM_TOL,
            f"fig4 F at h_L={h_l!r} is {got!r}, closed form {expect!r}",
        )


def check_one_way(rows: list[dict[str, str]], currents: list[float]) -> None:
    """dF is within tolerance and J reversed sign.

    ``currents`` holds the magnetization currents of the base and the
    inverted solve, in that order.  The runner has already required exit
    code 0, which ``check-one-way`` returns only when |dF| <= 1e-10.
    """
    _require(len(rows) == 1, f"expected one deviation row, got {len(rows)}")
    d_f = _float(rows[0], "dF")
    _require(d_f <= INVARIANCE_TOL, f"|dF| = {d_f!r} above {INVARIANCE_TOL}")
    _require(len(currents) == 2, f"expected two solves, got {len(currents)}")
    j_base, j_inverted = currents
    _require(j_base * j_inverted < 0.0, f"J did not reverse: {j_base!r} -> {j_inverted!r}")


def check_dead_wire(rows: list[dict[str, str]], meta: dict) -> None:
    """Ising chain: the g^2 omega split for bosonic baths, nothing for spin baths."""
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    _no_errors(rows)
    row = rows[0]
    kernel = int(_float(row, "nullspace_dim"))
    expect_kernel = 2 ** (meta["n"] - 2)
    _require(kernel == expect_kernel, f"nullspace_dim {kernel}, expected {expect_kernel}")
    if meta["family"] == "bosonic":
        for side in "LR":
            b = meta["baths"][side]
            g2w = b["g"] ** 2 * b["omega"]
            q, w = _float(row, f"qdot_{side}"), _float(row, f"wdot_{side}")
            _require(abs(q + g2w) <= DEAD_WIRE_TOL, f"qdot_{side} = {q!r}, expected {-g2w!r}")
            _require(abs(w - g2w) <= DEAD_WIRE_TOL, f"wdot_{side} = {w!r}, expected {g2w!r}")
        f = _float(row, "F")
        _require(abs(f) <= DEAD_WIRE_TOL, f"F = {f!r}, expected 0")
    else:
        for key in DEAD_WIRE_RATES:
            v = _float(row, key)
            _require(abs(v) <= DEAD_WIRE_TOL, f"{key} = {v!r}, expected 0 with spin baths")


def check_ri_converge(rows: list[dict[str, str]], n_taus: int) -> None:
    """ri-converge produced one row per tau and a first-order fit."""
    _require(len(rows) == n_taus, f"expected {n_taus} rows, got {len(rows)}")
    order = _float(rows[0], "fitted_order")
    lo, hi = ORDER_RANGE
    _require(lo <= order <= hi, f"fitted order {order!r} outside [{lo}, {hi}]")


def check_ri_boson(rates: dict[str, float], meta: dict) -> None:
    """Bosonic collision heat within O(tau) of -g^2 omega on each side.

    The bound is ``tau * g^2 omega``: a first-order error with a unit
    constant, far above the observed deviations and far below any sign or
    factor error.
    """
    tau = meta["tau"]
    for side in "LR":
        b = meta["baths"][side]
        g2w = b["g"] ** 2 * b["omega"]
        q = rates[f"qdot_{side}"]
        _require(math.isfinite(q), f"collision qdot_{side} is {q!r}")
        _require(
            abs(q + g2w) <= tau * g2w,
            f"collision qdot_{side} = {q!r}, expected {-g2w!r} within {tau * g2w:.3e}",
        )
