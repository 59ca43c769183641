"""Where the heat/work split actually comes from.

The master equation is the tau -> 0 limit of a concrete protocol: every
cycle, the chain meets a fresh copy of each reservoir, interacts with it
for a time tau under a coupling scaled like 1/sqrt(tau), and the copy is
discarded.  The bath copy's energy change is heat; the cost of switching
the coupling on and off is work.  Nothing about this is a modeling choice
inside the master equation; it is extra physical structure the protocol
carries and the limit keeps.

This script solves for the cycle map's fixed point at a few cycle
durations, showing first-order convergence to the master-equation steady
state, and compares the per-cycle energy ledger with the stationary rates.
"""

from __future__ import annotations

import numpy as np

from spinheat import (
    BathSpec,
    ChainSpec,
    RIConfig,
    current_report,
    ri_fixed_point,
    ri_rates,
    steady_for,
    trace_distance,
)


def main() -> None:
    print(__doc__)
    spec = ChainSpec(kind="xxz", n=3, alpha=1.0, Delta=0.0, delta=1.0, h=0.0)
    baths = [
        BathSpec(side="L", beta=1.0, h=1.0, gamma=1.0),
        BathSpec(side="R", beta=2.0, h=-0.5, gamma=1.0),
    ]
    exact_state = steady_for(spec, baths)
    exact = current_report(spec, baths, exact_state)

    print(f"{'tau':>9} | {'distance to steady state':>25} | {'qdot_L':>10} {'qdot_R':>10} {'wdot':>10}")
    print("-" * 75)
    taus = [2e-2, 1e-2, 5e-3, 2.5e-3]
    dists = []
    for tau in taus:
        state, history = ri_fixed_point(spec, baths, RIConfig(tau=tau))
        rates = ri_rates(history, tau)
        d = trace_distance(state.rho, exact_state.rho)
        dists.append(d)
        print(f"{tau:9.4f} | {d:25.3e} | {rates['qdot_L']:10.6f} "
              f"{rates['qdot_R']:10.6f} {rates['wdot']:10.6f}")

    order = float(np.polyfit(np.log(taus), np.log(dists), 1)[0])
    print("-" * 75)
    print(f"{'exact':>9} | {'':>25} | {exact.qdot_L:10.6f} {exact.qdot_R:10.6f} "
          f"{exact.wdot_total:10.6f}")
    print(f"\nfitted convergence order in tau: {order:.3f} (first order, as the")
    print("coupling is scaled to reproduce the dissipator in the limit)")
    print("\nHalving tau halves the distance; the ledger rates converge to the")
    print("stationary heat and work currents computed directly from the")
    print("master-equation steady state.")


if __name__ == "__main__":
    main()
