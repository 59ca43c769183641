"""Steady states and boundary heat/work currents of driven spin chains.

A small dense-matrix toolkit for boundary-driven XXZ and quantum Ising
chains: build the Lindblad generator for spin or bosonic boundary baths,
solve for the nonequilibrium steady state, and split each boundary's
energy current into heat and work using the microscopic bath model that
the master equation came from. Includes a repeated-interaction (collision)
map whose fixed point converges to the same steady state and whose
per-cycle energy ledger converges to the same heat and work rates.
"""

from .bathops import BathCopy, TruncationError, bath_copy, bose_n_max
from .currents import (
    BoundaryRates,
    CurrentReport,
    classify_regime,
    closed_form_currents_3site,
    current_report,
    energy_current_closed_form_3site,
    entropy_production_rate,
    spin_current,
    von_neumann_entropy,
)
from .linalg import (
    DimensionLimitError,
    HermiticityError,
    KernelError,
    herm_expm,
    kron_all,
    trace_distance,
)
from .lindblad import (
    Liouvillian,
    bosonic_rates,
    build_liouvillian,
    jump_ops,
    unvec,
    vec,
)
from .models import (
    BathSpec,
    ChainSpec,
    bath_f,
    bath_n,
    bond_energy,
    build_hamiltonian,
    with_f,
)
from .operators import pauli, site_op, two_site_op
from .ri import CollisionEngine, CycleLog, RIConfig, ri_fixed_point, ri_rates
from .steady_state import SteadyState, solve_steady, steady_for

__version__ = "0.1.0"

__all__ = [
    "BathCopy", "BathSpec", "BoundaryRates", "ChainSpec", "CollisionEngine",
    "CurrentReport", "CycleLog", "DimensionLimitError", "HermiticityError",
    "KernelError", "Liouvillian", "RIConfig", "SteadyState", "TruncationError",
    "bath_copy", "bath_f", "bath_n", "bond_energy", "bose_n_max",
    "bosonic_rates", "build_hamiltonian", "build_liouvillian",
    "classify_regime", "closed_form_currents_3site", "current_report",
    "energy_current_closed_form_3site", "entropy_production_rate", "herm_expm",
    "jump_ops", "kron_all", "pauli", "ri_fixed_point", "ri_rates", "site_op",
    "solve_steady", "spin_current", "steady_for", "trace_distance", "two_site_op",
    "unvec", "vec", "von_neumann_entropy", "with_f",
]
