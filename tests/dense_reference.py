"""Dense references for the block-wise kernels, the generator's action and the boundary rates.

``liouvillian_matrix`` writes the whole generator into one ``d^2 x d^2``
buffer, the way the package did before it kept only the nonzero entries.  The
tests hold the entry-wise builder and the block solve against it, through
``dense``, ``from_dense``, ``sparsity`` and ``blocks_of``.  ``dense_expm``
exponentiates a whole Hermitian matrix by one ``eigh``, the reference for the
component-wise ``herm_expm``.  ``from_jumps_reference`` is the fresh
entry-wise build as the package made it before it had one assembly: the Gram
of the used positions with ``h_eff`` written into it, ``np.nonzero`` and one
argsort, with ``sum_a L_a^dag L_a`` gathered one pattern row at a time.  It
shares no code with that assembly, and ``Liouvillian.from_jumps`` and
``build_liouvillian`` must return its bits.  ``mp_steady_state`` solves a
chain in 60-digit arithmetic, for states where the full SVD's own rounding
passes a bound.  ``kron_pauli_string`` is one Kronecker product of
single-site Paulis, and ``kron_hamiltonian`` and ``kron_bond_energy`` sum such
products, the way the package built Pauli strings and the chain terms before
it wrote them from the basis bits.
``rate_operators_matmul`` forms one bath's heat and work operators by products
of the embedded couplings, as ``currents`` did before it used their bit flip.

The package keeps one generator assembly (``lindblad._assemble``) and one rate
path (``currents._rate_operators``, read by ``current_report``); the rest are
independent references that only the tests call.  ``op_at`` embeds an operator
at one tensor factor by a ``kron_all`` product.  ``dissipator_action`` and
``lindblad_action`` apply the master equation as d x d matrix products, and
``energy_inflow`` is one side's ``Tr(H D_side(rho))`` from them, which must equal
that side's heat plus work (De Chiara et al., NJP 20, 113024 (2018)).
``heat_rate_xxz_closed`` and ``work_rate_xxz_closed`` are the boundary rates of
xxz chains with spin baths in closed form, from a few boundary expectations
(``_boundary_expectations``).  ``heat_work`` reads one bath's ``(qdot, wdot)``
off ``currents._rate_operators`` as ``current_report`` does.
"""

from __future__ import annotations

from typing import Sequence

import mpmath
import numpy as np

from spinheat import (
    BathSpec,
    ChainSpec,
    Liouvillian,
    bath_f,
    build_hamiltonian,
    jump_ops,
    kron_all,
    pauli,
    site_op,
    two_site_op,
)
from spinheat.bathops import CURRENT_MARGIN, CURRENT_TAIL, bath_copy
from spinheat.currents import _density, _rate_operators
from spinheat.linalg import expectation
from spinheat.lindblad import _check_sides


def liouvillian_matrix(h: np.ndarray, jumps: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Dense superoperator of ``-i[h, .] + sum_k D_k`` under column stacking.

    ``jumps`` is a list of ``d x d`` matrices or an ``(A, d, d)`` stack.  The
    matrix is written into one ``d^2 x d^2`` buffer through its ``(d, d, d, d)``
    view with axes ``[j, i, l, k]``, for row ``i + d j`` and column ``k + d l``.
    The jump term ``sum_k conj(L_k) kron L_k`` goes in one row slab ``[j]`` at
    a time, by a matmul into the slab.  The commutator and anticommutators
    fold into ``h_eff = h - (i/2) sum_k L_k^dag L_k``; the rest,
    ``-i (I kron h_eff) + i (conj(h_eff) kron I)``, goes on the two diagonal
    index views.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    stack = np.asarray(jumps, dtype=complex).reshape(-1, d, d)
    h_eff = h - 0.5j * np.einsum("aki,akj->ij", stack.conj(), stack)
    m = np.empty((d * d, d * d), dtype=complex)
    view = m.reshape(d, d, d, d)
    right = stack.transpose(1, 0, 2)  # [i, a, k] = L_a[i, k]
    for j in range(d):
        # view[j, i, l, k] = sum_a conj(L_a[j, l]) L_a[i, k]
        np.matmul(stack[:, j, :].conj().T, right, out=view[j])
    for r in range(d):
        view[r, :, r, :] -= 1j * h_eff
        view[:, r, :, r] += 1j * h_eff.conj()
    return m


def from_jumps_reference(h: np.ndarray, jumps: Sequence[np.ndarray] | np.ndarray) -> Liouvillian:
    """``Liouvillian.from_jumps`` with ``sum_a L_a^dag L_a`` summed by a loop over pattern rows."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    n = d * d
    stack = np.asarray(jumps, dtype=complex).reshape(-1, d, d)
    jumped = np.any(stack != 0, axis=0)
    used = jumped | (jumped.T @ jumped) | (h != 0) | np.eye(d, dtype=bool)
    pos = np.flatnonzero(used)
    row, col = np.divmod(pos, d)
    flat = stack.reshape(len(stack), n)
    if pos.size < n:
        flat = flat[:, pos]
    m = flat.T @ flat.conj()
    ldl = np.zeros((d, d), dtype=complex)
    bounds = np.searchsorted(row, np.arange(d + 1))
    for k in range(d):
        block = slice(bounds[k], bounds[k + 1])
        ldl[np.ix_(col[block], col[block])] += m[block, block].T
    h_eff = (h - 0.5j * ldl)[row, col]
    diagonal = row == col
    m[:, diagonal] -= 1j * h_eff[:, None]
    m[diagonal, :] += 1j * h_eff.conj()
    a, b = np.nonzero(m)
    values = m[a, b]
    rows, cols = row[a] + d * row[b], col[a] + d * col[b]
    order = np.argsort(rows * n + cols)
    return Liouvillian(rows[order], cols[order], values[order], d)


def mp_steady_state(spec: ChainSpec, baths: Sequence[BathSpec]) -> np.ndarray:
    """A chain's steady state in 60-digit arithmetic, rounded to complex128.

    ``h`` and the jumps are taken as exact, and each generator entry is
    written from their nonzeros by the entry formula of
    ``Liouvillian.from_jumps``, in mpmath.  The blocks are the connected
    components of the pattern ``kron(J, J) | kron(I, E) | kron(E, I)`` of the
    jumped positions ``J`` and of ``h_eff``'s possible nonzeros ``E``; only
    those that hold a diagonal entry ``|i><i|`` can carry trace.  Each such
    block's kernel comes from a Gauss-Jordan elimination with partial
    pivoting, whose pivots below ``1e-30`` of the block's largest entry
    count as zero.  The state is the projection of ``vec(I)`` onto the
    kernel, hermitized and trace-normalized, as ``solve_steady`` returns it.
    """
    h = build_hamiltonian(spec)
    d = spec.dim
    with mpmath.workdps(60):
        jumps = [{(i, k): mpmath.mpc(L[i, k]) for i, k in zip(*np.nonzero(L))}
                 for b in baths for L in jump_ops(b, spec.n)]
        h_eff = {(i, k): mpmath.mpc(h[i, k]) for i, k in zip(*np.nonzero(h))}
        half = mpmath.mpc(0, 0.5)
        for jump in jumps:  # h_eff = h - (i/2) sum_a L_a^dag L_a
            for (row, i), a in jump.items():
                for (other, k), b in jump.items():
                    if other == row:
                        h_eff[i, k] = h_eff.get((i, k), 0) - half * mpmath.conj(a) * b
        jumped, possible = np.zeros((d, d), dtype=bool), np.zeros((d, d), dtype=bool)
        for key in (key for jump in jumps for key in jump):
            jumped[key] = True
        for key in h_eff:
            possible[key] = True
        eye = np.eye(d, dtype=bool)
        linked = np.kron(jumped, jumped) | np.kron(eye, possible) | np.kron(possible, eye)
        linked |= linked.T

        def entry(r, c):  # L[i + d j, k + d l]
            (j, i), (l, k) = divmod(r, d), divmod(c, d)
            value = sum((jump.get((i, k), 0) * mpmath.conj(jump.get((j, l), 0)) for jump in jumps),
                        mpmath.mpc(0))
            if j == l:
                value -= 1j * h_eff.get((i, k), 0)
            if i == k:
                value += 1j * mpmath.conj(h_eff.get((j, l), 0))
            return value

        v = [mpmath.mpc(0)] * (d * d)
        seen = np.zeros(d * d, dtype=bool)
        for start in range(0, d * d, d + 1):
            if seen[start]:
                continue
            block, todo, seen[start] = [], [start], True
            while todo:
                r = todo.pop()
                block.append(r)
                for c in np.flatnonzero(linked[r] & ~seen):
                    seen[c] = True
                    todo.append(int(c))
            block.sort()
            kernel = _mp_kernel([[entry(r, c) if linked[r, c] else mpmath.mpc(0) for c in block]
                                 for r in block])
            target = [mpmath.mpc(1 if r % (d + 1) == 0 else 0) for r in block]
            for x in kernel:  # orthonormal: the projection is sum_x (x^dag t) x
                weight = mpmath.fsum(mpmath.conj(a) * t for a, t in zip(x, target))
                for place, a in zip(block, x):
                    v[place] += weight * a
        rho = np.array([[complex(v[i + d * j]) for j in range(d)] for i in range(d)])
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _mp_kernel(m: list[list]) -> list[list]:
    """An orthonormal basis of the kernel of the square mpmath matrix ``m`` (a list of rows)."""
    size = len(m)
    tiny = mpmath.mpf("1e-30") * max(abs(a) for row in m for a in row)
    rows, pivots = [row[:] for row in m], []
    for c in range(size):  # Gauss-Jordan: reduced row echelon form
        top = len(pivots)
        if top == size:
            break
        p = max(range(top, size), key=lambda i: abs(rows[i][c]))
        if abs(rows[p][c]) <= tiny:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        rows[top] = [a / rows[top][c] for a in rows[top]]
        for i in range(size):
            if i != top and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(size) if c not in pivots):
        x = [mpmath.mpc(0)] * size
        x[free] = mpmath.mpc(1)
        for row, c in enumerate(pivots):
            x[c] = -rows[row][free]
        for y in basis:  # Gram-Schmidt
            overlap = mpmath.fsum(mpmath.conj(b) * a for a, b in zip(x, y))
            x = [a - overlap * b for a, b in zip(x, y)]
        norm = mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in x))
        basis.append([a / norm for a in x])
    return basis


def dense(liou: Liouvillian) -> np.ndarray:
    """The ``dim^2 x dim^2`` matrix of a Liouvillian's entries."""
    size = liou.dim * liou.dim
    m = np.zeros((size, size), dtype=complex)
    m[liou.rows, liou.cols] = liou.values
    return m


def sparsity(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries of a complex matrix, row by row."""
    nz = np.ascontiguousarray(m, dtype=complex).view(np.float64) != 0
    return np.nonzero(nz[:, 0::2] | nz[:, 1::2])  # real or imaginary part


def from_dense(m: np.ndarray, dim: int) -> Liouvillian:
    """The Liouvillian holding the nonzero entries of a dense generator."""
    m = np.asarray(m, dtype=complex)
    rows, cols = sparsity(m)
    return Liouvillian(rows, cols, m[rows, cols], dim)


def blocks_of(m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Stack of the diagonal blocks ``m[c][:, c]`` for the rows ``c`` of ``idx``."""
    return m[idx[:, :, None], idx[:, None, :]]


def whole(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A square matrix as the one block of ``svd_kernel``'s ``(idx, s, vh)`` factors."""
    m = np.asarray(m)
    _, s, vh = np.linalg.svd(m[None])
    return np.arange(m.shape[0])[None, :], s, vh


def dense_expm(h: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i t h)`` of a Hermitian ``h`` by one ``eigh`` of the whole matrix, blocks or not."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(-1j * float(t) * w)) @ v.conj().T


def kron_pauli_string(terms: Sequence[tuple[str, int]], n: int) -> np.ndarray:
    """The Paulis ``(kind, 1-based site)`` on an ``n``-site chain as one ``kron_all`` product."""
    factors = [pauli("i")] * n
    for kind, site in terms:
        factors[site - 1] = pauli(kind)
    return kron_all(factors)


def _kron_bond(spec: ChainSpec, i: int, j: int, coupling: float) -> np.ndarray:
    """Bond ``(i, j)`` at coupling D: ``alpha (xx + yy) + D zz`` (xxz), ``(D/2) zz`` (ising)."""
    n = spec.n
    zz = kron_pauli_string([("z", i), ("z", j)], n)
    if spec.kind == "ising":
        return (coupling / 2.0) * zz
    hop = kron_pauli_string([("x", i), ("x", j)], n) + kron_pauli_string([("y", i), ("y", j)], n)
    return spec.alpha * hop + coupling * zz


def kron_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """The chain Hamiltonian as a sum of Kronecker products, bonds first, then fields."""
    h_mat = np.zeros((spec.dim, spec.dim), dtype=complex)
    for i, coupling in enumerate(spec.bond_couplings, start=1):
        h_mat += _kron_bond(spec, i, i + 1, coupling)
    if spec.Delta13 != 0.0:
        h_mat += _kron_bond(spec, 1, 3, spec.Delta13)
    for i, hi in enumerate(spec.site_fields, start=1):
        if hi != 0.0:
            h_mat += (hi / 2.0) * kron_pauli_string([("z", i)], spec.n)
    return h_mat


def kron_bond_energy(spec: ChainSpec, bond: int) -> np.ndarray:
    """The local energy of bond ``(bond, bond + 1)`` of an xxz chain as Kronecker products."""
    n, i = spec.n, bond
    eps = _kron_bond(spec, i, i + 1, spec.bond_couplings[i - 1])
    fields = spec.site_fields
    w_left = 1.0 if i == 1 else 0.5
    w_right = 1.0 if i + 1 == n else 0.5
    eps = eps + w_left * (fields[i - 1] / 2.0) * kron_pauli_string([("z", i)], n)
    eps = eps + w_right * (fields[i] / 2.0) * kron_pauli_string([("z", i + 1)], n)
    return eps


def rate_operators_matmul(spec: ChainSpec, bath: BathSpec,
                          h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``currents._rate_operators`` summed over coupling pairs by d x d matrix products."""
    copy = bath_copy(bath, tail=CURRENT_TAIL, margin=CURRENT_MARGIN)
    site = bath.boundary_site(spec.n)
    pairs = []  # per coupling: bath operator, chain operator s and its commutator [s, h]
    for b_op, kind in copy.couplings:
        s = kron_pauli_string([(kind, site)], spec.n)
        pairs.append((b_op, s, s @ h - h @ s))
    o_q = np.zeros_like(h)
    o_h = np.zeros_like(h)
    gap = copy.energies[:, None] - copy.energies[None, :]
    for b_k, s_k, c_k in pairs:
        for b_l, s_l, c_l in pairs:
            p_kl = copy.populations[:, None] * b_k * b_l.T
            o_q += 2.0 * np.sum(p_kl * gap) * (s_k @ s_l)
            o_h += np.sum(p_kl) * (s_k @ c_l - c_k @ s_l)  # the (k, l) term of [v, [v, h]]
    scale = 0.5 * copy.prefactor ** 2
    o_q *= scale
    return o_q, -o_q - scale * o_h


def op_at(op: np.ndarray, slot: int, dims: Sequence[int]) -> np.ndarray:
    """Embed ``op`` at factor ``slot`` (0-based) of a space with factor dims ``dims``."""
    op = np.asarray(op, dtype=complex)
    dims = [int(d) for d in dims]
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for {len(dims)} factors")
    if op.shape != (dims[slot], dims[slot]):
        raise ValueError(f"operator shape {op.shape} does not fit factor of dim {dims[slot]}")
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[slot] = op
    return kron_all(factors)


def dissipator_action(jumps: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Apply ``sum_k L rho L^dag - {L^dag L, rho} / 2`` for the given jumps."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for L in jumps:
        LdL = L.conj().T @ L
        out += L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def lindblad_action(spec: ChainSpec, baths: Sequence[BathSpec], rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation for the given chain and baths."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (spec.dim, spec.dim):
        raise ValueError(f"state shape {rho.shape} does not match a {spec.n}-site chain")
    _check_sides(baths)
    h = build_hamiltonian(spec)
    jumps = [L for b in baths for L in jump_ops(b, spec.n)]
    return -1j * (h @ rho - rho @ h) + dissipator_action(jumps, rho)


def heat_work(spec: ChainSpec, bath: BathSpec, state) -> tuple[float, float]:
    """One bath's ``(qdot, wdot)``, ``Tr(O_q rho)`` and ``Tr(O_w rho)``, as ``current_report``
    reads them."""
    rho = _density(state, spec)
    q, w = (expectation(op, rho) for op in _rate_operators(spec, bath, build_hamiltonian(spec)))
    return q, w


def energy_inflow(spec: ChainSpec, bath: BathSpec, state) -> float:
    """Energy current into the chain from one side, ``Tr(H_s D_side(rho))``.

    Needs only the reduced dynamics, so it works for f-only baths too.
    """
    d = dissipator_action(jump_ops(bath, spec.n), _density(state))
    return expectation(build_hamiltonian(spec), d)


def _boundary_expectations(spec: ChainSpec, bath: BathSpec, rho: np.ndarray):
    n = spec.n
    if bath.side == "L":
        edge, inner, bond = 1, 2, 0
    else:
        edge, inner, bond = n, n - 1, n - 2
    z_edge = expectation(site_op("z", edge, n), rho)
    z_inner = expectation(site_op("z", inner, n), rho)
    zz = expectation(two_site_op("z", edge, "z", inner, n), rho)
    hop = expectation(
        two_site_op("x", edge, "x", inner, n) + two_site_op("y", edge, "y", inner, n), rho
    )
    return z_edge, z_inner, zz, hop, spec.bond_couplings[bond]


def heat_rate_xxz_closed(spec: ChainSpec, bath: BathSpec, state) -> float:
    """Boundary heat rate ``2 gamma h_bath (f - <z_edge>)`` for spin baths on xxz."""
    if spec.kind != "xxz" or bath.kind != "spin":
        raise ValueError("closed form applies to xxz chains with spin baths")
    if not bath.decomposable:
        raise ValueError("heat rate needs the bath's (beta, h)")
    z_edge = expectation(site_op("z", bath.boundary_site(spec.n), spec.n), _density(state))
    return 2.0 * bath.gamma * bath.h * (bath_f(bath) - z_edge)


def work_rate_xxz_closed(spec: ChainSpec, bath: BathSpec, state) -> float:
    """Boundary work rate for spin baths on xxz chains, in closed form.

    Derived by evaluating the switching-work trace formula for the
    flip-flop coupling: a field mismatch term, minus the heat rate, plus
    boundary-bond terms.
    """
    if spec.kind != "xxz" or bath.kind != "spin":
        raise ValueError("closed form applies to xxz chains with spin baths")
    if not bath.decomposable:
        raise ValueError("work rate needs the bath's (beta, h)")
    rho = _density(state)
    f = bath_f(bath)
    gamma = bath.gamma
    z_edge, z_inner, zz, hop, coupling = _boundary_expectations(spec, bath, rho)
    h_site = spec.site_fields[bath.boundary_site(spec.n) - 1]
    out = 2.0 * h_site * gamma * (f - z_edge)
    out -= 2.0 * bath.h * gamma * (f - z_edge)
    out -= 2.0 * gamma * (spec.alpha * hop + coupling * zz)
    out -= 2.0 * gamma * coupling * zz
    out += 4.0 * gamma * coupling * f * z_inner
    return out
