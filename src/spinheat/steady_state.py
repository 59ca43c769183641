"""Steady-state extraction from the Liouvillian kernel.

The steady manifold is the numerical null space of the vectorized
generator.  Conserved quantities (the magnetization of xxz chains, the
never-flipped middle spins of ising chains) make the generator block
diagonal in the basis ``|i><j|``, so every factorization here runs on the
connected components of its nonzero entries, one block at a time.  A
Lindblad generator preserves Hermiticity, ``L(rho^dag) = L(rho)^dag``: with
``flip: |i><j| -> |j><i|`` the components come in adjoint pairs ``c``,
``flip[c]`` with conjugate blocks, and one LU per pair solves both; a block
that is its own adjoint is real in a Hermitian basis (below).  The entries
are checked for that symmetry first (else ValueError) and gathered size by
size; the blocks of one size go through one stacked LAPACK call.  The
norms, the finiteness check and the residual come from the same entries, so
no ``d^2 x d^2`` matrix is formed here.

Everything that depends on the entry pattern alone (each entry's mirror,
the components, where each entry goes in the stacks, the border rows, the
probe right-hand sides and the stacks themselves) is a plan, built once per
pattern: the points of a sweep and the two chains of a one-way check share
one pattern and only refill the stacks (analyse once, factor many, as in
sparse direct solvers).  Each thread keeps the plans of its
``lindblad.KEPT_PATTERNS`` most recent patterns, each on the read-only index
arrays of its first generator, so chains that come back to a pattern reuse
its plan too; only the latest plan keeps its stacks.  A plan takes 0.7 MiB
for an xxz chain of 5 sites and 7.4 MiB for one of 6, of which the real
stack of the traced block (see below) takes 0.48 and 6.5 MiB.  ``ri`` solves
its collision generators on a plan that is dropped on return, so a
collision fixed point keeps nothing.

Every block is solved by a trace-constrained ("bordered") LU, the direct
method of QuTiP's ``steadystate`` (Johansson, Nation and Nori, CPC 184, 1234
(2013)) taken block by block: in each block that holds diagonal entries
``|i><i|``, whose trace the generator preserves, one row gives way to that
trace.  When each such block holds one stationary state and no other block
any, the solutions span the kernel, one state per block; there are several
for ising chains whose middle spins are never flipped (Buča and Prosen, NJP
14, 073007 (2012)).  The result is accepted only when every LU is regular, a
probe estimate of the condition number is small, the state is stationary to
the kernel tolerance and it is positive.

A block that is its own adjoint, as the traced block always is, is real in
the basis ``|i><i|``, ``(|i><j| + |j><i|) / sqrt 2``, ``i (|i><j| - |j><i|)
/ sqrt 2``: a generator that preserves Hermiticity maps Hermitian matrices
to Hermitian matrices, whose coordinates there are real (Alicki and Lendi,
*Quantum Dynamical Semigroups and Applications* (1987)).  So such a block
is factored by one real LU of ``T^dag B T``, a quarter of the flops of the
complex one, with the unitary ``T`` of ``_bordered``.  A size that also
holds an adjoint pair keeps one complex LU for all its blocks, so that each
size stays one LAPACK call: ising chains, whose blocks of 4 mix both kinds,
factor as before, and an xxz chain of 5 sites factors its traced block of
252 as a real matrix.  So does a size whose real matrix would take more
terms to fill than it has entries: the dense blocks of a collision
generator, solved once each, where making that fill costs more than the
real LU saves.

Most blocks of a chain with a unique, full-rank (faithful) steady state
hold coherences only, and the LU of such a block would only show that its
part of the state is 0.  When one block holds every ``|i><i|`` (the
traced block) and another misses some column ``j`` of ``|i><j|``, that
follows from the pattern: the fixed points of the dual generator form a
*-algebra when a faithful state is stationary (Frigerio, Commun. Math.
Phys. 63, 269 (1978); Spohn, Lett. Math. Phys. 2, 33 (1977)), so such a
block holds none (``_bordered`` has the argument).  So the traced block is
factored first, with the blocks no certificate covers; if its state passes
every check and its smallest eigenvalue clears the error the probe
estimate allows, the certified blocks are never factored, and their stacks
never made.  Otherwise they are factored and checked as the others: an xxz
chain of 5 sites factors its block of 252 alone, a pure steady state all
six of its sectors.

Anything else (a stationary coherence, two stationary states in one block,
an ill-conditioned kernel) falls back to an SVD of each block of the
generator, one per adjoint pair (the mirror's factors are the conjugates of
its representative's), with the singular values pooled so that the kernel
threshold and the gap rule are those of the whole matrix.  Both paths
return the same canonical representative of a degenerate kernel: the
projection of the maximally mixed state onto the kernel, hermitized and
trace-normalized.  That choice is basis-independent and reproducible, and
for the models here every physical current of interest is independent of
the kernel mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import KERNEL_TOL, KernelError, components, hermitize, svd_kernel
from .lindblad import Liouvillian, _Recent, build_liouvillian, unvec, vec
from .models import BathSpec, ChainSpec, bath_f

# A kernel is only trusted when the first excluded singular value sits at
# least this factor above the largest included one.
GAP_FACTOR = 100.0

# Loosest acceptable negativity of the returned state's spectrum.
MIN_EIG_FLOOR = -1e-9

# Residual bound, relative to the generator's spectral norm.
RESIDUAL_FACTOR = 1e-8

# Seed of the random right-hand sides that probe the bordered system's
# condition number.  A fixed seed, drawn once per plan, keeps results
# independent of call order and thread scheduling.
PROBE_SEED = 20130
PROBES = 2

# Largest |L[r, c] - conj L[flip r, flip c]| / max |L| accepted: one LU serves an adjoint pair.
HERMITICITY_BOUND = 1e-14

# The entries of the unitary T of a real block's basis change (see _bordered).
_ROOT_HALF = math.sqrt(0.5)
_ROOT_TWO = math.sqrt(2.0)

_plans = _Recent()


@dataclass(frozen=True)
class SteadyState:
    """A stationary density matrix together with solver diagnostics."""

    rho: np.ndarray
    residual: float
    nullspace_dim: int
    min_eig: float
    solver: str  # "bordered" or "svd"; "collision" for the fixed point of ri's cycle map
    largest_block: int  # size of the largest block of the generator


def _representative(basis: np.ndarray, dim: int) -> np.ndarray:
    """Project vec(identity / dim) onto the kernel and normalize to a state."""
    target = vec(np.eye(dim, dtype=complex) / dim)
    w = basis @ (basis.conj().T @ target)
    if np.linalg.norm(w) <= 1e-12:
        raise KernelError(
            "the kernel holds no positive-trace element; no density matrix is stationary"
        )
    rho = hermitize(unvec(w, dim))
    tr = float(np.trace(rho).real)
    if abs(tr) <= 1e-12:
        raise KernelError("stationary subspace is traceless; cannot normalize a state")
    return rho / tr


@dataclass
class _Group:
    """Kept blocks of one size, all certified or none: their gather, border rows and stack.

    The kept blocks are those that are their own adjoint and the first of
    each adjoint pair (``paired``), whose mirror ``flip[c]`` has the
    conjugate block.  ``stack[i]`` is the matrix of the block ``c =
    idx[i]``: ``L[c][:, c]``, complex, once the entries ``values[sel]`` are
    scattered to its flat places ``pos``, or, when no block of the group is
    paired and the blocks are not dense (``real``, see ``_Plan``), ``T^dag
    L[c][:, c] T``, real (see ``_bordered``), once ``fill`` has scattered
    the entries' real and imaginary parts.  In the
    real coordinates a diagonal entry ``|i><i|`` keeps its place, a
    representative ``r < flip[r]`` holds ``a_r`` and its mirror ``b_r``;
    ``back`` maps them to ``x``.  Row ``first[j]`` of block ``held[j]`` is
    the one the trace replaces; ``traced[j]`` marks that block's diagonal
    entries.  ``rhs`` holds ``e`` and the probes on the rows of ``idx``, in
    the stack's field.  ``certified`` marks blocks that hold no stationary
    element when the state is faithful (see ``_bordered``); ``stack`` is
    made by the first gather that needs it.
    """

    idx: np.ndarray
    paired: np.ndarray
    real: bool
    held: np.ndarray
    first: np.ndarray
    traced: np.ndarray
    rhs: np.ndarray
    certified: bool
    sel: np.ndarray | None = None
    pos: np.ndarray | None = None
    fill: tuple | None = None
    back: tuple | None = None
    stack: np.ndarray | None = None


def _certified(dim: int, idx: np.ndarray) -> np.ndarray:
    """Which blocks ``idx[k]`` miss a column ``j`` of their entries ``|i><j|``."""
    count, size = idx.shape
    if size < dim:
        return np.ones(count, dtype=bool)
    seen = np.zeros((count, dim), dtype=bool)
    seen[np.arange(count)[:, None], idx // dim] = True  # column-stacked: r = i + dim j
    return ~seen.all(axis=1)


# Weight of the real or imaginary part of L[p, q] in T^dag L T, per term (rows a_p, a_p, b_p,
# b_p; columns a_q, b_q, a_q, b_q), whether p is a representative, and whether q is a
# diagonal entry, a representative or a mirror; 0 where the term does not exist
_WEIGHTS = np.array([
    [[1.0, _ROOT_HALF, _ROOT_HALF], [_ROOT_TWO, 1.0, 1.0]],
    [[0.0, -_ROOT_HALF, _ROOT_HALF], [0.0, -1.0, 1.0]],
    [[0.0, 0.0, 0.0], [_ROOT_TWO, 1.0, 1.0]],
    [[0.0, 0.0, 0.0], [0.0, 1.0, -1.0]],
])

# x = T y: x_p = alpha y[lo] + i beta y[hi], per kind of p (diagonal, representative, mirror)
_ALPHA = np.array([1.0, _ROOT_HALF, _ROOT_HALF])
_BETA = np.array([0.0, _ROOT_HALF, -_ROOT_HALF])


def _real_fill(sel: np.ndarray, rows: np.ndarray, cols: np.ndarray, flip: np.ndarray,
               kind: np.ndarray, start: np.ndarray, place: np.ndarray) -> tuple:
    """The ``fill`` of a real group from its entries ``sel``, those on the rows of its diagonal
    entries and representatives.

    Entry ``L[p, q] = u + i v`` adds ``w u`` or ``w v`` to up to four
    entries of ``T^dag L T`` (``_WEIGHTS``): row ``a_p`` and, for a
    representative ``p``, ``b_p`` at the place of its mirror; column ``a_q``
    and, unless ``q`` is diagonal, ``b_q``.  A mirror's row is the conjugate
    of its representative's and is not read.  Each target takes at most one
    term from a column ``q`` that is no mirror and one from a mirror, so the
    fill zeroes the second kind's targets, assigns the first and adds the
    second.
    """
    p, q = rows[sel], cols[sel]
    fp, fq, at = flip[p], flip[q], kind[q]
    a, b = place[np.minimum(q, fq)], place[np.maximum(q, fq)]
    target = np.stack([start[p] + a, start[p] + b, start[fp] + a, start[fp] + b])
    weight = _WEIGHTS[:, kind[p], at]
    part = 2 * sel + np.array([[0], [1], [1], [0]])  # u, v of entry e: parts[2 e], parts[2 e + 1]
    used = weight != 0.0
    mirrored = used & (at == 2)
    assigned = used & (at != 2)
    return tuple((target[m], part[m], weight[m]) for m in (assigned, mirrored))


class _Plan:
    """Everything a solve takes from the entry pattern ``(dim, rows, cols)`` alone.

    That is each entry's mirror (the entry at ``(flip r, flip c)``, ``at``;
    ``lone`` where it is zero), the ``components``, and per size of them a
    ``_Group``, real when none of its blocks is paired and its real fill
    writes no more terms than its stack holds.  A plan is built
    once per pattern; each solve then only fills its stacks with new
    values.  The gather writes the same places each time and the bordered
    solve only the border rows, so every other entry of a stack stays zero.
    When exactly one block holds diagonal entries (it then holds all of
    them), each group splits into the blocks that miss no column and the
    others, which are ``certified`` (``_certified``): ``factored`` lists the
    groups factored on every solve, ``deferred`` the certified ones,
    ``solved`` the rows of ``factored`` and ``solved_norms`` the probes'
    norms on them.  ``group``, ``start`` and ``place`` locate each index in
    the blocks of its group, for the gathers and the SVD path (``blocks``).
    """

    def __init__(self, dim: int, rows: np.ndarray, cols: np.ndarray):
        n = dim * dim
        self.dim, self.rows, self.cols = dim, rows, cols
        self.flip = flip = np.arange(n).reshape(dim, -1).ravel(order="F")  # |i><j| -> |j><i|
        key, mirror = rows * n + cols, flip[rows] * n + flip[cols]  # key ascends
        self.at = np.searchsorted(key, mirror) % max(key.size, 1)
        self.lone = lone = key[self.at] != mirror  # entries whose mirror is zero
        del key, mirror
        edges = rows, cols
        if lone.any():  # their mirrors join the graph, so that flip maps components onto components
            edges = np.append(rows, flip[rows[lone]]), np.append(cols, flip[cols[lone]])
        blocks = components(*edges, n)
        del edges
        self.largest = blocks[-1].shape[1]
        traces = np.zeros(n, dtype=bool)
        traces[::dim + 1] = True  # the diagonal entries |i><i|
        self.place = np.zeros(n, dtype=np.intp)  # place in its block
        kept = []  # per size: the kept blocks, their paired flags, which of them hold a trace
        for idx in blocks:
            first = idx[:, 0]
            mate = flip[idx].min(axis=1)  # smallest index of the mirror component, of the same size
            own = idx[mate >= first]  # its own adjoint, or first of its pair
            kept.append((own, mate[mate >= first] > own[:, 0], traces[own].any(axis=1)))
            self.place[idx] = np.arange(idx.shape[1])
        parts = [(*part, False) for part in kept]  # per size: blocks, paired, held, certified
        if sum(int(held.sum()) for *_, held in kept) == 1:  # one traced block, holding every |i><i|
            parts = []
            for own, paired, held in kept:  # a size splits into factored and certified blocks
                certified = ~held & _certified(dim, own)
                parts += [(own[c], paired[c], held[c], flag)
                          for c, flag in ((~certified, False), (certified, True)) if c.any()]
        self.start = np.zeros(n, dtype=np.intp)  # flat offset of the index's row in its stack
        self.group = np.full(n, len(parts))  # group of a gathered index; past the last if none
        for g, (idx, *_) in enumerate(parts):
            count, size = idx.shape
            self.start[idx] = (np.arange(count)[:, None] * size + np.arange(size)) * size
            self.group[idx] = g
        index = np.arange(n)
        kind = (index < flip) + 2 * (index > flip)  # 0 |i><i|, 1 representative, 2 mirror
        # a group is real when none of its blocks is paired and its real fill writes no more terms
        # than its stack holds: a dense block (a collision generator's) keeps the complex gather,
        # which costs less to plan than the real LU saves
        reals = [not paired.any() for _, paired, *_ in parts]
        if any(reals):  # an entry writes on row a_p and, for a representative p, on b_p (a
            # mirror's row is not read): two terms on each, one if q is |i><i|
            area = [idx.size * idx.shape[1] for idx, *_ in parts]
            rows_written = np.array([1, 2, 0])[kind]
            least = np.bincount(self.group, rows_written * np.diff(np.searchsorted(
                rows, np.arange(n + 1))), len(parts) + 1)  # one term per entry and row written
            terms = 2 * least
            if any(real and least[g] <= area[g] < terms[g] for g, real in enumerate(reals)):
                p = rows[traces[cols]]  # the entries in a column |i><i|
                terms -= np.bincount(self.group[p], rows_written[p], len(parts) + 1)
            reals = [real and terms[g] <= area[g] for g, real in enumerate(reals)]
        self.replaced = np.zeros(n, dtype=bool)  # the rows of L that B replaces by traces
        self.groups, self.kernel = [], []  # kernel: per group, the index rows of its traced blocks
        # one draw for every probe: a real normal per row of a real group, two per row of a
        # complex one; a mirror block is never solved and takes none
        probes = np.random.default_rng(PROBE_SEED).standard_normal(
            PROBES * sum(part[0].size * (1 if real else 2) for part, real in zip(parts, reals)))
        drawn = 0
        for (idx, paired, held, certified), real in zip(parts, reals):
            count, size = idx.shape
            rhs = np.zeros((count, size, 1 + PROBES), dtype=float if real else complex)
            for part in (rhs.real,) if real else (rhs.real, rhs.imag):
                part[..., 1:] = probes[drawn:drawn + idx.size * PROBES].reshape(count, size, PROBES)
                drawn += idx.size * PROBES
            held = held.nonzero()[0]
            traced = traces[idx[held]]
            first = traced.argmax(axis=1)  # place of each block's first diagonal entry
            rhs[held, first, 0] = 1.0
            self.replaced[idx[held, first]] = True
            if held.size:
                self.kernel.append(idx[held])
            self.groups.append(_Group(idx=idx, paired=paired, real=real, held=held, first=first,
                                      traced=traced, rhs=rhs, certified=certified))
        entry_group = self.group[rows]
        if any(reals):  # a real group reads no mirror's row
            real = np.array(reals + [False])[self.group] & (kind == 2)
            entry_group[real[rows]] = len(parts)
            shift = self.place[flip] - self.place  # from an index of a real block to its mirror
        for k, g in enumerate(self.groups):
            sel = np.flatnonzero(entry_group == k)
            if not g.real:
                g.sel, g.pos = sel, self.start[rows[sel]] + self.place[cols[sel]]
                continue
            g.fill = _real_fill(sel, rows, cols, flip, kind, self.start, self.place)
            here = np.arange(g.idx.size).reshape(g.idx.shape)
            there, at = here + shift[g.idx], kind[g.idx]
            g.back = (np.where(at == 2, there, here).ravel(),
                      np.where(at == 1, there, here).ravel(),
                      _ALPHA[at].reshape(-1, 1), _BETA[at].reshape(-1, 1))
        self.factored = [g for g in self.groups if not g.certified]
        self.deferred = [g for g in self.groups if g.certified]
        self.probe_norms = np.linalg.norm(probes.reshape(-1, PROBES), axis=0)  # all drawn
        if self.deferred:
            self.solved = np.concatenate([g.idx.ravel() for g in self.factored])
            self.solved_norms = _probe_norms(self.factored)

    def gather(self, values: np.ndarray, groups: list[_Group]) -> None:
        """Scatter the entries' ``values`` into the stacks of ``groups``.

        A stack that is not there yet is made first.
        """
        parts = np.ascontiguousarray(values, dtype=complex).view(np.float64)  # re, im, re, ...
        for g in groups:
            count, size = g.idx.shape
            if g.stack is None:
                g.stack = np.zeros((count, size, size), dtype=float if g.real else complex)
            flat = g.stack.reshape(-1)
            if g.real:
                (t, s, w), (u, r, v) = g.fill
                flat[u] = 0.0
                flat[t] = w * parts[s]
                flat[u] += v * parts[r]
            else:
                flat[g.pos] = values[g.sel]

    def blocks(self, values: np.ndarray, k: int) -> np.ndarray:
        """The blocks ``L[c][:, c]`` of group ``k`` for its rows ``c``, gathered afresh."""
        count, size = self.groups[k].idx.shape
        sel = np.flatnonzero(self.group[self.rows] == k)
        out = np.zeros((count, size, size), dtype=complex)
        out.reshape(-1)[self.start[self.rows[sel]] + self.place[self.cols[sel]]] = values[sel]
        return out

    def fits(self, liou: Liouvillian) -> bool:
        """Whether ``liou`` has this plan's entry pattern."""
        return (liou.dim == self.dim and np.array_equal(liou.rows, self.rows)
                and np.array_equal(liou.cols, self.cols))


def _probe_norms(groups: list[_Group]) -> np.ndarray:
    """The 2-norms of the probe right-hand sides of ``groups``, one per probe."""
    return np.sqrt(sum((np.abs(g.rhs[..., 1:]) ** 2).sum(axis=(0, 1)) for g in groups))


def _factor(plan: _Plan, values: np.ndarray, groups: list[_Group], x: np.ndarray) -> bool:
    """Bordered LUs of ``groups`` on ``values`` into the rows of ``x``; False if one is singular.

    A real stack solves ``T^dag B T y = T^dag e`` and writes ``x = T y``.
    The stacks stay with the plan: a kept plan refills them on its next solve.
    """
    plan.gather(values, groups)
    for g in groups:
        g.stack[g.held, g.first] = g.traced
        try:
            y = np.linalg.solve(g.stack, g.rhs)
        except np.linalg.LinAlgError:  # exactly singular LU
            return False
        if g.real:  # x_d = a_d, x_r = (a_r + i b_r) / sqrt 2, x_flip(r) = (a_r - i b_r) / sqrt 2
            lo, hi, alpha, beta = g.back
            y = y.reshape(-1, y.shape[-1])
            y = (y[lo] * alpha + 1j * (y[hi] * beta)).reshape(*g.idx.shape, -1)
        x[g.idx] = y
    return True


def _condition(x: np.ndarray, probe_norms: np.ndarray, column_sums: np.ndarray) -> float:
    """``||B||_1 max ||B^-1 r|| / ||r||`` from the probe solutions ``x`` and ``B``'s column sums."""
    with np.errstate(over="ignore", invalid="ignore"):  # near-singular LU: inf/nan, refused later
        growth = np.linalg.norm(x, axis=0) / probe_norms
    return float(column_sums.max()) * float(growth.max())


def _accept(liou: Liouvillian, tol: float, plan: _Plan, x: np.ndarray, scale: float,
            cond: float) -> SteadyState | None:
    """The state of the bordered solutions ``x`` if it passes ``_bordered``'s checks, else None."""
    if not cond <= 1.0 / (GAP_FACTOR * tol):  # also refuses nan
        return None
    v = x[:, 0].copy()
    norms = [(np.abs(v[i]) ** 2).sum(axis=1) for i in plan.kernel]  # ||x_c||^2
    for i, norm in zip(plan.kernel, norms):
        v[i] *= (norms[0][0] / norm)[:, None]
    rho = hermitize(unvec(v, liou.dim))
    rho = rho / float(np.trace(rho).real)
    residual = float(np.linalg.norm(liou.apply(vec(rho))))
    if not residual <= tol * scale * float(np.linalg.norm(rho)):
        return None
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < MIN_EIG_FLOOR:
        return None
    return SteadyState(rho=rho, residual=residual, nullspace_dim=sum(map(len, norms)),
                       min_eig=min_eig, solver="bordered", largest_block=plan.largest)


def _bordered(liou: Liouvillian, tol: float, plan: _Plan) -> SteadyState | None:
    """Steady state from one bordered LU per block, or None when not trusted.

    In ``B``, each of the blocks (see ``components``) that holds diagonal
    entries has the row of its first one replaced by the block's trace, so
    ``B x = e`` (``e`` is 1 on those rows) fixes each such trace to 1 in
    place of one redundant stationarity equation.  The same LUs solve
    ``PROBES`` random right-hand sides ``r``; ``||B||_1 max ||B^-1 r|| /
    ||r||`` estimates the condition number of ``B`` from below and must stay
    under ``1 / (GAP_FACTOR tol)``, the analogue of the SVD path's gap rule,
    so a block with a second stationary state is refused.  The mirror of a
    paired block is implied and never touched: it holds no diagonal entry,
    so its part of the state is exactly 0, and its matrix ``conj(b)`` is
    conditioned exactly as ``b``, so it takes no probe.

    A block that is its own adjoint maps ``flip`` onto itself.  With its
    diagonal entries ``d`` and representatives ``r < flip[r]``, the unitary
    ``T`` takes the real coordinates ``(a_d; a_r; b_r)`` to ``x_d = a_d``,
    ``x_r = (a_r + i b_r) / sqrt 2`` and ``x_flip(r) = (a_r - i b_r) / sqrt
    2``; its columns are ``|i><i|``, ``(|i><j| + |j><i|) / sqrt 2`` and ``i
    (|i><j| - |j><i|) / sqrt 2``.  ``L[flip p, flip q] = conj L[p, q]`` makes
    ``T^dag L_c T`` real, and the trace row, 1 on the ``a_d`` columns, is
    real too, so ``B x = e`` is solved as ``(T^dag B T) y = e`` by one real
    LU, with ``x = T y``.  Its rows are read from the entries on the rows
    ``d`` and ``r`` alone, the mirrors' rows taken as their conjugates: it
    is ``T^dag B' T`` for the ``B'`` whose mirror rows are those conjugates,
    which differs from ``B`` by at most the Hermiticity defect the solve
    has bounded.  Its probes are real; as ``T`` is unitary, ``||y|| =
    ||x||`` and ``||T r|| = ||r||``, so each probe measures ``||B'^-1 T r||
    / ||T r||``, and the estimate bounds the condition number of ``B'``,
    which has the singular values of ``T^dag B' T``, from below as before.
    ``GAP_FACTOR``, that estimate and the margin below keep their meaning.

    The state is the projection of ``vec(I) / d`` onto the solutions
    ``x_c``, ``sum_c x_c / ||x_c||^2`` scaled to the first, which keeps a
    unique kernel's ``x_c`` as it is.  The residual ``||L vec rho|| /
    ||rho||_F`` must be at most ``tol`` times the largest column 2-norm of
    ``L``, a lower bound on its spectral norm, so this test is never looser
    than the SVD kernel threshold.

    The plan's certified groups (``deferred``) are factored only when the
    state solved without them cannot be shown faithful.  Why they may be
    left out: ``F = ker L^dag`` is block diagonal over the components, and
    when a faithful (full-rank) state is stationary, ``F`` is a *-algebra
    (Frigerio, Commun. Math. Phys. 63, 269 (1978); Spohn, Lett. Math. Phys.
    2, 33 (1977)).  With one traced block ``c0`` whose kernel is
    1-dimensional, ``F`` meets ``c0`` in ``C I`` alone (``I`` is in ``F``
    because ``L`` preserves the trace).  For ``X`` in ``F`` on a certified
    block, ``X^dag X`` is in ``F`` and its diagonal lies in ``c0``, so there
    it is a multiple of ``I``: every column of ``X`` has the same norm, and
    a column that the block misses makes ``X = 0``.  So ``ker L_c^dag`` is
    0, and with it ``ker L_c``, of the same dimension: ``x`` is 0 on ``c``,
    as its LU would find.  The premises are checked on the solve without
    the certified groups.  The probe estimate, over the rows solved, passes
    the gap rule (one stationary state in ``c0``); the residual and
    positivity checks pass; and ``min_eig`` exceeds ``GAP_FACTOR cond
    eps``.  ``cond eps`` bounds the LU's relative error in ``x``, and so the
    error in the 2-norm of ``rho``, whose Frobenius norm is at most 1; the
    estimate's slack gets the same allowance ``GAP_FACTOR`` as elsewhere.
    If a premise fails, the certified groups are factored too and every
    check runs on all the blocks, as without a certificate.
    """
    dim = liou.dim
    n = dim * dim
    x = np.zeros((n, 1 + PROBES), dtype=complex)  # a mirror block is never solved: its rows stay 0
    if not _factor(plan, liou.values, plan.factored, x):
        return None
    magnitude = np.abs(liou.values)
    scale = float(np.sqrt(np.bincount(liou.cols, magnitude ** 2, n).max()))
    magnitude[plan.replaced[liou.rows]] = 0.0
    column_sums = np.bincount(liou.cols, magnitude, n)
    column_sums[::dim + 1] += 1.0  # the traces' columns
    if plan.deferred:
        solved = plan.solved
        cond = _condition(x[solved, 1:], plan.solved_norms, column_sums[solved])
        state = _accept(liou, tol, plan, x, scale, cond)
        if state is not None and state.min_eig > GAP_FACTOR * cond * np.finfo(float).eps:
            return state
        if not _factor(plan, liou.values, plan.deferred, x):
            return None
    return _accept(liou, tol, plan, x, scale, _condition(x[:, 1:], plan.probe_norms, column_sums))


def _solve(liou: Liouvillian, tol: float, plan: _Plan) -> SteadyState:
    """The numeric pass of ``solve_steady`` over ``liou.values`` on the plan of its pattern.

    The SVD path gathers each block afresh, in the basis ``|i><j|``.
    """
    values = liou.values
    if not np.isfinite(values).all():
        raise ValueError("generator contains non-finite entries")
    defect = values[plan.at]  # L[r, c] - conj L[flip r, flip c], formed in place
    np.conjugate(defect, out=defect)
    defect[plan.lone] = 0.0
    np.subtract(values, defect, out=defect)
    if np.abs(defect).max(initial=0.0) > HERMITICITY_BOUND * np.abs(values).max(initial=0.0):
        raise ValueError("generator does not preserve Hermiticity")
    del defect
    state = _bordered(liou, tol, plan)
    if state is not None:
        return state
    factors = []
    for k, g in enumerate(plan.groups):  # one SVD per adjoint pair: a mirror's are the conjugates
        _, s, vh = np.linalg.svd(plan.blocks(values, k))
        factors.append((g.idx, s, vh))
        factors.append((plan.flip[g.idx[g.paired]], s[g.paired], vh[g.paired].conj()))
    basis, s = svd_kernel(factors, tol)
    k = basis.shape[1]
    if k < s.size:
        s_kernel = float(s[-k])  # singular values are sorted descending
        s_next = float(s[s.size - k - 1])
        if s_kernel > 0.0 and s_next < GAP_FACTOR * s_kernel:
            raise KernelError(
                f"ill-conditioned kernel: singular values {s_kernel:.3e} and {s_next:.3e} "
                f"are separated by less than a factor {GAP_FACTOR:g}"
            )
    rho = _representative(basis, liou.dim)
    residual = float(np.linalg.norm(liou.apply(vec(rho))))
    smax = float(s[0]) if s.size else 0.0
    if residual > RESIDUAL_FACTOR * max(smax, 1.0):
        raise KernelError(f"steady-state residual {residual:.3e} is too large")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < MIN_EIG_FLOOR:
        raise KernelError(f"steady state has a negative eigenvalue {min_eig:.3e}")
    return SteadyState(rho=rho, residual=residual, nullspace_dim=k, min_eig=min_eig,
                       solver="svd", largest_block=plan.largest)


def solve_steady(liou: Liouvillian, tol: float = KERNEL_TOL) -> SteadyState:
    """Steady state of a Liouvillian: bordered LUs, else SVDs, block by block.

    The generator's entries are split into their ``components``.  The
    bordered solve (see ``_bordered``) handles every kernel with one
    well-separated stationary state per traced block and reports
    ``solver = "bordered"``, with ``nullspace_dim`` the number of those
    blocks; a faithful state spares it the LUs of the blocks that hold no
    stationary element by their pattern, and a block that is its own adjoint
    takes a real LU where no adjoint pair shares its size and the blocks of
    that size are not dense.  When any of its checks fails, each block goes
    through an SVD instead (``solver = "svd"``).
    ``largest_block`` is the size of the largest block of the generator,
    factored or not.  The blocks, norms and residual all come from the generator's
    nonzero entries; a non-finite entry, or a broken Hermiticity, raises ValueError.

    The SVD path raises KernelError when the kernel is empty at ``tol``, when
    the split between kernel and non-kernel singular values is not clean
    (factor ``GAP_FACTOR``), or when the resulting state violates positivity
    or stationarity beyond solver-noise bounds.

    The work that depends on the entry pattern alone is a ``_Plan``; each
    thread keeps the plans of its ``KEPT_PATTERNS`` most recent patterns,
    each on the read-only index arrays of its first generator, and reuses one
    for a generator of an equal pattern.  Only the plan of the latest
    solve keeps its stacks; another one's are made again on its next hit.
    """
    plan = _plans.find(lambda kept: kept.fits(liou))
    if plan is None:
        plan = _plans.add(_Plan(liou.dim, liou.rows, liou.cols))
    for kept in _plans.entries[1:2]:  # the stacks of the plan before go before this one's are made
        for g in kept.groups:
            g.stack = None
    return _solve(liou, tol, plan)


def _solve_once(liou: Liouvillian, tol: float = KERNEL_TOL) -> SteadyState:
    """``solve_steady`` on a plan that nobody keeps, for ``ri``'s one-off generators.

    A collision generator can hold millions of entries; its plan, kept,
    would stay alive through the next engine build, and ``solve_steady``
    keeps the plans of the thread's chain solves.  The plan goes, with its
    stacks, on return.
    """
    return _solve(liou, tol, _Plan(liou.dim, liou.rows, liou.cols))


def steady_for(spec: ChainSpec, baths: Sequence[BathSpec], tol: float = KERNEL_TOL) -> SteadyState:
    """Build the Liouvillian of a driven chain and solve for its steady state.

    For xxz chains with hopping (``alpha != 0``), both couplings on and
    drivings strictly inside (-1, 1) the steady state is unique; a degenerate
    kernel there signals a numerical problem and raises instead of silently
    picking a mixture.  Hopping-free chains conserve their middle spins.
    """
    liou = build_liouvillian(spec, baths)
    state = solve_steady(liou, tol)
    if spec.kind == "xxz" and spec.alpha != 0:
        expect_unique = all(
            b.gamma > 0 and abs(bath_f(b)) < 1.0 for b in baths if b.kind == "spin"
        ) and len(baths) == 2
        if expect_unique and state.nullspace_dim != 1:
            raise KernelError(
                f"xxz steady state should be unique, found kernel dimension "
                f"{state.nullspace_dim}"
            )
    return state
