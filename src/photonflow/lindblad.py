"""Master-equation level: irreversible transfer between cavity modes.

Integrates

    drho/dt = -i [H, rho] + sum_k gamma_k (L_k rho L_k^+ - 1/2 {L_k^+ L_k, rho})

with jump operators such as a1 a2^+, which moves one photon from a
source mode to a target mode at a fixed rate.  Also provides the
closed-form long-time transfer map (pure index algebra, independent of
the propagator, so the two serve as mutual oracles) and a purity
predicate for the final state.

The generator S of the vectorized master equation does not depend on
time, so the state is propagated exactly: between samples h apart,
exp(h S) y = y + Phi_h (S y) with Phi_h = h phi_1(h S) = sum_k h^(k+1)
S^k / (k+1)!, folded back to Hermitian after each interval.  Phi_h is
built once for each interval length (the stride interval and a shorter
last one) and kept as its nonzeros, so a snapshot costs two sparse
products (Moler & Van Loan, SIAM Review 45, 3, 2003).  Its columns come
from a truncated Taylor series of the augmented generator [[S, I], [0,
0]] in ceil(h (||S||_1 + 1)) sub-steps (``_integrate.taylor_propagate``),
each column on its connected component of S's pattern alone.  A
stationary state, for which S y is exactly 0 (the dark state), comes back
with the same bits.  Only the reachable support of rho0 is propagated:
the entries that S can reach from the nonzeros of rho0 and of its
transpose.  The transfer dissipator keeps Fock states and their mixtures
diagonal, so that is a few dozen of the d^2 entries; every other entry
stays exactly 0 in the full propagation too, and the sub-steps still come
from the full ||S||_1, so the snapshots have the same bits.
The time step ``dt`` is only the sampling interval, by default
0.05 / (max_rate n_max^2) where n_max is the largest photon number the
space can hold.  Outputs are never renormalized; trace drift is measured
and reported instead.

The snapshots stay on that support, one (n_snap, s) array, and every
observable and invariant of all snapshots is taken from it at once with
elementwise products and sums, never BLAS.  The lowest eigenvalue is
taken block by block over the connected components of the support graph:
a 1x1 block is its diagonal entry, so LAPACK's ``eigvalsh`` runs only on
larger blocks (coherences, a Hamiltonian).  Full d x d matrices are built
only on demand (``EvolutionResult.states``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._integrate import (SparseGenerator, components, sample_steps, steps_for,
                         taylor_propagate)
from .errors import ConfigurationError, InvalidInput
from .fock import (
    DensityMatrix,
    ModeSpace,
    Operator,
    annihilation,
    creation,
)

__all__ = [
    "LindbladModel",
    "EvolutionResult",
    "PurificationReport",
    "transfer_jump",
    "interference_transfer_jump",
    "evolve",
    "state_fidelity",
    "asymptotic_transfer_map",
    "purification_predicate",
]


@dataclass(frozen=True)
class LindbladModel:
    """Jump operators with rates, plus an optional coherent part."""

    space: ModeSpace
    jumps: tuple
    hamiltonian: Optional[Operator] = None

    def __init__(self, space, jumps, hamiltonian=None):
        jumps = tuple((op, float(rate)) for op, rate in jumps)
        for op, rate in jumps:
            if rate <= 0:
                raise InvalidInput(f"jump rate must be positive, got {rate}")
            if op.space.mode_dims != space.mode_dims:
                raise InvalidInput("jump operator lives on a different space")
        if hamiltonian is not None and hamiltonian.space.mode_dims != space.mode_dims:
            raise InvalidInput("hamiltonian lives on a different space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "hamiltonian", hamiltonian)

    @property
    def max_rate(self) -> float:
        return max(rate for _, rate in self.jumps)


@dataclass
class EvolutionResult:
    """Snapshots of one evolution on its reachable support, and named observables.

    Snapshot j of the d x d density matrix is ``support[j]`` at the
    row-major flat indices ``entries`` (entry (r, c) at r d + c); every
    other entry is exactly 0.  The invariants of the snapshots are read
    from that array; ``states`` builds a snapshot as a full matrix when it
    is read, snapshot 0 being ``rho0`` itself.
    """

    times: np.ndarray
    rho0: DensityMatrix = field(repr=False)
    entries: np.ndarray = field(repr=False)  # sorted flat indices of the support
    support: np.ndarray = field(repr=False)  # (n_snap, entries.size)
    generator_products: int  # sparse products: the propagators' build and two per snapshot
    propagator_entries: int  # nonzeros of the interval propagators Phi_h

    @property
    def propagated_entries(self) -> int:
        return int(self.entries.size)

    @cached_property
    def observables(self) -> dict:
        """``trace``, ``purity`` and ``pop_mode<k>`` of each snapshot.

        The diagonal is spread over all d indices, so that the trace is
        summed in the order of ``np.trace``; tr(rho^2) = sum_ij rho_ij rho_ji.
        """
        space = self.rho0.space
        rows, cols, mirror = self._pairs
        on = rows == cols
        diag = np.zeros((self.times.size, space.total_dim), dtype=complex)
        diag[:, rows[on]] = self.support[:, on]
        obs = {
            "trace": np.real(np.sum(diag, axis=1)),
            "purity": np.real(np.sum(self.support * self.support[:, mirror], axis=1)),
        }
        occupations = np.indices(space.mode_dims).reshape(space.n_modes, space.total_dim)
        for k, n_k in enumerate(occupations):
            obs[f"pop_mode{k + 1}"] = np.sum(diag.real * n_k, axis=1)
        return obs

    @property
    def trace_drift(self) -> float:
        return float(abs(self.observables["trace"][-1] - np.real(self.rho0.trace())))

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and mirror position (of entry (c, r)) of each support entry."""
        d = self.rho0.space.total_dim
        rows, cols = np.divmod(self.entries, d)
        return rows, cols, np.searchsorted(self.entries, cols * d + rows)

    @cached_property
    def blocks(self) -> tuple:
        """Index sets of the connected components of the support graph, where
        entry (r, c) joins r and c, by smallest index.  An index that no
        entry covers is in none."""
        rows, cols, _ = self._pairs
        label = components(self.rho0.space.total_dim, rows, cols)
        covered = np.zeros(label.size, dtype=bool)
        covered[rows] = True
        # each component is labelled by its smallest index
        roots = np.flatnonzero(covered & (label == np.arange(label.size)))
        return tuple(np.flatnonzero(covered & (label == r)) for r in roots)

    def hermiticity_defects(self) -> np.ndarray:
        """max |rho - rho^+| of each snapshot."""
        *_, mirror = self._pairs
        diff = self.support - self.support[:, mirror].conj()
        return np.max(np.abs(diff), axis=1, initial=0.0)

    def min_eigenvalues(self) -> np.ndarray:
        """Lowest eigenvalue of the Hermitian part of each snapshot.

        A 1x1 block is its real diagonal entry, a larger block one
        ``eigvalsh`` over all snapshots, and an index outside every block
        the exact 0 of its empty row.
        """
        rows, cols, mirror = self._pairs
        herm = 0.5 * (self.support + self.support[:, mirror].conj())
        d, n_snap = self.rho0.space.total_dim, self.times.size
        covered = sum(b.size for b in self.blocks)
        lowest = np.full(n_snap, np.inf if covered == d else 0.0)
        local = np.empty(d, dtype=int)
        for b in self.blocks:
            k = b.size
            local[b] = np.arange(k)
            on = np.flatnonzero(np.isin(rows, b))
            m = np.zeros((n_snap, k * k), dtype=complex)
            m[:, local[rows[on]] * k + local[cols[on]]] = herm[:, on]
            low = m[:, 0].real if k == 1 else np.linalg.eigvalsh(m.reshape(n_snap, k, k))[:, 0]
            lowest = np.minimum(lowest, low)
        return lowest

    @property
    def states(self) -> Sequence[DensityMatrix]:
        return _Snapshots(self)


class _Snapshots(Sequence):
    """The snapshots of an EvolutionResult as full d x d matrices, each one
    built when it is read; ``len`` builds none."""

    def __init__(self, result: EvolutionResult):
        self._result = result

    def __len__(self) -> int:
        return self._result.times.size

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(len(self))[j]]
        res = self._result
        if range(len(self))[j] == 0:
            return res.rho0
        d = res.rho0.space.total_dim
        m = np.zeros(d * d, dtype=complex)
        m[res.entries] = res.support[j]
        return DensityMatrix(res.rho0.space, m.reshape(d, d))


def transfer_jump(space: ModeSpace, source: int = 0, target: int = 1) -> Operator:
    """Jump operator moving one photon from ``source`` to ``target``."""
    return annihilation(space, source) @ creation(space, target)


def interference_transfer_jump(
    space: ModeSpace, sources: Sequence[int] = (0, 1), target: int = 2
) -> Operator:
    """Two source modes decaying through one common channel.

    The summed lowering operator makes the antisymmetric single-photon
    combination of the sources a dark state.
    """
    low = annihilation(space, sources[0])
    for s in sources[1:]:
        low = low + annihilation(space, s)
    return low @ creation(space, target)


def _superoperator(model: LindbladModel) -> SparseGenerator:
    """Vectorized generator: drho_vec/dt = S rho_vec (row-major vec)."""
    d = model.space.total_dim
    eye = np.eye(d)
    groups = []
    if model.hamiltonian is not None:
        h = model.hamiltonian.matrix
        groups.append((-1j, [(1.0, h, eye), (-1.0, eye, h.T)]))
    for op, rate in model.jumps:
        l = op.matrix
        ldl = (op.adjoint() @ op).matrix
        groups.append((rate, [(1.0, l, l.conj()), (-0.5, ldl, eye), (-0.5, eye, ldl.T)]))
    return SparseGenerator(d * d, groups)


def _default_dt(model: LindbladModel) -> float:
    """Sampling interval 0.05 / (max_rate n_max^2), n_max the largest photon number."""
    return 0.05 / (model.max_rate * (max(model.space.mode_dims) - 1) ** 2)


def _ranges(counts: np.ndarray) -> np.ndarray:
    """0..c-1 for each c of ``counts``, concatenated."""
    return np.arange(np.sum(counts)) - np.repeat(np.cumsum(counts) - counts, counts)


def _phi(gen: SparseGenerator, h: float, norm: float) -> tuple[SparseGenerator, int]:
    """Phi_h = h phi_1(h S) = sum_k h^(k+1) S^k / (k+1)! of the generator S = ``gen``,
    as its nonzeros, and the number of products its build took.

    Column j of Phi_h is the upper half of exp(h A) (0, e_j) for the augmented
    generator A = [[S, I], [0, 0]] (Al-Mohy & Higham 2011), whose lower half stays
    e_j, so exp(h A) composes exactly over the sub-steps of ``taylor_propagate``;
    ||A||_1 <= ``norm`` + 1 for a bound ``norm`` on ||S||_1.  A column is nonzero
    only on its connected component of S's pattern, so each is carried on its
    component alone, and all of them at once as one block-diagonal vector of
    sum b^2 entries, b the component sizes: column j's block holds entry r at
    rank(j) b + rank(r), ranks counted within the component.
    """
    _, comp, size = np.unique(components(gen.n, gen.rows, gen.cols),
                              return_inverse=True, return_counts=True)
    nodes = np.argsort(comp, kind="stable")  # by component, ascending within each
    first = np.cumsum(size) - size  # position in ``nodes`` of each component's first node
    rank = np.empty(gen.n, dtype=int)
    rank[nodes] = _ranges(size)
    base = np.cumsum(size * size) - size * size  # where each component's blocks start
    total = int(np.sum(size * size))
    # every entry of S once per column of its component, then the identity block
    k = comp[gen.rows]
    e = np.repeat(np.arange(k.size), size[k])
    block = base[k[e]] + _ranges(size[k]) * size[k[e]]
    rows = np.concatenate((block + rank[gen.rows[e]], np.arange(total)))
    cols = np.concatenate((block + rank[gen.cols[e]], total + np.arange(total)))
    vals = np.concatenate((gen.vals[e], np.ones(total, dtype=complex)))
    order = np.argsort(rows, kind="stable")  # each row's columns are in order already
    aug = SparseGenerator.__new__(SparseGenerator)
    aug._set(2 * total, rows[order], cols[order], vals[order])
    calls = 0

    def matvec(v):
        nonlocal calls
        calls += 1
        return aug @ v

    v = np.zeros(2 * total, dtype=complex)
    v[total + base[comp] + rank * (size[comp] + 1)] = 1.0
    x = taylor_propagate(matvec, v, h, norm + 1.0, lambda w: w)[:total]
    # entry p of component c's blocks is Phi_h[row, col], col of rank t and row of rank u
    c = np.repeat(np.arange(size.size), size * size)
    t, u = np.divmod(_ranges(size * size), size[c])
    row, col = nodes[first[c] + u], nodes[first[c] + t]
    keep = np.flatnonzero(x)
    keep = keep[np.lexsort((col[keep], row[keep]))]
    phi = SparseGenerator.__new__(SparseGenerator)
    phi._set(gen.n, row[keep], col[keep], x[keep])
    return phi, calls


def evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    t_final: float,
    dt: Optional[float] = None,
    snapshot_stride: int = 10,
) -> EvolutionResult:
    """Propagate the master equation exactly, sampled on the grid t = j dt.

    Snapshots (including the final state) are kept every
    ``snapshot_stride`` samples, as rows of one array over the reachable
    support.  Built-in observables: ``trace``, ``purity`` and
    ``pop_mode<k>`` for every mode, all taken on that support.
    """
    if rho0.space.mode_dims != model.space.mode_dims:
        raise InvalidInput("initial state lives on a different space than the model")
    if t_final <= 0:
        raise InvalidInput(f"t_final must be positive, got {t_final}")
    if dt is None:
        dt = _default_dt(model)
    nsteps, dt = steps_for(t_final, dt)

    gen = _superoperator(model)
    d = model.space.total_dim
    y = rho0.matrix.reshape(-1).astype(complex)
    flip = np.arange(d * d).reshape(d, d).T.reshape(-1)  # (i, j) -> (j, i)
    idx = gen.reachable(y, mirror=flip)
    mirror = np.searchsorted(idx, flip[idx])
    sub = gen.restrict(idx)
    steps = sample_steps(nsteps, snapshot_stride)
    lengths = np.diff([0] + steps)  # samples per interval: the stride, and a shorter last one
    snaps = np.empty((len(steps) + 1, idx.size), dtype=complex)
    snaps[0] = y = y[idx]
    phis, products = {}, 0
    if idx.size:  # an empty support makes no product
        # the full generator's 1-norm bounds the restriction's and fixes the sub-steps
        norm1 = gen.onenorm()
        for n in sorted(set(lengths)):
            phis[n], calls = _phi(sub, n * dt, norm1)
            products += calls
        for j, n in enumerate(lengths, start=1):
            v = y + phis[n] @ (sub @ y)
            # exp(h S) preserves Hermiticity in exact arithmetic; fold roundoff
            # asymmetry back to keep the 1e-12 bound over long runs
            snaps[j] = y = 0.5 * (v + v[mirror].conj())
        products += 2 * lengths.size

    return EvolutionResult(times=np.array([0] + steps) * dt, rho0=rho0, entries=idx,
                           support=snaps, generator_products=products,
                           propagator_entries=sum(phi.vals.size for phi in phis.values()))


def state_fidelity(result: EvolutionResult, psi: np.ndarray) -> np.ndarray:
    """<psi| rho |psi> = sum_ij conj(psi_i) psi_j rho_ij of each snapshot of
    ``result``, read from its support, for a normalized state vector psi."""
    rows, cols, _ = result._pairs
    weights = np.conj(psi)[rows] * psi[cols]
    return np.real(np.sum(weights * result.support, axis=1))


_SUPPORT_TOL = 1e-12  # population allowed beyond the mode-2 truncation


def asymptotic_transfer_map(rho0: DensityMatrix) -> DensityMatrix:
    """Closed-form final state of the two-mode transfer.

    Every photon initially in mode 1 ends up in mode 2; what survives of
    the initial coherences is the sum over mode-1-diagonal components
    shifted down the transfer cascade:

        out[p, p'] = sum_q  rho0[(q, p-q), (q, p'-q)]

    with mode 1 left exactly in vacuum.  Requires that no populated
    total-photon-number sector exceeds the mode-2 truncation, otherwise
    excitation would be lost to the cutoff.
    """
    if rho0.space.n_modes != 2:
        raise InvalidInput("asymptotic transfer map expects a two-mode space")
    d1, d2 = rho0.space.mode_dims
    t = rho0.matrix.reshape(d1, d2, d1, d2)

    lost = 0.0
    for n in range(d1):
        for m in range(d2):
            if n + m >= d2:
                lost += abs(t[n, m, n, m])
    if lost > _SUPPORT_TOL:
        raise ConfigurationError(
            f"mode-2 truncation too small: population {lost:.3e} sits in sectors "
            f"with total photon number >= {d2}; enlarge mode 2"
        )

    out = np.zeros((d1, d2, d1, d2), dtype=complex)
    for p in range(d2):
        for pp in range(d2):
            q_hi = min(d1 - 1, p, pp)
            acc = 0.0 + 0.0j
            for q in range(q_hi + 1):
                acc += t[q, p - q, q, pp - q]
            out[0, p, 0, pp] = acc
    return DensityMatrix(rho0.space, out.reshape(rho0.space.total_dim, rho0.space.total_dim))


@dataclass
class PurificationReport:
    """Outcome of the purity predicate with its witness."""

    pure: bool
    purity: float
    witness: Optional[np.ndarray]
    witness_defect: Optional[float]
    final_state: DensityMatrix = field(repr=False, default=None)


_PURITY_TOL = 1e-6  # a state counts as pure when its purity is >= 1 - this
_WITNESS_TOL = 1e-9  # largest entry of out - conj(beta) beta^T for a pure state


def purification_predicate(rho0: DensityMatrix) -> PurificationReport:
    """Does the transfer purify this state?

    Applies the closed-form map and tests purity >= 1 - ``_PURITY_TOL``.
    When pure, returns the mode-2 amplitude vector ``beta`` such that
    out[p, p'] = conj(beta[p]) * beta[p'] within ``_WITNESS_TOL``.
    """
    fin = asymptotic_transfer_map(rho0)
    d1, d2 = fin.space.mode_dims
    block = fin.matrix.reshape(d1, d2, d1, d2)[0, :, 0, :]
    tr = np.real(np.trace(block))
    purity = float(np.real(np.sum(block * block.T)) / tr**2)
    pure = purity >= 1.0 - _PURITY_TOL
    if not pure:
        return PurificationReport(False, purity, None, None, fin)

    # row p of conj(beta) beta^T is conj(beta[p]) beta; take beta[p] real at the largest |beta[p]|
    p = int(np.argmax(block.diagonal().real))
    beta = block[p] / np.sqrt(block[p, p].real)
    defect = float(np.max(np.abs(block - np.outer(beta.conj(), beta))))
    if defect > _WITNESS_TOL:
        raise InvalidInput(
            f"purity passed but the witness factorization defect {defect:.3e} "
            f"exceeds {_WITNESS_TOL:.1e}"
        )
    return PurificationReport(True, purity, beta, defect, fin)
