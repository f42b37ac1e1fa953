"""Truncated multi-mode Fock-space algebra.

Provides the bosonic substrate used by the master-equation level: mode
spaces with hard photon-number truncation, operators on the joint space,
and density matrices.  Operators are dense d x d arrays like the states
they act on (every space here has d <= 32); only the d^2 x d^2 generator
of the master equation is sparse (``_integrate.SparseGenerator``).

Conventions
-----------
* Mode ``m`` holds Fock states ``0 .. mode_dims[m]-1``.  Truncation is
  hard: the raising operator annihilates the top level.
* Flat indices are row-major over the mode multi-index, i.e. the LAST
  mode varies fastest.  File outputs rely on this ordering.
* All scalars are complex double precision.
* Operator products go through ``np.einsum``, not BLAS, so their bits
  do not depend on the BLAS thread count.
* LAPACK (``eigvalsh``) runs only in ``DensityMatrix.min_eigenvalue`` and
  ``trace_distance``.  The master equation takes the lowest eigenvalue of
  its snapshots block by block on their support
  (``lindblad.EvolutionResult.min_eigenvalues``), so a Fock-diagonal
  state needs no LAPACK there; the DensityMatrix methods are its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInput, check_count, check_finite, check_sequence

__all__ = [
    "ModeSpace",
    "Operator",
    "DensityMatrix",
    "annihilation",
    "creation",
    "tensor_embed",
    "fock_state",
    "fock_density",
    "mixed_fock_density",
    "trace_distance",
]


@dataclass(frozen=True)
class ModeSpace:
    """Tensor product of truncated single-mode Fock spaces."""

    mode_dims: tuple[int, ...]

    def __init__(self, mode_dims: Sequence[int]):
        check_sequence("mode_dims", mode_dims, least=1)
        dims = tuple(check_count("mode_dims", d, 2) for d in mode_dims)
        object.__setattr__(self, "mode_dims", dims)

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.mode_dims))

    def flatten(self, occupations: Sequence[int]) -> int:
        """Flat index of a Fock multi-index (last mode fastest)."""
        check_sequence("occupations", occupations, size=self.n_modes)
        for n, d in zip(occupations, self.mode_dims):
            if not 0 <= n < d:
                raise InvalidInput(f"occupation {tuple(occupations)} outside {self.mode_dims}")
        return int(np.ravel_multi_index(tuple(occupations), self.mode_dims))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk->ik", a, b)


@dataclass(frozen=True)
class Operator:
    """Linear operator on a ModeSpace, held as a dense complex matrix."""

    space: ModeSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _square("matrix", self.matrix, self.space.total_dim))

    def adjoint(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_space(self.space, other.space)
        return Operator(self.space, _product(self.matrix, other.matrix))

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_space(self.space, other.space)
        return Operator(self.space, self.matrix + other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__


@dataclass
class DensityMatrix:
    """Dense density matrix on a ModeSpace.

    The container itself does not enforce normalization; validity checks
    (trace, Hermiticity, positivity) are available as methods so callers
    can verify and report rather than silently repair.
    """

    space: ModeSpace
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _square("matrix", self.matrix, self.space.total_dim)

    @classmethod
    def from_state_vector(cls, space: ModeSpace, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.size != space.total_dim:
            raise InvalidInput("state vector length does not match space dimension")
        return cls(space, np.outer(v, v.conj()))

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def purity(self) -> float:
        # tr(rho^2) = sum_ij rho_ij rho_ji
        return float(np.real(np.sum(self.matrix * self.matrix.T)))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        h = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(h)[0])

    def expectation(self, op: Operator) -> complex:
        _check_same_space(self.space, op.space)
        # tr(A rho) = sum_ij A_ij rho_ji
        return complex(np.sum(op.matrix * self.matrix.T))


def _square(name: str, matrix, d: int) -> np.ndarray:
    """``matrix`` as a complex array, if it is d x d."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (d, d):
        raise InvalidInput(f"{name} shape {m.shape} does not match dimension {d}", arg=name)
    return m


def _check_same_space(a: ModeSpace, b: ModeSpace) -> None:
    if a.mode_dims != b.mode_dims:
        raise InvalidInput(f"mode spaces differ: {a.mode_dims} vs {b.mode_dims}")


def _check_mode(space: ModeSpace, mode: int) -> None:
    if not 0 <= mode < space.n_modes:
        raise InvalidInput(f"mode index {mode} outside [0, {space.n_modes})")


def annihilation(space: ModeSpace, mode: int) -> Operator:
    """Lowering operator of one mode, identity on the rest."""
    _check_mode(space, mode)
    # <n-1| a |n> = sqrt(n); the top level is removed by hard truncation
    return tensor_embed(space, np.diag(np.sqrt(np.arange(1, space.mode_dims[mode])), 1), mode)


def creation(space: ModeSpace, mode: int) -> Operator:
    return annihilation(space, mode).adjoint()


def tensor_embed(space: ModeSpace, single_mode_op, mode: int) -> Operator:
    """Embed a single-mode operator into the joint space.

    Acts as the given operator on ``mode`` and as the identity on all
    other modes.
    """
    _check_mode(space, mode)
    op = _square("single_mode_op", single_mode_op, space.mode_dims[mode])
    before = int(np.prod(space.mode_dims[:mode], initial=1))
    after = int(np.prod(space.mode_dims[mode + 1 :], initial=1))
    return Operator(space, np.kron(np.kron(np.eye(before), op), np.eye(after)))


def fock_state(space: ModeSpace, occupations: Sequence[int]) -> np.ndarray:
    """Unit vector for a Fock product state."""
    v = np.zeros(space.total_dim, dtype=complex)
    v[space.flatten(occupations)] = 1.0
    return v


def fock_density(space: ModeSpace, occupations: Sequence[int]) -> DensityMatrix:
    return DensityMatrix.from_state_vector(space, fock_state(space, occupations))


def mixed_fock_density(space: ModeSpace, weights: dict) -> DensityMatrix:
    """Statistical mixture of Fock product states.

    ``weights`` maps occupation tuples to nonnegative weights; they are
    normalized to unit trace.
    """
    ws = [check_finite("weights", w) for w in weights.values()]
    total = float(sum(ws))
    if not (ws and min(ws) >= 0 and 0 < total < np.inf):  # an overflowed total would zero all
        raise InvalidInput(f"mixture weights must be nonnegative with a positive finite sum, "
                           f"got {ws}", arg="weights")
    m = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for occ, w in zip(weights, ws):
        i = space.flatten(occ)
        m[i, i] += w / total
    return DensityMatrix(space, m)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    _check_same_space(a.space, b.space)
    diff = a.matrix - b.matrix
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
