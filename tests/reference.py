"""Reference implementations that the tests check photonflow against.

No run calls these, so they live with the tests: Fock-space helpers, the
dense master-equation right-hand side and a dark-state fidelity, the
per-interval Taylor propagation of the master equation that its interval
propagators replaced, the reservoir response kernel by direct summation and
in closed form, a comb field on any uniform time grid, and the port-2
reflection through its own secular solve of the arrowhead with poles -d_q
(the path that ``diode.reflect_port2`` took before it ran on
``ContinuumGrid.cavity``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from photonflow._integrate import sample_steps, steps_for, taylor_propagate
from photonflow.diode import (ContinuumGrid, ReflectionResult, _check_window, _comb_field,
                              _reflection_samples, intensity_centroid)
from photonflow.errors import ConfigurationError, InvalidInput
from photonflow.fock import (DensityMatrix, ModeSpace, Operator, _check_mode, _check_same_space,
                             _product, tensor_embed)
from photonflow.lindblad import LindbladModel, _superoperator, evolve, state_fidelity
from photonflow.reservoir import ReservoirSpec, _ExactPropagator

# --- fock ----------------------------------------------------------------------------------


def unflatten(space: ModeSpace, index: int) -> tuple[int, ...]:
    if not 0 <= index < space.total_dim:
        raise InvalidInput(f"flat index {index} outside [0, {space.total_dim})")
    return tuple(int(i) for i in np.unravel_index(index, space.mode_dims))


def identity(space: ModeSpace) -> Operator:
    return Operator(space, np.eye(space.total_dim))


def number(space: ModeSpace, mode: int) -> Operator:
    _check_mode(space, mode)
    return tensor_embed(space, np.diag(np.arange(space.mode_dims[mode], dtype=float)), mode)


def apply(op: Operator, target: Union[np.ndarray, DensityMatrix]):
    """Apply an operator: matrix-vector or plain matrix-matrix product.

    No normalization is performed; applying to a DensityMatrix returns
    the raw product ``A rho`` in a DensityMatrix container.
    """
    if isinstance(target, DensityMatrix):
        _check_same_space(op.space, target.space)
        return DensityMatrix(op.space, _product(op.matrix, target.matrix))
    vec = np.asarray(target, dtype=complex).reshape(-1)
    if vec.size != op.space.total_dim:
        raise InvalidInput("state vector length does not match operator space")
    return np.einsum("ij,j->i", op.matrix, vec)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out all modes not in ``keep``.

    The kept modes retain their relative order.  Preserves trace and
    Hermiticity exactly (sums of diagonal blocks).
    """
    keep_list = sorted(set(int(k) for k in keep))
    if not keep_list:
        raise InvalidInput("keep set must name at least one mode")
    for k in keep_list:
        _check_mode(rho.space, k)
    dims = rho.space.mode_dims
    n = len(dims)
    tensor = rho.matrix.reshape(dims + dims)

    # einsum subscripts: traced modes share a letter between bra and ket
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise InvalidInput("too many modes for partial trace")
    bra = list(letters[:n])
    ket = []
    out_bra, out_ket = [], []
    next_free = n
    for m in range(n):
        if m in keep_list:
            ket.append(letters[next_free])
            next_free += 1
            out_bra.append(bra[m])
            out_ket.append(ket[m])
        else:
            ket.append(bra[m])
    spec = "".join(bra) + "".join(ket) + "->" + "".join(out_bra) + "".join(out_ket)
    reduced = np.einsum(spec, tensor)

    new_space = ModeSpace([dims[m] for m in keep_list])
    d = new_space.total_dim
    return DensityMatrix(new_space, reduced.reshape(d, d))


# --- lindblad ------------------------------------------------------------------------------


def lindblad_rhs(model: LindbladModel, rho: DensityMatrix) -> DensityMatrix:
    """Right-hand side of the master equation (traceless, Hermitian)."""
    if rho.space.mode_dims != model.space.mode_dims:
        raise InvalidInput("state lives on a different space than the model")
    m = rho.matrix
    out = np.zeros_like(m)
    if model.hamiltonian is not None:
        h = model.hamiltonian.matrix
        out += -1j * (h @ m - m @ h)
    for op, rate in model.jumps:
        l = op.matrix
        ld = l.conj().T
        ldl = ld @ l
        out += rate * (l @ m @ ld - 0.5 * (ldl @ m + m @ ldl))
    return DensityMatrix(rho.space, out)


def taylor_evolve(model: LindbladModel, rho0: DensityMatrix, t_final: float, dt: float,
                  snapshot_stride: int) -> np.ndarray:
    """The snapshots of ``lindblad.evolve`` on its reachable support, each interval
    propagated by the Taylor series of exp(h S) again, in ceil(h ||S||_1) sub-steps
    with the Hermitian fold after each one."""
    nsteps, dt = steps_for(t_final, dt)
    gen = _superoperator(model)
    d = model.space.total_dim
    y = rho0.matrix.reshape(-1).astype(complex)
    flip = np.arange(d * d).reshape(d, d).T.reshape(-1)
    idx = gen.reachable(y, mirror=flip)
    mirror = np.searchsorted(idx, flip[idx])
    sub = gen.restrict(idx)
    steps = sample_steps(nsteps, snapshot_stride)
    snaps = np.empty((len(steps) + 1, idx.size), dtype=complex)
    snaps[0] = y = y[idx]
    for j, (prev, step) in enumerate(zip([0] + steps, steps), start=1):
        snaps[j] = y = taylor_propagate(sub.__matmul__, y, (step - prev) * dt, gen.onenorm(),
                                        lambda v: 0.5 * (v + v[mirror].conj()))
    return snaps


def dark_state_check(
    model: LindbladModel,
    psi: np.ndarray,
    t_final: float,
    dt: Optional[float] = None,
    snapshot_stride: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity <psi| rho(t) |psi> along the evolution of |psi><psi|."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    rho0 = DensityMatrix.from_state_vector(model.space, v)
    res = evolve(model, rho0, t_final, dt=dt, snapshot_stride=snapshot_stride)
    return res.times, state_fidelity(res, v)


# --- reservoir -----------------------------------------------------------------------------


def response_function(spec: ReservoirSpec, t) -> np.ndarray:
    """Reservoir response kernel g(t) by direct summation over classes."""
    om = spec.frequencies()
    tt = np.asarray(t, dtype=float)
    g = spec.coupling_sq * np.sum(np.exp(1j * np.outer(tt, om)), axis=1)
    return g if tt.ndim else complex(g[0])


def equidistant_response_closed_form(spec: ReservoirSpec, t) -> np.ndarray:
    """g(t) for the equidistant comb: |g_c|^2 sin(e t) / sin(e t / f)."""
    if spec.spectrum != "equidistant":
        raise ConfigurationError("closed form only holds for the equidistant spectrum")
    tt = np.asarray(t, dtype=float)
    x = spec.eps_max * tt
    num = np.sin(x)
    den = np.sin(x / spec.f)
    small = np.abs(den) < 1e-12
    safe = np.where(small, 1.0, den)
    ratio = np.where(small, spec.f * np.cos(x) / np.cos(x / spec.f), num / safe)
    g = spec.coupling_sq * ratio
    return g if tt.ndim else complex(g)


# --- diode ---------------------------------------------------------------------------------


def reconstruct_field(
    grid: ContinuumGrid, amplitudes: np.ndarray, times: np.ndarray, t_ref: float = 0.0
) -> np.ndarray:
    """Field at the cavity mirror at uniformly spaced ``times`` from comb
    amplitudes known at t_ref; the step is (times[-1] - times[0]) / (n - 1)."""
    tt = np.asarray(times, dtype=float)
    n = tt.size
    h = float(tt[-1] - tt[0]) / (n - 1) if n > 1 else 0.0
    if np.any(np.abs(np.diff(tt) - h) > 1e-9 * abs(h)):
        raise InvalidInput("reconstruct_field needs uniformly spaced times")
    return _comb_field(grid, amplitudes, float(tt[0]) - t_ref if n else 0.0, h, n)


def reflect_port2_mirrored(grid2: ContinuumGrid, s0: np.ndarray,
                           t_final: float) -> ReflectionResult:
    """``diode.reflect_port2`` through a secular solve of its own: with C -> -C the
    reflection is dy/dt = i K y for the arrowhead K with poles -d_q and border
    kappa, propagated by the reservoir level's ``_ExactPropagator``."""
    _check_window(grid2, t_final, "port-2")
    step, n = _reflection_samples(t_final)
    prop = _ExactPropagator(-grid2.detunings(), grid2.kappa)
    coef, dark = prop.modes(0.0, s0)
    # at t = 0 the interaction picture is the frame itself: this is S(t_final)
    s_final = prop.classes_at(coef, dark, t_final, 0.0)

    ts = np.arange(n) * step
    out_field = _comb_field(grid2, s_final, -t_final, step, n)
    in_field = _comb_field(grid2, s0, 0.0, step, n)
    out_norm = float(np.sum(np.abs(s_final) ** 2))
    delay = intensity_centroid(ts, out_field) - intensity_centroid(ts, in_field)
    return ReflectionResult(times=ts, out_field=out_field, in_field=in_field, out_norm=out_norm,
                            delay=delay, secular_iterations=prop.eig.iterations)
