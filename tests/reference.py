"""Reference implementations that the tests check photonflow against.

No run calls these, so they live with the tests: Fock-space helpers, the
dense master-equation right-hand side, the closed-form transfer map entry
by entry and a dark-state fidelity, the per-interval Taylor propagation of
the master equation that its interval propagators replaced, the reservoir
response kernel by direct summation and in closed form, the two-upper-mode
interference through a propagator of its own, the products of an arrowhead's
eigenvectors divided block by block (the arithmetic that
``_Eigensystem.coefficients`` and ``.lower_at`` keep off a comb, and had on one
before its far field went through FFTs) and summed in long double, the direct exponential
sum in blocks of 32 samples that the nonuniform FFT of ``exp_sum`` replaced, a
comb field on any uniform time grid, the port-2 reflection through its own
secular solve of the arrowhead with poles -d_q (the path that
``diode.reflect_port2`` took before it ran on ``ContinuumGrid.cavity``), the
Markov port filter as the sequential step recurrence that its doubling scan
replaced, and the CSV writer that formatted one cell at a time through
``_fmt``.
"""

from __future__ import annotations

from itertools import accumulate
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from photonflow._integrate import (_BLOCK, _block_slices, _Eigensystem, exp_sum, sample_steps,
                                   steps_for, taylor_propagate)
from photonflow.diode import (ContinuumGrid, ReflectionResult, _check_window, _comb_field,
                              _filter_weights, _reflection_samples, intensity_centroid)
from photonflow.errors import ConfigurationError, InvalidInput
from photonflow.fock import (DensityMatrix, ModeSpace, Operator, _check_mode, _check_same_space,
                             _product, tensor_embed)
from photonflow.lindblad import LindbladModel, _superoperator, evolve, state_fidelity
from photonflow.reservoir import (InterferenceTrajectory, ReservoirSpec, TwoUpperModeState,
                                  _ExactPropagator, _default_dt)
from photonflow.scenario import _fmt

# --- fock ----------------------------------------------------------------------------------


def unflatten(space: ModeSpace, index: int) -> tuple[int, ...]:
    if not 0 <= index < space.total_dim:
        raise InvalidInput(f"flat index {index} outside [0, {space.total_dim})")
    return tuple(int(i) for i in np.unravel_index(index, space.mode_dims))


def population(rho: DensityMatrix, occupations: Sequence[int]) -> float:
    i = rho.space.flatten(occupations)
    return float(np.real(rho.matrix[i, i]))


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
    with the Hermitian fold after each one.

    Each sub-step is one ``taylor_propagate`` call with norm 0, which sums one
    series over the whole (sub-)interval it is given."""
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
    norm = gen.onenorm()
    for j, (prev, step) in enumerate(zip([0] + steps, steps), start=1):
        h = (step - prev) * dt
        s = max(1, int(np.ceil(h * norm)))
        for _ in range(s):
            v = taylor_propagate(sub.__matmul__, y, h / s, 0.0)[0]
            y = 0.5 * (v + v[mirror].conj())
        snaps[j] = y
    return snaps


def transfer_map_entries(rho0: DensityMatrix) -> np.ndarray:
    """out[0, p, 0, p'] = sum_q rho0[(q, p-q), (q, p'-q)] of the closed-form transfer
    map, entry by entry in ascending q: the loop ``lindblad.asymptotic_transfer_map``
    ran before it added one slice per q."""
    d1, d2 = rho0.space.mode_dims
    t = rho0.matrix.reshape(d1, d2, d1, d2)
    out = np.zeros((d1, d2, d1, d2), dtype=complex)
    for p in range(d2):
        for pp in range(d2):
            acc = 0.0 + 0.0j
            for q in range(min(d1 - 1, p, pp) + 1):
                acc += t[q, p - q, q, pp - q]
            out[0, p, 0, pp] = acc
    return out.reshape(rho0.space.total_dim, rho0.space.total_dim)


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


def interference_own_propagator(spec: ReservoirSpec, state0: TwoUpperModeState, t_final: float,
                                dt: Optional[float] = None) -> InterferenceTrajectory:
    """``reservoir.interference_evolve`` through an ``_ExactPropagator`` of its own
    at sqrt(2) g_c and the sampled sum of the symmetric amplitude, the path it
    took before it ran ``evolve_exact`` on the symmetric mode's spec."""
    nsteps, dt = steps_for(t_final, _default_dt(spec) if dt is None else dt)
    root2 = np.sqrt(2.0)
    sym0 = (state0.c0 + state0.c0p) / root2
    prop = _ExactPropagator(spec.frequencies(), root2 * spec.coupling)
    coef, _ = prop.modes(sym0, prop.to_frame(state0.c, state0.t))
    sym = exp_sum(prop.eig.roots, coef * prop.eig.inv_norm, 0.0, dt, nsteps + 1)
    sym[0] = sym0
    shift = (sym - sym0) / root2
    return InterferenceTrajectory(times=state0.t + np.arange(nsteps + 1) * dt,
                                  c0=state0.c0 + shift, c0p=state0.c0p + shift)


_BATCH = 2**15  # complex entries of the (blocks, 32, freqs) product of one exp_sum_blocked pass


def exp_sum_blocked(freqs: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k weights[k] exp(i freqs[k] t) at every t of the uniform grid ``times``,
    in blocks of 32 samples that share one table of in-block phases: the direct
    O(n m) sum that ``exp_sum`` replaced.

    Whole blocks go through numpy together, as many per pass as keep the
    product within ``_BATCH`` entries (at least one), a short last one summed
    whole and cut; each block's arithmetic is the same either way.
    """
    times = np.asarray(times, dtype=float)
    n = times.size
    h = float(times[1] - times[0]) if n > 1 else 0.0
    # every block starts at its own sample time, so only drift within a block counts
    if np.any(np.abs(np.diff(times) - h) > 1e-9 * abs(h)):
        raise InvalidInput("exp_sum_blocked needs uniformly spaced times")
    within = np.exp(1j * np.outer(np.arange(_BLOCK) * h, freqs))
    out = np.empty(n, dtype=complex)
    rows = max(1, _BATCH // within.size) * _BLOCK
    for lo in range(0, n, rows):
        start = weights * np.exp(1j * freqs * times[lo:lo + rows:_BLOCK, None])
        out[lo:lo + rows] = np.sum(within * start[:, None, :], axis=2).ravel()[: n - lo]
    return out


def exp_sum_per_block(freqs, weights, times):
    """``exp_sum_blocked`` one block of 32 samples per numpy pass."""
    n = times.size
    h = times[1] - times[0] if n > 1 else 0.0
    within = np.exp(1j * np.outer(np.arange(min(n, _BLOCK)) * h, freqs))
    out = np.empty(n, dtype=complex)
    for js in _block_slices(n):
        start = weights * np.exp(1j * freqs * times[js.start])
        out[js] = np.sum(within[: js.stop - js.start] * start, axis=1)
    return out


def modes_per_block(eig: _Eigensystem, c0: complex, bright: np.ndarray) -> np.ndarray:
    """``_Eigensystem.coefficients`` with its Cauchy sums divided block by block."""
    coef = np.full(eig.roots.size, complex(c0))
    for ks in _block_slices(coef.size):
        coef[ks] += np.sum(eig.z * bright / eig.gaps(ks), axis=1)
    return coef * eig.inv_norm


def classes_per_block(eig: _Eigensystem, coef: np.ndarray, tau: float) -> np.ndarray:
    """``_Eigensystem.lower_at`` with its Cauchy sums divided block by block."""
    weight = coef * eig.inv_norm * np.exp(1j * eig.roots * tau)
    bright = np.zeros(eig.poles.size, dtype=complex)
    for ks in _block_slices(weight.size):
        bright += np.sum(weight[ks, None] / eig.gaps(ks), axis=0)
    return bright * eig.z


_LONG_ROWS = 256  # roots per block of the long-double sums


def _long_double_products(eig: _Eigensystem, x: np.ndarray, w: np.ndarray):
    """C x and w C for the Cauchy matrix C_ku = 1 / (kappa_k - p_u), summed in long double
    from the exact gaps, ``_LONG_ROWS`` roots at a time."""
    ld = np.longdouble
    poles = eig.poles.astype(ld)
    rows = np.zeros(eig.roots.size, dtype=complex)
    cols_re, cols_im = np.zeros(eig.poles.size, dtype=ld), np.zeros(eig.poles.size, dtype=ld)
    for start in range(0, eig.roots.size, _LONG_ROWS):
        ks = slice(start, start + _LONG_ROWS)
        origin, offset = eig.origin[ks].astype(ld), eig.offset[ks].astype(ld)
        inv = 1 / (offset[:, None] - (poles[None, :] - origin[:, None]))
        rows[ks] = (inv @ x.real.astype(ld)).astype(float) + 1j * (inv @ x.imag.astype(ld))
        cols_re += w[ks].real.astype(ld) @ inv
        cols_im += w[ks].imag.astype(ld) @ inv
    return rows, cols_re.astype(float) + 1j * cols_im.astype(float)


def cauchy_long_double(eig: _Eigensystem, c0: complex, bright: np.ndarray, coef: np.ndarray,
                       tau: float) -> tuple[np.ndarray, np.ndarray]:
    """``_Eigensystem.coefficients(c0, bright)`` and ``.lower_at(coef, tau)`` with their
    Cauchy sums in long double."""
    weight = coef * eig.inv_norm * np.exp(1j * eig.roots * tau)
    rows, cols = _long_double_products(eig, eig.z * bright, weight)
    return (c0 + rows) * eig.inv_norm, cols * eig.z


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


def linear_filter_recurrence(rate: float, dt: float, u: np.ndarray, u_mid: np.ndarray):
    """``diode._linear_filter`` with its step recurrence y_(j+1) = decay y_j + drive_j
    run one step at a time on Python numbers, as it was before the doubling scan."""
    decay, w, decay_half, v = _filter_weights(rate, dt)
    drive = w[0] * u[:-1] + w[1] * u_mid + w[2] * u[1:]
    y = np.fromiter(accumulate(drive.tolist(), lambda prev, d: decay * prev + d, initial=0.0),
                    dtype=drive.dtype, count=u.size)
    y_mid = decay_half * y[:-1] + v[0] * u[:-1] + v[1] * u_mid + v[2] * u[1:]
    return y, y_mid


# --- scenario ------------------------------------------------------------------------------


def write_csv_rows(path: Path, table: dict) -> None:
    """``scenario._write_csv`` as it was before it formatted each row whole: the
    header, then one row per entry of the columns (``zip`` stops at the shortest),
    each cell through ``_fmt``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(table) + "\n")
        for row in zip(*table.values()):
            fh.write(",".join(_fmt(x) for x in row) + "\n")
