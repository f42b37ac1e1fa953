"""Four-port photon router: full wave dynamics and its Markov reduction.

A single photon arrives through a discretized input/output continuum
(port 1), enters cavity mode 1 with rate gamma1, is transferred
irreversibly to cavity mode 2 while exciting one reservoir class, and
leaves through a second continuum (port 2) with rate gamma2.  A photon
arriving through port 2 instead sees an empty cavity (the reservoir in
its ground state cannot absorb into mode 1) and is reflected with a
group delay, never reaching port 1.

Model conventions
-----------------
* Each continuum is a uniform frequency comb of n_q modes spanning
  [-delta_max, +delta_max], spacing dw = 2 delta_max / n_q, with a flat
  per-mode coupling kappa derived from the target loss rate through
  gamma = 2 pi kappa^2 / dw.  The comb recurrence 2 pi / dw must exceed
  the simulation window; this is asserted at configuration time.
* Amplitudes: P_q (photon in continuum 1), Q (cavity 1), R_l (cavity 2
  plus reservoir excitation l), S_ql (continuum 2 plus excitation l):

      dP_q/dt = -i d1_q P_q - i k1 Q
      dQ/dt   = -i k1 sum_q P_q + i g sum_l exp(+i w_l t) R_l
      dR_l/dt = +i conj(g) exp(-i w_l t) Q - i k2 sum_q S_ql
      dS_ql/dt= -i d2_q S_ql - i k2 R_l

  In the co-rotating frame R'_l = exp(i w_l t) R_l, S'_ql = exp(i w_l t) S_ql
  class l is the bare cavity-2 arrowhead C2 (poles d2_q, border k2) shifted
  by -w_l.  On the C2 eigenpairs (lambda_k, V) of
  ``_integrate._arrowhead_eigensystem`` the baths are independent modes
  driven by Q: P_q at d1_q with drive -i k1 Q, and b_lk at lambda_k - w_l
  with drive i conj(g) V_0k Q.  Eliminating them leaves one Volterra
  equation whose kernel is the bath correlation function:

      Q' = F - int_0^t K(t - s) Q(s) ds,   F = -i k1 sum_q p0_q exp(-i d1_q t),
      K  = k1^2 sum_q exp(-i d1_q tau) + |g|^2 G(tau) W(tau),
      G  = sum_k V_0k^2 exp(-i lambda_k tau),   W = sum_l exp(i w_l tau).

  Its integrated form, with Kc = int_0^tau K and Kc(0) = 0, is discretized
  on a uniform grid of step h (h times the generator norm bound <= 0.15)
  with Gregory weights of order 8: Q_1..Q_7 solve one small system, and the
  rest is a unit lower-triangular Toeplitz system, solved as an online
  convolution in O(n log^2 n) (``_solve_cavity``).  int F and the port-1
  part of Kc are closed forms, one chirp-z ``comb_sum`` on the grid; |g|^2
  G W takes an 8-point Gauss-Legendre rule per step, G summed over the C2
  roots at all eight nodes by one nonuniform FFT (``exp_sum``) and W a power
  series about the band centre w_bar.

  The classes enter as bath channels: over [0, T] the class phase
  exp(-i (w_l - w_bar) s) is a Taylor series in u = 2 s / T - 1 that
  reaches 2^-60 after M terms (M = 9 for f = 80 classes on the benchmark's
  router file, 11 for f = 200 on the shipped one).  With A = U R for its
  matrix A_lm, channel m holds the C2 eigenmodes at lambda_k - w_bar driven
  by u_m = sum_k R_mk u^k Q, and class l is exp(i dw_l t) sum_m U_lm times
  the channels (U = I where M is not below f or the series cancels).  No
  mode is propagated: each channel's cavity-2 amplitude rho_m = i conj(g)
  int G(t - s) u_m(s) ds and the port-1 field sum_q P_q are product
  integrals of G (about w_bar) and D = sum_q exp(-i d1_q tau) against Q
  (``_ProductRule``).  Mode 2 is sum_m |rho_m|^2, port 1 and the channel
  norms N_m are Gregory integrals of their fluxes, port 2 is sum_m N_m -
  mode 2, and the final P and S are comb sums of Q and rho_m.  The port-2
  reflection off the bare cavity is C2 with C -> -C and the comb reversed,
  so it runs on the same eigenpairs (``ContinuumGrid.cavity``).
* Fields are reconstructed at the cavity mirror (z = 0 phase origin):
  Phi(t) = sqrt(dw / 2 pi) sum_q A_q exp(-i d_q (t - t_ref)), normalized
  so the integral of |Phi|^2 over the wavepacket is the photon count.
  Each field is one chirp-z ``_integrate.comb_sum`` (three FFTs, no BLAS)
  with its time step taken from its definition, never from two samples;
  port 2 gives M channel fields from one call, and class l's is sum_n U_ln
  times them.
* The Markov-reduced model keeps the same input wavefunction:

      F(t)        = integral_0^t Phi_in(s) exp(-(gamma+gamma1)(t-s)/2) ds
      Q(t)        = -i sqrt(gamma1) F(t)
      Phi_out1(t) = Phi_in(t) - gamma1 F(t)
      rho_out(t)  = gamma1 gamma2 gamma *
                    integral_0^t exp(-gamma2 (t-s)) |F(s)|^2 ds
      Phi_out2(t) = sqrt(gamma1 gamma) F(t)

  F and rho_out are linear filters of Phi_in and |F|^2, propagated exactly
  on the output grid by an exponential integrator (Hochbruck & Ostermann,
  Acta Numerica 19, 2010) that interpolates the drive quadratically
  through each step and its midpoint; it is stable for any rate times
  step; its step recurrence is one doubling scan.  The photon counts are
  Simpson sums on the same grid, and integral rho_out dt = gamma1 gamma
  integral |F|^2 dt - rho_out(T) / gamma2 follows from the rho_out equation.
* The transfer rate realized by a reservoir behind a cavity that loses
  photons at gamma2 is the loss-filtered golden-rule sum

      gamma = 2 |g|^2 sum_l Re[ 1 / (gamma2/2 - i w_l) ]

  which tends to pi f |g|^2 / eps_max when the comb is much wider than
  gamma2 and to 4 f |g|^2 / gamma2 when it is much narrower.
  ``coupling_for_diode_rate`` inverts this sum so a run can be
  configured directly by its target rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._integrate import (_MAX_COUNT, _arrowhead_eigensystem, _Eigensystem, comb_sum, exp_sum,
                         fft_size, sample_steps, steps_for)
from .errors import (ConfigurationError, InvalidInput, check_count, check_finite, check_positive,
                     check_sequence)
from .reservoir import ReservoirSpec, _finite_coupling

__all__ = [
    "ContinuumGrid",
    "Pulse",
    "gaussian_pulse",
    "exponential_pulse",
    "custom_pulse",
    "project_pulse",
    "simulation_window",
    "coupling_for_diode_rate",
    "loaded_transfer_rate",
    "evolve_full",
    "evolve_markov",
    "reflect_port2",
    "port2_output_decomposition",
    "impedance_scan",
    "intensity_centroid",
]


@dataclass(frozen=True)
class ContinuumGrid:
    """Uniform frequency comb standing in for one input/output line."""

    n_q: int
    delta_max: float
    gamma: float

    def __post_init__(self):
        check_count("n_q", self.n_q)
        check_positive("delta_max", self.delta_max)
        check_positive("gamma", self.gamma)

    @property
    def spacing(self) -> float:
        return 2.0 * self.delta_max / self.n_q

    @property
    def kappa(self) -> float:
        # loss-rate identity gamma = 2 pi kappa^2 / spacing
        return float(np.sqrt(self.gamma * self.spacing / (2.0 * np.pi)))

    @property
    def recurrence_time(self) -> float:
        return 2.0 * np.pi / self.spacing

    def detunings(self) -> np.ndarray:
        q = np.arange(self.n_q, dtype=float)
        return (q - 0.5 * (self.n_q - 1)) * self.spacing

    @cached_property
    def cavity(self) -> _Eigensystem:
        """The bare cavity's arrowhead eigenpairs (C2 on port 2), kept with the grid."""
        return _arrowhead_eigensystem(self.detunings(), np.full(self.n_q, self.kappa))


@dataclass(frozen=True)
class Pulse:
    """Single-photon temporal envelope, unit L2 norm in time."""

    kind: str
    t0: float = 0.0
    duration: float = 1.0
    rate: float = 1.0
    t_stop: float = 0.0
    sample_times: Optional[tuple] = None
    sample_values: Optional[tuple] = None

    def amplitude(self, t) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            d2 = np.float64(self.duration) ** 2  # the float's power, but inf past the range
            norm = (np.pi * d2) ** -0.25
            return norm * np.exp(-((tt - self.t0) ** 2) / (2.0 * d2)) + 0j
        if self.kind == "exponential":
            amp = np.sqrt(self.rate) * np.exp(0.5 * self.rate * (tt - self.t_stop))
            return np.where(tt <= self.t_stop, amp, 0.0) + 0j
        times = np.asarray(self.sample_times, dtype=float)
        vals = np.asarray(self.sample_values, dtype=complex)
        re = np.interp(tt, times, vals.real, left=0.0, right=0.0)
        im = np.interp(tt, times, vals.imag, left=0.0, right=0.0)
        return re + 1j * im

    def spectrum(self, omega) -> np.ndarray:
        """Fourier coefficients integral phi(t) exp(+i w t) dt (custom pulses:
        trapezoid rule over the samples, at uniformly spaced ``omega``, whose step is
        their span over their count less one)."""
        w = np.asarray(omega, dtype=float)
        if self.kind == "gaussian":
            d2 = np.float64(self.duration) ** 2
            norm = (4.0 * np.pi * d2) ** 0.25
            return norm * np.exp(1j * w * self.t0) * np.exp(-(w**2) * d2 / 2.0)
        if self.kind == "exponential":
            return np.sqrt(self.rate) * np.exp(1j * w * self.t_stop) / (0.5 * self.rate + 1j * w)
        times = np.asarray(self.sample_times, dtype=float)
        vals = np.asarray(self.sample_values, dtype=complex)
        trapezoid = np.convolve(np.diff(times), [0.5, 0.5])
        flat = w.reshape(-1)
        n = flat.size
        h = (flat[-1] - flat[0]) / (n - 1) if n > 1 else 0.0
        if np.any(np.abs(flat - (flat[:1] + np.arange(n) * h)) > 1e-9 * abs(h)):
            raise InvalidInput("the spectrum of a sampled pulse needs uniformly spaced omega")
        return exp_sum(times, trapezoid * vals, float(flat[0]) if n else 0.0, h, n).reshape(w.shape)

    @property
    def bandwidth(self) -> float:
        """Spectral width of an analytic pulse: 1 / duration, or the exponential's rate."""
        if self.kind == "gaussian":
            return 1.0 / self.duration
        return self.rate

    def support(self) -> tuple[float, float]:
        if self.kind == "gaussian":
            return self.t0 - 4.0 * self.duration, self.t0 + 4.0 * self.duration
        if self.kind == "exponential":
            return self.t_stop - 15.0 / self.rate, self.t_stop
        times = np.asarray(self.sample_times, dtype=float)
        return float(times[0]), float(times[-1])


def gaussian_pulse(t0: float, duration: float) -> Pulse:
    check_finite("t0", t0)
    d = check_positive("duration", duration)
    if d * d == 0.0:
        raise InvalidInput(f"pulse duration {d:g} is too short: its square underflows to 0",
                           arg="duration")
    return Pulse(kind="gaussian", t0=t0, duration=duration)


def exponential_pulse(rate: float, t_stop: float) -> Pulse:
    check_positive("rate", rate)
    check_finite("t_stop", t_stop)
    return Pulse(kind="exponential", rate=rate, t_stop=t_stop)


def custom_pulse(times: Sequence[float], values: Sequence[complex]) -> Pulse:
    check_sequence("values", values, size=len(check_sequence("times", times, least=2)))
    times = tuple(check_finite("times", t) for t in times)
    values = tuple(check_finite("values", v, complex) for v in values)
    return Pulse(kind="custom", sample_times=times, sample_values=values)


def project_pulse(grid: ContinuumGrid, pulse: Pulse) -> np.ndarray:
    """Mode amplitudes of a pulse on the comb, normalized exactly to 1.

    Fails if the pulse spectrum does not fit the grid: analytic shapes
    are screened by bandwidth <= delta_max / 5, and the projected comb
    must resynthesize the target envelope to 1 percent.
    """
    _check_bandwidth(grid, pulse)
    with np.errstate(over="ignore", invalid="ignore"):  # phases past the float range give nan
        amps = np.sqrt(grid.spacing / (2.0 * np.pi)) * pulse.spectrum(grid.detunings())
    norm = np.linalg.norm(amps)
    if not 0 < norm < math.inf:
        raise ConfigurationError(f"pulse has no finite, nonzero overlap with the grid: {norm:.3g}")
    amps = amps / norm
    if grid.n_q > 2:
        lo, hi = pulse.support()
        # the comb is periodic; never compare across more than one period
        span_cap = 0.9 * grid.recurrence_time
        if hi - lo > span_cap:
            mid = 0.5 * (lo + hi)
            lo, hi = mid - 0.5 * span_cap, mid + 0.5 * span_cap
        ts = np.linspace(lo, hi, 801)
        rec = _comb_field(grid, amps, lo, (hi - lo) / (ts.size - 1), ts.size)
        target = pulse.amplitude(ts)
        err = float(np.max(np.abs(rec - target)) / np.max(np.abs(target)))
        if err > 0.01:
            raise ConfigurationError(
                f"projected pulse resynthesizes with {100 * err:.2f}% error; "
                "the grid cannot represent this envelope"
            )
    return amps


def _comb_field(grid: ContinuumGrid, amplitudes: np.ndarray, t0: float, h: float,
                n: int) -> np.ndarray:
    """sqrt(dw / 2 pi) sum_q A_q exp(-i d_q (t0 + j h)), j = 0..n-1, the field of comb
    amplitudes (comb q along the last axis) at t0 + j h after the time they hold."""
    field = comb_sum(0.5 * (grid.n_q - 1) * grid.spacing, -grid.spacing, amplitudes, t0, h, n)
    return np.sqrt(grid.spacing / (2.0 * np.pi)) * field


def simulation_window(pulse: Pulse, **rates: float) -> float:
    """End of run: pulse fully in and out, transients drained.

    For a pulse centered at t0 = 3T this is t0 + 5T + 10/min(rates).  Each rate
    is passed by its name, under which an error names it.
    """
    if not rates:
        raise InvalidInput("simulation_window needs at least one rate")
    tail = 10.0 / min(check_positive(name, rate) for name, rate in rates.items())
    if pulse.kind == "gaussian":
        return pulse.t0 + 5.0 * pulse.duration + tail
    return pulse.support()[1] + tail


def loaded_transfer_rate(spec: ReservoirSpec, gamma2: float) -> float:
    """Transfer rate of a reservoir drained through a cavity losing at gamma2, which
    must come out positive and finite."""
    half = 0.5 * check_positive("gamma2", gamma2)
    om = spec.frequencies()
    with np.errstate(over="ignore", divide="ignore"):  # squares out of float range give 0 or inf
        rate = float(2.0 * spec.coupling_sq * np.sum(half / (half * half + om**2)))
    if not 0.0 < rate < math.inf:
        raise ConfigurationError(f"a reservoir with eps_max = {spec.eps_max:.3g} transfers at "
                                 f"{rate:.3g} behind gamma2 = {gamma2:.3g}, not a positive float")
    return rate


def coupling_for_diode_rate(
    f: int,
    eps_max: float,
    gamma2: float,
    gamma_target: float,
    spectrum: str = "equidistant",
    **spectrum_kwargs,
) -> float:
    """Coupling amplitude that realizes a target loaded transfer rate."""
    probe = ReservoirSpec(f=f, eps_max=eps_max, coupling=1.0, spectrum=spectrum, **spectrum_kwargs)
    return _coupling_for_loaded_rate(probe, gamma2, gamma_target)


def _coupling_for_loaded_rate(probe: ReservoirSpec, gamma2: float, gamma_target: float) -> float:
    """The coupling at which ``probe``, a spec at unit coupling, transfers at gamma_target."""
    check_positive("gamma_target", gamma_target)
    return _finite_coupling(gamma_target / loaded_transfer_rate(probe, gamma2), gamma_target)


@dataclass
class DiodeState:
    """Lab-frame amplitudes of the four-port system at one instant, the reservoir
    as its M bath channels: class l's R and S are ``bath.classes(r)`` and
    ``bath.classes(s)`` of the trajectory's channels."""

    p: np.ndarray  # (n_q1,)
    q: complex
    r: np.ndarray  # (M,)
    s: np.ndarray  # (M, n_q2)
    t: float


@dataclass
class DiodeTrajectory:
    """Populations over time plus the final state of a full run, in bath channels."""

    grid2: ContinuumGrid
    times: np.ndarray
    port1: np.ndarray
    cavity1: np.ndarray
    mode2: np.ndarray
    port2: np.ndarray
    final: DiodeState = field(repr=False, default=None)
    norm_drift: float = 0.0
    quadrature_step: float = 0.0  # h of the memory-kernel solve
    quadrature_steps: int = 0  # its steps n, on the grid points 0..n
    secular_iterations: int = 0  # the most steps a root of C2 took
    bath: _BathChannels = field(repr=False, default=None)  # the classes as M channels, U


def _check_bandwidth(grid: ContinuumGrid, pulse: Pulse) -> None:
    if pulse.kind in ("gaussian", "exponential") and pulse.bandwidth > grid.delta_max / 5.0:
        raise ConfigurationError(
            f"pulse bandwidth {pulse.bandwidth:.3g} exceeds delta_max/5 = "
            f"{grid.delta_max / 5.0:.3g}; widen the grid or lengthen the pulse"
        )


def _check_window(grid: ContinuumGrid, t_final: float, label: str) -> None:
    if grid.recurrence_time <= t_final:
        raise ConfigurationError(
            f"{label} comb recurrence {grid.recurrence_time:.4g} is inside the "
            f"simulation window {t_final:.4g}; increase n_q or decrease delta_max"
        )


def _generator_norm(grid1: ContinuumGrid, c2: _Eigensystem, spec: ReservoirSpec) -> float:
    """2-norm bound of the co-rotating generator: its block-diagonal part, where
    class l holds C2 (eigensystem ``c2``) shifted by -w_l, plus the cavity-1 star."""
    blocks = max(np.max(np.abs(grid1.detunings())),
                 np.max(np.abs(c2.roots)) + np.max(np.abs(spec.frequencies())))
    return float(blocks + math.sqrt(grid1.n_q * grid1.kappa**2 + spec.f * spec.coupling_sq))


# Gauss-Legendre rule of order 8 on [0, 1], from the positive nodes and their
# weights on [-1, 1] (Abramowitz & Stegun, Table 25.4)
_GL_X = np.array([0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706])
_NODES = 0.5 + 0.5 * np.concatenate((-_GL_X[::-1], _GL_X))
_NODE_WEIGHTS = 0.5 * np.concatenate((_GL_W[::-1], _GL_W))
# Gregory end corrections of order 8: int_0^n u(x) dx = sum_m (1 + a_m + a_(n-m)) u(m)
# up to the eighth derivative of u, with a_j = 0 for j >= 8; exact for degree 7 once n >= 7
_GREGORY = np.array([-2558783, 1908311, -2696283, 2899075,
                     -2134045, 1012293, -278921, 33953]) / 3628800
_ORDER = _GREGORY.size
_STENCIL = 8  # grid points that interpolate a drive around a step
_STEP_NORM = 0.15  # quadrature step times the generator norm bound
# a router file with 196,844 steps ran 3.7 s on a 2-core Xeon: 1.5 s in the kernel sums over
# the C2 roots, 1.4 s in the channels' product integrals and comb sums
_MAX_QUADRATURE_STEPS = 2 * 10**5
_START_ITERATIONS = 60  # 0.51^60 < 2^-53
_LEAF = 128  # steps of Q per Toeplitz product; 64 and 256 took 1.2 times as long on 20,504


def _lagrange(points: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Lagrange basis on ``points`` at ``s``: element (i, m) is l_m(s_i)."""
    out = np.ones((s.size, points.size))
    for m, pm in enumerate(points):
        for pj in points:
            if pj != pm:
                out[:, m] *= (s - pj) / (pm - pj)
    return out


def _stencil(i: int, n: int) -> int:
    """First of the ``_STENCIL`` grid points within 0..n around the step [i, i + 1]."""
    return min(max(i - _STENCIL // 2 + 1, 0), n - _STENCIL + 1)


# the Lagrange basis on the points 0..7 at the nodes of the steps [j, j + 1], j = 0..6, and
# int_0^j of the interpolant of u on those points, j = 0..7; row 7 is the Gregory rule
_START_BASIS = _lagrange(np.arange(_ORDER), (np.arange(_ORDER - 1)[:, None] + _NODES).ravel())
_START = np.cumsum(np.vstack([np.zeros(_ORDER), np.einsum(
    "i,jim->jm", _NODE_WEIGHTS, _START_BASIS.reshape(_ORDER - 1, _NODES.size, _ORDER))]), axis=0)


# A return function f enters as I_J = int_0^J f((J - s) h) u(s) ds over the interpolant of
# its drive u: the step i ends m = J - 1 - i steps before J, and its node 1 - x sits at the
# lag (m + x) h.  The unclamped stencil of step i starts _REACH points before it.
_REACH = _STENCIL // 2 - 1
_STEP_BASIS = _lagrange(np.arange(_STENCIL) - _REACH, 1.0 - _NODES)  # (node, point)
# u past n from the polynomial through its last 8 points: with these 3 ghosts the unclamped
# stencils of the last steps give their clamped interpolant
_GHOSTS = _lagrange(np.arange(_STENCIL), np.arange(_STENCIL, _STENCIL + _REACH))


class _ProductRule:
    """I_J = h int_0^J f((J - s) h) u(s) ds, J = 0..n, over the interpolant of u on the
    stencil of each step by the Gauss-Legendre rule (Hairer, Lubich & Schlichte, SIAM J.
    Sci. Stat. Comput. 6, 532, 1985), from f at the node lags (m + x) h, m = -3..n + 3,
    zero below 0 (``lagged``).  Unclamped stencils give u_j a weight by J - j: one FFT
    convolution with the folded kernel, u extended past n by its ghosts.  The edge term
    puts the true steps 0..2 in place of the kernel's and takes out its steps before 0.
    """

    def __init__(self, lagged: np.ndarray, h: float):
        n, weights = lagged.shape[1] - 2 * _REACH - 1, h * _NODE_WEIGHTS
        kernel = np.zeros(n + _REACH + 1, dtype=complex)  # u_j's weight in I_J at J - j + 3
        for p in range(_STENCIL):
            kernel[_STENCIL - 1 - p:] += np.einsum("g,gm->m", weights * _STEP_BASIS[:, p],
                                                   lagged[:, _REACH:n + p])
        # [r, g, j]: the basis of the step i = 2 - r at its node g on the points j = 0..7 (its
        # clamped stencil for i >= 0, none for i < 0) less the unclamped one the kernel gives it
        edge = np.zeros((2 * _REACH + 1, _NODES.size, _ORDER))
        for r, i in enumerate(range(_REACH - 1, -_REACH - 2, -1)):
            if i >= 0:
                edge[r] = _lagrange(np.arange(_ORDER) - i, 1.0 - _NODES)
            lo = max(i - _REACH, 0)
            edge[r, :, lo:i + _STENCIL - _REACH] -= _STEP_BASIS[:, lo - i + _REACH:]
        self.lagged, self.edge = lagged, weights[:, None] * edge
        self.spectrum = np.fft.fft(kernel, fft_size(2 * n + _REACH + 1))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        x = np.zeros(self.spectrum.size, dtype=complex)
        x[:u.size + _REACH] = np.append(u, np.einsum("kj,j->k", _GHOSTS, u[-_STENCIL:]))
        np.fft.fft(x, out=x)
        x *= self.spectrum
        out = np.einsum("gjr,rg->j", sliding_window_view(self.lagged, 2 * _REACH + 1, axis=1),
                        np.einsum("rgj,j->rg", self.edge, u[:_ORDER]))
        out += np.fft.ifft(x, out=x)[_REACH:u.size + _REACH]
        return out


class _Marks:
    """The sample marks on the quadrature grid, the last at the time ``end``: grid points
    but for the last, J + frac, reached over the interpolant on the stencil of J."""

    def __init__(self, marks: list, n: int, h: float, end: float):
        self.inner, self.last = np.array(marks[:-1], dtype=int), math.floor(marks[-1])
        self.frac, first = marks[-1] - self.last, _stencil(self.last, n)
        self.stencil = slice(first, first + _STENCIL)
        # the basis at J + frac, then at the nodes of [J, J + frac]
        self.basis = _lagrange(np.arange(_STENCIL) + first - self.last,
                               self.frac * np.append(1.0, _NODES))
        self.h, self.end = h, end

    def values(self, v: np.ndarray) -> np.ndarray:
        """v at the marks, from v on the grid."""
        return np.append(v[self.inner], np.einsum("p,p->", self.basis[0], v[self.stencil]))

    def integrals(self, f: np.ndarray) -> np.ndarray:
        """int_0^t f at the marks t: start rows, then Gregory, interpolated at the last."""
        out = np.cumsum(f)
        out[_ORDER:] += np.einsum("i,i->", _GREGORY, f[:_ORDER]) + np.einsum(
            "ji,i->j", sliding_window_view(f, _ORDER)[1:], _GREGORY[::-1])
        out[:_ORDER] = np.einsum("jm,m->j", _START, f[:_ORDER])
        return self.values(self.h * out)

    def comb(self, grid: ContinuumGrid, shift: float, v: np.ndarray) -> np.ndarray:
        """int_0^T exp(-i (d_q - shift)(T - s)) v(s) ds for the modes d_q of ``grid``: the
        weights to J in one ``comb_sum``, then the Gauss-Legendre rule on [J, T]."""
        w = _START[self.last] if self.last < _ORDER else np.ones(self.last + 1)
        if self.last >= _ORDER:
            w[:_ORDER] += _GREGORY
            w[-_ORDER:] += _GREGORY[::-1]
        weights = v[:w.size] * w
        weights *= self.h
        freqs, step = grid.detunings() - shift, self.frac * self.h
        at_nodes = step * _NODE_WEIGHTS * np.einsum("gp,p->g", self.basis[1:], v[self.stencil])
        return (comb_sum(-self.end, self.h, weights, freqs[0], grid.spacing, grid.n_q)
                + np.einsum("qg,g->q", np.exp(-1j * np.outer(freqs, (1.0 - _NODES) * step)),
                            at_nodes))


def _quadrature_grid(grid1: ContinuumGrid, c2: _Eigensystem, spec: ReservoirSpec,
                     t_final: float, dt: float):
    """Sample steps of ``dt`` and the quadrature grid of the memory-kernel solve.

    Returns the sample steps, the resolved dt, the sample times in units of
    the quadrature step h, h and the last grid point n.  Fails when n would
    exceed ``_MAX_QUADRATURE_STEPS``.
    """
    nsteps, dt = steps_for(t_final, dt)
    stride = max(1, int(round(0.1 / dt)))
    steps = sample_steps(nsteps, stride)
    norm = _generator_norm(grid1, c2, spec)
    cap = _MAX_QUADRATURE_STEPS
    if not t_final * norm <= _STEP_NORM * cap:  # also catches an overflow to inf
        raise ConfigurationError(f"generator norm {norm:.3g} needs at least "
                                 f"{t_final * norm / _STEP_NORM:.3g} quadrature steps over "
                                 f"t_final, more than {cap:.0e}")
    sub = math.ceil(stride * dt * norm / _STEP_NORM)
    h = stride * dt / sub
    marks = [s // stride * sub + s % stride * sub / stride for s in steps]
    n = max(math.ceil(marks[-1]) + _STENCIL // 2, _ORDER)
    if n > cap:
        raise ConfigurationError(f"t_final = {t_final:.3g} at run.dt = {dt:.3g} needs {n} "
                                 f"quadrature steps, more than {cap:.0e}")
    return steps, dt, marks, h, n


_SERIES_TOL = 2.0**-60  # first omitted Taylor term of a class phase, relative to 1
# Largest x = max|w_l - w_bar| T / 2 that keeps the channels: the partial sums of the
# series grow to e^x, so x = 2 costs under one digit
_MAX_SERIES_ARG = 2.0


def _orthonormalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = U R for a tall a (f, M): U with orthonormal columns, R upper triangular.

    Householder reflections (Golub & Van Loan, Matrix Computations, 4th ed.,
    sec. 5.2.2) in einsum, without LAPACK; they are backward stable however fast
    the columns of a decay.
    """
    f, m = a.shape
    r = a.copy()
    reflectors = []
    for k in range(m):
        v = r[k:, k].copy()
        sign = v[0] / abs(v[0]) if v[0] != 0 else 1.0
        v[0] += sign * math.sqrt(np.einsum("i,i->", v.view(float), v.view(float)))
        norm = math.sqrt(np.einsum("i,i->", v.view(float), v.view(float)))
        if norm > 0:
            v /= norm
            r[k:, k:] -= 2.0 * v[:, None] * np.einsum("i,ij->j", v.conj(), r[k:, k:])
        reflectors.append(v)
    u = np.eye(f, m, dtype=complex)
    for k in range(m - 1, -1, -1):
        v = reflectors[k]
        u[k:] -= 2.0 * v[:, None] * np.einsum("i,ij->j", v.conj(), u[k:])
    return u, np.triu(r[:m])


@dataclass(frozen=True)
class _BathChannels:
    """The reservoir classes of DiodeFull as bath channels at the band centre w_bar.

    Class l holds the C2 eigenmodes at lambda_k - w_l.  Its co-rotating amplitudes
    are b_l = exp(i dw_l t) sum_n U_ln y_n, dw_l = w_l - w_bar, where channel n holds
    modes at lambda_k - w_bar driven by phi_n(s) Q(s) with sum_n U_ln phi_n(s) =
    exp(-i dw_l s), and U has orthonormal columns.  So the class population is the
    channels' norm, and the cavity-2 population that of rho_n = sum_k V_0k y_nk.

    Where channels pay, they come from the Taylor series of that phase in
    u = 2 s / T - 1 on [0, T], exp(-i dw_l s) = sum_m A_lm u^m with A_lm =
    exp(-i dw_l T/2) (-i dw_l T/2)^m / m!, cut after the first m with x^m / m! <=
    2^-60, x = max|dw_l| T / 2: with A = U R, phi_n = sum_m R_nm u^m.  Otherwise
    the channels are the classes themselves: U = I and phi_l(s) = exp(-i dw_l s).
    """

    om: np.ndarray  # class frequencies w_l
    centre: float  # w_bar
    span: float  # T
    basis: np.ndarray | None  # U, (f, M); None for the classes
    mix: np.ndarray | None  # R, (M, M)
    series: np.ndarray | None  # sum_l conj(A_lm), the Taylor coefficients of W

    @classmethod
    def build(cls, om: np.ndarray, span: float) -> "_BathChannels":
        """Channels where they pay: fewer than the classes, and x small enough that
        the series does not cancel; the classes otherwise."""
        centre = 0.5 * (float(np.max(om)) + float(np.min(om)))
        dw = om - centre
        x = float(np.max(np.abs(dw))) * 0.5 * span
        m, term = 0, 1.0
        while term > _SERIES_TOL and m < om.size and x <= _MAX_SERIES_ARG:
            m += 1
            term *= x / m
        # a channel costs a class in the sample loop, and the class drive's exponentials
        # and exp_sum in W cost more than the powers and Horner's rule: on the router file
        # of the benchmark at f = 20 (2-core Xeon), M = 12 and 18 channels took 0.67 and
        # 1.01 times as long as the classes
        if term > _SERIES_TOL or m == om.size:
            return cls(om, centre, span, None, None, None)
        a = np.empty((om.size, m), dtype=complex)
        a[:, 0] = np.exp(-0.5j * span * dw)
        for k in range(1, m):
            a[:, k] = a[:, k - 1] * (-0.5j * span * dw) / k
        return cls(om, centre, span, *_orthonormalize(a), np.sum(a.conj(), axis=0))

    @property
    def channels(self) -> int:
        return self.om.size if self.basis is None else self.basis.shape[1]

    def power_sum(self, coefs: np.ndarray, s: np.ndarray) -> np.ndarray:
        """sum_m coefs_m u^m at u = 2 s / T - 1, by Horner's rule."""
        u = 2.0 * s / self.span - 1.0
        out = np.full(s.shape, coefs[-1])
        for c in coefs[-2::-1]:
            out = out * u + c
        return out

    def drive(self, s: np.ndarray, n: int) -> np.ndarray:
        """phi_n(s) of channel n."""
        if self.basis is None:
            return np.exp(-1j * s * (self.om[n] - self.centre))
        return self.power_sum(self.mix[n], s)

    def classes(self, y: np.ndarray) -> np.ndarray:
        """sum_n U_ln y_n..., channel n along the first axis of ``y``."""
        return y if self.basis is None else np.einsum("ln,n...->l...", self.basis, y)

    def w_sum(self, x: float, h: float, n: int) -> np.ndarray:
        """W(tau) = sum_l exp(i w_l tau) at tau = (j + x) h, j = 0..n-1: Horner's rule on
        exp(i w_bar tau) sum_m (sum_l conj(A_lm)) u^m for channels, else ``exp_sum``."""
        if self.basis is None:
            return exp_sum(self.om, np.ones(self.om.size), x * h, h, n)
        tau = (np.arange(n) + x) * h
        return np.exp(1j * self.centre * tau) * self.power_sum(self.series, tau)


def _mode_integrals(grid: ContinuumGrid, weights: np.ndarray, h: float, n: int) -> np.ndarray:
    """sum_q weights_q int_0^t exp(-i d_q s) ds at t = j h, j = 0..n, over the comb d of
    ``grid``, for each row of ``weights``.

    Each mode integrates to c_q (1 - exp(-i d_q t)) with c_q = -i weights_q / d_q,
    so this is sum_q c_q minus one ``comb_sum``; a mode at d_q = 0 gives weights_q t.
    The constant pairs mode q with mode m - 1 - q, which cancels exactly on a comb
    symmetric about 0.
    """
    freqs = grid.detunings()
    zero = freqs == 0
    c = np.where(zero, 0.0, -1j * weights / np.where(zero, 1.0, freqs))
    half = freqs.size // 2
    const = (np.sum(c[..., :half] + c[..., ::-1][..., :half], axis=-1)
             + np.sum(c[..., half:freqs.size - half], axis=-1))
    out = const[..., None] - comb_sum(0.5 * (grid.n_q - 1) * grid.spacing, -grid.spacing, c,
                                      0.0, h, n + 1)
    out += np.sum(weights[..., zero], axis=-1)[..., None] * (np.arange(n + 1) * h)
    out[..., 0] = 0.0
    return out


def _kernel_integrals(grid1: ContinuumGrid, spec: ReservoirSpec, p0: np.ndarray,
                      c2: _Eigensystem, bath: _BathChannels, h: float,
                      n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int_0^t F and int_0^t K at t = j h, j = 0..n: int F and the port-1 part of K
    in closed form, |g|^2 G W from the Gauss-Legendre rule in each step; and from G
    there the ``_ProductRule`` samples of the bath channels' exp(i w_bar tau) G(tau)."""
    step = np.zeros(n, dtype=complex)
    # G at (j + x) h, j = -3..n + 3, for every node x: one sum, the node's phase exp(-i
    # lambda_k x h) on the weights; the lags below 0 are zeroed
    at_nodes = c2.inv_norm**2 * np.exp(-1j * np.outer(_NODES * h, c2.roots))
    lagged = exp_sum(-c2.roots, at_nodes, -_REACH * h, h, n + 2 * _REACH + 1)
    lagged[:, :_REACH] = 0.0
    for g, (x, w) in enumerate(zip(_NODES, _NODE_WEIGHTS)):
        samples = lagged[g, _REACH:]
        step += w * (samples[:n] * bath.w_sum(x, h, n))
        samples *= np.exp(1j * bath.centre * (np.arange(n + _REACH + 1) + x) * h)
    # after the sums over the roots, whose temporaries would otherwise meet these
    int_f, kc = _mode_integrals(grid1, np.array([-1j * grid1.kappa * p0, np.ones(grid1.n_q)]),
                                h, n)
    kc *= grid1.kappa**2
    kc[1:] += spec.coupling_sq * np.cumsum(h * step)
    return int_f, kc, lagged


def _solve_cavity(int_f: np.ndarray, kc: np.ndarray, h: float) -> np.ndarray:
    """Q_j = int_f_j - h sum_m w_jm kc_(j-m) Q_m on the grid, with Q_0 = 0.

    Q_1..Q_7 solve one linear system by fixed-point iteration, each integral
    taken over the degree-7 interpolant through Q_0..Q_7 (kc at negative lags
    is -conj(kc)).  From j = 8 on, with the Gregory weights and kc_0 = 0, Q
    solves Q_j + h sum_(8 <= m < j) kmod_(j-m) Q_m = int_f_j - h (start_j + sum_(m < 8)
    kmod_(j-m) Q_m), a unit lower-triangular Toeplitz system.  It is solved as
    an online convolution (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
    Comput. 6, 532, 1985) on leaves of ``_LEAF`` steps, in order.  A leaf is
    one product with the inverse of I + h T, T the Toeplitz matrix of
    kmod_1..kmod_(L-1), which every leaf shares.  After leaf b (from 1), the
    aligned block of 2^k leaves that ends there and is the left half of one
    of 2^(k+1), 2^k the largest power of 2 dividing b, adds its part of the
    sum to the right half by one FFT convolution.  O(n log^2 n) in all.
    """
    n = int_f.size - 1
    q = np.zeros(n + 1, dtype=complex)
    j = np.arange(1, _ORDER)
    lag = j[:, None] - j[None, :]
    kl = h * _START[1:, 1:] * np.where(lag >= 0, kc[np.abs(lag)], -np.conj(kc[np.abs(lag)]))
    # |kc(tau)| <= tau norm^2, so the row sums of |kl| stay below 22.4 (h norm)^2 <= 0.51:
    # each iteration at least halves the error
    for _ in range(_START_ITERATIONS):
        q[1:_ORDER] = int_f[1:_ORDER] - np.einsum("jm,m->j", kl, q[1:_ORDER])
    # the weight 1 + a_(j-m) rides on kc_(j-m), the weight a_m on Q_m for m < 8; kmod is
    # zero past n, for the padded spectra and the leaf of a short grid
    kmod = np.zeros(max(fft_size(n), _LEAF) + 1, dtype=complex)
    kmod[:n + 1] = kc
    kmod[1:_ORDER] *= 1.0 + _GREGORY[1:]
    # acc_j collects the memory terms of Q_j from the Q solved so far: first the start
    # terms sum_(m < 8) a_m Q_m kc_(j-m), then the kmod terms of Q_1..Q_7
    acc = np.zeros(n + 1, dtype=complex)
    acc[_ORDER:] = np.einsum("i,ji->j", (_GREGORY * q[:_ORDER])[::-1],
                             sliding_window_view(kc[1:], _ORDER))
    spectra = {}  # of kmod_1.., by FFT length

    def carry(lo, mid, hi):
        """acc_j += sum_(lo <= m < mid) kmod_(j-m) Q_m for mid <= j < hi, by one FFT
        convolution of a length that holds the lags 1..hi - lo - 1 once."""
        size = fft_size(hi - lo - 1)
        if size not in spectra:
            spectra[size] = np.fft.fft(kmod[1:size + 1])
        x = np.fft.fft(q[lo:mid], size)
        x *= spectra[size]
        acc[mid:hi] += np.fft.ifft(x, out=x)[mid - lo - 1:hi - lo - 1]

    carry(0, _ORDER, n + 1)
    # the first column of (I + h T)^-1: the reciprocal of the series 1 + h sum_d kmod_d z^d
    inv = np.zeros(_LEAF, dtype=complex)
    inv[0] = 1.0
    for d in range(1, _LEAF):
        inv[d] = -h * np.einsum("i,i->", kmod[1:d + 1], inv[d - 1::-1])
    # leaf_ij = inv_(i-j) for i >= j, else 0
    leaf = np.ascontiguousarray(sliding_window_view(
        np.concatenate((np.zeros(_LEAF - 1), inv)), _LEAF)[:, ::-1])

    for b, lo in enumerate(range(_ORDER, n + 1, _LEAF), 1):
        hi = min(lo + _LEAF, n + 1)
        q[lo:hi] = np.einsum("ij,j->i", leaf[:hi - lo, :hi - lo], int_f[lo:hi] - h * acc[lo:hi])
        if hi <= n:
            # with b = 2^k times an odd number, leaf b ends a left half of 2^k leaves
            width = _LEAF * (b & -b)
            carry(hi - width, hi, min(hi + width, n + 1))
    return q


def evolve_full(
    grid1: ContinuumGrid,
    grid2: ContinuumGrid,
    spec: ReservoirSpec,
    p0: np.ndarray,
    t_final: float,
    dt: float = 0.02,
) -> DiodeTrajectory:
    """The full four-port system from its memory kernel, photon in port 1.

    The cavity amplitudes start empty.  The populations are recorded on
    the grid t = j dt every max(1, round(0.1 / dt)) steps and at t_final.
    Q solves the Volterra equation of the module docstring on a grid of step
    h = (sample interval) / ceil((sample interval) norm / 0.15); the rest
    follows from Q through the return functions G and D.
    """
    p0 = np.asarray(check_sequence("p0", p0, size=grid1.n_q), dtype=complex)
    _check_window(grid1, t_final, "port-1")
    _check_window(grid2, t_final, "port-2")
    c2 = grid2.cavity
    steps, dt, marks, h, n = _quadrature_grid(grid1, c2, spec, t_final, dt)
    bath = _BathChannels.build(spec.frequencies(), t_final)
    int_f, kc, lagged = _kernel_integrals(grid1, spec, p0, c2, bath, h, n)
    q = _solve_cavity(int_f, kc, h)
    del int_f, kc
    bath_return, marks = _ProductRule(lagged, h), _Marks(marks, n, h, t_final)

    pops = np.zeros((4, len(steps) + 1))
    q_end = marks.values(q)
    pops[1, 1:] = np.abs(q_end) ** 2
    # channel m's cavity-2 amplitude rho_m = i conj(g) int G(t - s) u_m(s) ds, u_m = phi_m Q,
    # in the frame of w_bar; its bath norm N_m has the flux 2 Re(i conj(g) u_m conj(rho_m)),
    # and its port-2 amplitudes are -i k2 int exp(-i (d2_q - w_bar)(T - s)) rho_m(s) ds
    drive = 1j * np.conj(complex(spec.coupling))
    r, s = np.empty(bath.channels, complex), np.empty((bath.channels, grid2.n_q), complex)
    for m in range(bath.channels):
        u = bath.drive(np.arange(n + 1) * h, m) * q
        rho = bath_return(u)
        rho *= drive
        at_marks = marks.values(rho)
        pops[2, 1:] += np.abs(at_marks) ** 2
        pops[3, 1:] += marks.integrals(2.0 * np.real(drive * u * np.conj(rho)))
        del u  # few arrays of the grid's length while the comb sum runs
        r[m], s[m] = at_marks[-1], -1j * grid2.kappa * marks.comb(grid2, bath.centre, rho)
    pops[3] -= pops[2]
    del lagged, bath_return  # one table of samples at a time
    # port 1 has the flux 2 Re(-i k1 Q conj(sigma)), sigma = sum_q P_q = sum_q p0_q exp(-i d1_q t)
    # - i k1 int D(t - s) Q(s) ds with the comb's return function D(tau) = sum_q exp(-i d1_q tau)
    k1, f0, df = grid1.kappa, 0.5 * (grid1.n_q - 1) * grid1.spacing, -grid1.spacing
    lagged = np.zeros((_NODES.size, n + 2 * _REACH + 1), dtype=complex)
    for g, x in enumerate(_NODES):
        lagged[g, _REACH:] = comb_sum(f0, df, np.ones(grid1.n_q), x * h, h, n + _REACH + 1)
    sigma = comb_sum(f0, df, p0, 0.0, h, n + 1) - 1j * k1 * _ProductRule(lagged, h)(q)
    pops[0, 0] = np.sum(np.abs(p0) ** 2)
    pops[0, 1:] = pops[0, 0] + marks.integrals(2.0 * np.real(-1j * k1 * q * np.conj(sigma)))
    p = np.exp(-1j * grid1.detunings() * t_final) * p0 - 1j * k1 * marks.comb(grid1, 0.0, q)

    lab = np.exp(-1j * bath.centre * t_final)
    final = DiodeState(p=p, q=complex(q_end[-1]), r=lab * r, s=lab * s, t=t_final)
    norm = (np.sum(np.abs(final.p) ** 2) + abs(final.q) ** 2 + np.sum(np.abs(final.r) ** 2)
            + np.sum(np.abs(final.s) ** 2))
    return DiodeTrajectory(
        grid2=grid2,
        times=np.array([0] + steps) * dt,
        port1=pops[0],
        cavity1=pops[1],
        mode2=pops[2],
        port2=pops[3],
        final=final,
        norm_drift=abs(float(norm) - float(np.sum(np.abs(p0) ** 2))),
        quadrature_step=h,
        quadrature_steps=n,
        secular_iterations=c2.iterations,
        bath=bath,
    )


@dataclass
class MarkovResult:
    """Reduced-model time series and their running integrals."""

    times: np.ndarray
    f_amp: np.ndarray
    q: np.ndarray
    phi_in: np.ndarray
    phi_out1: np.ndarray
    rho_out: np.ndarray
    phi_out2: np.ndarray
    leakage: float
    yield_convolved: float
    yield_factorized: float


def _phi_functions(z: float) -> tuple[float, float, float]:
    """phi_1, phi_2, phi_3 of exponential integrators at real z <= 0.

    phi_k(z) = sum_j z^j / (j + k)!; the recurrence
    phi_{k+1} = (phi_k - 1/k!) / z is used where it does not cancel.
    """
    if abs(z) < 0.5:
        return tuple(
            sum(z**j / math.factorial(j + k) for j in range(18)) for k in (1, 2, 3)
        )
    p1 = math.expm1(z) / z
    p2 = (p1 - 1.0) / z
    return p1, p2, (p2 - 0.5) / z


def _filter_weights(rate: float, dt: float):
    """Exact weights of int_0^h exp(-rate (h - s)) u(t_n + s) ds for u
    interpolated quadratically through s = 0, dt/2, dt; for h = dt and
    h = dt/2, each with its decay factor exp(-rate h)."""
    p1, p2, p3 = _phi_functions(-rate * dt)
    full = dt * np.array([p1 - 3.0 * p2 + 4.0 * p3, 4.0 * p2 - 8.0 * p3, 4.0 * p3 - p2])
    q1, q2, q3 = _phi_functions(-0.5 * rate * dt)
    half = 0.5 * dt * np.array([q1 - 1.5 * q2 + q3, 2.0 * q2 - 2.0 * q3, q3 - 0.5 * q2])
    return math.exp(-rate * dt), full, math.exp(-0.5 * rate * dt), half


def _linear_filter(rate: float, dt: float, u: np.ndarray, u_mid: np.ndarray):
    """y' = -rate y + u(t), y(0) = 0, on the grid and at the step midpoints.  The step
    recurrence y_(j+1) = decay y_j + drive_j is a Hillis-Steele doubling scan (Commun. ACM
    29, 1170, 1986): after the pass of span s, y_j sums the last 2 s drives."""
    decay, w, decay_half, v = _filter_weights(rate, dt)
    y = np.concatenate(([0.0], w[0] * u[:-1] + w[1] * u_mid + w[2] * u[1:]))
    span = 1
    while span < y.size and decay**span > 0:
        y[span:] += decay**span * y[:-span]
        span *= 2
    y_mid = decay_half * y[:-1] + v[0] * u[:-1] + v[1] * u_mid + v[2] * u[1:]
    return y, y_mid


def _check_rates(gamma: float, gamma1: float, gamma2: float) -> None:
    """Positive, finite Markov rates whose products stay finite; an overflow names the largest."""
    g, g1, g2 = map(check_positive, ("gamma", "gamma1", "gamma2"), (gamma, gamma1, gamma2))
    if not (math.isfinite(g1 * g2 * g) and math.isfinite(g1 * g)):
        raise ConfigurationError(f"the Markov rate products overflow (gamma = {g:.3g}, "
                                 f"gamma1 = {g1:.3g}, gamma2 = {g2:.3g})",
                                 arg=max(zip((g, g1, g2), ("gamma", "gamma1", "gamma2")))[1])


def _check_scan(gamma: float, gamma2: float, ratios: Sequence[float]) -> None:
    """At least one ratio, each positive and finite, and the Markov rates at gamma1 =
    ratio gamma that ``evolve_markov`` takes."""
    for ratio in check_sequence("ratios", ratios, least=1):
        _check_rates(gamma, check_positive("ratios", ratio) * gamma, gamma2)


def _simpson(g: np.ndarray, g_mid: np.ndarray, dt: float) -> float:
    return float(dt / 6.0 * (g[0] + g[-1] + 2.0 * np.sum(g[1:-1]) + 4.0 * np.sum(g_mid)))


def evolve_markov(
    gamma: float,
    gamma1: float,
    gamma2: float,
    pulse: Pulse,
    t_final: float,
    dt: float = 0.02,
) -> MarkovResult:
    """Markov-reduced port dynamics on the grid t = j dt.

    F and rho_out come from the exponential integrator of the module
    docstring (stable for any rate times dt, no stepping of a right-hand
    side); leakage and yields are quadratures on the same grid.
    """
    _check_rates(gamma, gamma1, gamma2)
    nsteps, dt = steps_for(t_final, dt)
    times = np.arange(nsteps + 1) * dt
    with np.errstate(over="ignore", invalid="ignore"):  # a pulse past the float range fails below
        phi_in = pulse.amplitude(times)
        phi_mid = pulse.amplitude(times[:-1] + 0.5 * dt)
        f_amp, f_mid = _linear_filter(0.5 * (gamma + gamma1), dt, phi_in, phi_mid)
        f_abs2, f_mid_abs2 = np.abs(f_amp) ** 2, np.abs(f_mid) ** 2
        rho, _ = _linear_filter(gamma2, dt, f_abs2, f_mid_abs2)
        rho *= gamma1 * gamma2 * gamma

        phi_out1 = phi_in - gamma1 * f_amp
        leakage = _simpson(np.abs(phi_out1) ** 2, np.abs(phi_mid - gamma1 * f_mid) ** 2, dt)
        factorized = gamma1 * gamma * _simpson(f_abs2, f_mid_abs2, dt)
        res = MarkovResult(
            times=times,
            f_amp=f_amp,
            q=-1j * np.sqrt(gamma1) * f_amp,
            phi_in=phi_in,
            phi_out1=phi_out1,
            rho_out=rho,
            phi_out2=np.sqrt(gamma1 * gamma) * f_amp,
            leakage=leakage,
            yield_convolved=factorized - float(rho[-1]) / gamma2,
            yield_factorized=factorized,
        )
    if not all(np.all(np.isfinite(x)) for x in (res.rho_out, res.leakage, res.yield_convolved)):
        raise ConfigurationError("the Markov run leaves the float range")
    return res


@dataclass
class ReflectionResult:
    times: np.ndarray
    out_field: np.ndarray
    in_field: np.ndarray
    out_norm: float
    delay: float
    secular_iterations: int = 0  # the most steps a root of the comb's arrowhead took


def intensity_centroid(times: np.ndarray, field: np.ndarray) -> float:
    w = np.abs(np.asarray(field)) ** 2
    total = np.trapezoid(w, times)
    if total <= 0:
        raise InvalidInput("field carries no intensity")
    return float(np.trapezoid(times * w, times) / total)


def _reflection_samples(t_final: float) -> tuple[float, int]:
    """Step and count of the reflected fields' samples before t_final, at most 2^26.

    The step must be a normal double: a subnormal one holds too few bits for
    the sample times, and the intensity integrals over it underflow to 0.
    """
    check_positive("t_final", t_final, ConfigurationError)
    step = min(0.05, t_final / 2000.0)
    if step < np.finfo(float).tiny:
        raise ConfigurationError(f"t_final = {t_final:.3g} puts the field samples {step:.3g} "
                                 f"apart, below the smallest normal double")
    if not t_final / step <= _MAX_COUNT:
        raise ConfigurationError(f"t_final = {t_final:.3g} needs over 2^26 samples of {step:.3g}")
    return step, math.ceil(t_final / step)


def reflect_port2(grid2: ContinuumGrid, s0: np.ndarray, t_final: float) -> ReflectionResult:
    """Single photon in port 2 bouncing off the empty cavity.

    ``s0`` holds its comb amplitudes at t = 0 (``project_pulse``).  With
    the reservoir in its ground state nothing couples mode 2 to mode 1, so
    the dynamics involves only the port-2 comb S_q and the bare cavity
    mode C, which loses photons into it at ``grid2.gamma``:

        dS_q/dt = -i d_q S_q - i kappa C,   dC/dt = -i kappa sum_q S_q.

    With C -> -C and the comb reversed, S'_q = S_{n-1-q}, this is dy/dt =
    i K y for the arrowhead K with poles -d_{n-1-q} = d_q and border kappa:
    C2 itself.  So the state at t_final comes from C2's closed-form
    eigenpairs (``grid2.cavity``) without stepping: (0, S') written into
    their basis (``coefficients``), its comb part read back at t_final
    (``lower_at``) and reversed.  Both products with the eigenvectors' Cauchy
    matrix run in O(n_q log n_q) (``_integrate._CombCauchy``), on node spectra
    that the cavity keeps.  The output keeps unit norm; the delay is
    the centroid shift of the reflected intensity against free propagation.
    """
    check_sequence("s0", s0, size=grid2.n_q)
    step, n = _reflection_samples(t_final)
    _check_window(grid2, t_final, "port-2")
    c2 = grid2.cavity
    # a copy: numpy sums a reversed view in memory order, which would change out_norm's bits
    s_final = c2.lower_at(c2.coefficients(0.0, s0[::-1]), t_final)[::-1].copy()

    ts = np.arange(n) * step
    out_field = _comb_field(grid2, s_final, -t_final, step, n)
    in_field = _comb_field(grid2, s0, 0.0, step, n)
    out_norm = float(np.sum(np.abs(s_final) ** 2))
    delay = intensity_centroid(ts, out_field) - intensity_centroid(ts, in_field)
    return ReflectionResult(times=ts, out_field=out_field, in_field=in_field, out_norm=out_norm,
                            delay=delay, secular_iterations=c2.iterations)


@dataclass
class DecompositionResult:
    times: np.ndarray
    channel_fields: np.ndarray  # (M, n_t); class l's field is bath.classes(channel_fields)[l]
    class_weights: np.ndarray
    rho_out: np.ndarray
    min_overlap: float
    weighted_purity: float
    completeness: float


_SAMPLE_SPACING = 0.1  # time grid of the decomposed output fields
_WEIGHT_FLOOR = 1e-3  # classes below this share of the leading weight are not compared


def port2_output_decomposition(traj: DiodeTrajectory) -> DecompositionResult:
    """The port-2 output of each reservoir class, from the final channel amplitudes.

    Each reservoir class tags an orthogonal output channel; its temporal
    mode is the comb resynthesis of its final S amplitudes at the cavity
    position, sum_n U_ln Phi_n over the M bath-channel fields Phi_n, all from
    one ``comb_sum``.  Only the channel fields are kept: the class Gram matrix
    is U G U^H from the channels' G.  Reports the class weights, rho_out(t) =
    sum_l |Phi_l(t)|^2 = sum_n |Phi_n(t)|^2, the minimum pairwise overlap of
    the normalized modes among classes above ``_WEIGHT_FLOOR`` of the leading
    weight, a weight-averaged purity, and the completeness check sum_l
    integral |Phi_l|^2 dt + residual populations.
    """
    final, bath = traj.final, traj.bath
    ts = np.arange(0.0, final.t, _SAMPLE_SPACING)
    channels = _comb_field(traj.grid2, final.s, -final.t, _SAMPLE_SPACING, ts.size)
    w = np.full(ts.size, _SAMPLE_SPACING)
    w[0] = w[-1] = 0.5 * _SAMPLE_SPACING
    # U G U^H = U (U G)^H, as G is Hermitian
    gram = bath.classes(bath.classes(np.einsum("mt,nt,t->mn", channels, channels.conj(), w))
                        .conj().T)
    norms_sq = np.real(np.diag(gram))
    safe = np.sqrt(np.where(norms_sq > 0, norms_sq, 1.0))
    overlaps = np.abs(gram) / np.outer(safe, safe)

    weights = norms_sq / max(np.sum(norms_sq), 1e-300)
    relevant = np.where(norms_sq >= _WEIGHT_FLOOR * np.max(norms_sq))[0]
    if relevant.size >= 2:
        sub = overlaps[np.ix_(relevant, relevant)]
        min_overlap = float(np.min(sub))
    else:
        min_overlap = 1.0
    wp = float(np.einsum("i,j,ij->", weights, weights, overlaps**2))

    residual = (
        np.sum(np.abs(final.p) ** 2) + abs(final.q) ** 2 + np.sum(np.abs(final.r) ** 2)
    )
    completeness = float(np.sum(norms_sq) + residual)
    return DecompositionResult(
        times=ts,
        channel_fields=channels,
        class_weights=weights,
        rho_out=np.sum(np.abs(channels) ** 2, axis=0),
        min_overlap=min_overlap,
        weighted_purity=wp,
        completeness=completeness,
    )


def impedance_scan(
    gamma: float,
    gamma2: float,
    pulse: Pulse,
    ratios: Sequence[float],
    t_final: float,
    dt: float = 0.02,
) -> list[tuple[float, float, float]]:
    """Port-1 leakage and port-2 yield against gamma1/gamma.

    Matching the input coupling to the transfer rate minimizes the
    reflected fraction; the minimum sits at ratio 1 for pulses much
    longer than the relaxation times.
    """
    _check_scan(gamma, gamma2, ratios)
    rows = []
    for ratio in ratios:
        res = evolve_markov(gamma, ratio * gamma, gamma2, pulse, t_final, dt)
        rows.append((float(ratio), res.leakage, res.yield_convolved))
    return rows
