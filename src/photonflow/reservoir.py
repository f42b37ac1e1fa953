"""Exact single-excitation dynamics over a discrete structured reservoir.

A single excitation shared between an upper cavity mode and f reservoir
classes at frequencies omega_l, all coupled with the same lumped
amplitude g_c.  In the interaction picture the amplitudes obey

    dc0/dt  = +i g_c       sum_l exp(+i omega_l t) c_l
    dc_l/dt = +i conj(g_c) exp(-i omega_l t) c0

which conserves the norm |c0|^2 + sum |c_l|^2 exactly.  The reservoir
response kernel is g(t) = |g_c|^2 sum_l exp(i omega_l t); for a dense
equidistant comb of half-width eps_max it acts as a delta function and
the survival decays at the golden-rule rate

    gamma = pi * f * |g_c|^2 / eps_max

valid before the comb recurrence at t_rec = pi * f / eps_max.

The module also implements repeated projective reservoir measurements
(decay freezing for short measurement periods on a flat spectrum, decay
acceleration for a spectrum detuned from the system) and the two-upper-
mode interference configuration, whose antisymmetric state is exactly
dark and whose symmetric state decays as one mode coupled with sqrt(2) g_c.

Propagation is exact, not stepped.  With g_c = |g_c| exp(i theta), the
amplitudes y = (c0, b_l) in the frame b_l = exp(i (theta + omega_l t)) c_l
obey dy/dt = i K y with the time-independent real-symmetric arrowhead
matrix

    K = [[0, |g_c| 1^T], [|g_c| 1, diag(omega_l)]]       (H = -K)

which ``_ExactPropagator`` diagonalizes in closed form (the roots of a
secular equation, ``_integrate._arrowhead_eigensystem``).  The survival
amplitude of the excited upper mode is c0(t) = sum_k w_k exp(i kappa_k t)
over the eigenvalues kappa_k, with weights w_k = 1 / (1 + |g_c|^2 sum_l
(kappa_k - omega_l)^-2).  A free run records c0 at every sample, and the
class amplitudes at its end when they are read.  The time step ``dt``
only sets the sampling grid, and no BLAS call is on the data path, so the
results do not depend on the BLAS thread count.  A spec keeps its
eigensystem (``propagator``, solved on first use), so a free run and a
Zeno scan of one spec solve the secular equation once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from ._integrate import _EPS, _MAX_STEPS, _arrowhead_eigensystem, exp_sum, steps_for
from .errors import (ConfigurationError, InvalidInput, check_count, check_finite, check_positive,
                     check_sequence)

__all__ = [
    "ReservoirSpec",
    "SingleExcitationState",
    "TwoUpperModeState",
    "DecayTrajectory",
    "ZenoResult",
    "markov_rate",
    "coupling_for_rate",
    "recurrence_time",
    "evolve_exact",
    "fit_decay_rate",
    "fit_decay_rate_or_nan",
    "zeno_evolve",
    "zeno_scan",
    "interference_evolve",
]

SPECTRA = ("equidistant", "lorentzian", "custom")


class _ExactPropagator:
    """exp(i K tau) for one upper mode coupled to classes at ``omegas``.

    K = [[0, |g| 1^T], [|g| 1, diag(omegas)]].  Classes of equal frequency
    are merged: with uniform coupling only their symmetric combination
    couples, with |g| sqrt(n), and the rest is dark.  Groups whose coupling
    is negligible against the spectral scale are deflated as dark too.
    Class amplitudes b_l here are in the frame where K does not depend on
    time; ``to_frame`` and ``classes_at`` convert from and to the
    interaction picture c_l = exp(-i (theta + omega_l t)) b_l, with theta
    the phase of g, and at t = 0 with real positive g the two coincide.
    """

    def __init__(self, omegas: np.ndarray, coupling: complex):
        om = np.asarray(omegas, dtype=float)
        g = abs(coupling)
        self.omegas = om
        self.gauge = np.exp(1j * np.angle(coupling))
        scale = max(float(np.max(np.abs(om))), g * np.sqrt(om.size))
        tol = 8.0 * _EPS * scale
        order = np.argsort(om, kind="stable")
        first = np.concatenate(([True], np.diff(om[order]) > tol))
        group = np.empty(om.size, dtype=int)
        group[order] = np.cumsum(first) - 1
        counts = np.bincount(group)
        z = g * np.sqrt(counts)
        coupled = z > tol
        column = np.cumsum(coupled) - 1
        self.column = np.where(coupled[group], column[group], -1)  # -1: dark class
        self.share = 1.0 / np.sqrt(counts[group])  # class share of its bright mode
        self.eig = _arrowhead_eigensystem(om[order][first][coupled], z[coupled])

    def to_frame(self, c: np.ndarray, t: float) -> np.ndarray:
        return self.gauge * np.exp(1j * self.omegas * t) * c

    def modes(self, c0: complex, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of (c0, b) on the eigenvectors, and the dark remainder of b."""
        eig = self.eig
        bright = np.zeros(eig.poles.size, dtype=complex)
        on = self.column >= 0
        np.add.at(bright, self.column[on], b[on] * self.share[on])
        dark = b.astype(complex)
        dark[on] -= bright[self.column[on]] * self.share[on]
        return eig.coefficients(c0, bright), dark

    def classes_at(self, coef: np.ndarray, dark: np.ndarray, tau: float, t: float) -> np.ndarray:
        """Interaction-picture class amplitudes c_l at tau after the start, time t."""
        bright = self.eig.lower_at(coef, tau)
        # the dark part is frozen in the interaction picture
        c = np.exp(-1j * self.omegas * (t - tau)) * dark
        on = self.column >= 0
        c[on] += np.exp(-1j * self.omegas[on] * t) * bright[self.column[on]] * self.share[on]
        return c / self.gauge


@dataclass(frozen=True)
class ReservoirSpec:
    """f spectral classes, half-width eps_max, one lumped coupling.

    spectrum:
      equidistant  omega_l = eps_max * (2l - 1 - f) / f, l = 1..f
      lorentzian   f frequencies at equal quantile spacing of a
                   Lorentzian(center, width) truncated to
                   [-eps_max, eps_max]; deterministic, no randomness
      custom       explicit frequency list (uniform coupling still)
    """

    f: int
    eps_max: float
    coupling: complex
    spectrum: str = "equidistant"
    center: Optional[float] = None
    width: Optional[float] = None
    omegas: Optional[tuple] = None

    def __post_init__(self):
        check_count("f", self.f)
        if not check_positive("eps_max", self.eps_max) * self.f < math.inf:
            raise InvalidInput(f"f eps_max = {self.f * self.eps_max:.3g} overflows", arg="eps_max")
        check_finite("coupling", self.coupling, complex)
        # the secular equation sums f |coupling|^2, which must stay a float
        if not math.isfinite(self.f * self.coupling_sq):
            raise InvalidInput(f"f |coupling|^2 = {self.f * self.coupling_sq:.3g} overflows",
                               arg="coupling")
        if self.spectrum not in SPECTRA:
            raise InvalidInput(f"unknown spectrum {self.spectrum!r}, expected one of {SPECTRA}",
                               arg="spectrum")
        if self.spectrum == "lorentzian":
            check_finite("center", self.center)
            check_positive("width", self.width)
        if self.spectrum == "custom":
            omegas = tuple(check_finite("omegas", w)
                           for w in check_sequence("omegas", self.omegas, size=self.f))
            # the propagator takes differences of the frequencies, which must stay floats
            if not math.isfinite(max(omegas) - min(omegas)):
                raise InvalidInput(f"omegas span {min(omegas):.3g} to {max(omegas):.3g}, which "
                                   "overflows", arg="omegas")
            object.__setattr__(self, "omegas", omegas)

    def frequencies(self) -> np.ndarray:
        if self.spectrum == "equidistant":
            l = np.arange(1, self.f + 1, dtype=float)
            return self.eps_max * (2.0 * l - 1.0 - self.f) / self.f
        if self.spectrum == "lorentzian":
            lo = np.arctan((-self.eps_max - self.center) / self.width)
            hi = np.arctan((self.eps_max - self.center) / self.width)
            quant = (np.arange(self.f) + 0.5) / self.f
            return self.center + self.width * np.tan(lo + quant * (hi - lo))
        return np.asarray(self.omegas, dtype=float)

    @property
    def coupling_sq(self) -> float:
        g = abs(self.coupling)
        return float(g * g)  # inf, not an OverflowError, past the float range

    @cached_property
    def propagator(self) -> _ExactPropagator:
        """The eigensystem of the arrowhead K, solved on first use and kept with the spec."""
        return _ExactPropagator(self.frequencies(), self.coupling)


@dataclass
class SingleExcitationState:
    """Amplitudes of (excitation in the upper mode) and (one reservoir
    excitation in class l), at absolute time t."""

    c0: complex
    c: np.ndarray
    t: float = 0.0

    @classmethod
    def excited(cls, f: int) -> "SingleExcitationState":
        return cls(1.0 + 0.0j, np.zeros(f, dtype=complex), 0.0)

    def norm_sq(self) -> float:
        return float(abs(self.c0) ** 2 + np.sum(np.abs(self.c) ** 2))


@dataclass
class TwoUpperModeState:
    """Two upper modes sharing one reservoir channel."""

    c0: complex
    c0p: complex
    c: np.ndarray
    t: float = 0.0

    @classmethod
    def symmetric(cls, f: int) -> "TwoUpperModeState":
        s = 1.0 / np.sqrt(2.0)
        return cls(s, s, np.zeros(f, dtype=complex), 0.0)

    @classmethod
    def antisymmetric(cls, f: int) -> "TwoUpperModeState":
        s = 1.0 / np.sqrt(2.0)
        return cls(s, -s, np.zeros(f, dtype=complex), 0.0)

    @classmethod
    def single(cls, f: int) -> "TwoUpperModeState":
        return cls(1.0 + 0.0j, 0.0 + 0.0j, np.zeros(f, dtype=complex), 0.0)

    def norm_sq(self) -> float:
        return float(abs(self.c0) ** 2 + abs(self.c0p) ** 2 + np.sum(np.abs(self.c) ** 2))


@dataclass
class DecayTrajectory:
    times: np.ndarray
    c0: np.ndarray  # upper amplitude at every sample
    classes: Callable[[], np.ndarray] = field(repr=False)  # what c_final is built from

    @cached_property
    def c_final(self) -> np.ndarray:  # class amplitudes at the last sample, built when read
        return self.classes()

    @property
    def survival(self) -> np.ndarray:
        return np.abs(self.c0) ** 2


@dataclass
class InterferenceTrajectory:
    times: np.ndarray
    c0: np.ndarray
    c0p: np.ndarray

    @property
    def survival(self) -> np.ndarray:
        return np.abs(self.c0) ** 2 + np.abs(self.c0p) ** 2


@dataclass
class ZenoResult:
    tau_m: float
    times: np.ndarray
    survival: np.ndarray
    gamma_eff: float
    fit_residual: float


def markov_rate(spec: ReservoirSpec) -> float:
    """Golden-rule decay rate pi * f * |g_c|^2 / eps_max (equidistant comb)."""
    if spec.spectrum != "equidistant":
        raise ConfigurationError(
            "markov_rate is derived for the equidistant spectrum; "
            "fit the rate from an exact trajectory instead (fit_decay_rate)"
        )
    return float(np.pi * spec.f * spec.coupling_sq / spec.eps_max)


def coupling_for_rate(f: int, eps_max: float, gamma: float) -> float:
    """Coupling amplitude that makes markov_rate equal gamma."""
    check_count("f", f)
    check_positive("eps_max", eps_max)
    check_positive("gamma", gamma)
    return _finite_coupling(gamma * eps_max / (np.pi * f), gamma)


def _finite_coupling(coupling_sq: float, rate: float) -> float:
    """sqrt(coupling_sq), the coupling that gives ``rate``, if it is a finite float."""
    if not coupling_sq < math.inf:
        raise ConfigurationError(f"no finite coupling gives the rate {rate:.3g}")
    return float(np.sqrt(coupling_sq))


def recurrence_time(spec: ReservoirSpec) -> float:
    """Comb rephasing time pi * f / eps_max (equidistant)."""
    if spec.spectrum != "equidistant":
        raise ConfigurationError("recurrence time is defined for the equidistant comb")
    return float(np.pi * spec.f / spec.eps_max)


def _default_dt(spec: ReservoirSpec) -> float:
    return 0.02 / spec.eps_max


def _check_dt(spec: ReservoirSpec, dt: float) -> None:
    """dt <= 0.05 / max(eps_max, |g_c| sqrt(f)): the roots of K reach eps_max + |g_c| sqrt(f).
    An error names the coupling where it, not eps_max, sets that bound, and else dt."""
    bright = abs(spec.coupling) * np.sqrt(spec.f)
    scale = max(spec.eps_max, bright)
    if dt > 0.05 / scale * (1.0 + 1e-12):
        raise ConfigurationError(f"dt={dt:.3g} does not resolve the fastest reservoir phase; need "
                                 f"dt <= 0.05/max(eps_max, |coupling| sqrt(f)) = {0.05/scale:.3g}",
                                 arg="coupling" if bright > spec.eps_max else "dt")


def evolve_exact(
    spec: ReservoirSpec,
    state0: Optional[SingleExcitationState] = None,
    t_final: float = 1.0,
    dt: Optional[float] = None,
) -> DecayTrajectory:
    """Exact single-excitation amplitudes on the grid t0 + j dt.

    ``dt`` is the sampling interval (step guard: ``_check_dt``).  The upper
    amplitude c0 is recorded at every sample; the class amplitudes at the
    last one (``c_final``) are built when first read.
    """
    dt = _default_dt(spec) if dt is None else dt
    nsteps, step = steps_for(t_final, dt)
    _check_dt(spec, dt)
    state0 = SingleExcitationState.excited(spec.f) if state0 is None else state0
    check_sequence("state0", state0.c, size=spec.f)

    prop = spec.propagator
    coef, dark = prop.modes(state0.c0, prop.to_frame(state0.c, state0.t))
    upper = exp_sum(prop.eig.roots, coef * prop.eig.inv_norm, 0.0, step, nsteps + 1)
    upper[0] = state0.c0  # the sample at tau = 0 is the initial state itself
    classes = partial(prop.classes_at, coef, dark, nsteps * step, state0.t + nsteps * step)
    return DecayTrajectory(times=state0.t + np.arange(nsteps + 1) * step, c0=upper,
                           classes=classes)


def _window_mask(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    t_a, t_b = check_sequence("window", window, size=2)
    if not t_a < t_b:
        raise InvalidInput(f"window is 't_a t_b' with t_a < t_b, got {window}", arg="window")
    mask = (times >= t_a - 1e-12) & (times <= t_b + 1e-12)
    if np.count_nonzero(mask) < 2:
        raise InvalidInput(f"window [{t_a}, {t_b}] holds fewer than two samples", arg="window")
    return mask


def _in_window(times, survival, window) -> tuple[np.ndarray, np.ndarray]:
    """The samples of a survival curve, one per time, in ``window``."""
    times = np.asarray(check_sequence("times", times), dtype=float)
    survival = np.asarray(check_sequence("survival", survival, size=times.size), dtype=float)
    mask = _window_mask(times, window)
    return times[mask], survival[mask]


def fit_decay_rate(
    times: np.ndarray, survival: np.ndarray, window: tuple[float, float]
) -> tuple[float, float]:
    """Least-squares exponential fit of a survival curve on a window.

    Returns (rate estimate, max relative residual of the fit).  Rejects
    windows that contain non-positive survival or fewer than two points.
    """
    t, s = _in_window(times, survival, window)
    if np.any(s <= 0):
        raise InvalidInput("fit window contains zero or negative survival")
    # closed-form straight line through log s, in the window's own time unit
    # so that a window of any length is fitted without LAPACK
    span = t[-1] - t[0]
    u = (t - t[0]) / span
    u -= np.mean(u)
    log_s = np.log(s)
    mean_log = np.mean(log_s)
    b = np.sum(u * (log_s - mean_log)) / np.sum(u * u)
    fit = np.exp(mean_log + b * u)
    residual = float(np.max(np.abs(s / fit - 1.0)))
    return float(0.0 - b / span), residual  # 0.0 - keeps a flat curve's rate at +0


def fit_decay_rate_or_nan(
    times: np.ndarray, survival: np.ndarray, window: tuple[float, float]
) -> tuple[float, float]:
    """``fit_decay_rate``, or (nan, nan) when the survival in the window is
    not positive: a curve that vanished leaves no rate, which the caller
    reports as a failed invariant of its run."""
    if not np.all(_in_window(times, survival, window)[1] > 0.0):
        return np.nan, np.nan
    return fit_decay_rate(times, survival, window)


def _measurements(n, arg: str) -> int:
    """floor(n + 1e-9) measurements of a Zeno run, 10 to _MAX_STEPS; an error names ``arg``."""
    if not 10 - 1e-9 <= n <= _MAX_STEPS:  # also false for nan
        raise ConfigurationError(f"a Zeno run takes 10 to {_MAX_STEPS:.0e} measurements", arg=arg)
    return math.floor(n + 1e-9)


def zeno_evolve(spec: ReservoirSpec, t_final: float = 1.0, tau_m: float = 0.1) -> ZenoResult:
    """Free evolution of the excited upper mode interrupted by projective reservoir
    measurements, floor(t_final / tau_m) of them.

    Every tau_m the reservoir is measured; conditioned on the
    no-excitation outcome the reservoir amplitudes are reset and the
    cumulative no-decay probability is multiplied by |c0|^2.
    The effective rate is the exponential fit of the cumulative curve (nan
    with its residual when the curve underflows to 0).

    A reset leaves the reservoir empty and the upper amplitude a pure
    phase, and the frame of the module docstring makes the generator
    time-independent, so every segment has the same no-decay probability
    p(tau_m) = |sum_k w_k exp(i kappa_k tau_m)|^2 and the cumulative
    survival after k segments is p^k, formed as p p^(k-1).
    """
    ratio = check_positive("t_final", t_final) / check_positive("tau_m", tau_m)
    return _zeno_run(spec, tau_m, _measurements(ratio, "t_final"))


def _zeno_run(spec: ReservoirSpec, tau_m: float, n_meas: int) -> ZenoResult:
    """``zeno_evolve`` with ``n_meas`` measurements."""
    eig = spec.propagator.eig
    reset, _ = spec.propagator.modes(1.0, np.zeros(spec.f))
    p = abs(np.sum(reset * eig.inv_norm * np.exp(1j * eig.roots * tau_m))) ** 2
    times = np.arange(n_meas + 1) * tau_m
    cumulative = np.empty(n_meas + 1)
    cumulative[0] = 1.0
    cumulative[1:] = p * p ** np.arange(n_meas)

    gamma_eff, residual = fit_decay_rate_or_nan(times, cumulative, (times[0], times[-1]))
    return ZenoResult(tau_m, times, cumulative, max(gamma_eff, 0.0), residual)


def _scan_measurements(taus: Sequence[float], n_measurements: int) -> int:
    """The measurements of each run of a Zeno scan; n_measurements periods must stay a float."""
    n = _measurements(check_count("n_measurements", n_measurements), "n_measurements")
    for tau in check_sequence("taus", taus, least=1):
        check_positive("taus", n * check_positive("taus", tau))
    return n


def zeno_scan(
    spec: ReservoirSpec,
    taus: Sequence[float],
    n_measurements: int = 60,
) -> list[ZenoResult]:
    """Effective decay rate for a list of measurement periods, n_measurements of each."""
    n = _scan_measurements(taus, n_measurements)
    return [_zeno_run(spec, tau, n) for tau in taus]


def _symmetric_mode(spec: ReservoirSpec) -> ReservoirSpec:
    """The reservoir as the symmetric mode of two upper modes sees it: at sqrt(2) g_c."""
    return replace(spec, coupling=np.sqrt(2.0) * spec.coupling)


def interference_evolve(
    spec: ReservoirSpec,
    state0: TwoUpperModeState,
    t_final: float,
    dt: Optional[float] = None,
) -> InterferenceTrajectory:
    """Two upper modes coupled to the same reservoir channel.

    Each reservoir class is driven by the sum of the two upper
    amplitudes, so the antisymmetric combination (c0 - c0')/sqrt(2) is
    exactly dark and the symmetric one couples with sqrt(2) g_c: it
    decays twice as fast as a single mode.  Only the symmetric
    combination is propagated, by ``evolve_exact`` on ``_symmetric_mode``.
    """
    sym0 = (state0.c0 + state0.c0p) / np.sqrt(2.0)
    sym = evolve_exact(_symmetric_mode(spec), SingleExcitationState(sym0, state0.c, state0.t),
                       t_final, dt)
    # the antisymmetric part is constant, so each mode moves by the same amount
    shift = (sym.c0 - sym0) / np.sqrt(2.0)
    return InterferenceTrajectory(times=sym.times, c0=state0.c0 + shift, c0p=state0.c0p + shift)
