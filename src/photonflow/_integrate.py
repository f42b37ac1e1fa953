"""Propagators shared by the levels, and their uniform time grids.

Every generator here is time-independent, in the frame its caller picks,
so propagation is exact up to roundoff, not stepped:

* ``_ExactPropagator``: exp(i K t) for a real-symmetric arrowhead K (one
  mode coupled equally to classes at fixed frequencies) through its
  closed-form eigenpairs (O'Leary & Stewart, J. Comput. Phys. 90, 497,
  1990).  Used by the reservoir level and the port-2 reflection, and its
  eigensystem by the four-port router's memory kernel.
* ``taylor_propagate``: exp(h A) y by truncated Taylor series in
  ceil(h ||A||) sub-steps, for any bound ||A|| on an operator norm (the
  scaling of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011).  It
  serves the master equation, with the exact 1-norm of a
  ``SparseGenerator``; the tests also run the four-port router with it as
  an oracle.  ``SparseGenerator`` holds the nonzeros of a sum of
  Kronecker products sorted by (row, col); its matrix-vector product is
  one ``np.bincount`` over the interleaved real and imaginary parts, which
  adds each row's terms in column order.
* ``exp_sum``: sum_k a_k exp(i w_k t) on a uniform grid of t, one block of
  32 samples at a time.  Every single-field resynthesis goes through it:
  the reservoir survival and Zeno no-decay probabilities, the comb fields
  of the router, the kernel sums of its memory-kernel solve and the
  spectrum of a sampled pulse.

All of them use elementwise operations and numpy reductions only, never
BLAS, so their bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInput

_MAX_STEPS = 10**7  # the shipped, benchmark and test grids stay near 10^5


def steps_for(t_final: float, dt: float) -> tuple[int, float]:
    """Number of equal steps covering [0, t_final] with step <= dt."""
    ratio = t_final / dt
    if not ratio <= _MAX_STEPS:  # also catches an overflow to inf
        raise ConfigurationError(f"t_final = {t_final:.3g} at dt = {dt:.3g} needs "
                                 f"{ratio:.3g} steps, more than {_MAX_STEPS:.0e}")
    n = max(1, int(np.ceil(ratio - 1e-12)))
    return n, t_final / n


_BLOCK = 32  # roots or sample times per vectorized block
_EPS = float(np.finfo(float).eps)
_MAX_ITER = 100


def _block_slices(n: int):
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


def exp_sum(freqs: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k weights[k] exp(i freqs[k] t) at every t of the uniform grid ``times``,
    in blocks of 32 samples that share one table of in-block phases."""
    times = np.asarray(times, dtype=float)
    n = times.size
    h = float(times[1] - times[0]) if n > 1 else 0.0
    # every block starts at its own sample time, so only drift within a block counts
    if np.any(np.abs(np.diff(times) - h) > 1e-9 * abs(h)):
        raise InvalidInput("exp_sum needs uniformly spaced times")
    within = np.exp(1j * np.outer(np.arange(min(n, _BLOCK)) * h, freqs))
    out = np.empty(n, dtype=complex)
    for js in _block_slices(n):
        start = weights * np.exp(1j * freqs * times[js.start])
        out[js] = np.sum(within[: js.stop - js.start] * start, axis=1)
    return out


@dataclass(frozen=True)
class _Eigensystem:
    """Eigenpairs of the arrowhead K = [[0, z^T], [z, diag(poles)]].

    Root k is kept as ``origin[k] + offset[k]`` with ``origin`` the nearer
    pole of its bracket, so that kappa_k - p_u is accurate to working
    precision also for a root next to a pole.
    """

    poles: np.ndarray  # ascending, distinct
    z: np.ndarray  # positive border entries
    origin: np.ndarray
    offset: np.ndarray
    inv_norm: np.ndarray  # 1 / N_k, also the upper-mode component of eigenvector k

    @property
    def roots(self) -> np.ndarray:
        return self.origin + self.offset

    def gaps(self, ks: slice) -> np.ndarray:
        """kappa_k - p_u for the roots ``ks`` (rows) and every pole (columns)."""
        return self.offset[ks, None] - (self.poles[None, :] - self.origin[ks, None])


def _arrowhead_eigensystem(poles: np.ndarray, z: np.ndarray) -> _Eigensystem:
    """Solve kappa + sum_u z_u^2 / (p_u - kappa) = 0 for all m + 1 roots.

    The left side F is increasing between poles.  Root k lies in
    (p_{k-1}, p_k), with p_{-1} and p_m replaced by bounds on the spectrum.
    After one bisection picks the half that holds the root, each root is
    iterated in coordinates shifted to the nearer pole with a rational
    model of F that matches its value and slope (two poles for an inner
    root, one pole plus the linear term for the outer ones), safeguarded
    by bisection of the bracket.
    """
    m = poles.size
    if m == 0:
        one = np.ones(1)
        return _Eigensystem(poles, z, np.zeros(1), np.zeros(1), one)
    rho = z * z
    znorm = float(np.sqrt(np.sum(rho)))
    lower = min(poles[0], 0.0) - 2.0 * znorm  # F(lower) < 0
    upper = max(poles[-1], 0.0) + 2.0 * znorm  # F(upper) > 0
    origin, offset, inv_norm = np.empty(m + 1), np.empty(m + 1), np.empty(m + 1)
    cols = np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for ks in _block_slices(m + 1):
            k = np.arange(ks.start, ks.stop)
            inner = (k > 0) & (k < m)
            left = np.where(k > 0, poles[np.maximum(k - 1, 0)], lower)
            right = np.where(k < m, poles[np.minimum(k, m - 1)], upper)
            mid = 0.5 * (left + right)
            terms = rho / (poles - mid[:, None])
            f_mid = mid + np.sum(terms, axis=1)
            # a root on the midpoint (a symmetric spectrum) is found already
            done = np.abs(f_mid) <= 8.0 * _EPS * (np.abs(mid) + np.sum(np.abs(terms), axis=1))
            del terms
            in_left_half = f_mid > 0.0
            lo_abs = np.where(in_left_half, left, mid)
            hi_abs = np.where(in_left_half, mid, right)
            use_left = (k == m) | ((k > 0) & in_left_half)
            o = np.where(use_left, left, right)
            lo, hi = lo_abs - o, hi_abs - o
            delta = poles[None, :] - o[:, None]  # exactly 0 in the origin column
            is_left = cols[None, :] < k[:, None]
            rows = np.arange(k.size)
            d_left = delta[rows, np.maximum(k - 1, 0)]
            d_right = delta[rows, np.minimum(k, m - 1)]
            mu = np.where(done, mid - o, 0.5 * (lo + hi))
            for _ in range(_MAX_ITER):
                inv = 1.0 / (delta - mu[:, None])  # 1 / (p_u - kappa)
                t = rho * inv
                dt = np.multiply(t, inv, out=inv)
                psi = np.sum(np.where(is_left, t, 0.0), axis=1)
                phi = np.sum(np.where(is_left, 0.0, t), axis=1)
                dpsi = np.sum(np.where(is_left, dt, 0.0), axis=1)
                dphi = np.sum(np.where(is_left, 0.0, dt), axis=1)
                fval = o + mu + psi + phi
                lo = np.where(fval < 0.0, mu, lo)
                hi = np.where(fval > 0.0, mu, hi)
                bound = 8.0 * _EPS * (np.abs(o) + np.abs(mu) + phi - psi)
                width = hi - lo <= 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi))
                done |= (np.abs(fval) <= bound) | width
                if done.all():
                    break
                dl, dr = d_left - mu, d_right - mu  # p_left - kappa < 0 < p_right - kappa
                # inner root: c + s/(dl - x) + S/(dr - x) = 0 between the poles,
                # with the slope 1 of the linear term carried by the right pole
                s, big_s = dpsi * dl * dl, (dphi + 1.0) * dr * dr
                c = fval - dpsi * dl - (dphi + 1.0) * dr
                b = c * (dl + dr) + s + big_s
                e = c * dl * dr + s * dr + big_s * dl
                sq = np.sqrt(np.maximum(b * b - 4.0 * c * e, 0.0))
                x_inner = np.where(b > 0.0, 2.0 * e / (b + sq), (b - sq) / (2.0 * c))
                # lowest root: (a + x)(dr - x) + S = 0 below the first pole
                a = fval - dphi * dr
                beta, gam = dr - a, a * dr + dphi * dr * dr
                sq = np.sqrt((dr + a) ** 2 + 4.0 * dphi * dr * dr)
                x_low = np.where(beta > 0.0, -2.0 * gam / (beta + sq), 0.5 * (beta - sq))
                # highest root: (a + x)(dl - x) + s = 0 above the last pole
                a = fval - dpsi * dl
                beta, gam = dl - a, a * dl + s
                sq = np.sqrt((dl + a) ** 2 + 4.0 * s)
                x_high = np.where(beta < 0.0, -2.0 * gam / (beta - sq), 0.5 * (beta + sq))
                step = np.where(inner, x_inner, np.where(k == 0, x_low, x_high))
                trial = mu + step
                trial = np.where((trial > lo) & (trial < hi), trial, 0.5 * (lo + hi))
                mu = np.where(done, mu, trial)
            origin[ks], offset[ks] = o, mu
            inv_norm[ks] = 1.0 / np.sqrt(1.0 + np.sum(rho / (delta - mu[:, None]) ** 2, axis=1))
    return _Eigensystem(poles, z, origin, offset, inv_norm)


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
        coef = np.full(eig.roots.size, complex(c0))
        if np.any(bright):
            for ks in _block_slices(coef.size):
                coef[ks] += np.sum(eig.z * bright / eig.gaps(ks), axis=1)
        return coef * eig.inv_norm, dark

    def classes_at(self, coef: np.ndarray, dark: np.ndarray, tau: float, t: float) -> np.ndarray:
        """Interaction-picture class amplitudes c_l at tau after the start, time t."""
        eig = self.eig
        weight = coef * eig.inv_norm * np.exp(1j * eig.roots * tau)
        bright = np.zeros(eig.poles.size, dtype=complex)
        for ks in _block_slices(weight.size):
            bright += np.sum(weight[ks, None] / eig.gaps(ks), axis=0)
        bright *= eig.z
        # the dark part is frozen in the interaction picture
        c = np.exp(-1j * self.omegas * (t - tau)) * dark
        on = self.column >= 0
        c[on] += np.exp(-1j * self.omegas[on] * t) * bright[self.column[on]] * self.share[on]
        return c / self.gauge


_TERM_TOL = 2.0**-53
_MAX_TERMS = 100  # never reached: with h ||A|| <= 1 the series converges by ~20 terms


def _merge(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys, each with the sum of its values in input order."""
    keys, where = np.unique(keys, return_inverse=True)
    return keys, np.bincount(where, weights=vals.real) + 1j * np.bincount(where, weights=vals.imag)


class SparseGenerator:
    """n x n matrix sum_g scale_g sum_t coef_t kron(a_t, b_t), for ``groups`` of
    (scale_g, [(coef_t, a_t, b_t), ...]) with dense factors, kept as its nonzero
    entries sorted by (row, col).

    Each group is summed before it is scaled, and the groups are added in
    order, so every entry is rounded as that formula reads.
    """

    def __init__(self, n: int, groups):
        keys, vals = [], []
        for scale, terms in groups:
            k, v = [], []
            for coef, a, b in terms:
                ai, aj = np.nonzero(a)
                bi, bj = np.nonzero(b)
                rows = ai[:, None] * b.shape[0] + bi
                k.append((rows * n + aj[:, None] * b.shape[1] + bj).ravel())
                v.append((coef * (a[ai, aj][:, None] * b[bi, bj])).ravel())
            k, v = _merge(np.concatenate(k), np.concatenate(v))
            keys.append(k)
            vals.append(scale * v)
        keys, vals = _merge(np.concatenate(keys), np.concatenate(vals))
        keep = vals != 0
        self.n = n
        self.rows, self.cols = np.divmod(keys[keep], n)
        self.vals = vals[keep]
        self._slots = (2 * self.rows[:, None] + np.arange(2)).ravel()  # re, im of each row

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        prod = self.vals * y[self.cols]
        return np.bincount(self._slots, weights=prod.view(float), minlength=2 * self.n).view(complex)

    def onenorm(self) -> float:
        """Exact 1-norm: the largest column sum of moduli."""
        return float(np.bincount(self.cols, weights=np.abs(self.vals), minlength=self.n).max())


def taylor_propagate(matvec, y: np.ndarray, h: float, norm: float, fold) -> np.ndarray:
    """exp(h A) y in s = ceil(h norm) equal sub-steps, with ``matvec(v)`` = A v
    and ``norm`` a bound on an operator norm of A.

    Each sub-step sums the Taylor series of exp((h / s) A) y until two
    successive terms fall below 2^-53 of the partial sum (max norm), then
    applies ``fold`` to the result.  The term and the partial sum are
    updated in place; ``matvec`` may return a buffer of its own, since
    that is read before its next call.
    """
    s = max(1, math.ceil(h * norm))
    hs = h / s
    out = np.empty_like(y)
    term = np.empty_like(y)
    mag = np.empty(y.shape)
    for _ in range(s):
        np.copyto(out, y)
        np.copyto(term, y)
        bound = np.max(np.abs(y, out=mag))  # max |y| plus max |term| of every term so far
        small = 0
        for k in range(1, _MAX_TERMS):
            np.multiply(matvec(term), hs / k, out=term)
            out += term
            top = np.max(np.abs(term, out=mag))
            bound += top
            # max |out| <= bound up to roundoff, so |out| is needed only for a term near the tail
            tail = top <= 2 * _TERM_TOL * bound and top <= _TERM_TOL * np.max(np.abs(out, out=mag))
            small = small + 1 if tail else 0
            if small == 2:
                break
        y = fold(out)
    return y
