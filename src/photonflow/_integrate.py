"""Propagators shared by the levels, and their uniform time grids.

Every generator here is time-independent, in the frame its caller picks,
so propagation is exact up to roundoff, not stepped:

* ``_arrowhead_eigensystem``: the closed-form eigenpairs of a
  real-symmetric arrowhead K, one mode coupled to classes at fixed
  frequencies (O'Leary & Stewart, J. Comput. Phys. 90, 497, 1990).  The
  reservoir level propagates exp(i K t) on them; the bare cavity-2 comb
  keeps its own (``diode.ContinuumGrid.cavity``) for the four-port
  router's memory kernel and the port-2 reflection.  When the poles form
  a uniform comb with equal couplings (the port continua and the
  equidistant reservoir), the secular function and its slope are sums of
  digamma and trigamma values, so each root costs O(1) per iteration
  instead of O(m); other spectra sum over the poles.  Every product with
  the Cauchy matrix 1 / (kappa_k - p_u) of the eigenvectors goes through
  ``_Eigensystem.cauchy``.
* ``taylor_propagate``: exp(h A) y by truncated Taylor series in
  ceil(h ||A||) sub-steps, for any bound ||A|| on an operator norm (the
  scaling of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011).  It
  builds the master equation's interval propagators h phi_1(h S), all
  their columns at once, as the exponential of the augmented generator
  [[S, I], [0, 0]] on a ``SparseGenerator``, with the exact 1-norm of S
  plus 1; the tests also run the four-port router and the per-interval
  master equation with it as oracles.  ``SparseGenerator`` holds the
  nonzeros of a sum of Kronecker products sorted by (row, col); its
  matrix-vector product is one ``np.bincount`` over the interleaved real
  and imaginary parts, which adds each row's terms in column order.
  ``reachable`` closes a set of coordinates under its pattern and
  ``restrict`` keeps the entries inside one, in the same order, so a
  vector that vanishes outside that set is propagated on it alone with
  the same bits.  ``components`` labels the connected components of a
  pattern: the propagator's columns and the support's blocks.
* ``comb_sum``: sum_k a_k exp(i (f0 + k df)(t0 + j h)), a uniform comb on a
  uniform time grid, as Bluestein's chirp-z transform (Rabiner, Schafer &
  Rader, IEEE Trans. Audio Electroacoust. 17, 86, 1969): with kj = (k^2 +
  j^2 - (j - k)^2) / 2 it is one convolution with the chirp exp(-i df h
  m^2 / 2), three FFTs of a 5-smooth length at least n_t + n_q - 1.  Every
  phase is a product of two of f0, df, t0, h with an integer, reduced
  modulo 2 pi exactly (``_turns``), so only the FFTs' roundoff is left,
  however far the chirp runs.  The router's comb fields and the port-1
  integrals of its memory kernel go through it.
* ``exp_sum``: sum_k a_k exp(i w_k t) at any frequencies on a uniform grid
  of t, in blocks of 32 samples, several blocks per numpy pass when the
  frequencies are few: the reservoir survival and Zeno no-decay
  probabilities, the sums over the C2 roots and the reservoir classes in the
  router's memory kernel and the spectrum of a sampled pulse.

All of them use elementwise operations, numpy reductions and numpy.fft
(pocketfft) only, never BLAS, so their bits do not depend on the BLAS
thread count.
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


def sample_steps(nsteps: int, stride: int) -> list[int]:
    """Every ``stride``-th of the steps 1..nsteps, then the last."""
    return list(range(stride, nsteps, stride)) + [nsteps]


_BLOCK = 32  # roots or sample times per vectorized block
_EPS = float(np.finfo(float).eps)
_MAX_ITER = 100


def _block_slices(n: int):
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


_BATCH = 2**15  # complex entries of the (blocks, 32, freqs) product of one exp_sum pass


def exp_sum(freqs: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k weights[k] exp(i freqs[k] t) at every t of the uniform grid ``times``,
    in blocks of 32 samples that share one table of in-block phases.

    Whole blocks go through numpy together, as many per pass as keep the
    product within ``_BATCH`` entries (at least one); each block's arithmetic
    is the same either way.
    """
    times = np.asarray(times, dtype=float)
    n = times.size
    h = float(times[1] - times[0]) if n > 1 else 0.0
    # every block starts at its own sample time, so only drift within a block counts
    if np.any(np.abs(np.diff(times) - h) > 1e-9 * abs(h)):
        raise InvalidInput("exp_sum needs uniformly spaced times")
    within = np.exp(1j * np.outer(np.arange(min(n, _BLOCK)) * h, freqs))
    out = np.empty(n, dtype=complex)
    whole = n - n % _BLOCK
    rows = max(1, _BATCH // within.size) * _BLOCK
    for lo in range(0, whole, rows):
        hi = min(lo + rows, whole)
        start = weights * np.exp(1j * freqs * times[lo:hi:_BLOCK, None])
        out[lo:hi] = np.sum(within * start[:, None, :], axis=2).ravel()
    if whole < n:
        start = weights * np.exp(1j * freqs * times[whole])
        out[whole:] = np.sum(within[: n - whole] * start, axis=1)
    return out


def fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length that numpy.fft transforms fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


_TURN_BITS = 128
_TURN = 54157620742477409023451113735280473968  # 2^128 / 2 pi, rounded
_MAX_COUNT = 2**26  # samples or modes of a comb_sum: m^2 < 2^52 leaves _turns a part of 1 bit


def _turns(a: float, b: float, n: np.ndarray) -> np.ndarray:
    """a b n / 2 pi less its nearest integer, for integer-valued floats n, |n| < 2^52.

    a b / 2 pi is hi + lo to about 2^-105 of itself, from the exact integer ratios
    of a and b.  hi is cut into parts of 53 - bits(max|n|) bits, so that each part
    times n is an exact float and loses its nearest integer exactly; lo n is
    below 2^-52 of hi n and needs no care.
    """
    (pa, qa), (pb, qb) = float(a).as_integer_ratio(), float(b).as_integer_ratio()
    num, den = pa * pb * _TURN, qa * qb << _TURN_BITS
    hi = num / den  # int / int rounds correctly
    ph, qh = hi.as_integer_ratio()
    lo = (num * qh - ph * den) / (den * qh)
    bits = 53 - int(np.max(np.abs(n), initial=0)).bit_length()
    assert bits >= 1, "integer factor of a phase above 2^52"
    e = math.frexp(hi)[1]
    out = np.zeros(n.shape)
    rest = hi
    for k in range(bits, 53 + bits, bits):
        part = math.ldexp(round(math.ldexp(rest, k - e)), e - k)
        rest -= part
        x = part * n
        out += x - np.rint(x)
    x = lo * n
    out += x - np.rint(x)
    return out - np.rint(out)


def comb_sum(f0: float, df: float, weights: np.ndarray, t0: float, h: float,
             n: int) -> np.ndarray:
    """sum_k weights[..., k] exp(i (f0 + k df)(t0 + j h)) for j = 0..n-1, by chirp-z.

    With alpha = df h the phase is f0 t0 + f0 h j + df t0 k + alpha (k^2 + j^2 -
    (j - k)^2) / 2, each term a product of two of the given floats with an
    integer, reduced by ``_turns``; the sum over k is one FFT convolution with
    the chirp exp(-i alpha m^2 / 2), m = -(n_q - 1)..n - 1.  Leading axes of
    ``weights`` are separate sums sharing the chirp.
    """
    weights = np.asarray(weights, dtype=complex)
    count = weights.shape[-1]
    if max(n, count) > _MAX_COUNT:
        raise InvalidInput(f"comb_sum takes at most 2^26 samples and modes, got {n} and {count}")
    m = np.arange(max(n, count), dtype=float)
    chirp = _turns(0.5 * df, h, m * m)

    def rotor(turns):
        z = turns * (2j * np.pi)
        return np.exp(z, out=z)

    size = fft_size(n + count - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = rotor(-chirp[:n])
    kernel[size - count + 1:] = rotor(-chirp[count - 1:0:-1])
    spectrum = np.fft.fft(weights * rotor(_turns(df, t0, m[:count]) + chirp[:count]), size)
    spectrum *= np.fft.fft(kernel, out=kernel)
    out = np.fft.ifft(spectrum, out=spectrum)[..., :n]
    out *= rotor(_turns(f0, t0, np.ones(1)) + _turns(f0, h, m[:n]) + chirp[:n])
    return out


@dataclass(frozen=True)
class _Eigensystem:
    """Eigenpairs of the arrowhead K = [[0, z^T], [z, diag(poles)]].

    Root k is kept as ``origin[k] + offset[k]`` with ``origin`` the nearer
    pole of its bracket, so that kappa_k - p_u is accurate to working
    precision also for a root next to a pole.  ``iterations`` is the largest
    number of rational-model steps any root took.
    """

    poles: np.ndarray  # ascending, distinct
    z: np.ndarray  # positive border entries
    origin: np.ndarray
    offset: np.ndarray
    inv_norm: np.ndarray  # 1 / N_k, also the upper-mode component of eigenvector k
    iterations: int = 0

    @property
    def roots(self) -> np.ndarray:
        return self.origin + self.offset

    def gaps(self, ks: slice) -> np.ndarray:
        """kappa_k - p_u for the roots ``ks`` (rows) and every pole (columns)."""
        return self.offset[ks, None] - (self.poles[None, :] - self.origin[ks, None])

    def cauchy(self, x: np.ndarray, over_roots: bool) -> np.ndarray:
        """Products with the Cauchy matrix C_ku = 1 / (kappa_k - p_u), 32 roots at a time.

        With ``over_roots`` the last axis of ``x`` runs over the roots and the
        result is x C, from real ``np.einsum`` products of the real and
        imaginary parts of x with each block's reciprocals; otherwise ``x``
        runs over the poles and the result is C x, whose complex products keep
        numpy's pairwise sums of complex terms.  numpy divides a complex by a
        real by multiplying with the reciprocal, so either product has the
        bits of a division by the gaps.
        """
        if not over_roots:
            out = np.empty(self.roots.size, dtype=complex)
            for ks in _block_slices(out.size):
                out[ks] = np.sum(x * (1.0 / self.gaps(ks)), axis=1)
            return out
        re, im = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
        out_re = np.zeros(x.shape[:-1] + self.poles.shape)
        out_im = np.zeros_like(out_re)
        for ks in _block_slices(x.shape[-1]):
            inv = 1.0 / self.gaps(ks)
            out_re += np.einsum("...k,ku->...u", re[..., ks], inv)
            out_im += np.einsum("...k,ku->...u", im[..., ks], inv)
        return out_re + 1j * out_im


_SHIFTS = 16  # recurrence steps of psi and psi' before their asymptotic series


def _polygamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digamma psi(x) and trigamma psi'(x) for x > 0.

    psi(x) = psi(x + 16) - sum_i 1 / (x + i) and psi'(x) = psi'(x + 16) +
    sum_i 1 / (x + i)^2 (i = 0..15), with psi and psi' at x + 16 from their
    asymptotic series (Abramowitz & Stegun 6.3.18, 6.4.12), whose next
    terms lie below 1e-20 there.
    """
    psi, dpsi = np.zeros_like(x), np.zeros_like(x)
    for i in range(_SHIFTS):
        inv = 1.0 / (x + i)
        psi -= inv
        dpsi += inv * inv
    y = x + _SHIFTS
    r = 1.0 / (y * y)
    psi += np.log(y) - 0.5 / y - r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (
        1 / 240 - r * (1 / 132 - r * (691 / 32760 - r / 12))))))
    dpsi += (1.0 + (0.5 + (1 / 6 - r * (1 / 30 - r * (1 / 42 - r * (1 / 30 - r * (
        5 / 66 - r * (691 / 2730 - r * 7 / 6)))))) / y) / y) / y
    return psi, dpsi


def _comb_spacing(poles: np.ndarray, z: np.ndarray) -> tuple[float, float] | None:
    """Spacing d and a bound on |p_u - p_0 - u d| if the poles are p_0 + u d to
    within a few ulps and all z are equal, else None."""
    m = poles.size
    if np.any(z != z[0]):
        return None
    if m == 1:
        return 1.0, 0.0  # one pole is a comb of any spacing
    d = (poles[-1] - poles[0]) / (m - 1)
    drift = float(np.max(np.abs(poles - (poles[0] + np.arange(m) * d))))
    ulps = _EPS * max(abs(poles[0]), abs(poles[-1]))
    # a pole is also up to an ulp off the exact comb, which a float comparison cannot see
    return (d, drift + ulps) if drift <= 8.0 * ulps else None


class _PoleSums:
    """psi and phi, the parts of sum_u rho_u / (p_u - kappa) over the poles
    u < k and u >= k, and their slopes dpsi and dphi at kappa = o + mu,
    summed term by term: O(m) per root, for any poles and couplings."""

    def __init__(self, poles: np.ndarray, rho: np.ndarray, k: np.ndarray, o: np.ndarray):
        self.rho = rho
        self.delta = poles[None, :] - o[:, None]  # exactly 0 in the origin column
        self.is_left = np.arange(poles.size)[None, :] < k[:, None]

    def __call__(self, mu: np.ndarray):
        inv = 1.0 / (self.delta - mu[:, None])  # 1 / (p_u - kappa)
        t = self.rho * inv
        dt = np.multiply(t, inv, out=inv)
        return (np.sum(np.where(self.is_left, t, 0.0), axis=1),
                np.sum(np.where(self.is_left, 0.0, t), axis=1),
                np.sum(np.where(self.is_left, dt, 0.0), axis=1),
                np.sum(np.where(self.is_left, 0.0, dt), axis=1))

    def inv_norm(self, mu: np.ndarray) -> np.ndarray:
        return 1.0 / np.sqrt(1.0 + np.sum(self.rho / (self.delta - mu[:, None]) ** 2, axis=1))


class _CombSums:
    """The sums of ``_PoleSums`` in closed form for poles p_0 + u d and one rho.

    With the origin at pole j and x = mu / d, p_u - kappa = d (u - j - x).
    The origin term -rho / mu and, for an inner root, the term of the other
    pole of its bracket are taken exactly, as the general sum takes them.
    Past them each side is a run of n terms, sum_{w=a}^{a+n-1} 1 / (w +- x)
    = psi(a + n +- x) - psi(a +- x), and likewise for the squares through
    psi'; every argument stays at or above 1 inside a bracket.  O(1) per
    root.
    """

    def __init__(self, poles: np.ndarray, spacing: float, rho: float, k: np.ndarray,
                 o: np.ndarray, on_left: np.ndarray):
        m = poles.size
        self.spacing, self.rho = spacing, rho
        self.on_left = on_left  # the origin is pole k - 1, else pole k
        self.inner = (k > 0) & (k < m)
        # the other pole of an inner root's bracket, relative to the origin
        self.other = np.where(on_left, poles[np.minimum(k, m - 1)], poles[np.maximum(k - 1, 0)]) - o
        self.n_left, self.n_right = np.maximum(k - 1, 0), np.maximum(m - 1 - k, 0)
        self.a_left, self.a_right = np.where(on_left, 1.0, 2.0), np.where(on_left, 2.0, 1.0)

    def __call__(self, mu: np.ndarray):
        x = mu / self.spacing
        xl = np.where(self.n_left > 0, x, 0.0)  # a run of no terms sums to 0
        xr = np.where(self.n_right > 0, -x, 0.0)
        psi, dpsi = _polygamma(np.stack((self.a_left + xl, self.a_left + self.n_left + xl,
                                         self.a_right + xr, self.a_right + self.n_right + xr)))
        scale, slope = self.rho / self.spacing, self.rho / self.spacing**2
        left, right = scale * (psi[0] - psi[1]), scale * (psi[3] - psi[2])
        left_sq, right_sq = slope * (dpsi[0] - dpsi[1]), slope * (dpsi[2] - dpsi[3])
        inv_near = -1.0 / mu  # 1 / (p_u - kappa) of the origin pole
        inv_far = np.where(self.inner, 1.0 / (self.other - mu), 0.0)  # of the other one
        near, far = self.rho * inv_near, self.rho * inv_far
        near_sq, far_sq = near * inv_near, far * inv_far
        return (left + np.where(self.on_left, near, far), right + np.where(self.on_left, far, near),
                left_sq + np.where(self.on_left, near_sq, far_sq),
                right_sq + np.where(self.on_left, far_sq, near_sq))

    def inv_norm(self, mu: np.ndarray) -> np.ndarray:
        _, _, dpsi, dphi = self(mu)
        return 1.0 / np.sqrt(1.0 + dpsi + dphi)


def _arrowhead_eigensystem(poles: np.ndarray, z: np.ndarray) -> _Eigensystem:
    """Solve kappa + sum_u z_u^2 / (p_u - kappa) = 0 for all m + 1 roots.

    The left side F is increasing between poles.  Root k lies in
    (p_{k-1}, p_k), with p_{-1} and p_m replaced by bounds on the spectrum.
    After one bisection picks the half that holds the root, each root is
    iterated in coordinates shifted to the nearer pole with a rational
    model of F that matches its value and slope (two poles for an inner
    root, one pole plus the linear term for the outer ones), safeguarded
    by bisection of the bracket.  F and its slope come in closed form
    (``_CombSums``, all roots at once) when the poles are a uniform comb
    with equal couplings, and otherwise from the sum over the poles
    (``_PoleSums``, 32 roots at a time).
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
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        comb = _comb_spacing(poles, z)
        for ks in _block_slices(m + 1) if comb is None else [slice(0, m + 1)]:
            k = np.arange(ks.start, ks.stop)
            inner = (k > 0) & (k < m)
            left = np.where(k > 0, poles[np.maximum(k - 1, 0)], lower)
            right = np.where(k < m, poles[np.minimum(k, m - 1)], upper)
            mid = 0.5 * (left + right)
            if comb is None:
                terms = rho / (poles - mid[:, None])
                f_mid = mid + np.sum(terms, axis=1)
                tol = 8.0 * _EPS * (np.abs(mid) + np.sum(np.abs(terms), axis=1))
                del terms
            else:
                anchor = np.where(k > 0, left, right)
                sums = _CombSums(poles, comb[0], rho[0], k, anchor, k > 0)
                psi, phi, dpsi, dphi = sums(mid - anchor)
                f_mid = mid + psi + phi
                # this anchors the ideal comb at the bracket's left pole, the iteration may
                # anchor it at the right one: their far poles differ by up to twice the
                # drift bound, so F is known here only to that times its slope
                tol = 8.0 * _EPS * (np.abs(mid) + phi - psi) + 2.0 * comb[1] * (dpsi + dphi)
            # a root on the midpoint (a symmetric spectrum) is found already
            done = np.abs(f_mid) <= tol
            in_left_half = f_mid > 0.0
            lo_abs = np.where(in_left_half, left, mid)
            hi_abs = np.where(in_left_half, mid, right)
            use_left = (k == m) | ((k > 0) & in_left_half)
            o = np.where(use_left, left, right)
            lo, hi = lo_abs - o, hi_abs - o
            d_left = poles[np.maximum(k - 1, 0)] - o
            d_right = poles[np.minimum(k, m - 1)] - o
            if comb is None:
                sums = _PoleSums(poles, rho, k, o)
            else:
                sums = _CombSums(poles, comb[0], rho[0], k, o, use_left)
            mu = np.where(done, mid - o, 0.5 * (lo + hi))
            for it in range(_MAX_ITER):
                psi, phi, dpsi, dphi = sums(mu)
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
            iterations = max(iterations, it if done.all() else _MAX_ITER)
            origin[ks], offset[ks] = o, mu
            inv_norm[ks] = sums.inv_norm(mu)
    return _Eigensystem(poles, z, origin, offset, inv_norm, iterations)


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
        self._set(n, *np.divmod(keys[keep], n), vals[keep])

    def _set(self, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        self.n, self.rows, self.cols, self.vals = n, rows, cols, vals
        self._slots = (2 * rows[:, None] + np.arange(2)).ravel()  # re, im of each row

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        prod = self.vals * y[self.cols]
        return np.bincount(self._slots, weights=prod.view(float), minlength=2 * self.n).view(complex)

    def onenorm(self) -> float:
        """Exact 1-norm: the largest column sum of moduli."""
        return float(np.bincount(self.cols, weights=np.abs(self.vals), minlength=self.n).max())

    def reachable(self, seed: np.ndarray, mirror: np.ndarray | None = None) -> np.ndarray:
        """Sorted coordinates of the smallest set that holds the nonzeros of
        ``seed`` and is closed under the pattern (an entry (r, c) with c in the
        set puts r in it) and, if given, under the permutation ``mirror``.

        Propagation from ``seed`` leaves every other coordinate exactly 0.
        """
        mask = seed != 0
        while True:
            grown = mask | (np.bincount(self.rows, weights=mask[self.cols], minlength=self.n) > 0)
            if mirror is not None:
                grown |= grown[mirror]
            if np.array_equal(grown, mask):
                return np.flatnonzero(mask)
            mask = grown

    def restrict(self, idx: np.ndarray) -> "SparseGenerator":
        """The generator on the sorted coordinates ``idx``: the entries whose row
        and column both lie there, in the same (row, col) order, so each row of
        a product adds the same terms in the same order."""
        local = np.full(self.n, -1)
        local[idx] = np.arange(idx.size)
        rows, cols = local[self.rows], local[self.cols]
        keep = (rows >= 0) & (cols >= 0)
        sub = SparseGenerator.__new__(SparseGenerator)
        sub._set(idx.size, rows[keep], cols[keep], self.vals[keep])
        return sub


def components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Label of each of the nodes 0..n-1: the smallest node of its connected
    component in the graph where each pair (rows[k], cols[k]) joins its nodes."""
    label = np.arange(n)
    while True:
        lower = label.copy()
        np.minimum.at(lower, rows, label[cols])
        np.minimum.at(lower, cols, label[rows])
        if np.array_equal(lower, label):
            return label
        label = lower


def taylor_propagate(matvec, y: np.ndarray, h: float, norm: float, fold) -> np.ndarray:
    """exp(h A) y in s = ceil(h norm) equal sub-steps, with ``matvec(v)`` = A v
    and ``norm`` a bound on an operator norm of A.

    Each sub-step sums the Taylor series of exp((h / s) A) y until two
    successive terms fall below 2^-53 of the partial sum (max norm), then
    applies ``fold`` to the result.  The term and the partial sum are
    updated in place; ``matvec`` may return a buffer of its own, since
    that is read before its next call.  An empty ``y`` is returned as it is.
    """
    if not y.size:
        return y
    s = max(1, math.ceil(h * norm))
    hs = h / s
    out = np.empty_like(y)
    term = np.empty_like(y)
    mag = np.empty(y.shape)
    for _ in range(s):
        np.copyto(out, y)
        np.copyto(term, y)
        bound = np.abs(y, out=mag).max()  # max |y| plus max |term| of every term so far
        small = 0
        for k in range(1, _MAX_TERMS):
            np.multiply(matvec(term), hs / k, out=term)
            out += term
            top = np.abs(term, out=mag).max()
            bound += top
            # max |out| <= bound up to roundoff, so |out| is needed only for a term near the tail
            tail = top <= 2 * _TERM_TOL * bound and top <= _TERM_TOL * np.abs(out, out=mag).max()
            small = small + 1 if tail else 0
            if small == 2:
                break
        y = fold(out)
    return y
