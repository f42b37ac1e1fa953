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
  instead of O(m); other spectra sum over the poles.  A state enters the
  eigenbasis by ``_Eigensystem.coefficients`` and leaves it by ``.lower_at``,
  the only products with the eigenvectors' Cauchy matrix 1 / (kappa_k - p_u).
  On a comb they cost O(m log m) (``_CombCauchy``): the 17 nearest poles of
  each root are summed directly, and the far field is interpolated in the
  root's offset from its pole at 10 Chebyshev points, one FFT product per
  point (Dutt, Gu & Rokhlin, SIAM J. Numer. Anal. 33, 1689, 1996).
  Other poles divide by the gaps, 32 roots at a time, in O(m^2).
* ``taylor_propagate``: exp(h A) y by truncated Taylor series in
  ceil(h ||A||) sub-steps, for any bound ||A|| on an operator norm (the
  scaling of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011).  It
  builds the master equation's interval propagators h phi_1(h S), all their
  columns at once, as the exponential of the augmented generator
  [[S, I], [0, 0]] on a ``SparseGenerator`` in ceil(h ||S||_1) sub-steps,
  since its powers are [[S^k, S^(k-1)], [0, 0]]; the tests also run the
  four-port router and the per-interval master equation with it as oracles.
  ``SparseGenerator`` is a matrix given by its nonzeros sorted by (row, col);
  its matrix-vector product is one ``np.bincount`` over the interleaved real
  and imaginary parts, which adds each row's terms in column order.
  ``reachable`` closes a set of coordinates under its pattern and a mirror;
  ``restrict`` keeps the entries inside such a set, in the same order, so a
  vector that vanishes outside it is propagated on it alone with the same
  bits.  ``components`` labels the connected components of a pattern: the
  propagator's columns and the support's blocks.
* ``comb_sum``: sum_k a_k exp(i (f0 + k df)(t0 + j h)), a uniform comb on a
  uniform time grid, as Bluestein's chirp-z transform (Rabiner, Schafer &
  Rader, IEEE Trans. Audio Electroacoust. 17, 86, 1969): with kj = (k^2 +
  j^2 - (j - k)^2) / 2 it is one convolution with the chirp exp(-i df h
  m^2 / 2), three FFTs of a 5-smooth length at least n_t + n_q - 1.  Every
  phase is a product of two of f0, df, t0, h with an integer, reduced
  modulo 2 pi exactly (``_turns``), so only the FFTs' roundoff is left,
  however far the chirp runs.  The router's comb fields and the port-1
  integrals of its memory kernel go through it.
* ``exp_sum``: sum_k a_k exp(i w_k (t0 + j h)) at any frequencies, a type-1
  nonuniform FFT by Gaussian gridding (Dutt & Rokhlin, SIAM J. Sci. Comput.
  14, 1368, 1993; Greengard & Lee, SIAM Rev. 46, 443, 2004) in O(n log n +
  32 m): the reservoir survival, the sums over the C2 roots (all eight
  quadrature nodes in one call) and the reservoir classes in the router's
  memory kernel, and the spectrum of a sampled pulse.

All of them use elementwise operations, numpy reductions and numpy.fft
(pocketfft) only, never BLAS, so their bits do not depend on the BLAS
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InvalidInput, check_count, check_positive

_MAX_STEPS = 10**7  # the shipped, benchmark and test grids stay near 10^5


def steps_for(t_final: float, dt: float) -> tuple[int, float]:
    """Number of equal steps covering [0, t_final] with step <= dt."""
    ratio = check_positive("t_final", t_final) / check_positive("dt", dt)
    if not ratio <= _MAX_STEPS:  # also catches an overflow to inf
        raise ConfigurationError(f"t_final = {t_final:.3g} at dt = {dt:.3g} needs "
                                 f"{ratio:.3g} steps, more than {_MAX_STEPS:.0e}", arg="t_final")
    n = max(1, int(np.ceil(ratio - 1e-12)))
    return n, t_final / n


def sample_steps(nsteps: int, stride: int) -> list[int]:
    """Every ``stride``-th of the steps 1..nsteps, then the last."""
    check_count("nsteps", nsteps)
    check_count("stride", stride)
    return list(range(stride, nsteps, stride)) + [nsteps]


_BLOCK = 32  # roots per vectorized block
_EPS = float(np.finfo(float).eps)
_MAX_ITER = 100


def _block_slices(n: int):
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


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


def _over_two_pi(a: float, b: float) -> tuple[float, float]:
    """a b / 2 pi as hi + lo to about 2^-105 of itself, from the exact integer ratios
    of a and b."""
    (pa, qa), (pb, qb) = float(a).as_integer_ratio(), float(b).as_integer_ratio()
    num, den = pa * pb * _TURN, qa * qb << _TURN_BITS
    hi = num / den  # int / int rounds correctly
    ph, qh = hi.as_integer_ratio()
    return hi, (num * qh - ph * den) / (den * qh)


def _turns(a: float, b: float, n: np.ndarray) -> np.ndarray:
    """a b n / 2 pi less its nearest integer, for integer-valued floats n, |n| < 2^52.

    With a b / 2 pi = hi + lo (``_over_two_pi``), hi is cut into parts of 53 -
    bits(max|n|) bits, so that each part times n is an exact float and loses its
    nearest integer exactly; lo n is below 2^-52 of hi n and needs no care.
    """
    hi, lo = _over_two_pi(a, b)
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


_SPREAD = 16  # grid points on each side of a frequency that its Gaussian reaches
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter of a float into two 26-bit halves


def _two_product(a, b):
    """fl(a b) and the exact rest a b - fl(a b) (Dekker, Numer. Math. 18, 224, 1971)."""
    p = a * b
    a_hi, b_hi = _SPLIT * a - (_SPLIT * a - a), _SPLIT * b - (_SPLIT * b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def exp_sum(freqs: np.ndarray, weights: np.ndarray, t0: float, h: float,
            n: int) -> np.ndarray:
    """sum_k weights[..., k] exp(i freqs[k] (t0 + j h)) for j = 0..n-1, by Gaussian gridding.

    With c = n // 2 and l = j - c this is sum_k a_k exp(i l x_k), a_k = weights[k]
    exp(i freqs[k] (t0 + c h)) and x_k = freqs[k] h.  Each a_k is spread onto the 32
    points of a periodic grid of M = fft_size(max(2 n, 32)) around x_k, weighted by
    exp(-(2 pi m / M - x_k)^2 / (4 tau)) (``np.bincount``); one inverse FFT gives the
    sum times sqrt(tau / pi) exp(-l^2 tau), which is divided out.  tau = 16 pi / (M (M -
    n / 2)) balances the Gaussian's truncation against its aliasing.  x_k, c x_k and
    the place of x_k on the grid (an integer taken modulo M and a fraction) are
    carried with their exact rests, so the FFT's l never multiplies a rounded phase
    and no phase is reduced modulo 2 pi.  Leading axes of ``weights`` are separate
    sums on one spreading table, each transformed alone.
    """
    freqs = np.asarray(freqs, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    size, centre = fft_size(max(2 * n, 32)), n // 2
    scale, scale_lo = _over_two_pi(size, 1.0)
    x, x_lo = _two_product(freqs, h)
    u, u_lo = _two_product(x, scale)
    base = np.floor(u)
    frac = (u - base) + (u_lo + x_lo * scale + x * scale_lo)
    s = np.arange(1 - _SPREAD, _SPREAD + 1)
    tau = np.pi * _SPREAD / (size * (size - 0.5 * n))
    spread = np.exp(-(np.pi**2 / (size * size * tau)) * (s - frac[:, None]) ** 2)
    slots = (2 * ((base.astype(np.int64)[:, None] + s) % size)[..., None] + np.arange(2)).ravel()
    xc, xc_lo = _two_product(x, float(centre))
    start = np.exp(1j * freqs * t0) * np.exp(1j * xc) * np.exp(1j * (xc_lo + x_lo * centre))
    deconv = math.sqrt(np.pi / tau) * np.exp(tau * (np.arange(n) - centre) ** 2)
    out = np.empty(weights.shape[:-1] + (n,), dtype=complex)
    for row in np.ndindex(weights.shape[:-1]):
        a = weights[row] * start
        grid = np.bincount(slots, weights=(a[:, None] * spread).view(float).ravel(),
                           minlength=2 * size).view(complex)
        grid = np.fft.ifft(grid, out=grid)  # l < 0 at its end
        np.multiply(grid[size - centre:], deconv[:centre], out=out[row][:centre])
        np.multiply(grid[:n - centre], deconv[centre:], out=out[row][centre:])
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

    def gaps(self, ks) -> np.ndarray:
        """kappa_k - p_u for the roots ``ks`` (rows) and every pole (columns)."""
        return self.offset[ks, None] - (self.poles[None, :] - self.origin[ks, None])

    @cached_property
    def cauchy(self) -> _CombCauchy | None:
        """The comb's fast Cauchy products, built on first use; None off a comb."""
        comb = _comb_spacing(self.poles, self.z) if self.poles.size else None
        return None if comb is None else _CombCauchy(self, comb[0])

    def coefficients(self, upper: complex, lower: np.ndarray) -> np.ndarray:
        """The state (upper, lower) on the eigenvectors: (upper + sum_u z_u lower_u /
        (kappa_k - p_u)) / N_k.  On a comb the sums are ``_CombCauchy``'s; on other poles
        they are complex products with each 32-root block's reciprocals, which keep
        numpy's pairwise sums and the bits of a division by the gaps."""
        coef = np.full(self.roots.size, complex(upper))
        if np.any(lower):
            x = self.z * lower
            if self.cauchy is not None:
                coef += self.cauchy.rows(x)
            else:
                for ks in _block_slices(coef.size):
                    coef[ks] += np.sum(x * (1.0 / self.gaps(ks)), axis=1)
        return np.multiply(coef, self.inv_norm, out=coef)

    def lower_at(self, coef: np.ndarray, tau: float) -> np.ndarray:
        """The lower components at tau of exp(i K tau) on the state ``coef``: z_u sum_k
        coef_k exp(i kappa_k tau) / (N_k (kappa_k - p_u)).  On a comb the sums are
        ``_CombCauchy``'s; on other poles they are real ``np.einsum`` products of the
        weights' real and imaginary parts with each 32-root block's reciprocals."""
        weight = coef * self.inv_norm * np.exp(1j * self.roots * tau)
        if self.cauchy is not None:
            return self.z * self.cauchy.columns(weight)
        re, im = np.ascontiguousarray(weight.real), np.ascontiguousarray(weight.imag)
        out_re, out_im = np.zeros(self.poles.size), np.zeros(self.poles.size)
        for ks in _block_slices(weight.size):
            inv = 1.0 / self.gaps(ks)
            out_re += np.einsum("k,ku->u", re[ks], inv)
            out_im += np.einsum("k,ku->u", im[ks], inv)
        return self.z * (out_re + 1j * out_im)


_NEAR = 8  # poles on each side of a root's origin whose Cauchy terms are summed directly
# Chebyshev points (2nd kind) on [-1/2, 1/2] and their barycentric weights, built from
# operations the sums above already run: a first numpy cos, power or list conversion
# pages in code that adds about 0.1 MiB to every process that imports this module
_CHEB = 0.5 * np.exp(1j * np.pi / 9 * np.arange(10)).real
_BARY = np.ones(10)
_BARY[1::2], _BARY[[0, 9]] = -1.0, (0.5, -0.5)


class _CombCauchy:
    """The Cauchy matrix C_ku = 1 / (kappa_k - p_u) of an eigensystem whose m poles are
    a comb of spacing d, applied to a vector in O(m log m) from either side.

    Root k is its origin pole j_k plus d t_k, so kappa_k - p_u = d (t_k + l) with
    l = j_k - u.  The near field |l| <= 8 is summed with the exact gaps.  In the far
    field 1 / (d (t + l)) is interpolated in t at 10 Chebyshev points t_i on
    [-1/2, 1/2] with barycentric weights ell_i(t_k), to about (4 |l|)^-10 of itself
    (Dutt, Gu & Rokhlin, SIAM J. Numer. Anal. 33, 1689, 1996).  Node i is then one
    Toeplitz product with the real kernel 1 / (d (t_i + l)), |l| > 8, by FFTs of
    ``size`` = fft_size(2 m - 1).  A real kernel's spectrum is Hermitian, so the first
    size // 2 + 1 entries are kept and ``_full`` completes them; the FFTs are complex,
    as in the other sums, since a first real FFT pages in about 0.1 MiB of code.  A
    root with |t_k| >= 1/2 (the midpoint root of a symmetric comb, an outer root far
    out) is summed directly over every pole.  Each node and each near offset is taken
    in turn, so no temporary holds more than a few vectors.
    """

    def __init__(self, eig: _Eigensystem, spacing: float):
        m = self.poles = eig.poles.size
        self.origin = np.searchsorted(eig.poles, eig.origin)  # j_k: every origin is a pole
        t = eig.offset / spacing
        near = np.abs(t) < 0.5  # off the interpolation nodes t_i = +-1/2
        self.direct = np.flatnonzero(~near)
        self.inv_direct = 1.0 / eig.gaps(self.direct)
        # row l: 1 / (kappa_k - p_u) at u = j_k + l - 8, 0 off the comb and for a direct root
        self.inv_near = np.zeros((2 * _NEAR + 1, t.size))
        for row, u in zip(self.inv_near, self.origin + np.arange(-_NEAR, _NEAR + 1)[:, None]):
            on = near & (u >= 0) & (u < m)
            row[on] = 1.0 / (eig.offset[on] - (eig.poles[u[on]] - eig.origin[on]))
        ell = _BARY[:, None] / (np.where(near, t, 0.0) - _CHEB[:, None])
        self.ell = np.where(near, ell / np.sum(ell, axis=0), 0.0)  # ell_i(t_k), row i
        self.size = fft_size(2 * m - 1)
        self.spectra = np.empty((_CHEB.size, self.size // 2 + 1), dtype=complex)
        far, kernel = np.arange(_NEAR + 1, m), np.zeros(self.size)
        for spectrum, node in zip(self.spectra, _CHEB):
            kernel[far] = 1.0 / (spacing * (node + far))
            kernel[self.size - far] = 1.0 / (spacing * (node - far))  # l < 0 at the end
            spectrum[:] = np.fft.fft(kernel)[:spectrum.size]

    def _full(self, half: np.ndarray) -> np.ndarray:
        """A kernel's whole spectrum from its first size // 2 + 1 entries."""
        return np.concatenate((half, half[1:self.size - half.size + 1][::-1].conj()))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """C x: sum_u x_u / (kappa_k - p_u) for every root k."""
        padded = np.zeros(self.poles + 2 * _NEAR, dtype=complex)
        padded[_NEAR:-_NEAR] = x
        out = np.zeros(self.origin.size, dtype=complex)
        for l, inv in enumerate(self.inv_near):
            out += padded[self.origin + l] * inv
        parts = np.fft.fft(x, self.size)
        for spectrum, ell in zip(self.spectra, self.ell):  # node i's product at j_k
            out += np.fft.ifft(parts * self._full(spectrum))[self.origin] * ell
        out[self.direct] += np.sum(x * self.inv_direct, axis=1)
        return out

    def columns(self, w: np.ndarray) -> np.ndarray:
        """w C: sum_k w_k / (kappa_k - p_u) for every pole u."""
        m = self.poles
        slots = (2 * self.origin[:, None] + np.arange(2)).ravel()  # re, im of j_k
        parts = np.zeros(self.size, dtype=complex)
        for spectrum, ell in zip(self.spectra, self.ell):
            # w ell_i scattered onto j_k correlates with the kernel: the conjugate spectrum
            spread = np.bincount(slots, weights=(w * ell).view(float), minlength=2 * m)
            parts += np.fft.fft(spread.view(complex), self.size) * self._full(spectrum).conj()
        far = np.fft.ifft(parts)[:m]
        padded = np.zeros(2 * (m + 2 * _NEAR))
        for l, inv in enumerate(self.inv_near):
            padded += np.bincount(slots + 2 * l, weights=(w * inv).view(float),
                                  minlength=padded.size)
        out = padded.view(complex)[_NEAR:-_NEAR] + far
        out += np.sum(w[self.direct, None] * self.inv_direct, axis=0)
        return out


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
    origin, offset, inv_norm = np.empty(m + 1), np.empty(m + 1), np.empty(m + 1)
    iterations = 0
    # past the float range the eigenpairs are not finite, which fails below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho = z * z
        znorm = float(np.sqrt(np.sum(rho)))
        lower = min(poles[0], 0.0) - 2.0 * znorm  # F(lower) < 0
        upper = max(poles[-1], 0.0) + 2.0 * znorm  # F(upper) > 0
        comb = _comb_spacing(poles, z)
        drift = 0.0 if comb is None else comb[1]

        def sums_at(k, o, on_left):  # the sums of F - kappa about the roots' origins o
            if comb is None:
                return _PoleSums(poles, rho, k, o)
            return _CombSums(poles, comb[0], rho[0], k, o, on_left)

        for ks in _block_slices(m + 1) if comb is None else [slice(0, m + 1)]:
            k = np.arange(ks.start, ks.stop)
            inner = (k > 0) & (k < m)
            left = np.where(k > 0, poles[np.maximum(k - 1, 0)], lower)
            right = np.where(k < m, poles[np.minimum(k, m - 1)], upper)
            mid = 0.5 * (left + right)
            anchor = np.where(k > 0, left, right)
            psi, phi, dpsi, dphi = sums_at(k, anchor, k > 0)(mid - anchor)
            f_mid = mid + psi + phi
            # on a comb this anchors the ideal comb at the bracket's left pole, the
            # iteration may anchor it at the right one: their far poles differ by up to
            # twice the drift bound, so F is known here only to that times its slope
            tol = 8.0 * _EPS * (np.abs(mid) + phi - psi) + 2.0 * drift * (dpsi + dphi)
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
            sums = sums_at(k, o, use_left)
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
            del sums  # before the next block's midpoint sums: one block's tables at a time
    if not (np.all(np.isfinite(offset)) and np.all(np.isfinite(inv_norm))):
        raise ConfigurationError("the arrowhead's eigenpairs leave the float range")
    return _Eigensystem(poles, z, origin, offset, inv_norm, iterations)


_TERM_TOL = 2.0**-53
_MAX_TERMS = 100  # never reached: with h ||A|| <= 1 the series converges by ~20 terms


class SparseGenerator:
    """n x n matrix: its nonzeros ``vals``, sorted by (``rows``, ``cols``)."""

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        self.n, self.rows, self.cols, self.vals = n, rows, cols, vals
        self._slots = (2 * rows[:, None] + np.arange(2)).ravel()  # re, im of each row

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        prod = self.vals * y[self.cols]
        return np.bincount(self._slots, weights=prod.view(float), minlength=2 * self.n).view(complex)

    def onenorm(self) -> float:
        """Exact 1-norm: the largest column sum of moduli."""
        return float(np.bincount(self.cols, weights=np.abs(self.vals), minlength=self.n).max())

    def reachable(self, seed: np.ndarray, mirror: np.ndarray) -> np.ndarray:
        """Sorted coordinates of the smallest set that holds the nonzeros of
        ``seed`` and is closed under the pattern (an entry (r, c) with c in the
        set puts r in it) and under the permutation ``mirror``.

        Propagation from ``seed`` leaves every other coordinate exactly 0.
        """
        mask = seed != 0
        while True:
            grown = mask | (np.bincount(self.rows, weights=mask[self.cols], minlength=self.n) > 0)
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
        return SparseGenerator(idx.size, rows[keep], cols[keep], self.vals[keep])


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


def substeps(h: float, norm: float) -> int:
    """ceil(h norm), at least 1: the sub-steps of ``taylor_propagate`` over h for the bound
    ``norm``, which must be at most _MAX_STEPS."""
    if not float(h) * float(norm) <= _MAX_STEPS:  # also catches an overflow to inf
        raise ConfigurationError(f"exp(h A) at h = {h:.3g} needs over {_MAX_STEPS:.0e} sub-steps")
    return max(1, math.ceil(h * norm))


def taylor_propagate(matvec, y: np.ndarray, h: float, norm: float) -> tuple[np.ndarray, int]:
    """exp(h A) y in s = ceil(h norm) sub-steps of tau = h / s, and the number of products
    ``matvec(v)`` = A v it took.  ``norm`` bounds an operator norm of A, or ||S||_1 for
    A = [[S, I], [0, 0]] on y = (0, e_j), whose term k is at most tau (tau norm)^(k-1) / k!.

    Each sub-step sums the Taylor series of exp((h / s) A) y until two successive
    terms fall below 2^-53 of the partial sum (max norm).  The term and the partial
    sum are updated in place; ``matvec`` may return a buffer of its own, since that
    is read before its next call.  An empty ``y`` is returned as it is.
    """
    if not y.size:
        return y, 0
    s = substeps(h, norm)
    hs = h / s
    out = np.empty_like(y)
    term = np.empty_like(y)
    mag = np.empty(y.shape)
    products = 0
    for _ in range(s):
        np.copyto(out, y)
        np.copyto(term, y)
        small = 0
        for k in range(1, _MAX_TERMS):
            np.multiply(matvec(term), hs / k, out=term)
            products += 1
            out += term
            tail = np.abs(term, out=mag).max() <= _TERM_TOL * np.abs(out, out=mag).max()
            small = small + 1 if tail else 0
            if small == 2:
                break
        y = out
    return y, products
