"""Determinantal statistics: correlations, gap probabilities, disk sampling.

Correlation functions are determinants of the weighted kernel.  Gap
probabilities use the finite-rank structure: with quadrature nodes x_p and
weights u_p on the region, the alternating series of correlation integrals
telescopes into the characteristic polynomial of the N x N matrix

    Lambda[n, m] = sum_p u_p psi_n(x_p) conj(psi_m(x_p)),
    psi_n = pi_n * P_K^{-s},

whose eigenvalues lambda give the n-th term as the elementary symmetric
function (-1)^n e_n(lambda) and the full sum as prod (1 - lambda).  The series
terminates exactly at order N because the kernel has rank N.

For the disk the ensemble is rotation invariant and the moduli of the points
are independent, radius n having density proportional to
r^(2n+1) max(1, r)^(-2s).  Normalizing gives the sampling law

    P(R_n <= r) = r^(2n+2) (s-n-1)/s            for r <= 1,
    P(R_n <= r) = 1 - ((n+1)/s) r^(-2(s-n-1))   for r > 1,

which is inverted in closed form.  Randomness comes from counter-based
streams: radius/angle pair n of configuration c reads the Philox stream with
counter block [0, 0, n, 0] at positions (2c, 2c+1), so any configuration can
be regenerated independently and results are reproducible under parallel
generation.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import ExteriorMap, disk_map
from .kernels import _check_order, weight_at, weighted_limit
from .orthopoly import OrthoPolySet


@dataclass(frozen=True)
class DiskRegion:
    center: complex
    radius: float


@dataclass(frozen=True)
class GapResult:
    """Gap probability with its Fredholm-series diagnostics.

    ``terms[n]`` is the n-th alternating term (-1)^n e_n; ``value`` is the
    eigenproduct prod(1 - lambda) and ``series_sum`` the truncated sum of the
    terms -- equal up to rounding, reported separately as a cross-check.
    """

    value: float
    series_sum: float
    terms: np.ndarray
    nodes: tuple  # (radii, angles) of the finest pass; (0, 0) when no pass ran


@dataclass(frozen=True)
class RadialHistogram:
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    density: np.ndarray
    stderr: np.ndarray
    n_configs: int


def corr_fn(polys: OrthoPolySet, N: int, points) -> float:
    """n-point correlation det[K~(x_i, x_j)]; nonnegative up to rounding."""
    pts = np.asarray(points, dtype=complex).ravel()
    n = len(pts)
    _check_order(polys, N)
    if n > N:
        warnings.warn(f"correlation order {n} exceeds kernel rank {N}; value is 0 to rounding")
    psi = polys.eval_all(pts, N - 1) * weight_at(polys.map, polys.s, pts)
    mat = psi.T @ psi.conj()  # mat[i, j] = weighted_kernel(z_i, z_j)
    if n == 1:
        return float(mat[0, 0].real)
    return float(np.linalg.det(mat).real)


# -- scaling-limit correlations ---------------------------------------------------

def sine_corr(a: complex, b: complex) -> float:
    """Two-point correlation of the sine-kernel line ensemble (spacing 2 pi)."""
    d = a - b
    if d == 0:
        return 0.0
    s = 2.0 * np.sin(d / 2.0) / d
    return float(1.0 - s * s)


def scaled_corr(ell: float, points, emap: ExteriorMap = disk_map(),
                theta: float = 0.0) -> float:
    """Scaled n-point correlation det[H~(a_i, a_j)] of boundary offsets, with
    H~ = kernels.weighted_limit; defaults to the disk at z = 1, where
    tau(a, 1) = a."""
    pts = np.asarray(points, dtype=complex).ravel()
    n = len(pts)
    mat = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i, j] = weighted_limit(emap, theta, pts[i], pts[j], ell)
    if n == 1:
        return float(mat[0, 0].real)
    return float(np.linalg.det(mat).real)


def r1_limit(ell: float, a: complex, emap: ExteriorMap = disk_map(), theta: float = 0.0) -> float:
    return scaled_corr(ell, [a], emap, theta)


def r2_limit(ell: float, a: complex, b: complex, emap: ExteriorMap = disk_map(),
             theta: float = 0.0) -> float:
    return scaled_corr(ell, [a, b], emap, theta)


# -- work slices ---------------------------------------------------------------------

def _spread(fill, count: int) -> None:
    """Run fill(lo, hi) on contiguous slices that cover range(count), one
    slice per usable CPU.

    Slice 0 runs on the calling thread and every other slice on a thread of
    its own; numpy releases the GIL in the heavy calls of each user.  Each
    slice runs in its own copy of the caller's context, so context variables
    such as np.errstate hold in every slice.  Once every thread has joined,
    the exception of the lowest-numbered failing slice is raised.  With one
    usable CPU, or count < 2, no thread is started.
    """
    # os.sched_getaffinity is missing on macOS and Windows
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    k = max(1, min(count, cpus or 1))
    bounds = [count * i // k for i in range(k + 1)]
    errors = [None] * k

    def run(i: int) -> None:
        try:
            fill(bounds[i], bounds[i + 1])
        except BaseException as exc:
            errors[i] = exc

    # a context can be entered by one thread at a time: one copy per slice
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, i))
               for i in range(1, k)]
    for thread in threads:
        thread.start()
    contextvars.copy_context().run(run, 0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


# -- gap probabilities --------------------------------------------------------------

def _region_nodes(region: DiskRegion, n_rad: int, n_ang: int):
    """Polar tensor nodes and area weights, shape (radii, n_ang) each; radial
    panels split where the weight kernel loses smoothness (the unit circle,
    concentric case), so a split region has 2 n_rad radii."""
    xg, wg = np.polynomial.legendre.leggauss(n_rad)
    panels = [(0.0, region.radius)]
    if abs(region.center) == 0.0 and region.radius > 1.0:
        panels = [(0.0, 1.0), (1.0, region.radius)]
    radii, wr = [], []
    for lo, hi in panels:
        radii.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        wr.append(0.5 * (hi - lo) * wg)
    radii = np.concatenate(radii)
    wr = np.concatenate(wr)
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    pts = region.center + radii[:, None] * np.exp(1j * theta[None, :])
    u = (wr * radii)[:, None] * (2.0 * np.pi / n_ang) * np.ones_like(theta)[None, :]
    return pts, u


def _gap_eigenvalues(polys: OrthoPolySet, N: int, region: DiskRegion,
                     n_rad: int, n_ang: int) -> tuple[np.ndarray, tuple]:
    """Eigenvalues of Lambda on one quadrature pass, with the pass's node
    counts (radii, angles)."""
    pts, u = _region_nodes(region, n_rad, n_ang)
    shape = pts.shape
    pts, u = pts.ravel(), u.ravel()
    psi = np.empty((N, pts.size), dtype=complex)

    def fill(lo: int, hi: int) -> None:
        # the weights come first: the inversion's temporaries are freed before
        # eval_all builds the slice's (N, nodes) table, the peak of the pass
        wts = weight_at(polys.map, polys.s, pts[lo:hi])
        psi[:, lo:hi] = polys.eval_all(pts[lo:hi], N - 1) * (wts * np.sqrt(u[lo:hi]))[None, :]

    _spread(fill, pts.size)
    lam = np.linalg.eigvalsh(psi @ psi.conj().T)
    return np.clip(lam, 0.0, None), shape


def gap_probability(polys: OrthoPolySet, N: int, region: DiskRegion,
                    n_rad: int = 48, n_ang: int = 128) -> GapResult:
    """Probability that the region holds no points, by Fredholm truncation.

    Refines the quadrature twice; a non-monotone refinement pattern triggers
    a warning carrying both estimates.  A region of radius 0 is empty (value
    1); a negative radius raises ValueError.
    """
    if n_rad < 1 or n_ang < 1:
        raise ValueError(f"gap quadrature needs at least one node each way (got {n_rad} x {n_ang})")
    if not region.radius >= 0:
        raise ValueError(f"gap region radius must be >= 0 (got {region.radius!r})")
    if region.radius == 0:
        return GapResult(1.0, 1.0, np.array([1.0]), (0, 0))
    vals = []
    lam = shape = None
    for mult in (1, 2, 4):
        lam, shape = _gap_eigenvalues(polys, N, region, n_rad * mult, n_ang * mult)
        vals.append(float(np.prod(1.0 - lam)))
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    if d2 > d1 and d2 > 1e-10:
        warnings.warn(
            f"gap quadrature refinement is not settling: estimates {vals[1]!r}, {vals[2]!r}")
    terms = np.poly(lam)  # terms[n] = (-1)^n e_n(lambda)
    series = float(np.sum(terms[: N + 1]))
    return GapResult(vals[2], series, terms[: N + 1], shape)


def gap_probability_radial_product(N: int, s: float, rho: float) -> float:
    """Disk-ensemble oracle: prod_n P(R_n > rho) from the radial law."""
    return float(np.prod([1.0 - radius_cdf(n, s, rho) for n in range(N)]))


# -- exact disk sampler ---------------------------------------------------------------

def radius_cdf(n: int, s: float, r: float) -> float:
    """P(R_n <= r) for s > n + 1; at s = inf R_n is supported on [0, 1]."""
    if not s > n + 1:
        raise ValueError(f"radius law needs s > n + 1 (got n={n}, s={s})")
    if r <= 0:
        return 0.0
    if r <= 1.0:
        return r ** (2 * n + 2) * ((s - n - 1) / s if math.isfinite(s) else 1.0)
    return 1.0 - (n + 1) / s * r ** (-2.0 * (s - n - 1))


def radius_ppf(n: int, s: float, u):
    """Inverse of radius_cdf for finite s > n + 1 and u in [0, 1); a float for
    scalar u, else an array.

    Both closed-form branches are evaluated on every u and the one on u's
    side of the split P(R_n <= 1) = (s-n-1)/s is kept; on [0, 1) neither
    branch divides by zero or takes a power of a negative number.
    """
    if not (math.isfinite(s) and s > n + 1):
        raise ValueError(f"radius law needs finite s > n + 1 (got n={n}, s={s})")
    u = np.asarray(u, dtype=float)
    ok = (u >= 0.0) & (u < 1.0)
    if not np.all(ok):
        raise ValueError(f"radius_ppf needs u in [0, 1) (got u={float(u[~ok][0])!r})")
    split = (s - n - 1) / s
    r = np.where(u <= split,
                 (u * s / (s - n - 1)) ** (1.0 / (2 * n + 2)),
                 (((n + 1) / s) / (1.0 - u)) ** (1.0 / (2.0 * (s - n - 1))))
    return float(r) if r.ndim == 0 else r


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


def sample_disk_batch(N: int, s: float, seed: int, count: int) -> np.ndarray:
    """count independent configurations, shape (count, N) complex.

    Point index n is drawn from its own Philox stream, so the N streams are
    independent work: each fills row n of an (N, count) buffer, inverting the
    radial law on all count uniforms at once, and the rows are split into
    one slice per usable CPU (numpy releases the GIL in the draws, the
    powers and the complex exponential).  The result is the transposed
    buffer, an F-ordered view; the values do not depend on the number of
    slices.  An exception raised while filling a row reaches the caller.
    """
    if not (np.isfinite(s) and s > N):
        raise ValueError(f"sampler requires finite s > N (got s={s}, N={N})")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"sampler seed must lie in [0, 2**128) (got seed={seed!r})")
    buf = np.empty((N, count), dtype=complex)

    def fill(lo: int, hi: int) -> None:
        for n in range(lo, hi):
            u = _stream(seed, n).random(2 * count)
            buf[n] = radius_ppf(n, s, u[0::2]) * np.exp(2j * np.pi * u[1::2])

    _spread(fill, N)
    return buf.T


# -- Monte Carlo estimators --------------------------------------------------------------

def empirical_r1(samples: np.ndarray, edges: np.ndarray) -> RadialHistogram:
    """Radial one-point density estimate with per-bin standard errors.

    ``samples`` holds configurations row-wise; the density is per unit area,
    so integrating it over the plane recovers the point count N.
    """
    samples = np.atleast_2d(np.asarray(samples))
    count = samples.shape[0]
    if count < 2:
        raise ValueError(f"empirical_r1 needs at least 2 configurations for a standard "
                         f"error (got {count})")
    edges = np.asarray(edges, dtype=float)
    if not (edges.ndim == 1 and edges.size >= 2 and np.all(np.diff(edges) > 0)):
        raise ValueError(f"empirical_r1 needs strictly increasing bin edges (got {edges!r})")
    # slot k + 1 of a configuration's row counts edges[k] <= |z| < edges[k+1];
    # the end slots take the points below edges[0], at or beyond edges[-1]
    # and NaN, and are dropped
    slots = edges.size + 1
    table = np.zeros(count * slots, dtype=np.intp)

    def fill(lo: int, hi: int) -> None:
        # a slice of configurations writes only its own rows of the table
        offsets = np.arange(lo, hi) * slots
        for column in samples[lo:hi].T:
            np.add.at(table, offsets + np.searchsorted(edges, np.abs(column), side="right"), 1)

    _spread(fill, count)
    per_config = table.reshape(count, slots)[:, 1:-1]
    area = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
    mean = per_config.mean(axis=0)
    stderr_counts = per_config.std(axis=0, ddof=1) / math.sqrt(count)
    return RadialHistogram(edges[:-1], edges[1:], mean / area, stderr_counts / area, count)


def kernel_r1_binned(polys: OrthoPolySet, N: int, edges: np.ndarray) -> np.ndarray:
    """Mean of R_1 over each annulus edges[i] <= |z| < edges[i+1], per unit area.

    Exact for the disk, the one map whose weight is rotation invariant: the
    angular mean of |pi_n|^2 is sum_j |a_nj|^2 r^(2j) in the monomial
    coefficients a_nj, so with m_j = sum_{n<N} |a_nj|^2 the annulus mean is

        2 sum_j m_j int_lo^hi r^(2j+1) max(1, r)^(-2s) dr / (hi^2 - lo^2).

    Each bin is split at r = 1 into two power integrals; the exterior one
    vanishes at s = inf.  Raises ValueError for any map other than the disk.
    """
    if not polys.map.is_disk():
        raise ValueError("kernel_r1_binned needs the rotation-invariant disk weight")
    _check_order(polys, N)
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    m = np.sum(np.abs(polys.mono_coeffs[:N, :N]) ** 2, axis=0)
    p = 2.0 * np.arange(N) + 2.0
    total = _power_integrals(p, np.minimum(lo, 1.0), np.minimum(hi, 1.0)) @ m
    if np.isfinite(polys.s):
        total += _power_integrals(p - 2.0 * polys.s, np.maximum(lo, 1.0), np.maximum(hi, 1.0)) @ m
    return 2.0 * total / ((hi - lo) * (hi + lo)).ravel()


def _power_integrals(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(b^p - a^p) / p for 0 <= a <= b and p != 0, shape (bins, powers).

    Taken as the larger endpoint term times -expm1(-|p| log(b/a)) / |p|, which
    keeps full relative accuracy in thin bins, where the plain difference
    b^p - a^p cancels (about 4e-14 on bins of width 5e-4 at r = 1).  At
    a = 0 the logarithm is infinite and the result is b^p / p.
    """
    top = np.where(p > 0, b ** p, a ** p)
    with np.errstate(divide="ignore"):
        log_ratio = np.log1p((b - a) / a)
    return -top * np.expm1(-np.abs(p) * log_ratio) / np.abs(p)


def expected_count_outside(N: int, s: float) -> float:
    """Mean number of points outside the unit circle: sum (n+1)/s."""
    return sum((n + 1) / s for n in range(N))
