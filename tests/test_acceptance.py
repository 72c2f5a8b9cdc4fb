"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from potens.geometry import DomainSpec, ExteriorMap, disk_map, ellipse_map
from potens.kernels import (
    bergman_kernel,
    h_limit,
    kernel_sum,
    omega_of,
    reproducing_check,
    scaled_ratio,
    scaling_predictor,
    weighted_kernel,
)
from potens.moments import moments
from potens.orthopoly import closed_form, kappa_asymptotic, orthonormalize
from potens.pointprocess import (
    DiskRegion,
    empirical_r1,
    gap_probability,
    gap_probability_radial_product,
    kernel_r1_binned,
    r1_limit,
    r2_limit,
    sample_disk_batch,
    sine_corr,
)

from _bruteforce import disk_kernel_gap, gram_quadrature, gram_schmidt_polys, monomial_gram


def _report(num, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def _coeff_devs(got, expect):
    lead = abs(expect[-1])
    devs = []
    for g, e in zip(got, expect):
        if abs(e) > 0:
            devs.append(abs(g - e) / abs(e))
        else:
            devs.append(abs(g) / lead)
    return max(devs)


def test_criterion_1_disk_closed_form():
    start = time.monotonic()
    emap = disk_map()
    worst = 0.0
    for s in (25.0, 40.5, np.inf):
        polys = orthonormalize(moments(emap, 20, s))
        for n in range(21):
            cf = closed_form(DomainSpec.disk(), n, s)
            worst = max(worst, _coeff_devs(polys.mono_coeffs[n, : n + 1], cf.coeffs))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed <= 10.0
    _report(1, ok, f"max coeff rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed <= 10.0


def test_criterion_2_ellipse_closed_form():
    start = time.monotonic()
    worst = 0.0
    worst_off = 0.0
    for q in (0.25, 0.5):
        emap = ellipse_map(q)
        for s in (30.0, np.inf):
            table = moments(emap, 20, s)
            off = table.entries - np.diag(np.diag(table.entries))
            worst_off = max(worst_off, float(np.max(np.abs(off))))
            polys = orthonormalize(table)
            for n in range(21):
                cf = closed_form(DomainSpec.ellipse(q), n, s)
                worst = max(worst, _coeff_devs(polys.mono_coeffs[n, : n + 1], cf.coeffs))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and worst_off <= 1e-10 and elapsed <= 60.0
    _report(2, ok, f"max coeff rel err {worst:.2e}, off-diag {worst_off:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert worst_off <= 1e-10
    assert elapsed <= 60.0


def test_criterion_3_bruteforce_oracle():
    emap = ExteriorMap(1.0, (0j, 0.2, 0.1j))
    s, n_max = 25.0, 10
    polys = orthonormalize(moments(emap, n_max, s))
    gs = gram_schmidt_polys(monomial_gram(emap, n_max, s))
    rng = np.random.default_rng(1234)
    pts = rng.uniform(-2, 2, size=(20, 2))
    zs = pts[:, 0] + 1j * pts[:, 1]
    vals = polys.eval_all(zs)
    worst = 0.0
    for n in range(n_max + 1):
        theirs = np.polyval(gs[n, : n + 1][::-1], zs)
        worst = max(worst, float(np.max(np.abs(vals[n] - theirs) / np.maximum(1.0, np.abs(theirs)))))
    ok = worst <= 1e-7
    _report(3, ok, f"max value deviation {worst:.2e} over 20 points, n <= {n_max}")
    assert worst <= 1e-7


def test_criterion_4_kappa_rate():
    emap = ellipse_map(0.5)
    degrees = np.arange(4, 21)
    rels = []
    for n in degrees:
        s = 2.0 * n
        polys = orthonormalize(moments(emap, n, s))
        rels.append(abs(polys.kappas[n] / kappa_asymptotic(n, s, emap) - 1.0))
    slope = float(np.polyfit(degrees, np.log(rels), 1)[0])
    target = 2 * math.log(0.5)
    ok = abs(slope - target) <= 0.1 * abs(target)
    _report(4, ok, f"fitted slope {slope:.4f} vs 2 ln 0.5 = {target:.4f}")
    assert abs(slope - target) <= 0.1 * abs(target)


def _scaling_scenarios():
    return (
        ("ell=1/2", 0.5, lambda n: 2.0 * n),
        ("ell=0", 0.0, lambda n: np.inf),
        ("ell=1", 1.0, lambda n: float(n + 1)),
    )


def test_criterion_5_scaling_universality():
    emap = disk_map()
    a, b = 0.3 + 0.2j, -0.1 + 0j
    all_ok = True
    details = []
    for label, ell, srule in _scaling_scenarios():
        pred = h_limit(ell, a + np.conj(b))
        errs = []
        for n in (50, 100, 200):
            polys = orthonormalize(moments(emap, n - 1, srule(n)))
            errs.append(abs(scaled_ratio(polys, n, 0.0, a, b) - pred))
        decreasing = errs[0] > errs[1] > errs[2]
        ok = decreasing and errs[2] <= 0.02
        all_ok = all_ok and ok
        details.append(f"{label}: err@200={errs[2]:.4f} decreasing={decreasing}")
    _report(5, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_6_weighted_scaling():
    emap = disk_map()
    # outward offset, ell = 1/2
    n = 200
    a = 0.5 + 0j
    polys = orthonormalize(moments(emap, n - 1, 2.0 * n))
    ratio = scaled_ratio(polys, n, 0.0, a, a, weighted=True)
    pred = omega_of(emap, a, 0.0, 0.5) ** 2 * h_limit(0.5, 2 * a.real)
    err_half = abs(ratio - pred)
    # ell = 0 (s = N^2): outward weighted ratio collapses
    polys0 = orthonormalize(moments(emap, n - 1, float(n * n)))
    ratio0 = abs(scaled_ratio(polys0, n, 0.0, a, a, weighted=True))
    pred0 = scaling_predictor(emap, 0.0, a, a, 0.0, weighted=True)
    ok = err_half <= 0.03 and ratio0 <= 1e-3 and pred0 == 0.0
    _report(6, ok, f"|ratio-omega^2 H|={err_half:.4f}, ell=0 weighted ratio={ratio0:.2e}")
    assert err_half <= 0.03
    assert ratio0 <= 1e-3
    assert pred0 == 0.0


def test_criterion_7_kernel_convergence_desk_scale():
    emap = disk_map()
    z = 0.5
    kd = bergman_kernel(emap, z, z).real
    assert kd == pytest.approx(16 / (9 * math.pi))
    # with s = 2N the gap is (40/(27 pi))/N + O(4^-N), so it shrinks only
    # like 1/s; compare it with the exact sum rather than a fixed bound
    ns = (10, 20, 40, 80)
    diffs, oracle = [], []
    for n in ns:
        polys = orthonormalize(moments(emap, n - 1, 2.0 * n))
        diffs.append(abs(kd - kernel_sum(polys, n, z, z).real))
        oracle.append(disk_kernel_gap(n, 2 * n, abs(z) ** 2))
    rels = [abs(d - g) / g for d, g in zip(diffs, oracle)]
    limit = 40 / (27 * math.pi)
    limit_rel = abs(ns[-1] * diffs[-1] - limit) / limit
    decreasing = all(diffs[i + 1] < diffs[i] for i in range(3))
    ok = decreasing and max(rels) <= 1e-10 and limit_rel <= 1e-10
    rows = ", ".join(f"N={n}: gap={d:.4e} oracle={g:.4e} rel={r:.1e} N*gap={n * d:.6f}"
                     for n, d, g, r in zip(ns, diffs, oracle, rels))
    _report(7, ok, f"{rows}; 40/(27pi)={limit:.6f}")
    assert decreasing
    assert max(rels) <= 1e-10
    assert limit_rel <= 1e-10


def test_criterion_8_gap_oracle():
    start = time.monotonic()
    polys = orthonormalize(moments(disk_map(), 3, 6.0))
    res = gap_probability(polys, 4, DiskRegion(0, 0.5))
    oracle = gap_probability_radial_product(4, 6.0, 0.5)
    err = abs(res.value - oracle)
    elapsed = time.monotonic() - start
    ok = err <= 1e-6 and elapsed <= 30.0
    _report(8, ok, f"fredholm={res.value:.9f} oracle={oracle:.9f} err={err:.2e}, {elapsed:.1f}s")
    assert err <= 1e-6
    assert elapsed <= 30.0


def test_criterion_9_monte_carlo():
    n, s, count, seed = 8, 12.0, 20000, 20260810
    batch = sample_disk_batch(n, s, seed, count)
    edges = np.linspace(0.0, 1.5, 26)
    hist = empirical_r1(batch, edges)
    polys = orthonormalize(moments(disk_map(), n - 1, s))
    pred = kernel_r1_binned(polys, n, edges)
    within = np.abs(hist.density - pred) <= 3 * np.maximum(hist.stderr, 1e-12)
    frac = float(within.mean())
    outside = (np.abs(batch) > 1.0).sum(axis=1)
    mean_out = float(outside.mean())
    sigma_out = float(outside.std(ddof=1)) / math.sqrt(count)
    ok = frac >= 0.95 and abs(mean_out - 3.0) <= 3 * sigma_out
    _report(9, ok, f"bins within 3 sigma: {frac:.0%}; outside count {mean_out:.4f} "
                   f"(3 sigma = {3 * sigma_out:.4f})")
    assert frac >= 0.95
    assert abs(mean_out - 3.0) <= 3 * sigma_out


def test_criterion_10_appendix_properties():
    ts = np.linspace(-12.0, 12.0, 100)
    r1_exact = all(r1_limit(ell, 1j * t) == 1.0
                   for ell in (0.0, 0.25, 0.5, 0.75, 1.0) for t in ts)
    r2_diag = all(r2_limit(ell, a, a) == 0.0
                  for ell in (0.0, 0.5, 1.0) for a in (0.3, -1.2 + 0.4j, 2j))
    sine_ok = sine_corr(0.4, 0.4) == 0.0
    sine_ok = sine_ok and sine_corr(2 * np.pi, 0.0) == pytest.approx(1.0, abs=1e-30)
    for t in np.linspace(0.1, 9.0, 25):
        expect = 1 - (2 * math.sin(t / 2) / t) ** 2
        sine_ok = sine_ok and sine_corr(t, 0.0) == pytest.approx(expect, abs=1e-14)
    ok = r1_exact and r2_diag and sine_ok
    _report(10, ok, f"R1(it)==1: {r1_exact}; R2(a,a)==0: {r2_diag}; sine curve: {sine_ok}")
    assert r1_exact
    assert r2_diag
    assert sine_ok


def test_criterion_11_invariant_suite():
    rng = np.random.default_rng(55)
    details = []

    # Hermitian PSD sampled kernel matrices on three domains
    psd_ok = True
    for emap in (disk_map(), ellipse_map(0.5), ExteriorMap(1.0, (0j, 0.2, 0.1j))):
        polys = orthonormalize(moments(emap, 7, 18.0))
        pts = rng.uniform(-1.2, 1.2, size=(6, 2))
        zs = pts[:, 0] + 1j * pts[:, 1]
        mat = np.array([[weighted_kernel(polys, 8, zi, zj) for zj in zs] for zi in zs])
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        lam_min = float(np.linalg.eigvalsh(mat).min())
        psd_ok = psd_ok and herm < 1e-12 and lam_min >= -1e-10 * max(1.0, np.trace(mat).real)
    details.append(f"kernel matrices PSD: {psd_ok}")

    # Christoffel chain on the disk
    emap = disk_map()
    n = 12
    ps = orthonormalize(moments(emap, n - 1, 30.0))
    pinf = orthonormalize(moments(emap, n - 1, np.inf))
    chain_ok = True
    for z in (0.0, 0.4 + 0.3j, -0.7j, 0.85):
        a = kernel_sum(ps, n, z, z).real
        b = kernel_sum(pinf, n, z, z).real
        c = bergman_kernel(emap, z, z).real
        chain_ok = chain_ok and a <= b + 1e-12 and b <= c + 1e-12
    details.append(f"Christoffel chain: {chain_ok}")

    # reproducing residual, ellipse q=0.3, N=10, s=20, degree-5 polynomial
    e3 = ellipse_map(0.3)
    polys = orthonormalize(moments(e3, 9, 20.0))
    p = np.array([0.2, -0.1, 0.05j, 1.0, -0.3, 0.7])
    resid = reproducing_check(polys, 10, p, 0.4 + 0.2j)
    details.append(f"reproducing residual {resid:.2e}")

    # sampled moment table stable under node doubling and equal to the exact sums
    stab_ok = True
    for emap2 in (disk_map(), ellipse_map(0.5), ExteriorMap(1.0, (0j, 0.2, 0.1j))):
        m = moments(emap2, 8, 20.0)
        q1 = gram_quadrature(m.basis, 20.0, 256)
        q2 = gram_quadrature(m.basis, 20.0, 512)
        stab_ok = (stab_ok and float(np.max(np.abs(q1 - q2))) <= 1e-11
                   and float(np.max(np.abs(q1 - m.entries))) <= 1e-11
                   and float(np.max(np.abs(q2 - m.entries))) <= 1e-11)
    details.append(f"node-doubling stable: {stab_ok}")

    ok = psd_ok and chain_ok and resid <= 1e-8 and stab_ok
    _report(11, ok, "; ".join(details))
    assert psd_ok
    assert chain_ok
    assert resid <= 1e-8
    assert stab_ok
