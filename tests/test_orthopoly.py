import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potens.errors import NotCoveredError
from potens.geometry import ExteriorMap, ellipse_map
from potens.faber import FaberBasis
from potens.moments import epsilon_table, moments
from potens.orthopoly import (
    _lower_inverse,
    closed_form,
    delta_det,
    exterior_asymptotic,
    kappa_asymptotic,
    kappa_delta_identity,
    kappa_error_model,
    orthonormalize,
    sigma_model,
)

from _bruteforce import gram_quadrature, gram_schmidt_polys, monomial_gram, orthopoly_det
from test_moments import _random_maps


def test_disk_examples(disk):
    polys = orthonormalize(moments(disk, 0, 2.0))
    assert polys.mono_coeffs[0, 0] == pytest.approx(math.sqrt(1 / (2 * math.pi)), abs=1e-14)
    polys = orthonormalize(moments(disk, 3, np.inf))
    assert polys.mono_coeffs[3, 3] == pytest.approx(math.sqrt(4 / math.pi), abs=1e-13)
    assert np.max(np.abs(polys.mono_coeffs[3, :3])) < 1e-13


def test_ellipse_kappa_example(ellipse_half):
    polys = orthonormalize(moments(ellipse_half, 1, 4.0))
    assert polys.kappas[1] == pytest.approx(0.5701600099565547, abs=1e-12)


def test_gram_identity(custom_map):
    mom = moments(custom_map, 8, 18.0)
    polys = orthonormalize(mom)
    c = polys.faber_coeffs
    resid = c @ np.conj(mom.entries) @ c.conj().T - np.eye(9)
    assert np.max(np.abs(resid)) < 1e-12


def test_block_inverse_matches_triangular_solve(rng):
    # n = 151 and 300 run the 2 x 2 block recursion past the 64-row leaves.
    # The ellipse's Faber Gram is diagonal, so the Cholesky factors of dense
    # well-conditioned Hermitian matrices are what exercise the off-diagonal block.
    import scipy.linalg

    mom = moments(ellipse_map(0.5), 150, 302.0)
    gram = np.conj(mom.entries)
    factors = [np.linalg.cholesky(gram)]
    for n in (151, 300):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        factors.append(np.linalg.cholesky(np.eye(n) + a @ a.conj().T / n))
    for low in factors:
        ref = scipy.linalg.solve_triangular(low, np.eye(len(low)), lower=True)
        inv = _lower_inverse(low)
        assert np.max(np.abs(inv - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(inv, np.tril(inv))
    c = orthonormalize(mom).faber_coeffs
    assert np.max(np.abs(c @ gram @ c.conj().T - np.eye(151))) <= 1e-12


def test_orthonormality_under_requadrature(ellipse_half):
    mom = moments(ellipse_half, 8, 20.0)
    polys = orthonormalize(mom)
    # sampled Gram at twice the oracle's default node counts (256, 14)
    requad = gram_quadrature(mom.basis, 20.0, 512, 28)
    c = polys.faber_coeffs
    resid = c @ np.conj(requad) @ c.conj().T - np.eye(9)
    assert np.max(np.abs(resid)) <= 1e-9


def test_bordered_determinant_construction(disk, ellipse_half):
    m = moments(disk, 1, 4.0)
    coeffs = orthopoly_det(m, 1)
    assert np.allclose(coeffs, [0, math.sqrt(1 / math.pi)], atol=1e-12)
    m0 = moments(ellipse_half, 2, 10.0)
    assert orthopoly_det(m0, 0)[0] == pytest.approx(1 / math.sqrt(m0.entries[0, 0].real))
    chol = orthonormalize(m0)
    det2 = orthopoly_det(m0, 2)
    assert np.max(np.abs(det2 - chol.mono_coeffs[2, :3])) < 1e-8


def test_non_positive_definite_reports_index(ellipse_half):
    # the ellipse's head spans degrees 0..61, so all four degrees are factored
    m = moments(ellipse_half, 3, 10.0)
    assert m.head_degree == 4
    bad = m.head.copy()
    bad[2, 2] = -1.0
    with pytest.raises(ValueError, match="index 2"):
        orthonormalize(dataclasses.replace(m, head=bad))


def test_non_finite_moment_table_rejected(ellipse_half):
    # np.linalg.cholesky turns a NaN entry into a NaN factor without raising
    m = moments(ellipse_half, 3, 10.0)
    bad = m.head.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        orthonormalize(dataclasses.replace(m, head=bad))


def test_kappa_asymptotic_values(disk, ellipse_half):
    assert kappa_asymptotic(0, 2.0, disk) == pytest.approx(math.sqrt(1 / (2 * math.pi)))
    cap2 = ExteriorMap(2.0, (0j,))
    assert kappa_asymptotic(1, np.inf, cap2) == pytest.approx(0.25 * math.sqrt(2 / math.pi))
    # closed-form relative error at n=10, s=20 is ~ q^22/2 scale
    polys = orthonormalize(moments(ellipse_half, 10, 20.0))
    rel = abs(polys.kappas[10] / kappa_asymptotic(10, 20.0, ellipse_half) - 1)
    assert rel <= 1e-6


def test_exterior_asymptotic(disk, ellipse_half):
    assert exterior_asymptotic(2, np.inf, disk, 2.0) == pytest.approx(math.sqrt(3 / math.pi) * 4)
    # ratio pi_n / prediction approaches 1 as n grows
    z = ellipse_half.phi(2.0)
    polys = orthonormalize(moments(ellipse_half, 12, 40.0))
    devs = []
    for n in (2, 6, 12):
        pred = exterior_asymptotic(n, 40.0, ellipse_half, z)
        devs.append(abs(complex(polys.eval(n, z)) / pred - 1))
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] < 1e-6


def test_exterior_asymptotic_rate_is_geometric(ellipse_half):
    z = ellipse_half.phi(1.5)
    s = 60.0
    polys = orthonormalize(moments(ellipse_half, 16, s))
    devs = [abs(complex(polys.eval(n, z)) / exterior_asymptotic(n, s, ellipse_half, z) - 1)
            for n in range(4, 17)]
    slope = np.polyfit(np.arange(4, 17), np.log(devs), 1)[0]
    assert slope < math.log(0.95)  # geometric decay, not algebraic


def test_sigma_model_table():
    assert sigma_model(10, analytic_rho=0.7) == pytest.approx(0.7 ** 10)
    assert sigma_model(100, p=2, alpha=0.5, regime="ratio<1") == pytest.approx(math.log(100) / 100 ** 2.5)
    assert sigma_model(100, p=2, alpha=0.5, regime="ratio=1") == pytest.approx(math.log(100) / 100 ** 2.5)
    assert sigma_model(50, p=1, alpha=0.25, regime="ratio<1") == pytest.approx(math.log(50) / 50 ** 1.25)
    assert sigma_model(16, p=0, alpha=0.75, regime="ratio<1") == pytest.approx(0.25)
    assert sigma_model(50, p=1, alpha=0.25, regime="ratio=1") == pytest.approx(50 ** -0.5)
    with pytest.raises(NotCoveredError):
        sigma_model(16, p=0, alpha=0.75, regime="ratio=1")
    with pytest.raises(ValueError):
        sigma_model(16, p=0, alpha=0.25, regime="ratio<1")  # p+alpha <= 1/2
    with pytest.raises(ValueError):
        sigma_model(16, analytic_rho=1.2)


def test_kappa_error_model():
    assert kappa_error_model(8, analytic_rho=0.5) == pytest.approx(0.5 ** 16)
    assert kappa_error_model(9, p=1, alpha=0.5) == pytest.approx(9.0 ** -3)


def test_closed_form_disk_and_ellipse(disk, ellipse_half):
    cf = closed_form(disk, 3, 12.0)
    assert np.allclose(cf.coeffs, [0, 0, 0, math.sqrt(4 / math.pi * (1 - 4 / 12))])
    polys = orthonormalize(moments(ellipse_half, 6, 25.0))
    for n in range(7):
        cf = closed_form(ellipse_half, n, 25.0)
        assert np.max(np.abs(cf.coeffs - polys.mono_coeffs[n, : n + 1])) < 1e-12
    cfi = closed_form(ellipse_half, 2, np.inf)
    pe = orthonormalize(moments(ellipse_half, 2, np.inf))
    assert np.max(np.abs(cfi.coeffs - pe.mono_coeffs[2, :3])) < 1e-12


def test_closed_form_interval():
    cf = closed_form("interval", 0, 4.0)
    assert cf.note is not None
    assert cf(3.3) == pytest.approx(math.sqrt(15 / (8 * math.pi)))
    cf1 = closed_form("interval", 1, 6.0)
    # degree-1 case reduces to sqrt((s^2-4)/(2 pi s)) * z
    for z in (3.0, 2.5 + 1j):
        assert cf1(z) == pytest.approx(math.sqrt((36 - 4) / (12 * math.pi)) * z)


def test_delta_determinants(disk, ellipse_half):
    eps = epsilon_table(moments(disk, 4, 12.0))
    for n in range(5):
        assert delta_det(eps, n) == pytest.approx(1.0, abs=1e-12)
    eps = epsilon_table(moments(ellipse_half, 1, 3.0))
    assert delta_det(eps, 0) == pytest.approx(0.875, abs=1e-12)
    eps = epsilon_table(moments(ellipse_half, 10, 30.0))
    dets = [delta_det(eps, n) for n in range(11)]
    assert all(d > 0 for d in dets)
    assert all(dets[n] <= dets[n - 1] for n in range(1, 11))
    # ratio -> 1 geometrically
    ratios = [abs(dets[n] / dets[n - 1] - 1) for n in range(2, 11)]
    slope = np.polyfit(np.arange(2, 11), np.log(ratios), 1)[0]
    assert slope < math.log(0.5)


def test_kappa_delta_identity(ellipse_half, custom_map):
    for emap, s in ((ellipse_half, 12.0), (custom_map, 15.0)):
        mom = moments(emap, 5, s)
        for n in range(1, 6):
            lhs, rhs = kappa_delta_identity(mom, n)
            assert abs(lhs - rhs) <= 1e-8


def test_minimality_of_monic_norm(ellipse_half, rng):
    mom = moments(ellipse_half, 6, 16.0)
    polys = orthonormalize(mom)
    n = 6
    base = polys.faber_coeffs[n, : n + 1] / polys.kappas[n] * ellipse_half.cap ** (-(n + 1))
    # base is monic in the monomial sense: leading Faber coordinate cap^{n+1}
    min_norm = 1.0 / polys.kappas[n] ** 2
    for _ in range(20):
        pert = base.copy()
        pert[:n] += 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        val = float(np.real(np.conj(pert) @ mom.entries[: n + 1, : n + 1] @ pert))
        assert val >= min_norm - 1e-10


def test_scaled_disk_pipeline_is_exact():
    # phi(w) = 2w: predictions coincide with the pipeline to rounding
    emap = ExteriorMap(2.0, (0j,))
    polys = orthonormalize(moments(emap, 6, 20.0))
    for n in range(7):
        assert polys.kappas[n] == pytest.approx(kappa_asymptotic(n, 20.0, emap), rel=1e-13)


def test_kappa_monotone_in_s(disk):
    n = 4
    kappas = []
    for s in (25.0, 50.0, 100.0, np.inf):
        kappas.append(orthonormalize(moments(disk, n, s)).kappas[n])
    assert all(kappas[i] < kappas[i + 1] for i in range(3))


def test_pipeline_matches_monomial_gram_schmidt(custom_map, rng):
    # independent 2-D quadrature + Gram-Schmidt against the Faber pipeline
    s = 25.0
    n_max = 6
    polys = orthonormalize(moments(custom_map, n_max, s))
    gs = gram_schmidt_polys(monomial_gram(custom_map, n_max, s))
    pts = rng.uniform(-2, 2, size=(10, 2))
    zs = pts[:, 0] + 1j * pts[:, 1]
    for n in range(n_max + 1):
        mine = polys.eval_all(zs)[n]
        theirs = np.polyval(gs[n, : n + 1][::-1], zs)
        assert np.max(np.abs(mine - theirs) / np.maximum(1.0, np.abs(theirs))) < 1e-9


@settings(derandomize=True, deadline=None, max_examples=150)
@given(emap=_random_maps(), n=st.integers(1, 120), excess=st.floats(0.0, 40.0))
def test_tail_bound_covers_the_dropped_remainder_tails(emap, n, excess):
    # against the exact Faber series of every degree up to n - 1
    polys = orthonormalize(moments(emap, n - 1, n + 1 + excess))
    n0 = polys.head_degree
    if n0 == n:
        assert polys.tail_bound == 0.0
        return
    basis = FaberBasis(emap, n - 1)
    tails = [np.max(np.abs(basis.remainder_series(k))) for k in range(n0, n)]
    assert max(tails) <= polys.tail_bound < 1e-17


def test_monomial_table_builds_no_laurent_tables():
    # mono_coeffs reads FaberBasis.mono of every degree; the composed and
    # outer Laurent tables, about 2001 x 4001 complex each (256 MB together),
    # are not read and not built.  Measured: 123 MiB peak, 367 MiB with them.
    polys = orthonormalize(moments(ellipse_map(0.5), 1999, 4000.0))
    tracemalloc.start()
    try:
        polys.mono_coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 135 * 2 ** 20
    assert "_comp" not in vars(polys.basis) and "_outer" not in vars(polys.basis)
