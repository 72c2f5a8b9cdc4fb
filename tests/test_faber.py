import numpy as np
import pytest

from potens.faber import FaberBasis, faber_all, remainder_eval
from potens.geometry import ExteriorMap, big_phi_eval, phi_eval, phi_prime_eval

from _bruteforce import faber_oracle_coeffs, remainder_product_integral


def test_disk_faber_are_monomials(disk):
    for n, poly in enumerate(faber_all(disk, 6)):
        expect = np.zeros(n + 1)
        expect[n] = 1.0
        assert np.allclose(poly.mono_coeffs, expect, atol=1e-14)


def test_ellipse_faber_are_monic_chebyshev(ellipse_half, ellipse_quarter):
    polys = faber_all(ellipse_half, 4)
    assert np.allclose(polys[1].mono_coeffs, [0, 1], atol=1e-14)
    assert np.allclose(polys[2].mono_coeffs, [-0.5, 0, 1], atol=1e-14)
    polys = faber_all(ellipse_quarter, 3)
    assert np.allclose(polys[3].mono_coeffs, [0, -0.5, 0, 1], atol=1e-14)


def test_recurrence_matches_chebyshev_recurrence(ellipse_half):
    # U_{k+1} = z U_k - q U_{k-1}
    polys = faber_all(ellipse_half, 10)
    for k in range(1, 10):
        lifted = np.zeros(k + 2, dtype=complex)
        lifted[1:] = polys[k].mono_coeffs
        lifted[: k] -= 0.5 * polys[k - 1].mono_coeffs
        assert np.allclose(polys[k + 1].mono_coeffs, lifted, atol=1e-13)


def test_leading_coefficient_invariant(custom_map):
    cap25 = ExteriorMap(2.5, (0.1, 0.05j))
    for emap in (custom_map, cap25):
        for n, poly in enumerate(faber_all(emap, 12)):
            lead = poly.mono_coeffs[-1]
            assert abs(lead - emap.cap ** (-(n + 1))) <= 1e-12 * emap.cap ** (-(n + 1))


def test_oracle_agrees_with_recurrence(disk, ellipse_half, ellipse_quarter, custom_map):
    for emap in (disk, ellipse_half, ellipse_quarter, custom_map):
        polys = faber_all(emap, 12)
        for n in range(13):
            oracle = faber_oracle_coeffs(emap, n)
            assert np.max(np.abs(oracle - polys[n].mono_coeffs)) < 1e-10


def test_oracle_examples(disk, ellipse_half):
    assert np.allclose(faber_oracle_coeffs(disk, 2), [0, 0, 1], atol=1e-12)
    assert np.allclose(faber_oracle_coeffs(ellipse_half, 2), [-0.5, 0, 1], atol=1e-12)


def test_remainder_zero_on_disk(disk):
    basis = FaberBasis(disk, 5)
    for n in range(6):
        r = remainder_eval(disk, basis, n, 2.0)
        assert abs(r.value) < 1e-14
        assert r.faber_term == pytest.approx(2.0 ** n)


def test_remainder_example_ellipse(ellipse_half):
    basis = FaberBasis(ellipse_half, 3)
    r = remainder_eval(ellipse_half, basis, 0, 2.25)
    assert r.value == pytest.approx(1 - 1 / 0.875, abs=1e-12)
    assert r.faber_term == pytest.approx(1.0)
    assert r.exterior_term == pytest.approx(1 / 0.875)


def test_remainder_closed_form_ellipse(ellipse_half):
    # E_n = -q^{n+1} Phi^{-(n+2)} Phi' for the ellipse family
    q = 0.5
    basis = FaberBasis(ellipse_half, 8)
    for wtest in (2.0, 1.3 * np.exp(0.7j)):
        z = phi_eval(ellipse_half, wtest)
        w = big_phi_eval(ellipse_half, z)
        for n in range(9):
            expect = -(q ** (n + 1)) * w ** (-(n + 2)) / phi_prime_eval(ellipse_half, w)
            got = remainder_eval(ellipse_half, basis, n, z).value
            assert abs(got - expect) < 1e-12 * max(1.0, abs(expect))


def test_remainder_rejects_interior(ellipse_half):
    basis = FaberBasis(ellipse_half, 2)
    with pytest.raises(ValueError):
        remainder_eval(ellipse_half, basis, 1, 0.0)


def test_double_zero_at_infinity(ellipse_half, custom_map):
    for emap in (ellipse_half, custom_map):
        basis = FaberBasis(emap, 10)
        for n in range(11):
            e6 = remainder_eval(emap, basis, n, 1e6).value
            e7 = remainder_eval(emap, basis, n, 1e7).value
            assert np.isfinite(abs(e6) * 1e12)
            # |z^2 E_n| stays bounded: factor-100 radius scales E by ~1e-2
            if abs(e6) > 0:
                assert abs(e7) / abs(e6) < 1e-2 * 1.5


def test_boundary_l2_decay(ellipse_half, custom_map):
    # Parseval on the remainder tail: integral over T of |E_n(phi) phi'|^2
    for emap, rho_max in ((ellipse_half, np.sqrt(0.5)), (custom_map, 0.85)):
        basis = FaberBasis(emap, 14)
        norms = []
        for n in range(15):
            tail = basis.remainder_series(n)
            norms.append(2 * np.pi * float(np.sum(np.abs(tail) ** 2)))
        logs = np.log(norms[2:])
        slope = np.polyfit(np.arange(2, 15), logs, 1)[0]
        rho_fit = np.exp(slope / 2)
        assert rho_fit < 1.0
        assert rho_fit < rho_max + 0.05


def test_remainder_series_matches_subtraction(custom_map):
    # where the naive subtraction is stable, both routes agree
    basis = FaberBasis(custom_map, 6)
    z = 1.4 + 0.9j
    for n in range(7):
        r = remainder_eval(custom_map, basis, n, z)
        assert abs(r.value - (r.faber_term - r.exterior_term)) < 1e-11


def test_long_tail_map_oracle_agreement():
    emap = ExteriorMap(1.2, (0.1, 0.15, 0.05j, -0.04))
    emap.validate()
    polys = faber_all(emap, 10)
    for n in range(11):
        assert np.max(np.abs(faber_oracle_coeffs(emap, n) - polys[n].mono_coeffs)) < 1e-10


def test_composed_series_matches_monomials():
    emap = ExteriorMap(1.2, (0.1, 0.15, 0.05j, -0.04))
    basis = FaberBasis(emap, 8)
    polys = basis.polynomials()
    w = 1.3 * np.exp(1j * 2 * np.pi * np.arange(16) / 16)
    z = emap.phi(w)
    for n in (0, 3, 8):
        via_series = basis.eval_series(basis.outer_series(n), w) / emap.phi_prime(w)
        via_mono = np.polyval(polys[n].mono_coeffs[::-1], z)
        assert np.max(np.abs(via_series - via_mono)) < 1e-12


def test_signs_identity_machinery(ellipse_half):
    # the tail integral used by the moments sign-identity test is finite and
    # matches the ellipse closed form at n=0: E_0 E_0-bar integral
    basis = FaberBasis(ellipse_half, 6)
    val = remainder_product_integral(basis, 0, 0, 5.0)
    assert val.real > 0
    assert abs(val.imag) < 1e-12
