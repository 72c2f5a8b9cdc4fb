import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potens import geometry
from potens.errors import ConvergenceError
from potens.geometry import (
    BOUNDARY_TOL,
    ExteriorMap,
    big_phi_eval,
    ellipse_map,
    equilibrium_potential,
    level_line,
    parse_complex,
    parse_domain,
)

from _bruteforce import winding_number
from test_moments import _random_maps


def test_phi_eval_examples(ellipse_half, disk):
    assert ellipse_half.phi(1) == pytest.approx(1.5)
    assert disk.phi(2 + 1j) == pytest.approx(2 + 1j)
    assert ellipse_half.phi(2j) == pytest.approx(1.75j)


def test_phi_eval_rejects_interior(ellipse_half):
    with pytest.raises(ValueError):
        ellipse_half.phi(0.5)
    # tolerance slack: a hair below the circle is accepted
    ellipse_half.phi((1 - 1e-13) + 0j)


def test_phi_prime_examples(ellipse_half, disk):
    assert ellipse_half.phi_prime(1) == pytest.approx(0.5)
    assert disk.phi_prime(-3 + 2j) == pytest.approx(1.0)
    assert ellipse_half.phi_prime(2) == pytest.approx(0.875)


def test_big_phi_examples(disk, ellipse_half):
    assert big_phi_eval(disk, 3) == (pytest.approx(3), False)
    assert big_phi_eval(ellipse_half, 1.5) == (pytest.approx(1), False)
    w, inside = big_phi_eval(ellipse_half, 0)
    assert inside and abs(w) == pytest.approx(np.sqrt(0.5))
    # just inside the curve the largest root has |w| = 1 - 3e-6; w continues
    # Phi into K, so phi(w) = z still holds
    z = 1.5 * (1 - 1e-6)
    w, inside = big_phi_eval(ellipse_half, z)
    assert inside and w == pytest.approx(1 - 3e-6, abs=1e-10)
    assert abs(w + 0.5 / w - z) < 1e-14
    assert big_phi_eval(disk, 0) == (0, True)
    # an array gives arrays of its shape
    w, inside = big_phi_eval(ellipse_half, np.array([[1.5, 0.0], [2.25, 1.5 * (1 - 1e-6)]]))
    assert w.shape == inside.shape == (2, 2)
    assert inside.tolist() == [[False, True], [False, True]]
    assert w[1, 0] == pytest.approx(2)


def test_big_phi_residual_contract(custom_map):
    z = 1.7 - 0.4j
    w, inside = big_phi_eval(custom_map, z)
    assert not inside and abs(custom_map.phi(w) - z) <= 1e-12 * (1 + abs(z))


def test_round_trip_grid(ellipse_half, custom_map):
    thetas = 2 * np.pi * np.arange(64) / 64
    radii = np.array([1.0, 1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0])
    for emap in (ellipse_half, custom_map, ellipse_map(0.9)):
        for r in radii:
            for t in thetas:
                w = r * np.exp(1j * t)
                back, inside = big_phi_eval(emap, emap.phi(w))
                assert not inside
                assert abs(back - w) < 1e-10 * max(1.0, r)


def test_boundary_modulus_one(ellipse_half, custom_map):
    thetas = 2 * np.pi * np.arange(64) / 64
    for emap in (ellipse_half, custom_map, ellipse_map(0.9)):
        z = emap.boundary_point(thetas)
        for zz in z:
            w, inside = big_phi_eval(emap, zz)
            assert not inside
            assert abs(abs(w) - 1) < 1e-12


def test_equilibrium_potential(disk, ellipse_half, custom_map):
    assert equilibrium_potential(disk, 2.0) == pytest.approx(2.0)
    assert equilibrium_potential(ellipse_half, 2.25) == pytest.approx(2.0, abs=1e-12)
    for emap in (disk, ellipse_half, custom_map):
        # equals 1 exactly on sampled boundary points, >= 1 everywhere
        for t in np.linspace(0, 2 * np.pi, 17):
            assert equilibrium_potential(emap, complex(emap.boundary_point(t))) == pytest.approx(1.0, abs=1e-9)
        for z in (0.1 + 0.2j, 3.0, -2.5j, 0.0):
            assert equilibrium_potential(emap, z) >= 1.0
    # z = phi(-1.05i) on the thin ellipse also has the root q/w inside the
    # unit disk; P_K must come from the exterior root
    thin = ellipse_map(0.9)
    assert equilibrium_potential(thin, thin.phi(-1.05j)) == pytest.approx(1.05, rel=1e-14)


def test_potential_growth_at_infinity(disk, ellipse_half):
    big = 1e6
    for emap, cap in ((disk, 1.0), (ellipse_half, 1.0), (ExteriorMap(2.5, (0.3, 0.1j)), 2.5)):
        p = equilibrium_potential(emap, big)
        assert p / big == pytest.approx(1 / cap, rel=1e-4)


def test_invalid_maps_rejected():
    with pytest.raises(ValueError):
        ExteriorMap(-1.0, (0j,))
    with pytest.raises(ValueError):
        ExteriorMap(1.0, (0j, 2.0)).validate()  # phi' vanishes at |w| = sqrt(2)


@pytest.mark.parametrize("cap, coeffs", [(float("inf"), (0j,)), (float("nan"), (0j,)),
                                         (1.0, (complex("nan"),)),
                                         (1.0, (0j, complex(0.0, float("inf"))))])
def test_non_finite_map_data_rejected(cap, coeffs):
    with pytest.raises(ValueError, match="finite"):
        ExteriorMap(cap, coeffs)


def test_residual_failure_carries_rejected_root(ellipse_half, custom_map, monkeypatch):
    # a root that misses the residual contract is reported, not returned;
    # only the point 5.0 gets a perturbed root, the others stay exact.  The
    # closed form (m = 1) and the companion eigenvalues (m = 2) both get one.
    returned = []

    def perturbed(roots):
        k = np.argmax(np.abs(roots[1]))
        roots[1, k] *= 1 + 1e-6
        returned.append(complex(roots[1, k]))
        return roots

    true_roots, true_eigvals = geometry.phi_roots, np.linalg.eigvals
    exact = {1: 2.5 + np.sqrt(5.75), 2: big_phi_eval(custom_map, 5.0)[0]}
    for emap in (ellipse_half, custom_map):
        returned.clear()
        with monkeypatch.context() as patch:
            if emap.tail_length == 1:
                patch.setattr(geometry, "phi_roots", lambda e, z: perturbed(true_roots(e, z)))
            else:
                patch.setattr(np.linalg, "eigvals", lambda a: perturbed(true_eigvals(a)))
            with pytest.raises(ConvergenceError, match=r"z=\(5\+0j\)") as info:
                big_phi_eval(emap, np.array([3.0, 5.0, 0.0, 7.0]))
        assert returned and info.value.last == returned[-1]
        assert abs(info.value.last - exact[emap.tail_length]) > 1e-6


@pytest.mark.parametrize("emap", [ellipse_map(0.5), ExteriorMap(1.5, (0.3 - 0.2j, 0.5 + 0.4j))],
                         ids=["ellipse", "shifted"])
def test_inversion_far_out_does_not_overflow(emap):
    # b^2 of the quadratic formula would overflow past |z| ~ 1e154
    z = np.array([1e160, 1e300, -1e300j, 1.7e308, -1.7e308j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, inside = big_phi_eval(emap, z)
    assert not inside.any()
    assert np.all(np.abs(w - z / emap.cap) <= 2 * np.spacing(np.abs(z / emap.cap)))


@pytest.mark.parametrize("q, bound", [(0.5, 5e-16), (0.9, 2e-15)])
def test_boundary_round_trip_stays_on_the_circle(q, bound):
    # at q = 0.9 the bound is what exact Phi gives on the rounded boundary points
    emap = ellipse_map(q)
    w, inside = big_phi_eval(emap, emap.boundary_point(np.linspace(0, 2 * np.pi, 2001)))
    assert not inside.any()
    assert max(np.max(np.abs(w)) - 1, 0) <= bound


@pytest.mark.parametrize("z", [complex("inf"), complex("-inf"), complex("nan"),
                               complex(1.0, float("inf")), complex(0.5, float("nan"))])
def test_big_phi_rejects_non_finite(disk, ellipse_half, z):
    for emap in (disk, ellipse_half):
        with pytest.raises(ValueError):
            big_phi_eval(emap, z)
        with pytest.raises(ValueError):
            equilibrium_potential(emap, z)
        # one bad entry among good ones is named
        with pytest.raises(ValueError, match="finite") as info:
            big_phi_eval(emap, np.array([0.5, 3.0, z, 2j]))
        assert repr(z) in str(info.value)


def test_big_phi_rejects_non_univalent_map():
    # phi(w) = w + 2/w skips validate(); phi(1) = phi(2) = 3
    emap = ExteriorMap(1.0, (0j, 2.0))
    with pytest.raises(ValueError, match="not univalent"):
        big_phi_eval(emap, 3.0)
    # among good points the bad one is named with its roots
    with pytest.raises(ValueError, match=r"phi\(w\) = \(3\+0j\) has roots") as info:
        big_phi_eval(emap, np.array([10.0, -10j, 3.0, 20.0]))
    assert "(1+0j)" in str(info.value) and "(2" in str(info.value)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(emap=_random_maps(), r=st.floats(1.0, 4.0), t=st.floats(0.0, 2 * np.pi),
       x=st.floats(-2.5, 2.5), y=st.floats(-2.5, 2.5))
def test_inversion_on_random_maps(emap, r, t, x, y):
    # exterior points phi(r e^{it}) round-trip
    w = r * np.exp(1j * t)
    z = emap.phi(w)
    back, inside = big_phi_eval(emap, z)
    assert not inside
    assert abs(back - w) <= 1e-10 * r
    assert abs(emap.phi(back) - z) <= 1e-12 * (1 + abs(z))
    # a point of the box around K is inside exactly when the boundary curve
    # winds around it, wherever the quadrature oracle can decide
    z = emap.laurent_coeffs[0] + emap.cap * complex(x, y)
    wind = winding_number(emap, z)
    if wind is not None:
        assert big_phi_eval(emap, z)[1] == (wind == 1)
    # one stacked call over points inside, on and outside K gives each point
    # the largest root and the same inside decision as a reference: np.roots,
    # bit for bit, for the companion path (m >= 2); 30-digit roots of the same
    # polynomial for the closed forms (m <= 1), within 1e-15 outside K and
    # wherever |w| is not within 1e-12 of the inside threshold
    pts = np.array([emap.phi(w), z, emap.laurent_coeffs[0], complex(emap.boundary_point(t)),
                    emap.phi(1.01 * w / r), z + 0.1j])
    got, inside = big_phi_eval(emap, pts)
    for p, g, i in zip(pts, got, inside):
        if emap.tail_length >= 2:
            roots = np.roots((emap.cap, emap.laurent_coeffs[0] - p) + emap.laurent_coeffs[1:])
            ref = roots[np.argmax(np.abs(roots))]
            assert g == ref
            assert i == (abs(ref) < 1 - BOUNDARY_TOL)
            continue
        with mpmath.workdps(30):
            coeffs = [emap.cap, mpmath.mpc(emap.laurent_coeffs[0]) - mpmath.mpc(p),
                      *emap.laurent_coeffs[1:]]
            ref = max(mpmath.polyroots(coeffs, maxsteps=100, extraprec=60), key=abs)
            if abs(ref) >= 1:
                assert abs(mpmath.mpc(g) - ref) <= 1e-15 * abs(ref)
            if abs(abs(ref) - (1 - BOUNDARY_TOL)) > 1e-12:
                assert i == (abs(ref) < 1 - BOUNDARY_TOL)


def test_maps_are_immutable(disk):
    with pytest.raises(dataclasses.FrozenInstanceError):
        disk.cap = 2.0


def test_parse_complex():
    assert parse_complex("1+0.5i") == 1 + 0.5j
    assert parse_complex("-2.5") == -2.5
    assert parse_complex("0.1i") == 0.1j
    with pytest.raises(ValueError):
        parse_complex("nope+i*")


def test_domain_record_round_trip(disk, ellipse_half, custom_map):
    # records are read only: each literal record gives back its map
    assert parse_domain("kind=disk") == disk
    assert parse_domain("kind=ellipse q=0.5") == ellipse_half
    assert parse_domain("kind=custom cap=1 coeffs=[0,0.2,0.1i]") == custom_map
    # the kind follows the map, not the text it was written as
    assert parse_domain("kind=custom cap=1 coeffs=[0]") == disk
    assert parse_domain("kind=custom cap=1 coeffs=[0,0.5]") == ellipse_half
    assert parse_domain("kind=ellipse q=0") == disk
    with pytest.raises(ValueError):
        parse_domain("kind=pentagon")


def test_level_lines(disk, ellipse_half):
    pts = level_line(disk, 2.0, 8)
    assert np.allclose(np.abs(pts), 2.0)
    pts = level_line(ellipse_half, 1.0, 8)
    assert np.allclose(pts, ellipse_half.boundary_point(2 * np.pi * np.arange(8) / 8))
    for z in level_line(ellipse_half, 1.7, 8):
        assert equilibrium_potential(ellipse_half, complex(z)) == pytest.approx(1.7, abs=1e-9)
    with pytest.raises(ValueError):
        level_line(disk, 0.5)
