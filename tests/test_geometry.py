import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potens.errors import ConvergenceError
from potens.geometry import (
    INSIDE,
    DomainSpec,
    ExteriorMap,
    big_phi_eval,
    capacity,
    ellipse_map,
    equilibrium_potential,
    format_domain,
    level_line,
    parse_complex,
    parse_domain,
    phi_eval,
    phi_prime_eval,
)

from _bruteforce import winding_number
from test_moments import _random_maps


def test_phi_eval_examples(ellipse_half, disk):
    assert phi_eval(ellipse_half, 1) == pytest.approx(1.5)
    assert phi_eval(disk, 2 + 1j) == pytest.approx(2 + 1j)
    assert phi_eval(ellipse_half, 2j) == pytest.approx(1.75j)


def test_phi_eval_rejects_interior(ellipse_half):
    with pytest.raises(ValueError):
        phi_eval(ellipse_half, 0.5)
    # tolerance slack: a hair below the circle is accepted
    phi_eval(ellipse_half, (1 - 1e-13) + 0j)


def test_phi_prime_examples(ellipse_half, disk):
    assert phi_prime_eval(ellipse_half, 1) == pytest.approx(0.5)
    assert phi_prime_eval(disk, -3 + 2j) == pytest.approx(1.0)
    assert phi_prime_eval(ellipse_half, 2) == pytest.approx(0.875)


def test_big_phi_examples(disk, ellipse_half):
    assert big_phi_eval(disk, 3) == pytest.approx(3)
    assert big_phi_eval(ellipse_half, 1.5) == pytest.approx(1)
    assert big_phi_eval(ellipse_half, 0) == INSIDE
    # just inside the curve the largest root has |w| = 1 - 3e-6
    assert big_phi_eval(ellipse_half, 1.5 * (1 - 1e-6)) == INSIDE
    assert big_phi_eval(disk, 0) == INSIDE


def test_big_phi_residual_contract(custom_map):
    z = 1.7 - 0.4j
    w = big_phi_eval(custom_map, z)
    assert abs(phi_eval(custom_map, w) - z) <= 1e-12 * (1 + abs(z))


def test_round_trip_grid(ellipse_half, custom_map):
    thetas = 2 * np.pi * np.arange(64) / 64
    radii = np.array([1.0, 1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0])
    for emap in (ellipse_half, custom_map, ellipse_map(0.9)):
        for r in radii:
            for t in thetas:
                w = r * np.exp(1j * t)
                back = big_phi_eval(emap, phi_eval(emap, w))
                assert back != INSIDE
                assert abs(back - w) < 1e-10 * max(1.0, r)


def test_boundary_modulus_one(ellipse_half, custom_map):
    thetas = 2 * np.pi * np.arange(64) / 64
    for emap in (ellipse_half, custom_map, ellipse_map(0.9)):
        z = emap.boundary_point(thetas)
        for zz in z:
            w = big_phi_eval(emap, zz)
            assert w != INSIDE
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
    assert equilibrium_potential(thin, phi_eval(thin, -1.05j)) == pytest.approx(1.05, rel=1e-14)


def test_potential_growth_at_infinity(disk, ellipse_half):
    big = 1e6
    for emap, cap in ((disk, 1.0), (ellipse_half, 1.0), (ExteriorMap(2.5, (0.3, 0.1j)), 2.5)):
        p = equilibrium_potential(emap, big)
        assert p / big == pytest.approx(1 / cap, rel=1e-4)


def test_capacity(disk, ellipse_half, ellipse_quarter):
    assert capacity(disk) == 1.0
    assert capacity(ellipse_half) == 1.0
    assert capacity(ellipse_quarter) == 1.0
    assert capacity(ExteriorMap(2.5, (0j,))) == 2.5


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


def test_newton_failure_carries_last_iterate(ellipse_half, monkeypatch):
    # a root that misses the residual contract is reported, not returned
    true_roots = np.roots
    returned = []

    def perturbed(coeffs):
        roots = true_roots(coeffs)
        k = np.argmax(np.abs(roots))
        roots[k] *= 1 + 1e-6
        returned.append(complex(roots[k]))
        return roots

    monkeypatch.setattr(np, "roots", perturbed)
    with pytest.raises(ConvergenceError) as info:
        big_phi_eval(ellipse_half, 5.0)
    assert returned and info.value.last == returned[-1]
    assert abs(info.value.last - (2.5 + np.sqrt(5.75))) > 1e-6


@pytest.mark.parametrize("z", [complex("inf"), complex("-inf"), complex("nan"),
                               complex(1.0, float("inf")), complex(0.5, float("nan"))])
def test_big_phi_rejects_non_finite(disk, ellipse_half, z):
    for emap in (disk, ellipse_half):
        with pytest.raises(ValueError):
            big_phi_eval(emap, z)
        with pytest.raises(ValueError):
            equilibrium_potential(emap, z)


def test_big_phi_rejects_non_univalent_map():
    # phi(w) = w + 2/w skips validate(); phi(1) = phi(2) = 3
    emap = ExteriorMap(1.0, (0j, 2.0))
    with pytest.raises(ValueError, match="not univalent"):
        big_phi_eval(emap, 3.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(emap=_random_maps(), r=st.floats(1.0, 4.0), t=st.floats(0.0, 2 * np.pi),
       x=st.floats(-2.5, 2.5), y=st.floats(-2.5, 2.5))
def test_inversion_on_random_maps(emap, r, t, x, y):
    # exterior points phi(r e^{it}) round-trip
    w = r * np.exp(1j * t)
    z = phi_eval(emap, w)
    back = big_phi_eval(emap, z)
    assert back != INSIDE
    assert abs(back - w) <= 1e-10 * r
    assert abs(phi_eval(emap, back) - z) <= 1e-12 * (1 + abs(z))
    # a point of the box around K is INSIDE exactly when the boundary curve
    # winds around it, wherever the quadrature oracle can decide
    z = emap.laurent_coeffs[0] + emap.cap * complex(x, y)
    wind = winding_number(emap, z)
    if wind is not None:
        assert (big_phi_eval(emap, z) == INSIDE) == (wind == 1)


def test_maps_are_immutable(disk):
    with pytest.raises(dataclasses.FrozenInstanceError):
        disk.cap = 2.0


def test_parse_complex():
    assert parse_complex("1+0.5i") == 1 + 0.5j
    assert parse_complex("-2.5") == -2.5
    assert parse_complex("0.1i") == 0.1j
    with pytest.raises(ValueError):
        parse_complex("nope+i*")


def test_domain_record_round_trip():
    for text in ("kind=disk", "kind=ellipse q=0.5",
                 "kind=custom cap=1 coeffs=[0,0.2,0.1i]"):
        spec = parse_domain(text)
        again = parse_domain(format_domain(spec))
        assert again.kind == spec.kind
        assert again.map == spec.map
    with pytest.raises(ValueError):
        parse_domain("kind=pentagon")
    assert parse_domain("kind=ellipse q=0.5").map == ellipse_map(0.5)
    assert DomainSpec.ellipse(0.0).is_disk()


def test_level_lines(disk, ellipse_half):
    pts = level_line(disk, 2.0, 8)
    assert np.allclose(np.abs(pts), 2.0)
    pts = level_line(ellipse_half, 1.0, 8)
    assert np.allclose(pts, ellipse_half.boundary_point(2 * np.pi * np.arange(8) / 8))
    for z in level_line(ellipse_half, 1.7, 8):
        assert equilibrium_potential(ellipse_half, complex(z)) == pytest.approx(1.7, abs=1e-9)
    with pytest.raises(ValueError):
        level_line(disk, 0.5)
