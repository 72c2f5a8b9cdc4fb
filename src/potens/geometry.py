"""Exterior conformal-map representation of compact planar domains.

A compact set K with analytic Jordan boundary is encoded through the map

    phi(w) = cap * w + c_0 + c_1 / w + ... + c_m / w**m,

which carries {|w| > 1} conformally onto the exterior of K and fixes
infinity.  Its inverse Phi maps the exterior of K onto the exterior of the
closed unit disk with Phi'(infinity) = 1/cap > 0, so cap is the logarithmic
capacity of K.  The exponentiated equilibrium potential is then simply
max(1, |Phi(z)|): identically 1 on K and growing like |z|/cap far away.

Restricting boundaries to finite Laurent tails keeps every curve analytic by
construction, makes univalence checkable on a grid, and turns phi(w) = z
into a polynomial equation of degree m + 1, so Phi needs no iteration.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

# Classification threshold on |w| - 1; shared by every module that needs the
# inside/outside decision (the weight max(1, |Phi|) must be consistent).
BOUNDARY_TOL = 1e-10

INSIDE = "inside"

_DOMAIN_CHECK_SLACK = 1e-12


@dataclass(frozen=True)
class ExteriorMap:
    """Laurent data of phi, the conformal map from {|w|>1} onto ext(K).

    ``laurent_coeffs`` stores (c_0, c_1, ..., c_m).
    """

    cap: float
    laurent_coeffs: tuple

    def __post_init__(self):
        if not (self.cap > 0 and cmath.isfinite(self.cap)):
            raise ValueError(f"capacity (leading Laurent coefficient) must be positive and finite, "
                             f"got {self.cap!r}")
        coeffs = tuple(complex(c) for c in self.laurent_coeffs)
        if not all(cmath.isfinite(c) for c in coeffs):
            raise ValueError(f"Laurent coefficients must be finite, got {coeffs!r}")
        # normalize: keep c_0, trim trailing zero tail coefficients
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0j,)
        object.__setattr__(self, "laurent_coeffs", coeffs)

    @property
    def tail_length(self) -> int:
        """m, the number of negative Laurent powers actually present."""
        return len(self.laurent_coeffs) - 1

    def phi(self, w):
        """phi(w) for |w| >= 1 (small slack allowed)."""
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) < 1 - _DOMAIN_CHECK_SLACK):
            raise ValueError("phi is only defined on |w| >= 1")
        return self._phi_raw(w)

    def phi_prime(self, w):
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) < 1 - _DOMAIN_CHECK_SLACK):
            raise ValueError("phi' is only defined on |w| >= 1")
        return self._phi_prime_raw(w)

    def _phi_raw(self, w):
        out = self.cap * w + self.laurent_coeffs[0]
        wk = np.ones_like(w)
        for c in self.laurent_coeffs[1:]:
            wk = wk / w
            out = out + c * wk
        return out

    def _phi_prime_raw(self, w):
        out = np.full_like(np.asarray(w, dtype=complex), self.cap)
        wk = 1.0 / w
        for k, c in enumerate(self.laurent_coeffs[1:], start=1):
            out = out - k * c * wk / w
            wk = wk / w
        return out

    def is_disk(self) -> bool:
        """phi is the identity: K is the closed unit disk."""
        return self.cap == 1.0 and all(c == 0 for c in self.laurent_coeffs)

    def boundary_point(self, theta):
        """z = phi(e^{i theta}), the canonical boundary parameterization."""
        return self._phi_raw(np.exp(1j * np.asarray(theta, dtype=float)))

    def validate(self, n_theta: int = 256) -> None:
        """Numerical univalence checks: simple boundary curve, phi' != 0.

        Raises ValueError when the Laurent data does not define a Jordan
        curve with a conformal exterior map.
        """
        theta = 2 * np.pi * np.arange(n_theta) / n_theta
        tau = np.exp(1j * theta)
        bdry = self._phi_raw(tau)
        # injectivity on the grid: chordal ratio bounded away from zero
        diff_z = np.abs(bdry[:, None] - bdry[None, :])
        diff_w = np.abs(tau[:, None] - tau[None, :])
        np.fill_diagonal(diff_z, 1.0)
        np.fill_diagonal(diff_w, 1.0)
        if np.min(diff_z / diff_w) < 1e-8:
            raise ValueError("boundary curve self-intersects: phi is not univalent on |w|=1")
        # zeros of phi' are the roots of cap w^{m+1} - sum k c_k w^{m-k};
        # all of them must stay strictly inside the unit circle
        m = self.tail_length
        if m > 0:
            poly = np.zeros(m + 2, dtype=complex)
            poly[0] = self.cap
            for k in range(1, m + 1):
                poly[k + 1] = -k * self.laurent_coeffs[k]
            roots = np.roots(poly)
            if roots.size and np.max(np.abs(roots)) >= 1 - 1e-12:
                raise ValueError("phi' vanishes on |w| >= 1: map is not conformal")


def disk_map() -> ExteriorMap:
    """Exterior map of the closed unit disk: the identity."""
    return ExteriorMap(1.0, (0j,))


def ellipse_map(q: float) -> ExteriorMap:
    """phi(w) = w + q/w; interpolates between the disk (q=0) and [-2,2] (q->1)."""
    if not (0 <= q < 1):
        raise ValueError("ellipse parameter q must lie in [0, 1)")
    return ExteriorMap(1.0, (0j, complex(q)))


@dataclass(frozen=True)
class DomainSpec:
    """A named domain: disk, ellipse(q), or custom Laurent data."""

    kind: str
    q: float | None
    map: ExteriorMap

    @staticmethod
    def disk() -> "DomainSpec":
        return DomainSpec("disk", 0.0, disk_map())

    @staticmethod
    def ellipse(q: float) -> "DomainSpec":
        if q == 0:
            return DomainSpec.disk()
        return DomainSpec("ellipse", float(q), ellipse_map(q))

    @staticmethod
    def custom(emap: ExteriorMap) -> "DomainSpec":
        return DomainSpec("custom", None, emap)

    def is_disk(self) -> bool:
        return self.map.is_disk()


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style literals (i suffix, also plain reals)."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    t = re.sub(r"i\b", "j", t.replace("I", "i"))
    if t.endswith("i"):
        t = t[:-1] + "j"
    try:
        return complex(t)
    except ValueError as exc:
        raise ValueError(f"bad complex literal {text!r}") from exc


def format_complex(z: complex) -> str:
    re_part = f"{z.real:.17g}"
    if z.imag == 0:
        return re_part
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_part}{sign}{abs(z.imag):.17g}i"


def parse_domain(record: str) -> DomainSpec:
    """Parse a text record like 'kind=ellipse q=0.5' or
    'kind=custom cap=1.0 coeffs=[0,0.2,0.1i]'."""
    fields = {}
    for token in record.replace(",", " , ").split():
        if "=" in token:
            key, _, value = token.partition("=")
            fields[key.strip()] = value.strip()
    kind = fields.get("kind")
    if kind == "disk":
        return DomainSpec.disk()
    if kind == "ellipse":
        if "q" not in fields:
            raise ValueError("ellipse record needs q=<value>")
        return DomainSpec.ellipse(float(fields["q"]))
    if kind == "custom":
        if "cap" not in fields or "coeffs" not in fields:
            raise ValueError("custom record needs cap=<value> coeffs=[...]")
        m = re.search(r"coeffs=\[([^\]]*)\]", record)
        if m is None:
            raise ValueError("could not parse coeffs=[...] list")
        items = [s for s in m.group(1).split(",") if s.strip()]
        coeffs = tuple(parse_complex(s) for s in items)
        emap = ExteriorMap(float(fields["cap"]), coeffs)
        emap.validate()
        return DomainSpec.custom(emap)
    raise ValueError(f"unknown domain kind {kind!r}")


def format_domain(spec: DomainSpec) -> str:
    if spec.kind == "disk":
        return "kind=disk"
    if spec.kind == "ellipse":
        return f"kind=ellipse q={spec.q:.17g}"
    coeffs = ",".join(format_complex(c) for c in spec.map.laurent_coeffs)
    return f"kind=custom cap={spec.map.cap:.17g} coeffs=[{coeffs}]"


# -- operations ---------------------------------------------------------------

def phi_eval(emap: ExteriorMap, w: complex) -> complex:
    """Forward map phi(w); exact Laurent evaluation, |w| >= 1 required."""
    return complex(emap.phi(complex(w)))


def phi_prime_eval(emap: ExteriorMap, w: complex) -> complex:
    """Termwise derivative phi'(w) = cap - sum k c_k w^{-k-1}."""
    return complex(emap.phi_prime(complex(w)))


def big_phi_eval(emap: ExteriorMap, z: complex):
    """Invert phi as the root of a polynomial.

    Multiplying phi(w) = z by w^m gives cap w^{m+1} + (c_0 - z) w^m + c_1
    w^{m-1} + ... + c_m = 0.  phi is univalent on |w| > 1, so when z lies on
    or outside the boundary exactly one root has |w| >= 1 and it is Phi(z);
    when z lies inside K no root does.  Returns w = Phi(z) (residual
    |phi(w) - z| <= 1e-12 (1+|z|)) or the string ``"inside"`` when the
    largest root has |w| < 1 - BOUNDARY_TOL.  Raises ValueError for a
    non-finite z or when two roots reach the closed exterior (phi is not
    univalent), and ConvergenceError, with the root attached, when the
    residual contract fails.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"Phi is defined for finite z only, got {z!r}")
    if emap.tail_length == 0:
        # phi is affine; invert exactly
        w = (z - emap.laurent_coeffs[0]) / emap.cap
        return INSIDE if abs(w) < 1 - BOUNDARY_TOL else w
    c = emap.laurent_coeffs
    roots = np.roots((emap.cap, c[0] - z) + c[1:])
    roots = roots[np.argsort(np.abs(roots))]
    w = complex(roots[-1])
    if abs(w) < 1 - BOUNDARY_TOL:
        return INSIDE
    if abs(roots[-2]) >= 1 - BOUNDARY_TOL:
        raise ValueError(f"phi is not univalent: phi(w) = {z!r} has roots {roots.tolist()} "
                         "on or outside the unit circle")
    if abs(complex(emap._phi_raw(np.asarray(w))) - z) > 1e-12 * (1.0 + abs(z)):
        raise ConvergenceError(f"inversion of phi missed the residual contract at z={z!r}", last=w)
    return w


def equilibrium_potential(emap: ExteriorMap, z: complex) -> float:
    """P_K(z) = max(1, |Phi(z)|); equals 1 on K and is continuous across T."""
    w = big_phi_eval(emap, z)
    if w == INSIDE:
        return 1.0
    return max(1.0, abs(w))


def capacity(emap: ExteriorMap) -> float:
    """Logarithmic capacity of K (leading Laurent coefficient of phi)."""
    return emap.cap


def level_line(emap: ExteriorMap, level: float, n_theta: int = 256) -> np.ndarray:
    """Points of the level curve {P_K = level}, level >= 1, as phi(level*e^{i t})."""
    if level < 1:
        raise ValueError("P_K level lines exist for level >= 1 only")
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    return np.asarray(emap._phi_raw(level * np.exp(1j * theta)))
