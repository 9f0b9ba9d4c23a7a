"""Convergence-domain geometry of a stable model.

Computes the extreme points of the kernel curve (rightmost point of the
curve, crossing with each boundary-face curve), the three-way category
those points induce, the decay vector tau, membership in the convergence
domain, rough directional decay rates, and boundary samples for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernel
from .model import ValidatedModel, require_stable, swap_coordinates

EQ_TOL = 1e-9  # equality tolerance for the category and case decisions


class GeometryError(RuntimeError):
    """The extreme-point search failed; the model is likely invalid."""


@dataclass(frozen=True)
class AxisGeometry:
    """Extreme points along one coordinate, all in u-space."""

    axis: int
    u_min: float
    u_max: float
    u_max_pt: tuple[float, float]  # rightmost curve point (branch point)
    u_r: tuple[float, float] | None  # outermost crossing with the face curve
    gamma_k_at_max: float  # face generating function at u_max_pt
    u_gamma: tuple[float, float]  # effective singularity driver


@dataclass(frozen=True)
class Geometry:
    axis1: AxisGeometry
    axis2: AxisGeometry
    category: str  # "I" | "II" | "III"
    tau: tuple[float, float]


@dataclass(frozen=True)
class DomainSample:
    curve: str
    theta: tuple[tuple[float, float], ...]
    u: tuple[tuple[float, float], ...]


def _gamma_value_and_grad(model, face, u1, u2):
    g = 0.0
    g1 = 0.0
    g2 = 0.0
    for di, dj, p in model.kernel(face).entries:
        t = p * u1 ** di * u2 ** dj
        g += t
        g1 += di * t / u1
        g2 += dj * t / u2
    return g, g1, g2


def _newton_polish_crossing(model, face, u1, u2, steps=40):
    """Newton iteration on (gamma_plus - 1, gamma_face - 1)."""
    for _ in range(steps):
        f0, a11, a12 = _gamma_value_and_grad(model, "interior", u1, u2)
        f1, a21, a22 = _gamma_value_and_grad(model, face, u1, u2)
        f0 -= 1.0
        f1 -= 1.0
        det = a11 * a22 - a12 * a21
        if abs(det) < 1e-13:
            break
        du1 = (f0 * a22 - f1 * a12) / det
        du2 = (a11 * f1 - a21 * f0) / det
        u1, u2 = u1 - du1, u2 - du2
        if abs(f0) < 1e-15 and abs(f1) < 1e-15:
            break
    return u1, u2


def extreme_max(model: ValidatedModel, axis: int) -> tuple[float, float]:
    """Rightmost point of the kernel curve along `axis`: (u_max, double root
    of the transverse quadratic there)."""
    return _extreme_max_at(model, axis, kernel.branch_points(model, axis))


def _extreme_max_at(model: ValidatedModel, axis: int,
                    bp: kernel.BranchPoints) -> tuple[float, float]:
    """extreme_max with the axis-`axis` branch points already solved."""
    s = kernel.section_coefficients(model, 3 - axis, bp.u_max)
    ordinate = float((1.0 - s.p_star0) / (2.0 * s.p_star1))
    if axis == 1:
        return (bp.u_max, ordinate)
    return (ordinate, bp.u_max)


def _face_linear_coeffs(model: ValidatedModel):
    """The boundary-1 generating function is linear in the transverse
    coordinate: gamma_1 = A(z) + B(z) * w.  Returns ascending coefficients
    of z*A(z) and z*B(z)."""
    q = model.boundary1.matrix()
    return q[:, 1].copy(), q[:, 2].copy()  # z*A, z*B


def _crossing_poly(model: ValidatedModel) -> np.ndarray:
    """Ascending coefficients of the degree <= 6 polynomial whose real roots
    are the abscissas where the boundary-1 curve meets the kernel curve."""
    pm = np.polynomial.polynomial
    m = model.interior.matrix()
    P1 = m[:, 2]
    Pm1 = m[:, 0]
    P0 = np.array([-m[0, 1], 1.0 - m[1, 1], -m[2, 1]])
    a, b = _face_linear_coeffs(model)
    nmr = pm.polysub(np.array([0.0, 1.0]), a)  # z - z*A(z)
    poly = pm.polymul(P1, pm.polymul(nmr, nmr))
    poly = pm.polysub(poly, pm.polymul(P0, pm.polymul(nmr, b)))
    poly = pm.polyadd(poly, pm.polymul(Pm1, pm.polymul(b, b)))
    return poly


def _extreme_r_axis1(model: ValidatedModel,
                     bp: kernel.BranchPoints) -> tuple[float, float] | None:
    """Outermost crossing (largest abscissa > 1) of the boundary-1 curve
    with the kernel curve, found as a root of the eliminant polynomial.

    `bp` is the axis-1 branch interval of `model`; swapping the coordinates
    exchanges the two quartics, so the caller passes the one it solved."""
    a, b = _face_linear_coeffs(model)
    candidates: list[tuple[float, float]] = []

    def on_curve(u1, u2) -> bool:
        if u2 <= 1e-12:
            return False
        g = kernel.gamma(model, "interior", u1, u2)
        gk = kernel.gamma(model, "boundary1", u1, u2)
        return abs(g - 1.0) < 1e-8 and abs(gk - 1.0) < 1e-8

    if not b.any():
        # no upward mass on the face: its curve is the vertical set A(z) = 1
        pm = np.polynomial.polynomial
        poly = pm.polysub(a, np.array([0.0, 1.0]))
        desc = np.trim_zeros(poly[::-1], "f")
        roots = np.roots(desc) if desc.size >= 2 else np.array([])
        for z in roots:
            if abs(z.imag) > 1e-10:
                continue
            z = float(z.real)
            if 1.0 + 1e-9 < z <= bp.u_max * (1 + 1e-12):
                z = min(z, bp.u_max)
                w = float(np.real(kernel.zeta_lower(model, 2, z)))
                if on_curve(z, w):
                    candidates.append((z, w))
    else:
        poly = _crossing_poly(model)
        desc = np.trim_zeros(poly[::-1], "f")
        if desc.size >= 2:
            roots = np.roots(desc)
            roots = kernel._polish_roots(desc, roots)
            for z in roots:
                if abs(z.imag) > 1e-8 * (1 + abs(z.real)):
                    continue
                z = float(z.real)
                if not (1.0 + 1e-9 < z <= bp.u_max * (1 + 1e-10)):
                    continue
                z = min(z, bp.u_max)
                bz = float(np.polynomial.polynomial.polyval(z, b))
                if abs(bz) < 1e-14:
                    continue
                w = (z - float(np.polynomial.polynomial.polyval(z, a))) / bz
                z, w = _newton_polish_crossing(model, "boundary1", z, w)
                if z > 1.0 + 1e-9 and on_curve(z, w):
                    candidates.append((float(z), float(w)))
    # tangency of the face curve at the branch point counts as a crossing
    u_max_pt = _extreme_max_at(model, 1, bp)
    if abs(kernel.gamma(model, "boundary1", *u_max_pt) - 1.0) <= EQ_TOL:
        candidates.append(u_max_pt)
    if not candidates:
        return None
    return max(candidates, key=lambda uw: uw[0])


def _axis_geometry(model: ValidatedModel, axis: int) -> AxisGeometry:
    require_stable(model)
    bp = kernel.branch_points(model, axis)
    u_max_pt = _extreme_max_at(model, axis, bp)
    face = "boundary1" if axis == 1 else "boundary2"
    g_at_max = float(np.real(kernel.gamma(model, face, *u_max_pt)))
    if axis == 2:
        pt = _extreme_r_axis1(swap_coordinates(model), bp)
        u_r = None if pt is None else (pt[1], pt[0])
    else:
        u_r = _extreme_r_axis1(model, bp)
    if g_at_max > 1.0 + EQ_TOL:
        if u_r is None:
            raise GeometryError(
                f"face curve exceeds 1 at the axis-{axis} branch point but no "
                "crossing was found")
        u_gamma = u_r
    else:
        u_gamma = u_max_pt
    return AxisGeometry(
        axis=axis,
        u_min=bp.u_min,
        u_max=bp.u_max,
        u_max_pt=u_max_pt,
        u_r=u_r,
        gamma_k_at_max=g_at_max,
        u_gamma=u_gamma,
    )


def classify(g1: AxisGeometry, g2: AxisGeometry) -> str:
    """Three-way category from the ordering of the two singularity drivers;
    ties within tolerance count as equalities and route to II or III."""
    d1 = g1.u_gamma[0] - g2.u_gamma[0]  # > 0 means the axis-1 driver is outermost
    d2 = g2.u_gamma[1] - g1.u_gamma[1]
    scale1 = max(1.0, abs(g1.u_gamma[0]), abs(g2.u_gamma[0]))
    scale2 = max(1.0, abs(g2.u_gamma[1]), abs(g1.u_gamma[1]))
    gt1 = d1 > EQ_TOL * scale1
    gt2 = d2 > EQ_TOL * scale2
    if gt1 and gt2:
        return "I"
    if gt1 and not gt2:
        return "II"
    if not gt1 and gt2:
        return "III"
    raise GeometryError(
        "impossible ordering of the singularity drivers (both coordinates tie)")


def _tau(model: ValidatedModel, category: str, g1: AxisGeometry,
         g2: AxisGeometry) -> tuple[float, float]:
    if category == "I":
        return (g1.u_gamma[0], g2.u_gamma[1])
    if category == "II":
        v = g2.u_r[1]
        return (float(np.real(kernel.zeta_upper(model, 1, v))), v)
    u = g1.u_r[0]
    return (u, float(np.real(kernel.zeta_upper(model, 2, u))))


@lru_cache(maxsize=256)
def compute_geometry(model: ValidatedModel) -> Geometry:
    g1 = _axis_geometry(model, 1)
    g2 = _axis_geometry(model, 2)
    category = classify(g1, g2)
    tau = _tau(model, category, g1, g2)
    if not (tau[0] > 1.0 and tau[1] > 1.0):
        raise GeometryError(f"decay vector {tau} does not dominate (1, 1)")
    return Geometry(axis1=g1, axis2=g2, category=category, tau=tau)


def _upper_envelope_max(model: ValidatedModel, theta1: float) -> float:
    """sup of log zeta_upper_2 over abscissas strictly beyond theta1.

    The envelope is concave and peaks at the highest point of the kernel
    curve, the axis-2 branch point: left of it the sup is the peak height,
    right of it the envelope's own value, and beyond u_max1 nothing."""
    geo = compute_geometry(model)
    u_peak, v_peak = geo.axis2.u_max_pt
    if theta1 >= math.log(geo.axis1.u_max):
        return -math.inf
    if theta1 < math.log(u_peak):
        return math.log(v_peak)
    return math.log(float(np.real(kernel.zeta_upper(model, 2, math.exp(theta1)))))


def domain_contains(model: ValidatedModel, theta: tuple[float, float]) -> bool:
    """Membership test for the open convergence domain: componentwise below
    log tau and strictly dominated by an interior point of the kernel region."""
    geo = compute_geometry(model)
    t1, t2 = theta
    if not (t1 < math.log(geo.tau[0]) and t2 < math.log(geo.tau[1])):
        return False
    if t1 >= math.log(geo.axis1.u_max):
        return False
    return _upper_envelope_max(model, t1) > t2


def directional_decay(model: ValidatedModel, c: tuple[float, float]) -> float:
    """Geometric decay rate along direction c in {(1,0),(0,1),(1,1)}:
    exp of the largest multiple of c inside the domain (by bisection)."""
    if tuple(c) not in {(1, 0), (0, 1), (1, 1)}:
        raise ValueError("direction must be (1,0), (0,1) or (1,1)")
    geo = compute_geometry(model)
    hi = max(math.log(geo.tau[0]), math.log(geo.tau[1]),
             math.log(geo.axis1.u_max)) + 1.0
    lo = 0.0
    if not domain_contains(model, (0.0, 0.0)):
        raise GeometryError("origin not interior to the convergence domain")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if domain_contains(model, (mid * c[0], mid * c[1])):
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def _cos_grid(a: float, b: float, k: int) -> np.ndarray:
    if k == 1:
        return np.array([a])
    return a + (b - a) * 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, k)))


def _curve_gamma_plus(model: ValidatedModel, n: int):
    """Closed kernel curve: lower branch left to right, then upper branch back."""
    bp = kernel.branch_points(model, 1)
    k1 = (n + 1) // 2
    lower = _cos_grid(bp.u_min, bp.u_max, k1)
    upper = _cos_grid(bp.u_max, bp.u_min, n - k1)
    return (np.concatenate([lower, upper]),
            np.real(np.concatenate([kernel.zeta_lower(model, 2, lower),
                                    kernel.zeta_upper(model, 2, upper)])))


def _curve_gamma_face(model: ValidatedModel, n: int):
    """Points on the boundary-1 curve over the kernel curve's abscissa range."""
    bp = kernel.branch_points(model, 1)
    a, b = _face_linear_coeffs(model)
    pm = np.polynomial.polynomial
    if not b.any():
        desc = np.trim_zeros(pm.polysub(a, [0.0, 1.0])[::-1], "f")
        roots = [float(z.real) for z in (np.roots(desc) if desc.size >= 2 else [])
                 if abs(z.imag) < 1e-10 and z.real > 0]
        if not roots:
            raise GeometryError("vertical boundary curve has no positive abscissa")
        z = max(roots)
        zc = min(max(z, bp.u_min), bp.u_max)
        w_lo = float(np.real(kernel.zeta_lower(model, 2, zc)))
        w_hi = float(np.real(kernel.zeta_upper(model, 2, zc)))
        return np.full(n, z), np.linspace(max(w_lo, 1e-6), max(w_hi, 1e-3), n)
    z = np.linspace(bp.u_min, bp.u_max, 8 * n)
    bz = pm.polyval(z, b)
    z, bz = z[bz > 0], bz[bz > 0]
    w = (z - pm.polyval(z, a)) / bz
    z, w = z[w > 1e-9], w[w > 1e-9]
    if z.size < 2:
        raise GeometryError("boundary curve does not enter the sampled range")
    idx = np.linspace(0, z.size - 1, n).round().astype(int)
    return z[idx], w[idx]


def sample_boundary(model: ValidatedModel, curve: str, n: int) -> DomainSample:
    """Sample n points along one of the defining curves.

    Curves: gamma_plus (kernel curve), gamma1, gamma2 (face curves), and
    domain (upper boundary of the convergence domain in theta-space).
    """
    require_stable(model)
    if n < 2:
        raise ValueError("need at least 2 sample points")
    if curve == "gamma_plus":
        u1, u2 = _curve_gamma_plus(model, n)
    elif curve == "gamma1":
        u1, u2 = _curve_gamma_face(model, n)
    elif curve == "gamma2":
        u2, u1 = _curve_gamma_face(swap_coordinates(model), n)
    elif curve == "domain":
        # _upper_envelope_max at every sample, one zeta_upper call
        geo = compute_geometry(model)
        u_peak, v_peak = geo.axis2.u_max_pt
        lo = math.log(geo.axis1.u_min) + 1e-9
        hi = math.log(geo.tau[0]) - 1e-12
        t1 = np.linspace(lo, hi, n)
        env = np.where(t1 < math.log(geo.axis1.u_max), math.log(v_peak), -math.inf)
        right = (t1 >= math.log(u_peak)) & np.isfinite(env)
        env[right] = np.log(np.real(kernel.zeta_upper(model, 2, np.exp(t1[right]))))
        pts_t = list(zip(t1.tolist(), np.minimum(env, math.log(geo.tau[1])).tolist()))
        return DomainSample(
            curve=curve,
            theta=tuple(pts_t),
            u=tuple((math.exp(a), math.exp(b)) for a, b in pts_t),
        )
    else:
        raise ValueError(f"unknown curve {curve!r}")
    return DomainSample(
        curve=curve,
        theta=tuple(zip(np.log(u1).tolist(), np.log(u2).tolist())),
        u=tuple(zip(u1.tolist(), u2.tolist())),
    )
