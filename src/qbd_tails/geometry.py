"""Convergence-domain geometry of a stable model.

Computes the extreme points of the kernel curve (rightmost point of the
curve, crossing with each boundary-face curve), the three-way category
those points induce, the decay vector tau, the sigma roots of the curve's
sections along the unit lines and the diagonal, membership in the
convergence domain, the directional decay rates read off that domain by
bisection, and boundary samples for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernel
from .model import ValidatedModel, require_stable

EQ_TOL = 1e-9  # equality tolerance for the category and case decisions


def tie_sign(x: float, y: float) -> int:
    """The one tie rule of the case decisions: 0 when x and y agree within
    EQ_TOL relative to max(1, |x|, |y|), otherwise the sign of x - y."""
    d = x - y
    if abs(d) <= EQ_TOL * max(1.0, abs(x), abs(y)):
        return 0
    return 1 if d > 0 else -1


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
    face_side: int  # tie_sign(gamma_k_at_max, 1): 0 is a tangency at u_max_pt
    u_gamma: tuple[float, float]  # effective singularity driver


@dataclass(frozen=True)
class SigmaPoints:
    sigma_plus_1: float | None
    sigma_plus_2: float | None
    sigma_d: float | None


@dataclass(frozen=True)
class Geometry:
    axis1: AxisGeometry
    axis2: AxisGeometry
    category: str  # "I" | "II" | "III"
    tau: tuple[float, float]
    sigma: SigmaPoints  # None where a root above 1 is missing


@dataclass(frozen=True)
class DomainSample:
    curve: str
    theta: tuple[tuple[float, float], ...]
    u: tuple[tuple[float, float], ...]


def _gamma_value_and_grad(mat, z, w):
    """A generating function and its gradient at (z, w), from its mass matrix
    indexed by (dz+1, dw+1), summed in row-major order."""
    g = 0.0
    g1 = 0.0
    g2 = 0.0
    for i, row in enumerate(mat.tolist()):
        for j, p in enumerate(row):
            if p:
                t = p * z ** (i - 1) * w ** (j - 1)
                g += t
                g1 += (i - 1) * t / z
                g2 += (j - 1) * t / w
    return g, g1, g2


def _newton_polish_crossing(m, q, z, w, steps=40):
    """Newton iteration on (gamma_plus - 1, gamma_face - 1), with the interior
    and face mass matrices `m` and `q` in the face's own frame."""
    for _ in range(steps):
        f0, a11, a12 = _gamma_value_and_grad(m, z, w)
        f1, a21, a22 = _gamma_value_and_grad(q, z, w)
        f0 -= 1.0
        f1 -= 1.0
        det = a11 * a22 - a12 * a21
        if abs(det) < 1e-13:
            break
        du1 = (f0 * a22 - f1 * a12) / det
        du2 = (a11 * f1 - a21 * f0) / det
        z, w = z - du1, w - du2
        if abs(f0) < 1e-15 and abs(f1) < 1e-15:
            break
    return z, w


def extreme_max(model: ValidatedModel, axis: int) -> tuple[float, float]:
    """Rightmost point of the kernel curve along `axis`: (u_max, double root
    of the transverse quadratic there)."""
    u_max = kernel.branch_points(model, axis).u_max
    s = kernel.section_coefficients(model, 3 - axis, u_max)
    ordinate = float((1.0 - s.p_star0) / (2.0 * s.p_star1))
    return (u_max, ordinate) if axis == 1 else (ordinate, u_max)


def _face_matrices(model: ValidatedModel, axis: int):
    """Interior and face-`axis` mass matrices in the face's own frame: rows
    index the increment along `axis`, columns the transverse increment."""
    q = model.kernel(f"boundary{axis}").matrix()
    return kernel._section_matrix(model, 3 - axis), (q if axis == 1 else q.T)


def _face_linear_coeffs(model: ValidatedModel, axis: int):
    """The face-`axis` generating function is linear in the transverse
    coordinate w: gamma_axis = A(z) + B(z) * w.  Returns ascending
    coefficients of z*A(z) and z*B(z)."""
    q = _face_matrices(model, axis)[1]
    return q[:, 1].copy(), q[:, 2].copy()  # z*A, z*B


def _vertical_abscissas(a: np.ndarray) -> list[float]:
    """Roots of z*A(z) - z: the abscissas of a face curve without upward
    transverse mass, which is the vertical set A(z) = 1.  The face's masses
    a0 + a1 + a2 sum to one, so z*A(z) - z = (z - 1)(a2 z - a0)."""
    a0, _, a2 = a
    return [1.0, float(a0 / a2)] if a2 else [1.0]


def _crossing_poly(model: ValidatedModel, axis: int) -> np.ndarray:
    """Ascending coefficients of the degree <= 6 polynomial whose real roots
    are the `axis` coordinates where the face-`axis` curve meets the kernel
    curve."""
    pm = np.polynomial.polynomial
    m = _face_matrices(model, axis)[0]
    P0 = kernel._poly_u_a(m)
    a, b = _face_linear_coeffs(model, axis)
    nmr = pm.polysub(np.array([0.0, 1.0]), a)  # z - z*A(z)
    poly = pm.polymul(m[:, 2], pm.polymul(nmr, nmr))
    poly = pm.polysub(poly, pm.polymul(P0, pm.polymul(nmr, b)))
    return pm.polyadd(poly, pm.polymul(m[:, 0], pm.polymul(b, b)))


def _extreme_r(model: ValidatedModel, axis: int,
               bp: kernel.BranchPoints) -> tuple[float, float] | None:
    """Outermost transversal crossing (largest `axis` coordinate > 1) of the
    face-`axis` curve with the kernel curve, found as a root of the eliminant
    polynomial; `bp` is the axis-`axis` branch interval.

    The search runs in the face's own frame (z along `axis`, w transverse)
    and sums its matrices in row-major order, so axis 2 of a model gives the
    same floats as axis 1 of its coordinate swap."""
    m, q = _face_matrices(model, axis)
    a, b = _face_linear_coeffs(model, axis)
    candidates: list[tuple[float, float]] = []

    def on_curve(z, w) -> bool:
        return w > 1e-12 and all(
            abs(_gamma_value_and_grad(x, z, w)[0] - 1.0) < 1e-8 for x in (m, q))

    if not b.any():
        for z in _vertical_abscissas(a):
            if tie_sign(z, 1.0) > 0 and z <= bp.u_max * (1 + 1e-12):
                z = min(z, bp.u_max)
                w = float(np.real(kernel.zeta_lower(model, 3 - axis, z)))
                if on_curve(z, w):
                    candidates.append((z, w))
    else:
        desc = np.trim_zeros(_crossing_poly(model, axis)[::-1], "f")
        if desc.size >= 2:
            for z in kernel._polish_roots(desc, np.roots(desc)):
                if abs(z.imag) > 1e-8 * (1 + abs(z.real)):
                    continue
                z = float(z.real)
                if not (tie_sign(z, 1.0) > 0 and z <= bp.u_max * (1 + 1e-10)):
                    continue
                z = min(z, bp.u_max)
                bz = float(np.polynomial.polynomial.polyval(z, b))
                if abs(bz) < 1e-14:
                    continue
                w = (z - float(np.polynomial.polynomial.polyval(z, a))) / bz
                z, w = _newton_polish_crossing(m, q, z, w)
                if tie_sign(z, 1.0) > 0 and on_curve(z, w):
                    candidates.append((float(z), float(w)))
    if not candidates:
        return None
    z, w = max(candidates, key=lambda zw: zw[0])
    return (z, w) if axis == 1 else (w, z)


def _axis_geometry(model: ValidatedModel, axis: int) -> AxisGeometry:
    require_stable(model)
    k = axis - 1
    bp = kernel.branch_points(model, axis)
    u_max_pt = extreme_max(model, axis)
    g_at_max = float(np.real(kernel.gamma(model, f"boundary{axis}", *u_max_pt)))
    side = tie_sign(g_at_max, 1.0)
    u_r = _extreme_r(model, axis, bp)
    # tangency of the face curve at the branch point counts as a crossing
    if side == 0 and (u_r is None or u_r[k] <= u_max_pt[k]):
        u_r = u_max_pt
    if side > 0 and u_r is None:
        raise GeometryError(
            f"face curve exceeds 1 at the axis-{axis} branch point but no "
            "crossing was found")
    return AxisGeometry(
        axis=axis,
        u_min=bp.u_min,
        u_max=bp.u_max,
        u_max_pt=u_max_pt,
        u_r=u_r,
        gamma_k_at_max=g_at_max,
        face_side=side,
        u_gamma=u_r if side > 0 else u_max_pt,
    )


def classify(g1: AxisGeometry, g2: AxisGeometry) -> str:
    """Three-way category from the ordering of the two singularity drivers;
    ties within tolerance count as equalities and route to II or III."""
    # gt1: the axis-1 driver is outermost along axis 1; gt2 likewise
    gt1 = tie_sign(g1.u_gamma[0], g2.u_gamma[0]) > 0
    gt2 = tie_sign(g2.u_gamma[1], g1.u_gamma[1]) > 0
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


def sigma_plus(model: ValidatedModel, axis: int) -> float:
    """The root above 1 of the kernel curve restricted to the unit line of
    the other coordinate; closed form: downward over upward aggregate mass."""
    require_stable(model)
    m = model.interior.matrix()
    agg = m.sum(axis=1) if axis == 1 else m.sum(axis=0)  # index di+1 (or dj+1)
    root = float(agg[0]) / float(agg[2])
    if root <= 1.0 + 1e-12:
        raise ValueError(
            f"sigma_plus(axis {axis}) has no root above 1 (root {root:.6g}); "
            "the marginal decay is governed by the decay vector alone")
    return root


def sigma_diag(model: ValidatedModel) -> float:
    """The unique root above 1 of the kernel curve restricted to the diagonal.

    u^2 (gamma(u, u) - 1) is a quartic with the root u = 1; gamma(u, u) is
    convex on u > 0, so at most one other positive root exists."""
    require_stable(model)
    mx, my = model.interior.mean()
    if mx + my >= 0.0:
        raise ValueError("nonnegative diagonal drift; no diagonal root above 1")
    c = np.zeros(5)  # ascending coefficients of u^2 (gamma(u, u) - 1)
    for di, dj, p in model.interior.entries:
        c[di + dj + 2] += p
    c[2] -= 1.0
    desc = np.trim_zeros(c[::-1], "f")
    roots = kernel._polish_roots(desc, np.roots(desc))
    real = abs(roots.imag) < kernel._REAL_ROOT_RTOL * (1.0 + abs(roots.real))
    above = roots.real[real & (roots.real > 1.0 + 1e-9)]
    if not above.size:
        raise ValueError("diagonal section does not return to 1 beyond u = 1")
    return float(above.min())


def _sigma_points(model: ValidatedModel) -> SigmaPoints:
    vals = []
    for f in (lambda: sigma_plus(model, 1), lambda: sigma_plus(model, 2),
              lambda: sigma_diag(model)):
        try:
            vals.append(f())
        except ValueError:
            vals.append(None)
    return SigmaPoints(*vals)


@lru_cache(maxsize=256)
def compute_geometry(model: ValidatedModel) -> Geometry:
    """The extreme points of both axes, the category, the decay vector tau
    and the sigma roots of a stable model."""
    g1 = _axis_geometry(model, 1)
    g2 = _axis_geometry(model, 2)
    category = classify(g1, g2)
    tau = _tau(model, category, g1, g2)
    if not (tau[0] > 1.0 and tau[1] > 1.0):
        raise GeometryError(f"decay vector {tau} does not dominate (1, 1)")
    return Geometry(axis1=g1, axis2=g2, category=category, tau=tau,
                    sigma=_sigma_points(model))


def domain_contains(model: ValidatedModel, theta: tuple[float, float]) -> bool:
    """Membership test for the open convergence domain: componentwise below
    log tau and strictly dominated by an interior point of the kernel region.

    Its upper boundary is concave with peak (u_peak, v_peak) at the axis-2
    branch point: log v_peak left of u_peak, none beyond u_max1, and the
    upper branch between, where y = e^theta2 is below the upper root of
    q(y) = p*1 y^2 - (1 - p*0) y + p*-1 at x = e^theta1 iff q(y) < 0 or y
    is left of the vertex, as p*1 > 0 (`validate` needs a +1 step in u2)."""
    return _contains(model, compute_geometry(model), theta)


def _contains(model: ValidatedModel, geo: Geometry, theta: tuple[float, float]) -> bool:
    """domain_contains with the model's geometry already looked up."""
    t1, t2 = theta
    if not (t1 < math.log(geo.tau[0]) and t2 < math.log(geo.tau[1])
            and t1 < math.log(geo.axis1.u_max)):
        return False
    u_peak, v_peak = geo.axis2.u_max_pt
    if t1 < math.log(u_peak):
        return t2 < math.log(v_peak)
    x, y = math.exp(t1), math.exp(t2)
    p = [0.0, 0.0, 0.0]  # p*-1, p*0, p*1 at x
    for di, dj, mass in model.interior.entries:
        p[dj + 1] += mass * x ** di
    a = 1.0 - p[1]
    return (p[2] * y - a) * y + p[0] < 0.0 or 2.0 * p[2] * y < a


def directional_decay(model: ValidatedModel, c: tuple[float, float]) -> float:
    """Geometric decay rate along direction c in {(1,0),(0,1),(1,1)}:
    exp of the largest multiple of c inside the domain (by bisection)."""
    if tuple(c) not in {(1, 0), (0, 1), (1, 1)}:
        raise ValueError("direction must be (1,0), (0,1) or (1,1)")
    geo = compute_geometry(model)
    hi = max(math.log(geo.tau[0]), math.log(geo.tau[1]),
             math.log(geo.axis1.u_max)) + 1.0
    lo = 0.0
    if not _contains(model, geo, (0.0, 0.0)):
        raise GeometryError("origin not interior to the convergence domain")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: every later step repeats
            break
        if _contains(model, geo, (mid * c[0], mid * c[1])):
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


def _curve_gamma_face(model: ValidatedModel, axis: int, n: int):
    """Points (z, w) on the face-`axis` curve, z along `axis`, over the kernel
    curve's range of z, or of w where the face curve is a vertical line."""
    bp = kernel.branch_points(model, axis)
    a, b = _face_linear_coeffs(model, axis)
    pm = np.polynomial.polynomial
    if not b.any():
        bpw = kernel.branch_points(model, 3 - axis)
        return np.full(n, max(_vertical_abscissas(a))), np.linspace(bpw.u_min, bpw.u_max, n)
    # the ordinate (z - zA(z)) / zB(z) has zB > 0 and a concave numerator, so
    # it is positive on one arc, between the numerator's real roots: sample that
    nmr = pm.polysub([0.0, 1.0], a)
    lo, hi = bp.u_min, bp.u_max
    for r in pm.polyroots(nmr):
        if np.isreal(r) and lo < r.real < hi:
            rising = pm.polyval(r.real, pm.polyder(nmr)) > 0
            lo, hi = (float(r.real), hi) if rising else (lo, float(r.real))
    z = np.linspace(lo, hi, 8 * n)
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
    elif curve in ("gamma1", "gamma2"):
        z, w = _curve_gamma_face(model, int(curve[-1]), n)
        u1, u2 = (z, w) if curve == "gamma1" else (w, z)
    elif curve == "domain":
        # domain_contains's upper boundary at every sample, one zeta_upper call
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
