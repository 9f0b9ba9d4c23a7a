"""Generating-function kernel of the interior walk.

For a fixed abscissa the curve gamma_plus(u1, u2) = 1 is a quadratic in the
other coordinate; this module evaluates the face generating functions, the
section coefficients of that quadratic, the two branch functions
(finite lower/upper roots), and the branch points where they coincide,
with the factors of the square root of the discriminant that they cut.

Axis convention. `axis` names the coordinate the quadratic is solved for:
section_coefficients(model, 2, u) are the u2-quadratic coefficients at
u1 = u, with discriminant D2(u). The branch interval of coordinate k
(branch_points(model, k)) is the zero set of the discriminant of the
opposite axis, D_{3-k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ValidatedModel

_REAL_ROOT_RTOL = 1e-8  # |imag| < rtol * (1 + |real|) declares a root real
_NEWTON_STEPS = 60
_EPS = np.finfo(float).eps


class KernelError(RuntimeError):
    """Numerical failure while resolving the kernel branch structure."""


@dataclass(frozen=True)
class SectionCoefficients:
    p_star1: complex
    p_star0: complex
    p_star_minus1: complex


@dataclass(frozen=True)
class BranchPoints:
    u_min: float
    u_max: float
    all_quartic_roots: tuple[float, ...]
    # +sqrt(u^2 D) = sqrt_lead * prod sqrt(u - l) * prod sqrt(r - u)
    sqrt_lead: float
    left: tuple[float, ...]  # roots at or below u_min
    right: tuple[float, ...]  # roots at or above u_max


def gamma(model: ValidatedModel, face: str, u1, u2):
    """Evaluate the face generating function at (u1, u2); broadcasts."""
    u1 = np.asarray(u1)
    u2 = np.asarray(u2)
    if np.any(u1 == 0) or np.any(u2 == 0):
        raise ValueError("generating function undefined at zero argument")
    out = np.zeros(np.broadcast(u1, u2).shape, dtype=np.result_type(u1, u2, float))
    for di, dj, p in model.kernel(face).entries:
        out = out + p * u1 ** di * u2 ** dj
    if out.ndim == 0:
        return out[()]
    return out


def _section_matrix(model: ValidatedModel, axis: int):
    """Mass matrix arranged so column k holds the transverse-increment-k
    masses as ascending polynomial coefficients in the abscissa."""
    m = model.interior.matrix()
    if axis == 2:
        return m  # row index: abscissa power (u1); column: u2 increment
    if axis == 1:
        return m.T
    raise ValueError("axis must be 1 or 2")


def section_coefficients(model: ValidatedModel, axis: int, u) -> SectionCoefficients:
    """Coefficients (p_{*1}, p_{*0}, p_{*-1}) of the kernel quadratic in
    coordinate `axis`, as functions of the other coordinate at value u."""
    m = _section_matrix(model, axis)
    u = np.asarray(u)
    if np.any(u == 0):
        raise ValueError("section coefficients undefined at zero abscissa")
    powers = np.stack([1.0 / u, np.ones_like(u), u])  # abscissa power -1,0,1
    vals = np.tensordot(m, powers, axes=(0, 0))  # shape (3, ...) by column j
    return SectionCoefficients(
        p_star1=vals[2] if vals[2].ndim else vals[2][()],
        p_star0=vals[1] if vals[1].ndim else vals[1][()],
        p_star_minus1=vals[0] if vals[0].ndim else vals[0][()],
    )


def _poly_u_a(m: np.ndarray) -> np.ndarray:
    """Ascending coefficients of u * (1 - p_{*0}(u)) from a section matrix."""
    return np.array([-m[0, 1], 1.0 - m[1, 1], -m[2, 1]])


def _poly_u2D(model: ValidatedModel, axis: int) -> np.ndarray:
    """Ascending coefficients of the polynomial u^2 * D_axis(u), degree <= 4,
    where D_axis(u) = (1 - p_{*0}(u))^2 - 4 p_{*1}(u) p_{*-1}(u)."""
    m = _section_matrix(model, axis)
    # u * p_{*k}(u) has ascending coefficients m[:, k+1]
    b = m[:, 2]  # u * p_{*1}
    c = m[:, 0]  # u * p_{*-1}
    a = _poly_u_a(m)
    out = np.zeros(5)
    for poly, w in ((np.polynomial.polynomial.polymul(a, a), 1.0),
                    (np.polynomial.polynomial.polymul(b, c), -4.0)):
        out[: poly.size] += w * poly
    return out


def _polish_roots(coeffs_desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The roots polished by Newton's method on the polynomial with
    descending coefficients `coeffs_desc`: every real root bit for bit as
    after exactly _NEWTON_STEPS steps, every non-real one (by
    _REAL_ROOT_RTOL) once its step is at rounding level.

    A root's iterates depend on that root alone, and numpy's elementwise
    array arithmetic gives the same bits at any array length or position,
    so each step iterates only the roots still active. Once a root's
    iterate k equals its iterate j < k bit for bit, its later iterates
    repeat with period k - j: iterate n >= j equals iterate
    j + (n - j) % (k - j), which the root reads off its recorded cycle. A
    non-real root stops once its step is within 8 eps of its modulus; no
    caller reads it beyond the realness test, which later steps at that
    level cannot change.
    """
    deriv = np.polyder(coeffs_desc)
    iterates = np.empty((_NEWTON_STEPS + 1, roots.size), dtype=roots.dtype)
    iterates[0] = roots
    width = roots.itemsize
    raw = roots.tobytes()
    seen = [{raw[i * width:(i + 1) * width]: 0} for i in range(roots.size)]
    last = [_NEWTON_STEPS] * roots.size  # the iterate each root returns
    active = list(range(roots.size))
    z = roots
    for k in range(1, _NEWTON_STEPS + 1):
        f = np.polyval(coeffs_desc, z)
        df = np.polyval(deriv, z)
        nonzero = df != 0
        step = np.where(nonzero, f / np.where(nonzero, df, 1.0), 0.0)
        z = z - step
        iterates[k, active] = z
        raw = z.tobytes()
        keep = []
        # Python scalars only decide when a root stops; its iterates stay in arrays
        for pos, (i, zi, si) in enumerate(zip(active, z.tolist(), step.tolist())):
            j = seen[i].setdefault(raw[pos * width:(pos + 1) * width], k)
            if j != k:
                last[i] = j + (_NEWTON_STEPS - j) % (k - j)
            elif (abs(si) <= 8 * _EPS * abs(zi)
                  and abs(zi.imag) >= _REAL_ROOT_RTOL * (1.0 + abs(zi.real))):
                last[i] = k
            else:
                keep.append(pos)
        if not keep:
            break
        if len(keep) < len(active):
            active = [active[pos] for pos in keep]
            z = z[keep]
    return iterates[last, np.arange(roots.size)]


@lru_cache(maxsize=256)
def branch_points(model: ValidatedModel, axis: int) -> BranchPoints:
    """Branch interval [u_min, u_max] of coordinate `axis` on the kernel
    curve, bracketed among the real roots of the quartic u^2 D_{3-axis}(u),
    with the factors of its square root.

    The bracket is the unique adjacent pair of positive roots between which
    the discriminant is positive and the transverse roots are positive
    (midpoint test on u^2 D and on u (1 - p_{*0}), which share the signs
    of D and 1 - p_{*0} for u > 0).

    Gluing the principal square roots factor by factor, over the roots left
    of the interval and those right of it, keeps +sqrt(u^2 D) continuous off
    the two real cuts, left of u_min and right of u_max, where a naive
    principal-branch sqrt of D would jump across the negative real axis.
    """
    coeffs = _poly_u2D(model, 3 - axis)
    desc = np.trim_zeros(coeffs[::-1], "f")
    if desc.size < 3:
        raise KernelError("kernel discriminant polynomial degenerates below degree 2")
    roots = _polish_roots(desc, np.roots(desc))
    bad = np.abs(roots.imag) >= _REAL_ROOT_RTOL * (1.0 + np.abs(roots.real))
    if np.any(bad):
        raise KernelError(
            f"non-real branch-point roots {roots[bad]}; model invalid or numerics failed")
    roots = np.sort(roots.real)
    pm = np.polynomial.polynomial
    u_a = _poly_u_a(_section_matrix(model, 3 - axis))
    pos = roots[roots > 0]
    candidates = []
    for lo, hi in zip(pos, pos[1:]):
        if hi - lo < 1e-13:
            continue
        mid = 0.5 * (lo + hi)
        if pm.polyval(mid, coeffs) > 0 and pm.polyval(mid, u_a) > 0:
            candidates.append((lo, hi))
    if len(candidates) != 1:
        raise KernelError(
            f"expected a unique branch bracket, found {candidates} among roots {roots}")
    u_min, u_max = candidates[0]
    left = roots[roots <= u_min + 1e-13]
    right = roots[roots >= u_max - 1e-13]
    lead_sq = desc[0] * (-1.0) ** len(right)
    if lead_sq <= 0:
        raise KernelError("inconsistent sign in branch factorization")
    return BranchPoints(
        u_min=float(u_min),
        u_max=float(u_max),
        all_quartic_roots=tuple(float(r) for r in roots),
        sqrt_lead=math.sqrt(lead_sq),
        left=tuple(float(r) for r in left),
        right=tuple(float(r) for r in right),
    )


def _sqrt_disc(model: ValidatedModel, axis: int, z):
    """sqrt(D_{3-axis}(z)) on the doubly cut plane, positive on the branch
    interval; `z` may be real in [u_min, u_max] or complex off the cuts."""
    bp = branch_points(model, axis)
    z = np.asarray(z)
    if np.iscomplexobj(z):
        on_cut = (z.imag == 0) & ((z.real < bp.u_min - 1e-12) | (z.real > bp.u_max + 1e-12))
        if np.any(on_cut):
            raise ValueError("argument lies on a branch cut")
        zc = z.astype(complex)
    else:
        if np.any((z < bp.u_min - 1e-12) | (z > bp.u_max + 1e-12)):
            raise ValueError("real argument outside the branch interval")
        zc = np.clip(z, bp.u_min, bp.u_max).astype(float)
    f = np.full_like(zc, bp.sqrt_lead)
    for r in bp.left:
        f = f * np.sqrt(zc - r)
    for r in bp.right:
        f = f * np.sqrt(r - zc)
    return f / zc


def _branch_values(model: ValidatedModel, axis: int, u):
    """Both finite roots of the kernel quadratic in coordinate `axis` at the
    other coordinate's value u, on the analytic branch (lower, upper).

    The abscissa u and the branch interval live on coordinate 3-axis."""
    s = section_coefficients(model, axis, u)
    sq = _sqrt_disc(model, 3 - axis, u)
    a = 1.0 - s.p_star0
    p1 = s.p_star1
    pm1 = s.p_star_minus1
    plus = a + sq
    minus = a - sq
    use_plus = np.abs(plus) >= np.abs(minus)
    safe_p1 = np.where(p1 == 0, 1.0, 2.0 * p1)
    lower = np.where(use_plus, 2.0 * pm1 / np.where(plus == 0, 1.0, plus), minus / safe_p1)
    upper = np.where(use_plus, plus / safe_p1, 2.0 * pm1 / np.where(minus == 0, 1.0, minus))
    if lower.ndim == 0:
        return lower[()], upper[()]
    return lower, upper


def zeta_lower(model: ValidatedModel, axis: int, u):
    """Lower branch of the kernel curve in coordinate `axis` at abscissa u
    (the root continuous with the smaller real root on the branch interval)."""
    return _branch_values(model, axis, u)[0]


def zeta_upper(model: ValidatedModel, axis: int, u):
    """Upper (finite) branch of the kernel curve in coordinate `axis` at u."""
    return _branch_values(model, axis, u)[1]
