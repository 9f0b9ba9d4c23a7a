"""Shared fixtures: named example models and a seeded random corpus.

The random corpus is filtered for numate comfort: stable, all non-arithmetic
flags true, and the competing singularities well separated so truncated-grid
tail fits converge inside the default window.  Near-tie behavior is covered
by the purpose-built named models instead.
"""

import math

import numpy as np
import pytest

import qbd_tails as qt
from qbd_tails import geometry, kernel
from qbd_tails.geometry import _axis_geometry
from qbd_tails.kernel import _poly_u2D
from qbd_tails.model import TransitionKernel, validate

U_SET = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]


def extreme_r(model, axis: int) -> tuple[float, float]:
    """The extreme point where the face curve and the kernel curve meet with
    the largest `axis` coordinate (both generating functions equal one)."""
    pt = _axis_geometry(model, axis).u_r
    if pt is None:
        raise qt.GeometryError(
            f"no boundary crossing with coordinate {axis} above 1 was found")
    return pt


def clear_analysis_caches() -> None:
    """Empty the kernel and geometry caches (and their counts), so that the
    next report solves every polynomial afresh."""
    kernel.branch_points.cache_clear()
    geometry.compute_geometry.cache_clear()


def as_dict(k) -> dict[tuple[int, int], float]:
    """The masses of a face kernel keyed by increment (di, dj)."""
    return {(di, dj): p for di, dj, p in k.entries}


def discriminant(model, axis: int, u):
    """D_axis(u) = (1 - p_{*0}(u))^2 - 4 p_{*1}(u) p_{*-1}(u), from the
    section coefficients at u."""
    s = qt.section_coefficients(model, axis, u)
    return (1.0 - s.p_star0) ** 2 - 4.0 * s.p_star1 * s.p_star_minus1


def is_even_discriminant(model, axis: int = 2) -> bool:
    """True iff u^2 D_axis(u) is an even polynomial (odd coefficients vanish)."""
    c = _poly_u2D(model, axis)
    return bool(abs(c[1]) < 1e-14 and abs(c[3]) < 1e-14)


def jackson_boundary_condition(lam, mu1, mu2, p) -> bool:
    """For q = 0: True when the axis-1 boundary decay stays exactly
    geometric (the crossing is the singularity driver), i.e. mu2 >= mu1 + lam*p;
    False flags the n^{-3/2} branch-point class."""
    return float(mu2) >= float(mu1) + float(lam) * float(p)


# a model whose face-2 curve has a positive ordinate only for u2 in
# (0.914, 1.379), a short arc inside the axis-2 branch interval [0.722, 789.0]
NARROW_ARC_DOC = {
    "interior": [[-1, -1, 0.4124815490075364], [-1, 0, 0.15492603698102322],
                 [-1, 1, 0.009233409151446855], [0, -1, 0.16973674572511416],
                 [0, 0, 0.15535754897823537], [1, -1, 0.07440153939170652],
                 [1, 0, 0.02386317076493736]],
    "boundary1": [[-1, 1, 0.8320716047234478], [1, 0, 0.16415055671799655],
                  [1, 1, 0.003777838558555614]],
    "boundary2": [[0, -1, 0.3814752658502777], [0, 0, 0.3069368279168571],
                  [0, 1, 0.3022267096876198], [1, 0, 0.009361196545245415]],
    "origin": [[0, 0, 0.0005500346482466145], [0, 1, 0.10932186824531835],
               [1, 0, 0.890128097106435]],
}


# a model whose face-1 curve is the vertical line u1 = 1.72383 (no upward
# mass on face 1), beyond the axis-1 branch interval [0.2018, 1.0270]
VERTICAL_FACE_DOC = {
    "interior": [[-1, -1, 0.029817158322986065], [-1, 0, 0.08300860651574102],
                 [0, -1, 0.2208141645118969], [0, 0, 0.05376524245553163],
                 [0, 1, 0.12185629240096307], [1, -1, 0.2481749428365594],
                 [1, 1, 0.24256359295632185]],
    "boundary1": [[-1, 0, 0.5379010270492415], [0, 0, 0.15006098515197128],
                  [1, 0, 0.3120379877987872]],
    "boundary2": [[0, -1, 0.16995226782484263], [0, 0, 0.05787263356269454],
                  [0, 1, 0.005505775004988805], [1, -1, 0.016829618816307845],
                  [1, 0, 0.1316956482680457], [1, 1, 0.6181440565231204]],
    "origin": [[0, 1, 0.9801440979861477], [1, 1, 0.01985590201385233]],
}


# a model whose diagonal point (sigma_d, sigma_d) = 1.13559 lies on the
# kernel curve below the axis-1 branch point (1.28028, 1.67333), off the
# outer arc: the diagonal decays at tau1 = 1.15091, not at sigma_d
OFF_ARC_DIAGONAL_DOC = {
    "interior": [[-1, 0, 0.11080756240013491], [-1, 1, 0.061273731150565364],
                 [0, -1, 0.4045072832249349], [0, 0, 0.05531536825183733],
                 [1, 0, 0.2926393560907885], [1, 1, 0.07545669888173888]],
    "boundary1": [[-1, 0, 0.4471984618022148], [-1, 1, 0.13966446747524253],
                  [0, 0, 0.046064267192730574], [0, 1, 0.36707280352981214]],
    "boundary2": [[0, 0, 0.4488358330448704], [0, 1, 0.29435085424986296],
                  [1, 0, 0.16864127242196553], [1, 1, 0.08817204028330111]],
    "origin": [[0, 0, 0.7064481380304454], [0, 1, 0.02579934072616656],
               [1, 0, 0.11073337636652485], [1, 1, 0.15701914487686325]],
}


def product_model():
    return qt.independent_mm1(0.1, 0.3, 0.15, 0.45)


def jackson_paper_model():
    return qt.jackson_model(1, 5, 4, 0.25, 0.4)


def jackson_q0_geometric_model():
    return qt.jackson_model(1, 2, 5, 0.25, 0.0)


def jackson_q0_branch_model():
    return qt.jackson_model(1, 5, 4, 0.25, 0.0)


def x_shaped_model():
    """Parity-preserving interior with an axis-1 face of the same shape;
    the origin carries a (1,0) jump so the reflected chain stays irreducible."""
    return validate({
        "interior": TransitionKernel.from_probs("interior", {
            (1, 1): 0.2, (-1, -1): 0.3, (1, -1): 0.2, (-1, 1): 0.2, (0, 0): 0.1}),
        "boundary1": TransitionKernel.from_probs("boundary1", {
            (1, 1): 0.2, (-1, 1): 0.2, (0, 0): 0.6}),
        "boundary2": TransitionKernel.from_probs("boundary2", {
            (1, 1): 0.1, (1, -1): 0.3, (0, -1): 0.3, (0, 0): 0.3}),
        "origin": TransitionKernel.from_probs("origin", {
            (1, 1): 0.4, (1, 0): 0.2, (0, 0): 0.4}),
    })


def tangent_model():
    """Product interior with an axis-1 face whose curve passes exactly
    through the rightmost point of the kernel curve (and has upward mass,
    so the square-root merger applies)."""
    mm1 = product_model()
    ustar, vstar = qt.extreme_max(mm1, 1)
    a1, c1 = 0.05, 0.1
    b1 = (a1 * (ustar - 1.0) + c1 * (vstar - 1.0)) / (1.0 - 1.0 / ustar)
    return validate({
        "interior": mm1.interior,
        "boundary1": TransitionKernel.from_probs("boundary1", {
            (1, 0): a1, (-1, 0): b1, (0, 1): c1, (0, 0): 1.0 - a1 - b1 - c1}),
        "boundary2": mm1.boundary2,
        "origin": mm1.origin,
    })


def degenerate_tangent_model():
    """Same tangency but with no upward mass on the face: the merger
    degenerates to a plain simple pole."""
    mm1 = product_model()
    umax = qt.branch_points(mm1, 1).u_max
    a = 0.1
    return validate({
        "interior": mm1.interior,
        "boundary1": TransitionKernel.from_probs("boundary1", {
            (1, 0): a, (-1, 0): a * umax, (0, 0): 1.0 - a - a * umax}),
        "boundary2": mm1.boundary2,
        "origin": mm1.origin,
    })


def near_unit_vertical_face_model(q0: float):
    """Product interior with a vertical face-1 curve at u1 = q0 / 0.3, the
    root next to the face's other abscissa u1 = 1."""
    mm1 = product_model()
    return validate({
        "interior": mm1.interior,
        "boundary1": TransitionKernel.from_probs("boundary1", {
            (1, 0): 0.3, (-1, 0): q0, (0, 0): 1.0 - q0 - 0.3}),
        "boundary2": mm1.boundary2,
        "origin": mm1.origin,
    })


def double_pole_model():
    """Category-II model whose decay corner coincides with the axis-1
    crossing: the boundary sequence picks up a double pole (linear factor)."""
    mm1 = product_model()
    b1k = {(1, 0): 0.15, (-1, 0): 0.63801, (0, 1): 0.05, (0, 0): 0.16199}
    half = validate({
        "interior": mm1.interior,
        "boundary1": TransitionKernel.from_probs("boundary1", b1k),
        "boundary2": mm1.boundary2,
        "origin": mm1.origin,
    })
    u_r = extreme_r(half, 1)
    v2 = float(np.real(qt.zeta_lower(half, 2, u_r[0])))
    x2 = float(np.real(qt.zeta_lower(half, 1, v2)))
    alpha, gam = 0.2, 0.1
    beta = (alpha * (v2 - 1.0) + gam * (x2 - 1.0)) / (1.0 - 1.0 / v2)
    rho = 1.0 - alpha - beta - gam
    return validate({
        "interior": mm1.interior,
        "boundary1": TransitionKernel.from_probs("boundary1", b1k),
        "boundary2": TransitionKernel.from_probs("boundary2", {
            (0, 1): alpha, (0, -1): beta, (1, 0): gam, (0, 0): rho}),
        "origin": mm1.origin,
    })


def jackson_u1r_closed_form(lam, mu1, p, q) -> tuple[float, float]:
    """Closed form of the axis-1 extreme crossing for the network:
    u1 = (-lam + sqrt(lam^2 + 4 lam q mu1 (1 - p q))) / (2 lam q), and
    u2 = q u1 + 1 - q.  Requires q > 0; at q = 0 the point is (mu1/lam, 1)."""
    lam, mu1, p, q = float(lam), float(mu1), float(p), float(q)
    if q <= 0.0:
        raise ValueError("closed form needs q > 0; use (mu1/lam, 1) at q = 0")
    u1 = (-lam + math.sqrt(lam * lam + 4.0 * lam * q * mu1 * (1.0 - p * q))) / (2.0 * lam * q)
    return (u1, q * u1 + 1.0 - q)


def zeta_upper_second_derivative(model, axis: int, u: float, h: float = 1e-5) -> float:
    """Central-difference second derivative of the upper branch."""
    f = lambda x: float(np.real(qt.zeta_upper(model, axis, x)))
    return (f(u + h) - 2.0 * f(u) + f(u - h)) / (h * h)


def _random_kernel(rng, face, supports):
    support = [s for s in supports if rng.random() < 0.75]
    if len(support) < 3:
        return None
    w = rng.dirichlet(np.ones(len(support)))
    if w.min() < 0.02:
        return None
    try:
        return TransitionKernel.from_probs(face, dict(zip(support, w)))
    except qt.ModelFileError:
        return None


def _comfortable(model) -> bool:
    """Reject models whose competing singularities are nearly tied, so the
    default fit window sees the asymptotic regime."""
    from qbd_tails.geometry import compute_geometry
    try:
        geo = compute_geometry(model)
    except Exception:
        return False
    if not (1.05 < geo.tau[0] < 12 and 1.05 < geo.tau[1] < 12):
        return False
    for ax in (geo.axis1, geo.axis2):
        g = ax.gamma_k_at_max
        if not (g < 0.85 or g > 1.15):
            return False
        if g > 1.15 and ax.u_max / ax.u_gamma[0] - 1.0 < 0.08:
            return False
    for work in (model, qt.swap_coordinates(model)):
        geo_w = compute_geometry(work)
        u_g1 = geo_w.axis1.u_gamma[0]
        if geo_w.category == "II":
            # a pole just inside the decay corner mimics a double pole on
            # any finite window; keep the two well apart
            gap = u_g1 / geo_w.tau[0] - 1.0
            if 1e-9 < gap < 0.08:
                return False
        zl = float(np.real(qt.zeta_lower(work, 2, u_g1)))
        zu = float(np.real(qt.zeta_upper(work, 2, u_g1)))
        if abs(zu - 1.0) < 0.1 or abs(zl - 1.0) < 0.1:
            return False
        if zu < 0.9:
            try:
                sp = qt.sigma_plus(work, 1)
            except ValueError:
                return False
            if abs(sp / geo_w.tau[0] - 1.0) < 0.08:
                return False
    try:
        sd = qt.sigma_diag(model)
    except ValueError:
        return False
    if abs(sd / min(geo.tau) - 1.0) < 0.08:
        return False
    return True


def _truncation_stable(model) -> bool:
    """Empirical screen for the censoring bias: rates fitted on a grid and
    on the doubled grid must agree, direction by direction.  Models with a
    slow secondary decay direction leak wall bias deep into the fit window
    and are rejected."""
    from qbd_tails.asymptotics import DIRECTIONS
    from qbd_tails.oracle import extract, fit_tail
    d1 = qt.solve_truncated(model, 72)
    d2 = qt.solve_truncated(model, 144)
    for direction in DIRECTIONS:
        f1 = fit_tail(extract(d1, direction))
        f2 = fit_tail(extract(d2, direction))
        if abs(f2.rate_hat / f1.rate_hat - 1.0) > 1e-3:
            return False
        if abs(f2.kappa_hat - f1.kappa_hat) > 0.1:
            return False
    return True


def _random_model(rng):
    """One random draw of the four faces: the validated model, or None when
    a face or the model is rejected."""
    interior = _random_kernel(rng, "interior", [s for s in U_SET if s != (0, 0)])
    b1 = _random_kernel(rng, "boundary1", [s for s in U_SET if s[1] >= 0])
    b2 = _random_kernel(rng, "boundary2", [s for s in U_SET if s[0] >= 0])
    org = _random_kernel(rng, "origin", [s for s in U_SET if s[0] >= 0 and s[1] >= 0])
    if None in (interior, b1, b2, org):
        return None
    try:
        return validate({"interior": interior, "boundary1": b1,
                         "boundary2": b2, "origin": org})
    except qt.ValidationError:
        return None


def random_stable_sample(count, seed):
    """The first `count` stable random draws, with none of the corpus
    screens: near ties, arithmetic faces and slow fits all stay in."""
    rng = np.random.default_rng(seed)
    sample = []
    while len(sample) < count:
        model = _random_model(rng)
        if model is not None and qt.check_stability(qt.drifts(model)).stable:
            sample.append(model)
    return sample


def random_stable_corpus(count=20, seed=20250810):
    rng = np.random.default_rng(seed)
    corpus = []
    attempts = 0
    while len(corpus) < count and attempts < 40000:
        attempts += 1
        model = _random_model(rng)
        if model is None:
            continue
        prof = qt.arithmetic_profile(model)
        if not (prof.va and prof.vb and prof.vc):
            continue
        if not qt.check_stability(qt.drifts(model)).stable:
            continue
        if not _comfortable(model):
            continue
        if not _truncation_stable(model):
            continue
        corpus.append(model)
    if len(corpus) < count:
        raise RuntimeError(f"only {len(corpus)} corpus models found")
    return corpus


@pytest.fixture(scope="session")
def product():
    return product_model()


@pytest.fixture(scope="session")
def jackson_paper():
    return jackson_paper_model()


@pytest.fixture(scope="session")
def jackson_q0_geometric():
    return jackson_q0_geometric_model()


@pytest.fixture(scope="session")
def jackson_q0_branch():
    return jackson_q0_branch_model()


@pytest.fixture(scope="session")
def x_shaped():
    return x_shaped_model()


@pytest.fixture(scope="session")
def tangent():
    return tangent_model()


@pytest.fixture(scope="session")
def degenerate_tangent():
    return degenerate_tangent_model()


@pytest.fixture(scope="session")
def double_pole():
    return double_pole_model()


NAMED = ("product", "jackson_paper", "jackson_q0_geometric", "jackson_q0_branch",
         "x_shaped", "tangent", "degenerate_tangent", "double_pole")


@pytest.fixture(scope="session")
def named(request):
    return [request.getfixturevalue(name) for name in NAMED]


@pytest.fixture(scope="session")
def corpus20():
    return random_stable_corpus(20)


@pytest.fixture(scope="session")
def product_dist300(product):
    return qt.solve_truncated(product, 300)
