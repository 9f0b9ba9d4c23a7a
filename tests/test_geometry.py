"""Extreme points, categories, the decay vector, and the convergence domain."""

import json
import math

import numpy as np
import pytest

import qbd_tails as qt
from qbd_tails.geometry import (
    EQ_TOL,
    GeometryError,
    _axis_geometry,
    classify,
    compute_geometry,
    directional_decay,
    domain_contains,
    extreme_max,
    sample_boundary,
    tie_sign,
)
from qbd_tails.kernel import gamma, zeta_upper
from qbd_tails.model import UnstableModelError

from conftest import (
    NARROW_ARC_DOC,
    VERTICAL_FACE_DOC,
    extreme_r,
    jackson_u1r_closed_form,
    near_unit_vertical_face_model,
    random_stable_sample,
)

def _envelope_by_search(model, theta1):
    """Reference for the domain's upper envelope: sup of log zeta_upper_2
    over abscissas strictly beyond theta1, exact by concavity of the
    envelope (200-point scan, then golden-section refinement)."""
    bp = qt.branch_points(model, 1)
    lo = max(theta1, math.log(bp.u_min) + 1e-12)
    hi = math.log(bp.u_max)
    if lo >= hi:
        return -math.inf

    def env(x):
        return math.log(float(np.real(zeta_upper(model, 2, math.exp(x)))))

    xs = np.linspace(lo, hi, 200)
    vals = [env(x) for x in xs]
    k = int(np.argmax(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, len(xs) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = env(c), env(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = env(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = env(d)
    return max(vals[k], fc, fd)


def test_extreme_r_product(product):
    assert extreme_r(product, 1) == pytest.approx((3.0, 1.0), abs=1e-9)
    assert extreme_r(product, 2) == pytest.approx((1.0, 3.0), abs=1e-9)


def test_extreme_r_network_closed_form(jackson_paper):
    got = extreme_r(jackson_paper, 1)
    want = jackson_u1r_closed_form(1, 5, 0.25, 0.4)
    assert got == pytest.approx(want, abs=1e-8)


def test_extreme_r_network_q0_special_case(jackson_q0_branch):
    # with no routing back, the crossing sits at (mu1/lam, 1)
    assert extreme_r(jackson_q0_branch, 1) == pytest.approx((5.0, 1.0), abs=1e-8)


def test_extreme_r_satisfies_both_equations(corpus20):
    for m in corpus20:
        for axis in (1, 2):
            pt = extreme_r(m, axis)
            face = "boundary1" if axis == 1 else "boundary2"
            assert abs(gamma(m, "interior", *pt) - 1.0) < 1e-9
            assert abs(gamma(m, face, *pt) - 1.0) < 1e-9
            assert pt[axis - 1] > 1.0


def test_extreme_r_is_outermost_crossing(corpus20):
    # probing the face curve beyond the crossing leaves the kernel region
    for m in corpus20[:8]:
        pt = extreme_r(m, 1)
        geo = compute_geometry(m)
        assert pt[0] <= geo.axis1.u_max * (1 + 1e-12)


def test_extreme_r_at_a_tangency_is_the_branch_point(degenerate_tangent):
    # the vertical face curve touches the kernel curve at its rightmost point;
    # the tangency gives that point itself, not the clipped lower-branch root
    for m, axis in ((degenerate_tangent, 1), (qt.swap_coordinates(degenerate_tangent), 2)):
        ax = _axis_geometry(m, axis)
        assert ax.u_r == ax.u_max_pt


def test_vertical_face_crossing_next_to_one_is_exact():
    # z A(z) - z = (z - 1)(0.3 z - q0) has the roots 1 and q0 / 0.3, a
    # relative 3.3e-8 apart; np.roots loses about 8 digits on such a
    # near-double root
    q0 = 0.3 + 1e-8
    m = near_unit_vertical_face_model(q0)
    assert qt.boundary_class(m, 1).rate == pytest.approx(q0 / 0.3, rel=0, abs=1e-12)


def test_extreme_max_product(product):
    u1 = extreme_max(product, 1)
    assert u1 == pytest.approx((4.066027, math.sqrt(3.0)), abs=1e-6)
    # ordinate is the double root of the vertical section at the abscissa
    s = qt.section_coefficients(product, 2, u1[0])
    assert u1[1] == pytest.approx((1 - s.p_star0) / (2 * s.p_star1), abs=1e-9)
    u2 = extreme_max(product, 2)
    assert u2[1] == pytest.approx(3.5001625355386197, abs=1e-6)


def test_extreme_max_symmetric_model(x_shaped):
    bp = qt.branch_points(x_shaped, 1)
    assert extreme_max(x_shaped, 1)[0] == pytest.approx(
        max(bp.all_quartic_roots), abs=1e-12)


def gamma_point(model, axis):
    """The effective singularity driver: the crossing point when the face
    function exceeds one at the branch point, else the branch point."""
    return _axis_geometry(model, axis).u_gamma


def test_gamma_point_product(product):
    # the face value exceeds one at the rightmost point, so the crossing wins
    geo = compute_geometry(product)
    assert geo.axis1.gamma_k_at_max > 1
    assert gamma_point(product, 1) == pytest.approx((3.0, 1.0), abs=1e-9)


def test_gamma_point_at_branch(jackson_q0_branch):
    geo = compute_geometry(jackson_q0_branch)
    assert geo.axis1.gamma_k_at_max < 1
    assert geo.axis1.u_gamma == geo.axis1.u_max_pt
    assert geo.axis1.u_max == pytest.approx(5.124905513821857, abs=1e-9)


def test_gamma_point_equality_case(tangent):
    geo = compute_geometry(tangent)
    assert geo.axis1.gamma_k_at_max == pytest.approx(1.0, abs=1e-12)
    assert geo.axis1.u_gamma == geo.axis1.u_max_pt
    assert geo.axis1.u_r == pytest.approx(geo.axis1.u_max_pt, abs=1e-9)


def test_classify_product(product):
    assert compute_geometry(product).category == "I"


def test_classify_double_pole_model(double_pole):
    geo = compute_geometry(double_pole)
    assert geo.category == "II"
    swapped = compute_geometry(qt.swap_coordinates(double_pole))
    assert swapped.category == "III"
    assert swapped.tau == pytest.approx(geo.tau[::-1], rel=1e-9)


@pytest.mark.parametrize("x, y, want", [
    (1.0, 1.0, 0),
    (3.25, 3.25, 0),
    (EQ_TOL, 0.0, 0),  # exactly at the bound
    (0.0, -EQ_TOL, 0),
    (math.nextafter(EQ_TOL, 1.0), 0.0, 1),  # one float beyond it
    # fl(1 + 1e-9) = 1 + 4503600 * 2**-52: neither a tie under the former
    # abs(x - 1) <= EQ_TOL nor above under x > 1 + EQ_TOL; now it is above
    (1.0 + 1e-9, 1.0, 1),
    (1.0 - 1.01e-9, 1.0, -1),
    (1e6 + 5e-4, 1e6, 0),  # the tolerance scales with max(1, |x|, |y|)
    (1e6 + 2e-3, 1e6, 1),
    (-2.0, 3.0, -1),
])
def test_tie_sign(x, y, want):
    assert tie_sign(x, y) == want
    assert tie_sign(y, x) == -want


def test_classify_rejects_double_tie(product):
    g1 = compute_geometry(product).axis1
    with pytest.raises(GeometryError):
        classify(g1, g1)


def test_tau_product(product):
    assert compute_geometry(product).tau == pytest.approx((3.0, 3.0), abs=1e-9)


def test_tau_category_two_uses_opposite_branch(double_pole):
    geo = compute_geometry(double_pole)
    v = geo.axis2.u_r[1]
    assert geo.tau[1] == v
    assert geo.tau[0] == pytest.approx(
        float(np.real(zeta_upper(double_pole, 1, v))), rel=1e-12)
    # the corner coincides with the axis-1 crossing by construction
    assert geo.tau[0] == pytest.approx(geo.axis1.u_gamma[0], rel=1e-9)


def test_domain_contains_product(product):
    assert domain_contains(product, (0.0, 0.0))
    assert not domain_contains(product, (math.log(3.0) + 0.01, 0.0))
    assert not domain_contains(product, (math.log(4.1), 0.0))
    assert domain_contains(product, (math.log(3.0) - 0.01, math.log(3.0) - 0.01))


def test_domain_monotone_along_rays(corpus20):
    for m in corpus20[:6]:
        geo = compute_geometry(m)
        for c in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            alpha = math.log(directional_decay(m, c))
            for x in (0.5 * alpha, 0.9 * alpha):
                assert domain_contains(m, (x * c[0], x * c[1]))
            x = 1.05 * alpha
            assert not domain_contains(m, (x * c[0], x * c[1]))


def test_directional_decay_product(product):
    assert directional_decay(product, (1, 0)) == pytest.approx(3.0, abs=1e-6)
    assert directional_decay(product, (0, 1)) == pytest.approx(3.0, abs=1e-6)
    assert directional_decay(product, (1, 1)) == pytest.approx(3.0, abs=1e-6)


def test_directional_decay_matches_marginal_rate(named, corpus20):
    for m in named + corpus20:
        cls = qt.classes(m)
        for c, name in (((1, 0), "marginal1"), ((0, 1), "marginal2"),
                        ((1, 1), "diagonal")):
            assert directional_decay(m, c) == pytest.approx(cls[name].rate, rel=1e-12)


def test_domain_contains_straddles_the_searched_envelope(named, corpus20):
    # a theta1 grid from below log u_min1, across the peak at the axis-2
    # branch point, to beyond log u_max1, where the search gives -inf
    for m in named + corpus20:
        geo = compute_geometry(m)
        bp = qt.branch_points(m, 1)
        u_peak = geo.axis2.u_max_pt[0]
        grid = np.linspace(math.log(bp.u_min) - 0.5, math.log(bp.u_max) + 0.5, 11)
        for t1 in [*grid.tolist(), math.log(u_peak), math.log(bp.u_max) - 1e-9]:
            search = _envelope_by_search(m, t1)
            if search == -math.inf:
                assert not domain_contains(m, (t1, 0.0))
                assert not domain_contains(m, (t1, -50.0))
                continue
            env = min(math.log(geo.tau[1]), search)
            delta = 1e-9 * max(1.0, abs(env))
            if t1 < math.log(geo.tau[0]):
                assert domain_contains(m, (t1, env - delta))
            assert not domain_contains(m, (t1, env + delta))


def _upper_envelope_max(model, theta1):
    """sup of log zeta_upper_2 over abscissas strictly beyond theta1, read
    off the upper branch: the peak height left of the axis-2 branch point,
    the branch's own value right of it, and nothing beyond u_max1."""
    geo = compute_geometry(model)
    u_peak, v_peak = geo.axis2.u_max_pt
    if theta1 >= math.log(geo.axis1.u_max):
        return -math.inf
    if theta1 < math.log(u_peak):
        return math.log(v_peak)
    return math.log(float(np.real(zeta_upper(model, 2, math.exp(theta1)))))


def _contains_by_branch(model, theta):
    """Reference membership test: below log tau and below the upper
    envelope evaluated on the upper branch."""
    geo = compute_geometry(model)
    t1, t2 = theta
    if not (t1 < math.log(geo.tau[0]) and t2 < math.log(geo.tau[1])):
        return False
    return _upper_envelope_max(model, t1) > t2


def test_domain_contains_matches_the_branch_reference(named, corpus20):
    # random points of a box around the domain, plus points 1e-10 and 1e-6
    # (relative) off the envelope; only points within 1e-12 of it may differ
    rng = np.random.default_rng(11)
    for m in named + corpus20 + random_stable_sample(60, seed=3):
        geo = compute_geometry(m)
        lo1, hi1 = math.log(geo.axis1.u_min) - 0.5, math.log(geo.axis1.u_max) + 0.5
        hi2 = math.log(max(geo.tau[1], geo.axis2.u_max)) + 0.5
        for t1 in rng.uniform(lo1, hi1, 24).tolist():
            env = _upper_envelope_max(m, t1)
            t2s = rng.uniform(-hi2, hi2, 6).tolist()
            if env > -math.inf:
                t2s += [env + s * h * max(1.0, abs(env))
                        for s in (-1.0, 1.0) for h in (1e-6, 1e-10)]
            for t2 in t2s:
                if abs(t2 - env) <= 1e-12 * max(1.0, abs(env)):
                    continue
                assert domain_contains(m, (t1, t2)) == _contains_by_branch(m, (t1, t2))


def test_domain_queries_evaluate_no_branch(jackson_paper, x_shaped, monkeypatch):
    # geometry and classes read the branches once per model; the domain
    # queries after them decide membership without evaluating one
    rates = {m: qt.classes(m) for m in (jackson_paper, x_shaped)}

    def no_branch(*args):
        raise AssertionError("a domain query evaluated a kernel branch")

    monkeypatch.setattr(qt.kernel, "_branch_values", no_branch)
    for m, cls in rates.items():
        assert domain_contains(m, (0.0, 0.0))
        for c, name in (((1, 0), "marginal1"), ((0, 1), "marginal2"),
                        ((1, 1), "diagonal")):
            assert directional_decay(m, c) == pytest.approx(cls[name].rate, rel=1e-12)


def test_directional_decay_matches_class_rates_unscreened():
    # stable draws without the corpus screens; this sample holds eight models
    # whose diagonal point (sigma_d, sigma_d) lies off the kernel curve's
    # outer arc, where the diagonal rate is tau and not sigma_d
    for m in random_stable_sample(60, seed=3):
        cls = qt.classes(m)
        for c, name in (((1, 0), "marginal1"), ((0, 1), "marginal2"),
                        ((1, 1), "diagonal")):
            assert directional_decay(m, c) == pytest.approx(cls[name].rate, rel=1e-12)


def _directional_decay_80_steps(model, c):
    """Reference: the bisection of `directional_decay` run for all 80 steps."""
    geo = compute_geometry(model)
    hi = max(math.log(geo.tau[0]), math.log(geo.tau[1]),
             math.log(geo.axis1.u_max)) + 1.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if domain_contains(model, (mid * c[0], mid * c[1])):
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def test_directional_decay_stops_at_its_fixed_point(named, corpus20, monkeypatch):
    calls = []

    def counted(model, theta):
        calls.append(theta)
        return domain_contains(model, theta)

    monkeypatch.setattr(qt.geometry, "domain_contains", counted)
    decays = 0
    for m in named + corpus20:
        for c in ((1, 0), (0, 1), (1, 1)):
            assert repr(directional_decay(m, c)) == repr(_directional_decay_80_steps(m, c))
            decays += 1
    assert len(calls) <= 60 * decays


def test_directional_decay_rejects_other_directions(product):
    with pytest.raises(ValueError):
        directional_decay(product, (2, 1))


def test_sample_boundary_kernel_curve(product):
    sample = sample_boundary(product, "gamma_plus", 100)
    assert len(sample.u) == 100
    for (t1, t2), (u1, u2) in zip(sample.theta, sample.u):
        assert abs(gamma(product, "interior", u1, u2) - 1.0) < 1e-9
        assert (math.exp(t1), math.exp(t2)) == pytest.approx((u1, u2), rel=1e-12)
    us = np.array(sample.u)
    assert np.min(np.abs(us - np.array([3.0, 1.0])).sum(axis=1)) < 0.15
    assert np.min(np.abs(us - np.array([1.0, 3.0])).sum(axis=1)) < 0.15


def test_sample_boundary_face_curves(product):
    for curve, face in (("gamma1", "boundary1"), ("gamma2", "boundary2")):
        sample = sample_boundary(product, curve, 50)
        assert len(sample.u) == 50
        for u1, u2 in sample.u:
            assert abs(gamma(product, face, u1, u2) - 1.0) < 1e-9


def test_sample_boundary_face_curve_on_a_narrow_arc():
    m = qt.load_model(json.dumps(NARROW_ARC_DOC))
    bp = qt.branch_points(m, 2)
    assert (bp.u_min, bp.u_max) == pytest.approx((0.722, 789.0), rel=1e-3)
    sample = sample_boundary(m, "gamma2", 200)
    us = np.array(sample.u)
    assert len(set(sample.u)) == 200
    assert (us > 0).all()
    assert 0.914 < us[:, 1].min() and us[:, 1].max() < 1.38
    assert np.abs(gamma(m, "boundary2", us[:, 0], us[:, 1]) - 1.0).max() < 1e-8
    assert np.exp(np.array(sample.theta)) == pytest.approx(us, rel=1e-12)


def test_sample_boundary_vertical_face_curve_beyond_the_branch_interval():
    # the line u1 = z stands right of u_max1, where the kernel curve has no
    # points; it is sampled over the curve's range of u2 instead
    m = qt.load_model(json.dumps(VERTICAL_FACE_DOC))
    bp1, bp2 = qt.branch_points(m, 1), qt.branch_points(m, 2)
    sample = sample_boundary(m, "gamma1", 200)
    us = np.array(sample.u)
    assert len(set(sample.u)) == 200
    assert us[0, 0] == pytest.approx(1.72383, abs=1e-5) and us[0, 0] > bp1.u_max
    assert (us[:, 0] == us[0, 0]).all()
    assert (us[0, 1], us[-1, 1]) == (bp2.u_min, bp2.u_max)
    assert np.abs(gamma(m, "boundary1", us[:, 0], us[:, 1]) - 1.0).max() < 1e-12


def test_sample_boundary_endpoints_only(product):
    sample = sample_boundary(product, "gamma_plus", 2)
    bp = qt.branch_points(product, 1)
    assert sample.u[0][0] == pytest.approx(bp.u_min)
    assert sample.u[1][0] == pytest.approx(bp.u_max)


def test_sample_boundary_domain_curve(product):
    sample = sample_boundary(product, "domain", 64)
    geo = compute_geometry(product)
    for t1, t2 in sample.theta:
        want = min(math.log(geo.tau[1]), _envelope_by_search(product, t1))
        assert t2 == pytest.approx(want, abs=1e-9)
    assert sample.theta[-1][0] <= math.log(geo.tau[0])


def test_sample_boundary_unstable_rejected():
    m = qt.jackson_model(4, 5, 4, 0.25, 0.4)
    with pytest.raises(UnstableModelError):
        sample_boundary(m, "gamma_plus", 10)
    with pytest.raises(UnstableModelError):
        compute_geometry(m)


def test_category_comparison_coordinate_free(corpus20):
    # comparing the drivers in exponent coordinates gives the same category
    for m in corpus20:
        geo = compute_geometry(m)
        g1, g2 = geo.axis1, geo.axis2
        d1 = math.log(g1.u_gamma[0]) - math.log(g2.u_gamma[0])
        d2 = math.log(g2.u_gamma[1]) - math.log(g1.u_gamma[1])
        cat = ("I" if d1 > 0 and d2 > 0 else
               "II" if d1 > 0 else "III")
        assert cat == geo.category


def test_tau_dominates_unit(corpus20):
    for m in corpus20:
        tau = compute_geometry(m).tau
        assert tau[0] > 1.0 + 1e-9 and tau[1] > 1.0 + 1e-9
