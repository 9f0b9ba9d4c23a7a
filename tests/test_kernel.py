"""Kernel sections, discriminant, branch points/functions, and the analytic
inequalities the tail analysis rests on."""

import math

import numpy as np
import pytest

import qbd_tails as qt
from qbd_tails import kernel
from qbd_tails.kernel import (
    _NEWTON_STEPS,
    _poly_u2D,
    branch_points,
    gamma,
    section_coefficients,
    zeta_lower,
    zeta_upper,
)

from conftest import (
    as_dict,
    clear_analysis_caches,
    discriminant,
    is_even_discriminant,
    jackson_stable,
    zeta_upper_second_derivative,
)


def _sample_complex(rng, lo, hi, n):
    r = rng.uniform(lo + 1e-9, hi, n)
    phi = rng.uniform(0.05, 2 * math.pi - 0.05, n)
    return r * np.exp(1j * phi)


def test_gamma_total_mass(product, x_shaped):
    for m in (product, x_shaped):
        for face in qt.FACES:
            assert gamma(m, face, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_gamma_product_point(product):
    assert gamma(product, "interior", 3.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_gamma_zero_argument_rejected(product):
    with pytest.raises(ValueError):
        gamma(product, "interior", 0.0, 1.0)


def test_gamma_network_matches_formula(jackson_paper):
    lam, mu1, mu2, p, q = 0.1, 0.5, 0.4, 0.25, 0.4
    rng = np.random.default_rng(3)
    for _ in range(100):
        u1 = rng.uniform(0.2, 3.0)
        u2 = rng.uniform(0.2, 3.0)
        expected = (lam * u1 * u2 + mu1 * p * u2 / u1 + mu2 * q * u1 / u2
                    + mu1 * (1 - p) / u1 + mu2 * (1 - q) / u2)
        assert gamma(jackson_paper, "interior", u1, u2) == pytest.approx(
            expected, rel=1e-12)


def test_section_coefficients_product(product):
    s = section_coefficients(product, 2, 3.0)
    assert (s.p_star1, s.p_star0, s.p_star_minus1) == pytest.approx(
        (0.15, 0.4, 0.45), abs=1e-15)
    s1 = section_coefficients(product, 2, 1.0)
    assert s1.p_star1 + s1.p_star0 + s1.p_star_minus1 == pytest.approx(1.0)


def test_section_identity(product, corpus20):
    rng = np.random.default_rng(11)
    for m in [product] + corpus20[:5]:
        for _ in range(50):
            u1 = rng.uniform(0.3, 2.5)
            u2 = rng.uniform(0.3, 2.5)
            s = section_coefficients(m, 2, u1)
            lhs = gamma(m, "interior", u1, u2) * u2
            rhs = s.p_star1 * u2 ** 2 + s.p_star0 * u2 + s.p_star_minus1
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_section_constant_for_diagonal_interior(x_shaped):
    s1 = section_coefficients(x_shaped, 2, 0.7)
    s2 = section_coefficients(x_shaped, 2, 1.9)
    assert s1.p_star0 == s2.p_star0 == pytest.approx(0.1)


def test_discriminant_product(product):
    assert discriminant(product, 2, 3.0) == pytest.approx(0.09, abs=1e-14)
    umax = branch_points(product, 1).u_max
    assert abs(discriminant(product, 2, umax)) < 1e-10


def test_discriminant_even_for_diagonal_interior(x_shaped):
    for u in (0.6, 1.1, 1.9):
        assert discriminant(x_shaped, 2, u) == pytest.approx(
            discriminant(x_shaped, 2, -u), abs=1e-14)


def test_branch_points_product(product):
    bp1 = branch_points(product, 1)
    # quadratic closed form: the abscissa extremes solve
    # p1 u^2 - (1 - sqrt(4 p1 pm1)) u + pm1 = 0 for the vertical section
    b = 1.0 - math.sqrt(4 * 0.15 * 0.45)
    lo = (b - math.sqrt(b * b - 4 * 0.1 * 0.3)) / 0.2
    hi = (b + math.sqrt(b * b - 4 * 0.1 * 0.3)) / 0.2
    assert bp1.u_min == pytest.approx(lo, abs=1e-9)
    assert bp1.u_max == pytest.approx(hi, abs=1e-9)
    assert bp1.u_min == pytest.approx(0.737821, abs=1e-6)
    assert bp1.u_max == pytest.approx(4.066027, abs=1e-6)
    b2 = 1.0 - math.sqrt(4 * 0.1 * 0.3)
    hi2 = (b2 + math.sqrt(b2 * b2 - 4 * 0.15 * 0.45)) / 0.3
    assert branch_points(product, 2).u_max == pytest.approx(hi2, abs=1e-9)
    assert not is_even_discriminant(product, 2)


def test_branch_points_symmetric_for_diagonal_interior(x_shaped):
    bp = branch_points(x_shaped, 1)
    roots = np.array(bp.left + bp.right)
    assert np.allclose(np.sort(roots), -np.sort(-roots)[::-1] * 1.0)
    assert np.allclose(roots, -roots[::-1])
    assert is_even_discriminant(x_shaped, 2)
    assert bp.u_max == pytest.approx(max(roots))


def test_branch_points_read_the_quartic_alone(named, monkeypatch):
    # the bracket and the cut factors come from u^2 D and u (1 - p_{*0})
    def fail(*args):
        raise AssertionError("section coefficients evaluated")

    monkeypatch.setattr(kernel, "section_coefficients", fail)
    clear_analysis_caches()
    for m in named:
        for axis in (1, 2):
            bp = branch_points(m, axis)
            assert bp.left[-1] == bp.u_min and bp.right[0] == bp.u_max
            # every real root of the quartic is a factor of its square root, once
            roots, real = kernel.real_roots(_poly_u2D(m, 3 - axis))
            assert real.all()
            assert bp.left + bp.right == tuple(np.sort(roots.real).tolist())


def test_branch_interval_contains_unit(corpus20):
    for m in corpus20:
        for axis in (1, 2):
            bp = branch_points(m, axis)
            assert bp.u_min <= 1.0 <= bp.u_max
            mid = 0.5 * (bp.u_min + bp.u_max)
            assert discriminant(m, 3 - axis, mid) > 0


def test_zeta_product_values(product):
    assert zeta_lower(product, 2, 3.0) == pytest.approx(1.0, abs=1e-12)
    assert zeta_upper(product, 2, 3.0) == pytest.approx(3.0, abs=1e-12)
    bp = branch_points(product, 1)
    lo = zeta_lower(product, 2, bp.u_max)
    hi = zeta_upper(product, 2, bp.u_max)
    assert lo == pytest.approx(hi, abs=1e-8)
    s = section_coefficients(product, 2, bp.u_max)
    assert lo == pytest.approx((1 - s.p_star0) / (2 * s.p_star1), abs=1e-8)


def test_zeta_outside_interval_rejected(product):
    with pytest.raises(ValueError):
        zeta_lower(product, 2, 5.0)
    with pytest.raises(ValueError):
        zeta_lower(product, 2, np.complex128(-2.0 + 0.0j))


def test_kernel_identity_along_branches(product, corpus20):
    rng = np.random.default_rng(5)
    for m in [product] + corpus20:
        bp = branch_points(m, 1)
        u = rng.uniform(bp.u_min + 1e-9, bp.u_max, 1000)
        s = section_coefficients(m, 2, u)
        for z in (zeta_lower(m, 2, u), zeta_upper(m, 2, u)):
            resid = s.p_star1 * z * z + s.p_star0 * z + s.p_star_minus1 - z
            assert np.max(np.abs(resid)) < 1e-10


def test_branch_modulus_inequality(product, corpus20):
    # |zeta_lower(z)| <= zeta_lower(|z|) on the cut annulus, strict off the
    # positive real axis below the branch point
    rng = np.random.default_rng(17)
    for m in [product] + corpus20:
        bp = branch_points(m, 1)
        z = _sample_complex(rng, bp.u_min, bp.u_max, 1000)
        lhs = np.abs(zeta_lower(m, 2, z))
        rhs = np.real(zeta_lower(m, 2, np.abs(z)))
        assert np.all(lhs <= rhs + 1e-10)
        interior = np.abs(z) < bp.u_max - 1e-6
        assert np.all(lhs[interior] < rhs[interior])


def test_branch_continuity_across_negative_axis(product, x_shaped):
    # the glued square root keeps the lower branch continuous on circles
    for m in (product, x_shaped):
        bp = branch_points(m, 1)
        r = 0.5 * (bp.u_min + bp.u_max)
        theta = np.linspace(0.01, 2 * math.pi - 0.01, 720)
        vals = zeta_lower(m, 2, r * np.exp(1j * theta))
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 0.05


def test_root_pattern_matches_parity(corpus20, x_shaped):
    for m in corpus20:
        bp = branch_points(m, 1)
        assert qt.arithmetic_profile(m).va
        assert not any(abs(r + bp.u_max) < 1e-8 for r in bp.left + bp.right)
    bp = branch_points(x_shaped, 1)
    assert not qt.arithmetic_profile(x_shaped).va
    assert any(abs(r + bp.u_max) < 1e-8 for r in bp.left + bp.right)


def test_upper_branch_log_concavity(product, corpus20):
    # in exponent coordinates (where the kernel region is convex) the upper
    # branch is concave; the plain-coordinate composition need not be
    rng = np.random.default_rng(23)
    for m in [product] + corpus20[:6]:
        bp2 = branch_points(m, 2)
        lo, hi = math.log(bp2.u_min) + 1e-12, math.log(bp2.u_max)
        t = rng.uniform(lo, hi, (1000, 2))
        a, b = t.min(axis=1), t.max(axis=1)
        fa = np.log(np.real(zeta_upper(m, 1, np.exp(a))))
        fb = np.log(np.real(zeta_upper(m, 1, np.exp(b))))
        fm = np.log(np.real(zeta_upper(m, 1, np.exp(0.5 * (a + b)))))
        assert np.all(fm >= 0.5 * (fa + fb) - 1e-10)


def test_upper_branch_flat_and_curved_at_rightmost_point(product, corpus20):
    # at the rightmost curve point the upper branch of the first coordinate
    # is stationary with strictly negative curvature
    for m in [product] + corpus20[:6]:
        u_star, v_star = qt.extreme_max(m, 1)
        h = 1e-6
        up = float(np.real(zeta_upper(m, 1, v_star + h)))
        dn = float(np.real(zeta_upper(m, 1, v_star - h)))
        assert abs(up - dn) / (2 * h) < 1e-3
        assert zeta_upper_second_derivative(m, 1, v_star) < 0


def test_even_discriminant_flag(product, x_shaped, corpus20):
    assert not is_even_discriminant(product)
    assert is_even_discriminant(x_shaped)
    for m in corpus20:
        assert is_even_discriminant(m) == (not qt.arithmetic_profile(m).va)


def test_even_flag_needs_all_four_axial_masses_zero():
    from qbd_tails.model import TransitionKernel, validate
    m = validate({
        "interior": TransitionKernel.from_probs("interior", {
            (1, 1): 0.2, (-1, -1): 0.25, (1, -1): 0.2, (-1, 1): 0.2, (0, 1): 0.15}),
        "boundary1": TransitionKernel.from_probs("boundary1", {
            (1, 1): 0.2, (-1, 1): 0.2, (0, 1): 0.1, (0, 0): 0.5}),
        "boundary2": TransitionKernel.from_probs("boundary2", {
            (1, 1): 0.2, (1, -1): 0.2, (0, -1): 0.2, (0, 0): 0.4}),
        "origin": TransitionKernel.from_probs("origin", {
            (1, 1): 0.5, (1, 0): 0.2, (0, 0): 0.3}),
    })
    # only p10 = 0 among the four axial interior masses
    assert not is_even_discriminant(m)
    assert qt.arithmetic_profile(m).va


def test_quartic_odd_coefficients_closed_form(product, x_shaped, corpus20):
    # c1 and c3 of u^2 D2(u) against the direct mass expressions
    for m in [product, x_shaped] + corpus20[:8]:
        k = as_dict(m.interior)
        g = lambda i, j: k.get((i, j), 0.0)
        c = _poly_u2D(m, 2)
        c1 = (-2 * (1 - g(0, 0)) * g(-1, 0)
              - 4 * (g(-1, -1) * g(0, 1) + g(-1, 1) * g(0, -1)))
        c3 = (-2 * (1 - g(0, 0)) * g(1, 0)
              - 4 * (g(1, -1) * g(0, 1) + g(1, 1) * g(0, -1)))
        assert c[1] == pytest.approx(c1, abs=1e-14)
        assert c[3] == pytest.approx(c3, abs=1e-14)
        assert c1 <= 0 and c3 <= 0


def _branch_expansion_ladder(model):
    """Finite-difference ratio (v* - zeta_lower(z)) / sqrt(u* - z) versus the
    curvature closed form sqrt(2/-f'') at the rightmost curve point."""
    bp = branch_points(model, 1)
    v_star = float(np.real(zeta_lower(model, 2, bp.u_max)))
    curv = zeta_upper_second_derivative(model, 1, v_star)
    closed = math.sqrt(2.0) / math.sqrt(-curv)
    ladder = []
    for k in range(4, 9):
        z = bp.u_max - 10.0 ** (-k)
        val = (v_star - float(np.real(zeta_lower(model, 2, z)))) / math.sqrt(10.0 ** (-k))
        ladder.append(val)
    return ladder, closed


def test_branch_expansion_constant(product, jackson_paper):
    for m in (product, jackson_paper):
        ladder, closed = _branch_expansion_ladder(m)
        gaps = [abs(v - closed) for v in ladder]
        assert gaps[-1] < 1e-3 * abs(closed)
        assert gaps[-1] < gaps[0]


def test_face_increment_expansion_constant(product, jackson_paper):
    # (gamma_face(u*) - gamma_face(z, zeta(z))) / sqrt(u* - z) tends to
    # sqrt(2) * B(u*) / sqrt(-curv), B the upward face coefficient
    for m in (product, jackson_paper):
        bp = branch_points(m, 1)
        u_star = bp.u_max
        v_star = float(np.real(zeta_lower(m, 2, u_star)))
        curv = zeta_upper_second_derivative(m, 1, v_star)
        q = as_dict(m.boundary1)
        b_up = sum(q.get((i, 1), 0.0) * u_star ** i for i in (-1, 0, 1))
        closed = math.sqrt(2.0) * b_up / math.sqrt(-curv)
        g_star = float(gamma(m, "boundary1", u_star, v_star))
        ladder = []
        for k in range(4, 9):
            z = u_star - 10.0 ** (-k)
            w = float(np.real(zeta_lower(m, 2, z)))
            ladder.append((g_star - float(gamma(m, "boundary1", z, w)))
                          / math.sqrt(10.0 ** (-k)))
        assert abs(ladder[-1] - closed) < 1e-3 * abs(closed)


def test_face_pole_merger_constant(tangent):
    # at an exact tangency the reciprocal ratio has the closed-form limit
    bp = branch_points(tangent, 1)
    u_star = bp.u_max
    v_star = float(np.real(zeta_lower(tangent, 2, u_star)))
    curv = zeta_upper_second_derivative(tangent, 1, v_star)
    q = as_dict(tangent.boundary1)
    b_up = sum(q.get((i, 1), 0.0) * u_star ** i for i in (-1, 0, 1))
    closed = math.sqrt(-curv) / (math.sqrt(2.0) * b_up)
    ladder = []
    for k in range(4, 9):
        z = u_star - 10.0 ** (-k)
        w = float(np.real(zeta_lower(tangent, 2, z)))
        denom = 1.0 - float(gamma(tangent, "boundary1", z, w))
        ladder.append(math.sqrt(10.0 ** (-k)) / denom)
    assert abs(ladder[-1] - closed) < 1e-3 * abs(closed)


def _fixed_step_iterates(coeffs_desc, roots):
    """Every iterate of the fixed-length Newton loop; _polish_roots must
    return the real roots of the last one bit for bit."""
    deriv = np.polyder(coeffs_desc)
    iterates = [roots]
    for _ in range(_NEWTON_STEPS):
        f = np.polyval(coeffs_desc, roots)
        df = np.polyval(deriv, roots)
        step = np.where(df != 0, f / np.where(df != 0, df, 1.0), 0.0)
        roots = roots - step
        iterates.append(roots)
    return iterates


def _repeat_period(iterates):
    """Period of the first iterate equal to an earlier one, else None."""
    seen = {}
    for k, roots in enumerate(iterates):
        j = seen.setdefault(roots.tobytes(), k)
        if j != k:
            return k - j
    return None


def _seeded_networks(count, seed):
    rng = np.random.default_rng(seed)
    networks = []
    while len(networks) < count:
        lam = float(rng.uniform(0.5, 2.0))
        p, q = (float(x) for x in rng.uniform(0.05, 0.8, 2))
        mu1, mu2 = (float(x) for x in rng.uniform(0.5, 12.0, 2))
        if jackson_stable(lam, mu1, mu2, p, q):
            networks.append(qt.jackson_model(lam, mu1, mu2, p, q))
    return networks


def _real_mask(roots):
    return np.abs(roots.imag) < kernel._REAL_ROOT_RTOL * (1.0 + np.abs(roots.real))


def test_polish_roots_bit_identical_to_fixed_steps(named, corpus20, monkeypatch):
    # real roots keep the bits of the 60-step loop; non-real ones stop at
    # rounding level, and callers read them only through the realness test
    calls = []
    polish = kernel._polish_roots

    def recorded(coeffs_desc, roots):
        out = polish(coeffs_desc, roots)
        calls.append((coeffs_desc, roots, out))
        return out

    monkeypatch.setattr(kernel, "_polish_roots", recorded)
    networks = _seeded_networks(4, seed=7)
    seen = set()  # (network?, degree, period of the first repeat)
    for m in [*named, *corpus20, *networks]:
        clear_analysis_caches()
        calls.clear()
        qt.full_report(m)
        assert calls
        for coeffs_desc, roots, got in calls:
            want = _fixed_step_iterates(coeffs_desc, roots)
            last = want[-1]
            assert got.dtype == last.dtype
            real = _real_mask(last)
            assert np.array_equal(_real_mask(got), real)
            assert got[real].tobytes() == last[real].tobytes()
            assert np.all(np.abs(got[~real] - last[~real]) <= 1e-13 * np.abs(last[~real]))
            seen.add((m in networks, coeffs_desc.size - 1, _repeat_period(want)))
    periods = {period for _, _, period in seen}
    assert 1 in periods  # a fixed point
    assert any(p is not None and p >= 2 for p in periods)  # a longer cycle
    assert (True, 6, None) in seen  # a network sextic that runs every step


def test_paper_network_report_evaluates_few_polynomials(jackson_paper, monkeypatch):
    # a non-real pair that wanders at rounding level made each crossing
    # sextic of the paper network run all 60 Newton steps: 260 evaluations
    count = 0
    polyval = np.polyval

    def counted(p, x):
        nonlocal count
        count += 1
        return polyval(p, x)

    monkeypatch.setattr(np, "polyval", counted)
    clear_analysis_caches()
    qt.full_report(jackson_paper)
    assert 0 < count <= 60
