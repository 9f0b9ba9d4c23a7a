"""Acceptance criteria: every numbered requirement as one test that prints a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import pytest

import qbd_tails as qt
from qbd_tails.kernel import branch_points, gamma, zeta_lower, section_coefficients
from qbd_tails.netgen import JacksonSimParams
from qbd_tails.oracle import extract, fit_tail, solve_truncated, verify_model

from conftest import (
    as_dict,
    extreme_r,
    is_even_discriminant,
    jackson_boundary_condition,
    zeta_upper_second_derivative,
)


def _report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_acceptance_01_product_form_exactness(product):
    t0 = time.perf_counter()
    dist = solve_truncated(product, 200)
    elapsed = time.perf_counter() - t0
    i = np.arange(61)
    closed = (4.0 / 9.0) * np.outer((1 / 3.0) ** i, (1 / 3.0) ** i)
    err = float(np.abs(dist.pi[:61, :61] - closed).max())
    _report(1, err < 1e-8 and elapsed < 60.0,
            f"max_abs_err={err:.3e} runtime={elapsed:.1f}s")


def test_acceptance_02_product_pipeline(product, product_dist300):
    geo = qt.compute_geometry(product)
    cls = qt.classes(product)
    ok = (geo.category == "I"
          and abs(geo.tau[0] - 3.0) < 1e-9 and abs(geo.tau[1] - 3.0) < 1e-9
          and cls["boundary1"].rate == pytest.approx(3.0, abs=1e-9)
          and cls["boundary1"].kappa == 0.0
          and not cls["boundary1"].periodic
          and cls["marginal1"].rate == pytest.approx(3.0, abs=1e-9)
          and cls["marginal1"].kappa == 0.0
          and cls["diagonal"].rate == pytest.approx(3.0, abs=1e-9)
          and cls["diagonal"].kappa == 1.0)
    reports = verify_model(product, n_grid=300, dist=product_dist300)
    ok = ok and all(r.passed for r in reports.values())
    _report(2, ok, "category=%s tau=(%.9f, %.9f) verify=%s" % (
        geo.category, geo.tau[0], geo.tau[1],
        {k: v.passed for k, v in reports.items()}))


def test_acceptance_03_network_closed_form(jackson_paper):
    t0 = time.perf_counter()
    got = extreme_r(jackson_paper, 1)
    elapsed = time.perf_counter() - t0
    u1 = (-1.0 + math.sqrt(8.2)) / 0.8
    want = (u1, 0.4 * u1 + 0.6)
    gap = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
    _report(3, gap < 1e-8 and elapsed < 1.0,
            f"gap={gap:.2e} runtime={elapsed:.3f}s point=({got[0]:.6f}, {got[1]:.6f})")


def test_acceptance_04_stability_boundary_grid():
    mu1, p, q = 5.0, 0.25, 0.4
    cells = ok_cells = 0
    for lam in (0.5, 1.0, 2.0, 3.0, 4.0):
        for mu2 in (1.0, 2.0, 3.0, 4.0, 6.0):
            closed = JacksonSimParams(lam, mu1, mu2, p, q).stable()
            drift = qt.check_stability(
                qt.drifts(qt.jackson_model(lam, mu1, mu2, p, q))).stable
            cells += 1
            ok_cells += closed == drift
    _report(4, ok_cells == cells, f"{ok_cells}/{cells} cells agree")


def test_acceptance_05_q0_dichotomy(jackson_q0_geometric, jackson_q0_branch):
    # geometric side
    t0 = time.perf_counter()
    cls_a = qt.boundary_class(jackson_q0_geometric, 1)
    dist_a = solve_truncated(jackson_q0_geometric, 300)
    fit_a = fit_tail(extract(dist_a, "boundary1"))
    el_a = time.perf_counter() - t0
    ok_a = (jackson_boundary_condition(1, 2, 5, 0.25)
            and cls_a.rate == pytest.approx(2.0, abs=1e-9)
            and cls_a.kappa == 0.0
            and abs(fit_a.kappa_hat) < 0.2
            and abs(fit_a.rate_hat / 2.0 - 1.0) < 5e-3
            and el_a < 90.0)
    # branch-point side
    t0 = time.perf_counter()
    cls_b = qt.boundary_class(jackson_q0_branch, 1)
    dist_b = solve_truncated(jackson_q0_branch, 300)
    fit_b = fit_tail(extract(dist_b, "boundary1"))
    el_b = time.perf_counter() - t0
    ok_b = (not jackson_boundary_condition(1, 5, 4, 0.25)
            and cls_b.kappa == -1.5
            and fit_b.kappa_selected == -1.5
            and abs(fit_b.rate_hat / cls_b.rate - 1.0) < 5e-3
            and el_b < 90.0)
    _report(5, ok_a and ok_b,
            f"geometric(rate={fit_a.rate_hat:.4f} k^={fit_a.kappa_hat:+.3f} "
            f"{el_a:.0f}s) branch(sel={fit_b.kappa_selected} "
            f"rate={fit_b.rate_hat:.4f} {el_b:.0f}s)")


def _parity_rates(values, window):
    """Decay rates of the even and of the odd points of the window, each
    from its own least-squares fit of log p = -n log a + kappa log n + c."""
    n0, n1 = window
    ns = np.arange(n0, n1 + 1, dtype=float)
    logv = np.log(values[n0:n1 + 1])
    rates = []
    for parity in (0, 1):
        sel = ns % 2 == parity
        design = np.column_stack([-ns[sel], np.log(ns[sel]), np.ones(sel.sum())])
        coef, *_ = np.linalg.lstsq(design, logv[sel], rcond=None)
        rates.append(math.exp(coef[0]))
    return rates


def test_acceptance_06_arithmetic_detection(x_shaped):
    prof = qt.arithmetic_profile(x_shaped)
    cls = qt.boundary_class(x_shaped, 1)
    dist = solve_truncated(x_shaped, 300)
    seq = extract(dist, "boundary1")
    fit = fit_tail(seq)
    rate_even, rate_odd = _parity_rates(seq.values, fit.window)
    parity_gap = abs(rate_even / rate_odd - 1.0)
    ok = (not prof.va
          and cls.periodic
          and abs(fit.b_hat) > 0.05
          and parity_gap < 1e-2
          and abs(fit.rate_hat / cls.rate - 1.0) < 5e-3)
    _report(6, ok, f"b_hat={fit.b_hat:+.4f} parity_rate_gap={parity_gap:.2e} "
                   f"case={prof.b_case}{prof.c_case}")


def test_acceptance_07_key_inequality_suite(corpus20):
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst_gap = -np.inf
    worst_resid = 0.0
    for m in corpus20:
        bp = branch_points(m, 1)
        r = rng.uniform(bp.u_min + 1e-9, bp.u_max, 1000)
        phi = rng.uniform(0.05, 2 * math.pi - 0.05, 1000)
        z = r * np.exp(1j * phi)
        lhs = np.abs(zeta_lower(m, 2, z))
        rhs = np.real(zeta_lower(m, 2, r))
        worst_gap = max(worst_gap, float(np.max(lhs - rhs)))
        s = section_coefficients(m, 2, z)
        w = zeta_lower(m, 2, z)
        resid = s.p_star1 * w * w + s.p_star0 * w + s.p_star_minus1 - w
        worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
    elapsed = time.perf_counter() - t0
    _report(7, worst_gap <= 1e-10 and worst_resid < 1e-10 and elapsed < 10.0,
            f"worst_modulus_gap={worst_gap:.2e} worst_residual={worst_resid:.2e} "
            f"runtime={elapsed:.1f}s")


def test_acceptance_08_evenness_equivalence(corpus20, x_shaped):
    ok = all(is_even_discriminant(m) == (not qt.arithmetic_profile(m).va)
             for m in corpus20 + [x_shaped])
    _report(8, ok, f"checked {len(corpus20) + 1} models")


def test_acceptance_09_branch_expansion_ladders(product, jackson_paper, tangent):
    details = []
    ok = True
    # square-root expansion of the lower branch at the rightmost curve point
    for name, m in (("product", product), ("network", jackson_paper)):
        bp = branch_points(m, 1)
        v_star = float(np.real(zeta_lower(m, 2, bp.u_max)))
        curv = zeta_upper_second_derivative(m, 1, v_star)
        closed = math.sqrt(2.0) / math.sqrt(-curv)
        z = bp.u_max - 1e-8
        val = (v_star - float(np.real(zeta_lower(m, 2, z)))) / math.sqrt(1e-8)
        ok = ok and abs(val - closed) < 1e-3 * abs(closed)
        details.append(f"{name}_branch={abs(val - closed):.2e}")
        # face-increment form of the merger constant (holds without tangency)
        q = as_dict(m.boundary1)
        b_up = sum(q.get((i, 1), 0.0) * bp.u_max ** i for i in (-1, 0, 1))
        closed2 = math.sqrt(2.0) * b_up / math.sqrt(-curv)
        g_star = float(gamma(m, "boundary1", bp.u_max, v_star))
        w = float(np.real(zeta_lower(m, 2, z)))
        val2 = (g_star - float(gamma(m, "boundary1", z, w))) / math.sqrt(1e-8)
        ok = ok and abs(val2 - closed2) < 1e-3 * abs(closed2)
        details.append(f"{name}_face={abs(val2 - closed2):.2e}")
    # reciprocal form at an exact tangency (its stated premise)
    bp = branch_points(tangent, 1)
    v_star = float(np.real(zeta_lower(tangent, 2, bp.u_max)))
    curv = zeta_upper_second_derivative(tangent, 1, v_star)
    q = as_dict(tangent.boundary1)
    b_up = sum(q.get((i, 1), 0.0) * bp.u_max ** i for i in (-1, 0, 1))
    closed3 = math.sqrt(-curv) / (math.sqrt(2.0) * b_up)
    z = bp.u_max - 1e-8
    w = float(np.real(zeta_lower(tangent, 2, z)))
    val3 = math.sqrt(1e-8) / (1.0 - float(gamma(tangent, "boundary1", z, w)))
    ok = ok and abs(val3 - closed3) < 1e-3 * abs(closed3)
    details.append(f"tangency_merger={abs(val3 - closed3):.2e}")
    _report(9, ok, " ".join(details))
