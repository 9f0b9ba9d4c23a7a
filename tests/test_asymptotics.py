"""Sigma points and the exact asymptotic class dispatch."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import qbd_tails as qt
from qbd_tails import geometry, kernel
from qbd_tails.asymptotics import classes, sigma_diag, sigma_plus, sigma_points
from qbd_tails.geometry import compute_geometry
from qbd_tails.model import TransitionKernel, UnstableModelError, require_stable, validate

from conftest import (
    OFF_ARC_DIAGONAL_DOC,
    clear_analysis_caches,
    jackson_boundary_condition,
)


def test_sigma_plus_product(product):
    assert sigma_plus(product, 1) == pytest.approx(3.0, rel=1e-12)
    assert sigma_plus(product, 2) == pytest.approx(3.0, rel=1e-12)


def test_sigma_plus_solves_unit_line(corpus20):
    for m in corpus20:
        for axis in (1, 2):
            try:
                s = sigma_plus(m, axis)
            except ValueError:
                continue
            point = (s, 1.0) if axis == 1 else (1.0, s)
            assert qt.gamma(m, "interior", *point) == pytest.approx(1.0, abs=1e-10)
            assert s > 1.0


def test_sigma_plus_missing_for_forward_drift():
    m = validate({
        "interior": TransitionKernel.from_probs("interior", {
            (1, 0): 0.3, (-1, 0): 0.2, (0, 1): 0.05, (0, -1): 0.45}),
        "boundary1": TransitionKernel.from_probs("boundary1", {
            (-1, 0): 0.5, (0, 1): 0.25, (1, 0): 0.25}),
        "boundary2": TransitionKernel.from_probs("boundary2", {
            (0, -1): 0.5, (1, 0): 0.3, (0, 0): 0.2}),
        "origin": TransitionKernel.from_probs("origin", {
            (1, 0): 0.5, (0, 1): 0.2, (0, 0): 0.3}),
    })
    with pytest.raises(ValueError, match="no root above 1"):
        sigma_plus(m, 1)
    assert sigma_points(m).sigma_plus_1 is None


def test_sigma_diag_product(product):
    assert sigma_diag(product) == pytest.approx(3.0, rel=1e-12)


def test_sigma_diag_swap_invariant(corpus20):
    for m in corpus20[:8]:
        assert sigma_diag(qt.swap_coordinates(m)) == pytest.approx(
            sigma_diag(m), rel=1e-10)


def _sigma_diag_brentq(model):
    """The bracketed root search that sigma_diag replaced, kept as the
    reference: brentq on gamma(u, u) - 1 over (1, max u_max]."""
    require_stable(model)
    mx, my = model.interior.mean()
    if mx + my >= 0.0:
        raise ValueError("nonnegative diagonal drift; no diagonal root above 1")
    geo = compute_geometry(model)
    ub = max(geo.axis1.u_max, geo.axis2.u_max)

    def g(u: float) -> float:
        return float(np.real(kernel.gamma(model, "interior", u, u))) - 1.0

    lo = 1.0 + 1e-9
    if g(lo) >= 0.0:
        raise ValueError("diagonal section does not drop below 1 beyond u = 1")
    hi = ub * (1.0 + 1e-12)
    if g(hi) < 0.0:
        raise ValueError("diagonal root bracketing failed")
    return float(brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=300))


def test_sigma_diag_matches_bracketed_search(named, corpus20):
    # the last model drifts forward along the diagonal: no root above 1
    forward = validate({
        "interior": TransitionKernel.from_probs("interior", {
            (1, 0): 0.5, (-1, 0): 0.1, (0, 1): 0.05, (0, -1): 0.35}),
        "boundary1": TransitionKernel.from_probs("boundary1", {
            (-1, 0): 0.7, (0, 1): 0.05, (1, 0): 0.05, (0, 0): 0.2}),
        "boundary2": TransitionKernel.from_probs("boundary2", {
            (0, -1): 0.5, (1, 0): 0.3, (0, 0): 0.2}),
        "origin": TransitionKernel.from_probs("origin", {
            (1, 0): 0.5, (0, 1): 0.2, (0, 0): 0.3}),
    })
    models = named + corpus20 + [forward]
    missing = []
    for k, m in enumerate(models):
        try:
            want = _sigma_diag_brentq(m)
        except ValueError:
            missing.append(k)
            with pytest.raises(ValueError):
                sigma_diag(m)
            continue
        assert sigma_diag(m) == pytest.approx(want, rel=2e-13, abs=0.0)
    assert missing == [len(models) - 1]


def test_sigma_diag_on_diagonal_interior(x_shaped):
    assert sigma_diag(x_shaped) == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_sigma_requires_stable_model():
    m = qt.jackson_model(4, 5, 4, 0.25, 0.4)
    with pytest.raises(UnstableModelError):
        sigma_diag(m)


@pytest.mark.parametrize("ask", [
    lambda m: qt.boundary_class(m, 1), lambda m: qt.marginal_class(m, 2),
    qt.diagonal_class, qt.classes])
def test_classes_require_stable_model(ask):
    with pytest.raises(UnstableModelError):
        ask(qt.jackson_model(4, 5, 4, 0.25, 0.4))


def test_boundary_class_product(product):
    for axis in (1, 2):
        cls = qt.boundary_class(product, axis)
        assert cls.rate == pytest.approx(3.0, abs=1e-9)
        assert cls.kappa == 0.0 and not cls.periodic


def test_boundary_class_q0_dichotomy(jackson_q0_geometric, jackson_q0_branch):
    assert jackson_boundary_condition(1, 2, 5, 0.25)
    geo = qt.boundary_class(jackson_q0_geometric, 1)
    assert geo.rate == pytest.approx(2.0, abs=1e-9)
    assert geo.kappa == 0.0 and not geo.periodic
    assert not jackson_boundary_condition(1, 5, 4, 0.25)
    br = qt.boundary_class(jackson_q0_branch, 1)
    assert br.kappa == -1.5 and not br.periodic
    assert br.rate == pytest.approx(5.124905513821857, abs=1e-8)


def test_boundary_class_tangency(tangent):
    cls = qt.boundary_class(tangent, 1)
    assert cls.kappa == -0.5 and not cls.periodic
    assert cls.rate == pytest.approx(qt.branch_points(tangent, 1).u_max, rel=1e-12)


def test_boundary_class_degenerate_tangency(degenerate_tangent):
    # with no upward face mass the tangency leaves a plain simple pole
    cls = qt.boundary_class(degenerate_tangent, 1)
    assert cls.kappa == 0.0
    assert "degenerate" in cls.provenance


def test_boundary_class_double_pole(double_pole):
    cls = qt.boundary_class(double_pole, 1)
    assert cls.kappa == 1.0 and not cls.periodic
    assert "category-II" in cls.provenance
    geo = qt.compute_geometry(double_pole)
    assert cls.rate == pytest.approx(geo.tau[0], rel=1e-12)


def test_boundary_class_periodic_flags(x_shaped):
    b1 = qt.boundary_class(x_shaped, 1)
    assert b1.periodic and b1.kappa == 0.0
    assert b1.rate == pytest.approx(math.sqrt(1.5), rel=1e-9)
    b2 = qt.boundary_class(x_shaped, 2)
    assert b2.periodic and b2.kappa == -1.5


def test_boundary_rate_equals_tau(corpus20):
    for m in corpus20:
        geo = qt.compute_geometry(m)
        assert qt.boundary_class(m, 1).rate == pytest.approx(geo.tau[0], rel=1e-12)
        assert qt.boundary_class(m, 2).rate == pytest.approx(geo.tau[1], rel=1e-12)


def test_swap_coherence_of_classes(named, corpus20):
    # axis 2 is read off the model's own geometry; the swapped model's axis 1
    # gives the same floats, and the same provenance after the axis label
    for m in corpus20 + named:
        sw = qt.swap_coordinates(m)
        for a, b in ((qt.boundary_class(m, 2), qt.boundary_class(sw, 1)),
                     (qt.marginal_class(m, 2), qt.marginal_class(sw, 1))):
            assert (a.rate, a.kappa, a.periodic) == (b.rate, b.kappa, b.periodic)
            assert a.provenance.split("|", 1)[1] == b.provenance.split("|", 1)[1]
        a, b = qt.diagonal_class(m), qt.diagonal_class(sw)
        assert (a.kappa, a.provenance) == (b.kappa, b.provenance)
        # sigma_diag sums the kernel entries in another order
        assert a.rate == pytest.approx(b.rate, rel=1e-12)


def test_full_report_computes_geometry_once(jackson_paper, monkeypatch):
    calls = []
    axis_geometry = geometry._axis_geometry

    def counted(m, axis):
        calls.append(axis)
        return axis_geometry(m, axis)

    monkeypatch.setattr(geometry, "_axis_geometry", counted)
    geometry.compute_geometry.cache_clear()
    qt.full_report(jackson_paper)
    assert geometry.compute_geometry.cache_info().misses == 1
    assert sorted(calls) == [1, 2]


def test_full_report_solves_each_sigma_once(named, monkeypatch):
    calls = []
    for name in ("sigma_plus", "sigma_diag"):
        solve = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *a, solve=solve, name=name: calls.append(name) or solve(*a))
    for m in named:
        calls.clear()
        clear_analysis_caches()
        qt.full_report(m)
        assert sorted(calls) == ["sigma_diag", "sigma_plus", "sigma_plus"]


@pytest.mark.parametrize("fixture", ["jackson_paper", "x_shaped", "swapped_degenerate_tangent"])
def test_full_report_solves_one_quartic_per_axis(fixture, request):
    # the face-2 crossing is found on the axis-2 quartic, also where the
    # face-2 curve is vertical (the swapped degenerate tangent) and its
    # ordinate comes from the lower branch of the kernel curve
    name = fixture.removeprefix("swapped_")
    model = request.getfixturevalue(name)
    if name != fixture:
        model = qt.swap_coordinates(model)
    clear_analysis_caches()
    qt.full_report(model)
    assert kernel.branch_points.cache_info().misses == 2


def test_marginal_class_product(product):
    cls = qt.marginal_class(product, 1)
    assert cls.rate == pytest.approx(3.0, abs=1e-9)
    assert cls.kappa == 0.0
    assert "lower-branch" in cls.provenance


def test_marginal_class_early_exit(jackson_q0_branch):
    # the unit line leaves the kernel region before the decay corner
    cls = qt.marginal_class(jackson_q0_branch, 1)
    assert cls.rate == pytest.approx(5.0, abs=1e-9)
    assert cls.kappa == 0.0 and not cls.periodic
    assert "exits-early" in cls.provenance


def test_marginal_class_boundary_driven(jackson_paper):
    cls = qt.marginal_class(jackson_paper, 1)
    base = qt.boundary_class(jackson_paper, 1)
    assert cls.rate == base.rate and cls.kappa == base.kappa


def test_marginal_rate_consistency(corpus20):
    # the marginal rate never exceeds its boundary rate, and matches the
    # unit-line root whenever the line exits the region first
    for m in corpus20:
        for axis in (1, 2):
            cls = qt.marginal_class(m, axis)
            tau_k = qt.boundary_class(m, axis).rate
            assert cls.rate <= tau_k * (1 + 1e-9)
            if "exits-early" in cls.provenance:
                assert cls.rate == pytest.approx(sigma_plus(m, axis), rel=1e-12)


def test_diagonal_class_product(product):
    cls = qt.diagonal_class(product)
    assert cls.rate == pytest.approx(3.0, abs=1e-9)
    assert cls.kappa == 1.0 and not cls.periodic


def test_diagonal_off_the_outer_arc_is_boundary_driven():
    # sigma_d = 1.13559 is below tau1 = 1.15091, but (sigma_d, sigma_d) lies
    # below the axis-1 branch point, so the diagonal does not leave the
    # domain there: the oracle fits 1.15098 at N = 150
    m = qt.load_model(json.dumps(OFF_ARC_DIAGONAL_DOC))
    cls = qt.diagonal_class(m)
    assert "boundary-driven" in cls.provenance
    assert cls.rate == pytest.approx(geometry.directional_decay(m, (1, 1)), rel=1e-12)
    reports = qt.verify_model(m, n_grid=150)
    assert all(r.passed for r in reports.values())


def test_diagonal_rate_is_sigma_diag(named, corpus20):
    for m in corpus20 + named:
        cls = qt.diagonal_class(m)
        if "boundary-driven" not in cls.provenance:
            assert cls.rate == sigma_diag(m)


def test_diagonal_class_swap_invariant(x_shaped):
    a = qt.diagonal_class(x_shaped)
    b = qt.diagonal_class(qt.swap_coordinates(x_shaped))
    assert (a.rate, a.kappa) == pytest.approx((b.rate, b.kappa))


def test_kappa_one_only_in_allowed_cases(corpus20, double_pole, product):
    for m in corpus20 + [double_pole, product]:
        for name, cls in classes(m).items():
            if cls.kappa == 1.0:
                assert ("double-pole" in cls.provenance
                        or "category-II" in cls.provenance
                        or "upper-branch" in cls.provenance)


def test_periodic_only_when_arithmetic(corpus20, x_shaped):
    for m in corpus20:
        assert not any(c.periodic for c in classes(m).values())
    assert any(c.periodic for c in classes(x_shaped).values())


def test_full_report_product(product):
    rep = qt.full_report(product)
    body = rep.to_dict()
    assert rep.stable and body["stability"]["stable"]
    assert body["geometry"]["category"] == "I"
    assert body["geometry"]["tau"] == pytest.approx([3.0, 3.0], abs=1e-9)
    assert set(body["classes"]) == {"boundary1", "boundary2", "marginal1",
                                    "marginal2", "diagonal"}
    assert body["classes"]["diagonal"]["human"].startswith("n (")
    assert body["sigma"]["sigma_d"] == pytest.approx(3.0)


def test_full_report_unstable():
    rep = qt.full_report(qt.jackson_model(4, 5, 4, 0.25, 0.4))
    assert not rep.stable
    body = rep.to_dict()
    assert "classes" not in body and "geometry" not in body
    assert body["stability"]["matched_condition"] == "none"


def test_human_rendering(tangent, x_shaped):
    h = qt.boundary_class(tangent, 1).human()
    assert h.startswith("n^{-1/2} (")
    hx = qt.boundary_class(x_shaped, 1).human()
    assert "(1+b(-1)^n)" in hx


def test_golden_network_report(jackson_paper):
    """Frozen full report of the simultaneous-arrival network; numeric
    fields compared with tolerance to absorb platform rounding."""
    import json
    from pathlib import Path
    golden = json.loads(
        (Path(__file__).parent / "golden" / "jackson_paper.json").read_text())
    got = qt.full_report(jackson_paper,
                         source="gen:jackson:1:5:4:0.25:0.4").to_dict()

    def compare(a, b, path=""):
        assert type(a) is type(b) or {type(a), type(b)} <= {int, float}, path
        if isinstance(a, dict):
            assert set(a) == set(b), path
            for k in a:
                compare(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), path
            for i, (x, y) in enumerate(zip(a, b)):
                compare(x, y, f"{path}[{i}]")
        elif isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12), path
        else:
            assert a == b, path

    compare(got, golden)
