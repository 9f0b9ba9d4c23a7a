"""Model generators: the simultaneous-arrival network and the M/M/1 pair."""

import math

import numpy as np
import pytest

import qbd_tails as qt
from qbd_tails.netgen import JacksonSimParams

from conftest import as_dict, extreme_r, jackson_boundary_condition, jackson_u1r_closed_form


def test_jackson_interior_masses():
    m = qt.jackson_model(1, 5, 4, 0.25, 0.4)
    k = as_dict(m.interior)
    assert k == pytest.approx({
        (1, 1): 0.1, (-1, 1): 0.125, (1, -1): 0.16,
        (-1, 0): 0.375, (0, -1): 0.24})


def test_jackson_face_masses():
    m = qt.jackson_model(1, 5, 4, 0.25, 0.4)
    assert as_dict(m.boundary1) == pytest.approx({
        (1, 1): 0.1, (-1, 1): 0.125, (-1, 0): 0.375, (0, 0): 0.4})
    assert as_dict(m.boundary2) == pytest.approx({
        (1, 1): 0.1, (1, -1): 0.16, (0, -1): 0.24, (0, 0): 0.5})
    assert as_dict(m.origin) == pytest.approx({(1, 1): 0.1, (0, 0): 0.9})


def test_jackson_parallel_queues_special_case():
    m = qt.jackson_model(1, 5, 4, 0.0, 0.0)
    assert m.interior.support == ((-1, 0), (0, -1), (1, 1))


def test_jackson_generating_function_identity():
    m = qt.jackson_model(1.3, 4.2, 3.7, 0.15, 0.55)
    s = 1.3 + 4.2 + 3.7
    lam, mu1, mu2, p, q = 1.3 / s, 4.2 / s, 3.7 / s, 0.15, 0.55
    rng = np.random.default_rng(9)
    for _ in range(100):
        u1, u2 = rng.uniform(0.3, 2.5, 2)
        want = (lam * u1 * u2 + mu1 * p * u2 / u1 + mu2 * q * u1 / u2
                + mu1 * (1 - p) / u1 + mu2 * (1 - q) / u2)
        assert qt.gamma(m, "interior", u1, u2) == pytest.approx(want, abs=1e-12)


def test_jackson_rejects_bad_parameters():
    with pytest.raises(ValueError):
        qt.jackson_model(0, 5, 4, 0.25, 0.4)
    with pytest.raises(ValueError):
        qt.jackson_model(1, 5, 4, 1.25, 0.4)


def test_u1r_closed_form_values():
    u1, u2 = jackson_u1r_closed_form(1, 5, 0.25, 0.4)
    assert u1 == pytest.approx((-1 + math.sqrt(8.2)) / 0.8, rel=1e-15)
    assert u2 == pytest.approx(0.4 * u1 + 0.6, rel=1e-15)
    assert (u1, u2) == pytest.approx((2.329455, 1.531782), abs=1e-6)


def test_u1r_closed_form_q_to_zero_limit():
    u1, _ = jackson_u1r_closed_form(1, 5, 0.25, 1e-8)
    assert u1 == pytest.approx(5.0, abs=1e-5)
    with pytest.raises(ValueError):
        jackson_u1r_closed_form(1, 5, 0.25, 0.0)


def test_u1r_closed_form_matches_geometry_grid():
    mu2, p = 6.0, 0.3
    checked = 0
    for lam in (0.4, 0.6, 0.8, 1.0, 1.2):
        for q in (0.1, 0.25, 0.4, 0.55, 0.7):
            for mu1 in (3.5, 4.5, 5.5, 6.5, 7.5):
                prm = JacksonSimParams(lam, mu1, mu2, p, q)
                if not prm.stable():
                    continue
                m = qt.jackson_model(lam, mu1, mu2, p, q)
                want = jackson_u1r_closed_form(lam, mu1, p, q)
                assert extreme_r(m, 1) == pytest.approx(want, abs=1e-8)
                checked += 1
    assert checked > 100


def test_stability_grid_matches_closed_form():
    mu1, p, q = 5.0, 0.25, 0.4
    for lam in (0.5, 1.0, 2.0, 3.0, 4.0):
        for mu2 in (1.0, 2.0, 3.0, 4.0, 6.0):
            closed = JacksonSimParams(lam, mu1, mu2, p, q).stable()
            verdict = qt.check_stability(qt.drifts(qt.jackson_model(lam, mu1, mu2, p, q)))
            assert verdict.stable == closed, (lam, mu2)


def test_boundary_condition_values():
    assert not jackson_boundary_condition(1, 5, 4, 0.25)
    assert jackson_boundary_condition(1, 2, 5, 0.25)
    assert jackson_boundary_condition(1, 3, 3, 0.0)  # equality branch


def test_mm1_kernels(product):
    assert as_dict(product.interior) == pytest.approx(
        {(1, 0): 0.1, (-1, 0): 0.3, (0, 1): 0.15, (0, -1): 0.45})
    assert as_dict(product.boundary1)[(0, 0)] == pytest.approx(0.45)
    assert as_dict(product.boundary2)[(0, 0)] == pytest.approx(0.3)
    assert as_dict(product.origin)[(0, 0)] == pytest.approx(0.75)


def test_mm1_validates_and_is_stable(product):
    assert qt.check_stability(qt.drifts(product)).stable


def test_mm1_rejects_unstable_rates():
    with pytest.raises(ValueError):
        qt.independent_mm1(0.3, 0.1, 0.15, 0.45)
    with pytest.raises(ValueError):
        qt.independent_mm1(0.3, 0.4, 0.2, 0.3)


def test_mm1_full_pipeline_classes(product):
    cls = qt.classes(product)
    assert cls["boundary1"].kappa == 0.0
    assert cls["marginal1"].kappa == 0.0
    assert cls["diagonal"].kappa == 1.0
    assert qt.compute_geometry(product).tau == pytest.approx((3.0, 3.0), abs=1e-9)


def test_model_document_round_trip(jackson_paper):
    import json
    doc = json.dumps(jackson_paper.to_document())
    again = qt.load_model(doc)
    assert again == jackson_paper
