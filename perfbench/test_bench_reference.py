"""Tests of the benchmark's reference computations.

    PYTHONPATH=src python3 -m pytest -q perfbench

The references are checked against each other, against closed forms and,
where the package is the thing they will later judge, against one small
solve of its oracle.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
from qbd_tails import netgen, oracle  # noqa: E402

PRODUCT = (0.1, 0.3, 0.15, 0.45)
NETWORK = (1.0, 5.0, 4.0, 0.25, 0.4)


def test_face_gf_matches_queue_formula():
    l1, m1, l2, m2 = PRODUCT
    doc = netgen.independent_mm1(*PRODUCT).to_document()
    u1, u2 = 1.7, 0.6
    assert ref.face_gf(doc, "interior", u1, u2) == pytest.approx(
        l1 * u1 + m1 / u1 + l2 * u2 + m2 / u2, rel=1e-15)
    assert ref.face_gf(doc, "origin", u1, u2) == pytest.approx(
        l1 * u1 + l2 * u2 + m1 + m2, rel=1e-15)
    assert ref.face_gf(doc, "boundary1", 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_section_and_discriminant_on_kernel_curve():
    doc = netgen.jackson_model(*NETWORK).to_document()
    for axis in (1, 2):
        u = 1.3
        w = ref.lower_root(doc, axis, u)
        point = (u, w) if axis == 2 else (w, u)
        assert ref.face_gf(doc, "interior", *point) == pytest.approx(1.0, abs=1e-14)
        disc, scale = ref.discriminant(doc, axis, u)
        assert disc > 0 and scale >= abs(disc)


def test_kernel_branch_max_is_double_root():
    doc = netgen.independent_mm1(*PRODUCT).to_document()
    u, v = ref.kernel_branch_max(*PRODUCT)
    disc, scale = ref.discriminant(doc, 2, u)
    assert abs(disc) <= 1e-14 * scale
    assert ref.face_gf(doc, "interior", u, v) == pytest.approx(1.0, abs=1e-14)
    assert u == pytest.approx(4.066026515784298, rel=1e-12)


def test_censored_matrix_is_stochastic_and_drops_exits():
    doc = netgen.jackson_model(*NETWORK).to_document()
    mat, sums = ref.censored_matrix(doc, 12)
    assert mat.shape == (169, 169)
    assert np.allclose(np.asarray(mat.sum(axis=1)).ravel(), 1.0, atol=1e-15)
    assert mat.min() >= 0.0
    # the corner state loses the (1, 1) arrival and both routings out of the grid
    assert sums[12, 12] < 1.0 and sums[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("params", [PRODUCT, (0.05, 0.2, 0.1, 0.3)])
def test_censored_product_form_is_stationary(params):
    doc = netgen.independent_mm1(*params).to_document()
    pi = ref.censored_product_form(doc, *params, 40)
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)
    assert ref.stationarity_residual(doc, pi) < 1e-15


def test_censored_product_form_matches_solver_deep_in_the_tail():
    params = (0.01, 0.49, 0.01, 0.49)
    model = netgen.independent_mm1(*params)
    want = ref.censored_product_form(model.to_document(), *params, 64)
    got = oracle.solve_truncated(model, 64).pi
    assert want.min() < 1e-216
    # 6e-14 today, down to values of 4e-217
    assert float((np.abs(got - want) / want).max()) <= 1e-12


def test_censored_product_form_below_the_normal_range():
    # rate 499: rho^n leaves the normal float64 range near n = 114
    params = (0.001, 0.499, 0.001, 0.499)
    doc = netgen.independent_mm1(*params).to_document()
    want = ref.censored_product_form(doc, *params, 130)
    assert np.isfinite(want).all() and want.sum() == pytest.approx(1.0, abs=1e-15)
    assert want[130, 0] == 0.0 and 0.0 < want[110, 0] < 1e-290
    _, sums = ref.censored_matrix(doc, 130)
    rho = (0.001 / 0.499) ** np.arange(50)
    direct = np.outer(rho, rho) * sums[:50, :50]  # normal while i + j < 100
    assert want[:50, :50] == pytest.approx(direct / direct.sum(), rel=1e-12)
    assert ref.product_form_error(want, want) == (0.0, 0.0)
    off = want.copy()
    off[100, 2] *= 1.0 + 1e-9
    off[129, 0] = 1e-300
    rel, absolute = ref.product_form_error(off, want)
    assert rel == pytest.approx(1e-9, rel=1e-3) and absolute == pytest.approx(1e-300)
    assert ref.stationarity_residual(doc, want) < 1e-15


def test_stationarity_residual_sees_a_wrong_vector():
    doc = netgen.independent_mm1(*PRODUCT).to_document()
    pi = ref.censored_product_form(doc, *PRODUCT, 20)
    pi[3, 4] *= 1.001
    assert ref.stationarity_residual(doc, pi) > 1e-8


def test_network_crossing_closed_form_on_both_curves():
    doc = netgen.jackson_model(*NETWORK).to_document()
    u1 = (-1.0 + math.sqrt(8.2)) / 0.8
    assert ref.jackson_crossing(*NETWORK, 1) == pytest.approx((u1, 0.4 * u1 + 0.6), rel=1e-15)
    for axis, face in ((1, "boundary1"), (2, "boundary2")):
        point = ref.jackson_crossing(*NETWORK, axis)
        assert min(point) > 1.0
        assert ref.face_gf(doc, "interior", *point) == pytest.approx(1.0, abs=1e-14)
        assert ref.face_gf(doc, face, *point) == pytest.approx(1.0, abs=1e-14)
    assert ref.jackson_crossing(1.0, 2.0, 5.0, 0.25, 0.0, 1) == (2.0, 1.0)


def test_network_load_conditions_match_traffic_equations():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam, mu1, mu2 = rng.uniform(0.2, 6.0, 3)
        p, q = rng.uniform(0.0, 0.9, 2)
        rates = np.linalg.solve([[1.0, -q], [-p, 1.0]], [lam, lam])
        want = rates[0] < mu1 and rates[1] < mu2
        assert ref.jackson_stable(lam, mu1, mu2, p, q) == want
    assert ref.jackson_stable(*NETWORK)
    assert not ref.jackson_stable(4.0, 5.0, 4.0, 0.25, 0.4)


def test_product_classes():
    cls = ref.product_classes(*PRODUCT)
    assert cls["boundary1"] == (pytest.approx(3.0), 0.0)
    assert cls["marginal2"] == (pytest.approx(3.0), 0.0)
    assert cls["diagonal"] == (pytest.approx(3.0), 1.0)  # 0.3/0.1 and 0.45/0.15 tie
    cls = ref.product_classes(0.1, 0.3, 0.1, 0.5)
    assert cls["boundary2"] == (5.0, 0.0)
    assert cls["diagonal"] == (pytest.approx(3.0), 0.0)
