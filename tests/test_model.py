"""Model parsing, validation, drifts, stability, parity flags, swapping."""

import json
import math
from typing import Mapping

import numpy as np
import pytest

import qbd_tails as qt
import qbd_tails.model as qm
from qbd_tails.model import _FACE_OK, _WINDOW, TransitionKernel, validate

from conftest import as_dict

PRODUCT_DOC = {
    "interior": [[1, 0, 0.1], [-1, 0, 0.3], [0, 1, 0.15], [0, -1, 0.45]],
    "boundary1": [[1, 0, 0.1], [-1, 0, 0.3], [0, 1, 0.15], [0, 0, 0.45]],
    "boundary2": [[1, 0, 0.1], [0, 1, 0.15], [0, -1, 0.45], [0, 0, 0.3]],
    "origin": [[1, 0, 0.1], [0, 1, 0.15], [0, 0, 0.75]],
}


def test_parse_product_document():
    kernels = qt.parse_model(json.dumps(PRODUCT_DOC))
    assert set(kernels) == set(qt.FACES)
    assert as_dict(kernels["interior"])[(1, 0)] == 0.1
    assert as_dict(kernels["boundary1"])[(0, 0)] == 0.45
    model = validate(kernels)
    assert model.interior.support == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_parse_accepts_decimal_strings():
    doc = {f: [[di, dj, str(p)] for di, dj, p in rows]
           for f, rows in ((f, PRODUCT_DOC[f]) for f in qt.FACES)}
    kernels = qt.parse_model(json.dumps(doc))
    assert as_dict(kernels["interior"])[(0, -1)] == 0.45


def test_parse_rejects_increment_outside_skip_free_set():
    doc = dict(PRODUCT_DOC)
    doc["interior"] = [[2, 0, 0.1], [-1, 0, 0.3], [0, 1, 0.15], [0, -1, 0.45]]
    with pytest.raises(qt.ModelFileError, match="outside U"):
        qt.parse_model(json.dumps(doc))


def test_parse_rejects_unnormalized_mass():
    doc = dict(PRODUCT_DOC)
    doc["interior"] = [[1, 0, 0.1], [-1, 0, 0.2], [0, 1, 0.15], [0, -1, 0.45]]
    with pytest.raises(qt.ModelFileError, match="mass 0.9 != 1"):
        qt.parse_model(json.dumps(doc))


def test_parse_rejects_unknown_face_and_bad_probability():
    doc = dict(PRODUCT_DOC)
    doc["boundary3"] = []
    with pytest.raises(qt.ModelFileError, match="unknown face"):
        qt.parse_model(json.dumps(doc))
    doc = dict(PRODUCT_DOC)
    doc["origin"] = [[1, 0, 1.5], [0, 0, -0.5]]
    with pytest.raises(qt.ModelFileError, match="outside"):
        qt.parse_model(json.dumps(doc))
    # literals too large for a float, and an integer too long for json
    for literal, match in (('"1e400"', "bad probability literal"),
                           ("9" * 400, "bad probability literal"),
                           ("9" * 5000, "syntax error")):
        doc["origin"] = [[1, 0, "P"], [0, 0, 0.5]]
        with pytest.raises(qt.ModelFileError, match=match):
            qt.parse_model(json.dumps(doc).replace('"P"', literal))


def test_face_support_constraints():
    with pytest.raises(qt.ModelFileError, match="leaves the quadrant"):
        TransitionKernel.from_probs("boundary1", {(0, -1): 0.5, (0, 1): 0.5})
    with pytest.raises(qt.ModelFileError, match="leaves the quadrant"):
        TransitionKernel.from_probs("origin", {(-1, 0): 0.5, (1, 1): 0.5})


def test_validate_rejects_degenerate_interior():
    kernels = qt.parse_model(json.dumps(PRODUCT_DOC))
    kernels["interior"] = TransitionKernel.from_probs("interior", {(0, 0): 1.0})
    with pytest.raises(qt.ValidationError) as err:
        validate(kernels)
    assert err.value.condition == "interior-walk-irreducible"


def test_validate_rejects_half_plane_interior():
    kernels = qt.parse_model(json.dumps(PRODUCT_DOC))
    kernels["interior"] = TransitionKernel.from_probs(
        "interior", {(1, 0): 0.3, (-1, 0): 0.3, (0, 1): 0.4})
    with pytest.raises(qt.ValidationError) as err:
        validate(kernels)
    assert err.value.condition == "interior-walk-irreducible"


def _lattice_full_rank(support) -> bool:
    """Reference: two of the nonzero steps are linearly independent."""
    vs = [v for v in support if v != (0, 0)]
    return any(
        vs[i][0] * vs[j][1] - vs[i][1] * vs[j][0] != 0
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
    )


def test_half_plane_test_implies_rank_two_and_steps_both_ways():
    # every subset of the nine skip-free steps: each interior support that
    # passes the half-plane test spans the plane and steps both ways along
    # both axes, which is what the kernel and geometry code rely on
    steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    passing = 0
    for bits in range(2 ** len(steps)):
        support = [s for k, s in enumerate(steps) if bits >> k & 1]
        if not qm._not_in_half_plane(support):
            continue
        passing += 1
        assert _lattice_full_rank(support)
        for c in (0, 1):
            assert {s[c] for s in support} >= {-1, 1}
    assert passing == 262


def test_validate_rejects_zero_mean_drift():
    kernels = qt.parse_model(json.dumps(PRODUCT_DOC))
    kernels["interior"] = TransitionKernel.from_probs(
        "interior", {(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25})
    with pytest.raises(qt.ValidationError) as err:
        validate(kernels)
    assert err.value.condition == "nonzero-mean-drift"


def test_validate_rejects_absorbing_reflection():
    kernels = qt.parse_model(json.dumps(PRODUCT_DOC))
    kernels["boundary1"] = TransitionKernel.from_probs("boundary1", {(0, 0): 1.0})
    with pytest.raises(qt.ValidationError) as err:
        validate(kernels)
    assert err.value.condition == "reflecting-chain-irreducible"


def test_validate_rejects_periodic_reflection():
    # every step of every face flips the parity of i + j
    kernels = {
        "interior": TransitionKernel.from_probs("interior", {
            (1, 0): 0.2, (-1, 0): 0.3, (0, 1): 0.2, (0, -1): 0.3}),
        "boundary1": TransitionKernel.from_probs("boundary1", {
            (1, 0): 0.3, (-1, 0): 0.4, (0, 1): 0.3}),
        "boundary2": TransitionKernel.from_probs("boundary2", {
            (1, 0): 0.3, (0, 1): 0.3, (0, -1): 0.4}),
        "origin": TransitionKernel.from_probs("origin", {(1, 0): 0.5, (0, 1): 0.5}),
    }
    with pytest.raises(qt.ValidationError) as err:
        validate(kernels)
    assert err.value.condition == "reflecting-chain-aperiodic"


# Reference for the window check of `validate`: reachability by depth-first
# search and the period from breadth-first depths, independent of `grid_steps`.


def _window_edges(kernels: Mapping[str, TransitionKernel]):
    """Directed edges of the reflecting chain restricted to the window."""
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(_WINDOW):
        for j in range(_WINDOW):
            if i == 0 and j == 0:
                face = "origin"
            elif j == 0:
                face = "boundary1"
            elif i == 0:
                face = "boundary2"
            else:
                face = "interior"
            outs = []
            for di, dj in kernels[face].support:
                ni, nj = i + di, j + dj
                if 0 <= ni < _WINDOW and 0 <= nj < _WINDOW:
                    outs.append((ni, nj))
            edges[(i, j)] = outs
    return edges


def _reachable(edges, start):
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in edges[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _window_irreducible_aperiodic(kernels) -> tuple[bool, bool]:
    edges = _window_edges(kernels)
    fwd = _reachable(edges, (0, 0))
    rev_edges: dict[tuple[int, int], list[tuple[int, int]]] = {s: [] for s in edges}
    for s, outs in edges.items():
        for t in outs:
            rev_edges[t].append(s)
    bwd = _reachable(rev_edges, (0, 0))
    all_states = set(edges)
    irreducible = fwd == all_states and bwd == all_states
    if not irreducible:
        return False, False
    # period = gcd over edges of depth(u) + 1 - depth(v), BFS from (0,0)
    from collections import deque

    depth = {(0, 0): 0}
    dq = deque([(0, 0)])
    while dq:
        s = dq.popleft()
        for t in edges[s]:
            if t not in depth:
                depth[t] = depth[s] + 1
                dq.append(t)
    g = 0
    for s, outs in edges.items():
        for t in outs:
            g = math.gcd(g, abs(depth[s] + 1 - depth[t]))
    return True, g == 1


def _random_kernels(rng, odd_only: bool):
    """Uniform masses on a random subset of each face's allowed steps; with
    odd_only, only steps that change the parity of i + j, so that every
    irreducible draw is periodic."""
    kernels = {}
    for face in qt.FACES:
        steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                 if _FACE_OK[face](di, dj) and (not odd_only or (di + dj) % 2)]
        keep = [s for s in steps if rng.random() < 0.6] or steps[:1]
        kernels[face] = TransitionKernel.from_probs(
            face, {s: 1.0 / len(keep) for s in keep})
    return kernels


def test_window_verdicts_match_bfs_reference(
        product, jackson_paper, jackson_q0_geometric, jackson_q0_branch, x_shaped):
    named = [{face: m.kernel(face) for face in qt.FACES}
             for m in (product, jackson_paper, jackson_q0_geometric,
                       jackson_q0_branch, x_shaped)]
    rng = np.random.default_rng(2012)
    drawn = [_random_kernels(rng, odd_only=k % 3 == 0) for k in range(3000)]
    seen = set()
    for kernels in named + drawn:
        verdict = qm._window_irreducible_aperiodic(kernels)
        assert verdict == _window_irreducible_aperiodic(kernels)
        seen.add(verdict)
    assert seen == {(False, False), (True, False), (True, True)}


def test_drifts_product(product):
    d = qt.drifts(product)
    assert d.m == pytest.approx((-0.2, -0.3), abs=1e-15)
    assert d.m1_perp == (d.m1[1], -d.m1[0])
    assert d.m2_perp == (-d.m2[1], d.m2[0])


def test_drifts_network(jackson_paper):
    d = qt.drifts(jackson_paper)
    # hand sum over the five interior increments, rates normalized by 10
    assert d.m == pytest.approx((-0.24, -0.175), abs=1e-12)


def test_drift_perpendicular_example():
    k = TransitionKernel.from_probs(
        "boundary1", {(1, 1): 0.2, (-1, 1): 0.2, (0, 0): 0.6})
    assert k.mean() == pytest.approx((0.0, 0.4))


def test_stability_product(product):
    v = qt.check_stability(qt.drifts(product))
    assert v.stable and v.matched_condition == "interior-both-negative"
    assert v.inner_product_face1 < 0 and v.inner_product_face2 < 0


def test_stability_network_matches_closed_form():
    stable = qt.check_stability(qt.drifts(qt.jackson_model(1, 5, 4, 0.25, 0.4)))
    assert stable.stable
    unstable = qt.check_stability(qt.drifts(qt.jackson_model(4, 5, 4, 0.25, 0.4)))
    assert not unstable.stable and unstable.matched_condition == "none"


def test_stability_axis1_nonnegative_route():
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
    v = qt.check_stability(qt.drifts(m))
    assert v.stable and v.matched_condition == "axis1-drift-nonnegative"


def test_arithmetic_profile_product(product):
    p = qt.arithmetic_profile(product)
    assert p.va and p.vb and p.vc
    assert p.b_case == "B1" and p.c_case == "C1"


def test_arithmetic_profile_x_shaped(x_shaped):
    p = qt.arithmetic_profile(x_shaped)
    assert not p.va and not p.vb and p.vc
    assert not p.m1_2_zero
    assert p.b_case == "B2" and p.c_case == "C1"


def test_arithmetic_profile_diagonal_interior_only():
    k = TransitionKernel.from_probs("interior", {
        (1, 1): 0.2, (-1, -1): 0.3, (1, -1): 0.2, (-1, 1): 0.2, (0, 0): 0.1})
    assert set(k.support) <= {(1, 1), (-1, 1), (0, 0), (1, -1), (-1, -1)}


def test_swap_is_involution(product, x_shaped, double_pole):
    for m in (product, x_shaped, double_pole):
        assert qt.swap_coordinates(qt.swap_coordinates(m)) == m


def test_swap_exchanges_drifts_and_profile(corpus20):
    for m in corpus20[:8]:
        d = qt.drifts(m)
        ds = qt.drifts(qt.swap_coordinates(m))
        # summation order changes under transposition, so exact equality is
        # only up to one ulp
        assert ds.m == pytest.approx((d.m[1], d.m[0]), abs=1e-15)
        assert ds.m1 == pytest.approx((d.m2[1], d.m2[0]), abs=1e-15)
        p = qt.arithmetic_profile(m)
        ps = qt.arithmetic_profile(qt.swap_coordinates(m))
        assert (ps.vb, ps.vc) == (p.vc, p.vb)
        assert (ps.b_case[1], ps.c_case[1]) == (p.c_case[1], p.b_case[1])


def test_swap_network_matches_regenerated():
    m = qt.jackson_model(1, 5, 4, 0.25, 0.4)
    swapped = qt.swap_coordinates(m)
    regen = qt.jackson_model(1, 4, 5, 0.4, 0.25)
    assert swapped == regen


def test_kernel_masses_sum_to_one(corpus20):
    for m in corpus20:
        for face in qt.FACES:
            total = sum(p for _, _, p in m.kernel(face).entries)
            assert abs(total - 1.0) <= 1e-12


def _simulate_mean_norm(model, steps, seed):
    """Empirical mean of |L| over a single long path, vectorized in blocks."""
    rng = np.random.default_rng(seed)
    tables = {}
    for face in qt.FACES:
        entries = model.kernel(face).entries
        probs = np.array([p for _, _, p in entries])
        moves = np.array([(di, dj) for di, dj, _ in entries])
        tables[face] = (np.cumsum(probs), moves)
    x = y = 0
    total = 0.0
    us = rng.random(steps)
    for t in range(steps):
        if x == 0 and y == 0:
            face = "origin"
        elif y == 0:
            face = "boundary1"
        elif x == 0:
            face = "boundary2"
        else:
            face = "interior"
        cum, moves = tables[face]
        k = int(np.searchsorted(cum, us[t]))
        x += int(moves[k][0])
        y += int(moves[k][1])
        total += x + y
    return total / steps


def test_stability_agrees_with_long_simulation(product):
    # positive-recurrent chain keeps the empirical mean bounded over a
    # million steps; a transient one drifts away
    assert qt.check_stability(qt.drifts(product)).stable
    mean_stable = _simulate_mean_norm(product, 1_000_000, seed=7)
    assert mean_stable < 5.0
    unstable = qt.jackson_model(4, 5, 4, 0.25, 0.4)
    assert not qt.check_stability(qt.drifts(unstable)).stable
    mean_unstable = _simulate_mean_norm(unstable, 1_000_000, seed=7)
    assert mean_unstable > 1000.0


def test_stability_edge_condition_on_face_two():
    # with nonnegative axis-1 drift and no rightward face-2 mass, the
    # vertical face-2 drift must point down for stability
    interior = TransitionKernel.from_probs("interior", {
        (1, 0): 0.3, (-1, 0): 0.2, (0, 1): 0.05, (0, -1): 0.45})
    boundary1 = TransitionKernel.from_probs("boundary1", {
        (-1, 0): 0.5, (0, 1): 0.25, (1, 0): 0.25})
    origin = TransitionKernel.from_probs("origin", {
        (1, 0): 0.5, (0, 1): 0.2, (0, 0): 0.3})

    up = validate({
        "interior": interior, "boundary1": boundary1, "origin": origin,
        "boundary2": TransitionKernel.from_probs("boundary2", {
            (0, 1): 0.5, (0, -1): 0.3, (0, 0): 0.2})})
    assert not qt.check_stability(qt.drifts(up)).stable

    down = validate({
        "interior": interior, "boundary1": boundary1, "origin": origin,
        "boundary2": TransitionKernel.from_probs("boundary2", {
            (0, 1): 0.2, (0, -1): 0.5, (0, 0): 0.3})})
    verdict = qt.check_stability(qt.drifts(down))
    assert verdict.stable and verdict.matched_condition == "axis1-drift-nonnegative"
