"""Seeded inputs of the three workloads, as model documents.

Models are built with `qbd_tails.netgen` and the model constructors only;
no kernel, geometry or oracle code runs here, so every cache the program
keeps is cold when the first op starts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from qbd_tails import netgen
from qbd_tails.model import (
    ModelFileError,
    TransitionKernel,
    ValidatedModel,
    ValidationError,
    check_stability,
    drifts,
    validate,
)

import reference as ref

U_SET = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
FACE_SUPPORT = {
    "interior": U_SET,
    "boundary1": [s for s in U_SET if s[1] >= 0],
    "boundary2": [s for s in U_SET if s[0] >= 0],
    "origin": [s for s in U_SET if s[0] >= 0 and s[1] >= 0],
}

# one round of analyze_stream: the kinds of model, in order
STREAM_ROUND = ("random", "random", "random", "random",
                "product", "product-tie", "network", "network")


def _random_model(rng):
    """A stable model on the full skip-free support: every allowed increment
    of a face is kept with probability 3/4, masses Dirichlet(1)."""
    while True:
        kernels = {}
        for face, support in FACE_SUPPORT.items():
            keep = [s for s in support if rng.random() < 0.75]
            if not keep:
                break
            w = rng.dirichlet(np.ones(len(keep)))
            kernels[face] = TransitionKernel.from_probs(face, dict(zip(keep, w)))
        if len(kernels) < len(FACE_SUPPORT):
            continue
        # the drift test is cheap and rejects most draws, so it runs first
        if not check_stability(drifts(ValidatedModel(**kernels))).stable:
            continue
        try:
            return validate(kernels).to_document(), None
        except (ModelFileError, ValidationError):
            continue


def _product(rng, tie):
    """Two M/M/1 queues; `tie` gives both the same rates, otherwise the two
    decay rates differ by at least 5%."""
    while True:
        l1, l2 = rng.uniform(0.03, 0.15, 2)
        m1, m2 = rng.uniform(0.1, 0.35, 2)
        if tie:
            l2, m2 = l1, m1
        if m1 <= 1.05 * l1 or m2 <= 1.05 * l2:
            continue
        if not tie and abs((m1 / l1) / (m2 / l2) - 1.0) < 0.05:
            continue
        params = (float(l1), float(m1), float(l2), float(m2))
        return netgen.independent_mm1(*params).to_document(), params


def _network(rng):
    """A stable two-node network with simultaneous arrivals and routing in
    both directions (q > 0, so the crossing has its closed form)."""
    while True:
        lam = float(rng.uniform(0.5, 2.0))
        p, q = (float(x) for x in rng.uniform(0.05, 0.8, 2))
        mu1, mu2 = (float(x) for x in rng.uniform(0.5, 12.0, 2))
        if ref.jackson_stable(lam, mu1, mu2, p, q):
            params = (lam, mu1, mu2, p, q)
            return netgen.jackson_model(*params).to_document(), params


def analyze_stream(seed):
    """Endless rounds of STREAM_ROUND, each a list of (kind, params,
    document), one per op; the same seed gives the same stream."""
    rng = np.random.default_rng([seed, 1])
    while True:
        ops = []
        for kind in STREAM_ROUND:
            if kind == "random":
                doc, params = _random_model(rng)
            elif kind == "network":
                doc, params = _network(rng)
            else:
                doc, params = _product(rng, kind == "product-tie")
            ops.append((kind, params, doc))
        yield ops


def _doc(interior, boundary1, boundary2, origin):
    model = validate({
        "interior": TransitionKernel.from_probs("interior", interior),
        "boundary1": TransitionKernel.from_probs("boundary1", boundary1),
        "boundary2": TransitionKernel.from_probs("boundary2", boundary2),
        "origin": TransitionKernel.from_probs("origin", origin),
    })
    return model.to_document()


def _faces(doc):
    return {face: {(di, dj): p for di, dj, p in doc[face]} for face in ref.FACES}


PRODUCT = (0.1, 0.3, 0.15, 0.45)


def named_models():
    """The named models of the test suite, rebuilt: product, paper network,
    the two q = 0 networks, X-shaped, tangent, degenerate tangent and
    double pole.  The three tie models put a face curve exactly through a
    point of the product kernel curve, located here in closed form."""
    mm1 = _faces(netgen.independent_mm1(*PRODUCT).to_document())
    ustar, vstar = ref.kernel_branch_max(*PRODUCT)
    a1, c1 = 0.05, 0.1
    b1 = (a1 * (ustar - 1.0) + c1 * (vstar - 1.0)) / (1.0 - 1.0 / ustar)
    tangent = _doc(mm1["interior"],
                   {(1, 0): a1, (-1, 0): b1, (0, 1): c1, (0, 0): 1.0 - a1 - b1 - c1},
                   mm1["boundary2"], mm1["origin"])
    a = 0.1
    degenerate = _doc(mm1["interior"],
                      {(1, 0): a, (-1, 0): a * ustar, (0, 0): 1.0 - a - a * ustar},
                      mm1["boundary2"], mm1["origin"])
    x_shaped = _doc(
        {(1, 1): 0.2, (-1, -1): 0.3, (1, -1): 0.2, (-1, 1): 0.2, (0, 0): 0.1},
        {(1, 1): 0.2, (-1, 1): 0.2, (0, 0): 0.6},
        {(1, 1): 0.1, (1, -1): 0.3, (0, -1): 0.3, (0, 0): 0.3},
        {(1, 1): 0.4, (1, 0): 0.2, (0, 0): 0.4})
    return {
        "product": netgen.independent_mm1(*PRODUCT).to_document(),
        "paper_network": netgen.jackson_model(1, 5, 4, 0.25, 0.4).to_document(),
        "q0_geometric": netgen.jackson_model(1, 2, 5, 0.25, 0.0).to_document(),
        "q0_branch": netgen.jackson_model(1, 5, 4, 0.25, 0.0).to_document(),
        "x_shaped": x_shaped,
        "tangent": tangent,
        "degenerate_tangent": degenerate,
        "double_pole": _double_pole(mm1, ustar),
    }


def _double_pole(mm1, ustar):
    """Category-II model whose decay corner coincides with the axis-1
    crossing: boundary 2 is solved so that its curve passes through the
    point (x2, v2) reached from that crossing along the lower branches."""
    b1k = {(1, 0): 0.15, (-1, 0): 0.63801, (0, 1): 0.05, (0, 0): 0.16199}
    half = {"interior": [[i, j, p] for (i, j), p in mm1["interior"].items()],
            "boundary1": [[i, j, p] for (i, j), p in b1k.items()]}

    def face_height(u1):  # u2 on the boundary-1 curve above abscissa u1
        return (1.0 - b1k[(0, 0)] - b1k[(1, 0)] * u1 - b1k[(-1, 0)] / u1) / b1k[(0, 1)]

    def gap(u1):
        return ref.face_gf(half, "interior", u1, face_height(u1)) - 1.0

    grid = np.linspace(1.0 + 1e-6, ustar, 4001)
    vals = [gap(u) if face_height(u) > 0 else math.nan for u in grid]
    brackets = [k for k in range(len(grid) - 1) if vals[k] * vals[k + 1] < 0]
    u_r = brentq(gap, grid[brackets[-1]], grid[brackets[-1] + 1], xtol=1e-15, rtol=8.9e-16)
    v2 = ref.lower_root(half, 2, u_r)
    x2 = ref.lower_root(half, 1, v2)
    alpha, gam = 0.2, 0.1
    beta = (alpha * (v2 - 1.0) + gam * (x2 - 1.0)) / (1.0 - 1.0 / v2)
    return _doc(mm1["interior"], b1k,
                {(0, 1): alpha, (0, -1): beta, (1, 0): gam,
                 (0, 0): 1.0 - alpha - beta - gam},
                mm1["origin"])


def verify_models():
    """The product model, whose censored law is known in closed form, and
    a product model whose boundary ray underflows float64 inside the fit
    window on the verify_large grid."""
    return {
        "product": PRODUCT,
        "underflow": (0.001, 0.499, 0.001, 0.499),
    }
