"""Reference computations for the benchmark's output checks.

Written from the definitions, with numpy and scipy only and without the
qbd_tails package, so that a fault in the package cannot hide in its own
check.  A model is handled as its JSON document: a dict mapping each face
name to a list of ``[di, dj, prob]`` triples.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

FACES = ("interior", "boundary1", "boundary2", "origin")
KAPPAS = (-1.5, -0.5, 0.0, 1.0)


def face_gf(doc, face, u1, u2):
    """Generating function of one face's increment law at (u1, u2)."""
    return sum(p * u1 ** di * u2 ** dj for di, dj, p in doc[face])


def section(doc, axis, u):
    """Interior masses grouped by the increment along `axis`, as functions
    of the other coordinate at u: (a_-1, a_0, a_+1), so that on the kernel
    curve a_+1 w^2 + (a_0 - 1) w + a_-1 = 0 in that coordinate w."""
    a = [0.0, 0.0, 0.0]
    for di, dj, p in doc["interior"]:
        along, other = (dj, di) if axis == 2 else (di, dj)
        a[along + 1] += p * u ** other
    return tuple(a)


def discriminant(doc, axis, u):
    """Discriminant of the kernel quadratic in coordinate `axis` at the
    other coordinate's value u, with a scale for relative comparisons."""
    am, a0, ap = section(doc, axis, u)
    return (1.0 - a0) ** 2 - 4.0 * ap * am, (1.0 - a0) ** 2 + 4.0 * abs(ap * am)


def censored_matrix(doc, n_grid):
    """Transition matrix of the walk censored to {0..N}^2: moves that would
    leave the grid are dropped and each row is renormalised to one."""
    n = n_grid + 1
    i, j = np.divmod(np.arange(n * n), n)  # states in row-major order
    face = np.where(i > 0, np.where(j > 0, 0, 1), np.where(j > 0, 2, 3))  # into FACES
    rows, cols, vals = [], [], []
    for f, name in enumerate(FACES):
        src = np.flatnonzero(face == f)
        for di, dj, p in doc[name]:
            ti, tj = i[src] + di, j[src] + dj
            inside = (ti >= 0) & (ti < n) & (tj >= 0) & (tj < n)
            rows.append(src[inside])
            cols.append(ti[inside] * n + tj[inside])
            vals.append(np.full(int(inside.sum()), float(p)))
    mat = sp.csr_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n * n, n * n))
    sums = np.asarray(mat.sum(axis=1)).ravel()
    return sp.diags(1.0 / sums) @ mat, sums.reshape(n, n)


def stationarity_residual(doc, pi):
    """L1 norm of pi P - pi for the censored chain, pi normalised first."""
    mat, _ = censored_matrix(doc, pi.shape[0] - 1)
    x = pi.ravel() / pi.sum()
    return float(np.abs(mat.T @ x - x).sum())


def jackson_stable(lam, mu1, mu2, p, q):
    """Load conditions of the two-node network: the traffic equations
    a1 = lam + q a2, a2 = lam + p a1 give each node's arrival rate."""
    d = 1.0 - p * q
    return lam * (1.0 + q) / d < mu1 and lam * (1.0 + p) / d < mu2


def jackson_crossing(lam, mu1, mu2, p, q, axis):
    """Outermost crossing of the face-`axis` curve with the kernel curve of
    the network: u1 = (-lam + sqrt(lam^2 + 4 lam q mu1 (1 - pq))) / (2 lam q),
    u2 = q u1 + 1 - q on axis 1; axis 2 by exchanging the two nodes."""
    if axis == 2:
        a, b = jackson_crossing(lam, mu2, mu1, q, p, 1)
        return (b, a)
    if q == 0.0:
        return (mu1 / lam, 1.0)
    u1 = (-lam + math.sqrt(lam * lam + 4.0 * lam * q * mu1 * (1.0 - p * q))) / (2.0 * lam * q)
    return (u1, q * u1 + 1.0 - q)


def product_classes(l1, m1, l2, m2):
    """Classes (rate, kappa) of two independent M/M/1 queues: each ray and
    marginal decays like (l/m)^n, the sum like the slower queue, with a
    linear factor exactly when the two rates tie (up to rounding of m/l)."""
    r1, r2 = m1 / l1, m2 / l2
    return {
        "boundary1": (r1, 0.0), "marginal1": (r1, 0.0),
        "boundary2": (r2, 0.0), "marginal2": (r2, 0.0),
        "diagonal": (min(r1, r2), 1.0 if math.isclose(r1, r2, rel_tol=1e-12) else 0.0),
    }


def censored_product_form(doc, l1, m1, l2, m2, n_grid):
    """Stationary law of the censored product chain: detailed balance holds
    for the pair of queues and survives censoring, so
    pi(i, j) is proportional to rho1^i rho2^j s(i, j), s the in-grid row sum.
    The weights are formed and normalised in log space, so every value that
    float64 can hold as a normal number is exact to rounding; values below
    that range come out subnormal or zero."""
    _, sums = censored_matrix(doc, n_grid)
    k = np.arange(n_grid + 1)
    logw = np.add.outer(k * math.log(l1 / m1), k * math.log(l2 / m2)) + np.log(sums)
    logw -= logw.max()
    return np.exp(logw - math.log(np.exp(logw).sum()))


def product_form_error(pi, want):
    """Largest relative error of pi against want over the cells where want
    is a normal float64, and largest absolute error over the other cells."""
    normal = want >= np.finfo(float).tiny
    gap = np.abs(pi - want)
    return float((gap[normal] / want[normal]).max()), float(gap[~normal].max(initial=0.0))


def kernel_branch_max(l1, m1, l2, m2):
    """Rightmost point of the kernel curve of an M/M/1 pair along axis 1:
    l1 u + m1/u = l1 + m1 + l2 + m2 - 2 sqrt(l2 m2) at u2 = sqrt(m2/l2),
    larger root."""
    c = l1 + m1 + l2 + m2 - 2.0 * math.sqrt(l2 * m2)
    return ((c + math.sqrt(c * c - 4.0 * l1 * m1)) / (2.0 * l1), math.sqrt(m2 / l2))


def lower_root(doc, axis, u):
    """Smaller root of the kernel quadratic in coordinate `axis` at the
    other coordinate's value u."""
    am, a0, ap = section(doc, axis, u)
    b = 1.0 - a0
    return (b - math.sqrt(b * b - 4.0 * ap * am)) / (2.0 * ap)
