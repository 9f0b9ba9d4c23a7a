"""Brute-force verification: solve the stationary distribution of the chain
censored to a finite grid, extract tail sequences along the five directions,
fit (rate, exponent, parity oscillation), and compare with the analytic
classes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas

from .asymptotics import DIRECTIONS, AsymptoticClass, classes
from .model import FACES, ValidatedModel, grid_steps, require_stable

KAPPA_LATTICE = (-1.5, -0.5, 0.0, 1.0)
# fitted oscillation amplitude |b| above which a plain class fails
B_THRESHOLD = 0.05
# fit window, as fractions of the grid size N
WINDOW_FRAC = (0.3, 0.6)
# largest relative rate gap and absolute exponent gap that pass
TOL_RATE = 5e-3
TOL_KAPPA = 0.2


@dataclass(frozen=True)
class EmpiricalStationaryDistribution:
    n_grid: int
    pi: np.ndarray  # shape (n_grid + 1, n_grid + 1)
    residual: float  # one-step stationarity defect, L1
    levels_factored: int  # GTH block factors: one per censoring step, and the last level


@dataclass(frozen=True)
class TailSequence:
    values: np.ndarray
    source_n: int


@dataclass(frozen=True)
class FittedAsymptotic:
    """One tail's fit (`fit_tail`): b_hat is tanh of the alternating
    coefficient, so |b_hat| <= 1.  `cli.run_verify` writes it by `asdict`,
    so these fields, in this order, are the keys of its `fitted` block."""
    rate_hat: float
    kappa_hat: float
    kappa_selected: float
    b_hat: float
    window: tuple[int, int]
    residual_norm: float


@dataclass(frozen=True)
class VerificationReport:
    """One direction's verdict (`verify`), written by `asdict` as one entry
    of the verify JSON's `verification` block."""
    passed: bool
    rate_gap: float
    kappa_gap: float
    periodic_match: bool
    fitted: FittedAsymptotic


def _steps(model: ValidatedModel, n_grid: int) -> np.ndarray:
    """`grid_steps` of the model on {0..N}^2 with the outward mass
    renormalized back into each row, so every row sums to one."""
    a = grid_steps({face: model.kernel(face) for face in FACES}, n_grid + 1)
    a /= a.sum(axis=(0, 1))
    return a


def censored_matrix(model: ValidatedModel, n_grid: int) -> sp.csr_matrix:
    """Row-stochastic transition matrix of the chain restricted to the grid
    {0..N}^2, states numbered lexicographically (i * (N + 1) + j), outward
    mass renormalized back into each row."""
    n = n_grid + 1
    a = _steps(model, n_grid)
    si, sj, di, dj = np.nonzero(a.transpose(2, 3, 0, 1))
    src = si * n + sj
    return sp.csr_matrix((a[di, dj, si, sj], (src, src + (di - 1) * n + dj - 1)),
                         shape=(n * n, n * n))


_LEAF = 32  # pivots factored one at a time below this block size


def _gth_lu(g: np.ndarray, f: np.ndarray) -> None:
    """In-place LU, without pivoting, of the M-matrix with off-diagonal
    entries g and row sums -f (f: exit mass, negated).  Each diagonal is
    the GTH sum d_k = -(f_k + sum of row k right of k) in the current Schur
    complement, so no diagonal is ever formed by cancellation.  g and f
    carry M's signs: off-diagonals and f are <= 0.

    Recursive: the leading half is factored with the trailing columns'
    mass counted as exit, U12 and L21 come from trsm, and the trailing
    block is updated by one GEMM.  L and U off-diagonals stay <= 0, so
    every update adds magnitudes of one sign."""
    n = len(f)
    if n <= _LEAF:
        w = np.empty((n, n + 1))  # the block with its exit column
        w[:, :n] = g
        w[:, n] = f
        for k in range(n):
            piv = -w[k, k + 1:].sum()
            w[k, k] = piv
            col = w[k + 1:, k]
            col /= piv
            w[k + 1:, k + 1:] -= np.multiply.outer(col, w[k, k + 1:])
        g[:] = w[:, :n]
        return
    m = n // 2
    g11, g12, g21, g22 = g[:m, :m], g[:m, m:], g[m:, :m], g[m:, m:]
    _gth_lu(g11, f[:m] + g12.sum(axis=1))
    u = blas.dtrsm(1.0, g11, np.column_stack((g12, f[:m])), lower=1, diag=1)
    g12[:] = u[:, :-1]
    g21[:] = blas.dtrsm(1.0, g11, g21, side=1)
    # scipy's BLAS throughout, not numpy's matmul: the two load separate
    # OpenBLAS builds, and alternating between their thread pools made
    # the solve three times slower on a 2-core host
    g22[:] = blas.dgemm(-1.0, g21, g12, 1.0, g22)
    _gth_lu(g22, blas.dgemv(-1.0, g21, u[:, -1], 1.0, f[m:]))


def _add_tridiag(out: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """Add diags[0..2][j] to out[j, j-1], out[j, j], out[j, j+1] (entries
    that would leave the matrix are dropped) and return out."""
    r = np.arange(len(out))
    out[r[1:], r[:-1]] += diags[0, 1:]
    out[r, r] += diags[1]
    out[r[:-1], r[1:]] += diags[2, :-1]
    return out


def _censor(into: np.ndarray, local: np.ndarray, exit_mass: np.ndarray) -> np.ndarray:
    """W = into (I - local)^-1: the `_gth_lu` factor LU of I - local, the
    exit mass on its diagonal, then W L U = into by two right-side
    triangular solves.  U's diagonal is positive and every other entry of
    L and U is <= 0, so each solve only adds nonnegative terms."""
    g = np.negative(local, order="F")
    _gth_lu(g, -exit_mass)
    return blas.dtrsm(1.0, g, blas.dtrsm(1.0, g, into, side=1), side=1, lower=1, diag=1)


def solve_truncated(model: ValidatedModel, n_grid: int) -> EmpiricalStationaryDistribution:
    """Stationary distribution of the chain censored to {0..N}^2 (outward
    mass renormalized into each row), by cyclic reduction over the levels
    (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970) with subtraction-free
    (GTH) block factors: the finite-square form of the logarithmic reduction
    for a QBD's G (Latouche & Ramaswami, J. Appl. Prob. 1993; Bini, Latouche
    & Meini, Numerical Methods for Structured Markov Chains, 2005).

    The walk is skip-free, so the chain censored to any set of levels is
    block tridiagonal, and levels 1..N-1 share one triple (dn, local, up).
    Every censoring step is one `_censor`, W = into (I - local)^-1 (one GTH
    factor, two right-side triangular solves), and one product.  Levels 0
    and N go first, W0 = d1 (I - l0)^-1 and WN = u1 (I - lN)^-1, so level 1
    goes up by up and level N-1 down by dn.  Until one level is left, a
    stage censors out the top one if the count is even, W = up (I - lt)^-1
    and lt <- W dn plus the local block below, and else every second one:
    W = [up; dn] M^-1, M = I - local, and one product P = W [up | dn] gives
    the kept levels up H, dn L and local + up L + dn H (bottom + up L, top
    + dn H), the H^2, L^2, HL + LH step of logarithmic reduction.  At most
    2 ceil(log2(N + 1)) + 1 blocks are factored (15 at N = 300).  The steps
    are replayed in reverse, one product each: pi of the levels a step
    censored out is W times pi of the levels they step in from,
    pi_odd = [pi_below | pi_above] W.

    The blocks, and pi P for the residual |pi P - pi|_1, are read off
    a[di + 1, dj + 1, i, j], the probability of the step (i, j) ->
    (i + di, j + dj) (`grid_steps` over its row sums).  Every block, W and
    exit mass is a sum of nonnegative terms, so no operation subtracts and
    the stationary vector keeps componentwise relative accuracy at any
    magnitude, which the tail fits require.
    """
    require_stable(model)
    if n_grid < 32:
        raise ValueError("grid must be at least 32")
    n = n_grid + 1
    a = _steps(model, n_grid)
    # level i's steps to level i + d - 1, for level 0, level 1 and level N
    l0, u0, d1, loc, u1, dN, lN = (
        _add_tridiag(np.zeros((n, n), order="F"), a[d, :, i])
        for d, i in ((1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, n_grid), (1, n_grid)))
    w0, wN = _censor(d1, l0, u0.sum(axis=1)), _censor(u1, lN, dN.sum(axis=1))
    # scipy's BLAS for every product, for the reason given in `_gth_lu`
    lb, lt = blas.dgemm(1.0, w0, u0, 1.0, loc), blas.dgemm(1.0, wN, dN, 1.0, loc)
    # (levels solved, the levels each is solved from, W)
    stages = [([0], [[1]], w0), ([n_grid], [[n_grid - 1]], wN)]
    up, dn, levels = u1, d1, np.arange(1, n_grid)  # levels left, by index
    while len(levels) > 1:
        if len(levels) % 2 == 0:  # the top level; the one below is the new top
            w = _censor(up, lt, dn.sum(axis=1))
            stages.append((levels[-1:], levels[-2:-1, None], w))
            lt = blas.dgemm(1.0, w, dn, 1.0, lb if len(levels) == 2 else loc)
            levels = levels[:-1]
        else:
            w = _censor(np.vstack((up, dn)), loc, up.sum(axis=1) + dn.sum(axis=1))
            stages.append((levels[1::2], np.column_stack((levels[:-1:2], levels[2::2])), w))
            p = blas.dgemm(1.0, w, np.hstack((up, dn)))
            lb += p[:n, n:]
            lt += p[n:, :n]
            loc = loc + p[:n, n:] + p[n:, :n]
            up, dn = np.asfortranarray(p[:n, :n]), np.asfortranarray(p[n:, n:])
            levels = levels[::2]
    # level 1 reversed, so that the state left after elimination is (1, 0):
    # pi_1 is then the last row of L^{-1}
    g = np.negative(lt[::-1, ::-1], order="F")
    _gth_lu(g, np.zeros(n))
    pi = np.empty((n, n))
    pi[1] = blas.dtrsm(1.0, g, np.eye(1, n, n - 1), side=1, lower=1, diag=1)[0, ::-1]
    for solved, sources, w in reversed(stages):
        pi[solved] = blas.dgemm(1.0, pi[sources].reshape(len(solved), -1), w)
    pi /= pi.sum()
    flow = np.zeros((n + 2, n + 2))  # pi P, padded by the states one step out
    for di in range(3):
        for dj in range(3):
            flow[di:di + n, dj:dj + n] += a[di, dj] * pi
    residual = float(np.abs(flow[1:-1, 1:-1] - pi).sum())
    return EmpiricalStationaryDistribution(
        n_grid=n_grid, pi=pi, residual=residual, levels_factored=len(stages) + 1)


def extract(dist: EmpiricalStationaryDistribution, direction: str) -> TailSequence:
    """Boundary directions give the ray probabilities; marginal and diagonal
    directions give survival sequences."""
    pi = dist.pi
    if direction == "boundary1":
        vals = pi[:, 0].copy()
    elif direction == "boundary2":
        vals = pi[0, :].copy()
    elif direction == "marginal1":
        vals = np.cumsum(pi.sum(axis=1)[::-1])[::-1]
    elif direction == "marginal2":
        vals = np.cumsum(pi.sum(axis=0)[::-1])[::-1]
    elif direction == "diagonal":
        n = pi.shape[0]
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        anti = np.bincount((ii + jj).ravel(), weights=pi.ravel(), minlength=2 * n - 1)
        vals = np.cumsum(anti[::-1])[::-1]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return TailSequence(values=vals, source_n=dist.n_grid)


def _loglin_fit(ns: np.ndarray, logv: np.ndarray):
    """Least squares for log p = -n log a + kappa log n + c [+ d (-1)^n],
    the alternating column only when the window has at least 6 points.
    That column absorbs a period-2 modulation exactly, so it cannot bias the
    rate and exponent, and d = artanh(b) for p ~ (1 + b (-1)^n).
    Returns (log_rate, kappa, d, rss), with d = 0 without the column."""
    cols = [-ns, np.log(ns), np.ones_like(ns)]
    if len(ns) >= 6:
        cols.append((-1.0) ** ns)
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
    resid = logv - design @ coef
    d = coef[3] if len(coef) > 3 else 0.0
    return coef[0], coef[1], d, float(resid @ resid)


def fit_tail(seq: TailSequence) -> FittedAsymptotic:
    """Fit rate, exponent and parity oscillation on the window WINDOW_FRAC
    times the grid size N the sequence was extracted from, in one
    least-squares solve.

    The exponent is reported free (kappa_hat) and snapped to the nearest
    value of the lattice {-3/2, -1/2, 0, 1} (kappa_selected).  That is the
    lattice value whose pinned refit leaves the smallest residual: by
    Frisch-Waugh-Lovell, pinning it at kappa adds c (kappa - kappa_hat)^2,
    c >= 0, to the free fit's residual sum.  The oscillation amplitude b_hat
    is tanh of the fit's alternating coefficient.

    Every grid state of a validated model has positive probability (its
    grid chain is strongly connected) and the solve never subtracts, so an
    exact zero is float64 underflow: any zero in the window raises, naming
    where the first one is."""
    n0 = math.ceil(WINDOW_FRAC[0] * seq.source_n)
    n1 = math.floor(WINDOW_FRAC[1] * seq.source_n)
    if not (0 < n0 < n1 <= len(seq.values) - 1):
        raise ValueError(f"window {(n0, n1)} not inside the sequence range")
    if (n1 - n0) % 2 == 0:
        n1 -= 1  # balanced parities
    ns = np.arange(n0, n1 + 1, dtype=float)
    vals = seq.values[n0:n1 + 1]
    pos = vals > 0.0
    if not pos.all():
        raise ValueError(f"tail underflows float64 from n = {n0 + int(np.argmin(pos))} "
                         f"inside window {n0}..{n1}; a smaller grid can fit it")
    lr, kh, d, rss = _loglin_fit(ns, np.log(vals))
    return FittedAsymptotic(
        rate_hat=math.exp(lr), kappa_hat=float(kh),
        kappa_selected=min(KAPPA_LATTICE, key=lambda k: abs(k - kh)),
        b_hat=math.tanh(d), window=(n0, n1), residual_norm=math.sqrt(rss / len(ns)))


def verify(analytic: AsymptoticClass, fitted: FittedAsymptotic) -> VerificationReport:
    """Pass iff the fitted rate is within TOL_RATE (relative) of the
    analytic rate, the free exponent kappa_hat within TOL_KAPPA of the
    analytic exponent, and the oscillation agrees.

    The oscillation check is one-directional: a fitted oscillation above the
    threshold contradicts a plain class, but a periodic class tolerates an
    arbitrarily small fitted amplitude because the amplitude is a free
    constant in [-1, 1] (and survival sums provably damp it)."""
    rate_gap = abs(fitted.rate_hat / analytic.rate - 1.0)
    kappa_gap = abs(fitted.kappa_hat - analytic.kappa)
    periodic_match = analytic.periodic or abs(fitted.b_hat) <= B_THRESHOLD
    passed = rate_gap < TOL_RATE and kappa_gap < TOL_KAPPA and periodic_match
    return VerificationReport(
        passed=passed, rate_gap=float(rate_gap), kappa_gap=float(kappa_gap),
        periodic_match=periodic_match, fitted=fitted)


def verify_model(model: ValidatedModel, n_grid: int = 300,
                 dist: EmpiricalStationaryDistribution | None = None,
                 ) -> dict[str, VerificationReport]:
    """Solve once (unless dist is given), then fit each of the five
    directions on the window WINDOW_FRAC times N, with the exponent
    snapped to the nearest lattice value, and verify it."""
    if dist is None:
        dist = solve_truncated(model, n_grid)
    analytic = classes(model)
    return {
        direction: verify(analytic[direction], fit_tail(extract(dist, direction)))
        for direction in DIRECTIONS
    }
