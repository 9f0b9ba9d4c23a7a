"""Censored-chain solver, tail extraction, fitting, and verification."""

import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

import qbd_tails as qt
from qbd_tails import oracle
from qbd_tails.asymptotics import DIRECTIONS
from qbd_tails.model import ValidatedModel, require_stable
from qbd_tails.oracle import (
    KAPPA_LATTICE,
    EmpiricalStationaryDistribution,
    TailSequence,
    _add_tridiag,
    _gth_lu,
    _steps,
    censored_matrix,
    extract,
    fit_tail,
    solve_truncated,
    verify,
    verify_model,
)


def test_censored_matrix_rows_stochastic(product, jackson_paper):
    mat = censored_matrix(product, 40)
    sums = np.asarray(mat.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-14)
    # every entry of the paper network's matrix (four distinct faces,
    # self-loops, the corner state) against a plain per-state construction
    n = 13
    want = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            face = ("origin", "boundary2", "boundary1", "interior")[2 * (i > 0) + (j > 0)]
            for di, dj, p in jackson_paper.kernel(face).entries:
                if 0 <= i + di < n and 0 <= j + dj < n:
                    want[i * n + j, (i + di) * n + j + dj] += p
    want /= want.sum(axis=1, keepdims=True)
    got = censored_matrix(jackson_paper, n - 1).toarray()
    assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("n_grid", [6, 7, 8, 32])
def test_grid_chain_strongly_connected(n_grid, named, corpus20):
    # the premise of fit_tail's rule that an exact zero in pi is underflow:
    # every grid state reaches every other, so none has probability zero;
    # N = 6 is the window `validate` checks irreducibility on
    for model in named + corpus20:
        assert connected_components(censored_matrix(model, n_grid),
                                    connection="strong")[0] == 1


def test_solver_requires_stability_and_minimum_grid(product):
    with pytest.raises(qt.UnstableModelError):
        solve_truncated(qt.jackson_model(4, 5, 4, 0.25, 0.4), 64)
    with pytest.raises(ValueError):
        solve_truncated(product, 16)


def test_solver_matches_product_form(product):
    dist = solve_truncated(product, 64)
    assert dist.residual < 1e-11
    assert dist.pi.sum() == pytest.approx(1.0, abs=1e-12)
    # censoring keeps detailed balance, so pi(i, j) is proportional to
    # 3^-(i+j) times the in-grid row sum, which misses the arrivals at N
    k = np.arange(65)
    sums = 1.0 - 0.1 * (k[:, None] == 64) - 0.15 * (k[None, :] == 64)
    want = np.outer(3.0 ** -k, 3.0 ** -k) * sums
    want /= want.sum()
    assert np.abs(dist.pi / want - 1.0).max() < 1e-12


def _elim_span(g, base, k_hi, k_lo, band, cols, outs):
    tmp = np.empty((band, band))
    for k in range(k_hi, k_lo - 1, -1):
        t = k - base
        w = band if k >= band else k
        lo = t - w
        out_row = g[t, lo:t]
        in_col = g[lo:t, t]
        sk = out_row.sum()
        outs[k] = sk
        cols[k, :w] = in_col
        if sk > 0.0:
            blk = tmp[:w, :w]
            np.multiply(in_col[:, None], out_row[None, :], out=blk)
            blk /= sk
            g[lo:t, lo:t] += blk


def _solve_banded(model: ValidatedModel, n_grid: int) -> EmpiricalStationaryDistribution:
    """Reference: the banded scalar GTH solver that level reduction
    replaced.  Stationary distribution of the chain censored to {0..N}^2
    (outward mass renormalized into each row), by subtraction-free
    elimination (GTH) exploiting the banded structure of the lexicographic
    state order.

    Every arithmetic operation is an addition, multiplication or division of
    nonnegative numbers, so the stationary vector keeps componentwise
    relative accuracy at any magnitude, which the tail fits require.
    """
    require_stable(model)
    if n_grid < 32:
        raise ValueError("grid must be at least 32")
    n = n_grid + 1
    size = n * n
    band = n + 1  # largest index jump of a skip-free move
    arcs = censored_matrix(model, n_grid).tocoo()  # sorted by row
    src, tgt, p = arcs.row, arcs.col, arcs.data
    chunk = max(256, 2 * band)
    buf_dim = min(band + 1 + chunk, size)

    def fill_arcs(g: np.ndarray, gbase: int, lo: int, hi: int, cutoff: int) -> None:
        """Write the original censored arcs u -> v with u, v in [lo, hi] and
        at least one endpoint below `cutoff` into the dense buffer."""
        a, b = np.searchsorted(src, (lo, hi + 1))
        u, v, q = src[a:b], tgt[a:b], p[a:b]
        keep = (v >= lo) & (v <= hi) & ((u < cutoff) | (v < cutoff))
        g[u[keep] - gbase, v[keep] - gbase] = q[keep]

    g = np.zeros((buf_dim, buf_dim))
    base = size - buf_dim
    fill_arcs(g, base, base, size - 1, size)
    cols = np.zeros((size, band))  # in-arcs of k at elimination time
    outs = np.zeros(size)  # surviving out-mass of k at elimination time
    k = size - 1
    while k >= 1:
        k_lo = base + band if base > 0 else 1
        _elim_span(g, base, k, k_lo, band, cols, outs)
        k = k_lo - 1
        if k < 1:
            break
        # slide the buffer down a chunk; fill-in lives only in the block of
        # the band surviving states [base, base + band - 1]
        new_base = max(base - chunk, 0)
        shift = base - new_base
        blk = g[:band, :band].copy()
        g[:, :] = 0.0
        g[shift:shift + band, shift:shift + band] = blk
        fill_arcs(g, new_base, new_base, k, base)
        base = new_base
    pi = np.zeros(size)
    pi[0] = 1.0
    for k in range(1, size):
        w = min(band, k)
        pi[k] = float(np.dot(pi[k - w:k], cols[k, :w])) / outs[k]
    pi /= pi.sum()
    flow = np.bincount(tgt, weights=pi[src] * p, minlength=size)  # pi P
    residual = float(np.abs(flow - pi).sum())
    return EmpiricalStationaryDistribution(
        n_grid=n_grid, pi=pi.reshape(n, n), residual=residual,
        levels_factored=n_grid + 1)


def test_level_reduction_matches_banded_solver(
        product, jackson_paper, jackson_q0_geometric, jackson_q0_branch, x_shaped):
    for model in (product, jackson_paper, jackson_q0_geometric,
                  jackson_q0_branch, x_shaped):
        got = solve_truncated(model, 100).pi
        want = _solve_banded(model, 100).pi
        assert np.array_equal(got == 0.0, want == 0.0)
        big = want > 1e-290
        assert np.abs(got[big] / want[big] - 1.0).max() <= 1e-10


def _solve_levels(model: ValidatedModel, n_grid: int) -> EmpiricalStationaryDistribution:
    """Reference: linear level reduction, factoring levels N..1 in turn and
    back-substituting level by level."""
    require_stable(model)
    if n_grid < 32:
        raise ValueError("grid must be at least 32")
    n = n_grid + 1
    a = _steps(model, n_grid)
    lu = np.empty((n, n, n), order="F")  # level i's GTH factor in lu[:, :, i]
    piv = np.arange(n, dtype=np.int32)  # no row interchanges (0-based)
    s = _add_tridiag(np.zeros((n, n)), a[1, :, n_grid])
    for i in range(n_grid, 0, -1):
        g = lu[:, :, i]
        np.negative(s, out=g)
        _gth_lu(g, -a[0, :, i].sum(axis=0))
        rhs = _add_tridiag(np.zeros((n, n), order="F"), a[0, :, i])
        x, _ = lapack.dgetrs(g, piv, rhs, overwrite_b=1)
        up = a[2, :, i - 1]
        s = up[1][:, None] * x
        s[1:] += up[0, 1:, None] * x[:-1]
        s[:-1] += up[2, :-1, None] * x[1:]
        _add_tridiag(s, a[1, :, i - 1])
    # level 0 reversed, so that the state left after elimination is (0, 0):
    # pi_0 is then the last row of L^{-1}
    g = np.asfortranarray(-s[::-1, ::-1])
    _gth_lu(g, np.zeros(n))
    unit = np.zeros((n, 1))
    unit[-1] = 1.0
    last, _ = lapack.dtrtrs(g, unit, lower=1, trans=1, unitdiag=1)
    pi = np.empty((n, n))
    pi[0] = last[::-1, 0]
    for i in range(1, n):
        up = a[2, :, i - 1]
        b = up[1] * pi[i - 1]
        b[:-1] += up[0, 1:] * pi[i - 1, 1:]
        b[1:] += up[2, :-1] * pi[i - 1, :-1]
        x, _ = lapack.dgetrs(lu[:, :, i], piv, b[:, None], trans=1)
        pi[i] = x[:, 0]
    pi /= pi.sum()
    flow = np.zeros((n + 2, n + 2))  # pi P, padded by the states one step out
    for di in range(3):
        for dj in range(3):
            flow[di:di + n, dj:dj + n] += a[di, dj] * pi
    residual = float(np.abs(flow[1:-1, 1:-1] - pi).sum())
    return EmpiricalStationaryDistribution(
        n_grid=n_grid, pi=pi, residual=residual, levels_factored=n_grid + 1)


TINY = np.finfo(float).tiny
NAMED = ("product", "jackson_paper", "jackson_q0_geometric", "jackson_q0_branch",
         "x_shaped", "tangent", "degenerate_tangent", "double_pole")


def _pinned_kappa(seq: TailSequence, window: tuple[int, int]) -> float:
    """Reference for `fit_tail`'s kappa_selected: refit the window, whose
    values are all positive, with the exponent pinned to each lattice
    value, and return the one with the smallest residual sum."""
    n0, n1 = window
    ns = np.arange(n0, n1 + 1, dtype=float)
    logv = np.log(seq.values[n0:n1 + 1])
    cols = [-ns, np.ones_like(ns)]
    if len(ns) >= 6:
        cols.append((-1.0) ** ns)
    design = np.column_stack(cols)

    def rss(kappa):
        target = logv - kappa * np.log(ns)
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        resid = target - design @ coef
        return float(resid @ resid)

    return min(KAPPA_LATTICE, key=rss)


def _assert_kappa_snapped(dist: EmpiricalStationaryDistribution, fits) -> None:
    """Each direction's kappa_selected is its smallest-residual lattice value."""
    for direction, f in fits.items():
        seq = extract(dist, direction)
        assert f.kappa_selected == _pinned_kappa(seq, f.window), (
            dist.n_grid, direction, f.kappa_hat, f.kappa_selected)


def _assert_matches_levels(model: ValidatedModel, n_grid: int) -> EmpiricalStationaryDistribution:
    """solve_truncated against the every-level reference `_solve_levels`:
    the same zero pattern, 1e-12 relative on the cells of normal float64
    magnitude and `tiny` absolute on the cells below it (the two reductions
    sum in different orders), a residual at most 1e-15, and the same
    verdicts.  Returns the solver's distribution."""
    got, want = solve_truncated(model, n_grid), _solve_levels(model, n_grid)
    assert np.array_equal(got.pi == 0.0, want.pi == 0.0)
    normal = want.pi >= TINY
    assert np.abs(got.pi[normal] / want.pi[normal] - 1.0).max() <= 1e-12
    assert np.abs(got.pi[~normal] - want.pi[~normal]).max(initial=0.0) <= TINY
    assert got.residual <= 1e-15
    verdicts = [{d: r.passed for d, r in verify_model(model, n_grid, dist).items()}
                for dist in (got, want)]
    assert verdicts[0] == verdicts[1]
    return got


@pytest.mark.parametrize("name", NAMED)
def test_solver_matches_every_level_reference(name, request):
    """The solver against the every-level reference on the named models."""
    model = request.getfixturevalue(name)
    for n_grid in (32, 100, 150):
        got = _assert_matches_levels(model, n_grid)
        _assert_kappa_snapped(got, {d: fit_tail(extract(got, d)) for d in DIRECTIONS})


@pytest.mark.parametrize("params", [(0.1, 0.3, 0.15, 0.45), (0.001, 0.499, 0.001, 0.499)])
def test_solver_matches_every_level_reference_on_the_benchmark_grid(params):
    model = qt.independent_mm1(*params)
    got = _assert_matches_levels(model, 200)
    assert got.levels_factored == 14
    # both models pass all five directions; the rate-499 model's fit
    # window holds subnormal values, which must not read as a parity
    # oscillation
    reports = verify_model(model, n_grid=200, dist=got)
    assert all(r.passed for r in reports.values()), {
        d: (r.rate_gap, r.kappa_gap, r.fitted.b_hat) for d, r in reports.items()}


def _halvings(n_grid: int) -> tuple[int, int]:
    """(halving stages, top steps) of the cyclic reduction on levels
    1..N-1, the levels left once levels 0 and N are censored out."""
    count, halvings, tops = n_grid - 1, 0, 0
    while count > 1:
        if count % 2:
            count, halvings = (count + 1) // 2, halvings + 1
        else:
            count, tops = count - 1, tops + 1
    return halvings, tops


@pytest.mark.parametrize("n_grid", (32, 33, 63, 64, 65, 127, 128, 129))
def test_cyclic_reduction_stages(n_grid, jackson_paper, x_shaped, double_pole):
    # once levels 0 and N come off, N - 1 = 2^k - 1 levels leave an odd
    # count at every halving, so each halving but the first takes a top step
    # before it (the most factors); N - 1 = 2^k + 1 halves at every stage
    # but the last
    for model in (jackson_paper, x_shaped, double_pole):
        got = _assert_matches_levels(model, n_grid)
        assert got.levels_factored <= 2 * math.ceil(math.log2(n_grid + 1)) + 1


@pytest.mark.parametrize("n_grid", (64, 65))
def test_one_product_per_halving_stage(n_grid, x_shaped, monkeypatch):
    # a halving stage makes one product, P = W [up | dn], and its right
    # operand [up | dn] is the solve's only one of shape (n, 2n); the
    # back-substitution makes one product per censoring step, pi[solved] =
    # [pi[sources]] W, the only products whose left operand has fewer than
    # n rows and n or 2n columns (a GTH factor's L21 has fewer than n)
    n = n_grid + 1
    dgemm, shapes = oracle.blas.dgemm, []

    def counted(alpha, a, b, *args, **kwargs):
        shapes.append((np.shape(a), np.shape(b)))
        return dgemm(alpha, a, b, *args, **kwargs)

    monkeypatch.setattr(oracle.blas, "dgemm", counted)
    got = solve_truncated(x_shaped, n_grid)
    halvings, tops = _halvings(n_grid)
    assert [b for _, b in shapes].count((n, 2 * n)) == halvings
    assert got.levels_factored == halvings + tops + 3
    replayed = [a for a, _ in shapes if a[0] < n and a[1] in (n, 2 * n)]
    assert len(replayed) == got.levels_factored - 1


def test_interior_levels_have_the_same_steps(jackson_paper, x_shaped):
    # the cyclic reduction of solve_truncated rests on this: levels 1..N-1
    # see the same step masses, bit for bit, so one factor of their shared
    # block serves every odd level of a stage
    for model in (jackson_paper, x_shaped):
        a = _steps(model, 60)
        for k in range(2, 60):
            assert np.array_equal(a[:, :, k, :], a[:, :, 1, :]), k


def _solve_gth_mp(model, n_grid, dps=40):
    """Scalar GTH of the censored chain in mpmath at dps digits, on the
    float64 entries of `censored_matrix` taken as exact, eliminating states
    from the last down with sparse rows.  Returns pi rounded to float64."""
    n = n_grid + 1
    size = n * n
    arcs = censored_matrix(model, n_grid).tocoo()
    src, tgt, p = arcs.row, arcs.col, arcs.data
    with mpmath.workdps(dps):
        out = [{} for _ in range(size)]  # out[u][v]: rate u -> v among the states left
        into = [set() for _ in range(size)]  # sources of arcs into v
        for u, v, q in zip(src.tolist(), tgt.tolist(), p.tolist()):
            if u != v:
                out[u][v] = mpmath.mpf(q)
                into[v].add(u)
        ins, sums = [None] * size, [None] * size
        for k in range(size - 1, 0, -1):
            row = out[k]
            sums[k] = mpmath.fsum(row.values())
            ins[k] = {u: out[u].pop(k) for u in into[k] if u < k}
            for u, a in ins[k].items():
                f = a / sums[k]
                ru = out[u]
                for v, q in row.items():
                    if v == u:
                        continue
                    if v in ru:
                        ru[v] += f * q
                    else:
                        ru[v] = f * q
                        into[v].add(u)
        pi = [mpmath.mpf(1)] + [None] * (size - 1)
        for k in range(1, size):
            pi[k] = mpmath.fsum(pi[u] * a for u, a in ins[k].items()) / sums[k]
        total = mpmath.fsum(pi)
        return np.array([float(x / total) for x in pi]).reshape(n, n)


def test_solver_matches_mpmath_reference(jackson_paper):
    want = _solve_gth_mp(jackson_paper, 32)
    got = solve_truncated(jackson_paper, 32).pi
    assert want.min() > 0.0
    assert np.abs(got / want - 1.0).max() <= 1e-12


def _solve_power(model, n_grid, tol=1e-13, max_sweeps=2_000_000):
    """Damped power iteration pi <- pi (I + P) / 2; the damping kills
    period-2 modes.  Converges in total variation but cannot resolve the
    far tail componentwise.  Returns (pi, residual, converged)."""
    pt = censored_matrix(model, n_grid).T.tocsr()
    x = np.full(pt.shape[0], 1.0 / pt.shape[0])
    for _ in range(max_sweeps):
        y = 0.5 * x + 0.5 * (pt @ x)
        y /= y.sum()
        converged = np.abs(y - x).sum() < tol
        x = y
        if converged:
            break
    residual = float(np.abs(pt @ x - x).sum())
    return x.reshape(n_grid + 1, n_grid + 1), residual, converged


def test_power_method_agrees_in_bulk(product):
    gth = solve_truncated(product, 48)
    pi, residual, converged = _solve_power(product, 48)
    assert converged and residual < 1e-11
    assert np.abs(gth.pi - pi).sum() < 1e-10


def test_truncation_stability_of_rates(product, corpus20):
    # doubling the grid moves the fitted rates by less than a tenth percent
    for m in [product] + corpus20[:3]:
        d1 = solve_truncated(m, 75)
        d2 = solve_truncated(m, 150)
        for direction in ("boundary1", "marginal2", "diagonal"):
            r1 = fit_tail(extract(d1, direction)).rate_hat
            r2 = fit_tail(extract(d2, direction)).rate_hat
            assert abs(r2 / r1 - 1.0) < 1e-3, (direction, r1, r2)


def test_extract_directions(product):
    dist = solve_truncated(product, 48)
    b1 = extract(dist, "boundary1")
    assert b1.values[0] == pytest.approx(dist.pi[0, 0])
    m1 = extract(dist, "marginal1")
    assert m1.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(m1.values) <= 1e-15)
    d = extract(dist, "diagonal")
    assert d.values[0] == pytest.approx(1.0, abs=1e-12)
    assert len(d.values) == 2 * 48 + 1
    with pytest.raises(ValueError):
        extract(dist, "antidiagonal")


def test_fit_exact_geometric():
    n = np.arange(0, 121)
    seq = TailSequence(2.0 * 3.0 ** (-n), 120)
    f = fit_tail(seq)
    assert f.rate_hat == pytest.approx(3.0, abs=1e-6)
    assert abs(f.kappa_hat) < 1e-3
    assert abs(f.b_hat) < 1e-9
    assert f.kappa_selected == 0.0


def test_fit_power_correction():
    n = np.arange(0, 121, dtype=float)
    vals = np.concatenate([[1.0], n[1:] ** -1.5]) * 2.0 ** (-n)
    f = fit_tail(TailSequence(vals, 120))
    assert f.rate_hat == pytest.approx(2.0, abs=1e-6)
    assert f.kappa_hat == pytest.approx(-1.5, abs=1e-3)
    assert f.kappa_selected == -1.5


@pytest.mark.parametrize("kappa", [0.0, -1.5])
@pytest.mark.parametrize("b", [-0.9, 0.5])
def test_fit_oscillation(b, kappa):
    n = np.arange(0, 121, dtype=float)
    vals = (1.0 + b * (-1.0) ** n) * np.maximum(n, 1.0) ** kappa * 3.0 ** (-n)
    f = fit_tail(TailSequence(vals, 120))
    assert f.rate_hat == pytest.approx(3.0, abs=1e-6)
    assert f.b_hat == pytest.approx(b, abs=1e-9)
    assert f.kappa_hat == pytest.approx(kappa, abs=1e-6)


def test_fit_amplitude_without_overflow():
    # the intercept is near 760, beyond exp's float range; b_hat is tanh of
    # the alternating coefficient alone and never forms exp(760)
    n = np.arange(301.0)
    f = fit_tail(TailSequence(np.exp(760 - 4 * np.maximum(n, 60)), 300))
    assert f.rate_hat == pytest.approx(math.exp(4), rel=1e-9)
    assert abs(f.b_hat) < 1e-9


def test_fit_amplitude_with_subnormal_values():
    # 499^-n is subnormal for n >= 115, inside the window (60, 119): the
    # rounded points must not read as a parity oscillation
    n = np.arange(201.0)
    f = fit_tail(TailSequence(499.0 ** -n, 200))
    assert f.window == (60, 119)
    assert abs(f.b_hat) < 1e-3


# N = 120 puts the fit window at 36..71, N = 123 at 37..72
@pytest.mark.parametrize("source_n", [120, 123], ids=["start_even", "start_odd"])
@pytest.mark.parametrize("parity", [0, 1], ids=["mass_even", "mass_odd"])
def test_fit_structural_period_two(parity, source_n):
    # no grid state of a validated model has probability zero, so one parity
    # at exact zero is underflow like any other zero, not b_hat = +-1
    n = np.arange(0, 121, dtype=float)
    vals = np.where(n % 2 == parity, np.maximum(n, 1.0) ** -0.5 * 2.0 ** (-n), 0.0)
    n0 = 36 if source_n == 120 else 37
    first = n0 if n0 % 2 != parity else n0 + 1
    with pytest.raises(ValueError) as err:
        fit_tail(TailSequence(vals, source_n))
    assert str(err.value) == (f"tail underflows float64 from n = {first} inside "
                              f"window {n0}..{n0 + 35}; a smaller grid can fit it")


def test_fit_rejects_nonperiodic_zeros():
    # a zero with positive values after it raises the same error
    vals = np.ones(121)
    vals[50] = 0.0
    with pytest.raises(ValueError) as err:
        fit_tail(TailSequence(vals, 120))
    assert str(err.value) == ("tail underflows float64 from n = 50 inside "
                              "window 36..71; a smaller grid can fit it")


def test_fit_names_underflow():
    # exact zeros from n = 60 to the end of the window 36..71
    vals = np.where(np.arange(121) < 60, 1.0, 0.0)
    with pytest.raises(ValueError) as err:
        fit_tail(TailSequence(vals, 120))
    assert str(err.value) == ("tail underflows float64 from n = 60 inside "
                              "window 36..71; a smaller grid can fit it")


def test_fit_rejects_bad_window():
    # N = 120 ends the window at 72, beyond the sequence's last index 60
    seq = TailSequence(np.ones(61), 120)
    with pytest.raises(ValueError, match="window"):
        fit_tail(seq)


def test_verify_pass_and_negative_control(product, monkeypatch):
    dist = solve_truncated(product, 120)
    fitted = fit_tail(extract(dist, "boundary1"))
    good = qt.AsymptoticClass(3.0, 0.0, False, "test")
    rep = verify(good, fitted)
    assert rep.passed and rep.rate_gap < 5e-3
    # a deliberately wrong exponent class must fail with a visible gap
    bad = qt.AsymptoticClass(3.0, -1.5, False, "test")
    rep_bad = verify(bad, fitted)
    assert not rep_bad.passed and rep_bad.kappa_gap > 1.0
    # an over-tight rate tolerance must fail somewhere: the diagonal carries
    # genuine truncation bias even though the boundary ray is exact
    fitted_diag = fit_tail(extract(dist, "diagonal"))
    good_diag = qt.AsymptoticClass(3.0, 1.0, False, "test")
    assert verify(good_diag, fitted_diag).passed
    monkeypatch.setattr(oracle, "TOL_RATE", 1e-9)
    rep_tight = verify(good_diag, fitted_diag)
    assert not rep_tight.passed


def test_verify_periodic_one_directional():
    fitted = fit_tail(TailSequence(3.0 ** (-np.arange(0, 121, dtype=float)), 120))
    periodic_cls = qt.AsymptoticClass(3.0, 0.0, True, "test")
    # a periodic class with a tiny fitted oscillation is consistent: the
    # oscillation amplitude is free in [-1, 1] and may vanish
    assert verify(periodic_cls, fitted).passed
    n = np.arange(0, 121, dtype=float)
    osc = fit_tail(TailSequence((1 + 0.4 * (-1) ** n) * 3.0 ** -n, 120))
    plain_cls = qt.AsymptoticClass(3.0, 0.0, False, "test")
    assert not verify(plain_cls, osc).passed


def test_verify_model_product_all_directions(product):
    reports = verify_model(product, n_grid=120)
    assert all(r.passed for r in reports.values())
    assert set(reports) == {"boundary1", "boundary2", "marginal1",
                            "marginal2", "diagonal"}


def test_verify_model_named_fixtures(tangent, double_pole):
    for model, kappas in ((tangent, {"boundary1": -0.5}),
                          (double_pole, {"boundary1": 1.0})):
        dist = solve_truncated(model, 240)
        reports = verify_model(model, n_grid=240, dist=dist)
        for direction, rep in reports.items():
            assert rep.rate_gap < 5e-3, (direction, rep.rate_gap)
        for direction, want in kappas.items():
            assert reports[direction].fitted.kappa_selected == want


def test_verify_corpus_all_directions(corpus20):
    for m in corpus20:
        dist = solve_truncated(m, 150)
        reports = verify_model(m, n_grid=150, dist=dist)
        for direction, rep in reports.items():
            assert rep.passed, (m.interior.entries, direction,
                                rep.rate_gap, rep.kappa_gap, rep.fitted.b_hat)
        _assert_kappa_snapped(dist, {d: r.fitted for d, r in reports.items()})


def _tail_csv(seq) -> str:
    """Columns n, p, log_p; log_p empty where the value is zero."""
    rows = ["n,p,log_p"]
    for n, p in enumerate(seq.values):
        logp = f"{math.log(p):.12g}" if p > 0 else ""
        rows.append(f"{n},{p:.12g},{logp}")
    return "\n".join(rows) + "\n"


def test_tail_sequence_csv(product):
    dist = solve_truncated(product, 48)
    seq = extract(dist, "boundary1")
    rows = _tail_csv(seq).strip().splitlines()
    assert rows[0] == "n,p,log_p"
    assert len(rows) == 50
    n, p, logp = rows[11].split(",")
    assert int(n) == 10
    assert math.log(float(p)) == pytest.approx(float(logp), rel=1e-9)
