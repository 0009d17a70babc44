import numpy as np
import pytest

from heisenpde.fields import NumericField, PolynomialField, parse_polynomial
from heisenpde.grid import Grid3, GridFunction
from heisenpde.operators import EllipticityBracket, HolderData
from heisenpde.regularity import (
    alpha_target,
    check_theorem,
    default_radii,
    fit_alpha,
    fit_loglog,
    holder_seminorm,
    modulus,
    sample_pairs,
    theorem_bound,
)


def grid_box(n=17, half=1.0):
    return Grid3.box((-half, -half, -half), (half, half, half), (n, n, n))


def test_sample_pairs_respects_box_and_radii():
    box = (np.array([-0.8, -0.8, -0.8]), np.array([0.8, 0.8, 0.8]))
    radii = np.array([0.1, 0.4])
    xs, ys, strata = sample_pairs(box, radii, 500, seed=1)
    assert np.all(xs >= box[0]) and np.all(xs <= box[1])
    assert np.all(ys >= box[0]) and np.all(ys <= box[1])
    d = np.linalg.norm(xs - ys, axis=1)
    for k, r in enumerate(radii):
        dk = d[strata == k]
        assert dk.size > 0
        assert np.all(dk >= 0.9 * r - 1e-12) and np.all(dk <= 1.1 * r + 1e-12)
    # deterministic given the seed
    xs2, ys2, _ = sample_pairs(box, radii, 500, seed=1)
    assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)


def test_sample_pairs_rejects_oversized_radius():
    box = (np.zeros(3), np.ones(3) * 0.1)
    with pytest.raises(ValueError):
        sample_pairs(box, np.array([10.0, 20.0]), 10, seed=0)


def test_modulus_constant_and_monotone():
    u = GridFunction.from_field(grid_box(), PolynomialField.constant(2.5))
    radii, _ = default_radii(u)
    pts = modulus(u, radii, per_radius=200)
    assert all(w == 0.0 for _, w in pts)
    lin = GridFunction.from_field(grid_box(), PolynomialField.coordinate(0))
    pts = modulus(lin, radii, per_radius=500)
    ws = [w for _, w in pts]
    assert all(b >= a for a, b in zip(ws, ws[1:]))
    with pytest.raises(ValueError):
        modulus(lin, [0.1], per_radius=10)


def test_modulus_linear_scales_with_radius():
    lin = GridFunction.from_field(grid_box(33), PolynomialField.coordinate(0))
    radii = np.array([0.05, 0.1, 0.2, 0.4])
    pts = modulus(lin, radii, per_radius=4000, seed=3)
    for r, w in pts:
        assert 0.85 * r <= w <= 1.1 * r + 1e-12


def default_pairs(u, n_pairs=200_000):
    """check_theorem's pair draw: n_pairs split over u's default radii, seed 0."""
    radii, box = default_radii(u)
    xs, ys, _ = sample_pairs(box, radii, n_pairs // radii.size, seed=0)
    return xs, ys


def test_holder_seminorm_cases():
    u = GridFunction.from_field(grid_box(), PolynomialField.constant(1.0))
    pairs = default_pairs(u)
    assert holder_seminorm(u, 0.5, pairs) == 0.0
    sqrt_field = NumericField(lambda pts: np.sqrt(np.linalg.norm(pts, axis=1)))
    us = GridFunction.from_field(grid_box(33), sqrt_field)
    s = holder_seminorm(us, 0.5, default_pairs(us, 100_000))
    assert s <= 1.05
    assert s > 0.5
    with pytest.raises(ValueError):
        holder_seminorm(u, 0.0, pairs)
    with pytest.raises(ValueError):
        holder_seminorm(u, 1.2, pairs)


def test_holder_seminorm_monotone_in_alpha_small_domain():
    # on a domain of diameter < 1 all pair distances are < 1, so r^-alpha
    # grows with alpha
    g = grid_box(17, half=0.2)
    u = GridFunction.from_field(g, parse_polynomial("x1 + 0.5 x2 x3"))
    pairs = default_pairs(u, 20_000)
    s1 = holder_seminorm(u, 0.3, pairs)
    s2 = holder_seminorm(u, 0.8, pairs)
    assert s1 <= s2


def test_fit_loglog_exact_on_powerlaw():
    radii = np.geomspace(0.01, 1.0, 12)
    for a, L in ((0.5, 1.0), (1.0, 2.5), (0.3, 0.1)):
        slope, amp, r2 = fit_loglog(radii, L * radii**a)
        assert abs(slope - a) <= 1e-6
        assert abs(amp - L) <= 1e-6 * L
        assert r2 >= 1.0 - 1e-12


def test_fit_alpha_on_profiles():
    sqrt_field = NumericField(lambda pts: np.sqrt(np.linalg.norm(pts, axis=1)))
    us = GridFunction.from_field(grid_box(33), sqrt_field)
    a, L, r2, degenerate = fit_alpha(us, per_radius=3000)
    assert not degenerate
    assert abs(a - 0.5) <= 0.05
    lin = GridFunction.from_field(grid_box(33), PolynomialField.coordinate(0))
    a, L, r2, degenerate = fit_alpha(lin, per_radius=3000)
    assert not degenerate
    assert abs(a - 1.0) <= 0.05
    const = GridFunction.from_field(grid_box(), PolynomialField.constant(3.0))
    a, L, r2, degenerate = fit_alpha(const)
    assert degenerate
    assert (a, L) == (1.0, 0.0)


def test_theorem_bound_examples():
    b = EllipticityBracket(1.0, 2.0)
    hd = HolderData(c0=1.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    assert theorem_bound(hd, b) == 0.25
    hd8 = HolderData(c0=8.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    assert theorem_bound(hd8, EllipticityBracket(1.0, 1.0)) == 4.0
    assert alpha_target(hd8, EllipticityBracket(1.0, 1.0)) == 1.0
    # scaling (c0, Lam) -> (t c0, t Lam) leaves the bound unchanged
    hd_t = HolderData(c0=3.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    b_t = EllipticityBracket(3.0, 6.0)
    assert theorem_bound(hd_t, b_t) == theorem_bound(hd, b)


def test_check_theorem_end_to_end_small():
    from heisenpde.fields import smooth_abs_field
    from heisenpde.operators import OperatorSpec
    from heisenpde.solver import ProblemSpec, refine_problem, solve

    op = OperatorSpec.sublaplacian()
    one = PolynomialField.constant(1)
    f = smooth_abs_field(eps=0.1, scale=1.0, offset=-1.0)
    prob = ProblemSpec(op, one, f, PolynomialField.constant(0), grid_box(17), tol=1e-6)
    coarse = solve(prob)
    fine = solve(refine_problem(prob))
    assert coarse.converged and fine.converged
    hd = HolderData(c0=1.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    b = EllipticityBracket(1.0, 1.0)
    report = check_theorem(coarse, fine, hd, b, n_pairs=50_000)
    assert report.alpha_target == 0.45
    assert report.bound_c0_2Lambda == 0.5
    assert report.stability_checked
    assert report.seminorm_rel_change < 0.2
    assert report.passed, report
    assert not report.c0_exceeds_8


def test_check_theorem_rejects_unconverged(monkeypatch):
    from heisenpde.operators import OperatorSpec
    from heisenpde.solver import ProblemSpec, _Multilevel, solve

    op = OperatorSpec.sublaplacian()
    one = PolynomialField.constant(1)
    # a cap of one cycle stops the solve far from tol
    monkeypatch.setattr(_Multilevel, "MAX_CYCLES", 1)
    prob = ProblemSpec(op, one, one, PolynomialField.constant(0), grid_box(9), tol=1e-14)
    res = solve(prob)
    assert not res.converged
    hd = HolderData(c0=1.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    with pytest.raises(ValueError):
        check_theorem(res, None, hd, EllipticityBracket(1.0, 1.0))


def test_check_theorem_constant_solution():
    # c = 1, f = -k, boundary = k: u = k solves trace(D^{2,*}u) - u = -k
    from heisenpde.operators import OperatorSpec
    from heisenpde.solver import ProblemSpec, refine_problem, solve

    op = OperatorSpec.sublaplacian()
    one = PolynomialField.constant(1)
    k = PolynomialField.constant(2.0)
    prob = ProblemSpec(op, one, PolynomialField.constant(-2.0), k, grid_box(9), tol=1e-8)
    coarse = solve(prob)
    fine = solve(refine_problem(prob))
    hd = HolderData(c0=1.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    report = check_theorem(coarse, fine, hd, EllipticityBracket(1.0, 1.0), n_pairs=20_000)
    assert report.seminorm_at_target <= 1e-6
    assert report.degenerate_fit
    assert report.passed


def per_stratum_polish(u, xs, ys, vals, box, r_lo, r_hi, top=6, rounds=14):
    """The one-stratum-at-a-time polish that the stacked polish replaced,
    kept as its oracle."""
    lo, hi = box
    order = np.argsort(vals)[-top:]
    x = xs[order].copy()
    y = ys[order].copy()
    best = vals[order].copy()
    step = 0.5 * r_hi
    moves = np.concatenate([np.eye(3), -np.eye(3)])
    for _ in range(rounds):
        for which in (0, 1):
            for m in moves:
                cx = x + step * m if which == 0 else x.copy()
                cy = y + step * m if which == 1 else y.copy()
                np.clip(cx, lo, hi, out=cx)
                np.clip(cy, lo, hi, out=cy)
                d = cy - cx
                dist = np.linalg.norm(d, axis=1)
                bad = dist < 1e-12
                dist[bad] = 1.0
                clipped = np.clip(dist, r_lo, r_hi)
                cy = cx + d * (clipped / dist)[:, None]
                ok = np.all((cy >= lo) & (cy <= hi), axis=1) & ~bad
                if not ok.any():
                    continue
                cand = np.abs(u.value_batch(cx[ok]) - u.value_batch(cy[ok]))
                rows_all = np.nonzero(ok)[0]
                improve = cand > best[rows_all]
                rows = rows_all[improve]
                best[rows] = cand[improve]
                x[rows] = cx[rows]
                y[rows] = cy[rows]
        step *= 0.6
    return float(best.max())


def per_stratum_modulus(u, radii, margin=0.1, per_radius=2000, seed=0):
    radii = np.asarray(radii, dtype=float)
    box = u.grid.margin_box(margin)
    xs, ys, strata = sample_pairs(box, radii, per_radius, seed)
    du = np.abs(u.value_batch(xs) - u.value_batch(ys))
    omegas = np.zeros(radii.size)
    for k, r in enumerate(radii):
        sel = strata == k
        omegas[k] = du[sel].max()
        omegas[k] = max(
            omegas[k], per_stratum_polish(u, xs[sel], ys[sel], du[sel], box, 0.9 * r, 1.1 * r)
        )
    omegas = np.maximum.accumulate(omegas)
    return list(zip(radii.tolist(), omegas.tolist()))


class CountingGridFunction(GridFunction):
    calls = 0

    def value_batch(self, pts):
        self.calls += 1
        return super().value_batch(pts)


def cusp_grid(n):
    """sum |x_i - c_i|^0.6 on an off-centre, non-dyadic grid."""
    grid = Grid3.box((-0.9, -1.1, -0.7), (1.3, 0.8, 1.2), (n, n + 2, n - 2))
    c = np.array([0.23, -0.31, 0.17])
    field = NumericField(lambda pts: np.sum(np.abs(pts - c) ** 0.6, axis=1))
    return CountingGridFunction(grid, GridFunction.from_field(grid, field).values)


@pytest.mark.parametrize("n, per_radius, seed", [(33, 2000, 0), (17, 400, 5), (17, 4, 2)])
def test_stacked_polish_matches_per_stratum_oracle(n, per_radius, seed):
    u = cusp_grid(n)
    radii, _ = default_radii(u)
    got = modulus(u, radii, per_radius=per_radius, seed=seed)
    assert u.calls <= 2 + 14 * 2 * 6 * 2
    assert got == per_stratum_modulus(u, radii, per_radius=per_radius, seed=seed)
    # the polish must move some stratum above the best sampled pair
    xs, ys, strata = sample_pairs(u.grid.margin_box(0.1), radii, per_radius, seed)
    du = np.abs(u.value_batch(xs) - u.value_batch(ys))
    unpolished = np.maximum.accumulate([du[strata == k].max() for k in range(radii.size)])
    assert any(w > w0 for (_, w), w0 in zip(got, unpolished))
