from dataclasses import replace

import numpy as np
import pytest

from heisenpde.fields import NumericField, PolynomialField, parse_polynomial
from heisenpde.grid import Grid3, GridFunction
from heisenpde.operators import EllipticityBracket, HolderData
from heisenpde import regularity
from heisenpde.regularity import (
    _margin_values,
    _running_modulus,
    alpha_target,
    check_theorem,
    fit_alpha,
    fit_loglog,
    holder_seminorm,
    modulus,
    node_radii,
    radius_span,
    theorem_bound,
)
from heisenpde.rng import SplitMix64


def grid_box(n=17, half=1.0):
    return Grid3.box((-half, -half, -half), (half, half, half), (n, n, n))


def test_modulus_constant_and_monotone():
    u = GridFunction.from_field(grid_box(), PolynomialField.constant(2.5))
    assert all(w == 0.0 for _, w in modulus(u))
    u = GridFunction.from_field(grid_box(), NumericField(lambda pts: np.sin(7 * pts).sum(axis=1)))
    ws = [w for _, w in modulus(u)]
    assert all(b >= a for a, b in zip(ws, ws[1:]))


def test_modulus_linear_scales_with_radius():
    for n in (17, 33):
        lin = GridFunction.from_field(grid_box(n), PolynomialField.coordinate(0))
        pts = modulus(lin)
        assert [r for r, _ in pts] == node_radii(lin).tolist()
        assert all(w == r for r, w in pts)


ALPHAS = (0.3, 0.45, 1.0)


def all_node_pairs(u, margin=0.1):
    """The modulus and, at each of ALPHAS, the Holder seminorm with the
    sup-norm distance at which it is attained, each a max over every pair of
    margin-box nodes.  The modulus is max |u(x) - u(y)| over the pairs within
    r of each other on every axis, at each node radius r."""
    lo, hi = u.grid.margin_box(margin)
    pts = u.grid.points()
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    idx = np.argwhere(np.ones(u.grid.counts, dtype=bool))[inside]
    vals = u.values.ravel()[inside]
    du = np.abs(vals[:, None] - vals[None, :])
    steps = np.abs(idx[:, None, :] - idx[None, :, :])
    omega = []
    for r in node_radii(u, margin):
        near = np.all(steps <= r / np.array(u.grid.spacings) + 1e-9, axis=2)
        omega.append((float(r), float(du[near].max())))
    x = pts[inside]
    dist = np.abs(x[:, None, :] - x[None, :, :]).max(axis=2)
    apart = dist > 0
    seminorms = []
    for alpha in ALPHAS:
        ratio = du[apart] / dist[apart] ** alpha
        best = ratio.argmax()
        seminorms.append((float(ratio[best]), float(dist[apart][best])))
    return omega, seminorms


@pytest.mark.parametrize("counts", [(9, 9, 9), (12, 12, 12), (17, 9, 5), (13, 7, 11)])
def test_modulus_matches_all_node_pairs(counts):
    grid = Grid3.box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), counts)
    values = SplitMix64(5, "modulus-oracle").uniform(grid.n_nodes, -1.0, 1.0)
    noise = GridFunction(grid, values.reshape(counts))
    # an off-node cusp on an off-centre box
    grid = Grid3.box((-0.9, -1.1, -0.7), (1.3, 0.8, 1.2), counts)
    c = np.array([0.23, -0.31, 0.17])
    cusp = NumericField(lambda pts: np.sum(np.abs(pts - c) ** 0.6, axis=1))
    # a thin x3 axis, whose radii in its own spacing outgrow the box
    thin = Grid3.box((-1.0, -1.0, -0.1), (1.0, 1.0, 0.1), counts)
    for u in (noise, GridFunction.from_field(grid, cusp), GridFunction.from_field(thin, cusp)):
        omega, seminorms = all_node_pairs(u)
        assert modulus(u) == omega
        for alpha, (want, radius) in zip(ALPHAS, seminorms):
            got, at = holder_seminorm(u, alpha)
            assert got == pytest.approx(want, rel=1e-12, abs=0)
            assert at == pytest.approx(radius, rel=1e-12)


def test_holder_seminorm_cases():
    u = GridFunction.from_field(grid_box(), PolynomialField.constant(1.0))
    assert holder_seminorm(u, 0.5)[0] == 0.0
    sqrt_field = NumericField(lambda pts: np.sqrt(np.linalg.norm(pts, axis=1)))
    us = GridFunction.from_field(grid_box(33), sqrt_field)
    # |x|^(1/2) has Euclidean seminorm 1, and the sup norm is up to sqrt(3)
    # shorter: the origin and a box corner attain 3^(1/4)
    s, _ = holder_seminorm(us, 0.5)
    assert 1.0 <= s <= 3**0.25 * (1 + 1e-12)
    with pytest.raises(ValueError):
        holder_seminorm(u, 0.0)
    with pytest.raises(ValueError):
        holder_seminorm(u, 1.2)


def full_sweep_seminorm(u, alpha, margin=0.1):
    """The seminorm and its radius from omega at every distance the box's
    nodes realize, with no early stop: the reference for holder_seminorm."""
    box = _margin_values(u, margin)
    spacings = u.grid.spacings
    radii = np.unique(np.concatenate([np.arange(1, n) * h for n, h in zip(box.shape, spacings)]))
    ratio = np.array(list(_running_modulus(box, spacings, radii))) / radii**alpha
    best = int(ratio.argmax())
    return float(ratio[best]), float(radii[best]), radii


CUSP = np.array([0.125, -0.25, 0.375])  # a node of every grid_box(n) with 8 | n - 1
SWEEP_CASES = {
    "smooth": (
        grid_box(33),
        NumericField(lambda pts: np.sin(2 * pts[:, 0]) * np.cos(pts[:, 1] - pts[:, 2])),
    ),
    "cusp": (grid_box(33), NumericField(lambda pts: np.sum(np.abs(pts - CUSP) ** 0.3, axis=1))),
    "constant": (grid_box(17), PolynomialField.constant(2.5)),
    # omega(r) = r, so r^(1 - alpha) grows to the largest radius
    "linear": (grid_box(17), PolynomialField.coordinate(0)),
    "anisotropic": (
        Grid3.box((-1.0, -0.5, -2.0), (1.3, 0.4, 1.0), (25, 9, 13)),
        NumericField(lambda p: np.abs(p[:, 0] - 0.2) ** 0.5 + np.cos(3 * p[:, 2]) + p[:, 1]),
    ),
}


@pytest.mark.parametrize("name", list(SWEEP_CASES))
def test_holder_seminorm_stop_is_the_full_sweep_bitwise(monkeypatch, name):
    grid, field = SWEEP_CASES[name]
    u = GridFunction.from_field(grid, field)
    swept = []

    def counted(box, spacings, radii):
        for omega in _running_modulus(box, spacings, radii):
            swept.append(omega)
            yield omega

    monkeypatch.setattr(regularity, "_running_modulus", counted)
    for alpha in (0.3, 0.45, 0.8, 1.0):
        swept.clear()
        semi, radius, radii = full_sweep_seminorm(u, alpha)
        assert holder_seminorm(u, alpha) == (semi, radius)
        if name == "constant":
            assert len(swept) == 1
        elif name == "linear" and alpha < 1:
            assert radius == radii[-1] and len(swept) == radii.size
        elif name in ("smooth", "cusp"):
            assert len(swept) < radii.size


def test_holder_seminorm_monotone_in_alpha_small_domain():
    # on a domain of diameter < 1 all pair distances are < 1, so r^-alpha
    # grows with alpha
    g = grid_box(17, half=0.2)
    u = GridFunction.from_field(g, parse_polynomial("x1 + 0.5 x2 x3"))
    s1, _ = holder_seminorm(u, 0.3)
    s2, _ = holder_seminorm(u, 0.8)
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
    a, L, r2, degenerate = fit_alpha(us)
    assert not degenerate
    assert abs(a - 0.5) <= 1e-9
    lin = GridFunction.from_field(grid_box(33), PolynomialField.coordinate(0))
    a, L, r2, degenerate = fit_alpha(lin)
    assert not degenerate
    assert abs(a - 1.0) <= 1e-9 and abs(L - 1.0) <= 1e-9
    const = GridFunction.from_field(grid_box(), PolynomialField.constant(3.0))
    a, L, r2, degenerate = fit_alpha(const)
    assert degenerate
    assert (a, L) == (1.0, 0.0)


@pytest.mark.parametrize("n", [17, 33, 65])
@pytest.mark.parametrize("beta", [0.3, 0.6])
def test_fit_alpha_on_node_cusp(n, beta):
    # |x|_1^beta has its cusp on the origin, a node of every odd grid of [-1, 1]^3
    cusp = NumericField(lambda pts: np.abs(pts).sum(axis=1) ** beta)
    a, L, r2, degenerate = fit_alpha(GridFunction.from_field(grid_box(n), cusp))
    assert not degenerate
    assert abs(a - beta) <= 1e-6


def test_radius_span_needs_two_node_radii():
    assert radius_span(grid_box(33)) == (0.125, pytest.approx(0.4 * np.sqrt(3)))
    with pytest.raises(ValueError, match=r"margin 0\.45.*\[2h, diam/4\]"):
        radius_span(grid_box(33), 0.45)


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
    from heisenpde.solver import ProblemSpec, solve

    op = OperatorSpec.sublaplacian()
    one = PolynomialField.constant(1)
    f = smooth_abs_field(eps=0.1, scale=1.0, offset=-1.0)
    prob = ProblemSpec(op, one, f, PolynomialField.constant(0), grid_box(17), tol=1e-6)
    coarse = solve(prob)
    fine = solve(replace(prob, grid=prob.grid.refine()))
    assert coarse.converged and fine.converged
    hd = HolderData(c0=1.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    b = EllipticityBracket(1.0, 1.0)
    report = check_theorem(coarse.u, fine.u, hd, b)
    assert report.alpha_target == 0.45
    assert report.bound_c0_2Lambda == 0.5
    assert report.stability_checked
    assert report.seminorm_rel_change < 0.2
    assert report.passed, report
    assert not report.c0_exceeds_8


def test_check_theorem_constant_solution():
    # c = 1, f = -k, boundary = k: u = k solves trace(D^{2,*}u) - u = -k
    from heisenpde.operators import OperatorSpec
    from heisenpde.solver import ProblemSpec, solve

    op = OperatorSpec.sublaplacian()
    one = PolynomialField.constant(1)
    k = PolynomialField.constant(2.0)
    prob = ProblemSpec(op, one, PolynomialField.constant(-2.0), k, grid_box(9), tol=1e-8)
    coarse = solve(prob)
    fine = solve(replace(prob, grid=prob.grid.refine()))
    hd = HolderData(c0=1.0, beta=1.0, beta_prime=1.0, L_c=0.0, L_f=1.0)
    report = check_theorem(coarse.u, fine.u, hd, EllipticityBracket(1.0, 1.0))
    assert report.seminorm_at_target <= 1e-6
    assert report.degenerate_fit
    assert report.passed
