import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnot_calc import measure, surfaces, variation
from carnot_calc import (
    DeformationField,
    IntrinsicGraph,
    build_surface,
    bump1,
    bump2,
    deform_patch,
    first_variation_analytic,
    frame_param,
    frame_variation_rates,
    frame_variation_rates_fd,
    integrate_patch,
    intrinsic_stability_form,
    intrinsic_to_patch,
    jet_partial,
    normal_first_variation,
    numeric_variation,
    product_bump_lattice,
    quadratic_form,
    random_product_bumps,
    second_variation,
    seed_jets,
    stability_scan,
)
from carnot_calc.cli import parse_field_spec

ZERO = lambda u, v: 0.0 * u


def _sqrt(x):
    # works on floats, arrays and jets alike
    return x.sqrt() if hasattr(x, "sqrt") else np.sqrt(x)


def parab_normal_deformation(z):
    """z * nu_H on the paraboloid patch, from the closed-form frame
    p = (-2u - v/2, -2v + u/2)."""
    def comp(i):
        def f(u, v):
            p1 = -2.0 * u - v / 2.0
            p2 = -2.0 * v + u / 2.0
            return z(u, v) * (p1 if i == 0 else p2) / _sqrt(p1 * p1 + p2 * p2)
        return f
    return DeformationField(comp(0), comp(1), ZERO)


def parab_tangential_deformation(s):
    """s * Z on the paraboloid patch: (a, b) = (qbar s, -pbar s)."""
    def comp(i):
        def f(u, v):
            p1 = -2.0 * u - v / 2.0
            p2 = -2.0 * v + u / 2.0
            W = _sqrt(p1 * p1 + p2 * p2)
            return s(u, v) * (p2 if i == 0 else -p1) / W
        return f
    return DeformationField(comp(0), comp(1), ZERO)


# -- deformed patches ---------------------------------------------------------

def test_deform_patch_zero_lambda_is_identity(rng):
    P = build_surface("t-graph:parab").patch
    D = DeformationField(bump2(1.0, 1.0, 0.4, 0.4), ZERO, ZERO)
    P0 = deform_patch(P, D, 0.0)
    u, v = rng.uniform(0.6, 1.4, size=2)
    assert np.allclose(P0.point(u, v), P.point(u, v), atol=1e-15)


def test_deform_patch_moves_along_first_frame_field():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    a = bump2(0.5, 0.5, 0.45, 0.45)
    D = DeformationField(a, ZERO, ZERO)
    lam = 0.1
    P2 = deform_patch(P, D, lam)
    u, v = 0.5, 0.5
    s = lam * a(u, v)
    # X1 at (0, u, v) is (1, 0, -u/2)
    assert np.allclose(P2.point(u, v), [s, u, v - s * u / 2.0], atol=1e-14)


def test_vertical_deformation_moves_only_t():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    k = bump2(0.5, 0.5, 0.45, 0.45)
    P2 = deform_patch(P, DeformationField.vertical(k), 0.1)
    u, v = 0.5, 0.5
    assert np.allclose(P2.point(u, v), [0.0, u, v + 0.1 * k(u, v)],
                       atol=1e-14)


# -- first variation ----------------------------------------------------------

def test_zero_deformation_gives_zero_rates():
    P = build_surface("t-graph:parab").patch
    D = DeformationField(ZERO, ZERO, ZERO)
    assert numeric_variation(P, D, order=1, nu=32, nv=32) == \
        pytest.approx(0.0, abs=1e-12)
    assert numeric_variation(P, D, order=2, nu=32, nv=32) == \
        pytest.approx(0.0, abs=1e-8)
    assert first_variation_analytic(P, D, nu=32, nv=32) == \
        pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("order, calls", [(1, 4), (2, 7)])
def test_numeric_variation_integrates_each_lambda_once(monkeypatch, order,
                                                       calls):
    P = build_surface("t-graph:parab").patch
    D = DeformationField(ZERO, ZERO, lambda u, v: 0.1 * u * v)
    expected = numeric_variation(P, D, order=order, nu=16, nv=16)
    passes, lams = [], []
    inner_integrate, inner_deformed = measure._integrate, variation._deformed

    def counting(grid, frames, densities):
        passes.append(grid)
        return inner_integrate(grid, frames, densities)

    def recording(lam, xyt, rate):
        lams.append(lam)
        return inner_deformed(lam, xyt, rate)

    monkeypatch.setattr(measure, "_integrate", counting)
    monkeypatch.setattr(variation, "_deformed", recording)
    assert numeric_variation(P, D, order=order, nu=16, nv=16) == expected
    # one pass; 17 x 17 nodes make one block, which deforms each lam once
    assert len(passes) == 1
    assert len(lams) == len(set(lams)) == calls


def _numeric_per_patch(P, D, order, n):
    """numeric_variation's stencils on one quadrature per deformed patch."""
    def A(lam):
        return integrate_patch(deform_patch(P, D, lam), None, nu=n, nv=n,
                               error_estimate=False, order=1).value

    if order == 1:
        d = 1e-3
        return ((A(-2 * d) - A(2 * d)) + 8 * (A(d) - A(-d))) / (12.0 * d)
    d = 1e-2

    def five_point(s):
        return (16 * (A(s) + A(-s)) - (A(2 * s) + A(-2 * s)) - 30 * A(0.0)) \
            / (12.0 * s * s)

    return (16.0 * five_point(d / 2) - five_point(d)) / 15.0


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [64, 130])
@pytest.mark.parametrize("sid, domain", [
    ("t-graph:parab", None),
    # characteristic at the origin, a node of both grids
    ("t-graph:zero", (-1.0, 1.0, -1.0, 1.0))])
def test_numeric_variation_family_equals_per_patch_route(order, n, sid,
                                                        domain):
    P = build_surface(sid, domain=domain).patch
    u0, u1, v0, v1 = P.domain
    cu, cv = 0.5 * (u0 + u1) + 0.1, 0.5 * (v0 + v1) - 0.05
    ru, rv = 0.3 * (u1 - u0), 0.25 * (v1 - v0)
    D = DeformationField(bump2(cu, cv, ru, rv),
                         lambda u, v: 0.5 * u * bump2(cu, cv, ru, rv)(u, v),
                         bump2(cv, cu, rv, ru))
    assert numeric_variation(P, D, order=order, nu=n, nv=n) == \
        _numeric_per_patch(P, D, order, n)


# -- compactly supported deformations: the support's node box only -----------

_H = 1.0 / 16  # node spacing of the 16-cell grids below on (0.5, 1.5)^2
_SUPPORTED_ROUTES = (
    first_variation_analytic, variation.second_variation_full,
    lambda P, D, **kw: numeric_variation(P, D, order=1, **kw),
    lambda P, D, **kw: numeric_variation(P, D, order=2, **kw))


def _hidden(c):
    """c without its .support attribute."""
    return lambda u, v: c(u, v)


def _bump_axis(draw):
    """(center, radius) along one axis of the parab patch."""
    kind = draw(st.sampled_from(["node line", "one block", "anywhere"]))
    if kind == "node line":  # dyadic: the lower edge is exactly node i
        i, j = draw(st.integers(0, 16)), draw(st.integers(1, 6))
        return 0.5 + (i + j) * _H, j * _H
    if kind == "one block":  # inside rows 4b .. 4b + 3 with 4-row blocks
        b = draw(st.integers(0, 3))
        return 0.5 + (4 * b + 1.5) * _H, draw(st.floats(0.2, 1.4)) * _H
    # crosses the domain edge or misses the grid as often as not
    return draw(st.floats(-0.5, 2.5)), draw(st.floats(0.01, 1.2))


@st.composite
def _coefficients(draw):
    out = []
    for _ in range(3):
        if draw(st.booleans()) and draw(st.booleans()):
            out.append(variation._zero)
            continue
        (cu, ru), (cv, rv) = _bump_axis(draw), _bump_axis(draw)
        out.append(bump2(cu, cv, ru, rv))
    return out


# how far each of _SUPPORTED_ROUTES on the support's sub-grid may move from
# the whole grid at 16^2: rounding of the sub-grid's own pairwise tree, a
# few ulps of an O(1) integral, which the numeric stencils scale by about
# 1/(12 d) and 1/(12 s^2).  Measured over 150 random fields: 5.6e-17,
# 4.4e-16, 6.1e-13, 1.0e-10
_SUBGRID_BOUNDS = (1e-14, 1e-14, 1e-11, 1e-9)


@settings(max_examples=20, deadline=None)
@given(coeffs=_coefficients())
def test_supported_variations_equal_the_whole_grid(coeffs):
    # v1, v2-full and numeric:1/2 integrate on the sub-grid of D.support's
    # nodes; with the attribute hidden they run on the whole grid.  Every
    # block size gives the sub-grid's bits, within _SUBGRID_BOUNDS of the
    # whole grid's
    P = build_surface("t-graph:parab").patch
    D = DeformationField(*coeffs)
    hidden = DeformationField(*(_hidden(c) for c in coeffs))
    assert hidden.support is None
    whole = [route(P, hidden, nu=16, nv=16) for route in _SUPPORTED_ROUTES]
    by_block = []
    with pytest.MonkeyPatch.context() as mp:
        # one block, blocks of 4 rows, blocks of 1 row (17 columns)
        for block_nodes in (10 ** 9, 64, 17):
            mp.setattr(measure, "_BLOCK_NODES", block_nodes)
            by_block.append([repr(route(P, D, nu=16, nv=16))
                             for route in _SUPPORTED_ROUTES])
    assert by_block[1:] == by_block[:1] * 2
    for value, ref, bound in zip(map(float, by_block[0]), whole,
                                 _SUBGRID_BOUNDS):
        assert abs(value - ref) <= bound


def test_deformation_support_is_the_box_of_its_coefficients():
    k = bump2(1.0, 0.75, -0.2, 0.25)  # the sign of a radius is immaterial
    assert k.support == (0.8, 1.2, 0.5, 1.0)
    assert DeformationField.vertical(k).support == k.support
    assert DeformationField(k, bump2(0.5, 1.5, 0.1, 0.1), k).support == \
        (0.4, 1.2, 0.5, 1.6)
    assert DeformationField(k, ZERO, k).support is None
    assert parse_field_spec('{"k": "bump:1.0,0.75,0.2,0.25", "a": 0}',
                            (0.5, 1.5, 0.5, 1.5)).support == k.support
    assert parse_field_spec('{"a": "poly:[[1.0, [1, 0]]]"}',
                            (0.5, 1.5, 0.5, 1.5)).support is None


def test_a_support_holding_no_node_returns_the_whole_grid_value():
    # the zero field's support box holds no node, so it has no sub-grid
    # and every route reads exactly 0.0, the whole grid's value (whose v1
    # sums signed zeros to -0.0)
    P = build_surface("t-graph:parab").patch
    D = parse_field_spec("{}", P.domain)
    assert D.support == (np.inf, -np.inf, np.inf, -np.inf)
    assert measure._grid_for(P, 32, 32).restricted(D.support) is None
    hidden = DeformationField(*(_hidden(c) for c in (D.a, D.b, D.k)))
    values = [route(P, D, nu=32, nv=32) for route in _SUPPORTED_ROUTES]
    assert repr(values) == "[0.0, 0.0, 0.0, 0.0]"
    assert values == [route(P, hidden, nu=32, nv=32)
                      for route in _SUPPORTED_ROUTES]


@pytest.mark.parametrize("order", [1, 2])
def test_a_deformation_that_moves_nothing_reads_exactly_zero(order):
    # a zero coefficient that declares a support holding nodes: every
    # deformed perimeter equals P's, and the paired stencils cancel them
    # exactly
    def zero(u, v):
        return 0.0 * u

    zero.support = (0.8, 1.2, 0.7, 1.1)
    P = build_surface("t-graph:parab").patch
    D = DeformationField(zero, zero, zero)
    assert measure._grid_for(P, 32, 32).restricted(D.support) is not None
    assert repr(numeric_variation(P, D, order=order, nu=32, nv=32)) == "0.0"


@pytest.mark.parametrize("center, blocks", [
    # the support's node box holds rows and columns 0..33 or 31..64: its
    # sub-grid of 34 x 34 nodes makes blocks of 16 rows, as the whole
    # grid does, then 2, each deforming each lam once
    (0.75, [16, 16, 2]),
    (1.25, [16, 16, 2])])
def test_numeric_variation_deforms_only_the_support_box(monkeypatch, center,
                                                       blocks):
    # 65 x 65 nodes
    P = build_surface("t-graph:parab").patch
    D = DeformationField.vertical(bump2(center, center, 0.25, 0.25))
    whole = numeric_variation(P, DeformationField.vertical(_hidden(D.k)),
                              order=1, nu=64, nv=64)
    expected = numeric_variation(P, D, order=1, nu=64, nv=64)
    assert abs(expected - whole) <= _SUBGRID_BOUNDS[2]
    monkeypatch.setattr(measure, "_BLOCK_NODES", 1000)
    shapes = []
    inner = variation._deformed

    def recording(lam, xyt, rate):
        shapes.append(np.broadcast_shapes(*(np.shape(c.v) for c in xyt)))
        return inner(lam, xyt, rate)

    monkeypatch.setattr(variation, "_deformed", recording)
    assert numeric_variation(P, D, order=1, nu=64, nv=64) == expected
    assert shapes == [(rows, 34) for rows in blocks for _ in range(4)]


def test_minimal_plane_is_critical():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    D = DeformationField(bump2(0.5, 0.5, 0.45, 0.45), ZERO, ZERO)
    assert abs(numeric_variation(P, D, order=1, nu=64, nv=64)) < 1e-8


def test_first_variation_routes_agree():
    P = build_surface("t-graph:parab").patch
    D = parab_normal_deformation(bump2(1.0, 1.0, 0.4, 0.4))
    v_num = numeric_variation(P, D, order=1, nu=128, nv=128)
    v_ana = first_variation_analytic(P, D, nu=128, nv=128)
    assert abs(v_num - v_ana) < 1e-4
    assert abs(v_ana) > 0.01  # the comparison is not vacuous


def test_normal_speed_route_agrees():
    # normal_first_variation takes the Euclidean-normal speed zeta; the
    # nu_H deformation with profile z corresponds to zeta = z W
    P = build_surface("t-graph:parab").patch
    z = bump2(1.0, 1.0, 0.4, 0.4)
    zeta = lambda u, v: z(u, v) * np.sqrt(
        (-2 * u - v / 2) ** 2 + (-2 * v + u / 2) ** 2)
    v_ana = first_variation_analytic(P, parab_normal_deformation(z),
                                     nu=128, nv=128)
    v_nrm = normal_first_variation(P, zeta, nu=128, nv=128)
    assert abs(v_ana - v_nrm) < 1e-10


def test_tangential_deformations_are_null():
    # flowing inside the surface cannot change the horizontal area: the
    # analytic rate is zero to roundoff; the numeric rate carries the
    # quadrature error amplified by the 1/dlam of the difference stencil
    P = build_surface("t-graph:parab").patch
    D = parab_tangential_deformation(bump2(1.0, 1.0, 0.4, 0.4))
    assert abs(first_variation_analytic(P, D, nu=128, nv=128)) < 1e-8
    assert abs(numeric_variation(P, D, order=1, nu=128, nv=128)) < 1e-6


# -- frame rates ----------------------------------------------------------------

def test_frame_rates_match_finite_differences(rng):
    P = build_surface("t-graph:parab").patch
    D = parab_normal_deformation(bump2(1.0, 1.0, 0.4, 0.4))
    for _ in range(5):
        u, v = rng.uniform(0.7, 1.3, size=2)
        ana = frame_variation_rates(P, D, u, v)
        fd = frame_variation_rates_fd(P, D, u, v)
        for key in ("pdot", "qdot", "ppdot_qqdot"):
            assert abs(ana[key] - fd[key]) < 1e-4


def test_area_factor_rate_consistency(rng):
    # W^2 = p^2 + q^2 forces W Wdot = p pdot + q qdot
    P = build_surface("t-graph:parab").patch
    D = parab_normal_deformation(bump2(1.0, 1.0, 0.4, 0.4))
    u, v = rng.uniform(0.7, 1.3, size=2)
    ana = frame_variation_rates(P, D, u, v)
    W = frame_param(P, (u, v)).W
    assert ana["ppdot_qqdot"] == pytest.approx(W * ana["Wdot"], rel=1e-8)


# -- second variation -------------------------------------------------------------

def test_second_variation_routes_agree():
    P = build_surface("t-graph:parab").patch
    D = parab_normal_deformation(bump2(1.0, 1.0, 0.4, 0.4))
    v2_num = numeric_variation(P, D, order=2, nu=96, nv=96)
    v2_full = second_variation(P, D, mode="full", nu=96, nv=96)
    assert v2_num == pytest.approx(v2_full, rel=1e-6)


@pytest.mark.parametrize("sid", ["t-graph:parab", "xyt-graph",
                                 "intrinsic:uv"])
def test_second_variation_full_equals_the_order_two_route(monkeypatch, sid):
    # v2-full never differentiates the frame, so it runs on first-order
    # jets (_tangent_frame); zy_second's order-2 frame in its place gives
    # the same bits, for a supported field (its sub-grid) and for
    # polynomial coefficients (the whole grid)
    P = build_surface(sid).patch
    fields = [parse_field_spec("auto", P.domain),
              DeformationField(lambda u, v: 0.3 * u * v,
                               lambda u, v: u - 0.5 * v,
                               lambda u, v: 0.2 * u * u + v)]
    first = [variation.second_variation_full(P, D, nu=32, nv=32)
             for D in fields]
    monkeypatch.setattr(variation, "_tangent_frame",
                        lambda P, u, v: surfaces.zy_second(P, None, u, v))
    assert [variation.second_variation_full(P, D, nu=32, nv=32)
            for D in fields] == first


def test_geometric_mode_requires_minimal_surface():
    P = build_surface("t-graph:parab").patch
    D = parab_normal_deformation(bump2(1.0, 1.0, 0.4, 0.4))
    with pytest.raises(ValueError, match="not H-minimal"):
        second_variation(P, D, mode="geometric", nu=48, nv=48)


def test_geometric_mode_matches_full_on_minimal_surface():
    P = build_surface("xyt-graph").patch
    zx = bump2(0.0, 0.0, 3.0, 1.5)

    def comp(i):
        def f(u, v):
            s = 1.0 + u * u / 2.0
            return zx(u, v) * (s if i == 0 else -v * s) / _sqrt(
                s * s + v * v * s * s)
        return f

    D = DeformationField(comp(0), comp(1), ZERO)
    full = second_variation(P, D, mode="full", nu=128, nv=128)
    geom = second_variation(P, D, mode="geometric", nu=128, nv=128)
    assert abs(full - geom) < 1e-3 * abs(geom)


# -- stability ---------------------------------------------------------------------

def test_quadratic_form_on_plane_has_closed_form():
    # no vertical frequency and no potential: Q(F) = int F_u^2 du dv = 1/90
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    F = lambda u, v: u * (1 - u) * v * (1 - v)
    assert quadratic_form(P, F, nu=128, nv=128) == \
        pytest.approx(1.0 / 90.0, rel=1e-6)


def test_quadratic_form_evaluates_the_frame_once(monkeypatch):
    # one 33 x 33 block: Z of pbar, qbar and obar; Q reads ZF, not Z(ZF)
    P = build_surface("xyt-graph").patch
    calls = []
    inner = surfaces.z_apply

    def counted(flds, fj):
        calls.append(1)
        return inner(flds, fj)

    monkeypatch.setattr(surfaces, "z_apply", counted)
    quadratic_form(P, bump2(0.0, 0.0, 3.0, 1.5), nu=32, nv=32)
    assert len(calls) == 3


def test_quadratic_form_requires_minimal_surface():
    P = build_surface("t-graph:parab").patch
    with pytest.raises(ValueError, match="not H-minimal"):
        quadratic_form(P, bump2(1.0, 1.0, 0.4, 0.4), nu=48, nv=48)


def test_plane_is_stable():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    out = stability_scan(P, nu=48, nv=48)
    assert out["min_value"] >= 0.0
    assert out["witness"] is None
    assert out["count"] == 125
    assert all(rec["Q"] >= 0.0 for rec in out["table"])


def test_unstable_minimal_graph_has_witness():
    P = build_surface("xyt-graph").patch
    out = stability_scan(P, nu=64, nv=64)
    assert out["witness"] is not None
    assert out["witness"]["Q"] < -1e-6
    assert out["min_value"] < 0.0
    assert sum(1 for rec in out["table"] if rec["Q"] < 0.0) > 0
    assert {"cu", "cv", "ru", "rv", "Q"} <= set(out["argmin"])


def _lattice(P, n):
    # the default family of stability_scan at grid n
    u0, u1, v0, v1 = P.domain
    return product_bump_lattice(P.domain, 5, 5,
                                margin=max(u1 - u0, v1 - v0) / n)


def _expected_scan(P, bumps, n):
    # the scan's report, built from per-bump quadratic_form calls
    table = [dict(meta, Q=quadratic_form(P, F, nu=n, nv=n))
             for F, meta in bumps]
    # the first bump in table order within 1e-12 max |Q| of the minimum
    Qs = [rec["Q"] for rec in table]
    argmin = table[next(i for i, Q in enumerate(Qs)
                        if Q - min(Qs) <= 1e-12 * max(map(abs, Qs)))]
    witness = next((rec for rec in table if rec["Q"] < -1e-6), None)
    return {"table": table, "min_value": argmin["Q"], "argmin": argmin,
            "witness": witness, "count": len(bumps)}


def _position(scan, key):
    """The table position of the record scan[key], or None."""
    return next((i for i, rec in enumerate(scan["table"])
                 if rec is scan[key]), None)


def _assert_matches(out, bumps, expected):
    # a product bump's Q sums the four node planes, not quadratic_form's
    # pairwise tree: equal to 1e-12 of the largest |Q|; any other bump's Q,
    # the meta, count, argmin and witness ==
    scale = max(abs(rec["Q"]) for rec in expected["table"])
    for (F, _), got, want in zip(bumps, out["table"], expected["table"],
                                 strict=True):
        assert dict(got, Q=None) == dict(want, Q=None)
        if isinstance(F, variation._ProductBump):
            assert abs(got["Q"] - want["Q"]) <= 1e-12 * scale
        else:
            assert got["Q"] == want["Q"]
    assert out["count"] == expected["count"]
    assert out["min_value"] == out["argmin"]["Q"]
    for key in ("argmin", "witness"):
        assert _position(out, key) == _position(expected, key)


@pytest.mark.parametrize("family, sid, n", [
    pytest.param("lattice", "xyt-graph", 96, id="lattice"),
    pytest.param("random", "xyt-graph", 96, id="random"),
    pytest.param("lattice", "vertical-plane:1,0,0", 96, id="plane-lattice"),
    # 131^2 nodes: two blocks of 64 rows and a last one of 3 rows
    pytest.param("random", "xyt-graph", 130, id="random-130"),
    # gamma_u gamma_v != 0 off the band: the cross plane C3 is not 0; at
    # 64^2 the mirror bumps 52 and 72 tie in Q, and the two routes round
    # the tie differently (the scan reads both ...245, quadratic_form reads
    # ...249 for 52), so the argmin rests on the stated tie-break
    pytest.param("lattice", "intrinsic:xyt", 64, id="intrinsic-lattice"),
])
def test_stability_scan_matches_per_bump_quadratic_form(family, sid, n):
    # the scan differentiates product bumps from 1-D factor jets and sums
    # them against four node planes; each Q must be the value of the
    # independent second-order route of quadratic_form, to rounding
    P = build_surface(sid).patch
    if family == "lattice":
        bumps = _lattice(P, n)
        out = stability_scan(P, nu=n, nv=n)
    else:
        bumps = random_product_bumps(P.domain, 32,
                                     np.random.default_rng(11))
        out = stability_scan(P, bumps=bumps, nu=n, nv=n)
    _assert_matches(out, bumps, _expected_scan(P, bumps, n))
    assert (out["witness"] is not None) == (sid == "xyt-graph")


def test_stability_scan_argmin_is_the_first_of_tied_bumps():
    # bumps 52 and 72 of the 64^2 intrinsic:xyt lattice are mirror images
    # with one Q in exact arithmetic; 52 as a plain callable takes the
    # tangential() route and reads ...249, 72 the node planes and reads
    # ...245, so the tie-break, not rounding, must pick 52
    P = build_surface("intrinsic:xyt").patch
    (F52, m52), (F72, m72) = (_lattice(P, 64)[k] for k in (52, 72))
    out = stability_scan(P, bumps=[(lambda u, v: F52(u, v), m52), (F72, m72)],
                         nu=64, nv=64)
    Q52, Q72 = (rec["Q"] for rec in out["table"])
    assert Q72 < Q52 <= Q72 + 1e-12 * Q52
    assert out["argmin"] is out["table"][0]
    assert out["min_value"] == Q52


def _mixed_family(P, count, seed):
    # product bumps interleaved with bump2 ellipses, which carry no factors
    out = []
    for F, meta in random_product_bumps(P.domain, count,
                                        np.random.default_rng(seed)):
        out.append((F, meta))
        out.append((bump2(meta["cu"], meta["cv"], meta["ru"], meta["rv"]),
                    dict(meta, shape="ellipse")))
    return out


def test_stability_scan_of_a_mixed_family_matches_quadratic_form():
    P = build_surface("xyt-graph").patch
    bumps = _mixed_family(P, 6, 3)
    out = stability_scan(P, bumps=bumps, nu=64, nv=64)
    _assert_matches(out, bumps, _expected_scan(P, bumps, 64))


def test_stability_scan_differentiates_only_bumps_without_factors(
        monkeypatch):
    # product bumps never reach tangential(); each bump2 does once a block
    P = build_surface("xyt-graph").patch
    calls = []
    inner = variation.tangential

    def counted(flds, f):
        calls.append(f)
        return inner(flds, f)

    monkeypatch.setattr(variation, "tangential", counted)
    out = stability_scan(P, nu=96, nv=96)
    assert out["count"] == 125 and calls == []
    bumps = _mixed_family(P, 4, 3)
    ellipses = [F for F, meta in bumps if "shape" in meta]
    stability_scan(P, bumps=bumps, nu=96, nv=96)  # 97^2 nodes: 1 block
    assert calls == ellipses
    calls.clear()
    monkeypatch.setattr(measure, "_BLOCK_NODES", 4096)  # 2 blocks of 64 rows
    stability_scan(P, bumps=bumps, nu=96, nv=96)
    assert calls == ellipses * 2


def _nothing(x):
    """A 1-D factor that is 0 everywhere."""
    return 0.0 * x


@pytest.mark.parametrize("sid, domain, family", [
    # the characteristic point (0, 0) is a node at 64^2 and lies inside
    # the boxes of several lattice bumps: the band path
    pytest.param("t-graph:zero", (-1, 1, -1, 1), "lattice", id="band"),
    # a product bump whose support holds no node (it is 0 on the grid),
    # among others
    pytest.param("xyt-graph", None, "empty-box", id="empty-box"),
])
def test_stability_scan_over_support_boxes_matches_quadratic_form(
        sid, domain, family):
    P = build_surface(sid, domain=domain).patch
    if family == "lattice":
        bumps = _lattice(P, 64)
        out = stability_scan(P, nu=64, nv=64)
        assert sum(bu.support[0] < 0.0 < bu.support[1]
                   and bv.support[0] < 0.0 < bv.support[1]
                   for (bu, bv) in (F.factors for F, _ in bumps)) > 1
    else:
        bumps = random_product_bumps(P.domain, 4, np.random.default_rng(8))
        # u-support (7, 9), beyond the domain's u1 = 6
        empty = variation._ProductBump(8.0, 1.0, 0.0, 1.0)
        bumps.insert(2, (empty, {"cu": 8.0, "cv": 0.0, "ru": 1.0,
                                 "rv": 1.0}))
        out = stability_scan(P, bumps=bumps, nu=64, nv=64)
        assert out["table"][2]["Q"] == 0.0
    _assert_matches(out, bumps, _expected_scan(P, bumps, 64))


@pytest.mark.parametrize("sid, domain", [
    pytest.param("xyt-graph", None, id="xyt-graph"),
    # a band node at (0, 0), in the planes of one block or another
    pytest.param("t-graph:zero", (-1, 1, -1, 1), id="band"),
])
def test_stability_scan_does_not_depend_on_the_block_size(monkeypatch, sid,
                                                          domain):
    # the planes hold the same values per node whatever the blocks, and
    # the non-product bumps reduce in the whole grid's tree.  65 x 65
    # nodes: one block (8192), or blocks of 64 (4096), 16 (1000) or 4
    # (200) rows
    P = build_surface(sid, domain=domain).patch
    bumps = _mixed_family(P, 4, 5)
    ref = stability_scan(P, bumps=bumps, nu=64, nv=64)
    for block_nodes in (4096, 1000, 200):
        monkeypatch.setattr(measure, "_BLOCK_NODES", block_nodes)
        assert stability_scan(P, bumps=bumps, nu=64, nv=64) == ref


def test_negative_family_counts_are_rejected():
    P = build_surface("xyt-graph").patch
    rng = np.random.default_rng(0)
    for make in (lambda: product_bump_lattice(P.domain, -2, 3),
                 lambda: product_bump_lattice(P.domain, 3, -1),
                 lambda: random_product_bumps(P.domain, -3, rng),
                 lambda: stability_scan(P, n_centers=-2, nu=16, nv=16)):
        with pytest.raises(ValueError, match="must be >= 0"):
            make()
    # no bump is an empty family, not an error
    assert product_bump_lattice(P.domain, 0, 3) == []
    assert random_product_bumps(P.domain, 0, rng) == []


def test_lattice_bumps_share_their_factors():
    # 5 centres x 5 radii per axis: 25 distinct (centre, radius) pairs per
    # axis serve the 125 bumps
    bumps = product_bump_lattice((-6.0, 6.0, -3.0, 3.0))
    assert len(bumps) == 125
    assert len({F.pairs[0] for F, _ in bumps}) == 25
    assert len({F.pairs[1] for F, _ in bumps}) == 25
    for F, meta in bumps:
        assert F.pairs == ((meta["cu"], meta["ru"]), (meta["cv"], meta["rv"]))
        bu, bv = F.factors
        assert bu(meta["cu"]) == bv(meta["cv"]) == np.exp(-1.0)


def _scalar_uniform_bumps(domain, count, rng, margin=0.0):
    # the former draw: four scalar rng.uniform calls per bump
    u0, u1, v0, v1 = (float(d) for d in domain)
    out = []
    for _ in range(int(count)):
        cu = rng.uniform(u0 + 0.25 * (u1 - u0), u1 - 0.25 * (u1 - u0))
        cv = rng.uniform(v0 + 0.25 * (v1 - v0), v1 - 0.25 * (v1 - v0))
        ru = rng.uniform(0.3, 0.98) * (min(cu - u0, u1 - cu) - margin)
        rv = rng.uniform(0.3, 0.98) * (min(cv - v0, v1 - cv) - margin)
        out.append({"cu": cu, "cv": cv, "ru": ru, "rv": rv})
    return out


@pytest.mark.parametrize("count", [0, 1, 64])
@pytest.mark.parametrize("margin", [0.0, 0.05])
@pytest.mark.parametrize("domain", [(-1.0, 1.0, -1.0, 1.0),
                                    (0.5, 1.5, -2.0, 1.25)])
def test_random_bumps_are_the_scalar_uniform_draws(count, margin, domain):
    # one rng.uniform call of shape (count, 4) gives the metas of the scalar
    # loop bit for bit (plain floats), and leaves the generator where the
    # loop left it
    for seed in range(20):
        new_rng, old_rng = (np.random.default_rng(seed) for _ in range(2))
        bumps = random_product_bumps(domain, count, new_rng, margin=margin)
        metas = [meta for _, meta in bumps]
        assert metas == _scalar_uniform_bumps(domain, count, old_rng, margin)
        assert all(type(x) is float for m in metas for x in m.values())
        assert new_rng.random() == old_rng.random()
        for F, meta in bumps:
            bu, bv = F.factors
            assert (bu.center, bu.radius, bv.center, bv.radius) == (
                meta["cu"], meta["ru"], meta["cv"], meta["rv"])


def test_random_bumps_reject_a_reversed_domain_as_the_scalar_draws_did():
    for draw in (random_product_bumps, _scalar_uniform_bumps):
        with pytest.raises(ValueError, match="high - low < 0"):
            draw((1.0, -1.0, -1.0, 1.0), 3, np.random.default_rng(0))


def _per_bump_separable_forms(products, grid, planes):
    # the former formulation: each bump's own four u-rows meet the planes
    (a, da, iu), (b, db, iv) = (
        variation._factor_jets([F.pairs[k] for F in products], x)
        for k, x in enumerate((grid.u, grid.v)))
    a, da, b, db = a[iu], da[iu], b[iv], db[iv]
    left = np.stack([da * da, a * a, a * da, a * a], axis=1)
    right = np.stack([b * b, db * db, b * db, b * b], axis=1)
    rows = np.matmul(left[:, :, None, :], planes)[:, :, 0, :]
    return np.sum((rows * right).reshape(len(products), -1), axis=1).tolist()


@pytest.mark.parametrize("family", ["lattice", "random"])
def test_separable_rows_are_formed_once_per_distinct_u_factor(monkeypatch,
                                                              family):
    # the 125-bump lattice shares 25 u-factors: 25 x 4 row products, each
    # its own (1 x u-nodes) product, gathered per bump; every Q == the
    # per-bump formulation on the scan's own planes
    P = build_surface("xyt-graph").patch
    if family == "lattice":
        bumps, distinct = _lattice(P, 96), 25
    else:
        bumps = random_product_bumps(P.domain, 64, np.random.default_rng(9))
        distinct = 64
    calls, row_shapes = [], []
    forms, matmul = variation._separable_forms, np.matmul

    def spy(products, grid, planes):
        calls.append((products, grid, planes))
        return forms(products, grid, planes)

    def counted(a, b, *args, **kwargs):
        if calls and b is calls[-1][2]:
            row_shapes.append(a.shape)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(variation, "_separable_forms", spy)
    monkeypatch.setattr(np, "matmul", counted)
    out = stability_scan(P, bumps=bumps, nu=96, nv=96)
    [(products, grid, planes)] = calls
    assert row_shapes == [(distinct, 4, 1, grid.u.size)]
    monkeypatch.setattr(np, "matmul", matmul)
    assert [rec["Q"] for rec in out["table"]] == _per_bump_separable_forms(
        products, grid, planes)


def _own_jet(b, x):
    """Value and derivative of the 1-D factor b at the nodes x, from its
    own first-order seed."""
    (xj,) = seed_jets((x,), order=1)
    bj = b(xj)
    return bj.v, bj.g[0]


def _same_bits(a, b):
    return (np.shape(a) == np.shape(b) and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _plain(x):
    """A 1-D factor that is 1 everywhere and declares no support."""
    return 1.0 + 0.0 * x


@pytest.mark.parametrize("family", ["lattice", "random", "reversed", "int"])
def test_stacked_factor_jets_equal_the_per_factor_jets(monkeypatch, family):
    # the distinct (centre, radius) pairs of an axis are evaluated in one
    # stacked call of bump1 on one seed; every value and derivative,
    # signed zeros included, is that of the pair's own bump1 jet
    P = build_surface("xyt-graph").patch
    grid = measure.QuadratureGrid(P.domain, 96, 96)
    if family == "lattice":
        pairs, distinct = [F.pairs for F, _ in _lattice(P, 96)], 25
    elif family == "random":
        pairs = [F.pairs for F, _ in random_product_bumps(
            P.domain, 64, np.random.default_rng(4))]
        distinct = 64
    elif family == "reversed":  # a negative radius, edges on nodes
        grid = measure.QuadratureGrid((-2.0, 0.0, -2.0, 0.0), 96, 96)
        pairs, distinct = [((-1.0, -0.5), (-1.0, -0.5))], 1
    else:  # an int centre and radius, cast to float: one row with its twin
        pairs, distinct = [((1, 2), (1, 2)), ((1.0, 2.0), (1.0, 2.0))], 1
    seeds = []
    inner = variation.seed_jets
    monkeypatch.setattr(variation, "seed_jets",
                        lambda *a, **k: seeds.append(1) or inner(*a, **k))
    for axis, x in enumerate((grid.u, grid.v)):
        seeds.clear()
        values, derivs, rows = variation._factor_jets(
            [pair[axis] for pair in pairs], x)
        assert len(seeds) == 1 and len(values) == len(derivs) == distinct
        for pair, i in zip(pairs, rows, strict=True):
            own = _own_jet(bump1(*pair[axis]), x)
            assert _same_bits(values[i], own[0])
            assert _same_bits(derivs[i], own[1])


class _HandMade:
    """F(u, v) = bu(u) * bv(v) for any 1-D callables: it carries .factors
    but is no _ProductBump."""

    def __init__(self, bu, bv):
        self.factors = (bu, bv)

    def __call__(self, u, v):
        bu, bv = self.factors
        return bu(u) * bv(v)


def test_stability_scan_takes_hand_made_products_through_tangential(
        monkeypatch):
    # products of callables that are no bump1 factors, or are, go through
    # tangential() on each block and equal quadratic_form bit for bit
    P = build_surface("xyt-graph").patch
    b = bump1(0.5, 1.5)
    hand = [_HandMade(b, _plain), _HandMade(_nothing, b),
            _HandMade(_plain, _nothing), _HandMade(b, bump1(0.0, 1.0))]
    bumps = random_product_bumps(P.domain, 2, np.random.default_rng(6))
    bumps[1:1] = [(F, {"hand": i}) for i, F in enumerate(hand)]
    calls = []
    inner = variation.tangential
    monkeypatch.setattr(variation, "tangential",
                        lambda flds, f: calls.append(f) or inner(flds, f))
    out = stability_scan(P, bumps=bumps, nu=64, nv=64)
    assert calls == hand
    monkeypatch.setattr(variation, "tangential", inner)
    _assert_matches(out, bumps, _expected_scan(P, bumps, 64))


def test_stability_scan_evaluates_each_factor_and_potential_once(
        monkeypatch):
    # the 25 distinct bump1 factors of each axis share one stacked 1-D
    # jet; one potential per block
    P = build_surface("xyt-graph").patch
    ref = stability_scan(P, nu=96, nv=96)
    seeds, pots = [], []
    inner_seed, inner_pot = variation.seed_jets, variation._potential
    monkeypatch.setattr(variation, "seed_jets",
                        lambda *a, **k: seeds.append(1) or inner_seed(*a, **k))
    monkeypatch.setattr(variation, "_potential",
                        lambda zz: pots.append(1) or inner_pot(zz))
    out = stability_scan(P, nu=96, nv=96)
    assert out == ref
    assert len(seeds) == 2
    assert len(pots) == 1  # 97^2 nodes: one block


@pytest.mark.parametrize("block_nodes, blocks", [(8192, 1), (4096, 2),
                                                  (776, 13)])
def test_stability_scan_evaluates_the_frame_once_per_block(monkeypatch,
                                                           block_nodes,
                                                           blocks):
    # 97 x 97 nodes: one block by default, two of 64 rows (6208 nodes) at
    # 4096, thirteen of 8 rows (776 nodes) at 776, each last block shorter
    P = build_surface("xyt-graph").patch
    bumps = random_product_bumps(P.domain, 12, np.random.default_rng(5))
    ref = stability_scan(P, bumps=bumps, nu=96, nv=96)
    monkeypatch.setattr(measure, "_BLOCK_NODES", block_nodes)
    nodes = []
    inner = measure.zy_second

    def counted(P, f, u, v, order=2):
        nodes.append(np.size(u))
        return inner(P, f, u, v, order=order)

    monkeypatch.setattr(measure, "zy_second", counted)
    for count in (1, 12):
        nodes.clear()
        out = stability_scan(P, bumps=bumps[:count], nu=96, nv=96)
        assert len(nodes) == blocks
        assert sum(nodes) == 97 * 97
        assert out["table"] == ref["table"][:count]


def test_stability_scan_streams_the_frame_in_node_chunks():
    # one block's order-2 frame at a time: holding the frame of all 257^2
    # nodes would take ~632 bytes per node, about 42 MB
    P = build_surface("xyt-graph").patch
    bumps = random_product_bumps(P.domain, 3, np.random.default_rng(5))
    tracemalloc.start()
    try:
        stability_scan(P, bumps=bumps, nu=256, nv=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_intrinsic_form_streams_the_graph_jets_in_node_chunks():
    # one block's order-2 graph jets at a time: holding those of all
    # 1025^2 nodes took ~540 bytes per node, about 540 MB
    Gr = IntrinsicGraph(ZERO, (-1, 1, -1, 1))
    tracemalloc.start()
    try:
        intrinsic_stability_form(Gr, bump2(0.0, 0.0, 0.9, 0.9), nu=1024,
                                 nv=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20


def _gate_message(fn, monkeypatch, block_nodes):
    monkeypatch.setattr(measure, "_BLOCK_NODES", block_nodes)
    with pytest.raises(ValueError, match="not H-minimal") as err:
        fn()
    return str(err.value)


@pytest.mark.parametrize("n", [64, 130])
def test_minimality_gate_reads_the_whole_grid_off_the_band(monkeypatch, n):
    # the paraboloid's characteristic point is a node at 64^2 and its H is
    # NaN there, so the gate must take max |H| off the band; taken over the
    # whole grid, the message does not depend on the blocking
    P = build_surface("t-graph:parab", domain=(-1, 1, -1, 1)).patch
    F = bump2(0.0, 0.0, 0.9, 0.9)
    for fn in (lambda: quadratic_form(P, F, nu=n, nv=n),
               lambda: stability_scan(P, nu=n, nv=n, n_centers=2,
                                      n_radii=1)):
        messages = {_gate_message(fn, monkeypatch, b) for b in (1000, 10**9)}
        assert len(messages) == 1


def test_stability_scan_of_an_empty_family_needs_no_frame():
    # no bump, no frame: a non-minimal surface is not rejected
    P = build_surface("t-graph:parab").patch
    out = stability_scan(P, bumps=[], nu=48, nv=48)
    assert out == {"table": [], "min_value": None, "argmin": None,
                   "witness": None, "count": 0}
    with pytest.raises(ValueError, match="not H-minimal"):
        stability_scan(P, bumps=_lattice(P, 48)[:1], nu=48, nv=48)


def test_plane_stable_under_random_bumps(rng):
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    for F, meta in random_product_bumps((0, 1, 0, 1), 20, rng, margin=0.05):
        assert quadratic_form(P, F, nu=48, nv=48) >= -1e-10


def test_bump_lattice_structure():
    bumps = product_bump_lattice((0, 1, 0, 1), 3, 2, margin=0.1)
    assert len(bumps) == 18  # 3x3 centers, 2 radius levels
    for F, meta in bumps:
        assert {"cu", "cv", "ru", "rv"} <= set(meta)
        assert 0.1 <= meta["cu"] <= 0.9
        # compact support: zero on the domain corner
        assert F(0.0, 0.0) == 0.0


# -- intrinsic stability form ----------------------------------------------------------

def test_intrinsic_form_on_flat_graph():
    Gr = IntrinsicGraph(lambda u, v: 0.0 * u, (0, 1, 0, 1))
    F = lambda u, v: u * (1 - u) * v * (1 - v)
    out = intrinsic_stability_form(Gr, F, nu=128, nv=128)
    assert out["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert out["rhs"] == pytest.approx(1.0 / 90.0, rel=1e-6)
    assert out["Q"] == pytest.approx(1.0 / 90.0, rel=1e-6)
    assert out["max_BBphi"] == pytest.approx(0.0, abs=1e-12)


def test_intrinsic_form_linear_graph_is_stable(rng):
    Gr = IntrinsicGraph(lambda u, v: 0.8 * u, (-1, 1, -1, 1))
    out = intrinsic_stability_form(Gr, bump2(0.0, 0.0, 0.9, 0.9),
                                   nu=96, nv=96)
    assert out["max_BBphi"] < 1e-10
    assert out["Q"] > 0.0


def test_intrinsic_form_matches_patch_quadratic_form():
    # x = yt written intrinsically: phi = uv / (1 + u^2/2)
    Gr = IntrinsicGraph(lambda u, v: u * v / (1.0 + u * u / 2.0),
                        (-3, 3, -2, 2), name="xyt")
    F = bump2(0.0, 0.0, 2.0, 1.2)
    out = intrinsic_stability_form(Gr, F, nu=96, nv=96)
    qf = quadratic_form(intrinsic_to_patch(Gr), F, nu=96, nv=96)
    assert abs(out["Q"] - qf) < 1e-4


def _whole_grid_intrinsic_form(Gr, F, n):
    """The graph form on whole-grid jets and weights, each side reduced by
    one pairwise_sum: the reference the streamed form must equal."""
    grid = measure.QuadratureGrid(Gr.domain, n, n)
    weights = np.outer(grid.wu, grid.wv)
    uj, vj = seed_jets(np.meshgrid(grid.u, grid.v, indexing="ij"), order=2)
    phij = surfaces._as_jet(Gr.phi(uj, vj), uj)
    phi_u, phi_v = jet_partial(phij, 0), jet_partial(phij, 1)
    Bphi = phi_u + phij * phi_v
    worst = float(np.max(np.abs(Bphi.g[0] + phij.v * Bphi.g[1])))
    Bphi_v = phi_v.g[0] + phij.v * phi_v.g[1]
    Fj = surfaces._as_jet(F(uj, vj), uj)
    BF = Fj.g[0] + phij.v * Fj.g[1]
    W = np.sqrt(1.0 + Bphi.v ** 2)
    lhs = measure.pairwise_sum((phi_v.v ** 2 + 2.0 * Bphi_v) * Fj.v ** 2 / W
                               * weights)
    rhs = measure.pairwise_sum(BF ** 2 / W * weights)
    return {"lhs": lhs, "rhs": rhs, "Q": rhs - lhs, "max_BBphi": worst}


def test_intrinsic_form_streamed_equals_the_whole_grid_reduction(
        monkeypatch):
    # 131 x 131 nodes at 1000 block nodes: sixteen blocks of 8 rows and a
    # ragged last block of 3
    Gr = IntrinsicGraph(lambda u, v: u * v / (1.0 + u * u / 2.0),
                        (-3, 3, -2, 2), name="xyt")
    F = bump2(0.0, 0.0, 2.0, 1.2)
    ref = _whole_grid_intrinsic_form(Gr, F, 130)
    monkeypatch.setattr(measure, "_BLOCK_NODES", 1000)
    blocks = []
    inner = variation.seed_jets
    monkeypatch.setattr(variation, "seed_jets",
                        lambda *a, **k: blocks.append(1) or inner(*a, **k))
    assert intrinsic_stability_form(Gr, F, nu=130, nv=130) == ref
    assert len(blocks) == 17


def test_intrinsic_form_gate_fails_on_nan():
    # phi = uv / u is 0 / 0 on the node row u = 0, so B(B phi) is NaN
    # there: the gate raises instead of returning NaN sides
    Gr = IntrinsicGraph(lambda u, v: u * v / u, (-1, 1, -1, 1))
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"max \|B\(B phi\)\| = nan"):
        intrinsic_stability_form(Gr, bump2(0.0, 0.0, 0.9, 0.9), nu=32, nv=32)


def test_intrinsic_form_rejects_nonminimal_graph():
    Gr = IntrinsicGraph(lambda u, v: u * v, (-1, 1, -1, 1))
    with pytest.raises(ValueError, match="not H-minimal"):
        intrinsic_stability_form(Gr, bump2(0.0, 0.0, 0.9, 0.9), nu=32, nv=32)
