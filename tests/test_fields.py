import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnot_calc import cli, fields
from carnot_calc.fields import _coordinate_jet, _zeros
from carnot_calc import (
    DerivativeEngine,
    FD,
    FieldError,
    Jet,
    ScalarField,
    build_field,
    build_group,
    bump1,
    bump2,
    coordinate_field,
    dilate,
    gauge_power_field,
    horizontal_jet,
    jet_partial,
    poly_field,
    seed_jets,
    x_derivative,
)

H1 = build_group("h1")
H2 = build_group("hn:2")
ENGEL = build_group("engel")


# -- jets ---------------------------------------------------------------------

def test_seed_jets_polynomial_derivatives():
    uj, vj = seed_jets((0.7, -0.4), order=2)
    h = uj * uj * vj + 3.0
    assert h.v == pytest.approx(0.7 * 0.7 * -0.4 + 3.0)
    assert np.allclose(h.g, [2 * 0.7 * -0.4, 0.7 * 0.7])
    assert np.allclose(h.h, [[2 * -0.4, 2 * 0.7], [2 * 0.7, 0.0]])


def test_jet_chain_rule_matches_finite_differences():
    def f(u, v):
        return np.exp(np.sin(u) + 0.5 * v) / (2.0 + u * u)

    u0, v0 = 0.3, -0.8
    uj, vj = seed_jets((u0, v0), order=2)
    fj = f(uj, vj)
    h = 1e-5
    fd_u = (f(u0 + h, v0) - f(u0 - h, v0)) / (2 * h)
    fd_v = (f(u0, v0 + h) - f(u0, v0 - h)) / (2 * h)
    assert abs(fj.g[0] - fd_u) < 1e-9
    assert abs(fj.g[1] - fd_v) < 1e-9
    fd_uu = (f(u0 + h, v0) - 2 * f(u0, v0) + f(u0 - h, v0)) / h**2
    assert abs(fj.h[0, 0] - fd_uu) < 1e-5


def test_jet_partial_downgrades_order():
    uj, vj = seed_jets((1.1, 0.2), order=2)
    fj = uj * uj * vj
    fu = jet_partial(fj, 0)
    assert fu.v == pytest.approx(2 * 1.1 * 0.2)
    assert np.allclose(fu.g, [2 * 0.2, 2 * 1.1])
    assert fu.h is None


def test_seed_jets_vectorized():
    u = np.linspace(0.0, 1.0, 5)
    v = np.linspace(-1.0, 0.0, 5)
    uj, vj = seed_jets((u, v), order=2)
    fj = uj * vj
    assert np.allclose(fj.v, u * v)
    assert np.allclose(fj.g[0], v)
    assert np.allclose(fj.h[0][1], np.ones(5))
    # c - jet equals the constant jet minus the jet, at orders 2 and 1
    for j in (fj, jet_partial(fj, 0)):
        out = 2.5 - j
        ref = Jet(2.5, *_zeros(2, 1 if j.h is None else 2)) - j
        assert np.array_equal(out.v, ref.v) and np.array_equal(out.g, ref.g)
        if j.h is None:
            assert out.h is None and ref.h is None
        else:
            assert np.array_equal(out.h, ref.h)


def test_seed_jets_keep_repeated_axes_at_length_one():
    # broadcast views of row and column nodes seed (3 x 1) and (1 x 4)
    # jets whose partials are the structural floats 1.0 and 0.0;
    # expressions in both come out on the grid, equal to full seeds
    u, v = np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 0.0, 4)
    uj, vj = seed_jets(np.broadcast_arrays(u[:, None], v), order=2)
    assert [j.v.shape for j in (uj, vj)] == [(3, 1), (1, 4)]
    assert [tuple(j.g) for j in (uj, vj)] == [(1.0, 0.0), (0.0, 1.0)]
    assert all(type(e) is float and e == 0.0
               for j in (uj, vj) for row in j.h for e in row)
    # a partial in one coordinate stays one column or row wide
    sq = uj * uj + vj * vj
    assert [np.shape(e) for e in sq.g] == [(3, 1), (1, 4)]
    assert [[e for e in row] for row in sq.h] == [[2.0, 0.0], [0.0, 2.0]]
    U, V = np.meshgrid(u, v, indexing="ij")
    fj = bump2(0.5, -0.5, 0.8, 0.9)(uj, vj) * uj
    ref = bump2(0.5, -0.5, 0.8, 0.9)(*seed_jets((U, V), order=2)) \
        * seed_jets((U, V), order=2)[0]
    for part in ("v", "g", "h"):
        assert np.array_equal(getattr(fj, part), getattr(ref, part))
    # a scalar beside an array keeps the array's number of axes
    uj, vj = seed_jets((u, 0.5), order=1)
    assert vj.v.shape == (1,)
    assert [np.shape(e) for e in (uj * vj).g] == [(1,), (3,)]
    assert np.asarray((uj * vj).g).shape == (2, 3)


def test_stacked_partials_broadcast_every_entry_to_one_shape():
    # a Hessian whose rows mix floats and arrays stacks to (2, 2, nodes),
    # each entry equal to the partial it broadcasts
    u, v = np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 0.0, 4)
    uj, vj = seed_jets(np.broadcast_arrays(u[:, None], v), order=2)
    for j, shape in ((2.0 * vj ** 3, (1, 4)), (2.0 * uj ** 3, (3, 1)),
                     (uj * vj ** 3, (3, 4))):
        g, h = np.asarray(j.g), np.asarray(j.h)
        assert g.shape == (2,) + shape and h.shape == (2, 2) + shape
        for k in range(2):
            assert np.array_equal(g[k], np.broadcast_to(j.g[k], shape))
            for l in range(2):
                assert np.array_equal(h[k, l],
                                      np.broadcast_to(j.h[k, l], shape))
    # at one point every entry is a number
    assert np.asarray(uj.h).shape == (2, 2)
    assert np.asarray(seed_jets((0.3, 0.4, 0.5))[0].g).shape == (3,)


def test_every_product_of_a_variation_stacks(monkeypatch):
    # stacking the partials of each jet product, as a tracer that sizes
    # them does, must not fail on a cubic t-graph's order-2 frames
    mul = Jet.__mul__

    def stacked(self, other):
        out = mul(self, other)
        np.asarray(out.g)
        if out.h is not None:
            np.asarray(out.h)
        return out

    monkeypatch.setattr(Jet, "__mul__", stacked)
    monkeypatch.setattr(Jet, "__rmul__", stacked)
    surface = ("t-graph:poly:[[1.0,[2,0]],[1.0,[0,2]],[0.05,[3,0]],"
               "[-0.04,[2,1]],[0.03,[1,2]],[0.02,[0,3]]]")
    for mode in ("v1", "v2-full"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["variation", "--surface", surface, "--mode", mode,
                            "--grid", "16", "--field",
                            '{"a": "bump:0.1,0.1,0.5,0.5"}']) == 0


def test_constant_times_jet_has_no_cross_partials():
    # a plain number is a constant with no partials: 2.0 * jet scales each
    # partial entry and keeps the structural zeros, with no zero arrays
    uj, vj = seed_jets((np.linspace(0.0, 1.0, 5), 0.25), order=2)
    for j in (uj, vj, uj * uj):
        out = 2.0 * j
        assert np.array_equal(out.v, 2.0 * j.v)
        for k in range(2):
            assert np.array_equal(out.g[k], 2.0 * j.g[k])
            for l in range(2):
                assert np.array_equal(out.h[k, l], 2.0 * j.h[k, l])
        # the cross partial is the float 0.0
        assert type(out.h[0, 1]) is float and out.h[0, 1] == 0.0
    assert type((2.0 * uj).g[1]) is float and (2.0 * uj * uj).g[1] == 0.0


# -- bumps --------------------------------------------------------------------

def test_bump1_support_and_smoothness():
    b = bump1(center=0.0, radius=1.0)
    assert b(0.0) == pytest.approx(np.exp(-1.0))
    assert b(1.0) == 0.0
    assert b(1.5) == 0.0
    assert b(-2.0) == 0.0
    # jets stay finite across the support boundary
    uj, vj = seed_jets((np.array([0.0, 0.999, 1.001]), np.zeros(3)), order=2)
    bj = b(uj)
    assert np.all(np.isfinite(bj.v)) and np.all(np.isfinite(bj.g))
    # the declared support interval, and exact zeros outside it: the value
    # +0.0, the derivatives 0 up to their sign
    assert b.support == (-1.0, 1.0)
    assert bump1(0.5, -0.25).support == (0.25, 0.75)
    x = np.array([-3.0, -1.0, 1.0, 1.5, 2.0])
    for order in (1, 2):
        (xj,) = seed_jets((x,), order=order)
        bj = b(xj)
        assert np.all(bj.v == 0.0) and not np.any(np.signbit(bj.v))
        assert np.all(np.asarray(bj.g) == 0.0)
        assert order == 1 or np.all(np.asarray(bj.h) == 0.0)


def test_bump2_jets_match_finite_differences():
    b = bump2(0.1, -0.2, 0.7, 0.9)
    u0, v0 = 0.3, 0.1
    uj, vj = seed_jets((u0, v0), order=2)
    bj = b(uj, vj)
    h = 1e-6
    fd_u = (b(u0 + h, v0) - b(u0 - h, v0)) / (2 * h)
    fd_v = (b(u0, v0 + h) - b(u0, v0 - h)) / (2 * h)
    assert abs(bj.g[0] - fd_u) < 1e-7
    assert abs(bj.g[1] - fd_v) < 1e-7


# -- horizontal derivatives ---------------------------------------------------

def test_coordinate_fields_have_flat_horizontal_jets(rng):
    # gradH of x_j is the j-th basis vector and its horizontal Hessian is 0
    for G in (H1, H2, ENGEL):
        for j in range(G.m):
            f = coordinate_field(G, j)
            for _ in range(5):
                g = rng.normal(size=G.dim) * 2
                jet = horizontal_jet(G, f, g)
                e = np.zeros(G.m)
                e[j] = 1.0
                assert np.allclose(jet["gradH"], e, atol=1e-12)
                assert np.allclose(jet["hessH"], 0.0, atol=1e-12)
                assert jet["lapH"] == pytest.approx(0.0, abs=1e-12)


def test_vertical_coordinate_jet_h1(rng):
    f = coordinate_field(H1, 2)  # the t coordinate
    for _ in range(10):
        x, y, t = rng.normal(size=3) * 2
        jet = horizontal_jet(H1, f, [x, y, t])
        assert np.allclose(jet["gradH"], [-y / 2, x / 2], atol=1e-12)
        # X1 X2 t = 1/2 and X2 X1 t = -1/2, so the symmetrized Hessian is 0
        assert np.allclose(jet["hessH"], 0.0, atol=1e-12)
        assert jet["lapH"] == pytest.approx(0.0, abs=1e-12)


def test_radial_square_gradient_identity(rng):
    f = ScalarField(H1, lambda x, y, t: x * x + y * y, name="r2")
    for _ in range(10):
        g = rng.normal(size=3) * 2
        jet = horizontal_jet(H1, f, g)
        assert np.dot(jet["gradH"], jet["gradH"]) == pytest.approx(
            4.0 * (g[0] ** 2 + g[1] ** 2), rel=1e-12)


def test_x_derivative_kronecker(rng):
    for G in (H1, ENGEL):
        g = rng.normal(size=G.dim)
        for i in range(1, G.m + 1):
            for j in range(G.m):
                val = x_derivative(G, coordinate_field(G, j), i, g)
                assert val == pytest.approx(1.0 if j == i - 1 else 0.0,
                                            abs=1e-12)


def test_x_derivative_constant_field():
    f = ScalarField(H1, lambda x, y, t: 7.5 + 0 * x, name="const", check=False)
    assert x_derivative(H1, f, 1, [0.3, -0.2, 1.0]) == pytest.approx(0.0)


def test_engel_top_coordinate_derivative(rng):
    f = coordinate_field(ENGEL, 3)  # the depth-3 coordinate
    for _ in range(10):
        x, y, t, s = rng.normal(size=4) * 2
        val = x_derivative(ENGEL, f, 1, [x, y, t, s])
        assert val == pytest.approx(-(t / 2 + x * y / 12), abs=1e-12)


exponent = st.integers(0, 2)


@settings(max_examples=30, deadline=None)
@given(exps=st.lists(st.tuples(exponent, exponent, exponent),
                     min_size=1, max_size=3),
       seed=st.integers(0, 10_000))
def test_fd_matches_analytic_on_polynomials(exps, seed):
    rng = np.random.default_rng(seed)
    terms = [[float(rng.uniform(-2, 2)), list(e)] for e in exps]
    f = poly_field(H1, terms)
    g = rng.uniform(-1.5, 1.5, size=3)
    fd_engine = DerivativeEngine("finite_difference", h1=1e-5)
    ana = horizontal_jet(H1, f, g)
    fd = horizontal_jet(H1, f, g, engine=fd_engine)
    assert np.max(np.abs(ana["gradH"] - fd["gradH"])) < 1e-6
    assert np.max(np.abs(ana["hessH"] - fd["hessH"])) < 1e-5


def test_fd_horizontal_jet_evaluates_each_frame_once(monkeypatch):
    # frames at g and g +- h2 X_i(g) only: 1 + 2m calls, 5 on H^1, 9 on H^2
    calls = []
    inner = fields.frame_at
    monkeypatch.setattr(fields, "frame_at",
                        lambda G, g: calls.append(1) or inner(G, g))
    for G, count in ((H1, 5), (H2, 9)):
        calls.clear()
        horizontal_jet(G, gauge_power_field(G, 3),
                       np.linspace(0.2, 0.7, G.dim), engine=FD)
        assert len(calls) == count


def test_commutator_is_vertical_fd(rng):
    # (X1 X2 - X2 X1) f = T f, nested central differences
    f = ScalarField(H1, lambda x, y, t: x * y * y + t * x - y * t,
                    name="cubic", check=False)
    inner = DerivativeEngine("finite_difference")
    outer = DerivativeEngine("finite_difference", h1=1e-4)

    def nested(i, j, g):
        fld = ScalarField(H1, lambda x, y, t: np.vectorize(
            lambda a, b, c: x_derivative(H1, f, j, [a, b, c], inner))(x, y, t),
            name="inner", check=False)
        return x_derivative(H1, fld, i, g, outer)

    for _ in range(3):
        g = rng.normal(size=3)
        comm = nested(1, 2, g) - nested(2, 1, g)
        tf = x_derivative(H1, f, 3, g, inner)
        assert abs(comm - tf) < 1e-6


def test_commutator_is_vertical_analytic(rng):
    # same bracket with zero differencing: for f = xy^2 + xt - yt the frame
    # derivatives are again polynomials,
    #   X1 f = (3/2) y^2 + t - xy/2,   X2 f = (3/2) xy - t + x^2/2,
    # so the outer derivatives evaluate through exact jets
    f = poly_field(H1, [[1.0, [1, 2, 0]], [1.0, [1, 0, 1]], [-1.0, [0, 1, 1]]])
    F1 = poly_field(H1, [[1.5, [0, 2, 0]], [1.0, [0, 0, 1]], [-0.5, [1, 1, 0]]])
    F2 = poly_field(H1, [[1.5, [1, 1, 0]], [-1.0, [0, 0, 1]], [0.5, [2, 0, 0]]])
    for _ in range(10):
        g = rng.normal(size=3) * 2
        for i in (1, 2):  # the expansions really are the frame derivatives
            got = x_derivative(H1, f, i, g)
            want = (F1 if i == 1 else F2).value(g)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        comm = x_derivative(H1, F2, 1, g) - x_derivative(H1, F1, 2, g)
        tf = x_derivative(H1, f, 3, g)
        assert abs(comm - tf) < 1e-12


def test_sublaplacian_expanded_form_hn(rng):
    # trace of the horizontal Hessian against the expanded coordinate form
    # on the five-dimensional Heisenberg group
    f = poly_field(H2, [[1.0, [2, 1, 0, 0, 1]], [0.5, [0, 0, 3, 1, 0]],
                        [-2.0, [1, 0, 0, 0, 2]]])
    n = 2
    for _ in range(10):
        g = rng.normal(size=5) * 1.5
        x, y = g[:n], g[n:2 * n]
        jet = f.jet(g, order=2)
        Hf, gf = jet.h, jet.g
        expanded = sum(Hf[i, i] + Hf[n + i, n + i] for i in range(n))
        expanded += (x @ x + y @ y) / 4.0 * Hf[2 * n, 2 * n]
        expanded += sum(x[i] * Hf[n + i, 2 * n] - y[i] * Hf[i, 2 * n]
                        for i in range(n))
        lap = horizontal_jet(H2, f, g)["lapH"]
        assert abs(lap - expanded) < 1e-8


def test_coordinates_are_harmonic(rng):
    for G in (H1, H2):
        for idx in range(G.dim):
            f = coordinate_field(G, idx)
            for _ in range(5):
                g = rng.normal(size=G.dim) * 2
                assert abs(horizontal_jet(G, f, g)["lapH"]) < 1e-8
                assert abs(horizontal_jet(G, f, g, engine=FD)["lapH"]) < 1e-6


# -- registration and the catalog ----------------------------------------------

def test_scalar_field_rejects_wrong_gradient():
    with pytest.raises(FieldError):
        ScalarField(H1, lambda x, y, t: x * y,
                    gradient=lambda x, y, t: (y, x, 1.0))  # dt term is wrong


def test_scalar_field_accepts_consistent_callbacks():
    f = ScalarField(H1, lambda x, y, t: x * y + t,
                    gradient=lambda x, y, t: (y, x, 1.0 + 0 * x),
                    hessian=lambda x, y, t: np.array(
                        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    jet = f.jet(np.array([1.0, 2.0, 3.0]), order=2)
    assert jet.v == pytest.approx(5.0)
    assert np.allclose(jet.g, [2.0, 1.0, 1.0])


@pytest.mark.parametrize("fid,point,want", [
    ("x1", [1.0, 2.0, 3.0], 1.0),
    ("y", [1.0, 2.0, 3.0], 2.0),
    ("y1", [1.0, 2.0, 3.0], 2.0),
    ("t", [1.0, 2.0, 3.0], 3.0),
    ("gauge", [1.0, 0.0, 0.0], 1.0),
    ("gauge^2", [1.0, 0.0, 0.0], 1.0),
    ("poly:[[2.0,[1,1,0]]]", [1.0, 2.0, 3.0], 4.0),
])
def test_build_field_catalog(fid, point, want):
    f = build_field(H1, fid)
    assert f.value(point) == pytest.approx(want, rel=1e-12)


def test_build_field_names_coordinates_of_a_custom_group():
    G = build_group({"layer_dims": [3, 2], "brackets": [
        {"i": 1, "j": 2, "layer": 2, "index": 1, "value": 1.0},
        {"i": 1, "j": 3, "layer": 2, "index": 2, "value": 1.0}]})
    g = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert build_field(G, "t2").value(g) == 0.5
    assert build_field(G, "x3").value(g) == 0.3


@pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
def test_engel_gauge_power_is_homogeneous(k, rng):
    f = gauge_power_field(ENGEL, k)
    for _ in range(3):
        g = rng.uniform(-1.0, 1.0, size=4)
        for lam in (0.5, 3.0):
            assert f.value(dilate(ENGEL, lam, g)) == \
                pytest.approx(lam ** k * f.value(g), rel=1e-12)


def test_finite_difference_coordinate_jets_are_first_order():
    f = build_field(H1, "gauge^4")
    assert _coordinate_jet(f, [0.3, -0.2, 0.1], 1, FD).h is None
    with pytest.raises(FieldError, match="first-order"):
        _coordinate_jet(f, [0.3, -0.2, 0.1], 2, FD)


def test_build_field_rejects_unknown_id():
    with pytest.raises(FieldError):
        build_field(H1, "nope")


def test_poly_field_analytic_gradient(rng):
    f = poly_field(H1, [[1.5, [2, 0, 1]], [-0.5, [0, 1, 0]]])
    g = rng.normal(size=3)
    x, y, t = g
    assert np.allclose(f.jet(g, order=1).g,
                       [3.0 * x * t, -0.5, 1.5 * x * x], atol=1e-12)
