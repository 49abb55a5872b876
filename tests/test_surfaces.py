import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnot_calc.curvature import levelset_fields
from carnot_calc.fields import _coordinate_jet
from carnot_calc import surfaces
from carnot_calc import (
    Jet,
    FD,
    CharacteristicPointError,
    DeformationField,
    DegenerateSurfaceError,
    IntrinsicGraph,
    LevelSetSurface,
    ParamPatch,
    ScalarField,
    build_group,
    build_surface,
    bump2,
    burgers,
    catalog_ids,
    coordinate_laplacians,
    deform_patch,
    dilate_levelset,
    dilate_patch,
    first_variation_analytic,
    frame_at,
    frame_levelset,
    frame_param,
    group_product,
    hmc_divergence,
    horizontal_plane_residual,
    intrinsic_to_patch,
    left_translate_patch,
    patch_fields_jets,
    perimeter,
    restrict_to_patch,
    second_variation_full,
    seed_jets,
    stability_scan,
    tangential,
    tangential_second,
    translate_levelset,
    zy_derivative,
    zy_second,
)

H1 = build_group("h1")


# -- level-set frames -----------------------------------------------------------

def test_vertical_plane_frame():
    S = build_surface("vertical-plane:1,0,0").levelset
    fr = frame_levelset(S, [0.0, 0.7, -0.3])
    assert np.allclose(fr.p, [1.0, 0.0], atol=1e-14)
    assert fr.omega == pytest.approx(0.0, abs=1e-14)
    assert fr.W == pytest.approx(1.0)
    assert np.allclose(fr.pbar, [1.0, 0.0], atol=1e-14)


def test_t_graph_frame_closed_form(rng):
    S = build_surface("t-graph:zero").levelset
    for _ in range(10):
        x, y = rng.uniform(0.2, 2.0, size=2)
        fr = frame_levelset(S, [x, y, 0.0])
        assert np.allclose(fr.p, [-y / 2, x / 2], atol=1e-12)
        assert fr.omega == pytest.approx(1.0)
        assert fr.W == pytest.approx(np.hypot(x, y) / 2, rel=1e-12)


def test_characteristic_point_raises():
    S = build_surface("t-graph:zero").levelset
    with pytest.raises(CharacteristicPointError):
        frame_levelset(S, [0.0, 0.0, 0.0])


def test_characteristic_flag_when_not_normalizing():
    S = build_surface("t-graph:zero").levelset
    fr = frame_levelset(S, [0.0, 0.0, 0.0], normalized=False)
    assert fr.is_characteristic
    with pytest.raises(CharacteristicPointError):
        fr.require_noncharacteristic()


def test_degenerate_gradient_raises():
    # every level-set frame path runs the same checks
    S = LevelSetSurface(H1, ScalarField(H1, lambda x, y, t: 0.0 * x,
                                        name="flat", check=False))
    for frame in (frame_levelset, levelset_fields, hmc_divergence):
        with pytest.raises(DegenerateSurfaceError):
            frame(S, [1.0, 1.0, 1.0])


coords = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(x=coords, y=coords, t=coords)
def test_frame_invariants_on_paraboloid(x, y, t):
    S = build_surface("t-graph:parab").levelset
    g = np.array([x, y, t])
    try:
        fr = frame_levelset(S, g)
    except CharacteristicPointError:
        return
    # unit horizontal gradient of the defining function
    assert fr.pbar @ fr.pbar == pytest.approx(1.0, abs=1e-12)
    # pairings live in the left-invariant metric: express every vector in
    # frame components before taking dot products
    A = fr.frame_matrix()
    comp = lambda V: np.linalg.solve(A, V)
    cN = comp(fr.normal_vector())
    cZ = comp(fr.Z_vector())
    cY = comp(fr.Y_vector())
    cnuH = comp(fr.nuH_vector())
    assert abs(cZ @ cN) < 1e-10
    assert abs(cnuH @ cN - fr.W) < 1e-10
    assert abs(cY @ cN - fr.W) < 1e-10
    assert abs(cZ @ cnuH) < 1e-10
    assert cZ @ cZ == pytest.approx(1.0, abs=1e-12)
    assert fr.W == pytest.approx(np.sqrt(fr.p @ fr.p), rel=1e-12)
    assert fr.normN == pytest.approx(
        np.sqrt(fr.W**2 + fr.omega @ fr.omega), rel=1e-12)


# -- parametric frames ----------------------------------------------------------

def test_param_frame_t_graph(rng):
    P = build_surface("t-graph:zero").patch
    u, v = rng.uniform(0.3, 1.8, size=2)
    fr = frame_param(P, (u, v))
    assert np.allclose([fr.p[0], fr.p[1]], [-v / 2, u / 2], atol=1e-12)
    assert fr.omega == pytest.approx(1.0)


def test_param_frame_xyt_graph(rng):
    # the surface x = yt as (uv, u, v)
    P = build_surface("xyt-graph").patch
    for _ in range(10):
        u, v = rng.uniform(-2.0, 2.0, size=2)
        fr = frame_param(P, (u, v))
        s = 1.0 + u * u / 2.0
        assert fr.p[0] == pytest.approx(s, rel=1e-12)
        assert fr.p[1] == pytest.approx(-v * s, rel=1e-12, abs=1e-12)
        assert fr.omega == pytest.approx(-u, rel=1e-12, abs=1e-12)


def test_param_frame_vertical_plane():
    P = build_surface("vertical-plane:1,0,0").patch
    fr = frame_param(P, (0.4, -1.1))
    assert np.allclose(fr.p, [1.0, 0.0], atol=1e-14)
    assert fr.omega == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("sid", ["t-graph:parab", "xyt-graph", "intrinsic:xyt",
                                 "vertical-plane:1,0.5,-0.25"])
def test_param_frame_fd_engine_matches_analytic(sid):
    P = build_surface(sid).patch
    u0, u1, v0, v1 = P.domain
    for u in np.linspace(u0, u1, 4)[1:-1]:
        for v in np.linspace(v0, v1, 4)[1:-1]:
            fa = frame_param(P, (u, v))
            ff = frame_param(P, (u, v), engine=FD)
            assert np.max(np.abs(ff.p - fa.p)) < 1e-6 * max(1.0, fa.W)
            assert abs(ff.omega[0] - fa.omega[0]) < 1e-6 * max(1.0, fa.W)
            assert ff.W == pytest.approx(fa.W, rel=1e-6)


@pytest.mark.parametrize("sid", ["t-graph:parab", "xyt-graph",
                                 "vertical-plane:1,0.5,-0.25"])
def test_levelset_frame_fd_engine_matches_analytic(sid):
    cat = build_surface(sid)
    S, P = cat.levelset, cat.patch
    u0, u1, v0, v1 = P.domain
    for u in np.linspace(u0, u1, 4)[1:-1]:
        for v in np.linspace(v0, v1, 4)[1:-1]:
            g = P.point(u, v)
            fa = frame_levelset(S, g)
            ff = frame_levelset(S, g, engine=FD)
            assert np.max(np.abs(ff.p - fa.p)) < 1e-6
            assert np.max(np.abs(ff.omega - fa.omega)) < 1e-6
            comps = frame_at(H1, g).T @ _coordinate_jet(S.phi, g, 1, FD).g
            assert np.array_equal(ff.p, comps[:2])
            assert np.array_equal(ff.omega, comps[2:])


# -- order-aware patch-frame engine ----------------------------------------------

def _engine_patches():
    parab = build_surface("t-graph:parab").patch
    xyt = build_surface("xyt-graph").patch
    D = DeformationField(lambda u, v: 0.3 * u * v,
                         lambda u, v: 0.1 * u - 0.2 * v * v,
                         lambda u, v: 0.5 * u * u + 0.0 * v)
    return {
        "t-graph": parab,
        "xyt-graph": xyt,
        "vertical-plane": build_surface("vertical-plane:1,0.5,-0.25").patch,
        "intrinsic": build_surface("intrinsic:xyt").patch,
        "dilated": dilate_patch(parab, 1.7),
        "translated": left_translate_patch(xyt, (0.3, -0.2, 0.5)),
        "deformed": deform_patch(parab, D, 0.05),
    }


@pytest.mark.parametrize("name", sorted(_engine_patches()))
def test_patch_fields_order1_values_equal_order2(name):
    P = _engine_patches()[name]
    u0, u1, v0, v1 = P.domain
    U, V = np.meshgrid(np.linspace(u0, u1, 21), np.linspace(v0, v1, 17),
                       indexing="ij")
    f1 = patch_fields_jets(P, U, V, order=1)
    f2 = patch_fields_jets(P, U, V, order=2)
    assert set(f1) == {"x", "y", "p", "q", "omega", "W"}
    for key in ("W", "omega", "p", "q", "x", "y"):
        # order 1 on the nodes, order 2 in each jet value's own shape
        assert isinstance(f1[key], np.ndarray) and f1[key].shape == U.shape
        assert np.array_equal(f1[key], np.broadcast_to(f2[key].v, U.shape),
                              equal_nan=True), key


def test_tgraph_component_jets_keep_seed_shapes():
    # seeds of (rows x 1) and (1 x columns) node views: a component in one
    # coordinate alone keeps that coordinate's shape, and so does each
    # partial in one coordinate; partials that are constant stay floats
    P = build_surface("t-graph:parab").patch
    u, v = np.broadcast_arrays(np.linspace(0.5, 1.5, 5)[:, None],
                               np.linspace(0.5, 1.5, 7))
    for order in (1, 2):
        x, y, t = P.components(*seed_jets((u, v), order=order))
        assert (x.v.shape, y.v.shape, t.v.shape) == ((5, 1), (1, 7), (5, 7))
        assert (tuple(x.g), tuple(y.g)) == ((1.0, 0.0), (0.0, 1.0))
        assert [np.shape(e) for e in t.g] == [(5, 1), (1, 7)]
        if order == 2:
            assert [list(row) for row in t.h] == [[2.0, 0.0], [0.0, 2.0]]
            assert all(type(e) is float for j in (x, y, t) for row in j.h
                       for e in row)


def _count_gamma_jets(monkeypatch):
    """Record, per call of surfaces._gamma_beta_det, whether it ran on jets
    (the gamma/det jets of Z(Zf)) or on plain arrays (the frame values)."""
    calls = []
    inner = surfaces._gamma_beta_det

    def recording(x, *args):
        calls.append(isinstance(x, Jet))
        return inner(x, *args)

    monkeypatch.setattr(surfaces, "_gamma_beta_det", recording)
    return calls


def test_laplacian_routes_build_the_gamma_jets_once_per_frame(monkeypatch):
    P = build_surface("t-graph:parab").patch
    U, V = np.meshgrid(np.linspace(0.6, 1.4, 9), np.linspace(0.6, 1.4, 7),
                       indexing="ij")
    ref = coordinate_laplacians(P, U, V)
    calls = _count_gamma_jets(monkeypatch)
    out = coordinate_laplacians(P, U, V)
    assert calls == [False, True]  # one frame; x, y and t share the jets
    for key in ("lap_x", "lap_y", "lap_t"):
        assert np.array_equal(out[key], ref[key])


def test_coordinate_laplacians_evaluate_moved_components_once(monkeypatch):
    # a moved patch's x, y and t callables each evaluate all three base
    # components; the Laplacians read x, y and t from the one frame instead
    base = build_surface("t-graph:parab").patch
    U, V = np.meshgrid(np.linspace(0.6, 1.4, 9), np.linspace(0.6, 1.4, 7),
                       indexing="ij")
    calls = []
    inner = base.components
    monkeypatch.setattr(base, "components",
                        lambda u, v: calls.append(1) or inner(u, v))
    coordinate_laplacians(dilate_patch(base, 1.7), U, V)
    assert len(calls) == 1


def test_first_order_routes_never_build_the_gamma_jets(monkeypatch):
    P = build_surface("t-graph:parab").patch
    D = DeformationField(bump2(1.0, 1.0, 0.4, 0.4), bump2(1.0, 1.0, 0.3, 0.4),
                         bump2(1.0, 1.0, 0.4, 0.3))
    xyt = build_surface("xyt-graph").patch
    calls = _count_gamma_jets(monkeypatch)
    first_variation_analytic(P, D, nu=32, nv=32)
    second_variation_full(P, D, nu=32, nv=32)
    stability_scan(xyt, n_centers=2, n_radii=2, nu=32, nv=32)
    assert calls and not any(calls)


def test_zy_second_order1_is_the_value_frame():
    P = build_surface("xyt-graph").patch
    U, V = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-1, 1, 9))
    zz1 = zy_second(P, None, U, V, order=1)
    zz2 = zy_second(P, None, U, V)
    for key in ("W", "omega", "p", "q"):
        assert np.array_equal(zz1[key], zz2[key])
    with pytest.raises(ValueError, match="tangential derivatives"):
        zy_second(P, lambda u, v: u, U, V, order=1)
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        zy_second(P, None, U, V, order=3)


# -- tangential derivatives ------------------------------------------------------

def test_zy_derivative_constant_vanishes(rng):
    P = build_surface("t-graph:parab").patch
    d = zy_derivative(P, lambda u, v: 3.0 + 0.0 * u, tuple(rng.uniform(0.6, 1.4, 2)))
    for k in ("Zf", "Bf", "Yf", "Tf"):
        assert d[k] == pytest.approx(0.0, abs=1e-12)
    assert d["value"] == pytest.approx(3.0)


def test_zy_derivative_plane_coordinate():
    P = build_surface("vertical-plane:1,0,0").patch
    d = zy_derivative(P, lambda u, v: u, (0.3, 0.8))
    assert d["Zf"] == pytest.approx(-1.0, rel=1e-10)


def test_zy_second_keys_and_plane_values():
    P = build_surface("vertical-plane:1,0,0").patch
    out = zy_second(P, lambda u, v: u, 0.3, 0.8)
    assert out["Z2f"] == pytest.approx(0.0, abs=1e-10)
    assert out["Zf"] == pytest.approx(-1.0, rel=1e-10)
    for key in ("W", "pbar", "qbar", "obar", "Zpbar", "Zqbar", "Zobar"):
        assert np.isfinite(out[key])


def test_tangential_on_an_evaluated_frame_matches_zy_second():
    P = build_surface("xyt-graph").patch
    U, V = np.meshgrid(np.linspace(-2, 2, 7), np.linspace(-1, 1, 5))
    flds = zy_second(P, None, U, V)["flds"]
    for f in (lambda u, v: u * v * v, restrict_to_patch(P, lambda x, y, t:
                                                        x * t - y)):
        whole = zy_second(P, f, U, V)
        part = tangential(flds, f)
        assert set(part) == {"value", "Zf", "Bf", "Tf", "Yf"}
        second = tangential_second(flds, f)
        assert set(second) == set(part) | {"Z2f"}
        for key, val in second.items():
            assert np.array_equal(val, whole[key]), key
            assert key == "Z2f" or np.array_equal(val, part[key]), key


def test_zy_second_curved_patch_finite(rng):
    P = build_surface("xyt-graph").patch
    u, v = rng.uniform(-1.5, 1.5, size=2)
    out = zy_second(P, lambda u, v: u * v, u, v)
    for key in ("Zf", "Z2f", "Yf", "Zpbar", "Zobar"):
        assert np.isfinite(out[key])


def _first_order(u, v):
    # a surface function carrying first derivatives only
    return Jet(u.v * v.v, tuple(a * v.v + b * u.v for a, b in zip(u.g, v.g)))


def test_first_order_surface_function_raises():
    # tangential evaluates f on first-order jets, so a first-order f serves
    # it; the Laplacian routes, which take Z(Zf), raise
    P = build_surface("xyt-graph").patch
    flds = zy_second(P, None, 0.3, 0.4)["flds"]
    assert tangential(flds, _first_order) == tangential(flds,
                                                        lambda u, v: u * v)
    with pytest.raises(ValueError, match="second-order jet"):
        tangential_second(flds, _first_order)
    with pytest.raises(ValueError, match="second-order jet"):
        zy_second(P, _first_order, 0.3, 0.4)


def test_restrict_to_patch_matches_composition(rng):
    P = build_surface("t-graph:parab").patch
    field = ScalarField(H1, lambda x, y, t: x * t - y, name="probe",
                        check=False)
    f = restrict_to_patch(P, field)
    u, v = rng.uniform(0.6, 1.4, size=2)
    x, y, t = P.point(u, v)
    assert f(u, v) == pytest.approx(x * t - y, rel=1e-12)
    # jet evaluation survives the restriction
    uj, vj = seed_jets((u, v), order=2)
    assert f(uj, vj).v == pytest.approx(x * t - y, rel=1e-12)


# -- intrinsic graphs ------------------------------------------------------------

def test_intrinsic_zero_graph_is_vertical_plane():
    Gr = IntrinsicGraph(lambda u, v: 0.0 * u, (-1, 1, -1, 1))
    P = intrinsic_to_patch(Gr)
    fr = frame_param(P, (0.2, -0.4))
    assert fr.p[0] == pytest.approx(1.0)
    assert fr.p[1] == pytest.approx(0.0, abs=1e-12)
    assert fr.omega == pytest.approx(0.0, abs=1e-12)
    assert fr.W == pytest.approx(1.0)


@pytest.mark.parametrize("alpha", [0.5, -1.25])
def test_intrinsic_linear_graph_frame(alpha, rng):
    Gr = IntrinsicGraph(lambda u, v: alpha * u, (-1, 1, -1, 1),
                        name="linear")
    P = intrinsic_to_patch(Gr)
    for _ in range(5):
        u, v = rng.uniform(-0.9, 0.9, size=2)
        fr = frame_param(P, (u, v))
        assert fr.p[0] == pytest.approx(1.0)
        assert fr.p[1] == pytest.approx(-alpha, rel=1e-12)
        assert fr.omega == pytest.approx(0.0, abs=1e-12)
        assert fr.W == pytest.approx(np.hypot(1.0, alpha), rel=1e-12)


def test_intrinsic_v_graph_frame(rng):
    Gr = IntrinsicGraph(lambda u, v: v + 0.0 * u, (-1, 1, -1, 1))
    P = intrinsic_to_patch(Gr)
    u, v = rng.uniform(-0.9, 0.9, size=2)
    fr = frame_param(P, (u, v))
    assert fr.p[1] == pytest.approx(-v, rel=1e-12, abs=1e-12)
    assert fr.omega == pytest.approx(-1.0, rel=1e-12)


def test_intrinsic_companion_levelset_vanishes(rng):
    Gr = IntrinsicGraph(lambda u, v: u * v, (-1, 1, -1, 1), name="uv")
    P = intrinsic_to_patch(Gr)
    assert P.levelset is not None
    for _ in range(20):
        u, v = rng.uniform(-1.0, 1.0, size=2)
        g = P.point(u, v)
        assert abs(P.levelset.phi.value(g)) < 1e-12


# -- graph derivative -------------------------------------------------------------

def test_burgers_zero_graph_is_u_derivative(rng):
    Gr = IntrinsicGraph(lambda u, v: 0.0 * u, (-1, 1, -1, 1))
    F = lambda u, v: u * u + 3.0 * v
    u, v = rng.uniform(-0.9, 0.9, size=2)
    assert burgers(Gr, F, (u, v)) == pytest.approx(2.0 * u, rel=1e-8)


def test_burgers_of_linear_graph_is_slope(rng):
    Gr = IntrinsicGraph(lambda u, v: 0.5 * u, (-1, 1, -1, 1))
    u, v = rng.uniform(-0.9, 0.9, size=2)
    assert burgers(Gr, Gr.phi, (u, v)) == pytest.approx(0.5, rel=1e-8)


def test_burgers_constant_vanishes():
    Gr = IntrinsicGraph(lambda u, v: u * v, (-1, 1, -1, 1))
    assert burgers(Gr, lambda u, v: 4.0 + 0.0 * u, (0.3, 0.2)) == \
        pytest.approx(0.0, abs=1e-10)


def test_burgers_callable_form_accepts_jets():
    Gr = IntrinsicGraph(lambda u, v: u * v, (-1, 1, -1, 1))
    bf = burgers(Gr, Gr.phi)
    val = bf(0.3, 0.4)
    # B_phi(phi) = phi_u + phi phi_v = v + (uv) u
    assert float(val) == pytest.approx(0.4 + 0.12 * 0.3, rel=1e-8)
    uj, vj = seed_jets((0.3, 0.4), order=2)
    jet = bf(uj, vj)
    assert jet.v == pytest.approx(0.4 + 0.12 * 0.3, rel=1e-8)
    assert jet.g is not None


# -- horizontal planes -------------------------------------------------------------

def test_horizontal_plane_residual_at_base_point(rng):
    g0 = rng.normal(size=3)
    assert np.allclose(horizontal_plane_residual(H1, g0, g0), 0.0, atol=1e-14)


def test_horizontal_plane_residual_on_plane(rng):
    x0, y0, t0 = rng.normal(size=3)
    for _ in range(10):
        x, y = rng.normal(size=2) * 2
        t = t0 + (x0 * y - y0 * x) / 2.0
        r = horizontal_plane_residual(H1, [x0, y0, t0], [x, y, t])
        assert np.allclose(r, 0.0, atol=1e-12)


def test_horizontal_plane_residual_engel():
    E = build_group("engel")
    r = horizontal_plane_residual(E, np.zeros(4), [1.0, 1.0, 0.0, 0.0])
    assert r.shape == (2,)
    assert np.allclose(r, 0.0, atol=1e-12)


# -- symmetry transport -------------------------------------------------------------

def test_dilate_patch_points_lie_on_dilated_levelset(rng):
    cat = build_surface("t-graph:parab")
    lam = 2.0
    P2 = dilate_patch(cat.patch, lam)
    S2 = dilate_levelset(cat.levelset, lam)
    for _ in range(10):
        u, v = rng.uniform(0.6, 1.4, size=2)
        g = P2.point(u, v)
        assert np.allclose(g, np.array(cat.patch.point(u, v)) * [lam, lam, lam**2])
        assert abs(S2.phi.value(g)) < 1e-12


def test_left_translate_patch_moves_points_and_keeps_W(rng):
    cat = build_surface("t-graph:parab")
    g0 = np.array([0.3, -0.2, 0.5])
    P2 = left_translate_patch(cat.patch, g0)
    S2 = translate_levelset(cat.levelset, g0)
    u, v = rng.uniform(0.6, 1.4, size=2)
    assert np.allclose(P2.point(u, v),
                       group_product(H1, g0, cat.patch.point(u, v)), atol=1e-14)
    assert abs(S2.phi.value(P2.point(u, v))) < 1e-12
    # the horizontal area factor is left-invariant
    assert frame_param(P2, (u, v)).W == pytest.approx(
        frame_param(cat.patch, (u, v)).W, rel=1e-12)


# -- catalog -------------------------------------------------------------------------

TEMPLATE_EXAMPLES = {
    "vertical-plane:<a>,<b>,<c>": "vertical-plane:1,0.5,-0.25",
    "t-graph:poly:<json>": "t-graph:poly:[[0.5, [2, 1]]]",
    "intrinsic:linear:<a>": "intrinsic:linear:0.75",
    "intrinsic:poly:<json>": "intrinsic:poly:[[0.5, [1, 1]]]",
}


def test_catalog_every_id_builds_and_frames():
    for sid in catalog_ids():
        sid = TEMPLATE_EXAMPLES.get(sid, sid)
        cat = build_surface(sid)
        assert cat.levelset is not None
        dom = cat.patch.domain
        u = 0.25 * dom[0] + 0.75 * dom[1]
        v = 0.3 * dom[2] + 0.7 * dom[3]
        fr = frame_param(cat.patch, (u, v), normalized=False)
        assert np.all(np.isfinite(fr.p))


@pytest.mark.parametrize("sid", catalog_ids())
def test_cross_representation_agreement(sid, rng):
    # same surface, two descriptions: the patch lies on its level-set
    # companion, and the normalized frames agree (a sign error in a phi
    # table would flip pbar and obar)
    cat = build_surface(TEMPLATE_EXAMPLES.get(sid, sid))
    P, S = cat.patch, cat.levelset
    u0, u1, v0, v1 = P.domain
    for _ in range(15):
        u = rng.uniform(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0))
        v = rng.uniform(v0 + 0.05 * (v1 - v0), v1 - 0.05 * (v1 - v0))
        g = P.point(u, v)
        assert abs(S.phi.value(g)) <= 1e-12
        fp = frame_param(P, (u, v))
        fl = frame_levelset(S, g)
        assert np.max(np.abs(fp.pbar - fl.pbar)) <= 1e-12
        assert np.max(np.abs(fp.obar - fl.obar)) <= 1e-12
        assert np.max(np.abs(fp.nuH_vector() - fl.nuH_vector())) < 1e-8


@pytest.mark.parametrize("sid", catalog_ids())
def test_tangent_frame_equals_the_order_two_frame(sid):
    # the first-order frame that v2-full runs on: the values it returns
    # and tangential() on it equal zy_second's order-2 frame bit for bit
    P = build_surface(TEMPLATE_EXAMPLES.get(sid, sid)).patch
    u0, u1, v0, v1 = P.domain
    U, V = np.broadcast_arrays(np.linspace(u0, u1, 9)[:, None],
                               np.linspace(v0, v1, 7))
    ref, first = zy_second(P, None, U, V), surfaces._tangent_frame(P, U, V)
    pairs = [(first[k], ref[k]) for k in first if k != "flds"]

    def f(u, v):
        return u * u * v + 0.5 * v

    tf, tr = tangential(first["flds"], f), tangential(ref["flds"], f)
    pairs += [(tf[k], tr[k]) for k in tr]
    for a, b in pairs:
        a, b = np.broadcast_arrays(a, b)
        assert a.tobytes() == b.tobytes()


# Two isometries of H^1 as moves of a patch's components: the rotation by
# 0.7 about the t-axis, and the reflection (x, y, t) -> (x, -y, -t).  Both
# are group automorphisms that preserve the horizontal metric, so |H|, W
# and the perimeter of a moved patch are those of the patch.
_C, _S = math.cos(0.7), math.sin(0.7)
_ISOMETRIES = {
    "rotation": lambda u, v, x, y, t: (_C * x - _S * y, _S * x + _C * y, t),
    "reflection": lambda u, v, x, y, t: (x, -y, -t),
}


@pytest.mark.parametrize("move", sorted(_ISOMETRIES))
@pytest.mark.parametrize("sid", ["t-graph:parab", "xyt-graph",
                                 "intrinsic:uv"])
def test_isometries_keep_curvature_width_and_perimeter(sid, move):
    P = build_surface(sid).patch
    Q = surfaces._MovedPatch(P, _ISOMETRIES[move], P.name + "~" + move)
    u0, u1, v0, v1 = P.domain
    U, V = np.meshgrid(np.linspace(u0, u1, 13), np.linspace(v0, v1, 11),
                       indexing="ij")
    a, b = zy_second(P, None, U, V), zy_second(Q, None, U, V)
    off_band = np.isfinite(a["H"])
    assert np.array_equal(off_band, np.isfinite(b["H"]))
    assert off_band.sum() >= 140
    assert np.max(np.abs(np.abs(a["H"]) - np.abs(b["H"]))[off_band]) <= 1e-14
    assert np.max(np.abs(a["W"] - b["W"])) <= 1e-12
    assert perimeter(Q, nu=128, nv=128).value == \
        perimeter(P, nu=128, nv=128).value


@pytest.mark.parametrize("sid", catalog_ids())
def test_zy_second_equal_on_block_views_and_full_grids(sid):
    # the quadrature passes zy_second (rows x columns) broadcast views, on
    # which the jets keep their minimal shapes; every value must equal that
    # of full-size meshgrid copies, so reports do not depend on blocks, and
    # come back on the (rows x columns) nodes whatever the input layout
    P = build_surface(TEMPLATE_EXAMPLES.get(sid, sid)).patch
    u0, u1, v0, v1 = P.domain
    u, v = np.linspace(u0, u1, 9), np.linspace(v0, v1, 7)
    layouts = (np.meshgrid(u, v, indexing="ij"),
               np.broadcast_arrays(u[:, None], v), (u[:, None], v[None, :]))
    for order in (1, 2):
        ref, *others = (zy_second(P, None, U, V, order=order)
                        for U, V in layouts)
        for out in others:
            assert set(out) == set(ref)
            for key in set(ref) - {"flds"}:
                for x in (ref[key], out[key]):
                    assert isinstance(x, np.ndarray), key
                    assert x.shape == (9, 7), key
                assert np.array_equal(out[key], ref[key], equal_nan=True), key


def test_build_surface_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown surface id"):
        build_surface("moebius")


def test_build_surface_accepts_custom_domain():
    cat = build_surface("t-graph:zero", domain=(2.0, 3.0, 1.0, 2.0),
                        grid=(32, 32))
    assert cat.patch.domain == (2.0, 3.0, 1.0, 2.0)
    assert cat.patch.grid == (32, 32)
