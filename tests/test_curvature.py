import numpy as np
import pytest

from carnot_calc import curvature
from carnot_calc.curvature import directional_fd, levelset_fields
from carnot_calc.fields import CBRT_EPS
from carnot_calc import (
    CharacteristicPointError,
    FD,
    DerivativeEngine,
    IDENTITY_IDS,
    IntrinsicGraph,
    LevelSetSurface,
    ScalarField,
    build_group,
    build_surface,
    curvature_grid,
    dilate,
    dilate_levelset,
    dilate_patch,
    frame_param,
    geometry_aux,
    hmc_divergence,
    hmc_intrinsic,
    hmc_levelset,
    hmc_param,
    hmc_pauls,
    identity_battery,
    intrinsic_to_patch,
    pseudo_hermitian_check,
)

H1 = build_group("h1")


def cylinder(R, G=H1):
    m = G.m
    fn = lambda *c: sum(c[i] * c[i] for i in range(m)) - R * R
    return LevelSetSurface(G, ScalarField(G, fn, name="cylinder", check=False))


# -- routes agree ----------------------------------------------------------------

def test_vertical_plane_is_minimal(rng):
    S = build_surface("vertical-plane:1,0.5,-0.25").levelset
    for _ in range(5):
        y, t = rng.normal(size=2)
        g = [-0.25 - 0.5 * y, y, t]
        assert hmc_levelset(S, g).H == pytest.approx(0.0, abs=1e-12)
        assert hmc_divergence(S, g).H == pytest.approx(0.0, abs=1e-8)


def test_xyt_graph_is_minimal(rng):
    cat = build_surface("xyt-graph")
    for _ in range(8):
        u, v = rng.uniform(-2, 2, size=2)
        assert hmc_param(cat.patch, (u, v)).H == pytest.approx(0.0, abs=1e-10)
        g = cat.patch.point(u, v)
        assert hmc_levelset(cat.levelset, g).H == pytest.approx(0.0, abs=1e-10)
        assert hmc_divergence(cat.levelset, g).H == pytest.approx(0.0, abs=1e-7)


def test_paraboloid_routes_agree(rng):
    cat = build_surface("t-graph:parab")
    for _ in range(10):
        u, v = rng.uniform(0.55, 1.45, size=2)
        g = cat.patch.point(u, v)
        h_ls = hmc_levelset(cat.levelset, g).H
        h_div = hmc_divergence(cat.levelset, g).H
        h_par = hmc_param(cat.patch, (u, v)).H
        assert abs(h_ls - h_div) < 1e-6
        assert abs(h_ls - h_par) < 1e-5


def test_routes_agree_under_fd_engine(rng):
    cat = build_surface("t-graph:parab")
    u, v = rng.uniform(0.6, 1.4, size=2)
    g = cat.patch.point(u, v)
    h_ana = hmc_levelset(cat.levelset, g).H
    h_fd = hmc_levelset(cat.levelset, g, engine=FD).H
    assert abs(h_ana - h_fd) < 1e-6


def test_cylinder_curvature_is_inverse_radius(rng):
    for R in (0.5, 1.5, 3.0):
        S = cylinder(R)
        for _ in range(5):
            th, t = rng.uniform(0, 2 * np.pi), rng.normal()
            g = [R * np.cos(th), R * np.sin(th), t]
            assert hmc_levelset(S, g).H == pytest.approx(1.0 / R, rel=1e-10)


def test_higher_heisenberg_cylinder(rng):
    # in H^2 the vertical cylinder of radius R has curvature (m-1)/R = 3/R
    G = build_group("hn:2")
    R = 2.0
    S = cylinder(R, G)
    w = rng.normal(size=4)
    w = w / np.linalg.norm(w) * R
    g = [*w, rng.normal()]
    assert hmc_levelset(S, g).H == pytest.approx(3.0 / R, rel=1e-10)


def test_report_behaves_like_float():
    S = cylinder(2.0)
    rep = hmc_levelset(S, [2.0, 0.0, 0.3])
    assert float(rep) == rep.H
    assert rep.route == "levelset"
    assert rep.W > 0


def test_characteristic_point_rejected():
    S = build_surface("t-graph:zero").levelset
    with pytest.raises(CharacteristicPointError):
        hmc_levelset(S, [0.0, 0.0, 0.0])


# -- vertical cylinders reduce to planar curvature ---------------------------------

def test_rigatoni_matches_plane_curve_curvature():
    # phi independent of t: curvature equals the Euclidean curvature of the
    # base curve {h = 0}
    def h(x, y):
        return x * x + x * y + y * y - 3.0

    S = LevelSetSurface(H1, ScalarField(H1, lambda x, y, t: h(x, y),
                                        name="rigatoni", check=False))
    x, y = 1.0, 1.0
    hx, hy = 2 * x + y, x + 2 * y
    hxx, hxy, hyy = 2.0, 1.0, 2.0
    kappa = (hy**2 * hxx - 2 * hx * hy * hxy + hx**2 * hyy) / np.hypot(hx, hy)**3
    got = hmc_levelset(S, [x, y, -0.7]).H
    assert got == pytest.approx(kappa, rel=1e-10)


# -- dilation covariance ------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_dilation_covariance(lam, rng):
    cat = build_surface("t-graph:parab")
    S2 = dilate_levelset(cat.levelset, lam)
    for _ in range(5):
        u, v = rng.uniform(0.6, 1.4, size=2)
        g = np.asarray(cat.patch.point(u, v))
        H = hmc_levelset(cat.levelset, g).H
        H2 = hmc_levelset(S2, dilate(H1, lam, g)).H
        assert H2 == pytest.approx(H / lam, rel=1e-8)


# -- limit of Riemannian curvatures -------------------------------------------------

def test_divergence_route_off_h1():
    # step 2 with m = 4: the cylinder of radius 2 in H^2 has H = 3/R
    H2 = build_group("hn:2")
    x = np.array([0.6, -0.3, 0.5, 0.4])
    g = np.append(2.0 * x / np.linalg.norm(x), 0.7)
    S = cylinder(2.0, H2)
    assert hmc_levelset(S, g).H == pytest.approx(1.5, abs=1e-12)
    assert hmc_divergence(S, g).H == pytest.approx(1.5, abs=1e-8)
    # step 3: the level set of an Engel polynomial through g
    S = LevelSetSurface(build_group("engel"),
                        "poly:[[1,[2,0,0,0]],[1,[0,2,0,0]],[0.5,[0,0,1,0]],"
                        "[0.3,[0,0,0,1]],[-1,[0,0,0,0]]]")
    g = [0.6, 0.5, 0.2, 0.1]
    assert hmc_divergence(S, g).H == pytest.approx(hmc_levelset(S, g).H,
                                                   abs=1e-8)


def test_stencil_point_in_characteristic_band_raises():
    # g is off the band, but g + h X1 is exactly the characteristic origin
    S = build_surface("t-graph:zero").levelset
    g = [-CBRT_EPS, 0.0, 0.0]
    assert hmc_levelset(S, g).W > 1e-6
    for route in (hmc_divergence, hmc_pauls):
        with pytest.raises(CharacteristicPointError):
            route(S, g)


def test_pauls_limit_on_plane():
    S = build_surface("vertical-plane:1,0,0").levelset
    out = hmc_pauls(S, [0.0, 0.4, 0.2])
    assert np.allclose(out["H_eps"], 0.0, atol=1e-10)
    assert out["extrapolated"] == pytest.approx(0.0, abs=1e-10)


def test_pauls_limit_on_paraboloid():
    cat = build_surface("t-graph:parab")
    g = cat.patch.point(1.1, 0.8)
    H = hmc_levelset(cat.levelset, g).H
    out = hmc_pauls(cat.levelset, g, eps_list=(1e-1, 1e-2, 1e-3, 1e-4))
    eps = np.asarray(out["eps"])
    err = np.abs(np.asarray(out["H_eps"]) - H)
    assert np.all(eps[:-1] < eps[1:])  # reported in ascending order
    assert np.all(err <= 10.0 * eps)
    slope = np.polyfit(np.log(eps), np.log(err), 1)[0]
    assert 0.8 <= slope <= 1.2
    assert abs(out["extrapolated"] - H) < err.max()


# -- intrinsic graphs ---------------------------------------------------------------

@pytest.mark.parametrize("phi", [lambda u, v: 0.0 * u,
                                 lambda u, v: 0.8 * u,
                                 lambda u, v: -1.3 * u])
def test_linear_intrinsic_graphs_are_minimal(phi, rng):
    Gr = IntrinsicGraph(phi, (-1, 1, -1, 1))
    u, v = rng.uniform(-0.9, 0.9, size=2)
    assert float(hmc_intrinsic(Gr, (u, v))) == pytest.approx(0.0, abs=1e-8)


def test_intrinsic_route_matches_param_route(rng):
    Gr = IntrinsicGraph(lambda u, v: u * v, (-1, 1, -1, 1), name="uv")
    P = intrinsic_to_patch(Gr)
    for _ in range(8):
        u, v = rng.uniform(-0.9, 0.9, size=2)
        H_int = hmc_intrinsic(Gr, (u, v)).H
        H_par = hmc_param(P, (u, v)).H
        assert abs(H_int - H_par) < 1e-5


# -- auxiliary geometry ---------------------------------------------------------------

def test_geometry_aux_flat_graph():
    S = build_surface("t-graph:zero").levelset
    aux = geometry_aux(S, [1.0, 0.0, 0.0])
    assert np.allclose(aux["pbar"], [0.0, 1.0], atol=1e-12)
    assert aux["W"] == pytest.approx(0.5)
    assert np.allclose(aux["obar"], [2.0], atol=1e-12)
    assert np.allclose(aux["cHS"], [2.0, 0.0], atol=1e-8)
    assert aux["H"] == pytest.approx(0.0, abs=1e-10)


def test_curvature_vector_is_tangent(rng):
    # the horizontal second-fundamental vector pairs to zero with pbar
    cat = build_surface("t-graph:parab")
    for _ in range(5):
        u, v = rng.uniform(0.6, 1.4, size=2)
        aux = geometry_aux(cat.levelset, cat.patch.point(u, v))
        assert abs(aux["cHS"] @ aux["pbar"]) < 1e-7


@pytest.mark.parametrize("sid", ["t-graph:parab", "xyt-graph",
                                 "intrinsic:uv"])
def test_patch_routes_match_level_set_routes(sid, rng):
    # geometry_aux and pseudo_hermitian_check accept (patch, (u, v))
    cat = build_surface(sid)
    u0, u1, v0, v1 = cat.patch.domain
    for _ in range(3):
        uv = (u0 + (u1 - u0) * rng.uniform(0.2, 0.8),
              v0 + (v1 - v0) * rng.uniform(0.2, 0.8))
        g = cat.patch.point(*uv)
        aux_p = geometry_aux(cat.patch, uv)
        aux_l = geometry_aux(cat.levelset, g)
        for key in ("pbar", "obar", "W", "H", "A", "cHS"):
            assert np.allclose(aux_p[key], aux_l[key], rtol=0.0,
                               atol=1e-10), key
        ph_p = pseudo_hermitian_check(cat.patch, uv)
        ph_l = pseudo_hermitian_check(cat.levelset, g)
        assert ph_p.keys() == ph_l.keys()
        for key in ph_l:
            assert np.array_equal(ph_p[key], ph_l[key]), key


def test_pseudo_hermitian_check_needs_a_level_set_companion():
    P = dilate_patch(build_surface("t-graph:parab").patch, 2.0)
    with pytest.raises(ValueError, match="no level-set companion"):
        pseudo_hermitian_check(P, (1.0, 1.0))


def test_pseudo_hermitian_torsion_balance(rng):
    for sid, tol in (("vertical-plane:1,0,0", 1e-10), ("xyt-graph", 1e-5),
                     ("t-graph:parab", 1e-4)):
        cat = build_surface(sid)
        dom = cat.patch.domain
        u = rng.uniform(dom[0] + 0.3, dom[1] - 0.3)
        v = rng.uniform(dom[2] + 0.3, dom[3] - 0.3)
        out = pseudo_hermitian_check(cat.levelset, cat.patch.point(u, v))
        assert out["residual"] < tol


# -- the identity battery ---------------------------------------------------------------

BATTERY_SURFACES = ["t-graph:parab", "xyt-graph", "intrinsic:uv"]


@pytest.mark.parametrize("sid", BATTERY_SURFACES)
def test_identity_battery_all_ids(sid, rng):
    cat = build_surface(sid)
    dom = cat.patch.domain
    span_u, span_v = dom[1] - dom[0], dom[3] - dom[2]
    pts = []
    while len(pts) < 6:
        u = rng.uniform(dom[0] + 0.2 * span_u, dom[1] - 0.2 * span_u)
        v = rng.uniform(dom[2] + 0.2 * span_v, dom[3] - 0.2 * span_v)
        try:
            fr = frame_param(cat.patch, (u, v))
        except CharacteristicPointError:
            continue
        if fr.W > 0.1:
            pts.append(cat.patch.point(u, v))
    rows = identity_battery(cat.levelset, pts)
    assert {r["identity"] for r in rows} == set(IDENTITY_IDS)
    worst = max(abs(r["residual"]) for r in rows)
    assert worst < 1e-4, "worst battery residual %.3e on %s" % (worst, sid)


def test_identity_battery_subset_selection():
    cat = build_surface("t-graph:parab")
    rows = identity_battery(cat.levelset, [cat.patch.point(1.0, 1.2)],
                            ids=["unit-gradient", "curvature-squared"])
    assert {r["identity"] for r in rows} == {"unit-gradient",
                                             "curvature-squared"}


def _count_evaluations(monkeypatch):
    seen = {"points": [], "frames": [], "jets": 0}
    fields, frame, jet = (curvature.levelset_fields, curvature.frame_levelset,
                          ScalarField.jet)

    def counted_fields(S, g):
        seen["points"].append(np.array(g))
        return fields(S, g)

    def counted_frame(S, g, *args, **kwargs):
        seen["frames"].append(np.array(g))
        return frame(S, g, *args, **kwargs)

    def counted_jet(self, g, order=2):
        seen["jets"] += 1
        return jet(self, g, order=order)

    monkeypatch.setattr(curvature, "levelset_fields", counted_fields)
    monkeypatch.setattr(curvature, "frame_levelset", counted_frame)
    monkeypatch.setattr(ScalarField, "jet", counted_jet)
    return seen


@pytest.mark.parametrize("ids, calls", [(None, 9), (["unit-gradient"], 1),
                                        (["second-z"], 3),
                                        (["mixed-commutator"], 5)])
def test_identity_battery_evaluates_each_stencil_point_once(monkeypatch, ids,
                                                            calls):
    # once at g, then twice per direction read: Z, Y, T and B = T - obar Y
    cat = build_surface("t-graph:parab")
    seen = _count_evaluations(monkeypatch)["points"]
    identity_battery(cat.levelset, [cat.patch.point(1.0, 1.2)], ids=ids)
    assert len(seen) == calls
    assert len({g.tobytes() for g in seen}) == calls


@pytest.mark.parametrize("route, fields, frames, jets", [
    (pseudo_hermitian_check, 7, 0, 7),
    (hmc_divergence, 0, 5, 5),
    (lambda S, g: hmc_pauls(S, g), 0, 7, 8),
    (lambda S, g: hmc_pauls(S, g, eps_list=(1e-1, 1e-2, 1e-3, 1e-4)), 0, 7,
     8),
    (hmc_levelset, 0, 0, 1),
], ids=["pseudo-hermitian", "divergence", "pauls-3-eps", "pauls-4-eps",
        "levelset"])
def test_finite_difference_routes_evaluate_each_point_once(monkeypatch, route,
                                                           fields, frames,
                                                           jets):
    # g and the stencil points g +- h v each get one evaluation: the
    # divergence and Pauls routes read only p, omega and W, so they take the
    # checked first-order frame, never the full levelset_fields
    cat = build_surface("t-graph:parab")
    seen = _count_evaluations(monkeypatch)
    route(cat.levelset, cat.patch.point(1.0, 1.2))
    for kind, most in (("points", fields), ("frames", frames)):
        assert len(seen[kind]) <= most
        assert len({g.tobytes() for g in seen[kind]}) == len(seen[kind])
    assert seen["jets"] <= jets


def test_shared_stencil_matches_per_identity_differences():
    # the residuals written with one fresh levelset_fields call per stencil
    # point and per field, as closures handed to directional_fd
    cat = build_surface("xyt-graph")
    S, g = cat.levelset, cat.patch.point(1.3, -0.7)
    f = levelset_fields(S, g)

    def field(fn):
        return lambda gp: fn(levelset_fields(S, gp))

    ZZp = directional_fd(field(lambda fl: fl["Zpbar"]), g, f["Zv"])
    ZZq = directional_fd(field(lambda fl: fl["Zqbar"]), g, f["Zv"])
    second_z = abs(f["pbar"][0] * ZZp + f["pbar"][1] * ZZq
                   + f["Zpbar"] ** 2 + f["Zqbar"] ** 2)
    ob = f["obar"][0]
    Bv = f["Tv"] - ob * f["Yv"]
    mixed = 0.0
    for c in range(3):
        lhs = (directional_fd(field(lambda fl: fl["Zv"][c]), g, Bv)
               - directional_fd(field(lambda fl: fl["Tv"][c]
                                      - fl["obar"][0] * fl["Yv"][c]),
                                g, f["Zv"]))
        mixed = max(mixed, abs(lhs - ob * (Bv[c] + f["H"] * f["Zv"][c])))
    rows = identity_battery(S, [g], ids=["second-z", "mixed-commutator"])
    assert [r["residual"] for r in rows] == [second_z, mixed]


# -- grid sweep ---------------------------------------------------------------------------

def test_curvature_grid_columns_and_consistency():
    P = build_surface("t-graph:parab").patch
    out = curvature_grid(P, nu=6, nv=5)
    for key in ("u", "v", "p", "q", "omega", "W", "H_param", "H_levelset",
                "A", "obar"):
        assert key in out
        assert len(np.asarray(out[key])) == 30
    hp = np.asarray(out["H_param"])
    hl = np.asarray(out["H_levelset"])
    ok = np.isfinite(hp) & np.isfinite(hl)
    assert ok.sum() == 30
    assert np.max(np.abs(hp[ok] - hl[ok])) < 1e-5
    assert not np.any(out["characteristic"])


def test_curvature_grid_marks_characteristic_nodes():
    P = build_surface("t-graph:poly:[[-0.25, [1, 0]], [0.25, [0, 1]]]").patch
    out = curvature_grid(P, nu=2, nv=2)
    char = out["characteristic"]
    assert char.dtype == bool
    assert [(u, v) for u, v, c in zip(out["u"], out["v"], char) if c] == [
        (0.5, 0.5)]
    assert np.array_equal(char, np.isnan(out["H_param"]))


def test_curvature_grid_without_levelset():
    P = build_surface("t-graph:parab").patch
    out = curvature_grid(P, nu=4, nv=4, with_levelset=False)
    assert "H_levelset" not in out
    assert np.all(np.isfinite(np.asarray(out["H_param"])))
