import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnot_calc import measure
from carnot_calc import (
    DeformationField,
    Jet,
    ambient_tangential_laplacian,
    build_field,
    build_group,
    build_surface,
    bump2,
    coordinate_harmonicity_residuals,
    coordinate_laplacians,
    eps_area,
    frame_param,
    ibp_residual,
    integrate_patch,
    mcf_residual,
    pairwise_sum,
    perimeter,
    random_product_bumps,
    scaling_ratio,
    second_variation_full,
    stability_scan,
    stokes_residual,
    surface_gradient,
    tangential_laplacian,
    translation_ratio,
)

H1 = build_group("h1")

# horizontal area of the t = 0 graph over [1,2]x[0,1]; the v-integral of
# sqrt(u^2+v^2)/2 is closed-form and the u-integral was done with 200-node
# Gauss-Legendre, so every digit here is trustworthy
T0_AREA = 0.8038689739057933
# x = yt over [0,1]^2: W = (1+u^2/2) sqrt(1+v^2) factorizes
XYT_AREA = 7.0 / 6.0 * (np.sqrt(2.0) + np.arcsinh(1.0)) / 2.0


# -- perimeter -------------------------------------------------------------------

def test_vertical_plane_unit_square_has_unit_perimeter():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    r = perimeter(P, nu=16, nv=16)
    assert r.value == pytest.approx(1.0, rel=1e-14)
    assert r.excluded_mass == 0.0


def test_flat_graph_perimeter_matches_quadrature_oracle():
    P = build_surface("t-graph:zero", domain=(1, 2, 0, 1)).patch
    r = perimeter(P, nu=64, nv=64)
    assert r.value == pytest.approx(T0_AREA, abs=1e-10)


def test_polynomial_dict_surface_matches_catalog_paraboloid():
    spec = {"x": [[1.0, [1, 0]]], "y": [[1.0, [0, 1]]],
            "t": [[1.0, [2, 0]], [1.0, [0, 2]]],
            "domain": [0.5, 1.5, 0.5, 1.5], "grid": [48, 48]}
    P = build_surface(spec).patch
    assert P.grid == (48, 48)
    assert perimeter(P).value == pytest.approx(
        perimeter(build_surface("t-graph:parab").patch, nu=48, nv=48).value,
        rel=1e-14)


def test_xyt_graph_perimeter_closed_form():
    P = build_surface("xyt-graph", domain=(0, 1, 0, 1)).patch
    r = perimeter(P, nu=64, nv=64)
    assert r.value == pytest.approx(XYT_AREA, abs=1e-9)


def test_simpson_error_estimate_brackets_truth():
    P = build_surface("t-graph:zero", domain=(1, 2, 0, 1)).patch
    r = perimeter(P, nu=32, nv=32)
    assert abs(r.value - T0_AREA) < 10.0 * max(r.error_estimate, 1e-12)


def test_simpson_converges_at_least_cubically():
    P = build_surface("t-graph:zero", domain=(1, 2, 0, 1)).patch
    e16 = abs(perimeter(P, nu=16, nv=16).value - T0_AREA)
    e32 = abs(perimeter(P, nu=32, nv=32).value - T0_AREA)
    assert e16 / e32 > 3.0


def test_midpoint_rule_supported_and_close():
    P = build_surface("t-graph:zero", domain=(1, 2, 0, 1)).patch
    r = perimeter(P, nu=128, nv=128, rule="midpoint")
    assert r.rule == "midpoint"
    assert r.value == pytest.approx(T0_AREA, abs=1e-5)


def test_unknown_rule_rejected():
    P = build_surface("t-graph:zero").patch
    with pytest.raises(ValueError):
        perimeter(P, nu=16, nv=16, rule="gauss")


def test_integrate_patch_with_density():
    # densities see the assembled frame dict; pull the y coordinate out of
    # the field jets (y = u on this patch, W = 1)
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    r = integrate_patch(P, lambda zz: zz["flds"]["y"].v, nu=32, nv=32)
    assert r.value == pytest.approx(0.5, rel=1e-12)


def test_integral_result_dict_roundtrip():
    P = build_surface("t-graph:parab").patch
    d = perimeter(P, nu=16, nv=16).to_dict()
    assert set(d) == {"value", "error_estimate", "excluded_mass", "grid",
                      "rule"}
    assert d["grid"] == [16, 16]


def test_characteristic_node_is_masked_silently():
    # domain centered on the characteristic point of t = 0
    P = build_surface("t-graph:zero", domain=(-1, 1, -1, 1)).patch
    r = perimeter(P, nu=16, nv=16)
    assert np.isfinite(r.value)
    assert r.value > 0
    assert r.excluded_mass == 0.0  # W = 0 exactly there, so no mass is lost


def test_pairwise_sum_matches_fsum(rng):
    x = rng.normal(size=100_000) * np.exp(rng.uniform(-8, 8, size=100_000))
    assert pairwise_sum(x) == pytest.approx(math.fsum(x), abs=1e-10 * np.sum(np.abs(x)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), log_step=st.integers(0, 10), chunks=st.integers(0, 40))
def test_pairwise_sum_of_power_of_two_chunk_partials_is_the_whole_sum(
        data, log_step, chunks):
    # whole chunks of 2^k values plus a ragged tail (of odd length too)
    step = 2 ** log_step
    size = chunks * step + data.draw(st.integers(1, step))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=size) * np.exp(rng.uniform(-8, 8, size=size))
    partials = [pairwise_sum(x[i:i + step]) for i in range(0, size, step)]
    assert pairwise_sum(partials) == pairwise_sum(x)


def test_node_chunks_round_the_block_up_to_a_power_of_two(monkeypatch):
    nodes = np.arange(2500)
    for block_nodes, step in ((1, 1), (1000, 1024), (1024, 1024),
                              (10 ** 9, 2500)):
        monkeypatch.setattr(measure, "_BLOCK_NODES", block_nodes)
        chunks = [nodes[s] for s in measure._node_chunks(nodes.size)]
        tail = [nodes.size % step] if nodes.size % step else []
        assert [c.size for c in chunks] == [step] * (nodes.size // step) + tail
        assert np.array_equal(np.concatenate(chunks), nodes)


def test_blocked_integration_is_bit_identical(monkeypatch):
    # a characteristic node at the center is masked inside one chunk
    P = build_surface("t-graph:zero", domain=(-1, 1, -1, 1)).patch
    Q = build_surface("t-graph:parab").patch
    X = build_surface("xyt-graph").patch
    D = DeformationField(bump2(1.0, 1.0, 0.4, 0.4), bump2(0.9, 1.1, 0.3, 0.3),
                         bump2(1.0, 0.9, 0.35, 0.4))
    zeta, f = bump2(1.0, 1.0, 0.4, 0.4), bump2(0.9, 1.1, 0.3, 0.25)
    bumps = random_product_bumps(X.domain, 3, np.random.default_rng(7))
    results = []
    # one chunk, then 1024-node chunks (1000 rounded up), each grid with a
    # ragged last chunk: 129^2, 65^2 and 33^2 nodes
    for block_nodes in (10 ** 9, 1000):
        monkeypatch.setattr(measure, "_BLOCK_NODES", block_nodes)
        r = perimeter(P, nu=128, nv=128)
        results.append((r.value, r.excluded_mass, r.error_estimate,
                        second_variation_full(Q, D, nu=64, nv=64),
                        ibp_residual(Q, "green", zeta, f=f, nu=64, nv=64),
                        stokes_residual(Q, f, nu=64, nv=64),
                        stability_scan(X, bumps=bumps, nu=64, nv=64)))
    assert results[0] == results[1]  # byte-identical, not merely close


# -- Riemannian approximation ------------------------------------------------------

def test_eps_area_zero_is_perimeter():
    P = build_surface("t-graph:zero", domain=(1, 2, 0, 1)).patch
    assert eps_area(P, 0.0, nu=32, nv=32).value == \
        perimeter(P, nu=32, nv=32).value


def test_eps_area_monotone_and_bounded():
    P = build_surface("t-graph:zero", domain=(1, 2, 0, 1)).patch
    base = perimeter(P, nu=64, nv=64).value
    # the excess is sandwiched between 0 and eps/2 * int(obar^2 W)
    bound = integrate_patch(P, lambda zz: zz["obar"] ** 2, nu=64, nv=64).value
    prev = base
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        val = eps_area(P, eps, nu=64, nv=64).value
        assert val >= prev - 1e-14
        assert 0.0 <= val - base <= eps * bound / 2.0 + 1e-9
        prev = val


def test_eps_area_on_plane_is_eps_independent():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    vals = [eps_area(P, eps, nu=16, nv=16).value for eps in (0, 1e-3, 1e-1)]
    assert np.ptp(vals) < 1e-14


def test_eps_area_through_a_characteristic_node_warns_nothing():
    # the density divides by W = 0 at the center node, which the mask drops
    P = build_surface("t-graph:zero", domain=(-1, 1, -1, 1)).patch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = eps_area(P, 0.1, nu=64, nv=64)
    # the values computed while the masked node still raised warnings
    assert (r.value, r.error_estimate, r.excluded_mass) == \
        (2.0242026166278126, 0.0004119238458302199, 0.0)


# -- symmetry of the measure ---------------------------------------------------------

@pytest.mark.parametrize("sid", ["t-graph:parab", "xyt-graph"])
@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
def test_perimeter_scales_cubically(sid, lam):
    P = build_surface(sid).patch
    assert scaling_ratio(P, lam, nu=64, nv=64) == \
        pytest.approx(lam**3, rel=1e-6)


small = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=10, deadline=None)
@given(x0=small, y0=small, t0=small)
def test_perimeter_is_left_invariant(x0, y0, t0):
    P = build_surface("t-graph:parab").patch
    assert translation_ratio(P, [x0, y0, t0], nu=32, nv=32) == \
        pytest.approx(1.0, abs=1e-8)


# -- integration by parts --------------------------------------------------------------

def test_ibp_zero_test_function_is_exact():
    P = build_surface("t-graph:parab").patch
    z = lambda u, v: 0.0 * u
    for kind in ("Z", "TY", "gradient", "green"):
        f = (lambda u, v: u * v) if kind != "Z" else None
        assert ibp_residual(P, kind, z, f=f, nu=32, nv=32) == \
            pytest.approx(0.0, abs=1e-14)


def test_ibp_on_plane_is_tight():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    z = bump2(0.5, 0.5, 0.45, 0.45)
    assert abs(ibp_residual(P, "Z", z, nu=128, nv=128)) < 1e-6


def test_ibp_ty_on_xyt_graph():
    P = build_surface("xyt-graph").patch
    z = bump2(0.0, 0.0, 4.0, 2.0)
    f = bump2(0.3, -0.2, 3.0, 1.5)
    assert abs(ibp_residual(P, "TY", z, f=f, nu=256, nv=256)) < 1e-4


def test_ibp_gradient_second_component():
    P = build_surface("t-graph:parab").patch
    z = bump2(1.0, 1.0, 0.4, 0.4)
    assert abs(ibp_residual(P, "gradient", z, index=2, nu=128, nv=128)) < 1e-6
    with pytest.raises(ValueError, match="index must be 1 or 2"):
        ibp_residual(P, "gradient", z, index=3, nu=32, nv=32)


def test_ibp_residual_order_two_convergence():
    P = build_surface("t-graph:parab").patch
    z = bump2(1.0, 1.0, 0.4, 0.4)
    r128 = abs(ibp_residual(P, "Z", z, nu=128, nv=128))
    r256 = abs(ibp_residual(P, "Z", z, nu=256, nv=256))
    assert r128 / max(r256, 1e-16) > 3.0 or r256 < 1e-12


def test_green_symmetry_small():
    P = build_surface("t-graph:parab").patch
    z = bump2(1.0, 1.0, 0.4, 0.4)
    f = bump2(0.9, 1.1, 0.3, 0.25)  # support strictly inside the domain
    from carnot_calc.measure import green_residual
    assert abs(green_residual(P, f, z, nu=128, nv=128)) < 1e-5


# -- Stokes-type balance ----------------------------------------------------------------

def test_stokes_zero_function():
    P = build_surface("t-graph:parab").patch
    assert stokes_residual(P, lambda u, v: 0.0 * u, nu=32, nv=32) == \
        pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("sid,dom", [("t-graph:zero", (1, 2, 0, 1)),
                                     ("xyt-graph", None)])
def test_stokes_balance(sid, dom):
    P = build_surface(sid, domain=dom).patch
    f = bump2(*_center(P.domain))
    assert abs(stokes_residual(P, f, nu=256, nv=256)) < 1e-4


def _center(dom):
    cu, cv = (dom[0] + dom[1]) / 2.0, (dom[2] + dom[3]) / 2.0
    return cu, cv, 0.45 * (dom[1] - dom[0]), 0.45 * (dom[3] - dom[2])


# -- tangential operators ----------------------------------------------------------------

def test_surface_gradient_plane_coordinate():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    out = surface_gradient(P, lambda u, v: u, 0.3, 0.7)
    assert out["Zf"] == pytest.approx(-1.0, rel=1e-10)
    assert out["norm2"] == pytest.approx(1.0, rel=1e-10)


def test_tangential_laplacian_needs_a_second_order_function():
    P = build_surface("t-graph:parab").patch
    with pytest.raises(ValueError, match="second-order jet"):
        tangential_laplacian(P, lambda u, v: Jet(u.v, u.g), 1.0, 1.0)


def test_laplacian_of_constant_vanishes():
    P = build_surface("t-graph:parab").patch
    for variant in ("plain", "hat"):
        assert tangential_laplacian(P, lambda u, v: 1.0 + 0.0 * u, 0.8, 1.2,
                                    variant=variant) == \
            pytest.approx(0.0, abs=1e-12)


def test_laplacian_variants_differ_by_omega_term(rng):
    P = build_surface("t-graph:parab").patch
    f = lambda u, v: u * v
    u, v = rng.uniform(0.6, 1.4, size=2)
    plain = tangential_laplacian(P, f, u, v)
    hat = tangential_laplacian(P, f, u, v, variant="hat")
    fr = frame_param(P, (u, v))
    Zf = surface_gradient(P, f, u, v)["Zf"]
    assert hat - plain == pytest.approx(float(fr.obar[0]) * Zf, rel=1e-6)


def test_ambient_route_matches_patch_route(rng):
    cat = build_surface("t-graph:parab")
    field = build_field(H1, "x")
    for _ in range(5):
        u, v = rng.uniform(0.6, 1.4, size=2)
        amb = ambient_tangential_laplacian(cat.levelset, field,
                                           cat.patch.point(u, v))
        # restrict x to the patch: x(u, v) = u
        pat = tangential_laplacian(cat.patch, lambda a, b: a + 0.0 * b, u, v)
        assert abs(amb - pat) < 1e-5


def test_ambient_laplacian_ignores_off_surface_extension(rng):
    # adding a multiple of the defining function must not change the value
    cat = build_surface("t-graph:parab")
    u, v = rng.uniform(0.6, 1.4, size=2)
    g = cat.patch.point(u, v)
    f1 = build_field(H1, "x")
    f2 = build_field(H1, "poly:[[1.0,[1,0,0]],[1.0,[0,0,1]],"
                         "[-1.0,[2,0,0]],[-1.0,[0,2,0]]]")  # x + (t-u^2-v^2)
    a1 = ambient_tangential_laplacian(cat.levelset, f1, g)
    a2 = ambient_tangential_laplacian(cat.levelset, f2, g)
    assert abs(a1 - a2) < 1e-5


def test_coordinate_laplacian_report_keys(rng):
    P = build_surface("t-graph:parab").patch
    u, v = rng.uniform(0.6, 1.4, size=2)
    out = coordinate_laplacians(P, u, v)
    for k in ("lap_x", "Zx", "lap_y", "Zy", "lap_t", "Zt", "pbar", "qbar",
              "obar", "W", "x", "y", "H"):
        assert k in out


@pytest.mark.parametrize("sid", ["t-graph:parab", "xyt-graph"])
def test_coordinate_harmonicity(sid, rng):
    # Delta x_i + pbar_i curvature = 0 holds on every noncharacteristic patch
    P = build_surface(sid).patch
    dom = P.domain
    for _ in range(10):
        u = rng.uniform(0.7 * dom[0] + 0.3 * dom[1],
                        0.3 * dom[0] + 0.7 * dom[1])
        v = rng.uniform(0.7 * dom[2] + 0.3 * dom[3],
                        0.3 * dom[2] + 0.7 * dom[3])
        res = coordinate_harmonicity_residuals(P, u, v)
        assert abs(res["x"]) < 1e-5
        assert abs(res["y"]) < 1e-5
        assert abs(res["t"]) < 1e-5


# -- motion by curvature ---------------------------------------------------------------

def test_mcf_residual_plane_exact():
    P = build_surface("vertical-plane:1,0,0", domain=(0, 1, 0, 1)).patch
    assert abs(mcf_residual(P, 0.3, 0.6)) < 1e-12


@pytest.mark.parametrize("sid", ["t-graph:parab", "xyt-graph"])
def test_mcf_residual_small_on_curved_surfaces(sid, rng):
    P = build_surface(sid).patch
    dom = P.domain
    for _ in range(10):
        u = rng.uniform(0.7 * dom[0] + 0.3 * dom[1],
                        0.3 * dom[0] + 0.7 * dom[1])
        v = rng.uniform(0.7 * dom[2] + 0.3 * dom[3],
                        0.3 * dom[2] + 0.7 * dom[3])
        assert abs(mcf_residual(P, u, v)) < 1e-4
