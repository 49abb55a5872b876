import tracemalloc

import numpy as np
import pytest

from carnot_calc import measure, surfaces, variation
from carnot_calc import (
    DeformationField,
    IntrinsicGraph,
    build_surface,
    bump2,
    deform_patch,
    first_variation_analytic,
    frame_param,
    frame_variation_rates,
    frame_variation_rates_fd,
    intrinsic_stability_form,
    intrinsic_to_patch,
    normal_first_variation,
    numeric_variation,
    product_bump_lattice,
    quadratic_form,
    random_product_bumps,
    second_variation,
    stability_scan,
)

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
    seen = []
    inner = measure.integrate_patch

    def counting(Q, *args, **kwargs):
        seen.append(Q.name)
        return inner(Q, *args, **kwargs)

    monkeypatch.setattr(measure, "integrate_patch", counting)
    assert numeric_variation(P, D, order=order, nu=16, nv=16) == expected
    assert len(seen) == len(set(seen)) == calls


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
    # one 33 x 33 block: Z of pbar, qbar and obar, then Z(ZF)
    P = build_surface("xyt-graph").patch
    calls = []
    inner = surfaces.z_apply

    def counted(flds, fj):
        calls.append(1)
        return inner(flds, fj)

    monkeypatch.setattr(surfaces, "z_apply", counted)
    quadratic_form(P, bump2(0.0, 0.0, 3.0, 1.5), nu=32, nv=32)
    assert len(calls) == 4


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
    argmin = min(table, key=lambda e: e["Q"])
    witness = next((rec for rec in table if rec["Q"] < -1e-6), None)
    return {"table": table, "min_value": argmin["Q"], "argmin": argmin,
            "witness": witness, "count": len(bumps)}


@pytest.mark.parametrize("family, sid, n", [
    pytest.param("lattice", "xyt-graph", 96, id="lattice"),
    pytest.param("random", "xyt-graph", 96, id="random"),
    pytest.param("lattice", "vertical-plane:1,0,0", 96, id="plane-lattice"),
    # 131^2 nodes: two 8192-node chunks and a ragged 777-node one
    pytest.param("random", "xyt-graph", 130, id="random-130"),
])
def test_stability_scan_matches_per_bump_quadratic_form(family, sid, n):
    # the scan differentiates product bumps from 1-D factor jets; each Q
    # must be the value of the independent second-order route of
    # quadratic_form, bit for bit
    P = build_surface(sid).patch
    if family == "lattice":
        bumps = _lattice(P, n)
        out = stability_scan(P, nu=n, nv=n)
    else:
        bumps = random_product_bumps(P.domain, 32,
                                     np.random.default_rng(11))
        out = stability_scan(P, bumps=bumps, nu=n, nv=n)
    assert out == _expected_scan(P, bumps, n)
    assert (out["witness"] is not None) == (sid == "xyt-graph")


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
    assert out == _expected_scan(P, bumps, 64)


def test_stability_scan_differentiates_only_bumps_without_factors(
        monkeypatch):
    # product bumps never reach tangential(); each bump2 does once a chunk
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
    stability_scan(P, bumps=bumps, nu=96, nv=96)  # 97^2 nodes: 2 chunks
    assert calls == [F for F, meta in bumps if "shape" in meta] * 2


def test_lattice_bumps_share_their_factors():
    # 5 centres x 5 radii per axis: 25 distinct u- and 25 v-factors serve
    # the 125 bumps
    bumps = product_bump_lattice((-6.0, 6.0, -3.0, 3.0))
    assert len(bumps) == 125
    assert len({id(F.factors[0]) for F, _ in bumps}) == 25
    assert len({id(F.factors[1]) for F, _ in bumps}) == 25
    for F, meta in bumps:
        bu, bv = F.factors
        assert bu(meta["cu"]) == bv(meta["cv"]) == np.exp(-1.0)


def test_stability_scan_evaluates_each_factor_and_potential_once(
        monkeypatch):
    # one 1-D jet per distinct factor and axis; one potential per chunk
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
    assert len(seeds) == 25 + 25
    assert len(pots) == 2  # 97^2 nodes: two chunks


@pytest.mark.parametrize("block_nodes, blocks", [(8192, 2), (1000, 10)])
def test_stability_scan_evaluates_the_frame_once_per_block(monkeypatch,
                                                           block_nodes,
                                                           blocks):
    # 97 x 97 = 9409 nodes: two 8192-node chunks by default, ten 1024-node
    # chunks at 1000 (rounded up to a power of two)
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
    # one chunk's order-2 frame at a time: holding the frame of all 257^2
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


def _gate_message(fn, monkeypatch, block_nodes):
    monkeypatch.setattr(measure, "_BLOCK_NODES", block_nodes)
    with pytest.raises(ValueError, match="not H-minimal") as err:
        fn()
    return str(err.value)


@pytest.mark.parametrize("n", [64, 130])
def test_minimality_gate_reads_the_whole_grid_off_the_band(monkeypatch, n):
    # the paraboloid's characteristic point is a node at 64^2 and its H is
    # NaN there, so the gate must take max |H| off the band; taken over the
    # whole grid, the message does not depend on the chunking
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


def test_intrinsic_form_rejects_nonminimal_graph():
    Gr = IntrinsicGraph(lambda u, v: u * v, (-1, 1, -1, 1))
    with pytest.raises(ValueError, match="not H-minimal"):
        intrinsic_stability_form(Gr, bump2(0.0, 0.0, 0.9, 0.9), nu=32, nv=32)
