import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carnot_calc import measure, surfaces
from carnot_calc import (
    DeformationField,
    Jet,
    ParamPatch,
    ambient_tangential_laplacian,
    build_field,
    build_group,
    build_surface,
    bump2,
    coordinate_harmonicity_residuals,
    coordinate_laplacians,
    dilate_levelset,
    dilate_patch,
    eps_area,
    first_variation_analytic,
    frame_param,
    ibp_residual,
    integrate_patch,
    left_translate_patch,
    mcf_residual,
    normal_first_variation,
    pairwise_sum,
    perimeter,
    quadratic_form,
    random_product_bumps,
    scaling_ratio,
    second_variation_full,
    stability_scan,
    stokes_residual,
    surface_gradient,
    tangential_laplacian,
    translation_ratio,
)
from carnot_calc.cli import parse_field_spec

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
    assert d["rule"] == "simpson"


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


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(0, 8), groups=st.integers(1, 6),
       blocks=st.integers(0, 6))
def test_folded_row_blocks_reduce_to_the_whole_pairwise_sum(data, k, groups,
                                                            blocks):
    # blocks of groups * 2^k values, each starting at a multiple of 2^k,
    # then a last block with a ragged tail (of odd length too)
    step = groups << k
    size = blocks * step + data.draw(st.integers(1, step))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=size) * np.exp(rng.uniform(-8, 8, size=size))
    parts = [measure._fold(x[i:i + step], k) for i in range(0, size, step)]
    assert pairwise_sum(np.concatenate(parts)) == pairwise_sum(x)


def _block_shapes(monkeypatch, P, nu, nv, route=None):
    """The node shapes of the frames a quadrature evaluates: those of
    integrate_patch(P, None), or of route(P, nu=nu, nv=nv)."""
    shapes = []
    inner = measure.zy_second

    def counted(P, f, u, v, order=2):
        shapes.append(np.shape(u))
        return inner(P, f, u, v, order=order)

    monkeypatch.setattr(measure, "zy_second", counted)
    if route is None:
        integrate_patch(P, None, nu=nu, nv=nv, error_estimate=False)
    else:
        route(P, nu=nu, nv=nv)
    monkeypatch.setattr(measure, "zy_second", inner)
    return shapes


def test_row_blocks_hold_the_power_of_two_of_rows_nearest_the_block_size(
        monkeypatch):
    # 2^k whole rows, k the least integer >= log2(_BLOCK_NODES / columns)
    # and at least 0, so a block holds at least _BLOCK_NODES nodes or the
    # whole grid; only the last block is shorter.  97 columns: one block
    # at 8192 (128 rows hold all 97), 16 rows at 1000; 39 columns at 1000:
    # blocks of 32 rows, so the 29 rows of 28 x 38 cells are one partial
    # block
    P = build_surface("t-graph:parab").patch
    for block_nodes, nu, nv, rows in (
            (8192, 128, 128, 64), (8192, 512, 512, 16), (8192, 96, 96, 128),
            (1000, 96, 96, 16), (1000, 28, 38, 32), (1000, 48, 16, 64),
            (10, 16, 16, 1), (10 ** 9, 64, 16, 2 ** 26)):
        monkeypatch.setattr(measure, "_BLOCK_NODES", block_nodes)
        shapes = _block_shapes(monkeypatch, P, nu, nv)
        n_rows, n_cols = nu + 1, nv + 1
        full, tail = divmod(n_rows, rows)
        assert shapes == ([(rows, n_cols)] * full
                          + ([(tail, n_cols)] if tail else []))


def test_support_box_runs_from_one_node_below_to_one_node_above():
    grid = measure.QuadratureGrid((0.5, 1.5, 0.5, 1.5), 16, 16)  # h = 1/16
    whole = (slice(0, 17), slice(0, 17))
    assert grid.restricted(None) is grid
    for support, box in (
            # u-edges on nodes 4 and 8, v-edges between nodes 2, 3 and 5, 6
            ((0.75, 1.0, 0.65, 0.85), (slice(3, 10), slice(2, 7))),
            # across the domain edges: clipped
            ((0.0, 0.6, 1.45, 3.0), (slice(0, 3), slice(15, 17))),
            # beyond the grid: the nearest node is the one below / above
            ((1.6, 2.0, -1.0, 0.4), (slice(16, 17), slice(0, 1))),
            ((0.0, 2.0, 0.0, 2.0), whole),
            # a point on a node: that node and one on each side, clipped
            ((1.0, 1.0, 0.5, 0.5), (slice(7, 10), slice(0, 2))),
            # no point, so no node: (inf, -inf), reversed or NaN edges
            ((np.inf, -np.inf, np.inf, -np.inf), None),
            ((1.0, 0.75, 0.85, 0.65), None),
            ((np.nan, 1.0, 0.7, np.nan), None),
            ((np.nan, np.nan, 0.75, 1.0), None),
            ((0.75, 1.0, 0.85, 0.65), None)):
        sub = grid.restricted(support)
        if box is None:
            assert sub is None
            continue
        # the parent's nodes and Simpson weights on the box, as views
        for axis, span in zip("uv", box):
            for name in (axis, "w" + axis):
                assert np.shares_memory(getattr(sub, name),
                                        getattr(grid, name))
                assert np.array_equal(getattr(sub, name),
                                      getattr(grid, name)[span])
        assert (sub.nu, sub.nv, sub.domain) == (16, 16, grid.domain)
        assert grid.u.size == grid.v.size == 17


def test_v1_evaluates_only_the_support_box(monkeypatch):
    # a bump on the lower-left quarter: the sub-grid of its 34 x 34 of the
    # 65 x 65 nodes, in blocks of 16 of its rows, as many as a block of
    # the whole grid holds
    P = build_surface("t-graph:parab").patch
    D = DeformationField.vertical(bump2(0.75, 0.75, 0.25, 0.25))
    monkeypatch.setattr(measure, "_BLOCK_NODES", 1000)
    shapes = _block_shapes(monkeypatch, P, 64, 64, route=lambda P, **kw:
                           first_variation_analytic(P, D, **kw))
    assert shapes == [(16, 34), (16, 34), (2, 34)]


def test_a_support_holding_no_node_evaluates_no_frame(monkeypatch):
    # the zero field's support box holds no node: v1 evaluates no frame
    # and reads 0.0
    P = build_surface("t-graph:parab").patch
    D = parse_field_spec("{}", P.domain)
    monkeypatch.setattr(measure, "_BLOCK_NODES", 1000)
    values = []
    shapes = _block_shapes(monkeypatch, P, 64, 64, route=lambda P, **kw:
                           values.append(first_variation_analytic(P, D, **kw)))
    assert shapes == []
    assert repr(values) == "[0.0]"


@st.composite
def _reducer_cases(draw):
    """(nodes, box, block nodes, seed) for a grid of nodes per axis and a
    node box holding at least one node."""
    nodes = (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    box = []
    for n in nodes:
        start = draw(st.integers(0, n - 1))
        box.append((start, draw(st.integers(start + 1, n))))
    return (nodes, tuple(box), draw(st.sampled_from([10 ** 9, 64, 20])),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(case=_reducer_cases())
@example(case=((15, 13), ((5, 10), (2, 9)), 64, 0))
@example(case=((15, 13), ((2, 15), (0, 13)), 64, 1))
def test_integrate_is_the_pairwise_sum_of_the_whole_grid_plane(case):
    # synthetic frames: W with exact zeros and negative values, which the
    # band drops, for the first and none for the second; densities divided
    # by W, so a dropped node would be inf or nan.  The grid is the
    # sub-grid of a node box of a parent grid, and each integral is the
    # pairwise sum of the sub-grid's own row-major plane.  The examples at
    # 64 block nodes: 13 parent columns make blocks of 8 rows, so 5 x 7
    # nodes make one block of 35 nodes, 4 groups of 8 and a ragged tail of
    # 3, and 13 x 13 nodes make blocks of 8 and 5 rows, the last with a
    # ragged tail of 1
    (nu, nv), ((r0, r1), (c0, c1)), block_nodes, seed = case
    # a plain parent grid of nu x nv nodes, even and odd counts alike (a
    # Simpson grid has an odd count >= 9): cell centres and widths; the
    # sub-grid keeps the parent's cell count nv - 1, as restricted does
    hu, hv = 1.0 / nu, 3.0 / nv
    u, v = hu * (np.arange(nu) + 0.5), -1.0 + hv * (np.arange(nv) + 0.5)
    wu, wv = np.full(nu, hu) * (1 + u), np.full(nv, hv) * (2 + v)
    grid = types.SimpleNamespace(u=u[r0:r1], v=v[c0:c1], nv=nv - 1,
                                 wu=wu[r0:r1], wv=wv[c0:c1])
    rng = np.random.default_rng(seed)
    shape = (r1 - r0, c1 - c0)
    W0 = rng.normal(size=shape) + 1.0
    W0[rng.uniform(size=shape) < 0.2] = 0.0
    Ws = [W0, 1.0 + np.abs(rng.normal(size=shape))]
    omegas = [rng.normal(size=shape) for _ in Ws]
    numerators = [rng.normal(size=(2,) + shape), rng.normal(size=(1,) + shape)]

    def frames(u, v, rows):
        assert u.shape == v.shape == (rows.stop - rows.start, c1 - c0)
        assert np.array_equal(u[:, 0], grid.u[rows])
        return [{"W": W[rows], "omega": om[rows], "f": f}
                for f, (W, om) in enumerate(zip(Ws, omegas))]

    def densities(zz, rows):
        for num in numerators[zz["f"]]:
            yield num[rows] / zz["W"]

    ws = np.outer(grid.wu, grid.wv)
    integrals, excluded = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for W, om, nums in zip(Ws, omegas, numerators):
            band = surfaces._characteristic_band(W, om)
            integrals.append([pairwise_sum(np.where(band, 0.0, num / W * ws))
                              for num in nums])
            excluded.append(pairwise_sum(np.where(band, np.abs(W) * ws, 0.0)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "_BLOCK_NODES", block_nodes)
        assert measure._integrate(grid, frames, densities,
                                  excluded=True) == (integrals, excluded)
        # the excluded mass is summed only when asked for
        assert measure._integrate(grid, frames, densities) == (integrals,
                                                               None)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 5), length=st.integers(0, 70),
       seed=st.integers(0, 2 ** 32 - 1))
@example(rows=3, length=1, seed=0)
@example(rows=2, length=67, seed=1)
def test_the_stacked_reduction_is_the_pairwise_sum_of_each_row(rows, length,
                                                               seed):
    # odd lengths carry a node up a level, length 1 is its own sum and
    # length 0 sums to 0.0
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, length)) * np.exp(
        rng.uniform(-8, 8, size=(rows, length)))
    sums = measure._pairwise_rows(a)
    assert [float(x) for x in sums] == [pairwise_sum(row) for row in a]


def _hidden(f):
    """f without its .support attribute: integrated on the whole grid."""
    return lambda u, v: f(u, v)


def test_supported_identities_equal_the_whole_grid(monkeypatch):
    # ibp (every kind), stokes and the normal first variation vanish off
    # the support of zeta (or f); bumps inside the domain, across its
    # corner and off the grid.  The sub-grid of the support's nodes sums
    # its own pairwise tree, so the value moves from the whole grid's by
    # rounding only (<= 8.9e-16 measured over 60 random bumps at 32^2),
    # and every block size gives the same bits
    P = build_surface("t-graph:parab").patch
    f = bump2(0.9, 1.1, 0.3, 0.25)
    routes = [lambda z, kind=kind: ibp_residual(P, kind, z, f=f, nu=32,
                                                  nv=32)
              for kind in ("Z", "TY", "gradient", "green")]
    routes += [lambda z: ibp_residual(P, "gradient", z, index=2, nu=32,
                                      nv=32),
               lambda z: stokes_residual(P, z, nu=32, nv=32),
               lambda z: normal_first_variation(P, z, nu=32, nv=32)]
    for z in (bump2(1.0, 1.0, 0.4, 0.4), bump2(0.5, 1.5, 0.3, 0.2),
              bump2(1.1, 0.8, 0.07, 0.1), bump2(2.0, 1.0, 0.3, 0.3)):
        whole = [route(_hidden(z)) for route in routes]
        by_block = []
        for block_nodes in (8192, 100):
            monkeypatch.setattr(measure, "_BLOCK_NODES", block_nodes)
            by_block.append([route(z) for route in routes])
        assert by_block[0] == by_block[1]
        assert np.max(np.abs(np.subtract(by_block[0], whole))) <= 1e-14


def test_quadrature_seeds_hold_each_row_and_column_once(monkeypatch):
    # the block's nodes reach zy_second as zero-copy views, but the seeds
    # the frame is evaluated on are (rows x 1) and (1 x columns)
    P = build_surface("t-graph:parab").patch
    monkeypatch.setattr(measure, "_BLOCK_NODES", 1000)
    for order in (1, 2):
        seeds = []
        inner = surfaces.seed_jets

        def recorded(coords, order=2):
            out = inner(coords, order=order)
            seeds.append(tuple(np.shape(j.v) for j in out))
            return out

        monkeypatch.setattr(surfaces, "seed_jets", recorded)
        integrate_patch(P, None, nu=40, nv=40, error_estimate=False,
                        order=order)
        monkeypatch.setattr(surfaces, "seed_jets", inner)
        # 41 columns: a block of 32 rows, then one of 9
        assert seeds == [((32, 1), (1, 41)), ((9, 1), (1, 41))]


def test_user_patch_with_constant_and_one_variable_components_matches_twin():
    # x = 0 is constant and y = u, t = v each read one variable, so frame
    # arrays keep (rows x 1) and (1 x columns) shapes; the integrals are
    # those of the catalog vertical plane x = 0 bit for bit
    twin = build_surface("vertical-plane:1,0,0").patch
    user = ParamPatch(H1, lambda u, v: 0.0, lambda u, v: u, lambda u, v: v,
                      twin.domain, twin.grid, name="user-plane")
    D = DeformationField(bump2(0.2, 0.1, 0.8, 0.9), bump2(-0.3, 0.2, 0.7, 0.6),
                         bump2(0.1, -0.2, 0.9, 0.8))
    F = bump2(0.0, 0.0, 1.5, 1.2)

    def integrals(P):
        return (repr(perimeter(P, nu=64, nv=64)),
                repr(eps_area(P, 0.1, nu=64, nv=66)),
                second_variation_full(P, D, nu=64, nv=64),
                quadratic_form(P, F, nu=64, nv=64),
                stability_scan(P, nu=64, nv=64, n_centers=2, n_radii=2))

    assert integrals(user) == integrals(twin)


def test_blocked_integration_is_bit_identical(monkeypatch):
    # a characteristic node at the center is masked inside one block
    P = build_surface("t-graph:zero", domain=(-1, 1, -1, 1)).patch
    Q = build_surface("t-graph:parab").patch
    X = build_surface("xyt-graph").patch
    D = DeformationField(bump2(1.0, 1.0, 0.4, 0.4), bump2(0.9, 1.1, 0.3, 0.3),
                         bump2(1.0, 0.9, 0.35, 0.4))
    zeta, f = bump2(1.0, 1.0, 0.4, 0.4), bump2(0.9, 1.1, 0.3, 0.25)
    bumps = random_product_bumps(X.domain, 3, np.random.default_rng(7))
    results = []
    # one block, then (at 1000 nodes) blocks of 8, 16 and 32 rows on the
    # 129^2, 65^2 and 33^2 node grids, each with a 1-row last block
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


@pytest.mark.parametrize("eps", [-1.0, -1e-300, np.nan])
def test_eps_area_rejects_negative_or_nan_eps(eps):
    # the excess over the perimeter is >= 0 only for eps >= 0
    P = build_surface("t-graph:parab").patch
    with pytest.raises(ValueError, match="eps must be >= 0"):
        eps_area(P, eps, nu=16, nv=16)


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


@pytest.mark.parametrize("lam", [0.0, -2.0, np.nan])
def test_dilations_reject_a_nonpositive_or_nan_factor(lam):
    cat = build_surface("t-graph:parab")
    for dilated in (lambda: scaling_ratio(cat.patch, lam, nu=16, nv=16),
                    lambda: dilate_patch(cat.patch, lam),
                    lambda: dilate_levelset(cat.levelset, lam)):
        with pytest.raises(ValueError, match="factor must be positive"):
            dilated()


@pytest.mark.parametrize("n", [64, 130])
@pytest.mark.parametrize("sid, domain", [
    ("t-graph:parab", None),
    # characteristic at the origin, a node of both grids
    ("t-graph:zero", (-1.0, 1.0, -1.0, 1.0))])
def test_ratio_families_equal_per_patch_routes(n, sid, domain):
    P = build_surface(sid, domain=domain).patch

    def area(Q):
        return integrate_patch(Q, None, nu=n, nv=n, error_estimate=False,
                               order=1).value

    base, g0 = area(P), (0.3, -0.2, 0.5)
    assert scaling_ratio(P, 1.7, nu=n, nv=n) == \
        area(dilate_patch(P, 1.7)) / base
    assert translation_ratio(P, g0, nu=n, nv=n) == \
        area(left_translate_patch(P, g0)) / base


def test_only_integrate_patch_folds_the_excluded_mass(monkeypatch):
    # the origin, a node of the 16^2 grid on (-1, 1)^2, is in the
    # parabola's characteristic band; the ratios read no excluded mass, so
    # each of scaling_ratio's two perimeters folds its integral alone (one
    # block: 2 folds, not 4), while integrate_patch, which reports the
    # mass, folds it beside its integral (2 folds, 1 without a band node)
    P = build_surface("t-graph:parab", domain=(-1, 1, -1, 1)).patch
    expected = scaling_ratio(P, 2.0, nu=16, nv=16)
    reported = integrate_patch(P, None, nu=16, nv=16, error_estimate=False)
    folds, inner = [], measure._fold

    def counting(run, k):
        folds.append(k)
        return inner(run, k)

    monkeypatch.setattr(measure, "_fold", counting)
    assert scaling_ratio(P, 2.0, nu=16, nv=16) == expected
    assert len(folds) == 2
    folds.clear()
    again = integrate_patch(P, None, nu=16, nv=16, error_estimate=False)
    assert (again.value, again.excluded_mass) == (reported.value,
                                                  reported.excluded_mass)
    assert len(folds) == 2


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
    for variant in ("plain", "hat"):
        for _ in range(5):
            u, v = rng.uniform(0.6, 1.4, size=2)
            amb = ambient_tangential_laplacian(cat.levelset, field,
                                               cat.patch.point(u, v), variant)
            # restrict x to the patch: x(u, v) = u
            pat = tangential_laplacian(cat.patch, lambda a, b: a + 0.0 * b,
                                       u, v, variant)
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
