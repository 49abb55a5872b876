import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnot_calc import (
    GroupError,
    StratifiedGroup,
    build_group,
    dilate,
    frame_at,
    frame_jacobian,
    gauge_norm,
    group_inverse,
    group_product,
    horizontal_connection,
    metric_eps,
)

H1 = build_group("h1")
H2 = build_group("hn:2")
ENGEL = build_group("engel")

coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def h1_frame(g):
    x, y, _ = g
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [-y / 2.0, x / 2.0, 1.0]])


def hn_frame(n, g):
    m = 2 * n
    A = np.eye(m + 1)
    for i in range(n):
        A[m, i] = -g[n + i] / 2.0
        A[m, n + i] = g[i] / 2.0
    return A


def engel_frame(g):
    x, y, t, _ = g
    A = np.eye(4)
    A[2, 0] = -y / 2.0
    A[2, 1] = x / 2.0
    A[3, 0] = -t / 2.0 - x * y / 12.0
    A[3, 1] = x * x / 12.0
    A[3, 2] = x / 2.0
    return A


# -- construction -----------------------------------------------------------

def test_preset_dimensions():
    assert H1.layer_dims == (2, 1) and H1.Q == 4
    assert H2.layer_dims == (4, 1) and H2.Q == 6
    assert build_group("hn:3").Q == 8
    assert ENGEL.layer_dims == (2, 1, 1) and ENGEL.Q == 7


def test_custom_abelian_plane():
    G = build_group({"layer_dims": [2]})
    assert G.step == 1 and G.Q == 2
    assert np.array_equal(frame_at(G, [0.3, -0.7]), np.eye(2))


def test_custom_dict_matches_h1():
    G = build_group({"layer_dims": [2, 1],
                     "brackets": [{"i": 1, "j": 2, "layer": 2, "index": 1,
                                   "value": 1.0}]})
    g = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(frame_at(G, g), frame_at(H1, g))


def test_rejects_non_skew_tensor():
    b = np.zeros((3, 3, 3))
    b[0, 1, 2] = 1.0  # missing the skew partner
    with pytest.raises(GroupError):
        StratifiedGroup((2, 1), b)


def test_rejects_grading_violation():
    with pytest.raises(GroupError):
        build_group({"layer_dims": [2, 1],
                     "brackets": [{"i": 1, "j": 2, "layer": 1, "index": 1,
                                   "value": 1.0}]})


def test_rejects_step_above_three():
    with pytest.raises(GroupError):
        build_group({"layer_dims": [1, 1, 1, 1]})


def test_unknown_id_rejected():
    with pytest.raises(GroupError):
        build_group("so3")


@pytest.mark.parametrize("G", [H1, H2, ENGEL], ids=lambda G: G.name)
def test_structure_tensor_skew(G):
    assert np.max(np.abs(G.b + np.swapaxes(G.b, 0, 1))) == 0.0


# -- frames -----------------------------------------------------------------

@pytest.mark.parametrize("G", [H1, H2, ENGEL], ids=lambda G: G.name)
def test_frame_is_identity_at_origin(G):
    assert np.array_equal(frame_at(G, np.zeros(G.dim)), np.eye(G.dim))


def test_h1_frame_closed_form_point():
    A = frame_at(H1, [1.0, 2.0, 3.0])
    assert np.array_equal(A[:, 0], [1.0, 0.0, -1.0])
    assert np.array_equal(A[:, 1], [0.0, 1.0, 0.5])
    assert np.array_equal(A[:, 2], [0.0, 0.0, 1.0])


def test_engel_frame_closed_form_point():
    A = frame_at(ENGEL, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(A[:, 1], [0.0, 1.0, 0.5, 1.0 / 12.0])


def test_frames_match_closed_forms_at_random_points(rng):
    for _ in range(50):
        g = rng.normal(size=3) * 3
        assert np.array_equal(frame_at(H1, g), h1_frame(g))
        g = rng.normal(size=5) * 3
        assert np.array_equal(frame_at(H2, g), hn_frame(2, g))
        g = rng.normal(size=4) * 3
        assert np.array_equal(frame_at(ENGEL, g), engel_frame(g))


@pytest.mark.parametrize("G", [H1, H2, ENGEL], ids=lambda G: G.name)
def test_batched_frames_equal_single_point_frames(G, rng):
    # a leading point axis stacks the per-point results bit for bit
    pts = rng.normal(size=(9, G.dim)) * 3
    A, J = frame_at(G, pts), frame_jacobian(G, pts)
    assert A.shape == (9,) + (G.dim,) * 2 and J.shape == (9,) + (G.dim,) * 3
    for k, g in enumerate(pts):
        assert np.array_equal(A[k], frame_at(G, g))
        assert np.array_equal(J[k], frame_jacobian(G, g))


STEP3_CUSTOM = build_group({"layer_dims": [2, 1, 2], "brackets": [
    {"i": 1, "j": 2, "layer": 2, "index": 1, "value": 1.5},
    {"i": 1, "j": 3, "layer": 3, "index": 1, "value": 0.7},
    {"i": 2, "j": 3, "layer": 3, "index": 2, "value": -1.3}]})


def _full_matmul(a, b):
    # a @ b over the last two axes, every inner index summed in order
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out = out + a[..., :, k, None] * b[..., None, k, :]
    return out


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("G", [ENGEL, STEP3_CUSTOM], ids=["engel", "custom"])
def test_step3_frames_skip_only_exact_zero_products(G, rng):
    # ad_g^2 and the Jacobian's products sum only the inner indices the ad
    # matrices share; the frames equal the full fixed-order products bit
    # for bit, signed zeros included, one point or a batch
    assert len(G._ad_inner) < G.dim
    pts = rng.normal(size=(64, G.dim)) * 3
    pts[::5] = 0.0
    pts[1::5] = -0.0
    pts[2::5, ::2] = -0.0
    B = G._ad_basis
    M = G.ad(pts)
    A = np.eye(G.dim) + 0.5 * M
    A += _full_matmul(M, M) / 12.0
    J = 0.5 * B + (_full_matmul(B, M[:, None]) + _full_matmul(M[:, None], B)
                   ) / 12.0
    assert _same_bits(frame_at(G, pts), A)
    assert _same_bits(frame_jacobian(G, pts), J)
    for k, g in enumerate(pts):
        assert _same_bits(frame_at(G, g), A[k])
        assert _same_bits(frame_jacobian(G, g), J[k])


@pytest.mark.parametrize("G", [H1, H2, ENGEL], ids=lambda G: G.name)
def test_frame_columns_are_divergence_free(G, rng):
    # Euclidean divergence of each frame field: sum_i d(A[i, j])/d(g_i) = 0
    for _ in range(10):
        J = frame_jacobian(G, rng.normal(size=G.dim) * 2)
        div = np.einsum("iij->j", J)
        assert np.max(np.abs(div)) == 0.0


@pytest.mark.parametrize("G", [H1, H2, ENGEL], ids=lambda G: G.name)
def test_frame_determinant_is_one(G, rng):
    for _ in range(10):
        A = frame_at(G, rng.normal(size=G.dim) * 3)
        assert abs(np.linalg.det(A) - 1.0) < 1e-12


def test_frame_jacobian_matches_finite_differences(rng):
    h = 1e-6
    for G in (H1, ENGEL):
        g = rng.normal(size=G.dim)
        J = frame_jacobian(G, g)
        for i in range(G.dim):
            e = np.zeros(G.dim)
            e[i] = h
            fd = (frame_at(G, g + e) - frame_at(G, g - e)) / (2 * h)
            assert np.max(np.abs(J[i] - fd)) < 1e-9


@pytest.mark.parametrize("G", [H1, H2, ENGEL], ids=lambda G: G.name)
def test_bracket_table_matches_numeric_commutators(G, rng):
    # [X_i, X_j]f = sum_k b^k_ij X_k f on quadratic test functions, where
    # X f is the directional derivative along the frame column (exact for
    # quadratics under central differences).
    n = G.dim
    Q = rng.normal(size=(n, n))
    c = rng.normal(size=n)

    def f(g):
        return g @ Q @ g + c @ g

    # h = 1e-4 balances the eps/h^2 cancellation noise of the nested central
    # differences against the h^2 truncation of the one cubic case (step 3)
    def xdiff(fn, j, g, h=1e-4):
        d = frame_at(G, g)[:, j]
        return (fn(g + h * d) - fn(g - h * d)) / (2 * h)

    for _ in range(5):
        g = rng.normal(size=n)
        for i in range(n):
            for j in range(i + 1, n):
                comm = (xdiff(lambda z: xdiff(f, j, z), i, g)
                        - xdiff(lambda z: xdiff(f, i, z), j, g))
                expect = sum(G.b[i, j, k] * xdiff(f, k, g) for k in range(n))
                assert abs(comm - expect) < 1e-6


def test_h1_commutator_exact_on_adapted_quadratics(rng):
    # f quadratic with X_j f again quadratic: the nested central differences
    # have zero truncation error, so a wide step (h = 1e-2) leaves nothing
    # but roundoff in the bracket residual.
    def f(g):
        x, y, t = g
        return x * y + 0.5 * x * x - 2.0 * t + 0.3 * y

    def xdiff(fn, j, g, h=1e-2):
        d = frame_at(H1, g)[:, j]
        return (fn(g + h * d) - fn(g - h * d)) / (2 * h)

    for _ in range(10):
        g = rng.normal(size=3) * 2
        comm = (xdiff(lambda z: xdiff(f, 1, z), 0, g)
                - xdiff(lambda z: xdiff(f, 0, z), 1, g))
        assert abs(comm - xdiff(f, 2, g)) < 1e-10


# -- group law ----------------------------------------------------------------

@pytest.mark.parametrize("G", [H1, H2, ENGEL], ids=lambda G: G.name)
def test_group_law_identity_and_inverse(G, rng):
    e = np.zeros(G.dim)
    for _ in range(10):
        g = rng.normal(size=G.dim) * 2
        assert np.allclose(group_product(G, g, e), g, atol=0)
        assert np.allclose(group_product(G, g, group_inverse(G, g)), e,
                           atol=1e-14)


@pytest.mark.parametrize("G", [H1, ENGEL], ids=lambda G: G.name)
def test_group_law_associative(G, rng):
    for _ in range(20):
        g, h, k = (rng.normal(size=G.dim) for _ in range(3))
        lhs = group_product(G, group_product(G, g, h), k)
        rhs = group_product(G, g, group_product(G, h, k))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("G", [H1, ENGEL], ids=lambda G: G.name)
def test_dilations_are_group_homomorphisms(G, rng):
    for lam in (0.5, 2.0, 3.0):
        g, h = rng.normal(size=G.dim), rng.normal(size=G.dim)
        lhs = dilate(G, lam, group_product(G, g, h))
        rhs = group_product(G, dilate(G, lam, g), dilate(G, lam, h))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- dilations and the gauge --------------------------------------------------

def test_dilate_layer_weights():
    assert np.array_equal(dilate(H1, 2.0, [1.0, 1.0, 1.0]), [2.0, 2.0, 4.0])
    assert np.array_equal(dilate(ENGEL, 3.0, [1.0, 0.0, 1.0, 1.0]),
                          [3.0, 0.0, 9.0, 27.0])


def test_dilate_identity_factor(rng):
    g = rng.normal(size=3)
    assert np.array_equal(dilate(H1, 1.0, g), g)


@pytest.mark.parametrize("lam", [0.0, -2.0, np.nan])
def test_dilate_rejects_nonpositive_factor(lam):
    with pytest.raises(GroupError):
        dilate(H1, lam, [1.0, 0.0, 0.0])


def test_gauge_unit_and_zero():
    assert gauge_norm(H1, [1.0, 0.0, 0.0]) == 1.0
    assert gauge_norm(H1, np.zeros(3)) == 0.0
    assert gauge_norm(ENGEL, np.zeros(4)) == 0.0


@settings(max_examples=50, deadline=None)
@given(x=coords, y=coords, t=coords, lam=st.sampled_from([0.5, 2.0, 10.0]))
def test_gauge_homogeneous_h1(x, y, t, lam):
    g = np.array([x, y, t])
    a = gauge_norm(H1, dilate(H1, lam, g))
    b = lam * gauge_norm(H1, g)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@settings(max_examples=50, deadline=None)
@given(g=st.lists(coords, min_size=4, max_size=4),
       lam=st.sampled_from([0.5, 2.0, 10.0]))
def test_gauge_homogeneous_engel(g, lam):
    g = np.array(g)
    a = gauge_norm(ENGEL, dilate(ENGEL, lam, g))
    b = lam * gauge_norm(ENGEL, g)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


# -- approximating metrics ----------------------------------------------------

def test_metric_identity_at_origin():
    M, Minv, det = metric_eps(H1, np.zeros(3), 1.0)
    assert np.allclose(M, np.eye(3), atol=1e-15)
    assert np.allclose(Minv, np.eye(3), atol=1e-15)
    assert det == 1.0


def test_metric_entry_closed_form():
    M, _, _ = metric_eps(H1, [1.0, 2.0, 0.3], 1.0)
    assert abs(M[0, 0] - 2.0) < 1e-14  # 1 + y^2/4 at y = 2


@pytest.mark.parametrize("eps", [1.0, 0.1, 1e-3])
def test_metric_determinant_and_inverse(eps, rng):
    for _ in range(5):
        g = rng.normal(size=3) * 2
        M, Minv, det = metric_eps(H1, g, eps)
        assert det == 1.0 / eps
        assert abs(np.linalg.det(M) - 1.0 / eps) < 1e-9 / eps
        assert np.max(np.abs(M @ Minv - np.eye(3))) < 1e-12


def test_metric_eps_rejects_bad_input():
    with pytest.raises(GroupError):
        metric_eps(H1, np.zeros(3), 0.0)
    with pytest.raises(GroupError):
        metric_eps(ENGEL, np.zeros(4), 1.0)


# -- connection tables --------------------------------------------------------

def test_connection_tables():
    assert np.array_equal(horizontal_connection(H1, "XX", 1, 2), [0.0, 0.0])
    assert np.array_equal(horizontal_connection(H1, "XT", 1, 1), [0.0, -0.5])
    assert np.array_equal(horizontal_connection(H1, "XT", 2, 1), [0.5, 0.0])
    assert np.array_equal(horizontal_connection(ENGEL, "XT", 2, 1), [0.5, 0.0])


def test_connection_rejects_bad_indices():
    with pytest.raises(GroupError):
        horizontal_connection(H1, "XX", 1, 3)
    with pytest.raises(GroupError):
        horizontal_connection(H1, "XT", 1, 2)
    with pytest.raises(GroupError):
        horizontal_connection(H1, "YY", 1, 1)
