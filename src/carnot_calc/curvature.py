"""Horizontal mean curvature by independent routes, and pointwise identities.

Routes implemented:
  * hmc_levelset   -- (W^2 lap_H phi - inf_H phi) / W^3 from one jet of phi
  * hmc_divergence -- sum_i X_i(pbar_i) with outer finite differences
  * hmc_param      -- qbar Z(pbar) - pbar Z(qbar) on a parametric patch
  * hmc_pauls      -- Riemannian-approximation curvatures H_eps -> H
  * hmc_intrinsic  -- graph form -B_phi(B_phi(phi) / sqrt(1 + B_phi(phi)^2))

All sign conventions make the cylinder x^2 + y^2 = R^2 with outward normal
have curvature 1/R.
"""

import numpy as np

from .fields import ANALYTIC, FD, horizontal_jet
from .groups import _dot, frame_at, frame_jacobian
from .surfaces import (CharacteristicPointError, _characteristic_band,
                       _checked_frame, _require_frames, burgers, zy_second)

__all__ = [
    "CurvatureReport", "hmc_levelset", "hmc_divergence", "hmc_param",
    "hmc_pauls", "hmc_intrinsic", "levelset_fields", "directional_fd",
    "geometry_aux", "pseudo_hermitian_check", "identity_battery",
    "IDENTITY_IDS", "curvature_grid",
]


class CurvatureReport:
    """Curvature value with its provenance and local diagnostics."""

    def __init__(self, H, route, W=None, diagnostics=None):
        self.H = float(H)
        self.route = route
        self.W = None if W is None else float(W)
        self.diagnostics = diagnostics or {}

    def __float__(self):
        return self.H

    def __repr__(self):
        return "CurvatureReport(H=%r, route=%r, W=%r)" % (
            self.H, self.route, self.W)


def hmc_levelset(S, g, engine=ANALYTIC):
    """Horizontal mean curvature of {phi = 0} at g from one horizontal jet."""
    g = np.asarray(g, dtype=float)
    jet = horizontal_jet(S.group, S.phi, g, engine=engine)
    _checked_frame(S.group, g, jet["comps"])  # characteristic guard
    gradH = jet["gradH"]
    W = float(np.sqrt(np.sum(gradH ** 2)))
    H = (W ** 2 * jet["lapH"] - jet["infH"]) / W ** 3
    return CurvatureReport(H, "levelset", W,
                           {"lapH": float(jet["lapH"]),
                            "infH": float(jet["infH"]), "gradH_norm": W})


def levelset_fields(S, g, order=2):
    """Exact frame/curvature data of a level set at g, from two jets of phi.

    Returns values and ambient coordinate gradients of p_i, omega_s, W and
    their normalizations, the frame vectors, and (on H^1) the directions
    Z, Y, B = T - obar Y, the tangential derivatives Z/Y/T of pbar, qbar,
    obar plus curvature H and the vertical rate A = -Z(obar).  Everything
    here is exact given exact phi callbacks; only quantities needing three
    derivatives of phi require an outer finite difference on top (see
    directional_fd).

    g may be one point (dim,) or a batch (n, dim): every entry of a batch
    then carries a leading point axis (H of shape (n,), dp of shape
    (n, dim, m), ...).  One point is the batch of one, and each point's
    values do not depend on the batch it is evaluated in.  A batch raises
    what the first point failing the degenerate-normal or characteristic
    check raises alone.  order=1 stops at the frame (g, A, p, om, W, normN,
    pbar, obar), from first derivatives of phi only.
    """
    G = S.group
    g = np.asarray(g, dtype=float)
    pts = np.atleast_2d(g)
    m = G.m
    ph = S.phi.jet(pts, order=order)
    # phi's partials broadcast to its (n,) values, stacked on a last axis
    grad = np.stack(np.broadcast_arrays(ph.v, *ph.g)[1:], axis=-1)
    A = frame_at(G, pts)
    At = np.swapaxes(A, -1, -2)
    comps = _dot(At, grad[:, None, :])
    p, om = comps[:, :m], comps[:, m:]
    W = np.sqrt(_dot(p, p))
    normN = np.sqrt(W ** 2 + _dot(om, om))
    _require_frames(pts, W, normN)
    Wc = W[:, None]
    pbar, obar = p / Wc, om / Wc
    out = {"g": g, "A": A, "p": p, "om": om, "W": W, "normN": normN,
           "pbar": pbar, "obar": obar}
    if order < 2:
        return _first_point(out, g)
    hess = np.stack([np.stack(np.broadcast_arrays(ph.v, *row)[1:], axis=-1)
                     for row in ph.h], axis=1)
    J = frame_jacobian(G, pts)
    # dcomps[k, l, i] = d/dg_l of <N, frame_i> at the k-th point
    dcomps = (_dot(np.swapaxes(J, -1, -2), grad[:, None, None, :])
              + _dot(hess[:, :, None, :], At[:, None, :, :]))
    dp, dom = dcomps[..., :m], dcomps[..., m:]
    dW = _dot(dp, p[:, None, :]) / Wc
    W2 = (W ** 2)[:, None, None]
    dpbar = dp / Wc[..., None] - dW[..., None] * p[:, None, :] / W2
    dobar = dom / Wc[..., None] - dW[..., None] * om[:, None, :] / W2
    # canonical curvature sum_i X_i(pbar_i), exact
    H = sum(_dot(A[..., i], dpbar[..., i]) for i in range(m))
    out.update({"dp": dp, "dom": dom, "dW": dW, "dpbar": dpbar,
                "dobar": dobar, "H": H})
    if G.is_heisenberg and G.dim == 3:
        X1, X2, T = A[..., 0], A[..., 1], A[..., 2]
        pb, qb = pbar[:, 0], pbar[:, 1]
        Zv = qb[:, None] * X1 - pb[:, None] * X2
        Yv = pb[:, None] * X1 + qb[:, None] * X2
        # der[D + q] = D(q): every direction against every gradient at once
        grads = np.stack([dpbar[..., 0], dpbar[..., 1], dobar[..., 0],
                          dom[..., 0], dW, dp[..., 0], dp[..., 1]])
        dots = _dot(np.stack([X1, X2, T, Zv, Yv])[:, None], grads)
        der = {D + q: dots[i, j] for i, D in enumerate("X1 X2 T Z Y".split())
               for j, q in enumerate("pbar qbar obar om W p q".split())}
        out.update(der)
        out.update({"X1v": X1, "X2v": X2, "Tv": T, "Zv": Zv, "Yv": Yv,
                    "Bv": T - obar * Yv,
                    "Acurv": -der["Zobar"],
                    "kappaY": qb * der["Ypbar"] - pb * der["Yqbar"],
                    "kappaT": qb * der["Tpbar"] - pb * der["Tqbar"]})
    return _first_point(out, g)


def _first_point(out, g):
    """out for a batch g (n, dim); for one point g (dim,), each field's
    entry at that point, a float for a scalar."""
    return out if g.ndim > 1 else {
        k: v if k == "g" else float(v[0]) if v.ndim == 1 else v[0]
        for k, v in out.items()}


def directional_fd(fn, g, vec):
    """Central difference of a scalar field along a frozen ambient vector."""
    g = np.asarray(g, dtype=float)
    vec = np.asarray(vec, dtype=float)
    h = FD.step1(g)
    return (fn(g + h * vec) - fn(g - h * vec)) / (2.0 * h)


def _points_last(fields):
    """Batched levelset_fields output, point axis last: f["pbar"][1] is
    qbar at every point, f["Zv"][c] the c-th component of Z."""
    return {key: v.transpose(*range(1, v.ndim), 0)
            for key, v in fields.items()}


def _stencil_fields(S, g, h, vecs, center=False, order=2):
    """Fields at the stencil points of g (n, dim) and d(q, j), the central
    differences at every g of q (a field name, or a function of the fields)
    along the j-th of the directions vecs (n, k, dim) frozen at g, with step
    h (FD.step1 at each g if None).  levelset_fields (of the given order)
    runs once, on the distinct points g +- h v (after g itself if center),
    and returns them point axis last."""
    steps = np.array([FD.step1(gk) if h is None else h for gk in g])
    hv = steps[:, None, None] * vecs
    near = np.stack([g[:, None] + hv, g[:, None] - hv], axis=2)
    near = near.reshape(-1, g.shape[-1])
    if center:
        near = np.concatenate([g, near])
    row = {}
    idx = np.array([row.setdefault(gp.tobytes(), len(row)) for gp in near])
    F = _points_last(levelset_fields(
        S, near[np.unique(idx, return_index=True)[1]], order=order))
    plus, minus = idx[len(g) * center:].reshape(len(g), -1, 2).T

    def d(q, j):
        val = q(F) if callable(q) else F[q]
        return (val[..., plus[j]] - val[..., minus[j]]) / (2.0 * steps)

    return F, d


def _frame_stencil(S, g, k):
    """_stencil_fields of the first-order frame at one point g, with g,
    along its first k frame columns (step FD.step1(g))."""
    g = np.asarray(g, dtype=float)
    return _stencil_fields(S, g[None], None, frame_at(S.group, g).T[None, :k],
                           center=True, order=1)


def hmc_divergence(S, g):
    """Curvature as the horizontal divergence sum_i X_i(pbar_i).

    Reads only p and W = |p| (first derivatives of phi); the outer X_i
    derivatives are central differences along the frame columns frozen at
    g.  Independent of the second-derivative route.
    """
    F, d = _frame_stencil(S, g, S.group.m)
    H = sum(d(lambda fl: fl["p"][i] / fl["W"], i)
            for i in range(S.group.m))
    return CurvatureReport(H[0], "divergence", F["W"][0])


def hmc_param(P, uv):
    """Curvature qbar Z(pbar) - pbar Z(qbar) on a patch (exact jets)."""
    u, v = float(uv[0]), float(uv[1])
    zz = zy_second(P, None, u, v)
    return CurvatureReport(zz["H"], "param", zz["W"],
                           {"Zpbar": float(zz["Zpbar"]),
                            "Zqbar": float(zz["Zqbar"])})


def hmc_pauls(S, g, eps_list=(1e-2, 1e-3, 1e-4)):
    """Riemannian approximating curvatures H_eps and their extrapolation.

    H_eps = X1(a pbar) + X2(a qbar) + eps T(a obar) with
    a = W / sqrt(W^2 + eps om^2); H_eps -> H at rate O(eps).  Returns a dict
    with the H_eps values, the exact-route H, and a Richardson extrapolation
    from the three smallest eps values.
    """
    G = S.group
    if not (G.is_heisenberg and G.dim == 3):
        raise ValueError("the approximation scheme is set up on H^1")
    F, d = _frame_stencil(S, g, 3)
    eps_list = sorted(float(e) for e in eps_list)

    def scaled(fl, eps):
        # (p, om) / sqrt(W^2 + eps om^2), the components of a (pbar, obar)
        p, om = fl["p"], fl["om"]
        return (np.concatenate([p, om])
                / np.sqrt(p[0] ** 2 + p[1] ** 2 + eps * om[0] ** 2))

    values = []
    for eps in eps_list:
        X1a, X2a, Ta = (d(lambda fl: scaled(fl, eps)[i], i)
                        for i in range(3))
        values.append(float(X1a[0] + X2a[0] + eps * Ta[0]))
    exact = float(hmc_levelset(S, g))
    small = sorted(zip(eps_list, values))[:3]
    extrapolated = sum(hi * np.prod([ej / (ej - ei) for j, (ej, _)
                                     in enumerate(small) if j != i])
                       for i, (ei, hi) in enumerate(small))
    return {"eps": list(eps_list), "H_eps": values, "H": exact,
            "extrapolated": float(extrapolated)}


def hmc_intrinsic(Gr, uv):
    """Curvature of an intrinsic graph via the divergence-form expression.

    Equals -B_phi(B_phi(phi) / sqrt(1 + B_phi(phi)^2)), matching the
    orientation of the associated patch (p = 1 there).
    """
    bf = burgers(Gr, Gr.phi)

    def unit(u, v):
        b = bf(u, v)
        if hasattr(b, "sqrt"):
            return b / (1.0 + b * b).sqrt()
        return b / np.sqrt(1.0 + b * b)

    H = -burgers(Gr, unit, uv)
    b0 = bf(float(uv[0]), float(uv[1]))
    return CurvatureReport(H, "intrinsic", np.sqrt(1.0 + b0 ** 2))


def geometry_aux(S, point):
    """Auxiliary surface geometry: the drift coefficients
    c_i = sum_s (sum_j b^s_ij pbar_j) obar_s, the vertical rate A = -Z(obar)
    (H^1), and the normalized components.

    Accepts (LevelSetSurface, ambient point) or (ParamPatch, (u, v)); the
    patch route computes A by tangential jets, the level-set route from the
    ambient fields.
    """
    if hasattr(S, "phi"):
        G = S.group
        flds = levelset_fields(S, np.asarray(point, dtype=float))
        pbar, obar = flds["pbar"], flds["obar"]
        c = np.zeros(G.m)
        for s in range(G.dim - G.m):
            c += (G.b_horizontal(s) @ pbar) * obar[s]
        out = {"cHS": c, "obar": obar, "pbar": pbar, "W": flds["W"],
               "H": flds["H"]}
        if "Acurv" in flds:
            out["A"] = flds["Acurv"]
        return out
    u, v = float(point[0]), float(point[1])
    zz = zy_second(S, None, u, v)
    pbar = np.array([float(zz["pbar"]), float(zz["qbar"])])
    obar = np.array([float(zz["obar"])])
    return {"cHS": obar[0] * np.array([pbar[1], -pbar[0]]),
            "obar": obar, "pbar": pbar, "W": float(zz["W"]),
            "H": float(zz["H"]),
            "A": float(-zz["Zobar"])}


def pseudo_hermitian_check(S, point):
    """Residual of nabla^H_{e1} e1 = -H e2 for e1 = (nu_H)-perp, e2 = nu_H.

    The covariant derivative is computed from the Koszul formula for the
    horizontal connection, with every derivative and bracket evaluated by
    finite differences of the exact coefficient fields -- nothing about the
    identity itself is assumed.  Accepts (LevelSetSurface, ambient point) or
    a ParamPatch with a level-set companion plus (u, v).
    """
    if not hasattr(S, "phi"):
        P = S
        if P.levelset is None:
            raise ValueError("patch has no level-set companion to extend "
                             "the frame off the surface")
        g = P.point(float(point[0]), float(point[1]))
        return pseudo_hermitian_check(P.levelset, g)
    G = S.group
    if not (G.is_heisenberg and G.dim == 3):
        raise ValueError("this check is set up on H^1")
    g = np.asarray(point, dtype=float)
    # horizontal fields are coefficient functions of the level-set fields
    f = _points_last(levelset_fields(S, g[None]))

    def e1(fl):
        return np.array([fl["pbar"][1], -fl["pbar"][0]])

    fields = (e1, *(lambda fl, k=k: np.eye(2)[:, [k] * len(fl["W"])]
                    for k in range(2)))
    A = f["A"]
    vecs = [(A[:, 0] * U(f)[0] + A[:, 1] * U(f)[1]).T for U in fields]
    d = _stencil_fields(S, g[None], None, np.stack(vecs, axis=1))[1]

    def deriv(U, scalar_fn):
        # derivative at g of scalar_fn along the field U, frozen at g
        return d(scalar_fn, fields.index(U))

    def bracket_h(U, V):
        # horizontal part of [U, V] at g for horizontal-coefficient fields:
        # coefficients U(v_k) - V(u_k)
        return np.array([deriv(U, lambda fl: V(fl)[k])
                         - deriv(V, lambda fl: U(fl)[k]) for k in range(2)])

    def inner(U, V):
        return lambda fl: sum(U(fl) * V(fl))

    lhs = np.array([0.5 * (deriv(e1, inner(e1, Ek))
                           + deriv(e1, inner(e1, Ek))
                           - deriv(Ek, inner(e1, e1))
                           - sum(e1(f) * bracket_h(e1, Ek))
                           - sum(e1(f) * bracket_h(e1, Ek))
                           + sum(Ek(f) * bracket_h(e1, e1)))[0]
                    for Ek in fields[1:]])
    rhs = -f["H"][0] * f["pbar"][:, 0]
    return {"lhs": lhs, "rhs": rhs,
            "residual": float(np.max(np.abs(lhs - rhs)))}


# ---------------------------------------------------------------------------
# pointwise identity battery (H^1 level sets)
#
# Inner quantities (frame, curvature, first tangential derivatives) are exact
# from jets of phi; each outermost derivative is one central finite
# difference along a frozen direction.  Each identity is an expression over
# (f, d), evaluated at all the points at once: f is levelset_fields at the
# points, point axis last, and d(q, D) the differences of the field q along
# the direction D.  The worst of several sub-checks is their elementwise
# maximum, which keeps a NaN at any point.


def _id_unit_gradient(f, d):
    return np.maximum.reduce([abs(f["pbar"][0] * f[D + "pbar"]
                                  + f["pbar"][1] * f[D + "qbar"])
                              for D in ("Z", "Y", "T")])


def _id_z_of_normal(f, d):
    return np.maximum(abs(f["Zpbar"] - f["pbar"][1] * f["H"]),
                      abs(f["Zqbar"] + f["pbar"][0] * f["H"]))


def _id_curvature_squared(f, d):
    return abs(f["Zpbar"] ** 2 + f["Zqbar"] ** 2 - f["H"] ** 2)


def _id_frame_curvature(f, d):
    return abs(f["pbar"][1] * f["Zpbar"] - f["pbar"][0] * f["Zqbar"] - f["H"])


def _id_y_antisymmetry(f, d):
    return abs(f["kappaY"] - (f["X2pbar"] - f["X1qbar"]))


def _id_z_log_area(f, d):
    return abs(f["ZW"] / f["W"] - (f["kappaY"] + f["obar"][0]))


def _id_y_omega(f, d):
    return abs(f["Yom"] - f["TW"])


def _id_z_omega(f, d):
    return abs(f["Zom"] / f["W"] - f["kappaT"])


def _id_vertical_rate(f, d):
    ob = f["obar"][0]
    rhs = (f["pbar"][0] * (f["Tqbar"] - ob * f["Yqbar"])
           - f["pbar"][1] * (f["Tpbar"] - ob * f["Ypbar"]) + ob ** 2)
    return abs(f["Acurv"] - rhs)


def _id_perp_forms(f, d):
    pairs = (("Y", "T"), ("Y", "Z"), ("T", "Z"))
    return np.maximum.reduce([abs(f[a + "qbar"] * f[b + "pbar"]
                                  - f[a + "pbar"] * f[b + "qbar"])
                              for a, b in pairs])


def _id_wedge_curvature(f, d):
    pb, qb = f["pbar"]
    val = (qb ** 2 * f["X1pbar"] - pb * qb * (f["X2pbar"] + f["X1qbar"])
           + pb ** 2 * f["X2qbar"])
    return abs(val - f["H"])


def _commutator_residual(f, d, first, second, rhs):
    """max over coordinates x_c of |[first, second] x_c - rhs[c]|.

    The inner derivative of a coordinate is the matching component of the
    (exact) direction field; the outer one is a finite difference along the
    other frozen direction.
    """
    return np.max(abs(d(second + "v", first) - d(first + "v", second) - rhs),
                  axis=0)


def _id_zy_commutator(f, d):
    return _commutator_residual(f, d, "Z", "Y", (
        f["Tv"] + f["H"] * f["Zv"] + f["kappaY"] * f["Yv"]))


def _id_zt_commutator(f, d):
    return _commutator_residual(f, d, "Z", "T", f["kappaT"] * f["Yv"])


def _id_mixed_commutator(f, d):
    # [T - obar Y, Z] f = obar { (T - obar Y) f + H Z f } on coordinates
    return _commutator_residual(f, d, "B", "Z", (
        f["obar"][0] * (f["Bv"] + f["H"] * f["Zv"])))


def _id_z_vertical_rate(f, d):
    # Z(A) = obar{(obar^2 - 3A) + H^2} - (T - obar Y)H.  The last term
    # vanishes wherever H is constant (in particular on H-minimal surfaces)
    # but is required in general; it follows from the z-of-normal,
    # vertical-rate and mixed-commutator identities by direct expansion.
    ob, H = f["obar"][0], f["H"]
    return abs(d("Acurv", "Z") - ob * (ob ** 2 - 3.0 * f["Acurv"] + H ** 2)
               + d("H", "B"))


def _id_z_y_coefficient(f, d):
    return abs(d("kappaY", "Z") - f["kappaY"] ** 2 - f["kappaT"]
               - (d("H", "Y") + f["H"] ** 2))


def _id_z_t_coefficient(f, d):
    return abs(d("kappaT", "Z") - (d("H", "T") + f["kappaT"] * f["kappaY"]))


def _id_y_curvature(f, d):
    return abs(f["pbar"][1] * d("Zpbar", "Y") - f["pbar"][0] * d("Zqbar", "Y")
               - d("H", "Y"))


def _id_t_curvature(f, d):
    return abs(f["pbar"][1] * d("Zpbar", "T") - f["pbar"][0] * d("Zqbar", "T")
               - d("H", "T"))


def _id_z_frame_split(f, d):
    Zp, Zq, H = f["Zpbar"], f["Zqbar"], f["H"]
    lhs1 = Zp * f["X1v"] + Zq * f["X2v"]
    lhs2 = Zq * f["X1v"] - Zp * f["X2v"]
    return np.maximum(np.max(abs(lhs1 - H * f["Zv"]), axis=0),
                      np.max(abs(lhs2 + H * f["Yv"]), axis=0))


def _id_second_z(f, d):
    lhs = f["pbar"][0] * d("Zpbar", "Z") + f["pbar"][1] * d("Zqbar", "Z")
    return abs(lhs + f["Zpbar"] ** 2 + f["Zqbar"] ** 2)


# name -> (residual, the directions in {Z, Y, T, B} that it differentiates
# along); identity_battery evaluates the stencil points of exactly these
_IDENTITIES = {
    "unit-gradient": (_id_unit_gradient, ""),
    "z-of-normal": (_id_z_of_normal, ""),
    "curvature-squared": (_id_curvature_squared, ""),
    "frame-curvature": (_id_frame_curvature, ""),
    "y-antisymmetry": (_id_y_antisymmetry, ""),
    "z-log-area": (_id_z_log_area, ""),
    "y-omega": (_id_y_omega, ""),
    "z-omega": (_id_z_omega, ""),
    "vertical-rate": (_id_vertical_rate, ""),
    "perp-forms": (_id_perp_forms, ""),
    "wedge-curvature": (_id_wedge_curvature, ""),
    "zy-commutator": (_id_zy_commutator, "ZY"),
    "zt-commutator": (_id_zt_commutator, "ZT"),
    "mixed-commutator": (_id_mixed_commutator, "ZB"),
    "z-vertical-rate": (_id_z_vertical_rate, "ZB"),
    "z-y-coefficient": (_id_z_y_coefficient, "ZY"),
    "z-t-coefficient": (_id_z_t_coefficient, "ZT"),
    "y-curvature": (_id_y_curvature, "Y"),
    "t-curvature": (_id_t_curvature, "T"),
    "z-frame-split": (_id_z_frame_split, ""),
    "second-z": (_id_second_z, "Z"),
}

IDENTITY_IDS = sorted(_IDENTITIES)


def identity_battery(S, points, ids=None, h=None):
    """Residuals of the pointwise identities on an H^1 level set.

    points: ambient points on the surface, (n, dim) or an iterable of them.
    Returns a list of {identity, point, residual} records; residuals are
    worst-case over the sub-checks of each identity.  levelset_fields runs
    twice, each time on a batch: once at all the points, then once at all
    the distinct stencil points g +- h v, for the directions v in
    {Z, Y, T, B} (frozen at each g) that the requested identities declare.
    Each identity is then evaluated once over all the points; every
    residual is the one per-point evaluation gives, and an identity that
    differentiates along a direction it does not declare raises ValueError.
    """
    ids = list(ids) if ids else IDENTITY_IDS
    unknown = [i for i in ids if i not in _IDENTITIES]
    if unknown:
        raise ValueError("unknown identities: %s" % ", ".join(unknown))
    pts = np.array(list(points), dtype=float)
    if not len(pts):
        return []
    F = levelset_fields(S, pts)
    dirs = [D for D in "ZYTB" if any(D in _IDENTITIES[i][1] for i in ids)]
    if dirs:
        vecs = np.stack([F[D + "v"] for D in dirs], axis=1)
        diff = _stencil_fields(S, pts, h, vecs)[1]
    f = _points_last(F)
    residuals = {}
    for ident in ids:
        fn, declared = _IDENTITIES[ident]

        def d(q, D):
            # along the direction D frozen at each point
            if D not in declared:
                raise ValueError("identity %r differentiates along %s, "
                                 "which it does not declare" % (ident, D))
            return diff(q, dirs.index(D))

        residuals[ident] = fn(f, d).tolist()
    return [{"identity": ident, "point": g, "residual": residuals[ident][k]}
            for k, g in enumerate(pts) for ident in ids]


# ---------------------------------------------------------------------------
# grid report


def curvature_grid(P, nu=None, nv=None):
    """Frame and curvature data on the patch grid, as flat arrays for reports.

    Returns dict of columns: u, v, p, q, omega, W, H_param, A, obar, the
    boolean characteristic (nodes inside the band, where H_param, A and
    H_levelset are NaN and obar is infinite) and, when the patch has a
    level-set companion, H_levelset for cross-checking.
    """
    u0, u1, v0, v1 = P.domain
    nu = nu or P.grid[0]
    nv = nv or P.grid[1]
    U = np.linspace(u0, u1, int(nu))
    V = np.linspace(v0, v1, int(nv))
    UU, VV = np.meshgrid(U, V, indexing="ij")
    zz = zy_second(P, None, UU, VV)
    W, om = zz["W"].ravel(), zz["omega"].ravel()
    cols = {"u": UU.ravel(), "v": VV.ravel(),
            "p": zz["p"].ravel(), "q": zz["q"].ravel(), "omega": om, "W": W,
            "H_param": zz["H"].ravel(), "A": (-zz["Zobar"]).ravel(),
            "obar": zz["obar"].ravel(),
            "characteristic": _characteristic_band(W, om)}
    if P.levelset is not None:
        Hl = np.empty(UU.size)
        pts = P.point(UU, VV).reshape(3, -1)
        for k in range(UU.size):
            try:
                Hl[k] = hmc_levelset(P.levelset, pts[:, k])
            except CharacteristicPointError:
                Hl[k] = np.nan
        cols["H_levelset"] = Hl
    return cols
