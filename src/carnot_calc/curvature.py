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

from .fields import ANALYTIC, CBRT_EPS, horizontal_jet
from .groups import frame_at, frame_jacobian
from .surfaces import (CharacteristicPointError, burgers, frame_levelset,
                       zy_second)

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
    jet = horizontal_jet(S.group, S.phi, np.asarray(g, dtype=float),
                         engine=engine)
    gradH = jet["gradH"]
    W = float(np.sqrt(np.sum(gradH ** 2)))
    frame_levelset(S, g, engine=engine)  # characteristic guard
    H = (W ** 2 * jet["lapH"] - jet["infH"]) / W ** 3
    return CurvatureReport(H, "levelset", W,
                           {"lapH": float(jet["lapH"]),
                            "infH": float(jet["infH"]), "gradH_norm": W})


def levelset_fields(S, g):
    """Exact frame/curvature data of a level set at g, from two jets of phi.

    Returns values and ambient coordinate gradients of p_i, omega_s, W and
    their normalizations, the frame vectors, and (on H^1) the tangential
    derivatives Z/Y/T of pbar, qbar, obar plus curvature H and the vertical
    rate A = -Z(obar).  Everything here is exact given exact phi callbacks;
    only quantities needing three derivatives of phi require an outer finite
    difference on top (see directional_fd).
    """
    G = S.group
    g = np.asarray(g, dtype=float)
    ph = S.phi.jet(g, order=2)
    grad = np.asarray(ph.g, dtype=float)
    hess = np.asarray(ph.h, dtype=float)
    A = frame_at(G, g)
    J = frame_jacobian(G, g)
    comps = A.T @ grad
    # dcomps[l, i] = d/dg_l of <N, frame_i>
    dcomps = np.einsum("lki,k->li", J, grad) + hess @ A
    m = G.m
    p, om = comps[:m], comps[m:]
    dp, dom = dcomps[:, :m], dcomps[:, m:]
    W = float(np.sqrt(np.sum(p ** 2)))
    nrm = float(np.sqrt(W ** 2 + np.sum(om ** 2)))
    out = {"g": g, "A": A, "p": p, "om": om, "dp": dp, "dom": dom,
           "W": W, "normN": nrm}
    if W <= 1e-8 * max(1.0, nrm):
        raise CharacteristicPointError("characteristic point at %s" % (g,))
    dW = dp @ p / W
    pbar, obar = p / W, om / W
    dpbar = dp / W - np.outer(dW, p) / W ** 2
    dobar = dom / W - np.outer(dW, om) / W ** 2
    # canonical curvature sum_i X_i(pbar_i), exact
    H = float(sum(A[:, i] @ dpbar[:, i] for i in range(m)))
    out.update({"dW": dW, "pbar": pbar, "obar": obar,
                "dpbar": dpbar, "dobar": dobar, "H": H})
    if G.is_heisenberg and G.dim == 3:
        X1, X2, T = A[:, 0], A[:, 1], A[:, 2]
        Zv = pbar[1] * X1 - pbar[0] * X2
        Yv = pbar[0] * X1 + pbar[1] * X2
        der = {}
        for nm, vec in (("X1", X1), ("X2", X2), ("T", T), ("Z", Zv), ("Y", Yv)):
            der[nm + "pbar"] = float(vec @ dpbar[:, 0])
            der[nm + "qbar"] = float(vec @ dpbar[:, 1])
            der[nm + "obar"] = float(vec @ dobar[:, 0])
            der[nm + "om"] = float(vec @ dom[:, 0])
            der[nm + "W"] = float(vec @ dW)
            der[nm + "p"] = float(vec @ dp[:, 0])
            der[nm + "q"] = float(vec @ dp[:, 1])
        out.update(der)
        out.update({"X1v": X1, "X2v": X2, "Tv": T, "Zv": Zv, "Yv": Yv,
                    "Acurv": -der["Zobar"],
                    "kappaY": pbar[1] * der["Ypbar"] - pbar[0] * der["Yqbar"],
                    "kappaT": pbar[1] * der["Tpbar"] - pbar[0] * der["Tqbar"],
                    "Zom": der["Zom"], "Yom": der["Yom"], "Tom": der["Tom"]})
    return out


def directional_fd(fn, g, vec, h=None):
    """Central difference of a scalar field along a frozen ambient vector."""
    g = np.asarray(g, dtype=float)
    vec = np.asarray(vec, dtype=float)
    if h is None:
        h = CBRT_EPS * max(1.0, float(np.max(np.abs(g))))
    return (fn(g + h * vec) - fn(g - h * vec)) / (2.0 * h)


def hmc_divergence(S, g, h=None):
    """Curvature as the horizontal divergence sum_i X_i(pbar_i).

    The unit fields pbar_i are evaluated exactly (first derivatives of phi
    only); the outer X_i derivatives are central differences along the frame
    columns frozen at g.  Independent of the second-derivative route.
    """
    G = S.group
    g = np.asarray(g, dtype=float)
    fr = frame_levelset(S, g)  # characteristic guard
    A = frame_at(G, g)

    def pbar_at(i):
        def field(gp):
            ph = S.phi.jet(gp, order=1)
            comps = frame_at(G, gp).T @ np.asarray(ph.g, dtype=float)
            p = comps[: G.m]
            return p[i] / np.sqrt(np.sum(p ** 2))
        return field

    H = sum(directional_fd(pbar_at(i), g, A[:, i], h=h) for i in range(G.m))
    return CurvatureReport(H, "divergence", fr.W)


def hmc_param(P, uv):
    """Curvature qbar Z(pbar) - pbar Z(qbar) on a patch (exact jets)."""
    u, v = float(uv[0]), float(uv[1])
    zz = zy_second(P, None, u, v)
    return CurvatureReport(zz["H"], "param", zz["W"],
                           {"Zpbar": float(zz["Zpbar"]),
                            "Zqbar": float(zz["Zqbar"])})


def hmc_pauls(S, g, eps_list=(1e-2, 1e-3, 1e-4), h=None):
    """Riemannian approximating curvatures H_eps and their extrapolation.

    H_eps = X1(a pbar) + X2(a qbar) + eps T(a obar) with
    a = W / sqrt(W^2 + eps om^2); H_eps -> H at rate O(eps).  Returns a dict
    with the H_eps values, the exact-route H, and a Richardson extrapolation
    from the three smallest eps values.
    """
    G = S.group
    if not (G.is_heisenberg and G.dim == 3):
        raise ValueError("the approximation scheme is set up on H^1")
    g = np.asarray(g, dtype=float)
    A = frame_at(G, g)
    eps_list = sorted(float(e) for e in eps_list)

    def comp_field(i, eps):
        def field(gp):
            ph = S.phi.jet(gp, order=1)
            comps = frame_at(G, gp).T @ np.asarray(ph.g, dtype=float)
            p, om = comps[:2], comps[2]
            W2 = np.sum(p ** 2)
            denom = np.sqrt(W2 + eps * om ** 2)
            return (p[i] if i < 2 else om) / denom
        return field

    values = []
    for eps in eps_list:
        He = (directional_fd(comp_field(0, eps), g, A[:, 0], h=h)
              + directional_fd(comp_field(1, eps), g, A[:, 1], h=h)
              + eps * directional_fd(comp_field(2, eps), g, A[:, 2], h=h))
        values.append(float(He))
    exact = float(hmc_levelset(S, g))
    small = sorted(zip(eps_list, values))[:3]
    extrapolated = 0.0
    for i, (ei, hi) in enumerate(small):
        li = 1.0
        for j, (ej, _) in enumerate(small):
            if j != i:
                li *= ej / (ej - ei)
        extrapolated += hi * li
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
            bs = G.b_horizontal(s)
            c += (bs @ pbar) * obar[s]
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


def pseudo_hermitian_check(S, point, h=None):
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
        return pseudo_hermitian_check(P.levelset, g, h=h)
    G = S.group
    if not (G.is_heisenberg and G.dim == 3):
        raise ValueError("this check is set up on H^1")
    g = np.asarray(point, dtype=float)

    def coeffs_e1(gp):
        f = levelset_fields(S, gp)
        return np.array([f["pbar"][1], -f["pbar"][0]])

    def coeffs_e2(gp):
        f = levelset_fields(S, gp)
        return np.array([f["pbar"][0], f["pbar"][1]])

    basis = [lambda gp: np.array([1.0, 0.0]), lambda gp: np.array([0.0, 1.0])]

    def vec_of(coeff_fn, gp):
        A = frame_at(G, gp)
        c = coeff_fn(gp)
        return A[:, 0] * c[0] + A[:, 1] * c[1]

    def deriv(coeff_fn_along, scalar_fn, gp):
        # directional derivative of scalar_fn along the field coeff_fn_along
        return directional_fd(scalar_fn, gp, vec_of(coeff_fn_along, gp), h=h)

    def bracket_h(Uc, Vc, gp):
        # horizontal part of [U, V] for horizontal-coefficient fields:
        # coefficients U(v_k) - V(u_k)
        out = np.empty(2)
        for k in range(2):
            out[k] = (deriv(Uc, lambda q: Vc(q)[k], gp)
                      - deriv(Vc, lambda q: Uc(q)[k], gp))
        return out

    def inner(Uc, Vc, gp):
        return float(Uc(gp) @ Vc(gp))

    lhs = np.empty(2)
    for k, Ek in enumerate(basis):
        term = (deriv(coeffs_e1, lambda q: inner(coeffs_e1, Ek, q), g)
                + deriv(coeffs_e1, lambda q: inner(coeffs_e1, Ek, q), g)
                - deriv(Ek, lambda q: inner(coeffs_e1, coeffs_e1, q), g)
                - inner(coeffs_e1, lambda q: bracket_h(coeffs_e1, Ek, q), g)
                - inner(coeffs_e1, lambda q: bracket_h(coeffs_e1, Ek, q), g)
                + inner(Ek, lambda q: bracket_h(coeffs_e1, coeffs_e1, q), g))
        lhs[k] = 0.5 * term
    f = levelset_fields(S, g)
    rhs = -f["H"] * np.array([f["pbar"][0], f["pbar"][1]])
    return {"lhs": lhs, "rhs": rhs,
            "residual": float(np.max(np.abs(lhs - rhs)))}


# ---------------------------------------------------------------------------
# pointwise identity battery (H^1 level sets)
#
# Inner quantities (frame, curvature, first tangential derivatives) are exact
# from jets of phi; each outermost derivative is one central finite
# difference along a frozen direction.


def _fd_field(S, key):
    """The exact field g -> levelset_fields(S, g)[key] as a plain callable."""
    def field(gp):
        return levelset_fields(S, gp)[key]
    return field


def _id_unit_gradient(S, g, fd):
    f = levelset_fields(S, g)
    return max(abs(f["pbar"][0] * f[D + "pbar"] + f["pbar"][1] * f[D + "qbar"])
               for D in ("Z", "Y", "T"))


def _id_z_of_normal(S, g, fd):
    f = levelset_fields(S, g)
    return max(abs(f["Zpbar"] - f["pbar"][1] * f["H"]),
               abs(f["Zqbar"] + f["pbar"][0] * f["H"]))


def _id_curvature_squared(S, g, fd):
    f = levelset_fields(S, g)
    return abs(f["Zpbar"] ** 2 + f["Zqbar"] ** 2 - f["H"] ** 2)


def _id_frame_curvature(S, g, fd):
    f = levelset_fields(S, g)
    return abs(f["pbar"][1] * f["Zpbar"] - f["pbar"][0] * f["Zqbar"] - f["H"])


def _id_y_antisymmetry(S, g, fd):
    f = levelset_fields(S, g)
    return abs(f["kappaY"] - (f["X2pbar"] - f["X1qbar"]))


def _id_z_log_area(S, g, fd):
    f = levelset_fields(S, g)
    return abs(f["ZW"] / f["W"] - (f["kappaY"] + f["obar"][0]))


def _id_y_omega(S, g, fd):
    f = levelset_fields(S, g)
    return abs(f["Yom"] - f["TW"])


def _id_z_omega(S, g, fd):
    f = levelset_fields(S, g)
    return abs(f["Zom"] / f["W"] - f["kappaT"])


def _id_vertical_rate(S, g, fd):
    f = levelset_fields(S, g)
    ob = f["obar"][0]
    rhs = (f["pbar"][0] * (f["Tqbar"] - ob * f["Yqbar"])
           - f["pbar"][1] * (f["Tpbar"] - ob * f["Ypbar"]) + ob ** 2)
    return abs(f["Acurv"] - rhs)


def _id_perp_forms(S, g, fd):
    f = levelset_fields(S, g)
    pairs = (("Y", "T"), ("Y", "Z"), ("T", "Z"))
    return max(abs(f[a + "qbar"] * f[b + "pbar"] - f[a + "pbar"] * f[b + "qbar"])
               for a, b in pairs)


def _id_wedge_curvature(S, g, fd):
    f = levelset_fields(S, g)
    pb, qb = f["pbar"]
    val = (qb ** 2 * f["X1pbar"] - pb * qb * (f["X2pbar"] + f["X1qbar"])
           + pb ** 2 * f["X2qbar"])
    return abs(val - f["H"])


def _commutator_residual(S, g, fd, first, second, rhs_fn):
    """max over coordinate test functions f of |[first,second]f - rhs(f)|.

    first/second are direction keys; the inner derivative of a coordinate is
    the corresponding component of the (exact) direction field, the outer one
    is a finite difference along the frozen outer direction.
    """
    f0 = levelset_fields(S, g)
    res = 0.0
    for comp in range(3):
        def inner_second(gp, c=comp):
            return levelset_fields(S, gp)[second + "v"][c]

        def inner_first(gp, c=comp):
            return levelset_fields(S, gp)[first + "v"][c]

        lhs = (fd(inner_second, g, f0[first + "v"])
               - fd(inner_first, g, f0[second + "v"]))
        res = max(res, abs(lhs - rhs_fn(f0, comp)))
    return res


def _id_zy_commutator(S, g, fd):
    def rhs(f, c):
        return (f["Tv"][c] + f["H"] * f["Zv"][c] + f["kappaY"] * f["Yv"][c])
    return _commutator_residual(S, g, fd, "Z", "Y", rhs)


def _id_zt_commutator(S, g, fd):
    def rhs(f, c):
        return f["kappaT"] * f["Yv"][c]
    return _commutator_residual(S, g, fd, "Z", "T", rhs)


def _id_mixed_commutator(S, g, fd):
    # [T - obar Y, Z] f = obar { (T - obar Y) f + H Z f } on coordinates
    f0 = levelset_fields(S, g)
    Bv = f0["Tv"] - f0["obar"][0] * f0["Yv"]
    res = 0.0
    for comp in range(3):
        def Zcomp(gp, c=comp):
            return levelset_fields(S, gp)["Zv"][c]

        def Bcomp(gp, c=comp):
            f = levelset_fields(S, gp)
            return f["Tv"][c] - f["obar"][0] * f["Yv"][c]

        lhs = fd(Zcomp, g, Bv) - fd(Bcomp, g, f0["Zv"])
        rhs = f0["obar"][0] * (Bv[comp] + f0["H"] * f0["Zv"][comp])
        res = max(res, abs(lhs - rhs))
    return res


def _id_z_vertical_rate(S, g, fd):
    # Z(A) = obar{(obar^2 - 3A) + H^2} - (T - obar Y)H.  The last term
    # vanishes wherever H is constant (in particular on H-minimal surfaces)
    # but is required in general; it follows from the z-of-normal,
    # vertical-rate and mixed-commutator identities by direct expansion.
    f = levelset_fields(S, g)
    ZA = fd(_fd_field(S, "Acurv"), g, f["Zv"])
    BH = fd(_fd_field(S, "H"), g, f["Tv"] - f["obar"][0] * f["Yv"])
    ob = f["obar"][0]
    return abs(ZA - ob * (ob ** 2 - 3.0 * f["Acurv"] + f["H"] ** 2) + BH)


def _id_z_y_coefficient(S, g, fd):
    f = levelset_fields(S, g)
    Zk = fd(_fd_field(S, "kappaY"), g, f["Zv"])
    YH = fd(_fd_field(S, "H"), g, f["Yv"])
    return abs(Zk - f["kappaY"] ** 2 - f["kappaT"] - (YH + f["H"] ** 2))


def _id_z_t_coefficient(S, g, fd):
    f = levelset_fields(S, g)
    Zk = fd(_fd_field(S, "kappaT"), g, f["Zv"])
    TH = fd(_fd_field(S, "H"), g, f["Tv"])
    return abs(Zk - (TH + f["kappaT"] * f["kappaY"]))


def _id_y_curvature(S, g, fd):
    f = levelset_fields(S, g)
    YZp = fd(_fd_field(S, "Zpbar"), g, f["Yv"])
    YZq = fd(_fd_field(S, "Zqbar"), g, f["Yv"])
    YH = fd(_fd_field(S, "H"), g, f["Yv"])
    return abs(f["pbar"][1] * YZp - f["pbar"][0] * YZq - YH)


def _id_t_curvature(S, g, fd):
    f = levelset_fields(S, g)
    TZp = fd(_fd_field(S, "Zpbar"), g, f["Tv"])
    TZq = fd(_fd_field(S, "Zqbar"), g, f["Tv"])
    TH = fd(_fd_field(S, "H"), g, f["Tv"])
    return abs(f["pbar"][1] * TZp - f["pbar"][0] * TZq - TH)


def _id_z_frame_split(S, g, fd):
    f = levelset_fields(S, g)
    res = 0.0
    for c in range(3):
        lhs1 = f["Zpbar"] * f["X1v"][c] + f["Zqbar"] * f["X2v"][c]
        lhs2 = f["Zqbar"] * f["X1v"][c] - f["Zpbar"] * f["X2v"][c]
        res = max(res, abs(lhs1 - f["H"] * f["Zv"][c]),
                  abs(lhs2 + f["H"] * f["Yv"][c]))
    return res


def _id_second_z(S, g, fd):
    f = levelset_fields(S, g)
    ZZp = fd(_fd_field(S, "Zpbar"), g, f["Zv"])
    ZZq = fd(_fd_field(S, "Zqbar"), g, f["Zv"])
    lhs = f["pbar"][0] * ZZp + f["pbar"][1] * ZZq
    return abs(lhs + f["Zpbar"] ** 2 + f["Zqbar"] ** 2)


_IDENTITIES = {
    "unit-gradient": _id_unit_gradient,
    "z-of-normal": _id_z_of_normal,
    "curvature-squared": _id_curvature_squared,
    "frame-curvature": _id_frame_curvature,
    "y-antisymmetry": _id_y_antisymmetry,
    "z-log-area": _id_z_log_area,
    "y-omega": _id_y_omega,
    "z-omega": _id_z_omega,
    "vertical-rate": _id_vertical_rate,
    "perp-forms": _id_perp_forms,
    "wedge-curvature": _id_wedge_curvature,
    "zy-commutator": _id_zy_commutator,
    "zt-commutator": _id_zt_commutator,
    "mixed-commutator": _id_mixed_commutator,
    "z-vertical-rate": _id_z_vertical_rate,
    "z-y-coefficient": _id_z_y_coefficient,
    "z-t-coefficient": _id_z_t_coefficient,
    "y-curvature": _id_y_curvature,
    "t-curvature": _id_t_curvature,
    "z-frame-split": _id_z_frame_split,
    "second-z": _id_second_z,
}

IDENTITY_IDS = sorted(_IDENTITIES)


def identity_battery(S, points, ids=None, h=None):
    """Residuals of the pointwise identities on an H^1 level set.

    points: iterable of ambient points on the surface.  Returns a list of
    {identity, point, residual} records; residuals are worst-case over the
    sub-checks of each identity.
    """
    ids = list(ids) if ids else IDENTITY_IDS
    unknown = [i for i in ids if i not in _IDENTITIES]
    if unknown:
        raise ValueError("unknown identities: %s" % ", ".join(unknown))

    def fd(fn, g, vec):
        return directional_fd(fn, g, vec, h=h)

    records = []
    for g in points:
        g = np.asarray(g, dtype=float)
        for ident in ids:
            res = _IDENTITIES[ident](S, g, fd)
            records.append({"identity": ident, "point": g,
                            "residual": float(res)})
    return records


# ---------------------------------------------------------------------------
# grid report


def curvature_grid(P, nu=None, nv=None, with_levelset=True):
    """Frame and curvature data on the patch grid, as flat arrays for reports.

    Returns dict of columns: u, v, p, q, omega, W, H_param, A, obar and,
    when the patch has a level-set companion, H_levelset for cross-checking.
    """
    u0, u1, v0, v1 = P.domain
    nu = nu or P.grid[0]
    nv = nv or P.grid[1]
    U = np.linspace(u0, u1, int(nu))
    V = np.linspace(v0, v1, int(nv))
    UU, VV = np.meshgrid(U, V, indexing="ij")
    zz = zy_second(P, None, UU, VV)
    cols = {"u": UU.ravel(), "v": VV.ravel(),
            "p": zz["p"].ravel(), "q": zz["q"].ravel(),
            "omega": zz["omega"].ravel(), "W": zz["W"].ravel(),
            "H_param": zz["H"].ravel(), "A": (-zz["Zobar"]).ravel(),
            "obar": zz["obar"].ravel()}
    if with_levelset and P.levelset is not None:
        Hl = np.empty(UU.size)
        pts = P.point(UU, VV).reshape(3, -1)
        for k in range(UU.size):
            try:
                Hl[k] = hmc_levelset(P.levelset, pts[:, k])
            except CharacteristicPointError:
                Hl[k] = np.nan
        cols["H_levelset"] = Hl
    return cols
