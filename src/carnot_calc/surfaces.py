"""Hypersurfaces in a Carnot group: frames, tangential derivatives, catalogs.

A surface can be carried as a level set {phi = 0} (any supported group) or as
a parametric patch over a rectangle (first Heisenberg group only, where the
Z/Y tangential calculus below applies).  Catalog surfaces come with both
representations, with consistent orientations.
"""

import functools
import json

import numpy as np

from .groups import _dilation_factor, build_group, frame_at
from .fields import (ANALYTIC, Jet, Partials, ScalarField, _coordinate_jet,
                     _poly_sum, _poly_terms, _zeros, build_field, jet_partial,
                     jet_sqrt, poly_field, seed_jets)

__all__ = [
    "CharacteristicPointError", "DegenerateSurfaceError", "SurfaceFrame",
    "LevelSetSurface", "ParamPatch", "IntrinsicGraph", "frame_levelset",
    "frame_param", "zy_derivative", "zy_second", "tangential",
    "tangential_second", "patch_fields_jets",
    "restrict_to_patch", "intrinsic_to_patch", "burgers",
    "horizontal_plane_residual", "build_surface", "CatalogSurface",
    "catalog_ids", "dilate_patch", "left_translate_patch", "dilate_levelset",
    "translate_levelset",
]

H1 = build_group("h1")


class CharacteristicPointError(ValueError):
    """Raised when normalized frame data is requested inside the W ~ 0 band."""


class DegenerateSurfaceError(ValueError):
    """Raised when the Riemannian normal itself (nearly) vanishes."""


def characteristic_tolerance(normN):
    """Width of the characteristic band W <= 1e-8 max(1, |N|) (array-safe)."""
    return 1e-8 * np.maximum(1.0, normN)


def _characteristic_band(W, omega):
    """Boolean array of the nodes inside the characteristic band, from the
    arrays W and omega of a patch frame."""
    return W <= characteristic_tolerance(np.sqrt(W ** 2 + omega ** 2))


class SurfaceFrame:
    """Frame data of an oriented hypersurface at one point.

    p holds the horizontal components <N, X_j> and omega the vertical ones
    <N, T_s> (layers >= 2, flattened), so N = sum p_j X_j + sum om_s T_s and
    W = |p|.  Normalized fields pbar/obar are None at characteristic points.
    """

    def __init__(self, group, point, p, omega):
        self.group = group
        self.point = np.asarray(point, dtype=float)
        self.p = np.atleast_1d(np.asarray(p, dtype=float))
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.W = float(np.sqrt(np.sum(self.p ** 2)))
        self.normN = float(np.sqrt(self.W ** 2 + np.sum(self.omega ** 2)))
        if self.W > characteristic_tolerance(self.normN):
            self.pbar = self.p / self.W
            self.obar = self.omega / self.W
        else:
            self.pbar = None
            self.obar = None

    @property
    def is_characteristic(self):
        return self.pbar is None

    def require_noncharacteristic(self):
        if self.is_characteristic:
            raise _characteristic_point(self.W, self.point)

    # ambient vectors in coordinate components

    def frame_matrix(self):
        return frame_at(self.group, self.point)

    def normal_vector(self):
        comps = np.concatenate([self.p, self.omega])
        return self.frame_matrix() @ comps

    def nuH_vector(self):
        self.require_noncharacteristic()
        A = self.frame_matrix()
        return A[:, : self.group.m] @ self.pbar

    def Z_vector(self):
        """(nu_H)-perp = qbar X1 - pbar X2 (H^1 only)."""
        self._h1_only()
        self.require_noncharacteristic()
        A = self.frame_matrix()
        return self.pbar[1] * A[:, 0] - self.pbar[0] * A[:, 1]

    def Y_vector(self):
        self._h1_only()
        return self.nuH_vector()

    def _h1_only(self):
        if self.group.m != 2 or self.group.dim != 3:
            raise ValueError("Z/Y vectors are specific to H^1 surfaces")


# ---------------------------------------------------------------------------
# level sets


class LevelSetSurface:
    """Hypersurface {phi = 0} oriented by the Riemannian gradient of phi."""

    def __init__(self, group, phi, name=None):
        self.group = group
        self.phi = phi if isinstance(phi, ScalarField) else build_field(group, phi)
        self.name = name or ("levelset(%s)" % self.phi.name)


def frame_levelset(S, g, engine=ANALYTIC, normalized=True):
    """Surface frame of a level set at the point g.

    Raises DegenerateSurfaceError when |grad phi| ~ 0, and (for normalized
    output) CharacteristicPointError inside the characteristic band.
    """
    g = np.asarray(g, dtype=float)
    comps = frame_at(S.group, g).T @ _coordinate_jet(S.phi, g, 1, engine).g
    return _checked_frame(S.group, g, comps, normalized)


def _checked_frame(G, g, comps, normalized=True):
    """SurfaceFrame from the frame components <grad phi, X_j>, <grad phi, T_s>
    at g, with the degenerate-normal and (if normalized) characteristic
    checks of frame_levelset."""
    fr = SurfaceFrame(G, g, comps[: G.m], comps[G.m:])
    scale = max(1.0, float(np.max(np.abs(g))))
    if fr.normN <= 1e-12 * scale:
        raise _vanishing_gradient(g)
    if normalized:
        fr.require_noncharacteristic()
    return fr


def _require_frames(g, W, normN):
    """The checks of _checked_frame as masks over a batch of points g
    (n, dim) with arrays W and normN (n,): raise for the first failing
    point what _checked_frame raises for it alone."""
    scale = np.maximum(1.0, np.max(np.abs(g), axis=-1))
    degenerate = normN <= 1e-12 * scale
    failing = degenerate | ~(W > characteristic_tolerance(normN))
    if failing.any():
        k = int(np.argmax(failing))
        if degenerate[k]:
            raise _vanishing_gradient(g[k])
        raise _characteristic_point(W[k], g[k])


def _vanishing_gradient(g):
    return DegenerateSurfaceError("grad phi vanishes at %s" % (g,))


def _characteristic_point(W, g):
    return CharacteristicPointError(
        "characteristic point (W = %.3e below tolerance) at %s" % (W, g))


# ---------------------------------------------------------------------------
# parametric patches (H^1)


def _as_jet(out, like):
    """Lift a constant returned by a component callable to a jet like `like`."""
    if isinstance(out, Jet):
        return out
    return Jet(out + 0.0 * like.v,
               *_zeros(len(like.g), 1 if like.h is None else 2))


class ParamPatch:
    """Parametric surface theta(u, v) = (x, y, t) over a rectangle, in H^1.

    Component callables must be jet-safe (plain arithmetic in their
    arguments) for the analytic engine; arbitrary callables work with the
    finite-difference engine.
    """

    def __init__(self, group, x, y, t, domain, grid=(128, 128), name="patch",
                 levelset=None):
        if not (group.is_heisenberg and group.dim == 3):
            raise ValueError("parametric patches are implemented on H^1")
        self.group = group
        self.x, self.y, self.t = x, y, t
        self.domain = tuple(float(d) for d in domain)
        if self.domain[1] <= self.domain[0] or self.domain[3] <= self.domain[2]:
            raise ValueError("domain rectangle is empty")
        self.grid = (int(grid[0]), int(grid[1]))
        self.name = name
        self.levelset = levelset

    def components(self, u, v):
        """The components (x, y, t) at (u, v), as the callables return them;
        the frame engine evaluates the three together."""
        return self.x(u, v), self.y(u, v), self.t(u, v)

    def point(self, u, v):
        x, y, t = self.components(u, v)
        x = x + 0.0 * np.asarray(v, dtype=float)
        y = y + 0.0 * np.asarray(u, dtype=float)
        t = t + 0.0 * np.asarray(u, dtype=float)
        return np.array([x, y, t]) if np.ndim(x) == 0 else np.stack([x, y, t])

    def jets(self, u, v, order=2):
        uj, vj = seed_jets((u, v), order=order)
        return [_as_jet(c, uj) for c in self.components(uj, vj)]


class _MovedPatch(ParamPatch):
    """The image of the patch P under a pointwise move: the components at
    (u, v) are move(u, v, x, y, t) of P's components there, evaluated once
    per call; the x, y and t callables, read only by frame_param's FD
    route, each evaluate all three."""

    def __init__(self, P, move, name):
        self.base, self.move = P, move
        super().__init__(P.group, *(functools.partial(self._component, i)
                                    for i in range(3)),
                         P.domain, P.grid, name=name)

    def components(self, u, v):
        return self.move(u, v, *self.base.components(u, v))

    def _component(self, i, u, v):
        return self.components(u, v)[i]


def restrict_to_patch(P, field):
    """Ambient scalar (ScalarField or callable) as a surface function f(u, v)."""
    fn = field.fn if isinstance(field, ScalarField) else field

    def f(u, v):
        return fn(*P.components(u, v))
    return f


def _fd_patch_jets(P, u, v, h):
    """Order-1 component jets via central differences (scalar points only)."""
    out = []
    for f in (P.x, P.y, P.t):
        f0 = float(f(u, v))
        du = (float(f(u + h, v)) - float(f(u - h, v))) / (2 * h)
        dv = (float(f(u, v + h)) - float(f(u, v - h))) / (2 * h)
        out.append(Jet(f0, Partials((du, dv))))
    return out


def _normal_components(x, y, dx, dy, dt):
    """p, q, omega, W of the normal theta_u ^ theta_v = p X1 + q X2 + omega T.

    x, y are component values and dx, dy, dt the (u, v)-partials of x, y, t,
    all plain arrays or all first-order jets.
    """
    (x_u, x_v), (y_u, y_v), (t_u, t_v) = dx, dy, dt
    omega = x_u * y_v - x_v * y_u
    p = y_u * t_v - y_v * t_u - 0.5 * (y * omega)
    q = x_v * t_u - x_u * t_v + 0.5 * (x * omega)
    return p, q, omega, jet_sqrt(p * p + q * q)


def _gamma_beta_det(x, y, dx, dy, dt, pbar, qbar):
    """gamma_u, gamma_v, beta_u, beta_v and det, the coefficients of
    theta_u = beta_u Z + gamma_u B (same with v) and their determinant;
    plain arrays or first-order jets, as for _normal_components."""
    (x_u, x_v), (y_u, y_v), (t_u, t_v) = dx, dy, dt
    gamma_u = t_u + 0.5 * (y * x_u - x * y_u)
    gamma_v = t_v + 0.5 * (y * x_v - x * y_v)
    beta_u = x_u * qbar - y_u * pbar
    beta_v = x_v * qbar - y_v * pbar
    det = beta_u * gamma_v - beta_v * gamma_u
    return gamma_u, gamma_v, beta_u, beta_v, det


def _value_fields(xj, yj, tj):
    """Frame values from first-order component jets (no derivatives kept)."""
    p, q, omega, W = _normal_components(xj.v, yj.v, xj.g, yj.g, tj.g)
    return {"x": xj.v, "y": yj.v, "p": p, "q": q, "omega": omega, "W": W}


def frame_param(P, uv, engine=ANALYTIC, normalized=True):
    """Surface frame from the parametric normal theta_u ^ theta_v.

    The finite-difference engine runs the same normal formulas on central
    differences of the components, an independent check of the jets.
    """
    u, v = float(uv[0]), float(uv[1])
    if engine.mode == "analytic":
        fl = patch_fields_jets(P, u, v, order=1)
    else:
        fl = _value_fields(*_fd_patch_jets(
            P, u, v, engine.step1(np.asarray([u, v]))))
    fr = SurfaceFrame(P.group, P.point(u, v),
                      [float(fl["p"]), float(fl["q"])], [float(fl["omega"])])
    if fr.normN <= 1e-12:
        raise DegenerateSurfaceError("theta_u ^ theta_v vanishes at %r" % (uv,))
    if normalized:
        fr.require_noncharacteristic()
    return fr


def zy_derivative(P, f, uv):
    """Tangential derivatives of the surface function f at a patch point.

    Solves theta_u f = beta_u Zf + gamma_u Bf (same with v) for Zf and the
    invariant combination Bf = (T - obar Y)f, then splits Bf into the Yf/Tf
    pair of the extension of f constant along the Riemannian normal.  Zf and
    Bf do not depend on any extension.  f must be jet-safe.
    """
    frame_param(P, uv)  # raise on characteristic/degenerate
    out = zy_second(P, f, float(uv[0]), float(uv[1]))
    return {k: float(out[k]) for k in ("Zf", "Bf", "Yf", "Tf", "value")}


# -- the order-aware frame engine and nested tangential derivatives ---------


def patch_fields_jets(P, u, v, order=2):
    """Frame quantities on the patch; vectorizes over array-valued u, v.

    order=2 evaluates the components on second-order seeds and runs the
    frame formulas in first-order jet arithmetic: x, y, p, q, omega, W,
    pbar, qbar and obar are jets that know their own u- and v-derivatives
    exactly, and zy_second takes Z-derivatives from them.  beta_u, beta_v,
    gamma_u, gamma_v and det, which only the Laplacian routes
    differentiate, are plain value arrays (bit-identical to the values of
    their jets); "partials" keeps the first-order jets of the components'
    u- and v-partials, from which tangential_second rebuilds the gamma/det
    jets once per frame.  order=1 evaluates on first-order seeds and
    returns plain value arrays x, y, p, q, omega and W only, on the nodes
    (see _on_nodes) and bit-identical to the order-2 values; quadratures
    of W and omega alone (perimeter and eps-area) run on it.
    """
    if order == 1:
        return _on_nodes(_value_fields(*P.jets(u, v, order=1)), u, v)
    if order != 2:
        raise ValueError("order must be 1 or 2")
    uj, vj = seed_jets((u, v), order=2)
    xj, yj, tj = (_as_jet(c, uj) for c in P.components(uj, vj))
    x1, y1 = Jet(xj.v, xj.g), Jet(yj.v, yj.g)
    partials = tuple((jet_partial(j, 0), jet_partial(j, 1))
                     for j in (xj, yj, tj))
    # characteristic nodes (W = 0) come out as NaN; bulk callers mask them
    with np.errstate(divide="ignore", invalid="ignore"):
        p, q, omega, W = _normal_components(x1, y1, *partials)
        rW = W.reciprocal()
        pbar, qbar, obar = p * rW, q * rW, omega * rW
        gamma_u, gamma_v, beta_u, beta_v, det = _gamma_beta_det(
            x1.v, y1.v, *((d_u.v, d_v.v) for d_u, d_v in partials),
            pbar.v, qbar.v)
    return {"seeds": (uj, vj), "x": x1, "y": y1, "partials": partials,
            "p": p, "q": q, "omega": omega, "W": W, "pbar": pbar,
            "qbar": qbar, "obar": obar, "beta_u": beta_u, "beta_v": beta_v,
            "gamma_u": gamma_u, "gamma_v": gamma_v, "det": det}


def _gamma_det_jets(flds):
    """First-order jets of gamma_u, gamma_v and 1 / det on an order-2
    frame, built from its partial jets on the first call and kept in it,
    so that every Z(Zf) on one frame shares them."""
    if "gamma_det_jets" not in flds:
        gamma_u, gamma_v, _, _, det = _gamma_beta_det(
            flds["x"], flds["y"], *flds["partials"], flds["pbar"],
            flds["qbar"])
        flds["gamma_det_jets"] = gamma_u, gamma_v, det.reciprocal()
    return flds["gamma_det_jets"]


def z_apply(flds, fj):
    """Z-derivative of a quantity carried as a jet with (u, v)-gradient."""
    return (fj.g[0] * flds["gamma_v"] - fj.g[1] * flds["gamma_u"]) \
        / flds["det"]


def zy_second(P, f, u, v, order=2):
    """First and second tangential derivatives of f, exactly, on a patch.

    f(u, v) must be jet-safe to second order (or None, to get just the frame
    fields).  Returns plain arrays on the nodes of u and v (see _on_nodes):
    W, p, q, omega, pbar, qbar, obar, their Z-derivatives Zpbar, Zqbar,
    Zobar, the curvature H = qbar Z(pbar) - pbar Z(qbar) and the evaluated
    frame "flds" (the patch_fields_jets dict: jets of the normal, plain
    arrays of beta, gamma and det), plus f's derivatives from
    tangential_second(flds, f), Z2f included.
    order=1 (f None only) returns just the values of patch_fields_jets at
    order 1: x, y, p, q, omega and W.
    """
    if order != 2:
        if f is not None:
            raise ValueError("only order 2 carries tangential derivatives")
        return patch_fields_jets(P, u, v, order=order)
    # characteristic nodes divide by W = 0 and surface as NaN; callers mask
    with np.errstate(divide="ignore", invalid="ignore"):
        flds = patch_fields_jets(P, np.asarray(u, dtype=float),
                                 np.asarray(v, dtype=float))
        out = {"W": flds["W"].v, "p": flds["p"].v, "q": flds["q"].v,
               "omega": flds["omega"].v, "pbar": flds["pbar"].v,
               "qbar": flds["qbar"].v, "obar": flds["obar"].v,
               "Zpbar": z_apply(flds, flds["pbar"]),
               "Zqbar": z_apply(flds, flds["qbar"]),
               "Zobar": z_apply(flds, flds["obar"]), "flds": flds}
        out["H"] = out["qbar"] * out["Zpbar"] - out["pbar"] * out["Zqbar"]
    if f is not None:
        out.update(tangential_second(flds, f))
    return _on_nodes(out, u, v)


def _on_nodes(values, u, v):
    """The dict values with every array or number broadcast (zero-copy) to
    the node shape of u and v, and the frame "flds" passed through."""
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    return {k: x if k == "flds" or np.shape(x) == shape
            else np.broadcast_to(x, shape) for k, x in values.items()}


def _first_derivatives(flds, value, f_u, f_v, rdet):
    """value, Zf, Bf = (T - obar Y)f, Tf and Yf as plain arrays, from the
    value arrays of f and its u-, v-partials and of 1 / det, in the
    operation order of the jet route Zf = (f_u gamma_v - f_v gamma_u) / det."""
    obar = flds["obar"]
    obar = obar.v if isinstance(obar, Jet) else obar  # an order-2 frame's
    Zf = (f_u * flds["gamma_v"] - f_v * flds["gamma_u"]) * rdet
    Bf = (flds["beta_u"] * f_v - flds["beta_v"] * f_u) * rdet
    denom = 1.0 + obar ** 2
    return {"value": value, "Zf": Zf, "Bf": Bf, "Tf": Bf / denom,
            "Yf": -obar * Bf / denom}


def _tangent_frame(P, u, v):
    """The frame that tangential() reads, on first-order jets: plain
    arrays W, omega, pbar, qbar and obar on the nodes of u and v (see
    _on_nodes), and "flds", which holds the first-order seeds and the value
    arrays of obar, beta_u, beta_v, gamma_u, gamma_v and det.  pbar, qbar
    and obar come from the components' values and beta, gamma and det from
    their first partials, each by the operations of zy_second's order-2
    frame, so every value and tangential(flds, f) equals its bit for bit;
    the frame's own derivatives (Zpbar, H, ...) are not formed."""
    uj, vj = seed_jets((u, v), order=1)
    xj, yj, tj = (_as_jet(c, uj) for c in P.components(uj, vj))
    with np.errstate(divide="ignore", invalid="ignore"):
        p, q, omega, W = _normal_components(xj.v, yj.v, xj.g, yj.g, tj.g)
        rW = 1.0 / W
        pbar, qbar, obar = p * rW, q * rW, omega * rW
        gamma_u, gamma_v, beta_u, beta_v, det = _gamma_beta_det(
            xj.v, yj.v, xj.g, yj.g, tj.g, pbar, qbar)
    flds = {"seeds": (uj, vj), "obar": obar, "beta_u": beta_u,
            "beta_v": beta_v, "gamma_u": gamma_u, "gamma_v": gamma_v,
            "det": det}
    return _on_nodes({"W": W, "omega": omega, "pbar": pbar, "qbar": qbar,
                      "obar": obar, "flds": flds}, u, v)


@np.errstate(divide="ignore", invalid="ignore")
def tangential(flds, f):
    """Tangential derivatives of the surface function f on an evaluated frame.

    flds is a patch_fields_jets (order 2) dict, e.g. zy_second(...)["flds"],
    or the first-order _tangent_frame(...)["flds"], which gives the same
    values.  f is evaluated on first-order jets, so it needs to be jet-safe
    to first order only.  Returns value, Zf, Bf = (T - obar Y)f, Tf and Yf,
    all plain arrays; tangential_second adds Z2f = Z(Zf).
    """
    uj, vj = (Jet(s.v, s.g) for s in flds["seeds"])
    fj = _as_jet(f(uj, vj), uj)
    return _first_derivatives(flds, fj.v, fj.g[0], fj.g[1],
                              1.0 / flds["det"])


@np.errstate(divide="ignore", invalid="ignore")
def tangential_second(flds, f):
    """tangential(flds, f) plus Z2f = Z(Zf), for the Laplacian routes.

    f is evaluated on the frame's second-order seeds and must be jet-safe
    to second order (a first-order f raises ValueError).  The returned
    values are those of tangential(flds, f).
    """
    uj, vj = flds["seeds"]
    fj = _as_jet(f(uj, vj), uj)
    return _second_derivatives(flds, fj.v, jet_partial(fj, 0),
                               jet_partial(fj, 1))


@np.errstate(divide="ignore", invalid="ignore")
def _second_derivatives(flds, value, f_u, f_v):
    """tangential_second's dict from the value array of f (passed through)
    and the first-order jets f_u, f_v of its u- and v-partials."""
    gamma_u, gamma_v, rdet = _gamma_det_jets(flds)
    Zf_j = (f_u * gamma_v - f_v * gamma_u) * rdet
    out = _first_derivatives(flds, value, f_u.v, f_v.v, rdet.v)
    out["Z2f"] = z_apply(flds, Zf_j)
    return out


# ---------------------------------------------------------------------------
# intrinsic graphs  x = phi(u, v), theta(u, v) = (phi, u, v - u phi / 2)


class IntrinsicGraph:
    def __init__(self, phi, domain, grid=(128, 128), name="intrinsic"):
        self.phi = phi
        self.domain = tuple(float(d) for d in domain)
        self.grid = (int(grid[0]), int(grid[1]))
        self.name = name


def burgers(Gr, F, uv=None):
    """Graph derivative B_phi(F) = F_u + phi F_v of an intrinsic graph.

    With uv=None returns a callable; the callable accepts floats, arrays, or
    second-order jets (returning a first-order jet in the latter case, which
    carries the u- and v-derivatives of B_phi(F)).
    """
    def bf(u, v):
        if isinstance(u, Jet):
            Fj = _as_jet(F(u, v), u)
            phij = _as_jet(Gr.phi(u, v), u)
            if Fj.h is not None:
                return jet_partial(Fj, 0) + phij * jet_partial(Fj, 1)
            return Fj.g[0] + phij.v * Fj.g[1]
        uj, vj = seed_jets((u, v), order=2)
        res = bf(uj, vj)
        return res.v if isinstance(res, Jet) else res

    if uv is None:
        return bf
    return bf(float(uv[0]), float(uv[1]))


def _zero_like(v):
    """Zero shaped like the plain array v; a plain 0.0 for a jet, so that
    a component such as u + _zero_like(v) keeps the shape of u's seed."""
    return 0.0 if isinstance(v, Jet) else 0.0 * np.asarray(v, dtype=float)


def intrinsic_to_patch(Gr):
    """Parametric patch plus orientation-matched level set of a graph.

    The companion level set is {x - phi(y, t + xy/2) = 0}; on the surface its
    frame reproduces p = 1, q = -B_phi(phi), omega = -phi_v exactly.
    """
    phi = Gr.phi

    def x(u, v):
        return phi(u, v) + _zero_like(u) + _zero_like(v)

    def y(u, v):
        return u + _zero_like(v)

    def t(u, v):
        return v - 0.5 * u * phi(u, v)

    def Phi(xc, yc, tc):
        return xc - phi(yc, tc + 0.5 * xc * yc)

    level = LevelSetSurface(
        H1, ScalarField(H1, Phi, name=Gr.name + "-level", check=False),
        name=Gr.name + "-levelset")

    return ParamPatch(H1, x, y, t, Gr.domain, Gr.grid, name=Gr.name,
                      levelset=level)


# ---------------------------------------------------------------------------
# surface transforms (dilations, left translations)


def _dilated(lam, x, y, t):
    """Components of the dilation (x, y, t) -> (lam x, lam y, lam^2 t)."""
    return lam * x, lam * y, lam ** 2 * t


def _translated(g0, x, y, t):
    """Components of the left translation by g0 = (a, b, c) (H^1 product)."""
    a, b, c = g0
    return a + x, b + y, c + t + 0.5 * (a * y - b * x)


def dilate_patch(P, lam):
    """Image of the patch under the dilation (x, y, t) -> (lam x, lam y, lam^2 t)."""
    lam = _dilation_factor(lam)
    return _MovedPatch(P, lambda u, v, *xyt: _dilated(lam, *xyt),
                       P.name + "~dilated")


def left_translate_patch(P, g0):
    """Image of the patch under left translation by g0 (H^1 product)."""
    g0 = tuple(float(z) for z in g0)
    return _MovedPatch(P, lambda u, v, *xyt: _translated(g0, *xyt),
                       P.name + "~translated")


def dilate_levelset(S, lam):
    """Level set of phi(delta_{1/lam} g), the dilated surface (any group)."""
    lam = _dilation_factor(lam)
    G = S.group
    w = G.weights
    fn0 = S.phi.fn

    def fn(*coords):
        return fn0(*[coords[i] * lam ** (-w[i]) for i in range(G.dim)])

    return LevelSetSurface(G, ScalarField(G, fn, name=S.phi.name + "~dilated",
                                          check=False),
                           name=S.name + "~dilated")


def translate_levelset(S, g0):
    """Level set of phi(g0^{-1} g) for step-2 groups (jet-safe product)."""
    G = S.group
    if G.step > 2:
        raise ValueError("translate_levelset implemented for step-2 groups")
    g0 = np.asarray(g0, dtype=float)
    fn0 = S.phi.fn
    m, k = G.m, G.dim - G.m

    def fn(*coords):
        rel = [coords[i] - g0[i] for i in range(m)]
        for s in range(k):
            ts = coords[m + s] - g0[m + s]
            bs = G.b_horizontal(s)
            for i in range(m):
                for j in range(m):
                    if bs[i, j] != 0.0:
                        ts = ts - 0.5 * bs[i, j] * g0[i] * coords[j]
            rel.append(ts)
        return fn0(*rel)

    return LevelSetSurface(G, ScalarField(G, fn, name=S.phi.name + "~translated",
                                          check=False),
                           name=S.name + "~translated")


# ---------------------------------------------------------------------------
# horizontal planes


def horizontal_plane_residual(G, g0, g):
    """Defect of g from the horizontal plane through g0.

    The plane is the affine span g0 + <X_1(g0), ..., X_m(g0)> in exponential
    coordinates.  Since the frame matrix is the identity on the first layer,
    the horizontal coefficients of g - g0 are just x(g) - x(g0); the residual
    is the vertical remainder.  On step-2 groups this reduces to
    t_s - t_s(g0) - (1/2) sum_ij b^s_ij x_i(g0) x_j(g), where the plane also
    coincides with the coset g0 exp(V1).
    """
    g0 = np.asarray(g0, dtype=float)
    g = np.asarray(g, dtype=float)
    A0 = frame_at(G, g0)
    rel = g - g0 - A0[:, : G.m] @ (g[: G.m] - g0[: G.m])
    return rel[G.m:]


# ---------------------------------------------------------------------------
# catalog


class CatalogSurface:
    """A named surface: its parametric patch and the patch's level-set
    companion (None for a patch without one)."""

    def __init__(self, sid, patch):
        self.id = sid
        self.patch = patch
        self.levelset = patch.levelset


def _poly2(terms):
    """Two-variable polynomial (u, v) -> sum c u^i v^j, jet-safe."""
    parsed = _poly_terms(terms, 2)
    return lambda u, v: _poly_sum(parsed, (u, v),
                                  _zero_like(u) + _zero_like(v))


def _poly_patch(name, x, y, t, domain, grid, phi=None):
    """Patch theta(u, v) = (x, y, t) of two-variable term lists.

    phi, a term list in (x, y, t), gives the level-set companion
    {phi = 0}; its sign must orient grad phi along theta_u ^ theta_v.
    """
    level = None if phi is None else LevelSetSurface(
        H1, poly_field(H1, phi, name=name + "-level"), name=name)
    return ParamPatch(H1, _poly2(x), _poly2(y), _poly2(t), domain, grid,
                      name=name, levelset=level)


_NAMED_HEIGHTS = {
    "zero": [],
    "parab": [[1.0, [2, 0]], [1.0, [0, 2]]],
    "xy": [[1.0, [1, 1]]],
}
_U, _V = [[1.0, [1, 0]]], [[1.0, [0, 1]]]  # the term lists of u and v


def _tgraph(hid, domain, grid):
    """t = h(u, v) over (x, y) = (u, v), the level set of t - h."""
    if hid in _NAMED_HEIGHTS:
        terms = _NAMED_HEIGHTS[hid]
    elif hid.startswith("poly:"):
        terms = json.loads(hid[5:])
    else:
        raise ValueError("unknown t-graph height %r" % hid)
    phi = [[1.0, [0, 0, 1]]] + [[-c, [i, j, 0]]
                                for c, (i, j) in _poly_terms(terms, 2)]
    return _poly_patch("t-graph:" + hid, _U, _V, terms, domain, grid, phi)


def _vertical_plane(a, b, c, domain, grid):
    """The plane ax + by = c: (x, y) = (x0, y0) + u (-b, a) / r, t = v."""
    r = float(np.hypot(a, b))
    if r == 0.0:
        raise ValueError("vertical plane needs (a, b) != (0, 0)")
    x0, y0 = a * c / r ** 2, b * c / r ** 2
    return _poly_patch("vertical-plane:%g,%g,%g" % (a, b, c),
                       [[x0, [0, 0]], [-b / r, [1, 0]]],
                       [[y0, [0, 0]], [a / r, [1, 0]]], _V, domain, grid,
                       [[a, [1, 0, 0]], [b, [0, 1, 0]], [-c, [0, 0, 0]]])


def _intrinsic(iid, domain, grid):
    if iid == "zero":
        fn = lambda u, v: _zero_like(u) + _zero_like(v)
    elif iid.startswith("linear:"):
        alpha = float(iid.split(":", 1)[1])
        fn = lambda u, v: alpha * u + _zero_like(v)
    elif iid == "uv":
        fn = lambda u, v: u * v
    elif iid == "xyt":
        fn = lambda u, v: u * v / (1.0 + 0.5 * u * u)
    elif iid.startswith("poly:"):
        fn = _poly2(json.loads(iid[5:]))
    else:
        raise ValueError("unknown intrinsic graph id %r" % iid)
    gr = IntrinsicGraph(fn, domain, grid or (128, 128),
                        name="intrinsic:" + iid)
    return intrinsic_to_patch(gr)


_DEFAULT_DOMAINS = {
    "vertical-plane": (-2.0, 2.0, -2.0, 2.0),
    "t-graph:zero": (1.0, 2.0, 0.0, 1.0),
    # wide enough in u for the unstable stretched bumps to fit
    "xyt-graph": (-6.0, 6.0, -3.0, 3.0),
    "intrinsic": (-1.0, 1.0, -1.0, 1.0),
}


def build_surface(sid, domain=None, grid=None):
    """Surface catalog.

    Ids: "vertical-plane:a,b,c", "t-graph:<zero|parab|xy|poly:json>",
    "xyt-graph", "intrinsic:<zero|linear:a|uv|xyt|poly:json>", or a dict
    {"x": terms, "y": terms, "t": terms, "domain": [...], "grid": [...]}
    of two-variable polynomial term lists [[coeff, [i, j]], ...].
    """
    grid = tuple(int(n) for n in grid) if grid else None
    if isinstance(sid, dict):
        dom = domain or tuple(sid.get("domain", (-1.0, 1.0, -1.0, 1.0)))
        gr = grid or tuple(sid.get("grid", (128, 128)))
        patch = _poly_patch(sid.get("name", "custom-patch"), sid["x"],
                            sid["y"], sid["t"], dom, gr)
        return CatalogSurface(patch.name, patch)
    sid = str(sid).strip()
    grid = grid or (128, 128)
    if sid.startswith("vertical-plane:"):
        a, b, c = (float(z) for z in sid.split(":", 1)[1].split(","))
        dom = domain or _DEFAULT_DOMAINS["vertical-plane"]
        return CatalogSurface(sid, _vertical_plane(a, b, c, dom, grid))
    if sid.startswith("t-graph:"):
        dom = domain or _DEFAULT_DOMAINS.get(sid, (0.5, 1.5, 0.5, 1.5))
        return CatalogSurface(sid, _tgraph(sid.split(":", 1)[1], dom, grid))
    if sid == "xyt-graph":
        dom = domain or _DEFAULT_DOMAINS[sid]
        # x = y t over (y, t) = (u, v), the level set of x - y t
        return CatalogSurface(sid, _poly_patch(
            sid, [[1.0, [1, 1]]], _U, _V, dom, grid,
            [[1.0, [1, 0, 0]], [-1.0, [0, 1, 1]]]))
    if sid.startswith("intrinsic:"):
        dom = domain or _DEFAULT_DOMAINS["intrinsic"]
        return CatalogSurface(sid, _intrinsic(sid.split(":", 1)[1], dom, grid))
    raise ValueError("unknown surface id %r" % sid)


def catalog_ids():
    return ["vertical-plane:<a>,<b>,<c>", "t-graph:zero", "t-graph:parab",
            "t-graph:xy", "t-graph:poly:<json>", "xyt-graph",
            "intrinsic:zero", "intrinsic:linear:<a>", "intrinsic:uv",
            "intrinsic:xyt", "intrinsic:poly:<json>"]
