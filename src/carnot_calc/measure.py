"""Surface measure and integral identities for H^1 parametric patches.

The sub-Riemannian area element of a patch is dsigma_H = W du dv.  All
integrals use deterministic composite rules with a fixed pairwise summation
tree over the row-major grid.  Densities are evaluated in row blocks, and
every density is elementwise, so results are bit-stable for a given grid
regardless of the block size.
"""

import numpy as np

from .surfaces import (dilate_patch, left_translate_patch, restrict_to_patch,
                       tangential, zy_second)
from .curvature import levelset_fields
from .fields import horizontal_jet

__all__ = [
    "QuadratureGrid", "IntegralResult", "pairwise_sum", "integrate_patch",
    "perimeter", "eps_area", "scaling_ratio", "translation_ratio",
    "surface_gradient", "tangential_laplacian", "ambient_tangential_laplacian",
    "ibp_residual", "stokes_residual", "green_residual",
    "coordinate_laplacians", "coordinate_harmonicity_residuals",
    "mcf_residual",
]

# Nodes per evaluation block: small enough that the order-2 jet temporaries
# of one block stay in cache instead of streaming whole-grid arrays.
_BLOCK_NODES = 8192


def _eval_rows(fn, UU, VV):
    """Evaluate fn over consecutive row blocks of about _BLOCK_NODES nodes.

    fn(U, V) returns a tuple of arrays shaped like its inputs; the row
    blocks of each are concatenated back in order.
    """
    rows = max(1, _BLOCK_NODES // UU.shape[1])
    parts = [fn(UU[i:i + rows], VV[i:i + rows])
             for i in range(0, UU.shape[0], rows)]
    return tuple(np.concatenate(cols, axis=0) for cols in zip(*parts))


def pairwise_sum(values):
    """Deterministic pairwise reduction of a row-major flattened array."""
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        even = a.size // 2 * 2
        paired = a[0:even:2] + a[1:even:2]
        if even < a.size:
            paired = np.concatenate([paired, a[even:]])
        a = paired
    return float(a[0])


class QuadratureGrid:
    """Composite Simpson (default) or midpoint nodes/weights on a rectangle.

    nu, nv count cells; Simpson needs them even and >= 8 and places nodes at
    the nu+1 x nv+1 lattice points, midpoint uses cell centers.
    """

    def __init__(self, domain, nu=128, nv=128, rule="simpson"):
        self.domain = tuple(float(d) for d in domain)
        self.nu, self.nv = int(nu), int(nv)
        self.rule = rule
        u0, u1, v0, v1 = self.domain
        if rule == "simpson":
            for n in (self.nu, self.nv):
                if n < 8 or n % 2:
                    raise ValueError("simpson rule needs even cell counts"
                                     " >= 8, got %d" % n)
            xu, wu = self._simpson_1d(u0, u1, self.nu)
            xv, wv = self._simpson_1d(v0, v1, self.nv)
        elif rule == "midpoint":
            if self.nu < 1 or self.nv < 1:
                raise ValueError("midpoint rule needs positive cell counts")
            xu, wu = self._midpoint_1d(u0, u1, self.nu)
            xv, wv = self._midpoint_1d(v0, v1, self.nv)
        else:
            raise ValueError("unknown rule %r" % rule)
        self.U, self.V = np.meshgrid(xu, xv, indexing="ij")
        self.weights = np.outer(wu, wv)

    @staticmethod
    def _simpson_1d(a, b, n):
        x = np.linspace(a, b, n + 1)
        h = (b - a) / n
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return x, w * (h / 3.0)

    @staticmethod
    def _midpoint_1d(a, b, n):
        h = (b - a) / n
        x = a + h * (np.arange(n) + 0.5)
        return x, np.full(n, h)

    def halved(self):
        nu, nv = self.nu // 2, self.nv // 2
        if self.rule == "simpson":
            nu += nu % 2
            nv += nv % 2
            if nu < 8 or nv < 8:
                return None
        elif min(nu, nv) < 1:
            return None
        return QuadratureGrid(self.domain, nu, nv, self.rule)


class IntegralResult:
    """Value of a surface integral plus bookkeeping.

    error_estimate is |I(n) - I(n/2)| when a half grid exists (else None);
    excluded_mass is the weighted W-mass of nodes inside the characteristic
    band, which were dropped from the integral.
    """

    def __init__(self, value, error_estimate, excluded_mass, grid, rule):
        self.value = float(value)
        self.error_estimate = (None if error_estimate is None
                               else float(error_estimate))
        self.excluded_mass = float(excluded_mass)
        self.grid = grid
        self.rule = rule

    def __float__(self):
        return self.value

    def __repr__(self):
        return ("IntegralResult(value=%r, error_estimate=%r, "
                "excluded_mass=%r, grid=%r, rule=%r)"
                % (self.value, self.error_estimate, self.excluded_mass,
                   self.grid, self.rule))

    def to_dict(self):
        return {"value": self.value, "error_estimate": self.error_estimate,
                "excluded_mass": self.excluded_mass, "grid": list(self.grid),
                "rule": self.rule}


def _grid_for(P, nu, nv, rule):
    return QuadratureGrid(P.domain, nu or P.grid[0], nv or P.grid[1], rule)


def _integrate_on(grid, block):
    """Integrate a density against du dv over the grid.

    block(U, V) returns (values, W, omega) arrays.  Nodes inside the
    characteristic band W <= 1e-8 max(1, |N|) are dropped from the integral;
    their weighted W-mass is returned as the excluded mass.
    """
    vals, W, om = _eval_rows(block, grid.U, grid.V)
    normN = np.sqrt(W ** 2 + om ** 2)
    mask = W <= 1e-8 * np.maximum(1.0, normN)
    wgt = grid.weights
    contrib = np.where(~mask, vals * wgt, 0.0)
    excluded = float(np.sum(np.where(mask, np.abs(W) * wgt, 0.0)))
    return pairwise_sum(contrib), excluded


def integrate_patch(P, density, nu=None, nv=None, rule="simpson",
                    error_estimate=True, order=2):
    """Integral of density(u, v) * W du dv with characteristic exclusion.

    density(zz) receives the zy_second frame dict (arrays) and returns the
    factor multiplying W; density=None integrates the H-perimeter itself.
    order=1 evaluates the frame on first-order jets, whose dict holds only
    x, y, p, q, omega and W (bit-identical to order 2): perimeter, eps_area,
    scaling_ratio, translation_ratio and the areas of numeric_variation use
    it.  Densities that read Z/B derivatives (first and second variation,
    quadratic_form) need the default order=2.
    """
    grid = _grid_for(P, nu, nv, rule)

    def block(U, V):
        zz = zy_second(P, None, U, V, order=order)
        W = zz["W"]
        vals = W if density is None else density(zz) * W
        return vals, W, zz["omega"]

    value, excluded = _integrate_on(grid, block)
    est = None
    if error_estimate:
        half = grid.halved()
        if half is not None and (half.nu, half.nv) != (grid.nu, grid.nv):
            v2, _ = _integrate_on(half, block)
            est = abs(value - v2)
    return IntegralResult(value, est, excluded, (grid.nu, grid.nv), rule)


def perimeter(P, nu=None, nv=None, rule="simpson"):
    """H-perimeter of the patch: integral of W du dv."""
    return integrate_patch(P, None, nu=nu, nv=nv, rule=rule, order=1)


def eps_area(P, eps, nu=None, nv=None, rule="simpson"):
    """Riemannian epsilon-area: integral of sqrt(W^2 + eps omega^2) du dv.

    Decreases to the H-perimeter as eps -> 0, with
    0 <= eps_area - perimeter <= (eps/2) * integral of obar^2 W.
    """
    eps = float(eps)

    def density(zz):
        return np.sqrt(zz["W"] ** 2 + eps * zz["omega"] ** 2) / zz["W"]

    return integrate_patch(P, density, nu=nu, nv=nv, rule=rule, order=1)


def _perimeter_value(P, nu, nv, rule):
    return integrate_patch(P, None, nu=nu, nv=nv, rule=rule,
                           error_estimate=False, order=1).value


def scaling_ratio(P, lam, nu=None, nv=None, rule="simpson"):
    """Measured perimeter ratio under the group dilation by lam.

    Homogeneity gives exactly lam^(Q-1) = lam^3 on H^1.
    """
    base = _perimeter_value(P, nu, nv, rule)
    return _perimeter_value(dilate_patch(P, lam), nu, nv, rule) / base


def translation_ratio(P, g0, nu=None, nv=None, rule="simpson"):
    """Perimeter ratio under left translation by g0 (exactly 1)."""
    base = _perimeter_value(P, nu, nv, rule)
    return _perimeter_value(left_translate_patch(P, g0), nu, nv, rule) / base


# ---------------------------------------------------------------------------
# tangential derivatives of surface functions


def surface_gradient(P, f, u, v):
    """Tangential horizontal gradient coefficients (qbar Zf, -pbar Zf)."""
    zz = zy_second(P, f, np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    return {"g1": zz["qbar"] * zz["Zf"], "g2": -zz["pbar"] * zz["Zf"],
            "Zf": zz["Zf"], "norm2": zz["Zf"] ** 2}


def tangential_laplacian(P, f, u, v, variant="plain"):
    """Tangential horizontal Laplacian of f on the patch.

    plain: Z(Zf); hat: Z(Zf) + obar Zf (the variant with the drift term
    <c, grad f>).  Exact nested jets; f must be jet-safe.
    """
    zz = zy_second(P, f, np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    if zz["Z2f"] is None:
        raise ValueError("f must support second-order jets")
    if variant == "plain":
        return zz["Z2f"]
    if variant == "hat":
        return zz["Z2f"] + zz["obar"] * zz["Zf"]
    raise ValueError("variant must be 'plain' or 'hat'")


def ambient_tangential_laplacian(S, field, g, variant="plain"):
    """Tangential Laplacian of an ambient scalar restricted to a level set.

    plain: lap_H u - <hess_H u nu, nu> - <grad_H u, nu> H;
    hat adds <c, grad_H u>.  Independent of how the restriction is extended
    off the surface.
    """
    g = np.asarray(g, dtype=float)
    jet = horizontal_jet(S.group, field, g)
    f = levelset_fields(S, g)
    nu = f["pbar"]
    gradH, hessH = jet["gradH"], jet["hessH"]
    val = (jet["lapH"] - nu @ hessH @ nu - (gradH @ nu) * f["H"])
    if variant == "hat":
        G = S.group
        c = np.zeros(G.m)
        for s in range(G.dim - G.m):
            c += (G.b_horizontal(s) @ nu) * f["obar"][s]
        val = val + c @ gradH
    elif variant != "plain":
        raise ValueError("variant must be 'plain' or 'hat'")
    return float(val)


# ---------------------------------------------------------------------------
# integral identities


def ibp_residual(P, kind, zeta, f=None, index=1, nu=None, nv=None,
                 rule="simpson"):
    """Integration-by-parts residuals on the patch (zero for compactly
    supported test functions).

    kind "Z":        integral of (Z zeta + zeta obar) dsigma_H
    kind "TY":       integral of (f B zeta + zeta B f - f zeta obar H),
                     B = T - obar Y (needs f)
    kind "gradient": integral of (grad_i zeta - zeta (H pbar_i - c_i)),
                     i = index in {1, 2}
    kind "green":    integral of (<grad f, grad zeta> + f hat-Laplacian zeta)
    """
    def block(U, V):
        base = zy_second(P, None, U, V)
        zf = None if f is None else tangential(base["flds"], f)
        zz = tangential(base["flds"], zeta)
        W, ob = base["W"], base["obar"]
        pb, qb, H = base["pbar"], base["qbar"], base["H"]
        if kind == "Z":
            expr = zz["Zf"] + zz["value"] * ob
        elif kind == "TY":
            if zf is None:
                raise ValueError("kind 'TY' needs the second function f")
            expr = (zf["value"] * zz["Bf"] + zz["value"] * zf["Bf"]
                    - zf["value"] * zz["value"] * ob * H)
        elif kind == "gradient":
            if index == 1:
                gi, pbi, ci = qb * zz["Zf"], pb, ob * qb
            elif index == 2:
                gi, pbi, ci = -pb * zz["Zf"], qb, -ob * pb
            else:
                raise ValueError("index must be 1 or 2")
            expr = gi - zz["value"] * (H * pbi - ci)
        elif kind == "green":
            if zf is None:
                raise ValueError("kind 'green' needs the second function f")
            hat = zz["Z2f"] + ob * zz["Zf"]
            expr = zf["Zf"] * zz["Zf"] + zf["value"] * hat
        else:
            raise ValueError("unknown kind %r" % kind)
        return expr * W, W, base["omega"]

    value, _ = _integrate_on(_grid_for(P, nu, nv, rule), block)
    return value


def green_residual(P, f, zeta, nu=None, nv=None, rule="simpson"):
    """Symmetric-form residual: <grad f, grad zeta> vs -f hat-Laplacian zeta."""
    return ibp_residual(P, "green", zeta, f=f, nu=nu, nv=nv, rule=rule)


def stokes_residual(P, f, nu=None, nv=None, rule="simpson"):
    """Integral of the hat tangential Laplacian of f over the patch.

    Zero for compactly supported f: the hat Laplacian is Z(Zf) + obar Zf,
    and the Z rule applied to Zf kills the whole integral.
    """
    def block(U, V):
        zz = zy_second(P, f, U, V)
        W, ob = zz["W"], zz["obar"]
        return (zz["Z2f"] + ob * zz["Zf"]) * W, W, zz["omega"]

    value, _ = _integrate_on(_grid_for(P, nu, nv, rule), block)
    return value


# ---------------------------------------------------------------------------
# coordinate Laplacians and the flow identity


def coordinate_laplacians(P, u, v):
    """Plain tangential Laplacians of the restricted coordinates x, y, t.

    Each is computed by the nested-jet route (no closed form assumed), so
    they can be checked against -pbar_i H and -((x qbar - y pbar)/2) H.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    base = zy_second(P, None, u, v)
    flds = base["flds"]
    out = {}
    for nm in ("x", "y", "t"):
        fn = restrict_to_patch(P, {"x": lambda xc, yc, tc: xc,
                                   "y": lambda xc, yc, tc: yc,
                                   "t": lambda xc, yc, tc: tc}[nm])
        zz = tangential(flds, fn)
        out["lap_" + nm] = zz["Z2f"]
        out["Z" + nm] = zz["Zf"]
    out.update({"pbar": base["pbar"], "qbar": base["qbar"],
                "obar": base["obar"], "W": base["W"],
                "x": flds["x"].v, "y": flds["y"].v, "H": base["H"]})
    return out


def coordinate_harmonicity_residuals(P, u, v):
    """Pointwise residuals of the coordinate-Laplacian closed forms:
    lap(x) = -pbar H, lap(y) = -qbar H, lap(t) = -((x qbar - y pbar)/2) H.
    """
    d = coordinate_laplacians(P, u, v)
    return {"x": np.abs(d["lap_x"] + d["pbar"] * d["H"]),
            "y": np.abs(d["lap_y"] + d["qbar"] * d["H"]),
            "t": np.abs(d["lap_t"]
                        + 0.5 * (d["x"] * d["qbar"] - d["y"] * d["pbar"])
                        * d["H"]),
            "H": d["H"]}


def mcf_residual(P, u, v):
    """Residual of <tangential-Laplacian of the position, N> = -H W.

    The left side uses only numerically nested tangential derivatives of the
    restricted coordinates; the right side uses the frame-derivative
    curvature.  Returns |lhs + H W| pointwise.
    """
    d = coordinate_laplacians(P, u, v)
    lap_t_shift = d["lap_t"] + 0.5 * (d["y"] * d["lap_x"] - d["x"] * d["lap_y"])
    lhs = d["W"] * (d["pbar"] * d["lap_x"] + d["qbar"] * d["lap_y"]
                    + d["obar"] * lap_t_shift)
    return np.abs(lhs + d["H"] * d["W"])
