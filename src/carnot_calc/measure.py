"""Surface measure and integral identities for H^1 parametric patches.

The sub-Riemannian area element of a patch is dsigma_H = W du dv.  All
integrals use deterministic composite rules with a fixed pairwise summation
tree over the row-major grid, and all run through one streaming reducer:
the grid is cut into consecutive chunks of nodes, the frame is evaluated
once per chunk and every density is reduced to one pairwise partial sum
per chunk, so no whole-grid frame is ever held.  A chunk holds a power of
two of nodes: pairwise_sum pairs neighbours level by level, so an aligned
power-of-two chunk collapses to the same partial inside the whole-array
tree as on its own, and the pairwise sum of the partials (the ragged last
chunk included) is the whole-array sum bit for bit.  Densities are
elementwise, so results are bit-stable for a given grid regardless of the
chunk size.
"""

import numpy as np

from .surfaces import (_characteristic_band, dilate_patch,
                       left_translate_patch, tangential, zy_second)
from .curvature import geometry_aux
from .fields import horizontal_jet

__all__ = [
    "QuadratureGrid", "IntegralResult", "pairwise_sum",
    "integrate_patch",
    "perimeter", "eps_area", "scaling_ratio", "translation_ratio",
    "surface_gradient", "tangential_laplacian", "ambient_tangential_laplacian",
    "ibp_residual", "stokes_residual", "green_residual",
    "coordinate_laplacians", "coordinate_harmonicity_residuals",
    "mcf_residual",
]

# Nodes per evaluation chunk (rounded up to a power of two): small enough
# that the order-2 jet temporaries of one chunk stay in cache instead of
# streaming whole-grid arrays.
_BLOCK_NODES = 8192


def _node_chunks(size):
    """Consecutive slices of size nodes, _BLOCK_NODES rounded up to a power
    of two each; only the last may be shorter."""
    step = 1 << (max(1, _BLOCK_NODES) - 1).bit_length()
    for start in range(0, size, step):
        yield slice(start, start + step)


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


def _integrate(P, grid, densities, order=2):
    """Integrals against du dv over the grid, streamed in node chunks.

    densities(zz, s) receives the zy_second frame dict of one chunk and the
    chunk's slice s of the row-major node order (node k sits at
    grid.U.flat[k], grid.V.flat[k]), and returns an iterable of integrand
    arrays (density times W), reduced one at a time.  zz["band"] marks the
    chunk's nodes inside the characteristic band: they are dropped, and
    their weighted W-mass is returned as the excluded mass.  Densities are
    evaluated with numpy's divide and invalid warnings off, since the values
    they would flag are the dropped ones.  Returns (integrals, excluded).
    """
    U, V, w = grid.U.ravel(), grid.V.ravel(), grid.weights.ravel()
    partials, excluded = [], []
    for s in _node_chunks(U.size):
        zz = zy_second(P, None, U[s], V[s], order=order)
        W, ws = zz["W"], w[s]
        mask = zz["band"] = _characteristic_band(W, zz["omega"])
        excluded.append(pairwise_sum(np.where(mask, np.abs(W) * ws, 0.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            partials.append([pairwise_sum(np.where(mask, 0.0, vals * ws))
                             for vals in densities(zz, s)])
    return ([pairwise_sum(col) for col in zip(*partials)],
            pairwise_sum(excluded))


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

    def densities(zz, s):
        W = zz["W"]
        return (W if density is None else density(zz) * W,)

    (value,), excluded = _integrate(P, grid, densities, order)
    est = None
    if error_estimate:
        half = grid.halved()
        if half is not None:
            (v2,), _ = _integrate(P, half, densities, order)
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
    <c, grad f>).  Exact nested jets; f must be jet-safe to second order.
    """
    zz = zy_second(P, f, np.asarray(u, dtype=float), np.asarray(v, dtype=float))
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
    aux = geometry_aux(S, g)
    nu = aux["pbar"]
    gradH, hessH = jet["gradH"], jet["hessH"]
    val = (jet["lapH"] - nu @ hessH @ nu - (gradH @ nu) * aux["H"])
    if variant == "hat":
        val = val + aux["cHS"] @ gradH
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
    def density(zz):
        zt = tangential(zz["flds"], zeta)
        ob, pb, qb, H = zz["obar"], zz["pbar"], zz["qbar"], zz["H"]
        if kind == "Z":
            return zt["Zf"] + zt["value"] * ob
        if kind == "gradient":
            if index == 1:
                gi, pbi, ci = qb * zt["Zf"], pb, ob * qb
            elif index == 2:
                gi, pbi, ci = -pb * zt["Zf"], qb, -ob * pb
            else:
                raise ValueError("index must be 1 or 2")
            return gi - zt["value"] * (H * pbi - ci)
        if kind not in ("TY", "green"):
            raise ValueError("unknown kind %r" % kind)
        if f is None:
            raise ValueError("kind %r needs the second function f" % kind)
        zf = tangential(zz["flds"], f)
        if kind == "TY":
            return (zf["value"] * zt["Bf"] + zt["value"] * zf["Bf"]
                    - zf["value"] * zt["value"] * ob * H)
        hat = zt["Z2f"] + ob * zt["Zf"]
        return zf["Zf"] * zt["Zf"] + zf["value"] * hat

    return integrate_patch(P, density, nu=nu, nv=nv, rule=rule,
                           error_estimate=False).value


def green_residual(P, f, zeta, nu=None, nv=None, rule="simpson"):
    """Symmetric-form residual: <grad f, grad zeta> vs -f hat-Laplacian zeta."""
    return ibp_residual(P, "green", zeta, f=f, nu=nu, nv=nv, rule=rule)


def stokes_residual(P, f, nu=None, nv=None, rule="simpson"):
    """Integral of the hat tangential Laplacian of f over the patch.

    Zero for compactly supported f: the hat Laplacian is Z(Zf) + obar Zf,
    and the Z rule applied to Zf kills the whole integral.
    """
    def density(zz):
        zf = tangential(zz["flds"], f)
        return zf["Z2f"] + zz["obar"] * zf["Zf"]

    return integrate_patch(P, density, nu=nu, nv=nv, rule=rule,
                           error_estimate=False).value


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
    for nm, fn in (("x", P.x), ("y", P.y), ("t", P.t)):
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
