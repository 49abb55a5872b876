"""Surface measure and integral identities for H^1 parametric patches.

The sub-Riemannian area element of a patch is dsigma_H = W du dv.  All
integrals use the composite Simpson rule with a fixed pairwise summation
tree over the row-major grid, and all run through one streaming reducer:
the grid is cut into blocks of 2^k whole rows, the least power of two of
rows that holds _BLOCK_NODES nodes (so a grid of no more nodes is one
block), the frame is evaluated once per block on seeds of the block's
u-nodes (rows x 1) and the grid's v-nodes (1 x columns), and every
density is folded k levels of the pairwise tree per block, so no
whole-grid frame is ever held.  A family of patches
moved from one patch (the dilation and translation ratios, the deformed
patches of numeric_variation) shares one pass: each block evaluates the
base components once and forms every member's frame from them.  Since a u-only or
v-only subexpression is computed once per row or column, each node still
sees the same float operations in the same order.  pairwise_sum pairs
neighbours level by level, so an aligned group of 2^k nodes collapses to
the same level-k node inside the whole-array tree as on its own, and the
pairwise sum of the level-k nodes of all blocks (the ragged tail of the
last block summed on its own) is the whole-array sum bit for bit.
Densities are elementwise, so results are bit-stable for a given grid
regardless of the block size.  An integrand that is exactly 0 off a box
(one built from a compactly supported deformation or test function) is
integrated on the sub-grid of that box's nodes (QuadratureGrid.restricted):
the parent's nodes and Simpson weights there, summed in the sub-grid's own
pairwise tree, so the value differs from the whole grid's by rounding
only; a box holding no node integrates to 0.0.  The level-k nodes of all
integrals are summed in one pass of the tree (_pairwise_rows, which
pairwise_sum runs too).  The stability scan also uses the block walk to
fill its four whole-grid node planes (see variation.stability_scan), which
it sums by matrix products instead.
"""

import copy
import math

import numpy as np

from .surfaces import (_as_jet, _characteristic_band, _dilated,
                       _second_derivatives, _translated, _value_fields,
                       tangential, tangential_second, zy_second)
from .curvature import geometry_aux
from .fields import horizontal_jet, seed_jets
from .groups import _dilation_factor

__all__ = [
    "QuadratureGrid", "IntegralResult", "pairwise_sum",
    "integrate_patch",
    "perimeter", "eps_area", "scaling_ratio", "translation_ratio",
    "surface_gradient", "tangential_laplacian", "ambient_tangential_laplacian",
    "ibp_residual", "stokes_residual", "green_residual",
    "coordinate_laplacians", "coordinate_harmonicity_residuals",
    "mcf_residual",
]

# Nodes per evaluation block, which holds the least power of two of whole
# rows that holds at least this many nodes (at least one row), or the
# whole grid: small enough that the order-2 jet temporaries of one block
# stay near cache instead of streaming whole-grid arrays, large enough
# that the per-block Python work stays small, and a grid that fits in one
# block pays that work once.
_BLOCK_NODES = 8192


def pairwise_sum(values):
    """Deterministic pairwise reduction of a row-major flattened array."""
    return float(_pairwise_rows(
        np.asarray(values, dtype=float).reshape(1, -1))[0])


def _pairwise_rows(a):
    """pairwise_sum of each row of the 2-D array a, in one pass of the
    tree along its last axis: neighbours are paired level by level, an odd
    last node is carried up a level, and an empty row sums to 0.0."""
    if a.shape[1] == 0:
        return np.zeros(a.shape[0])
    while a.shape[1] > 1:
        even = a.shape[1] // 2 * 2
        paired = a[:, 0:even:2] + a[:, 1:even:2]
        if even < a.shape[1]:
            paired = np.concatenate([paired, a[:, even:]], axis=1)
        a = paired
    return a[:, 0]


class QuadratureGrid:
    """Composite Simpson nodes/weights on a rectangle.

    nu, nv count cells, even and >= 8; the nodes are the nu+1 x nv+1
    lattice points.  The grid keeps only the 1-D nodes u, v and weights
    wu, wv; _integrate forms each block's nodes and weights from them.  A
    sub-grid (see restricted) keeps the parent's nu, nv and domain but
    only the nodes and weights of a box.
    """

    def __init__(self, domain, nu=128, nv=128):
        self.domain = tuple(float(d) for d in domain)
        self.nu, self.nv = int(nu), int(nv)
        u0, u1, v0, v1 = self.domain
        for n in (self.nu, self.nv):
            if n < 8 or n % 2:
                raise ValueError("simpson rule needs even cell counts"
                                 " >= 8, got %d" % n)
        self.u, self.wu = self._simpson_1d(u0, u1, self.nu)
        self.v, self.wv = self._simpson_1d(v0, v1, self.nv)

    @staticmethod
    def _simpson_1d(a, b, n):
        x = np.linspace(a, b, n + 1)
        h = (b - a) / n
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return x, w * (h / 3.0)

    def halved(self):
        nu, nv = (h + h % 2 for h in (self.nu // 2, self.nv // 2))
        if min(nu, nv) < 8:
            return None
        return QuadratureGrid(self.domain, nu, nv)

    def restricted(self, support):
        """The sub-grid of this grid's nodes in support, a box (u0, u1, v0,
        v1) outside which the integrand is exactly 0 (None: the grid
        itself): a copy whose u, wu, v, wv are slices of this grid's, the
        weights staying this grid's Simpson weights.  Along each axis the
        box runs from one node below the lower edge to one node above the
        upper edge, clipped to the grid, so every node where the integrand
        may be nonzero is kept; an edge beyond the grid keeps the nearest
        node.  None when the box holds no node: an empty support (u1 < u0
        or v1 < v0) or a NaN edge."""
        if support is None:
            return self
        grid = copy.copy(self)
        for axis, lo, hi in (("u", *support[:2]), ("v", *support[2:])):
            if not lo <= hi:
                return None
            x = getattr(self, axis)
            span = slice(max(int(np.searchsorted(x, lo)) - 1, 0),
                         min(int(np.searchsorted(x, hi, "right")) + 1, x.size))
            setattr(grid, axis, x[span])
            setattr(grid, "w" + axis, getattr(self, "w" + axis)[span])
        return grid


class IntegralResult:
    """Value of a surface integral plus bookkeeping.

    error_estimate is |I(n) - I(n/2)| when a half grid exists (else None);
    excluded_mass is the weighted W-mass of nodes inside the characteristic
    band, which were dropped from the integral; rule names the quadrature
    rule, always composite Simpson.
    """

    rule = "simpson"

    def __init__(self, value, error_estimate, excluded_mass, grid):
        self.value = float(value)
        self.error_estimate = (None if error_estimate is None
                               else float(error_estimate))
        self.excluded_mass = float(excluded_mass)
        self.grid = grid

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


def _grid_for(P, nu, nv):
    return QuadratureGrid(P.domain, nu or P.grid[0], nv or P.grid[1])


def _fold(run, k):
    """The level-k nodes of pairwise_sum's tree over run, a 1-D run of
    row-major nodes that starts at a multiple of 2^k: each whole group of
    2^k nodes folded k pairwise levels, then the ragged tail, if any,
    summed by pairwise_sum."""
    whole = run.size >> k << k
    parts = _pairwise_rows(run[:whole].reshape(-1, 1 << k))
    return (parts if whole == run.size else
            np.append(parts, pairwise_sum(run[whole:])))


def _integrate(grid, frames, densities, excluded=False):
    """Integrals against du dv over the grid's nodes, streamed in blocks
    of rows, for one or more patches at once.

    Each block holds 2^k whole rows, k the least integer >=
    log2(_BLOCK_NODES / columns) and at least 0, so that a block holds at
    least _BLOCK_NODES nodes (one row, if rows are longer) or the whole
    grid.  The grid may be a sub-grid (QuadratureGrid.restricted), whose
    rows and columns are those of its box; k is then its parent's (nv + 1
    columns), so a box's block holds no more nodes than a whole grid's.
    frames(u, v, rows) receives the nodes as zero-copy (rows x columns)
    views of the u- and v-nodes, so seeds taken from them are (rows x 1)
    and (1 x columns) and frame arrays may keep either shape, plus the
    slice of grid rows they lie on, and returns a list of frame dicts, one
    per patch: any dicts holding W and omega that broadcast to those nodes
    (a zy_second dict, the order-1 values of patch_fields_jets, the graph
    integrands of intrinsic_stability_form).  A family of patches shares
    in frames what their components have in common.  densities(zz, rows)
    receives one frame dict and the same slice of grid rows, and returns
    an iterable of integrand arrays (density times W) that broadcast to
    the frame's nodes, reduced one at a time.
    zz["band"] marks the frame's nodes inside the characteristic band: they
    are dropped, and with excluded their weighted W-mass is summed as the
    frame's excluded mass (a block with no such node skips both steps,
    whose results would be its values and zeros).  Densities are evaluated
    with numpy's divide and invalid warnings off, since the values they
    would flag are the dropped ones.

    Each integral, and each frame's excluded mass, has one buffer of the
    grid's ceil(nodes / 2^k) level-k parts: a block's weighted values are
    folded (_fold) and written at its first node's part.  The buffers of
    all integrals are summed in one pass of the tree (_pairwise_rows).
    Returns (integrals, masses): the list of each frame's integrals and,
    with excluded, the list of each frame's excluded mass (else None), in
    the order of frames.
    """
    u, v = grid.u, grid.v
    k = max(0, math.ceil(math.log2(_BLOCK_NODES / (grid.nv + 1))))
    size = -(-u.size * v.size >> k)
    # per frame: the level-k parts of each integral; those of the excluded
    # mass, a list that stays empty while no node is dropped or unless
    # excluded
    integrals, masses = [], []

    def write(buffers, i, values, drop):
        """The integrand values on the block's nodes times the weights,
        with the nodes where drop holds (None: none) set to 0, folded into
        buffers[i] (made when first written)."""
        if i == len(buffers):
            buffers.append(np.zeros(size))
        values = values * ws
        if drop is not None:
            values = np.where(drop, 0.0, values)
        parts = _fold(np.ravel(values), k)
        at = rows.start * v.size >> k
        buffers[i][at:at + parts.size] = parts

    for start in range(0, u.size, 1 << k):
        rows = slice(start, min(start + (1 << k), u.size))
        ws = np.outer(grid.wu[rows], grid.wv)
        for f, zz in enumerate(frames(*np.broadcast_arrays(u[rows, None], v),
                                      rows)):
            if f == len(integrals):  # the first block
                integrals.append([])
                masses.append([])
            W = zz["W"]
            mask = zz["band"] = _characteristic_band(W, zz["omega"])
            if mask.any():
                mask = np.broadcast_to(mask, ws.shape)
                if excluded:
                    write(masses[f], 0, np.abs(W), ~mask)
            else:  # nothing is dropped or excluded
                mask = None
            with np.errstate(divide="ignore", invalid="ignore"):
                for i, vals in enumerate(densities(zz, rows)):
                    write(integrals[f], i, vals, mask)
    stacked = [parts for frame in integrals + masses for parts in frame]
    sums = iter(_pairwise_rows(np.reshape(stacked, (-1, size))).tolist())
    return ([[next(sums) for _ in frame] for frame in integrals],
            [next(sums) if parts else 0.0 for parts in masses]
            if excluded else None)


def _patch_frames(P, order=2):
    """The frames callable of _integrate for the one patch P: a
    one-element list holding zy_second's frame dict at the given order."""
    return lambda u, v, rows: [zy_second(P, None, u, v, order=order)]


def _family_perimeters(P, members, grid):
    """H-perimeters over grid (a QuadratureGrid or a sub-grid of one) of a
    family of patches moved from P, in one pass.

    members(u, v, x, y, t) receives first-order seeds and P's components on
    them, evaluated once per block, and returns the components (x, y, t) of
    every member; each member's frame is that of its own patch at order 1,
    so on a whole grid each value equals the member's perimeter(...).value.
    """
    def frames(u, v, rows):
        uj, vj = seed_jets((u, v), order=1)
        # only what _integrate reads, so no member's p, q outlive its W
        return [{nm: zz[nm] for nm in ("W", "omega")} for zz in (
            _value_fields(*(_as_jet(c, uj) for c in comps))
            for comps in members(uj, vj, *P.components(uj, vj)))]

    integrals, _ = _integrate(grid, frames, lambda zz, rows: (zz["W"],))
    return [value for (value,) in integrals]


def _density_integral(frames, density, grid, excluded=False):
    """(value, excluded mass) of density * W over grid's nodes (see
    integrate_patch), frames the frames callable of _integrate for one
    patch; the mass is summed only with excluded, else it is None."""
    def densities(zz, rows):
        W = zz["W"]
        return (W if density is None else density(zz) * W,)

    [(value,)], masses = _integrate(grid, frames, densities, excluded)
    return value, None if masses is None else masses[0]


def _supported_integral(P, density, support, nu, nv, frames=None):
    """integrate_patch(P, density, ...).value for a density that is exactly
    0 off the box support (None: the whole grid), taken on the sub-grid of
    the support's nodes (QuadratureGrid.restricted): it differs from the
    whole grid's value by rounding only, and a box that holds no node
    gives 0.0 without evaluating a frame.  frames is the frames callable
    of _integrate (None: _patch_frames(P), zy_second's order-2 frame)."""
    grid = _grid_for(P, nu, nv).restricted(support)
    if grid is None:
        return 0.0
    return _density_integral(frames or _patch_frames(P), density, grid)[0]


def integrate_patch(P, density, nu=None, nv=None, error_estimate=True,
                    order=2):
    """Integral of density(u, v) * W du dv with characteristic exclusion.

    density(zz) receives the zy_second frame dict (arrays) and returns the
    factor multiplying W; density=None integrates the H-perimeter itself.
    order=1 evaluates the frame on first-order jets, whose dict holds only
    x, y, p, q, omega and W (bit-identical to order 2): perimeter and
    eps_area use it.  Densities that read Z/B derivatives (first and
    second variation, quadratic_form) need the default order=2.
    """
    grid, frames = _grid_for(P, nu, nv), _patch_frames(P, order)
    value, excluded = _density_integral(frames, density, grid, excluded=True)
    est = None
    if error_estimate:
        half = grid.halved()
        if half is not None:
            est = abs(value - _density_integral(frames, density, half)[0])
    return IntegralResult(value, est, excluded, (grid.nu, grid.nv))


def perimeter(P, nu=None, nv=None):
    """H-perimeter of the patch: integral of W du dv."""
    return integrate_patch(P, None, nu=nu, nv=nv, order=1)


def eps_area(P, eps, nu=None, nv=None):
    """Riemannian epsilon-area: integral of sqrt(W^2 + eps omega^2) du dv.

    Decreases to the H-perimeter as eps -> 0, with
    0 <= eps_area - perimeter <= (eps/2) * integral of obar^2 W, eps >= 0.
    """
    eps = float(eps)
    if not eps >= 0:
        raise ValueError("eps must be >= 0, not %r" % eps)

    def density(zz):
        return np.sqrt(zz["W"] ** 2 + eps * zz["omega"] ** 2) / zz["W"]

    return integrate_patch(P, density, nu=nu, nv=nv, order=1)


def scaling_ratio(P, lam, nu=None, nv=None):
    """Measured perimeter ratio under the group dilation by lam.

    Homogeneity gives exactly lam^(Q-1) = lam^3 on H^1.  Both perimeters
    come from one pass that evaluates P's components once per block; each
    equals that of perimeter() on P or on dilate_patch(P, lam).
    """
    lam = _dilation_factor(lam)
    base, moved = _family_perimeters(
        P, lambda u, v, *xyt: (xyt, _dilated(lam, *xyt)),
        _grid_for(P, nu, nv))
    return moved / base


def translation_ratio(P, g0, nu=None, nv=None):
    """Perimeter ratio under left translation by g0 (exactly 1), from one
    pass as in scaling_ratio."""
    g0 = tuple(float(z) for z in g0)
    base, moved = _family_perimeters(
        P, lambda u, v, *xyt: (xyt, _translated(g0, *xyt)),
        _grid_for(P, nu, nv))
    return moved / base


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


def ibp_residual(P, kind, zeta, f=None, index=1, nu=None, nv=None):
    """Integration-by-parts residuals on the patch (zero for compactly
    supported test functions).

    kind "Z":        integral of (Z zeta + zeta obar) dsigma_H
    kind "TY":       integral of (f B zeta + zeta B f - f zeta obar H),
                     B = T - obar Y (needs f)
    kind "gradient": integral of (grad_i zeta - zeta (H pbar_i - c_i)),
                     i = index in {1, 2}
    kind "green":    integral of (<grad f, grad zeta> + f hat-Laplacian zeta)

    Every term carries zeta or a derivative of it, so only the nodes of
    zeta.support's box are evaluated when zeta declares one.
    """
    def density(zz):
        zt = (tangential_second if kind == "green" else tangential)(
            zz["flds"], zeta)
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

    return _supported_integral(P, density, getattr(zeta, "support", None),
                               nu, nv)


def green_residual(P, f, zeta, nu=None, nv=None):
    """Symmetric-form residual: <grad f, grad zeta> vs -f hat-Laplacian zeta."""
    return ibp_residual(P, "green", zeta, f=f, nu=nu, nv=nv)


def stokes_residual(P, f, nu=None, nv=None):
    """Integral of the hat tangential Laplacian of f over the patch.

    Zero for compactly supported f: the hat Laplacian is Z(Zf) + obar Zf,
    and the Z rule applied to Zf kills the whole integral.  Only the nodes
    of f.support's box are evaluated when f declares one.
    """
    def density(zz):
        zf = tangential_second(zz["flds"], f)
        return zf["Z2f"] + zz["obar"] * zf["Zf"]

    return _supported_integral(P, density, getattr(f, "support", None), nu, nv)


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
    # from the frame's partial jets: no component is evaluated again
    for nm, (f_u, f_v) in zip("xyt", flds["partials"]):
        zz = _second_derivatives(flds, None, f_u, f_v)
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
