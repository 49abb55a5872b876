"""First and second variation of the H-perimeter, and stability checks.

A deformation moves each surface point by the group product with
(lam a, lam b, lam k), i.e. along the left-invariant field
a X1 + b X2 + k T with coefficients frozen on the surface:

    theta_lam = (x + lam a, y + lam b, t + lam (k + (b x - a y)/2)).

Every closed-form rate here can be cross-checked against the purely numeric
route: build the deformed patch, integrate its perimeter, differentiate in
lam by finite differences.
"""

import numpy as np

from .fields import _zero, bump1, jet_partial, seed_jets
from .surfaces import (_MovedPatch, _as_jet, _tangent_frame,
                       patch_fields_jets, tangential, zy_second)
from .measure import (_family_perimeters, _grid_for, _integrate,
                      _patch_frames, _supported_integral, integrate_patch)

__all__ = [
    "DeformationField", "deform_patch", "numeric_variation",
    "first_variation_analytic", "normal_first_variation",
    "frame_variation_rates", "frame_variation_rates_fd",
    "second_variation", "second_variation_full", "second_variation_geometric",
    "quadratic_form",
    "product_bump_lattice", "random_product_bumps", "stability_scan",
    "intrinsic_stability_form",
]

# the H-minimality gate on max |H| off the band, and the witness bar on Q
MINIMAL_TOL = 1e-6
WITNESS_THRESHOLD = -1e-6


class DeformationField:
    """Coefficients (a, b, k) of a X1 + b X2 + k T as functions of (u, v).

    The callables must accept jets (plain +,*,... arithmetic) so tangential
    derivatives of the coefficients can be taken where needed.  A
    coefficient may declare .support, a box (u0, u1, v0, v1) outside which
    it is exactly 0 with its jet derivatives, as bump2 does; see support.
    """

    def __init__(self, a, b, k, name="deformation"):
        self.a, self.b, self.k = a, b, k
        self.name = name

    @property
    def support(self):
        """Bounding box (u0, u1, v0, v1) of the coefficients' supports, or
        None (the whole grid) when any coefficient declares no .support.
        first_variation_analytic, second_variation_full and
        numeric_variation integrate on the sub-grid of this box's nodes
        (see QuadratureGrid.restricted), which moves their values from the
        whole grid's by rounding only, and give 0.0 for a box that holds
        no node."""
        boxes = [getattr(c, "support", None) for c in (self.a, self.b, self.k)]
        if None in boxes:
            return None
        u0, u1, v0, v1 = zip(*boxes)
        return min(u0), max(u1), min(v0), max(v1)

    @classmethod
    def vertical(cls, k):
        return cls(_zero, _zero, k, name="vertical")


def _deformation_rate(D, u, v, x, y):
    """The lam-rates (a, b, s) of the deformed components at (u, v), where
    x, y are the patch's components there: s = k + (b x - a y) / 2."""
    a, b = D.a(u, v), D.b(u, v)
    return a, b, D.k(u, v) + 0.5 * (b * x - a * y)


def _deformed(lam, xyt, rate):
    """Components xyt + lam * rate of the patch deformed by lam."""
    return tuple(c + lam * r for c, r in zip(xyt, rate))


def deform_patch(P, D, lam):
    """The patch moved by the group product with (lam a, lam b, lam k)."""
    lam = float(lam)

    def move(u, v, x, y, t):
        return _deformed(lam, (x, y, t), _deformation_rate(D, u, v, x, y))

    return _MovedPatch(P, move, "%s~moved(%g)" % (P.name, lam))


def numeric_variation(P, D, order=1, nu=None, nv=None):
    """d/dlam (order 1) or d^2/dlam^2 (order 2) of the deformed perimeter
    at lam = 0, by centered differences of exact quadratures.

    Order 1 uses the fourth-order five-point first-difference; order 2 the
    five-point second-difference at steps d and d/2 with one Richardson
    step, since the second derivative is the harder target (d = 1e-3 for
    order 1, 1e-2 for order 2).  Each stencil pairs its differences before
    scaling them, so a deformation that moves nothing reads exactly 0.0.
    The perimeters of the distinct lam (4 for order 1, 7 for order 2) come
    from one pass over the sub-grid of D.support's nodes (the whole grid
    without a support) that evaluates P's components, the rates (a, b, s)
    and the deformed frames once per block.  Only terms that cancel are
    dropped: each stencil's weights sum to 0, and off the box every deformed
    patch is P, so the value moves from the whole grid's by rounding only.
    On the whole grid each perimeter equals that of deform_patch(P, D, lam).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    d = 1e-3 if order == 1 else 1e-2
    steps = (d,) if order == 1 else (d, d / 2)
    # the distinct lam the stencils below read (2 (d/2) == d exactly)
    stencil = [m * s for s in steps for m in (2, 1, -1, -2)]
    lams = list(dict.fromkeys(([0.0] if order == 2 else []) + stencil))

    def members(u, v, x, y, t):
        rate = _deformation_rate(D, u, v, x, y)
        return [_deformed(lam, (x, y, t), rate) for lam in lams]

    grid = _grid_for(P, nu, nv).restricted(D.support)
    if grid is None:
        return 0.0
    A = dict(zip(lams, _family_perimeters(P, members, grid))).__getitem__
    if order == 1:
        return ((A(-2 * d) - A(2 * d)) + 8 * (A(d) - A(-d))) / (12.0 * d)
    A0 = A(0.0)

    def five_point(s):
        return (16 * (A(s) + A(-s)) - (A(2 * s) + A(-2 * s)) - 30 * A0) \
            / (12.0 * s * s)

    c, f = five_point(d), five_point(d / 2)
    return (16.0 * f - c) / 15.0


def _coeff_values(D, zz):
    uj, vj = zz["flds"]["seeds"]
    U, V = np.asarray(uj.v, dtype=float), np.asarray(vj.v, dtype=float)
    return (np.asarray(D.a(U, V), dtype=float) + 0.0 * U,
            np.asarray(D.b(U, V), dtype=float) + 0.0 * U,
            np.asarray(D.k(U, V), dtype=float) + 0.0 * U)


def first_variation_analytic(P, D, nu=None, nv=None):
    """Closed-form first variation: integral of H (pbar a + qbar b + obar k)
    against dsigma_H, for compactly supported coefficients, on the
    sub-grid of D.support's nodes (see DeformationField.support)."""

    def density(zz):
        a, b, k = _coeff_values(D, zz)
        return zz["H"] * (zz["pbar"] * a + zz["qbar"] * b + zz["obar"] * k)

    return _supported_integral(P, density, D.support, nu, nv)


def normal_first_variation(P, zeta, nu=None, nv=None):
    """First variation under the Euclidean-normal speed zeta / |N|:
    the rate is the plain double integral of H zeta du dv, on the sub-grid
    of zeta.support's nodes when zeta declares one."""

    def density(zz):
        uj, vj = zz["flds"]["seeds"]
        z = np.asarray(zeta(np.asarray(uj.v, dtype=float),
                            np.asarray(vj.v, dtype=float)), dtype=float)
        return zz["H"] * z / zz["W"]

    return _supported_integral(P, density, getattr(zeta, "support", None),
                               nu, nv)


# ---------------------------------------------------------------------------
# pointwise rates of the frame components


def _rate_fields(P, D, u, v):
    base = zy_second(P, None, u, v)
    return (base, *(tangential(base["flds"], c) for c in (D.a, D.b, D.k)))


def frame_variation_rates(P, D, u, v):
    """Closed-form lam-rates of p, q and of (p p' + q q') at lam = 0.

    p' = W {-(Zb + b obar) - qbar obar Zk + pbar Bk}
    q' = W { (Za + a obar) + pbar obar Zk + qbar Bk}
    (p p' + q q') = W^2 {Bk + (qbar Za - pbar Zb) + (qbar a - pbar b) obar}
    with B = T - obar Y.
    """
    base, za, zb, zk = _rate_fields(P, D, u, v)
    W, ob = base["W"], base["obar"]
    pb, qb = base["pbar"], base["qbar"]
    a, b = za["value"], zb["value"]
    pdot = W * (-(zb["Zf"] + b * ob) - qb * ob * zk["Zf"] + pb * zk["Bf"])
    qdot = W * ((za["Zf"] + a * ob) + pb * ob * zk["Zf"] + qb * zk["Bf"])
    ppqq = W ** 2 * (zk["Bf"] + (qb * za["Zf"] - pb * zb["Zf"])
                     + (qb * a - pb * b) * ob)
    return {"pdot": pdot, "qdot": qdot, "ppdot_qqdot": ppqq,
            "Wdot": ppqq / W}


def frame_variation_rates_fd(P, D, u, v):
    """The same rates by centered lam-differences of the deformed frame."""
    dlam = 1e-5
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)

    def pq(Q):
        fl = patch_fields_jets(Q, u, v, order=1)
        return fl["p"], fl["q"]

    (pp, qp), (pm, qm) = (pq(deform_patch(P, D, dlam)),
                          pq(deform_patch(P, D, -dlam)))
    p0, q0 = pq(P)
    pdot = (pp - pm) / (2 * dlam)
    qdot = (qp - qm) / (2 * dlam)
    return {"pdot": pdot, "qdot": qdot,
            "ppdot_qqdot": p0 * pdot + q0 * qdot}


# ---------------------------------------------------------------------------
# second variation


def second_variation_full(P, D, nu=None, nv=None):
    """Closed-form second variation of the perimeter for the deformation D.

    Valid for compactly supported coefficients; every term involves only the
    tangential derivatives Z and B = T - obar Y of a, b, k, so it is
    integrated on the sub-grid of D.support's nodes.  The frame itself is
    never differentiated, so it is evaluated on first-order jets
    (_tangent_frame), bit-identical to the order-2 frame.
    """

    def density(zz):
        za, zb, zk = (tangential(zz["flds"], c) for c in (D.a, D.b, D.k))
        ob, pb, qb = zz["obar"], zz["pbar"], zz["qbar"]
        a, b = za["value"], zb["value"]
        Za, Zb, Zk = za["Zf"], zb["Zf"], zk["Zf"]
        Ba, Bb, Bk = za["Bf"], zb["Bf"], zk["Bf"]
        rot = qb * Za - pb * Zb
        wedge = a * qb - b * pb
        rad = a * pb + b * qb
        return (2 * rot * Bk
                + Ba * (-2 * qb * Zk - qb * rad - pb * wedge)
                + Bb * (2 * pb * Zk + pb * rad - qb * wedge)
                + 2 * wedge * rot * ob
                + (Za + pb * ob * Zk) ** 2 + (Zb + qb * ob * Zk) ** 2
                + (a ** 2 + b ** 2) * ob ** 2
                + 2 * ob * (a * Za + b * Zb)
                + 2 * ob ** 2 * rad * Zk
                - (rot + wedge * ob) ** 2)

    return _supported_integral(P, density, D.support, nu, nv,
                               lambda u, v, rows: [_tangent_frame(P, u, v)])


def _max_H(zz):
    """max |H| over the block's nodes outside the characteristic band."""
    return float(np.max(np.where(zz["band"], 0.0, np.abs(zz["H"])),
                        initial=0.0))


def _require_minimal(worst, tol=MINIMAL_TOL,
                     message="surface is not H-minimal (max |H| = %g)"):
    """The largest block maximum in worst; raise with message unless it is
    <= tol, so NaN fails."""
    worst = float(np.max(worst, initial=0.0))
    if not worst <= tol:
        raise ValueError(message % worst)
    return worst


def _minimal_integral(P, density, nu, nv):
    """integrate_patch(P, density).value on an H-minimal patch; raises once
    the whole grid is reduced if max |H| off the band exceeds MINIMAL_TOL."""
    worst = []

    def gated(zz):
        worst.append(_max_H(zz))
        return density(zz)

    value = integrate_patch(P, gated, nu=nu, nv=nv, error_estimate=False).value
    _require_minimal(worst)
    return value


def _potential(zz):
    """The stability form's potential 2 A - obar^2, A = -Z(obar)."""
    return 2 * -zz["Zobar"] - zz["obar"] ** 2


def _q_density(pot, F, ZF):
    """Stability-form density (ZF)^2 + pot F^2, pot = _potential(zz)."""
    return ZF ** 2 + pot * F ** 2


def _q_of(zz, F, pot):
    """The stability-form density of the normal speed function F."""
    zf = tangential(zz["flds"], F)
    return _q_density(pot, zf["value"], zf["Zf"])


def quadratic_form(P, F, nu=None, nv=None):
    """Stability form Q(F) = integral of (ZF)^2 + (2 A - obar^2) F^2 over
    dsigma_H, for a scalar normal speed F on an H-minimal patch."""

    return _minimal_integral(P, lambda zz: _q_of(zz, F, _potential(zz)), nu,
                             nv)


def second_variation_geometric(P, D, nu=None, nv=None):
    """Second variation on an H-minimal patch through the normal speed
    F = pbar a + qbar b + obar k alone:

        Q(F) = integral of (ZF)^2 + (2 A - obar^2) F^2  dsigma_H.

    ZF is expanded by the product rule, so only the frame derivatives and
    Z of the coefficients are needed.
    """

    def density(zz):
        za, zb, zk = (tangential(zz["flds"], c) for c in (D.a, D.b, D.k))
        pb, qb, ob = zz["pbar"], zz["qbar"], zz["obar"]
        a, b, k = za["value"], zb["value"], zk["value"]
        F = pb * a + qb * b + ob * k
        ZF = (zz["Zpbar"] * a + pb * za["Zf"]
              + zz["Zqbar"] * b + qb * zb["Zf"]
              + zz["Zobar"] * k + ob * zk["Zf"])
        return _q_density(_potential(zz), F, ZF)

    return _minimal_integral(P, density, nu, nv)


def second_variation(P, D, mode="full", nu=None, nv=None):
    """Second variation of the H-perimeter; mode "full" works on any patch,
    mode "geometric" requires an H-minimal one."""
    if mode == "full":
        return second_variation_full(P, D, nu=nu, nv=nv)
    if mode == "geometric":
        return second_variation_geometric(P, D, nu=nu, nv=nv)
    raise ValueError("mode must be 'full' or 'geometric'")


# ---------------------------------------------------------------------------
# stability scans


class _ProductBump:
    """F(u, v) = bump1(cu, ru)(u) * bump1(cv, rv)(v); pairs = ((cu, ru),
    (cv, rv)) lets stability_scan differentiate F from 1-D jets of each
    factor (_factor_jets)."""

    def __init__(self, cu, ru, cv, rv):
        self.pairs = ((cu, ru), (cv, rv))
        self.factors = (bump1(cu, ru), bump1(cv, rv))

    def __call__(self, u, v):
        bu, bv = self.factors
        return bu(u) * bv(v)


def product_bump_lattice(domain, n_centers=5, n_radii=5, margin=0.0):
    """Deterministic lattice of product bumps strictly inside the rectangle.

    Yields (F, meta) with F(u, v) a separable bump and meta its parameters;
    supports are clipped to keep a `margin` distance from the boundary.
    """
    if n_centers < 0 or n_radii < 0:
        raise ValueError("bump counts must be >= 0, got n_centers=%d, "
                         "n_radii=%d" % (n_centers, n_radii))
    u0, u1, v0, v1 = (float(d) for d in domain)
    cus = u0 + (u1 - u0) * (np.arange(n_centers) + 1.0) / (n_centers + 1.0)
    cvs = v0 + (v1 - v0) * (np.arange(n_centers) + 1.0) / (n_centers + 1.0)
    fracs = np.linspace(0.35, 0.95, n_radii)
    out = []
    for cu in cus:
        for cv in cvs:
            ru_max = min(cu - u0, u1 - cu) - margin
            rv_max = min(cv - v0, v1 - cv) - margin
            if ru_max <= 0 or rv_max <= 0:
                continue
            for f in fracs:
                ru, rv = f * ru_max, f * rv_max
                out.append((_ProductBump(cu, ru, cv, rv),
                            {"cu": float(cu), "cv": float(cv),
                             "ru": float(ru), "rv": float(rv)}))
    return out


def random_product_bumps(domain, count, rng, margin=0.0):
    """Random product bumps with supports strictly inside the rectangle.
    One rng.uniform call draws every bump's (cu, cv) and radius fractions:
    the bumps, and generator state, of four scalar calls per bump."""
    if int(count) < 0:
        raise ValueError("bump count must be >= 0, got %d" % count)
    u0, u1, v0, v1 = (float(d) for d in domain)
    lo = np.array([u0 + 0.25 * (u1 - u0), v0 + 0.25 * (v1 - v0), 0.3, 0.3])
    hi = np.array([u1 - 0.25 * (u1 - u0), v1 - 0.25 * (v1 - v0), 0.98, 0.98])
    d = rng.uniform(lo, hi, (int(count), 4))
    d[:, 2] *= np.minimum(d[:, 0] - u0, u1 - d[:, 0]) - margin
    d[:, 3] *= np.minimum(d[:, 1] - v0, v1 - d[:, 1]) - margin
    return [(_ProductBump(cu, ru, cv, rv),
             {"cu": cu, "cv": cv, "ru": ru, "rv": rv})
            for cu, cv, ru, rv in d.tolist()]


def _factor_jets(pairs, x):
    """Value and derivative rows of bump1(c, r) at the nodes x for the
    distinct (c, r) of pairs (by value), and the row of each pair.  The
    rows come from one call of bump1 on (m x 1) arrays of the distinct
    centres and radii, as floats, at one first-order seed of x[None, :]:
    row i is the jet of bump1(c_i, r_i) on its own seed bit for bit (see
    bump1)."""
    distinct = list(dict.fromkeys(pairs))
    (xj,) = seed_jets((x[None, :],), order=1)
    bj = bump1(*np.array(distinct, dtype=float).T[:, :, None])(xj)
    row = {pair: i for i, pair in enumerate(distinct)}
    return bj.v, bj.g[0], [row[pair] for pair in pairs]


def stability_scan(P, bumps=None, n_centers=5, n_radii=5, nu=None, nv=None):
    """Evaluate the stability form over a family of normal-speed bumps.

    The frame is evaluated once per row block of the quadrature grid, and
    each block writes its rows of four whole-grid node planes, w the
    Simpson weight times W:

        C1 = w gamma_v^2 / det^2,  C2 = w gamma_u^2 / det^2,
        C3 = -2 w gamma_u gamma_v / det^2,  C4 = w (2 A - obar^2),

    each zeroed on the characteristic band once formed (the frame is NaN
    there).  A product bump F = a(u) b(v) of two bump1 factors (a
    _ProductBump, as product_bump_lattice and random_product_bumps build)
    has ZF = (a' b gamma_v - a b' gamma_u) / det, so its Q is the sum of
    the four separable terms (a'^2)^T C1 (b^2) + (a^2)^T C2 (b'^2)
    + (a a')^T C3 (b b') + (a^2)^T C4 (b^2) (sum factorization).  The
    distinct (centre, radius) pairs of an axis are evaluated in one call
    of bump1 on first-order jets at the grid's u- or v-nodes
    (_factor_jets), and each distinct u-factor's four rows meet the planes
    in products of their own, which its bumps share, so a bump's Q depends
    neither on the rest of the family nor on the block size.  It agrees
    with quadratic_form(P, F, nu=nu, nv=nv), which sums the same density in
    the pairwise tree, to rounding (a few 1e-16 of the family's max |Q|
    measured).  Any other bump, a hand-made product too, goes through
    tangential() on each block and the pairwise tree, and equals
    quadratic_form bit for bit.  The scan raises if max |H| over the
    non-characteristic nodes of the whole grid exceeds MINIMAL_TOL.
    Returns the full table (in lattice order), the argmin, the first bump
    whose Q is within 1e-12 of the family's max |Q| of the smallest, and
    its Q as min_value (both None for an empty family), and the first
    witness with Q < WITNESS_THRESHOLD (None if the scan stays
    nonnegative).
    """
    if bumps is None:
        u0, u1, v0, v1 = P.domain
        cell = max(u1 - u0, v1 - v0) / float(nu or P.grid[0])
        bumps = product_bump_lattice(P.domain, n_centers, n_radii,
                                     margin=cell)
    bumps = list(bumps)
    grid = _grid_for(P, nu, nv)
    products = [F for F, _ in bumps if isinstance(F, _ProductBump)]
    others = [F for F, _ in bumps if not isinstance(F, _ProductBump)]
    planes = np.empty((4, grid.u.size, grid.v.size))
    worst = []

    def densities(zz, rows):
        worst.append(_max_H(zz))
        flds = zz["flds"]
        gu, gv, pot = flds["gamma_u"], flds["gamma_v"], _potential(zz)
        w = np.outer(grid.wu[rows], grid.wv) * zz["W"]
        r = w / flds["det"] ** 2
        for plane, values in zip(planes, (r * gv ** 2, r * gu ** 2,
                                          -2 * r * gu * gv, w * pot)):
            plane[rows] = np.where(zz["band"], 0.0, values)
        return [_q_of(zz, F, pot) * zz["W"] for F in others]

    Qs = []
    if bumps:  # an empty family evaluates no frame
        [others_q], _ = _integrate(grid, _patch_frames(P), densities)
        _require_minimal(worst)
        products_q = iter(_separable_forms(products, grid, planes))
        others_q = iter(others_q)
        Qs = [next(products_q if isinstance(F, _ProductBump) else others_q)
              for F, _ in bumps]
    table = [dict(meta, Q=Q) for (_, meta), Q in zip(bumps, Qs)]
    witness = next((rec for rec in table if rec["Q"] < WITNESS_THRESHOLD),
                   None)
    if table:
        # Q values that tie in exact arithmetic (mirror-image bumps on a
        # symmetric surface) differ by rounding, which must not pick the
        # argmin: take the first bump within 1e-12 max |Q| of the minimum
        low = min(rec["Q"] for rec in table)
        tol = 1e-12 * max(abs(rec["Q"]) for rec in table)
        argmin = next(rec for rec in table if rec["Q"] - low <= tol)
        min_value = argmin["Q"]
    else:
        argmin = min_value = None
    return {"table": table, "min_value": min_value, "argmin": argmin,
            "witness": witness, "count": len(table)}


def _separable_forms(products, grid, planes):
    """Q of each _ProductBump F = a(u) b(v) of products against the four
    node planes of stability_scan.  Each distinct factor's rows, (a'^2,
    a^2, a a', a^2) or (b^2, b'^2, b b', b^2), are formed once; a
    u-factor's meet their planes in one (1 x u-nodes) product each, the
    same BLAS call for every factor, and a bump dots them with its
    v-rows."""
    if not products:
        return []
    (a, da, iu), (b, db, iv) = (
        _factor_jets([F.pairs[k] for F in products], x)
        for k, x in enumerate((grid.u, grid.v)))
    left = np.stack([da * da, a * a, a * da, a * a], axis=1)
    right = np.stack([b * b, db * db, b * db, b * b], axis=1)
    rows = np.matmul(left[:, :, None, :], planes)[:, :, 0, :]
    return (rows[iu] * right[iv]).reshape(len(iu), -1).sum(axis=1).tolist()


def intrinsic_stability_form(Gr, F, nu=None, nv=None):
    """Both sides of the graph stability inequality for an H-minimal
    intrinsic graph: stable means lhs <= rhs for every compactly
    supported F, with

        lhs = integral of (phi_v^2 + 2 B_phi(phi_v)) F^2 / W du dv,
        rhs = integral of (B_phi F)^2 / W du dv,
        W = sqrt(1 + (B_phi phi)^2).

    rhs - lhs equals the geometric form Q(F) of the associated patch.
    Both sides stream through _integrate (W >= 1: no node is in the band).
    Raises after the reduction if the graph is not H-minimal
    (max |B_phi(B_phi phi)| must be <= 1e-8, so NaN fails).
    """
    worst = []

    def frames(u, v, rows):
        uj, vj = seed_jets((u, v), order=2)
        phij = _as_jet(Gr.phi(uj, vj), uj)
        phi_u, phi_v = jet_partial(phij, 0), jet_partial(phij, 1)
        Bphi = phi_u + phij * phi_v
        # H-minimality gate: B_phi applied to B_phi(phi)
        worst.append(float(np.max(np.abs(Bphi.g[0] + phij.v * Bphi.g[1]))))
        Bphi_v = phi_v.g[0] + phij.v * phi_v.g[1]
        Fj = _as_jet(F(uj, vj), uj)
        BF = Fj.g[0] + phij.v * Fj.g[1]
        W = np.sqrt(1.0 + Bphi.v ** 2)
        return [{"W": W, "omega": 0.0,
                 "lhs": (phi_v.v ** 2 + 2.0 * Bphi_v) * Fj.v ** 2 / W,
                 "rhs": BF ** 2 / W}]

    [(lhs, rhs)], _ = _integrate(_grid_for(Gr, nu, nv), frames,
                                 lambda zz, rows: (zz["lhs"], zz["rhs"]))
    worst = _require_minimal(worst, 1e-8,
                             "graph is not H-minimal (max |B(B phi)| = %g)")
    return {"lhs": lhs, "rhs": rhs, "Q": rhs - lhs, "max_BBphi": worst}
