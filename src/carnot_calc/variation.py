"""First and second variation of the H-perimeter, and stability checks.

A deformation moves each surface point by the group product with
(lam a, lam b, lam k), i.e. along the left-invariant field
a X1 + b X2 + k T with coefficients frozen on the surface:

    theta_lam = (x + lam a, y + lam b, t + lam (k + (b x - a y)/2)).

Every closed-form rate here can be cross-checked against the purely numeric
route: build the deformed patch, integrate its perimeter, differentiate in
lam by finite differences.
"""

import functools

import numpy as np

from .fields import bump1, seed_jets
from .surfaces import ParamPatch, patch_fields_jets, tangential, zy_second
from .measure import (QuadratureGrid, _grid_for, _integrate,
                      _perimeter_value, integrate_patch, pairwise_sum)

__all__ = [
    "DeformationField", "deform_patch", "numeric_variation",
    "first_variation_analytic", "normal_first_variation",
    "frame_variation_rates", "frame_variation_rates_fd",
    "second_variation", "second_variation_full", "second_variation_geometric",
    "quadratic_form",
    "product_bump_lattice", "random_product_bumps", "stability_scan",
    "intrinsic_stability_form",
]


class DeformationField:
    """Coefficients (a, b, k) of a X1 + b X2 + k T as functions of (u, v).

    The callables must accept jets (plain +,*,... arithmetic) so tangential
    derivatives of the coefficients can be taken where needed.
    """

    def __init__(self, a, b, k, name="deformation"):
        self.a, self.b, self.k = a, b, k
        self.name = name

    @classmethod
    def vertical(cls, k, name="vertical"):
        zero = lambda u, v: 0.0 * u + 0.0 * v
        return cls(zero, zero, k, name=name)


def deform_patch(P, D, lam):
    """The patch moved by the group product with (lam a, lam b, lam k)."""
    lam = float(lam)
    a, b, k = D.a, D.b, D.k
    x0, y0, t0 = P.x, P.y, P.t

    def x(u, v):
        return x0(u, v) + lam * a(u, v)

    def y(u, v):
        return y0(u, v) + lam * b(u, v)

    def t(u, v):
        return t0(u, v) + lam * (k(u, v)
                                 + 0.5 * (b(u, v) * x0(u, v)
                                          - a(u, v) * y0(u, v)))

    return ParamPatch(P.group, x, y, t, P.domain, P.grid,
                      name="%s~moved(%g)" % (P.name, lam))


def numeric_variation(P, D, order=1, nu=None, nv=None, dlam=None,
                      rule="simpson"):
    """d/dlam (order 1) or d^2/dlam^2 (order 2) of the deformed perimeter
    at lam = 0, by centered differences of exact quadratures.

    Order 1 uses the fourth-order five-point first-difference; order 2 the
    five-point second-difference at steps d and d/2 with one Richardson
    step, since the second derivative is the harder target.  Each distinct
    lam is integrated once (7 quadratures for order 2).
    """
    areas = {}

    def A(lam):
        if lam not in areas:
            areas[lam] = _perimeter_value(deform_patch(P, D, lam), nu, nv,
                                          rule)
        return areas[lam]

    if order == 1:
        d = 1e-3 if dlam is None else float(dlam)
        return (-A(2 * d) + 8 * A(d) - 8 * A(-d) + A(-2 * d)) / (12.0 * d)
    if order != 2:
        raise ValueError("order must be 1 or 2")
    d = 1e-2 if dlam is None else float(dlam)
    A0 = A(0.0)

    def five_point(s):
        return (-A(2 * s) + 16 * A(s) - 30 * A0 + 16 * A(-s) - A(-2 * s)) \
            / (12.0 * s * s)

    c, f = five_point(d), five_point(d / 2)
    return (16.0 * f - c) / 15.0


def _coeff_values(D, zz):
    uj, vj = zz["flds"]["seeds"]
    U, V = np.asarray(uj.v, dtype=float), np.asarray(vj.v, dtype=float)
    return (np.asarray(D.a(U, V), dtype=float) + 0.0 * U,
            np.asarray(D.b(U, V), dtype=float) + 0.0 * U,
            np.asarray(D.k(U, V), dtype=float) + 0.0 * U)


def first_variation_analytic(P, D, nu=None, nv=None, rule="simpson"):
    """Closed-form first variation: integral of H (pbar a + qbar b + obar k)
    against dsigma_H, for compactly supported coefficients."""

    def density(zz):
        a, b, k = _coeff_values(D, zz)
        return zz["H"] * (zz["pbar"] * a + zz["qbar"] * b + zz["obar"] * k)

    return integrate_patch(P, density, nu=nu, nv=nv, rule=rule,
                           error_estimate=False).value


def normal_first_variation(P, zeta, nu=None, nv=None, rule="simpson"):
    """First variation under the Euclidean-normal speed zeta / |N|:
    the rate is the plain double integral of H zeta du dv."""

    def density(zz):
        uj, vj = zz["flds"]["seeds"]
        z = np.asarray(zeta(np.asarray(uj.v, dtype=float),
                            np.asarray(vj.v, dtype=float)), dtype=float)
        return zz["H"] * z / zz["W"]

    return integrate_patch(P, density, nu=nu, nv=nv, rule=rule,
                           error_estimate=False).value


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


def frame_variation_rates_fd(P, D, u, v, dlam=1e-5):
    """The same rates by centered lam-differences of the deformed frame."""
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


def second_variation_full(P, D, nu=None, nv=None, rule="simpson"):
    """Closed-form second variation of the perimeter for the deformation D.

    Valid for compactly supported coefficients; every term involves only the
    tangential derivatives Z and B = T - obar Y of a, b, k.
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

    return integrate_patch(P, density, nu=nu, nv=nv, rule=rule,
                           error_estimate=False).value


def _max_H(zz):
    """max |H| over the chunk's nodes outside the characteristic band."""
    return float(np.max(np.where(zz["band"], 0.0, np.abs(zz["H"])),
                        initial=0.0))


def _require_minimal(worst, tol):
    """Raise unless every chunk maximum in worst is <= tol; NaN fails."""
    worst = float(np.max(worst, initial=0.0))
    if not worst <= tol:
        raise ValueError("surface is not H-minimal (max |H| = %g)" % worst)


def _minimal_integral(P, density, nu, nv, rule, tol):
    """integrate_patch(P, density).value on an H-minimal patch; raises once
    the whole grid is reduced if max |H| off the band exceeds tol."""
    worst = []

    def gated(zz):
        worst.append(_max_H(zz))
        return density(zz)

    value = integrate_patch(P, gated, nu=nu, nv=nv, rule=rule,
                            error_estimate=False).value
    _require_minimal(worst, tol)
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


def quadratic_form(P, F, nu=None, nv=None, rule="simpson",
                   minimal_tol=1e-6):
    """Stability form Q(F) = integral of (ZF)^2 + (2 A - obar^2) F^2 over
    dsigma_H, for a scalar normal speed F on an H-minimal patch."""

    return _minimal_integral(P, lambda zz: _q_of(zz, F, _potential(zz)), nu,
                             nv, rule, minimal_tol)


def second_variation_geometric(P, D, nu=None, nv=None, rule="simpson",
                               minimal_tol=1e-6):
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

    return _minimal_integral(P, density, nu, nv, rule, minimal_tol)


def second_variation(P, D, mode="full", nu=None, nv=None, rule="simpson",
                     minimal_tol=1e-6):
    """Second variation of the H-perimeter; mode "full" works on any patch,
    mode "geometric" requires an H-minimal one."""
    if mode == "full":
        return second_variation_full(P, D, nu=nu, nv=nv, rule=rule)
    if mode == "geometric":
        return second_variation_geometric(P, D, nu=nu, nv=nv, rule=rule,
                                          minimal_tol=minimal_tol)
    raise ValueError("mode must be 'full' or 'geometric'")


# ---------------------------------------------------------------------------
# stability scans


class _ProductBump:
    """F(u, v) = bu(u) * bv(v); factors = (bu, bv) lets stability_scan
    differentiate F from 1-D jets of each factor."""

    def __init__(self, bu, bv):
        self.factors = (bu, bv)

    def __call__(self, u, v):
        bu, bv = self.factors
        return bu(u) * bv(v)


def product_bump_lattice(domain, n_centers=5, n_radii=5, margin=0.0):
    """Deterministic lattice of product bumps strictly inside the rectangle.

    Yields (F, meta) with F(u, v) a separable bump and meta its parameters;
    supports are clipped to keep a `margin` distance from the boundary.
    Bumps with the same centre and radius along an axis share that factor.
    """
    u0, u1, v0, v1 = (float(d) for d in domain)
    cus = u0 + (u1 - u0) * (np.arange(n_centers) + 1.0) / (n_centers + 1.0)
    cvs = v0 + (v1 - v0) * (np.arange(n_centers) + 1.0) / (n_centers + 1.0)
    fracs = np.linspace(0.35, 0.95, n_radii)
    factor = functools.lru_cache(maxsize=None)(bump1)  # one per (c, r)
    out = []
    for cu in cus:
        for cv in cvs:
            ru_max = min(cu - u0, u1 - cu) - margin
            rv_max = min(cv - v0, v1 - cv) - margin
            if ru_max <= 0 or rv_max <= 0:
                continue
            for f in fracs:
                ru, rv = f * ru_max, f * rv_max
                F = _ProductBump(factor(cu, ru), factor(cv, rv))
                out.append((F, {"cu": float(cu), "cv": float(cv),
                                "ru": float(ru), "rv": float(rv)}))
    return out


def random_product_bumps(domain, count, rng, margin=0.0):
    """Random product bumps with supports strictly inside the rectangle."""
    u0, u1, v0, v1 = (float(d) for d in domain)
    out = []
    for _ in range(int(count)):
        cu = rng.uniform(u0 + 0.25 * (u1 - u0), u1 - 0.25 * (u1 - u0))
        cv = rng.uniform(v0 + 0.25 * (v1 - v0), v1 - 0.25 * (v1 - v0))
        ru = rng.uniform(0.3, 0.98) * (min(cu - u0, u1 - cu) - margin)
        rv = rng.uniform(0.3, 0.98) * (min(cv - v0, v1 - cv) - margin)
        out.append((_ProductBump(bump1(cu, ru), bump1(cv, rv)),
                    {"cu": cu, "cv": cv, "ru": ru, "rv": rv}))
    return out


def _factor_jets(b, x, memo):
    """Value and derivative arrays of the 1-D factor b at the nodes x,
    evaluated once per factor object (memo is keyed by id)."""
    if id(b) not in memo:
        (xj,) = seed_jets((x,), order=1)
        bj = b(xj)
        memo[id(b)] = bj.v, bj.g[0]
    return memo[id(b)]


def stability_scan(P, bumps=None, n_centers=5, n_radii=5, nu=None, nv=None,
                   witness_threshold=-1e-6, minimal_tol=1e-6):
    """Evaluate the stability form over a family of normal-speed bumps.

    The frame is evaluated once per node chunk of the quadrature grid and
    every bump is reduced against it; each Q equals
    quadratic_form(P, F, nu=nu, nv=nv) bit for bit.  A product bump
    F = bu(u) bv(v) (one with .factors, as product_bump_lattice and
    random_product_bumps build) is differentiated by sum factorization:
    each distinct factor is evaluated once, on first-order jets at the
    grid's u- or v-nodes, and each chunk gathers F = a b, F_u = a' b and
    F_v = a b' from them, leaving ZF = (F_u gamma_v - F_v gamma_u) / det
    per node.
    Any other bump goes through tangential(), as in quadratic_form.  The
    scan raises if max |H| over the non-characteristic nodes exceeds
    minimal_tol.
    Returns the full table (in lattice order), the minimum and its argmin
    (both None for an empty family), and the first witness with
    Q < witness_threshold (None if the scan stays nonnegative).
    """
    if bumps is None:
        u0, u1, v0, v1 = P.domain
        cell = max(u1 - u0, v1 - v0) / float(nu or P.grid[0])
        bumps = product_bump_lattice(P.domain, n_centers, n_radii,
                                     margin=cell)
    bumps = list(bumps)
    grid = _grid_for(P, nu, nv, "simpson")
    us, vs = grid.U[:, 0], grid.V[0, :]
    u_memo, v_memo = {}, {}
    factors = []
    for F, _ in bumps:
        fac = getattr(F, "factors", None)
        factors.append(None if fac is None else
                       (_factor_jets(fac[0], us, u_memo),
                        _factor_jets(fac[1], vs, v_memo)))
    worst = []

    def densities(zz, s):
        worst.append(_max_H(zz))
        iu, iv = np.divmod(np.arange(s.start, s.start + zz["W"].size),
                           vs.size)
        flds = zz["flds"]
        gu, gv = flds["gamma_u"].v, flds["gamma_v"].v
        rdet = 1.0 / flds["det"].v
        pot = _potential(zz)
        for (F, _), fac in zip(bumps, factors):
            if fac is None:
                q = _q_of(zz, F, pot)
            else:
                (a, da), (b, db) = fac
                a, da, b, db = a[iu], da[iu], b[iv], db[iv]
                # tangential()'s jet operation order keeps Q bit-identical
                ZF = ((da * b) * gv + -((a * db) * gu)) * rdet
                q = _q_density(pot, a * b, ZF)
            yield q * zz["W"]

    Qs = []
    if bumps:  # an empty family evaluates no frame
        Qs, _ = _integrate(P, grid, densities)
        _require_minimal(worst, minimal_tol)
    table = [dict(meta, Q=Q) for (_, meta), Q in zip(bumps, Qs)]
    witness = next((rec for rec in table if rec["Q"] < witness_threshold),
                   None)
    if table:
        argmin = min(table, key=lambda e: e["Q"])
        min_value = argmin["Q"]
    else:
        argmin = min_value = None
    return {"table": table, "min_value": min_value, "argmin": argmin,
            "witness": witness, "count": len(table)}


def intrinsic_stability_form(Gr, F, nu=None, nv=None, minimal_tol=1e-8):
    """Both sides of the graph stability inequality for an H-minimal
    intrinsic graph: stable means lhs <= rhs for every compactly
    supported F, with

        lhs = integral of (phi_v^2 + 2 B_phi(phi_v)) F^2 / W du dv,
        rhs = integral of (B_phi F)^2 / W du dv,
        W = sqrt(1 + (B_phi phi)^2).

    rhs - lhs equals the geometric form Q(F) of the associated patch.
    Raises if the graph is not H-minimal (B_phi(B_phi phi) must vanish).
    """
    from .fields import jet_partial
    from .surfaces import _as_jet

    grid = QuadratureGrid(Gr.domain, nu or Gr.grid[0], nv or Gr.grid[1],
                          "simpson")
    U, V = grid.U, grid.V
    uj, vj = seed_jets((U, V), order=2)
    phij = _as_jet(Gr.phi(uj, vj), uj)
    phi_u, phi_v = jet_partial(phij, 0), jet_partial(phij, 1)
    Bphi = phi_u + phij * phi_v
    # H-minimality gate: B_phi applied to B_phi(phi)
    BBphi = Bphi.g[0] + phij.v * Bphi.g[1]
    worst = float(np.max(np.abs(BBphi)))
    if worst > minimal_tol:
        raise ValueError("graph is not H-minimal "
                         "(max |B(B phi)| = %g)" % worst)
    Bphi_v = phi_v.g[0] + phij.v * phi_v.g[1]
    Fj = _as_jet(F(uj, vj), uj)
    BF = Fj.g[0] + phij.v * Fj.g[1]
    W = np.sqrt(1.0 + Bphi.v ** 2)
    Fv = Fj.v
    lhs = pairwise_sum((phi_v.v ** 2 + 2.0 * Bphi_v) * Fv ** 2 / W
                       * grid.weights)
    rhs = pairwise_sum(BF ** 2 / W * grid.weights)
    return {"lhs": float(lhs), "rhs": float(rhs),
            "Q": float(rhs - lhs), "max_BBphi": worst}
