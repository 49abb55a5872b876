"""Command-line front end.

Verbs: curvature, measure, identities, variation, stability, flow-check,
catalog.  A flat JSON config file can hold any flag value (keys named like
the long flags, dashes as underscores); explicit flags override the config.
Reports are byte-stable: floats are printed with their shortest round-trip
representation and row order is deterministic.

Exit codes: 0 all checks passed (or nothing to check), 1 at least one
check failed, 2 usage/config error.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import measure as msr
from . import variation as var
from .curvature import IDENTITY_IDS, curvature_grid, identity_battery
from .fields import _zero, bump2
from .groups import build_group
from .surfaces import _poly2, build_surface, catalog_ids

IDENTITY_TOL = 1e-4
FLOW_TOL = 1e-4
_ASCII = json.encoder.encode_basestring_ascii  # a str as a JSON literal

_CSV_HELP = """\
CSV columns by verb:
  curvature:  u, v, p, q, omega, W, H_param[, H_levelset], A, obar
              (H_param, H_levelset, A, obar empty at characteristic nodes)
  identities: identity_id, surface_id, residual, tolerance, pass
  flow-check: u, v, residual, tolerance, pass
Other verbs emit JSON; a JSON report that would hold a NaN or infinity
fails with exit code 2."""


# ---------------------------------------------------------------------------
# report rendering


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def render_csv(rows, fieldnames=None):
    if fieldnames is None:
        fieldnames = list(rows[0].keys()) if rows else []
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_cell(row.get(k)) for k in fieldnames))
    return "\n".join(lines) + "\n"


def _json(x, pad):
    """x as JSON text whose line is indented by pad (see render_json)."""
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError("Out of range float values are not JSON "
                             "compliant: %r" % float(x))
        return repr(float(x))
    if isinstance(x, str):
        return _ASCII(x)
    if isinstance(x, (bool, np.bool_)) or x is None:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return repr(int(x))
    inner = pad + "  "
    if isinstance(x, dict):
        items, ends = [_ASCII(str(k)) + ": " + _json(v, inner)
                       for k, v in x.items()], "{}"
    elif isinstance(x, (list, tuple, np.ndarray)):
        items, ends = [_json(v, inner) for v in x], "[]"
    else:  # json.dumps raises its TypeError for any other type
        return json.dumps(x)
    body = "\n" + inner + (",\n" + inner).join(items) + "\n" + pad
    return ends[0] + body + ends[1] if items else ends


def render_json(obj):
    """JSON text of obj in one recursive pass: json.dumps(obj, indent=2)
    once numpy scalars and arrays are plain numbers and lists and keys are
    str, byte for byte; a NaN or infinity raises ValueError (not JSON)."""
    return _json(obj, "") + "\n"


def emit_report(rows, format="csv", path=None, fieldnames=None):
    """Write rows (list of dicts -> CSV) or any object (-> JSON)."""
    if format == "csv":
        text = render_csv(rows, fieldnames)
    elif format == "json":
        text = render_json(rows)
    else:
        raise ValueError("unknown report format %r" % format)
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError("cannot write report to %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# shared helpers


def _sample_lattice(domain, count, inset=0.12):
    """Deterministic k x k lattice strictly inside the rectangle."""
    u0, u1, v0, v1 = domain
    k = max(1, int(np.ceil(np.sqrt(count))))
    us = np.linspace(u0 + inset * (u1 - u0), u1 - inset * (u1 - u0), k)
    vs = np.linspace(v0 + inset * (v1 - v0), v1 - inset * (v1 - v0), k)
    return [(float(u), float(v)) for u in us for v in vs][:count]


def _domain_bump(domain, shift=0.0, scale=0.4):
    u0, u1, v0, v1 = domain
    cu = 0.5 * (u0 + u1) + shift * (u1 - u0)
    cv = 0.5 * (v0 + v1) - shift * (v1 - v0)
    return bump2(cu, cv, scale * (u1 - u0), scale * (v1 - v0))


def _parse_component(spec, domain):
    """One deformation coefficient: null/0, a number, bump:cu,cv,ru,rv,
    poly:<json terms in u, v>, or the string "auto"."""
    if spec in (None, 0, "0", "", "zero"):
        return _zero
    if spec == "auto":
        return _domain_bump(domain)
    if isinstance(spec, (int, float)):
        c = float(spec)
        return lambda u, v: c + 0.0 * u + 0.0 * v
    s = str(spec)
    if s.startswith("bump:"):
        cu, cv, ru, rv = (float(z) for z in s[5:].split(","))
        return bump2(cu, cv, ru, rv)
    if s.startswith("poly:"):
        return _poly2(json.loads(s[5:]))
    raise ValueError("cannot parse deformation component %r" % (spec,))


def parse_field_spec(spec, domain):
    """Deformation field from a JSON document {"a":..., "b":..., "k":...}
    or the shorthand "auto" (centered bumps scaled to the domain)."""
    if spec in (None, "auto"):
        return var.DeformationField(_domain_bump(domain, 0.0),
                                    _domain_bump(domain, 0.04, 0.36),
                                    _domain_bump(domain, -0.04, 0.36),
                                    name="auto")
    doc = json.loads(spec) if isinstance(spec, str) else dict(spec)
    return var.DeformationField(_parse_component(doc.get("a"), domain),
                                _parse_component(doc.get("b"), domain),
                                _parse_component(doc.get("k"), domain),
                                name=str(doc.get("name", "cli")))


# ---------------------------------------------------------------------------
# verbs


def cmd_curvature(cfg):
    S = build_surface(cfg["surface"], grid=None)
    k = max(2, int(np.ceil(np.sqrt(cfg["points"]))))
    cols = curvature_grid(S.patch, nu=k, nv=k)
    order = ["u", "v", "p", "q", "omega", "W", "H_param", "H_levelset",
             "A", "obar"]
    names = [nm for nm in order if nm in cols]
    # characteristic nodes have no H, A or obar: null (JSON) or empty (CSV)
    cells = [[x if ok else None
              for x, ok in zip(cols[nm].tolist(),
                               np.isfinite(cols[nm]).tolist())]
             for nm in names]
    rows = [dict(zip(names, row)) for row in zip(*cells)]
    return rows, "csv", names, True


def cmd_measure(cfg):
    S = build_surface(cfg["surface"])
    n = int(cfg["grid"])
    q = cfg["quantity"]
    if q == "perimeter":
        res = msr.perimeter(S.patch, nu=n, nv=n)
        out = res.to_dict()
    elif q == "eps-area":
        res = msr.eps_area(S.patch, float(cfg["eps"]), nu=n, nv=n)
        out = res.to_dict()
        out["eps"] = float(cfg["eps"])
    elif q == "scaling":
        lam = float(cfg["lam"])
        ratio = msr.scaling_ratio(S.patch, lam, nu=n, nv=n)
        out = {"value": ratio, "lambda": lam, "expected": lam ** 3,
               "grid": [n, n]}
    else:
        raise ValueError("unknown measure quantity %r" % q)
    out.update({"surface": cfg["surface"], "quantity": q})
    return out, "json", None, True


def cmd_identities(cfg):
    S = build_surface(cfg["surface"])
    if S.levelset is None:
        raise ValueError("surface %r has no level-set form" % cfg["surface"])
    U, V = np.array(_sample_lattice(S.patch.domain, int(cfg["points"]))).T
    records = identity_battery(S.levelset, S.patch.point(U, V).T)
    worst = {}
    for rec in records:
        worst.setdefault(rec["identity"], []).append(abs(rec["residual"]))
    rows = []
    ok = True
    for ident in IDENTITY_IDS:
        if ident not in worst:
            continue
        # a NaN at any point fails the row; its residual cell stays empty
        res = float(np.max(worst[ident]))
        p = res <= IDENTITY_TOL
        ok = ok and p
        rows.append({"identity_id": ident, "surface_id": cfg["surface"],
                     "residual": None if math.isnan(res) else res,
                     "tolerance": IDENTITY_TOL, "pass": p})
    return rows, "csv", ["identity_id", "surface_id", "residual",
                         "tolerance", "pass"], ok


def cmd_variation(cfg):
    S = build_surface(cfg["surface"])
    P = S.patch
    D = parse_field_spec(cfg["field"], P.domain)
    n = int(cfg["grid"])
    mode = cfg["mode"]
    if mode == "v1":
        value = var.first_variation_analytic(P, D, nu=n, nv=n)
    elif mode == "v2-full":
        value = var.second_variation(P, D, mode="full", nu=n, nv=n)
    elif mode in ("v2-geometric", "v2-geom"):
        value = var.second_variation(P, D, mode="geometric", nu=n, nv=n)
    elif mode.startswith("numeric:"):
        order = int(mode.split(":", 1)[1])
        value = var.numeric_variation(P, D, order=order, nu=n, nv=n)
    else:
        raise ValueError("unknown variation mode %r" % mode)
    out = {"surface": cfg["surface"], "mode": mode, "grid": [n, n],
           "field": cfg["field"] or "auto", "value": value}
    return out, "json", None, True


_FAMILY_FORMS = "bump-lattice[:<nc>,<nr>] or random:<count>,<seed>"


def _parse_family(spec, P, nquad):
    if spec in (None, "bump-lattice"):
        return None  # stability_scan builds the default lattice
    kind, colon, params = str(spec).partition(":")
    if kind not in ("bump-lattice", "random") or not colon:
        raise UsageError("unknown stability family %r (expected %s)"
                         % (spec, _FAMILY_FORMS))
    try:
        first, second = (int(z) for z in params.split(","))
        if first < 0 or second < 0:
            raise ValueError
    except ValueError:
        raise UsageError("bad stability family %r: expected %s, with"
                         " non-negative integers" % (spec, _FAMILY_FORMS)
                         ) from None
    if kind == "bump-lattice":
        u0, u1, v0, v1 = P.domain
        cell = max(u1 - u0, v1 - v0) / float(nquad)
        return var.product_bump_lattice(P.domain, first, second,
                                        margin=cell)
    return var.random_product_bumps(P.domain, first,
                                    np.random.default_rng(second))


def cmd_stability(cfg):
    S = build_surface(cfg["surface"])
    n = int(cfg["grid"])
    bumps = _parse_family(cfg["family"], S.patch, n)
    scan = var.stability_scan(S.patch, bumps=bumps, nu=n, nv=n)
    out = {"surface": cfg["surface"], "family": cfg["family"] or
           "bump-lattice", "grid": [n, n], "count": scan["count"],
           "min_value": scan["min_value"], "argmin": scan["argmin"],
           "witness": scan["witness"], "table": scan["table"]}
    return out, "json", None, True


def cmd_flow_check(cfg):
    S = build_surface(cfg["surface"])
    pts = _sample_lattice(S.patch.domain, int(cfg["points"]))
    U, V = np.array(pts).T
    rows = []
    ok = True
    for (u, v), res in zip(pts, msr.mcf_residual(S.patch, U, V).tolist()):
        p = res <= FLOW_TOL
        ok = ok and p
        rows.append({"u": u, "v": v, "residual": res,
                     "tolerance": FLOW_TOL, "pass": p})
    return rows, "csv", ["u", "v", "residual", "tolerance", "pass"], ok


def cmd_catalog(cfg):
    out = {"surfaces": catalog_ids(),
           "groups": ["h1", "hn:<n>", "engel",
                      "{layer_dims: [...], brackets: [...]} (JSON)"],
           "fields": ["x1", "x2", "t", "s<k>", "gauge", "gauge^<k>",
                      "poly:<json terms>"]}
    return out, "json", None, True


_VERBS = {
    "curvature": cmd_curvature,
    "measure": cmd_measure,
    "identities": cmd_identities,
    "variation": cmd_variation,
    "stability": cmd_stability,
    "flow-check": cmd_flow_check,
    "catalog": cmd_catalog,
}


# ---------------------------------------------------------------------------
# argument handling


@functools.lru_cache(maxsize=None)  # built once, on the first run
def _build_parser():
    p = argparse.ArgumentParser(
        prog="carnot-calc",
        description="Sub-Riemannian surface calculus on Carnot groups.",
        epilog=_CSV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("verb", choices=sorted(_VERBS.keys()))
    p.add_argument("--surface", help="catalog surface id")
    p.add_argument("--grid", type=int,
                   help="quadrature cells per axis (even, >= 8)")
    p.add_argument("--points", type=int, help="sample point count")
    p.add_argument("--quantity", choices=["perimeter", "eps-area", "scaling"],
                   help="measure verb quantity")
    p.add_argument("--eps", type=float, help="eps-area parameter")
    p.add_argument("--lam", type=float, help="scaling dilation factor")
    p.add_argument("--field", help="deformation field JSON or 'auto'")
    p.add_argument("--mode", help="variation mode: "
                                  "v1|v2-full|v2-geometric (or v2-geom)|"
                                  "numeric:1|numeric:2")
    p.add_argument("--family", help="stability family: " + _FAMILY_FORMS)
    p.add_argument("--config", help="flat JSON config file; flags override")
    p.add_argument("--out", help="report path (default stdout)")
    p.add_argument("--format", choices=["csv", "json"],
                   help="report format (default per verb)")
    return p


_DEFAULTS = {
    "surface": "t-graph:parab",
    "grid": 128,
    "points": 9,
    "quantity": "perimeter",
    "eps": 1e-3,
    "lam": 2.0,
    "field": None,
    "mode": "v1",
    "family": None,
    "out": None,
    "format": None,
}


def _merge_config(args):
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError("cannot read config %s: %s" % (args.config, exc))
        if not isinstance(config, dict):
            raise UsageError("config must be a flat JSON object")
    kinds = {a.dest: a.type or str for a in _build_parser()._actions}
    cfg = {}
    for key, default in _DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
        elif key in config:
            cfg[key] = _config_value(key, config[key], kinds[key])
        else:
            cfg[key] = default
    if cfg["points"] < 1:
        raise UsageError("--points must be positive")
    # only the verbs that integrate build a Simpson grid (even, >= 8 cells)
    if (args.verb in ("measure", "variation", "stability")
            and (cfg["grid"] < 8 or cfg["grid"] % 2)):
        raise UsageError("--grid must be an even number >= 8")
    return cfg


def _config_value(key, value, kind):
    """A config value, if it has the type of the key's flag: any number for
    a float, an object too for "field", null for a flag unset by default."""
    kinds = {float: (int, float), str: (str, dict) if key == "field"
             else str}.get(kind, kind)
    if (value is None and _DEFAULTS[key] is None
            or isinstance(value, kinds) and not isinstance(value, bool)):
        return value
    raise UsageError("config value of %s must be of type %s, not %s"
                     % (key, kind.__name__, json.dumps(value)))


class UsageError(ValueError):
    pass


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _merge_config(args)
        result, default_fmt, fieldnames, ok = _VERBS[args.verb](cfg)
        fmt = cfg["format"] or default_fmt
        if fmt == "csv" and not isinstance(result, list):
            raise UsageError("verb %s emits JSON only" % args.verb)
        emit_report(result, format=fmt, path=cfg["out"],
                    fieldnames=fieldnames)
    except (UsageError, ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return 0 if ok else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
