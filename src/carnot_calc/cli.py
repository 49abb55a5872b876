"""Command-line front end.

Verbs: curvature, measure, identities, variation, stability, flow-check,
catalog.  A verb reads the flags named by its parameters, --out and
--format, and no other.  A flat JSON config file can hold any flag's
value; explicit flags override it, and a key the verb does not read is
skipped.  Reports are byte-stable: floats are printed with their shortest
round-trip representation and row order is deterministic.

Exit codes: 0 all checks passed (or nothing to check), 1 at least one
check failed, 2 usage/config error.
"""

import argparse
import ctypes
import functools
import inspect
import json
import math
import sys

import numpy as np

from . import measure as msr
from . import variation as var
from .curvature import curvature_grid, identity_battery
from .fields import _zero, bump2
from .groups import build_group
from .surfaces import _poly2, build_surface, catalog_ids

IDENTITY_TOL = 1e-4
FLOW_TOL = 1e-4
_ASCII = json.encoder.encode_basestring_ascii  # a str as a JSON literal
# Freed memory that glibc's malloc keeps at the top of its heap: 64
# float64 arrays of a quadrature block's size (4 MiB), room for the jet
# temporaries of an order-2 block.  Without it, anything over 128 KiB
# freed at the heap top goes back to the kernel, and the next block
# faults the same pages back in, zero-filled.
HEAP_TOP_PAD = 64 * msr._BLOCK_NODES * np.dtype(float).itemsize
_M_TOP_PAD = -2  # mallopt's parameter number (glibc's malloc.h)

_CSV_HELP = """\
CSV columns by verb:
  curvature:  u, v, p, q, omega, W, H_param, H_levelset, A, obar
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


def _sample_lattice(domain, count):
    """Deterministic k x k lattice strictly inside the rectangle, inset from
    each edge by 12% of the side."""
    u0, u1, v0, v1 = domain
    k = max(1, int(np.ceil(np.sqrt(count))))
    us = np.linspace(u0 + 0.12 * (u1 - u0), u1 - 0.12 * (u1 - u0), k)
    vs = np.linspace(v0 + 0.12 * (v1 - v0), v1 - 0.12 * (v1 - v0), k)
    return [(float(u), float(v)) for u in us for v in vs][:count]


def _domain_bump(domain, shift=0.0, scale=0.4):
    u0, u1, v0, v1 = domain
    cu = 0.5 * (u0 + u1) + shift * (u1 - u0)
    cv = 0.5 * (v0 + v1) - shift * (v1 - v0)
    return bump2(cu, cv, scale * (u1 - u0), scale * (v1 - v0))


def _parse_component(spec, domain):
    """One deformation coefficient: null/0, a number, bump:cu,cv,ru,rv,
    poly:<json terms in u, v>, or the string "auto"."""
    if isinstance(spec, bool):
        raise ValueError("cannot parse deformation component %r" % (spec,))
    if spec in (None, 0, "0", "", "zero"):
        return _zero
    if spec == "auto":
        return _domain_bump(domain)
    if isinstance(spec, (int, float)):
        c = float(spec)
        return lambda u, v: c + 0.0 * u + 0.0 * v
    s = str(spec)
    if s.startswith("bump:"):
        try:
            cu, cv, ru, rv = (float(z) for z in s[5:].split(","))
        except ValueError:
            raise ValueError("cannot parse deformation component %r: "
                             "expected bump:cu,cv,ru,rv" % s) from None
        return bump2(cu, cv, ru, rv)
    if s.startswith("poly:"):
        return _poly2(json.loads(s[5:]))
    raise ValueError("cannot parse deformation component %r" % (spec,))


def parse_field_spec(spec, domain):
    """Deformation field from a JSON object {"a":..., "b":..., "k":...}
    or the shorthand "auto" (centered bumps scaled to the domain)."""
    if spec in (None, "auto"):
        return var.DeformationField(_domain_bump(domain, 0.0),
                                    _domain_bump(domain, 0.04, 0.36),
                                    _domain_bump(domain, -0.04, 0.36),
                                    name="auto")
    doc = json.loads(spec) if isinstance(spec, str) else spec
    if not isinstance(doc, dict):
        raise ValueError("deformation field must be a JSON object or "
                         "'auto', not %s" % json.dumps(doc))
    for key in doc:
        if key not in ("a", "b", "k", "name"):
            raise ValueError("deformation field key %s is not one of a, b, "
                             "k, name" % json.dumps(key))
    return var.DeformationField(_parse_component(doc.get("a"), domain),
                                _parse_component(doc.get("b"), domain),
                                _parse_component(doc.get("k"), domain),
                                name=str(doc.get("name", "cli")))


# ---------------------------------------------------------------------------
# verbs: flags as keywords -> (report, default format, all checks passed)


def cmd_curvature(surface, points):
    S = build_surface(surface, grid=None)
    k = max(2, int(np.ceil(np.sqrt(points))))
    cols = curvature_grid(S.patch, nu=k, nv=k)
    names = ["u", "v", "p", "q", "omega", "W", "H_param", "H_levelset",
             "A", "obar"]
    # characteristic nodes have no H, A or obar: null (JSON) or empty (CSV)
    cells = [[x if ok else None
              for x, ok in zip(cols[nm].tolist(),
                               np.isfinite(cols[nm]).tolist())]
             for nm in names]
    return [dict(zip(names, row)) for row in zip(*cells)], "csv", True


def cmd_measure(surface, grid, quantity, eps, lam):
    P = build_surface(surface).patch
    if quantity == "perimeter":
        out = msr.perimeter(P, nu=grid, nv=grid).to_dict()
    elif quantity == "eps-area":
        out = dict(msr.eps_area(P, eps, nu=grid, nv=grid).to_dict(), eps=eps)
    elif quantity == "scaling":
        ratio = msr.scaling_ratio(P, lam, nu=grid, nv=grid)
        out = {"value": ratio, "lambda": lam, "expected": lam ** 3,
               "grid": [grid, grid]}
    else:
        raise ValueError("unknown measure quantity %r" % quantity)
    out.update({"surface": surface, "quantity": quantity})
    return out, "json", True


def cmd_identities(surface, points):
    S = build_surface(surface)
    U, V = np.array(_sample_lattice(S.patch.domain, points)).T
    records = identity_battery(S.levelset, S.patch.point(U, V).T)
    worst = {}  # in IDENTITY_IDS order, as the records come
    for rec in records:
        worst.setdefault(rec["identity"], []).append(abs(rec["residual"]))
    rows = []
    for ident, residuals in worst.items():
        # a NaN at any point fails the row; its residual cell stays empty
        res = float(np.max(residuals))
        rows.append({"identity_id": ident, "surface_id": surface,
                     "residual": None if math.isnan(res) else res,
                     "tolerance": IDENTITY_TOL, "pass": res <= IDENTITY_TOL})
    return rows, "csv", all(row["pass"] for row in rows)


def cmd_variation(surface, grid, field, mode):
    P = build_surface(surface).patch
    D = parse_field_spec(field, P.domain)
    if mode == "v1":
        value = var.first_variation_analytic(P, D, nu=grid, nv=grid)
    elif mode == "v2-full":
        value = var.second_variation(P, D, mode="full", nu=grid, nv=grid)
    elif mode in ("v2-geometric", "v2-geom"):
        value = var.second_variation(P, D, mode="geometric", nu=grid,
                                     nv=grid)
    elif mode.startswith("numeric:"):
        order = int(mode.split(":", 1)[1])
        value = var.numeric_variation(P, D, order=order, nu=grid, nv=grid)
    else:
        raise ValueError("unknown variation mode %r" % mode)
    return {"surface": surface, "mode": mode, "grid": [grid, grid],
            "field": field or "auto", "value": value}, "json", True


_FAMILY_FORMS = "bump-lattice[:<nc>,<nr>] or random:<count>,<seed>"


def _parse_family(spec, domain):
    if spec in (None, "bump-lattice"):
        return {}  # stability_scan's keywords; it builds the lattice
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
        return {"n_centers": first, "n_radii": second}
    return {"bumps": var.random_product_bumps(
        domain, first, np.random.default_rng(second))}


def cmd_stability(surface, grid, family):
    P = build_surface(surface).patch
    scan = var.stability_scan(P, nu=grid, nv=grid,
                              **_parse_family(family, P.domain))
    return {"surface": surface, "family": family or "bump-lattice",
            "grid": [grid, grid], "count": scan["count"],
            "min_value": scan["min_value"], "argmin": scan["argmin"],
            "witness": scan["witness"], "table": scan["table"]}, "json", True


def cmd_flow_check(surface, points):
    S = build_surface(surface)
    pts = _sample_lattice(S.patch.domain, points)
    U, V = np.array(pts).T
    rows = [{"u": u, "v": v, "residual": res, "tolerance": FLOW_TOL,
             "pass": res <= FLOW_TOL}
            for (u, v), res in zip(pts, msr.mcf_residual(S.patch, U, V)
                                   .tolist())]
    return rows, "csv", all(row["pass"] for row in rows)


def cmd_catalog():
    return {"surfaces": catalog_ids(),
            "groups": ["h1", "hn:<n>", "engel",
                       "{layer_dims: [...], brackets: [...]} (JSON)"],
            "fields": ["x1", "x2", "t", "s<k>", "gauge", "gauge^<k>",
                       "poly:<json terms>"]}, "json", True


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

# name: (type, default, help) of every flag but --config
_FLAGS = {
    "surface": (str, "t-graph:parab", "catalog surface id"),
    "grid": (int, 128, "quadrature cells per axis (even, >= 8)"),
    "points": (int, 9, "sample point count (>= 1)"),
    "quantity": (str, "perimeter", "perimeter|eps-area|scaling"),
    "eps": (float, 1e-3, "eps-area parameter (>= 0)"),
    "lam": (float, 2.0, "scaling dilation factor (> 0)"),
    "field": (str, None, "deformation field: a JSON object or 'auto'"),
    "mode": (str, "v1", "variation mode: v1|v2-full|v2-geometric (or "
                        "v2-geom)|numeric:1|numeric:2"),
    "family": (str, None, "stability family: " + _FAMILY_FORMS),
    "out": (str, None, "report path (default stdout)"),
    "format": (str, None, "report format: csv|json (default per verb)"),
}
_READS = {verb: [*inspect.signature(fn).parameters, "out", "format"]
          for verb, fn in _VERBS.items()}  # the flags each verb reads


@functools.lru_cache(maxsize=None)  # built once, on the first run
def _build_parser():
    p = argparse.ArgumentParser(
        prog="carnot-calc",
        description="Sub-Riemannian surface calculus on Carnot groups.",
        epilog="Flags each verb reads (and --config):\n" + "".join(
            "  %-12s%s\n" % (verb + ":", " ".join("--" + k for k in reads))
            for verb, reads in sorted(_READS.items())) + "\n" + _CSV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("verb", choices=sorted(_VERBS.keys()))
    for name, (kind, _, text) in _FLAGS.items():
        p.add_argument("--" + name, type=kind, help=text)
    p.add_argument("--config", help="flat JSON config file; flags override")
    return p


def _merge_config(args):
    """The value of each flag that args.verb reads: the explicit flag, else
    the config's key, else the default in _FLAGS."""
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError("cannot read config %s: %s" % (args.config, exc))
        if not isinstance(config, dict):
            raise UsageError("config must be a flat JSON object")
    config = {key: _config_value(key, value) for key, value in config.items()}
    reads = _READS[args.verb]
    for key in _FLAGS:
        if key not in reads and getattr(args, key) is not None:
            raise UsageError("%s reads no --%s" % (args.verb, key))
    cfg = {key: config.get(key, _FLAGS[key][1]) if getattr(args, key) is None
           else getattr(args, key) for key in reads}
    if cfg.get("points", 1) < 1:
        raise UsageError("--points must be positive")
    grid = cfg.get("grid", 8)  # a Simpson grid: an even cell count >= 8
    if grid < 8 or grid % 2:
        raise UsageError("--grid must be an even number >= 8")
    return cfg


def _config_value(key, value):
    """A config value as its flag's type, if it has it: any number for a
    float, an object too for "field", null for a flag unset by default."""
    if key not in _FLAGS:
        raise UsageError("config key %s names no flag" % json.dumps(key))
    kind, default, _ = _FLAGS[key]
    kinds = {float: (int, float), str: (str, dict) if key == "field"
             else str}.get(kind, kind)
    if value is None and default is None:
        return value
    if isinstance(value, kinds) and not isinstance(value, bool):
        return float(value) if kind is float else value
    raise UsageError("config value of %s must be of type %s, not %s"
                     % (key, kind.__name__, json.dumps(value)))


class UsageError(ValueError):
    pass


@functools.lru_cache(maxsize=None)  # once, on the first run
def _pad_heap_top():
    """Ask glibc's malloc to keep HEAP_TOP_PAD bytes of freed memory at the
    top of its heap.  The setting is process-wide and lasts, so the CLI,
    which owns its process, makes it once and no library module does; a
    call per run cost the small pointwise verbs 40-60 us each.  A C
    library without mallopt leaves the process as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no such library or call
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, HEAP_TOP_PAD)


def run(argv=None):
    _pad_heap_top()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        kwargs = _merge_config(args)
        path, fmt = kwargs.pop("out"), kwargs.pop("format")
        result, default_fmt, ok = _VERBS[args.verb](**kwargs)
        fmt = fmt or default_fmt
        if fmt == "csv" and not isinstance(result, list):
            raise UsageError("verb %s emits JSON only" % args.verb)
        emit_report(result, format=fmt, path=path)
    except (UsageError, ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return 0 if ok else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
