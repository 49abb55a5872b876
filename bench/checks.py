"""Output checks for the benchmark cases, each through an independent route.

Every case run must exit with code 0 and emit a report that parses
strictly: JSON reports may not contain bare NaN or Infinity, which are not
JSON.  On top of that each case has a check that compares its numbers with
a route that does not share the formula: the dilation law for scaling, the
level-set curvature for the parametric one, the numeric second/first
variation for the analytic ones.
"""

import json
import math
from collections import namedtuple

Run = namedtuple("Run", "code text seconds error")

CSV_VERBS = ("curvature", "identities", "flow-check")
# cli.render_csv quotes no cell, and the identities report echoes the
# surface id, which holds commas for "t-graph:poly:[...]" surfaces.  Rows
# are split so that the surplus commas stay in this column.
WIDE_COLUMN = "surface_id"
SCALING_TOL = 1e-9
CURVATURE_TOL = 1e-8
VARIATION_TOL = 1e-4


class ReportError(ValueError):
    pass


def _reject_constant(token):
    raise ReportError("report holds %s, which is not JSON" % token)


def parse_json(text):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ReportError("report is not JSON: %s" % exc) from None


def parse_csv(text):
    """Rows of an unquoted CSV report as dicts, header first."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ReportError("CSV report has no rows")
    header = lines[0].split(",")
    wide = header.index(WIDE_COLUMN) if WIDE_COLUMN in header else None
    rows = []
    for n, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        extra = len(cells) - len(header)
        if extra > 0 and wide is not None:
            cells[wide:wide + extra + 1] = [
                ",".join(cells[wide:wide + extra + 1])]
        if len(cells) != len(header):
            raise ReportError("CSV row %d has %d cells for %d columns"
                              % (n, len(cells), len(header)))
        rows.append(dict(zip(header, cells)))
    return rows


def parse(case, text):
    return parse_csv(text) if case.argv[0] in CSV_VERBS else parse_json(text)


def _require(ok, message, *args):
    if not ok:
        raise ReportError(message % args)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


def _arg(case, flag):
    return case.argv[case.argv.index(flag) + 1]


def _peer(peers, name):
    """Parsed report of another case of the same pass."""
    _require(peers[name] is not None, "cross-check input %s failed", name)
    return peers[name]


def _perimeter(case, rep, peers, refs):
    _require(rep["value"] > 0, "perimeter %r is not positive", rep["value"])


def _scaling(case, rep, peers, refs):
    lam = float(_arg(case, "--lam"))
    err = rep["value"] / lam ** 3 - 1.0
    _require(abs(err) <= SCALING_TOL,
             "scaling ratio / lam^3 - 1 = %.3g", err)


def _eps_area(case, rep, peers, refs):
    per = _peer(peers, "perimeter")
    slack = (rep["error_estimate"] or 0.0) + (per["error_estimate"] or 0.0)
    _require(rep["value"] >= per["value"] - slack,
             "eps-area %r is below the perimeter %r", rep["value"],
             per["value"])


def _against(ref_name):
    """Check a variation value against the reference run ref_name."""
    def check(case, rep, peers, refs):
        ref = _peer(refs, ref_name)["value"]
        _require(_close(rep["value"], ref, VARIATION_TOL),
                 "%s %r disagrees with %s %r", case.name, rep["value"],
                 ref_name, ref)
    return check


def _curvature(case, rows, peers, refs):
    points = int(_arg(case, "--points"))
    k = max(2, math.ceil(math.sqrt(points)))
    _require(len(rows) == k * k, "%d rows, expected %d", len(rows), k * k)
    for i, row in enumerate(rows):
        hp, hl = float(row["H_param"]), float(row["H_levelset"])
        _require(math.isfinite(hp) and math.isfinite(hl),
                 "row %d has a non-finite curvature", i)
        _require(abs(hp - hl) <= CURVATURE_TOL * max(1.0, abs(hp)),
                 "row %d: H_param %r vs H_levelset %r", i, hp, hl)


def _all_pass(case, rows, peers, refs):
    bad = [i for i, row in enumerate(rows) if row["pass"] != "true"]
    _require(not bad, "rows %s do not pass", bad)
    surface = _arg(case, "--surface")
    _require(all(row.get(WIDE_COLUMN, surface) == surface for row in rows),
             "rows name another surface than %s", surface)


def _lattice(case, rep, peers, refs):
    _require(rep["min_value"] < 0, "min_value %r is not negative",
             rep["min_value"])
    _require(rep["witness"] is not None and rep["witness"]["Q"] < 0,
             "no negative witness")


def _random(case, rep, peers, refs):
    count = int(_arg(case, "--family").split(":")[1].split(",")[0])
    _require(rep["count"] == count == len(rep["table"]),
             "count %r, expected %d", rep["count"], count)
    _require(rep["min_value"] == min(r["Q"] for r in rep["table"]),
             "min_value is not the minimum of the table")


CHECKS = {"perimeter": _perimeter, "scaling": _scaling,
          "eps_area": _eps_area, "v1": _against("numeric1_512"),
          "v2_full": _against("numeric2_256"),
          "numeric2": _against("v2_full_128"), "curvature": _curvature,
          "identities": _all_pass, "flow_check": _all_pass,
          "stability_lattice": _lattice, "stability_random": _random}


def _parse_runs(cases, runs):
    """Parsed reports, or None for a run that failed, plus the problems."""
    parsed, problems = {}, {}
    for case in cases:
        run = runs[case.name]
        parsed[case.name] = None
        if run.code != 0:
            problems[case.name] = "exit code %r %s" % (run.code, run.error)
            continue
        try:
            parsed[case.name] = parse(case, run.text)
        except ReportError as exc:
            problems[case.name] = str(exc)
    return parsed, problems


def check_pass(cases, runs, ref_cases=(), ref_runs=None):
    """Check one pass over the cases against each other and against the
    untimed reference runs.  Returns {case name: problem} for the case runs
    that failed; an empty dict means every run passed."""
    refs, _ = _parse_runs(ref_cases, ref_runs or {})
    peers, problems = _parse_runs(cases, runs)
    for case in cases:
        if case.name in problems:
            continue
        try:
            CHECKS[case.name](case, peers[case.name], peers, refs)
        except KeyError as exc:
            problems[case.name] = "report lacks %s" % exc
        except (ReportError, TypeError, ValueError) as exc:
            problems[case.name] = str(exc)
    return problems
