import csv
import io
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

import carnot_calc.cli as cli
from carnot_calc.cli import emit_report, run
from carnot_calc.fields import seed_jets


def invoke(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- catalog ------------------------------------------------------------------

def test_catalog_lists_surfaces(capsys):
    rc, out, _ = invoke(capsys, ["catalog"])
    assert rc == 0
    data = json.loads(out)
    assert "t-graph:parab" in data["surfaces"]
    assert "xyt-graph" in data["surfaces"]


# -- curvature ----------------------------------------------------------------

def test_curvature_csv_plane_is_flat(capsys):
    rc, out, _ = invoke(capsys, ["curvature", "--surface",
                                 "vertical-plane:1,0,0", "--points", "9"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    header = out.splitlines()[0]
    assert header == "u,v,p,q,omega,W,H_param,H_levelset,A,obar"
    for r in rows:
        assert abs(float(r["H_param"])) < 1e-10
        assert abs(float(r["H_levelset"])) < 1e-10
        assert abs(float(r["omega"])) < 1e-12


def test_curvature_routes_agree_in_report(capsys):
    rc, out, _ = invoke(capsys, ["curvature", "--surface", "t-graph:parab",
                                 "--points", "16"])
    assert rc == 0
    for r in csv.DictReader(io.StringIO(out)):
        assert abs(float(r["H_param"]) - float(r["H_levelset"])) < 1e-5


# -- measure ------------------------------------------------------------------

def test_measure_perimeter_json(capsys):
    rc, out, _ = invoke(capsys, ["measure", "--surface", "t-graph:parab",
                                 "--grid", "32"])
    assert rc == 0
    data = json.loads(out)
    assert set(data) >= {"value", "error_estimate", "excluded_mass", "grid",
                         "rule", "surface", "quantity"}
    assert data["quantity"] == "perimeter"
    assert data["value"] > 0


def test_measure_scaling_reports_expected_ratio(capsys):
    rc, out, _ = invoke(capsys, ["measure", "--surface", "t-graph:parab",
                                 "--quantity", "scaling", "--lam", "2.0",
                                 "--grid", "32"])
    assert rc == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(8.0, rel=1e-9)
    assert data["expected"] == pytest.approx(8.0)


def test_measure_eps_area_keys(capsys):
    rc, out, _ = invoke(capsys, ["measure", "--surface", "t-graph:parab",
                                 "--quantity", "eps-area", "--eps", "0.01",
                                 "--grid", "32"])
    assert rc == 0
    data = json.loads(out)
    assert data["eps"] == pytest.approx(0.01)
    assert data["quantity"] == "eps-area"


# -- identities ----------------------------------------------------------------

def test_identities_all_pass_on_minimal_graph(capsys):
    rc, out, _ = invoke(capsys, ["identities", "--surface", "xyt-graph"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert out.splitlines()[0] == \
        "identity_id,surface_id,residual,tolerance,pass"
    assert len(rows) == 21
    assert all(r["pass"] == "true" for r in rows)


def test_identities_fail_exit_code_with_tight_tolerance(capsys, monkeypatch):
    monkeypatch.setattr(cli, "IDENTITY_TOL", 1e-18)
    rc, out, _ = invoke(capsys, ["identities", "--surface", "t-graph:parab"])
    assert rc == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(r["pass"] == "false" for r in rows)


def test_identities_nan_residual_fails_its_row(capsys, monkeypatch):
    # a NaN at a point after the first fails the row and the run; the
    # residual prints as an empty CSV cell and a JSON null
    from carnot_calc import curvature

    def nan_at_second_point(f, d):
        return np.where(np.arange(f["H"].size) == 1, np.nan, 0.0)

    monkeypatch.setitem(curvature._IDENTITIES, "y-omega",
                        (nan_at_second_point, ""))
    argv = ["identities", "--surface", "t-graph:parab", "--points", "4"]
    rc, out, _ = invoke(capsys, argv)
    assert rc == 1
    assert "y-omega,t-graph:parab,,0.0001,false" in out.splitlines()
    rc, out, _ = invoke(capsys, argv + ["--format", "json"])
    assert rc == 1
    rows = {r["identity_id"]: r for r in json.loads(out)}
    assert rows["y-omega"]["residual"] is None
    assert rows["y-omega"]["pass"] is False
    assert rows["y-omega"]["tolerance"] == 1e-4
    assert rows["z-omega"]["pass"] is True


# -- variation -----------------------------------------------------------------

@pytest.mark.parametrize("mode", ["v1", "v2-full", "numeric:1", "numeric:2"])
def test_variation_modes_run(capsys, mode):
    rc, out, _ = invoke(capsys, ["variation", "--surface", "t-graph:parab",
                                 "--mode", mode, "--grid", "32"])
    assert rc == 0
    data = json.loads(out)
    assert data["mode"] == mode
    assert "value" in data


def test_variation_first_order_routes_close(capsys):
    rc1, out1, _ = invoke(capsys, ["variation", "--surface", "t-graph:parab",
                                   "--mode", "v1", "--grid", "128"])
    rc2, out2, _ = invoke(capsys, ["variation", "--surface", "t-graph:parab",
                                   "--mode", "numeric:1", "--grid", "128"])
    assert rc1 == rc2 == 0
    v1 = json.loads(out1)["value"]
    v2 = json.loads(out2)["value"]
    assert abs(v1 - v2) < 1e-4


def test_variation_geometric_mode_rejects_nonminimal(capsys):
    rc, out, err = invoke(capsys, ["variation", "--surface", "t-graph:parab",
                                   "--mode", "v2-geom", "--grid", "32"])
    assert rc == 2
    assert "not H-minimal" in err


def test_variation_geometric_mode_on_minimal_graph(capsys):
    rc, out, _ = invoke(capsys, ["variation", "--surface", "xyt-graph",
                                 "--mode", "v2-geom", "--grid", "48"])
    assert rc == 0
    assert "value" in json.loads(out)


def test_variation_geometric_mode_accepts_documented_spelling(capsys):
    rc, out, _ = invoke(capsys, ["variation", "--surface", "xyt-graph",
                                 "--mode", "v2-geometric", "--grid", "48"])
    assert rc == 0
    data = json.loads(out)
    assert data["mode"] == "v2-geometric"
    rc, short, _ = invoke(capsys, ["variation", "--surface", "xyt-graph",
                                   "--mode", "v2-geom", "--grid", "48"])
    assert rc == 0
    assert json.loads(short)["value"] == data["value"]


@pytest.mark.parametrize("component", [
    0, None, 0.25, "bump:1.0,1.0,0.3,0.3", "poly:[[1.0, [1, 1]]]", "auto"])
def test_variation_field_component_forms(capsys, component):
    field = json.dumps({"a": component, "b": 0, "k": component})
    rc, out, _ = invoke(capsys, ["variation", "--surface", "t-graph:parab",
                                 "--mode", "v1", "--grid", "32",
                                 "--field", field])
    assert rc == 0
    assert np.isfinite(json.loads(out)["value"])


def test_variation_rejects_an_unparseable_component(capsys):
    rc, _, err = invoke(capsys, ["variation", "--surface", "t-graph:parab",
                                 "--mode", "v1", "--grid", "32",
                                 "--field", '{"k": "wave:1"}'])
    assert rc == 2
    assert "cannot parse deformation component" in err


@pytest.mark.parametrize("key", ["A", "c", "names"])
def test_variation_rejects_an_unknown_field_key(capsys, key):
    # a misspelled coefficient must not silently become the zero field
    rc, out, err = invoke(capsys, ["variation", "--surface", "t-graph:parab",
                                   "--grid", "16",
                                   "--field", json.dumps({key: "auto"})])
    assert (rc, out) == (2, "")
    assert err == ("error: deformation field key %s is not one of a, b, k,"
                   " name\n" % json.dumps(key))


@pytest.mark.parametrize("bump", ["bump:1,1", "bump:1,x,1,1",
                                  "bump:1,1,1,1,1", "bump:"])
def test_variation_malformed_bump_names_component_and_form(capsys, bump):
    rc, out, err = invoke(capsys, ["variation", "--surface", "t-graph:parab",
                                   "--grid", "16",
                                   "--field", json.dumps({"a": bump})])
    assert (rc, out) == (2, "")
    assert err == ("error: cannot parse deformation component %r: expected"
                   " bump:cu,cv,ru,rv\n" % bump)


def test_poly_component_matches_hand_written_polynomial():
    terms = [[0.5, [2, 1]], [-1.25, [0, 3]], [2, [1, 0]], [0.75, [0, 0]]]
    fn = cli._parse_component("poly:" + json.dumps(terms), (0, 1, 0, 1))
    U, V = np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 2.0, 4),
                       indexing="ij")
    uj, vj = seed_jets((U, V), order=2)
    got = fn(uj, vj)
    want = (0.0 * uj + 0.0 * vj + 0.5 * uj ** 2 * vj ** 1
            + -1.25 * vj ** 3 + 2.0 * uj ** 1 + 0.75)
    for part in ("v", "g", "h"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


# -- stability ------------------------------------------------------------------

def test_stability_finds_witness_on_unstable_graph(capsys):
    rc, out, _ = invoke(capsys, ["stability", "--surface", "xyt-graph",
                                 "--grid", "48"])
    assert rc == 0
    data = json.loads(out)
    assert data["witness"] is not None
    assert data["witness"]["Q"] < -1e-6
    assert len(data["table"]) == 125
    assert data["min_value"] < 0


def test_stability_plane_reports_no_witness(capsys):
    rc, out, _ = invoke(capsys, ["stability", "--surface",
                                 "vertical-plane:1,0,0", "--grid", "24"])
    assert rc == 0
    data = json.loads(out)
    assert data["witness"] is None
    assert data["min_value"] >= 0


def test_stability_random_family(capsys):
    rc, out, _ = invoke(capsys, ["stability", "--surface",
                                 "vertical-plane:1,0,0", "--grid", "24",
                                 "--family", "random:10,12345"])
    assert rc == 0
    data = json.loads(out)
    assert len(data["table"]) == 10
    assert data["min_value"] >= -1e-8


def test_stability_sized_lattice_family(capsys):
    rc, out, _ = invoke(capsys, ["stability", "--surface", "xyt-graph",
                                 "--grid", "32", "--family",
                                 "bump-lattice:3,2"])
    assert rc == 0
    assert json.loads(out)["count"] == 3 * 3 * 2


def test_stability_unknown_family_is_an_error(capsys):
    for family in ("gaussians", "random"):
        rc, _, err = invoke(capsys, ["stability", "--surface", "xyt-graph",
                                     "--grid", "32", "--family", family])
        assert rc == 2
        assert err == ("error: unknown stability family %r (expected"
                       " bump-lattice[:<nc>,<nr>] or random:<count>,<seed>)\n"
                       % family)


@pytest.mark.parametrize("family", [
    "random:-3,1", "bump-lattice:-2,3", "random:2,-1", "bump-lattice:5",
    "random:64", "random:a,b", "random:1,2,3", "bump-lattice:", "random:",
    "bump-lattice:3,", "random:1.5,2"])
def test_stability_malformed_family_is_a_usage_error(capsys, family):
    # negative counts used to print an empty scan; the other specs failed
    # with Python's unpacking or int() text
    rc, out, err = invoke(capsys, ["stability", "--surface", "xyt-graph",
                                   "--grid", "16", "--family", family])
    assert (rc, out) == (2, "")
    assert err == ("error: bad stability family %r: expected"
                   " bump-lattice[:<nc>,<nr>] or random:<count>,<seed>,"
                   " with non-negative integers\n" % family)


@pytest.mark.parametrize("family", ["bump-lattice:0,0", "bump-lattice:0,3",
                                    "random:0,0"])
def test_stability_zero_count_families_are_empty_scans(capsys, family):
    rc, out, _ = invoke(capsys, ["stability", "--surface", "xyt-graph",
                                 "--grid", "16", "--family", family])
    assert rc == 0
    assert json.loads(out)["count"] == 0


def test_one_parser_serves_every_run_in_a_process(capsys, monkeypatch):
    # run builds its parser on the first call and reuses it: help, a bad
    # flag and two verbs print the same bytes, with the same exit codes, as
    # a parser built afresh for each
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["--help"], ["measure", "--no-such-flag"],
             ["catalog"],
             ["measure", "--surface", "t-graph:parab", "--grid", "8"]]

    def outcome(argv):
        rc = run(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli._build_parser.cache_clear()
    assert [outcome(argv) for argv in argvs] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in fresh] == [0, 2, 0, 0]
    assert fresh[0][1].startswith("usage: carnot-calc")
    assert "unrecognized arguments: --no-such-flag" in fresh[1][2]


_GLIBC = platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not _GLIBC, reason="heap-top padding is glibc's mallopt")
def test_a_repeated_run_faults_in_no_block_pages(capsys):
    # run pads glibc's heap top, so the second scan reuses the first one's
    # block temporaries instead of faulting zero-filled pages back in
    # (~700 minor faults per run without the pad)
    import resource
    argv = ["stability", "--surface", "xyt-graph", "--grid", "96"]
    invoke(capsys, argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rc, _, _ = invoke(capsys, argv)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert rc == 0
    assert faults < 60


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                         ids=["no-library", "no-mallopt"])
def test_run_is_unchanged_without_mallopt(capsys, monkeypatch, cdll):
    # the first run of a process looks for mallopt, and later runs do not
    argv = ["stability", "--surface", "xyt-graph", "--grid", "16"]
    rc, expected, err = invoke(capsys, argv)
    assert (rc, err) == (0, "")
    calls = []

    def counting(name):
        calls.append(name)
        return cdll(name)

    monkeypatch.setattr(cli.ctypes, "CDLL", counting)
    cli._pad_heap_top.cache_clear()
    try:
        assert [invoke(capsys, argv) for _ in range(2)] == \
            [(0, expected, "")] * 2
        assert calls == [None]
    finally:
        cli._pad_heap_top.cache_clear()  # the next run pads again


def _reject_constant(name):
    raise ValueError("report holds a bare %s" % name)


def test_stability_empty_family_is_valid_json(capsys):
    rc, out, _ = invoke(capsys, ["stability", "--surface", "xyt-graph",
                                 "--family", "random:0,1"])
    assert rc == 0
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["count"] == 0
    assert data["min_value"] is None
    assert data["argmin"] is None


def test_characteristic_node_has_empty_curvature_cells(capsys):
    # the corner node (0.5, 0.5) of this t-graph is characteristic: it keeps
    # its frame columns, and its curvature columns are null / empty
    surface = "t-graph:poly:[[-0.25, [1, 0]], [0.25, [0, 1]]]"
    rc, out, _ = invoke(capsys, ["curvature", "--surface", surface,
                                 "--points", "4"])
    assert rc == 0
    assert "nan" not in out and "inf" not in out
    assert out.splitlines()[1] == "0.5,0.5,0.0,0.0,1.0,0.0,,,,"
    rc, out, err = invoke(capsys, ["curvature", "--surface", surface,
                                   "--points", "4", "--format", "json"])
    assert rc == 0, err
    rows = json.loads(out, parse_constant=pytest.fail)
    assert len(rows) == 4
    assert rows[0] == {"u": 0.5, "v": 0.5, "p": 0.0, "q": 0.0, "omega": 1.0,
                       "W": 0.0, "H_param": None, "H_levelset": None,
                       "A": None, "obar": None}
    assert all(v is not None for row in rows[1:] for v in row.values())


def test_nan_in_json_report_is_an_error():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            cli.render_json({"value": np.float64(bad)})


def _plain(x):
    # the former formulation: numpy scalars and arrays to plain numbers and
    # lists, tuples to lists, keys to str, then json.dumps(indent=2)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x


def _dumps_json(obj):
    return json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n"


_JSON_REPORTS = [
    ["catalog"],
    ["measure", "--quantity", "perimeter", "--grid", "16"],
    ["measure", "--quantity", "eps-area", "--grid", "16"],
    ["measure", "--quantity", "scaling", "--grid", "16"],
    ["variation", "--mode", "v1", "--grid", "16"],
    ["variation", "--mode", "v2-full", "--grid", "16"],
    ["variation", "--mode", "numeric:1", "--grid", "16"],
    ["variation", "--mode", "numeric:2", "--grid", "16"],
    ["variation", "--surface", "xyt-graph", "--mode", "v2-geometric",
     "--grid", "32"],
    ["stability", "--surface", "xyt-graph", "--grid", "16"],
    ["stability", "--surface", "xyt-graph", "--grid", "16", "--family",
     "random:6,3"],
    ["stability", "--surface", "xyt-graph", "--grid", "16", "--family",
     "random:0,1"],
    # null cells at the characteristic corner node
    ["curvature", "--surface",
     "t-graph:poly:[[-0.25, [1, 0]], [0.25, [0, 1]]]", "--points", "4",
     "--format", "json"],
    ["identities", "--points", "2", "--format", "json"],
    ["flow-check", "--points", "4", "--format", "json"],
]


@pytest.mark.parametrize("argv", _JSON_REPORTS,
                         ids=[" ".join(a) for a in _JSON_REPORTS])
def test_json_writer_equals_json_dumps_of_plain_values(capsys, argv):
    # render_json writes in one recursive pass what json.dumps(indent=2)
    # printed of the report once made plain, byte for byte
    kwargs = cli._merge_config(cli._build_parser().parse_args(argv))
    del kwargs["out"], kwargs["format"]
    report = cli._VERBS[argv[0]](**kwargs)[0]
    text = cli.render_json(report)
    assert text == _dumps_json(report)
    rc, out, _ = invoke(capsys, argv + (["--format", "json"]
                                        if "--format" not in argv else []))
    assert rc == 0 and out == text


def test_json_writer_equals_json_dumps_on_every_value_kind():
    values = [
        np.bool_(True), np.bool_(False), True, None, 0, -7, 2 ** 70,
        np.int8(-3), np.int64(2 ** 40), np.uint8(255), np.intc(4),
        0.1, -0.0, 1e16, 5e-324, 1.7976931348623157e308, np.float16(0.5),
        np.float32(0.1), np.float64(-2.5e-300), np.longdouble(1.25),
        np.arange(3), np.zeros((2, 0)), np.array([[1.5, -0.0], [2.0, 3.0]]),
        np.array([True, False]), np.array([], dtype=float),
        np.float32([0.1, 2.0]), [], {}, (), [[]], [{}], {"a": []},
        (1, (2.0, [np.int32(3)])), "", "plain", "\u03c0 \u2248 3.14 \u00fc",
        "\U0001f600 \x00\x1f\x7f", "quote \" back \\ tab \t nl \n",
        {"nested": {"deep": {"er": [1, {"x": None}]}}, "e": {}},
        {1: "int key", None: 0, 2.5: "float key", True: "bool key",
         "\u00e9": "non-ASCII key"},
    ]
    for value in values:
        assert cli.render_json(value) == _dumps_json(value), value
    assert cli.render_json(values) == _dumps_json(values)
    report = {"table": [dict(cu=np.float64(0.25), Q=-1e-3, flag=np.bool_(1))],
              "grid": (np.int64(96), 96)}
    assert cli.render_json(report) == _dumps_json(report)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", [float, np.float64, np.float32])
def test_json_writer_rejects_nan_and_infinity_as_json_dumps_does(bad, kind):
    obj = {"ok": [1.0], "value": [kind(bad)]}
    with pytest.raises(ValueError) as old:
        _dumps_json(obj)
    with pytest.raises(ValueError) as new:
        cli.render_json(obj)
    assert str(new.value) == str(old.value) == (
        "Out of range float values are not JSON compliant: %r" % float(bad))


def test_nan_report_fails_with_exit_code_2(capsys, monkeypatch):
    monkeypatch.setitem(cli._VERBS, "catalog", lambda: (
        {"value": np.float64("nan")}, "json", True))
    rc, out, err = invoke(capsys, ["catalog"])
    assert (rc, out) == (2, "")
    assert err == ("error: Out of range float values are not JSON compliant:"
                   " nan\n")


# -- flow check -----------------------------------------------------------------

def test_flow_check_passes(capsys):
    rc, out, _ = invoke(capsys, ["flow-check", "--surface", "t-graph:parab",
                                 "--points", "12"])
    assert rc == 0
    assert out.splitlines()[0] == "u,v,residual,tolerance,pass"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    assert all(r["pass"] == "true" for r in rows)


POLY = ("t-graph:poly:[[1.0,[2,0]],[1.0,[0,2]],[0.05,[3,0]],"
        "[-0.07,[2,1]],[0.02,[1,2]],[0.09,[0,3]]]")


@pytest.mark.parametrize("surface", ["t-graph:parab", "xyt-graph", POLY])
def test_flow_check_report_matches_per_point_residuals(capsys, surface):
    # the report evaluates the whole lattice in one call; the reference
    # evaluates one point at a time
    rc, out, _ = invoke(capsys, ["flow-check", "--surface", surface,
                                 "--points", "49"])
    P = cli.build_surface(surface).patch
    rows = []
    for u, v in cli._sample_lattice(P.domain, 49):
        res = float(cli.msr.mcf_residual(P, u, v))
        rows.append({"u": u, "v": v, "residual": res,
                     "tolerance": cli.FLOW_TOL, "pass": res <= cli.FLOW_TOL})
    assert out == cli.render_csv(rows, ["u", "v", "residual", "tolerance",
                                        "pass"])
    assert rc == 0


@pytest.mark.parametrize("surface", [
    "t-graph:parab", POLY, "t-graph:poly:[[-0.25, [1, 0]], [0.25, [0, 1]]]"])
def test_curvature_report_matches_per_cell_rows(capsys, surface):
    # the reference reads one numpy cell at a time
    cols = cli.curvature_grid(cli.build_surface(surface).patch, nu=5, nv=5)
    names = ["u", "v", "p", "q", "omega", "W", "H_param", "H_levelset", "A",
             "obar"]
    rows = [{nm: cols[nm][i] if np.isfinite(cols[nm][i]) else None
             for nm in names} for i in range(25)]
    _, out, _ = invoke(capsys, ["curvature", "--surface", surface,
                                "--points", "25"])
    assert out == cli.render_csv(rows, names)
    _, out, _ = invoke(capsys, ["curvature", "--surface", surface,
                                "--points", "25", "--format", "json"])
    assert out == cli.render_json(rows)


# -- config and report plumbing ----------------------------------------------------

def test_config_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": "vertical-plane:1,0,0",
                               "grid": 16}))
    rc, out, _ = invoke(capsys, ["measure", "--config", str(cfg)])
    assert rc == 0
    assert json.loads(out)["surface"] == "vertical-plane:1,0,0"
    rc, out, _ = invoke(capsys, ["measure", "--config", str(cfg),
                                 "--surface", "t-graph:parab"])
    assert rc == 0
    assert json.loads(out)["surface"] == "t-graph:parab"


@pytest.mark.parametrize("config", [{"grid": "64"}, {"points": "9"},
                                    {"grid": 64.0}, {"points": True},
                                    {"grid": None}, {"eps": "0.1"},
                                    {"surface": 3}],
                         ids=json.dumps)
def test_config_value_of_the_wrong_type_is_usage_error(capsys, tmp_path,
                                                       config):
    # the type of its flag, checked when the config is read
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    key, = config
    for verb in ("measure", "identities"):
        rc, out, err = invoke(capsys, [verb, "--config", str(path)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: config value of %s must be" % key)


def test_config_accepts_a_number_for_a_float_and_an_object_field(capsys,
                                                                 tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps": 1, "grid": 16, "out": None,
                                "field": {"a": "auto"}}))
    rc, out, _ = invoke(capsys, ["measure", "--config", str(path),
                                 "--quantity", "eps-area"])
    assert rc == 0 and json.loads(out)["eps"] == 1.0
    rc, out, _ = invoke(capsys, ["variation", "--config", str(path)])
    assert rc == 0 and json.loads(out)["field"] == {"a": "auto"}


def test_report_is_byte_stable(capsys):
    argv = ["measure", "--surface", "t-graph:parab", "--grid", "32"]
    _, out1, _ = invoke(capsys, argv)
    _, out2, _ = invoke(capsys, argv)
    assert out1 == out2


def test_out_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    argv = ["identities", "--surface", "xyt-graph"]
    _, stdout_report, _ = invoke(capsys, argv)
    path = tmp_path / "report.csv"
    rc, out, _ = invoke(capsys, argv + ["--out", str(path)])
    assert rc == 0
    assert out == ""
    assert path.read_text() == stdout_report


def test_emit_report_formats(tmp_path):
    rows = [{"a": 1.0 / 3.0, "b": True, "c": None},
            {"a": 2.5e-17, "b": False, "c": "x"}]
    path = tmp_path / "rep.csv"
    emit_report(rows, format="csv", path=str(path),
                fieldnames=["a", "b", "c"])
    assert path.read_text() == \
        "a,b,c\n0.3333333333333333,true,\n2.5e-17,false,x\n"
    empty = tmp_path / "empty.csv"
    emit_report([], format="csv", path=str(empty), fieldnames=["a", "b"])
    assert empty.read_text() == "a,b\n"


# -- exit codes ----------------------------------------------------------------------

def test_unknown_verb_is_usage_error(capsys):
    rc, _, _ = invoke(capsys, ["frobnicate"])
    assert rc == 2


def test_unknown_surface_is_usage_error(capsys):
    rc, _, err = invoke(capsys, ["curvature", "--surface", "moebius"])
    assert rc == 2
    assert "error:" in err


def test_tiny_grid_rejected(capsys):
    rc, _, err = invoke(capsys, ["measure", "--surface", "t-graph:parab",
                                 "--grid", "4"])
    assert rc == 2


def test_grid_is_checked_only_by_the_verbs_that_integrate(capsys):
    # the other verbs read no --grid: any value is a usage error
    for verb in ("curvature", "identities", "flow-check", "catalog"):
        for grid in ("6", "9", "128"):
            assert invoke(capsys, [verb, "--grid", grid]) == (
                2, "", "error: %s reads no --grid\n" % verb)
    # a Simpson grid needs an even cell count >= 8: one usage error
    for verb in ("measure", "variation", "stability"):
        for grid in ("6", "9"):
            rc, _, err = invoke(capsys, [verb, "--grid", grid])
            assert rc == 2
            assert err == "error: --grid must be an even number >= 8\n"


# a flag each verb does not read
_UNREAD = {"curvature": "--grid", "measure": "--points", "identities":
           "--eps", "variation": "--family", "stability": "--field",
           "flow-check": "--lam", "catalog": "--surface"}


@pytest.mark.parametrize("verb", sorted(_UNREAD))
def test_each_verb_accepts_only_the_flags_it_reads(capsys, tmp_path, verb):
    assert invoke(capsys, [verb, _UNREAD[verb], "1"]) == (
        2, "", "error: %s reads no %s\n" % (verb, _UNREAD[verb]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": 16, "gird": 64}))
    assert invoke(capsys, [verb, "--config", str(path)]) == (
        2, "", "error: config key \"gird\" names no flag\n")
    # one config serves every verb: each reads the keys it has a flag for
    config = {"surface": "xyt-graph", "grid": 16, "points": 4}
    path.write_text(json.dumps(config))
    flags = [a for k, v in config.items() if k in cli._READS[verb]
             for a in ("--" + k, str(v))]
    assert bool(flags) == (verb != "catalog")
    expected = invoke(capsys, [verb] + flags)
    assert expected[0] in (0, 1)
    assert invoke(capsys, [verb, "--config", str(path)]) == expected


_MALFORMED = [["variation", "--field", spec] for spec in (
    "null", "5", '"x"', '{"a": "poly:[[1,[1]]]"}', '{"a": true}',
    '{"a": false}')] + [["curvature", "--surface", spec] for spec in (
        "t-graph:poly:[[1,[1]]]", "t-graph:poly:[1]", "intrinsic:poly:null",
        "t-graph:poly:[[1,[0.5,2]]]", "t-graph:poly:{}",
        "t-graph:poly:[[1,[1,2,3]]]")] + [
    ["measure", "--quantity", "eps-area", "--eps", "-1", "--grid", "16"],
    ["measure", "--quantity", "scaling", "--lam", "-2", "--grid", "16"]]


@pytest.mark.parametrize("argv", _MALFORMED, ids=" ".join)
def test_malformed_input_is_one_usage_error(capsys, argv):
    # a ValueError where the spec or value is read, not a traceback or a
    # silent misreading
    rc, out, err = invoke(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_csv_format_rejected_for_json_verbs(capsys):
    rc, _, err = invoke(capsys, ["measure", "--surface", "t-graph:parab",
                                 "--grid", "32", "--format", "csv"])
    assert rc == 2
    assert "JSON" in err


def test_missing_config_file_is_usage_error(capsys):
    rc, _, _ = invoke(capsys, ["measure", "--config", "/nonexistent.json"])
    assert rc == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_console_script_runs():
    # the child process imports the carnot_calc under test, also when
    # pytest put src/ on sys.path (pyproject's pythonpath) and not in the
    # environment
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "carnot_calc.cli",
                           "catalog"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "surfaces" in proc.stdout
