import csv
import io
import json
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
    rc, out, _ = invoke(capsys, ["identities", "--surface", "xyt-graph",
                                 "--grid", "64"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert out.splitlines()[0] == \
        "identity_id,surface_id,grid,residual,tolerance,pass"
    assert len(rows) == 21
    assert all(r["pass"] == "true" for r in rows)


def test_identities_fail_exit_code_with_tight_tolerance(capsys, monkeypatch):
    monkeypatch.setattr(cli, "IDENTITY_TOL", 1e-18)
    rc, out, _ = invoke(capsys, ["identities", "--surface", "t-graph:parab",
                                 "--grid", "32"])
    assert rc == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(r["pass"] == "false" for r in rows)


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
    rc, _, err = invoke(capsys, ["stability", "--surface", "xyt-graph",
                                 "--grid", "32", "--family", "gaussians"])
    assert rc == 2
    assert "unknown stability family" in err


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


def test_report_is_byte_stable(capsys):
    argv = ["measure", "--surface", "t-graph:parab", "--grid", "32"]
    _, out1, _ = invoke(capsys, argv)
    _, out2, _ = invoke(capsys, argv)
    assert out1 == out2


def test_out_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    argv = ["identities", "--surface", "xyt-graph", "--grid", "32"]
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
    proc = subprocess.run([sys.executable, "-m", "carnot_calc.cli",
                           "catalog"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "surfaces" in proc.stdout
