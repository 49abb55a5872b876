"""Tests of the benchmark's own code: python3 -m pytest bench"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- seeded generator -------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    assert workloads.generate(7) == workloads.generate(7)
    assert workloads.cases("quadrature", 7) == workloads.cases("quadrature", 7)
    assert workloads.generate(7) != workloads.generate(8)


@pytest.mark.parametrize("seed", range(1, 21))
def test_generated_inputs_are_valid(seed):
    inp = workloads.generate(seed)
    assert workloads.horizontal_normal_min(inp.terms) >= workloads.W_FLOOR
    assert all(abs(c) <= workloads.CUBIC_MAX for c, _ in inp.terms[2:])
    for bump in inp.bumps:
        assert workloads.bump_margin(bump) >= workloads.BUMP_MARGIN - 1e-4
    assert json.loads(inp.field)["a"] == "bump:%r,%r,%r,%r" % inp.bumps[0]
    assert workloads.LAM_RANGE[0] <= inp.lam <= workloads.LAM_RANGE[1]
    assert inp.family.startswith("random:%d," % workloads.RANDOM_COUNT)


def test_horizontal_normal_of_the_parabola():
    # t = x^2 + y^2: |(2x + y/2, 2y - x/2)| = sqrt(4.25) r, least at (.5, .5)
    terms = [[1.0, [2, 0]], [1.0, [0, 2]]]
    assert workloads.horizontal_normal_min(terms) == pytest.approx(
        4.25 ** 0.5 * 0.5 ** 0.5)


# -- failed case runs -------------------------------------------------------

def _stability_pass(min_value="-0.05"):
    inp = workloads.generate(1)
    cases = workloads.stability(inp)
    table = ", ".join('{"Q": %s}' % q for q in
                      ["0.5"] * (workloads.RANDOM_COUNT - 1) + [min_value])
    texts = {
        "stability_lattice":
            '{"min_value": -0.05, "witness": {"Q": -0.05}, "table": []}',
        "stability_random": '{"count": %d, "min_value": %s, "table": [%s]}'
                            % (workloads.RANDOM_COUNT, min_value, table),
    }
    return cases, {k: checks.Run(0, v, 0.1, "") for k, v in texts.items()}


def _tally(cases, runs):
    return run.Tally(cases, (), {}, {k: run.sha256(r.text)
                                     for k, r in runs.items()})


def test_good_reports_pass():
    cases, runs = _stability_pass()
    tally = _tally(cases, runs)
    tally.add(runs, "pass")
    assert (tally.attempted, tally.failed) == (2, 0)


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace('"min_value": -0.05', '"min_value": NaN'),
    lambda t: t[: len(t) // 2],
    lambda t: t.replace('"count": 64', '"count": 63'),
])
def test_bad_report_counts_as_failed(corrupt):
    cases, runs = _stability_pass()
    tally = _tally(cases, runs)
    bad = dict(runs)
    bad["stability_random"] = runs["stability_random"]._replace(
        text=corrupt(runs["stability_random"].text))
    tally.add(bad, "pass")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "stability_random" in tally.problems[0]


def test_nonzero_exit_and_changed_bytes_count_as_failed():
    cases, runs = _stability_pass()
    tally = _tally(cases, runs)
    tally.add({**runs, "stability_lattice":
               runs["stability_lattice"]._replace(code=1)}, "pass")
    _, moved = _stability_pass(min_value="-0.0500")
    tally.add(moved, "pass")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert "changed" in tally.problems[1]


def test_nan_curvature_row_fails():
    case = workloads.Case("curvature", ["curvature", "--points", "4"])
    good = "u,H_param,H_levelset\n" + "0.5,1.0,1.0000000001\n" * 4
    assert checks.check_pass([case], {"curvature": checks.Run(
        0, good, 0.1, "")}) == {}
    bad = good.replace("1.0000000001", "nan", 1)
    assert "non-finite" in checks.check_pass([case], {"curvature": checks.Run(
        0, bad, 0.1, "")})["curvature"]


def test_unquoted_surface_id_is_split_from_the_wide_column():
    sid = "t-graph:poly:[[1.0,[2,0]]]"
    text = ("identity_id,surface_id,grid,residual,tolerance,pass\n"
            "curvature-squared,%s,128,1e-16,0.0001,true\n" % sid)
    rows = checks.parse_csv(text)
    assert rows[0]["surface_id"] == sid and rows[0]["pass"] == "true"
    with pytest.raises(checks.ReportError):
        checks.parse_csv("a,b\n1,2,3\n")


# -- tracing ----------------------------------------------------------------

def _span(sid, start, end, parent=None, name="x"):
    return (sid, name, start, end, parent, "0:case")


def test_self_time_subtracts_the_children_only():
    spans = [
        _span(1, 10, 30, 0),
        _span(3, 25, 28, 1),     # grandchild: not subtracted from span 0
        _span(2, 40, 50, 0),
        _span(0, 0, 100),        # a span closes after its children
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == 100 - 20 - 10
    assert selfs[1] == 20 - 3
    assert selfs[3] == 3


def test_layer_totals_sum_calls_and_self_time():
    spans = [_span(0, 0, 10, name="a"), _span(1, 2, 4, 0, name="b"),
             _span(2, 20, 30, name="a")]
    tot = tracing.layer_totals(spans)
    assert tot["a"]["calls"] == 2
    assert tot["a"]["self_s"] == pytest.approx(18e-9)
    assert tot["a"]["total_s"] == pytest.approx(20e-9)


def test_tracer_rebinds_imported_names_and_restores_them():
    from carnot_calc import cli, measure, surfaces
    from carnot_calc.fields import Jet
    originals = (measure.zy_second, surfaces.zy_second, Jet.__mul__)
    tracer = tracing.Tracer()
    with tracer:
        assert measure.zy_second is surfaces.zy_second
        assert measure.zy_second is not originals[0]
        tracer.case = "0:perimeter"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["measure", "--surface", "t-graph:parab",
                            "--grid", "16"]) == 0
    assert (measure.zy_second, surfaces.zy_second, Jet.__mul__) == originals
    names = {s[0]: s[1] for s in tracer.spans}
    parents = {s[1]: names.get(s[4]) for s in tracer.spans}
    assert parents["measure.integrate_patch"] == "measure.perimeter"
    assert parents["surfaces.zy_second"] == "measure.integrate_patch"
    assert parents["cli.run"] is None
    assert {s[5] for s in tracer.spans} == {"0:perimeter"}
    assert tracer.work["surfaces.patch_fields_jets.nodes"] == 17 * 17 + 9 * 9
    assert tracer.work["fields.jet_mul.bytes_computed"] > 0


# -- contract ---------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    inp = workloads.generate(1)
    assert sorted(c.name for make in workloads.WORKLOADS.values()
                  for c in make(inp)) == sorted(run.CASE_NAMES)

