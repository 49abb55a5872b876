"""carnot-calc benchmark: seeded CLI workloads, timed in-process.

    python3 bench/run.py --workload quadrature --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  One caller drives carnot_calc.cli.run in a closed loop: the
next case starts when the previous one has returned.  Stdout is captured.
A warm-up pass fills caches and finishes lazy set-up before timing, then
whole passes over the workload's cases repeat for --seconds.  Every case
run is checked (see checks.py) outside the timed region.

--trace 0 prints the end-to-end metrics (tracing off).  --trace 1
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; a readable summary goes to
stderr and a full record (samples, report hashes, environment) to
bench/out/.  --save-hashes stores this seed's report hashes in
bench/hashes.json, against which later runs report changed reports.
"""

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import Run, check_pass

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
HASHES = HERE / "hashes.json"

# Pinned to 1 before numpy is first imported, so BLAS/OpenMP pools and the
# quadrature thread pool stay at one thread.
THREAD_VARS = ("CARNOT_CALC_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_LAUNCHES = 9

END_TO_END = (("wall_s", "s"), ("case_geomean_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
CASE_NAMES = ("perimeter", "scaling", "eps_area", "v1", "v2_full",
              "numeric2", "curvature", "identities", "flow_check",
              "stability_lattice", "stability_random")
CALLS_AND_SELF = (
    "fields.jet_mul", "fields.jet_add", "fields.seed_jets",
    "fields.horizontal_jet", "groups.frame_at", "groups.frame_jacobian",
    "surfaces.patch_fields_jets", "surfaces.zy_second",
    "surfaces.frame_levelset", "curvature.hmc_levelset",
    "curvature.levelset_fields", "measure.pairwise_sum",
    "measure.integrate_patch", "measure.mcf_residual",
    "variation.quadratic_form")
SELF_ONLY = (
    "curvature.curvature_grid", "curvature.identity_battery",
    "variation.stability_scan", "variation.second_variation_full",
    "variation.first_variation_analytic", "variation.numeric_variation",
    "cli.run", "cli.emit_report", "cli.render_csv")
CALLS_ONLY = ("variation.deform_patch",)
WORK = (("fields.jet_mul.bytes_computed", "B"),
        ("surfaces.patch_fields_jets.nodes", "count"),
        ("measure.pairwise_sum.elements", "count"))
DERIVED = (("fields.seed_jets.order2_share", "ratio"),
           ("surfaces.frame_reuse", "ratio"),
           ("curvature.levelset_fields_per_point", "ms"),
           ("cli.report_bytes", "B"),
           ("trace.overhead_s", "s"))


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    out = {}
    for name in CALLS_AND_SELF:
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
    out.update((name + ".self_s", "s") for name in SELF_ONLY)
    out.update((name + ".calls", "count") for name in CALLS_ONLY)
    out.update(WORK)
    out.update(DERIVED)
    out.update((name + "_ms", "ms") for name in CASE_NAMES)
    return out


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import carnot_calc
for sid in sys.argv[2:]:
    carnot_calc.build_surface(sid)
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="quadrature, pointwise or stability")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save-hashes", action="store_true",
                   help="store this seed's report hashes in hashes.json")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def time_setup(surfaces):
    """Time a fresh interpreter takes to import carnot_calc and build the
    workload's surfaces."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)] + surfaces,
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_case(cli, case, tracer=None, tag=None):
    if tracer is not None:
        tracer.case = "%s:%s" % (tag, case.name)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(case.argv))
    except Exception:  # a crashing case is a failed run, not a failed bench
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return Run(code, out.getvalue(), seconds, err.getvalue().strip())


def run_pass(cli, cases, tracer=None, tag=None):
    gc.collect()  # the previous pass's garbage, outside the timed cases
    return {c.name: run_case(cli, c, tracer, tag) for c in cases}


class Tally:
    """Counts checked case runs and the ones that failed."""

    def __init__(self, cases, ref_cases, ref_runs, expected):
        self.cases, self.ref_cases, self.ref_runs = cases, ref_cases, ref_runs
        self.expected = expected
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, runs, tag):
        problems = check_pass(self.cases, runs, self.ref_cases, self.ref_runs)
        for c in self.cases:
            if (c.name not in problems
                    and sha256(runs[c.name].text) != self.expected[c.name]):
                problems[c.name] = "report bytes changed between runs"
        self.attempted += len(self.cases)
        self.failed += len(problems)
        self.problems += ["%s %s: %s" % (tag, k, v)
                          for k, v in sorted(problems.items())]


def environment():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def fastest(passes, name):
    """A case's time over the run: its fastest run.  Not the median: on a
    shared host the machine slows by 25-45% for minutes at a time, which
    moves a run's median with it; the fastest run moves about half as much
    (see README.md)."""
    return min(p[name].seconds for p in passes)


def end_to_end(passes, setup):
    best = [fastest(passes, name) for name in passes[0]]
    geo = math.exp(statistics.fmean(math.log(s) for s in best))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": sum(best), "case_geomean_ms": geo * 1e3,
            "setup_s": setup, "peak_rss_mb": rss}


def per_layer(untraced, traced, tracers, totals):
    def calls(name):
        return totals[0].get(name, {}).get("calls", 0)

    def self_s(name):
        return min(t.get(name, {}).get("self_s", 0.0) for t in totals)

    def ratio(a, b):
        return a / b if b else 0.0

    work = tracers[0].work
    out = {}
    for name in CALLS_AND_SELF:
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    out.update((name + ".self_s", self_s(name)) for name in SELF_ONLY)
    out.update((name + ".calls", calls(name)) for name in CALLS_ONLY)
    out.update((name, work.get(name, 0)) for name, _ in WORK)
    out["fields.seed_jets.order2_share"] = ratio(
        work.get("fields.seed_jets.order2_nodes", 0),
        work.get("fields.seed_jets.nodes", 0))
    out["surfaces.frame_reuse"] = ratio(
        work.get("measure.pairwise_sum.elements", 0),
        work.get("surfaces.patch_fields_jets.nodes", 0))
    lf = "curvature.levelset_fields"
    out[lf + "_per_point"] = 1e3 * ratio(
        min(t.get(lf, {}).get("total_s", 0.0) for t in totals), calls(lf))
    out["cli.report_bytes"] = sum(len(r.text.encode())
                                  for r in traced[0].values())
    names = list(untraced[0])
    out["trace.overhead_s"] = (sum(fastest(traced, n) for n in names)
                               - sum(fastest(untraced, n) for n in names))
    for name in CASE_NAMES:
        out[name + "_ms"] = (1e3 * fastest(untraced, name)
                             if name in untraced[0] else 0.0)
    return out


def write_spans(path, tracers, header):
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps(header) + "\n")
        for tracer in tracers:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def compare_hashes(workload, seed, hashes, save):
    """Whether hashes.json holds this workload and seed, and the cases whose
    report differs from it; with save, store this run's hashes there."""
    stored = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    base = stored.get(workload, {}).get(str(seed))
    changed = sorted(k for k in (base or {}) if hashes.get(k) != base[k])
    if save:
        stored.setdefault(workload, {})[str(seed)] = hashes
        HASHES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return base is not None, changed


def _phase(phases, name, since):
    now = time.perf_counter()
    phases[name] = now - since
    return now


def fail(message):
    sys.stderr.write("error: %s\n" % message)
    sys.exit(2)


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "carnot_calc" / "__init__.py").is_file():
        fail("carnot_calc sources not found under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import carnot_calc
    from carnot_calc import cli
    if Path(carnot_calc.__file__).resolve().parent != SRC / "carnot_calc":
        fail("imported carnot_calc from %s, not from %s"
             % (carnot_calc.__file__, SRC))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r; choose from %s"
             % (args.workload, ", ".join(workloads.WORKLOADS)))

    inp, cases = workloads.cases(args.workload, args.seed)
    ref_cases = workloads.reference_cases(args.workload, inp)
    surfaces = workloads.surfaces_used(cases)
    for sid in surfaces:
        dom = carnot_calc.build_surface(sid).patch.domain
        if sid.startswith("t-graph:") and dom != workloads.DOMAIN:
            fail("surface %s has domain %s; the generator assumed %s"
                 % (sid, dom, workloads.DOMAIN))

    phases = {}
    mark = time.perf_counter()
    # setup_s is the median over launches spread between the passes, so
    # that one run samples the machine's slow and fast stretches alike; the
    # first launch is discarded, it may compile the byte code
    setup_samples = []
    if not args.trace:
        time_setup(surfaces)
    mark = _phase(phases, "setup", mark)

    warm = run_pass(cli, cases)
    ref_runs = run_pass(cli, ref_cases)
    hashes = {name: sha256(run.text) for name, run in warm.items()}
    tally = Tally(cases, ref_cases, ref_runs, hashes)
    tally.add(warm, "warm-up")
    mark = _phase(phases, "warm_up_and_references", mark)

    untraced, traced, tracers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(run_pass(cli, cases))
        tally.add(untraced[-1], "pass %d" % len(untraced))
        if not args.trace:
            setup_samples.append(time_setup(surfaces))
        else:
            tracer = tracing.Tracer()
            with tracer:
                traced.append(run_pass(cli, cases, tracer, len(traced)))
            tracers.append(tracer)
            tally.add(traced[-1], "traced pass %d" % len(traced))
        enough = (len(traced) >= MIN_TRACED_PASSES if args.trace
                  else len(untraced) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break
    while not args.trace and len(setup_samples) < SETUP_LAUNCHES:
        setup_samples.append(time_setup(surfaces))
    mark = _phase(phases, "measure", mark)

    correct = tally.failed == 0
    if args.trace:
        totals = [tracing.layer_totals(t.spans) for t in tracers]
        metrics = per_layer(untraced, traced, tracers, totals)
        units = per_layer_units()
        counts = [dict({k: v["calls"] for k, v in tot.items()}, **t.work)
                  for tot, t in zip(totals, tracers)]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            tally.problems.append("traced passes disagree on call counts")
    else:
        metrics = end_to_end(untraced, statistics.median(setup_samples))
        units = dict(END_TO_END)

    had_base, changed = compare_hashes(args.workload, args.seed, hashes,
                                       args.save_hashes)
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct,
        "environment": environment(),
        "cases": [{"name": c.name, "argv": c.argv,
                   "samples_s": [p[c.name].seconds for p in untraced],
                   "traced_samples_s": [p[c.name].seconds for p in traced],
                   "sha256": hashes[c.name]} for c in cases],
        "setup_samples_s": setup_samples,
        "hashes_compared": had_base, "hashes_changed": changed,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "metrics": metrics, "phases_s": phases,
    }
    if args.trace:
        write_spans(OUT / ("%s.spans.jsonl.gz" % args.workload), tracers,
                    {"workload": args.workload, "seed": args.seed,
                     "fields": ["id", "name", "start_ns", "end_ns",
                                "parent", "case"]})
    _phase(phases, "analyse_and_write", mark)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")

    for c in cases:
        xs = sorted(p[c.name].seconds * 1e3 for p in untraced)
        sys.stderr.write("%-18s median %9.2f ms  min %9.2f  max %9.2f  n=%d\n"
                         % (c.name, statistics.median(xs), xs[0], xs[-1],
                            len(xs)))
    for problem in tally.problems:
        sys.stderr.write("FAILED %s\n" % problem)
    if changed:
        sys.stderr.write("reports differ from hashes.json: %s\n"
                         % ", ".join(changed))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
