"""sdwave benchmark: three experiment workloads through ``sdwave.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload kcold --seed 1 --seconds 20 --trace 0

Each measured run is one ``sdwave.cli.main(argv)`` call in a fresh process
(``child.py``), with ``--workers 1`` and the workload seed as ``--seed``. The
runs repeat until ``--seconds`` have passed. ``--trace 0`` reports the
end-to-end metrics as medians over the runs; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced
ones. ``--smoke`` swaps in a tiny mesh (p=4, q=2) that runs in about a second.
The last line of standard output is the JSON result; the line before it is
the environment and sample record, also written to ``.perfbench_out/``.
See README.md for the metrics and the workloads.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from layertrace import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCES = BENCH_DIR / "references.json"

RTOL = 1e-6          # CSV error columns against recorded / cold values
ENVELOPE = 3.0       # unrecorded seed: 0 < error <= ENVELOPE * max over recorded seeds
FILLS = 2            # klong-warm cache fills per run; set-up reports their median
DEADLINE_S = 170.0   # a run must end within 180 s
MB = 1024.0 * 1024.0

# One BLAS thread: the runs are single-threaded like --workers 1, and a
# second BLAS thread on a shared 2-CPU machine only adds noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# name -> (sdwave argv without seed/cache/out, cache mode, smoke argv).
# Cache modes: "cold" empties the workload's own cache directory before
# every run, so each run builds and writes it; "warm" fills it in set-up.
WORKLOADS = {
    # offline-bound: corrector sets, transients and the cache write
    "kcold": (["exp-k", "--p", "5", "--q", "3", "--kmax", "3", "--T", "1"], "cold",
              ["exp-k", "--p", "4", "--q", "2", "--kmax", "2", "--T", "0.2"]),
    # the only workload that reaches the rb layer
    "rb": (["exp-rb", "--p", "5", "--q", "3", "--M", "1,5,10,15", "--T", "1"], "cold",
           ["exp-rb", "--p", "4", "--q", "2", "--M", "1,5", "--T", "0.2"]),
    # online-bound: N = 400 steps on correctors read from the cache
    "klong-warm": (["exp-k", "--p", "5", "--q", "3", "--kmax", "3", "--T", "8"], "warm",
                   ["exp-k", "--p", "4", "--q", "2", "--kmax", "2", "--T", "0.4"]),
}

# per-layer counters that must repeat exactly between traced runs
COUNTERS = (
    "mesh.patch_calls", "assembly.element_rhs_calls", "assembly.h1_norm_calls",
    "interpolation.kernel_constraints_calls", "linalg.factor_calls",
    "linalg.factor_fill_nnz", "linalg.solve_calls", "lod.element_correctors_calls",
    "lod.patch_reuse", "lod.transient_rows", "lod.transient_mb", "rb.build_rb_calls",
    "rb.m_selected_mean", "rb.basis_mb", "trace.spans",
)


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["TMPDIR"] = str(WORK)
    env.pop("PYTHONPATH", None)   # child.py puts the checkout's src/ first
    return env


def dir_mb(path):
    if not path.exists():
        return 0.0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / MB


def read_csv(path):
    """{(param, method): (rel_h1_final, rel_l2h1)} from an experiment CSV."""
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rec = dict(zip(header, line.strip().split(",")))
            rows[(rec["param"], rec["method"])] = (float(rec["rel_h1_final"]),
                                                   float(rec["rel_l2h1"]))
    return rows


def sdwave_argv(config, seed, workdir, cache):
    return config + ["--seed", str(seed), "--workers", "1", "--out", str(workdir / "out"),
                     "--cache", str(cache)]


def run_child(argv, workdir, trace, deadline):
    """One fresh-process cli.main call; returns the child's result dict."""
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    shutil.rmtree(workdir / "out", ignore_errors=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result),
           "1" if trace else "0", str(workdir / "spans.jsonl"), "--"] + argv
    log = workdir / "child.log"
    spawn = time.monotonic()
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=fh, cwd=ROOT,
                                  env=child_env(), timeout=max(1.0, deadline - spawn))
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
    process_s = time.monotonic() - spawn
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text().strip().splitlines()[-3:]
        return {"error": "exit %d: %s" % (proc.returncode, " | ".join(tail))}
    with open(result) as fh:
        out = json.load(fh)
    out["setup_s"] = out["call_start"] - spawn
    out["process_s"] = process_s
    if out["error"] is None:
        csvs = list((workdir / "out").glob("*.csv"))
        if len(csvs) != 1:
            out["error"] = "expected one CSV, found %d" % len(csvs)
        else:
            out["rows"] = read_csv(csvs[0])
    return out


def compare(rows, expected, what):
    if set(rows) != set(expected):
        return "%s: rows %s differ from %s" % (what, sorted(rows), sorted(expected))
    for key, values in rows.items():
        for got, want in zip(values, expected[key]):
            if not abs(got - want) <= RTOL * abs(want):
                return "%s: %s = %r, expected %r (rtol %g)" % (what, key, got, want, RTOL)
    return None


def check_rows(rows, recorded, seed):
    """Recorded seed: match within RTOL. Other seeds: the recorded rows, each
    error positive and within ENVELOPE times its largest recorded value."""
    if str(seed) in recorded:
        return compare(rows, {tuple(k): v for k, v in recorded[str(seed)]},
                       "seed %d reference" % seed)
    if not recorded:
        return "no reference values recorded for this workload"
    worst = {}
    for table in recorded.values():
        for key, values in table:
            key = tuple(key)
            worst[key] = [max(a, b) for a, b in zip(worst.get(key, values), values)]
    if set(rows) != set(worst):
        return "rows %s differ from the recorded %s" % (sorted(rows), sorted(worst))
    for key, values in rows.items():
        for got, bound in zip(values, worst[key]):
            if not 0.0 < got <= ENVELOPE * bound:
                return "%s = %r outside (0, %g]" % (key, got, ENVELOPE * bound)
    return None


class Run:
    """The repeated measured calls of one workload, seed and trace mode."""

    def __init__(self, name, seed, smoke, recorded):
        config, mode, smoke_config = WORKLOADS[name]
        self.config = smoke_config if smoke else config
        self.mode = mode
        self.seed = seed
        self.recorded = recorded
        # each workload gets its own cache directory: the cache key leaves out
        # the horizon and the coefficient law, so a directory shared with
        # kcold (T = 1) would serve klong-warm transients truncated at N = 50
        self.workdir = WORK / ("%s-%d" % (name, os.getpid()))
        self.cache = self.workdir / "cache"
        self.samples = []
        self.errors = []
        self.first_rows = None
        self.cold_rows = None
        self.fill_s = []

    def argv(self, cache):
        return sdwave_argv(self.config, self.seed, self.workdir, cache)

    def judge(self, out):
        """Error message for a failed run, or None."""
        if out.get("error"):
            return out["error"]
        rows = out["rows"]
        problem = check_rows(rows, self.recorded, self.seed)
        if problem is None and self.first_rows is not None and rows != self.first_rows:
            problem = "CSV error columns differ between runs of one seed"
        if problem is None and self.cold_rows is not None:
            problem = compare(rows, self.cold_rows, "warm against cold")
        if problem is None and self.first_rows is None:
            self.first_rows = rows
        return problem

    def fill(self, deadline):
        """klong-warm set-up: fill the cache in separate processes, so the fill's
        memory stays out of the measured runs' peak RSS."""
        for i in range(FILLS):
            shutil.rmtree(self.cache, ignore_errors=True)
            out = run_child(self.argv(self.cache), self.workdir, False, deadline)
            problem = out.get("error") or check_rows(out["rows"], self.recorded, self.seed)
            if problem:
                sys.exit("cache fill %d failed: %s" % (i, problem))
            self.cold_rows = out["rows"]
            self.fill_s.append(out["process_s"])

    def measure(self, traced, deadline):
        if self.mode == "cold":
            shutil.rmtree(self.cache, ignore_errors=True)
        out = run_child(self.argv(self.cache), self.workdir, traced, deadline)
        out["traced"] = traced
        out["cache_mb"] = dir_mb(self.cache)
        problem = self.judge(out)
        if problem:
            self.errors.append(problem)
            print("run failed: %s" % problem, file=sys.stderr)
        else:
            self.samples.append(out)


def end_to_end(run):
    ok = [s for s in run.samples if not s["traced"]]
    setup = median([s["setup_s"] for s in ok]) + (median(run.fill_s) if run.fill_s else 0.0)
    return {
        "wall_s": (median([s["wall_s"] for s in ok]), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (median([s["peak_rss_mb"] for s in ok]), "MB"),
        "cache_mb": (median([s["cache_mb"] for s in ok]), "MB"),
    }


def per_layer(run, units):
    traced = [s for s in run.samples if s["traced"]]
    out = {}
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        out[name] = (median([s["layers"][name] for s in traced]), unit)
    layer_sum = [sum(s["layers"][layer + ".self_s"] for layer in LAYERS) for s in traced]
    # each traced run against the untraced run just before it
    paired = [b["wall_s"] - a["wall_s"] for a, b in zip(run.samples, run.samples[1:])
              if b["traced"] and not a["traced"]]
    out["trace.wall_s"] = (median([s["wall_s"] for s in traced]), "s")
    out["trace.overhead_s"] = (median(paired), "s")
    out["trace.unaccounted_s"] = (median([s["wall_s"] - t for s, t in zip(traced, layer_sum)]), "s")
    out["trace.spans"] = (median([s["layers"]["trace.spans"] for s in traced]), "count")
    return out


def repeat_problems(run):
    """Counters that did not repeat exactly between runs."""
    problems = []
    caches = {s["cache_mb"] for s in run.samples}
    if len(caches) > 1:
        problems.append("cache_mb varies: %s" % sorted(caches))
    traced = [s for s in run.samples if s["traced"]]
    for name in COUNTERS:
        values = {s["layers"][name] for s in traced}
        if len(values) > 1:
            problems.append("%s varies: %s" % (name, sorted(values)))
    return problems


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny mesh (p=4, q=2) that checks every metric is emitted")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "sdwave" / "__init__.py").is_file():
        sys.exit("no sdwave sources under %s" % (ROOT / "src"))
    spec = load_spec()
    with open(REFERENCES) as fh:
        references = json.load(fh)
    key = args.workload + (":smoke" if args.smoke else "")
    run = Run(args.workload, args.seed, args.smoke, references.get(key, {}))

    shutil.rmtree(run.workdir, ignore_errors=True)
    run.workdir.mkdir(parents=True)
    try:
        if run.mode == "warm":
            run.fill(deadline)
        window = time.monotonic()
        n = 0
        while True:
            run.measure(traced=bool(args.trace) and n % 2 == 1, deadline=deadline)
            n += 1
            enough = time.monotonic() - window >= args.seconds
            if time.monotonic() >= deadline or (enough and n >= (2 if args.trace else 1)):
                break
        spans_file = run.workdir / "spans.jsonl"
        if args.trace and spans_file.exists():
            OUT.mkdir(exist_ok=True)
            shutil.copy(spans_file, OUT / ("spans-%s-seed%d.jsonl" % (key.replace(":", "-"),
                                                                     args.seed)))
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    problems = run.errors + repeat_problems(run)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        ready = any(b["traced"] and not a["traced"] for a, b in zip(run.samples, run.samples[1:]))
        values = per_layer(run, units) if ready else {}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(run) if run.samples else {}
    if not values:
        sys.exit("no successful run: %s" % "; ".join(run.errors))
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append("metrics not measured: %s" % ", ".join(missing))

    attempted = len(run.samples) + len(run.errors)
    record = {
        "workload": args.workload, "smoke": args.smoke, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "argv": run.argv("<cache>"), "samples": len(run.samples),
        "fail_frac": len(run.errors) / attempted, "problems": problems,
        "fill_s": run.fill_s,
        "runs": [{k: s[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "cache_mb", "traced")}
                 for s in run.samples],
        "env": dict(run.samples[0]["env"], nproc=os.cpu_count(),
                    cpus_usable=len(os.sched_getaffinity(0)), platform=platform.platform(),
                    threads=THREAD_ENV, seed=args.seed),
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-seed%d-trace%d.json" % (key.replace(":", "-"), args.seed,
                                                 args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print("problem: %s" % problem, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(run.errors),
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in units if name in values},
    }))


if __name__ == "__main__":
    main()
