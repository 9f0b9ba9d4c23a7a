"""End-to-end benchmark of qbd-tails.

    python3 perfbench/run.py --workload analyze_stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory.  Each run is a fresh process: it builds its inputs from the
seed, writes them as model files, then runs whole rounds of ops until the
ops have taken `--seconds` seconds.  Every op's output is checked against
the reference computations in reference.py or against properties the
method must have.  `setup_s` is the median time from process start to the
first op over SETUP_REPEATS fresh processes started with `--setup-only`,
which set up exactly as the run does and stop there.  The last line of
standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (from spans around calls into the
package) with `--trace 1`.  See README.md.
"""

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze_stream", "domain_plot", "verify_large")
SETUP_REPEATS = 3
DIRECTIONS = ("boundary1", "boundary2", "marginal1", "marginal2", "diagonal")

# grid of verify_large: large enough that the underflow model's boundary
# ray (rate 499) turns subnormal inside the fit window 0.3N..0.6N
VERIFY_GRID = 200
PLOT_CURVES = (("gamma_plus", "interior"), ("gamma1", "boundary1"),
               ("gamma2", "boundary2"))
TAIL_BEYOND = 10  # ops above the reported tail percentile
TAIL_MIN_OPS = 40  # fewer ops per run give no percentile beyond the median
TINY = 2.2250738585072014e-308  # smallest normal float64

TRACED = (
    "cli.main", "model.load_model",
    "kernel.branch_points", "kernel.zeta_lower", "kernel.zeta_upper", "kernel.gamma",
    "geometry.compute_geometry", "geometry.domain_contains",
    "geometry.sample_boundary", "geometry.directional_decay",
    "asymptotics.sigma_points", "asymptotics.classes", "asymptotics.full_report",
    "oracle.solve_truncated", "oracle.censored_matrix", "oracle.extract",
    "oracle.fit_tail", "oracle.verify_model",
)
CACHED = ("kernel.branch_points", "geometry.compute_geometry")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def rel_gap(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def on_curve(ref, doc, face, u1, u2, tol=1e-8):
    return abs(ref.face_gf(doc, face, u1, u2) - 1.0) <= tol


class Op:
    """One op: its label, its model file, and what its check needs."""

    def __init__(self, label, path, doc, params=None, kind=None):
        self.label, self.path, self.doc = label, path, doc
        self.params, self.kind = params, kind


class Workload:
    """setup() writes the model files and returns an endless iterator of
    rounds (lists of ops); run() does one op; check() returns the first
    problem of its output, or None; known_fault() names a known fault of
    the program that the op showed, or None."""

    def __init__(self, ctx):
        self.ctx = ctx

    def known_fault(self, op, result):
        return None

    def layer_metrics(self):
        return {}


class AnalyzeStream(Workload):
    """`qbd-tails analyze` over a stream of distinct models, in-process.
    The first round is built in setup; each later round is built when the
    one before it has run, outside the ops' timing, so the stream never
    runs out however fast the ops are."""

    def setup(self, seed, workdir):
        stream = self.ctx.inputs.analyze_stream(seed)
        first = self._write(0, next(stream), workdir)
        return itertools.chain([first], (self._write(r, ops, workdir)
                                         for r, ops in enumerate(stream, 1)))

    @staticmethod
    def _write(r, ops, workdir):
        out = []
        for k, (kind, params, doc) in enumerate(ops, r * len(ops)):
            path = workdir / f"analyze-{k:05d}.json"
            path.write_text(json.dumps(doc))
            out.append(Op(f"{kind}#{k}", str(path), doc, params, kind))
        return out

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.ctx.cli.main(["analyze", "--model", op.path])
        return rc, buf.getvalue()

    def check(self, op, result):
        ref = self.ctx.ref
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        body = json.loads(text)
        cls = body["classes"]
        for name in DIRECTIONS:
            if not (cls[name]["rate"] > 1.0 and cls[name]["kappa"] in ref.KAPPAS):
                return f"{name}: rate {cls[name]['rate']} kappa {cls[name]['kappa']}"
        for k in (1, 2):
            d, m, b = (cls[n]["rate"] for n in ("diagonal", f"marginal{k}", f"boundary{k}"))
            if not (d <= m * (1 + 1e-9) and m <= b * (1 + 1e-9)):
                return f"rates out of order on axis {k}: {d} {m} {b}"
        doc = op.doc
        for k, face in ((1, "boundary1"), (2, "boundary2")):
            ax = body["geometry"][f"axis{k}"]
            for u in (ax["u_min"], ax["u_max"]):
                disc, scale = ref.discriminant(doc, 3 - k, u)
                if abs(disc) > 1e-8 * scale:
                    return f"axis{k} branch point {u}: discriminant {disc:.3g}"
            if not on_curve(ref, doc, "interior", *ax["u_max_pt"]):
                return f"axis{k} u_max_pt off the kernel curve"
            if ax["u_r"] is not None and not (on_curve(ref, doc, "interior", *ax["u_r"])
                                              and on_curve(ref, doc, face, *ax["u_r"])):
                return f"axis{k} crossing {ax['u_r']} off its curves"
        sig = body["sigma"]
        for key, point in (("sigma_plus_1", lambda s: (s, 1.0)),
                           ("sigma_plus_2", lambda s: (1.0, s)),
                           ("sigma_d", lambda s: (s, s))):
            if sig[key] is not None and not on_curve(ref, doc, "interior", *point(sig[key])):
                return f"{key} off the kernel curve"
        if op.kind in ("product", "product-tie"):
            for name, (rate, kappa) in ref.product_classes(*op.params).items():
                if rel_gap(cls[name]["rate"], rate) > 1e-9 or cls[name]["kappa"] != kappa:
                    return f"{name} {cls[name]['rate']},{cls[name]['kappa']} != {rate},{kappa}"
        if op.kind == "network":
            for k in (1, 2):
                got = body["geometry"][f"axis{k}"]["u_r"]
                want = ref.jackson_crossing(*op.params, k)
                if got is None or max(rel_gap(g, w) for g, w in zip(got, want)) > 1e-9:
                    return f"axis{k} crossing {got} != closed form {want}"
        return None


class DomainPlot(Workload):
    """`qbd-tails plot` at its default 200 points per curve, then the three
    directional decays, over the named models."""

    def setup(self, seed, workdir):
        models = self.ctx.inputs.named_models()
        rng = self.ctx.np.random.default_rng([seed, 2])
        ops = []
        for name in rng.permutation(sorted(models)):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(models[name]))
            ops.append(Op(str(name), str(path), models[name]))
        return itertools.repeat(ops)

    def run(self, op):
        out = op.path[:-len(".json")]
        rc = self.ctx.cli.main(["plot", "--model", op.path, "--out", out])
        model = self.ctx.model.load_model(Path(op.path).read_text())
        decays = [self.ctx.geometry.directional_decay(model, c)
                  for c in ((1, 0), (0, 1), (1, 1))]
        return rc, out, model, decays

    def check(self, op, result):
        ref = self.ctx.ref
        rc, out, model, decays = result
        if rc != 0:
            return f"exit code {rc}"
        for curve, face in PLOT_CURVES:
            rows = Path(out, f"{curve}.csv").read_text().split()[1:]
            if len(rows) != 200:
                return f"{curve}: {len(rows)} points"
            for row in rows:
                u1, u2 = (float(x) for x in row.split(",")[3:5])
                if not on_curve(ref, op.doc, face, u1, u2):
                    return f"{curve} point ({u1}, {u2}) off its curve"
        cls = self.ctx.asymptotics.classes(model)
        for name, decay in zip(("marginal1", "marginal2", "diagonal"), decays):
            if rel_gap(decay, cls[name].rate) > 1e-12:
                return f"decay {decay!r} != {name} rate {cls[name].rate!r}"
        return None


class VerifyLarge(Workload):
    """The calls `qbd-tails verify` makes, on a large grid."""

    # the underflow model's rays leave the normal float64 range inside the
    # fit window, so these verdicts fail although its classes are exact
    KNOWN_FAULT = {"underflow": {"marginal1", "marginal2"}}

    def __init__(self, ctx):
        super().__init__(ctx)
        self.solves = []  # (seconds, rss rise in bytes) per solve

    def setup(self, seed, workdir):
        models = self.ctx.inputs.verify_models()
        rng = self.ctx.np.random.default_rng([seed, 3])
        ops = []
        for name in rng.permutation(sorted(models)):
            doc = self.ctx.netgen.independent_mm1(*models[name]).to_document()
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc))
            ops.append(Op(str(name), str(path), doc, models[name]))
        return itertools.repeat(ops)

    def run(self, op):
        oracle = self.ctx.oracle
        model = self.ctx.model.load_model(Path(op.path).read_text())
        report = self.ctx.asymptotics.full_report(model, source=op.path)
        rss_before = current_rss()
        start = time.perf_counter()
        dist = oracle.solve_truncated(model, VERIFY_GRID)
        self.solves.append((time.perf_counter() - start, peak_rss() - rss_before))
        reports = oracle.verify_model(model, n_grid=VERIFY_GRID, dist=dist)
        return report.to_dict(), dist, reports

    def check(self, op, result):
        ref = self.ctx.ref
        body, dist, reports = result
        for name, (rate, kappa) in ref.product_classes(*op.params).items():
            got = body["classes"][name]
            if rel_gap(got["rate"], rate) > 1e-9 or got["kappa"] != kappa:
                return f"{name} class {got['rate']},{got['kappa']} != {rate},{kappa}"
        failing = {name for name, r in reports.items() if not r.passed}
        unknown = failing - self.KNOWN_FAULT.get(op.label, set())
        if unknown:
            return "verdict fail: " + ",".join(sorted(unknown))
        want = ref.censored_product_form(op.doc, *op.params, VERIFY_GRID)
        rel, absolute = ref.product_form_error(dist.pi, want)
        if not (rel <= 1e-10 and absolute <= TINY):
            return (f"censored product form: relative error {rel:.3g} on normal "
                    f"values, absolute error {absolute:.3g} below them")
        residual = ref.stationarity_residual(op.doc, dist.pi)
        if not residual < 1e-11:
            return f"stationarity residual {residual:.3g}"
        return None

    def known_fault(self, op, result):
        # check() has failed the op on any verdict outside KNOWN_FAULT
        failing = sorted(name for name, r in result[2].items() if not r.passed)
        if failing:
            return "verdict fail (float64 underflow in the fit window): " + ",".join(failing)
        return None

    def layer_metrics(self):
        n = VERIFY_GRID + 1
        # nominal banded GTH: each of the n^2 eliminations updates a
        # band x band block with one multiply and one add per entry
        flops = 2.0 * n * n * (n + 1) ** 2
        secs = sum(s for s, _ in self.solves)
        return {
            "oracle.solve_truncated.gflop_per_s": flops * len(self.solves) / secs / 1e9,
            "oracle.solve_truncated.rss_rise_mb":
                statistics.mean(r for _, r in self.solves) / 2 ** 20,
        }


def current_rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Context:
    """The package modules and the benchmark's helpers, imported once."""

    def __init__(self):
        import numpy as np

        from qbd_tails import asymptotics, cli, geometry, model, netgen, oracle

        import inputs
        import reference

        self.np, self.inputs, self.ref = np, inputs, reference
        self.asymptotics, self.cli, self.geometry = asymptotics, cli, geometry
        self.model, self.netgen, self.oracle = model, netgen, oracle


def tail(times):
    """The highest percentile with TAIL_BEYOND ops above it."""
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up as a run does, print 'ready' and exit")
    return ap.parse_args(argv)


def cold_setup_s(args):
    """Median wall time from starting a fresh process to its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode} before its first op")
    return statistics.median(times), times


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "qbd_tails" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # timed before this process imports anything heavy, so that the set-up
    # processes do not share the machine with it
    setup = None if args.setup_only or args.trace else cold_setup_s(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    ctx = Context()
    if not Path(ctx.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qbd_tails imported from {ctx.cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    workload = {"analyze_stream": AnalyzeStream, "domain_plot": DomainPlot,
                "verify_large": VerifyLarge}[args.workload](ctx)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        rounds = workload.setup(args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(args, workload, rounds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


def measure(args, workload, rounds, setup):
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(TRACED)
        cache = {name: [0, 0] for name in CACHED}
    times, round_p50, problems = [], [], []
    attempted = failed = 0
    while not times or sum(times) < args.seconds:
        ops = next(rounds)  # the next round is built here, untimed
        for op in ops:
            if tracer:
                before = {name: tracer.cache_counts(name) for name in CACHED}
                tracer.op, tracer.enabled = attempted, True
            start = time.perf_counter()
            try:
                result, error = workload.run(op), None
            except Exception as exc:  # an op that raises fails its check
                result, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            if tracer:
                tracer.enabled = False
                for name in CACHED:
                    after = tracer.cache_counts(name)
                    cache[name][0] += after[0] - before[name][0]
                    cache[name][1] += after[1] - before[name][1]
            attempted += 1
            known = None
            if error is None:
                try:
                    error = workload.check(op, result)
                    known = None if error else workload.known_fault(op, result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None or known is not None:
                failed += 1
                problems.append((op.label, error or known, error is None))
        round_p50.append(statistics.median(times[-len(ops):]))
    unexpected = [p for p in problems if not p[2]]
    for label, error, expected in problems[:20]:
        print(f"{'known fault' if expected else 'failure'} {label}: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} ops {attempted} failed {failed} "
          f"(known fault {failed - len(unexpected)}) blas_threads {blas_threads()} "
          f"trace {args.trace}")
    # the host's speed changes between stretches of seconds, while a round
    # (every op kind once) runs at one speed: the median of a whole run
    # jumps between a fast and a slow stretch's value as their shares
    # cross one half, the mean of the rounds' medians moves in proportion
    op_p50 = statistics.mean(round_p50)
    print(f"op_p50_s {op_p50:.6g} s")
    if tracer:
        metrics = layer_metrics(tracer, cache, attempted, workload)
        out = ROOT / ".bench_trace"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        setup_s, samples = setup
        print("setup_s samples " + " ".join(f"{t:.4f}" for t in samples))
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / sum(times), "1/s"),
            "op_p50_s": (op_p50, "s"),
            # a run with fewer than TAIL_MIN_OPS ops has no tail
            # percentile, so it reports its median alone
            "op_tail_s": (tail(times) if len(times) >= TAIL_MIN_OPS else op_p50, "s"),
            "peak_rss_mb": (peak_rss() / 2 ** 20, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, cache, n_ops, workload):
    """Every per-layer metric of BENCHMARK.json, per op; a layer the
    workload never calls reads 0."""
    entries = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    totals = tracer.totals()
    extra = workload.layer_metrics()
    out = {}
    for entry in entries:
        name = entry["name"]
        span, kind = name.rsplit(".", 1)
        calls, incl, self_s = totals.get(span, (0, 0.0, 0.0))
        if name in extra:
            value = extra[name]
        elif kind == "s":
            value = incl / n_ops
        elif kind == "self_s":
            value = self_s / n_ops
        elif kind == "calls":
            value = calls / n_ops
        elif kind == "hit_ratio":
            hits, misses = cache[span]
            value = hits / (hits + misses) if hits + misses else 0.0
        else:
            value = 0.0
        out[name] = (value, entry["unit"])
    return out


if __name__ == "__main__":
    sys.exit(main())
