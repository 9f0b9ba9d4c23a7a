"""Command-line surface: analyze a model file, verify it against the
truncated-chain oracle, emit domain-plot data, and generate example models.

Exit codes: 0 ok, 1 invalid model or argument (usage errors included),
2 unstable model, 3 verification failed, 4 the oracle could not fit a
tail, 5 the analysis failed on a valid model (a geometry or kernel
computation).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import asymptotics, geometry, netgen
from .geometry import GeometryError
from .kernel import KernelError
from .model import (
    ModelFileError,
    UnstableModelError,
    ValidationError,
    load_model,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSTABLE = 2
EXIT_VERIFY_FAILED = 3
EXIT_NO_FIT = 4
EXIT_ANALYSIS = 5


def _dump(body: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(body, indent=2) + "\n"
    else:
        text = _render_text(body)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_text(body: dict) -> str:
    lines = []
    st = body.get("stability", {})
    lines.append(f"stable: {st.get('stable')}  (condition: {st.get('matched_condition')})")
    if "geometry" in body:
        g = body["geometry"]
        lines.append(f"category: {g['category']}")
        lines.append(f"tau: ({g['tau'][0]:.12g}, {g['tau'][1]:.12g})")
    if "sigma" in body:
        s = body["sigma"]
        lines.append(f"sigma_plus: {s['sigma_plus_1']}, {s['sigma_plus_2']}  "
                     f"sigma_d: {s['sigma_d']}")
    for name, cls in body.get("classes", {}).items():
        lines.append(f"{name:10s} ~ {cls['human']}   [{cls['provenance']}]")
    for name, rep in body.get("verification", {}).items():
        status = "pass" if rep["passed"] else "FAIL"
        lines.append(
            f"verify {name:10s} {status}  rate_gap={rep['rate_gap']:.3g} "
            f"kappa_gap={rep['kappa_gap']:.3g} b_hat={rep['fitted']['b_hat']:.3g}")
    return "\n".join(lines) + "\n"


def _load(path: str):
    return load_model(Path(path).read_text())


def run_analyze(args) -> int:
    model = _load(args.model)
    report = asymptotics.full_report(model, source=args.model)
    _dump(report.to_dict(), args.format, args.out)
    return EXIT_OK if report.stable else EXIT_UNSTABLE


def run_verify(args) -> int:
    from . import oracle  # the oracle, and scipy with it, loads only here
    model = _load(args.model)
    report = asymptotics.full_report(model, source=args.model)
    if not report.stable:
        _dump(report.to_dict(), args.format, args.out)
        return EXIT_UNSTABLE
    if args.out:  # an --out that cannot be written fails before the solve
        open(args.out, "a").close()
    dist = oracle.solve_truncated(model, args.n_grid)
    body = report.to_dict()
    solve = {
        "n_grid": dist.n_grid,
        "residual": dist.residual,
        "levels_factored": dist.levels_factored,
    }
    try:
        reports = oracle.verify_model(model, n_grid=args.n_grid, dist=dist)
    except ValueError as exc:  # the solve stands; only the fit failed
        _dump(asymptotics.round12({**body, "oracle": solve}), args.format, args.out)
        print(f"oracle could not fit a tail: {exc}", file=sys.stderr)
        return EXIT_NO_FIT
    body["verification"] = {
        name: {
            "passed": r.passed,
            "rate_gap": r.rate_gap,
            "kappa_gap": r.kappa_gap,
            "periodic_match": r.periodic_match,
            "fitted": {
                "rate_hat": r.fitted.rate_hat,
                "kappa_hat": r.fitted.kappa_hat,
                "kappa_selected": r.fitted.kappa_selected,
                "b_hat": r.fitted.b_hat,
                "window": list(r.fitted.window),
                "residual_norm": r.fitted.residual_norm,
            },
        }
        for name, r in reports.items()
    }
    body["oracle"] = solve
    _dump(asymptotics.round12(body), args.format, args.out)
    failing = [name for name, r in reports.items() if not r.passed]
    if failing:
        print("verification failed for: " + ", ".join(failing), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def run_plot(args) -> int:
    model = _load(args.model)
    # every file's text is made before anything is written, so an analysis
    # failure leaves no output behind
    texts = {}
    for curve in ("gamma_plus", "gamma1", "gamma2", "domain"):
        sample = geometry.sample_boundary(model, curve, args.n)
        rows = ["curve,theta1,theta2,u1,u2"]
        for (t1, t2), (u1, u2) in zip(sample.theta, sample.u):
            rows.append(f"{curve},{t1:.12g},{t2:.12g},{u1:.12g},{u2:.12g}")
        texts[f"{curve}.csv"] = "\n".join(rows) + "\n"
    geo = geometry.compute_geometry(model)
    sig = asymptotics.sigma_points(model)
    pts = [("u1_r", geo.axis1.u_r), ("u2_r", geo.axis2.u_r),
           ("u1_max", geo.axis1.u_max_pt), ("u2_max", geo.axis2.u_max_pt),
           ("u1_gamma", geo.axis1.u_gamma), ("u2_gamma", geo.axis2.u_gamma),
           ("tau", geo.tau)]
    if sig.sigma_plus_1 is not None:
        pts.append(("sigma_plus_1", (sig.sigma_plus_1, 1.0)))
    if sig.sigma_plus_2 is not None:
        pts.append(("sigma_plus_2", (1.0, sig.sigma_plus_2)))
    if sig.sigma_d is not None:
        pts.append(("sigma_d", (sig.sigma_d, sig.sigma_d)))
    rows = ["name,u1,u2"]
    for name, pt in pts:
        if pt is None:
            continue
        rows.append(f"{name},{pt[0]:.12g},{pt[1]:.12g}")
    texts["points.csv"] = "\n".join(rows) + "\n"
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for fname, text in texts.items():
        (outdir / fname).write_text(text)
    return EXIT_OK


def run_gen(args) -> int:
    try:
        if args.family == "jackson":
            model = netgen.jackson_model(*args.params)
        else:
            model = netgen.independent_mm1(*args.params)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.family == "jackson" and not netgen.JacksonSimParams(*args.params).stable():
        print("unstable", file=sys.stderr)
    text = json.dumps(model.to_document(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbd-tails",
        description="Tail asymptotics of two-dimensional reflecting random walks")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="model JSON file")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--format", choices=("json", "text"), default="json")

    sub.add_parser("analyze", parents=[common],
                   help="stability, geometry and asymptotic classes")

    vp = sub.add_parser("verify", parents=[common],
                        help="analyze plus oracle verification")
    vp.add_argument("--n-grid", type=int, default=300)

    pp = sub.add_parser("plot", parents=[common], help="emit domain CSV data")
    pp.add_argument("--n", type=int, default=200, help="points per curve")

    gp = sub.add_parser("gen", help="generate an example model file")
    gp.add_argument("family", choices=("jackson", "mm1"))
    gp.add_argument("params", type=float, nargs="+",
                    help="jackson: LAM MU1 MU2 P Q; mm1: L1 M1 L2 M2")
    gp.add_argument("--out", default=None)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parsing leaves the parser unchanged."""
    return build_parser()


def _run(args) -> int:
    if args.command == "gen":
        need = 5 if args.family == "jackson" else 4
        if len(args.params) != need:
            print(f"{args.family} needs {need} parameters", file=sys.stderr)
            return EXIT_INVALID
        return run_gen(args)
    if args.command == "analyze":
        return run_analyze(args)
    if args.command == "verify":
        if args.n_grid < 32:
            print("grid must be at least 32", file=sys.stderr)
            return EXIT_INVALID
        return run_verify(args)
    if args.n < 2:  # plot: argparse admits no other command
        print("need at least 2 points per curve", file=sys.stderr)
        return EXIT_INVALID
    return run_plot(args)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return _run(args)
    except (ModelFileError, ValidationError) as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UnstableModelError as exc:
        print(f"unstable model: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (GeometryError, KernelError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (OSError, UnicodeDecodeError) as exc:  # a model or output path
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
