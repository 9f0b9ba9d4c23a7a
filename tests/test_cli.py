"""Command-line surface: subcommands, exit codes, determinism, round trips."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qbd_tails as qt
from qbd_tails import asymptotics, geometry, oracle
from qbd_tails.cli import build_parser, main

from conftest import NARROW_ARC_DOC, near_unit_vertical_face_model

PRODUCT_DOC = json.dumps({
    "interior": [[1, 0, 0.1], [-1, 0, 0.3], [0, 1, 0.15], [0, -1, 0.45]],
    "boundary1": [[1, 0, 0.1], [-1, 0, 0.3], [0, 1, 0.15], [0, 0, 0.45]],
    "boundary2": [[1, 0, 0.1], [0, 1, 0.15], [0, -1, 0.45], [0, 0, 0.3]],
    "origin": [[1, 0, 0.1], [0, 1, 0.15], [0, 0, 0.75]],
})


@pytest.fixture()
def product_file(tmp_path):
    path = tmp_path / "product.json"
    path.write_text(PRODUCT_DOC)
    return str(path)


def test_analyze_product(product_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--model", product_file, "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["geometry"]["category"] == "I"
    assert body["geometry"]["tau"] == pytest.approx([3.0, 3.0], abs=1e-9)
    assert body["classes"]["boundary1"]["rate"] == pytest.approx(3.0)


def test_analyze_text_format(product_file, capsys):
    code = main(["analyze", "--model", product_file, "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "category: I" in text
    assert "diagonal" in text


@pytest.mark.parametrize("command", ["analyze", "verify", "plot"])
def test_invalid_model_names_condition(command, tmp_path, capsys):
    doc = json.loads(PRODUCT_DOC)
    doc["interior"] = [[1, 0, 0.25], [-1, 0, 0.25], [0, 1, 0.25], [0, -1, 0.25]]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--model", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid model: ") and err.count("\n") == 1
    assert "nonzero-mean-drift" in err


_INTERIOR_REST = [[-1, 0, 0.3], [0, 1, 0.15], [0, -1, 0.45]]


@pytest.mark.parametrize("face, rows", [
    ("interior", [[1.5, 0, 0.1], *_INTERIOR_REST]),
    ("interior", [[True, 0, 0.1], *_INTERIOR_REST]),
    ("interior", [["a", 0, 0.1], *_INTERIOR_REST]),
    ("interior", [[None, 0, 0.1], *_INTERIOR_REST]),
    ("interior", [[[1], 0, 0.1], *_INTERIOR_REST]),
    ("origin", [[1, 0, True]]),
])
def test_analyze_rejects_malformed_entry(face, rows, tmp_path, capsys):
    # truncated or cast to a number, each bad value reads as increment 1 or
    # probability 1 and makes a valid model
    doc = json.loads(PRODUCT_DOC)
    doc[face] = rows
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--model", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("invalid model: ") and err.count("\n") == 1


def test_analyze_unstable_still_reports(tmp_path, capsys):
    gen = main(["gen", "jackson", "4", "5", "4", "0.25", "0.4",
                "--out", str(tmp_path / "m.json")])
    assert gen == 0
    assert "unstable" in capsys.readouterr().err
    code = main(["analyze", "--model", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    body = json.loads((tmp_path / "r.json").read_text())
    assert body["stability"]["stable"] is False
    assert "classes" not in body


def test_verify_unstable_exit_two(tmp_path, capsys):
    main(["gen", "jackson", "4", "5", "4", "0.25", "0.4",
          "--out", str(tmp_path / "m.json")])
    code = main(["verify", "--model", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "v.json")])
    assert code == 2
    body = json.loads((tmp_path / "v.json").read_text())
    assert body["stability"]["stable"] is False
    assert "verification" not in body


def test_verify_product_exit_zero(product_file, tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--model", product_file, "--n-grid", "96",
                 "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert set(body["verification"]) == {
        "boundary1", "boundary2", "marginal1", "marginal2", "diagonal"}
    assert all(v["passed"] for v in body["verification"].values())
    oracle = body["oracle"]
    assert oracle["n_grid"] == 96
    assert 0.0 <= oracle["residual"] < 1e-11
    assert 2 <= oracle["levels_factored"] <= 15  # 2 ceil(log2(N + 1)) + 1


def test_verify_text_format(product_file, capsys):
    code = main(["verify", "--model", product_file, "--n-grid", "96",
                 "--format", "text"])
    assert code == 0
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("verify ")]
    assert [ln[:3] for ln in lines] == [["verify", d, "pass"] for d in asymptotics.DIRECTIONS]


def test_verify_tight_tolerance_fails(product_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "TOL_RATE", 1e-9)
    code = main(["verify", "--model", product_file, "--n-grid", "96",
                 "--out", str(tmp_path / "v.json")])
    assert code == 3
    assert "verification failed" in capsys.readouterr().err


def test_verify_unfittable_tail_exit_four(tmp_path, monkeypatch, capsys):
    # rate 4999: the boundary ray underflows to exact zeros from n = 88 on,
    # inside the window 30..95, so no tail can be fitted
    monkeypatch.setattr(oracle, "WINDOW_FRAC", (0.3, 0.95))
    path = str(tmp_path / "uf.json")
    assert main(["gen", "mm1", "0.0001", "0.4999", "0.0001", "0.4999",
                 "--out", path]) == 0
    out = tmp_path / "v.json"
    out.write_text('{"old": 1}')
    code = main(["verify", "--model", path, "--n-grid", "100", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err == ("oracle could not fit a tail: tail underflows float64 from "
                   "n = 88 inside window 30..95; a smaller grid can fit it\n")
    # the solve succeeded, so its report replaces what the file held
    body = json.loads(out.read_text())
    assert "classes" in body and "verification" not in body
    assert body["oracle"]["n_grid"] == 100


@pytest.mark.parametrize("command", ["analyze", "verify", "plot"])
@pytest.mark.parametrize("error", [qt.GeometryError, qt.KernelError])
def test_analysis_error_exit_five(command, error, product_file, tmp_path,
                                  monkeypatch, capsys):
    def fail(model):
        raise error("no extreme point")

    # asymptotics holds its own reference to compute_geometry
    monkeypatch.setattr(geometry, "compute_geometry", fail)
    monkeypatch.setattr(asymptotics, "compute_geometry", fail)
    code = main([command, "--model", product_file, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 5
    assert err == "analysis failed: no extreme point\n"
    assert not (tmp_path / "out").exists()  # a failed analysis writes nothing


@pytest.mark.parametrize("command", ["analyze", "verify", "plot"])
def test_vertical_face_tied_with_one_exit_five(command, tmp_path, capsys):
    # the face curve stands at u1 = 1 + 3.3e-10, a tie with 1 under EQ_TOL,
    # so no crossing lies above 1 while the face exceeds 1 at the branch point
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(near_unit_vertical_face_model(0.3 + 1e-10).to_document()))
    code = main([command, "--model", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("analysis failed: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    "analyze --model {tmp}/missing.json",
    "analyze --model {tmp}",
    "analyze --model {tmp}/latin1.json",
    "analyze --model {model} --out {tmp}/missing/report.json",
    "plot --model {model} --out {tmp}/latin1.json/plot",
    "gen mm1 0.1 0.3 0.15 0.45 --out {tmp}/missing/model.json",
])
def test_file_error_exit_one(args, product_file, tmp_path, capsys):
    # a model path that is missing, a directory or not UTF-8, and an output
    # path that cannot be written
    (tmp_path / "latin1.json").write_bytes(PRODUCT_DOC.replace("0.1", "\xb5").encode("latin-1"))
    code = main(args.format(tmp=tmp_path, model=product_file).split())
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_out_fails_before_the_solve(product_file, tmp_path, monkeypatch, capsys):
    from qbd_tails import oracle

    def solve(*args, **kwargs):
        raise AssertionError("the oracle solve ran")

    monkeypatch.setattr(oracle, "solve_truncated", solve)
    code = main(["verify", "--model", product_file, "--out", str(tmp_path / "nodir" / "x.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("file error: ") and err.count("\n") == 1


def test_plot_samples_a_narrow_face_arc(tmp_path):
    # the face-2 curve is positive on a short arc of a long branch interval
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(NARROW_ARC_DOC))
    assert main(["plot", "--model", str(path), "--out", str(tmp_path / "plot")]) == 0
    rows = (tmp_path / "plot" / "gamma2.csv").read_text().splitlines()
    assert len(rows) == 201


def test_analyze_and_plot_load_no_scipy(product_file, tmp_path):
    # scipy serves only the oracle, which analyze and plot never reach
    script = "\n".join([
        "import sys",
        "from qbd_tails.cli import main",
        f"assert main(['analyze', '--model', {product_file!r}, "
        f"'--out', {str(tmp_path / 'r.json')!r}]) == 0",
        f"assert main(['plot', '--model', {product_file!r}, "
        f"'--out', {str(tmp_path / 'plot')!r}]) == 0",
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_resolves_oracle_names_on_first_use():
    from qbd_tails import oracle

    for name in ("EmpiricalStationaryDistribution", "FittedAsymptotic", "TailSequence",
                 "VerificationReport", "extract", "fit_tail", "solve_truncated",
                 "verify", "verify_model"):
        assert getattr(qt, name) is getattr(oracle, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(qt, "no_such_name")


def test_verify_rejects_bad_window(product_file, capsys):
    # the fit window is fixed, so --window is a usage error
    assert main(["verify", "--model", product_file, "--window", "0.3", "0.6"]) == 1
    assert "unrecognized arguments: --window" in capsys.readouterr().err
    assert main(["verify", "--model", product_file, "--n-grid", "8"]) == 1


@pytest.mark.parametrize("argv", [["verify", "--model", "m.json", "--n-grid", "abc"],
                                  ["analyze", "--model", "m.json", "--bogus"]],
                         ids=["bad_value", "unknown_flag"])
def test_usage_error_exit_one(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: qbd-tails")


def test_help_exit_zero(capsys):
    assert main(["verify", "--help"]) == 0
    assert "--n-grid" in capsys.readouterr().out


def test_readme_command_lines_parse():
    # every `qbd-tails` line of the README's command-line block, with its
    # backslash continuations joined and its # comments dropped
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c]
    assert len(commands) >= 6 and all(c[0] == "qbd-tails" for c in commands)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_gen_mm1_round_trip(tmp_path):
    out = tmp_path / "mm1.json"
    assert main(["gen", "mm1", "0.1", "0.3", "0.15", "0.45",
                 "--out", str(out)]) == 0
    model = qt.load_model(out.read_text())
    assert model == qt.independent_mm1(0.1, 0.3, 0.15, 0.45)


def test_gen_jackson_matches_in_process(tmp_path):
    out = tmp_path / "net.json"
    assert main(["gen", "jackson", "1", "5", "4", "0.25", "0.4",
                 "--out", str(out)]) == 0
    model = qt.load_model(out.read_text())
    assert model == qt.jackson_model(1, 5, 4, 0.25, 0.4)
    r1 = qt.full_report(model).to_dict()
    r2 = qt.full_report(qt.jackson_model(1, 5, 4, 0.25, 0.4)).to_dict()
    r1["meta"] = r2["meta"] = {}
    assert json.dumps(r1) == json.dumps(r2)


def test_gen_wrong_arity(capsys):
    assert main(["gen", "jackson", "1", "5"]) == 1


@pytest.mark.parametrize("params", [
    ["mm1", "0.3", "0.1", "0.15", "0.45"],  # l1 >= m1
    ["mm1", "0.5", "0.6", "0.1", "0.3"],  # rates sum above 1
    ["jackson", "0", "5", "4", "0.25", "0.4"],  # zero arrival rate
    ["jackson", "1", "5", "4", "1.5", "0.4"],  # routing probability above 1
])
def test_gen_out_of_range_exit_one(params, capsys):
    assert main(["gen", *params]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters:")
    assert len(err.strip().splitlines()) == 1


def test_reports_deterministic(product_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", "--model", product_file, "--out", str(a)]) == 0
    assert main(["analyze", "--model", product_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_emits_curves(product_file, tmp_path):
    out = tmp_path / "plots"
    assert main(["plot", "--model", product_file, "--out", str(out),
                 "--n", "40"]) == 0
    for name in ("gamma_plus.csv", "gamma1.csv", "gamma2.csv",
                 "domain.csv", "points.csv"):
        assert (out / name).exists()
    rows = (out / "gamma_plus.csv").read_text().strip().splitlines()
    assert rows[0] == "curve,theta1,theta2,u1,u2"
    assert len(rows) == 41
    pts = (out / "points.csv").read_text()
    assert "tau,3," in pts or "tau,2.99" in pts
    assert "sigma_d" in pts


def test_plot_two_point_curves(product_file, tmp_path):
    out = tmp_path / "plots2"
    assert main(["plot", "--model", product_file, "--out", str(out),
                 "--n", "2"]) == 0
    rows = (out / "gamma_plus.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_plot_rejects_one_point(product_file, tmp_path, capsys):
    assert main(["plot", "--model", product_file, "--out", str(tmp_path / "p"),
                 "--n", "1"]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_plot_unstable_exit_two(tmp_path):
    main(["gen", "jackson", "4", "5", "4", "0.25", "0.4",
          "--out", str(tmp_path / "m.json")])
    assert main(["plot", "--model", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "p")]) == 2


def test_repeated_calls_answer_alike(product_file, capsys):
    # main reuses one parser, so a call must not change how the next parses
    answers = []
    for _ in range(2):
        assert main(["analyze", "--model", product_file, "--format", "text"]) == 0
        assert main(["analyze"]) == 1
        answers.append(capsys.readouterr())
    assert answers[0] == answers[1]
    assert "the following arguments are required: --model" in answers[0].err


def test_console_script_entry_point(product_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qbd_tails.cli", "analyze", "--model",
         product_file, "--format", "text"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "category: I" in proc.stdout
