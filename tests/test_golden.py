"""Golden artifacts regenerated through the command line and compared byte
for byte, and the full-size solves that `verify` must pass. Reports carry
the model path as given, so each model file takes the golden `meta.source`."""

import json
from pathlib import Path

import pytest

from qbd_tails.cli import main

from conftest import degenerate_tangent_model

GOLDEN = Path(__file__).parent / "golden"
PAPER_NETWORK = ["jackson", "1", "5", "4", "0.25", "0.4"]


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def assert_golden(name: str) -> None:
    """The file or directory `name` written here equals its golden copy."""
    got, want = Path(name), GOLDEN / name
    if want.is_dir():
        names = sorted(p.name for p in want.iterdir())
        assert sorted(p.name for p in got.iterdir()) == names, name
        for child in names:
            assert_golden(f"{name}/{child}")
    else:
        assert got.read_bytes() == want.read_bytes(), name


def test_paper_network_report_and_plot():
    # the golden report names its model by the generator call that made it
    model = "gen:" + ":".join(PAPER_NETWORK)
    assert main(["gen", *PAPER_NETWORK, "--out", model]) == 0
    assert main(["analyze", "--model", model, "--out", "jackson_paper.json"]) == 0
    assert main(["plot", "--model", model, "--out", "jackson_paper_plot", "--n", "200"]) == 0
    assert_golden("jackson_paper.json")
    assert_golden("jackson_paper_plot")


def test_q0_branch_network_report():
    # the q0 = 0 network with a branch-point boundary1 class; its axis-1
    # crossing quintic holds a non-real pair the Newton polish stops on
    model = "jackson_q0_branch.json"
    assert main(["gen", "jackson", "1", "5", "4", "0.25", "0.0", "--out", model]) == 0
    assert main(["analyze", "--model", model, "--out", "jackson_q0_branch_report.json"]) == 0
    assert_golden("jackson_q0_branch_report.json")


def test_degenerate_tangent_model_report_and_plot():
    # its face-1 curve is a vertical line touching the kernel curve at the
    # axis-1 branch point
    model = "degenerate_tangent.json"
    doc = degenerate_tangent_model().to_document()
    Path(model).write_text(json.dumps(doc, indent=2) + "\n")
    assert_golden(model)
    assert main(["analyze", "--model", model, "--out", "degenerate_tangent_report.json"]) == 0
    assert main(["plot", "--model", model, "--out", "degenerate_tangent_plot", "--n", "200"]) == 0
    assert_golden("degenerate_tangent_report.json")
    assert_golden("degenerate_tangent_plot")


@pytest.mark.parametrize("gen, grid, n_grid, exits, levels", [
    (["mm1", "0.1", "0.3", "0.15", "0.45"], [], 300, {0}, 15),
    # exit 3 is accepted: at N = 300 the network fails on kappa, a
    # pre-asymptotic fit window, not a solver fault
    (PAPER_NETWORK, [], 300, {0, 3}, 15),
    # its tail leaves the float64 normal range inside the fit window, so the
    # solve's products run on subnormal values
    (["mm1", "0.001", "0.499", "0.001", "0.499"], ["--n-grid", "200"], 200, {0}, 14),
], ids=["product", "paper_network", "rate_499"])
def test_verify_solves_at_full_size(gen, grid, n_grid, exits, levels):
    assert main(["gen", *gen, "--out", "m.json"]) == 0
    assert main(["verify", "--model", "m.json", "--out", "v.json", *grid]) in exits
    solve = json.loads(Path("v.json").read_text())["oracle"]
    assert solve["n_grid"] == n_grid
    assert solve["residual"] < 1e-12
    assert solve["levels_factored"] == levels
