"""End-to-end tests for the command-line interface.

The CLI is plumbing: every numeric claim below is cross-checked against
the library call the subcommand is documented to make, not against
hand-typed constants.  Invocations run in-process through main(argv).
"""

import hashlib
import json
from fractions import Fraction

import pytest

from kamtori import arithmetic, cli, torusverify
from kamtori.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sigma_artifact_shape(capsys):
    code, out, err = run_cli(
        capsys, ["sigma", "--alpha", "1,987/610", "--kmax", "6"])
    assert code == 0 and err == ""
    artifact = json.loads(out)
    assert artifact["config"]["command"] == "sigma"
    assert artifact["config"]["alpha"] == "1,987/610"
    expected = arithmetic.sigma([Fraction(1), Fraction(987, 610)], 6)
    assert artifact["sigma"] == json.loads(
        json.dumps(expected.to_json_dict()))


def write_inputs(tmp_path):
    """The jet and problem files the commands below read, in tmp_path."""
    (tmp_path / "H.json").write_text(json.dumps(
        {"n": 1, "trunc_degree": 8,
         "coeffs": {"2,0": "1/2", "0,2": "1/2", "4,0": "1"}}))
    (tmp_path / "problem.json").write_text(json.dumps(
        {"n": 2, "trunc_degree": 8, "alpha": ["1", "987/610"],
         "b": {"2,1,0,0": "1", "0,0,3,0": "1"}}))
    (tmp_path / "H2.json").write_text(json.dumps(
        {"n": 2, "trunc_degree": 4,
         "coeffs": {"2,0,0,0": "0.5", "0,0,2,0": "0.5",
                    "0,2,0,0": "0.809", "0,0,0,2": "0.809"}}))


# one config per subcommand, run from a directory holding write_inputs
RERUN_ARGV = {
    "sigma": ["sigma", "--alpha", "1,987/610", "--kmax", "8"],
    "bruno": ["bruno", "--alpha", "1,987/610", "--kmax", "6"],
    "density": ["density", "--alpha", "1,1.618", "--mode", "float",
                "--kmax", "4", "--radii", "0.1,0.01", "--samples", "200",
                "--seed", "3"],
    "lattice": ["lattice", "--alpha", "1,987/610", "--t-grid", "0:2:3"],
    "strips": ["strips", "--alpha", "1,987/610", "--kmax", "4",
               "--r", "1/10"],
    "birkhoff": ["birkhoff", "--H", "H.json", "--l", "4"],
    "kam run": ["kam", "run", "--problem", "problem.json"],
    "torus scan": ["torus", "scan", "--H", "H2.json", "--r", "0.3",
                   "--samples", "4", "--steps", "1024", "--seed", "5"],
    "report": ["report", "--inputs", "sigma.json"],
}


@pytest.mark.parametrize("command", list(RERUN_ARGV))
def test_rerun_is_byte_identical(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert main(RERUN_ARGV["sigma"] + ["--out", "sigma.json"]) == 0
    capsys.readouterr()
    code1, out1, _ = run_cli(capsys, RERUN_ARGV[command])
    code2, out2, _ = run_cli(capsys, RERUN_ARGV[command])
    assert code1 == code2 == 0
    assert out1 == out2


# SHA-256 of stdout for rational-mode runs, recorded from the code as it
# was before every artifact shared one serializer.  Unlike the rerun test
# above, these catch a change in how a scalar becomes JSON.
RECORDED_STDOUT_SHA256 = {
    "sigma": (["sigma", "--alpha", "1,987/610", "--kmax", "8"],
              "5d117827ade3622ffb144320c6c96b7ecaf80e373ced133c7a29866f19bce29e"),
    "bruno": (["bruno", "--alpha", "1,987/610", "--kmax", "8"],
              "a2c228c01fa6a56868bf0daf52b7da535c6f423a7bb7462e00730e2024663d0e"),
    "strips": (["strips", "--alpha", "1,987/610", "--kmax", "5", "--r", "1/10"],
               "6df737240cb8e72bd520b4b2930b53368f74c142e158e5a83794ed0262afc8c0"),
    "birkhoff": (["birkhoff", "--H", "H.json", "--l", "4"],
                 "c428d8abed0080ea3616fff5640d843081ea23bd439c6ad36f4d1817a44c0808"),
    "kam run": (["kam", "run", "--problem", "problem.json"],
                "032dddf4c38422072888c17af8f585fd001cd07af40210cea629209a3abccbb8"),
}


@pytest.mark.parametrize("command", sorted(RECORDED_STDOUT_SHA256))
def test_stdout_matches_recorded_digest(command, capsys, tmp_path,
                                        monkeypatch):
    # the config block records the input paths, so run from tmp_path
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    argv, digest = RECORDED_STDOUT_SHA256[command]
    code, out, err = run_cli(capsys, argv + ["--mode", "rational"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_empty_config_exits_two(capsys):
    code, out, err = run_cli(capsys, [])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "schema"


def test_invalid_flag_value_exits_two(capsys):
    code, _, err = run_cli(
        capsys, ["sigma", "--alpha", "1,2", "--kmax", "4",
                 "--mode", "weird"])
    assert code == 2
    assert "error" in json.loads(err)


def test_bruno_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, ["bruno", "--alpha", "1,987/610", "--kmax", "6"])
    assert code == 0
    artifact = json.loads(out)
    seq = arithmetic.sigma([Fraction(1), Fraction(987, 610)], 6)
    expected = arithmetic.bruno_diagnostic(seq, 6).to_json_dict()
    assert artifact["bruno"] == json.loads(json.dumps(expected))


def test_bruno_on_resonant_vector_exits_one(capsys):
    code, _, err = run_cli(
        capsys, ["bruno", "--alpha", "1,3/2", "--kmax", "6"])
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NonPositiveTermError"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["sigma"], ["bruno"], ["strips", "--r", "0.1"],
    ["density", "--radii", "0.1", "--samples", "10"]])
def test_float_small_divisors_past_the_float_range_exit_one(capsys, command):
    # only the JSON error on stderr: no warning, no traceback
    code, out, err = run_cli(capsys, [*command, "--alpha", "1e308,1.6e308",
                                      "--mode", "float", "--kmax", "2"])
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and "float range" in error["message"]


def test_density_sweep_matches_library_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, ["density", "--alpha", "1,1.6180339887", "--kmax", "4",
                 "--radii", "0.1,0.01", "--samples", "200", "--seed", "3",
                 "--csv", str(csv_path)])
    assert code == 0
    artifact = json.loads(out)
    alpha = [Fraction("1"), Fraction("1.6180339887")]
    a = arithmetic.sigma(alpha, 4)
    rho = arithmetic.DecaySequence(
        [Fraction(2) ** (-6 * k) for k in range(5)])
    ident = arithmetic.SmoothMap("identity", 2, 2, lambda x: x,
                                 is_identity=True)
    center = tuple(float(c) for c in alpha)
    for entry, r in zip(artifact["sweep"], (0.1, 0.01)):
        direct = arithmetic.density_estimate(
            ident, center, a, rho, r, 200, 4, seed=3)
        assert entry["fraction_in_class"] == direct.fraction_in_class
        assert entry["radius"] == r
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("radius,")
    assert len(lines) == 3


def test_lattice_grid_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, ["lattice", "--alpha", "1,987/610",
                 "--t-grid", "0:2:3", "--coeff-bound", "64"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["t"] for row in rows] == [0.0, 1.0, 2.0]
    basis = arithmetic.lattice_basis([Fraction(1), Fraction(987, 610)])
    for row in rows:
        delta, short = arithmetic.flow_and_shortest(basis, row["t"], 64)
        assert row["delta"] == pytest.approx(float(delta), abs=0.0)
        assert tuple(row["shortest"]) == tuple(short)


@pytest.mark.parametrize("t", ["710", "-360", "-746"])
def test_lattice_past_the_float_range_exits_one(capsys, t):
    # e^710 overflows, e^-746 is 0, and at -360 every length overflows
    code, out, err = run_cli(capsys, ["lattice", "--alpha", "1,1.6",
                                      "--t", t])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and f"t={float(t)}" in \
        error["message"]


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("command", ["density", "strips"])
def test_rho_past_the_float_range_exits_one(capsys, command, mode):
    # rho_1 = 2^2000: float mode converts it when building rho, rational
    # mode when it converts the thresholds rho_k a_k
    alpha, r = (("1,987/610", "1/10") if mode == "rational"
                else ("1,1.6", "0.1"))
    extra = (["--radii", "0.1", "--samples", "10"] if command == "density"
             else ["--r", r])
    code, out, err = run_cli(capsys, [command, "--alpha", alpha, "--kmax",
                                      "3", "--rho-exp", "2000", "--mode",
                                      mode, *extra])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == ("rho_k overflows a float" if mode == "float"
                                else "rho_k a_k overflows a float")


def test_lattice_at_t_350_keeps_its_finite_shortest_vector(capsys):
    code, out, err = run_cli(capsys, ["lattice", "--alpha", "1,1.6",
                                      "--t", "350"])
    assert code == 0 and err == ""
    row, = json.loads(out)["rows"]
    assert row["shortest"] == [-8, 5]
    assert row["delta"] == 9.367556844741427e-152


def test_lattice_without_t_exits_two(capsys):
    code, out, err = run_cli(capsys, ["lattice", "--alpha", "1,987/610"])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "schema" and "--t" in error["message"]


def test_strips_summary_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "strips.csv"
    code, out, _ = run_cli(
        capsys, ["strips", "--alpha", "1,987/610", "--kmax", "4",
                 "--r", "0.1", "--csv", str(csv_path)])
    assert code == 0
    artifact = json.loads(out)
    alpha = [Fraction(1), Fraction(987, 610)]
    a = arithmetic.sigma(alpha, 4)
    rho = arithmetic.DecaySequence(
        [Fraction(2) ** (-6 * k) for k in range(5)])
    records = arithmetic.strip_analysis(alpha, a, rho, Fraction(1, 10), 4)
    assert artifact["strip_count"] == len(records)
    hits = [rec for rec in records if rec.intersects_ball]
    assert len(artifact["ball_intersections"]) == len(hits)
    lines = csv_path.read_text().splitlines()
    assert len(lines) == len(records) + 1


@pytest.mark.parametrize("argv, whole, partial", [
    (["sigma", "--alpha", "1,987/610", "--kmax", "8"], 0, 0),
    (["sigma", "--alpha", "1,1.618,-0.7071", "--kmax", "5", "--mode",
      "float"], 0, 6),
    (["bruno", "--alpha", "1,987/610", "--kmax", "8", "--norm", "sup"],
     0, 0),
    (["density", "--alpha", "1,987/610", "--kmax", "6", "--radii",
      "0.1,0.01", "--samples", "300"], 0, 2),
    (["strips", "--alpha", "1,987/610", "--kmax", "6", "--r", "0.1"], 1, 0),
])
def test_ball_expansions_per_command(capsys, monkeypatch, argv, whole,
                                     partial):
    # every listed index goes through arithmetic._expand: exact sigma
    # and bruno take their minima row by row, float sigma lists the
    # rows' near indices once per radius 2^k (k_max 5: six sets), density
    # once per --radii entry, strips lists the ball once
    kmax = int(argv[argv.index("--kmax") + 1])
    n = argv[argv.index("--alpha") + 1].count(",") + 1
    norm = "sup" if "sup" in argv else "euclidean"
    ball = len(arithmetic._half_ball(n, 2 ** kmax, norm, 10 ** 9)[0])
    sizes = []
    expand = arithmetic._expand

    def counting(*args):
        pts, rank = expand(*args)
        sizes.append(len(pts))
        return pts, rank

    monkeypatch.setattr(arithmetic, "_expand", counting)
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert sizes.count(ball) == whole
    assert len(sizes) == whole + partial and max(sizes, default=0) <= ball


def test_birkhoff_quartic_oscillator(capsys, tmp_path):
    jet_path = tmp_path / "H.jet"
    jet_path.write_text(json.dumps(
        {"n": 1, "trunc_degree": 8,
         "coeffs": {"2,0": "1/2", "0,2": "1/2", "4,0": "1"}}))
    code, out, _ = run_cli(
        capsys, ["birkhoff", "--H", str(jet_path), "--l", "4"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["achieved_order"] == 8
    assert result["residual_order"] > 8
    terms = {tuple(exps): coeff for exps, coeff in result["A"]["terms"]}
    assert terms[(1,)] == "1"
    assert terms[(2,)] == "3/2"


def test_kam_run_trace_jsonlines(capsys, tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(
        {"n": 2, "trunc_degree": 8, "alpha": ["1", "987/610"],
         "b": {"2,1,0,0": "1", "0,0,3,0": "1"}}))
    out_path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        capsys, ["kam", "run", "--problem", str(problem),
                 "--out", str(out_path)])
    assert code == 0
    lines = out.strip().splitlines()
    states = [json.loads(line) for line in lines]
    stages = [st["stage"] for st in states[:-1]]
    assert stages == list(range(len(stages)))
    orders = [st["ord_b"] for st in states[:-1] if st["ord_b"] is not None]
    assert orders == sorted(set(orders))
    final = states[-1]
    assert final["config"]["command"] == "kam run"
    assert final["final"]["success"] is True
    assert out_path.read_text().strip() == out.strip()


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_kam_run_complex_alpha_exits_two(capsys, tmp_path, mode):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(
        {"n": 1, "trunc_degree": 6, "alpha": [{"re": "1", "im": "1"}],
         "b": {"3,0": "1"}}))
    code, out, err = run_cli(
        capsys, ["kam", "run", "--problem", str(problem), "--mode", mode])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "schema"


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_kam_run_zero_alpha_exits_two(capsys, tmp_path, mode):
    # a zero frequency leaves the model without its action monomial; the
    # file is refused before the run
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(
        {"n": 2, "trunc_degree": 6, "alpha": ["1", "0"],
         "b": {"3,0,0,0": "1"}}))
    code, out, err = run_cli(
        capsys, ["kam", "run", "--problem", str(problem), "--mode", mode])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "schema" and "alpha" in error["message"]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_kam_run_model_off_alpha_exits_two(capsys, tmp_path, mode):
    # "a" has the action coefficient 1 and alpha says 2: the file is
    # refused before the run; with alpha 1 the same file runs
    problem = tmp_path / "problem.json"
    data = {"n": 1, "trunc_degree": 6, "alpha": ["2"], "a": {"1,1": "1"},
            "b": {"3,0": "1", "0,3": "1"}}
    problem.write_text(json.dumps(data))
    argv = ["kam", "run", "--problem", str(problem), "--mode", mode]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "schema" and "alpha" in error["message"]
    problem.write_text(json.dumps({**data, "alpha": ["1"]}))
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""


def test_torus_scan_summary_and_csv(capsys, tmp_path):
    jet_path = tmp_path / "H2.jet"
    jet_path.write_text(json.dumps(
        {"n": 2, "trunc_degree": 4,
         "coeffs": {"2,0,0,0": "0.5", "0,0,2,0": "0.5",
                    "0,2,0,0": "0.809", "0,0,0,2": "0.809"}}))
    csv_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys, ["torus", "scan", "--H", str(jet_path), "--r", "0.3",
                 "--samples", "4", "--steps", "1024", "--seed", "5",
                 "--csv", str(csv_path)])
    assert code == 0
    artifact = json.loads(out)
    assert artifact["config"]["command"] == "torus scan"
    report = artifact["report"]
    assert report["fraction_torus_like"] == 1.0
    assert report["counts"]["torus-like"] == 4
    lines = csv_path.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["x0_0", "x0_1", "x0_2", "x0_3"]
    assert len(lines) == 5


def write_golden_jet(tmp_path):
    write_inputs(tmp_path)
    return str(tmp_path / "H2.json")


def no_integration(*args, **kwargs):
    raise AssertionError("the scan integrated before checking its config")


@pytest.mark.parametrize("option", [
    "--dt=-0.02", "--dt=0", "--dt=nan", "--r=nan", "--r=-0.3",
    "--escape-factor=0", "--escape-factor=-1", "--escape-factor=inf",
    "--tol-energy=-1", "--tol-energy=0", "--tol-freq=nan",
    "--tol-freq=-1e-4"])
def test_torus_scan_nonsense_parameters_exit_two(capsys, tmp_path,
                                                 monkeypatch, option):
    monkeypatch.setattr(torusverify, "_integrate_batch", no_integration)
    argv = ["torus", "scan", "--H", write_golden_jet(tmp_path), "--r", "0.3",
            "--samples", "4", "--steps", "256", option]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "schema"
    assert "finite and positive" in error["message"]


def no_library_call(*args, **kwargs):
    raise AssertionError("the library ran before the config was checked")


@pytest.mark.parametrize("argv", [
    ["sigma", "--alpha", "1,987/610", "--kmax", "-1"],
    ["bruno", "--alpha", "1,987/610", "--kmax", "-1"],
    ["density", "--alpha", "1,987/610", "--kmax", "3", "--radii", "0.1",
     "--samples", "0"],
    ["density", "--alpha", "1,987/610", "--kmax", "3", "--radii", "0.1",
     "--samples", "10", "--seed", "-1"],
    ["density", "--alpha", "1,987/610", "--kmax", "3", "--radii", "0.1",
     "--samples", "10", "--center", "1,nan"],
    ["strips", "--alpha", "1,1.618", "--kmax", "3", "--mode", "float",
     "--r", "nan"],
    ["strips", "--alpha", "1,1.618", "--kmax", "3", "--mode", "float",
     "--r", "-1"],
    ["strips", "--alpha", "1,987/610", "--kmax", "3", "--r", "-0.5"],
    ["lattice", "--alpha", "1,987/610", "--t", "nan"],
    ["lattice", "--alpha", "1,987/610", "--t-grid", "0:1:0"],
    ["lattice", "--alpha", "1,987/610", "--t-grid", "0:1:2.7"],
    ["lattice", "--alpha", "1,987/610", "--t-grid", "nan:1:3"],
    ["lattice", "--alpha", "1,987/610", "--t", "1", "--coeff-bound", "0"],
    ["birkhoff", "--H", "H.json", "--l", "0"],
    ["birkhoff", "--H", "H.json", "--l", "4", "--divisor-floor", "-1"],
    ["birkhoff", "--H", "H.json", "--l", "4", "--mode", "float",
     "--divisor-floor", "nan"],
    ["kam", "run", "--problem", "problem.json", "--stages", "-1"],
    ["torus", "scan", "--H", "H2.json", "--r", "0.3", "--samples", "0"],
    ["torus", "scan", "--H", "H2.json", "--r", "0.3", "--samples", "4",
     "--steps", "256", "--windows", "1"],
    ["torus", "scan", "--H", "H2.json", "--r", "0.3", "--samples", "4",
     "--steps", "256", "--seed", "-1"],
    ["torus", "scan", "--H", "H2.json", "--r", "0.3", "--samples", "4",
     "--steps", "0"],
    ["torus", "scan", "--H", "H2.json", "--r", "0.3", "--samples", "4",
     "--steps", "-5"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_option_outside_its_rule_exits_two(capsys, tmp_path, monkeypatch,
                                          argv):
    # every option is checked before the command calls into the library
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    for module, name in [(arithmetic, "sigma"), (arithmetic, "lattice_basis"),
                         (cli, "birkhoff_normalize"), (cli, "kam_iterate"),
                         (cli, "torus_scan")]:
        monkeypatch.setattr(module, name, no_library_call)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "schema"
    assert error["message"].startswith(argv[-2] + ":")


@pytest.mark.parametrize("steps", ["100"])
def test_torus_scan_short_windows_exit_two(capsys, tmp_path, monkeypatch,
                                           steps):
    # --steps and --windows together fix the window length; under 64
    # samples per window the config is refused before the scan runs
    monkeypatch.setattr(cli, "torus_scan", no_library_call)
    argv = ["torus", "scan", "--H", write_golden_jet(tmp_path), "--r", "0.3",
            "--samples", "2", "--steps", steps]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "schema"
    assert error["message"].startswith("--windows: window length")
    assert "below 64 samples" in error["message"]


def test_torus_scan_over_memory_budget_exits_one(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr(torusverify, "_integrate_batch", no_integration)
    argv = ["torus", "scan", "--H", write_golden_jet(tmp_path), "--r", "0.3",
            "--samples", "100000", "--steps", "8192"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceededError"


def test_density_over_memory_budget_exits_one(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the memory check")
    monkeypatch.setattr(arithmetic, "_uniform_ball", no_sampling)
    code, out, err = run_cli(capsys, [
        "density", "--alpha", "1,987/610", "--kmax", "3", "--radii", "0.1",
        "--samples", "1000000000"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceededError"


def test_report_digests_prior_artifacts(capsys, tmp_path):
    art = tmp_path / "sig.json"
    run_cli(capsys, ["sigma", "--alpha", "1,2/3", "--kmax", "4",
                     "--out", str(art)])
    code, out, _ = run_cli(capsys, ["report", "--inputs", str(art)])
    assert code == 0
    sections = json.loads(out)["sections"]
    assert sections[0]["command"] == "sigma"
    assert "sigma" in sections[0]["headline"]


def test_report_reads_kam_run_jsonlines(capsys, tmp_path):
    # kam run writes JSON lines; report digests the last one, which holds
    # the config and the final state
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(
        {"n": 2, "trunc_degree": 8, "alpha": ["1", "987/610"],
         "b": {"2,1,0,0": "1", "0,0,3,0": "1"}}))
    trace = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, ["kam", "run", "--problem", str(problem),
                                    "--out", str(trace)])
    assert code == 0
    final = json.loads(out.strip().splitlines()[-1])
    code, out, err = run_cli(capsys, ["report", "--inputs", str(trace)])
    assert code == 0 and err == ""
    section = json.loads(out)["sections"][0]
    assert section["command"] == "kam run"
    assert section["headline"] == {"final": final["final"]}

    broken = tmp_path / "broken.jsonl"
    broken.write_text(trace.read_text() + "{not json\n")
    code, _, err = run_cli(capsys, ["report", "--inputs", str(broken)])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "schema"


def test_jet_schema_violations_exit_two(capsys, tmp_path):
    incomplete = tmp_path / "bad.jet"
    incomplete.write_text(json.dumps({"n": 1, "coeffs": {}}))
    code, _, err = run_cli(
        capsys, ["birkhoff", "--H", str(incomplete), "--l", "3"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "schema"

    code, _, err = run_cli(
        capsys, ["birkhoff", "--H", str(tmp_path / "missing.jet"),
                 "--l", "3"])
    assert code == 2

    wrong_arity = tmp_path / "arity.jet"
    wrong_arity.write_text(json.dumps(
        {"n": 1, "trunc_degree": 4, "coeffs": {"1,2,3": "1"}}))
    code, _, err = run_cli(
        capsys, ["birkhoff", "--H", str(wrong_arity), "--l", "3"])
    assert code == 2


@pytest.mark.parametrize("coeffs", [{"x,1": "1"}, {"1.5,0": "1"},
                                    [["2,0", "1"]]])
def test_malformed_jet_coeffs_exit_two(capsys, tmp_path, coeffs):
    # a non-integer exponent key and a coeffs list are schema errors,
    # not a bare ValueError or an AttributeError traceback
    bad = tmp_path / "bad.jet"
    bad.write_text(json.dumps({"n": 1, "trunc_degree": 4, "coeffs": coeffs}))
    code, _, err = run_cli(capsys, ["birkhoff", "--H", str(bad), "--l", "1"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "schema"


@pytest.mark.parametrize("flag, value", [("--radii", "0.1,abc"),
                                         ("--center", "1,x")])
def test_malformed_density_vector_exits_two(capsys, flag, value):
    argv = ["density", "--alpha", "1,987/610", "--kmax", "3",
            "--radii", "0.1", "--samples", "10", flag, value]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "schema"


@pytest.mark.parametrize("radii", ["-0.1", "0", "0.1,-0.05", "inf",
                                   "0.1,nan"])
def test_non_positive_radii_exit_two(capsys, radii):
    argv = ["density", "--alpha", "1,987/610", "--kmax", "3",
            "--radii", radii, "--samples", "10"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "schema"


@pytest.mark.parametrize("center", ["1,2,3", "1"])
def test_density_center_of_wrong_length_exits_two(capsys, monkeypatch,
                                                   center):
    # the center must match --alpha's length, and the check comes before
    # any small-divisor work
    def no_sigma(*args, **kwargs):
        raise AssertionError("sigma ran before the config was checked")
    monkeypatch.setattr(arithmetic, "sigma", no_sigma)
    argv = ["density", "--alpha", "1,987/610", "--kmax", "3",
            "--radii", "0.1", "--samples", "10", "--center", center]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "schema"


ALPHA_COMMAND_ARGS = {
    "sigma": ["--kmax", "3"],
    "bruno": ["--kmax", "3"],
    "density": ["--kmax", "3", "--radii", "0.1", "--samples", "10"],
    "strips": ["--kmax", "3", "--r", "0.1"],
    "lattice": ["--t", "1"],
}


@pytest.mark.parametrize("command", sorted(ALPHA_COMMAND_ARGS))
def test_non_finite_float_alpha_exits_two(capsys, command):
    for alpha in ("1,nan", "1,inf"):
        argv = [command, "--alpha", alpha, "--mode", "float"]
        code, out, err = run_cli(capsys, argv + ALPHA_COMMAND_ARGS[command])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "schema"


def test_out_dir_environment_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KAMTORI_OUT", str(tmp_path))
    code, out, _ = run_cli(
        capsys, ["sigma", "--alpha", "1,2", "--kmax", "2",
                 "--out", "artifact.json"])
    assert code == 0
    written = (tmp_path / "artifact.json").read_text()
    assert written.strip() == out.strip()
