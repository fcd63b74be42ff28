"""Command-line interface: outputs, exit codes, format round-trips."""
import csv
import json

import pytest

import grwalk.catalog as catalog
import grwalk.cli as cli
import grwalk.stationary as stationary
from grwalk.cli import main
from grwalk.graphs import parse_instance
from grwalk.potential import AuditReport
from grwalk.ratlin import RatMatrix, parse_rational, rat
from grwalk.stationary import ArcField

K4 = """n 4
e 1 2
e 1 3
e 1 4
e 2 3
e 2 4
e 3 4
tail 1 1
tail 4 0
"""

C4 = """n 4
e 1 2
e 2 3
e 3 4
e 1 4
tail 1 1
tail 4 0
z -1
"""


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.gw"
    path.write_text(K4)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.gw"
    path.write_text(C4)
    return str(path)


def test_analyze_human(k4_file, capsys):
    assert main(["analyze", k4_file]) == 0
    out = capsys.readouterr().out
    assert "5/12" in out
    assert "routes agree" in out
    assert "perfect-reflection" in out
    assert "chi1=16" in out and "iota1=48" in out


def test_analyze_json(k4_file, capsys):
    assert main(["analyze", k4_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and data["routes_agree"]
    assert data["energy"]["direct"] == "5/12"
    assert data["beta"] == ["1", "0"]
    assert data["sigma"] == [["1", "0"], ["0", "1"]]
    assert data["bipartite"] is False
    assert sorted(data["odd_cycle"]) and len(data["odd_cycle"]) % 2 == 1


def test_analyze_json_z_plus_one(tmp_path, capsys):
    # At z = +1 sigma is Gr(2), checked against the prediction.
    path = tmp_path / "k4_plus.gw"
    path.write_text(K4 + "z 1\n")
    assert main(["analyze", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "grover"
    assert data["scattering_ok"] is True and data["ok"] is True
    assert data["sigma"] == [["0", "1"], ["1", "0"]]
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scattering class: grover" in out
    assert "SCATTERING MISMATCH" not in out


def test_analyze_human_scattering_mismatch(k4_file, monkeypatch, capsys):
    monkeypatch.setattr(stationary, "predicted_scattering",
                        lambda inst: RatMatrix.zeros(inst.r, inst.r))
    assert main(["analyze", k4_file]) == 1
    assert "SCATTERING MISMATCH" in capsys.readouterr().out
    assert main(["analyze", k4_file, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["scattering_ok"] is False and data["ok"] is False


def test_analyze_kirchhoff_audit_failure(k4_file, monkeypatch, capsys):
    def failing_audit(inst, psi):
        report = AuditReport(bipartite=False)
        report.add("arc symmetry", True)
        report.add("current law at vertices", False)
        return report

    monkeypatch.setattr(catalog, "kirchhoff_audit", failing_audit)
    assert main(["analyze", k4_file]) == 1
    out = capsys.readouterr().out
    assert "Kirchhoff audit FAILED: current law at vertices\n" in out
    assert "routes agree" in out and "SCATTERING MISMATCH" not in out
    assert main(["analyze", k4_file, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["audit_ok"] is False and data["ok"] is False
    assert data["routes_agree"] is True and data["scattering_ok"] is True


@pytest.mark.parametrize("route, text", [("bipartite_route", C4),
                                         ("nonbipartite_route", K4)])
def test_analyze_potential_reconstruction_mismatch(tmp_path, monkeypatch,
                                                    capsys, route, text):
    # The route keeps the right energy but changes one arc of psi.
    real = getattr(catalog, route)

    def one_arc_off(inst):
        potential, psi, energy = real(inst)
        values = dict(psi.values)
        values[inst.graph.arcs[0]] += 1
        return potential, ArcField(inst.graph, values), energy

    monkeypatch.setattr(catalog, route, one_arc_off)
    report = catalog.analyze(parse_instance(text))
    assert not report.routes_agree and not report.ok
    assert report.scattering_ok and report.audit.ok
    mismatch = report.energy_routes[-1]
    assert (mismatch.name, mismatch.value) == \
        ("potential-reconstruction-mismatch", None)
    path = tmp_path / "instance.gw"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr().out
    assert "potential-reconstruction-mismatch MISMATCH" in out
    assert "ROUTE DISAGREEMENT" in out
    assert main(["analyze", str(path), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["energy"]["potential-reconstruction-mismatch"] is None
    assert data["routes_agree"] is False and data["ok"] is False


def test_json_and_human_rationals_match(c4_file, capsys):
    # Machine-readable and human-readable outputs carry identical exact
    # values: parse both and compare.
    assert main(["analyze", c4_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert main(["analyze", c4_file]) == 0
    human = capsys.readouterr().out
    for entry in data["psi"]:
        assert f"{entry['value']}" in human
        v = parse_rational(entry["value"])
        assert abs(float(v.numerator) / float(v.denominator)
                   - entry["approx"]) < 1e-12
    assert data["energy"]["direct"] == "19/16" and "19/16" in human


def test_analyze_approximates_rationals_beyond_float_range(tmp_path, capsys):
    # Numerator and denominator each overflow a float; their ratio does not.
    big = 10 ** 400
    path = tmp_path / "k3_big.gw"
    path.write_text(f"n 3\ne 1 2\ne 2 3\ne 1 3\ntail 1 {big}/{big + 1}\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "routes agree" in out and "(-0.500000)" in out
    assert main(["analyze", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and data["routes_agree"]
    for entry in data["psi"]:
        assert entry["approx"] == float(parse_rational(entry["value"]))
        assert abs(entry["approx"]) == 0.5


@pytest.mark.parametrize("command", [["analyze"], ["analyze", "--json"],
                                     ["analyze", "--simulate", "5"],
                                     ["simulate", "--steps", "5"]],
                         ids=["analyze", "json", "analyze-simulate",
                              "simulate"])
def test_rational_beyond_float_range_is_an_input_error(command, tmp_path,
                                                       capsys):
    # The exact analysis of an inflow of 10^400 is valid, so the instance
    # parses; only its float approximations and the float simulator fail.
    text = f"n 3\ne 1 2\ne 2 3\ne 1 3\ntail 1 {10 ** 400}\n"
    assert parse_instance(text).inflow == (rat(10 ** 400),)
    path = tmp_path / "k3_huge.gw"
    path.write_text(text)
    assert main(command[:1] + [str(path)] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: ") and "float" in lines[0]


def test_analyze_with_simulation(k4_file, capsys):
    assert main(["analyze", k4_file, "--simulate", "300"]) == 0
    out = capsys.readouterr().out
    assert "simulation: converged at step 127 (predicted 135 steps to " \
        "residual 1e-10)" in out
    assert "contraction rate 0.8431" in out
    assert main(["analyze", k4_file, "--simulate", "300", "--json"]) == 0
    sim = json.loads(capsys.readouterr().out)["simulation"]
    assert sim["converged_at"] == 127 and sim["predicted_steps"] == 135
    # Too few steps: the line says so instead of reading as converged.
    assert main(["analyze", k4_file, "--simulate", "50"]) == 0
    out = capsys.readouterr().out
    assert "simulation: not converged in 50 steps (predicted 135 " in out
    assert main(["analyze", k4_file, "--simulate", "50", "--json"]) == 0
    sim = json.loads(capsys.readouterr().out)["simulation"]
    assert sim["converged_at"] is None and sim["steps"] == 50


def test_analyze_bad_simulate_steps(k4_file, capsys):
    for steps in ("0", "-3"):
        assert main(["analyze", k4_file, "--simulate", steps]) == 2
        captured = capsys.readouterr()
        assert "error: --simulate must be at least 1" in captured.err
        assert captured.out == ""


def test_analyze_missing_file(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "/no/such/file"])
    assert err.value.code == 2


@pytest.mark.parametrize("command",
                         [["analyze"], ["simulate", "--steps", "5"]],
                         ids=["analyze", "simulate"])
def test_unreadable_files_exit_2(command, tmp_path, capsys):
    # A directory and a file that is not UTF-8 (it starts with a UTF-16
    # byte-order mark) both fail with a message, not a traceback.
    binary = tmp_path / "utf16.gw"
    binary.write_bytes(b"\xff\xfe" + "n 2\ne 1 2\n".encode("utf-16-le"))
    for path in (str(tmp_path), str(binary)):
        with pytest.raises(SystemExit) as err:
            main(command + [path])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.out == ""


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.gw"
    path.write_text("n 3\ne 1 2\nwhat\n")
    with pytest.raises(SystemExit) as err:
        main(["analyze", str(path)])
    assert err.value.code == 2


def test_rank_human(capsys):
    assert main(["rank", "--n", "4", "--z", "-1"]) == 0
    out = capsys.readouterr().out
    assert "456 configurations" in out
    for value in ("5/12", "19/16", "7/4", "3/2"):
        assert value in out


def test_rank_json_table1(capsys):
    assert main(["rank", "--n", "4", "--z", "-1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [c["comfort"] for c in data["classes"]] == \
        ["5/12", "3/4", "1/2", "19/16", "5/4", "7/4", "3/4", "1", "5/4", "3/2"]
    assert [c["scattering"] for c in data["classes"]] == list("RRRTTRRTTT")
    assert [m["comfort"] for m in data["class_maxima"]] == \
        ["5/4", "3/2", "5/4", "7/4", "3/4", "5/12"]
    # Exact values round-trip through the serialization.
    for c in data["classes"]:
        v = parse_rational(c["comfort"])
        assert abs(float(v.numerator) / float(v.denominator) - c["approx"]) < 1e-12


def test_rank_out_of_range(capsys):
    assert main(["rank", "--n", "9"]) == 2


def test_simulate_cmd(c4_file, tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    assert main(["simulate", c4_file, "--steps", "50",
                 "--out", str(out_csv)]) == 0
    text = capsys.readouterr().out
    assert "distance to exact" in text
    assert "contraction rate: 0.7769" in text
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["step", "arc_origin", "arc_terminus"]
    assert len(rows) > 1


def test_simulate_without_early_stop(c4_file, capsys):
    # A threshold <= 0 is never reached: the full step count runs and the
    # rate is printed without a prediction.
    for stop in ("0", "-1"):
        assert main(["simulate", c4_file, "--steps", "150",
                     "--residual-stop", stop]) == 0
        text = capsys.readouterr().out
        assert "steps run: 150 (requested 150)" in text
        assert "contraction rate: 0.7769" in text
        assert "no early stop at residual threshold" in text


def test_simulate_bad_steps(c4_file, capsys):
    assert main(["simulate", c4_file, "--steps", "0"]) == 2


def test_simulate_unwritable_out_exits_2(c4_file, tmp_path, capsys,
                                        monkeypatch):
    # A directory, and a file under a missing directory: a message and
    # exit 2, not a traceback, before the exact solve and the run.
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was opened")

    monkeypatch.setattr(cli, "stationary_state", never)
    monkeypatch.setattr(cli, "simulate", never)
    for path in (tmp_path, tmp_path / "missing" / "trace.csv"):
        assert main(["simulate", c4_file, "--steps", "5",
                     "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert "trace written" not in captured.out


def test_simulate_failed_run_leaves_no_out_file(tmp_path, capsys,
                                                monkeypatch):
    # --out is opened before the run; a run that fails then removes it.
    path = tmp_path / "k3_huge.gw"
    path.write_text(f"n 3\ne 1 2\ne 2 3\ne 1 3\ntail 1 {10 ** 400}\n")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", str(path), "--steps", "5",
                 "--out", "h.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "float" in captured.err
    assert not (tmp_path / "h.csv").exists()


def test_simulate_trace_beyond_memory_exits_2(c4_file, tmp_path, capsys,
                                             monkeypatch):
    # A trace too large to allocate: one error line and exit 2, not a
    # traceback, and the --out file opened before the run is removed.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate memory for array")

    monkeypatch.setattr(cli, "simulate", out_of_memory)
    out_csv = tmp_path / "trace.csv"
    assert main(["simulate", c4_file, "--steps", "1000000000",
                 "--residual-stop", "0", "--out", str(out_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {c4_file}: the trace of 1000000000 "
                            f"steps does not fit in memory\n")
    assert not out_csv.exists()


def test_simulate_failed_write_leaves_no_out_file(c4_file, tmp_path, capsys,
                                                  monkeypatch):
    def full_disk(trace, fh):
        fh.write("step")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_trace_csv", full_disk)
    out_csv = tmp_path / "trace.csv"
    assert main(["simulate", c4_file, "--steps", "5",
                 "--out", str(out_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out_csv}: ")
    assert "trace written" not in captured.out
    assert not out_csv.exists()


def test_simulate_reports_the_float_cycle(k4_file, tmp_path, capsys):
    assert main(["simulate", k4_file, "--steps", "2000",
                 "--residual-stop", "0"]) == 0
    assert "float trajectory: repeats exactly from step 344 with " \
        "period 10" in capsys.readouterr().out
    assert main(["simulate", k4_file, "--steps", "300"]) == 0
    assert "float trajectory: no exact repeat found" in \
        capsys.readouterr().out
    assert main(["analyze", k4_file, "--simulate", "300", "--json"]) == 0
    sim = json.loads(capsys.readouterr().out)["simulation"]
    assert sim["cycle_start"] is None and sim["cycle_period"] is None
