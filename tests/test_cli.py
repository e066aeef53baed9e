import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from heunkummer import LorentzianModel, integrate_rk, match_against_rk
from heunkummer.cli import format_complex, main, parse_complex

from conftest import subprocess_env

CHE_EXAMPLE = ["che-series", "--family", "a2", "--gamma", "1", "--delta", "0",
               "--eps", "1", "--alpha", "1", "--q", "1", "--z", "0.3"]
SPECTRUM_EXAMPLE = ["q-spectrum", "--family", "a2", "--gamma", "2.3",
                    "--delta=-2", "--eps", "1.1", "--alpha", "0.7"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# literal parsing and formatting

def test_parse_complex_literals():
    assert parse_complex("2") == 2.0
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("1+0.4i") == 1 + 0.4j
    assert parse_complex(" 2.5 - 1i ") == 2.5 - 1j


def test_format_complex_round_trips():
    for z in (2.0 + 0j, -0.5j, 1 + 0.4j, 2.5 - 1j, 0j):
        assert parse_complex(format_complex(z)) == z
    # the real part keeps its own sign bit, so a bare imaginary literal
    # echoes with an explicit zero real part
    assert format_complex(complex(0.0, -0.5)) == "0.0-0.5i"
    assert format_complex(1.5 + 0j) == "1.5"


# ---------------------------------------------------------------------------
# records

def test_che_series_example_record(capsys):
    code, record = run_json(capsys, CHE_EXAMPLE)
    assert code == 0
    assert record["command"] == "che-series"
    assert record["inputs"]["z"] == "0.3"
    res = record["results"]
    assert res["terminated"] is True
    assert res["terminal_index"] == 0
    assert res["value"]["re"] == pytest.approx(math.exp(-0.3), rel=1e-14)
    assert res["value"]["im"] == 0
    assert record["diagnostics"]["ode_residual"] <= 1e-12
    assert record["diagnostics"]["tail_estimate"] == 0


@pytest.mark.parametrize("family", ["a2", "b3", "c"])
def test_che_series_warns_when_the_sum_is_not_a_solution(capsys, family):
    # left-terminated but not right-terminated: the partial sum misses the
    # equation by order 1, and the record says so while exiting 0
    code, record = run_json(capsys, ["che-series", "--family", family,
                                     "--gamma", "2.3", "--delta", "0.4",
                                     "--eps", "1.1", "--alpha", "0.7",
                                     "--q", "0.3", "--z", "0.3"])
    assert code == 0
    residual = record["diagnostics"]["ode_residual"]
    assert residual > 1
    assert record["diagnostics"]["warnings"] == [
        f"HeunKummerWarning: ode_residual {residual:.3g} exceeds 1e-08: "
        "the series sum does not solve the equation at z"]


@pytest.mark.parametrize("z", ["0", "1"])
def test_che_series_at_a_singular_point_records_a_null_residual(capsys, z):
    # the equation is singular at z = 0 and 1: the sum is still a value, the
    # residual is not, as in frobenius
    code, record = run_json(capsys, ["che-series", "--family", "a2", "--gamma", "2.3",
                                     "--delta", "0", "--eps", "1.1", "--alpha", "0.7",
                                     "--q", "0.7", "--z", z])
    assert code == 0
    assert record["diagnostics"]["ode_residual"] is None
    assert record["diagnostics"]["warnings"] == []
    _, frobenius = run_json(capsys, ["frobenius", "--gamma", "2.3", "--delta", "0",
                                     "--eps", "1.1", "--alpha", "0.7", "--q", "0.7",
                                     "--z", z])
    assert frobenius["diagnostics"]["ode_residual"] is None


def test_che_series_finds_a_finite_sum_past_the_smallest_condition(capsys):
    # alpha/eps = -1 gives AlphaOverEps N = 1, whose spectrum misses q; q is
    # a root of the DeltaInt N = 3 spectrum
    code, record = run_json(capsys, ["che-series", "--family", "a2", "--gamma",
                                     "2.3", "--delta=-3", "--eps", "1",
                                     "--alpha=-1", "--q", "2.4762260797143",
                                     "--z", "0.3"])
    assert code == 0
    assert record["results"]["terminated"] is True
    assert record["results"]["terminal_index"] == 3
    assert record["diagnostics"]["n_coefficients"] == 4
    assert record["diagnostics"]["tail_estimate"] == 0


def test_eval_1f1_recheck_keeps_a_tiny_tol_positive(capsys):
    # --tol / 100 underflows to 0 below about 2.5e-322
    code, record = run_json(capsys, ["eval-1f1", "--a", "1", "--c", "2",
                                     "--x", "0.5", "--tol", "5e-324"])
    assert code == 0
    assert record["results"]["value"]["re"] == 1.2974425414002562


def test_eval_1f1_record(capsys):
    code, record = run_json(capsys, ["eval-1f1", "--a", "1", "--c", "1",
                                     "--x", "1"])
    assert code == 0
    assert record["results"]["value"]["re"] == pytest.approx(math.e, rel=1e-14)
    assert record["diagnostics"]["recheck_delta"] <= 1e-13


def test_q_spectrum_example_record(capsys):
    code, record = run_json(capsys, SPECTRUM_EXAMPLE)
    assert code == 0
    res = record["results"]
    assert res["kind"] == "DeltaInt" and res["N"] == 2
    assert len(res["roots"]) == 3
    assert res["verified"] == [True, True, True]
    assert record["diagnostics"]["all_verified"] is True
    assert res["table"]["columns"] == ["root_re", "root_im", "verified",
                                       "rebuild_residual"]


def test_detect_termination_record(capsys):
    base = ["detect-termination", "--family", "a2", "--gamma", "2.3",
            "--delta=-1", "--eps", "1.1", "--alpha=-2.2"]
    code, record = run_json(capsys, base)
    assert code == 0
    assert record["results"]["found"] is True
    assert record["results"]["conditions"] == [{"kind": "DeltaInt", "N": 1}]
    code, record = run_json(capsys, base + ["--all"])
    assert record["inputs"]["all"] is True
    assert record["results"]["conditions"] == [{"kind": "DeltaInt", "N": 1},
                                               {"kind": "AlphaOverEps", "N": 2}]


def test_transform_record(capsys):
    code, record = run_json(capsys, ["transform", "--gamma", "1", "--delta",
                                     "2", "--eps", "3", "--alpha", "0",
                                     "--q", "5"])
    assert code == 0
    res = record["results"]
    assert (res["gamma"]["re"], res["delta"]["re"]) == (2, 1)
    assert res["eps"]["re"] == -3
    assert record["diagnostics"]["involution_exact"] is True


def test_frobenius_record(capsys):
    code, record = run_json(capsys, ["frobenius", "--gamma", "1", "--delta",
                                     "1", "--eps", "1", "--alpha", "1",
                                     "--q", "0.5", "--z", "0.3",
                                     "--k-terms", "60"])
    assert code == 0
    assert record["diagnostics"]["ode_residual"] <= 1e-10


def test_frobenius_at_a_tiny_z_is_a_finite_record(capsys):
    # z*z underflowed to 0 in the u'' term: the record was a ZeroDivisionError
    code, record = run_json(capsys, ["frobenius", "--gamma", "2.3", "--delta", "0.5",
                                     "--eps", "1", "--alpha", "1", "--z", "1e-200"])
    assert code == 0
    res = record["results"]
    assert res["u"] == {"re": 1.0, "im": 0.0}
    # q = 0: u' = 2 c_2 z and u'' = 2 c_2 = alpha/(1 + gamma)
    assert res["du"]["re"] == pytest.approx(2e-200 / 6.6, rel=1e-15)
    assert res["d2u"]["re"] == pytest.approx(1 / 3.3, rel=1e-15)


def test_two_state_record(capsys):
    u0 = repr(math.sqrt(3.0))
    code, record = run_json(capsys, ["two-state", "--u0", u0, "--delta0", "2",
                                     "--delta1=-2", "--t-start=-3",
                                     "--t-end", "3", "--steps", "2000",
                                     "--samples", "7"])
    assert code == 0
    res = record["results"]
    assert res["terminated"] is True
    assert res["R"] == pytest.approx(2.0)
    assert res["max_deviation"] <= 1e-9
    assert len(res["table"]["rows"]) == 7
    assert record["diagnostics"]["norm_drift"] <= 1e-10
    # the step-error estimate of the RK basis behind the match
    match = match_against_rk(LorentzianModel(math.sqrt(3.0), 2.0, -2.0),
                             t_start=-3.0, t_end=3.0, steps=2000)
    assert record["diagnostics"]["step_error"] == match.step_error


def test_two_state_family_a2_matches_the_integrator(capsys):
    code, record = run_json(capsys, ["two-state", "--u0", repr(math.sqrt(3.0)),
                                     "--delta0", "2", "--delta1=-2",
                                     "--family", "a2"])
    assert code == 0
    assert record["results"]["terminated"] is True
    assert record["results"]["max_deviation"] <= 1e-6


def test_two_state_warns_when_the_closed_form_misses_the_integrator(capsys):
    # over [-15, 15] the closed form sums 1F1 up to |x| = 30.1 and misses
    # the integrator by 8e-5, while the integrator itself keeps its norm;
    # the record names the deviation and still exits 0
    code, record = run_json(capsys, ["two-state", "--u0", "1.7320508075688772",
                                     "--delta0", "2", "--delta1=-2",
                                     "--t-start=-15", "--t-end", "15",
                                     "--samples", "3"])
    assert code == 0
    deviation = record["results"]["max_deviation"]
    assert deviation > 1e-6
    assert record["diagnostics"]["norm_drift"] <= 1e-10
    assert (f"HeunKummerWarning: max_deviation {deviation:.3g} exceeds 1e-06: "
            "the closed form does not match the integrator") \
        in record["diagnostics"]["warnings"]


def test_two_state_readme_example_has_no_warning(capsys):
    code, record = run_json(capsys, ["two-state", "--u0", "1.7320508075688772",
                                     "--delta0", "2", "--delta1=-2"])
    assert code == 0
    assert record["results"]["max_deviation"] <= 1e-12
    assert record["diagnostics"]["warnings"] == []


def test_two_state_off_manifold_reports_trajectory_only(capsys):
    code, record = run_json(capsys, ["two-state", "--u0", "2", "--delta0",
                                     "0.5", "--delta1", "1", "--t-start=-2",
                                     "--t-end", "2", "--steps", "2000",
                                     "--samples", "5"])
    assert code == 0
    assert record["results"]["terminated"] is False
    assert record["results"]["max_deviation"] is None
    assert "closed_form" in record["diagnostics"]
    # populations still come out of the integrator, and so does its check
    assert record["results"]["table"]["rows"][0][1] == pytest.approx(1.0, abs=1e-9)
    traj = integrate_rk(LorentzianModel(2.0, 0.5, 1.0), -2.0, 2.0, 2000)
    assert record["diagnostics"]["step_error"] == traj.step_error


def test_two_state_at_zero_detuning_rate_reports_trajectory_only(capsys):
    # Delta0 = 0 reduces to eps = 0, where no family applies
    code, record = run_json(capsys, ["two-state", "--u0", "2", "--delta0", "0",
                                     "--delta1", "1", "--t-start=-2",
                                     "--t-end", "2", "--steps", "2000",
                                     "--samples", "5"])
    assert code == 0
    assert record["results"]["terminated"] is False
    assert record["results"]["max_deviation"] is None
    assert record["results"]["table"]["rows"][0][1] == pytest.approx(1.0, abs=1e-9)


def test_two_state_at_natural_R_off_the_return_spectrum_reports_trajectory_only(capsys):
    # R = 2, but Delta0 = 0.7 puts q off the spectrum, where the terminating
    # build cannot take step 3 (R_3 = 0 with a nonzero numerator)
    code, record = run_json(capsys, ["two-state", "--u0", "1.7320508075688772",
                                     "--delta0", "0.7", "--delta1=-2"])
    assert code == 0
    assert record["results"]["terminated"] is False
    assert record["results"]["max_deviation"] is None


def test_two_state_builds_its_closed_form_once(capsys, monkeypatch):
    import heunkummer.cli
    import heunkummer.twostate as twostate

    calls = []
    build = twostate.closed_form_solution

    def counted(model, family):
        calls.append(model)
        return build(model, family)

    for module in (twostate, heunkummer.cli):
        monkeypatch.setattr(module, "closed_form_solution", counted,
                            raising=False)
    code, record = run_json(capsys, ["two-state", "--u0", "1.7320508075688772",
                                     "--delta0", "2", "--delta1=-2",
                                     "--samples", "5"])
    assert code == 0
    assert record["results"]["terminated"] is True
    assert len(calls) == 1


def test_two_state_family_c_is_a_usage_error(capsys):
    # the reduction has alpha = 0, outside family c
    code = main(["two-state", "--u0", "2", "--delta0", "0.5", "--delta1", "1",
                 "--family", "c"])
    capsys.readouterr()
    assert code == 2


def test_return_spectrum_scan_record(capsys):
    code, record = run_json(capsys, ["return-spectrum-scan", "--u0",
                                     repr(math.sqrt(0.75)), "--delta1=-1",
                                     "--n", "0", "--delta0-min=-0.3",
                                     "--delta0-max", "0.7", "--points", "11"])
    assert code == 0
    located = record["results"]["located"]
    assert abs(located["delta0"]) <= 1e-3
    assert located["residual"] <= 1e-8
    assert len(record["results"]["table"]["rows"]) == 11


def test_repeated_warnings_are_listed_once(capsys, monkeypatch):
    import heunkummer.cli

    def noisy(ns):
        for text in ("first", "second", "first", "second", "first"):
            warnings.warn(text)
        return {}, {}

    spec = heunkummer.cli.COMMANDS["eval-1f1"]
    monkeypatch.setitem(heunkummer.cli.COMMANDS, "eval-1f1",
                        spec._replace(runner=noisy))
    code, record = run_json(capsys, ["eval-1f1", "--a", "1", "--c", "1",
                                     "--x", "1"])
    assert code == 0
    assert record["diagnostics"]["warnings"] == ["UserWarning: first",
                                                 "UserWarning: second"]


def test_q_spectrum_ill_conditioned_roots_are_a_domain_error(capsys):
    # ill-conditioned in the monomial coefficients of a_13(q), not in the
    # tridiagonal: all 13 roots verify
    code, record = run_json(capsys, [
        "q-spectrum", "--family", "b3", "--gamma", "1.696368786063189",
        "--delta=-12", "--eps", "1.3394384208195445",
        "--alpha", "1.3188064519439089"])
    assert code == 0
    assert len(record["results"]["roots"]) == 13
    assert record["diagnostics"]["all_verified"]


def test_q_spectrum_overflowing_polynomial_is_a_domain_error(capsys):
    # at N = 80 and eps = 1e6 the coefficients of a_n(q) leave double range
    # before a_81 is reached, but the tridiagonal's entries stay finite: the
    # spectrum comes back whole, with no root verified and, where the
    # rebuild overflows, a null residual
    code, out = run(capsys, [
        "q-spectrum", "--family", "a2", "--gamma", "2.3", "--delta=-80",
        "--eps", "1e6", "--alpha", "0.7"])
    assert code == 0
    record = json.loads(out, parse_constant=refuse_constant)
    assert len(record["results"]["roots"]) == 81
    assert not any(record["results"]["verified"])
    assert None in record["diagnostics"]["root_residuals"]


def test_return_spectrum_scan_evaluates_its_grid_once(capsys, monkeypatch):
    import heunkummer.cli
    import heunkummer.twostate as twostate

    calls = []
    relation = twostate.return_spectrum_relation

    def counted(model, N):
        calls.append(model.Delta0)
        return relation(model, N)

    # every namespace that binds the name, so a private grid loop counts too
    for module in (twostate, heunkummer.cli):
        monkeypatch.setattr(module, "return_spectrum_relation", counted,
                            raising=False)
    u0 = math.sqrt(0.75)
    code, _ = run_json(capsys, ["return-spectrum-scan", "--u0", repr(u0),
                                "--delta1=-1", "--n", "0", "--delta0-min=-0.3",
                                "--delta0-max", "0.7", "--points", "11"])
    assert code == 0
    by_cli = len(calls)
    calls.clear()
    twostate.scan_return_delta0(u0, -1.0, 0, -0.3, 0.7, points=11)
    assert by_cli == len(calls)


# ---------------------------------------------------------------------------
# determinism and replay

def test_repeated_runs_are_byte_identical(capsys):
    _, first = run(capsys, CHE_EXAMPLE)
    _, second = run(capsys, CHE_EXAMPLE)
    assert first == second


@pytest.mark.parametrize("argv, terminated", [
    (["--u0", repr(math.sqrt(3.0)), "--delta0", "2", "--delta1=-2"], True),
    (["--u0", "2", "--delta0", "0.5", "--delta1", "1"], False),
], ids=["on-manifold", "off-manifold"])
def test_repeated_two_state_runs_are_byte_identical(capsys, argv, terminated):
    _, first = run(capsys, ["two-state"] + argv)
    _, second = run(capsys, ["two-state"] + argv)
    assert json.loads(first)["results"]["terminated"] is terminated
    assert first == second


def test_sweep_holds_tolerance_and_rejects_jobs(capsys):
    base = ["verify-identities", "--draws", "20", "--seed", "3"]
    code, record = run_json(capsys, base)
    assert code == 0
    assert record["results"]["max_residual"] <= 1e-10
    # summing each distinct 1F1 value once per draw leaves every residual
    # bit for bit as it was when each identity summed its own; the
    # derivative is the F' of the one pass that also sums 1F1 (R29's
    # residual moved from 9.060102920137001e-12 when it became so)
    assert record["results"]["max_residual"] == 1.026644095909878e-11
    # --jobs is not an option, so a saved record that still carries it fails
    code = main(base + ["--jobs", "2"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--draws", "1"], ["--a", "1.3", "--c", "0.7", "--x", "0.4"]],
    ids=["sweep", "point"])
def test_verify_identities_sums_each_value_once_per_point(capsys, monkeypatch, argv):
    # eight distinct 1F1 values and one derivative pass serve all seven
    # identities, each summed by its own eval_1f1 call
    from heunkummer import kummer
    calls = []

    def counted(a, c, x, *args, _real=kummer.eval_1f1, **kwargs):
        calls.append((a, c, kwargs.get("derivatives", False)))
        return _real(a, c, x, *args, **kwargs)
    monkeypatch.setattr(kummer, "eval_1f1", counted)
    code, _ = run_json(capsys, ["verify-identities", *argv])
    assert code == 0
    assert len(calls) == len(set(calls)) == 9
    assert [derivatives for *_, derivatives in calls].count(True) == 1


def test_replay_reproduces_the_record(capsys, tmp_path):
    _, original = run(capsys, CHE_EXAMPLE)
    path = tmp_path / "record.json"
    path.write_text(original, encoding="utf-8")
    _, replayed = run(capsys, ["--replay", str(path)])
    assert replayed == original


def test_replay_accepts_overrides(capsys, tmp_path):
    _, original = run(capsys, CHE_EXAMPLE)
    path = tmp_path / "record.json"
    path.write_text(original, encoding="utf-8")
    code, record = run_json(capsys, ["--replay", str(path), "--z", "0.4"])
    assert code == 0
    assert record["inputs"]["z"] == "0.4"
    assert record["results"]["value"]["re"] == pytest.approx(math.exp(-0.4),
                                                             rel=1e-14)


# ---------------------------------------------------------------------------
# option plumbing

def test_point_mode_identity_check(capsys):
    code, record = run_json(capsys, ["verify-identities", "--identity", "D6",
                                     "--a", "1.3", "--c", "0.7", "--x", "0.4"])
    assert code == 0
    assert record["diagnostics"]["mode"] == "point"
    assert record["results"]["residuals"]["D6"] <= 1e-12


def test_negative_complex_literals_use_the_equals_form(capsys):
    code, record = run_json(capsys, ["eval-1f1", "--a=-1", "--c", "2",
                                     "--x=-0.5i"])
    assert code == 0
    assert record["inputs"]["a"] == "-1.0"
    assert record["inputs"]["x"] == "0.0-0.5i"
    assert parse_complex(record["inputs"]["x"]) == -0.5j


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "che.cfg"
    cfg.write_text("gamma = 1\ndelta = 0\neps = 1\nalpha = 1\nq = 1\n",
                   encoding="utf-8")
    code, record = run_json(capsys, ["che-series", "--family", "a2",
                                     "--config", str(cfg), "--z", "0.3"])
    assert code == 0
    assert record["results"]["value"]["re"] == pytest.approx(math.exp(-0.3),
                                                             rel=1e-14)
    # explicit flags beat the file
    code, record = run_json(capsys, ["che-series", "--family", "a2",
                                     "--config", str(cfg), "--z", "0.4"])
    assert record["inputs"]["z"] == "0.4"


def test_config_flag_key_turns_the_flag_on(capsys, tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("all = yes\n", encoding="utf-8")
    code, record = run_json(capsys, ["detect-termination", "--family", "a2",
                                     "--gamma", "2.3", "--delta=-1", "--eps",
                                     "1.1", "--alpha=-2.2", "--config",
                                     str(cfg)])
    assert code == 0
    assert record["inputs"]["all"] is True
    assert len(record["results"]["conditions"]) == 2


def test_config_unknown_key_warns_and_is_ignored(capsys, caplog, tmp_path):
    cfg = tmp_path / "che.cfg"
    cfg.write_text("gamma = 1\ndelta = 0\neps = 1\nalpha = 1\nq = 1\n"
                   "no_such_key = 3\n", encoding="utf-8")
    code, record = run_json(capsys, ["che-series", "--family", "a2",
                                     "--config", str(cfg), "--z", "0.3"])
    assert code == 0
    assert "no-such-key" not in record["inputs"]
    assert "config key 'no-such-key' is not an option of che-series" \
        in caplog.text
    _, expected = run_json(capsys, CHE_EXAMPLE)
    assert record == expected


def test_config_line_without_equals_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamma = 1\ndelta\n", encoding="utf-8")
    code = main(["che-series", "--family", "a2", "--config", str(cfg),
                 "--z", "0.3"])
    capsys.readouterr()
    assert code == 2


def test_flag_beats_replay_beats_config(capsys, tmp_path):
    _, original = run(capsys, CHE_EXAMPLE)
    path = tmp_path / "record.json"
    path.write_text(original, encoding="utf-8")
    cfg = tmp_path / "che.cfg"
    cfg.write_text("q = 5\nz = 0.2\n", encoding="utf-8")
    code, record = run_json(capsys, ["--replay", str(path), "--config",
                                     str(cfg), "--z", "0.4"])
    assert code == 0
    assert record["inputs"]["q"] == "1.0"
    assert record["inputs"]["z"] == "0.4"


def test_csv_cells_read_back_to_the_json_values(capsys):
    _, record = run_json(capsys, CHE_EXAMPLE)
    code, out = run(capsys, CHE_EXAMPLE + ["--format", "csv"])
    assert code == 0
    rows = [line.split(",", 1) for line in out.splitlines()[1:]]
    numbers = 0
    for path, cell in rows:
        value = record
        for key in path.split("."):
            value = value[key]
        if isinstance(value, dict):
            assert parse_complex(cell) == complex(value["re"], value["im"])
            numbers += 1
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            assert float(cell) == value
            numbers += 1
    assert numbers >= 10


def test_csv_table_output(capsys):
    code, out = run(capsys, SPECTRUM_EXAMPLE + ["--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "root_re,root_im,verified,rebuild_residual"
    assert len(lines) == 4


def test_csv_flatten_output(capsys):
    code, out = run(capsys, ["eval-1f1", "--a", "1", "--c", "1", "--x", "1",
                             "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    # complex scalars flatten to one cell in the RE+IMi notation
    assert any(line.startswith("results.value,") for line in lines)


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("radius", ["0", "-1"])
def test_sweep_without_radius_is_a_domain_error(capsys, radius):
    # at radius 0 every draw has x = 0, where each identity holds trivially
    code, record = run_json(capsys, ["verify-identities", f"--radius={radius}"])
    assert code == 1
    assert record["error"]["type"] == "ValueError"
    assert "--radius" in record["error"]["message"]


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_sweep_without_draws_is_a_domain_error(capsys, draws):
    code, record = run_json(capsys, ["verify-identities", f"--draws={draws}"])
    assert code == 1
    assert record["error"]["type"] == "ValueError"
    assert "--draws" in record["error"]["message"]


@pytest.mark.parametrize("argv, option", [
    (["two-state", "--u0", repr(math.sqrt(3.0)), "--delta0", "2",
      "--delta1=-2", "--samples", "0"], "--samples"),
    (["two-state", "--u0", "2", "--delta0", "0.5", "--delta1", "1",
      "--samples", "0"], "--samples"),
    (["return-spectrum-scan", "--u0", repr(math.sqrt(0.75)), "--delta1=-1",
      "--n", "0", "--delta0-min=-0.3", "--delta0-max", "0.7", "--points", "0"],
     "--points"),
], ids=["two-state-terminated", "two-state-not-terminated",
        "return-spectrum-scan"])
def test_size_below_one_is_a_domain_error(capsys, argv, option):
    code, record = run_json(capsys, argv)
    assert code == 1
    assert record["error"]["type"] == "ValueError"
    assert option in record["error"]["message"]


def test_two_state_one_sample_is_a_domain_error(capsys):
    # the one sample is the anchor t_start, where the fit matches by
    # construction: it exited 0 with max_deviation 3.27e-15
    code, record = run_json(capsys, ["two-state", "--u0", "1.7320508075688772",
                                     "--delta0", "2", "--delta1=-2", "--samples", "1"])
    assert code == 1
    assert record["error"]["type"] == "ValueError"
    assert "--samples must be at least 2" in record["error"]["message"]


@pytest.mark.parametrize("delta0", ["2", "0.7"],
                         ids=["terminated", "not-terminated"])
def test_two_state_zero_length_window_is_a_domain_error(capsys, delta0):
    # a window of no length compares nothing, so it cannot read as a match
    code, record = run_json(capsys, ["two-state", "--u0", "1.7320508075688772",
                                     "--delta0", delta0, "--delta1=-2",
                                     "--t-start", "1", "--t-end", "1"])
    assert code == 1
    assert record["error"]["type"] == "ValueError"
    assert "--t-start" in record["error"]["message"]
    assert "--t-end" in record["error"]["message"]


@pytest.mark.parametrize("argv, error", [
    (["--u0", "2.9795133830879164", "--delta1=0.7", "--n", "2",
      "--delta0-min=1", "--delta0-max=2"], "ConditionNotMetError"),
    (["--u0", repr(math.sqrt(0.75)), "--delta1=-1", "--n", "0",
      "--delta0-min=0.7", "--delta0-max=-0.3"], "ValueError"),
    (["--u0", "2.5", "--delta1", "1", "--n", "1", "--delta0-min", "0.5",
      "--delta0-max", "1"], "ConditionNotMetError"),
], ids=["no-return-point", "reversed-bracket", "R-not-natural"])
def test_return_spectrum_scan_without_a_return_point_is_a_domain_error(
        capsys, argv, error):
    code, record = run_json(capsys, ["return-spectrum-scan"] + argv)
    assert code == 1
    assert record["error"]["type"] == error
    assert "results" not in record


@pytest.mark.parametrize("argv, error", [
    (["q-spectrum", "--family", "a2", "--gamma", "2.3", "--delta", "0.4", "--eps",
      "1.1", "--alpha", "0.7", "--kind", "GammaDeltaAlpha", "--n", "2"],
     "ConditionNotMetError"),
    (["frobenius", "--gamma", "1", "--delta", "1", "--eps", "1", "--alpha", "1",
      "--q", "0.5", "--z", "40", "--k-terms", "200"], "NonConvergenceError"),
    (["eval-1f1", "--a", "1", "--c", "2", "--x", "800"], "NonConvergenceError"),
], ids=["forced-condition", "frobenius-overflow", "eval-1f1-overflow"])
def test_unmet_condition_and_overflow_are_domain_errors(capsys, argv, error):
    code, record = run_json(capsys, argv)
    assert code == 1
    assert record["error"]["type"] == error
    assert "results" not in record


@pytest.mark.parametrize("a, max_terms, degree", [("-20", "5", 20), ("-3", "1", 3),
                                                  ("-1e12", "10", 10**12)])
def test_eval_1f1_polynomial_beyond_max_terms_is_a_domain_error(capsys, a, max_terms, degree):
    # it used to sum every term of the polynomial: at a = -1e12, 10^12 of them
    code, record = run_json(capsys, ["eval-1f1", f"--a={a}", "--c", "2", "--x", "0.5",
                                     "--max-terms", max_terms])
    assert code == 1
    assert record["error"]["type"] == "NonConvergenceError"
    assert f"degree {degree}, above max_terms={max_terms}" in record["error"]["message"]
    assert "results" not in record


@pytest.mark.parametrize("argv, error, text", [
    (["q-spectrum", "--family", "a2", "--gamma", "2.3", "--delta=-1e308", "--eps", "1",
      "--alpha", "0.7"], "ValueError", "got N = 1e+308"),
    (["eval-1f1", "--a=-1e300", "--c=1", "--x=0.5"], "NonConvergenceError",
     "degree 1e+300, above max_terms=10000"),
], ids=["termination-index", "polynomial-degree"])
def test_huge_integers_in_error_messages_are_short(capsys, argv, error, text):
    # a 309-digit N and a 300-digit degree used to be printed in full
    code, record = run_json(capsys, argv)
    assert code == 1
    assert record["error"]["type"] == error
    assert text in record["error"]["message"]
    assert len(record["error"]["message"]) < 300


@pytest.mark.parametrize("argv, error, text", [
    (["two-state", "--u0", "1000000.5", "--delta0", "0.3", "--delta1", "1",
      "--steps", "100", "--samples", "3"], "StepTooCoarseError", "nan"),
    (["transform", "--gamma", "1e308", "--delta", "1", "--eps", "1e308",
      "--alpha", "1e308", "--q=-1e308"], "ValueError", "parameter q "),
    (["two-state", "--u0", "1e200", "--delta0", "2", "--delta1=-2",
      "--steps", "100"], "ValueError", "overflows"),
    # abs() of a term past the double range raised OverflowError
    (["eval-1f1", "--a", "1.5e308", "--c", "1", "--x", "1+1j"], "NonConvergenceError",
     "overflows past the double range"),
    # and of the argument x itself, before any sum
    (["eval-1f1", "--a", "1", "--c", "1", "--x", "1.5e308+1.5e308i"], "NonConvergenceError",
     "overflows past the double range"),
    # and of the series sum u, where the tail took abs(u)
    (["che-series", "--family", "a2", "--gamma", "0.7951677630328056",
      "--delta", "0.19263693818962668", "--eps", "0.6428462738774547",
      "--alpha", "0.9194703446313179", "--q=-1.270769449191852e+308",
      "--z=-0.4884229078706359-1.3256096847820813i", "--n-terms", "1"],
     "NonConvergenceError", "u of the A2_ThreeTerm series is not finite at z="),
    # and of the basis argument s0 z, where the evaluator took abs(s0 z)
    (["che-series", "--family", "a2", "--gamma", "0.9029990242178598",
      "--delta", "0.325889799238422", "--eps=-1.0862812886392055e+308",
      "--alpha", "0.487995893650208", "--q", "0.6195150987873309",
      "--z=1.3185193030829372+1.6280136781958614i", "--n-terms", "1"],
     "NonConvergenceError", "overflows to (nan+nanj)"),
], ids=["rk-blow-up", "transform-overflow", "coupling-overflow", "1f1-term-modulus",
        "1f1-argument-modulus", "series-modulus", "series-argument-modulus"])
def test_non_finite_results_are_domain_errors(capsys, argv, error, text):
    code, record = run_json(capsys, argv)
    assert code == 1
    assert record["error"]["type"] == error
    assert text in record["error"]["message"]


def test_a_polynomial_1f1_at_an_argument_past_the_double_range_is_one(capsys):
    code, record = run_json(capsys, ["eval-1f1", "--a", "0", "--c", "1",
                                     "--x", "1.5e308+1.5e308i"])
    assert code == 0
    assert record["results"]["value"] == {"re": 1.0, "im": 0.0}


ALPHA_OVER_EPS_OVERFLOWS = ["--family", "a2", "--gamma", "2.3", "--delta=-3", "--eps", "1e-320",
                  "--alpha", "0.7"]
TWO_STATE_NAN = ["two-state", "--u0=1e-320", "--delta0=1e-320",
                 "--delta1=1.7320508075688772", "--steps", "200", "--samples", "3",
                 "--t-start=-1", "--t-end=1"]


@pytest.mark.parametrize("argv, error, text", [
    (["detect-termination", *ALPHA_OVER_EPS_OVERFLOWS], "ValueError",
     "the AlphaOverEps value (inf+0j) "),
    (["q-spectrum", *ALPHA_OVER_EPS_OVERFLOWS, "--kind", "DeltaInt", "--n", "3"], "ValueError",
     "the AlphaOverEps value (inf+0j) "),
    (["che-series", "--family", "a2", "--gamma", "1e308", "--delta", "1e308", "--eps", "1",
      "--alpha", "0.7", "--z", "0.3"], "ValueError", "gamma + delta = (inf+0j) "),
    # the library refuses the overflowed coefficient (the CLI's own check
    # caught this as "results.value = (nan+nanj)")
    (["che-series", "--family", "a2", "--gamma=-3", "--delta=0.5", "--eps=1e154",
      "--alpha=3e200", "--q=-1e308", "--z", "1e-320"], "NonConvergenceError",
     "the A2_ThreeTerm recurrence overflows: a_2 = (inf+nanj) "),
    (["verify-identities", "--a=1e-320", "--c=1e308", "--x=0.5"], "ValueError",
     "results.residuals.R29 = nan "),
    (TWO_STATE_NAN, "ValueError", "results.max_deviation = nan "),
    (TWO_STATE_NAN + ["--format", "csv"], "ValueError", "results.max_deviation = nan "),
], ids=["detect-overflow", "spectrum-overflow", "applicability-overflow", "che-series-nan",
        "identity-nan", "two-state-nan", "two-state-nan-csv"])
def test_overflowed_and_non_finite_values_are_domain_errors(capsys, argv, error, text):
    # these raised OverflowError from round(inf), or exited 0 with a NaN token
    code, out = run(capsys, argv)
    assert code == 1
    record = json.loads(out, parse_constant=refuse_constant)
    assert record["error"]["type"] == error
    assert record["error"]["message"].startswith(text)
    assert record["error"]["message"].endswith("is not finite")
    assert "results" not in record


@pytest.mark.parametrize("n", ["-1", "-2", "-3"])
def test_q_spectrum_with_negative_n_is_a_domain_error(capsys, n):
    code, record = run_json(capsys, SPECTRUM_EXAMPLE + ["--kind", "DeltaInt",
                                                        f"--n={n}"])
    assert code == 1
    assert record["error"]["type"] == "ValueError"
    assert f"N = {n}" in record["error"]["message"]


def test_domain_error_yields_structured_record(capsys):
    code, record = run_json(capsys, ["che-series", "--family", "a2",
                                     "--gamma", "1", "--delta=-2", "--eps",
                                     "1", "--alpha", "1", "--z", "0.3"])
    assert code == 1
    assert record["error"]["type"] == "ApplicabilityError"
    assert "results" not in record


@pytest.mark.parametrize("command", ["detect-termination", "q-spectrum"])
def test_eps_zero_is_an_applicability_error(capsys, command):
    code, record = run_json(capsys, [command, "--family", "a2", "--gamma",
                                     "2.3", "--delta=-2", "--eps", "0",
                                     "--alpha", "0.7"])
    assert code == 1
    assert record["error"]["type"] == "ApplicabilityError"
    assert "EpsilonZero" in record["error"]["message"]


@pytest.mark.parametrize("argv", [
    CHE_EXAMPLE + ["--s0", "5", "--alpha0-choice", "gamma"],
    CHE_EXAMPLE + ["--s0", "5"],
    CHE_EXAMPLE + ["--alpha0-choice", "gamma"],
    ["detect-termination", "--family", "c", "--gamma", "2.3", "--delta=-1",
     "--eps", "1.1", "--alpha", "0.7", "--alpha0-choice", "alpha-over-eps"],
], ids=["che-series-both", "che-series-s0", "che-series-alpha0-choice",
        "detect-termination"])
def test_option_the_family_does_not_read_is_refused(capsys, argv):
    # a2 and c read neither option, and CHE_EXAMPLE terminates, so the
    # refusal must not wait for a build of --n-terms coefficients
    code, record = run_json(capsys, argv)
    assert code == 1
    assert record["error"]["type"] == "ValueError"
    assert "results" not in record


@pytest.mark.parametrize("argv, option", [
    (["two-state", "--u0", "inf", "--delta0", "0.3", "--delta1", "1"], "--u0"),
    (["two-state", "--u0", "1.3", "--delta0", "nan", "--delta1", "1"],
     "--delta0"),
    (["return-spectrum-scan", "--u0", repr(math.sqrt(3.0)), "--delta1=-2",
      "--n", "1", "--delta0-min", "1.5", "--delta0-max", "inf"],
     "--delta0-max"),
    (["eval-1f1", "--a", "1", "--c", "2", "--x", "1+nani"], "--x"),
], ids=["float-inf", "float-nan", "bracket-inf", "complex-nan"])
def test_non_finite_literal_is_a_usage_error(capsys, argv, option):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {option}: not a finite number" in captured.err


def test_non_finite_config_and_replay_values_are_usage_errors(capsys, tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text("delta0 = -inf\n", encoding="utf-8")
    record = tmp_path / "record.json"
    record.write_text('{"command": "two-state", "inputs": {"u0": NaN, '
                      '"delta0": 0.3, "delta1": 1.0}}', encoding="utf-8")
    for argv, option in ((["--config", str(config), "two-state", "--u0", "1.3",
                           "--delta1", "1"], "--delta0"),
                         (["--replay", str(record)], "--u0")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {option}: not a finite number" in captured.err


def refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def test_records_are_standard_json(capsys):
    # json.dumps writes NaN and Infinity tokens, which standard JSON lacks
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = [line.split()[1:] for line in text.splitlines()
                if line.startswith("heunkummer ")]
    assert len(commands) == 9
    for argv in commands:
        code, out = run(capsys, argv)
        assert code == 0
        json.loads(out, parse_constant=refuse_constant)
    code, out = run(capsys, ["two-state", "--u0", "1000000.5", "--delta0",
                             "0.3", "--delta1", "1", "--steps", "100",
                             "--samples", "3"])
    assert code == 1
    record = json.loads(out, parse_constant=refuse_constant)
    assert record["error"]["type"] == "StepTooCoarseError"


def test_missing_required_option_is_a_usage_error(capsys):
    code = main(["che-series", "--family", "a2", "--z", "0.3"])
    capsys.readouterr()
    assert code == 2


def test_unknown_command_is_a_usage_error(capsys):
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", [
    [], ["eval-1f1"], ["verify-identities"], ["che-series"], ["frobenius"],
    ["transform"], ["detect-termination"], ["q-spectrum"], ["two-state"],
    ["return-spectrum-scan"]])
def test_help_exits_zero(capsys, command):
    code = main(command + ["--help"])
    assert code == 0
    assert "usage" in capsys.readouterr().out


def test_no_command_prints_usage(capsys):
    code = main([])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()


# ---------------------------------------------------------------------------
# console-script entry point

ROOT = Path(__file__).resolve().parents[1]
LOG_PREFIXES = ("DEBUG ", "INFO ", "WARNING ", "ERROR ", "CRITICAL ")


def declared_entry_point():
    """The `module:attr` target of [project.scripts] heunkummer."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["heunkummer"]
    module, _, attr = target.partition(":")
    return module.strip(), attr.strip()


def run_process(cmd, pythonpath=True):
    env = (subprocess_env(HEUN_LOG_LEVEL="info") if pythonpath
           else dict(os.environ, HEUN_LOG_LEVEL="info"))
    return subprocess.run(cmd, capture_output=True, env=env, timeout=120)


def run_entry_point(argv):
    """Call the declared entry point the way an installer's wrapper does."""
    module, attr = declared_entry_point()
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return run_process([sys.executable, "-c", code, *argv])


def test_console_script_runs():
    proc = run_entry_point(CHE_EXAMPLE)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["results"]["value"]["re"] == pytest.approx(math.exp(-0.3),
                                                             rel=1e-14)
    # logging goes to stderr, never into the record stream
    assert "INFO" in proc.stderr.decode()
    assert not any(line.startswith(LOG_PREFIXES)
                   for line in proc.stdout.decode().splitlines())


@pytest.mark.skipif(shutil.which("heunkummer") is None,
                    reason="console script not installed (pip install -e .)")
def test_installed_console_script_runs():
    # the environment is left as the shell has it, so an install from another
    # checkout that shadows the source under test shows up as a difference
    installed = run_process([shutil.which("heunkummer"), *CHE_EXAMPLE],
                            pythonpath=False)
    assert installed.returncode == 0
    assert installed.stdout == run_entry_point(CHE_EXAMPLE).stdout


def test_module_invocation_matches_entry_point():
    proc = run_process([sys.executable, "-m", "heunkummer.cli", *CHE_EXAMPLE])
    assert proc.returncode == 0
    json.loads(proc.stdout)
    assert proc.stdout == run_entry_point(CHE_EXAMPLE).stdout


# ---------------------------------------------------------------------------
# import boundary: numpy loads only in the subcommands that compute with it

NUMPY_FREE = ("eval-1f1", "verify-identities", "che-series", "frobenius",
              "transform", "detect-termination")
README_ARGV = {line.split()[1]: line.split()[1:]
               for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
               if line.startswith("heunkummer ")}
# prints whether numpy is loaded after the imports and, given an argv, after
# cli.main has run it
NUMPY_PROBE = """import contextlib, io, json, sys
import heunkummer, heunkummer.cli
loaded = {"import": "numpy" in sys.modules}
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        loaded["code"] = heunkummer.cli.main(sys.argv[1:])
    loaded["run"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def numpy_loaded(argv):
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                          capture_output=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_importing_the_package_and_cli_leaves_numpy_unloaded():
    assert numpy_loaded([]) == {"import": False}


# q-spectrum shows that the probe sees a load
@pytest.mark.parametrize("command, loads", [(c, False) for c in NUMPY_FREE]
                         + [("q-spectrum", True)])
def test_only_array_subcommands_load_numpy(command, loads):
    assert numpy_loaded(README_ARGV[command]) == {"import": False, "code": 0,
                                                  "run": loads}
