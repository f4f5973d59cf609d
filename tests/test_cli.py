import json
import math

import pytest

from redwsn.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main_avail, main_sim
from redwsn.metrics import IterationMetrics, MetricsReport
from redwsn.scenario import build_preset
from redwsn.simulation import Simulation


def test_avail_table_output(capsys):
    assert main_avail(["--lambda", "1e-4", "--mu", "20.83e-3", "--n-max", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 5  # header + four rows
    assert "4.7778e-03" in lines[1]
    assert "1.2505e-08" in lines[4]


def test_avail_csv_and_json(capsys):
    assert main_avail(["--format", "csv"]) == EXIT_OK
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("n_boards,failure_probability")
    assert main_avail(["--format", "json"]) == EXIT_OK
    parsed = json.loads(capsys.readouterr().out)
    assert set(parsed) == {"1", "2", "3", "4"}
    assert parsed["1"] == pytest.approx(4.777e-3, rel=5e-4)


def test_avail_rejects_bad_rates(capsys):
    assert main_avail(["--lambda", "-1"]) == EXIT_CONFIG
    assert main_avail(["--n-max", "0"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--lambda", "--mu"])
def test_avail_refuses_non_finite_rates(capsys, flag, rate):
    # "--flag=-inf": argparse would take a bare "-inf" for an option.
    assert main_avail([f"{flag}={rate}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "main, argv",
    [(main_avail, ["--lambda", "-inf"]), (main_sim, ["run"]), (main_sim, ["bogus"])],
)
def test_usage_errors_are_config_errors(capsys, main, argv):
    assert main(argv) == EXIT_CONFIG
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main_sim(["--help"]) == EXIT_OK
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], EXIT_OK),
        (["--format", "csv"], EXIT_OK),
        (["--format", "json", "--n-max", "6"], EXIT_OK),
        (["--lambda=-1"], EXIT_CONFIG),
        (["--mu=nan"], EXIT_CONFIG),
        (["--n-max", "0"], EXIT_CONFIG),
        (["--bogus"], EXIT_CONFIG),
        (["--help"], EXIT_OK),
    ],
)
def test_avail_is_sim_avail(capsys, argv, code):
    # The `avail` script prints what `sim avail` prints, byte for byte.
    assert main_avail(argv) == code
    out = capsys.readouterr().out
    assert main_sim(["avail", *argv]) == code
    assert capsys.readouterr().out == out


def test_sim_avail_subcommand(capsys):
    assert main_sim(["avail", "--n-max", "2"]) == EXIT_OK
    assert "4.7778e-03" in capsys.readouterr().out


def test_sim_presets_lists_all(capsys):
    assert main_sim(["presets"]) == EXIT_OK
    names = capsys.readouterr().out.split()
    assert "HF" in names and "GWF" in names and "SF1-noSARB" in names


def test_sim_run_preset_to_stdout(capsys, tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("preset = control-clean\nduration_ms = 300000\n")
    assert main_sim(["run", str(cfg), "--seeds", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "control-clean"
    assert report["iterations"][0]["prr_redundant"] == 1.0


def test_sim_run_csv_to_file(capsys, tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("preset = control-clean\nduration_ms = 300000\n")
    out = tmp_path / "report.csv"
    code = main_sim(["run", str(cfg), "--seeds", "1,2", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith("scenario,iteration,metric,value")
    assert ",mean,mean_prr_redundant," in text
    json_out = tmp_path / "report.json"
    assert main_sim(["run", str(cfg), "--seeds", "1,2", "--out", str(json_out)]) == EXIT_OK
    capsys.readouterr()
    assert main_sim(["run", str(cfg), "--seeds", "1,2"]) == EXIT_OK
    assert json_out.read_text() == capsys.readouterr().out


def test_sim_run_refuses_an_integer_too_large_for_a_float_as_a_config_error(capsys, tmp_path):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"channel": {"reference_loss_db": 1' + "0" * 400 + "}}")
    assert main_sim(["run", str(cfg), "--seeds", "1"]) == EXIT_CONFIG
    assert "channel: ChannelParams.reference_loss_db must be a finite float" in capsys.readouterr().err


def test_sim_run_on_a_flat_link_over_a_denormal_reference_distance_reports_finite_rssi(capsys, tmp_path):
    # The loader accepts both values; d / ref overflows to inf, and a NaN
    # RSSI would pass every test and break the JSON report.
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"preset": "HF", "channel": {"path_loss_exponent": 0, "reference_distance_m": 1e-320}}))
    assert main_sim(["run", str(cfg), "--seeds", "1"]) == EXIT_OK
    [iteration] = json.loads(capsys.readouterr().out)["iterations"]
    stats = [value for gateway in iteration["rssi"].values() for name, value in gateway.items() if name != "count"]
    assert stats and all(map(math.isfinite, stats))


def test_sim_run_out_into_missing_directory_fails_before_simulating(capsys, tmp_path, monkeypatch):
    def run_scenario(cfg, seeds):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr("redwsn.cli.run_scenario", run_scenario)
    out = tmp_path / "missing-dir" / "r.json"
    assert main_sim(["run", "control-clean", "--seeds", "1", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(out) in err
    assert not out.parent.exists()


@pytest.mark.parametrize("suffix", ["", "/"])
def test_sim_run_out_into_existing_directory_fails_before_simulating(capsys, tmp_path, monkeypatch, suffix):
    def run_scenario(cfg, seeds):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr("redwsn.cli.run_scenario", run_scenario)
    out = f"{tmp_path}{suffix}"
    assert main_sim(["run", "control-clean", "--seeds", "1", "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and f"--out {out}: is a directory" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["-1", "1,-2"])
def test_sim_run_negative_seed_fails_before_simulating(capsys, monkeypatch, seeds):
    def simulation(cfg, seed):
        raise AssertionError("a seed ran")

    monkeypatch.setattr("redwsn.scenario.Simulation", simulation)
    assert main_sim(["run", "control-clean", f"--seeds={seeds}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "negative" in err


def test_sim_run_default_seeds(capsys, tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("preset = control-clean\nduration_ms = 70000\n")
    assert main_sim(["run", str(cfg)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["seeds"] == [1, 2, 3]


def test_sim_run_read_failure_and_anomaly_on_one_field(capsys, tmp_path):
    # The field is missing; the anomaly on it must not crash the run.
    fault = {"target": "n1.primary", "affected_sensor": "co2_ppm", "start_ms": 0, "end_ms": 120_000}
    faults = [{"kind": "sensor_read_failure", **fault}, {"kind": "sensor_anomaly", **fault}]
    cfg = tmp_path / "both.json"
    cfg.write_text(json.dumps({"preset": "control-clean", "duration_ms": 120_000, "faults": faults}))
    assert main_sim(["run", str(cfg), "--seeds", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["iterations"][0]["prr_primary_only"] == 0.0


def test_sim_run_unknown_scenario_is_config_error(capsys):
    assert main_sim(["run", "no-such-preset"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_sim_run_bad_seeds_is_config_error(capsys):
    assert main_sim(["run", "control-clean", "--seeds", "a,b"]) == EXIT_CONFIG
    capsys.readouterr()


def test_sim_run_bad_config_names_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nodez = 1\n")
    assert main_sim(["run", str(cfg)]) == EXIT_CONFIG
    assert "nodez" in capsys.readouterr().err


def test_sim_run_deterministic_stdout(capsys, tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("preset = control-noise\nduration_ms = 300000\n")
    main_sim(["run", str(cfg), "--seeds", "5"])
    first = capsys.readouterr().out
    main_sim(["run", str(cfg), "--seeds", "5"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "tree", [{"duration_ms": True}, {"duration_ms": 180000.5}, {"noise": {"enabled": 0}}]
)
def test_sim_run_mistyped_json_is_config_error(capsys, tmp_path, tree):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"preset": "control-clean", **tree}))
    assert main_sim(["run", str(cfg), "--seeds", "1"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("to_file", [False, True])
def test_sim_run_refuses_to_print_a_report_that_is_not_json(capsys, tmp_path, monkeypatch, value, to_file):
    def run_scenario(cfg, seeds):
        return MetricsReport(cfg.name, seeds, [IterationMetrics(seeds[0], value, 1.0, None, 0, 0, 1, 0)])

    monkeypatch.setattr("redwsn.cli.run_scenario", run_scenario)
    out = tmp_path / "r.json"
    argv = ["run", "control-clean", "--seeds", "1"] + (["--out", str(out)] if to_file else [])
    assert main_sim(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == "" and "runtime error" in captured.err and "JSON" in captured.err
    assert not out.exists()


def a_server_that_fails(monkeypatch):
    def on_gateway_reception(self, gateway_id, packet, rssi_dbm, now_us):
        raise RuntimeError("the server failed")

    monkeypatch.setattr("redwsn.gateway.Server.on_gateway_reception", on_gateway_reception)


def test_sim_run_exits_on_a_callback_that_raises_and_writes_no_report(capsys, tmp_path, monkeypatch):
    a_server_that_fails(monkeypatch)
    out = tmp_path / "r.json"
    assert main_sim(["run", "HF", "--seeds", "1", "--out", str(out)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == "" and "runtime error: the server failed" in captured.err
    assert not out.exists()


def test_a_simulation_whose_run_raised_is_not_run_again(monkeypatch):
    a_server_that_fails(monkeypatch)
    run = Simulation(build_preset("HF"), seed=1)
    with pytest.raises(RuntimeError, match="the server failed"):
        run.run()
    with pytest.raises(RuntimeError, match="runs once"):
        run.run()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["prr", "rssi"])
@pytest.mark.parametrize("to_file", [False, True])
def test_sim_run_refuses_to_print_a_csv_report_that_is_not_finite(capsys, tmp_path, monkeypatch, value, where, to_file):
    def run_scenario(cfg, seeds):
        prr, rssi = (value, {}) if where == "prr" else (1.0, {"gw": {"count": 1, "min": value}})
        return MetricsReport(cfg.name, seeds, [IterationMetrics(seeds[0], prr, 1.0, None, 0, 0, 1, 0, rssi)])

    monkeypatch.setattr("redwsn.cli.run_scenario", run_scenario)
    out = tmp_path / "r.csv"
    argv = ["run", "control-clean", "--seeds", "1", "--format", "csv"] + (["--out", str(out)] if to_file else [])
    assert main_sim(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == "" and "runtime error" in captured.err and "CSV" in captured.err
    assert not out.exists()
