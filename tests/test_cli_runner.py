import json
import math
import os
import sys
import warnings

import pytest

from spheremarket import cli_runner, kolmogorov_check, market_sim, streams
from spheremarket.cli_runner import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from spheremarket.geometry import UnitVector3

ATM_SPEC = {"spot": 100.0, "strike": 100.0, "rate": 0.05, "sigma": 0.2, "tau": 1.0}
DEMO_CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "demos", "configs")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(tmp_path, kind):
    report_path = tmp_path / f"{kind.replace('-', '_')}_report.json"
    return json.loads(report_path.read_text())


def run_cli(tmp_path, payload, extra_args=()):
    cfg = write_config(tmp_path, payload)
    return main(["run", cfg, "--out", str(tmp_path), *extra_args])


class TestPriceExperiment:
    def test_atm_value(self, tmp_path):
        code = run_cli(tmp_path, {"experiment": "price",
                                  "params": {"spec": ATM_SPEC}})
        assert code == EXIT_OK
        report = read_report(tmp_path, "price")
        assert abs(report["results"]["value"] - 10.4506) < 5e-4
        # resolved config echoed with defaults materialized
        assert report["params"]["spec"]["kind"] == "call"
        assert report["seed"] == 0

    def test_all_methods(self, tmp_path):
        payload = {"experiment": "price", "seed": 3,
                   "params": {"spec": ATM_SPEC,
                              "methods": ["bs", "binomial", "mc"],
                              "binomial_steps": 600,
                              "mc_paths": 50_000}}
        assert run_cli(tmp_path, payload) == EXIT_OK
        results = read_report(tmp_path, "price")["results"]["results"]
        values = [r["value"] for r in results]
        assert max(values) - min(values) < 0.2
        assert results[2]["error_estimate"] > 0

    def test_byte_identical_reports(self, tmp_path):
        payload = {"experiment": "price", "seed": 1, "params": {"spec": ATM_SPEC}}
        run_cli(tmp_path, payload)
        first = (tmp_path / "price_report.json").read_bytes()
        run_cli(tmp_path, payload)
        assert (tmp_path / "price_report.json").read_bytes() == first

    def test_seed_override(self, tmp_path):
        payload = {"experiment": "price", "seed": 1, "params": {"spec": ATM_SPEC}}
        run_cli(tmp_path, payload, extra_args=("--seed", "99"))
        assert read_report(tmp_path, "price")["seed"] == 99


class TestErrorHandling:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "parse"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == EXIT_PARSE

    def test_config_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        # a UnicodeDecodeError is a ValueError, which once exited 3 as "validation"
        path = tmp_path / "latin1.json"
        path.write_bytes('{"experiment": "price", "params": {"spec": "\u00e9"}}'.encode("latin-1"))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "parse"
        assert "utf-8" in err["error"]["message"]
        assert os.listdir(tmp_path) == ["latin1.json"]

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                        reason="this Python converts a 5000-digit integer literal")
    def test_integer_over_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        # json.load raises a plain ValueError here, which once exited 3 as "validation"
        path = tmp_path / "long.json"
        path.write_text('{"experiment": "price", "seed": %s, "params": {"spec": %s}}'
                        % ("9" * 5000, json.dumps(ATM_SPEC)))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "parse"
        assert "digits" in err["error"]["message"]
        assert os.listdir(tmp_path) == ["long.json"]

    def test_unknown_key_named(self, tmp_path, capsys):
        payload = {"experiment": "price",
                   "params": {"spec": dict(ATM_SPEC, spoot=1.0)}}
        assert run_cli(tmp_path, payload) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert "spoot" in err["error"]["message"]

    def test_missing_key_named(self, tmp_path, capsys):
        spec = {k: v for k, v in ATM_SPEC.items() if k != "sigma"}
        payload = {"experiment": "price", "params": {"spec": spec}}
        assert run_cli(tmp_path, payload) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert "sigma" in err["error"]["message"]

    def test_unknown_experiment(self, tmp_path, capsys):
        assert run_cli(tmp_path, {"experiment": "teleport"}) == EXIT_PARSE

    def test_validation_error(self, tmp_path, capsys):
        payload = {"experiment": "price",
                   "params": {"spec": dict(ATM_SPEC, sigma=-0.5)}}
        assert run_cli(tmp_path, payload) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "validation"

    def test_no_partial_files_left(self, tmp_path):
        payload = {"experiment": "price", "params": {"spec": ATM_SPEC}}
        run_cli(tmp_path, payload)
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".part")]

    @pytest.mark.parametrize("via", ["config", "flag"])
    @pytest.mark.parametrize("params", [
        {"experiment": "price", "params": {"spec": ATM_SPEC, "methods": ["bs"]}},
        {"experiment": "sphere", "params": {"rho": {"kind": "uniform"}, "state": [0, 0, 1],
                                            "direction": [1, 0, 0], "n_trials": 10}},
        {"experiment": "bell-scan", "params": {"rho": {"kind": "uniform"}, "theta_degrees": 60}},
        {"experiment": "market", "params": {"market": {
            "rho": {"kind": "uniform"}, "n_steps": 5,
            "regime": {"kind": "local", "noise_angle": 0.3}}}},
        {"experiment": "convergence", "params": {"spec": ATM_SPEC, "steps": [10, 20]}},
    ], ids=lambda p: p["experiment"])
    def test_negative_seed_named(self, tmp_path, capsys, params, via):
        payload = dict(params, seed=-1) if via == "config" else params
        extra = ("--seed", "-1") if via == "flag" else ()
        assert run_cli(tmp_path, payload, extra_args=extra) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert "'seed'" in err["error"]["message"]
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("key, payload", [
        ("params.workers", {"experiment": "sphere", "params": {
            "rho": {"kind": "uniform"}, "state": [0, 0, 1], "direction": [1, 0, 0],
            "n_trials": 10, "workers": 0}}),
        ("params.workers", {"experiment": "sphere", "params": {
            "rho": {"kind": "delta", "x0": 0.2}, "state": [0, 0, 1], "direction": [0, 0, 1],
            "n_trials": 10, "workers": -5}}),
        ("params.n_trials", {"experiment": "sphere", "params": {
            "rho": {"kind": "uniform"}, "state": [0, 0, 1], "direction": [1, 0, 0],
            "n_trials": 0}}),
        ("params.n_samples", {"experiment": "bell-scan", "params": {
            "rho": {"kind": "uniform"}, "theta_degrees": 60, "mode": "hidden_state",
            "n_samples": 0}}),
        ("params.n_samples", {"experiment": "bell-scan", "params": {
            "rho": {"kind": "delta", "x0": 0.0}, "theta_degrees": 60, "n_samples": 0}}),
        ("params.n_samples", {"experiment": "bell-scan", "params": {
            "rho": {"kind": "uniform"}, "theta_degrees": 60, "mode": "sequential",
            "n_samples": 0}}),
        ("params.steps[0]", {"experiment": "convergence", "params": {
            "spec": ATM_SPEC, "steps": [0, 100, 200, 400, 800, 1600]}}),
        ("params.steps[5]", {"experiment": "convergence", "params": {
            "spec": ATM_SPEC, "steps": [50, 100, 200, 400, 800, -1]}}),
        ("params.binomial_steps", {"experiment": "price", "params": {
            "spec": ATM_SPEC, "methods": ["binomial"], "binomial_steps": 0}}),
        ("params.mc_paths", {"experiment": "price", "params": {
            "spec": ATM_SPEC, "methods": ["mc"], "mc_paths": 1}}),
        ("params.market.n_steps", {"experiment": "market", "params": {"market": {
            "rho": {"kind": "uniform"}, "n_steps": 10,
            "regime": {"kind": "local", "noise_angle": 0.3}}}}),
    ], ids=["workers0", "workers-5", "n_trials0", "n_samples0", "n_samples0-auto",
            "n_samples0-sequential", "steps0", "steps-1", "binomial_steps0", "mc_paths1",
            "n_steps10"])
    def test_count_out_of_range_named(self, tmp_path, capsys, key, payload):
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        assert f"'{key}'" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("workers", [cli_runner.MAX_WORKERS + 1, 10 ** 400],
                             ids=["cap+1", "1e400"])
    def test_workers_above_the_cap_named_before_any_thread(self, tmp_path, capsys, monkeypatch,
                                                           workers):
        # the cap is fixed, so a config's validity does not depend on the machine;
        # the parse rule rejects the value before map_chunks could start a thread
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(streams, "Thread", no_thread)
        payload = {"experiment": "sphere", "params": {
            "rho": {"kind": "uniform"}, "state": [0, 0, 1], "direction": [1, 0, 0],
            "n_trials": 10 ** 6, "workers": workers}}
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("'params.workers' must be at most 64, got ")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("key, payload", [
        ("params.spec.style", {"experiment": "price", "params": {
            "spec": dict(ATM_SPEC, style="american")}}),
        ("params.spec.style", {"experiment": "convergence", "params": {
            "spec": dict(ATM_SPEC, style="american"), "steps": [10, 20]}}),
        ("params.spec.kind", {"experiment": "price", "params": {
            "spec": dict(ATM_SPEC, kind="straddle")}}),
        ("params.spec.sigma", {"experiment": "price", "params": {
            "spec": dict(ATM_SPEC, sigma=-0.2)}}),
        ("params.spec.strike", {"experiment": "convergence", "params": {
            "spec": dict(ATM_SPEC, strike=0.0), "steps": [10, 20]}}),
        ("params.rho.densities", {"experiment": "sphere", "params": {
            "rho": {"kind": "piecewise", "breakpoints": [-1, 1], "densities": [0]},
            "state": [0, 0, 1], "direction": [1, 0, 0]}}),
        ("params.rho.width", {"experiment": "sphere", "params": {
            "rho": {"kind": "truncated_gaussian", "center": 0.0, "width": -0.3},
            "state": [0, 0, 1], "direction": [1, 0, 0]}}),
        ("params.rho.x0", {"experiment": "bell-scan", "params": {
            "rho": {"kind": "delta", "x0": 1.0}, "theta_degrees": 60}}),
        ("params.compare_gbm.sigma", {"experiment": "market", "params": {
            "market": {"rho": {"kind": "uniform"}, "n_steps": 40,
                       "regime": {"kind": "local", "noise_angle": 0.4}},
            "compare_gbm": {"s0": 100.0, "drift": 0.0, "sigma": -0.2, "horizon": 1.0,
                            "steps": 40}}}),
        ("params.market.rho.densities", {"experiment": "market", "params": {"market": {
            "rho": {"kind": "piecewise", "breakpoints": [-1, 1], "densities": [-1]},
            "n_steps": 40, "regime": {"kind": "local", "noise_angle": 0.4}}}}),
        ("params.market.price_min", {"experiment": "market", "params": {"market": {
            "rho": {"kind": "uniform"}, "n_steps": 40, "price_min": 150.0,
            "regime": {"kind": "local", "noise_angle": 0.4}}}}),
        ("params.market.regime.news.rate", {"experiment": "market", "params": {"market": {
            "rho": {"kind": "uniform"}, "n_steps": 40, "regime": {
                "kind": "global", "noise_angle": 0.4,
                "news": {"kind": "constant", "angle": 0.5, "rate": 0.1}}}}}),
        ("params.market.regime.noise_angle", {"experiment": "market", "params": {"market": {
            "rho": {"kind": "uniform"}, "n_steps": 40, "regime": {
                "kind": "global", "noise_angle": 4.0,
                "news": {"kind": "constant", "angle": 0.5}}}}}),
        ("params.methods[1]", {"experiment": "price", "params": {
            "spec": ATM_SPEC, "methods": ["bs", "lattice"]}}),
    ], ids=["american", "american-convergence", "kind", "spec_sigma", "strike0",
            "densities0", "width", "x0", "gbm_sigma", "market_densities", "price_min",
            "constant_news_rate", "global_noise_angle", "methods_entry"])
    def test_out_of_range_field_named(self, tmp_path, capsys, key, payload):
        # each once exited 3 with the field's bare message, or none at all
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        assert f"'{key}'" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("price_max", [0.0, -1.0, -1e308, 5e-324])
    def test_price_range_names_both_keys(self, tmp_path, capsys, price_max):
        # the rule spans both keys; the message once named only price_min
        with open(os.path.join(DEMO_CONFIGS, "market_local_vs_gbm.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["market"]["price_max"] = price_max
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == "'params.market.price_min' must be below 'params.market.price_max'"
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("size", [1e155, 1e160, 1e200],
                             ids=["mc_1e155", "mc_1e160", "mc_1e200"])
    def test_non_finite_result_named(self, tmp_path, capsys, size):
        # the squared payoffs overflow, so the Monte Carlo variance is not
        # finite: each once exited 0 with a variance of max(0.0, nan) = 0.0,
        # then 3 naming only 'results.results[2].error_estimate' after
        # numpy overflow warnings
        with open(os.path.join(DEMO_CONFIGS, "price_atm.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["spec"].update({"spot": size, "strike": size})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION and caught == []
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("'params.spec.spot' ")
        assert message.endswith(" 'params.spec.strike'")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("config", ["price_atm", "binomial_convergence"])
    def test_top_node_overflow_names_spot(self, tmp_path, capsys, config):
        # spot u^steps overflows: both once exited 3 naming only a 'results.'
        # path (results[1].value, abs_errors[0]) after numpy overflow warnings
        with open(os.path.join(DEMO_CONFIGS, f"{config}.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["spec"]["spot"] = 1e308
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION and caught == []
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("'params.spec.spot' ")
        assert message.endswith(" 'params.spec.sigma'")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("key, value, field, other", [
        ("s0", 5e-324, "s0", None),
        ("drift", 1e308, "drift", "horizon"),
        ("drift", -1e308, "drift", "horizon"),
        ("sigma", 1e308, "sigma", "horizon"),
        ("sigma", 5e-324, "sigma", "horizon"),
        ("horizon", 1e308, "sigma", "horizon"),
        ("horizon", 5e-324, "horizon", "steps"),
        ("steps", 10 ** 400, "steps", None),
    ], ids=["s0_subnormal", "drift_high", "drift_low", "sigma_high", "sigma_subnormal",
            "horizon_high", "horizon_subnormal", "steps_beyond_float"])
    def test_gbm_log_range_names_key(self, tmp_path, capsys, key, value, field, other):
        # the log steps left the float range: these once exited 4 with an
        # OverflowError, 3 naming no key or only a 'results.' path, or 0 with
        # statistics of rounding noise (sigma 5e-324)
        with open(os.path.join(DEMO_CONFIGS, "market_local_vs_gbm.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["compare_gbm"][key] = value
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith(f"'params.compare_gbm.{field}' ")
        assert other is None or message.endswith(f" 'params.compare_gbm.{other}'")
        assert f"'params.compare_gbm.{key}'" in message
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("change, field", [
        # drift cancels sigma^2 / 2, so the mean log path stays at log(s0), but
        # sigma sqrt(horizon) = 2000 carries every price to 0 or inf: this once
        # exited 3 with "prices must be positive" and no key
        ({"drift": 2e6, "sigma": 2000.0, "horizon": 1.0}, "sigma"),
        # log(s0) sits 0.56 below the largest log, one standard deviation of
        # the path at the horizon: at seeds 0-11 this exited 0 ten times and
        # twice exited 3 naming only a 'results.' path
        ({"s0": 1e308}, "s0"),
    ], ids=["sigma_cancelled_by_drift", "s0_near_the_largest_float"])
    def test_gbm_log_noise_names_key(self, tmp_path, capsys, change, field):
        with open(os.path.join(DEMO_CONFIGS, "market_local_vs_gbm.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["compare_gbm"].update(change)
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith(f"'params.compare_gbm.{field}' ")
        assert message.endswith(" 'params.compare_gbm.horizon'")
        assert os.listdir(tmp_path) == ["config.json"]

    def test_gbm_nan_log_price_end_named(self, tmp_path, capsys):
        # drift * horizon and sigma^2 / 2 * horizon both overflow, so the mean
        # log price at the horizon is inf - inf = NaN, which the band rule
        # must reject rather than pass over
        with open(os.path.join(DEMO_CONFIGS, "market_local_vs_gbm.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["compare_gbm"].update(drift=1e308, sigma=1e200)
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("'params.compare_gbm.")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("steps, message", [
        (1999, "must equal 'params.market.n_steps'"),
        (2 ** 53, "must equal 'params.market.n_steps'"),
        (2 ** 53 + 1, f"must lie in [1, 2**53], got {2 ** 53 + 1}"),
        (10 ** 300, "must lie in [1, 2**53], got an integer of 301 digits"),
    ], ids=["1999", "2_to_53", "2_to_53_plus_1", "1e300"])
    def test_gbm_steps_apart_from_the_market_name_both_keys(self, tmp_path, capsys, monkeypatch,
                                                            steps, message):
        # this once exited 3 with "gbm.steps must match cfg.n_steps", no key;
        # a count past 2**53 is out of the count range before it is compared
        with open(os.path.join(DEMO_CONFIGS, "market_local_vs_gbm.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["compare_gbm"]["steps"] = steps
        calls = []
        monkeypatch.setattr(market_sim, "run_market", calls.append)
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION and calls == []  # checked before the simulation
        error = json.loads(capsys.readouterr().err)["error"]["message"]
        assert error == f"'params.compare_gbm.steps' {message}"
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("config", ["price_atm", "binomial_convergence"])
    @pytest.mark.parametrize("key, value, field", [
        ("rate", 1e308, "rate"),
        ("rate", -1e308, "rate"),
        ("sigma", 1e308, "sigma"),
        ("tau", 1e308, "rate"),
    ], ids=["rate_high", "rate_low", "sigma_high", "tau_high"])
    def test_option_exp_range_names_both_keys(self, tmp_path, capsys, config, key, value, field):
        # exp(+-rate tau) or exp(sigma sqrt(tau)) overflowed: each once
        # exited 4 with an OverflowError
        with open(os.path.join(DEMO_CONFIGS, f"{config}.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["spec"][key] = value
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith(f"'params.spec.{field}' ")
        assert message.endswith(" 'params.spec.tau'")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("config", ["price_atm", "binomial_convergence"])
    def test_sigma_whose_square_overflows_named(self, tmp_path, capsys, config):
        # sigma sqrt(tau) = 10, but sigma^2 overflows: this once exited 4
        # with an OverflowError
        with open(os.path.join(DEMO_CONFIGS, f"{config}.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["spec"].update(sigma=1e160, tau=1e-318)
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("'params.spec.sigma' ")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("config", ["price_atm", "binomial_convergence"])
    @pytest.mark.parametrize("spec", [{"spot": 5e-324}, {"spot": 1e-300, "strike": 1e300},
                                      {"strike": 5e-324}, {"spot": 1e300, "strike": 1e-300}],
                             ids=["spot_subnormal", "spot_over_strike_underflows",
                                  "strike_subnormal", "spot_over_strike_overflows"])
    def test_spot_over_strike_rounding_to_zero_named(self, tmp_path, capsys, config, spec):
        # log(spot / strike) got 0: the subnormal spot once exited 3 with
        # "math domain error" and no key.  The last two round the ratio to
        # inf instead: both once exited 0, except spot 1e300 in price, which
        # exited 3 naming only a 'results.' path
        with open(os.path.join(DEMO_CONFIGS, f"{config}.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["spec"].update(spec)
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("'params.spec.spot' ")
        assert message.endswith(" 'params.spec.strike'")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("config", ["price_atm", "binomial_convergence"])
    @pytest.mark.parametrize("field, value, text, other", [
        pytest.param("sigma", 5e-324, "u > d", "tau", id="sigma"),
        pytest.param("tau", 5e-324, "u > d", "tau", id="tau"),
        pytest.param("sigma", 0.0, "u > d", "tau", id="sigma_zero"),
        pytest.param("sigma", 1e-8, "risk-neutral weight", "rate", id="sigma_below_rate"),
    ])
    def test_degenerate_lattice_is_a_validation_error(self, tmp_path, capsys, config, field,
                                                      value, text, other):
        # sigma sqrt(tau / steps) underflows, so u = d: this once exited 4
        # with a ZeroDivisionError.  At sigma 1e-8, sigma sqrt(dt) falls below
        # rate dt and the risk-neutral weight exceeds 1.  Both then exited 3
        # naming no key
        with open(os.path.join(DEMO_CONFIGS, f"{config}.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["spec"][field] = value
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert text in message
        assert message.startswith("'params.spec.sigma' ")
        assert message.endswith(f" 'params.spec.{other}'")
        assert os.listdir(tmp_path) == ["config.json"]

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(params, seed):
            raise RuntimeError("solver exploded")

        monkeypatch.setitem(cli_runner._RUNNERS, "price", boom)
        payload = {"experiment": "price", "params": {"spec": ATM_SPEC}}
        assert run_cli(tmp_path, payload) == EXIT_RUNTIME
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "runtime"
        assert "solver exploded" in err["error"]["message"]


class TestSphereExperiment:
    def test_analytic_vs_monte_carlo(self, tmp_path):
        payload = {"experiment": "sphere", "seed": 5,
                   "params": {"rho": {"kind": "uniform"},
                              "state": {"theta": math.pi / 3},
                              "direction": [0.0, 0.0, 1.0],
                              "n_trials": 200_000}}
        assert run_cli(tmp_path, payload) == EXIT_OK
        results = read_report(tmp_path, "sphere")["results"]
        p1 = results["analytic"]["p1"]
        freq = results["monte_carlo"]["freq_o1"]
        assert abs(p1 - 0.75) < 1e-12
        assert abs(freq - p1) < 4.0 * math.sqrt(p1 * (1 - p1) / 200_000)


class TestBellScanExperiment:
    def test_sixty_degrees_infeasible_with_certificate(self, tmp_path):
        payload = {"experiment": "bell-scan",
                   "params": {"rho": {"kind": "uniform"}, "theta_degrees": 60}}
        assert run_cli(tmp_path, payload) == EXIT_OK
        results = read_report(tmp_path, "bell-scan")["results"]
        assert results["verdict"] == "infeasible"
        cert = results["feasibility"]["certificate"]
        assert cert["slack"] < 0

    def test_theta_spec_exclusive(self, tmp_path):
        payload = {"experiment": "bell-scan",
                   "params": {"rho": {"kind": "uniform"},
                              "theta": 1.0, "theta_degrees": 60}}
        assert run_cli(tmp_path, payload) == EXIT_PARSE

    @pytest.mark.parametrize("key, value", [
        ("theta_degrees", 0), ("theta_degrees", 180), ("theta_degrees", -30),
        ("theta_degrees", 1e308), ("theta", 0.0), ("theta", math.pi), ("theta", 4.0),
        ("mode", "psychic"), ("mode", ["auto"]),
        ("theta_degrees", 5e-324),  # 0.0 rad
    ])
    def test_out_of_range_scan_named(self, tmp_path, capsys, key, value):
        params = {"rho": {"kind": "uniform"}, "theta_degrees": 60, key: value}
        if key == "theta":
            del params["theta_degrees"]
        payload = {"experiment": "bell-scan", "params": params}
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith(f"'params.{key}' ")
        # the bound and the value in the unit of the key: theta_degrees 200
        # once read "between 0 and pi, got 3.490658503988659"
        if key == "theta":
            assert f"strictly between 0 and pi, got {value!r}" in message
        elif key == "theta_degrees":
            assert f"strictly between 0 and 180, got {float(value)!r}" in message
        assert os.listdir(tmp_path) == ["config.json"]

    def test_delta_classical_feasible(self, tmp_path):
        payload = {"experiment": "bell-scan", "seed": 2,
                   "params": {"rho": {"kind": "delta", "x0": 0.0},
                              "theta_degrees": 60, "n_samples": 20_000}}
        assert run_cli(tmp_path, payload) == EXIT_OK
        results = read_report(tmp_path, "bell-scan")["results"]
        assert results["mode"] == "hidden_state"
        assert results["verdict"] == "feasible"


class TestMarketExperiment:
    PAYLOAD = {
        "experiment": "market",
        "seed": 11,
        "params": {
            "market": {
                "rho": {"kind": "uniform"},
                "n_steps": 150,
                "regime": {"kind": "local", "noise_angle": 0.4},
            },
            "compare_gbm": {"s0": 100.0, "drift": 0.02, "sigma": 0.2,
                            "horizon": 1.0, "steps": 150},
        },
    }

    def test_market_with_comparison(self, tmp_path):
        assert run_cli(tmp_path, self.PAYLOAD) == EXIT_OK
        report = read_report(tmp_path, "market")
        assert "sphere_stats" in report["results"]
        assert "gbm_stats" in report["results"]
        assert report["results"]["direction_scan"]["verdict"] in ("feasible", "infeasible")
        csv_text = (tmp_path / "market_trades.csv").read_bytes().decode("utf-8")
        assert csv_text.startswith("step,ux,uy,uz,outcome,price")
        assert csv_text.count("\r\n") == 151  # header + 150 trades, RFC-4180 endings

    def test_market_reports_reproducible(self, tmp_path):
        run_cli(tmp_path, self.PAYLOAD)
        report = (tmp_path / "market_report.json").read_bytes()
        csv_text = (tmp_path / "market_trades.csv").read_bytes()
        run_cli(tmp_path, self.PAYLOAD)
        assert (tmp_path / "market_report.json").read_bytes() == report
        assert (tmp_path / "market_trades.csv").read_bytes() == csv_text

    @pytest.mark.parametrize("compare", [True, False])
    def test_market_simulated_once(self, tmp_path, monkeypatch, compare):
        calls = []
        real = market_sim.run_market

        def counting(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(market_sim, "run_market", counting)  # the runner imports it per run
        payload = json.loads(json.dumps(self.PAYLOAD))
        if not compare:
            del payload["params"]["compare_gbm"]
        assert run_cli(tmp_path, payload) == EXIT_OK
        assert len(calls) == 1
        assert (tmp_path / "market_trades.csv").exists()

    def test_stats_only(self, tmp_path):
        payload = {"experiment": "market", "seed": 1,
                   "params": {"market": {"rho": {"kind": "uniform"},
                                         "n_steps": 40,
                                         "regime": {"kind": "local",
                                                    "noise_angle": 0.3}},
                              "write_trades": False}}
        assert run_cli(tmp_path, payload) == EXIT_OK
        assert not (tmp_path / "market_trades.csv").exists()
        assert "stats" in read_report(tmp_path, "market")["results"]


    @pytest.mark.parametrize("rho", [{"kind": "uniform"}, {"kind": "delta", "x0": 0.0}],
                             ids=["uniform", "delta"])
    @pytest.mark.parametrize("regime", [
        {"kind": "local", "noise_angle": 0.0},
        {"kind": "global", "noise_angle": 0.0, "news": {"kind": "constant", "angle": 0.5}},
    ], ids=["local", "global"])
    def test_price_that_never_moves_rejected(self, tmp_path, capsys, rho, regime):
        # this once exited 0 with null kurtosis and autocorrelations
        payload = {"experiment": "market", "seed": 3,
                   "params": {"market": {"rho": rho, "n_steps": 40, "regime": regime}}}
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "params.market.regime.noise_angle" in message
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("key, change", [
        ("params.market.price_axis", {"price_axis": [0, 0, 0]}),
        ("params.market.regime.noise_angle",
         {"regime": {"kind": "global", "noise_angle": 4.0,
                     "news": {"kind": "constant", "angle": 0.5}}}),
        ("params.market.regime.noise_angle", {"regime": {"kind": "local", "noise_angle": -0.1}}),
    ], ids=["zero_price_axis", "global_noise_4", "local_noise_negative"])
    def test_out_of_range_market_key_named(self, tmp_path, capsys, key, change):
        payload = json.loads(json.dumps(self.PAYLOAD))
        payload["params"]["market"].update(change)
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        assert f"'{key}'" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("rate", [1e306, -1e306])
    def test_news_angle_overflow_names_rate_and_steps(self, tmp_path, capsys, rate):
        # angle + rate * step leaves the float range near step 180: this once
        # warned of an overflow in numpy and exited 3 with "math domain error"
        payload = json.loads(json.dumps(self.PAYLOAD))
        payload["params"]["market"].update({"n_steps": 1000, "regime": {
            "kind": "global", "noise_angle": 0.5,
            "news": {"kind": "drift", "angle": 0.5, "rate": rate}}})
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("'params.market.regime.news.rate' ")
        assert message.endswith(" 'params.market.n_steps'")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("config", ["market_global_herding", "market_local_vs_gbm"])
    def test_n_steps_past_the_range_named(self, tmp_path, capsys, config):
        # this once exited 3 with numpy's "Maximum allowed dimension
        # exceeded", naming no key
        with open(os.path.join(DEMO_CONFIGS, f"{config}.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["market"]["n_steps"] = 10 ** 20
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("'params.market.n_steps' ")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("regime", [
        {"kind": "local", "noise_angle": 0.4},
        {"kind": "global", "noise_angle": 0.2, "news": {"kind": "drift", "angle": 0.5,
                                                        "rate": 1e-3}},
    ], ids=["local", "global"])
    def test_trades_build_no_vectors(self, tmp_path, monkeypatch, regime):
        # the trade loop and every reader of its log work on columns, so a
        # 2000-step run with the GBM comparison builds a handful of
        # UnitVector3s (the initial state and the scan directions), not
        # several per trade
        built = []
        new = UnitVector3.__new__

        def counted(cls, *args, **kwargs):
            built.append(args or kwargs)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(UnitVector3, "__new__", counted)
        payload = json.loads(json.dumps(self.PAYLOAD))
        payload["params"]["market"]["regime"] = regime
        payload["params"]["market"]["n_steps"] = payload["params"]["compare_gbm"]["steps"] = 2000
        assert run_cli(tmp_path, payload) == EXIT_OK
        assert 0 < len(built) <= 10

    def test_drifting_news_without_noise_reports_numbers(self, tmp_path):
        payload = {"experiment": "market", "seed": 3,
                   "params": {"market": {"rho": {"kind": "uniform"}, "n_steps": 40,
                                         "regime": {"kind": "global", "noise_angle": 0.0,
                                                    "news": {"kind": "drift", "angle": 0.5,
                                                             "rate": 0.05}}}}}
        assert run_cli(tmp_path, payload) == EXIT_OK
        assert "null" not in json.dumps(read_report(tmp_path, "market")["results"])

    def test_gbm_without_volatility_rejected(self, tmp_path, capsys):
        # every GBM moment past the variance was once reported as null
        payload = json.loads(json.dumps(self.PAYLOAD))
        payload["params"]["compare_gbm"]["sigma"] = 0.0
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        assert "params.compare_gbm.sigma" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert os.listdir(tmp_path) == ["config.json"]


class TestConvergenceExperiment:
    def test_slope_reported(self, tmp_path):
        payload = {"experiment": "convergence",
                   "params": {"spec": ATM_SPEC, "steps": [50, 100, 200, 400]}}
        assert run_cli(tmp_path, payload) == EXIT_OK
        results = read_report(tmp_path, "convergence")["results"]
        assert -1.3 <= results["loglog_slope"] <= -0.7
        csv_text = (tmp_path / "convergence_errors.csv").read_text()
        assert csv_text.startswith("steps,abs_error")

    def test_repeated_steps_rejected(self, tmp_path, capsys):
        # one distinct step count once fitted a meaningless slope
        payload = {"experiment": "convergence",
                   "params": {"spec": ATM_SPEC, "steps": [100, 100]}}
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_PARSE
        assert "params.steps" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_zero_error_rejected(self, tmp_path, capsys):
        # at tau 0 both prices are intrinsic value; this once reported a null slope
        payload = {"experiment": "convergence",
                   "params": {"spec": dict(ATM_SPEC, tau=0.0), "steps": [10, 20]}}
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "tau" in message and "10 steps" in message
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("spec, field, other", [
        ({"tau": 0.0}, "tau", None),
        ({"strike": 1e308}, "strike", "spot"),
    ], ids=["tau_zero", "strike_1e308"])
    def test_zero_error_names_key(self, tmp_path, capsys, spec, field, other):
        # both once exited 3 with "binomial error is 0 at 50 steps", no key
        with open(os.path.join(DEMO_CONFIGS, "binomial_convergence.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["params"]["spec"].update(spec)
        code = cli_runner.run(write_config(tmp_path, payload), out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith(f"'params.spec.{field}' ") and "50 steps" in message
        assert other is None or message.endswith(f" 'params.spec.{other}'")
        assert os.listdir(tmp_path) == ["config.json"]


class TestSelftest:
    def test_clean_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_repeat_invocations_identical(self, capsys):
        main(["selftest"])
        first = capsys.readouterr().out
        main(["selftest"])
        assert capsys.readouterr().out == first

    def test_corrupted_sum_facet_detected(self, monkeypatch, capsys):
        monkeypatch.setattr(kolmogorov_check, "SUM_FACET_BOUND", 1.2)
        assert main(["selftest"]) != 0
        assert "lp_vs_facets_n3: FAIL" in capsys.readouterr().out

    def test_corrupted_triangle_facet_detected(self, monkeypatch, capsys):
        monkeypatch.setattr(kolmogorov_check, "TRIANGLE_FACET_BOUND", 1.2)
        assert main(["selftest"]) != 0
        assert "lp_vs_facets_n3: FAIL" in capsys.readouterr().out


class TestOutputDirectory:
    def test_out_dir_created(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "price",
                                      "params": {"spec": ATM_SPEC}})
        out = tmp_path / "deep" / "nested"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "price_report.json").exists()

    @pytest.mark.parametrize("out", ["afile", os.path.join("afile", "sub")],
                             ids=["file", "under_a_file"])
    def test_unusable_out_is_a_runtime_error(self, tmp_path, capsys, out):
        # each once escaped run as a FileExistsError or NotADirectoryError traceback
        cfg = write_config(tmp_path, {"experiment": "price", "params": {"spec": ATM_SPEC}})
        (tmp_path / "afile").write_text("kept")
        assert main(["run", cfg, "--out", str(tmp_path / out)]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        error = json.loads(captured.err)["error"]
        assert error["kind"] == "runtime" and "Error" in error["message"]
        assert sorted(os.listdir(tmp_path)) == ["afile", "config.json"]
        assert (tmp_path / "afile").read_text() == "kept"
