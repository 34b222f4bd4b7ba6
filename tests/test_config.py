import contextlib
import glob
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremarket import cli_runner
from spheremarket.cli_runner import EXIT_PARSE, EXIT_VALIDATION
from spheremarket.config import ConfigParseError, count, number, parse_block
from spheremarket.market_sim import MarketConfig, NewsSeries, regime_from_dict
from spheremarket.pricing import GbmParams, OptionSpec
from spheremarket.sphere_model import RhoDistribution

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "demos", "configs", "*.json")))

SPEC = {"spot": 100.0, "strike": 100.0, "rate": 0.05, "sigma": 0.2, "tau": 1.0}
GBM = {"s0": 100.0, "drift": 0.02, "sigma": 0.2, "horizon": 1.0, "steps": 40}
LOCAL = {"kind": "local", "noise_angle": 0.3}
MARKET = {"rho": {"kind": "uniform"}, "n_steps": 40, "regime": LOCAL, "seed": 1}


def run_config(payload) -> tuple[int, str]:
    """Run the CLI on ``payload`` (a dict, or raw JSON text); returns
    (exit code, error message or "")."""
    text = payload if isinstance(payload, str) else json.dumps(payload)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_runner.main(["run", path, "--out", tmp])
    return code, json.loads(err.getvalue())["error"]["message"] if err.getvalue() else ""


def market_payload(**market):
    block = {k: v for k, v in MARKET.items() if k != "seed"}
    return {"experiment": "market", "params": {"market": {**block, **market},
                                               "write_trades": False}}


def sphere_payload(**params):
    return {"experiment": "sphere",
            "params": {"rho": {"kind": "uniform"}, "state": [0.0, 0.0, 1.0],
                       "direction": [0.0, 0.0, 1.0], "n_trials": 1000, **params}}


class TestParseBlock:
    def test_unknown_and_missing_keys_named(self):
        with pytest.raises(ConfigParseError, match="unknown key 'angel' in 'regime'"):
            parse_block({"angle": 1.0, "angel": 2.0}, "regime", optional={"angle": number})
        with pytest.raises(ConfigParseError, match="missing key 'angle' in 'news'"):
            parse_block({}, "news", required={"angle": number})

    def test_absent_optional_keys_left_out(self):
        assert parse_block({"a": 1}, "b", required={"a": count}, optional={"c": number}) == {"a": 1}

    @pytest.mark.parametrize("value", [True, "1.0", None, [1.0]])
    def test_number_rejects_non_numbers(self, value):
        with pytest.raises(ConfigParseError, match="'spec.spot' must be a number"):
            number(value, "spec.spot")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_number_rejects_non_finite(self, value):
        with pytest.raises(ConfigParseError, match="'spec.spot' must be finite"):
            number(value, "spec.spot")

    @pytest.mark.parametrize("value", [True, 10.7, 10.0, "10"])
    def test_count_rejects_non_integers(self, value):
        with pytest.raises(ConfigParseError, match="'params.n_trials' must be an integer"):
            count(value, "params.n_trials")

    def test_parse_error_is_a_value_error(self):
        assert issubclass(ConfigParseError, ValueError)
        assert cli_runner.ConfigParseError is ConfigParseError


class TestFromDict:
    """Each block's from_dict is its only parser and rejects bad input by key."""

    CASES = [
        (OptionSpec.from_dict, SPEC),
        (GbmParams.from_dict, GBM),
        (RhoDistribution.from_dict, {"kind": "delta", "x0": 0.1}),
        (RhoDistribution.from_dict, {"kind": "truncated_gaussian", "center": 0.0, "width": 0.3}),
        (RhoDistribution.from_dict, {"kind": "piecewise", "breakpoints": [-1.0, 1.0],
                                     "densities": [1.0]}),
        (regime_from_dict, LOCAL),
        (regime_from_dict, {"kind": "global", "noise_angle": 0.1,
                            "news": {"kind": "constant", "angle": 0.8}}),
        (NewsSeries.from_dict, {"kind": "drift", "angle": 0.3, "rate": 0.01}),
        (MarketConfig.from_dict, MARKET),
    ]

    @pytest.mark.parametrize("parse, block", CASES)
    def test_unknown_key_named(self, parse, block):
        with pytest.raises(ConfigParseError, match="unknown key 'angel'"):
            parse({**block, "angel": 1.0})

    @pytest.mark.parametrize("parse, block", CASES)
    def test_each_missing_required_key_named(self, parse, block):
        optional = {"kind", "angle", "rate"} if parse is NewsSeries.from_dict else set()
        for key in set(block) - optional:
            with pytest.raises(ConfigParseError, match=f"'{key}'"):
                parse({k: v for k, v in block.items() if k != key})

    @pytest.mark.parametrize("parse, block", CASES)
    def test_bool_and_non_finite_numbers_named(self, parse, block):
        for key, value in block.items():
            if isinstance(value, float):
                for bad in (True, math.nan, math.inf):
                    with pytest.raises(ConfigParseError, match=key):
                        parse({**block, key: bad})

    def test_non_integral_counts_named(self):
        with pytest.raises(ConfigParseError, match="'compare_gbm.steps'"):
            GbmParams.from_dict({**GBM, "steps": 40.5})
        with pytest.raises(ConfigParseError, match="'market.n_steps'"):
            MarketConfig.from_dict({**MARKET, "n_steps": 10.7})
        with pytest.raises(ConfigParseError, match="'market.seed'"):
            MarketConfig.from_dict({**MARKET, "seed": True})

    def test_defaults_live_in_the_domain_objects(self):
        spec = OptionSpec.from_dict(SPEC)
        assert (spec.kind.value, spec.style.value) == ("call", "european")
        cfg = MarketConfig.from_dict(MARKET)
        assert (cfg.price_min, cfg.price_max) == (50.0, 150.0)
        assert cfg.to_dict()["price_axis"] == [0.0, 0.0, 1.0]


class TestCliExitCodes:
    NAN_SPEC = json.dumps({"experiment": "price", "params": {"spec": dict(SPEC, spot=math.nan)}})

    CASES = [
        ("missing noise_angle", market_payload(regime={"kind": "local"}), EXIT_PARSE, "noise_angle"),
        ("regime unknown key", market_payload(regime={**LOCAL, "angel": 0.1}), EXIT_PARSE, "angel"),
        ("news unknown key",
         market_payload(regime={"kind": "global", "noise_angle": 0.1,
                                "news": {"kind": "constant", "angel": 0.8}}), EXIT_PARSE, "angel"),
        ("rho unknown key", sphere_payload(rho={"kind": "uniform", "x0": 0.1}), EXIT_PARSE, "x0"),
        ("spot NaN", NAN_SPEC, EXIT_PARSE, "spot"),
        ("spot Infinity", NAN_SPEC.replace("NaN", "Infinity"), EXIT_PARSE, "spot"),
        ("spot 1e999", NAN_SPEC.replace("NaN", "1e999"), EXIT_PARSE, "spot"),
        ("state NaN", json.dumps(sphere_payload(state=[0.0, math.nan, 1.0])), EXIT_PARSE, "state"),
        ("zero direction", sphere_payload(direction=[0, 0, 0]), EXIT_VALIDATION,
         "'params.direction'"),
        ("zero state", sphere_payload(state=[0.0, -0.0, 0.0]), EXIT_VALIDATION, "'params.state'"),
        ("seed true", {"experiment": "price", "seed": True, "params": {"spec": SPEC}},
         EXIT_PARSE, "seed"),
        ("n_trials 10.7", sphere_payload(n_trials=10.7), EXIT_PARSE, "n_trials"),
        ("write_trades string", {"experiment": "market",
                                 "params": {"market": market_payload()["params"]["market"],
                                            "write_trades": "no"}}, EXIT_PARSE, "write_trades"),
        ("seed inside market", market_payload(seed=3), EXIT_PARSE, "seed"),
        ("gbm unknown key", {"experiment": "market",
                             "params": {"market": market_payload()["params"]["market"],
                                        "compare_gbm": {**GBM, "s1": 1.0}}}, EXIT_PARSE, "s1"),
        ("truncated Gaussian without mass",
         sphere_payload(rho={"kind": "truncated_gaussian", "center": 50.0, "width": 0.01}),
         EXIT_VALIDATION, "no mass"),
        ("unknown option kind", {"experiment": "price", "params": {"spec": dict(SPEC, kind="swap")}},
         EXIT_VALIDATION, "swap"),
    ]

    @pytest.mark.parametrize("payload, code, named", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_malformed_config(self, payload, code, named):
        got, message = run_config(payload)
        assert got == code
        assert named in message


def dict_paths(obj, path=()):
    """Key paths of every JSON object inside ``obj``, the root included."""
    if isinstance(obj, dict):
        yield path
        for key, value in obj.items():
            yield from dict_paths(value, path + (key,))


@pytest.mark.parametrize("config_path", DEMO_CONFIGS, ids=os.path.basename)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_unknown_key_at_any_level_is_named(config_path, data):
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    path = data.draw(st.sampled_from(list(dict_paths(config))))
    key = "unknown_" + data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8))
    block = config
    for step in path:
        block = block[step]
    block[key] = data.draw(st.one_of(st.integers(), st.text(max_size=3), st.none()))
    code, message = run_config(config)
    assert code == EXIT_PARSE
    assert f"'{key}'" in message
