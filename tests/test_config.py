import contextlib
import glob
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremarket import cli_runner
from spheremarket.cli_runner import EXIT_PARSE, EXIT_VALIDATION
from spheremarket.config import (ConfigParseError, FieldError, at_least, count, member, number,
                                 parse_block, shown)
from spheremarket.market_sim import (GlobalRegime, LocalRegime, MarketConfig, NewsSeries,
                                     regime_from_dict)
from spheremarket.pricing import GbmParams, OptionSpec
from spheremarket.sphere_model import RhoDistribution

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "demos", "configs", "*.json")))

SPEC = {"spot": 100.0, "strike": 100.0, "rate": 0.05, "sigma": 0.2, "tau": 1.0}
GBM = {"s0": 100.0, "drift": 0.02, "sigma": 0.2, "horizon": 1.0, "steps": 40}
LOCAL = {"kind": "local", "noise_angle": 0.3}
MARKET = {"rho": {"kind": "uniform"}, "n_steps": 40, "regime": LOCAL, "seed": 1}


def run_config(payload) -> tuple[int, str, dict]:
    """Run the CLI in process on ``payload`` (a dict, or raw JSON text);
    returns (exit code, error message or "", {name: text} of the files written)."""
    text = payload if isinstance(payload, str) else json.dumps(payload)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_runner.run(path, out_dir=out)
        written = {}
        for name in os.listdir(out) if os.path.exists(out) else ():
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                written[name] = fh.read()
    message = json.loads(err.getvalue())["error"]["message"] if err.getvalue() else ""
    return code, message, written


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

    @pytest.mark.parametrize("value", [2 ** 1024, -(10 ** 400)], ids=["2**1024", "-10**400"])
    def test_number_rejects_ints_beyond_the_float_range(self, value):
        # math.isfinite raised OverflowError on them, which exited 4 naming no key
        with pytest.raises(ConfigParseError, match="'spec.spot' must be finite"):
            number(value, "spec.spot")
        assert number(2 ** 1023, "spec.spot") == 2.0 ** 1023

    @pytest.mark.parametrize("value", [True, 10.7, 10.0, "10"])
    def test_count_rejects_non_integers(self, value):
        with pytest.raises(ConfigParseError, match="'params.n_trials' must be an integer"):
            count(value, "params.n_trials")

    @pytest.mark.parametrize("value", [True, 2.0, 2.5])
    def test_at_least_rejects_non_integers(self, value):
        with pytest.raises(ConfigParseError, match="'params.mc_paths' must be an integer"):
            at_least(2)(value, "params.mc_paths")

    def test_at_least_names_the_key_below_its_floor(self):
        assert at_least(2)(2, "params.mc_paths") == 2
        with pytest.raises(ValueError, match="'params.mc_paths' must be at least 2, got 1") as exc:
            at_least(2)(1, "params.mc_paths")
        assert not isinstance(exc.value, ConfigParseError)  # a validation error, exit 3

    def test_at_least_names_the_key_above_its_cap(self):
        assert at_least(1, 64)(64, "params.workers") == 64
        with pytest.raises(ValueError, match="'params.workers' must be at most 64, got 65") as exc:
            at_least(1, 64)(65, "params.workers")
        assert not isinstance(exc.value, ConfigParseError)
        assert at_least(1)(2 ** 53, "params.n_trials") == 2 ** 53  # the default cap
        with pytest.raises(ValueError, match=f"'params.n_trials' must be at most {2 ** 53}"):
            at_least(1)(2 ** 53 + 1, "params.n_trials")

    def test_shown_gives_a_long_int_by_its_digit_count(self):
        for value in (10 ** 20 - 1, -(10 ** 20 - 1), 7, 2.5, 1e300, True, "10", None):
            assert shown(value) == repr(value)
        for k in range(20, 1000):
            for n in (10 ** k - 1, 10 ** k, 10 ** k + 1):
                if n >= 10 ** 20:
                    assert shown(n) == f"an integer of {len(str(n))} digits"
                    assert shown(-n) == f"a negative integer of {len(str(n))} digits"
        # past the 4300 digits that str() of an int allows
        assert shown(10 ** 10 ** 5) == "an integer of 100001 digits"
        assert shown(2 ** 10 ** 6) == "an integer of 301030 digits"

    def test_member_of_a_tuple(self):
        conv = member(("auto", "sequential"))
        assert conv("sequential", "params.mode") == "sequential"
        for bad in ("psychic", ["auto"], None, 10 ** 400):
            with pytest.raises(ValueError, match="'params.mode' must be one of 'auto', "
                                                 "'sequential', got") as exc:
                conv(bad, "params.mode")
            assert len(str(exc.value)) < 100

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

    @pytest.mark.parametrize("build", [
        lambda noise: LocalRegime(noise_angle=noise),
        lambda noise: GlobalRegime(news=NewsSeries(), noise_angle=noise),
    ], ids=["local", "global"])
    def test_regimes_own_the_noise_rule(self, build):
        for noise in (-0.1, 3.2, math.nan):
            with pytest.raises(FieldError, match=r"noise_angle must lie in \[0, pi\]"):
                build(noise)
        with pytest.raises(ValueError, match=r"'regime.noise_angle' must lie in \[0, pi\], got 4"):
            regime_from_dict({**LOCAL, "noise_angle": 4.0})

    def test_defaults_live_in_the_domain_objects(self):
        spec = OptionSpec.from_dict(SPEC)
        assert spec.kind.value == "call" and spec.to_dict()["style"] == "european"
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
        ("seed inside market", market_payload(seed=3), EXIT_PARSE, "'params.market.seed'"),
        ("methods empty", {"experiment": "price", "params": {"spec": SPEC, "methods": []}},
         EXIT_PARSE, "'params.methods'"),
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
        got, message, _ = run_config(payload)
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
    code, message, _ = run_config(config)
    assert code == EXIT_PARSE
    assert f"'{key}'" in message


# One config per experiment that sets every optional key, beside the demo configs.
FULL_CONFIGS = {
    "price": {"experiment": "price", "seed": 1, "params": {
        "spec": {**SPEC, "kind": "put", "style": "european"}, "methods": ["bs", "binomial", "mc"],
        "binomial_steps": 20, "mc_paths": 100}},
    "sphere": {"experiment": "sphere", "seed": 1, "params": {
        "rho": {"kind": "truncated_gaussian", "center": 0.1, "width": 0.4},
        "state": {"theta": 1.0, "phi": 0.5}, "direction": [0.0, 0.6, 0.8],
        "n_trials": 100, "workers": 2}},
    "bell-scan": {"experiment": "bell-scan", "seed": 1, "params": {
        "rho": {"kind": "piecewise", "breakpoints": [-1.0, 0.0, 1.0], "densities": [1.0, 3.0]},
        "theta": 1.0, "mode": "hidden_state", "n_samples": 100}},
    "market": {"experiment": "market", "seed": 1, "params": {
        "market": {"rho": {"kind": "delta", "x0": 0.1}, "n_steps": 40,
                   "regime": {"kind": "global", "noise_angle": 0.3,
                              "news": {"kind": "drift", "angle": 0.3, "rate": 0.01}},
                   "price_axis": [0.0, 0.6, 0.8], "price_min": 60.0, "price_max": 140.0},
        "compare_gbm": GBM, "write_trades": True}},
    "convergence": {"experiment": "convergence", "seed": 1, "params": {
        "spec": {**SPEC, "kind": "call", "style": "european"}, "steps": [10, 20, 40]}},
}


def sweep_configs():
    for path in DEMO_CONFIGS:
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), json.load(fh)
    for kind, config in FULL_CONFIGS.items():
        yield f"full-{kind}", config


def with_value(config, path, value):
    """A copy of ``config`` with the value at ``path`` replaced by ``value``."""
    variant = json.loads(json.dumps(config))
    block = variant
    for step in path[:-1]:
        block = block[step]
    block[path[-1]] = value
    return variant


def value_paths(obj, path=(), key=None):
    """(path, innermost object key) of every value inside ``obj``, whether a
    number, a string, a list or a whole block."""
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, list) else ())
    for step, value in children:
        holder = step if isinstance(obj, dict) else key
        yield path + (step,), holder
        yield from value_paths(value, path + (step,), holder)


@pytest.mark.parametrize("config", list(FULL_CONFIGS.values()), ids=list(FULL_CONFIGS))
def test_full_configs_run(config):
    code, message, written = run_config(config)
    assert (code, message) == (0, "")
    assert written


@pytest.mark.parametrize("config", [pytest.param(c, id=name) for name, c in sweep_configs()])
def test_non_finite_literal_anywhere_is_named(config):
    # each value, block or list in turn becomes NaN, Infinity or -Infinity:
    # every variant exits 2 or 3, names the key that holds it and writes nothing
    wrong = []
    for path, key in value_paths(config):
        for bad in (math.nan, math.inf, -math.inf):
            code, message, written = run_config(with_value(config, path, bad))
            if code not in (EXIT_PARSE, EXIT_VALIDATION) or key not in message or written:
                wrong.append((path, bad, code, message, written))
    assert not wrong


FUZZ_VALUES = (0, -1, 1e308, -1e308, 5e-324)
# past the exact float integers, and past the float range: no run may start
INT_EXTREMES = (2 ** 53 + 1, 10 ** 400)


def fuzz_variants(config):
    """(path, value): each numeric leaf but the seed, list elements included,
    set to each of FUZZ_VALUES, each integer leaf also to each of
    INT_EXTREMES, and each 3-vector set to [0, 0, 0]."""
    for path, _ in value_paths(config):
        value = config
        for step in path:
            value = value[step]
        if isinstance(value, list) and len(value) == 3 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            yield path, [0, 0, 0]
        elif isinstance(value, (int, float)) and not isinstance(value, bool) and path != ("seed",):
            yield from ((path, bad) for bad in FUZZ_VALUES)
            if isinstance(value, int):
                yield from ((path, bad) for bad in INT_EXTREMES)


def computed_gaps(obj, path="results"):
    """Paths of the nulls and non-finite numbers in ``obj``.  error_estimate
    is exempt: the Black-Scholes and lattice rows have none and hold null, and
    dropping the key would change the price report's pinned bytes."""
    if obj is None or isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    if isinstance(obj, dict):
        children = [(f"{path}.{k}", v) for k, v in obj.items() if k != "error_estimate"]
    else:
        children = [(f"{path}[{i}]", v) for i, v in enumerate(obj)] if isinstance(obj, list) else []
    return [gap for p, v in children for gap in computed_gaps(v, p)]


@pytest.mark.parametrize("leaf, code, key", [
    (("params", "binomial_steps"), EXIT_VALIDATION, "params.binomial_steps"),
    (("params", "spec", "spot"), EXIT_PARSE, "params.spec.spot"),
], ids=["binomial_steps", "spot"])
def test_long_int_error_line_stays_short(leaf, code, key, tmp_path, capsys):
    # both once echoed all 401 digits: lines of 501 and 483 characters
    with open(os.path.join(ROOT, "demos", "configs", "price_atm.json"), encoding="utf-8") as fh:
        config = with_value(json.load(fh), leaf, 10 ** 400)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_runner.run(str(path), out_dir=str(tmp_path / "out")) == code
    line = capsys.readouterr().err.strip()
    assert "\n" not in line and len(line) < 200
    assert json.loads(line)["error"]["message"].startswith(f"'{key}' ")


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=os.path.basename)
def test_fuzzed_demo_leaf_runs_or_names_its_key(path):
    # every variant exits 0 with no null or non-finite computed value, or
    # exits 2 or 3 naming the leaf's dotted key (a list element may be named
    # by its list) in a message under 200 characters, and raises no warning
    # either way; an integer extreme must not run at all
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    wrong = []
    for leaf, bad in fuzz_variants(config):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, message, written = run_config(with_value(config, leaf, bad))
        key = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in leaf)[1:]
        if code == 0:
            report = next(text for name, text in written.items() if name.endswith("_report.json"))
            broken = bad in INT_EXTREMES or computed_gaps(json.loads(report)["results"])
        else:
            named = any(f"'{k}'" in message for k in (key, key.split("[")[0]))
            broken = code not in (EXIT_PARSE, EXIT_VALIDATION) or not named or len(message) >= 200
        if broken or caught:
            wrong.append((key, bad, code, message, [str(w.message) for w in caught]))
    assert not wrong
