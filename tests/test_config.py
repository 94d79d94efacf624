"""Config parsing: keys that no longer exist, and a fuzz of both parsers.

The fuzz property: on any text, `parse_run_config` and `parse_sweep_config`
either return a config whose float fields are all finite (save `t2_star_us`,
which may be +inf: no dephasing noise) and whose integer fields are below
2**63 in magnitude, or raise `ConfigError`; any other exception is a bug at
the boundary.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from lzsim.config import (
    _SIMULATE_SCHEMA,
    _SWEEP_SCHEMA,
    _parse_float,
    _parse_float_list,
    _parse_int,
    _parse_t2_star,
    parse_run_config,
    parse_sweep_config,
)
from lzsim.errors import ConfigError
from lzsim.experiments import PRESETS

SWEEP = "sweep = resonance\nscan_values = 128.0\ndelta_mhz = 5.57\nepsilon_m_mhz = 100.0\n"


class TestT2Star:
    def test_inf_drops_the_noise(self):
        cfg = parse_run_config("scenario = fig3a\nt2_star_us = inf\n")
        assert cfg.spec.noise.t2_star_us == math.inf

    @pytest.mark.parametrize("value", ["nan", "-inf", "0", "-1"])
    def test_refused(self, value):
        with pytest.raises(ConfigError, match="t2_star_us"):
            parse_run_config(f"scenario = fig3a\nt2_star_us = {value}\n")


class TestPresets:
    def test_preset_fills_what_is_absent(self):
        spec = parse_run_config("scenario = fig3b\nt_end_ns = 1212.0\n").spec
        preset = PRESETS["fig3b"]
        assert spec.name == "fig3b"
        assert spec.drive == preset.drive
        assert spec.t_end_ns == 1212.0
        assert spec.sample_every_ns == preset.sample_every_ns

    def test_preset_refuses_a_drive_offset(self):
        # the preset fixes the whole drive; the offset would go unused
        with pytest.raises(ConfigError, match="either 'scenario' or raw drive keys"):
            parse_run_config("scenario = fig3a\nt_offset_ns = 19.0\n")


class TestRemovedKeys:
    @pytest.mark.parametrize("line", ["workers = 2", "seed = 1", "n_periods = 50"])
    def test_sweep_config_refuses(self, line):
        parse_sweep_config(SWEEP)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_sweep_config(SWEEP + line + "\n")

    def test_simulate_config_refuses_workers(self):
        parse_run_config("scenario = fig3a\nseed = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'workers'"):
            parse_run_config("scenario = fig3a\nworkers = 2\n")

    def test_simulate_config_refuses_n_noise_samples(self):
        # the dephasing average is a quadrature whose node count follows T2*
        with pytest.raises(ConfigError, match="unknown key 'n_noise_samples'"):
            parse_run_config("scenario = fig3a\nt2_star_us = 6.56\nn_noise_samples = 32\n")

    def test_simulate_config_ignores_seed(self):
        # still accepted, so configs written for the Monte Carlo average run
        cfg = parse_run_config("scenario = fig3a\nt2_star_us = 6.56\nseed = 7\n")
        assert cfg == parse_run_config("scenario = fig3a\nt2_star_us = 6.56\n")
        assert not hasattr(cfg, "seed")
        with pytest.raises(ConfigError, match="bad value for 'seed'"):
            parse_run_config("scenario = fig3a\nseed = seven\n")


def _numbers(obj):
    """Every float and int reachable from a config's fields."""
    if isinstance(obj, (float, int)) and not isinstance(obj, bool):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _numbers(x)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))


_EDGE_FLOATS = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e308", "-1e308",
                                "1e-320", "0", "-0.0"])
_FLOAT_TEXT = st.one_of(
    _EDGE_FLOATS,
    st.floats(0.1, 1000.0).map(repr),
    st.floats(0.1, 1000.0).map(repr),
    st.floats().map(repr),
)
# bounded so a drawn scan_points does not allocate a huge grid; the edge
# values are past int64 and must be refused
_INT_TEXT = st.one_of(
    st.integers(-10**5, 10**5).map(str),
    st.sampled_from([str(2**63), str(-2**63), "1" + "0" * 400]),
)
_WORDS = st.sampled_from(["resonance", "lz_probability", "period_ns", "epsilon_m_mhz", "fig3a",
                          "fig4", "ode", "both", "transfer-matrix", "piecewise-exact", "csv",
                          "json", "true", "no", "1", ""])
_JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
_ANY = st.one_of(_FLOAT_TEXT, _INT_TEXT, _WORDS, _JUNK)
_TYPED = {
    _parse_float: _FLOAT_TEXT,
    _parse_t2_star: _FLOAT_TEXT,
    _parse_float_list: st.lists(_FLOAT_TEXT, min_size=1, max_size=4).map(", ".join),
    _parse_int: _INT_TEXT,
}


def _value_text(conv):
    """Mostly a value of the key's own type, else anything."""
    own = _TYPED.get(conv, _WORDS)
    return st.one_of(*[own] * 7, _ANY)


def _config_text(schema, bases):
    """One of some valid base configs with drawn values over a few keys, plus
    junk lines and repeated keys now and then."""
    keys = st.sets(st.sampled_from(sorted(schema)), max_size=3)
    drawn = keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: _value_text(schema[k][0]) for k in sorted(ks)}))
    repeat = st.sampled_from(sorted(schema)).flatmap(
        lambda k: _value_text(schema[k][0]).map(lambda v: f"{k} = {v}"))
    extra = st.lists(st.one_of(_JUNK, repeat), max_size=2)
    return st.builds(
        lambda base, d, ex: "\n".join([*(f"{k} = {v}" for k, v in {**base, **d}.items()), *ex]),
        st.sampled_from(bases), drawn, st.one_of(st.just([]), st.just([]), st.just([]), extra),
    )


def _check(parse, text):
    try:
        cfg = parse(text)
    except ConfigError:
        return
    noise = cfg.spec.noise if hasattr(cfg, "spec") else None
    t2 = noise.t2_star_us if noise is not None else None
    assert t2 is None or t2 > 0, f"t2_star_us = {t2} from {text!r}"
    if t2 == math.inf:
        cfg = dataclasses.replace(cfg, spec=dataclasses.replace(
            cfg.spec, noise=dataclasses.replace(noise, t2_star_us=None)))
    numbers = list(_numbers(cfg))
    bad = [x for x in numbers if isinstance(x, float) and not math.isfinite(x)]
    assert not bad, f"non-finite fields {bad} from {text!r}"
    big = [x for x in numbers if isinstance(x, int) and abs(x) >= 2**63]
    assert not big, f"integer fields past int64 from {text!r}"


_GAP = {"delta_mhz": "5.57", "epsilon_m_mhz": "100.0"}
_RUN_BASES = [{**_GAP, "period_ns": "128.0"}, {"scenario": "fig3a"}]
_SWEEP_BASES = [
    {"sweep": "resonance", "scan_values": "128.0", **_GAP},
    {"sweep": "resonance", "scan_start": "100", "scan_stop": "200", "scan_points": "3", **_GAP},
    {"sweep": "lz_probability", "period_values_ns": "160, 640", **_GAP},
]


# derandomized: the same examples on every run, so the suite's verdict is stable
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_config_text(_SIMULATE_SCHEMA, _RUN_BASES))
def test_fuzz_run_config(text):
    _check(parse_run_config, text)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_config_text(_SWEEP_SCHEMA, _SWEEP_BASES))
def test_fuzz_sweep_config(text):
    _check(parse_sweep_config, text)
