"""Configuration loading: defaults, YAML overrides, and validation failures."""

from __future__ import annotations

import re

import pytest
import yaml

from cogforge.config import CONFIG_SCHEMA, SECTION_SCHEMAS, AppConfig, load_config, refusals
from cogforge.gateway import ConfigError, Endpoint, ModelRole
from cogforge.records import BetaSchedule

FULL_CONFIG = {
    "endpoints": {
        "base": {"url": "http://localhost:8000/v1/chat/completions", "model": "base-7b"},
        "large": {"url": "https://gateway.example.com/v1/chat/completions", "model": "large-72b"},
    },
    "sampling": {"temperature": 0.5, "top_p": 0.95, "top_k": 40, "max_tokens": 2048},
    "pipeline": {
        "retry_cap": 5,
        "votes": 5,
        "max_concurrency": 2,
        "verifier_role": "base",
        "corruption_gate": True,
        "checkpoint_path": "run.checkpoint.json",
    },
    "schedule": {
        "beta_small": 0.05, "beta_medium": 0.1, "beta_large": 0.4,
    },
    "templates_dir": "custom_templates",
}


def write_yaml(tmp_path, payload) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_none_path_gives_defaults(self):
        config = load_config(None)
        assert config.endpoints == {}
        assert config.sampling.temperature == 0.7
        assert config.sampling.top_p == 0.9
        assert config.sampling.top_k == 50
        assert config.sampling.max_tokens == 1024
        assert config.pipeline.retry_cap == 3
        assert config.pipeline.votes == 3
        assert config.pipeline.max_concurrency == 4
        assert config.pipeline.verifier_role is ModelRole.LARGE
        assert config.pipeline.corruption_gate is False
        assert config.schedule == BetaSchedule()
        assert config.templates_dir is None

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        assert load_config(str(path)) == load_config(None)

    def test_defaults_have_no_violations(self):
        defaults = AppConfig()
        for name, schema in SECTION_SCHEMAS.items():
            assert refusals(vars(getattr(defaults, name)), schema, "") == []
        assert refusals({"templates_dir": defaults.templates_dir}, CONFIG_SCHEMA, "") == []


class TestFullRoundTrip:
    def test_every_field_overridden(self, tmp_path):
        config = load_config(write_yaml(tmp_path, FULL_CONFIG))
        assert config.endpoints[ModelRole.BASE].url.startswith("http://localhost:8000")
        assert config.endpoints[ModelRole.BASE].model == "base-7b"
        assert config.endpoints[ModelRole.LARGE].model == "large-72b"
        assert config.sampling.temperature == 0.5
        assert config.sampling.max_tokens == 2048
        assert config.pipeline.retry_cap == 5
        assert config.pipeline.votes == 5
        assert config.pipeline.verifier_role is ModelRole.BASE
        assert config.pipeline.corruption_gate is True
        assert config.pipeline.checkpoint_path == "run.checkpoint.json"
        assert config.schedule.beta_small == 0.05
        assert config.templates_dir == "custom_templates"

    def test_partial_sections_keep_other_defaults(self, tmp_path):
        config = load_config(write_yaml(tmp_path, {"sampling": {"temperature": 0.1}}))
        assert config.sampling.temperature == 0.1
        assert config.sampling.top_p == 0.9
        assert config.pipeline.retry_cap == 3


class TestViolations:
    def test_bad_endpoint_url(self, tmp_path):
        payload = {"endpoints": {"base": {"url": "not-a-url", "model": "m"}}}
        with pytest.raises(ConfigError, match="endpoints.base: field 'url' is not an http"):
            load_config(write_yaml(tmp_path, payload))

    def test_empty_model_name(self, tmp_path):
        payload = {"endpoints": {"large": {"url": "http://host:1/v1", "model": ""}}}
        with pytest.raises(ConfigError, match="endpoints.large: field 'model' is not a non-empty"):
            load_config(write_yaml(tmp_path, payload))

    @pytest.mark.parametrize("entry, words", [
        ({"url": "http://h:1/v1", "model": None},
         "endpoints.large: field 'model' is not a non-empty string: None"),
        ({"url": "http://h:1/v1"}, "endpoints.large: field 'model' is not a non-empty string: None"),
        ({"model": "m"}, "endpoints.large: field 'url' is not an http(s) URL: None"),
        ({"url": "http://h:1/v1", "model": 7},
         "endpoints.large: field 'model' is not a non-empty string: 7"),
        ({"url": True, "model": "m"}, "endpoints.large: field 'url' is not an http(s) URL: True"),
        ("http://h:1/v1", "endpoints: field 'large' is not a mapping: 'http://h:1/v1'"),
    ], ids=["null-model", "missing-model", "missing-url", "int-model", "bool-url", "not-a-mapping"])
    def test_endpoint_entry_refused(self, tmp_path, entry, words):
        path = write_yaml(tmp_path, {"endpoints": {"large": entry}})
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"{path}: {words}"

    def test_zero_retry_cap(self, tmp_path):
        with pytest.raises(ConfigError, match="retry_cap"):
            load_config(write_yaml(tmp_path, {"pipeline": {"retry_cap": 0}}))

    def test_zero_concurrency(self, tmp_path):
        with pytest.raises(ConfigError, match="pipeline: field 'max_concurrency' is not a whole "
                                              "number >= 1: 0"):
            load_config(write_yaml(tmp_path, {"pipeline": {"max_concurrency": 0}}))

    def test_even_votes(self, tmp_path):
        with pytest.raises(ConfigError, match="votes"):
            load_config(write_yaml(tmp_path, {"pipeline": {"votes": 4}}))

    def test_schedule_out_of_order(self, tmp_path):
        payload = {"schedule": {"beta_small": 0.5, "beta_medium": 0.2, "beta_large": 0.1}}
        with pytest.raises(ConfigError, match="config.yaml: schedule: beta ordering"):
            load_config(write_yaml(tmp_path, payload))

    def test_bad_sampling(self, tmp_path):
        with pytest.raises(ConfigError, match="temperature"):
            load_config(write_yaml(tmp_path, {"sampling": {"temperature": -1.0}}))

    def test_multiple_violations_joined(self, tmp_path):
        payload = {
            "sampling": {"temperature": -1.0},
            "pipeline": {"retry_cap": 0},
        }
        with pytest.raises(ConfigError) as info:
            load_config(write_yaml(tmp_path, payload))
        message = str(info.value)
        assert "temperature" in message and "retry_cap" in message

    def test_unknown_role_name(self, tmp_path):
        payload = {"endpoints": {"giant": {"url": "http://h:1/v1", "model": "m"}}}
        with pytest.raises(ConfigError):
            load_config(write_yaml(tmp_path, payload))

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="top level"):
            load_config(str(path))

    def test_non_mapping_section(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(write_yaml(tmp_path, {"sampling": [1, 2]}))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.yaml"))


def write_schedule(tmp_path, text: str) -> str:
    path = tmp_path / "sched.yaml"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadSchedule:
    """A sweep's file holds only the ``schedule:`` section."""

    def test_defaults_when_file_empty(self, tmp_path):
        assert load_config(write_schedule(tmp_path, "schedule:\n")).schedule == BetaSchedule()

    def test_overrides(self, tmp_path):
        payload = {"schedule": {"beta_small": 0.2, "beta_medium": 0.3, "beta_large": 0.9}}
        schedule = load_config(write_schedule(tmp_path, yaml.safe_dump(payload))).schedule
        assert (schedule.beta_small, schedule.beta_medium, schedule.beta_large) == (0.2, 0.3, 0.9)

    def test_invalid_schedule_rejected(self, tmp_path):
        path = write_schedule(tmp_path, yaml.safe_dump({"schedule": {"beta_small": -0.1}}))
        with pytest.raises(ConfigError, match=re.escape(
                "sched.yaml: schedule: field 'beta_small' is not a finite number > 0: -0.1")):
            load_config(path)


class TestSectionKeys:
    @pytest.mark.parametrize("text, words", [
        ("pipline:\n  retry_cap: 7\n", "unknown key 'pipline' (did you mean 'pipeline'?)"),
        ("sampling: {temprature: 0.1}\n",
         "sampling: unknown key 'temprature' (did you mean 'temperature'?)"),
        ("retry_cap: 9\n", "unknown key 'retry_cap'"),
        ("pipeline: {retry_cpa: 7}\n",
         "pipeline: unknown key 'retry_cpa' (did you mean 'retry_cap'?)"),
        # The schedule keys an earlier version read are refused like any other.
        ("schedule: {alpha: 0.3}\n", "schedule: unknown key 'alpha'"),
        ("endpoints:\n  base: {url: 'http://h:1/v1', model: m, key: s}\n",
         "endpoints.base: unknown key 'key'"),
        ("endpoints: {giant: {url: 'http://h:1/v1', model: m}}\n",
         "endpoints: unknown key 'giant'"),
        ("1: x\n", "unknown key 1"),
    ], ids=["section", "sampling", "top-level", "pipeline", "retired", "endpoint-entry", "role",
            "not-a-string"])
    def test_unknown_key_refused(self, tmp_path, text, words):
        path = write_schedule(tmp_path, text)
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"{path}: {words}"

    def test_values_cast_to_field_types(self, tmp_path):
        payload = {"sampling": {"top_k": "7"}, "schedule": {"beta_large": 1}}
        config = load_config(write_yaml(tmp_path, payload))
        assert config.sampling.top_k == 7 and isinstance(config.sampling.top_k, int)
        assert config.schedule.beta_large == 1.0 and isinstance(config.schedule.beta_large, float)

    @pytest.mark.parametrize("section, values", [
        ("pipeline", {"corruption_gate": "false"}),
        ("pipeline", {"corruption_gate": 0}),
        ("sampling", {"top_k": 2.7}),
        ("sampling", {"max_tokens": True}),
    ])
    def test_wrong_kind_is_config_error(self, tmp_path, section, values):
        with pytest.raises(ConfigError, match="config.yaml"):
            load_config(write_yaml(tmp_path, {section: values}))

    @pytest.mark.parametrize("payload, name", [
        ({"pipeline": {"checkpoint_path": 7}}, "checkpoint_path"),
        ({"pipeline": {"checkpoint_path": [1]}}, "checkpoint_path"),
        ({"pipeline": {"checkpoint_path": False}}, "checkpoint_path"),
        ({"templates_dir": 5}, "templates_dir"),
        ({"templates_dir": {"dir": "t"}}, "templates_dir"),
        ({"pipeline": {"checkpoint_path": ""}}, "checkpoint_path"),
        ({"templates_dir": ""}, "templates_dir"),
    ])
    def test_path_that_is_no_string_is_config_error(self, tmp_path, payload, name):
        path = write_yaml(tmp_path, payload)
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        section = "pipeline: " if "pipeline" in payload else ""
        value = payload.get("pipeline", payload)[name]
        assert str(caught.value) == (
            f"{path}: {section}field {name!r} is not a non-empty string or null: {value!r}")

    @pytest.mark.parametrize("section, field, value, shown", [
        ("schedule", "beta_large", ".inf", "inf"),
        ("schedule", "beta_small", "-.inf", "-inf"),
        ("schedule", "beta_medium", ".nan", "nan"),
        ("sampling", "temperature", ".nan", "nan"),
        ("sampling", "top_p", "'inf'", "'inf'"),
        ("schedule", "beta_large", "'-Infinity'", "'-Infinity'"),
    ])
    def test_non_finite_float_is_config_error(self, tmp_path, section, field, value, shown):
        path = tmp_path / "config.yaml"
        path.write_text(f"{section}:\n  {field}: {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as caught:
            load_config(str(path))
        words = SECTION_SCHEMAS[section][field].words
        assert str(caught.value) == f"{path}: {section}: field {field!r} is not {words}: {shown}"

    def test_whole_numbers_and_booleans_load(self, tmp_path):
        payload = {"sampling": {"top_k": 7.0}, "pipeline": {"corruption_gate": False}}
        config = load_config(write_yaml(tmp_path, payload))
        assert config.sampling.top_k == 7 and isinstance(config.sampling.top_k, int)
        assert config.pipeline.corruption_gate is False

    def test_bad_value_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="config.yaml"):
            load_config(write_yaml(tmp_path, {"sampling": {"top_k": "many"}}))
        path = write_schedule(tmp_path, yaml.safe_dump({"schedule": {"beta_large": "big"}}))
        with pytest.raises(ConfigError, match="sched.yaml: schedule: field 'beta_large' is not a "
                                              "finite number: 'big'"):
            load_config(path)
        for value in ("7.5", [1]):
            with pytest.raises(ConfigError, match=re.escape(
                    f"config.yaml: pipeline: field 'retry_cap' is not a whole number >= 1: {value!r}")):
                load_config(write_yaml(tmp_path, {"pipeline": {"retry_cap": value}}))

    def test_int_too_large_for_a_float_is_config_error(self, tmp_path):
        """float() raises OverflowError here, which no CLI handler catches."""
        path = write_schedule(tmp_path, f"schedule:\n  beta_large: {'9' * 400}\n")
        with pytest.raises(ConfigError, match="schedule: field 'beta_large' is not a finite number"):
            load_config(path)

    def test_malformed_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("pipeline: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="config.yaml:2:1: while parsing a flow sequence, "):
            load_config(str(path))
        path = write_schedule(tmp_path, "schedule: {beta_small: [unclosed\n")
        with pytest.raises(ConfigError, match="sched.yaml:2:1: while parsing a flow sequence, "):
            load_config(path)


class TestRepeatedKeys:
    """pyyaml keeps the later of two equal keys without a word, so a walk
    would run under a setting the file states twice; the file is refused."""

    @pytest.mark.parametrize(("text", "words"), [
        ("pipeline: {votes: 5}\nschedule:\n  beta_small: 0.1\n  beta_large: 0.9\n"
         "pipeline: {max_concurrency: 2}\n", "5: duplicate key 'pipeline'"),
        ("pipeline:\n  votes: 5\n  retry_cap: 2\n  votes: 3\n",
         "4: duplicate key 'votes'"),
    ], ids=["section", "field"])
    def test_repeated_key_is_config_error(self, tmp_path, text, words):
        path = write_schedule(tmp_path, text)
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"{path}:{words}"

    def test_merged_keys_may_be_overridden(self, tmp_path):
        path = write_schedule(tmp_path, "endpoints:\n  base: &e {url: 'http://h:1/v1', model: a}\n"
                                        "  large: {<<: *e, model: b}\n")
        endpoints = load_config(path).endpoints
        assert endpoints[ModelRole.LARGE] == Endpoint("http://h:1/v1", "b")
        assert endpoints[ModelRole.BASE] == Endpoint("http://h:1/v1", "a")
