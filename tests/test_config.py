"""Configuration loading: defaults, YAML overrides, and validation failures."""

from __future__ import annotations

import pytest
import yaml

from cogforge.config import AppConfig, load_config
from cogforge.gateway import ConfigError, ModelRole
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
        assert AppConfig().validate() == []


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
        with pytest.raises(ConfigError, match="endpoints.base.url"):
            load_config(write_yaml(tmp_path, payload))

    def test_empty_model_name(self, tmp_path):
        payload = {"endpoints": {"large": {"url": "http://host:1/v1", "model": ""}}}
        with pytest.raises(ConfigError, match="endpoints.large.model"):
            load_config(write_yaml(tmp_path, payload))

    def test_zero_retry_cap(self, tmp_path):
        with pytest.raises(ConfigError, match="retry_cap"):
            load_config(write_yaml(tmp_path, {"pipeline": {"retry_cap": 0}}))

    def test_even_votes(self, tmp_path):
        with pytest.raises(ConfigError, match="votes"):
            load_config(write_yaml(tmp_path, {"pipeline": {"votes": 4}}))

    def test_schedule_out_of_order(self, tmp_path):
        payload = {"schedule": {"beta_small": 0.5, "beta_medium": 0.2, "beta_large": 0.1}}
        with pytest.raises(ConfigError, match="config.yaml: beta ordering"):
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
        with pytest.raises(ConfigError, match="sched.yaml: beta_small: must be positive"):
            load_config(path)


class TestSectionKeys:
    def test_unknown_keys_ignored(self, tmp_path):
        payload = {"sampling": {"temperature": 0.2, "seed": 9}, "pipeline": {"workers": 8}}
        config = load_config(write_yaml(tmp_path, payload))
        assert config.sampling.temperature == 0.2
        assert config.pipeline == load_config(None).pipeline
        # Schedule keys an earlier version read still load, and change nothing.
        old = load_config(write_yaml(tmp_path, {"schedule": {"alpha": 0.3, "m0": 0.5}}))
        assert old.schedule == BetaSchedule()

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

    @pytest.mark.parametrize("payload, text", [
        ({"pipeline": {"checkpoint_path": 7}}, "checkpoint_path: 7 is not a valid str"),
        ({"pipeline": {"checkpoint_path": [1]}}, "checkpoint_path: [1] is not a valid str"),
        ({"pipeline": {"checkpoint_path": False}}, "checkpoint_path: False is not a valid str"),
        ({"templates_dir": 5}, "templates_dir: 5 is not a valid str"),
        ({"templates_dir": {"dir": "t"}}, "templates_dir: {'dir': 't'} is not a valid str"),
        ({"pipeline": {"checkpoint_path": ""}}, "checkpoint_path: empty path"),
        ({"templates_dir": ""}, "templates_dir: empty path"),
    ])
    def test_path_that_is_no_string_is_config_error(self, tmp_path, payload, text):
        path = write_yaml(tmp_path, payload)
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"{path}: {text}"

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
        assert str(caught.value) == f"{path}: {field}: {shown} is not a finite float"

    def test_whole_numbers_and_booleans_load(self, tmp_path):
        payload = {"sampling": {"top_k": 7.0}, "pipeline": {"corruption_gate": False}}
        config = load_config(write_yaml(tmp_path, payload))
        assert config.sampling.top_k == 7 and isinstance(config.sampling.top_k, int)
        assert config.pipeline.corruption_gate is False

    def test_bad_value_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="config.yaml"):
            load_config(write_yaml(tmp_path, {"sampling": {"top_k": "many"}}))
        path = write_schedule(tmp_path, yaml.safe_dump({"schedule": {"beta_large": "big"}}))
        with pytest.raises(ConfigError, match="sched.yaml: could not convert"):
            load_config(path)

    def test_malformed_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("pipeline: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="config.yaml: while parsing"):
            load_config(str(path))
        path = write_schedule(tmp_path, "schedule: {beta_small: [unclosed\n")
        with pytest.raises(ConfigError, match="sched.yaml: while parsing"):
            load_config(path)
