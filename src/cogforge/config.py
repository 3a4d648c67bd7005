"""Application configuration: one YAML file, validated on load.

Secrets never live in the file; the API key comes from the environment
(see :data:`cogforge.gateway.API_KEY_ENV`). Command-line flags override file
values; the file overrides built-in defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from urllib.parse import urlparse

import yaml

from .gateway import ConfigError, Endpoint, ModelRole, SamplingParams
from .pipeline import PipelineConfig
from .records import BetaSchedule


@dataclass
class AppConfig:
    endpoints: dict[ModelRole, Endpoint] = field(default_factory=dict)
    sampling: SamplingParams = SamplingParams()
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    schedule: BetaSchedule = BetaSchedule()
    templates_dir: str | None = None

    def validate(self) -> list[str]:
        violations = []
        violations.extend(self.sampling.validate())
        violations.extend(self.pipeline.validate())
        violations.extend(self.schedule.validate())
        for role, endpoint in self.endpoints.items():
            parsed = urlparse(endpoint.url)
            if parsed.scheme not in ("http", "https") or not parsed.netloc:
                violations.append(f"endpoints.{role.value}.url: not a valid http(s) URL")
            if not endpoint.model:
                violations.append(f"endpoints.{role.value}.model: empty")
        return violations


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def _build(cls, raw: dict):
    """``cls()`` with each of its fields that ``raw`` names overridden.

    A value is cast to the type of the field's default (a None default takes
    the value as is); keys that name no field are ignored.
    """
    default = cls()
    overrides = {}
    for spec in fields(cls):
        if spec.name in raw:
            value, base = raw[spec.name], getattr(default, spec.name)
            overrides[spec.name] = value if base is None else type(base)(value)
    return replace(default, **overrides)


def _read_mapping(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        raw = yaml.safe_load(handle)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def load_config(path: str | None) -> AppConfig:
    """Build an AppConfig from a YAML file (or pure defaults when path is None)."""
    try:
        config = AppConfig() if path is None else _from_raw(_read_mapping(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    violations = config.validate()
    if violations:
        raise ConfigError("; ".join(violations))
    return config


def _from_raw(raw: dict) -> AppConfig:
    endpoints = {}
    for role_name, entry in _section(raw, "endpoints").items():
        endpoints[ModelRole(role_name)] = Endpoint(url=str(entry["url"]), model=str(entry["model"]))
    return AppConfig(
        endpoints=endpoints,
        sampling=_build(SamplingParams, _section(raw, "sampling")),
        pipeline=_build(PipelineConfig, _section(raw, "pipeline")),
        schedule=_build(BetaSchedule, _section(raw, "schedule")),
        templates_dir=raw.get("templates_dir"),
    )


def load_schedule(path: str) -> BetaSchedule:
    """Read a beta schedule from a YAML file holding just the schedule keys."""
    try:
        schedule = _build(BetaSchedule, _read_mapping(path))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    violations = schedule.validate()
    if violations:
        raise ConfigError(f"{path}: {'; '.join(violations)}")
    return schedule
