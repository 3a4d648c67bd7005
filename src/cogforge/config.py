"""Application configuration: one YAML file, validated on load.

Secrets never live in the file; the API key comes from the environment
(see :data:`cogforge.gateway.API_KEY_ENV`). Command-line flags override file
values; the file overrides built-in defaults.

The types a config holds for the backends (``ModelRole``, ``SamplingParams``,
``Endpoint``) and ``ConfigError`` with its base ``GatewayError`` are defined
here and re-exported by :mod:`cogforge.gateway`, so reading a config loads
no HTTP client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from urllib.parse import urlparse

from .records import BetaSchedule


class GatewayError(RuntimeError):
    """Base class for fatal backend failures."""


class ConfigError(GatewayError):
    """Invalid or incomplete configuration (unmapped role, bad schedule, ...)."""


class ModelRole(str, Enum):
    """Which configured endpoint serves the request: the small target model
    or the large agent model."""

    BASE = "base"
    LARGE = "large"


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.7
    top_p: float = 0.9
    top_k: int = 50
    max_tokens: int = 1024

    def validate(self) -> list[str]:
        violations = []
        if self.temperature < 0:
            violations.append("temperature: must be >= 0")
        if not 0 < self.top_p <= 1:
            violations.append("top_p: must be in (0, 1]")
        if self.top_k < 1:
            violations.append("top_k: must be a positive integer")
        if self.max_tokens < 1:
            violations.append("max_tokens: must be a positive integer")
        return violations


@dataclass(frozen=True)
class Endpoint:
    url: str
    model: str


@dataclass
class PipelineConfig:
    """The curation settings, each applied by ``run_crv``: the critic's votes,
    the verifier role and the corruption gate through ``Agents.for_record``."""

    retry_cap: int = 3
    votes: int = 3
    max_concurrency: int = 4
    verifier_role: ModelRole = ModelRole.LARGE
    corruption_gate: bool = False
    checkpoint_path: str | None = None

    def validate(self) -> list[str]:
        violations = []
        if self.retry_cap < 1:
            violations.append("retry_cap: must be >= 1")
        if self.votes < 1 or self.votes % 2 == 0:
            violations.append("votes: must be a positive odd integer")
        if self.max_concurrency < 1:
            violations.append("max_concurrency: must be >= 1")
        return violations


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


def _cast(name: str, value, base):
    """``value`` cast to the type of the default ``base``. A None default is a
    path, which takes a non-empty string or null as it is. A bool field takes
    only a YAML boolean, no other field takes one, an int field takes only a
    whole number and a float field only a finite one."""
    if base is None:
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{name}: {value!r} is not a valid str")
        if value == "":
            raise ValueError(f"{name}: empty path")
        return value
    fractional = isinstance(value, float) and not value.is_integer()
    if isinstance(base, bool) != isinstance(value, bool) or (type(base) is int and fractional):
        raise ValueError(f"{name}: {value!r} is not a valid {type(base).__name__}")
    cast = type(base)(value)
    if type(base) is float and not math.isfinite(cast):
        raise ValueError(f"{name}: {value!r} is not a finite float")
    return cast


def _build(cls, raw: dict):
    """``cls()`` with each of its fields that ``raw`` names overridden by the
    cast value; keys that name no field are ignored."""
    default = cls()
    overrides = {
        spec.name: _cast(spec.name, raw[spec.name], getattr(default, spec.name))
        for spec in fields(cls) if spec.name in raw
    }
    return replace(default, **overrides)


def _read_mapping(path: str) -> dict:
    # Imported here: runs without a config file never parse YAML.
    import yaml

    with open(path, encoding="utf-8") as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
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
        raise ConfigError(f"{path}: {'; '.join(violations)}")
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
        templates_dir=_cast("templates_dir", raw.get("templates_dir"), None),
    )
