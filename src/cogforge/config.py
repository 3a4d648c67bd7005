"""Application configuration: one YAML file, checked against schemas on load.

Secrets never live in the file; the API key comes from the environment
(see :data:`cogforge.gateway.API_KEY_ENV`). Command-line flags override file
values; the file overrides built-in defaults.

The types a config holds for the backends (``ModelRole``, ``SamplingParams``,
``Endpoint``) and ``ConfigError`` with its base ``GatewayError`` are defined
here and re-exported by :mod:`cogforge.gateway`, so reading a config loads
no HTTP client.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from urllib.parse import urlparse

from .jsonl import BOOLEAN, NON_EMPTY_STRING, Kind, _encodable, refusal, undecodable
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


@dataclass
class AppConfig:
    endpoints: dict[ModelRole, Endpoint] = field(default_factory=dict)
    sampling: SamplingParams = SamplingParams()
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    schedule: BetaSchedule = BetaSchedule()
    templates_dir: str | None = None


def _number(to: type, test: Callable[[float], bool], words: str) -> Kind:
    """The kind of a value that ``to``, int or float, casts to a number that
    passes ``test``: never a boolean, a fractional float for an int, or a
    non-finite float. A string is read as ``to`` reads it: ``"7"`` is 7."""
    def accepts(value) -> bool:
        if type(value) is bool or to is int and type(value) is float and not value.is_integer():
            return False  # int() would truncate 2.7
        try:
            cast = to(value)
        except (TypeError, ValueError, OverflowError):
            return False
        return (to is int or math.isfinite(cast)) and test(cast)

    return Kind(accepts, words)


_ROLES = tuple(role.value for role in ModelRole)
# isinstance: a library-built config holds a ModelRole, which is a str.
ROLE = Kind(lambda value: isinstance(value, str) and value in _ROLES, "'base' or 'large'")
WHOLE = _number(int, lambda n: n >= 1, "a whole number >= 1")
# A path from argv may hold bytes that ``surrogateescape`` decoded, which
# os.fsencode takes back, but no other lone surrogate.
PATH = Kind(lambda value: value is None or type(value) is str and value != "" and (
    value.isascii() or _encodable(value, os.fsencode)), "a non-empty string or null")

# One kind per field, which accepts exactly the values that cast to the type
# of the field's default and meet its rule. A null section keeps its defaults.
SECTION_SCHEMAS = {
    "sampling": {"temperature": _number(float, lambda x: x >= 0, "a finite number >= 0"),
                 "top_p": _number(float, lambda x: 0 < x <= 1, "a finite number in (0, 1]"),
                 "top_k": WHOLE, "max_tokens": WHOLE},
    "pipeline": {"retry_cap": WHOLE, "max_concurrency": WHOLE, "verifier_role": ROLE,
                 "votes": _number(int, lambda n: n > 0 and n % 2 == 1, "an odd whole number >= 1"),
                 "corruption_gate": BOOLEAN,
                 "checkpoint_path": PATH},
    "schedule": {"beta_small": _number(float, lambda x: x > 0, "a finite number > 0"),
                 **dict.fromkeys(("beta_medium", "beta_large"),
                                 _number(float, lambda x: True, "a finite number"))},
}
ENDPOINTS_SCHEMA = dict.fromkeys(_ROLES, Kind(lambda value: type(value) is dict, "a mapping"))
ENDPOINT_SCHEMA = {"url": Kind(lambda value: type(value) is str and (url := urlparse(value)).scheme
                               in ("http", "https") and url.netloc != "", "an http(s) URL"),
                   "model": NON_EMPTY_STRING}
SECTION = Kind(lambda value: value is None or type(value) is dict, "a mapping or null")
CONFIG_SCHEMA = {"templates_dir": PATH, **dict.fromkeys(("endpoints", *SECTION_SCHEMAS), SECTION)}


def refusals(values: Mapping, schema: Mapping[str, Kind], where: str) -> list[str]:
    """A line after ``where`` per key of ``values`` that ``schema`` does not
    name, with the closest field's name if there is one, and per value its
    field's kind refuses, in ``jsonl.refusal``'s words."""
    found = []
    for key, value in values.items():
        kind = schema.get(key)
        if kind is None:
            import difflib  # only a refused key pays for this import

            close = difflib.get_close_matches(str(key), schema, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            found.append(f"{where}unknown key {key!r}{hint}")
        elif not kind.accepts(value):
            found.append(where + refusal(values, {key: kind}))
    return found


def build(default, raw: Mapping, schema: Mapping[str, Kind], where: str,
          problems: list[str] | None = None):
    """``default`` with each field ``raw`` names set to its value, cast to the
    type of the default's (a None default's path is kept). A refusal is added
    to ``problems`` (the result is None) or, without them, raised as one
    ConfigError joined with ``; ``."""
    if found := refusals(raw, schema, where):
        if problems is None:
            raise ConfigError("; ".join(found))
        problems += found
        return None
    return replace(default, **{
        name: value if (base := getattr(default, name)) is None else type(base)(value)
        for name, value in raw.items()})


@functools.cache
def _unique_key_loader():
    """A yaml.SafeLoader that refuses a key repeated in one mapping, at any
    depth, where pyyaml would keep the later value; keys a ``<<`` merge
    brings in may still be overridden. Defined on first use, after the
    import, so runs without a config file never import yaml."""
    import yaml

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = []  # compared by ==: pyyaml refuses an unhashable key itself
            for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=deep)
                if key in seen:  # self.name is the path the file was opened by
                    raise ConfigError(f"{self.name}:{key_node.start_mark.line + 1}: "
                                      f"duplicate key {key!r}")
                seen.append(key)
            return super().construct_mapping(node, deep)

    return Loader


def load_config(path: str | None) -> AppConfig:
    """Build an AppConfig from a YAML file (or pure defaults when path is None).
    Every unknown key and refused value of the file is named in one
    ConfigError, joined with ``; ``."""
    if path is None:
        return AppConfig()
    import yaml  # here: runs without a config file never parse YAML

    with open(path, encoding="utf-8") as handle:
        try:
            raw = yaml.load(handle, Loader=_unique_key_loader())
        except yaml.YAMLError as exc:  # one line; pyyaml's text puts each mark on its own
            mark = getattr(exc, "problem_mark", None)
            if mark is None:
                raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
            words = ", ".join(filter(None, (exc.context, exc.problem)))
            raise ConfigError(f"{path}:{mark.line + 1}:{mark.column + 1}: {words}") from exc
        except UnicodeDecodeError:
            raise ConfigError(undecodable(path)) from None
        except RecursionError:  # pyyaml composes each nested node by recursion
            raise ConfigError(f"{path}: mappings or sequences nested too deeply") from None
        except (TypeError, ValueError) as exc:  # a constructor's, e.g. a 13th month's date
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict | None):
        raise ConfigError(f"{path}: top level must be a mapping")
    raw = raw or {}
    problems = refusals(raw, CONFIG_SCHEMA, "")
    # A null or refused section reads as empty; a refusal is in problems.
    sections = {name: value for name, value in raw.items() if type(value) is dict}
    entries = sections.get("endpoints", {})
    problems += refusals(entries, ENDPOINTS_SCHEMA, "endpoints: ")
    endpoints = {
        # A missing url or model reads as null, which neither kind accepts.
        ModelRole(role): build(Endpoint(None, None), {**dict.fromkeys(ENDPOINT_SCHEMA), **entry},
                               ENDPOINT_SCHEMA, f"endpoints.{role}: ", problems)
        for role, entry in entries.items() if role in _ROLES and type(entry) is dict}
    defaults = AppConfig()
    built = {name: build(getattr(defaults, name), sections.get(name, {}), schema, f"{name}: ",
                         problems) for name, schema in SECTION_SCHEMAS.items()}
    # The one rule no field states alone; tests may build degenerate schedules.
    if (beta := built["schedule"]) and not beta.beta_small < beta.beta_medium < beta.beta_large:
        problems.append("schedule: beta ordering: requires beta_small < beta_medium < beta_large")
    if problems:
        raise ConfigError(f"{path}: {'; '.join(problems)}")
    return AppConfig(endpoints, **built, templates_dir=raw.get("templates_dir"))
