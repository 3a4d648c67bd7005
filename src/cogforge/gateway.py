"""Chat-completion backends: a real HTTP client and a deterministic scripted replay.

Both expose ``complete(request) -> ChatResponse`` and are safe for concurrent
calls. All response text is returned verbatim; normalization belongs to the
parsers in :mod:`cogforge.records`.

Scripted replay keys are derived as ``"<agent>:<record_id>"`` (agent names:
critic, rethinker, corruptor, verifier) and the attempt index is the position
in that key's response sequence. A request for ``n`` choices consumes ``n``
consecutive positions of its key. This derivation is a stable contract; tests
and script files depend on it.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import requests

from .jsonl import read_rows

log = logging.getLogger(__name__)

API_KEY_ENV = "COGFORGE_API_KEY"


class GatewayError(RuntimeError):
    """Base class for fatal backend failures."""


class TransportError(GatewayError):
    """Network-level failure that survived the retry budget."""


class ProviderError(GatewayError):
    """The provider answered, but with a non-2xx status or malformed payload."""


class ConfigError(GatewayError):
    """Invalid or incomplete configuration (unmapped role, bad schedule, ...)."""


class ScriptExhausted(GatewayError):
    """A scripted response sequence ran out of entries."""


class UnknownKey(GatewayError):
    """The scripted backend was asked for a key it does not hold."""


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
class ChatRequest:
    """One completion request for ``n`` independent choices of one prompt.
    ``key`` is the scripted-replay key; the HTTP backend ignores it."""

    model_role: ModelRole
    system: str
    user: str
    sampling: SamplingParams = SamplingParams()
    key: str | None = None
    n: int = 1

    def __post_init__(self) -> None:
        if not self.system or not self.user:
            raise ValueError("system and user messages must be non-empty")
        if self.n < 1:
            raise ValueError("n must be a positive integer")


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class ChatResponse:
    """The returned choices, in order (at least one and at most the request's
    ``n``), and the usage of the whole request."""

    choices: tuple[str, ...]
    usage: TokenUsage = TokenUsage()

    @property
    def text(self) -> str:
        return self.choices[0]


class CompletionBackend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


@dataclass(frozen=True)
class Endpoint:
    url: str
    model: str


class HTTPBackend:
    """OpenAI-compatible chat-completions client with bounded retry.

    Transient failures (connection errors, timeouts, HTTP 429/5xx) are retried
    with exponential backoff up to ``max_retries`` total attempts; anything
    else from the provider is a ProviderError immediately.
    """

    def __init__(
        self,
        endpoints: dict[ModelRole, Endpoint],
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        session: requests.Session | None = None,
        sleep=time.sleep,
    ) -> None:
        if max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        self._endpoints = dict(endpoints)
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._session = session if session is not None else requests.Session()
        self._sleep = sleep

    def complete(self, request: ChatRequest) -> ChatResponse:
        endpoint = self._endpoints.get(request.model_role)
        if endpoint is None:
            raise ConfigError(f"no endpoint configured for role {request.model_role.value!r}")
        body = {
            "model": endpoint.model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": request.sampling.temperature,
            "top_p": request.sampling.top_p,
            "top_k": request.sampling.top_k,
            "max_tokens": request.sampling.max_tokens,
        }
        if request.n != 1:
            body["n"] = request.n
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_failure = ""
        for attempt in range(self._max_retries):
            if attempt:
                self._sleep(self._backoff_base * 2 ** (attempt - 1))
            try:
                response = self._session.post(
                    endpoint.url, json=body, headers=headers, timeout=self._timeout
                )
            except requests.RequestException as exc:
                last_failure = f"transport failure: {exc}"
                log.warning("completion attempt %d failed: %s", attempt + 1, exc)
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_failure = f"HTTP {response.status_code}: {response.text[:500]}"
                log.warning("completion attempt %d failed: %s", attempt + 1, last_failure)
                continue
            if response.status_code < 200 or response.status_code >= 300:
                raise ProviderError(f"HTTP {response.status_code}: {response.text[:500]}")
            return self._parse(response, request.n)
        if last_failure.startswith("HTTP"):
            raise ProviderError(f"retries exhausted: {last_failure}")
        raise TransportError(f"retries exhausted: {last_failure}")

    def _parse(self, response: requests.Response, n: int) -> ChatResponse:
        # Fewer choices than requested (a provider that ignores ``n``) are
        # accepted; callers ask again for the rest.
        try:
            payload = response.json()
            choices = payload["choices"]
            if not isinstance(choices, list):
                raise TypeError(f"choices is a {type(choices).__name__}, not a list")
            if not 1 <= len(choices) <= n:
                raise ValueError(f"{len(choices)} choices for n={n}")
            texts = []
            for choice in choices:
                text = choice["message"]["content"]
                if text is not None and not isinstance(text, str):
                    raise TypeError(f"content is a {type(text).__name__}, not a string")
                texts.append(text or "")
            usage = {} if payload.get("usage") is None else payload["usage"]
            tokens = TokenUsage(
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        return ChatResponse(choices=tuple(texts), usage=tokens)


class ScriptedBackend:
    """Replays canned responses keyed by ``"<agent>:<record_id>"``.

    Each call on a key consumes the next ``n`` entries of its sequence, so the
    attempt index is positional; a call for more entries than remain raises
    ScriptExhausted and consumes none. Fully deterministic: identical script
    plus identical call sequence yields identical responses. A key the script
    does not hold raises UnknownKey. Usage counts words, the prompt once per
    call.
    """

    def __init__(self, script: dict[str, list[str]]) -> None:
        self._script = {key: list(responses) for key, responses in script.items()}
        self._cursors: dict[str, int] = {}
        self._lock = threading.Lock()
        self.history: list[str] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        key = request.key
        if key is None:
            raise UnknownKey("request carries no script key")
        with self._lock:
            self.history.append(key)
            if key not in self._script:
                raise UnknownKey(f"no script entry for key {key!r}")
            responses = self._script[key]
            position = self._cursors.get(key, 0)
            if position + request.n > len(responses):
                raise ScriptExhausted(
                    f"script for key {key!r} exhausted: {request.n} requested, "
                    f"{len(responses) - position} of {len(responses)} responses left"
                )
            self._cursors[key] = position + request.n
            texts = tuple(responses[position:position + request.n])
        prompt_tokens = len(request.system.split()) + len(request.user.split())
        completion_tokens = sum(len(text.split()) for text in texts)
        return ChatResponse(
            choices=texts,
            usage=TokenUsage(prompt_tokens=prompt_tokens, completion_tokens=completion_tokens),
        )


def load_script(path: str) -> dict[str, list[str]]:
    """Read a scripted-backend file: JSON Lines of {"key", "responses"}."""
    script: dict[str, list[str]] = {}
    for number, row in enumerate(read_rows(path), start=1):
        if "key" not in row or "responses" not in row:
            raise ValueError(f"{path}: row {number}: expected fields 'key' and 'responses'")
        key = row["key"]
        if key in script:
            raise ValueError(f"{path}: row {number}: duplicate script key {key!r}")
        script[key] = [str(text) for text in row["responses"]]
    return script
