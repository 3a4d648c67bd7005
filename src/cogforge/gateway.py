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

import functools
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol
from urllib.parse import SplitResult, unquote, urlsplit

# The configuration types live in config, so that reading a config loads no
# HTTP client; they are re-exported here.
from .config import ConfigError, Endpoint, GatewayError, ModelRole, SamplingParams
from .jsonl import STRING, STRINGS, _fault, read_rows

if TYPE_CHECKING:
    import http.client

    _Route = tuple[http.client.HTTPConnection, bool, dict[str, str]]

log = logging.getLogger(__name__)

API_KEY_ENV = "COGFORGE_API_KEY"

# Statuses another attempt may cure: timeout, too early, rate limit, transient 5xx.
RETRYABLE_STATUSES = frozenset({408, 425, 429, 500, 502, 503, 504})

# Attempts per request, and the seconds each connect or read may wait.
ATTEMPTS = 3
TIMEOUT_S = 120.0

# Seconds slept before retry k (k = 1, 2, ...): BACKOFF_BASE * 2 ** (k - 1), so 0.5 then 1.
BACKOFF_BASE = 0.5


class TransportError(GatewayError):
    """Network-level failure that survived the retry budget."""


class ProviderError(GatewayError):
    """The provider answered, but with a non-2xx status or malformed payload."""


class ScriptExhausted(GatewayError):
    """A scripted response sequence ran out of entries."""


class UnknownKey(GatewayError):
    """The scripted backend was asked for a key it does not hold."""


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
    prompt_tokens: int
    completion_tokens: int

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class ChatResponse:
    """The returned choices, in order (at least one and at most the request's
    ``n``), and the usage of the whole request."""

    choices: tuple[str, ...]
    usage: TokenUsage

    @property
    def text(self) -> str:
        return self.choices[0]


class CompletionBackend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


class HTTPBackend:
    """OpenAI-compatible chat-completions client with bounded retry, on the
    standard library's ``http.client``.

    Each worker thread keeps one persistent HTTP/1.1 connection per endpoint
    origin. An idle connection the server has closed is dropped before it is
    reused; a request that may have reached the server is never re-sent
    except as the next attempt of the retry loop. Proxies come from
    ``http_proxy``, ``https_proxy`` and ``no_proxy``: an https endpoint is
    reached through a CONNECT tunnel, an http one by sending the proxy the
    absolute URL. TLS is verified against the system trust store.

    A request makes up to ATTEMPTS attempts, each waiting up to TIMEOUT_S
    seconds to connect and for each read. Transport failures and the
    RETRYABLE_STATUSES lead to another attempt after an exponential backoff,
    slept through ``sleep``; any other status, 501 and 505 included, is a
    ProviderError on the first response. ``close()`` (or leaving a ``with``
    block) closes every connection the backend opened.
    """

    def __init__(self, endpoints: dict[ModelRole, Endpoint], sleep=time.sleep) -> None:
        self._endpoints = {role: (endpoint, urlsplit(endpoint.url))
                           for role, endpoint in endpoints.items()}
        self._sleep = sleep
        self._local = threading.local()  # .routes: origin -> this thread's route
        self._lock = threading.Lock()  # guards _opened
        self._opened: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        with self._lock:
            opened = list(self._opened)
        for connection in opened:
            connection.close()

    def __enter__(self) -> HTTPBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def complete(self, request: ChatRequest) -> ChatResponse:
        from http.client import HTTPException

        entry = self._endpoints.get(request.model_role)
        if entry is None:
            raise ConfigError(f"no endpoint configured for role {request.model_role.value!r}")
        endpoint, url = entry
        body = {
            "model": endpoint.model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            **vars(request.sampling),
        }
        if request.n != 1:
            body["n"] = request.n
        payload = json.dumps(body).encode()
        connection, absolute, proxy_headers = self._route(url)
        headers = {"Content-Type": "application/json", **proxy_headers}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        target = endpoint.url if absolute else (
            (url.path or "/") + ("?" + url.query if url.query else ""))

        kind, last_failure = TransportError, ""
        for attempt in range(ATTEMPTS):
            if attempt:
                self._sleep(BACKOFF_BASE * 2 ** (attempt - 1))
            if connection.sock is not None and _closed_by_peer(connection.sock):
                connection.close()  # the next request opens a new socket
            try:
                connection.request("POST", target, payload, headers)
                response = connection.getresponse()
                data = response.read()
            except (OSError, HTTPException) as exc:
                connection.close()
                kind, last_failure = TransportError, f"transport failure: {exc}"
                log.warning("completion attempt %d failed: %s", attempt + 1, exc)
                continue
            if not 200 <= response.status < 300:
                kind, last_failure = ProviderError, (
                    f"HTTP {response.status}: {data.decode('utf-8', 'replace')[:500]}")
                if response.status not in RETRYABLE_STATUSES:
                    raise ProviderError(last_failure)
                log.warning("completion attempt %d failed: %s", attempt + 1, last_failure)
                continue
            return self._parse(data, request.n)
        raise kind(f"retries exhausted: {last_failure}")

    def _route(self, url: SplitResult) -> _Route:
        """This thread's route to the URL's origin, opened on first use."""
        routes = self._local.__dict__.setdefault("routes", {})
        origin = (url.scheme, url.netloc)
        route = routes.get(origin)
        if route is None:
            route = routes[origin] = self._open(url)
            with self._lock:
                self._opened.append(route[0])
        return route

    def _open(self, url: SplitResult) -> _Route:
        """A connection to the URL's origin, or to the proxy the environment
        names for it, whether the request must name the absolute URL (a
        forward proxy's), and the headers the proxy needs. No socket is
        opened until the first request."""
        import http.client
        import ssl
        import urllib.request

        https = url.scheme == "https"
        port = url.port or (443 if https else 80)
        proxy = None if urllib.request.proxy_bypass(url.hostname) else (
            urllib.request.getproxies().get(url.scheme))
        address, headers = (url.hostname, port), {}
        if proxy:
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http":
                raise ConfigError(
                    f"unsupported {proxy_url.scheme!r} proxy for {url.scheme} endpoints")
            address = (proxy_url.hostname, proxy_url.port or 80)
            if proxy_url.username is not None:
                import base64

                credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(credentials.encode()).decode("ascii"))
        if not https:
            connection = http.client.HTTPConnection(*address, timeout=TIMEOUT_S)
            return connection, bool(proxy), headers
        connection = http.client.HTTPSConnection(
            *address, timeout=TIMEOUT_S, context=ssl.create_default_context())
        if proxy:
            connection.set_tunnel(url.hostname, port, headers=headers)
        return connection, False, {}

    def _parse(self, data: bytes, n: int) -> ChatResponse:
        # Fewer choices than requested (a provider that ignores ``n``) are
        # accepted; callers ask again for the rest.
        try:
            payload = json.loads(data)
        except (ValueError, RecursionError) as exc:  # worded as a file's line is
            raise ProviderError(f"malformed provider response: {_fault(exc)}") from exc
        try:
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
                if text and not STRING.accepts(text):  # a lone surrogate no output could write
                    raise ValueError(f"content holds a lone surrogate: {text!r}")
                texts.append(text or "")
            usage = {} if payload.get("usage") is None else payload["usage"]
            tokens = TokenUsage(
                prompt_tokens=_count(usage, "prompt_tokens"),
                completion_tokens=_count(usage, "completion_tokens"),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        return ChatResponse(choices=tuple(texts), usage=tokens)


def _count(usage: dict, key: str) -> int:
    """A usage count: a non-negative JSON integer, or 0 when absent. A bool,
    a float or a numeric string is refused, not rounded into the totals."""
    count = usage.get(key, 0)
    if type(count) is not int or count < 0:
        raise ValueError(f"usage {key} is {count!r}, not a non-negative integer")
    return count


def _closed_by_peer(sock) -> bool:
    """An idle keep-alive socket with something to read has been closed by
    the server (or holds bytes no request asked for): it cannot carry the
    next request."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


@functools.lru_cache(maxsize=64)
def _word_count(text: str) -> int:
    """Words as ``str.split()`` sees them. One trace goes to the critic, the
    verifier, their re-samples and the corruptor in turn, so a memo of the
    last few dozen texts catches most repeats and never grows past them."""
    return len(text.split())


class ScriptedBackend:
    """Replays canned responses keyed by ``"<agent>:<record_id>"``.

    Each call on a key consumes the next ``n`` entries of its sequence, so the
    attempt index is positional; a call for more entries than remain raises
    ScriptExhausted and consumes none. Fully deterministic: identical script
    plus identical call sequence yields identical responses. A key the script
    does not hold raises UnknownKey. Usage counts words as ``str.split()``
    sees them: the system and user prompt once per request, and every
    returned choice. Recent texts are counted once, through a bounded memo
    shared by all instances.
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
        return ChatResponse(choices=texts, usage=TokenUsage(
            prompt_tokens=_word_count(request.system) + _word_count(request.user),
            completion_tokens=sum(map(_word_count, texts)),
        ))


SCRIPT_SCHEMA = {"key": STRING, "responses": STRINGS}


def load_script(path: str) -> dict[str, list[str]]:
    """Read a scripted-backend file: JSON Lines of {"key": str, "responses": [str, ...]}."""
    return {row["key"]: row["responses"] for row in read_rows(path, SCRIPT_SCHEMA, key="key")}
