"""The three curation agents as prompt-render, complete, parse operations.

Agent names double as scripted-backend key prefixes: ``critic``, ``rethinker``,
``corruptor``, ``verifier``. The corruptor's optional incorrectness gate
(``PipelineConfig.corruption_gate``) calls the verifier and therefore consumes
``verifier:<id>`` script positions after the acceptance path's.
"""

from __future__ import annotations

import json
import logging
import string
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

from .config import PipelineConfig
from .gateway import ChatRequest, ChatResponse, CompletionBackend, ModelRole, SamplingParams
from .jsonl import undecodable
from .records import ComplexityLevel, CoTRecord, ParseError, parse_complexity, parse_verdict

log = logging.getLogger(__name__)

TEMPLATE_NAMES = ("critic", "rethinker_easy", "rethinker_hard", "rethinker_incorrect", "verifier")

# The levels in the order the critic's votes are counted, and the rethinker
# template for each rating that is rewritten.
_LEVELS = tuple(ComplexityLevel)
_RETHINKER_TEMPLATES = {
    ComplexityLevel.EASY: "rethinker_easy", ComplexityLevel.HARD: "rethinker_hard",
}
# Every agent but the verifier asks the large model; a global load is cheaper
# than the enum class's attribute lookup on each request.
_LARGE = ModelRole.LARGE

# Slot order and separators are fixed; the template files carry only the
# system text.
USER_LAYOUT = "Problem:\n{problem}\n\nAnswer:\n{answer}\n\nReasoning Process:\n{reasoning}"

# USER_LAYOUT's literal pieces, taken once: render joins them with its
# arguments into the bytes USER_LAYOUT.format writes, without parsing the
# layout again. The unpacking holds the layout to three fields and no text
# after the last; its slot order is render's (tests compare the two).
_BEFORE_PROBLEM, _BEFORE_ANSWER, _BEFORE_REASONING = (
    literal for literal, _field, _spec, _conversion in string.Formatter().parse(USER_LAYOUT))

# Canonical inputs behind the golden prompt fixtures; changing them breaks
# byte-equality with the files under golden/.
GOLDEN_INPUTS = {
    "problem": "Find the inverse of matrix A = [[2, 1], [1, 2]]",
    "answer": "A^{-1} = (1/3) * [[2, -1], [-1, 2]]",
    "reasoning": "Calculate determinant det(A) = 3, thus A^{-1} = (1/3) * [[2, -1], [-1, 2]]",
}


class AgentError(RuntimeError):
    """An agent failed on one record; the record is discarded, the batch lives."""


class CorruptionNotIncorrect(AgentError):
    """With the incorrectness gate on, every corruption candidate still verified YES."""


@dataclass(frozen=True)
class PromptTemplate:
    system_text: str

    def render(self, problem: str, answer: str, reasoning: str) -> tuple[str, str]:
        """Returns (system, user); byte-deterministic for fixed inputs."""
        return self.system_text, (f"{_BEFORE_PROBLEM}{problem}{_BEFORE_ANSWER}{answer}"
                                  f"{_BEFORE_REASONING}{reasoning}")


def _read_system_text(raw: str) -> str:
    # Template files end with one conventional trailing newline that is not
    # part of the prompt.
    return raw[:-1] if raw.endswith("\n") else raw


def load_golden_fixture(name: str) -> dict:
    """Load one packaged golden prompt fixture: {"name", "system", "user"}."""
    raw = resources.files("cogforge").joinpath("golden", f"{name}.json").read_text(encoding="utf-8")
    return json.loads(raw)


def load_templates(directory: str | None = None) -> dict[str, PromptTemplate]:
    """Load the five prompt templates from the packaged data files, or from
    ``directory`` when overridden. A file with no system text is refused."""
    templates = {}
    for name in TEMPLATE_NAMES:
        path = (resources.files("cogforge").joinpath("templates", f"{name}.txt")
                if directory is None else Path(directory, f"{name}.txt"))
        try:
            raw = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ValueError(undecodable(path)) from None
        if not (system_text := _read_system_text(raw)):
            raise ValueError(f"{path}: empty template")
        templates[name] = PromptTemplate(system_text)
    return templates


class Agents:
    """The agent operations on one backend, run for one record at a time.

    ``for_record(record, config)`` returns a copy bound to that record: its
    operations render prompts from the record's problem and answer, key script
    positions by its id, ask the critic for ``config.votes`` votes, send
    verification to ``config.verifier_role``, gate corruption on
    ``config.corruption_gate``, and count their completions (returned choices)
    and tokens (the backend's usage per request) per agent in the copy's own
    ``completions`` and ``tokens``. The backend and templates are shared, so
    bound copies may run concurrently; each copy belongs to one record's walk.
    The record and config come checked: ``run_crv`` builds the config as
    ``load_config`` does and refuses a record before any record is bound.
    """

    def __init__(
        self,
        backend: CompletionBackend,
        templates: dict[str, PromptTemplate] | None = None,
        sampling: SamplingParams = SamplingParams(),
    ) -> None:
        self._backend = backend
        self._templates = templates if templates is not None else load_templates()
        missing = [name for name in TEMPLATE_NAMES if name not in self._templates]
        if missing:
            raise ValueError(f"missing templates: {missing}")
        self._sampling = sampling
        self._record: CoTRecord | None = None

    def for_record(self, record: CoTRecord, config: PipelineConfig) -> Agents:
        bound = object.__new__(type(self))
        bound.__dict__ = {**self.__dict__, "_record": record, "_config": config,
                          "completions": {}, "tokens": {}}
        return bound

    def settings(self) -> dict:
        """What shapes a response besides the record and the backend: each
        template's system text and the sampling parameters."""
        return {
            "templates": {name: self._templates[name].system_text for name in TEMPLATE_NAMES},
            "sampling": asdict(self._sampling),
        }

    def _bound_record(self) -> CoTRecord:
        if self._record is None:
            raise RuntimeError("agent operations need a record: use for_record(record, config)")
        return self._record

    def _call(self, agent: str, template: str, reasoning: str, n: int = 1) -> ChatResponse:
        record = self._bound_record()
        role = self._config.verifier_role if agent == "verifier" else _LARGE
        system, user = self._templates[template].render(record.problem, record.answer, reasoning)
        # Positional: a dataclass's __init__ binds positions faster than keywords.
        request = ChatRequest(role, system, user, self._sampling, f"{agent}:{record.id}", n)
        response = self._backend.complete(request)
        self.completions[agent] = self.completions.get(agent, 0) + len(response.choices)
        self.tokens[agent] = self.tokens.get(agent, 0) + response.usage.total
        return response

    def critique(self, reasoning: str) -> tuple[ComplexityLevel, list[ComplexityLevel | None]]:
        """Rate a trace by majority over the config's ``votes`` independent
        completions.

        Each unparseable completion gets one re-sample, then counts as an
        abstention (None in the vote list). A label wins only with a strict
        majority of all requested votes; otherwise the rating is medium.

        The votes still missing are asked for in one request (``n`` choices),
        re-samples included, so a round costs one request when every label
        parses. The choices are read in order, one completion per vote and
        its re-sample, so a scripted key is consumed exactly as by one
        request per completion.
        """
        record = self._bound_record()
        votes = self._config.votes
        cast: list[ComplexityLevel | None] = []
        resampling = False
        while len(cast) < votes:
            # Each missing vote needs at least one more completion, so this
            # never asks for more than the votes consume.
            response = self._call("critic", "critic", reasoning, n=votes - len(cast))
            for text in response.choices:
                try:
                    vote = parse_complexity(text)
                except ParseError:
                    log.debug("record %s: unparseable critic vote %r", record.id, text)
                    if not resampling:
                        resampling = True
                        continue
                    vote = None
                resampling = False
                cast.append(vote)
        abstentions = cast.count(None)
        if abstentions * 2 > votes:
            raise AgentError(
                f"record {record.id}: {abstentions} of {votes} critic votes abstained"
            )
        for level in _LEVELS:
            if cast.count(level) * 2 > votes:
                return level, cast
        return ComplexityLevel.MEDIUM, cast

    def rethink(self, reasoning: str, level: ComplexityLevel) -> str:
        """Rewrite a trace to suit its rating: an easy one is expanded
        (``rethinker_easy``), a hard one simplified (``rethinker_hard``).
        Never returns it unchanged; a medium trace is never rewritten."""
        if level == ComplexityLevel.MEDIUM:
            raise ValueError("medium-rated traces are never rewritten")
        return self._rewrite("rethinker", _RETHINKER_TEMPLATES[level], reasoning)

    def corrupt(self, reasoning: str) -> str:
        """Produce a deliberately incorrect variant of a correct trace."""
        candidate = self._rewrite("corruptor", "rethinker_incorrect", reasoning)
        if self._config.corruption_gate:
            if self.verify(candidate):
                candidate = self._rewrite("corruptor", "rethinker_incorrect", reasoning)
                if self.verify(candidate):
                    raise CorruptionNotIncorrect(
                        f"record {self._record.id}: corrupted trace still verifies as correct"
                    )
        return candidate

    def _rewrite(self, agent: str, template: str, reasoning: str) -> str:
        # One re-sample on degenerate output (empty or byte-identical input).
        for _attempt in range(2):
            response = self._call(agent, template, reasoning)
            if response.text and response.text != reasoning:
                return response.text
        raise AgentError(
            f"record {self._record.id}: {agent} returned empty or unchanged output twice"
        )

    def verify(self, reasoning: str) -> bool:
        """YES/NO check that the trace guides to the record's answer."""
        for _attempt in range(2):
            response = self._call("verifier", "verifier", reasoning)
            try:
                return parse_verdict(response.text)
            except ParseError:
                log.debug("record %s: unparseable verdict %r", self._record.id, response.text)
        raise AgentError(f"record {self._record.id}: verifier output unparseable after re-sample: "
                         f"{response.text!r}")
