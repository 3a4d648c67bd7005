"""The three curation agents as prompt-render, complete, parse operations.

Agent names double as scripted-backend key prefixes: ``critic``, ``rethinker``,
``corruptor``, ``verifier``. The corruptor's optional incorrectness gate
(``PipelineConfig.corruption_gate``) calls the verifier and therefore consumes
``verifier:<id>`` script positions after the acceptance path's.
"""

from __future__ import annotations

import copy
import json
import logging
import os
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .config import PipelineConfig
from .gateway import ChatRequest, ChatResponse, CompletionBackend, ModelRole, SamplingParams
from .records import ComplexityLevel, CoTRecord, ParseError, parse_complexity, parse_verdict

log = logging.getLogger(__name__)

TEMPLATE_NAMES = ("critic", "rethinker_easy", "rethinker_hard", "rethinker_incorrect", "verifier")

# Slot order and separators are fixed; the template files carry only the
# system text.
USER_LAYOUT = "Problem:\n{problem}\n\nAnswer:\n{answer}\n\nReasoning Process:\n{reasoning}"

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


class RewriteDirection(str, Enum):
    EXPAND = "expand"
    SIMPLIFY = "simplify"


def direction_for(level: ComplexityLevel) -> RewriteDirection:
    """Terse traces get expanded, convoluted ones simplified; medium has no direction."""
    if level == ComplexityLevel.EASY:
        return RewriteDirection.EXPAND
    if level == ComplexityLevel.HARD:
        return RewriteDirection.SIMPLIFY
    raise ValueError("medium-rated traces are never rewritten")


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    system_text: str

    def render(self, problem: str, answer: str, reasoning: str) -> tuple[str, str]:
        """Returns (system, user); byte-deterministic for fixed inputs."""
        user = USER_LAYOUT.format(problem=problem, answer=answer, reasoning=reasoning)
        return self.system_text, user


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
    ``directory`` when overridden."""
    templates = {}
    for name in TEMPLATE_NAMES:
        if directory is None:
            raw = resources.files("cogforge").joinpath("templates", f"{name}.txt").read_text(
                encoding="utf-8"
            )
        else:
            with open(os.path.join(directory, f"{name}.txt"), encoding="utf-8") as handle:
                raw = handle.read()
        templates[name] = PromptTemplate(name=name, system_text=_read_system_text(raw))
    return templates


class Agents:
    """The agent operations on one backend, run for one record at a time.

    ``for_record(record, config)`` returns a copy bound to that record: its
    operations render prompts from the record's problem and answer, key script
    positions by its id, send verification to ``config.verifier_role``, gate
    corruption on ``config.corruption_gate`` (``PipelineConfig()`` when no
    config is given), and count their completions (returned choices) and
    tokens (the backend's usage per request) per agent in the copy's own
    ``completions`` and ``tokens``. The backend and templates are shared, so
    bound copies may run concurrently; each copy belongs to one record's walk.
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
        self._config: PipelineConfig | None = None
        self.completions: dict[str, int] = {}
        self.tokens: dict[str, int] = {}

    def for_record(self, record: CoTRecord, config: PipelineConfig | None = None) -> Agents:
        bound = copy.copy(self)
        bound._record = record
        bound._config = config if config is not None else PipelineConfig()
        bound.completions = {}
        bound.tokens = {}
        return bound

    def _call(self, agent: str, template: str, reasoning: str, n: int = 1) -> ChatResponse:
        record = self._record
        if record is None:
            raise RuntimeError("agent operations need a record: use for_record(record)")
        role = self._config.verifier_role if agent == "verifier" else ModelRole.LARGE
        system, user = self._templates[template].render(record.problem, record.answer, reasoning)
        request = ChatRequest(
            model_role=role, system=system, user=user, sampling=self._sampling,
            key=f"{agent}:{record.id}", n=n,
        )
        response = self._backend.complete(request)
        self.completions[agent] = self.completions.get(agent, 0) + len(response.choices)
        self.tokens[agent] = self.tokens.get(agent, 0) + response.usage.total
        return response

    def critique(
        self, reasoning: str, votes: int = 3
    ) -> tuple[ComplexityLevel, list[ComplexityLevel | None]]:
        """Rate a trace by majority over ``votes`` independent completions.

        Each unparseable completion gets one re-sample, then counts as an
        abstention (None in the vote list). A label wins only with a strict
        majority of all requested votes; otherwise the rating is medium.

        The votes still missing are asked for in one request (``n`` choices),
        re-samples included, so a round costs one request when every label
        parses. The choices are read in order, one completion per vote and
        its re-sample, so a scripted key is consumed exactly as by one
        request per completion.
        """
        if votes < 1 or votes % 2 == 0:
            raise ValueError("votes must be a positive odd integer")
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
                    log.debug("record %s: unparseable critic vote %r", self._record.id, text)
                    if not resampling:
                        resampling = True
                        continue
                    vote = None
                resampling = False
                cast.append(vote)
        abstentions = sum(1 for vote in cast if vote is None)
        if abstentions * 2 > votes:
            raise AgentError(
                f"record {self._record.id}: {abstentions} of {votes} critic votes abstained"
            )
        for level in ComplexityLevel:
            if sum(1 for vote in cast if vote == level) * 2 > votes:
                return level, cast
        return ComplexityLevel.MEDIUM, cast

    def rethink(self, reasoning: str, direction: RewriteDirection) -> str:
        """Rewrite a trace in the given direction; never returns it unchanged."""
        template = "rethinker_easy" if direction == RewriteDirection.EXPAND else "rethinker_hard"
        return self._rewrite("rethinker", template, reasoning)

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
        record = self._record
        if record is not None and not (record.problem and record.answer and reasoning):
            raise ValueError("verify requires non-empty problem, answer, and reasoning")
        last = ""
        for _attempt in range(2):
            response = self._call("verifier", "verifier", reasoning)
            last = response.text
            try:
                return parse_verdict(response.text)
            except ParseError:
                log.debug("record %s: unparseable verdict %r", record.id, response.text)
        raise AgentError(f"record {record.id}: verifier output unparseable after re-sample: {last!r}")
