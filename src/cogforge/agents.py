"""The three curation agents as prompt-render, complete, parse operations.

Agent names double as scripted-backend key prefixes: ``critic``, ``rethinker``,
``corruptor``, ``verifier``. The corruptor's optional incorrectness gate calls
the verifier and therefore consumes ``verifier:<id>`` script positions after
the acceptance path's.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources

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
    """Stateless agent operations sharing one backend; safe for concurrent use.

    ``usage_snapshot`` exposes per-agent completion and token counts for cost
    accounting: completions count returned choices, tokens are the backend's
    usage per request.
    """

    def __init__(
        self,
        backend: CompletionBackend,
        templates: dict[str, PromptTemplate] | None = None,
        sampling: SamplingParams = SamplingParams(),
        verifier_role: ModelRole = ModelRole.LARGE,
        corruption_gate: bool = False,
    ) -> None:
        self._backend = backend
        self._templates = templates if templates is not None else load_templates()
        missing = [name for name in TEMPLATE_NAMES if name not in self._templates]
        if missing:
            raise ValueError(f"missing templates: {missing}")
        self._sampling = sampling
        self._verifier_role = verifier_role
        self._corruption_gate = corruption_gate
        self._usage_lock = threading.Lock()
        self._completions: dict[str, int] = {}
        self._tokens: dict[str, int] = {}

    def _call(
        self, agent: str, template: str, record_id: str, problem: str, answer: str, reasoning: str,
        role: ModelRole = ModelRole.LARGE, n: int = 1,
    ) -> ChatResponse:
        system, user = self._templates[template].render(problem, answer, reasoning)
        request = ChatRequest(
            model_role=role, system=system, user=user, sampling=self._sampling,
            key=f"{agent}:{record_id}", n=n,
        )
        response = self._backend.complete(request)
        with self._usage_lock:
            self._completions[agent] = self._completions.get(agent, 0) + len(response.choices)
            self._tokens[agent] = self._tokens.get(agent, 0) + response.usage.total
        return response

    def usage_snapshot(self) -> tuple[dict[str, int], dict[str, int]]:
        with self._usage_lock:
            return dict(self._completions), dict(self._tokens)

    def critique(
        self, record: CoTRecord, votes: int = 3
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
            response = self._call(
                "critic", "critic", record.id, record.problem, record.answer, record.reasoning,
                n=votes - len(cast),
            )
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
        abstentions = sum(1 for vote in cast if vote is None)
        if abstentions * 2 > votes:
            raise AgentError(f"record {record.id}: {abstentions} of {votes} critic votes abstained")
        for level in ComplexityLevel:
            if sum(1 for vote in cast if vote == level) * 2 > votes:
                return level, cast
        return ComplexityLevel.MEDIUM, cast

    def rethink(
        self, problem: str, answer: str, reasoning: str, direction: RewriteDirection,
        record_id: str,
    ) -> str:
        """Rewrite a trace in the given direction; never returns it unchanged."""
        template = "rethinker_easy" if direction == RewriteDirection.EXPAND else "rethinker_hard"
        return self._rewrite("rethinker", template, record_id, problem, answer, reasoning)

    def corrupt(self, problem: str, answer: str, reasoning: str, record_id: str) -> str:
        """Produce a deliberately incorrect variant of a correct trace."""
        candidate = self._rewrite("corruptor", "rethinker_incorrect", record_id, problem, answer, reasoning)
        if self._corruption_gate:
            if self.verify(problem, answer, candidate, record_id):
                candidate = self._rewrite(
                    "corruptor", "rethinker_incorrect", record_id, problem, answer, reasoning
                )
                if self.verify(problem, answer, candidate, record_id):
                    raise CorruptionNotIncorrect(
                        f"record {record_id}: corrupted trace still verifies as correct"
                    )
        return candidate

    def _rewrite(
        self, agent: str, template: str, record_id: str, problem: str, answer: str, reasoning: str
    ) -> str:
        # One re-sample on degenerate output (empty or byte-identical input).
        for _attempt in range(2):
            response = self._call(agent, template, record_id, problem, answer, reasoning)
            if response.text and response.text != reasoning:
                return response.text
        raise AgentError(f"record {record_id}: {agent} returned empty or unchanged output twice")

    def verify(self, problem: str, answer: str, reasoning: str, record_id: str) -> bool:
        """YES/NO check that the trace guides to the given answer."""
        if not problem or not answer or not reasoning:
            raise ValueError("verify requires non-empty problem, answer, and reasoning")
        last = ""
        for _attempt in range(2):
            response = self._call(
                "verifier", "verifier", record_id, problem, answer, reasoning,
                role=self._verifier_role,
            )
            last = response.text
            try:
                return parse_verdict(response.text)
            except ParseError:
                log.debug("record %s: unparseable verdict %r", record_id, response.text)
        raise AgentError(f"record {record_id}: verifier output unparseable after re-sample: {last!r}")

    def rerate(self, record: CoTRecord, reasoning: str, votes: int = 3):
        """Critique a candidate rewrite in the context of its record."""
        return self.critique(replace(record, reasoning=reasoning), votes=votes)
