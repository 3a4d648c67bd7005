"""Curation state machine, checkpoint/resume, stats, and the tabulation report."""

from __future__ import annotations

import builtins
import dataclasses
import json
import logging
import re
import signal
import sys
import threading
import time

import numpy as np
import pytest

from conftest import CapturingBackend, make_dataset, random_script
from cogforge import pipeline
from cogforge.agents import Agents, load_templates
from cogforge.gateway import (
    ConfigError,
    ModelRole,
    SamplingParams,
    ScriptedBackend,
    TransportError,
    UnknownKey,
)
from cogforge.jsonl import dump_row, write_rows
from cogforge.pipeline import (
    CorruptCheckpoint,
    DuplicateId,
    PipelineConfig,
    RecordOutcome,
    checkpoint_fingerprint,
    complexity_report,
    input_digests,
    load_checkpoint,
    run_crv,
    save_checkpoint,
)
from cogforge.records import ComplexityLevel, CoTRecord, Source, rating_entry


class TestSixRecordFixture:
    def test_curated_and_discarded_sets(self, six_record_dataset, six_record_agents):
        curated, families, stats, discards = run_crv(
            six_record_dataset, PipelineConfig(max_concurrency=1), six_record_agents
        )
        assert [r.id for r in curated] == ["r1", "r3", "r5"]
        assert sorted(d["id"] for d in discards) == ["r2", "r4", "r6"]

    def test_sources_and_rewrite_counts(self, six_record_dataset, six_record_agents):
        curated, _families, _stats, _discards = run_crv(
            six_record_dataset, PipelineConfig(max_concurrency=1), six_record_agents
        )
        by_id = {r.id: r for r in curated}
        assert by_id["r1"].source == Source.ORIGINAL
        assert by_id["r1"].rewrite_count == 0
        assert by_id["r3"].source == Source.REWRITTEN
        assert by_id["r3"].rewrite_count == 1
        assert by_id["r3"].reasoning == "rewrite r3"
        assert by_id["r5"].source == Source.REWRITTEN
        assert all(r.verified is True for r in curated)
        assert all(r.rating_history[-1]["rating"] == ComplexityLevel.MEDIUM for r in curated)

    def test_families(self, six_record_dataset, six_record_agents):
        _curated, families, _stats, _discards = run_crv(
            six_record_dataset, PipelineConfig(max_concurrency=1), six_record_agents
        )
        by_id = {f.id: f for f in families}
        assert set(by_id) == {"r1", "r3", "r5"}
        assert by_id["r1"].original_rating == ComplexityLevel.MEDIUM
        assert by_id["r1"].r_rewritten is None
        assert by_id["r1"].r_corrupted == "corrupted r1"
        assert by_id["r3"].original_rating == ComplexityLevel.EASY
        assert by_id["r3"].r_original == "trace 3"
        assert by_id["r3"].r_rewritten == "rewrite r3"
        assert by_id["r5"].original_rating == ComplexityLevel.HARD

    def test_stats_reconcile(self, six_record_dataset, six_record_agents):
        _curated, _families, stats, _discards = run_crv(
            six_record_dataset, PipelineConfig(max_concurrency=1), six_record_agents
        )
        assert stats.intake_total == 6
        assert stats.intake_by_level == {"easy": 2, "medium": 2, "hard": 2}
        assert stats.rewritten == 2
        assert stats.verified == 4
        assert stats.discarded == 3
        assert stats.final_size == 3
        assert stats.intake_total == stats.final_size + stats.discarded

    def test_script_consumed_exactly(self, six_record_dataset, six_record_agents):
        _curated, _families, stats, _discards = run_crv(
            six_record_dataset, PipelineConfig(max_concurrency=1), six_record_agents
        )
        assert stats.completions_by_stage == {
            "critic": 33, "verifier": 12, "rethinker": 8, "corruptor": 3,
        }

    def test_discard_reasons_and_attempts(self, six_record_dataset, six_record_agents):
        _curated, _families, _stats, discards = run_crv(
            six_record_dataset, PipelineConfig(max_concurrency=1), six_record_agents
        )
        by_id = {d["id"]: d for d in discards}
        assert "failed verification" in by_id["r2"]["reason"]
        assert by_id["r2"]["attempts"] == 3
        assert "no verified medium-rated rewrite" in by_id["r4"]["reason"]
        assert by_id["r4"]["attempts"] == 3
        assert by_id["r6"]["attempts"] == 3

    def test_concurrency_preserves_input_order(self, six_record_dataset, six_record_script):
        agents = Agents(ScriptedBackend(six_record_script))
        curated, families, stats, discards = run_crv(
            six_record_dataset, PipelineConfig(max_concurrency=6), agents
        )
        assert [r.id for r in curated] == ["r1", "r3", "r5"]
        assert [f.id for f in families] == ["r1", "r3", "r5"]
        assert [d["id"] for d in discards] == ["r2", "r4", "r6"]
        assert stats.intake_total == stats.final_size + stats.discarded

    def test_reused_agents_report_each_run_alone(self, six_record_dataset, six_record_script):
        class Replay:
            """Serves the script afresh after each reset."""

            def reset(self):
                self.inner = ScriptedBackend(six_record_script)

            def complete(self, request):
                return self.inner.complete(request)

        backend = Replay()
        agents = Agents(backend)
        totals = []
        for _run in range(2):
            backend.reset()
            _c, _f, stats, _d = run_crv(six_record_dataset, PipelineConfig(), agents)
            totals.append(stats.to_dict())
        assert totals[0] == totals[1]
        assert totals[0]["completions_by_stage"] == {
            "critic": 33, "verifier": 12, "rethinker": 8, "corruptor": 3,
        }


class TestEdgeCases:
    def test_empty_input(self):
        agents = Agents(ScriptedBackend({}))
        curated, families, stats, discards = run_crv([], PipelineConfig(), agents)
        assert curated == [] and families == [] and discards == []
        assert stats.intake_total == 0 and stats.final_size == 0

    def test_acceptance_on_final_attempt(self):
        # verify fails twice, passes on the third rethink; re-rated medium
        script = {
            "critic:b1": ["easy"] * 3 + ["medium"] * 3,
            "rethinker:b1": ["try 1", "try 2", "try 3"],
            "verifier:b1": ["NO", "NO", "YES"],
            "corruptor:b1": ["corrupted"],
        }
        record = CoTRecord(id="b1", problem="p", answer="a", reasoning="orig")
        curated, _families, _stats, _discards = run_crv(
            [record], PipelineConfig(max_concurrency=1), Agents(ScriptedBackend(script))
        )
        assert curated[0].rewrite_count == 3
        assert curated[0].reasoning == "try 3"

    def test_never_a_fourth_rethink(self):
        # a script that would pass on attempt 4 must still be discarded
        backend = ScriptedBackend({
            "critic:b1": ["easy"] * 3,
            "rethinker:b1": ["try 1", "try 2", "try 3", "try 4"],
            "verifier:b1": ["NO", "NO", "NO", "YES"],
        })
        record = CoTRecord(id="b1", problem="p", answer="a", reasoning="orig")
        _curated, _families, stats, discards = run_crv(
            [record], PipelineConfig(max_concurrency=1), Agents(backend)
        )
        assert discards[0]["id"] == "b1"
        assert backend.history.count("rethinker:b1") == 3

    def test_rerated_rewrite_recirculates_with_new_direction(self):
        # easy -> rewrite verifies but re-rates hard -> next rethink simplifies
        # that rewrite -> verifies, re-rates medium -> accepted at attempt 2
        backend = ScriptedBackend({
            "critic:b1": ["easy"] * 3 + ["hard"] * 3 + ["medium"] * 3,
            "rethinker:b1": ["expanded", "simplified"],
            "verifier:b1": ["YES", "YES"],
            "corruptor:b1": ["corrupted"],
        })
        record = CoTRecord(id="b1", problem="p", answer="a", reasoning="orig")
        curated, families, _stats, _discards = run_crv(
            [record], PipelineConfig(max_concurrency=1), Agents(backend)
        )
        assert curated[0].reasoning == "simplified"
        assert curated[0].rewrite_count == 2
        assert families[0].r_original == "orig"
        assert families[0].r_rewritten == "simplified"

    def test_agent_error_discards_only_that_record(self):
        script = {
            "critic:r1": ["blah"] * 6,  # every vote abstains -> AgentError
            "critic:r2": ["medium"] * 3,
            "verifier:r2": ["YES"],
            "corruptor:r2": ["corrupted r2"],
        }
        dataset = make_dataset(2)
        curated, _families, stats, discards = run_crv(
            dataset, PipelineConfig(max_concurrency=1), Agents(ScriptedBackend(script))
        )
        assert [r.id for r in curated] == ["r2"]
        assert discards[0]["id"] == "r1"
        assert "abstained" in discards[0]["reason"]
        assert stats.intake_by_level["unrated"] == 1

    def test_rewritten_input_rated_medium_is_not_counted_rewritten(self):
        """Rewritten counts accepted records whose intake was not medium,
        whatever source a library input arrives with."""
        record = CoTRecord(id="r1", problem="p", answer="a", reasoning="trace 1",
                           source=Source.REWRITTEN, rewrite_count=1)
        script = {"critic:r1": ["medium"] * 3, "verifier:r1": ["YES"], "corruptor:r1": ["bad"]}
        curated, families, stats, _discards = run_crv(
            [record], PipelineConfig(), Agents(ScriptedBackend(script))
        )
        assert curated[0].source == Source.REWRITTEN
        assert stats.rewritten == 0 and stats.final_size == 1
        assert families[0].to_dict() == {
            "id": "r1", "problem": "p", "answer": "a", "original_rating": "medium",
            "r_original": "trace 1", "r_rewritten": None, "r_corrupted": "bad",
        }

    def test_corruption_failure_keeps_acceptance(self):
        script = {
            "critic:r1": ["medium"] * 3,
            "verifier:r1": ["YES"],
            "corruptor:r1": ["trace 1", "trace 1"],  # unchanged twice -> AgentError
        }
        curated, families, _stats, _discards = run_crv(
            make_dataset(1), PipelineConfig(max_concurrency=1), Agents(ScriptedBackend(script))
        )
        assert [r.id for r in curated] == ["r1"]
        assert families[0].r_corrupted is None

    def test_duplicate_input_ids_rejected(self):
        dataset = make_dataset(2)
        dataset[1].id = dataset[0].id
        with pytest.raises(DuplicateId):
            run_crv(dataset, PipelineConfig(), Agents(ScriptedBackend({})))

    def test_invalid_record_rejected(self):
        # The agents take each record as checked: verify sends an empty problem as it is.
        backend = CapturingBackend({})
        for field in ("reasoning", "problem"):
            record = CoTRecord(**{"id": "r1", "problem": "p", "answer": "a", "reasoning": "r",
                                  field: ""})
            with pytest.raises(ValueError, match=rf"^record 'r1': field '{field}' is not a "
                                                 "non-empty string: ''$"):
                run_crv([record], PipelineConfig(), Agents(backend))
        assert backend.requests == []

    def test_bad_config_is_config_error(self):
        # The agents take the config as checked: critique asks for votes=2 as it is.
        backend = CapturingBackend({})
        for config in (PipelineConfig(retry_cap=0), PipelineConfig(votes=2),
                       PipelineConfig(votes=0)):
            with pytest.raises(ConfigError):
                run_crv(make_dataset(1), config, Agents(backend))
        assert backend.requests == []


class TestLibraryInputs:
    """run_crv builds its settings as load_config builds a file's, and checks
    each record with RECORD_SCHEMA, so the library neither fails late on a
    value a reader casts nor takes one a reader refuses."""

    @staticmethod
    def run_with(tmp_path, tag, settings, dataset, script):
        config = PipelineConfig(**settings, checkpoint_path=str(tmp_path / f"{tag}.ckpt"))
        curated, families, stats, discards = run_crv(dataset, config,
                                                     Agents(ScriptedBackend(script)))
        header = json.loads((tmp_path / f"{tag}.ckpt").read_text())
        return ([r.to_output_dict() for r in curated], [f.to_dict() for f in families],
                stats.to_dict(), discards, header["fingerprint"])

    @pytest.mark.parametrize(("settings", "typed"), [
        ({"retry_cap": "2"}, {"retry_cap": 2}),
        ({"votes": "3"}, {"votes": 3}),
        ({"max_concurrency": "2"}, {"max_concurrency": 2}),
        ({"retry_cap": 2.0}, {"retry_cap": 2}),
        ({"votes": "3", "retry_cap": 2.0}, {"votes": 3, "retry_cap": 2}),
        ({"verifier_role": "base"}, {"verifier_role": ModelRole.BASE}),
    ], ids=["retry_cap-string", "votes-string", "concurrency-string", "retry_cap-float",
            "votes-and-retry_cap", "role-string"])
    def test_settings_are_cast_as_a_config_files_are(self, tmp_path, six_record_dataset,
                                                     six_record_script, settings, typed):
        """Each once raised a TypeError (an AttributeError for the role, in
        the fingerprint); the caller's config is left as it was given."""
        script = {key: list(values) for key, values in six_record_script.items()}
        given = self.run_with(tmp_path, "given", settings, six_record_dataset, six_record_script)
        assert given == self.run_with(tmp_path, "typed", typed, six_record_dataset, script)

    @pytest.mark.parametrize(("record", "words"), [
        (CoTRecord(5, "p", "a", "t"), "record 5: field 'id' is not a non-empty string: 5"),
        (CoTRecord("r1", "p\ud800", "a", "t"), "record 'r1': field 'problem' holds a lone "
         "surrogate, which UTF-8 cannot encode: 'p\\ud800'"),
    ], ids=["int-id", "lone-surrogate"])
    def test_record_a_reader_refuses_is_refused_before_any_request(self, tmp_path, record,
                                                                   words):
        backend = CapturingBackend({})
        config = PipelineConfig(checkpoint_path=str(tmp_path / "run.ckpt"))
        with pytest.raises(ValueError, match=f"^{re.escape(words)}$"):
            run_crv([record], config, Agents(backend))
        assert backend.requests == [] and list(tmp_path.iterdir()) == []


class TestConfigApplied:
    """run_crv applies the verifier role and the corruption gate it fingerprints."""

    def test_corruption_gate_asks_the_verifier(self):
        backend = CapturingBackend({
            "critic:r1": ["medium"] * 3,
            "verifier:r1": ["YES", "NO"],
            "corruptor:r1": ["bad trace"],
        })
        config = PipelineConfig(max_concurrency=1, corruption_gate=True)
        _curated, families, _stats, _discards = run_crv(make_dataset(1), config, Agents(backend))
        assert [request.key for request in backend.requests] == [
            "critic:r1", "verifier:r1", "corruptor:r1", "verifier:r1",
        ]
        assert "bad trace" in backend.requests[-1].user
        assert families[0].r_corrupted == "bad trace"

    def test_verifier_role(self, six_record_dataset, six_record_script):
        backend = CapturingBackend(six_record_script)
        config = PipelineConfig(max_concurrency=1, verifier_role=ModelRole.BASE)
        run_crv(six_record_dataset, config, Agents(backend))
        roles = {(request.key.split(":")[0], request.model_role) for request in backend.requests}
        assert roles == {
            ("critic", ModelRole.LARGE), ("rethinker", ModelRole.LARGE),
            ("corruptor", ModelRole.LARGE), ("verifier", ModelRole.BASE),
        }


class TestCheckpointing:
    def run_files(self, tmp_path, tag, dataset, script, checkpoint=None):
        config = PipelineConfig(
            max_concurrency=1,
            checkpoint_path=str(checkpoint) if checkpoint else None,
        )
        agents = Agents(ScriptedBackend(script))
        curated, families, stats, discards = run_crv(dataset, config, agents)
        curated_path = tmp_path / f"{tag}.curated.jsonl"
        discards_path = tmp_path / f"{tag}.discards.jsonl"
        families_path = tmp_path / f"{tag}.families.jsonl"
        write_rows(str(curated_path), [r.to_output_dict() for r in curated])
        write_rows(str(discards_path), discards)
        write_rows(str(families_path), [f.to_dict() for f in families])
        return curated_path, discards_path, families_path

    def test_interrupt_and_resume_byte_identical(self, tmp_path, six_record_script):
        dataset = make_dataset(6)
        baseline = self.run_files(tmp_path, "baseline", dataset, six_record_script)

        # Interrupted run: the strict backend has no entries for r4..r6, so the
        # batch aborts on r4 with r1..r3 checkpointed.
        partial_script = {
            key: values
            for key, values in six_record_script.items()
            if key.endswith((":r1", ":r2", ":r3"))
        }
        checkpoint = tmp_path / "checkpoint.json"
        config = PipelineConfig(max_concurrency=1, checkpoint_path=str(checkpoint))
        with pytest.raises(UnknownKey):
            run_crv(dataset, config, Agents(ScriptedBackend(partial_script)))
        assert set(load_outcomes(checkpoint, dataset)) == {"r1", "r2", "r3"}

        resumed = self.run_files(
            tmp_path, "resumed", dataset, six_record_script, checkpoint=checkpoint
        )
        for base_file, resumed_file in zip(baseline, resumed):
            assert resumed_file.read_bytes() == base_file.read_bytes()

    def test_resume_consumes_no_script_for_completed_records(self, tmp_path, six_record_script):
        dataset = make_dataset(6)
        checkpoint = tmp_path / "checkpoint.json"
        config = PipelineConfig(max_concurrency=1, checkpoint_path=str(checkpoint))
        run_crv(dataset, config, Agents(ScriptedBackend(six_record_script)))

        backend = ScriptedBackend({})  # a full resume needs no completions at all
        curated, _families, stats, _discards = run_crv(dataset, config, Agents(backend))
        assert [r.id for r in curated] == ["r1", "r3", "r5"]
        assert backend.history == []
        # The totals come from the journaled outcomes, not from this process.
        assert stats.completions_by_stage == {
            "critic": 33, "verifier": 12, "rethinker": 8, "corruptor": 3,
        }

    def test_missing_checkpoint_is_fresh_run(self, tmp_path, six_record_script):
        config = PipelineConfig(
            max_concurrency=1, checkpoint_path=str(tmp_path / "never-written.json")
        )
        curated, _f, _s, _d = run_crv(
            make_dataset(6), config, Agents(ScriptedBackend(six_record_script))
        )
        assert len(curated) == 3

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text('{"format": "cogforge-checkpoint-v1", "completed": {"r1"')
        with pytest.raises(CorruptCheckpoint):
            load_outcomes(path, [])

    def test_unknown_format_tag_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"format": "something-else", "completed": {}}))
        with pytest.raises(CorruptCheckpoint):
            load_outcomes(path, [])

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(
            {"format": "cogforge-checkpoint-v1", "completed": {"r1": {"status": "weird"}}}
        ))
        with pytest.raises(CorruptCheckpoint):
            load_outcomes(path, [])

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        dataset = make_dataset(3)
        inputs = input_digests(dataset)
        intake = {"stage": "intake", "rating": "easy", "votes": ["easy", None]}
        rerate = {"stage": "re-rate-2", "rating": "medium", "votes": ["medium", "medium"]}
        completed = {
            "r1": RecordOutcome(ratings=[{**intake, "rating": "medium"}], r_corrupted="bad t",
                                attempts=1, ever_verified=True,
                                completions_by_stage={"critic": 3}),
            "r2": RecordOutcome(discard_reason="abstained", completions_by_stage={"critic": 6},
                                tokens_by_stage={"critic": 40}),
            "r3": RecordOutcome(ratings=[intake, rerate], rewrite="longer t", attempts=2,
                                ever_verified=True, tokens_by_stage={"rethinker": 9}),
        }
        save_checkpoint(str(path), completed, inputs, default_fingerprint(dataset))
        assert load_outcomes(path, dataset) == completed


MISSING = object()
REWRITE_RULE = ("an accepted walk from an easy or hard intake holds one, a non-empty string, "
                "and no other walk does")
R1_DIGEST = input_digests(make_dataset(1))["r1"]
# r1's input row with its problem emptied.
OTHER_R1_DIGEST = input_digests(
    [CoTRecord(id="r1", problem="", answer="answer 1", reasoning="trace 1")])["r1"]
EASY_INTAKE = {"stage": "intake", "rating": "easy", "votes": ["easy"] * 3}
MEDIUM_RERATE = {"stage": "re-rate-1", "rating": "medium", "votes": ["medium"] * 3}


def write_header(path, completed: dict[str, dict], fingerprint: str) -> None:
    """A checkpoint whose header holds ``completed`` as given, row dicts and all."""
    path.write_text(dump_row(
        {"format": pipeline.CHECKPOINT_FORMAT, "fingerprint": fingerprint, "completed": completed}
    ) + "\n")


def default_fingerprint(dataset) -> str:
    """The fingerprint a run over ``dataset`` with every default setting writes."""
    return checkpoint_fingerprint(
        input_digests(dataset), PipelineConfig(), Agents(ScriptedBackend({}))
    )


def load_outcomes(path, dataset) -> dict[str, RecordOutcome]:
    """The outcomes in ``path`` as a run over ``dataset`` with every default
    setting loads them."""
    return load_checkpoint(str(path), input_digests(dataset), default_fingerprint(dataset),
                           PipelineConfig.retry_cap)


def write_checkpoint(path, where: str, rows: dict[str, dict], fingerprint: str) -> None:
    """A checkpoint holding ``rows`` as given, in its header or as journal lines."""
    if where == "header":
        write_header(path, rows, fingerprint)
        return
    write_header(path, {}, fingerprint)
    with open(path, "a", encoding="utf-8") as handle:
        for record_id, row in rows.items():
            handle.write(dump_row({"id": record_id, **row}) + "\n")


def saved_rows(path) -> dict[str, dict]:
    """The rows of a compacted checkpoint, by record id, as written."""
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.readline())["completed"]


def script_for(script, record_ids):
    return {
        key: values for key, values in script.items() if key.split(":", 1)[1] in record_ids
    }


class TestJournal:
    """The append-only checkpoint: abort anywhere, tear the tail, change the
    inputs; a resume is byte-identical or refused, never silently wrong."""

    IDS = ["r1", "r2", "r3", "r4", "r5", "r6"]

    def outputs(self, dataset, script, checkpoint=None, config=None, **agent_settings):
        """The curated, discard and family rows and the stats, as text."""
        config = config or PipelineConfig(max_concurrency=1)
        config.checkpoint_path = str(checkpoint) if checkpoint else None
        backend = ScriptedBackend(script)
        agents = Agents(backend, **agent_settings)
        curated, families, stats, discards = run_crv(dataset, config, agents)
        rows = (
            [r.to_output_dict() for r in curated], discards, [f.to_dict() for f in families],
            [stats.to_dict()],
        )
        return tuple("".join(dump_row(row) + "\n" for row in part) for part in rows), backend

    @pytest.mark.parametrize("k", range(7))
    def test_abort_after_every_record_index(self, tmp_path, six_record_script, k):
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        checkpoint = tmp_path / "checkpoint.json"
        partial = script_for(six_record_script, self.IDS[:k])
        if k < 6:
            with pytest.raises(UnknownKey):
                self.outputs(dataset, partial, checkpoint)
        else:
            self.outputs(dataset, partial, checkpoint)
        assert set(load_outcomes(checkpoint, dataset)) == set(self.IDS[:k])
        with open(checkpoint, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1  # compacted on the way out
        resumed, backend = self.outputs(dataset, six_record_script, checkpoint)
        assert resumed == baseline
        assert {key.split(":", 1)[1] for key in backend.history} == set(self.IDS[k:])

    @pytest.mark.parametrize("concurrency", [1, 3])
    @pytest.mark.parametrize("k", range(34))
    def test_abort_at_every_backend_request(self, tmp_path, six_record_script, k, concurrency):
        """The k-th of the walk's 34 backend requests raises TransportError;
        a resume on a fresh backend reproduces the uninterrupted run."""
        dataset = make_dataset(6)
        baseline, backend = self.outputs(dataset, six_record_script)
        assert len(backend.history) == 34
        lock = threading.Lock()
        sent = []

        class FailingAt(ScriptedBackend):
            def complete(self, request):
                with lock:
                    sent.append(request.key)
                    failing = len(sent) == k + 1
                if failing:
                    raise TransportError(f"request {k} lost")
                return super().complete(request)

        checkpoint = tmp_path / "checkpoint.json"
        config = PipelineConfig(max_concurrency=concurrency, checkpoint_path=str(checkpoint))
        with pytest.raises(TransportError, match=f"request {k} lost"):
            run_crv(dataset, config, Agents(FailingAt(six_record_script)))
        with open(checkpoint, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1  # compacted on the way out
        resumed, _ = self.outputs(dataset, six_record_script, checkpoint,
                                  PipelineConfig(max_concurrency=concurrency))
        assert resumed == baseline

    def test_intake_counts_the_rating_the_walk_appended(self, tmp_path, six_record_script):
        """r3 arrives with an older `hard` rating; the critic rates it easy."""
        dataset = make_dataset(6)
        dataset[2].rating_history.append(
            rating_entry("imported", ComplexityLevel.HARD, [ComplexityLevel.HARD]))
        want = {"easy": 2, "medium": 2, "hard": 2}

        def intake(script, checkpoint=None):
            config = PipelineConfig(max_concurrency=1, checkpoint_path=checkpoint)
            return run_crv(dataset, config, Agents(ScriptedBackend(script)))[2].intake_by_level

        assert intake(six_record_script) == want
        checkpoint = str(tmp_path / "checkpoint.json")
        with pytest.raises(UnknownKey):
            intake(script_for(six_record_script, self.IDS[:3]), checkpoint)
        assert set(load_outcomes(checkpoint, dataset)) == set(self.IDS[:3])
        assert intake(six_record_script, checkpoint) == want

    def test_torn_tail_is_dropped_and_its_record_rerun(self, tmp_path, six_record_script):
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        full = tmp_path / "full.json"
        self.outputs(dataset, six_record_script, full)
        inputs = input_digests(dataset)
        rows = load_outcomes(full, dataset)

        # A journal as a killed run leaves it: header, one appended row and
        # half of the next one.
        checkpoint = tmp_path / "checkpoint.json"
        fingerprint = default_fingerprint(dataset)
        save_checkpoint(str(checkpoint), {"r1": rows["r1"], "r2": rows["r2"]}, inputs, fingerprint)
        r3 = dump_row({"id": "r3", **rows["r3"].to_checkpoint(inputs["r3"])}) + "\n"
        r4 = dump_row({"id": "r4", **rows["r4"].to_checkpoint(inputs["r4"])})
        with open(checkpoint, "a", encoding="utf-8") as handle:
            handle.write(r3 + r4[: len(r4) // 2])
        assert set(load_outcomes(checkpoint, dataset)) == {"r1", "r2", "r3"}

        resumed, backend = self.outputs(dataset, six_record_script, checkpoint)
        assert resumed == baseline
        assert "critic:r4" in backend.history
        assert "critic:r3" not in backend.history

    def test_journal_on_disk_as_a_killed_run_leaves_it(
        self, tmp_path, six_record_script, monkeypatch
    ):
        """Each record is on disk before the next one starts, and a run killed
        before its final compaction still resumes byte-identically; the torn
        tail it started from is gone before the first append."""
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        checkpoint = tmp_path / "checkpoint.json"
        fingerprint = default_fingerprint(dataset)
        save_checkpoint(str(checkpoint), {}, {}, fingerprint)
        with open(checkpoint, "a", encoding="utf-8") as handle:
            handle.write('{"id": "r1", "status": "disc')

        class Watch:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, request):
                agent, record_id = request.key.split(":", 1)
                previous = f"r{int(record_id[1:]) - 1}"
                if agent == "critic" and previous != "r0":
                    deadline = time.monotonic() + 10
                    while previous not in load_checkpoint(str(checkpoint), inputs, fingerprint,
                                                          PipelineConfig.retry_cap):
                        assert time.monotonic() < deadline, f"{previous} not journaled"
                        time.sleep(0.001)
                return self.inner.complete(request)

        inputs = input_digests(dataset)
        saves = []  # the run is killed before its compaction
        monkeypatch.setattr(pipeline, "save_checkpoint", lambda *args: saves.append(args[0]))
        config = PipelineConfig(max_concurrency=1, checkpoint_path=str(checkpoint))
        run_crv(dataset, config, Agents(Watch(ScriptedBackend(six_record_script))))
        monkeypatch.undo()
        assert len(saves) == 1
        with open(checkpoint, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 7  # the header and one row a record
        resumed, backend = self.outputs(dataset, {}, checkpoint)
        assert resumed == baseline
        assert backend.history == []

    def test_resume_over_a_complete_checkpoint_writes_no_byte(
        self, tmp_path, six_record_script, monkeypatch
    ):
        """A resume that walks no record rewrites no header and appends no row."""
        checkpoint, dataset, written = tmp_path / "checkpoint.json", make_dataset(6), []
        baseline, _ = self.outputs(dataset, six_record_script, checkpoint)
        before, real_open = checkpoint.read_bytes(), builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if str(file).startswith(str(checkpoint)) and mode not in ("r", "rb"):
                write, truncate = handle.write, handle.truncate
                handle.write = lambda data: written.append(len(data)) or write(data)
                handle.truncate = lambda *size: written.append(size) or truncate(*size)
            return handle

        monkeypatch.setattr(builtins, "open", counting_open)
        resumed, backend = self.outputs(dataset, {}, checkpoint)
        monkeypatch.undo()
        assert (resumed, backend.history, written) == (baseline, [], [])
        assert checkpoint.read_bytes() == before

    def test_torn_multibyte_character_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {}, {}, default_fingerprint([]))
        torn = dump_row({"id": "r1", "discard_reason": "\u00e9t\u00e9"}).encode("utf-8")
        with open(path, "ab") as handle:
            handle.write(torn[: torn.index(b"\xc3") + 1])
        assert load_outcomes(path, []) == {}

    def test_changed_config_or_dataset_is_refused(self, tmp_path, six_record_script):
        dataset = make_dataset(6)
        checkpoint = tmp_path / "checkpoint.json"
        with pytest.raises(UnknownKey):
            self.outputs(dataset, script_for(six_record_script, self.IDS[:3]), checkpoint)
        with pytest.raises(CorruptCheckpoint, match="different config or dataset"):
            self.outputs(dataset, six_record_script, checkpoint,
                         PipelineConfig(max_concurrency=1, retry_cap=2))
        edited = make_dataset(6)
        edited[4].reasoning = "trace 5, edited"
        with pytest.raises(CorruptCheckpoint, match="different config or dataset"):
            self.outputs(edited, six_record_script, checkpoint)
        # Concurrency is not part of the fingerprint: the resume goes ahead.
        resumed, _ = self.outputs(dataset, six_record_script, checkpoint,
                                  PipelineConfig(max_concurrency=3))
        assert resumed == self.outputs(dataset, six_record_script)[0]

    def test_changed_templates_or_sampling_is_refused(self, tmp_path, six_record_script):
        """Templates and sampling shape every live response, so a checkpoint
        written under others is refused; the same ones resume byte-identically."""
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        checkpoint = tmp_path / "checkpoint.json"
        with pytest.raises(UnknownKey):
            self.outputs(dataset, script_for(six_record_script, self.IDS[:3]), checkpoint)
        before = checkpoint.read_bytes()
        templates = load_templates()
        critic = templates["critic"]
        templates["critic"] = dataclasses.replace(critic, system_text=critic.system_text + " Be brief.")
        for changed in ({"templates": templates},
                        {"sampling": SamplingParams(temperature=0.0)},
                        {"sampling": SamplingParams(max_tokens=512)}):
            with pytest.raises(CorruptCheckpoint, match="different config or dataset"):
                self.outputs(dataset, six_record_script, checkpoint, **changed)
            assert checkpoint.read_bytes() == before
        resumed, backend = self.outputs(dataset, six_record_script, checkpoint,
                                        templates=load_templates(), sampling=SamplingParams())
        assert resumed == baseline
        assert {key.split(":", 1)[1] for key in backend.history} == set(self.IDS[3:])

    @pytest.mark.parametrize("tail", [
        b'{"id": "r2", "status": "weird"}\n',
        b'{"status": "discarded"}\n',
        b'["r2"]\n',
        b'{"id": "r2", \n',
        b"\n",
    ], ids=["bad-status", "no-id", "not-an-object", "unparseable", "blank"])
    def test_malformed_journal_row_rejected(self, tmp_path, tail):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {}, {}, default_fingerprint(make_dataset(6)))
        with open(path, "ab") as handle:
            handle.write(tail)
        with pytest.raises(CorruptCheckpoint):
            load_outcomes(path, make_dataset(6))

    def test_malformed_header_entry_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_header(path, {"r1": {"status": "weird"}}, default_fingerprint(make_dataset(6)))
        with pytest.raises(CorruptCheckpoint, match="record 'r1': missing field 'attempts'$"):
            load_outcomes(path, make_dataset(6))

    def test_header_whose_completed_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_header(path, ["r1"], default_fingerprint(make_dataset(6)))
        with pytest.raises(CorruptCheckpoint, match="'completed' is not an object"):
            load_outcomes(path, make_dataset(6))

    @pytest.mark.parametrize("version", ["v1", "v2", "v3", "v4", "v5"])
    def test_earlier_format_refused(self, tmp_path, version):
        """A v1 snapshot spans several lines; v2 rows carry no usage; a v3
        fingerprint leaves out templates and sampling; v4 rows store the
        family and status; v5 rows repeat the whole record. None resumes."""
        header = {"format": f"cogforge-checkpoint-{version}", "fingerprint": None, "completed": {}}
        path = tmp_path / "checkpoint.json"
        if version == "v1":
            del header["fingerprint"]
            path.write_text(json.dumps(header, indent=1, sort_keys=True) + "\n")
        else:
            path.write_text(dump_row(header) + "\n")
        with pytest.raises(CorruptCheckpoint, match=f"not a {pipeline.CHECKPOINT_FORMAT} header"):
            load_outcomes(path, [])

    @pytest.mark.parametrize(("usage", "words"), [
        ({"tokens_by_stage": {}}, "missing field 'completions_by_stage'"),
        ({"completions_by_stage": {}}, "missing field 'tokens_by_stage'"),
        ({"completions_by_stage": [3], "tokens_by_stage": {}},
         "field 'completions_by_stage' is not an object of integers: [3]"),
        ({"completions_by_stage": {"critic": "3"}, "tokens_by_stage": {}},
         "field 'completions_by_stage' is not an object of integers: {'critic': '3'}"),
        ({"completions_by_stage": {"critic": 3.0}, "tokens_by_stage": {}},
         "field 'completions_by_stage' is not an object of integers: {'critic': 3.0}"),
        ({"completions_by_stage": {}, "tokens_by_stage": {"critic": True}},
         "field 'tokens_by_stage' is not an object of integers: {'critic': True}"),
        ({"completions_by_stage": {}, "tokens_by_stage": {"critic": None}},
         "field 'tokens_by_stage' is not an object of integers: {'critic': None}"),
    ], ids=["no-completions", "no-tokens", "list", "string", "float", "bool", "null"])
    def test_row_without_integer_usage_rejected(self, tmp_path, usage, words):
        dataset = make_dataset(1)
        inputs, fingerprint = input_digests(dataset), default_fingerprint(dataset)
        row = RecordOutcome(discard_reason="abstained").to_checkpoint(inputs["r1"])
        write_header(tmp_path / "sound.json", {"r1": row}, fingerprint)
        assert load_outcomes(tmp_path / "sound.json", dataset)["r1"].discard_reason
        del row["completions_by_stage"], row["tokens_by_stage"]
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {}, inputs, fingerprint)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(dump_row({"id": "r1", **row, **usage}) + "\n")
        refusal = re.escape(f"record 'r1': {words}") + "$"
        with pytest.raises(CorruptCheckpoint, match=refusal):
            load_outcomes(path, dataset)
        write_header(path, {"r1": {**row, **usage}}, fingerprint)
        with pytest.raises(CorruptCheckpoint, match=refusal):
            load_outcomes(path, dataset)

    @pytest.mark.parametrize(("change", "words"), [
        ({"input": MISSING},
         "missing field 'input'"),
        ({"input": OTHER_R1_DIGEST},
         "field 'input' is not the digest of its input row: "),
        ({"input": [R1_DIGEST]},
         "field 'input' is not the digest of its input row: "),
        ({"input": "r1"},
         "field 'input' is not the digest of its input row: 'r1'"),
        ({"r_corrupted": ["bad"]},
         "field 'r_corrupted' is not a string or null: ['bad']"),
        ({"discard_reason": 3},
         "field 'discard_reason' is not a string or null: 3"),
        ({"r_corrupted": MISSING},
         "missing field 'r_corrupted'"),
        ({"discard_reason": "abstained", "attempts": "lots"},
         "field 'attempts' is not an integer from 0 to 3: 'lots'"),
        ({"discard_reason": "abstained", "attempts": -1},
         "field 'attempts' is not an integer from 0 to 3: -1"),
        ({"attempts": True},
         "field 'attempts' is not an integer from 0 to 3: True"),
        ({"attempts": 0},
         "accepted, but not after a verified attempt ending rated medium"),
        ({"attempts": PipelineConfig().retry_cap + 1},
         "field 'attempts' is not an integer from 0 to 3: 4"),
        ({"discard_reason": "abstained", "ever_verified": "maybe"},
         "field 'ever_verified' is not a boolean: 'maybe'"),
        ({"ever_verified": 1},
         "field 'ever_verified' is not a boolean: 1"),
        ({"ratings": ["medium"]},
         "field 'ratings' is not a list of objects whose rating is a complexity level: ['medium']"),
        ({"ratings": {"stage": "intake", "rating": "medium", "votes": []}},
         "field 'ratings' is not a list of objects whose rating is a complexity level: "),
        ({"ratings": [{"stage": "intake", "rating": ["medium"], "votes": []}]},
         "field 'ratings' is not a list of objects whose rating is a complexity level: "),
        ({"rewrite": "rewrite r1"},
         "rewrite 'rewrite r1': " + REWRITE_RULE),
        ({"discard_reason": "abstained", "rewrite": "rewrite r1"},
         "rewrite 'rewrite r1': " + REWRITE_RULE),
        ({"ratings": [EASY_INTAKE, MEDIUM_RERATE]},
         "rewrite None: " + REWRITE_RULE),
        ({"ratings": [EASY_INTAKE, MEDIUM_RERATE], "rewrite": ["rewrite r1"]},
         "field 'rewrite' is not a string or null: ['rewrite r1']"),
        ({"ratings": [EASY_INTAKE, MEDIUM_RERATE], "rewrite": ""},
         "rewrite '': " + REWRITE_RULE),
        ({"status": "accepted_medium"},
         "unknown field 'status'"),
    ], ids=["no-record", "record-without-problem", "record-list", "record-string",
            "corrupted-not-a-string", "reason-not-a-string", "no-corrupted",
            "attempts-a-string", "attempts-negative", "attempts-a-bool", "accepted-without-attempt",
            "attempts-over-cap", "verified-a-string", "verified-an-int", "rating-not-an-object",
            "ratings-not-a-list", "rating-unhashable", "rewrite-of-a-medium-intake",
            "rewrite-of-a-discard", "rewritten-without-rewrite", "rewrite-not-a-string",
            "rewrite-empty", "unknown-field"])
    def test_row_that_does_not_decode_rejected(self, tmp_path, six_record_script, change, words):
        """Damage to r1's accepted row, or to that row turned into a discard,
        refused in ``words`` that name the field or the walk rule broken.
        The ``record-*`` cases damage the ``input`` digest that ties the row
        to its record: missing, another r1's, a list, an id."""
        full = tmp_path / "full.json"
        dataset = make_dataset(1)
        inputs, fingerprint = input_digests(dataset), default_fingerprint(dataset)
        run_crv(dataset, PipelineConfig(checkpoint_path=str(full)),
                Agents(ScriptedBackend(six_record_script)))
        assert saved_rows(full)["r1"]["input"] == R1_DIGEST
        assert load_outcomes(full, dataset)["r1"].discard_reason is None
        row = {**saved_rows(full)["r1"], **change}
        row = {key: value for key, value in row.items() if value is not MISSING}
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {}, inputs, fingerprint)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(dump_row({"id": "r1", **row}) + "\n")
        refusal = re.escape(f"record 'r1': {words}")
        with pytest.raises(CorruptCheckpoint, match=refusal):
            load_outcomes(path, dataset)
        write_header(path, {"r1": row}, fingerprint)
        with pytest.raises(CorruptCheckpoint, match=refusal):
            load_outcomes(path, dataset)

    @pytest.mark.parametrize("where", ["header", "journal"])
    @pytest.mark.parametrize("moved", ["r2", "r3", "r2-renamed"],
                             ids=["discarded", "accepted", "renamed"])
    def test_row_filed_under_another_id_rejected(self, tmp_path, six_record_script, where, moved):
        """A row that decodes cleanly but belongs to another record must not
        stand in for the record it is filed under: at r1's key, r2's discard
        would drop r1 and write r2 twice, and r3's acceptance would curate r1
        with r3's rewrite. Renaming r2 to r1 in its input row as well still
        leaves r2's problem and trace in the digest."""
        dataset = make_dataset(6)
        full = tmp_path / "full.json"
        run_crv(dataset, PipelineConfig(checkpoint_path=str(full)),
                Agents(ScriptedBackend(six_record_script)))
        rows = saved_rows(full)
        if moved == "r2-renamed":
            renamed = dataclasses.replace(dataset[1], id="r1")
            row = {**rows["r2"], "input": input_digests([renamed])["r1"]}
        else:
            row = rows[moved]
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path, where, {"r1": row}, default_fingerprint(dataset))
        with pytest.raises(CorruptCheckpoint,
                           match="record 'r1': field 'input' is not the digest of its input row"):
            run_crv(dataset, PipelineConfig(checkpoint_path=str(path)),
                    Agents(ScriptedBackend(six_record_script)))

    @pytest.mark.parametrize("where", ["header", "journal"])
    def test_row_of_a_record_not_in_the_dataset_rejected(self, tmp_path, six_record_script, where):
        """A row filed under an id the dataset lacks would count as one more
        completed record and be compacted back into the file."""
        dataset = make_dataset(6)
        full = tmp_path / "full.json"
        run_crv(dataset, PipelineConfig(checkpoint_path=str(full)),
                Agents(ScriptedBackend(six_record_script)))
        rows = saved_rows(full)
        foreign = dataclasses.replace(dataset[1], id="zz")
        rows["zz"] = {**rows["r2"], "input": input_digests([foreign])["zz"]}
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path, where, rows, default_fingerprint(dataset))
        backend = ScriptedBackend(six_record_script)
        with pytest.raises(CorruptCheckpoint, match="record 'zz': not in the input$"):
            run_crv(dataset, PipelineConfig(checkpoint_path=str(path)), Agents(backend))
        assert backend.history == []

    @pytest.mark.parametrize("repeated", ["header", "journal", "within-header"])
    def test_journal_row_repeating_an_id_rejected(self, tmp_path, six_record_script, repeated):
        """No run appends a row for a record already completed, nor writes an
        id twice into the header, so a repeat means two runs shared the file
        or it was edited. The later row, here with other token counts, must
        not stand in for the earlier one."""
        dataset = make_dataset(6)
        full = tmp_path / "full.json"
        run_crv(dataset, PipelineConfig(checkpoint_path=str(full)),
                Agents(ScriptedBackend(six_record_script)))
        rows = saved_rows(full)
        journal = [dict(rows["r1"], tokens_by_stage={"critic": 1})]
        if repeated == "journal":
            journal.insert(0, rows.pop("r1"))
        path = tmp_path / "checkpoint.json"
        write_header(path, rows, default_fingerprint(dataset))
        if repeated == "within-header":  # the later r1, which json.loads would keep
            path.write_text(path.read_text().replace(
                '"r2": ', f'"r1": {dump_row(journal.pop())}, "r2": ', 1))
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(dump_row({"id": "r1", **row}) + "\n" for row in journal)
        with pytest.raises(CorruptCheckpoint) as caught:
            load_outcomes(path, dataset)
        word = "key" if repeated == "within-header" else "id"
        assert str(caught.value) == f"{path}:{len(journal) + 1}: duplicate {word} 'r1'"

    def test_row_repeating_a_field_rejected(self, tmp_path, six_record_script):
        """A field named twice in one row is refused with its line, not read
        as its later value."""
        dataset = make_dataset(6)
        full = tmp_path / "full.json"
        run_crv(dataset, PipelineConfig(checkpoint_path=str(full)),
                Agents(ScriptedBackend(six_record_script)))
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path, "journal", {"r1": saved_rows(full)["r1"]},
                         default_fingerprint(dataset))
        path.write_text(path.read_text().replace('"attempts": ', '"attempts": 0, "attempts": ', 1))
        with pytest.raises(CorruptCheckpoint) as caught:
            load_outcomes(path, dataset)
        assert str(caught.value) == f"{path}:2: duplicate key 'attempts'"

    @pytest.mark.parametrize("where", ["header", "journal"])
    def test_family_of_another_record_rejected(self, tmp_path, six_record_script, where):
        """A v4-shaped row, r1's with a status and r3's family but no
        r_corrupted, is refused as malformed, not read as r1's outcome."""
        dataset = make_dataset(6)
        full = tmp_path / "full.json"
        _curated, families, _stats, _discards = run_crv(
            dataset, PipelineConfig(checkpoint_path=str(full)),
            Agents(ScriptedBackend(six_record_script)),
        )
        row = saved_rows(full)["r1"]
        del row["r_corrupted"]
        row.update(status="accepted_medium", family=families[1].to_dict())
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path, where, {"r1": row}, default_fingerprint(dataset))
        with pytest.raises(CorruptCheckpoint, match="record 'r1': missing field 'r_corrupted'$"):
            run_crv(dataset, PipelineConfig(checkpoint_path=str(path)),
                    Agents(ScriptedBackend({})))

    @pytest.mark.parametrize(("damage", "words"), [
        ("no-history", "accepted, but not after a verified attempt ending rated medium"),
        ("unknown-intake", "field 'ratings' is not a list of objects whose rating is a complexity "
                           "level"),
        ("unverified", "accepted, but not after a verified attempt ending rated medium"),
        ("not-medium", "accepted, but not after a verified attempt ending rated medium"),
    ], ids=["no-history", "unknown-intake", "unverified", "not-medium"])
    def test_accepted_row_without_a_sound_walk_rejected(self, tmp_path, six_record_script, damage,
                                                        words):
        """An accepted row must carry its walk's intake rating, have been
        verified, and end on a medium rating; otherwise the resume refuses it
        up front instead of failing while it assembles the outputs."""
        dataset = make_dataset(6)
        full = tmp_path / "full.json"
        run_crv(dataset, PipelineConfig(checkpoint_path=str(full)),
                Agents(ScriptedBackend(six_record_script)))
        row = saved_rows(full)["r1"]
        assert row["discard_reason"] is None
        if damage == "no-history":
            row["ratings"] = []
        elif damage == "unknown-intake":
            row["ratings"][0]["rating"] = "unrated"
        elif damage == "unverified":
            row["ever_verified"] = False
        else:
            row["ratings"].append({**MEDIUM_RERATE, "rating": "hard"})
        path = tmp_path / "checkpoint.json"
        write_header(path, {"r1": row}, default_fingerprint(dataset))
        backend = ScriptedBackend(six_record_script)
        with pytest.raises(CorruptCheckpoint, match=re.escape(f"record 'r1': {words}")):
            run_crv(dataset, PipelineConfig(checkpoint_path=str(path)), Agents(backend))
        assert backend.history == []

    @pytest.mark.parametrize("damage", ["bogus-intake", "bogus-re-rate", "no-rating", "no-entry"])
    def test_discarded_row_with_an_unknown_rating_rejected(
        self, tmp_path, six_record_script, damage
    ):
        """Each rating a discarded walk appended must be a ComplexityLevel, or
        the resumed stats would count it as an intake level of its own."""
        dataset = make_dataset(6)
        full = tmp_path / "full.json"
        run_crv(dataset, PipelineConfig(checkpoint_path=str(full)),
                Agents(ScriptedBackend(six_record_script)))
        row = saved_rows(full)["r4"]
        assert row["discard_reason"] is not None
        history = row["ratings"]
        assert [entry["stage"] for entry in history] == [
            "intake", "re-rate-1", "re-rate-2", "re-rate-3"]
        if damage == "bogus-intake":
            history[0]["rating"] = "bogus"
        elif damage == "bogus-re-rate":
            history[2]["rating"] = None
        elif damage == "no-rating":
            del history[-1]["rating"]
        else:
            history[1] = "easy"
        path = tmp_path / "checkpoint.json"
        write_header(path, {"r4": row}, default_fingerprint(dataset))
        backend = ScriptedBackend(six_record_script)
        with pytest.raises(CorruptCheckpoint, match="record 'r4': field 'ratings' is not a "
                                                    "list of objects whose rating is a complexity"):
            run_crv(dataset, PipelineConfig(checkpoint_path=str(path)), Agents(backend))
        assert backend.history == []

    def test_discarded_row_without_ratings_resumes(self, tmp_path, six_record_script):
        """A walk whose critic abstained appended no rating: its row resumes,
        counted as unrated."""
        dataset = make_dataset(6)
        script = dict(six_record_script, **{"critic:r2": ["???"] * 6})
        checkpoint = tmp_path / "checkpoint.json"
        baseline, _ = self.outputs(dataset, script)
        with pytest.raises(UnknownKey):
            self.outputs(dataset, script_for(script, ["r1", "r2"]), checkpoint)
        assert load_outcomes(checkpoint, dataset)["r2"].ratings == []
        resumed, _ = self.outputs(dataset, script, checkpoint)
        assert resumed == baseline
        assert json.loads(resumed[3])["intake_by_level"]["unrated"] == 1

    def test_rows_hold_no_input_text(self, tmp_path, six_record_script):
        """A row holds what its walk decided and names its input by digest:
        no problem, answer or unchanged trace is written twice."""
        dataset = make_dataset(6)
        checkpoint = tmp_path / "checkpoint.json"
        self.outputs(dataset, six_record_script, checkpoint)
        rows = saved_rows(checkpoint)
        assert list(rows) == self.IDS
        for record in dataset:
            row = dump_row(rows[record.id])
            for text in (record.problem, record.answer, record.reasoning):
                assert json.dumps(text) not in row, (record.id, text)
        assert rows["r3"]["rewrite"] == "rewrite r3"

    def test_gateway_error_keeps_records_in_flight(self, tmp_path, six_record_script):
        """r2 fails while r1 is still in flight; r1 finishes only once the
        abort is under way, and must still reach the checkpoint."""
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        r1_in_last_call = threading.Event()
        aborting = threading.Event()

        class Held:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, request):
                if request.key.endswith(":r2"):
                    assert r1_in_last_call.wait(10)
                elif request.key == "corruptor:r1":
                    r1_in_last_call.set()
                    assert aborting.wait(10)
                return self.inner.complete(request)

        class OnAbort(logging.Handler):
            def emit(self, record):
                if "in flight" in record.getMessage():
                    aborting.set()

        logger = logging.getLogger("cogforge.pipeline")
        handler = OnAbort()
        logger.addHandler(handler)
        checkpoint = tmp_path / "checkpoint.json"
        config = PipelineConfig(max_concurrency=2, checkpoint_path=str(checkpoint))
        backend = Held(ScriptedBackend(script_for(six_record_script, ["r1", "r3", "r4"])))
        try:
            with pytest.raises(UnknownKey):
                run_crv(dataset, config, Agents(backend))
        finally:
            logger.removeHandler(handler)
        kept = load_outcomes(checkpoint, dataset)
        assert "r1" in kept and "r2" not in kept

        resumed, _ = self.outputs(dataset, six_record_script, checkpoint,
                                  PipelineConfig(max_concurrency=2))
        assert resumed == baseline


    @pytest.mark.parametrize("k", [0, 3])
    def test_no_record_starts_after_a_gateway_error(self, tmp_path, six_record_script, k):
        """Only record k's script is missing. The abort's log line is held
        until a later record reaches the backend (or 0.5 s pass), so a worker
        free to start the next record has done so before the pool shuts down."""
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        later = set(self.IDS[k + 1:])
        later_called = threading.Event()

        class Watched(ScriptedBackend):
            def complete(self, request):
                if request.key.split(":", 1)[1] in later:
                    later_called.set()
                return super().complete(request)

        class HoldAbort(logging.Handler):
            def emit(self, record):
                if record.getMessage().startswith("aborting"):
                    later_called.wait(0.5)

        logger = logging.getLogger("cogforge.pipeline")
        handler = HoldAbort()
        logger.addHandler(handler)
        checkpoint = tmp_path / "checkpoint.json"
        config = PipelineConfig(max_concurrency=1, checkpoint_path=str(checkpoint))
        backend = Watched(script_for(six_record_script, self.IDS[:k] + self.IDS[k + 1:]))
        try:
            with pytest.raises(UnknownKey):
                run_crv(dataset, config, Agents(backend))
        finally:
            logger.removeHandler(handler)
        assert set(load_outcomes(checkpoint, dataset)) == set(self.IDS[:k])
        assert not {key.split(":", 1)[1] for key in backend.history} & later

        resumed, _ = self.outputs(dataset, six_record_script, checkpoint)
        assert resumed == baseline


    @pytest.mark.parametrize("error", [RuntimeError("backend bug"), KeyboardInterrupt()],
                             ids=["RuntimeError", "KeyboardInterrupt"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_unexpected_failure_stops_the_run(self, tmp_path, six_record_script, error, k):
        """Any exception out of record k's walk, not only a GatewayError,
        ends the run the same way: it propagates as raised, no later record
        reaches the backend, and the records before k are kept, compacted."""
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        failing = f"critic:{self.IDS[k]}"

        class Failing(ScriptedBackend):
            def complete(self, request):
                if request.key == failing:
                    raise error
                return super().complete(request)

        checkpoint = tmp_path / "checkpoint.json"
        config = PipelineConfig(max_concurrency=1, checkpoint_path=str(checkpoint))
        backend = Failing(six_record_script)
        with pytest.raises(type(error)) as raised:
            run_crv(dataset, config, Agents(backend))
        assert raised.value is error
        assert {key.split(":", 1)[1] for key in backend.history} == set(self.IDS[:k])
        loaded = load_outcomes(checkpoint, dataset)
        assert set(loaded) == set(self.IDS[:k])
        with open(checkpoint, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1
        assert list(tmp_path.glob("*.tmp")) == []

        resumed, _ = self.outputs(dataset, six_record_script, checkpoint)
        assert resumed == baseline

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_interrupt_in_the_caller_finishes_records_in_flight(
        self, tmp_path, six_record_script
    ):
        """Ctrl-C while run_crv waits on its workers: r3, in flight, finishes
        and is kept; no later record starts; the KeyboardInterrupt propagates
        after the checkpoint is compacted."""
        main = threading.main_thread()
        if (threading.current_thread() is not main
                or signal.getsignal(signal.SIGINT) is not signal.default_int_handler):
            pytest.skip("needs the default SIGINT handler on the main thread")
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        stopping = threading.Event()

        class Interrupting(ScriptedBackend):
            def complete(self, request):
                if request.key == "critic:r3" and not stopping.is_set():
                    signal.pthread_kill(main.ident, signal.SIGINT)
                    assert stopping.wait(10)
                return super().complete(request)

        class OnStop(logging.Handler):
            def emit(self, record):
                if record.getMessage().startswith("aborting on KeyboardInterrupt"):
                    stopping.set()

        logger = logging.getLogger("cogforge.pipeline")
        handler = OnStop()
        logger.addHandler(handler)
        checkpoint = tmp_path / "checkpoint.json"
        config = PipelineConfig(max_concurrency=1, checkpoint_path=str(checkpoint))
        backend = Interrupting(six_record_script)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_crv(dataset, config, Agents(backend))
        finally:
            logger.removeHandler(handler)
        assert {key.split(":", 1)[1] for key in backend.history} == {"r1", "r2", "r3"}
        loaded = load_outcomes(checkpoint, dataset)
        assert set(loaded) == {"r1", "r2", "r3"}
        with open(checkpoint, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

        resumed, _ = self.outputs(dataset, six_record_script, checkpoint)
        assert resumed == baseline


class TestWorkers:
    @pytest.mark.parametrize("concurrency", [1, 2, 6])
    def test_in_flight_records_and_threads_bounded(self, concurrency):
        """Records in flight (first to last backend call) and threads calling
        the backend never exceed max_concurrency. Each record's first call
        waits until `concurrency` records have started, so the bound is
        reached, and 20 ms more, so a thread beyond it would start one too."""
        ids = [f"r{i}" for i in range(1, 13)]
        script = random_script(np.random.default_rng(concurrency), ids)
        lock = threading.Lock()
        spans: dict[str, list[float]] = {}
        threads: set[int] = set()
        filled = threading.Event()

        class Watched(ScriptedBackend):
            def complete(self, request):
                record_id = request.key.split(":", 1)[1]
                with lock:
                    threads.add(threading.get_ident())
                    first = record_id not in spans
                    spans.setdefault(record_id, [time.perf_counter(), 0.0])
                    if len(spans) >= concurrency:
                        filled.set()
                if first:
                    filled.wait(2)
                    time.sleep(0.02)
                try:
                    return super().complete(request)
                finally:
                    with lock:
                        spans[record_id][1] = time.perf_counter()

        _curated, _families, stats, _discards = run_crv(
            make_dataset(12), PipelineConfig(max_concurrency=concurrency),
            Agents(Watched(script)),
        )
        assert stats.intake_total == 12 and set(spans) == set(ids)
        events = sorted([(start, 1) for start, _ in spans.values()]
                        + [(end, -1) for _, end in spans.values()])
        in_flight = peak = 0
        for _time, step in events:
            in_flight += step
            peak = max(peak, in_flight)
        assert peak == concurrency
        assert 1 <= len(threads) <= concurrency
        assert threading.get_ident() not in threads

    def test_input_records_left_unmodified(self, six_record_script):
        dataset = make_dataset(6)
        dataset[2].rating_history.append(
            rating_entry("imported", ComplexityLevel.HARD, [ComplexityLevel.HARD, None]))
        dataset[3].rating_history.append({"stage": "imported", "rating": "easy", "votes": []})
        before = [json.loads(dump_row(record.to_output_dict())) for record in dataset]
        curated, _families, _stats, _discards = run_crv(
            dataset, PipelineConfig(max_concurrency=2), Agents(ScriptedBackend(six_record_script))
        )
        assert [record.to_output_dict() for record in dataset] == before
        by_id = {record.id: record for record in curated}
        assert by_id["r3"].rating_history[0] == before[2]["rating_history"][0]
        assert len(by_id["r3"].rating_history) == 3

    def test_eight_workers_under_fast_switching_match_one(self, tmp_path):
        """More workers than cores and a 1 µs switch interval: a record handed
        out twice would consume its script twice, and a lost update to the
        shared outcomes or journal would lose a record."""
        ids = [f"r{i}" for i in range(1, 201)]
        script = random_script(np.random.default_rng(11), ids)
        dataset = make_dataset(200)

        def outputs(concurrency, checkpoint=None):
            config = PipelineConfig(max_concurrency=concurrency, checkpoint_path=checkpoint)
            curated, families, stats, discards = run_crv(
                dataset, config, Agents(ScriptedBackend(script))
            )
            return ([r.to_output_dict() for r in curated], [f.to_dict() for f in families],
                    discards, stats.to_dict())

        expected = outputs(1)
        checkpoint = str(tmp_path / "checkpoint.json")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = outputs(8, checkpoint)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        loaded = load_outcomes(checkpoint, dataset)
        assert set(loaded) == set(ids)


class TestRandomizedRuns:
    def test_conservation_over_200_random_scripts(self):
        rng = np.random.default_rng(20260819)
        ids = [f"r{i}" for i in range(1, 7)]
        for _trial in range(200):
            script = random_script(rng, ids)
            backend = ScriptedBackend(script)
            dataset = make_dataset(6)
            curated, families, stats, discards = run_crv(
                dataset, PipelineConfig(max_concurrency=2), Agents(backend)
            )
            assert stats.intake_total == stats.final_size + stats.discarded
            assert len(curated) + len(discards) == 6
            assert len(families) == len(curated)
            # accepted records are verified mediums; ordering follows input
            assert all(r.verified is True for r in curated)
            assert all(r.rating_history[-1]["rating"] == ComplexityLevel.MEDIUM for r in curated)
            curated_ids = [r.id for r in curated]
            assert curated_ids == [i for i in ids if i in set(curated_ids)]
            for record_id in ids:
                assert backend.history.count(f"rethinker:{record_id}") <= 3

    def test_pure_function_of_script_and_dataset(self):
        rng = np.random.default_rng(7)
        ids = [f"r{i}" for i in range(1, 7)]
        script = random_script(rng, ids)
        outputs = []
        for _ in range(2):
            curated, families, stats, discards = run_crv(
                make_dataset(6), PipelineConfig(max_concurrency=3),
                Agents(ScriptedBackend(script)),
            )
            outputs.append((
                [r.to_output_dict() for r in curated],
                [f.to_dict() for f in families],
                discards,
                stats.to_dict(),
            ))
        assert outputs[0] == outputs[1]


class TestComplexityReport:
    def test_labeled_count_fixture(self):
        ratings = []
        for tag, easy, medium, hard in [
            ("1.5B", 195, 296, 9), ("7B", 80, 389, 31), ("32B", 19, 354, 127),
        ]:
            ratings += [(tag, ComplexityLevel.EASY)] * easy
            ratings += [(tag, ComplexityLevel.MEDIUM)] * medium
            ratings += [(tag, ComplexityLevel.HARD)] * hard
        report = complexity_report(ratings)
        assert [report[tag]["easy"] for tag in ("1.5B", "7B", "32B")] == [195, 80, 19]
        assert [report[tag]["medium"] for tag in ("1.5B", "7B", "32B")] == [296, 389, 354]
        assert [report[tag]["hard"] for tag in ("1.5B", "7B", "32B")] == [9, 31, 127]

    def test_single_tag_column(self):
        report = complexity_report([("7B", ComplexityLevel.MEDIUM)] * 3)
        assert report == {"7B": {"easy": 0, "medium": 3, "hard": 0}}

    def test_empty(self):
        assert complexity_report([]) == {}
