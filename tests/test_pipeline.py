"""Curation state machine, checkpoint/resume, stats, and the tabulation report."""

from __future__ import annotations

import json
import logging
import threading
import time

import numpy as np
import pytest

from conftest import CapturingBackend, make_dataset, random_script
from cogforge import pipeline
from cogforge.agents import Agents
from cogforge.gateway import ConfigError, ModelRole, ScriptedBackend, UnknownKey
from cogforge.jsonl import dump_row, write_rows
from cogforge.pipeline import (
    ACCEPTED_MEDIUM,
    ACCEPTED_REWRITTEN,
    DISCARDED,
    CorruptCheckpoint,
    DuplicateId,
    PipelineConfig,
    assemble_sft,
    checkpoint_fingerprint,
    complexity_report,
    format_complexity_report,
    load_checkpoint,
    run_crv,
    save_checkpoint,
)
from cogforge.records import ComplexityLevel, CoTRecord, RecordFamily, Source


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
        assert all(r.rating == ComplexityLevel.MEDIUM for r in curated)

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
        assert stats.validate() == []

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
        assert stats.validate() == []

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
        record = CoTRecord(id="r1", problem="p", answer="a", reasoning="")
        with pytest.raises(ValueError, match="reasoning"):
            run_crv([record], PipelineConfig(), Agents(ScriptedBackend({})))

    def test_bad_config_is_config_error(self):
        with pytest.raises(ConfigError):
            run_crv([], PipelineConfig(retry_cap=0), Agents(ScriptedBackend({})))
        with pytest.raises(ConfigError):
            run_crv([], PipelineConfig(votes=2), Agents(ScriptedBackend({})))


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
        assert set(load_checkpoint(str(checkpoint))) == {"r1", "r2", "r3"}

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
            load_checkpoint(str(path))

    def test_unknown_format_tag_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"format": "something-else", "completed": {}}))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(path))

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(
            {"format": "cogforge-checkpoint-v1", "completed": {"r1": {"status": "weird"}}}
        ))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(path))

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        record = CoTRecord(id="r1", problem="p", answer="a", reasoning="t")
        family = RecordFamily(id="r1", problem="p", answer="a",
                              original_rating=ComplexityLevel.MEDIUM, r_original="t")
        completed = {"r1": {"status": ACCEPTED_MEDIUM, "record": record.to_dict(),
                            "family": family.to_dict(), "discard_reason": None, "attempts": 1,
                            "ever_verified": True, "completions_by_stage": {"critic": 3},
                            "tokens_by_stage": {}}}
        save_checkpoint(str(path), completed)
        assert load_checkpoint(str(path)) == completed


MISSING = object()


def script_for(script, record_ids):
    return {
        key: values for key, values in script.items() if key.split(":", 1)[1] in record_ids
    }


class TestJournal:
    """The append-only checkpoint: abort anywhere, tear the tail, change the
    inputs; a resume is byte-identical or refused, never silently wrong."""

    IDS = ["r1", "r2", "r3", "r4", "r5", "r6"]

    def outputs(self, dataset, script, checkpoint=None, config=None):
        """The curated, discard and family rows and the stats, as text."""
        config = config or PipelineConfig(max_concurrency=1)
        config.checkpoint_path = str(checkpoint) if checkpoint else None
        backend = ScriptedBackend(script)
        curated, families, stats, discards = run_crv(dataset, config, Agents(backend))
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
        assert set(load_checkpoint(str(checkpoint))) == set(self.IDS[:k])
        with open(checkpoint, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1  # compacted on the way out
        resumed, backend = self.outputs(dataset, six_record_script, checkpoint)
        assert resumed == baseline
        assert {key.split(":", 1)[1] for key in backend.history} == set(self.IDS[k:])

    def test_torn_tail_is_dropped_and_its_record_rerun(self, tmp_path, six_record_script):
        dataset = make_dataset(6)
        baseline, _ = self.outputs(dataset, six_record_script)
        full = tmp_path / "full.json"
        self.outputs(dataset, six_record_script, full)
        rows = load_checkpoint(str(full))

        # A journal as a killed run leaves it: header, one appended row and
        # half of the next one.
        checkpoint = tmp_path / "checkpoint.json"
        fingerprint = checkpoint_fingerprint(dataset, PipelineConfig())
        save_checkpoint(str(checkpoint), {"r1": rows["r1"], "r2": rows["r2"]}, fingerprint)
        r3 = dump_row({"id": "r3", **rows["r3"]}) + "\n"
        r4 = dump_row({"id": "r4", **rows["r4"]})
        with open(checkpoint, "a", encoding="utf-8") as handle:
            handle.write(r3 + r4[: len(r4) // 2])
        assert set(load_checkpoint(str(checkpoint), fingerprint)) == {"r1", "r2", "r3"}

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
        save_checkpoint(str(checkpoint), {}, checkpoint_fingerprint(dataset, PipelineConfig()))
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
                    while previous not in load_checkpoint(str(checkpoint)):
                        assert time.monotonic() < deadline, f"{previous} not journaled"
                        time.sleep(0.001)
                return self.inner.complete(request)

        saves = []
        real_save = pipeline.save_checkpoint

        def killed_before_compaction(*args):
            saves.append(args[0])
            if len(saves) == 1:
                real_save(*args)

        monkeypatch.setattr(pipeline, "save_checkpoint", killed_before_compaction)
        config = PipelineConfig(max_concurrency=1, checkpoint_path=str(checkpoint))
        run_crv(dataset, config, Agents(Watch(ScriptedBackend(six_record_script))))
        monkeypatch.undo()
        assert len(saves) == 2
        with open(checkpoint, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 7  # the header and one row a record
        resumed, backend = self.outputs(dataset, {}, checkpoint)
        assert resumed == baseline
        assert backend.history == []

    def test_torn_multibyte_character_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {})
        torn = dump_row({"id": "r1", "status": DISCARDED, "note": "\u00e9t\u00e9"}).encode("utf-8")
        with open(path, "ab") as handle:
            handle.write(torn[: torn.index(b"\xc3") + 1])
        assert load_checkpoint(str(path)) == {}

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

    @pytest.mark.parametrize("tail", [
        b'{"id": "r2", "status": "weird"}\n',
        b'{"status": "discarded"}\n',
        b'["r2"]\n',
        b'{"id": "r2", \n',
        b"\n",
    ], ids=["bad-status", "no-id", "not-an-object", "unparseable", "blank"])
    def test_malformed_journal_row_rejected(self, tmp_path, tail):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {})
        with open(path, "ab") as handle:
            handle.write(tail)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(path))

    def test_malformed_header_entry_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {"r1": {"status": "weird"}})
        with pytest.raises(CorruptCheckpoint, match="malformed entry"):
            load_checkpoint(str(path))

    def test_v1_snapshot_refused(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(
            {"format": "cogforge-checkpoint-v1", "completed": {}}, indent=1, sort_keys=True
        ) + "\n")
        with pytest.raises(CorruptCheckpoint, match="not a cogforge-checkpoint-v3 header"):
            load_checkpoint(str(path))

    def test_v2_journal_refused(self, tmp_path):
        # A v2 row carries no usage; resuming from it would under-report.
        path = tmp_path / "checkpoint.json"
        path.write_text(dump_row(
            {"format": "cogforge-checkpoint-v2", "fingerprint": None, "completed": {}}
        ) + "\n")
        with pytest.raises(CorruptCheckpoint, match="not a cogforge-checkpoint-v3 header"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("usage", [
        {"tokens_by_stage": {}},
        {"completions_by_stage": {}},
        {"completions_by_stage": [3], "tokens_by_stage": {}},
        {"completions_by_stage": {"critic": "3"}, "tokens_by_stage": {}},
        {"completions_by_stage": {"critic": 3.0}, "tokens_by_stage": {}},
        {"completions_by_stage": {}, "tokens_by_stage": {"critic": True}},
        {"completions_by_stage": {}, "tokens_by_stage": {"critic": None}},
    ], ids=["no-completions", "no-tokens", "list", "string", "float", "bool", "null"])
    def test_row_without_integer_usage_rejected(self, tmp_path, usage):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(dump_row({"id": "r1", "status": DISCARDED, **usage}) + "\n")
        with pytest.raises(CorruptCheckpoint, match="malformed entry"):
            load_checkpoint(str(path))
        path.write_text(dump_row({"format": pipeline.CHECKPOINT_FORMAT, "fingerprint": None,
                                  "completed": {"r1": {"status": DISCARDED, **usage}}}) + "\n")
        with pytest.raises(CorruptCheckpoint, match="malformed entry"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("change", [
        {"record": MISSING},
        {"record": {"id": "r1"}},
        {"record": ["r1"]},
        {"record": "r1"},
        {"family": {"id": "r1"}},
        {"family": None},
        {"status": DISCARDED},
    ], ids=["no-record", "record-without-problem", "record-list", "record-string",
            "family-without-problem", "accepted-without-family", "discarded-with-family"])
    def test_row_that_does_not_decode_rejected(self, tmp_path, six_record_script, change):
        full = tmp_path / "full.json"
        run_crv(make_dataset(1), PipelineConfig(checkpoint_path=str(full)),
                Agents(ScriptedBackend(six_record_script)))
        row = {**load_checkpoint(str(full))["r1"], **change}
        row = {key: value for key, value in row.items() if value is not MISSING}
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(dump_row({"id": "r1", **row}) + "\n")
        with pytest.raises(CorruptCheckpoint, match="malformed entry for record 'r1'"):
            load_checkpoint(str(path))
        save_checkpoint(str(path), {"r1": row})
        with pytest.raises(CorruptCheckpoint, match="malformed entry for record 'r1'"):
            load_checkpoint(str(path))

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
        kept = load_checkpoint(str(checkpoint))
        assert "r1" in kept and "r2" not in kept

        resumed, _ = self.outputs(dataset, six_record_script, checkpoint,
                                  PipelineConfig(max_concurrency=2))
        assert resumed == baseline


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
            assert all(r.rating == ComplexityLevel.MEDIUM for r in curated)
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


class TestAssembleSft:
    def accepted(self, record_id="r1"):
        record = CoTRecord(id=record_id, problem="p", answer="a", reasoning="r")
        record.add_rating("intake", ComplexityLevel.MEDIUM, [ComplexityLevel.MEDIUM] * 3)
        record.verified = True
        return record

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateId):
            assemble_sft([self.accepted(), self.accepted()])

    def test_unverified_rejected(self):
        record = self.accepted()
        record.verified = None
        with pytest.raises(ValueError):
            assemble_sft([record])

    def test_union_preserved(self):
        records = [self.accepted("a"), self.accepted("b")]
        assert assemble_sft(records) == records


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
        assert format_complexity_report({}) == ""

    def test_formatted_shape(self):
        report = complexity_report(
            [("7B", ComplexityLevel.EASY), ("32B", ComplexityLevel.HARD)]
        )
        rendered = format_complexity_report(report)
        lines = rendered.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("easy")
        assert lines[2].startswith("medium")
        assert lines[3].startswith("hard")
        assert "7B" in lines[0] and "32B" in lines[0]
