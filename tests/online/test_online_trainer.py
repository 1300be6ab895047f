"""Streaming trainer: bit-exact offline parity and kill/resume replay."""

import dataclasses

import numpy as np
import pytest

from repro.autograd.context import sparse_grads as sparse_grads_context
from repro.data.loaders import GroupBatcher
from repro.online import (
    EventLogReader,
    OnlineTrainer,
    OnlineTrainerConfig,
    SnapshotPublisher,
    generate_events,
    write_event_log,
)
from repro.online.trainer import _degenerate_split
from repro.training.trainer import GroupSATrainer, TrainingConfig
from repro.training.two_stage import build_model

from tests.conftest import TINY_MODEL_CONFIG

BATCH = 8
TRAINING = TrainingConfig(batch_size=BATCH, grad_clip=0.0, seed=11)


def _fresh_model(split):
    model, __ = build_model(split, TINY_MODEL_CONFIG)
    return model


def _weights(model):
    return {name: p.data.copy() for name, p in model.named_parameters()}


def _assert_same_weights(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


@pytest.fixture(scope="module")
def dataset(tiny_split):
    return tiny_split.train


@pytest.fixture(scope="module")
def events(dataset):
    return generate_events(dataset, 120, rng=np.random.default_rng(21))


class TestBitExactness:
    def test_streaming_matches_offline_sparse_adam_replay(
        self, tiny_split, dataset, events, tmp_path
    ):
        """The tentpole contract: same batch sequence -> same bits.

        The offline side drives GroupSATrainer's own step functions by
        hand over the exact micro-batches the stream produces; the
        online side ingests the events.  Final weights must be
        identical down to the last bit -- there is no separate 'online
        math'.
        """
        online_model = _fresh_model(tiny_split)
        offline_model = _fresh_model(tiny_split)
        _assert_same_weights(_weights(online_model), _weights(offline_model))

        publisher = SnapshotPublisher(tmp_path / "snap")
        online = OnlineTrainer(
            online_model,
            dataset,
            publisher,
            config=OnlineTrainerConfig(batch_size=BATCH, publish_every_steps=10_000),
            training=TRAINING,
        )
        offline = GroupSATrainer(
            offline_model,
            _degenerate_split(dataset),
            GroupBatcher(dataset),
            TRAINING,
        )

        buffers = {"user": [], "group": []}
        for event in events:
            online.ingest(event)

            buffers[event.kind].append((event.entity, event.item))
            if len(buffers[event.kind]) == BATCH:
                edges = np.asarray(buffers[event.kind], dtype=np.int64)
                buffers[event.kind].clear()
                repeat = TRAINING.negatives_per_positive
                sampler = (
                    offline.user_sampler
                    if event.kind == "user"
                    else offline.group_sampler
                )
                negatives = sampler.sample_many(edges[:, 0], repeat).reshape(-1)
                step = (
                    offline._user_step
                    if event.kind == "user"
                    else offline._group_step
                )
                with sparse_grads_context(TRAINING.sparse_grads):
                    step(
                        np.repeat(edges[:, 0], repeat),
                        np.repeat(edges[:, 1], repeat),
                        negatives,
                    )

        online.publish()  # syncs lazy sparse-Adam rows
        offline.optimizer.sync()
        assert online.steps > 0
        _assert_same_weights(_weights(online_model), _weights(offline_model))


class TestKillResume:
    def test_resume_from_offset_reproduces_final_snapshot(
        self, tiny_split, dataset, events, tmp_path
    ):
        """SIGKILL mid-stream, restore, replay tail -> identical bits.

        Run A consumes the whole log uninterrupted.  Run B is killed
        after 53 events (the trainer object is simply abandoned, as a
        SIGKILL would), then a *fresh* process-equivalent restores from
        the newest snapshot, seeks the reader, and finishes the log.
        Both final snapshots must contain identical arrays and carry
        the same version number.
        """
        log = tmp_path / "events.jsonl"
        write_event_log(log, events)

        def run_a():
            publisher = SnapshotPublisher(tmp_path / "a", keep_last=2)
            trainer = OnlineTrainer(
                _fresh_model(tiny_split),
                dataset,
                publisher,
                config=OnlineTrainerConfig(batch_size=BATCH, publish_every_steps=2),
                training=TRAINING,
            )
            trainer.consume(EventLogReader(log))
            return publisher.latest

        def run_b():
            directory = tmp_path / "b"
            publisher = SnapshotPublisher(directory, keep_last=2)
            doomed = OnlineTrainer(
                _fresh_model(tiny_split),
                dataset,
                publisher,
                config=OnlineTrainerConfig(batch_size=BATCH, publish_every_steps=2),
                training=TRAINING,
            )
            doomed.consume(EventLogReader(log), max_events=53, publish_final=False)
            # -- SIGKILL: `doomed` (weights, buffers, reader) is gone --

            resumed = OnlineTrainer(
                _fresh_model(tiny_split),
                dataset,
                SnapshotPublisher(directory, keep_last=2),
                config=OnlineTrainerConfig(batch_size=BATCH, publish_every_steps=2),
                training=TRAINING,
            )
            offset = resumed.restore_latest()
            assert offset is not None and 0 < offset
            reader = EventLogReader(log, offset=offset)
            resumed.consume(reader)
            return resumed.publisher.latest

        final_a, final_b = run_a(), run_b()
        assert final_a.version == final_b.version
        with np.load(final_a.path, allow_pickle=False) as archive_a, np.load(
            final_b.path, allow_pickle=False
        ) as archive_b:
            assert sorted(archive_a.files) == sorted(archive_b.files)
            for name in archive_a.files:
                if name.endswith("__train_meta__"):
                    continue  # JSON blob; compared structurally below
                assert np.array_equal(archive_a[name], archive_b[name]), name

    def test_restore_on_empty_directory_returns_none(
        self, tiny_split, dataset, tmp_path
    ):
        trainer = OnlineTrainer(
            _fresh_model(tiny_split),
            dataset,
            SnapshotPublisher(tmp_path / "empty"),
            training=TRAINING,
        )
        assert trainer.restore_latest() is None

    def test_restore_rejects_foreign_checkpoints(
        self, tiny_split, dataset, tmp_path
    ):
        # A snapshot published without trainer/online state (e.g. by a
        # plain CheckpointManager user) must not silently resume.
        publisher = SnapshotPublisher(tmp_path / "foreign")
        publisher.publish(_fresh_model(tiny_split))
        trainer = OnlineTrainer(
            _fresh_model(tiny_split), dataset, publisher, training=TRAINING
        )
        with pytest.raises(ValueError):
            trainer.restore_latest()


class TestPublishing:
    def test_pending_buffers_survive_the_snapshot(
        self, tiny_split, dataset, events, tmp_path
    ):
        publisher = SnapshotPublisher(tmp_path / "snap")
        trainer = OnlineTrainer(
            _fresh_model(tiny_split),
            dataset,
            publisher,
            config=OnlineTrainerConfig(batch_size=50),
            training=TRAINING,
        )
        for event in events[:13]:  # fills no batch: all 13 stay pending
            trainer.ingest(event)
        assert sum(trainer.pending_counts.values()) == 13
        trainer.publish()

        resumed = OnlineTrainer(
            _fresh_model(tiny_split),
            dataset,
            SnapshotPublisher(tmp_path / "snap"),
            config=OnlineTrainerConfig(batch_size=50),
            training=TRAINING,
        )
        resumed.restore_latest()
        assert resumed.pending_counts == trainer.pending_counts
        assert resumed.events_ingested == 13
        assert resumed.steps == 0

    def test_versions_increase_monotonically(
        self, tiny_split, dataset, events, tmp_path
    ):
        publisher = SnapshotPublisher(tmp_path / "snap", keep_last=3)
        trainer = OnlineTrainer(
            _fresh_model(tiny_split),
            dataset,
            publisher,
            config=OnlineTrainerConfig(batch_size=BATCH, publish_every_steps=1),
            training=TRAINING,
        )
        stats = trainer.consume(EventLogReader(tmp_path / "missing.jsonl"))
        assert stats["events"] == 0

        log = tmp_path / "events.jsonl"
        write_event_log(log, events)
        stats = trainer.consume(EventLogReader(log))
        assert stats["events"] == len(events)
        assert stats["model_version"] == trainer.model_version
        assert trainer.model_version >= 2
        # keep-last retention holds on disk while LATEST names the top.
        retained = sorted((tmp_path / "snap").glob("ckpt-*.npz"))
        assert len(retained) <= 3
        assert publisher.latest.version == trainer.model_version

    def test_construction_prunes_what_a_killed_publish_left(
        self, tiny_split, tmp_path
    ):
        """A SIGKILL mid-publish leaves a checkpoint newer than LATEST, or
        the temporary of any of the three files a publish replaces."""
        directory = tmp_path / "snap"
        published = SnapshotPublisher(directory).publish(_fresh_model(tiny_split))
        planted = (
            "ckpt-000002.npz",
            ".ckpt-000002.npz.k1l2m3.tmp",
            ".best.npz.x9y8z7.tmp",
            ".LATEST.json.q4r5s6.tmp",
        )
        for name in (*planted, "unrelated.tmp"):
            (directory / name).write_bytes(b"torn")
        SnapshotPublisher(directory)
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            [published.path.name, "LATEST.json", "unrelated.tmp"]
        )

    def test_config_fields_are_pinned(self):
        # Retention is SnapshotPublisher(keep_last=), not a trainer knob.
        assert [f.name for f in dataclasses.fields(OnlineTrainerConfig)] == [
            "batch_size",
            "publish_every_steps",
        ]

    def test_ingest_validates_ranges(self, tiny_split, dataset, tmp_path):
        from repro.online import InteractionEvent

        trainer = OnlineTrainer(
            _fresh_model(tiny_split),
            dataset,
            SnapshotPublisher(tmp_path / "snap"),
            training=TRAINING,
        )
        with pytest.raises(IndexError):
            trainer.ingest(
                InteractionEvent(0, 0.0, "user", dataset.num_users, 0)
            )
        with pytest.raises(IndexError):
            trainer.ingest(
                InteractionEvent(0, 0.0, "group", 0, dataset.num_items)
            )
