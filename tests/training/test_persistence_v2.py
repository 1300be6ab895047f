"""Checkpoint format v2: atomic writes, path normalization, forward
compatibility, v1 back-compat, and error paths."""

import io
import json
import os
import shutil
import stat
import zipfile

import numpy as np
import pytest

from repro import persistence
from repro.cluster.weights import write_model_store
from repro.online import OnlineTrainer, OnlineTrainerConfig, generate_events
from repro.online.snapshots import SnapshotPublisher
from repro.persistence import (
    checkpoint_info,
    checkpoint_metadata,
    load_checkpoint,
    load_model,
    roundtrip_equal,
    save_checkpoint,
    save_model,
)
from repro.training import CheckpointManager
from repro.training.trainer import TrainingConfig
from repro.training.two_stage import build_model

from tests.conftest import TINY_MODEL_CONFIG


def _rewrite(path, **overrides):
    """Rewrite an existing archive with some entries replaced/removed."""
    data = dict(np.load(path, allow_pickle=False))
    for key, value in overrides.items():
        if value is None:
            data.pop(key, None)
        else:
            data[key] = value
    np.savez_compressed(path, **data)


class TestPathNormalization:
    def test_suffixless_save_then_load(self, trained_tiny_model, tmp_path):
        """Regression: np.savez silently appends .npz, so a suffix-less
        save followed by a suffix-less load used to FileNotFoundError."""
        model, __, __h = trained_tiny_model
        target = tmp_path / "ckpt"
        save_model(model, target)
        assert (tmp_path / "ckpt.npz").exists()
        assert roundtrip_equal(model, load_model(target))

    def test_suffixless_checkpoint_info_roundtrip(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        save_model(model, tmp_path / "ckpt")
        config, num_users, num_items = checkpoint_info(tmp_path / "ckpt")
        assert config == model.config
        assert (num_users, num_items) == (model.num_users, model.num_items)

    def test_explicit_npz_suffix_unchanged(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        save_model(model, tmp_path / "model.npz")
        assert (tmp_path / "model.npz").exists()
        assert not (tmp_path / "model.npz.npz").exists()


class TestForwardCompatibility:
    def _with_extra_config_key(self, model, path):
        save_model(model, path)
        raw = json.loads(str(np.load(path)["__config__"]))
        raw["a_future_knob"] = 123
        _rewrite(path, __config__=np.array(json.dumps(raw)))

    def test_load_model_drops_unknown_config_keys(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        self._with_extra_config_key(model, path)
        with pytest.warns(RuntimeWarning, match="a_future_knob"):
            loaded = load_model(path)
        assert loaded.config == model.config
        assert roundtrip_equal(model, loaded)

    def test_checkpoint_info_drops_unknown_config_keys(
        self, trained_tiny_model, tmp_path
    ):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        self._with_extra_config_key(model, path)
        with pytest.warns(RuntimeWarning, match="a_future_knob"):
            config, __, __i = checkpoint_info(path)
        assert config == model.config


class TestVersions:
    def test_v1_weight_only_still_loads(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        _rewrite(path, __version__=np.array(1))
        loaded, state = load_checkpoint(path)
        assert roundtrip_equal(model, loaded)
        assert state is None

    def test_future_version_rejected_everywhere(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        _rewrite(path, __version__=np.array(99))
        for reader in (load_model, checkpoint_info, checkpoint_metadata):
            with pytest.raises(ValueError, match="version 99"):
                reader(path)

    def test_missing_param_key_rejected(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        name = next(iter(model.state_dict()))
        _rewrite(path, **{f"param/{name}": None})
        with pytest.raises(KeyError, match="missing"):
            load_model(path)


def _save(model, directory):
    save_model(model, directory / "model.npz")


def _mirror(model, directory):
    manager = CheckpointManager(directory)
    # Ever better, so every call rewrites the mirror.
    manager.save(model, metric=-float(manager.next_index))


def _publish(model, directory):
    SnapshotPublisher(directory).publish(model)


#: target file -> (what writes it, the serializer its ``write`` calls)
WRITERS = {
    "model.npz": (_save, (np, "savez")),
    "best.npz": (_mirror, (shutil, "copyfileobj")),
    "LATEST.json": (_publish, (json, "dump")),
    "manifest.json": (write_model_store, (json, "dump")),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
class TestAtomicWrites:
    """The four files replaced in place share one durable writer."""

    @pytest.fixture
    def written(self, name, trained_tiny_model, tmp_path):
        """(rewrite, target): the target exists, ``rewrite()`` replaces it."""
        writer = WRITERS[name][0]
        model = trained_tiny_model[0]
        writer(model, tmp_path)
        return (lambda: writer(model, tmp_path)), tmp_path / name

    @staticmethod
    def _assert_untouched(target, before):
        assert target.read_bytes() == before
        # The aborted attempt must not leave temporary files behind.
        assert [p.name for p in target.parent.iterdir() if p.name.endswith(".tmp")] == []

    def test_failed_serialization_preserves_existing(self, name, written, monkeypatch):
        rewrite, target = written
        before = target.read_bytes()

        def exploding(*args, **kwargs):
            handle = next(a for a in args if hasattr(a, "write") and a.writable())
            garbage = "partial garbage that must never reach the target"
            handle.write(garbage if isinstance(handle, io.TextIOBase) else garbage.encode())
            raise IOError("disk full")

        monkeypatch.setattr(*WRITERS[name][1], exploding)
        with pytest.raises(IOError, match="disk full"):
            rewrite()
        monkeypatch.undo()
        self._assert_untouched(target, before)

    def test_failed_replace_preserves_existing(self, name, written, monkeypatch):
        rewrite, target = written
        before = target.read_bytes()
        replace = os.replace

        def exploding_replace(src, dst):
            if os.path.basename(dst) != name:
                return replace(src, dst)  # e.g. the checkpoint best.npz mirrors
            raise OSError("crash between write and rename")

        monkeypatch.setattr(persistence.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="crash between"):
            rewrite()
        monkeypatch.undo()
        self._assert_untouched(target, before)

    def test_file_and_directory_are_synced(self, name, written, monkeypatch):
        rewrite, target = written
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            return fsync(fd)

        def recording_replace(src, dst):
            events.append(os.path.basename(dst))
            return replace(src, dst)

        monkeypatch.setattr(persistence.os, "fsync", recording_fsync)
        monkeypatch.setattr(persistence.os, "replace", recording_replace)
        rewrite()
        # The target is the last file each writer puts in place.
        assert events[-3:] == ["file", name, "dir"]
        assert events.count(name) == 1


class TestOnDiskNames:
    def test_both_formats_keep_their_names(self, trained_tiny_model, tmp_path):
        """Files written by an earlier commit load here and the reverse:
        the names a model is stored under are literals, in both formats."""
        model = trained_tiny_model[0]
        assert model.top_neighbours is not None
        arrays = {f"param/{name}" for name in model.state_dict()} | {
            "tables/items", "tables/item_mask", "tables/friends", "tables/friend_mask"
        }
        assert "param/user_embedding.weight" in arrays
        save_model(model, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as archive:
            assert set(archive.files) == arrays | {
                "__version__", "__config__", "__num_users__", "__num_items__"
            }
            assert int(archive["__version__"]) == 2
            assert int(archive["__num_users__"]) == model.num_users
        write_model_store(model, tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["format"] == "repro.cluster.weights/v1"
        assert set(manifest["arrays"]) == arrays
        assert set(manifest["meta"]) == {"config", "num_users", "num_items", "dtype"}
        assert manifest["meta"]["config"] == str(np.load(tmp_path / "model.npz")["__config__"])


def _resumable(tiny_split, directory):
    """(model, path): a published snapshot carrying optimizer moments,
    RNG state and the online schedule payload beside the weights."""
    model, __ = build_model(tiny_split, TINY_MODEL_CONFIG)
    trainer = OnlineTrainer(
        model,
        tiny_split.train,
        SnapshotPublisher(directory),
        config=OnlineTrainerConfig(batch_size=8),
        training=TrainingConfig(batch_size=8, grad_clip=0.0, seed=3),
    )
    for event in generate_events(tiny_split.train, 24, rng=np.random.default_rng(3)):
        trainer.ingest(event)
    return model, trainer.publish().path


class TestStoredEncoding:
    """Archives are written uncompressed; deflated ones still load."""

    def test_every_member_is_stored(self, tiny_split, tmp_path):
        __, path = _resumable(tiny_split, tmp_path)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert any(m.filename.startswith("optim/") for m in members)
        assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}

    def test_deflated_archive_loads_the_same(self, tiny_split, tmp_path):
        model, path = _resumable(tiny_split, tmp_path)
        deflated = tmp_path / "deflated.npz"
        with np.load(path, allow_pickle=False) as archive:
            np.savez_compressed(deflated, **dict(archive))
        with zipfile.ZipFile(deflated) as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_DEFLATED}
        loaded, state = load_checkpoint(deflated)
        __, stored = load_checkpoint(path)
        for name, weight in model.state_dict().items():
            assert np.array_equal(loaded.state_dict()[name], weight), name
        assert roundtrip_equal(load_model(deflated), model)
        moments = state.trainer["optimizer"].pop("arrays")
        stored_moments = stored.trainer["optimizer"].pop("arrays")
        assert moments and moments.keys() == stored_moments.keys()
        for key in moments:
            assert np.array_equal(moments[key], stored_moments[key]), key
        assert state == stored


class TestTrainingStatePayload:
    def test_weight_only_checkpoint_has_no_state(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        save_model(model, tmp_path / "model.npz")
        __, state = load_checkpoint(tmp_path / "model.npz")
        assert state is None
        assert checkpoint_metadata(tmp_path / "model.npz") == {}

    def test_schedule_and_metric_roundtrip(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = save_checkpoint(
            model,
            tmp_path / "model.npz",
            schedule={"position": {"group_epochs_done": 7}},
            metric=0.25,
        )
        __, state = load_checkpoint(path)
        assert state.schedule == {"position": {"group_epochs_done": 7}}
        assert state.metric == 0.25
        assert checkpoint_metadata(path)["metric"] == 0.25

    def test_wrong_world_size_rejected(self, trained_tiny_model, tmp_path):
        from repro.core import GroupSA

        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        other = GroupSA(model.num_users + 1, model.num_items, model.config)
        with pytest.raises(ValueError, match="world"):
            load_checkpoint(path, model=other)
