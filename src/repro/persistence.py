"""Model checkpointing: save/load a trained GroupSA with its wiring.

A checkpoint bundles the weights, the model configuration and the
Top-H neighbour tables into one ``.npz`` archive, so a trained model
can be reloaded for serving without re-deriving anything from the
training split.

Format v2 optionally extends the archive with *training* state — the
optimizer moments, the trainer's RNG bit-generator state, epoch
counters and the two-stage schedule position — so an interrupted run
can resume and produce bit-identical results (see
:mod:`repro.training.checkpointing`).  v1 weight-only checkpoints
remain loadable.

Members are stored uncompressed (``np.savez``, ``zipfile.ZIP_STORED``):
at 1 000 items a resumable snapshot is ~6 % larger than deflated
(3.85 against 3.64 MB) and zlib was nearly all of a publish.  The
readers do not care — ``np.load`` reads stored and deflated members
alike — so archives written deflated by earlier versions load
unchanged.  :func:`load_model` reads only the serving half (config,
``param/*``, ``tables/*``); :func:`load_checkpoint` adds the training
state.

All writes are atomic: the archive is serialized to a temporary file
in the target directory, fsynced, and moved into place with
``os.replace``.  A crash mid-write can never corrupt an existing
checkpoint at the target path.  :func:`atomic_write` is that writer, also
behind ``best.npz``, ``LATEST.json`` and a weight store's manifest; the
store shares :func:`model_arrays` / :func:`model_meta` as well.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import IO, Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.config import GroupSAConfig
from repro.core.groupsa import GroupSA
from repro.data.loaders import TopNeighbours

PathLike = Union[str, Path]

_FORMAT_VERSION = 2
#: Versions this reader understands.  v1 is the original weight-only
#: layout; v2 adds the optional ``optim/*`` + ``__train_meta__`` entries.
_COMPAT_VERSIONS = frozenset({1, 2})


@dataclasses.dataclass(frozen=True)
class TrainingState:
    """Training-time state carried by a v2 checkpoint.

    ``trainer`` is the :meth:`GroupSATrainer.state_dict` payload
    (optimizer moments, RNG states, epoch counters, history);
    ``schedule`` is the two-stage schedule position recorded by
    :func:`repro.training.two_stage.fit_groupsa`; ``metric`` is the
    retention metric the writer attached (lower-is-better group loss by
    default).  Any of them may be ``None`` for weight-only checkpoints.
    """

    trainer: Optional[Dict[str, Any]] = None
    schedule: Optional[Dict[str, Any]] = None
    metric: Optional[float] = None


def _normalize_path(path: PathLike) -> Path:
    """Resolve the on-disk archive name for ``path``.

    ``np.savez`` silently appends ``.npz`` to suffix-less
    names, which historically made ``save_model(m, "ckpt")`` /
    ``load_model("ckpt")`` disagree about the file name.  Both sides now
    normalize through this helper so they always address the same file.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def atomic_write(
    path: PathLike, write: Callable[[IO], None], *, text: bool = False
) -> None:
    """Durably replace ``path`` with what ``write(handle)`` serializes.

    Temporary file in the target directory (binary, or UTF-8 when
    ``text``), flush, fsync, ``os.replace``, directory fsync; a failing
    ``write`` or rename leaves the previous file untouched and no
    ``*.tmp`` behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(
            fd, "w" if text else "wb", encoding="utf-8" if text else None
        ) as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    # Make the rename itself durable (best effort; not all filesystems
    # support fsync on directories).
    with contextlib.suppress(OSError):
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def decode_config(raw_json: str) -> GroupSAConfig:
    """Parse a serialized :class:`GroupSAConfig`, tolerating newer writers.

    Unknown keys (fields added by a later version of the code) are
    dropped with a warning instead of crashing ``GroupSAConfig(**raw)``
    with a ``TypeError``, so older readers stay forward compatible.
    """
    raw = json.loads(raw_json)
    known = {field.name for field in dataclasses.fields(GroupSAConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        warnings.warn(
            f"checkpoint config has unknown keys {unknown}; "
            "ignoring them (written by a newer version?)",
            RuntimeWarning,
            stacklevel=3,
        )
        raw = {key: value for key, value in raw.items() if key in known}
    for key in ("prediction_hidden", "fusion_hidden"):
        if key in raw:
            raw[key] = tuple(raw[key])
    return GroupSAConfig(**raw)


def _check_version(archive) -> int:
    version = int(archive["__version__"])
    if version not in _COMPAT_VERSIONS:
        supported = sorted(_COMPAT_VERSIONS)
        raise ValueError(
            f"unsupported checkpoint version {version} (supported: {supported})"
        )
    return version


_TABLE_FIELDS = ("items", "item_mask", "friends", "friend_mask")


def model_arrays(model: GroupSA) -> Dict[str, np.ndarray]:
    """``param/<name>`` weights plus the ``tables/*`` Top-H neighbour
    arrays, the names both on-disk formats store a model under."""
    arrays = {f"param/{name}": w for name, w in model.state_dict().items()}
    tables = model.top_neighbours
    if tables is not None:
        for field in _TABLE_FIELDS:
            arrays[f"tables/{field}"] = getattr(tables, field)
    return arrays


def model_meta(model: GroupSA) -> Dict[str, Any]:
    """What rebuilds an empty model of the same shape (config as JSON)."""
    return {
        "config": json.dumps(dataclasses.asdict(model.config)),
        "num_users": model.num_users,
        "num_items": model.num_items,
    }


def top_neighbours_from(arrays) -> Optional[TopNeighbours]:
    """The tables :func:`model_arrays` stored in ``arrays`` (an open
    archive or a weight store), ``None`` if the model had none."""
    if "tables/items" not in arrays:
        return None
    return TopNeighbours(**{f: arrays[f"tables/{f}"] for f in _TABLE_FIELDS})


def save_checkpoint(
    model: GroupSA,
    path: PathLike,
    *,
    trainer_state: Optional[Dict[str, Any]] = None,
    schedule: Optional[Dict[str, Any]] = None,
    metric: Optional[float] = None,
) -> Path:
    """Atomically write a v2 checkpoint; returns the normalized path.

    With only ``model`` this is a weight-only checkpoint (what
    :func:`save_model` writes).  ``trainer_state`` is the payload of
    :meth:`GroupSATrainer.state_dict`; its optimizer arrays are stored
    as native ``.npz`` entries and everything else as JSON metadata.
    """
    path = _normalize_path(path)
    payload = {"__version__": np.array(_FORMAT_VERSION), **model_arrays(model)}
    for key, value in model_meta(model).items():
        payload[f"__{key}__"] = np.array(value)
    meta: Dict[str, Any] = {}
    if trainer_state is not None:
        optimizer = trainer_state["optimizer"]
        for key, array in optimizer["arrays"].items():
            payload[f"optim/{key}"] = array
        meta["trainer"] = {
            **{k: v for k, v in trainer_state.items() if k != "optimizer"},
            "optimizer": {k: v for k, v in optimizer.items() if k != "arrays"},
        }
    if schedule is not None:
        meta["schedule"] = schedule
    if metric is not None:
        meta["metric"] = float(metric)
    if meta:
        payload["__train_meta__"] = np.array(json.dumps(meta))
    atomic_write(path, lambda handle: np.savez(handle, **payload))
    return path


def _load_weights(
    archive, model: Optional[GroupSA], dtype: Optional[str]
) -> GroupSA:
    """The serving half of an open checkpoint: config, the size check,
    ``param/*`` cast into the model and the ``tables/*``.  Reads no
    ``optim/*`` member and not the training metadata."""
    _check_version(archive)
    config = decode_config(str(archive["__config__"]))
    if dtype is not None:
        config = config.variant(dtype=dtype)
    num_users = int(archive["__num_users__"])
    num_items = int(archive["__num_items__"])
    if model is None:
        model = GroupSA(num_users, num_items, config)
    elif model.num_users != num_users or model.num_items != num_items:
        raise ValueError(
            f"checkpoint holds a {num_users}x{num_items} world but the "
            f"model is {model.num_users}x{model.num_items}"
        )
    parameters = dict(model.named_parameters())
    state = {
        name[len("param/") :]: archive[name]
        for name in archive.files
        if name.startswith("param/")
    }
    state = {
        name: (
            array.astype(parameters[name].data.dtype, copy=False)
            if name in parameters
            else array
        )
        for name, array in state.items()
    }
    model.load_state_dict(state)
    tables = top_neighbours_from(archive)
    if tables is not None:
        model.set_top_neighbours(tables)
    return model


def load_checkpoint(
    path: PathLike,
    model: Optional[GroupSA] = None,
    *,
    dtype: Optional[str] = None,
) -> Tuple[GroupSA, Optional[TrainingState]]:
    """Load a checkpoint; returns ``(model, training_state)``.

    Pass ``model`` to load the weights into an existing instance (the
    resume path) instead of constructing a fresh one from the stored
    config.  ``training_state`` is ``None`` for weight-only checkpoints
    (including every v1 archive).

    ``dtype`` overrides the stored config's dtype policy, so a float64
    reference checkpoint can be served as a float32 model (or a float32
    run promoted back to float64).  With or without the override, the
    stored arrays are explicitly cast to each parameter's dtype —
    checkpoints written before the dtype field existed load unchanged.
    """
    path = _normalize_path(path)
    with np.load(path, allow_pickle=False) as archive:
        model = _load_weights(archive, model, dtype)
        training_state = None
        if "__train_meta__" in archive.files:
            meta = json.loads(str(archive["__train_meta__"]))
            trainer = meta.get("trainer")
            if trainer is not None:
                trainer["optimizer"]["arrays"] = {
                    name[len("optim/") :]: archive[name]
                    for name in archive.files
                    if name.startswith("optim/")
                }
            training_state = TrainingState(
                trainer=trainer,
                schedule=meta.get("schedule"),
                metric=meta.get("metric"),
            )
    return model, training_state


def save_model(model: GroupSA, path: PathLike) -> None:
    """Write a weight-only checkpoint of ``model`` to ``path`` (``.npz``)."""
    save_checkpoint(model, path)


def load_model(path: PathLike, *, dtype: Optional[str] = None) -> GroupSA:
    """Reconstruct a GroupSA model from a checkpoint written by
    :func:`save_model` or :func:`save_checkpoint` (v1 or v2).

    Reads only the serving half: the optimizer moments and training
    metadata a resumable checkpoint carries stay unread (resume goes
    through :func:`load_checkpoint`).  ``dtype`` optionally overrides
    the stored dtype policy (see :func:`load_checkpoint`).
    """
    with np.load(_normalize_path(path), allow_pickle=False) as archive:
        return _load_weights(archive, None, dtype)


def roundtrip_equal(model: GroupSA, other: GroupSA) -> bool:
    """Whether two models have identical weights (testing helper)."""
    own = model.state_dict()
    theirs = other.state_dict()
    if set(own) != set(theirs):
        return False
    return all(np.array_equal(own[name], theirs[name]) for name in own)


def checkpoint_info(path: PathLike) -> Tuple[GroupSAConfig, int, int]:
    """Read (config, num_users, num_items) without building the model."""
    with np.load(_normalize_path(path), allow_pickle=False) as archive:
        _check_version(archive)
        return (
            decode_config(str(archive["__config__"])),
            int(archive["__num_users__"]),
            int(archive["__num_items__"]),
        )


def checkpoint_metadata(path: PathLike) -> Dict[str, Any]:
    """Read the JSON training metadata (schedule, metric) of a checkpoint.

    Returns ``{}`` for weight-only checkpoints; the optimizer arrays are
    not materialized (use :func:`load_checkpoint` for those).
    """
    with np.load(_normalize_path(path), allow_pickle=False) as archive:
        _check_version(archive)
        if "__train_meta__" not in archive.files:
            return {}
        return json.loads(str(archive["__train_meta__"]))
