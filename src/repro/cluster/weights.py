"""Shared weight store: one on-disk copy of the model, N memmap views.

A cluster of worker processes must not hold N private copies of the
embedding tables — at millions-of-users scale the tables *are* the
memory footprint.  :class:`SharedWeightStore` writes every model array
once into a single binary blob (64-byte aligned, described by a JSON
manifest) and lets any number of processes attach read-only
``np.memmap`` views.  The OS page cache backs all views with the same
physical pages, so worker RSS grows only with the rows a worker
actually touches, and attach time is O(1) regardless of table size.

Layout of a store directory::

    store/
      manifest.json   # {"arrays": {name: {dtype, shape, offset}}, "meta": ...}
      weights.bin     # raw little-endian array bytes, 64-byte aligned

The manifest is written last (atomically via ``os.replace``), so a
partially written store is never attachable.

On top of the generic store sit two model-shaped helpers:
:func:`write_model_store` serializes a trained
:class:`~repro.core.groupsa.GroupSA` (parameters + Top-H neighbour
tables + config), and :func:`attach_shared_model` rebuilds a model
whose parameters *are* the read-only mapped arrays — forward passes
gather rows out of the shared pages without ever copying a table.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.groupsa import GroupSA
from repro.persistence import (
    atomic_write,
    decode_config,
    model_arrays,
    model_meta,
    top_neighbours_from,
)

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
DATA_NAME = "weights.bin"
_ALIGNMENT = 64
_FORMAT = "repro.cluster.weights/v1"


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


class SharedWeightStore:
    """Read-only mapped view over a store directory.

    Build one with :meth:`create` (writer side) or :meth:`attach`
    (worker side); access arrays with ``store[name]``.  Every array is
    an ``np.memmap`` opened mode ``"r"`` — attempting to write raises,
    which is exactly the contract serving workers want.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no weight-store manifest at {manifest_path} "
                "(create one with SharedWeightStore.create)"
            )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != _FORMAT:
            raise ValueError(
                f"unsupported weight-store format {manifest.get('format')!r}"
            )
        self.meta: Dict = manifest.get("meta", {})
        self._entries: Dict[str, Dict] = manifest["arrays"]
        data_path = self.directory / DATA_NAME
        self._arrays: Dict[str, np.memmap] = {}
        for name, entry in self._entries.items():
            self._arrays[name] = np.memmap(
                data_path,
                dtype=np.dtype(entry["dtype"]),
                mode="r",
                offset=int(entry["offset"]),
                shape=tuple(entry["shape"]),
            )

    # -- construction ----------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: PathLike,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Dict] = None,
    ) -> "SharedWeightStore":
        """Write ``arrays`` into ``directory`` and attach to the result."""
        if not arrays:
            raise ValueError("refusing to create an empty weight store")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries: Dict[str, Dict] = {}
        offset = 0
        data_path = directory / DATA_NAME
        with open(data_path, "wb") as handle:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                offset = _align(offset)
                handle.seek(offset)
                handle.write(array.tobytes())
                entries[name] = {
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                }
                offset += array.nbytes
            handle.flush()
            os.fsync(handle.fileno())
        manifest = {"format": _FORMAT, "arrays": entries, "meta": meta or {}}
        # Manifest last, atomically: attach() can never see a half store.
        atomic_write(
            directory / MANIFEST_NAME,
            lambda handle: json.dump(manifest, handle, indent=2, sort_keys=True),
            text=True,
        )
        return cls.attach(directory)

    @classmethod
    def attach(cls, directory: PathLike) -> "SharedWeightStore":
        """Map an existing store read-only (any number of processes)."""
        return cls(directory)

    # -- access ----------------------------------------------------------

    def names(self) -> list:
        return list(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __getitem__(self, name: str) -> np.memmap:
        return self._arrays[name]

    @property
    def nbytes(self) -> int:
        """Total mapped bytes (one physical copy however many attach)."""
        return sum(array.nbytes for array in self._arrays.values())


# ----------------------------------------------------------------------
# Versioned stores
# ----------------------------------------------------------------------


def versioned_store_dir(root: PathLike, version: int) -> Path:
    """Canonical directory for one model version's weight store."""
    return Path(root) / f"store-v{int(version):06d}"


class VersionedStoreGC:
    """Keep-last-N garbage collector over versioned store directories.

    The hot-swap router publishes one store directory per model version
    and rolls workers onto it one at a time.  A version directory may
    only be deleted once (a) it has fallen out of the keep-last-N
    window **and** (b) no tracked worker is still attached to it — a
    worker mid-roll (or one that failed its swap and is still serving
    an old version) keeps that version's mmap pages live, and deleting
    the backing file under an active ``np.memmap`` is undefined.

    Thread-safe; ``collect()`` is idempotent.
    """

    def __init__(self, keep_last: int = 2) -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.keep_last = int(keep_last)
        self._lock = threading.Lock()
        self._versions: Dict[int, Path] = {}
        self._attached: Dict[int, int] = {}  # worker id -> confirmed version

    def register(self, version: int, directory: PathLike) -> None:
        """Record a published store directory for ``version``."""
        with self._lock:
            self._versions[int(version)] = Path(directory)

    def confirm(self, worker_id: int, version: int) -> None:
        """Record that ``worker_id`` now serves from ``version``."""
        with self._lock:
            self._attached[int(worker_id)] = int(version)

    def attached_versions(self) -> Dict[int, int]:
        with self._lock:
            return dict(self._attached)

    def registered_versions(self) -> list:
        with self._lock:
            return sorted(self._versions)

    def collect(self) -> list:
        """Delete every collectable version directory; returns the paths.

        Collectable = outside the ``keep_last`` newest registered
        versions and not confirmed-attached by any tracked worker.
        """
        import shutil

        with self._lock:
            keep = set(sorted(self._versions)[-self.keep_last :])
            live = set(self._attached.values())
            doomed = [
                version
                for version in sorted(self._versions)
                if version not in keep and version not in live
            ]
            removed = []
            for version in doomed:
                directory = self._versions.pop(version)
                removed.append(directory)
        for directory in removed:
            shutil.rmtree(directory, ignore_errors=True)
        return removed


# ----------------------------------------------------------------------
# GroupSA-shaped store
# ----------------------------------------------------------------------


def write_model_store(model, directory: PathLike) -> SharedWeightStore:
    """Serialize a trained GroupSA into a shared weight store."""
    # ``dtype`` is redundant with the config JSON and per-array manifest
    # dtypes, but directly inspectable by ops tooling without parsing either.
    meta = {**model_meta(model), "dtype": model.config.dtype}
    return SharedWeightStore.create(directory, model_arrays(model), meta=meta)


def attach_shared_model(directory: PathLike):
    """Rebuild a GroupSA whose parameters are the store's mapped arrays.

    The returned model is read-only in the only sense that matters for
    serving: each :class:`~repro.nn.module.Parameter`'s ``data`` is a
    mode-``"r"`` memmap, so forward passes gather shared pages and any
    accidental in-place write raises immediately.
    """
    store = SharedWeightStore.attach(directory)
    config = decode_config(store.meta["config"])
    model = GroupSA(int(store.meta["num_users"]), int(store.meta["num_items"]), config)
    for name, parameter in model.named_parameters():
        mapped = store[f"param/{name}"]
        if parameter.data.shape != mapped.shape:
            raise ValueError(
                f"shape mismatch for '{name}': "
                f"{parameter.data.shape} vs {mapped.shape}"
            )
        # Replace the freshly initialized array outright (assignment,
        # not copy) so the table never exists as private memory.
        parameter.data = mapped
    tables = top_neighbours_from(store)
    if tables is not None:
        model.set_top_neighbours(tables)
    model.eval()
    return model
