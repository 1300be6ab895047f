"""The scoring core every serving mode ranks through.

Online recommendation is two predictors ranked over candidate items —
``r^G`` (Eq. 20) for a group, dataset or ad-hoc, and ``r^R`` (Eq. 23)
for a user — so every request is the same three steps: pick candidate
items, score them with the model, select the Top-K.  :class:`Scorer`
is the one implementation, bound to a model version and an *item
slice*; the serving modes are shells over it.  Direct mode is a scorer
over the whole catalog; the engine adds a queue and a row cache
(:mod:`repro.engine.service`); a cluster worker is one
scorer per shard plus the exact merge (:mod:`repro.cluster.worker`).

Candidates are always ascending owned ids with the excluded ones
dropped, or the ANN index's (ascending local positions mapped through
the ascending ``owned`` array), so ``topk_indices``'s positional
tie-break is an ascending-*global*-id tie-break in every slice and
:func:`repro.cluster.merge.merge_topk` reassembles the exact list.

Also here, because every shell needs them once: the dataset-side
:class:`RequestViews`, request validation, and the model-size check.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adhoc import build_adhoc_batch
from repro.data.loaders import GroupBatch, GroupBatcher
from repro.engine.ann import IVFIndex
from repro.engine.topk import exclusion_mask, topk_indices

TopK = Tuple[np.ndarray, np.ndarray]  # (global item ids, scores), best first
VersionedTopK = Tuple[np.ndarray, np.ndarray, int]  # + model_version served

_NO_PHASE = nullcontext()


def no_phase(name: str, **attrs):
    """The ``phase`` hook of an untraced request: a shared no-op."""
    return _NO_PHASE


def _empty() -> TopK:
    return np.empty(0, dtype=np.int64), np.empty(0)


# -- validation: one source per message, called at every entry point ----


def check_retrieval(retrieval: str) -> None:
    if retrieval not in ("exhaustive", "ann"):
        raise ValueError(
            f"unknown retrieval mode '{retrieval}' (choose 'exhaustive' or 'ann')"
        )


def check_model_size(model, num_users: int, num_items: int) -> None:
    """A model of another size raises on every request (smaller) or can
    never rank the catalog's tail (larger): reject it before it serves."""
    if model.num_users != num_users or model.num_items != num_items:
        raise ValueError(
            "model entity counts do not match the dataset: "
            f"model ({model.num_users} users, {model.num_items} items) vs "
            f"dataset ({num_users} users, {num_items} items)"
        )


def canonical_members(members: Sequence[int]) -> Tuple[int, ...]:
    """Frozen member key: duplicates collapsed, ascending order.

    Matches the member ordering
    :func:`repro.core.adhoc.build_adhoc_batch` produces via
    ``np.unique``, so gamma weights align with this tuple.
    """
    return tuple(int(m) for m in np.unique(np.asarray(members, dtype=np.int64)))


def _in_range(what: str, value: int, bound: int) -> int:
    if not 0 <= value < bound:
        raise IndexError(f"{what} {value} out of range [0, {bound})")
    return value


def check_request(kind: str, arg, k: int, num_users: int, num_groups: int):
    """Validate one request; returns its payload — an ``int`` id for
    ``user`` / ``group``, the canonical member tuple for ``adhoc``."""
    if kind == "user":
        payload = _in_range("user", int(arg), num_users)
    elif kind == "group":
        payload = _in_range("group", int(arg), num_groups)
    elif kind == "adhoc":
        if len(arg) == 0:
            raise ValueError("members must be a non-empty sequence of user ids")
        for member in arg:
            _in_range("member", int(member), num_users)
        payload = canonical_members(arg)
    else:
        raise ValueError(f"unknown request kind '{kind}'")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return payload


class RequestViews:
    """What a request needs from the dataset, whatever model serves it.

    Exclusion sets, the social view and the padded group batches depend
    only on the dataset, so one instance per process serves every item
    slice and every model version (the :class:`GroupBatcher` alone is
    tens of milliseconds to build).
    """

    def __init__(self, dataset) -> None:
        self.dataset = dataset
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        self.num_groups = dataset.num_groups
        self.user_items = dataset.user_items()
        self.group_items = dataset.group_items()
        self.friend_sets = dataset.friend_set()
        self.batcher = GroupBatcher(dataset)

    @classmethod
    def of(cls, dataset) -> "RequestViews":
        """``dataset`` itself when it already is the views, else built."""
        return dataset if isinstance(dataset, cls) else cls(dataset)

    def check(self, kind: str, arg, k: int):
        return check_request(kind, arg, k, self.num_users, self.num_groups)

    def adhoc(self, members: Sequence[int]) -> Tuple[GroupBatch, frozenset]:
        """One member list's one-row padded batch and the union of its
        members' interaction histories."""
        batch = build_adhoc_batch([list(members)], self.friend_sets)
        exclude = frozenset().union(*(self.user_items[int(m)] for m in members))
        return batch, exclude


class Scorer:
    """Top-K of user, group and ad-hoc requests over one item slice.

    ``owned`` is the ascending array of global item ids this scorer
    ranks (``None``: the whole catalog) and ``ann_index`` an optional
    :class:`IVFIndex` over exactly those rows; ``views`` is the
    process's :class:`RequestViews` (or the dataset, to build them);
    ``registry`` counts ``ann.queries`` / ``ann.candidates`` when given.
    A model whose table sizes are not the dataset's is a ``ValueError``.

    ``phase(name, **attrs)`` returns a context manager around each of
    ``candidates``, ``forward`` and ``topk``: :func:`repro.obs.spans.span`
    in the engine, a ``shard.``-prefixed recorder for a traced worker
    request, :func:`no_phase` everywhere else.
    """

    def __init__(
        self,
        model,
        views,
        version: Optional[int] = 0,
        owned: Optional[np.ndarray] = None,
        ann_index: Optional[IVFIndex] = None,
        ann_candidates: int = 256,
        registry=None,
    ) -> None:
        self.views = RequestViews.of(views)
        check_model_size(model, self.views.num_users, self.views.num_items)
        self.model = model
        self.version = version
        self._whole = owned is None
        #: Owned global item ids, ascending — local index i is owned[i].
        self.owned = (
            np.arange(self.views.num_items, dtype=np.int64) if owned is None else owned
        )
        self.ann_index = ann_index
        self.ann_candidates = int(ann_candidates)
        self.registry = registry

    def _mask(self, exclude) -> Optional[np.ndarray]:
        """This slice's part of the global exclusion mask."""
        mask = exclusion_mask(self.views.num_items, exclude)
        return mask if mask is None or self._whole else mask[self.owned]

    def candidates(self, exclude, members: Sequence[int], k: int) -> np.ndarray:
        """Global candidate ids of one request: ascending, owned, never
        excluded.  Exhaustive: every owned item but the excluded.  ANN:
        the index's answer (at least ``min(k, valid)`` ids) to the mean
        embedding row of ``members`` — the Section II-F fast path
        collapsed into embedding space, so one item index serves user
        (one "member"), group and ad-hoc traffic.
        """
        mask = self._mask(exclude)
        if self.ann_index is None:
            return self.owned if mask is None else self.owned[~mask]
        table = self.model.user_embedding.weight.data
        query = np.asarray(table[np.asarray(members, dtype=np.int64)], dtype=np.float64)
        local = self.ann_index.candidates(
            query.mean(axis=0), self.ann_candidates, exclude_mask=mask, min_results=k
        )
        if self.registry is not None:
            self.registry.counter("ann.queries").inc()
            self.registry.counter("ann.candidates").inc(int(local.size))
        return local if self._whole else self.owned[local]

    def rank_users(
        self,
        requests: Sequence[Tuple[int, int]],
        rows: Optional[np.ndarray] = None,
        phase=no_phase,
    ) -> List[TopK]:
        """Top-K of each ``(user, k)`` request, seen items excluded.

        All requests' candidates are scored in **one**
        ``score_user_items`` pass over their concatenation, so a flush
        shares one user-modeling forward over its distinct users.
        ``rows`` — one full-slice score row per request, from a cache —
        skips candidates and scoring: mask and Top-K only.
        """
        user_items = self.views.user_items
        count = len(requests)
        if rows is not None:
            with phase("topk", requests=count):
                picks = [
                    topk_indices(row, k, self._mask(user_items[user]))
                    for (user, k), row in zip(requests, rows)
                ]
            return [(self.owned[pick], row[pick]) for pick, row in zip(picks, rows)]
        with phase("candidates", requests=count, ann=self.ann_index is not None):
            pools = [self.candidates(user_items[u], [u], k) for u, k in requests]
        sizes = [pool.size for pool in pools]
        if not any(sizes):
            return [_empty() for __ in requests]
        users = np.repeat([user for user, __ in requests], sizes)
        with phase("forward", rows=int(users.size), requests=count):
            scores = self.model.score_user_items(users, np.concatenate(pools))
        results, stop = [], 0
        with phase("topk", requests=count):
            for (__, k), pool in zip(requests, pools):
                start, stop = stop, stop + pool.size
                pick = topk_indices(scores[start:stop], k)
                results.append((pool[pick], scores[start:stop][pick]))
        return results

    def rank(self, kind: str, arg, k: int, phase=no_phase, adhoc=None) -> TopK:
        """Top-K of one validated request: ``arg`` is a user id, a group
        id or a member tuple; ``adhoc`` is :meth:`RequestViews.adhoc` of
        that tuple when the caller already holds it (in every mode,
        the service's explanation batch).  A group, dataset or ad-hoc,
        is its one-row batch scored against its candidates.
        """
        views = self.views
        if kind == "user":
            return self.rank_users([(int(arg), k)], phase=phase)[0]
        if kind == "group":
            group = int(arg)
            members = views.dataset.group_members[group]
            batch, exclude = views.batcher.batch([group]), views.group_items[group]
        elif kind == "adhoc":
            members = arg
            batch, exclude = adhoc if adhoc is not None else views.adhoc(arg)
        else:
            raise ValueError(f"unknown request kind '{kind}'")
        with phase("candidates", ann=self.ann_index is not None):
            pool = self.candidates(exclude, members, k)
        if pool.size == 0:
            return _empty()
        with phase("forward", member_count=len(members), candidates=int(pool.size)):
            scores = self.model.score_group_items(batch, pool)
        with phase("topk"):
            pick = topk_indices(scores, k)
        return pool[pick], scores[pick]
