"""Negative sampling for BPR-style pair-wise training.

The paper samples, for each positive (user, item) or (group, item)
example, ``N`` random items unobserved for that user/group (Eq. 21 /
Eq. 24 and the Training Method paragraph).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Sequence, Set

import numpy as np

from repro.utils import RngLike, ensure_rng


class NegativeSampler:
    """Uniform negative sampler with rejection against observed items."""

    def __init__(
        self,
        interacted: Sequence[Set[int]],
        num_items: int,
        rng: RngLike = None,
    ) -> None:
        if num_items <= 1:
            raise ValueError("need at least two items to sample negatives")
        self.interacted = interacted
        self.num_items = num_items
        self._rng = ensure_rng(rng)
        # What sample_many tests membership against: the observed pairs
        # as sorted ``entity * num_items + item`` codes.  Items no draw
        # can produce are left out (they would alias another entity's
        # codes); the leading -1 matches no pair and keeps the table,
        # and the lookup's "last code <= mine", defined when it is empty.
        self._seen_counts = np.fromiter(
            map(len, interacted), dtype=np.int64, count=len(interacted)
        )
        items = np.fromiter(
            chain.from_iterable(interacted), dtype=np.int64, count=self._seen_counts.sum()
        )
        owners = np.repeat(np.arange(len(interacted)), self._seen_counts)
        drawable = (items >= 0) & (items < num_items)
        self._codes = np.sort(
            np.append(owners[drawable] * num_items + items[drawable], -1)
        )

    def sample(self, entity: int, count: int) -> np.ndarray:
        """Draw ``count`` items not interacted with by ``entity``."""
        seen = self.interacted[entity]
        if len(seen) >= self.num_items:
            raise ValueError(f"entity {entity} has interacted with every item")
        negatives = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            draw = self._rng.integers(0, self.num_items, size=count - filled)
            fresh = [int(item) for item in draw if int(item) not in seen]
            take = min(len(fresh), count - filled)
            negatives[filled : filled + take] = fresh[:take]
            filled += take
        return negatives

    def sample_many(self, entities: np.ndarray, count: int) -> np.ndarray:
        """(len(entities), count) negatives: what :meth:`sample` returns
        entity by entity, from the same draws.

        ``integers(size=k)`` once and ``size=1`` k times are the same
        values and leave the generator in the same state, so the
        per-entity loop is one stream of draws, each tested against the
        entity of the slot being filled and advancing it when accepted.
        Here the stream is drawn a block at a time: as many draws as
        slots are open, tested in one vectorised lookup, kept up to the
        first rejection; the rest of the block slides one slot back.
        """
        entities = np.asarray(entities, dtype=np.int64)
        exhausted = entities[self._seen_counts[entities] >= self.num_items]
        if exhausted.size:
            raise ValueError(f"entity {exhausted[0]} has interacted with every item")
        slot_codes = np.repeat(entities, count) * self.num_items
        negatives = np.empty(slot_codes.size, dtype=np.int64)
        draws = negatives[:0]
        filled = 0
        while filled < negatives.size:
            if draws.size == 0:
                draws = self._rng.integers(
                    0, self.num_items, size=negatives.size - filled
                )
            codes = slot_codes[filled : filled + draws.size] + draws
            nearest = self._codes[np.searchsorted(self._codes, codes, side="right") - 1]
            rejected = np.flatnonzero(nearest == codes)
            accepted = rejected[0] if rejected.size else draws.size
            negatives[filled : filled + accepted] = draws[:accepted]
            filled += accepted
            draws = draws[accepted + 1 :]
        return negatives.reshape(len(entities), count)


def bpr_triple_batches(
    edges: np.ndarray,
    sampler: NegativeSampler,
    batch_size: int = 256,
    negatives_per_positive: int = 1,
    rng: RngLike = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (entity, positive, negative) batches for one epoch.

    Each positive edge is replicated ``negatives_per_positive`` times,
    once per sampled negative, matching the paper's parameter ``N``.
    """
    if len(edges) == 0:
        return
    generator = ensure_rng(rng)
    order = generator.permutation(len(edges))
    for start in range(0, len(order), batch_size):
        batch = edges[order[start : start + batch_size]]
        entities = np.repeat(batch[:, 0], negatives_per_positive)
        positives = np.repeat(batch[:, 1], negatives_per_positive)
        negatives = sampler.sample_many(batch[:, 0], negatives_per_positive).reshape(-1)
        yield entities, positives, negatives


def sample_evaluation_candidates(
    entity: int,
    interacted: Sequence[Set[int]],
    num_items: int,
    num_candidates: int = 100,
    rng: RngLike = None,
) -> np.ndarray:
    """Sample the paper's 100 never-interacted candidate items.

    Used by the ranking protocol of Section III-C: the positive test
    item is ranked against these candidates.
    """
    generator = ensure_rng(rng)
    seen = interacted[entity]
    available = num_items - len(seen)
    if available <= 0:
        raise ValueError(f"entity {entity} has no unseen items left")
    count = min(num_candidates, available)
    candidates: List[int] = []
    chosen: Set[int] = set()
    while len(candidates) < count:
        draw = generator.integers(0, num_items, size=count - len(candidates))
        for item in draw:
            item = int(item)
            if item not in seen and item not in chosen:
                candidates.append(item)
                chosen.add(item)
    return np.array(candidates, dtype=np.int64)
