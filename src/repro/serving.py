"""A small serving layer over trained models.

Wraps a checkpoint plus dataset into a request-oriented service:
Top-K for users, dataset groups and ad-hoc member lists, with
explanation payloads (voting weights) and basic input validation —
the surface an application would actually integrate against.

Three execution modes share this surface, and one scoring core
(:class:`~repro.engine.scorer.Scorer`) ranks in all of them:

- **direct** (the default): a scorer over the whole catalog; every
  request runs its own forward pass;
- **engine-backed**: requests route through an
  :class:`~repro.engine.service.InferenceEngine` — precomputed score
  caches, micro-batched forward passes and a metrics registry — and
  return the same recommendation lists.  Enable with
  :meth:`RecommendationService.enable_engine`.
- **cluster-backed**: Top-K computation scatters across a pool of
  shard worker processes through a
  :class:`~repro.cluster.router.ShardRouter` (shared mmap-backed
  weights, exact cross-shard merge) and returns the same
  recommendation lists.  Enable with
  :meth:`RecommendationService.enable_cluster`; explanations stay
  in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.groupsa import GroupSA
from repro.data.dataset import GroupRecommendationDataset
from repro.engine.scorer import RequestViews, Scorer, VersionedTopK
from repro.engine.service import EngineConfig, InferenceEngine
from repro.obs.spans import span
from repro.persistence import load_model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.cluster.router import ClusterConfig, ShardRouter


@dataclass
class Recommendation:
    """One ranked recommendation list plus its explanation.

    ``trace_id`` correlates the response with the request's span tree
    in the tracer's span log; it is ``None`` whenever tracing is off
    (see docs/observability.md, "Serving observability").

    ``model_version`` is the version of the model that actually scored
    this request — captured atomically with the scores, so during a
    hot-swap it names the exact snapshot served (see docs/online.md).
    It is ``None`` when the service has never been given a version.
    """

    entity: str
    items: List[int]
    scores: List[float]
    voting_weights: Optional[Dict[int, float]] = None
    trace_id: Optional[str] = None
    model_version: Optional[int] = None


@dataclass
class RecommendationService:
    """Serve Top-K requests from a trained GroupSA model.

    Build directly or from a checkpoint::

        service = RecommendationService.from_checkpoint("model.npz", dataset)
        service.recommend_for_group(3, k=5)
        service.recommend_for_members([1, 2, 3], k=5)

    Call :meth:`enable_engine` to route Top-K computation through the
    batched inference engine, or :meth:`enable_cluster` to scatter it
    across shard worker processes; explanations and payload shapes
    are unchanged either way.
    """

    model: GroupSA
    dataset: GroupRecommendationDataset
    engine: Optional[InferenceEngine] = None
    router: Optional["ShardRouter"] = None
    model_version: Optional[int] = None
    _views: RequestViews = field(init=False, repr=False)
    _scorer: Scorer = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._views = RequestViews(self.dataset)
        # Direct mode: the core over the whole catalog.  Its constructor
        # rejects a model whose table sizes are not the dataset's.
        self._scorer = Scorer(self.model, self._views, self.model_version)

    @classmethod
    def from_checkpoint(
        cls,
        path,
        dataset: GroupRecommendationDataset,
        engine_config: Optional[EngineConfig] = None,
        use_engine: bool = False,
    ) -> "RecommendationService":
        service = cls(model=load_model(path), dataset=dataset)
        if use_engine or engine_config is not None:
            service.enable_engine(engine_config)
        return service

    # ------------------------------------------------------------------
    # Engine mode
    # ------------------------------------------------------------------

    def enable_engine(self, config: Optional[EngineConfig] = None) -> InferenceEngine:
        """Switch to engine-backed serving; returns the engine."""
        if self.engine is None:
            self.engine = InferenceEngine(
                self.model,
                self._views,
                config=config,
                model_version=self.model_version or 0,
            )
        return self.engine

    def enable_cluster(
        self,
        config: Optional["ClusterConfig"] = None,
        workdir=None,
        dataset_path=None,
    ) -> "ShardRouter":
        """Switch to cluster-backed serving; returns the router.

        Launches a pool of shard worker processes sharing one
        mmap-backed weight store (see docs/serving.md, "Sharded
        multi-process serving").  Top-K computation scatters across
        the pool; explanation payloads (voting weights) are still
        computed in-process from ``self.model``.  When both an engine
        and a router are enabled, the router takes precedence.
        """
        if self.router is None:
            from repro.cluster.router import ShardRouter

            self.router = ShardRouter.launch(
                self.model,
                self.dataset,
                config=config,
                workdir=workdir,
                dataset_path=dataset_path,
            )
        return self.router

    def apply_model(self, model: GroupSA, version: int) -> int:
        """Hot-swap the service onto ``model`` at ``version``.

        Propagates the swap through whichever execution mode is live:
        the engine gets :meth:`InferenceEngine.swap_model` (atomic
        bundle swap, in-flight batches unaffected), the cluster router
        gets :meth:`ShardRouter.swap_model` (rolling per-worker store
        re-attach), and direct mode rebinds its scorer.  Explanations
        always follow the new model.  Returns ``version``.

        Validate, then swap: the new direct scorer is built first and
        rejects a model of the wrong size with ``ValueError``; the
        router, the one step that does I/O, swaps next; the engine and
        the rebinds, in process and already validated, come last.  A
        rejected model therefore leaves the old version serving in
        every mode.
        """
        version = int(version)
        with span("service.apply_model", mode=self._mode(), version=version):
            scorer = Scorer(model, self._views, version)
            if self.router is not None:
                self.router.swap_model(model, version=version)
            if self.engine is not None:
                self.engine.swap_model(model, version=version)
            self.model = model
            self._scorer = scorer
            self.model_version = version
        return version

    def close(self) -> None:
        """Stop the engine worker and/or shard workers, if attached."""
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.router is not None:
            self.router.close()
            self.router = None

    def telemetry_snapshot(self) -> Optional[dict]:
        """The engine's telemetry snapshot (None in direct mode)."""
        return self.engine.telemetry_snapshot() if self.engine is not None else None

    def fleet_metrics(self):
        """One merged :class:`~repro.obs.metrics_registry.MetricsRegistry`
        covering whichever execution tiers are live.

        Cluster mode folds in every reachable worker's registry (exact
        histogram merge); engine mode contributes the engine's
        registry; direct mode yields an empty registry.  This is the
        one scrape point for a serving process.
        """
        from repro.obs.metrics_registry import MetricsRegistry

        merged = MetricsRegistry()
        if self.router is not None:
            merged.merge(self.router.metrics())
        if self.engine is not None:
            merged.merge(self.engine.registry)
        return merged

    # ------------------------------------------------------------------

    def recommend_for_user(self, user: int, k: int = 10) -> Recommendation:
        """Top-K items for an individual user (seen items excluded)."""
        self._views.check("user", user, k)
        with span(
            "service.recommend_for_user", mode=self._mode(), user=int(user), k=k
        ) as root:
            topk, __ = self._topk("user", user, k)
            return self._recommendation(f"user:{user}", topk, None, root)

    def recommend_for_group(self, group: int, k: int = 10) -> Recommendation:
        """Top-K items for a dataset group, with voting explanation."""
        self._views.check("group", group, k)
        with span(
            "service.recommend_for_group", mode=self._mode(), group=int(group), k=k
        ) as root:
            topk, model = self._topk("group", group, k)
            weights = None
            if topk[0].size:
                weights = self._explain(model, group, int(topk[0][0]))
            return self._recommendation(f"group:{group}", topk, weights, root)

    def recommend_for_members(
        self, members: Sequence[int], k: int = 10
    ) -> Recommendation:
        """Top-K items for an ad-hoc member list (true OGR serving).

        Duplicate member ids collapse to one vote: the model scores the
        *set* of members, and ``voting_weights`` is keyed by the
        canonical member order (ascending unique ids — the order the
        ad-hoc batch feeds the voting network).
        """
        canonical = self._views.check("adhoc", members, k)
        with span(
            "service.recommend_for_members",
            mode=self._mode(),
            member_count=len(canonical),
            k=k,
        ) as root:
            # One batch serves ranking, scores and the explanation.
            adhoc = self._views.adhoc(canonical)
            topk, model = self._topk("adhoc", canonical, k, adhoc)
            weights = None
            if topk[0].size:
                gamma = model.member_attention(adhoc[0], topk[0][:1])[0]
                # gamma follows the ad-hoc batch's member axis, which is
                # exactly `canonical`; zip them explicitly.
                weights = {int(m): float(w) for m, w in zip(canonical, gamma)}
            entity = f"adhoc:{','.join(str(m) for m in members)}"
            return self._recommendation(entity, topk, weights, root)

    # ------------------------------------------------------------------

    def _mode(self) -> str:
        if self.router is not None:
            return "cluster"
        return "engine" if self.engine is not None else "direct"

    def _explain(self, model: GroupSA, group: int, item: int) -> Dict[int, float]:
        members = self.dataset.group_members[group]
        gamma = model.member_attention(
            self._views.batcher.batch([group]), np.array([item])
        )[0]
        return {int(m): float(w) for m, w in zip(members, gamma[: members.size])}

    def _topk(
        self, kind: str, arg, k: int, adhoc=None
    ) -> Tuple[VersionedTopK, GroupSA]:
        """The one dispatch: router, else engine, else the direct scorer.

        Also returns the model to explain the list with.  In direct and
        engine mode that is the model that ranked it.  The router reads
        ``self.model`` after ranking, so a swap landing in between can
        still pair a cluster list with another version's explanation.
        """
        if self.router is not None:
            return self.router.topk(kind, arg, k), self.model
        if self.engine is not None:
            items, scores, version, model = self.engine.topk(
                kind, arg, k, versioned=True, adhoc=adhoc
            )
            return (items, scores, version), model
        scorer = self._scorer  # one read: list, version and explanation
        with span("direct.score"):
            topk = scorer.rank(kind, arg, k, adhoc=adhoc) + (scorer.version,)
        return topk, scorer.model

    @staticmethod
    def _recommendation(
        entity: str, topk: VersionedTopK, weights: Optional[Dict[int, float]], root
    ) -> Recommendation:
        items, scores, version = topk
        return Recommendation(
            entity=entity,
            items=items.tolist(),
            scores=scores.tolist(),
            voting_weights=weights,
            trace_id=root.trace_id if root is not None else None,
            model_version=version,
        )
