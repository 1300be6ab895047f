"""Per-layer measurement: bench-owned spans around public layer calls.

Nothing under ``src/`` is instrumented.  Every layer is timed from
outside by calling its public functions inside a :class:`Trace` span.
:class:`Layers` binds those calls to one fixture and offers them two ways:

- ``replay(mode, kind, arg)`` replays the layers one serving request
  crosses, standalone, as child spans of that request's span;
- ``suite()`` drives every layer of the repo once over a fixed sample of
  operations, so each workload's traced run reports the whole table in
  :data:`LAYERS`, measured at that workload's world size.
"""

from __future__ import annotations

import copy
import pickle
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.autograd.context import fused_ops, sparse_grads
from repro.cluster.merge import merge_topk
from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterConfig, ShardRouter
from repro.cluster.weights import attach_shared_model, write_model_store
from repro.cluster.worker import ShardScorer
from repro.core.adhoc import build_adhoc_batch
from repro.data.loaders import GroupBatch, GroupBatcher
from repro.data.sampling import bpr_triple_batches
from repro.engine.ann import IVFIndex, recall_at_k
from repro.engine.batching import MicroBatcher
from repro.engine.score_cache import ScoreCache
from repro.engine.service import EngineConfig
from repro.engine.topk import exclusion_mask, topk_indices
from repro.evaluation.ranking import top_k_items
from repro.graphs.tfidf import tfidf_top_neighbours
from repro.obs.spans import Tracer
from repro.online.events import EventLogReader, generate_events, write_event_log
from repro.online.snapshots import SnapshotPublisher
from repro.online.swap import ModelSwapper
from repro.online.trainer import OnlineTrainer
from repro.persistence import load_checkpoint
from repro.serving import RecommendationService
from repro.training.bpr import bpr_loss
from repro.training.trainer import GroupSATrainer, TrainingConfig

K = 10
#: Rows per score-cache block in the probes.  The serving default is 256;
#: a fill costs rows x items forward pairs, so the probes fill a small
#: block and report the cost per row.
PROBE_BLOCK_ROWS = 32
_ENGINE = EngineConfig()

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

#: name, unit, better, source span (None: a value the suite sets itself),
#: divisor attribute, and the end-to-end metric it should move (where).
#: The shares in brackets were measured at the benchmark's catalog sizes
#: (README, "What moves what") and replace the issue's guesses for an
#: 8 000-item world where they differ.
LAYERS = [
    ("data.generate_s", "s", "lower", "data.generate", None, "setup_s, all workloads [0.6 of 1.9 s on serve_direct]"),
    ("graphs.tfidf_top_neighbours_s", "s", "lower", "graphs.tfidf_top_neighbours", None, "setup_s, all workloads [1 %]"),
    ("data.batcher.batch_ms", "ms", "lower", "data.batcher.batch", None, "group_p50_ms on serve_direct, serve_engine [0.3 %: negligible]"),
    ("data.sampling.triples_ms", "ms", "lower", "data.sampling.triples", None, "train_user_steps_s, train_group_steps_s on train_two_stage [10 %, 8 % of a step]"),
    ("core.score_user_items.us_per_pair", "us", "lower", "core.score_user_items", "units", "user_p50_ms on serve_direct [98 %], serve_cluster and serve_ann [79 %: 233 candidates a request]; setup_s on serve_engine and staleness_p50_ms on online_cycle through the block fill"),
    ("core.score_group_items.us_per_row", "us", "lower", "core.score_group_items", "units", "group_p50_ms, adhoc_p50_ms, latency_p95_ms, throughput_ops_s on every serve workload [91-95 % of a group request exhaustive, 68 % on serve_ann]"),
    ("core.member_attention_ms", "ms", "lower", "core.member_attention", None, "group_p50_ms everywhere [1.5 % exhaustive, 8 % on serve_ann]"),
    ("core.adhoc.build_batch_ms", "ms", "lower", "core.adhoc.build_batch", None, "adhoc_p50_ms on the four serve workloads [under 1 %]"),
    ("core.user_score_components.forward_ms", "ms", "lower", "core.user_score_components.forward", None, "train_user_steps_s on train_two_stage [49 % of a step]"),
    ("core.group_scores.forward_ms", "ms", "lower", "core.group_scores.forward", None, "train_group_steps_s on train_two_stage [a third of a step]"),
    ("autograd.backward_user_ms", "ms", "lower", "autograd.backward_user", None, "train_user_steps_s on train_two_stage [40 %]; staleness_p50_ms slightly"),
    ("autograd.backward_group_ms", "ms", "lower", "autograd.backward_group", None, "train_group_steps_s on train_two_stage [over half of a step]; staleness_p50_ms slightly"),
    ("optim.adam.step_ms", "ms", "lower", "optim.adam.step", None, "train_user_steps_s, train_group_steps_s on train_two_stage [5 %, 4 %]"),
    ("optim.adam.sync_ms", "ms", "lower", "optim.adam.sync", None, "train_group_steps_s on train_two_stage (once an epoch of three steps); staleness_p50_ms via publish"),
    ("training.user_step_ms", "ms", "lower", "training.user_step", "units", "train_user_steps_s on train_two_stage: its reciprocal"),
    ("training.group_step_ms", "ms", "lower", "training.group_step", "units", "train_group_steps_s on train_two_stage: its reciprocal"),
    ("training.probe_coverage", "share", "higher", None, None, "none: layer time over real step time"),
    ("evaluation.top_k_items_ms", "ms", "lower", "evaluation.top_k_items", None, "user_p50_ms on serve_direct only [1 %]"),
    ("engine.topk.topk_indices_us", "us", "lower", "engine.topk.topk_indices", None, "user_p50_ms on serve_engine [28 % of a hit]; negligible elsewhere"),
    ("engine.topk.exclusion_mask_us", "us", "lower", "engine.topk.exclusion_mask", None, "user_p50_ms on serve_engine [5 % of a hit]; negligible elsewhere"),
    ("engine.score_cache.fill_row_ms", "ms", "lower", "engine.score_cache.fill", "units", "setup_s on serve_engine [256 rows: 51 %]; staleness_p50_ms on online_cycle [82 %]"),
    ("engine.score_cache.hit_us", "us", "lower", "engine.score_cache.hit", None, "user_p50_ms on serve_engine [16 % of a hit]"),
    ("engine.score_cache.hit_share", "share", "higher", None, None, "user_p50_ms on serve_engine"),
    ("engine.batching.batch_size_mean", "count", "higher", None, None, "none in a one-client closed loop"),
    ("engine.batching.roundtrip_us", "us", "lower", "engine.batching.roundtrip", None, "user_p50_ms on serve_engine [27 % of a hit], serve_ann [7 %]"),
    ("engine.batching.burst8_gain", "ratio", "higher", None, None, "none in a one-client closed loop; baseline for an open-loop workload"),
    ("engine.ann.build_s", "s", "lower", "engine.ann.build", None, "setup_s on serve_ann [1 %]"),
    ("engine.ann.candidates_us", "us", "lower", "engine.ann.candidates", None, "user_p50_ms [8 %], group_p50_ms [3 %], adhoc_p50_ms on serve_ann"),
    ("engine.ann.candidates_mean", "count", "lower", None, None, "the three p50s on serve_ann: the forwards run over this many items"),
    ("engine.ann.ip_recall_at_10", "share", "higher", None, None, "recall_at_10_mean on serve_ann"),
    ("engine.swap_model_ms", "ms", "lower", "engine.swap_model", None, "staleness_p50_ms on online_cycle [under 0.1 %]"),
    ("cluster.weights.write_store_s", "s", "lower", "cluster.weights.write_store", None, "setup_s on serve_cluster [under 1 %]"),
    ("cluster.weights.attach_ms", "ms", "lower", "cluster.weights.attach", None, "setup_s on serve_cluster [under 1 %]"),
    ("cluster.router.launch_s", "s", "lower", "cluster.router.launch", None, "setup_s on serve_cluster [1.2 of 3.0 s]"),
    ("cluster.router.close_s", "s", "lower", "cluster.router.close", None, "none: teardown is outside setup_s"),
    ("cluster.worker.score_slice_ms", "ms", "lower", "cluster.worker.score_slice", None, "the p50s on serve_cluster [the rest of a request]"),
    ("cluster.worker.busy_mean_ms", "ms", "lower", None, None, "the p50s on serve_cluster"),
    ("cluster.router.overhead_mean_ms", "ms", "lower", None, None, "user_p50_ms [9 %], throughput_ops_s on serve_cluster; none elsewhere"),
    ("cluster.wire.pickle_us", "us", "lower", "cluster.wire.pickle", None, "user_p50_ms [1 %], throughput_ops_s on serve_cluster; none elsewhere"),
    ("cluster.merge.merge_topk_us", "us", "lower", "cluster.merge.merge_topk", None, "user_p50_ms [0.2 %], throughput_ops_s on serve_cluster; none elsewhere"),
    ("online.events.read_us", "us", "lower", "online.events.read", "units", "staleness_p50_ms [0.1 %], throughput_ops_s on online_cycle only"),
    ("online.trainer.ingest_ms_per_event", "ms", "lower", "online.trainer.ingest", "units", "staleness_p50_ms [4 %], throughput_ops_s on online_cycle only"),
    ("online.trainer.publish_ms", "ms", "lower", "online.trainer.publish", None, "staleness_p50_ms [10 %], throughput_ops_s on online_cycle only"),
    ("persistence.load_checkpoint_ms", "ms", "lower", "persistence.load_checkpoint", None, "staleness_p50_ms [3 %], throughput_ops_s on online_cycle only"),
    ("online.swap.check_once_ms", "ms", "lower", "online.swap.check_once", None, "staleness_p50_ms [3 %], throughput_ops_s on online_cycle only"),
    ("serving.apply_model_ms", "ms", "lower", "serving.apply_model", None, "staleness_p50_ms [0.2 %], throughput_ops_s on online_cycle only"),
    ("obs.tracer.tax_share", "share", "lower", None, None, "user_p50_ms on serve_engine, with the repo Tracer installed"),
    ("obs.bench_trace.overhead_share", "share", "lower", None, None, "none: bench spans and replays on against off, same run"),
    ("bench.probe_coverage", "share", "higher", None, None, "none: replayed layer time over operation time"),
]


class Trace:
    """In-memory span log: name, start, end, parent, operation id."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def under(self, parent: int) -> Iterator[None]:
        """Record following spans as children of a span already ended."""
        self._stack.append(parent)
        try:
            yield
        finally:
            self._stack.pop()

    def durations(self, name: str, per: Optional[str] = None) -> List[float]:
        return [
            (s["end"] - s["start"]) / (s[per] if per else 1)
            for s in self.spans
            if s["name"] == name
        ]

    def coverage(self) -> Dict[str, dict]:
        """Per operation kind: replayed operations, their median time,
        the median time their child spans cover, and the self time left."""
        children: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        by_kind: Dict[str, list] = {}
        for s in self.spans:
            if "op" in s and s["id"] in children:
                by_kind.setdefault(s["name"], []).append(
                    (s["end"] - s["start"], children[s["id"]])
                )
        table = {}
        for kind, pairs in by_kind.items():
            total = sum(p[0] for p in pairs)
            covered = sum(p[1] for p in pairs)
            table[kind] = {
                "n": len(pairs),
                "op_p50_ms": statistics.median(p[0] for p in pairs) * 1e3,
                "covered_p50_ms": statistics.median(p[1] for p in pairs) * 1e3,
                "self_p50_ms": statistics.median(p[0] - p[1] for p in pairs) * 1e3,
                "total_s": total,
                "covered_s": covered,
            }
        return table


def layer_values(trace: Trace, values: Dict[str, float]) -> Dict[str, dict]:
    """The :data:`LAYERS` table as ``name -> {value, unit, n}``."""
    table = {}
    for name, unit, __, source, per, __moves in LAYERS:
        if source is None:
            table[name] = {"value": float(values[name]), "unit": unit, "n": 1}
            continue
        samples = trace.durations(source, per)
        if not samples:
            raise RuntimeError(f"no '{source}' span was recorded for {name}")
        table[name] = {
            "value": statistics.median(samples) * _SCALE[unit],
            "unit": unit,
            "n": len(samples),
        }
    return table


class Layers:
    """Public layer calls of the repo, bound to one fixture."""

    def __init__(self, fixture, workdir: Path, trace: Trace) -> None:
        self.fx = fixture
        self.tr = trace
        self.workdir = Path(workdir)
        dataset, model = fixture.dataset, fixture.model
        self.n = dataset.num_items
        self.items = np.arange(self.n, dtype=np.int64)
        self.user_items = dataset.user_items()
        self.group_items = dataset.group_items()
        self.friend_sets = dataset.friend_set()
        self.batcher = GroupBatcher(dataset)
        rows = min(PROBE_BLOCK_ROWS, dataset.num_users)
        self.cache = ScoreCache(
            model.score_user_items, dataset.num_users, self.n, block_rows=rows
        )
        with trace.span("engine.score_cache.fill", units=rows):
            self.cache.warm(np.array([0]))
        with trace.span("engine.ann.build"):
            self.index = IVFIndex(
                model.item_embedding.weight.data,
                nlist=_ENGINE.ann_nlist,
                nprobe=_ENGINE.ann_nprobe,
                seed=_ENGINE.ann_seed,
            )
        self.scorer = ShardScorer(0, ShardPlan(self.n, 2), model, dataset)
        self.echo = MicroBatcher(list)
        self._train: Optional[GroupSATrainer] = None
        self._rng = np.random.default_rng(0)
        self._online: Optional[tuple] = None

    def close(self) -> None:
        self.echo.close()
        if self._online is not None:
            trainer, service, __ = self._online
            trainer.close()
            service.close()

    # -- one serving request, layer by layer -----------------------------

    def replay(self, mode: str, kind: str, arg) -> None:
        """Replay the layers a ``mode`` request of ``kind`` crosses."""
        if mode == "cluster":
            self._replay_cluster(kind, arg)
        elif kind == "user":
            self._replay_user(mode, int(arg))
        else:
            self._replay_members(mode, kind, arg)
        if kind != "user":
            # The explanation is computed in-process in every mode.
            single = (
                self.batcher.batch([int(arg)])
                if kind == "group"
                else build_adhoc_batch([list(arg)], self.friend_sets)
            )
            with self.tr.span("core.member_attention"):
                self.fx.model.member_attention(single, np.array([0]))

    def _candidates(self, query: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
        with self.tr.span("engine.ann.candidates") as record:
            keep = self.index.candidates(
                np.asarray(query, dtype=np.float64),
                _ENGINE.ann_candidates,
                exclude_mask=mask,
                min_results=K,
            )
            record["candidates"] = int(keep.size)
        return keep

    def _replay_user(self, mode: str, user: int) -> None:
        tr, model = self.tr, self.fx.model
        exclude = self.user_items[user]
        if mode == "direct":
            with tr.span("core.score_user_items", units=self.n):
                row = model.score_user_items(np.full(self.n, user), self.items)
            with tr.span("evaluation.top_k_items"):
                # Scores are handed in, so this times the layer's own work.
                top_k_items(lambda __, c: row[c], user, self.n, K, exclude)
            return
        with tr.span("engine.batching.roundtrip"):
            self.echo.submit(None).result()
        with tr.span("engine.topk.exclusion_mask"):
            mask = exclusion_mask(self.n, exclude)
        if mode == "ann":
            keep = self._candidates(model.user_embedding.weight.data[user], mask)
            with tr.span("core.score_user_items", units=int(keep.size)):
                row = model.score_user_items(np.full(keep.size, user), keep)
            mask = None
        else:
            with tr.span("engine.score_cache.hit"):
                # Any resident row costs the same; stay inside the filled block.
                row = self.cache.scores_for_users(
                    np.array([user % self.cache.block_rows])
                )[0]
        with tr.span("engine.topk.topk_indices"):
            topk_indices(row, K, mask)

    def _replay_members(self, mode: str, kind: str, arg) -> None:
        tr, model = self.tr, self.fx.model
        if kind == "group":
            members = self.fx.dataset.group_members[int(arg)]
            exclude = self.group_items[int(arg)]
        else:
            members = np.unique(np.asarray(arg, dtype=np.int64))
            exclude = set().union(*(self.user_items[int(m)] for m in members))
        if mode == "direct":
            # top_k_items builds its own mask; it is timed there.
            mask = exclusion_mask(self.n, exclude)
        else:
            with tr.span("engine.batching.roundtrip"):
                self.echo.submit(None).result()
            with tr.span("engine.topk.exclusion_mask"):
                mask = exclusion_mask(self.n, exclude)
        if mode == "ann":
            keep = self._candidates(
                model.user_embedding.weight.data[members].mean(axis=0), mask
            )
        else:
            keep = self.items if mask is None else np.nonzero(~mask)[0]
        if kind == "group":
            with tr.span("data.batcher.batch"):
                batch = self.batcher.batch(np.full(keep.size, int(arg)))
        else:
            with tr.span("core.adhoc.build_batch"):
                single = build_adhoc_batch([list(arg)], self.friend_sets)
                batch = GroupBatch(
                    group_ids=np.full(keep.size, -1, dtype=np.int64),
                    members=np.repeat(single.members, keep.size, axis=0),
                    mask=np.repeat(single.mask, keep.size, axis=0),
                    adjacency=np.repeat(single.adjacency, keep.size, axis=0),
                )
        with tr.span("core.score_group_items", units=int(keep.size)):
            scores = model.score_group_items(batch, keep)
        if mode == "direct" and kind == "group":
            with tr.span("evaluation.top_k_items"):
                top_k_items(lambda __, c: scores, int(arg), self.n, K, exclude)
        else:
            with tr.span("engine.topk.topk_indices"):
                topk_indices(scores, K)

    def _replay_cluster(self, kind: str, arg) -> None:
        """The blocking path of a scatter: the two slices run in parallel
        workers, so one slice, one message each way and the merge."""
        tr = self.tr
        payload = int(arg) if kind != "adhoc" else tuple(int(m) for m in arg)
        with tr.span("cluster.wire.pickle"):
            pickle.loads(pickle.dumps(("score", 0, kind, payload, K)))
        with tr.span("cluster.worker.score_slice"):
            part = self.scorer.score(kind, payload, K)
        with tr.span("cluster.wire.pickle"):
            pickle.loads(pickle.dumps(("topk", 0, part[0], part[1], 0)))
        with tr.span("cluster.merge.merge_topk"):
            merge_topk([part, part], K)

    # -- one optimizer step, layer by layer ------------------------------

    def trainer(self) -> GroupSATrainer:
        """A trainer over a private copy of the model, so replayed steps
        never move the weights a workload serves or trains."""
        if self._train is None:
            self._train = GroupSATrainer(
                copy.deepcopy(self.fx.model),
                self.fx.split,
                self.fx.batcher,
                TrainingConfig(),
            )
        return self._train

    def replay_steps(self, task: str, steps: int) -> None:
        """The call sequence of ``_user_step``/``_group_step``, ``steps``
        times, through public calls, followed by the epoch-end sync."""
        tr, trainer = self.tr, self.trainer()
        model, optimizer, config = trainer.model, trainer.optimizer, trainer.config
        train = self.fx.split.train
        edges = train.user_item if task == "user" else train.group_item
        sampler = trainer.user_sampler if task == "user" else trainer.group_sampler
        batches: Iterator = iter(())
        with sparse_grads(config.sparse_grads), fused_ops(config.fused_ops):
            for __ in range(steps):
                with tr.span("data.sampling.triples"):
                    triple = next(batches, None)
                    if triple is None:
                        batches = bpr_triple_batches(
                            edges, sampler, config.batch_size, rng=self._rng
                        )
                        triple = next(batches)
                entities, positives, negatives = triple
                optimizer.zero_grad()
                if task == "user":
                    with tr.span("core.user_score_components.forward"):
                        pos, pos_emb = model.user_score_components(entities, positives)
                        neg, neg_emb = model.user_score_components(entities, negatives)
                        loss = bpr_loss(pos, neg)
                        if pos_emb is not None:
                            loss = loss + bpr_loss(pos_emb, neg_emb)
                else:
                    with tr.span("data.batcher.batch_step"):
                        batch = self.fx.batcher.batch(entities)
                    with tr.span("core.group_scores.forward"):
                        loss = bpr_loss(
                            model.group_scores(batch, positives),
                            model.group_scores(batch, negatives),
                        )
                with tr.span(f"autograd.backward_{task}"):
                    loss.backward()
                with tr.span("optim.adam.step"):
                    optimizer.step()
        with tr.span("optim.adam.sync"):
            optimizer.sync()

    # -- every layer once -------------------------------------------------

    def suite(self, users: Sequence[int], groups: Sequence[int], member_sets: Sequence) -> Dict[str, float]:
        """Drive every layer over a fixed sample; returns the values that
        are not span durations."""
        tr = self.tr
        values: Dict[str, float] = {}
        sample = (
            [("user", u) for u in users]
            + [("group", g) for g in groups[: len(member_sets)]]
            + [("adhoc", m) for m in member_sets]
        )
        for mode in ("direct", "engine", "ann", "cluster"):
            for kind, arg in sample:
                self.replay(mode, kind, arg)
        values["engine.ann.candidates_mean"] = statistics.mean(
            s["candidates"] for s in tr.spans if s["name"] == "engine.ann.candidates"
        )
        values["engine.ann.ip_recall_at_10"] = self._ip_recall(users)
        with tr.span("graphs.tfidf_top_neighbours"):
            tfidf_top_neighbours(self.fx.split.train, self.fx.model.config.top_h)
        values["training.probe_coverage"] = self._training()
        values.update(self._engine(users, groups))
        values.update(self._cluster(sample))
        self._online_suite()
        return values

    def _ip_recall(self, users: Sequence[int]) -> float:
        """IVF against brute-force inner product, the index's own loss."""
        model = self.fx.model
        table = np.asarray(model.item_embedding.weight.data, dtype=np.float64)
        recalls = []
        for user in users:
            query = np.asarray(model.user_embedding.weight.data[user], dtype=np.float64)
            approx, __ = self.index.search(query, K)
            recalls.append(recall_at_k(approx, topk_indices(table @ query, K)))
        return statistics.mean(recalls)

    def _training(self) -> float:
        tr, trainer = self.tr, self.trainer()
        layer_s = real_s = 0.0
        for task, steps in (("user", 6), ("group", 4)):
            before = len(tr.spans)
            self.replay_steps(task, steps)
            layer_s += sum(
                s["end"] - s["start"]
                for s in tr.spans[before:]
                if s["name"] != "optim.adam.sync"
            ) / steps
            edges = getattr(self.fx.split.train, f"{task}_item")
            real_steps = -(-len(edges) // trainer.config.batch_size)
            with tr.span(f"training.{task}_step", units=real_steps) as record:
                getattr(trainer, f"train_{task}_task")(epochs=1)
            real_s += (record["end"] - record["start"]) / real_steps
        return layer_s / real_s

    def _engine(self, users: Sequence[int], groups: Sequence[int]) -> Dict[str, float]:
        tr = self.tr
        rows = self.cache.block_rows
        service = RecommendationService(model=self.fx.model, dataset=self.fx.dataset)
        engine = service.enable_engine(EngineConfig(score_block_rows=rows))
        try:
            engine.warm(np.array([0]))

            def user_hits() -> float:
                start = time.perf_counter()
                for index in range(100):
                    service.recommend_for_user(index % rows, k=K)
                return time.perf_counter() - start

            user_hits()
            plain = min(user_hits() for __ in range(3))
            with Tracer(sample_rate=1.0):
                traced = min(user_hits() for __ in range(3))
            start = time.perf_counter()
            for group in groups:
                engine.topk_group(group, K)
            sequential = time.perf_counter() - start
            start = time.perf_counter()
            for future in [engine.submit_group(group, K) for group in groups]:
                future.result()
            burst = time.perf_counter() - start
            snapshot = service.telemetry_snapshot()
            successor = copy.deepcopy(self.fx.model)
            with tr.span("engine.swap_model"):
                engine.swap_model(successor, version=1)
        finally:
            service.close()
        return {
            "obs.tracer.tax_share": traced / plain - 1.0,
            "engine.batching.burst8_gain": sequential / burst,
            "engine.score_cache.hit_share": snapshot["rates"]["score_cache.hit_rate"],
            "engine.batching.batch_size_mean": snapshot["batches"]["mean_occupancy"],
        }

    def _cluster(self, sample: Sequence[tuple]) -> Dict[str, float]:
        tr = self.tr
        store = self.workdir / "probe-store"
        with tr.span("cluster.weights.write_store"):
            write_model_store(self.fx.model, store)
        with tr.span("cluster.weights.attach"):
            attach_shared_model(store)
        with tr.span("cluster.router.launch"):
            router = ShardRouter.launch(
                self.fx.model,
                self.fx.dataset,
                ClusterConfig(num_workers=2, num_shards=2),
                workdir=self.workdir / "probe-cluster",
            )
        try:
            for kind, arg in sample:
                if kind == "user":
                    router.topk_user(arg, K)
                elif kind == "group":
                    router.topk_group(arg, K)
                else:
                    router.topk_members(list(arg), K)
            histograms = router.metrics().histograms()
        finally:
            with tr.span("cluster.router.close"):
                router.close()
        busy = histograms["shard.request"].mean()
        return {
            "cluster.worker.busy_mean_ms": busy * 1e3,
            "cluster.router.overhead_mean_ms": (histograms["router.request"].mean() - busy) * 1e3,
        }

    # -- one online cycle, phase by phase --------------------------------

    def _online_probe(self):
        """A private trainer, snapshot directory and engine-backed service:
        replayed phases never publish into a workload's own directory."""
        if self._online is None:
            snapshots = self.workdir / "probe-snapshots"
            trainer = OnlineTrainer(
                copy.deepcopy(self.fx.model), self.fx.dataset, SnapshotPublisher(snapshots)
            )
            service = RecommendationService(
                model=self.fx.model, dataset=self.fx.dataset, model_version=0
            )
            service.enable_engine(EngineConfig(score_block_rows=self.cache.block_rows))
            self._online = (trainer, service, snapshots)
        return self._online

    def replay_online(self, phase: str, payload) -> None:
        """Replay one phase of an event -> published -> served cycle.

        ``payload`` is ``(log path, offset, count)`` for ``read``, the
        events for ``ingest`` and a checkpoint path for ``swap``.
        """
        tr = self.tr
        trainer, service, __ = self._online_probe()
        if phase == "read":
            path, offset, count = payload
            with tr.span("online.events.read", units=count):
                EventLogReader(path, offset=offset).read_batch(count)
        elif phase == "ingest":
            with tr.span("online.trainer.ingest", units=len(payload)):
                for event in payload:
                    trainer.ingest(event)
                trainer.step_partial()
        elif phase == "publish":
            with tr.span("online.trainer.publish"):
                trainer.publish()
        elif phase == "swap":
            with tr.span("persistence.load_checkpoint"):
                loaded, __state = load_checkpoint(payload)
            with tr.span("serving.apply_model"):
                service.apply_model(loaded, (service.model_version or 0) + 1)

    def _online_suite(self) -> None:
        trainer, service, snapshots = self._online_probe()
        log = self.workdir / "probe-events.jsonl"
        events = generate_events(self.fx.dataset, 64, rng=np.random.default_rng(0))
        write_event_log(log, events)
        self.replay_online("read", (log, 0, len(events)))
        self.replay_online("ingest", events)
        self.replay_online("publish", None)
        with self.tr.span("online.swap.check_once"):
            ModelSwapper(service, snapshots).check_once()
        self.replay_online("swap", trainer.publisher.latest.path)
