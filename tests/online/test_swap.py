"""ModelSwapper behavior + the zero-downtime swap-atomicity hammer."""

import json
import threading

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import GroupSA, build_adhoc_batch
from repro.data import GroupBatcher
from repro.engine.scorer import Scorer
from repro.obs.metrics_registry import MetricsRegistry
from repro.online import swap as swap_module
from repro.online import (
    LATEST_NAME,
    ModelSwapper,
    OnlineTrainer,
    OnlineTrainerConfig,
    SnapshotPublisher,
    generate_events,
)
from repro.persistence import load_checkpoint, load_model
from repro.serving import RecommendationService
from repro.training.trainer import TrainingConfig
from repro.training.two_stage import build_model

from tests.conftest import TINY_MODEL_CONFIG

TRAINING = TrainingConfig(batch_size=8, grad_clip=0.0, seed=31)


def _trainer(tiny_split, dataset, directory, publish_every=1):
    model, __ = build_model(tiny_split, TINY_MODEL_CONFIG)
    return OnlineTrainer(
        model,
        dataset,
        SnapshotPublisher(directory, keep_last=3),
        config=OnlineTrainerConfig(batch_size=8, publish_every_steps=publish_every),
        training=TRAINING,
    )


def _service_at(publisher_dir, dataset):
    """Engine-backed service serving the directory's LATEST version."""
    publisher = SnapshotPublisher(publisher_dir)
    info = publisher.latest
    model, __ = load_checkpoint(info.path)
    service = RecommendationService(
        model=model, dataset=dataset, model_version=info.version
    )
    service.enable_engine()
    return service, info


def _feed(trainer, dataset, count, seed):
    for event in generate_events(
        dataset, count, rng=np.random.default_rng(seed)
    ):
        trainer.ingest(event)


def _counted_once_then_skipped(swapper, failure, raising, service, serving, monkeypatch):
    """The version ``LATEST`` names cannot be served.  The first poll
    raises and counts it; after that it is not even read, the old version
    answers, and the first newer publish is applied.  Returns the list
    the later loads are recorded in."""
    with raising:
        swapper.check_once()
    assert swapper.registry.counter(failure).value == 1
    loads = []

    def recording_load(path, *args, **kwargs):
        loads.append(path)
        return load_model(path, *args, **kwargs)

    monkeypatch.setattr(swap_module, "load_model", recording_load)
    for __ in range(10):
        assert swapper.check_once() is None
    assert loads == []
    assert swapper.registry.counter(failure).value == 1
    assert swapper.registry.counter("swap.applied").value == 0
    assert service.model_version == serving
    assert service.recommend_for_user(3, k=5).model_version == serving
    return loads


@pytest.fixture(scope="module")
def dataset(tiny_split):
    return tiny_split.train


class TestCheckOnce:
    def test_applies_newer_versions_and_skips_current(
        self, tiny_split, dataset, tmp_path
    ):
        trainer = _trainer(tiny_split, dataset, tmp_path / "snap")
        trainer.publish()
        service, initial = _service_at(tmp_path / "snap", dataset)
        try:
            registry = MetricsRegistry()
            swapper = ModelSwapper(
                service, tmp_path / "snap", registry=registry
            )
            # Already serving LATEST: nothing to do.
            assert swapper.check_once() is None

            _feed(trainer, dataset, 20, seed=1)
            info = trainer.publish()
            applied = swapper.check_once()
            assert applied is not None and applied.version == info.version
            assert service.model_version == info.version
            assert registry.counter("swap.applied").value == 1
            assert registry.gauge("swap.model_version").value == info.version

            response = service.recommend_for_user(3, k=5)
            assert response.model_version == info.version
            # And again: now current, no re-apply.
            assert swapper.check_once() is None
        finally:
            service.close()

    def test_tolerates_pruned_checkpoint(self, tiny_split, dataset, tmp_path):
        trainer = _trainer(tiny_split, dataset, tmp_path / "snap")
        trainer.publish()
        service, initial = _service_at(tmp_path / "snap", dataset)
        try:
            # Forge a LATEST pointer at a version whose checkpoint the
            # keep-last-N pruner already deleted.
            pointer = {
                "version": initial.version + 5,
                "filename": "ckpt-000099.npz",
                "published_at": initial.published_at,
            }
            (tmp_path / "snap" / LATEST_NAME).write_text(json.dumps(pointer))
            registry = MetricsRegistry()
            swapper = ModelSwapper(service, tmp_path / "snap", registry=registry)
            assert swapper.check_once() is None  # no crash, no swap
            assert registry.counter("swap.pruned_misses").value == 1
            assert service.model_version == initial.version
        finally:
            service.close()

    def test_poisoned_snapshot_is_opened_once(
        self, tiny_split, dataset, tmp_path, monkeypatch
    ):
        trainer = _trainer(tiny_split, dataset, tmp_path / "snap")
        trainer.publish()
        service, initial = _service_at(tmp_path / "snap", dataset)
        try:
            _feed(trainer, dataset, 20, seed=1)
            trainer.publish().path.write_bytes(b"garbage under LATEST")
            swapper = ModelSwapper(service, tmp_path / "snap")
            loads = _counted_once_then_skipped(
                swapper, "swap.load_failures", pytest.raises(ValueError), service,
                initial.version, monkeypatch,
            )
            _feed(trainer, dataset, 20, seed=2)
            good = trainer.publish()
            assert swapper.check_once() == good
            assert loads == [good.path]
            assert service.recommend_for_user(3, k=5).model_version == good.version
        finally:
            service.close()

    def test_reads_no_optimizer_state(
        self, tiny_split, dataset, tmp_path, monkeypatch
    ):
        """A swap reads the serving half of a snapshot: the Adam moments
        and trainer metadata it carries for resume stay unread."""
        trainer = _trainer(tiny_split, dataset, tmp_path / "snap")
        trainer.publish()
        service, __ = _service_at(tmp_path / "snap", dataset)
        try:
            _feed(trainer, dataset, 20, seed=3)
            info = trainer.publish()
            with np.load(info.path) as archive:
                assert any(name.startswith("optim/") for name in archive.files)
            read = []
            getitem = np.lib.npyio.NpzFile.__getitem__

            def recording(archive, key):
                read.append(key)
                return getitem(archive, key)

            monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
            assert ModelSwapper(service, tmp_path / "snap").check_once() == info
            monkeypatch.undo()
            assert any(key.startswith("param/") for key in read)
            assert [k for k in read if k.startswith("optim/")] == []
            assert "__train_meta__" not in read
            assert service.model_version == info.version
        finally:
            service.close()

    def test_background_thread_applies_versions(
        self, tiny_split, dataset, tmp_path
    ):
        trainer = _trainer(tiny_split, dataset, tmp_path / "snap")
        trainer.publish()
        service, __ = _service_at(tmp_path / "snap", dataset)
        try:
            with ModelSwapper(
                service, tmp_path / "snap", poll_interval=0.01
            ) as swapper:
                _feed(trainer, dataset, 20, seed=2)
                info = trainer.publish()
                deadline = threading.Event()
                for __attempt in range(500):
                    if service.model_version == info.version:
                        break
                    deadline.wait(0.01)
                assert service.model_version == info.version
                assert swapper.staleness_seconds is not None
        finally:
            service.close()


class TestSwapAtomicity:
    def test_hammer_service_through_ten_consecutive_swaps(
        self, tiny_split, dataset, tmp_path
    ):
        """Zero-downtime contract (docs/online.md).

        Four client threads hammer an engine-backed service while ten
        hot-swaps land under them.  The bar: not a single dropped or
        failed request, and every response carries a ``model_version``
        that was live (published) at the moment it was served.
        """
        trainer = _trainer(tiny_split, dataset, tmp_path / "snap")
        first = trainer.publish()
        service, __ = _service_at(tmp_path / "snap", dataset)
        published = {first.version}
        failures = []
        responses = []
        stop = threading.Event()

        def hammer():
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            while not stop.is_set():
                user = int(rng.integers(0, dataset.num_users))
                try:
                    response = service.recommend_for_user(user, k=5)
                except BaseException as error:  # pragma: no cover
                    failures.append(repr(error))
                    return
                responses.append((response.model_version, len(response.items)))

        try:
            swapper = ModelSwapper(service, tmp_path / "snap")
            threads = [
                threading.Thread(target=hammer, daemon=True) for __i in range(4)
            ]
            for thread in threads:
                thread.start()
            for round_number in range(10):
                _feed(trainer, dataset, 16, seed=100 + round_number)
                info = trainer.publish()
                published.add(info.version)
                applied = swapper.check_once()
                assert applied is not None and applied.version == info.version
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            stop.set()
            service.close()

        assert failures == []
        assert len(responses) > 0
        served = {version for version, __count in responses}
        # Every response was scored by a version that was actually
        # published (never a half-swapped or unknown model) ...
        assert served <= published
        assert all(count == 5 for __v, count in responses)
        # ... and the swaps really happened under the traffic.
        assert service.model_version == max(published)


class TestWrongSizeSwap:
    """A model whose tables are not the dataset's size is a typed error
    in every mode, and the version that was serving keeps serving."""

    MODES = ("direct", "engine", "cluster")

    @staticmethod
    def _wrong(dataset, delta):
        return GroupSA(dataset.num_users, dataset.num_items + delta, TINY_MODEL_CONFIG)

    @pytest.fixture(scope="class", params=MODES)
    def service(self, request, trained_tiny_model, dataset):
        model, __, __h = trained_tiny_model
        service = RecommendationService(model=model, dataset=dataset, model_version=0)
        if request.param == "engine":
            service.enable_engine()
        elif request.param == "cluster":
            service.enable_cluster(ClusterConfig(num_workers=2, num_shards=2))
        yield service
        service.close()

    @pytest.mark.parametrize("delta", [-5, 5], ids=["smaller", "larger"])
    def test_rejected_and_the_old_version_keeps_serving(self, service, dataset, delta):
        requests = (
            (service.recommend_for_user, 3),
            (service.recommend_for_group, 2),
            (service.recommend_for_members, [1, 4, 7]),
        )
        before = [send(arg, k=5) for send, arg in requests]
        assert {response.model_version for response in before} == {0}
        wrong = self._wrong(dataset, delta)
        with pytest.raises(ValueError, match="entity counts"):
            service.apply_model(wrong, 1)
        # The shells' own entries refuse it too, before touching anything.
        if service.engine is not None:
            with pytest.raises(ValueError, match="entity counts"):
                service.engine.swap_model(wrong, version=1)
            assert service.engine.model_version == 0
        if service.router is not None:
            with pytest.raises(ValueError, match="entity counts"):
                service.router.swap_model(wrong, version=1)
            assert service.router.model_version == 0
            assert service.router.worker_restarts == 0
        assert service.model_version == 0
        after = [send(arg, k=5) for send, arg in requests]
        assert [r.items for r in after] == [r.items for r in before]
        assert [r.scores for r in after] == [r.scores for r in before]
        assert {response.model_version for response in after} == {0}

    def test_plain_constructor_rejects_it_too(self, dataset):
        with pytest.raises(ValueError, match="entity counts"):
            RecommendationService(model=self._wrong(dataset, -5), dataset=dataset)

    def test_model_swapper_counts_the_rejection(
        self, tiny_split, dataset, tmp_path, monkeypatch
    ):
        trainer = _trainer(tiny_split, dataset, tmp_path / "snap")
        trainer.publish()
        service, initial = _service_at(tmp_path / "snap", dataset)
        try:
            before = service.recommend_for_user(3, k=5)
            publisher = SnapshotPublisher(tmp_path / "snap")
            publisher.publish(self._wrong(dataset, -5))
            swapper = ModelSwapper(service, tmp_path / "snap")
            loads = _counted_once_then_skipped(
                swapper, "swap.apply_failures",
                pytest.raises(ValueError, match="entity counts"),
                service, initial.version, monkeypatch,
            )
            assert service.recommend_for_user(3, k=5).items == before.items
            good = publisher.publish(service.model)
            assert swapper.check_once() == good
            assert loads == [good.path]
            assert service.model_version == good.version
        finally:
            service.close()


class TestExplanationFollowsTheRankingModel:
    """Direct and engine mode: a swap that lands between ranking and
    explaining leaves the response whole — its list, ``model_version``
    and ``voting_weights`` all come from the model that ranked."""

    @pytest.fixture(params=["direct", "engine"])
    def swapped_mid_request(
        self, request, trained_tiny_model, tiny_split, dataset, monkeypatch
    ):
        model = trained_tiny_model[0]
        successor, __ = build_model(tiny_split, TINY_MODEL_CONFIG.variant(seed=77))
        service = RecommendationService(model=model, dataset=dataset, model_version=0)
        if request.param == "engine":
            service.enable_engine()
        rank = Scorer.rank

        def rank_then_swap(scorer, *args, **kwargs):
            ranked = rank(scorer, *args, **kwargs)
            if service.model_version == 0:
                service.apply_model(successor, 1)
            return ranked

        monkeypatch.setattr(Scorer, "rank", rank_then_swap)
        yield service, {0: model, 1: successor}
        service.close()

    def test_dataset_group(self, swapped_mid_request, dataset):
        service, models = swapped_mid_request
        response = service.recommend_for_group(2, k=5)
        assert response.model_version == 0 and service.model_version == 1
        batch = GroupBatcher(dataset).batch([2])
        members = dataset.group_members[2]
        gamma = {
            version: model.member_attention(batch, np.array(response.items[:1]))[0]
            for version, model in models.items()
        }
        assert not np.allclose(gamma[0], gamma[1])  # the test has teeth
        want = dict(zip(members.tolist(), gamma[0][: members.size].tolist()))
        assert response.voting_weights == want

    def test_adhoc_members(self, swapped_mid_request, dataset):
        service, models = swapped_mid_request
        members = [1, 4, 7]
        response = service.recommend_for_members(members, k=5)
        assert response.model_version == 0 and service.model_version == 1
        batch = build_adhoc_batch([members], dataset.friend_set())
        gamma = {
            version: model.member_attention(batch, np.array(response.items[:1]))[0]
            for version, model in models.items()
        }
        assert not np.allclose(gamma[0], gamma[1])
        assert response.voting_weights == dict(zip(members, gamma[0].tolist()))
