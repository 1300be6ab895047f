"""End-to-end CLI workflow: generate -> train -> evaluate -> recommend."""

import json

import pytest

from repro.cli import main
from repro.data.io import load_dataset
from repro.serving import RecommendationService


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "world.npz"
    model = root / "model.npz"
    code = main(
        [
            "generate",
            "--preset", "yelp",
            "--scale", "0.004",
            "--seed", "3",
            "--out", str(data),
        ]
    )
    assert code == 0
    code = main(
        [
            "train",
            "--data", str(data),
            "--out", str(model),
            "--dim", "12",
            "--user-epochs", "3",
            "--group-epochs", "3",
        ]
    )
    assert code == 0
    return data, model


class TestCli:
    def test_generate_writes_dataset(self, workspace, capsys):
        data, __ = workspace
        assert data.exists()

    def test_train_writes_checkpoint(self, workspace):
        __, model = workspace
        assert model.exists()
        from repro.persistence import checkpoint_info

        config, num_users, num_items = checkpoint_info(model)
        assert config.embedding_dim == 12
        assert num_users > 0 and num_items > 0

    def test_evaluate_group_task(self, workspace, capsys):
        data, model = workspace
        code = main(
            [
                "evaluate",
                "--data", str(data),
                "--model", str(model),
                "--task", "group",
                "--candidates", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HR@10" in out and "NDCG@5" in out

    def test_evaluate_user_task(self, workspace, capsys):
        data, model = workspace
        code = main(
            [
                "evaluate",
                "--data", str(data),
                "--model", str(model),
                "--task", "user",
                "--candidates", "20",
            ]
        )
        assert code == 0
        assert "HR@5" in capsys.readouterr().out

    def test_recommend(self, workspace, capsys):
        data, model = workspace
        code = main(
            ["recommend", "--data", str(data), "--model", str(model), "--group", "0", "-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "voting weights" in out
        service = RecommendationService.from_checkpoint(model, load_dataset(data))
        assert f"top-3: {service.recommend_for_group(0, 3).items}" in out

    @pytest.mark.parametrize(
        "request_args, message",
        [
            (["--group", "99999"], "group 99999 out of range"),
            (["--group", "0", "-k", "0"], "k must be >= 1, got 0"),
            (["--group", "0", "-k", "-3"], "k must be >= 1, got -3"),
        ],
    )
    def test_recommend_bad_group(self, workspace, capsys, request_args, message):
        data, model = workspace
        code = main(
            ["recommend", "--data", str(data), "--model", str(model)] + request_args
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err and "top-" not in captured.out

    @pytest.mark.parametrize(
        "command", ["frobnicate", "serve-bench", "online-bench", "obs-report"]
    )
    def test_unknown_command_rejected(self, command):
        with pytest.raises(SystemExit):
            main([command])

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        out = capsys.readouterr().out
        assert "{generate,train,evaluate,recommend,profile}" in out

    def test_profile_writes_report_and_trace(self, workspace, tmp_path):
        data, __ = workspace
        report_path = tmp_path / "profile.json"
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "profile",
                "--data", str(data),
                "--user-epochs", "1",
                "--group-epochs", "1",
                "--report-out", str(report_path),
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.obs/v1"
        assert report["kind"] == "op_profile"
        assert report["data"]["totals"]["flops"] > 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        # Attention work is attributed to its module scope, whatever op
        # carries it (fused: masked_attention / pairwise_logits).
        assert any(
            event["cat"] == "op" and "attention" in event["args"]["scope"]
            for event in events
        )


class TestCliCheckpointing:
    def test_train_writes_and_resumes_checkpoints(self, workspace, tmp_path):
        data, __ = workspace
        ckpt_dir = tmp_path / "ckpts"
        out = tmp_path / "model.npz"
        train_args = [
            "train",
            "--data", str(data),
            "--out", str(out),
            "--dim", "12",
            "--user-epochs", "2",
            "--group-epochs", "2",
            "--checkpoint-dir", str(ckpt_dir),
            "--keep-last", "2",
        ]
        assert main(train_args) == 0
        checkpoints = sorted(p.name for p in ckpt_dir.glob("ckpt-*.npz"))
        assert len(checkpoints) == 2  # keep-last pruning applied
        assert (ckpt_dir / "best.npz").exists()

        # A completed run resumes as a no-op and still writes --out.
        out.unlink()
        assert main(train_args + ["--resume"]) == 0
        assert out.exists()
        from repro.persistence import load_model

        assert load_model(out).num_users > 0

    def test_resume_requires_checkpoint_dir(self, workspace, tmp_path):
        data, __ = workspace
        code = main(
            [
                "train",
                "--data", str(data),
                "--out", str(tmp_path / "model.npz"),
                "--resume",
            ]
        )
        assert code == 2
