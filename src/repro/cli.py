"""Command-line interface: generate data, train, evaluate, recommend.

Examples::

    python -m repro.cli generate --preset yelp --scale 0.01 --out world.npz
    python -m repro.cli train --data world.npz --out model.npz --group-epochs 30
    python -m repro.cli train --data world.npz --out model.npz \
        --checkpoint-dir ckpts --resume
    python -m repro.cli train --data world.npz --out model.npz \
        --metrics-out run.jsonl --grad-health raise
    python -m repro.cli evaluate --data world.npz --model model.npz --task group
    python -m repro.cli recommend --data world.npz --model model.npz --group 3 -k 5
    python -m repro.cli profile --preset yelp --scale 0.01 \
        --trace-out trace.json --report-out profile.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core.config import GroupSAConfig
from repro.data.io import load_dataset, save_dataset
from repro.data.loaders import GroupBatcher
from repro.data.presets import douban_like, yelp_like
from repro.data.splits import split_interactions
from repro.data.stats import table1_statistics
from repro.evaluation.protocol import evaluate, prepare_task
from repro.persistence import load_model, save_model
from repro.serving import RecommendationService
from repro.training.callbacks import print_progress
from repro.training.trainer import TrainingConfig
from repro.training.two_stage import build_model, fit_groupsa, train_groupsa


def _command_generate(args: argparse.Namespace) -> int:
    presets = {"yelp": yelp_like, "douban": douban_like}
    world = presets[args.preset](scale=args.scale, seed=args.seed)
    save_dataset(world.dataset, args.out)
    print(f"wrote {args.out}")
    for key, value in table1_statistics(world.dataset).items():
        print(f"  {key:35s} {value:10.2f}")
    return 0


def _command_train(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    dataset = load_dataset(args.data)
    split = split_interactions(dataset, rng=args.seed)
    config = GroupSAConfig(
        embedding_dim=args.dim,
        num_attention_layers=args.layers,
        blend_weight=args.blend_weight,
        top_h=args.top_h,
        dtype=args.dtype,
    )
    training = TrainingConfig(
        user_epochs=args.user_epochs,
        group_epochs=args.group_epochs,
        learning_rate=args.lr,
        seed=args.seed,
        sparse_grads=not args.dense_grads,
        fused_ops=not args.no_fused_ops,
    )
    monitor = None
    if args.grad_health != "off":
        from repro.obs import GradientHealthMonitor

        monitor = GradientHealthMonitor(on_nonfinite=args.grad_health)
    callback = print_progress if args.progress else None
    metrics = None
    if args.metrics_out:
        from repro.obs import RunMetrics

        metrics = RunMetrics(args.metrics_out, chain=callback, grad_monitor=monitor)
        callback = metrics
    try:
        model, __, history = train_groupsa(
            split,
            config,
            training,
            callback=callback,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            keep_last=args.keep_last,
            grad_monitor=monitor,
        )
    finally:
        if metrics is not None:
            metrics.close()
    if metrics is not None:
        print(f"wrote {args.metrics_out} ({len(metrics.records)} epoch records)")
    save_model(model, args.out)
    print(
        f"wrote {args.out} "
        f"(final user loss {history.final_loss('user'):.4f}, "
        f"group loss {history.final_loss('group'):.4f})"
    )
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    split = split_interactions(dataset, rng=args.seed)
    model = load_model(args.model)
    full = split.full
    if args.task == "group":
        batcher = GroupBatcher(split.train)
        task = prepare_task(
            split.test.group_item, full.group_items(), full.num_items,
            num_candidates=args.candidates, rng=args.seed,
        )
        result = evaluate(
            lambda groups, items: model.score_group_items(batcher.batch(groups), items),
            task,
        )
    else:
        task = prepare_task(
            split.test.user_item, full.user_items(), full.num_items,
            num_candidates=args.candidates, rng=args.seed,
        )
        result = evaluate(model.score_user_items, task)
    for metric, value in result.metrics.items():
        print(f"{metric:10s} {value:.4f}")
    return 0


def _command_recommend(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    service = RecommendationService.from_checkpoint(args.model, dataset)
    try:
        result = service.recommend_for_group(args.group, args.k)
    except (IndexError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    members = dataset.group_members[args.group]
    print(f"group #{args.group} (members {members.tolist()})")
    print(f"top-{args.k}: {result.items}")
    if result.voting_weights:
        print("voting weights for the top item:")
        for member, weight in result.voting_weights.items():
            print(f"  user #{member}: {weight:.3f}")
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        OpProfiler,
        attach_scopes,
        format_top_table,
        make_report,
        stats_payload,
        write_chrome_trace,
        write_report,
    )

    if args.data:
        dataset = load_dataset(args.data)
        world_meta = {"data": args.data}
    else:
        presets = {"yelp": yelp_like, "douban": douban_like}
        dataset = presets[args.preset](scale=args.scale, seed=args.seed).dataset
        world_meta = {"preset": args.preset, "scale": args.scale}
    split = split_interactions(dataset, rng=args.seed)
    config = GroupSAConfig(
        embedding_dim=args.dim,
        num_attention_layers=args.layers,
        top_h=args.top_h,
    )
    training = TrainingConfig(
        user_epochs=args.user_epochs,
        group_epochs=args.group_epochs,
        seed=args.seed,
    )
    model, batcher = build_model(split, config)
    attach_scopes(model, root="groupsa")

    with OpProfiler() as profiler:
        with profiler.scope("train"):
            fit_groupsa(model, split, batcher, training)
        with profiler.scope("forward"):
            count = min(args.forward_groups, split.train.num_groups)
            groups = np.arange(count)
            items = np.arange(count) % dataset.num_items
            model.score_group_items(batcher.batch(groups), items)

    stats = profiler.stats()
    totals = profiler.totals()
    print(format_top_table(stats, k=args.top))
    print(
        f"\n{totals['op_calls']} forward ops in {totals['op_time_s'] * 1e3:.1f} ms, "
        f"{totals['backward_calls']} backward closures in "
        f"{totals['backward_time_s'] * 1e3:.1f} ms, "
        f"~{totals['flops'] / 1e9:.3f} GFLOP "
        f"(wall {totals['wall_s']:.2f} s)",
        flush=True,
    )
    if args.trace_out:
        written = write_chrome_trace(profiler, args.trace_out)
        print(f"wrote {args.trace_out} ({written} trace events)")
    if args.report_out:
        meta = {
            "world": world_meta,
            "user_epochs": args.user_epochs,
            "group_epochs": args.group_epochs,
            "embedding_dim": args.dim,
        }
        report = make_report(
            "op_profile",
            {"totals": totals, **stats_payload(stats, top_k=args.top)},
            meta=meta,
        )
        write_report(report, args.report_out)
        print(f"wrote {args.report_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic world")
    generate.add_argument("--preset", choices=("yelp", "douban"), default="yelp")
    generate.add_argument("--scale", type=float, default=0.01)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_command_generate)

    train = commands.add_parser("train", help="train GroupSA on a saved dataset")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--dim", type=int, default=32)
    train.add_argument("--layers", type=int, default=1)
    train.add_argument("--blend-weight", type=float, default=0.9)
    train.add_argument("--top-h", type=int, default=4)
    train.add_argument("--user-epochs", type=int, default=25)
    train.add_argument("--group-epochs", type=int, default=30)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--dense-grads",
        action="store_true",
        help="force the dense reference gradient path (row-sparse "
        "embedding gradients are on by default and bit-identical; "
        "see docs/performance.md)",
    )
    train.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="floating dtype of the model's tables and activations "
        "(float64 is the bit-exact reference; float32 halves memory "
        "traffic, see docs/performance.md)",
    )
    train.add_argument(
        "--no-fused-ops",
        action="store_true",
        help="force the op-by-op attention/MLP graphs (fused ops are on "
        "by default and bit-identical in float64)",
    )
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write resumable epoch checkpoints into this directory",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="continue from the newest checkpoint in --checkpoint-dir",
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="checkpoint every N epochs (stage boundaries always checkpoint)",
    )
    train.add_argument(
        "--keep-last",
        type=int,
        default=3,
        help="retain the newest N checkpoints (best-by-loss kept separately)",
    )
    train.add_argument(
        "--metrics-out",
        default=None,
        help="stream per-epoch run metrics (loss, grad norm, timing, RSS) "
        "to this JSONL file",
    )
    train.add_argument(
        "--grad-health",
        choices=("off", "warn", "raise"),
        default="off",
        help="check every step's gradients for NaN/Inf and warn or abort",
    )
    train.add_argument(
        "--progress",
        action="store_true",
        help="print a progress line per epoch",
    )
    train.set_defaults(handler=_command_train)

    evaluate_cmd = commands.add_parser("evaluate", help="evaluate a checkpoint")
    evaluate_cmd.add_argument("--data", required=True)
    evaluate_cmd.add_argument("--model", required=True)
    evaluate_cmd.add_argument("--task", choices=("user", "group"), default="group")
    evaluate_cmd.add_argument("--candidates", type=int, default=100)
    evaluate_cmd.add_argument("--seed", type=int, default=0)
    evaluate_cmd.set_defaults(handler=_command_evaluate)

    recommend = commands.add_parser("recommend", help="top-K items for a group")
    recommend.add_argument("--data", required=True)
    recommend.add_argument("--model", required=True)
    recommend.add_argument("--group", type=int, required=True)
    recommend.add_argument("-k", type=int, default=10)
    recommend.set_defaults(handler=_command_recommend)

    profile = commands.add_parser(
        "profile",
        help="profile a short training run + forward pass; emit a Chrome "
        "trace and a per-op table",
    )
    profile.add_argument("--data", default=None, help="saved dataset (.npz)")
    profile.add_argument("--preset", choices=("yelp", "douban"), default="yelp")
    profile.add_argument("--scale", type=float, default=0.01)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--dim", type=int, default=32)
    profile.add_argument("--layers", type=int, default=1)
    profile.add_argument("--top-h", type=int, default=4)
    profile.add_argument("--user-epochs", type=int, default=2)
    profile.add_argument("--group-epochs", type=int, default=2)
    profile.add_argument(
        "--forward-groups",
        type=int,
        default=32,
        help="groups scored in the standalone profiled forward pass",
    )
    profile.add_argument("--top", type=int, default=15, help="table rows")
    profile.add_argument(
        "--trace-out", default=None, help="write chrome://tracing JSON here"
    )
    profile.add_argument(
        "--report-out", default=None, help="write the JSON op-profile report here"
    )
    profile.set_defaults(handler=_command_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
