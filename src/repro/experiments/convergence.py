"""Training-dynamics harness: loss and validation metric vs. epoch.

Not a numbered paper artifact, but the evidence behind the two-stage
training story: the group-task loss starts far lower when stage 1 ran
first (shared embeddings transfer), and the validation metric shows
where fine-tuning saturates.  Produces CSV-ready rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import GroupSAConfig
from repro.data.splits import DataSplit
from repro.experiments.runner import ExperimentBudget, PAPER_BUDGET, prepare_run
from repro.training.early_stopping import ValidationMonitor
from repro.training.trainer import TrainingConfig
from repro.training.two_stage import build_model, fit_groupsa
from repro.tuning import validation_task


@dataclass
class ConvergencePoint:
    stage: str
    epoch: int
    loss: float
    validation_hr10: Optional[float]


@dataclass
class ConvergenceCurve:
    points: List[ConvergencePoint]

    def to_csv(self) -> str:
        lines = ["stage,epoch,loss,validation_hr10"]
        for point in self.points:
            validation = (
                f"{point.validation_hr10:.4f}"
                if point.validation_hr10 is not None
                else ""
            )
            lines.append(f"{point.stage},{point.epoch},{point.loss:.4f},{validation}")
        return "\n".join(lines)

    def losses(self, stage: str) -> List[float]:
        return [p.loss for p in self.points if p.stage == stage]


def trace_convergence(
    split: DataSplit,
    model_config: GroupSAConfig = GroupSAConfig(),
    training: TrainingConfig = TrainingConfig(),
    check_every: int = 5,
    num_candidates: int = 100,
) -> ConvergenceCurve:
    """Train with the two-stage schedule, recording a curve.

    One point per stage-1 user epoch and per group epoch, each with its
    ``EpochLog`` loss; interleaved user epochs are not points.  Every
    ``check_every``-th group point also carries the validation HR@10
    taken at the end of its resume unit, when the split has validation
    group interactions.
    """
    if check_every < 1:
        raise ValueError(f"check_every must be at least 1, got {check_every}")
    model, batcher = build_model(split, model_config)
    monitor = None
    if len(split.validation.group_item):
        # More patience than stage 2 has checks: the monitor only records.
        monitor = ValidationMonitor(
            model=model,
            batcher=batcher,
            task=validation_task(split, num_candidates=num_candidates),
            patience=training.group_epochs + 1,
            check_every=check_every,
        )
    history = fit_groupsa(model, split, batcher, training, callback=monitor)
    checks = iter(monitor.history if monitor is not None else ())
    points: List[ConvergencePoint] = []
    for log in history.epochs:
        if log.task == "group":
            validation = next(checks, None) if log.epoch % check_every == 0 else None
            points.append(ConvergencePoint("group", log.epoch, log.loss, validation))
        elif log.epoch <= training.user_epochs:
            # Stage 1; the interleaved replays continue its epoch count.
            points.append(ConvergencePoint("user", log.epoch, log.loss, None))
    return ConvergenceCurve(points=points)


def main(dataset: str = "yelp", budget: ExperimentBudget = PAPER_BUDGET) -> str:
    run = prepare_run(dataset, budget, budget.seeds[0])
    curve = trace_convergence(run.split, training=budget.training)
    text = curve.to_csv()
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else "yelp")
