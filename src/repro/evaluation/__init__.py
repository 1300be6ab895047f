"""Evaluation: metrics, the 100-candidate protocol, significance tests."""

from repro.evaluation.metrics import (
    hit_ratio_at_k,
    ndcg_at_k,
    rank_of_positive,
    summarize,
)
from repro.evaluation.protocol import (
    EvaluationTask,
    RankingResult,
    evaluate,
    evaluate_filtered,
    prepare_task,
)
from repro.evaluation.full_ranking import evaluate_full_ranking
from repro.evaluation.metrics_extra import (
    auc,
    catalog_coverage,
    extended_summary,
    intra_list_diversity,
    mean_rank,
    mrr,
    novelty,
)
from repro.evaluation.ranking import recommend_for_groups, top_k_items, top_k_scored
from repro.evaluation.significance import TTestResult, one_sample_ttest, paired_ttest

__all__ = [
    "hit_ratio_at_k",
    "ndcg_at_k",
    "rank_of_positive",
    "summarize",
    "EvaluationTask",
    "RankingResult",
    "prepare_task",
    "evaluate",
    "evaluate_filtered",
    "paired_ttest",
    "one_sample_ttest",
    "TTestResult",
    "top_k_items",
    "top_k_scored",
    "recommend_for_groups",
    "evaluate_full_ranking",
    "mrr",
    "auc",
    "mean_rank",
    "catalog_coverage",
    "novelty",
    "intra_list_diversity",
    "extended_summary",
]
