"""Experiment drivers: one function per table/figure of the paper.

Every driver takes the evaluation database (and a search engine built on
it), runs the paper's protocol, and returns a structured result object
with a ``format()`` method that prints the same rows/series the paper
reports.  The benchmark harness under ``benchmarks/`` wraps these.

Index of experiments (see DESIGN.md section 4):

* FIG4   — :func:`exp_group_sizes`
* FIG7   — :func:`exp_threshold_example`
* FIG8-12— :func:`exp_pr_curves`
* FIG13/14 — :func:`exp_multistep_example`
* FIG15  — :func:`exp_average_recall`
* FIG16  — :func:`exp_effectiveness_at_10`
* RTREE  — :func:`exp_rtree_efficiency`
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..db.database import ShapeDatabase
from ..index.bruteforce import LinearScanIndex
from ..index.rtree import RTree
from ..search.cascade import CascadeStrategy, run_cascade
from ..search.engine import SearchEngine
from .metrics import evaluate_retrieval
from .pr_curve import PRCurve, precision_recall_curve

#: The paper's reporting order for the four feature vectors.
FEATURE_ORDER = [
    "moment_invariants",
    "geometric_params",
    "principal_moments",
    "eigenvalues",
]

#: Five representative query groups for the PR-curve figures — five
#: distinct groups of diverse character (prismatic, turned, holed,
#: composite, boxy), mirroring the paper's Fig. 6 variety.
PR_CURVE_GROUPS = ["l_bracket", "stepped_shaft", "washer", "elbow_pipe", "block"]

#: Candidate plans a user may chain in the interactive multi-step strategy.
MULTISTEP_PLANS: List[List[Tuple[str, int]]] = [
    [("moment_invariants", 30), ("geometric_params", 10)],
    [("principal_moments", 30), ("geometric_params", 10)],
    [("moment_invariants", 30), ("principal_moments", 10)],
    [("geometric_params", 30), ("principal_moments", 10)],
    [("principal_moments", 30), ("moment_invariants", 10)],
    [("geometric_params", 30), ("moment_invariants", 10)],
]


def one_query_per_group(db: ShapeDatabase) -> List[int]:
    """The paper's 26-query workload: the first member of every group."""
    cmap = db.classification_map()
    return [sorted(ids)[0] for _, ids in sorted(cmap.items())]


# ======================================================================
# FIG4 — group size distribution
# ======================================================================
@dataclass
class GroupSizeResult:
    """Sizes of the similarity groups plus the noise pool (Fig. 4)."""

    sizes_ascending: List[int]
    n_groups: int
    n_grouped_shapes: int
    n_noise: int

    def format(self) -> str:
        lines = ["FIG4  Group sizes of the 113-model database"]
        lines.append(f"  groups: {self.n_groups}  classified shapes: "
                     f"{self.n_grouped_shapes}  noise shapes: {self.n_noise}")
        lines.append("  group-id  size")
        for gid, size in enumerate(self.sizes_ascending, start=1):
            lines.append(f"  {gid:8d}  {'#' * size} {size}")
        lines.append(f"  {self.n_groups + 1:8d}  "
                     f"{'#' * self.n_noise} {self.n_noise} (noise pool)")
        return "\n".join(lines)


def exp_group_sizes(db: ShapeDatabase) -> GroupSizeResult:
    """Reproduce Fig. 4: group sizes in ascending order."""
    cmap = db.classification_map()
    sizes = sorted(len(ids) for ids in cmap.values())
    grouped = sum(sizes)
    return GroupSizeResult(
        sizes_ascending=sizes,
        n_groups=len(sizes),
        n_grouped_shapes=grouped,
        n_noise=len(db) - grouped,
    )


# ======================================================================
# FIG7 — threshold query example
# ======================================================================
@dataclass
class ThresholdExampleResult:
    """One threshold query (Fig. 7's worked example)."""

    query_id: int
    query_name: str
    feature_name: str
    threshold: float
    retrieved: List[int]
    precision: float
    recall: float
    calibrated: bool = False

    def format(self) -> str:
        how = "calibrated" if self.calibrated else "nominal"
        return (
            f"FIG7  Threshold query example ({how} threshold)\n"
            f"  query: {self.query_name} (id {self.query_id}), "
            f"feature: {self.feature_name}, threshold: {self.threshold:.4f}\n"
            f"  retrieved {len(self.retrieved)} shapes -> "
            f"precision {self.precision:.2f}, recall {self.recall:.2f}  "
            f"(paper's example: threshold 0.85 -> P 0.50, R 0.22)"
        )


def exp_threshold_example(
    db: ShapeDatabase,
    engine: SearchEngine,
    feature_name: str = "moment_invariants",
    threshold: Optional[float] = None,
    group: str = "stepped_shaft",
    target_retrieved: int = 4,
) -> ThresholdExampleResult:
    """Reproduce Fig. 7: a similarity-threshold query on a 5-member group.

    The paper's example queries a shape from a group of five with moment
    invariants at threshold 0.85, retrieving a handful of shapes
    (P 0.50, R 0.22).  Absolute similarity values depend on the spread of
    the feature space (their d_max is not ours), so by default the
    threshold is *calibrated* to the similarity of the query's
    ``target_retrieved``-th neighbor, landing the query in the same
    small-|R| regime; pass an explicit ``threshold`` to override.
    """
    ids = sorted(db.classification_map()[group])
    query_id = ids[0]
    calibrated = threshold is None
    if calibrated:
        measure = engine.measure(feature_name)
        neighbors = engine.search_knn(query_id, feature_name, k=target_retrieved)
        threshold = neighbors[-1].similarity - 1e-9
    results = engine.search_threshold(query_id, feature_name, threshold=threshold)
    retrieved = [r.shape_id for r in results]
    if retrieved:
        pr = evaluate_retrieval(retrieved, db.relevant_to(query_id))
        precision, recall = pr.precision, pr.recall
    else:
        precision, recall = 0.0, 0.0
    return ThresholdExampleResult(
        query_id=query_id,
        query_name=db.get(query_id).name,
        feature_name=feature_name,
        threshold=float(threshold),
        retrieved=retrieved,
        precision=precision,
        recall=recall,
        calibrated=calibrated,
    )


# ======================================================================
# FIG8-12 — PR curves for five representative shapes
# ======================================================================
@dataclass
class PRCurvesResult:
    """PR curves for 5 representative queries x 4 feature vectors."""

    queries: List[int]
    query_groups: List[str]
    curves: Dict[Tuple[int, str], PRCurve] = field(default_factory=dict)

    def format(self, samples: int = 6) -> str:
        lines = ["FIG8-12  Precision-recall curves (5 queries x 4 features)"]
        for qi, (query_id, group) in enumerate(
            zip(self.queries, self.query_groups), start=1
        ):
            lines.append(f"  Query shape No. {qi} ({group}, id {query_id})")
            for fname in FEATURE_ORDER:
                curve = self.curves[(query_id, fname)]
                idx = np.linspace(0, len(curve.points) - 1, samples).astype(int)
                pts = " ".join(
                    f"({curve.points[i].recall:.2f},{curve.points[i].precision:.2f})"
                    for i in idx
                )
                flag = "  [degenerate]" if curve.is_degenerate() else ""
                lines.append(f"    {fname:20s} (Re,Pr): {pts}{flag}")
        return "\n".join(lines)

    def degenerate_count(self, feature_name: str) -> int:
        """How many of the five curves for a feature are flat."""
        return sum(
            1
            for (qid, fname), curve in self.curves.items()
            if fname == feature_name and curve.is_degenerate()
        )


def exp_pr_curves(
    db: ShapeDatabase,
    engine: SearchEngine,
    groups: Optional[Sequence[str]] = None,
) -> PRCurvesResult:
    """Reproduce Figs. 8-12: PR curves for five representative shapes."""
    chosen = list(groups) if groups is not None else list(PR_CURVE_GROUPS)
    cmap = db.classification_map()
    queries = [sorted(cmap[g])[0] for g in chosen]
    result = PRCurvesResult(queries=queries, query_groups=chosen)
    for query_id in queries:
        for fname in FEATURE_ORDER:
            result.curves[(query_id, fname)] = precision_recall_curve(
                engine, query_id, fname
            )
    return result


# ======================================================================
# FIG13/14 — one-shot vs multi-step worked example
# ======================================================================
@dataclass
class MultiStepExampleResult:
    """The paper's worked example: best one-shot vs multi-step at k=10."""

    query_id: int
    query_name: str
    one_shot_feature: str
    one_shot_precision: float
    one_shot_recall: float
    multistep_plan: List[Tuple[str, int]]
    multistep_precision: float
    multistep_recall: float

    def format(self) -> str:
        plan = " -> ".join(f"{n}@{k}" for n, k in self.multistep_plan)
        return (
            f"FIG13/14  One-shot vs multi-step example "
            f"(query {self.query_name}, 10 presented)\n"
            f"  one-shot {self.one_shot_feature}: "
            f"P={self.one_shot_precision:.2f} R={self.one_shot_recall:.2f}\n"
            f"  multi-step {plan}: "
            f"P={self.multistep_precision:.2f} R={self.multistep_recall:.2f}"
        )


def exp_multistep_example(
    db: ShapeDatabase,
    engine: SearchEngine,
    present: int = 10,
) -> MultiStepExampleResult:
    """Reproduce Figs. 13/14: a query where filtering a 30-shape pool by a
    second feature vector beats the best one-shot retrieval.

    Like the paper's worked example, this is an illustrative case: the
    26-query workload is scanned deterministically and the first query
    where the multi-step recall beats the best one-shot recall is shown
    (the aggregate comparison is Fig. 15's job).
    """
    plan_steps = [("moment_invariants", 30), ("geometric_params", present)]
    chosen = None
    for query_id in one_query_per_group(db):
        relevant = db.relevant_to(query_id)
        one_shot = engine.search_knn(query_id, "principal_moments", k=present)
        pr_one = evaluate_retrieval([r.shape_id for r in one_shot], relevant)
        multi = run_cascade(
            engine, query_id, CascadeStrategy.from_steps(plan_steps)
        ).results
        pr_multi = evaluate_retrieval([r.shape_id for r in multi], relevant)
        if chosen is None:
            chosen = (query_id, pr_one, pr_multi)
        if pr_multi.recall > pr_one.recall:
            chosen = (query_id, pr_one, pr_multi)
            break
    assert chosen is not None
    query_id, pr_one, pr_multi = chosen
    return MultiStepExampleResult(
        query_id=query_id,
        query_name=db.get(query_id).name,
        one_shot_feature="principal_moments",
        one_shot_precision=pr_one.precision,
        one_shot_recall=pr_one.recall,
        multistep_plan=plan_steps,
        multistep_precision=pr_multi.precision,
        multistep_recall=pr_multi.recall,
    )


# ======================================================================
# FIG15 — average recall over 26 queries
# ======================================================================
@dataclass
class AverageRecallResult:
    """Average recall of the 26-query workload (Fig. 15).

    Two series: ``|R| = |A|`` (retrieve as many shapes as the group size,
    where precision equals recall) and ``|R| = 10``.  The multi-step rows
    report both the paper's fixed plan (moment invariants pool filtered by
    geometric parameters) and the interactive strategy where the user picks
    the best filter sequence per query.
    """

    recall_at_group_size: Dict[str, float]
    recall_at_10: Dict[str, float]
    multistep_fixed: Tuple[float, float]
    multistep_user_guided: Tuple[float, float]
    n_queries: int

    def ordering(self, series: str = "group_size") -> List[str]:
        """Feature names by descending average recall."""
        data = (
            self.recall_at_group_size
            if series == "group_size"
            else self.recall_at_10
        )
        return sorted(data, key=data.get, reverse=True)

    def multistep_gain_over_best(self) -> Tuple[float, float]:
        """(fixed, user-guided) relative gain over the best one-shot FV at
        |R|=|A| — the paper's '51% higher' statistic."""
        best = max(self.recall_at_group_size.values())
        return (
            self.multistep_fixed[0] / best - 1.0,
            self.multistep_user_guided[0] / best - 1.0,
        )

    def format(self) -> str:
        lines = [f"FIG15  Average recall of {self.n_queries} queries"]
        lines.append(f"  {'feature vector':28s} {'|R|=|A|':>8s} {'|R|=10':>8s}")
        for fname in FEATURE_ORDER:
            lines.append(
                f"  {fname:28s} {self.recall_at_group_size[fname]:8.3f} "
                f"{self.recall_at_10[fname]:8.3f}"
            )
        lines.append(
            f"  {'multi-step (fixed mi->gp)':28s} {self.multistep_fixed[0]:8.3f} "
            f"{self.multistep_fixed[1]:8.3f}"
        )
        lines.append(
            f"  {'multi-step (user-guided)':28s} "
            f"{self.multistep_user_guided[0]:8.3f} "
            f"{self.multistep_user_guided[1]:8.3f}"
        )
        fixed_gain, guided_gain = self.multistep_gain_over_best()
        lines.append(
            f"  multi-step gain over best one-shot at |R|=|A|: "
            f"fixed {fixed_gain:+.0%}, user-guided {guided_gain:+.0%} "
            f"(paper: +51%)"
        )
        lines.append(
            "  descending order (|R|=|A|): " + " > ".join(self.ordering())
        )
        return "\n".join(lines)


def _recall_of(engine: SearchEngine, query_id: int, ids: List[int]) -> float:
    relevant = set(engine.database.relevant_to(query_id))
    return len(relevant & set(ids)) / len(relevant)


def exp_average_recall(
    db: ShapeDatabase,
    engine: SearchEngine,
    plans: Optional[List[List[Tuple[str, int]]]] = None,
) -> AverageRecallResult:
    """Reproduce Fig. 15: average recall per feature vector and for the
    multi-step strategy, at |R|=|A| and |R|=10."""
    queries = one_query_per_group(db)
    plans = plans if plans is not None else MULTISTEP_PLANS

    at_group: Dict[str, List[float]] = {f: [] for f in FEATURE_ORDER}
    at_ten: Dict[str, List[float]] = {f: [] for f in FEATURE_ORDER}
    fixed_group, fixed_ten = [], []
    guided_group, guided_ten = [], []

    for query_id in queries:
        group_size = len(db.relevant_to(query_id))
        for fname in FEATURE_ORDER:
            res = engine.search_knn(query_id, fname, k=group_size)
            at_group[fname].append(_recall_of(engine, query_id, [r.shape_id for r in res]))
            res10 = engine.search_knn(query_id, fname, k=10)
            at_ten[fname].append(_recall_of(engine, query_id, [r.shape_id for r in res10]))

        def run_plan(steps: List[Tuple[str, int]], final_k: int) -> float:
            plan = CascadeStrategy.from_steps(
                steps[:-1] + [(steps[-1][0], final_k)]
            )
            res = run_cascade(engine, query_id, plan).results
            return _recall_of(engine, query_id, [r.shape_id for r in res])

        fixed = plans[0]
        fixed_group.append(run_plan(fixed, group_size))
        fixed_ten.append(run_plan(fixed, 10))
        guided_group.append(max(run_plan(p, group_size) for p in plans))
        guided_ten.append(max(run_plan(p, 10) for p in plans))

    return AverageRecallResult(
        recall_at_group_size={f: float(np.mean(v)) for f, v in at_group.items()},
        recall_at_10={f: float(np.mean(v)) for f, v in at_ten.items()},
        multistep_fixed=(float(np.mean(fixed_group)), float(np.mean(fixed_ten))),
        multistep_user_guided=(
            float(np.mean(guided_group)),
            float(np.mean(guided_ten)),
        ),
        n_queries=len(queries),
    )


# ======================================================================
# FIG16 — average precision AND recall at |R| = 10
# ======================================================================
@dataclass
class EffectivenessAt10Result:
    """Average precision and recall with ten shapes retrieved (Fig. 16)."""

    precision: Dict[str, float]
    recall: Dict[str, float]
    multistep_precision: float
    multistep_recall: float
    n_queries: int

    def format(self) -> str:
        lines = [
            f"FIG16  Effectiveness of {self.n_queries} queries retrieving 10 shapes"
        ]
        lines.append(f"  {'strategy':28s} {'avg prec':>9s} {'avg recall':>10s}")
        for fname in FEATURE_ORDER:
            lines.append(
                f"  {fname + ', one-shot':28s} {self.precision[fname]:9.3f} "
                f"{self.recall[fname]:10.3f}"
            )
        lines.append(
            f"  {'multi-step':28s} {self.multistep_precision:9.3f} "
            f"{self.multistep_recall:10.3f}"
        )
        return "\n".join(lines)


def exp_effectiveness_at_10(
    db: ShapeDatabase,
    engine: SearchEngine,
    k: int = 10,
) -> EffectivenessAt10Result:
    """Reproduce Fig. 16: precision and recall at a fixed |R| = 10."""
    queries = one_query_per_group(db)
    precision: Dict[str, List[float]] = {f: [] for f in FEATURE_ORDER}
    recall: Dict[str, List[float]] = {f: [] for f in FEATURE_ORDER}
    ms_p, ms_r = [], []
    fixed = MULTISTEP_PLANS[0]
    for query_id in queries:
        relevant = db.relevant_to(query_id)
        for fname in FEATURE_ORDER:
            res = engine.search_knn(query_id, fname, k=k)
            pr = evaluate_retrieval([r.shape_id for r in res], relevant)
            precision[fname].append(pr.precision)
            recall[fname].append(pr.recall)
        plan = CascadeStrategy.from_steps(fixed[:-1] + [(fixed[-1][0], k)])
        res = run_cascade(engine, query_id, plan).results
        pr = evaluate_retrieval([r.shape_id for r in res], relevant)
        ms_p.append(pr.precision)
        ms_r.append(pr.recall)
    return EffectivenessAt10Result(
        precision={f: float(np.mean(v)) for f, v in precision.items()},
        recall={f: float(np.mean(v)) for f, v in recall.items()},
        multistep_precision=float(np.mean(ms_p)),
        multistep_recall=float(np.mean(ms_r)),
        n_queries=len(queries),
    )


# ======================================================================
# EXT-MAP — mean average precision over every classified query
# ======================================================================
@dataclass
class MeanAPResult:
    """Mean average precision per feature vector (extension metric).

    Unlike the paper's 26-query fixed-|R| protocol, mAP uses *every*
    classified shape as a query and integrates precision over the whole
    ranking — the standard retrieval summary the paper predates.
    """

    mean_ap: Dict[str, float]
    n_queries: int

    def ordering(self) -> List[str]:
        return sorted(self.mean_ap, key=self.mean_ap.get, reverse=True)

    def format(self) -> str:
        lines = [f"EXT-MAP  Mean average precision over {self.n_queries} queries"]
        for fname in self.ordering():
            lines.append(f"  {fname:24s} {self.mean_ap[fname]:.3f}")
        return "\n".join(lines)


def exp_mean_average_precision(
    db: ShapeDatabase,
    engine: SearchEngine,
    features: Optional[Sequence[str]] = None,
) -> MeanAPResult:
    """mAP of full rankings for every classified shape (86 queries)."""
    from .metrics import average_precision

    names = list(features) if features is not None else list(FEATURE_ORDER)
    queries = [rec.shape_id for rec in db if rec.group is not None]
    totals: Dict[str, List[float]] = {f: [] for f in names}
    for query_id in queries:
        relevant = db.relevant_to(query_id)
        if not relevant:
            continue
        for fname in names:
            ranked = engine.search_knn(query_id, fname, k=len(db))
            totals[fname].append(
                average_precision([r.shape_id for r in ranked], relevant)
            )
    return MeanAPResult(
        mean_ap={f: float(np.mean(v)) for f, v in totals.items()},
        n_queries=len(totals[names[0]]),
    )


# ======================================================================
# EXT-GROUPS — per-family difficulty analysis
# ======================================================================
@dataclass
class GroupDifficultyResult:
    """Recall at |R| = |A| per group per feature vector.

    Shows *which* part families each descriptor handles or fails — the
    qualitative discussion the paper gives for its five PR-curve shapes,
    extended to every group.
    """

    recall: Dict[str, Dict[str, float]]  # group -> feature -> recall

    def hardest_groups(self, feature_name: str, n: int = 5) -> List[str]:
        by_feature = {g: r[feature_name] for g, r in self.recall.items()}
        return sorted(by_feature, key=by_feature.get)[:n]

    def format(self) -> str:
        lines = ["EXT-GROUPS  per-family recall at |R|=|A|"]
        header = f"  {'group':18s}"
        for fname in FEATURE_ORDER:
            header += f" {fname[:12]:>13s}"
        lines.append(header)
        for group in sorted(self.recall):
            row = f"  {group:18s}"
            for fname in FEATURE_ORDER:
                row += f" {self.recall[group][fname]:13.2f}"
            lines.append(row)
        return "\n".join(lines)


def exp_group_difficulty(
    db: ShapeDatabase, engine: SearchEngine
) -> GroupDifficultyResult:
    """Per-group average recall at |R| = |A| (all members as queries)."""
    cmap = db.classification_map()
    recall: Dict[str, Dict[str, float]] = {}
    for group, ids in sorted(cmap.items()):
        per_feature: Dict[str, List[float]] = {f: [] for f in FEATURE_ORDER}
        for query_id in ids:
            relevant = set(db.relevant_to(query_id))
            if not relevant:
                continue
            for fname in FEATURE_ORDER:
                res = engine.search_knn(query_id, fname, k=len(relevant))
                per_feature[fname].append(
                    len(relevant & {r.shape_id for r in res}) / len(relevant)
                )
        recall[group] = {
            f: float(np.mean(v)) if v else 0.0 for f, v in per_feature.items()
        }
    return GroupDifficultyResult(recall=recall)


# ======================================================================
# RTREE — index efficiency (Section 2.3's claim, ref [6])
# ======================================================================
@dataclass
class RTreeEfficiencyRow:
    """One database size in the index-efficiency experiment."""

    label: str
    n_points: int
    dim: int
    rtree_accesses_per_query: float
    linear_accesses_per_query: float
    speedup: float


@dataclass
class RTreeEfficiencyResult:
    """R-tree vs linear scan on real and synthetic feature databases."""

    rows: List[RTreeEfficiencyRow]

    def format(self) -> str:
        lines = ["RTREE  Index efficiency (10-NN queries, node/point accesses)"]
        lines.append(
            f"  {'database':24s} {'n':>7s} {'dim':>4s} "
            f"{'r-tree':>10s} {'linear':>10s} {'ratio':>7s}"
        )
        for row in self.rows:
            lines.append(
                f"  {row.label:24s} {row.n_points:7d} {row.dim:4d} "
                f"{row.rtree_accesses_per_query:10.1f} "
                f"{row.linear_accesses_per_query:10.1f} {row.speedup:7.1f}x"
            )
        return "\n".join(lines)


def exp_rtree_efficiency(
    db: ShapeDatabase,
    synthetic_sizes: Sequence[int] = (1000, 5000, 20000),
    dim: int = 3,
    n_queries: int = 20,
    k: int = 10,
    seed: int = 7,
) -> RTreeEfficiencyResult:
    """Compare R-tree node accesses against a linear scan.

    Uses the real 113-shape feature database plus synthetic clustered
    vector sets of growing size (the protocol of the paper's ref [6]).
    """
    rng = np.random.default_rng(seed)
    rows: List[RTreeEfficiencyRow] = []

    def measure(points: np.ndarray, label: str) -> None:
        ids = list(range(len(points)))
        tree = RTree.bulk_load(points, ids)
        linear = LinearScanIndex(points.shape[1])
        for i, p in zip(ids, points):
            linear.insert(p, i)
        tree.reset_stats()
        linear.reset_stats()
        queries = points[rng.choice(len(points), size=n_queries, replace=False)]
        for q in queries:
            got_tree = [i for i, _ in tree.nearest(q, k=k)]
            got_lin = [i for i, _ in linear.nearest(q, k=k)]
            if set(got_tree) != set(got_lin):  # pragma: no cover - correctness guard
                raise AssertionError(f"{label}: R-tree k-NN diverged from scan")
        # Leaf entries vs points are not directly comparable; we report
        # entry-level accesses for both (node accesses x capacity bound).
        rows.append(
            RTreeEfficiencyRow(
                label=label,
                n_points=len(points),
                dim=points.shape[1],
                rtree_accesses_per_query=tree.node_accesses
                * tree.max_entries
                / (2 * n_queries),
                linear_accesses_per_query=linear.point_accesses / (2 * n_queries),
                speedup=linear.point_accesses
                / max(1.0, tree.node_accesses * tree.max_entries),
            )
        )

    matrix, _ = db.feature_matrix("principal_moments")
    measure(matrix, "real (principal moments)")
    for size in synthetic_sizes:
        n_clusters = max(4, size // 250)
        centers = rng.uniform(-10, 10, size=(n_clusters, dim))
        assign = rng.integers(n_clusters, size=size)
        points = centers[assign] + rng.normal(scale=0.3, size=(size, dim))
        measure(points, f"synthetic clustered")
    return RTreeEfficiencyResult(rows=rows)
