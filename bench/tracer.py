"""Span tracing around the public functions of each oltrsim module.

The tracer replaces every wrapped function in every ``oltrsim`` module
namespace that holds it (``experiments`` imports ``sample_ranking`` by name,
``dbgd`` imports ``rank_deterministic``, and so on), so ``src/`` is not
changed.  Each call records a span (name, start, end, parent) in memory;
:meth:`Tracer.write_spans` writes them out when the run ends.  Counters
that give the per-layer ratios are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from oltrsim.dbgd import ComparisonOutcome

TRACED = (
    "experiments.run_experiment",
    "experiments.run_with_dataset",
    "experiments.load_config_dataset",
    "experiments.emit_outputs",
    "cli.main",
    "datasets.load_dataset",
    "datasets.parse_letor",
    "datasets.normalize_query_level",
    "datasets.make_synthetic",
    "datasets.sample_query",
    "ranking.sample_ranking",
    "ranking.rank_deterministic",
    "ranking.sample_unit_sphere",
    "clicks.simulate",
    "pdgd.pdgd_update",
    "pdgd.infer_pairwise_preferences",
    "dbgd.dbgd_step",
    "dbgd.probabilistic_interleave",
    "dbgd.infer_preference_probabilistic",
    "dbgd.team_draft_interleave",
    "dbgd.team_draft_infer",
    "dbgd.oracle_compare",
    "evaluation.evaluate_heldout",
    "evaluation.ndcg_at_k",
)

COMPARATORS = ("dbgd.infer_preference_probabilistic", "dbgd.team_draft_infer", "dbgd.oracle_compare")

# Ratios measured at the wrapped boundaries; name -> unit.
RATIOS = {
    "clicks.clicks_per_impression": "clicks/impr",
    "pdgd.pairs_per_update": "pairs/update",
    "pdgd.nonempty_update_ratio": "ratio",
    "dbgd.candidate_win_ratio": "ratio",
    "dbgd.tie_ratio": "ratio",
    "datasets.parse_letor.lines_per_s": "lines/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the functions in :data:`TRACED` while installed; not thread-safe."""

    def __init__(self):
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Final model of each run: (RunResult, weights of the last update, test split).
        self.finals: list[tuple[object, object, list]] = []
        self._last_weights = None

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "oltrsim" or name.startswith("oltrsim.")]
        for index, qualified in enumerate(TRACED):
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules[f"oltrsim.{module_name}"], func_name)
            wrapper = self._wrap(index, qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, index: int, qualified: str, func):
        observe = self._observer(qualified)
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, qualified: str):
        counts = self.counts
        if qualified == "clicks.simulate":
            def observe(args, interaction):
                counts["clicks"] += int(interaction.clicks.sum())
        elif qualified == "pdgd.infer_pairwise_preferences":
            def observe(args, pairs):
                counts["pairs"] += len(pairs)
                counts["nonempty_updates"] += bool(pairs)
        elif qualified in COMPARATORS:
            def observe(args, outcome):
                counts["comparisons"] += 1
                counts["candidate_wins"] += outcome is ComparisonOutcome.CANDIDATE
                counts["ties"] += outcome is ComparisonOutcome.TIE
        elif qualified == "datasets.parse_letor":
            def observe(args, result):
                counts["letor_lines"] += sum(q.n_docs for q in result[0])
        elif qualified in ("pdgd.pdgd_update", "dbgd.dbgd_step"):
            def observe(args, state):
                self._last_weights = state.ranker.weights
        elif qualified == "experiments.run_with_dataset":
            def observe(args, result):
                self.finals.append((result, self._last_weights, args[2].test))
                self._last_weights = None
        else:
            return None
        return observe

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``F.calls``, ``F.self_s`` for every traced F, plus the boundary ratios."""
        n = len(self.names)
        child_time = [0.0] * n
        for span in range(n):
            parent = self.parents[span]
            if parent >= 0:
                child_time[parent] += self.ends[span] - self.starts[span]
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        total_s = [0.0] * len(TRACED)
        for span in range(n):
            index = self.names[span]
            duration = self.ends[span] - self.starts[span]
            calls[index] += 1
            self_s[index] += duration - child_time[span]
            total_s[index] += duration
        metrics = {}
        for index, name in enumerate(TRACED):
            metrics[f"{name}.calls"] = (calls[index], "count")
            metrics[f"{name}.self_s"] = (self_s[index], "s")
        by_name = dict(zip(TRACED, calls))
        c = self.counts
        updates = by_name["pdgd.pdgd_update"]
        values = {
            "clicks.clicks_per_impression": _ratio(c["clicks"], by_name["clicks.simulate"]),
            "pdgd.pairs_per_update": _ratio(c["pairs"], updates),
            "pdgd.nonempty_update_ratio": _ratio(c["nonempty_updates"], updates),
            "dbgd.candidate_win_ratio": _ratio(c["candidate_wins"], c["comparisons"]),
            "dbgd.tie_ratio": _ratio(c["ties"], c["comparisons"]),
            "datasets.parse_letor.lines_per_s": _ratio(
                c["letor_lines"], total_s[TRACED.index("datasets.parse_letor")]
            ),
        }
        for name, value in values.items():
            metrics[name] = (value, RATIOS[name])
        return metrics

    def write_spans(self, path: str) -> None:
        """Write every span as ``id,name,start_s,end_s,parent`` (parent -1 for roots)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for span in range(len(self.names)):
                fh.write(
                    f"{span},{TRACED[self.names[span]]},{self.starts[span]!r},"
                    f"{self.ends[span]!r},{self.parents[span]}\n"
                )
