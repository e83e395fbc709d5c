"""The EXPLAIN surface: prepared plans priced by the cost model.

``InsightNotes.explain(sql)`` returns an :class:`Explanation` — a
``str`` subclass, so every existing caller that treats the rendering as
text (substring checks, ``splitlines()``, printing) keeps working —
that additionally carries the prepared logical plan and per-operator
cost/cardinality estimates, ZOOMIN-style:

    Sort(count(*) DESC)  [rows~3 cost~188.4]
      GroupBy(keys=[r.region]; aggs=[count(*)])  [rows~3 cost~185.2]
        Scan(readings AS r) [pushed: r.value > 10]  [rows~300 cost~75.0]

``to_json()`` exposes the same tree structurally for tooling (the serve
layer, notebooks), mirroring the engine's other ``to_json`` payloads.
"""

from __future__ import annotations

from typing import Any

from repro.engine import plan as lp
from repro.engine.cost import CostEstimate, CostModel


class Explanation(str):
    """A rendered plan explanation that is also the plan.

    Being a ``str`` keeps the original ``explain()`` contract (callers
    split lines, grep for operator names); :attr:`plan` and
    :meth:`to_json` add the structured view.
    """

    plan: lp.PlanNode
    _estimates: dict[int, CostEstimate]

    def __new__(
        cls,
        text: str,
        plan: lp.PlanNode,
        estimates: dict[int, CostEstimate],
    ) -> "Explanation":
        rendered = super().__new__(cls, text)
        rendered.plan = plan
        rendered._estimates = estimates
        return rendered

    def estimate_for(self, node: lp.PlanNode) -> CostEstimate:
        """The cost/cardinality estimate attached to one plan node."""
        return self._estimates[id(node)]

    def to_json(self) -> dict[str, Any]:
        """Nested per-operator view of the explained plan."""
        return self._node_json(self.plan)

    def _node_json(self, node: lp.PlanNode) -> dict[str, Any]:
        estimate = self._estimates[id(node)]
        return {
            "operator": type(node).__name__,
            "describe": node.describe(),
            "estimated_rows": round(estimate.rows, 2),
            "estimated_cost": round(estimate.cost, 2),
            "children": [
                self._node_json(child) for child in node.children()
            ],
        }


def build_explanation(plan: lp.PlanNode, model: CostModel) -> Explanation:
    """Render ``plan`` with per-operator estimates from ``model``.

    Estimates are computed per subtree, so every line prices the work
    up to and including that operator — the root's cost is the whole
    plan's.  The suffix format deliberately avoids operator-name words
    (plain ``rows~``/``cost~``) so substring checks against operator
    names keep meaning what they meant.
    """
    estimates: dict[int, CostEstimate] = {}
    lines: list[str] = []

    def annotate(node: lp.PlanNode, indent: int) -> None:
        estimate = model.estimate(node)
        estimates[id(node)] = estimate
        lines.append(
            "  " * indent
            + f"{node.describe()}  "
            + f"[rows~{estimate.rows:.0f} cost~{estimate.cost:.1f}]"
        )
        for child in node.children():
            annotate(child, indent + 1)

    annotate(plan, 0)
    return Explanation("\n".join(lines), plan, estimates)
