"""The paper's §3.5 analytic cost model.

Unit costs: every per-tuple scan, hash-table insert or probe costs 1;
every Bloom insert or probe costs β ≪ 1; the Bloom filter has false
positive rate ε.  The model predicts:

* Yannakakis:      N + c_y·N           (semi-join phase, hash ops)
                   + t·OUT             (join phase)
* PredTrans:       N + β·c_p·N         (transfer phase, Bloom ops)
                   + t·OUT·(1 + ε′t)   (join phase with false positives)

where ε′ = (1/Sel_min − 1)·ε and Sel_min is the smallest per-table
pre-filter survival fraction.  The blow-up factor carried into the join
phase is  p = Π_k (1 + (T_k − T*_k)/T*_k · ε).

Two uses:

* the closed-form functions below reproduce the paper's formulas for
  analysis and tests;
* :func:`cost_from_stats` instantiates the model from *measured*
  operation counts (:class:`~repro.engine.stats.QueryStats`), which the
  cost-model bench compares against measured wall time — the model's
  predicted strategy ordering should match the measured one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.stats import QueryStats
from ..errors import ReproError


@dataclass(frozen=True)
class CostParams:
    """Unit-cost parameters of the §3.5 model.

    ``beta`` is the Bloom-op : hash-op cost ratio; ``epsilon`` the Bloom
    false-positive rate.  The defaults match the library's defaults
    (fpp 0.01) and a β measured for this substrate's vectorized kernels.
    """

    beta: float = 0.1
    epsilon: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.beta:
            raise ReproError("beta must be positive")
        if not 0 <= self.epsilon < 1:
            raise ReproError("epsilon must be in [0, 1)")


def blowup_factor(
    rows_before: dict[str, int], rows_after: dict[str, int], epsilon: float
) -> float:
    """p = Π_k (1 + (T_k − T*_k)/T*_k · ε): the factor by which Bloom
    false positives inflate the join input relative to exact filtering."""
    p = 1.0
    for alias, before in rows_before.items():
        after = rows_after.get(alias, before)
        if after <= 0:
            continue  # a fully-filtered table contributes no FP blow-up
        p *= 1.0 + (before - after) / after * epsilon
    return p


def epsilon_prime(
    rows_before: dict[str, int], rows_after: dict[str, int], epsilon: float
) -> float:
    """ε′ = (1/Sel_min − 1)·ε, with Sel_min the smallest survival rate."""
    worst = 1.0
    for alias, before in rows_before.items():
        after = rows_after.get(alias, before)
        if before > 0 and after > 0:
            worst = min(worst, after / before)
    if worst <= 0:
        return 0.0
    return (1.0 / worst - 1.0) * epsilon


def yannakakis_cost(
    n_input: int, t_tables: int, out_rows: int, c_y: float = 1.0
) -> float:
    """Predicted unit cost of the Yannakakis baseline."""
    return n_input + c_y * n_input + t_tables * out_rows


def predtrans_cost(
    n_input: int,
    t_tables: int,
    out_rows: int,
    params: CostParams,
    eps_prime: float,
    c_p: float = 1.0,
) -> float:
    """Predicted unit cost of predicate transfer."""
    transfer = n_input + params.beta * c_p * n_input
    join = t_tables * out_rows * (1.0 + eps_prime * t_tables)
    return transfer + join


def cost_from_stats(stats: QueryStats, params: CostParams | None = None) -> float:
    """Instantiate the model from measured operation counts.

    Charges 1 per hash-table insert/probe (semi-join phase and join
    phase inputs) and β per Bloom insert/probe — exactly the §3.5
    accounting, with the constants c_y/c_p realized by the actual op
    counts rather than estimated.  A presence-bitmap insert or probe is
    charged β too: like a Bloom op it touches one bit and no hash table
    (and, lacking the hash, costs no more).
    """
    params = params or CostParams()
    cost = 0.0
    for block in stats.blocks():
        t = block.transfer
        cost += params.beta * sum(
            t.inserted(kind) + t.probed(kind) for kind in ("bloom", "bitmap")
        )
        cost += t.inserted("exact") + t.probed("exact")
        cost += sum(j.ht_rows + j.pr_rows for j in block.joins)
    return cost


def predicted_ranking(
    stats_by_strategy: dict[str, QueryStats], params: CostParams | None = None
) -> list[str]:
    """Strategies ordered cheapest-first by the op-count model."""
    params = params or CostParams()
    costs = {
        name: cost_from_stats(stats, params)
        for name, stats in stats_by_strategy.items()
    }
    return sorted(costs, key=costs.get)
