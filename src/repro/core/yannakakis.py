"""The Yannakakis baseline (paper §2.2 and §4.1) as a transfer schedule.

Yannakakis' semi-join phase is predicate transfer over a join *tree*
with exact filters (§3.2 "Filter Type"), so this module holds no
filter code of its own: it picks a rooted spanning tree of the join
graph and hands the shared kernel (:func:`repro.core.transfer.run_pass`)
two passes —

* **bottom-up**: every vertex ships an exact key-set filter to its
  parent (each vertex is reduced by its children);
* **top-down**: every vertex ships one to each child.

Each shipped filter is a semi-join: a hash set of the source's
surviving keys probed by the destination — unit-cost hash ops in the
paper's cost model.

Per the paper's setup, two extensions make it applicable to all TPC-H
queries:

* non-inner edges adopt the same direction-blocking rules as predicate
  transfer (a blocked direction's edge is left out of its pass, so it
  ships nothing);
* cyclic join graphs fall back to a spanning-tree plan with
  **residual-edge post-verification**: a root is picked, the BFS tree
  drives the two passes, and every edge off the tree — the source of
  classical Yannakakis' filtering loss on cyclic queries like Q5
  (§4.3) — is then verified as an extra two-vertex pass in each
  allowed direction.  Verification only removes rows that provably
  have no partner on the cycle edge, so it is always sound; the exact
  Yannakakis guarantee (every survivor participates in the join
  result) still holds only for acyclic inputs.

Disconnected graphs (cross products) reduce each connected component
independently; single-vertex components pass through untouched.  The
join phase is shared with every other strategy (the runner's).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..plan.joingraph import edge_keys_for
from .ptgraph import PTEdge, allowed_directions
from .transfer import ExecContext, TransferConfig, run_pass

#: Semi-joins are transfers with exact key-set filters.
SEMI_JOIN = TransferConfig(filter_type="exact")


@dataclass
class JoinTree:
    """A rooted spanning tree of the join graph."""

    root: str
    tree: nx.DiGraph  # edges parent -> child
    dropped_edges: list[tuple[str, str]] = field(default_factory=list)

    def bottom_up(self) -> list[str]:
        """Vertices ordered leaves-first (children before parents)."""
        return list(reversed(list(nx.topological_sort(self.tree))))

    def top_down(self) -> list[str]:
        """Vertices ordered root-first."""
        return list(nx.topological_sort(self.tree))


def build_join_tree(join_graph: nx.Graph, root: str | None = None) -> JoinTree:
    """BFS spanning tree from ``root`` (default: lexicographically first).

    The paper picks the root randomly and notes the resulting
    instability (§4.2, Q11/Q16 discussion); callers can pass any root to
    reproduce that sensitivity.
    """
    if root is None:
        root = sorted(join_graph.nodes)[0]
    tree = nx.bfs_tree(join_graph, root)
    tree_pairs = {frozenset(e) for e in tree.edges}
    dropped = [
        (u, v) for u, v in join_graph.edges if frozenset((u, v)) not in tree_pairs
    ]
    return JoinTree(root=root, tree=tree, dropped_edges=dropped)


def _allowed_edge(join_graph: nx.Graph, src: str, dst: str) -> list[PTEdge]:
    """The ``src``→``dst`` transfer edge, or nothing if that direction
    of the join edge is blocked (left/anti joins, §3.4)."""
    data = join_graph.edges[src, dst]
    l2r, r2l = allowed_directions(data)
    if not (l2r if data["syntactic_left"] == src else r2l):
        return []
    keys = edge_keys_for(join_graph, src, dst)
    return [
        PTEdge(src, dst, tuple(a for a, _ in keys), tuple(b for _, b in keys), True)
    ]


def run_semi_join_rows(
    state: ExecContext, join_graph: nx.Graph, root: str | None = None
) -> None:
    """Run the Yannakakis schedule over ``state.rows``.

    Same contract as :func:`repro.core.transfer.run_transfer_rows`:
    survivors stay sorted row-index vectors, the vectors bound on entry
    are never mutated, ``state.rows`` is rebound to the reduced ones
    and the filter statistics land in ``state.stats.transfer``.
    """
    for component in nx.connected_components(join_graph):
        if len(component) < 2:
            continue
        jtree = build_join_tree(
            join_graph.subgraph(component), root if root in component else None
        )
        up = [e for p, c in jtree.tree.edges for e in _allowed_edge(join_graph, c, p)]
        down = [e for p, c in jtree.tree.edges for e in _allowed_edge(join_graph, p, c)]
        run_pass(state, jtree.bottom_up(), up, SEMI_JOIN)
        run_pass(state, jtree.top_down(), down, SEMI_JOIN)
        # Residual-edge post-verification (the cyclic fallback): edges
        # the spanning tree skipped still constrain the final join, so
        # ship a filter across them in every allowed direction.
        for u, v in sorted(jtree.dropped_edges):
            for src, dst in ((u, v), (v, u)):
                for e in _allowed_edge(join_graph, src, dst):
                    run_pass(state, [src, dst], [e], SEMI_JOIN)
                    state.stats.transfer.edges_verified += 1
