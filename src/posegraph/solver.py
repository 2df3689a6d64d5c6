"""Globally optimal person-joint assignment.

Each joint type induces an independent bipartite subproblem: person proposals
on one side, joint nodes on the other, edge weights from heatmap responses.
The solver maximizes total selected weight subject to the one-joint-per-person
and one-person-per-joint constraints, solving each subproblem with a sparse
shortest-augmenting-path assignment routine (Jonker and Volgenant's, "A
shortest augmenting path algorithm for dense and sparse linear assignment
problems", Computing 38, 1987). Summing the per-type optima is exact because
the subproblems share no variables.

The routine starts with Jonker and Volgenant's augmenting row reduction: each
row in turn claims its cheapest column and raises that column's price until
the row's second-best column costs as much, so a later row claims the column
only if it gains more. This cheap pass matches most rows of a sparse instance
(it leaves 33 to 53 of the 1,600 rows of a random degree-4 ring free); a
Dijkstra search over reduced costs then places each row it left free. Both
keep the potentials a dual certificate, so what follows holds whichever
matched a row.

Partial matchings are handled by giving every row a private zero-cost slack
column: leaving a person unmatched is always feasible, and since every real
weight is positive, a real match is chosen exactly when it helps the total.

Among optima of equal exact weight the solver returns the lexicographically
smallest selected pair set, and it decides both without float rounding. Each
weight becomes an exact integer: every float is an integer over a power of
two, so scaling by the largest such denominator among a subproblem's weights
loses nothing. Reduced costs, potentials and path lengths are then plain
Python integers, so a reduced cost that is zero is exactly zero.

A solve runs one search routine once or twice. The first runs on the exact
weights alone (cost -exact). Its potentials u, v prove the matching optimal,
and they describe all optima: a matching is optimal exactly when it uses
only tight edges (reduced cost zero) and covers every column with v < 0.
Another optimum differs from the first by tight alternating cycles, and by
tight alternating paths from a covered column with v == 0 to a free column.
Draw an arc from each row's column to each of its other tight columns, and
join every free column through one hub node to every covered column with
v == 0: those cycles and paths are then the directed cycles. Trimming dead
ends (nodes with no arc onward, then nodes whose every arc leads to one)
leaves a node exactly when a directed cycle exists. With nothing left, as
with random weights, the first matching is the unique optimum.

Otherwise the whole subproblem is solved again, with one integer cost per
edge: the exact weight shifted above a tie-break payoff. Row r's k-th edge
(rows and columns ascending, R rows) pays (d_r - k) * B^(R - 1 - r), where
d_r is the row's degree and B is a power of two above every degree.
Matching a row at all, or to an earlier column, outweighs every payoff of
the later rows together, which is exactly the lexicographic order on sorted
pair tuples, and the shift puts one unit of weight above all payoffs
together. So the second pass maximizes the exact weight first and returns
the lexicographically smallest optimum by construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappush, heappop

from .graph import PersonJointGraph
from .grouping import weighted_center
from .joints import JOINT_COUNT, OKS_SIGMAS
from .metrics import GroundTruthPerson, check_oks_sigmas, compute_oks

INF = math.inf


@dataclass(frozen=True, slots=True)
class Matching:
    """Solution of one subproblem: selected (row, column) pairs, ascending,
    and their total weight."""

    pairs: tuple[tuple[int, int], ...]
    total_weight: float


@dataclass(frozen=True, slots=True)
class Assignment:
    """Joint selection across all joint types.

    ``selected`` holds (joint_type, proposal, node) triples; at most one node
    per (joint_type, proposal) and one proposal per node.
    """

    selected: frozenset[tuple[int, int, int]]
    total_weight: float

    def __post_init__(self):
        seen_pi = set()
        seen_node = set()
        for k, i, j in self.selected:
            if (k, i) in seen_pi:
                raise ValueError(f"proposal {i} assigned twice for joint type {k}")
            if j in seen_node:
                raise ValueError(f"node {j} assigned twice")
            seen_pi.add((k, i))
            seen_node.add(j)


@dataclass(frozen=True, slots=True)
class Pose:
    """Final pose for one proposal: per-joint (location, score) slots, None
    where nothing was assigned, and the mean assigned-joint score."""

    proposal_id: int
    keypoints: tuple[tuple[tuple[float, float], float] | None, ...]
    pose_score: float

    def __post_init__(self):
        if len(self.keypoints) != JOINT_COUNT:
            raise ValueError(f"pose keypoints must hold {JOINT_COUNT} entries")
        if not any(slot is not None for slot in self.keypoints):
            raise ValueError("a pose needs at least one keypoint")


def _exact_entries(weights: dict[tuple[int, int], float]) -> list[tuple[int, int, int]]:
    """Positive entries as (row, column, exact), ascending by (row, column).
    ``exact`` is the weight counted in the finest binary unit among the
    weights (every float is an integer over a power of two), so integer sums
    of it compare exactly where float sums can round to a tie.

    Raises:
        ValueError: any negative or non-finite weight.
    """
    entries = []
    unit = 1
    for (i, j), w in weights.items():
        if not 0 <= w < INF:
            raise ValueError(f"negative or non-finite weight {w} at ({i}, {j})")
        if w > 0:
            n, d = w.as_integer_ratio()
            if d > unit:
                unit = d
            entries.append((i, j, n, d))
    entries.sort()
    return [(i, j, n * (unit // d)) for i, j, n, d in entries]


def _assign(
    adj: list[list[tuple[int, int]]], n_total: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Minimum-cost assignment of every row to one of columns 0..n_total-1.

    ``adj[r]`` lists row r's edges as (column, integer cost): at least one
    real edge, then the row's private slack column.

    Augmenting row reduction starts the call. A free row takes its cheapest
    column by ``cost - v[j]`` and lowers that column's v by the gap to its
    second-best column, or, when the two tie and the cheapest is held, takes
    the second-best column. Its u is that second-best value, so its edges
    keep reduced cost >= 0 and its matched edge is tight. v only falls, and
    only on the column being matched, so a matched column never becomes
    free; a row pushed off its column is queued again. Two rows whose costs
    differ by one unit can trade a column back and forth, lowering its v by
    one unit each time, so the reduction stops after 2 * R steps for R rows.
    A shortest-augmenting-path search then places each row still free,
    starting from u = its smallest ``cost - v[j]``.

    Each search allocates its own ``dist`` and ``pred``; only u, v and the
    matching outlive it. Row reduction leaves so few rows to search that
    this costs nothing: 2 of 7,096 rows on 100 default scenes (1,398 of
    1,400 calls search none), 3 of 5,151 on ten 30-person scenes, 33 to 53
    of 1,600 on the benchmark ring. The costs are exact integers; the
    exact-weight pass keeps them as wide as the weights, and only a
    subproblem with another optimum pays for the tie-break payoff, R * bits
    wider for its R rows.

    Returns:
        (col_of_row, row_of_col, u, v), with -1 for a free column. Every edge
        has reduced cost ``cost - u[r] - v[j] >= 0``, every matched edge has
        reduced cost 0, and ``v[j] <= 0``, below zero only on matched
        columns.
    """
    n_rows = len(adj)
    u = [0] * n_rows
    v = [0] * n_total

    col_of_row = [-1] * n_rows
    row_of_col = [-1] * n_total

    # Augmenting row reduction over a queue of the free rows; a row pushed
    # off its column joins the back.
    queue = deque(range(n_rows))
    for _ in range(2 * n_rows):
        if not queue:
            break
        r = queue.popleft()
        h1 = h2 = INF
        j1 = j2 = -1
        for j, c in adj[r]:
            h = c - v[j]
            if h < h2:
                if h < h1:
                    h2, j2 = h1, j1
                    h1, j1 = h, j
                else:
                    h2, j2 = h, j
        i0 = row_of_col[j1]
        if h1 < h2:
            v[j1] -= h2 - h1
        elif i0 != -1:
            j1 = j2
            i0 = row_of_col[j1]
        if i0 != -1:
            col_of_row[i0] = -1
            queue.append(i0)
        row_of_col[j1] = r
        col_of_row[r] = j1
        u[r] = h2
    # A row still free starts at its smallest cost - v, so its reduced costs
    # are non-negative.
    free_rows = list(queue)
    for r in free_rows:
        u[r] = min(c - v[j] for j, c in adj[r])

    for r in free_rows:
        dist: list[float | int] = [INF] * n_total
        pred = [-1] * n_total
        heap: list[tuple[int, int]] = []
        for j, c in adj[r]:
            dist[j] = d = c - u[r] - v[j]
            pred[j] = r
            heappush(heap, (d, j))
        scanned = []
        # The private slack column is always reachable, so a free column j
        # is popped, at distance d, before the heap runs dry.
        while True:
            d, j = heappop(heap)
            if d > dist[j]:
                continue
            if row_of_col[j] == -1:
                break
            scanned.append(j)
            i2 = row_of_col[j]
            for j2, c in adj[i2]:
                nd = d + c - u[i2] - v[j2]
                if nd < dist[j2]:
                    dist[j2] = nd
                    pred[j2] = i2
                    heappush(heap, (nd, j2))
        for k in scanned:
            v[k] += dist[k] - d
            u[row_of_col[k]] += d - dist[k]
        u[r] += d
        while True:
            i = pred[j]
            next_j = col_of_row[i]
            row_of_col[j] = i
            col_of_row[i] = j
            if i == r:
                break
            j = next_j

    return col_of_row, row_of_col, u, v


def _has_cycle(arcs: list[tuple[int, int]], row_of_col: list[int], v: list[int]) -> bool:
    """Whether the arcs (from_column, to_column) close a directed cycle once
    one hub node joins every free column to every covered column with
    ``v == 0``: whether any node is left after dead ends are trimmed."""
    hub = -1
    succ: dict[int, list[int]] = {}
    for c, j in arcs:
        succ.setdefault(c, []).append(j)
    pred: dict[int, list[int]] = {}
    for c, j in arcs:
        pred.setdefault(j, []).append(c)
    # Arcs start at covered columns only, so a free column can only end one.
    sources = [c for c in succ if v[c] == 0]
    sinks = [j for j in pred if row_of_col[j] == -1]
    if sources and sinks:
        succ[hub] = sources
        pred[hub] = sinks
        for c in sources:
            pred.setdefault(c, []).append(hub)
        for j in sinks:
            succ[j] = [hub]

    # Trim dead ends: a node whose every successor is a dead end is one too.
    # The nodes left keep a positive out-degree.
    outdeg = {n: len(ms) for n, ms in succ.items()}
    queue = [m for m in pred if m not in succ]
    while queue:
        for n in pred.get(queue.pop(), ()):
            outdeg[n] -= 1
            if not outdeg[n]:
                queue.append(n)
    return any(outdeg.values())


def solve_subgraph(weights: dict[tuple[int, int], float]) -> Matching:
    """Maximum-weight bipartite matching on a sparse weight map.

    Args:
        weights: (row, column) -> weight. Rows and columns may be any
            integers; absent pairs are unmatchable. Zero-weight entries are
            dropped, since matching them can never help the total.

    Returns:
        Matching with pairs sorted ascending and total_weight the correctly
        rounded sum (math.fsum) of selected weights. Rows and columns may
        stay unmatched; among optima of equal exact weight the
        lexicographically smallest pair set is returned.

    Raises:
        ValueError: any negative or non-finite weight.
    """
    entries = _exact_entries(weights)
    if not entries:
        return Matching(pairs=(), total_weight=0.0)

    cols = sorted({j for _, j, _ in entries})
    col_index = {c: idx for idx, c in enumerate(cols)}
    n_cols = len(cols)

    # Exact-weight pass: each edge costs its negated exact weight, and row
    # r's private slack column n_cols + r closes it at cost zero. Entries
    # come sorted by row, so each new row id starts the next row.
    rows: list[int] = []
    adj: list[list[tuple[int, int]]] = []
    for i, j, exact in entries:
        if not rows or rows[-1] != i:
            rows.append(i)
            adj.append([])
        adj[-1].append((col_index[j], -exact))
    n_rows = len(rows)
    for r in range(n_rows):
        adj[r].append((n_cols + r, 0))
    col_of_row, row_of_col, u, v = _assign(adj, n_cols + n_rows)

    # Each unmatched tight edge (r, j) is an arc from r's column to j.
    arcs = []
    for r, edges in enumerate(adj):
        c = col_of_row[r]
        ur = u[r]
        for j, cost in edges:
            if cost - ur == v[j] and j != c:
                arcs.append((c, j))
    if _has_cycle(arcs, row_of_col, v):
        # Another optimum exists: solve again with row r's k-th edge paying
        # (d_r - k) << (bits * (n_rows - 1 - r)) below its shifted weight.
        bits = (max(len(edges) for edges in adj) - 1).bit_length()
        shift = bits * n_rows
        for r, edges in enumerate(adj):
            degree = len(edges) - 1
            place = bits * (n_rows - 1 - r)
            for k in range(degree):
                j, cost = edges[k]
                edges[k] = (j, (cost << shift) - ((degree - k) << place))
        col_of_row, _, _, _ = _assign(adj, n_cols + n_rows)
    pairs = [(rows[r], cols[j]) for r, j in enumerate(col_of_row) if j < n_cols]
    total = math.fsum(weights[p] for p in pairs)
    return Matching(pairs=tuple(pairs), total_weight=total)


def solve_graph(graph: PersonJointGraph) -> Assignment:
    """Solve every per-joint-type subproblem and combine the results.

    The constraints never couple joint types, so the union of per-type
    optima is the global optimum. The total is one flat math.fsum over the
    selected edge weights in ascending (joint_type, proposal, node) order:
    a correctly rounded sum of the leaves, so any exact-real ordering
    against another flat fsum (e.g. the greedy baseline total) survives
    rounding. Summing per-type subtotals instead would round twice and can
    drift a few ulps.
    """
    by_type: dict[int, dict[tuple[int, int], float]] = {}
    for e in graph.edges:
        by_type.setdefault(e.joint_type, {})[(e.proposal, e.node)] = e.weight
    selected = set()
    for joint_type, weights in by_type.items():
        for i, j in solve_subgraph(weights).pairs:
            selected.add((joint_type, i, j))
    total = math.fsum(by_type[k][(i, j)] for k, i, j in sorted(selected))
    return Assignment(selected=frozenset(selected), total_weight=total)


def build_poses(assignment: Assignment, graph: PersonJointGraph) -> list[Pose]:
    """Turn an assignment into final poses.

    Each selected (joint_type, proposal, node) places the node's weighted
    center into that proposal's pose; proposals with no assigned joints are
    removed. The pose score is the mean of assigned joint scores.

    Returns:
        Poses sorted by proposal_id.
    """
    return _poses_from_triples(sorted(assignment.selected), graph)


def _poses_from_triples(
    triples: list[tuple[int, int, int]], graph: PersonJointGraph
) -> list[Pose]:
    node_of = {n.node_id: n for n in graph.nodes}
    slots: dict[int, list] = {}
    for k, i, j in triples:
        slots.setdefault(i, [None] * JOINT_COUNT)[k] = weighted_center(node_of[j])
    poses = []
    for proposal_id in sorted(slots):
        keypoints = tuple(slots[proposal_id])
        scores = [slot[1] for slot in keypoints if slot is not None]
        poses.append(
            Pose(
                proposal_id=proposal_id,
                keypoints=keypoints,
                pose_score=math.fsum(scores) / len(scores),
            )
        )
    return poses


def greedy_select(graph: PersonJointGraph) -> list[tuple[int, int, int]]:
    """Per-proposal greedy choice, ignoring node exclusivity.

    Every proposal independently takes its highest-weight incident edge per
    joint type (ties to the lower node_id), so one joint node can end up in
    several poses. This is the duplicated-joint failure mode global solving
    exists to fix.

    Returns:
        (joint_type, proposal, node) triples sorted ascending.
    """
    best: dict[tuple[int, int], tuple[float, int]] = {}
    for e in graph.edges:
        key = (e.joint_type, e.proposal)
        cur = best.get(key)
        if cur is None or (-e.weight, e.node) < cur:
            best[key] = (-e.weight, e.node)
    return sorted((k, i, node) for (k, i), (_nw, node) in best.items())


def greedy_total_weight(graph: PersonJointGraph) -> float:
    """Total weight credited to the greedy selection.

    A node claimed by several proposals counts once, at its best claiming
    weight; this equals the weight of the feasible matching obtained by
    keeping each node's strongest claim, so the global optimum is always at
    least this value.
    """
    edge_weight = {(e.proposal, e.node): e.weight for e in graph.edges}
    claimed: dict[int, float] = {}
    for _k, i, j in greedy_select(graph):
        w = edge_weight[(i, j)]
        if j not in claimed or w > claimed[j]:
            claimed[j] = w
    return math.fsum(claimed[j] for j in sorted(claimed))


def greedy_baseline(graph: PersonJointGraph) -> list[Pose]:
    """Poses built from the per-proposal greedy selection."""
    return _poses_from_triples(greedy_select(graph), graph)


def _pose_as_pseudo_gt(pose: Pose) -> GroundTruthPerson:
    # A tight box around the present joints stands in for an annotated bbox;
    # degenerate extents are padded to one pixel so the area stays positive.
    points = [slot[0] for slot in pose.keypoints if slot is not None]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    w = max(max(xs) - min(xs), 1.0)
    h = max(max(ys) - min(ys), 1.0)
    keypoints = tuple(
        ((slot[0], 2) if slot is not None else None) for slot in pose.keypoints
    )
    return GroundTruthPerson(
        person_id=pose.proposal_id,
        keypoints=keypoints,
        bbox=(min(xs), min(ys), w, h),
    )


def pose_dedup_baseline(
    poses: list[Pose],
    oks_threshold: float = 0.7,
    sigmas=OKS_SIGMAS,
) -> list[Pose]:
    """Greedy pose-level suppression by OKS similarity.

    Poses are kept in descending pose_score order; a pose is dropped when
    its OKS against an already kept pose exceeds the threshold.

    Returns:
        Surviving poses in their input order.
    """
    if not 0.0 < oks_threshold < 1.0:
        raise ValueError(f"oks_threshold must lie in (0, 1), got {oks_threshold}")
    check_oks_sigmas(sigmas)
    order = sorted(
        range(len(poses)), key=lambda idx: (-poses[idx].pose_score, poses[idx].proposal_id)
    )
    kept_idx: list[int] = []
    references: dict[int, GroundTruthPerson] = {}
    for idx in order:
        if all(
            compute_oks(poses[idx], references[kept], sigmas) <= oks_threshold
            for kept in kept_idx
        ):
            kept_idx.append(idx)
            references[idx] = _pose_as_pseudo_gt(poses[idx])
    kept = set(kept_idx)
    return [p for idx, p in enumerate(poses) if idx in kept]
