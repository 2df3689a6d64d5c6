"""Globally optimal person-joint assignment.

The solver maximizes the total selected weight of a person-joint graph
subject to the one-joint-per-person-and-type and one-person-per-joint
constraints, as one sparse assignment problem solved by a
shortest-augmenting-path routine (Jonker and Volgenant's, "A shortest
augmenting path algorithm for dense and sparse linear assignment problems",
Computing 38, 1987). A row is a (joint_type, proposal) pair and a column is a
joint node. Node ids are unique and every node has one joint type, so the
joint types share no row and no column: the problem is the disjoint union of
one bipartite subproblem per type, and its optimum is the union of theirs.

The routine starts with Jonker and Volgenant's augmenting row reduction: each
row in turn claims its cheapest column and raises that column's price to one
unit short of the row's second-best column, so a later row claims the column
only if it gains more. This cheap pass matches most rows of a sparse instance
(it leaves 33 to 53 of the 1,600 rows of a random degree-4 ring free); a
Dijkstra search over reduced costs then places each row it left free. Both
keep the potentials a dual certificate, so what follows holds whichever
matched a row.

Partial matchings are handled by giving every row a private zero-cost slack
column: leaving a person unmatched is always feasible, and since every real
weight is positive, a real match is chosen exactly when it helps the total.

Among optima of equal exact weight the solver returns the lexicographically
smallest selected set, and it decides both without float rounding. Each
weight becomes an exact integer: one vectorized ``np.frexp`` writes every
weight as an odd integer mantissa times a power of two, and counting each
weight in the smallest of the powers, the finest binary unit among the
weights, then loses nothing. Reduced costs, potentials and path lengths are
plain Python integers, so a reduced cost that is zero is exactly zero.

A solve runs one search routine once or twice. The first runs on the exact
weights alone (cost -exact). Its potentials u, v prove the matching optimal,
and they describe all optima: a matching is optimal exactly when it uses
only tight edges (reduced cost zero) and covers every column with v < 0.
By complementary slackness this holds for every optimal pair of
potentials, so the test below answers the same for any of them, only with
fewer arcs where fewer edges are tight. Another optimum differs from the
first by tight alternating cycles, and by tight alternating paths from a
covered column with v == 0 to a free column. Draw an arc from each row's
column to each of its other tight columns, and join every free column
through one hub node to every covered column with v == 0: those cycles and
paths are then the directed cycles. Arcs never leave a joint type, so a
cycle through the hub still runs its path inside one type, and one hub for
the whole graph finds exactly the types with another optimum. Trimming dead
ends (nodes with no arc onward, then nodes whose every arc leads to one)
leaves a node exactly when a directed cycle exists. With no arc, as on most
simulated scenes, or nothing left, the first matching is the unique optimum.

Otherwise the whole graph is solved again, with one integer cost per edge:
the exact weight shifted above a tie-break payoff. Rows and columns are
ascending within each joint type; the r-th of a type's R rows pays
(d - k) * B^(R - 1 - r) on its k-th edge, where d is the row's degree and B
is a power of two above every degree. A row's payoff for being matched at
all, or to an earlier column, outweighs every payoff of the type's later
rows together, which is exactly the lexicographic order on that type's
sorted pair tuples, and the shift puts one unit of weight above the payoffs
of the largest type. The objective is a sum over types, each maximized on
its own, so placing rows by their rank inside their own type is enough and
keeps the payoffs as wide as one type needs. So the second pass maximizes
the exact weight first and returns the lexicographically smallest optimum
by construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappush, heappop
from operator import itemgetter

import numpy as np

from .graph import PersonJointGraph
from .grouping import weighted_center
from .joints import JOINT_COUNT
from .metrics import GroundTruthPerson, compute_oks

INF = math.inf


@dataclass(frozen=True, slots=True)
class Assignment:
    """Joint selection across all joint types.

    ``selected`` holds (joint_type, proposal, node) triples; at most one node
    per (joint_type, proposal) and one proposal per node.
    """

    selected: frozenset[tuple[int, int, int]]
    total_weight: float

    def __post_init__(self):
        # Two set sizes decide it; the walk below only names a conflict.
        rows = {(k, i) for k, i, _ in self.selected}
        if len(rows) == len({j for _, _, j in self.selected}) == len(self.selected):
            return
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
        for slot in self.keypoints:
            if slot is not None:
                (px, py), score = slot
                if not (math.isfinite(px) and math.isfinite(py) and math.isfinite(score)):
                    raise ValueError(f"pose keypoint must be finite, got {slot}")
        if not math.isfinite(self.pose_score):
            raise ValueError(f"pose_score must be finite, got {self.pose_score}")


def _assign(
    adj: list[list[tuple[int, int]]], n_total: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Minimum-cost assignment of every row to one of columns 0..n_total-1.

    ``adj[r]`` lists row r's edges as (column, integer cost): at least one
    real edge, then the row's private slack column.

    Augmenting row reduction starts the call. A free row takes its cheapest
    column by ``cost - v[j]`` and lowers that column's v by one unit less
    than the gap to its second-best column, or, when the two tie and the
    cheapest is held, takes the second-best column. Its u is the cheapest
    value plus that step, so its edges keep reduced cost >= 0, its matched
    edge is tight, and its runner-up edge keeps reduced cost 1, leaving the
    tie test no arc for the row. A gap of one unit is taken whole, since a
    step of zero would not raise the price; the runner-up edge is then
    tight. v only falls, and only on the column being matched, so a matched
    column never becomes free; a row pushed off its column is queued again.
    Two rows whose costs differ by one unit can trade a column back and
    forth, lowering its v by one unit each time, so the reduction stops
    after 2 * R steps for R rows. A shortest-augmenting-path search then
    places each row still free, starting from u = its smallest
    ``cost - v[j]``.

    Each search allocates its own ``dist`` and ``pred``: row reduction
    leaves none of the 7,096 rows of 100 default scenes to search, none of
    the 5,151 of ten 30-person scenes, and 33 to 53 of 1,600 on the
    benchmark ring. The costs are exact integers, as wide as the weights;
    only a graph with another optimum pays for the tie-break payoff,
    R * bits wider for the R rows of its largest joint type.

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
        step = h2 - h1
        if step:
            step -= step > 1
            v[j1] -= step
        elif i0 != -1:
            j1 = j2
            i0 = row_of_col[j1]
        if i0 != -1:
            col_of_row[i0] = -1
            queue.append(i0)
        row_of_col[j1] = r
        col_of_row[r] = j1
        u[r] = h1 + step
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


def _optimal_pairs(
    edges: list[tuple[int, int, int, float]],
) -> list[tuple[int, int, int, float]]:
    """The (joint_type, proposal, node, weight) edges of the optimum the
    solver returns, ascending. Every weight is positive and finite, as
    ``Edge`` requires, and no node may serve two joint types. Sorts
    ``edges`` in place."""
    if not edges:
        return []
    edges.sort()
    # Each weight is m * 2**e with m in [0.5, 1), so a = m * 2**53 is an
    # integer. Its z trailing zeros (a & -a is 2**z) go, leaving it odd, and
    # the weight is exactly (a >> z) * 2**(e + z - 53). Counted in units of
    # 2**(low - 53), low the smallest e + z, a weight is (a >> z) << (e + z -
    # low), and its cost is the negation. No coarser unit divides them all,
    # since the weights at low count odd: 0.25, 0.5, 0.75 and 1.0 cost -1,
    # -2, -3 and -4. Few numpy calls: on a graph of a few hundred edges each
    # costs about as much as a pass over the edges.
    m, e = np.frexp(np.fromiter(map(itemgetter(3), edges), np.float64, len(edges)))
    mantissas = (m * -2.0**53).astype(np.int64)
    zeros = np.frexp(mantissas & -mantissas)[1] - 1
    mantissas = (mantissas >> zeros).tolist()
    exponents = (e + zeros).tolist()
    low = min(exponents)

    # Exact-weight pass: each (joint_type, proposal) row costs its edges'
    # negated exact weights, and row r's private slack column n_cols + r
    # closes it at cost zero. Edges come sorted, so a row's edges are
    # contiguous from first[r], and a joint type's rows are contiguous too.
    adj: list[list[tuple[int, int]]] = []
    first: list[int] = []
    col_index: dict[int, int] = {}
    row_type = row_proposal = None
    for n, ((k, i, j, _), a, s) in enumerate(zip(edges, mantissas, exponents)):
        if i != row_proposal or k != row_type:
            row_type, row_proposal = k, i
            first.append(n)
            edges_r = []
            adj.append(edges_r)
        edges_r.append((col_index.setdefault(j, len(col_index)), a << (s - low)))
    n_rows, n_cols = len(adj), len(col_index)
    for r, edges_r in enumerate(adj):
        edges_r.append((n_cols + r, 0))
    col_of_row, row_of_col, u, v = _assign(adj, n_cols + n_rows)

    # Each unmatched tight edge (r, j) is an arc from r's column c to j.
    arcs = [(c, j) for c, ur, edges_r in zip(col_of_row, u, adj)
            for j, cost in edges_r if cost - ur == v[j] and j != c]
    if arcs and _has_cycle(arcs, row_of_col, v):
        # Another optimum exists: solve again with row r's k-th edge paying
        # (d_r - k) << place below its shifted weight, place counting the
        # rows after r within r's own joint type.
        bits = (max(len(edges_r) for edges_r in adj) - 1).bit_length()
        places = [0] * n_rows
        end = n_rows
        for r in range(n_rows - 1, -1, -1):
            if edges[first[r]][0] != edges[first[end - 1]][0]:
                end = r + 1
            places[r] = bits * (end - 1 - r)
        shift = max(places) + bits
        for edges_r, place in zip(adj, places):
            degree = len(edges_r) - 1
            for k in range(degree):
                j, cost = edges_r[k]
                edges_r[k] = (j, (cost << shift) - ((degree - k) << place))
        col_of_row, _, _, _ = _assign(adj, n_cols + n_rows)

    selected = []
    for r, c in enumerate(col_of_row):
        if c < n_cols:
            n = first[r]
            for j, _ in adj[r]:
                if j == c:
                    break
                n += 1
            selected.append(edges[n])
    return selected


def solve_graph(graph: PersonJointGraph) -> Assignment:
    """The optimal assignment of the whole graph, solved as one problem.

    The constraints never couple joint types, so this optimum is the union
    of the per-type optima. The total is one flat math.fsum over the
    selected edge weights in ascending (joint_type, proposal, node) order:
    a correctly rounded sum of the leaves, so any exact-real ordering
    against another flat fsum (e.g. the greedy baseline total) survives
    rounding. Summing per-type subtotals instead would round twice and can
    drift a few ulps.
    """
    selected = _optimal_pairs(
        [(e.joint_type, e.proposal, e.node, e.weight) for e in graph.edges]
    )
    return Assignment(
        selected=frozenset(map(itemgetter(0, 1, 2), selected)),
        total_weight=math.fsum(map(itemgetter(3), selected)),
    )


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


def _greedy_picks(graph: PersonJointGraph) -> dict[tuple[int, int], tuple[float, int]]:
    """(joint_type, proposal) -> (-weight, node) of the proposal's
    highest-weight edge of that type, ties to the lower node_id."""
    best: dict[tuple[int, int], tuple[float, int]] = {}
    for e in graph.edges:
        key = (e.joint_type, e.proposal)
        cur = best.get(key)
        if cur is None or (-e.weight, e.node) < cur:
            best[key] = (-e.weight, e.node)
    return best


def greedy_select(graph: PersonJointGraph) -> list[tuple[int, int, int]]:
    """Per-proposal greedy choice, ignoring node exclusivity.

    Every proposal independently takes its highest-weight incident edge per
    joint type (ties to the lower node_id), so one joint node can end up in
    several poses. This is the duplicated-joint failure mode global solving
    exists to fix.

    Returns:
        (joint_type, proposal, node) triples sorted ascending.
    """
    return sorted((k, i, node) for (k, i), (_nw, node) in _greedy_picks(graph).items())


def greedy_total_weight(graph: PersonJointGraph) -> float:
    """Total weight credited to the greedy selection.

    A node claimed by several proposals counts once, at its best claiming
    weight; this equals the weight of the feasible matching obtained by
    keeping each node's strongest claim, so the global optimum is always at
    least this value.
    """
    claimed: dict[int, float] = {}
    for neg_weight, j in _greedy_picks(graph).values():
        if j not in claimed or -neg_weight > claimed[j]:
            claimed[j] = -neg_weight
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


def pose_dedup_baseline(poses: list[Pose]) -> list[Pose]:
    """Greedy pose-level suppression by OKS similarity (pose NMS).

    Poses are kept in descending pose_score order; a pose is dropped when its
    OKS (``OKS_SIGMAS``) against an already kept pose exceeds the constant 0.7.

    Returns:
        Surviving poses in their input order.
    """
    order = sorted(
        range(len(poses)), key=lambda idx: (-poses[idx].pose_score, poses[idx].proposal_id)
    )
    # Kept index -> its pseudo ground truth, inserted in score order.
    references: dict[int, GroundTruthPerson] = {}
    for idx in order:
        if all(compute_oks(poses[idx], ref) <= 0.7 for ref in references.values()):
            references[idx] = _pose_as_pseudo_gt(poses[idx])
    return [p for idx, p in enumerate(poses) if idx in references]
