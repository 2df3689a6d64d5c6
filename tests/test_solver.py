import functools
import math
import random
from dataclasses import replace
from heapq import heappop, heappush
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import posegraph
from posegraph.graph import Edge, PersonJointGraph, PersonProposal, build_graph
from posegraph.grouping import CandidateJoint, JointNode, group_candidates
from posegraph.joints import JointSpec
from posegraph.metrics import compute_oks
from posegraph.simulator import SceneSpec, simulate_scene
from posegraph.solver import (
    INF,
    Assignment,
    Pose,
    _assign,
    _has_cycle,
    _optimal_pairs,
    _pose_as_pseudo_gt,
    build_poses,
    greedy_baseline,
    greedy_select,
    greedy_total_weight,
    pose_dedup_baseline,
    solve_graph,
)

from oracle import Matching, SizeLimitError, brute_force_oracle, solve_weights

TWO_BY_TWO = {(0, 0): 0.9, (0, 1): 0.6, (1, 0): 0.8}


def _exact_entries(weights: dict[tuple[int, int], float]) -> list[tuple[int, int, int]]:
    """Positive entries as (row, column, exact), ascending by (row, column).
    ``exact`` is the weight counted in the finest binary unit among the
    weights. A frozen copy of the solver's former conversion, so the
    references below do not share the solver's own.

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


def single_pass_reference(weights: dict[tuple[int, int], float]) -> Matching:
    """The single-pass solver, kept unchanged as the reference for
    ``solve_weights``: every edge cost is the exact weight shifted above the
    tie-break payoff, so one search decides weight and tie-break together.
    Same contract as ``solve_weights``, except that it refuses a negative or
    non-finite weight itself."""
    entries = _exact_entries(weights)
    if not entries:
        return Matching(pairs=(), total_weight=0.0)

    rows = sorted({i for i, _, _ in entries})
    cols = sorted({j for _, j, _ in entries})
    row_index = {r: idx for idx, r in enumerate(rows)}
    col_index = {c: idx for idx, c in enumerate(cols)}
    n_rows, n_cols = len(rows), len(cols)
    n_total = n_cols + n_rows  # real columns, then one private slack per row

    # One integer cost per edge: the negated exact weight, shifted above the
    # tie-break payoff (degree - k) * B^(n_rows - 1 - r) of row r's k-th
    # edge, with B = 2^bits above every row degree. The slack edge closes
    # each row at cost zero.
    degree = [0] * n_rows
    for i, _, _ in entries:
        degree[row_index[i]] += 1
    bits = max(degree).bit_length()
    shift = bits * n_rows
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_rows)]
    for i, j, exact in entries:
        r = row_index[i]
        payoff = (degree[r] - len(adj[r])) << (bits * (n_rows - 1 - r))
        adj[r].append((col_index[j], -((exact << shift) + payoff)))
    for r in range(n_rows):
        adj[r].append((n_cols + r, 0))

    # Row potentials start at the row minimum so reduced costs are
    # non-negative; column potentials start at zero.
    u = [min(c for _, c in adj[r]) for r in range(n_rows)]
    v = [0] * n_total

    col_of_row = [-1] * n_rows
    row_of_col = [-1] * n_total

    # The search state lives for the whole subproblem. Each search sets back
    # only the columns it reached, so it costs those columns, not n_total.
    # pred needs no reset: every column the augmentation walks was reached
    # in that search. What still grows with size is the cost integers
    # themselves: the tie-break payoff makes them n_rows * bits wide.
    dist: list[float | int] = [INF] * n_total
    pred = [-1] * n_total
    done = [False] * n_total

    for r in range(n_rows):
        heap: list[tuple[int, int]] = []
        for j, c in adj[r]:
            dist[j] = d = c - u[r] - v[j]
            pred[j] = r
            heappush(heap, (d, j))
        scanned = []
        target = -1
        while heap:
            d, j = heappop(heap)
            if done[j] or d > dist[j]:
                continue
            done[j] = True
            if row_of_col[j] == -1:
                target = j
                break
            scanned.append(j)
            i2 = row_of_col[j]
            for j2, c in adj[i2]:
                if done[j2]:
                    continue
                nd = d + c - u[i2] - v[j2]
                if nd < dist[j2]:
                    dist[j2] = nd
                    pred[j2] = i2
                    heappush(heap, (nd, j2))
        # The private slack column is always reachable, so a target exists.
        delta = dist[target]
        for j in scanned:
            v[j] += dist[j] - delta
            u[row_of_col[j]] += delta - dist[j]
        u[r] += delta
        j = target
        while True:
            i = pred[j]
            next_j = col_of_row[i]
            row_of_col[j] = i
            col_of_row[i] = j
            if i == r:
                break
            j = next_j
        # Every column given a distance was popped as done (scanned, or the
        # target) or still has an entry on the heap: a stale entry is only
        # skipped after a later, shorter entry for its column was pushed.
        for j in scanned:
            dist[j] = INF
            done[j] = False
        dist[target] = INF
        done[target] = False
        for _, j in heap:
            dist[j] = INF

    pairs = []
    for r in range(n_rows):
        j = col_of_row[r]
        if 0 <= j < n_cols:
            pairs.append((rows[r], cols[j]))
    pairs.sort()
    total = math.fsum(weights[p] for p in pairs)
    return Matching(pairs=tuple(pairs), total_weight=total)


def make_graph(edge_triples, n_proposals, node_types):
    proposals = [
        PersonProposal(proposal_id=i, bbox=(i * 60.0, 0.0, 50.0, 100.0))
        for i in range(n_proposals)
    ]
    nodes = [
        JointNode(
            joint_type=k,
            members=(
                CandidateJoint(
                    location=(float(j), float(k)),
                    response=0.5,
                    joint_type=k,
                    source_proposal=0,
                    response_size=2.0,
                ),
            ),
            node_id=j,
        )
        for j, k in enumerate(node_types)
    ]
    edges = [
        Edge(proposal=i, node=j, joint_type=node_types[j], weight=w)
        for i, j, w in edge_triples
    ]
    return PersonJointGraph(persons=proposals, nodes=nodes, edges=edges)


def test_pairing_beats_single_strong_edge():
    # taking 0.9 alone blocks the 0.6 + 0.8 pairing
    matching = solve_weights(TWO_BY_TWO)
    assert matching.pairs == ((0, 1), (1, 0))
    assert matching.total_weight == math.fsum([0.6, 0.8])
    assert matching.total_weight == pytest.approx(1.4)


def test_single_entry_instance():
    matching = solve_weights({(0, 0): 0.7})
    assert matching.pairs == ((0, 0),)
    assert matching.total_weight == 0.7


def test_empty_instance():
    assert solve_weights({}) == Matching(pairs=(), total_weight=0.0)


def test_tie_break_prefers_lexicographically_smallest():
    matching = solve_weights(
        {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
    )
    assert matching.pairs == ((0, 0), (1, 1))


def test_tie_break_is_exact_for_non_dyadic_weights():
    # Both selections weigh {0.7, 0.1}. In float arithmetic a reduced cost
    # that is exactly 0 comes out near -1.1e-16, which must not outweigh the
    # tie-break and pick ((0, 1), (2, 0)).
    weights = {(0, 1): 0.7, (1, 0): 0.1, (1, 1): 0.7, (2, 0): 0.1}
    assert solve_weights(weights).pairs == ((0, 1), (1, 0))
    assert brute_force_oracle(weights).pairs == ((0, 1), (1, 0))


def test_solver_matches_oracle_on_non_dyadic_weights():
    # Decimal weights are inexact in binary, so float sums of different
    # selections can tie or swap order; both sides must compare exact sums.
    rng = random.Random(2024)
    values = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
    for trial in range(3000):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        weights = {
            (i, j): rng.choice(values) if trial % 4 else round(rng.random(), 6)
            for i in range(n_rows)
            for j in range(n_cols)
            if rng.random() < 0.6
        }
        fast = solve_weights(weights)
        slow = brute_force_oracle(weights)
        assert fast.pairs == slow.pairs, weights
        assert fast.total_weight == slow.total_weight


def test_extreme_weight_spread_equals_oracle():
    # One subproblem spans 5e-324 to 1e300: counted in units of 2**-1074,
    # 1e300 is an integer of about 2,070 bits, past any float. Rows 0 and 1
    # tie at 2e300 either way, and row 3 gains only 5e-324 by leaving
    # column 2 to row 2, so a conversion that rounds or overflows any weight
    # picks other pairs.
    weights = {
        (0, 0): 1e300, (0, 1): 1e300,
        (1, 0): 1e300, (1, 1): 1e300,
        (2, 2): 0.1,
        (3, 2): 0.1, (3, 3): 5e-324,
        (4, 3): 1e-300, (4, 4): 2.0**60,
        (5, 4): 2.0**60, (5, 5): 1e-300,
    }
    fast = solve_weights(weights)
    slow = brute_force_oracle(weights)
    assert fast == slow
    assert fast.pairs == tuple((i, i) for i in range(6))


def test_row_and_column_ids_need_not_be_contiguous():
    matching = solve_weights({(5, 100): 0.9, (7, 100): 0.8, (5, 3): 0.6})
    assert matching.pairs == ((5, 3), (7, 100))
    assert matching.total_weight == math.fsum([0.6, 0.8])


def test_oracle_size_guard():
    weights = {(i, 0): 0.5 for i in range(9)}
    with pytest.raises(SizeLimitError):
        brute_force_oracle(weights)
    wide = {(0, j): 0.5 for j in range(9)}
    with pytest.raises(SizeLimitError):
        brute_force_oracle(wide)


def _dyadic_instance(seed):
    # dyadic weights make every sum exact, so solver and oracle totals must
    # agree bitwise, not just within tolerance
    rng = random.Random(seed)
    n_rows = rng.randint(1, 6)
    n_cols = rng.randint(1, 6)
    weights = {}
    for i in range(n_rows):
        for j in range(n_cols):
            if rng.random() < 0.55:
                weights[(i, j)] = (rng.getrandbits(20) + 1) / 2**20
    return weights


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_solver_matches_exhaustive_oracle(seed):
    weights = _dyadic_instance(seed)
    fast = solve_weights(weights)
    slow = brute_force_oracle(weights)
    assert fast.pairs == slow.pairs
    assert fast.total_weight == slow.total_weight


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_matching_is_feasible(seed):
    weights = _dyadic_instance(seed)
    matching = solve_weights(weights)
    rows = [i for i, _ in matching.pairs]
    cols = [j for _, j in matching.pairs]
    assert len(rows) == len(set(rows))
    assert len(cols) == len(set(cols))
    assert all(pair in weights for pair in matching.pairs)
    assert matching.pairs == tuple(sorted(matching.pairs))


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 2.0, 8.0]))
@settings(max_examples=100, deadline=None)
def test_selected_set_is_scale_invariant(seed, scale):
    # powers of two keep the scaling exact in floating point
    weights = _dyadic_instance(seed)
    scaled = {pair: w * scale for pair, w in weights.items()}
    assert solve_weights(weights).pairs == solve_weights(scaled).pairs


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_solver_matches_oracle_on_tie_heavy_instances(n_rows, n_cols, density, seed):
    # Four weight levels make exact ties common, so consecutive searches
    # revisit the same columns with equal path lengths: a distance or done
    # flag left over from an earlier search changes the answer.
    rng = random.Random(seed)
    weights = {
        (i, j): rng.choice((0.25, 0.5, 0.75, 1.0))
        for i in range(n_rows)
        for j in range(n_cols)
        if rng.random() < density
    }
    fast = solve_weights(weights)
    slow = brute_force_oracle(weights)
    assert fast.pairs == slow.pairs, weights
    assert fast.total_weight == slow.total_weight


def _check_blocks_against_oracle(seed, equal_weights):
    # 10-20 independent blocks of at most 8x8 with interleaved ids, so one
    # solve runs many searches over shared state, far past the oracle's
    # limit; the optimum is the union of the per-block optima.
    rng = random.Random(seed)
    levels = (0.25, 0.5, 0.75, 1.0)
    n_blocks = rng.randint(10, 20)
    weights = {}
    blocks = []
    for b in range(n_blocks):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.uniform(0.2, 0.7)
        same = rng.choice(levels) if equal_weights else None
        block = {
            (b + n_blocks * i, b + n_blocks * j): (
                same if equal_weights else rng.choice(levels)
            )
            for i in range(n_rows)
            for j in range(n_cols)
            if rng.random() < density
        }
        blocks.append(block)
        weights.update(block)
    expected = sorted(pair for block in blocks for pair in brute_force_oracle(block).pairs)
    matching = solve_weights(weights)
    assert matching.pairs == tuple(expected)
    assert matching.total_weight == math.fsum(weights[p] for p in expected)


@pytest.mark.parametrize("seed", range(8))
def test_block_diagonal_instance_equals_oracle_per_block(seed):
    _check_blocks_against_oracle(seed, equal_weights=False)


@pytest.mark.parametrize("seed", range(8))
def test_equal_weight_blocks_equal_oracle_per_block(seed):
    # With one weight per block nearly every matching of maximum size is an
    # optimum, so the tie-break alone picks each block's pairs.
    _check_blocks_against_oracle(seed, equal_weights=True)


WEIGHT_DRAWS = {
    "levels": lambda rng: rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)),
    "six_decimals": lambda rng: round(rng.random(), 6),
    "extremes": lambda rng: rng.choice((5e-324, 1e-300, 0.1, 0.5, 1.0, 3.0, 1e300)),
    # Weights one ulp apart: the row reduction meets ties and columns whose
    # potential can fall by a single unit, in both passes.
    "near_ties": lambda rng: rng.choice((0.5, math.nextafter(0.5, 1.0))),
}


def _random_weights(n_rows, n_cols, density, draw, seed):
    rng = random.Random(seed)
    return {
        (i, j): WEIGHT_DRAWS[draw](rng)
        for i in range(n_rows)
        for j in range(n_cols)
        if rng.random() < density
    }


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.floats(0.05, 1.0),
    st.sampled_from(sorted(WEIGHT_DRAWS)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_solver_equals_single_pass_reference(n_rows, n_cols, density, draw, seed):
    # Tie-heavy levels leave many optima for the tie-break to decide;
    # 5e-324 next to 1e300 makes exact weights thousands of bits wide.
    weights = _random_weights(n_rows, n_cols, density, draw, seed)
    fast = solve_weights(weights)
    slow = single_pass_reference(weights)
    assert fast.pairs == slow.pairs, weights
    assert fast.total_weight == slow.total_weight


def _ring_weights(size, rng):
    # perfbench's solver-ring recipe, as in test_acceptance._bench_graph:
    # row i joins columns i..i+3 (mod size).
    return {
        (i, (i + offset) % size): float(rng.uniform(0.1, 1.0))
        for i in range(size)
        for offset in range(4)
    }


def test_tie_heavy_ring_equals_single_pass_reference(monkeypatch):
    # Two weight levels leave optima that differ along long stretches of the
    # ring, so the tie-break re-solves the whole subproblem.
    rng = np.random.default_rng((0, 400))
    weights = {
        pair: 0.25 if w < 0.375 else 0.5 for pair, w in _ring_weights(400, rng).items()
    }
    sizes = []

    def recording_assign(adj, n_total):
        sizes.append(len(adj))
        return _assign(adj, n_total)

    monkeypatch.setattr(posegraph.solver, "_assign", recording_assign)
    fast = solve_weights(weights)
    monkeypatch.undo()
    assert sizes == [400, 400]
    slow = single_pass_reference(weights)
    assert fast.pairs == slow.pairs
    assert fast.total_weight == slow.total_weight


def test_all_equal_ring_returns_identity():
    weights = {(i, (i + offset) % 300): 0.5 for i in range(300) for offset in range(4)}
    matching = solve_weights(weights)
    assert matching.pairs == tuple((i, i) for i in range(300))
    assert matching.total_weight == 150.0


def _count_optima(weights):
    """How many matchings of the positive entries reach the maximum exact
    weight."""
    exact = {(i, j): n for i, j, n in _exact_entries(weights)}
    rows = sorted({i for i, _ in exact})
    cols = sorted({j for _, j in exact})

    @functools.lru_cache(maxsize=None)
    def best(idx, used):
        # Matchings of rows[idx:] avoiding the columns in bitmask ``used``.
        if idx == len(rows):
            return 0, 1
        top, count = best(idx + 1, used)
        for bit, j in enumerate(cols):
            if (rows[idx], j) in exact and not used >> bit & 1:
                weight, ways = best(idx + 1, used | 1 << bit)
                weight += exact[(rows[idx], j)]
                if weight > top:
                    top, count = weight, ways
                elif weight == top:
                    count += ways
        return top, count

    return best(0, 0)[1]


@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.floats(0.05, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_refinement_runs_exactly_when_another_optimum_exists(n_rows, n_cols, density, seed):
    # Trimming dead ends leaves a node exactly when a tight cycle exists, and
    # that is exactly when a second matching reaches the optimum.
    weights = _random_weights(n_rows, n_cols, density, "levels", seed)
    with mock.patch.object(posegraph.solver, "_assign", wraps=_assign) as spy:
        solve_weights(weights)
    # An instance without a positive weight is answered without a search.
    passes = 2 if _count_optima(weights) >= 2 else 1 if any(weights.values()) else 0
    assert spy.call_count == passes, weights


@pytest.mark.parametrize("size", [100, 200, 400])
def test_random_ring_is_solved_in_one_pass(size):
    # The criterion 09 ring: random weights leave one optimum, so the
    # exact-weight pass decides it and no tie-break pass runs.
    weights = _ring_weights(size, np.random.default_rng((0, size)))
    with mock.patch.object(posegraph.solver, "_assign", wraps=_assign) as spy:
        solve_weights(weights)
    assert spy.call_count == 1


def test_row_reduction_leaves_few_rows_to_search():
    # Augmenting row reduction matches most rows before any shortest-path
    # search, so the searches push fewer heap entries than the ring has
    # edges. Every row searching from scratch pushes 4,278 here.
    weights = _ring_weights(400, np.random.default_rng((0, 400)))
    with mock.patch.object(posegraph.solver, "heappush", wraps=heappush) as pushes:
        solve_weights(weights)
    assert pushes.call_count < len(weights)


def test_first_pass_counts_weights_in_the_finest_binary_unit():
    # Each weight loses its own trailing zeros, not only those all weights
    # share, so quarter steps cost -1..-4, not -2..-8: 0.75 alone has a
    # mantissa that needs the quarter as its unit.
    weights = {(0, 0): 0.25, (0, 1): 0.5, (1, 1): 0.75, (1, 2): 1.0}
    with mock.patch.object(posegraph.solver, "_assign", wraps=_assign) as spy:
        solve_weights(weights)
    adj, _ = spy.call_args_list[0].args
    assert [cost for edges in adj for _, cost in edges[:-1]] == [-1, -2, -3, -4]


@pytest.mark.parametrize(
    "spec, arc_share",
    [
        (SceneSpec(seed=0), 0.0),
        (SceneSpec(person_min=30, person_max=30, target_crowd_index=1.0), 0.01),
    ],
    ids=["default", "thirty-persons"],
)
def test_simulated_scene_is_solved_in_one_pass(spec, arc_share):
    # The whole graph is one assignment problem, and simulated responses
    # leave no exact ties, so it is solved once.
    scene = simulate_scene(spec)
    nodes = group_candidates(list(scene.candidates), JointSpec())
    graph = build_graph(list(scene.proposals), nodes)
    tie_arcs = []

    def recording_has_cycle(arcs, row_of_col, v):
        tie_arcs.extend(arcs)
        return _has_cycle(arcs, row_of_col, v)

    with mock.patch.object(
        posegraph.solver, "_optimal_pairs", wraps=_optimal_pairs
    ) as subproblems, mock.patch.object(
        posegraph.solver, "_assign", wraps=_assign
    ) as spy, mock.patch.object(
        posegraph.solver, "_has_cycle", recording_has_cycle
    ), mock.patch.object(posegraph.solver, "heappush", wraps=heappush) as pushes:
        solve_graph(graph)
    assert subproblems.call_count == 1
    assert spy.call_count == 1
    # Row reduction leaves almost no row to search.
    assert pushes.call_count < len(graph.edges) / 10
    # ...and leaves each matched row's runner-up edge slack, so the tie proof
    # gets no arc on the default scene and almost none at 30 persons (the
    # second-best pricing handed it 67 and 342 here).
    assert len(tie_arcs) <= arc_share * len(graph.edges)


@given(
    st.integers(9, 40),
    st.integers(9, 40),
    st.floats(0.05, 1.0),
    st.sampled_from(sorted(WEIGHT_DRAWS)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_exact_pass_potentials_certify_optimality(n_rows, n_cols, density, draw, seed):
    # The exact-weight pass as solve_graph runs it on one joint type: cost
    # -exact, and row r's private slack column n_cols + r at cost zero.
    weights = _random_weights(n_rows, n_cols, density, draw, seed)
    entries = _exact_entries(weights)
    assume(entries)
    rows = sorted({i for i, _, _ in entries})
    cols = sorted({j for _, j, _ in entries})
    adj = [[] for _ in rows]
    for i, j, exact in entries:
        adj[rows.index(i)].append((cols.index(j), -exact))
    for r, edges in enumerate(adj):
        edges.append((len(cols) + r, 0))
    col_of_row, row_of_col, u, v = _assign(adj, len(cols) + len(rows))

    covered = set(col_of_row)
    assert len(covered) == len(rows)
    assert all(row_of_col[c] == r for r, c in enumerate(col_of_row))
    for r, edges in enumerate(adj):
        for j, cost in edges:
            assert cost - u[r] - v[j] >= 0
        assert dict(edges)[col_of_row[r]] - u[r] - v[col_of_row[r]] == 0
    # v <= 0, and v == 0 off the matching: with the two checks above this
    # bounds every matching's cost below by sum(u) + sum(v), which the
    # matching attains, so it is optimal.
    assert all(x <= 0 for x in v)
    assert all(v[j] == 0 for j in range(len(v)) if j not in covered)
    matched_cost = sum(dict(adj[r])[c] for r, c in enumerate(col_of_row))
    assert sum(u) + sum(v[j] for j in covered) == matched_cost
    exact_of = {(i, j): n for i, j, n in entries}
    assert -matched_cost == sum(exact_of[p] for p in solve_weights(weights).pairs)


def test_graph_solution_combines_joint_types():
    graph = make_graph(
        [(0, 0, 0.9), (0, 1, 0.6), (1, 0, 0.8), (0, 2, 0.7)],
        n_proposals=2,
        node_types=[0, 0, 1],
    )
    assignment = solve_graph(graph)
    assert assignment.selected == {(0, 0, 1), (0, 1, 0), (1, 0, 2)}
    assert assignment.total_weight == math.fsum([0.6, 0.8, 0.7])
    assert assignment.total_weight == pytest.approx(2.1)


def test_empty_graph_solution():
    graph = PersonJointGraph(persons=[], nodes=[], edges=[])
    assignment = solve_graph(graph)
    assert assignment.selected == frozenset()
    assert assignment.total_weight == 0.0


GRAPH_DRAWS = {
    "levels": lambda rng: rng.choice((0.25, 0.5, 0.75, 1.0)),
    "all_half": lambda rng: 0.5,
    "two_decimals": lambda rng: round(rng.uniform(0.01, 1.0), 2),
    "six_decimals": lambda rng: round(rng.uniform(1e-6, 1.0), 6),
    "seventeen_decimals": lambda rng: round(rng.uniform(1e-17, 1.0), 17),
    "extremes": lambda rng: rng.choice((5e-324, 1e-300, 0.1, 0.5, 1.0, 3.0, 1e300)),
}


def _multi_type_graph(draw, seed):
    # Up to six joint types over shared proposals, negative and
    # non-contiguous ids, edges in shuffled order.
    rng = random.Random(seed)
    types = rng.sample(range(14), rng.randint(1, 6))
    proposals = rng.sample(range(-40, 40), rng.randint(1, 8))
    type_of = {j: rng.choice(types) for j in rng.sample(range(-300, 300), rng.randint(1, 40))}
    density = rng.uniform(0.1, 0.8)
    edges = [
        Edge(proposal=i, node=j, joint_type=k, weight=GRAPH_DRAWS[draw](rng))
        for i in proposals
        for j, k in type_of.items()
        if rng.random() < density
    ]
    rng.shuffle(edges)
    member = CandidateJoint(location=(0.0, 0.0), response=1.0, joint_type=0,
                            source_proposal=proposals[0], response_size=1.0)
    nodes = [
        JointNode(joint_type=k, members=(replace(member, joint_type=k),), node_id=j)
        for j, k in type_of.items()
    ]
    persons = [PersonProposal(proposal_id=i, bbox=(0.0, 0.0, 1.0, 1.0)) for i in proposals]
    return PersonJointGraph(persons=persons, nodes=nodes, edges=edges)


def _weights_by_type(graph):
    by_type: dict[int, dict[tuple[int, int], float]] = {}
    for e in graph.edges:
        by_type.setdefault(e.joint_type, {})[(e.proposal, e.node)] = e.weight
    return by_type


@given(st.sampled_from(sorted(GRAPH_DRAWS)), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_graph_solution_equals_union_of_per_type_solutions(draw, seed):
    # solve_graph solves all joint types as one problem; the optimum and its
    # tie-break must be each type's own, and the total one flat fsum.
    graph = _multi_type_graph(draw, seed)
    expected, leaves = set(), []
    for k, weights in _weights_by_type(graph).items():
        matching = solve_weights(weights)
        assert matching == single_pass_reference(weights), weights
        expected.update((k, i, j) for i, j in matching.pairs)
        leaves.extend(weights[p] for p in matching.pairs)
    assignment = solve_graph(graph)
    assert assignment.selected == expected
    assert assignment.total_weight.hex() == math.fsum(leaves).hex()


def _second_pass_width(solve, arg):
    """The bit length of the widest cost in ``solve(arg)``'s second
    ``_assign`` pass, which must run."""
    with mock.patch.object(posegraph.solver, "_assign", wraps=_assign) as spy:
        solve(arg)
    assert spy.call_count == 2
    adj, _ = spy.call_args.args
    return max(abs(cost).bit_length() for edges in adj for _, cost in edges)


@pytest.mark.parametrize("copies", [2, 14])
def test_tie_break_payoff_is_as_wide_as_one_joint_type_needs(copies):
    # Each row's payoff place counts only the rows of its own joint type, so
    # k identical tie-heavy types cost no wider integers than one.
    rng = random.Random(0)
    weights = {
        (i, j): rng.choice((0.25, 0.5, 0.75, 1.0))
        for i in range(12) for j in range(10) if rng.random() < 0.5
    }
    triples = [
        (i, j + 10 * k, w) for k in range(copies) for (i, j), w in weights.items()
    ]
    graph = make_graph(triples, 12, [k for k in range(copies) for _ in range(10)])
    width = _second_pass_width(solve_graph, graph)
    assert width == _second_pass_width(solve_weights, weights)


@pytest.mark.parametrize("seed", range(3))
def test_thirty_person_totals_match_scipy(seed):
    # The solver's exact optimum, correctly rounded, is never below the
    # fsum of another optimal matching and agrees with scipy's to rounding.
    optimize = pytest.importorskip("scipy.optimize")
    scene = simulate_scene(
        SceneSpec(person_min=30, person_max=30, target_crowd_index=1.0, seed=seed)
    )
    graph = build_graph(list(scene.proposals), group_candidates(list(scene.candidates), JointSpec()))
    leaves = []
    for weights in _weights_by_type(graph).values():
        rows = sorted({i for i, _ in weights})
        cols = sorted({j for _, j in weights})
        # One zero-cost slack column per row lets a row stay unmatched.
        cost = np.full((len(rows), len(cols) + len(rows)), np.inf)
        cost[np.arange(len(rows)), len(cols) + np.arange(len(rows))] = 0.0
        for (i, j), w in weights.items():
            cost[rows.index(i), cols.index(j)] = -w
        for r, c in zip(*optimize.linear_sum_assignment(cost)):
            if c < len(cols):
                leaves.append(weights[rows[r], cols[c]])
    reference = math.fsum(leaves)
    total = solve_graph(graph).total_weight
    assert total >= reference
    assert total - reference <= 1e-9 * reference


def test_greedy_duplicates_joint_and_loses_weight():
    graph = make_graph(
        [(0, 0, 0.9), (0, 1, 0.6), (1, 0, 0.8)],
        n_proposals=2,
        node_types=[0, 0],
    )
    picks = greedy_select(graph)
    # both proposals grab node 0; node 1 is never used
    assert picks == [(0, 0, 0), (0, 1, 0)]
    assert greedy_total_weight(graph) == 0.9
    assert solve_graph(graph).total_weight > greedy_total_weight(graph)


def _random_graph(seed):
    rng = random.Random(seed)
    n_proposals = rng.randint(1, 5)
    node_types = [rng.randrange(3) for _ in range(rng.randint(1, 10))]
    triples = []
    for i in range(n_proposals):
        for j in range(len(node_types)):
            if rng.random() < 0.4:
                triples.append((i, j, (rng.getrandbits(20) + 1) / 2**20))
    return make_graph(triples, n_proposals, node_types)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_global_total_never_below_greedy_total(seed):
    graph = _random_graph(seed)
    assert solve_graph(graph).total_weight >= greedy_total_weight(graph)


def test_assignment_validation_rejects_conflicts():
    with pytest.raises(ValueError):
        Assignment(selected=frozenset({(0, 0, 0), (0, 0, 1)}), total_weight=1.0)
    with pytest.raises(ValueError):
        Assignment(selected=frozenset({(0, 0, 5), (1, 1, 5)}), total_weight=1.0)


def test_pose_needs_a_keypoint():
    with pytest.raises(ValueError):
        Pose(proposal_id=0, keypoints=(None,) * 14, pose_score=0.0)


@pytest.mark.parametrize(
    "slot, pose_score, message",
    [
        (((math.nan, 1.0), 0.5), 0.5, "pose keypoint must be finite"),
        (((1.0, math.inf), 0.5), 0.5, "pose keypoint must be finite"),
        (((1.0, 2.0), -math.inf), 0.5, "pose keypoint must be finite"),
        (((1.0, 2.0), 0.5), math.nan, "pose_score must be finite"),
        (((1.0, 2.0), 0.5), math.inf, "pose_score must be finite"),
    ],
    ids=["x-nan", "y-inf", "score-neg-inf", "pose-score-nan", "pose-score-inf"],
)
def test_pose_refuses_non_finite_values(slot, pose_score, message):
    # evaluate would score such a pose silently, and pose_dedup_baseline would
    # fail deep inside its pseudo ground truth with a bbox error.
    keypoints = (slot,) + (None,) * 13
    with pytest.raises(ValueError, match=message):
        Pose(proposal_id=0, keypoints=keypoints, pose_score=pose_score)


@pytest.mark.parametrize("count", [0, 1, 13, 15, 20])
def test_pose_holds_one_slot_per_joint_type(count):
    # evaluate and pose_dedup_baseline index a pose by joint type, so a pose of
    # another length must be refused where it is built.
    with pytest.raises(ValueError, match="pose keypoints must hold 14 entries"):
        Pose(proposal_id=0, keypoints=(((1.0, 2.0), 0.5),) * count, pose_score=0.5)


def _pipeline_graph():
    proposals = [
        PersonProposal(proposal_id=0, bbox=(0.0, 0.0, 50.0, 100.0)),
        PersonProposal(proposal_id=1, bbox=(200.0, 0.0, 50.0, 100.0)),
    ]
    nodes = [
        JointNode(
            joint_type=0,
            members=(
                CandidateJoint(location=(10.0, 20.0), response=0.9, joint_type=0,
                               source_proposal=0, response_size=2.0),
            ),
            node_id=0,
        ),
        JointNode(
            joint_type=1,
            members=(
                CandidateJoint(location=(12.0, 40.0), response=0.5, joint_type=1,
                               source_proposal=0, response_size=2.0),
            ),
            node_id=1,
        ),
    ]
    return build_graph(proposals, nodes)


def test_build_poses_places_centers_and_averages_scores():
    graph = _pipeline_graph()
    poses = build_poses(solve_graph(graph), graph)
    assert len(poses) == 1  # proposal 1 had no joints and is dropped
    pose = poses[0]
    assert pose.proposal_id == 0
    assert pose.keypoints[0] == ((10.0, 20.0), 0.9)
    assert pose.keypoints[1] == ((12.0, 40.0), 0.5)
    assert all(slot is None for slot in pose.keypoints[2:])
    assert pose.pose_score == pytest.approx(0.7)


def test_greedy_baseline_builds_same_shape_poses():
    graph = _pipeline_graph()
    poses = greedy_baseline(graph)
    assert [p.proposal_id for p in poses] == [0]
    assert poses[0].pose_score == pytest.approx(0.7)


def _pose_at(x, y, pid, score):
    keypoints = [None] * 14
    for k in range(14):
        keypoints[k] = ((x + 3.0 * k, y + 2.0 * k), score)
    return Pose(proposal_id=pid, keypoints=tuple(keypoints), pose_score=score)


def test_pose_dedup_drops_coincident_pose():
    a = _pose_at(10.0, 10.0, 0, 0.9)
    b = _pose_at(10.0, 10.0, 1, 0.8)
    assert pose_dedup_baseline([a, b]) == [a]


def test_pose_dedup_keeps_distinct_poses():
    a = _pose_at(10.0, 10.0, 0, 0.9)
    b = _pose_at(500.0, 300.0, 1, 0.8)
    assert pose_dedup_baseline([a, b]) == [a, b]


@pytest.mark.parametrize("dx, dropped", [(4.29, True), (4.30, False)])
def test_pose_dedup_threshold_is_0_7(dx, dropped):
    # The two shifts straddle the constant threshold: OKS just above 0.7 is a
    # duplicate, OKS just below it is another person.
    a = _pose_at(10.0, 10.0, 0, 0.9)
    b = _pose_at(10.0 + dx, 10.0, 1, 0.8)
    oks = compute_oks(b, _pose_as_pseudo_gt(a))
    if dropped:
        assert 0.7 < oks < 0.701
        assert pose_dedup_baseline([a, b]) == [a]
    else:
        assert 0.699 < oks <= 0.7
        assert pose_dedup_baseline([a, b]) == [a, b]


def test_pose_dedup_compares_only_against_kept_poses():
    # b duplicates a and is dropped; c duplicates b but not a, and b was not
    # kept, so c survives. Survivors come back in input order.
    a = _pose_at(10.0, 10.0, 0, 0.9)
    b = _pose_at(14.0, 10.0, 1, 0.8)
    c = _pose_at(18.0, 10.0, 2, 0.7)
    assert compute_oks(b, _pose_as_pseudo_gt(a)) > 0.7
    assert compute_oks(c, _pose_as_pseudo_gt(b)) > 0.7
    assert compute_oks(c, _pose_as_pseudo_gt(a)) <= 0.7
    assert pose_dedup_baseline([c, a, b]) == [c, a]
