"""Exhaustive maximum-weight matching, the reference the solver tests
compare ``solve_graph`` against, and the helper that runs ``solve_graph`` on
a bare weight map."""

import math
from fractions import Fraction
from typing import NamedTuple

from posegraph.graph import Edge, PersonJointGraph, PersonProposal
from posegraph.grouping import CandidateJoint, JointNode
from posegraph.solver import solve_graph


class Matching(NamedTuple):
    """Selected (row, column) pairs, ascending, and their math.fsum total."""

    pairs: tuple[tuple[int, int], ...]
    total_weight: float


def one_type_graph(weights: dict[tuple[int, int], float]) -> PersonJointGraph:
    """The graph of joint type 0 whose edge (proposal i, node j) weighs
    ``weights[i, j]``. A zero weight is no edge; ``Edge`` refuses the rest
    of what is not positive and finite."""
    member = CandidateJoint(location=(0.0, 0.0), response=1.0, joint_type=0,
                            source_proposal=0, response_size=1.0)
    return PersonJointGraph(
        persons=[PersonProposal(proposal_id=i, bbox=(0.0, 0.0, 1.0, 1.0))
                 for i in sorted({i for i, _ in weights})],
        nodes=[JointNode(joint_type=0, members=(member,), node_id=j)
               for j in sorted({j for _, j in weights})],
        edges=[Edge(proposal=i, node=j, joint_type=0, weight=w)
               for (i, j), w in weights.items() if w != 0],
    )


def solve_weights(weights: dict[tuple[int, int], float]) -> Matching:
    """``solve_graph`` on ``one_type_graph(weights)``, as (row, column) pairs."""
    assignment = solve_graph(one_type_graph(weights))
    return Matching(
        pairs=tuple(sorted((i, j) for _, i, j in assignment.selected)),
        total_weight=assignment.total_weight,
    )


class SizeLimitError(ValueError):
    """The instance exceeds the oracle's enumeration guard."""


def brute_force_oracle(weights: dict[tuple[int, int], float]) -> Matching:
    """Exhaustive maximum-weight matching for small instances.

    Enumerates every feasible matching and compares exact weight sums: each
    weight is summed as the Fraction it equals, so no sum rounds. Among
    equal maxima the lexicographically smallest pair tuple wins, mirroring
    the solver's tie-break. The reported total is the math.fsum of
    the selected weights, as in the solver.

    Raises:
        SizeLimitError: more than 8 rows or 8 columns.
        ValueError: any negative or non-finite weight.
    """
    exact: dict[tuple[int, int], Fraction] = {}
    columns_of: dict[int, list[int]] = {}
    for i, j in sorted(weights):
        w = weights[i, j]
        if not 0 <= w < math.inf:
            raise ValueError(f"negative or non-finite weight {w} at ({i}, {j})")
        if w > 0:
            exact[(i, j)] = Fraction(w)
            columns_of.setdefault(i, []).append(j)
    rows = sorted(columns_of)
    n_cols = len({j for _, j in exact})
    if len(rows) > 8 or n_cols > 8:
        raise SizeLimitError(
            f"instance {len(rows)}x{n_cols} exceeds the 8x8 enumeration guard"
        )

    best_exact = 0
    best_pairs: tuple[tuple[int, int], ...] = ()

    def recurse(idx: int, used: set[int], chosen: list[tuple[int, int]]):
        nonlocal best_exact, best_pairs
        if idx == len(rows):
            pairs = tuple(chosen)
            total = sum(exact[p] for p in pairs)
            if total > best_exact or (total == best_exact and pairs < best_pairs):
                best_exact, best_pairs = total, pairs
            return
        recurse(idx + 1, used, chosen)
        i = rows[idx]
        for j in columns_of[i]:
            if j not in used:
                used.add(j)
                chosen.append((i, j))
                recurse(idx + 1, used, chosen)
                chosen.pop()
                used.remove(j)

    recurse(0, set(), [])
    total = math.fsum(weights[p] for p in best_pairs)
    return Matching(pairs=best_pairs, total_weight=total)
