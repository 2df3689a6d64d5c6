"""Exhaustive maximum-weight matching, the reference the solver tests
compare ``solve_subgraph`` against."""

import math
from fractions import Fraction

from posegraph.solver import Matching


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
