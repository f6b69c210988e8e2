"""Hit times checked offline on the criterion-4 to -7 cells.

A trial's buys up to its first hit do not depend on the detector, so the
purchased graph of a full-stream run of a seed, in purchase order, holds
the early-stop run's purchases as a prefix. Its first hit, found here
without the incremental trackers, is the index of the purchase that
completes the first copy of the target:

- diamond: a copy is a spine edge (u, v) with two wings w, each the two
  edges (u, w) and (v, w), and it is complete once its spine and its later
  wing are. So each spine's first copy completes at max(the spine's index,
  its second-cheapest wing cost), where a wing costs the later index of its
  two edges; the hit is the least of these over the edges whose ends share
  two or more neighbours;
- fan: containment only grows with the prefix, so the hit is found by
  bisection over prefixes with `contains_fan`.

Then the early-stop run must stop right after that purchase, succeed
exactly when it exists, and report the clock at which the stream revealed
it, as the full-stream run does.
"""

import numpy as np
import pytest

from budget_builder.detect import DIAMOND, contains_fan, fan
from budget_builder.experiments import cell_from_exponents, grid_values, run_one_trial
from budget_builder.process import ProcessConfig, draw_codes, pair_code
from budget_builder.strategies import select_strategy

from conftest import builder_from

_C7 = {f"c7-{x:.2f}-{y:.1f}": (DIAMOND, 800, *cell_from_exponents(800, x, y))
       for x in grid_values(1.25, 1.35, 0.05) for y in grid_values(0.4, 1.4, 0.1)}
_CELLS = {
    "c4": (DIAMOND, 400, 2000, 2560),
    "c5": (DIAMOND, 400, 20000, 80),
    "c6": (fan(2), 400, 2000, 1638),
    **_C7,
}
_SEEDS = (1, 2, 3)


def first_diamond(n, edges):
    """Purchase index of the edge that completes the first diamond, or None."""
    index = {e: i for i, e in enumerate(edges)}
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def cost(a, b):
        return index[(a, b) if a < b else (b, a)]

    best = None
    for (u, v), i in index.items():
        wings = sorted(max(cost(u, w), cost(v, w)) for w in adj[u] & adj[v])
        if len(wings) >= 2:
            hit = max(i, wings[1])
            best = hit if best is None else min(best, hit)
    return best


def first_fan(n, edges, k):
    """Purchase index of the edge that completes the first k-fan, or None."""
    if not contains_fan(builder_from(n, edges), k):
        return None
    lo, hi = 0, len(edges)  # the prefix of length hi holds a fan, lo does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if contains_fan(builder_from(n, edges[:mid]), k):
            hi = mid
        else:
            lo = mid
    return hi - 1


@pytest.mark.parametrize("name", list(_CELLS))
def test_early_stop_hits_the_offline_first_hit(name):
    target, n, t, b = _CELLS[name]
    spec = select_strategy(target, n, t, b)
    for seed in _SEEDS:
        config = ProcessConfig(n, t, b, seed=seed)
        full = run_one_trial(target, config, spec, early_stop=False, keep_graph=True)
        stopped = run_one_trial(target, config, spec)
        edges = full.purchased._edges
        hit = (first_diamond(n, edges) if target == DIAMOND
               else first_fan(n, edges, target.k))
        assert (hit is not None) == stopped.success == full.success, (name, seed)
        assert stopped.hit_time == full.hit_time, (name, seed)
        if hit is None:
            continue
        assert stopped.edges_bought == hit + 1, (name, seed)
        # The clock of that purchase: one past the position of its code.
        u, v = edges[hit]
        codes = draw_codes(config)
        assert stopped.hit_time == 1 + int(np.flatnonzero(codes == pair_code(n, u, v))[0])
