"""Write perfbench/reference.json: the digests of round 0 of every workload at
the default seed, which every default-seed benchmark run must reproduce.

Regenerate it only on a commit whose outputs are known to be right, and only
when a change is meant to alter outputs:

    python3 perfbench/make_reference.py
"""

import json
import os
import shutil
import sys

import run
from posegraph.solver import solve_graph
from workloads import WORKLOADS, Pipeline, Tally, ring_digest, ring_graph, run_round, synth_seed


def main() -> int:
    reference = {}
    work = run.OUT / f"reference-{os.getpid()}"
    try:
        for name, w in WORKLOADS.items():
            if isinstance(w, Pipeline):
                tally = Tally()
                rnd = run_round(w, work / name, synth_seed(run.DEFAULT_SEED, 0), tally)
                if tally.failed:
                    print(f"error: {name} failed; no reference written", file=sys.stderr)
                    return 1
                reference[name] = rnd.digests()
            else:
                assignment = solve_graph(ring_graph(w.size, run.DEFAULT_SEED))
                reference[name] = {"assignment": ring_digest(assignment)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
