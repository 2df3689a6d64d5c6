"""End-to-end walkthrough of the file-based pipeline.

Drives the same entry points as the installed command: synthesize a handful
of crowded scenes to JSON, associate candidates into poses with both
methods, then score each result set against the annotations. Everything
lands in --workdir so the intermediate files can be inspected afterwards.

Usage:
    python scripts/run_pipeline_demo.py --workdir /tmp/posegraph-demo
"""

import argparse
from pathlib import Path

from posegraph.cli import main as cli


def run(*argv: str) -> None:
    command = " ".join(argv)
    print(f"\n$ posegraph {command}")
    code = cli(list(argv))
    if code != 0:
        raise SystemExit(f"step failed with exit code {code}: {command}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="demo_output")
    parser.add_argument("--scenes", type=int, default=24)
    parser.add_argument("--crowd-index", type=float, default=0.6)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    scenes = workdir / "scenes"
    run(
        "synth",
        "--scenes", str(args.scenes),
        "--crowd-index", str(args.crowd_index),
        "--seed", str(args.seed),
        "--out", str(scenes),
    )
    for method in ("global", "greedy"):
        out = workdir / method
        run("associate", str(scenes), "--method", method, "--out", str(out))
        run(
            "evaluate",
            "--results", str(out),
            "--annotations", str(scenes),
            "--out", str(workdir / f"report_{method}.json"),
        )
    print(f"\nartifacts in {workdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
