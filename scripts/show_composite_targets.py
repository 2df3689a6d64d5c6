"""Visualize composite heatmap supervision for one crowded crop.

Renders the training target for a proposal whose box contains its own
person's joint plus two interfering joints from a neighbor, prints the grid
as ASCII shading, and shows what peak extraction recovers. Also reports the
regression loss of a perfect prediction and of a prediction that wrongly
emits interference at full strength, which is the failure the attenuated
target exists to penalize.

Usage:
    python scripts/show_composite_targets.py --mu 0.5
"""

import argparse

from posegraph.heatmaps import (
    DEFAULT_SIGMA,
    compose_training_target,
    extract_peaks,
    jc_loss,
    render_gaussian,
)
from posegraph.simulator import DEFAULT_MU

SHADES = " .:-=+*#%@"


def ascii_grid(values, step=2):
    rows = []
    for y in range(0, values.shape[0], step):
        row = values[y, ::step]
        rows.append("".join(SHADES[min(int(v * (len(SHADES) - 1)), 9)] for v in row))
    return "\n".join(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu", type=float, default=DEFAULT_MU,
                        help="interference attenuation in [0, 1]")
    parser.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    args = parser.parse_args()

    target = [(16.0, 40.0)]
    interference = [(44.0, 24.0), (48.0, 60.0)]
    comp = compose_training_target(target, interference, mu=args.mu, sigma=args.sigma)

    print(f"composite target, mu={args.mu} (target left, interference right):\n")
    print(ascii_grid(comp.values))

    perfect = comp  # a perfect prediction reproduces the target
    print("\nextracted peaks (location, response):")
    for location, response in extract_peaks(perfect):
        kind = "target" if location in target else "interference"
        print(f"  {location}  {response:.3f}  <- {kind}")

    naive = render_gaussian(target + interference, args.sigma)
    print(f"\nloss(perfect prediction)          = {jc_loss([perfect], [comp]):.6f}")
    print(f"loss(full-strength interference)  = {jc_loss([naive], [comp]):.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
