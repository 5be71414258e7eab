"""Print calibrate_sigma's result, as a hex float, at every point of a fixed grid.

    python3 tools/sigma_grid.py [SRC]

SRC is the directory that holds the `risecure` package (default: this
repository's src/), so the grid of two trees can be compared line by line:

    python3 tools/sigma_grid.py base/src > base.txt
    python3 tools/sigma_grid.py > head.txt
    diff base.txt head.txt

The grid: an arbiter PUF at 64 and at 128 stages and a 4-XOR arbiter PUF,
each at targets 0.9, 0.99, 0.9952 and 0.9976, PUF seed and calibration seed
0 to 9, 100 trials; 120 calibrations. A hex float shows every bit, so a
draw or a summation that moves sigma by one ulp shows as a changed line.
"""

import sys
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC.resolve()))

from risecure import puf  # noqa: E402  (the import follows the path set above)

KINDS = {
    "arbiter-64": lambda seed: puf.ArbiterPuf(seed, stages=64),
    "arbiter-128": lambda seed: puf.ArbiterPuf(seed, stages=128),
    "xor4-64": lambda seed: puf.XorArbiterPuf(seed, stages=64, chains=4),
}
TARGETS = (0.9, 0.99, 0.9952, 0.9976)
SEEDS = range(10)
TRIALS = 100


def main():
    print(f"# risecure from {Path(puf.__file__).parent}", file=sys.stderr)
    for kind, make in KINDS.items():
        for target in TARGETS:
            for seed in SEEDS:
                sigma = puf.calibrate_sigma(make(seed), target, trials=TRIALS, seed=seed)
                print(kind, target, seed, sigma.hex())


if __name__ == "__main__":
    main()
