"""Fixed reference work, run as its own process after every timed child.

    python3 bench/reference.py

run.py times it from spawn to exit, as it times the program's children, and
scales their times by how long it took (see `run.Speed`).  It starts an
interpreter, imports numpy, gathers int64 arrays larger than the cache
through a permutation, sorts and runs a Python dict loop: the kinds of work
the engine does, in code of the benchmark alone, so that no change to the
program moves it.
"""

import numpy as np

POINTS = 1 << 20


def main():
    rng = np.random.default_rng(0)
    perm = rng.permutation(POINTS)
    vals = rng.integers(0, 4, POINTS)
    for _ in range(6):
        vals = (vals[perm] * 3 + 1) % 4
    np.sort(vals * POINTS + perm)
    table, acc = {}, 0
    for i in range(100_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1_000_003


if __name__ == "__main__":
    main()
