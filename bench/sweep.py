"""Seeded generator of valid diagram files for the `sweep` workload.

Diagrams have rank 2 to 5, node labels 1 to 4 and branches `-`, `=` or
`,`.  Only diagrams the grammar accepts are kept: a `=` joins equal labels
and a `-` joins labels whose ratio is 1, 2, 3 or 4.  Each connected
component is divided by the gcd of its labels, as the parser normalizes,
and a diagram whose normalized text was already drawn is dropped.  The
generator imports nothing from the program, so a parser change cannot
change the input it is measured on.

Each rank and number of connected components gets a fixed quota (QUOTA),
so seeds differ in which diagrams they draw but not in how many costly
ones: in-process, a connected rank-5 diagram takes about 0.2 s through
both commands and one of four components 0.04 s, and with the rank drawn
freely the work of a pass varied by 20% between seeds.  The quotas keep
the mix that drawing each branch uniformly gives.
"""

import random
from math import gcd

# rank -> diagrams with 1, 2, ... connected components, the last entry
# counting that many or more; only 9 normalized rank-2 diagrams exist
QUOTA = {2: (5, 1), 3: (5, 9), 4: (3, 10, 7), 5: (1, 5, 9, 5)}
LABELS = (1, 2, 3, 4)
BRANCHES = ("-", "=", ",")


def _valid(branch, a, b):
    if branch == "=":
        return a == b
    if branch == "-":
        lo, hi = min(a, b), max(a, b)
        return hi % lo == 0 and hi // lo in (1, 2, 3, 4)
    return True


def _normalized(labels, branches):
    labels = list(labels)
    start = 0
    for end in range(len(labels)):
        if end == len(labels) - 1 or branches[end] == ",":
            g = 0
            for i in range(start, end + 1):
                g = gcd(g, labels[i])
            for i in range(start, end + 1):
                labels[i] //= g
            start = end + 1
    parts = [str(labels[0])]
    for branch, label in zip(branches, labels[1:]):
        parts += [branch, str(label)]
    return " ".join(parts)


def diagrams(seed):
    """Distinct normalized diagram texts drawn from `seed`, as QUOTA says."""
    rng = random.Random(seed)
    seen, out = set(), []
    for rank, quotas in sorted(QUOTA.items()):
        drawn = [0] * len(quotas)
        while drawn != list(quotas):
            labels = [rng.choice(LABELS) for _ in range(rank)]
            branches = [rng.choice(BRANCHES) for _ in range(rank - 1)]
            if not all(_valid(br, labels[i], labels[i + 1])
                       for i, br in enumerate(branches)):
                continue
            parts = min(branches.count(",") + 1, len(quotas)) - 1
            if drawn[parts] == quotas[parts]:
                continue
            text = _normalized(labels, branches)
            if text not in seen:
                seen.add(text)
                out.append(text)
                drawn[parts] += 1
    return out


def write_file(path, seed):
    texts = diagrams(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# sweep seed %d, %d diagrams\n" % (seed, len(texts)))
        for text in texts:
            fh.write(text + "\n")
