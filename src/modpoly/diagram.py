"""Linear (string) diagram notation for crystallographic Coxeter basic systems.

Grammar (whitespace insignificant, one diagram per line in files):

    diagram := label (branch label)*
    branch  := "-" | "=" | ","
    label   := positive integer

A node carries a positive integer label (the squared-norm scale of its basis
vector).  A "-" branch is a single bond: the two labels must divide one
another with ratio 1, 2, 3 or 4.  A "=" branch is a double bond and requires
equal labels.  A "," separates nodes that do not interact (their reflections
commute).  Labels are normalized so that each connected component has gcd 1;
two inputs that normalize to the same labels denote the same basic system.
"""

from dataclasses import dataclass
from enum import Enum
from math import factorial, gcd

INFINITY = 0  # branch period sentinel; compares as "infinite" everywhere below

# period of r_i r_{i+1} in the real group, indexed by m_{i,i+1} * m_{i+1,i}
_PERIOD_BY_CARTAN_PRODUCT = (2, 3, 4, 6, INFINITY)


class Branch(Enum):
    SINGLE = "-"
    DOUBLE = "="
    NONE = ","


class ParseError(ValueError):
    """Raised on malformed diagram text; .position is a character offset."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def coxeter_order(periods):
    """Order of the real group of a connected string with these branch periods.

    The finite ones are A_m (all 3), B_m (one 4 at either end, the rest 3),
    F_4 (3, 4, 3) and I_2(p) (one period p).  None when the group is infinite
    or a period of 2 leaves the string disconnected.
    """
    m = len(periods) + 1
    if m <= 2:
        return 2 * max(periods, default=1) if set(periods) <= {3, 4, 6} else None
    ends, inner_a = {periods[0], periods[-1]}, set(periods[1:-1]) <= {3}
    if inner_a and ends == {3}:
        return factorial(m + 1)
    if inner_a and ends == {3, 4}:
        return 2 ** m * factorial(m)
    return 1152 if tuple(periods) == (3, 4, 3) else None


def _cartan_pair(kind, a, b):
    # (m_ij, m_ji) for left node i with label a, right node j with label b.
    # The smaller label receives the larger Cartan integer.  Raises
    # ValueError when the labels cannot flank a branch of this kind.
    if kind is Branch.NONE:
        return (0, 0)
    if kind is Branch.DOUBLE:
        if a != b:
            raise ValueError("double branch requires equal labels (%d = %d)" % (a, b))
        return (2, 2)
    lo, hi = min(a, b), max(a, b)
    if hi % lo or hi > 4 * lo:
        raise ValueError("single branch needs label ratio 1, 2, 3 or 4 (%d - %d)" % (a, b))
    ratio = hi // lo
    if ratio == 1:
        return (1, 1)
    return (ratio, 1) if a < b else (1, ratio)


@dataclass(frozen=True)
class Diagram:
    labels: tuple
    branches: tuple  # len(labels) - 1 Branch values

    def __post_init__(self):
        if not self.labels:
            raise ValueError("diagram needs at least one node")
        if len(self.branches) != len(self.labels) - 1:
            raise ValueError("need exactly one branch between consecutive nodes")
        if min(self.labels) < 1:
            raise ValueError("labels must be positive")
        # the pairs are checked and kept once; they are not a field
        object.__setattr__(self, "_pairs", tuple(
            _cartan_pair(kind, a, b)
            for kind, a, b in zip(self.branches, self.labels, self.labels[1:])))

    @property
    def rank(self):
        return len(self.labels)

    def render(self):
        parts = [str(self.labels[0])]
        for kind, label in zip(self.branches, self.labels[1:]):
            parts.append(kind.value)
            parts.append(str(label))
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def flip(self):
        return Diagram(self.labels[::-1], self.branches[::-1])

    def components(self):
        """Contiguous index ranges separated by NONE branches."""
        out, start = [], 0
        for i, kind in enumerate(self.branches):
            if kind is Branch.NONE:
                out.append(range(start, i + 1))
                start = i + 1
        out.append(range(start, self.rank))
        return out

    def subdiagram(self, window):
        """The induced diagram on a contiguous window (labels kept verbatim)."""
        window = list(window)
        if window != list(range(window[0], window[-1] + 1)):
            raise ValueError("window must be contiguous")
        lo, hi = window[0], window[-1]
        return Diagram(self.labels[lo:hi + 1], self.branches[lo:hi])

    def branch_periods(self):
        """Period of r_{i} r_{i+1} in the real group, per branch (0 = infinite)."""
        return tuple(_PERIOD_BY_CARTAN_PRODUCT[a * b] for a, b in self.cartan_pairs())

    def cartan_pairs(self):
        """(m_{i,i+1}, m_{i+1,i}) per branch."""
        return self._pairs

    def cartan_row(self, i):
        """Row i of the Cartan matrix: m_{i,j} for all j (m_{ii} = -2)."""
        pairs = self.cartan_pairs()
        row = [0] * self.rank
        row[i] = -2
        if i > 0:
            row[i - 1] = pairs[i - 1][1]
        if i < self.rank - 1:
            row[i + 1] = pairs[i][0]
        return row

    def cartan_matrix(self):
        return tuple(tuple(self.cartan_row(i)) for i in range(self.rank))

    def side_integers(self, i):
        """(m_{i,i-1}, m_{i,i+1}) with 0 beyond either end of the string."""
        pairs = self.cartan_pairs()
        left = pairs[i - 1][1] if i > 0 else 0
        right = pairs[i][0] if i < self.rank - 1 else 0
        return (left, right)

    def node_parity(self, i):
        """Parity class of node i: 'ee', 'oe' or 'oo'.

        Classes are unordered pairs of parities of the two side Cartan
        integers; an end node's missing side counts as 0 (even).
        """
        left, right = self.side_integers(i)
        odd = (left % 2) + (right % 2)
        return ("ee", "oe", "oo")[odd]


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "-=,":
            tokens.append(("branch", Branch(ch), i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("label", int(text[i:j]), i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    return tokens


def parse_diagram(text):
    """Parse one diagram from text, validate branches, normalize labels."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty diagram", 0)
    labels, branches = [], []
    expect_label = True
    for kind, value, pos in tokens:
        if expect_label:
            if kind != "label":
                raise ParseError("expected a node label", pos)
            if value < 1:
                raise ParseError("labels must be positive", pos)
            labels.append((value, pos))
        else:
            if kind != "branch":
                raise ParseError("expected a branch (-, = or ,)", pos)
            branches.append((value, pos))
        expect_label = not expect_label
    if expect_label:
        raise ParseError("dangling branch at end of diagram", tokens[-1][2])

    for i, (kind, pos) in enumerate(branches):
        try:
            _cartan_pair(kind, labels[i][0], labels[i + 1][0])
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    raw = Diagram(tuple(v for v, _ in labels), tuple(k for k, _ in branches))
    return _normalize(raw)


def _normalize(diagram):
    labels = list(diagram.labels)
    for comp in diagram.components():
        g = 0
        for i in comp:
            g = gcd(g, labels[i])
        for i in comp:
            labels[i] //= g
    return Diagram(tuple(labels), diagram.branches)


def parse_file(text):
    """Parse a multi-line file: one diagram per line, '#' comments, blanks skipped."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            out.append(parse_diagram(body))
        except ParseError as exc:
            raise ParseError("line %d: %s" % (lineno, exc.args[0]), exc.position) from None
    return out
