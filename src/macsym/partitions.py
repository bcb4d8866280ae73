"""Partitions, dominance order, Young-diagram statistics, rectangle decompositions.

Partitions are plain tuples of weakly decreasing positive integers; () is the
empty partition.  Cells are indexed 1-based as (row, column).
"""

from .errors import CellOutOfDiagram, EmptyPartition

# Largest weight the CLI and the cache loader accept; library calls are unbounded.
# On a 2-vCPU VM the P/Q family of weight <= 8 builds in 2.6-4.0 s cold and of
# weight <= 9 in 8-13 s; raising the ceiling is a measured change of its own.
MAX_WEIGHT = 8
# Largest weight of an integral representation the CLI and `verify` run: an
# integral of weight w runs the Delta kernel over up to w variables; cold, both
# sides of (1^6) at order 6 take 2.6-3.4 s, (1^5) at order 10 1.4-2.5 s.
MAX_INTEGRAL_WEIGHT = 5
# Largest weight of a Hall-Littlewood P that `verify` symmetrizes: weight 7 takes 16-18 s.
MAX_HL_WEIGHT = 7
# Largest Kostka degree the CLI and `verify` build: a cold kostka --degree 7
# (weight-7 pairs built) takes 2.0-2.4 s on a 2-vCPU VM, degree 8 5.5-6.1 s.
MAX_KOSTKA_DEGREE = 7


def as_partition(seq):
    """Validate and normalize an iterable of int parts (zeros stripped) into a partition."""
    parts = tuple(seq)
    if not all(type(p) is int for p in parts):
        raise ValueError(f"non-integer part in {seq!r}")
    if 0 in parts:
        parts = tuple(p for p in parts if p)
    if parts and min(parts) < 0:
        raise ValueError(f"negative part in {seq!r}")
    if any(map(int.__lt__, parts, parts[1:])):
        raise ValueError(f"parts not weakly decreasing in {seq!r}")
    return parts


def weight(lam):
    return sum(lam)


def conjugate(lam):
    """Transpose the Young diagram: lam'[j] = #{i : lam[i] >= j}."""
    if not lam:
        return ()
    out = []
    for j in range(1, lam[0] + 1):
        out.append(sum(1 for p in lam if p >= j))
    return tuple(out)


def dominates(lam, mu):
    """True when |lam| = |mu| and every partial sum of lam is >= that of mu."""
    if sum(lam) != sum(mu):
        return False
    sl = sm = 0
    for i in range(max(len(lam), len(mu))):
        sl += lam[i] if i < len(lam) else 0
        sm += mu[i] if i < len(mu) else 0
        if sl < sm:
            return False
    return True


def cells(lam):
    """Iterate over the 1-based cells (i, j) of the diagram."""
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            yield (i, j)


def arm_leg(lam, cell):
    """Return (arm, leg, arm-colength, leg-colength) of a cell (i, j)."""
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise CellOutOfDiagram(f"cell {cell} not in diagram of {lam}")
    conj = conjugate(lam)
    return (lam[i - 1] - j, conj[j - 1] - i, j - 1, i - 1)


def add_parts(lam, mu):
    """Componentwise sum (lam_1 + mu_1, lam_2 + mu_2, ...)."""
    n = max(len(lam), len(mu))
    out = tuple(
        (lam[i] if i < len(lam) else 0) + (mu[i] if i < len(mu) else 0)
        for i in range(n)
    )
    return as_partition(out)


def partitions_of(n, max_length=None):
    """Yield the partitions of n in reverse-lexicographic order: (n) first, (1^n) last.

    The output runs down a linear extension of dominance order, the order in
    which the zero-mode recursion solves for the coefficients of J_lam.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative number: {n}")
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        if max_length is None or len(parts) <= max_length:
            yield tuple(parts)
        # locate the rightmost part exceeding 1
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rem = len(parts) - i - 1 + 1  # ones absorbed plus the unit we peel off
        head = parts[i] - 1
        parts = parts[:i] + [head]
        while rem > 0:
            nxt = min(head, rem)
            parts.append(nxt)
            rem -= nxt


def compositions(total, parts):
    """Yield the weak compositions of total into `parts` nonnegative parts.

    Lexicographic order: (0, ..., 0, total) first, (total, 0, ..., 0) last.
    """
    if total < 0:
        raise ValueError(f"cannot compose a negative number: {total}")
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def rectangles(lam):
    """Decompose lam uniquely into stacked rectangles (s_a^{r_a}).

    Returns blocks [(s_1, r_1), ..., (s_N, r_N)] with strictly increasing
    heights r_a; stacking them back (componentwise sums) recovers lam.
    """
    lam = as_partition(lam)
    if not lam:
        raise EmptyPartition("empty partition has no rectangle decomposition")
    values = sorted(set(lam), reverse=True)  # v_1 > v_2 > ... > v_N
    values.append(0)
    blocks = []
    for a in range(len(values) - 1):
        s = values[a] - values[a + 1]
        r = sum(1 for p in lam if p >= values[a])
        blocks.append((s, r))
    return blocks


def partial_stacks(blocks):
    """Partial stacks: [lam^(1), lam^(2), ...] with lam^(a) the first a blocks."""
    out = []
    cur = ()
    for s, r in blocks:
        cur = add_parts(cur, (s,) * r)
        out.append(cur)
    return out


def parse_partition(text):
    """Parse "(3,3,1)", "3,3,1", "[3,3,1]" or "" into a partition tuple."""
    body = text.strip().strip("()[]").strip()
    if not body or body == "0":
        return ()
    return as_partition([int(p) for p in body.split(",")])


def format_partition(lam):
    return "(" + ",".join(str(p) for p in lam) + ")"
