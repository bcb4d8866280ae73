"""Partitions, dominance order, Young-diagram statistics, rectangle decompositions.

Partitions are plain tuples of weakly decreasing positive integers; () is the
empty partition.  Cells are indexed 1-based as (row, column).
"""

from .errors import CellOutOfDiagram, EmptyPartition


def as_partition(seq):
    """Validate and normalize an iterable into a partition tuple (zeros stripped)."""
    parts = tuple(int(p) for p in seq if int(p) != 0)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {seq!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
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


def dominance_cmp(mu, lam):
    """Tri-state dominance comparison: 'leq' (mu <= lam), 'gt', or 'incomparable'.

    Unequal weights are incomparable by convention.
    """
    if dominates(lam, mu):
        return "leq"
    if dominates(mu, lam):
        return "gt"
    return "incomparable"


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

    Reversing the output gives a linear extension of dominance order from
    below, which is the traversal order used by Gram-Schmidt.
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


def stack_blocks(blocks):
    """Rebuild the partition from rectangle blocks [(s_a, r_a), ...]."""
    out = ()
    for s, r in blocks:
        out = add_parts(out, (s,) * r)
    return out


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
    return as_partition(int(p) for p in body.split(","))


def format_partition(lam):
    return "(" + ",".join(str(p) for p in lam) + ")"
