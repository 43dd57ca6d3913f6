"""Reference computations for the benchmark's answer checks.

Nothing here imports schurq, so a check that uses this module compares the
program against a computation made apart from it.

Partitions are tuples of strictly decreasing positive ints.  Letters of a
word are codes: marked v' is 2v - 1 and unmarked v is 2v.
"""

from functools import lru_cache


def strict_partitions(n, max_part=None):
    """Every strict partition of n, as a list, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        out += [(first,) + rest for rest in strict_partitions(n - first, first - 1)]
    return out


def _one_box_more(kappa, lam):
    """Strict partitions inside lam that have one box more than kappa."""
    grown = []
    for i in range(len(kappa) + 1):
        old = kappa[i] if i < len(kappa) else 0
        new = old + 1
        if i >= len(lam) or new > lam[i]:
            continue
        if i > 0 and kappa[i - 1] <= new:
            continue  # row i would not be shorter than the row above
        grown.append(kappa[:i] + (new,) + kappa[i + 1:])
    return grown


@lru_cache(maxsize=None)
def g(lam, mu=()):
    """g^{lam/mu}: standard shifted tableaux of shape lam/mu.

    Counted as the saturated chains from mu up to lam in the lattice of
    strict partitions ordered by inclusion of shifted diagrams.  Zero when
    mu is not inside lam.
    """
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return 0
    if mu == lam:
        return 1
    return sum(g(lam, kappa) for kappa in _one_box_more(mu, lam))


def scan_counts(word, i):
    """m_i(j) for j = 0 .. 2n, each counted afresh from its definition.

    For j <= n, m_i(j) is the number of unmarked i among the last j letters.
    For j > n, it is m_i(n) plus the number of marked i' among the first
    j - n letters.
    """
    n = len(word)
    m = []
    for j in range(2 * n + 1):
        if j <= n:
            m.append(sum(1 for c in word[n - j:] if c == 2 * i))
        else:
            m.append(sum(1 for c in word if c == 2 * i)
                     + sum(1 for c in word[:j - n] if c == 2 * i - 1))
    return m


def is_k_amenable(word, k):
    """The four conditions that define a k-amenable word, k >= 2.

    1. For 0 <= j < n: if m_{k-1}(j) = m_k(j), then w_{n-j} is not k or k'.
    2. For n <= j < 2n: if m_{k-1}(j) = m_k(j), then w_{j-n+1} is not k-1
       or k'.
    3. The leftmost letter of value k, if any, is unmarked.
    4. The leftmost letter of value k-1, if any, is unmarked.
    Positions w_1 .. w_n are 1-based, as in the definition.
    """
    if k < 2:
        raise ValueError("k-amenability is defined for k >= 2")
    n = len(word)
    w = (None,) + tuple(word)
    low, high = scan_counts(word, k - 1), scan_counts(word, k)
    for j in range(n):
        if low[j] == high[j] and w[n - j] in (2 * k, 2 * k - 1):
            return False
    for j in range(n, 2 * n):
        if low[j] == high[j] and w[j - n + 1] in (2 * k - 2, 2 * k - 1):
            return False
    for value in (k, k - 1):
        first = next((c for c in word if (c + 1) // 2 == value), None)
        if first is not None and first % 2 == 1:
            return False
    return True


def skew_boxes(lam, mu=()):
    """Boxes (row, column) of the shifted skew diagram lam/mu, row-major."""
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    return [(r, c) for r, (top, cut) in enumerate(zip(lam, mu), 1)
            for c in range(r + cut, r + top)]


def reading_word(entries):
    """Rows bottom to top, each read left to right."""
    return tuple(entries[b] for b in sorted(entries, key=lambda b: (-b[0], b[1])))


def tableaux(lam, mu, max_value):
    """Every marked shifted tableau of shape lam/mu with values <= max_value.

    Rows and columns weakly increase, a marked letter repeats in no row and
    an unmarked letter in no column.  Yields dicts box -> letter code.
    """
    cells = skew_boxes(lam, mu)
    filling = {}

    def go(i):
        if i == len(cells):
            yield dict(filling)
            return
        r, c = cells[i]
        left, up = filling.get((r, c - 1)), filling.get((r - 1, c))
        for code in range(1, 2 * max_value + 1):
            if left is not None and (code < left or (code == left and code % 2)):
                continue
            if up is not None and (code < up or (code == up and code % 2 == 0)):
                continue
            filling[(r, c)] = code
            yield from go(i + 1)
        filling.pop((r, c), None)

    yield from go(0)
