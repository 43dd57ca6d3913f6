"""Slow reference implementations, used only as test oracles.

Letters are (value, marked) pairs and every rule is checked by rescanning
whole rows and columns, so nothing here shares code with the package.  The
exception is the last section: verbatim copies of package code that a
faster version replaced, kept to pin the new code against the old.
"""


def to_code(letter):
    v, marked = letter
    return 2 * v - 1 if marked else 2 * v


def from_code(code):
    return (code + 1) // 2, code % 2 == 1


def boxes_of(lam, mu=()):
    """Shifted skew boxes; row r spans columns r .. r + lam_r - 1."""
    cells = []
    for r, top in enumerate(lam, 1):
        cut = mu[r - 1] if r <= len(mu) else 0
        cells.extend((r, c) for c in range(r + cut, r + top))
    return cells


def skew_boxes(lam, mu=()):
    return frozenset(boxes_of(lam, mu))


def _key(v, marked):
    # marked v sorts just below unmarked v
    return (v, not marked)


def is_valid_filling(filling):
    """Weakly increasing rows and columns, marked letters at most once per
    row, unmarked at most once per column."""
    for (r, c), letter in filling.items():
        here = _key(*letter)
        for nb in ((r, c - 1), (r - 1, c)):
            if nb in filling and _key(*filling[nb]) > here:
                return False
    marked = [(r, l) for (r, _), l in filling.items() if l[1]]
    unmarked = [(c, l) for (_, c), l in filling.items() if not l[1]]
    return (len(set(marked)) == len(marked)
            and len(set(unmarked)) == len(unmarked))


def fillings(cells, max_value):
    """Every assignment of letters obeying the tableau rules.

    Cells must come row-major so the left and up neighbours of a box are
    placed before it.
    """
    filling = {}

    def fits(r, c, v, marked):
        here = _key(v, marked)
        left = filling.get((r, c - 1))
        if left is not None and _key(*left) > here:
            return False
        up = filling.get((r - 1, c))
        if up is not None and _key(*up) > here:
            return False
        if marked:
            return all(filling.get((r, y)) != (v, True)
                       for (x, y) in cells if x == r)
        return all(filling.get((x, c)) != (v, False)
                   for (x, y) in cells if y == c)

    def go(i):
        if i == len(cells):
            yield dict(filling)
            return
        r, c = cells[i]
        for v in range(1, max_value + 1):
            for marked in (True, False):
                if fits(r, c, v, marked):
                    filling[(r, c)] = (v, marked)
                    yield from go(i + 1)
                    del filling[(r, c)]

    yield from go(0)


def all_fillings(boxes, max_value):
    yield from fillings(sorted(boxes), max_value)


def reading(filling):
    """Rows bottom to top, each left to right."""
    return [filling[b] for b in sorted(filling, key=lambda b: (-b[0], b[1]))]


def m_stats(word, i):
    """m_i(0..2n): unmarked i right to left, then marked i left to right."""
    n = len(word)
    m = [0]
    for j in range(1, n + 1):
        m.append(m[-1] + (word[n - j] == (i, False)))
    for j in range(n + 1, 2 * n + 1):
        m.append(m[-1] + (word[j - n - 1] == (i, True)))
    return m


def m_stat(word, i, j):
    return m_stats(word, i)[j]


def is_k_amenable(word, k):
    """Conditions a) to d) for one k, transcribed one-to-one."""
    n = len(word)
    mk, mk1 = m_stats(word, k), m_stats(word, k - 1)
    for j in range(n):
        if mk[j] == mk1[j] and word[n - j - 1][0] == k:
            return False
    for j in range(n, 2 * n):
        if mk[j] == mk1[j] and word[j - n] in ((k - 1, False), (k, True)):
            return False
    for v in (k, k - 1):
        first = next((marked for (val, marked) in word if val == v), None)
        if first:
            return False
    return True


def is_amenable(word):
    top = max((v for v, _ in word), default=0)
    return all(is_k_amenable(word, k) for k in range(2, top + 2))


def content_of(filling):
    values = [v for v, _ in filling.values()]
    return tuple(values.count(i) for i in range(1, max(values, default=0) + 1))


def decompose(lam, mu=()):
    """Contents of amenable fillings, counted the slow way."""
    cells = boxes_of(lam, mu)
    terms = {}
    for filling in fillings(cells, len(cells)):
        if is_amenable(reading(filling)):
            nu = content_of(filling)
            terms[nu] = terms.get(nu, 0) + 1
    return terms


def count_bounded(lam, mu, max_value):
    return sum(1 for _ in fillings(boxes_of(lam, mu), max_value))


# Copies of the dict-based neighbourhood patterns and materializer that
# verify.suite_checklist used, and of the components()-based fitting test
# that is_k_amenable_checklist used, before both were rewritten.

from schurq.partitions import strip_last_box  # noqa: E402
from schurq.tableaux import Tableau, letter, letter_value  # noqa: E402

_SMALL, _AM, _A, _BM, _B, _BIG = range(6)


def neighbourhood_patterns(rows):
    """All six-state box labelings that some tableau induces at some k.

    Yields one live dict, mutated between yields: consume it immediately.
    """
    boxes = [(x, y) for x, (lo, hi) in enumerate(rows, 1)
             for y in range(lo, hi + 1)]
    state = {}
    marked_rows = {_AM: set(), _BM: set()}
    plain_cols = {_A: set(), _B: set()}

    def fill(i):
        if i == len(boxes):
            yield state
            return
        x, y = boxes[i]
        floor = max(state.get((x, y - 1), 0), state.get((x - 1, y), 0))
        for s in range(floor, _BIG + 1):
            if s in marked_rows and x in marked_rows[s]:
                continue
            if s in plain_cols and y in plain_cols[s]:
                continue
            state[(x, y)] = s
            if s in marked_rows:
                marked_rows[s].add(x)
            if s in plain_cols:
                plain_cols[s].add(y)
            yield from fill(i + 1)
            if s in marked_rows:
                marked_rows[s].discard(x)
            if s in plain_cols:
                plain_cols[s].discard(y)
        state.pop((x, y), None)

    yield from fill(0)


def materialize(pattern, boxes, check=False):
    """A tableau with the given pattern as its k-neighbourhood, with k
    and the reading word."""
    entries = {}
    strip = {}
    for b in boxes:  # row-major, so the upper-left neighbour is done first
        if pattern[b] == _SMALL:
            strip[b] = strip.get((b[0] - 1, b[1] - 1), 0) + 1
    depth = max(strip.values(), default=0)
    k = depth + 2
    big = k
    word_rows = [[] for _ in range(boxes[-1][0] + 1)]
    for b in boxes:
        s = pattern[b]
        if s == _SMALL:
            i = strip[b]
            code = 2 * i - (strip.get((b[0] + 1, b[1])) == i)
        elif s == _BIG:
            big += 1
            code = 2 * big
        else:
            # _AM, _A, _BM, _B give k-1, k-1, k, k with marks on _AM, _BM
            code = 2 * (k - 1) + (s >= _BM) * 2 - (s in (_AM, _BM))
        entries[b] = code
        word_rows[b[0]].append(code)
    word = tuple(c for row in reversed(word_rows) for c in row)
    return Tableau(entries, check=check), k, word


def tvalue_boxes(t, i):
    """T^(i): the boxes whose letter has absolute value i."""
    return frozenset(b for b, c in t.entries.items() if letter_value(c) == i)


def fitting(t, i):
    """Whether the last box of T^(i) holds an unmarked i.

    The last box of a broken border strip is the last box of its leftmost
    component.  An empty T^(i) is vacuously fitting.
    """
    boxes = tvalue_boxes(t, i)
    if not boxes:
        return True
    return t.entries[strip_last_box(boxes)] == letter(i)
