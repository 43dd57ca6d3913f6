"""Pure-Python counting kernel.

Same API as the compiled kernel; picked at import time when the extension
is missing or SCHURQ_PURE is set.  Shapes arrive as row interval lists
[(start_col, end_col), ...] for rows 1..R of an anchored skew diagram.
"""

import sys

from .tableaux import is_amenable_word, is_k_amenable_word

# stack frames left free for the callers of a search
_CALLER_FRAMES = 200


class ShapeTooLarge(ValueError):
    """The shape has more boxes than a search that recurses once per box
    can reach under the interpreter's recursion limit."""


def _check_size(n):
    limit = sys.getrecursionlimit() - _CALLER_FRAMES
    if n > limit:
        raise ShapeTooLarge(
            f"shape has {n} boxes; the pure-Python search recurses once per "
            f"box, and the interpreter's recursion limit leaves room for "
            f"{limit}")


def _positions(rows):
    # filling order = reversed reading order: row 1 right-to-left, then row 2, ...
    pos = []
    index = {}
    for i, (lo, hi) in enumerate(rows, 1):
        for j in range(hi, lo - 1, -1):
            index[(i, j)] = len(pos)
            pos.append((i, j))
    right = [index.get((i, j + 1), -1) for i, j in pos]
    above = [index.get((i - 1, j), -1) for i, j in pos]
    return pos, right, above


def iter_amenable_words(rows, nu=None):
    """Yield the reading word of every amenable filling, in a fixed order.

    With nu given, only fillings of that exact content are produced.  The
    search caps letter values by the row index and prunes a value whose
    unmarked count ties the previous value's; the survivors still get the
    full amenability scan before being accepted.
    """
    rows = list(rows)
    nrows = len(rows)
    pos, right, above = _positions(rows)
    n = len(pos)
    _check_size(n)
    rem = None
    if nu is not None:
        nu = tuple(nu)
        if len(nu) > nrows or sum(nu) != n or any(v < 0 for v in nu):
            return
        rem = list(nu) + [0] * (nrows - len(nu))
    if n == 0:
        yield ()
        return
    after = None
    if rem is not None:
        # after[p][r]: boxes at positions >= p lying in rows >= r
        after = [[0] * (nrows + 1) for _ in range(n + 1)]
        for p in range(n - 1, -1, -1):
            i = pos[p][0]
            for r in range(1, nrows + 1):
                after[p][r] = after[p + 1][r] + (1 if i >= r else 0)

    w = [0] * n
    u = [0] * (nrows + 2)

    def place(p):
        if p == n:
            word = tuple(reversed(w))
            if is_amenable_word(word):
                yield word
            return
        row = pos[p][0]
        rc = w[right[p]] if right[p] >= 0 else None
        ac = w[above[p]] if above[p] >= 0 else None
        for v in range(1, row + 1):
            if v > 1 and u[v] == u[v - 1]:
                continue  # the next letter scanned may not have value v
            if rem is not None and rem[v - 1] == 0:
                continue
            for x in (2 * v - 1, 2 * v):
                if rc is not None and (x > rc or (x == rc and x % 2 == 1)):
                    continue
                if ac is not None and (x < ac or (x == ac and x % 2 == 0)):
                    continue
                w[p] = x
                unmarked = x % 2 == 0
                u[v] += unmarked
                if rem is None:
                    yield from place(p + 1)
                else:
                    rem[v - 1] -= 1
                    if all(rem[t - 1] <= after[p + 1][t]
                           for t in range(1, nrows + 1)):
                        yield from place(p + 1)
                    rem[v - 1] += 1
                u[v] -= unmarked

    yield from place(0)


def _word_content(word):
    top = max(((c + 1) // 2 for c in word), default=0)
    counts = [0] * (top + 1)
    for c in word:
        counts[(c + 1) // 2] += 1
    return tuple(counts[1:])


def count_contents(rows):
    """Content -> number of amenable fillings, as a dict."""
    out = {}
    for word in iter_amenable_words(rows):
        key = _word_content(word)
        out[key] = out.get(key, 0) + 1
    return out


def count_content(rows, nu):
    """Number of amenable fillings with the given content."""
    return sum(1 for _ in iter_amenable_words(rows, nu))


def has_duplicate_content(rows):
    """Stop at the first content reached twice."""
    seen = set()
    for word in iter_amenable_words(rows):
        key = _word_content(word)
        if key in seen:
            return True
        seen.add(key)
    return False


def iter_bounded_words(rows, max_value):
    """Yield the reading word of every valid filling with values <= max_value."""
    rows = list(rows)
    pos, right, above = _positions(rows)
    n = len(pos)
    _check_size(n)
    if n == 0:
        yield ()
        return
    w = [0] * n

    def place(p):
        if p == n:
            yield tuple(reversed(w))
            return
        rc = w[right[p]] if right[p] >= 0 else None
        ac = w[above[p]] if above[p] >= 0 else None
        for x in range(1, 2 * max_value + 1):
            if rc is not None and (x > rc or (x == rc and x % 2 == 1)):
                continue
            if ac is not None and (x < ac or (x == ac and x % 2 == 0)):
                continue
            w[p] = x
            yield from place(p + 1)

    yield from place(0)


def count_bounded(rows, max_value):
    """Number of valid fillings with letter values <= max_value."""
    rows = list(rows)
    pos, right, above = _positions(rows)
    n = len(pos)
    _check_size(n)
    if n == 0:
        return 1
    w = [0] * n

    def place(p):
        if p == n:
            return 1
        total = 0
        rc = w[right[p]] if right[p] >= 0 else None
        ac = w[above[p]] if above[p] >= 0 else None
        for x in range(1, 2 * max_value + 1):
            if rc is not None and (x > rc or (x == rc and x % 2 == 1)):
                continue
            if ac is not None and (x < ac or (x == ac and x % 2 == 0)):
                continue
            w[p] = x
            total += place(p + 1)
        return total

    return place(0)


def word_is_k_amenable(word, k):
    return is_k_amenable_word(tuple(word), k)


def word_is_amenable(word):
    return is_amenable_word(tuple(word))


def backend_name():
    return "python"
