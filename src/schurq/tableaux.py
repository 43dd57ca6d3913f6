"""Marked letters, shifted tableaux, reading words, and amenability tests.

Letters live in the ordered alphabet 1' < 1 < 2' < 2 < ... and are encoded
as ints (marked v -> 2v-1, unmarked v -> 2v) so integer order is alphabet
order.  Words are tuples of letter codes.
"""

from collections import Counter

from .partitions import row_intervals, skew_diagram


def letter(value, marked=False):
    """Encode a letter; the code order matches the alphabet order."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"letter value must be a positive integer: {value}")
    return 2 * value - 1 if marked else 2 * value


def letter_value(code):
    return (code + 1) // 2


def is_marked(code):
    return code % 2 == 1


def format_letter(code):
    return f"{letter_value(code)}'" if is_marked(code) else str(letter_value(code))


def parse_letter(token):
    token = token.strip()
    marked = token.endswith("'")
    if marked:
        token = token[:-1]
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"cannot parse letter {token!r}") from None
    return letter(value, marked)


def parse_word(text):
    return tuple(parse_letter(tok) for tok in text.split())


def format_word(word):
    return " ".join(format_letter(c) for c in word)


class Tableau:
    """A filling of a skew shifted diagram by marked letters.

    Rows and columns weakly increase, each column holds at most one
    unmarked k, and each row at most one marked k'.
    """

    __slots__ = ("entries", "shape")

    def __init__(self, entries, check=True):
        self.entries = dict(entries)
        self.shape = frozenset(self.entries)
        if check:
            self._validate()

    def _validate(self):
        row_intervals(self.shape)  # rows must be contiguous
        for (x, y), code in self.entries.items():
            if not isinstance(code, int) or code < 1:
                raise ValueError(f"bad letter code {code} at {(x, y)}")
            right = self.entries.get((x, y + 1))
            below = self.entries.get((x + 1, y))
            if right is not None and code > right:
                raise ValueError(f"row decreases at {(x, y)}")
            if below is not None and code > below:
                raise ValueError(f"column decreases at {(x, y)}")
            # equal letters sit adjacent, so adjacency checks catch repeats
            if right == code and is_marked(code):
                raise ValueError(f"marked letter repeats in row {x}")
            if below == code and not is_marked(code):
                raise ValueError(f"unmarked letter repeats in column {y}")

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __repr__(self):
        rows = {}
        for (x, y), code in sorted(self.entries.items()):
            rows.setdefault(x, []).append(format_letter(code))
        body = " / ".join(" ".join(toks) for _, toks in sorted(rows.items()))
        return f"Tableau({body})"


def reading_word(t):
    """Rows bottom to top, each read left to right."""
    return tuple(t.entries[box]
                 for box in sorted(t.shape, key=lambda b: (-b[0], b[1])))


def content(t):
    """Total letter multiplicities by value, trailing zeros trimmed."""
    return _trim(Counter(letter_value(c) for c in t.entries.values()))


def unmarked_content(t):
    return _trim(Counter(letter_value(c) for c in t.entries.values()
                         if not is_marked(c)))


def marked_content(t):
    return _trim(Counter(letter_value(c) for c in t.entries.values()
                         if is_marked(c)))


def word_content(word):
    return _trim(Counter(letter_value(c) for c in word))


def _trim(counter):
    top = max(counter, default=0)
    return tuple(counter.get(v, 0) for v in range(1, top + 1))


def scan_statistics(word, i):
    """m_i(j) for j = 0..2n.

    The first pass counts unmarked i right to left; the second adds marked
    i' left to right on top of m_i(n).
    """
    n = len(word)
    m = [0] * (2 * n + 1)
    for j in range(1, n + 1):
        m[j] = m[j - 1] + (word[n - j] == 2 * i)
    for j in range(n + 1, 2 * n + 1):
        m[j] = m[j - 1] + (word[j - n - 1] == 2 * i - 1)
    return m


def is_k_amenable_word(word, k):
    """The four scanning conditions for one k.

    Equivalent to testing ties of scan_statistics at k-1 and k plus the
    two first-letter conditions, fused into two early-exit passes.
    """
    if k < 2:
        raise ValueError("k-amenability is defined for k >= 2")
    uk, marked_k = 2 * k, 2 * k - 1
    uk1, marked_k1 = 2 * k - 2, 2 * k - 3
    mk = mk1 = 0
    for c in reversed(word):
        # at a tie the next letter scanned right to left may not be k or k'
        if mk == mk1 and (c == uk or c == marked_k):
            return False
        if c == uk:
            mk += 1
        elif c == uk1:
            mk1 += 1
    seen_k = seen_k1 = False
    for c in word:
        # at a tie the next letter scanned left to right may not be k-1 or k'
        if mk == mk1 and (c == uk1 or c == marked_k):
            return False
        if c == marked_k:
            if not seen_k:
                return False  # first letter of value k is marked
            mk += 1
        elif c == uk:
            seen_k = True
        elif c == marked_k1:
            if not seen_k1:
                return False  # first letter of value k-1 is marked
            mk1 += 1
        elif c == uk1:
            seen_k1 = True
    return True


def is_amenable_word(word):
    """k-amenable for every k >= 2; k beyond max value + 1 is vacuous."""
    top = max((letter_value(c) for c in word), default=0)
    return all(is_k_amenable_word(word, k) for k in range(2, top + 2))


def is_amenable(t):
    return is_amenable_word(reading_word(t))


def tvalue_boxes(t, i):
    """T^(i): the boxes whose letter has absolute value i."""
    return frozenset(b for b, c in t.entries.items() if letter_value(c) == i)


def _strip_end(boxes):
    """Last box of a broken border strip of one value: the lowest box in
    its leftmost column.

    Two components of a value's strip never share a column (columns have
    no gaps, so boxes of one value in one column touch).  So the leftmost
    column lies in the leftmost component, and the last box of that
    component, the one with no box below it or to its left, is the lowest
    box of that column.
    """
    return min(boxes, key=lambda box: (box[1], -box[0]))


def fitting(t, i):
    """Whether the last box of T^(i) holds an unmarked i.

    An empty T^(i) is vacuously fitting.
    """
    boxes = tvalue_boxes(t, i)
    if not boxes:
        return True
    return t.entries[_strip_end(boxes)] == letter(i)


def _has_injection(sources, targets, allowed):
    # small augmenting-path matcher; d never exceeds the box count
    match = {}

    def augment(i, seen):
        for tgt in targets:
            if tgt in seen or not allowed(sources[i], tgt):
                continue
            seen.add(tgt)
            if tgt not in match or augment(match[tgt], seen):
                match[tgt] = i
                return True
        return False

    return all(augment(i, set()) for i in range(len(sources)))


def _upper_right(boxes, x, y):
    # how many of the boxes lie weakly above and weakly to the right
    n = 0
    for u, v in boxes:
        if u <= x and v >= y:
            n += 1
    return n


def is_k_amenable_checklist(t, k):
    """Box-level k-amenability test, equivalent to the word conditions."""
    if k < 2:
        raise ValueError("k-amenability is defined for k >= 2")
    # the boxes holding (k-1)', k-1, k' and k, in one pass
    groups = ([], [], [], [])
    base = 2 * k - 3
    for box, c in t.entries.items():
        c -= base
        if 0 <= c <= 3:
            groups[c].append(box)
    am, a, bm, b = groups
    if not (a or am or b or bm):
        return True
    if len(a) <= len(b):
        return False
    # fitting: the last box of each strip holds an unmarked letter
    if am and _strip_end(a + am) in am:
        return False
    if bm and (not b or _strip_end(b + bm) in bm):
        return False
    for x, y in b:
        if _upper_right(a, x, y) < _upper_right(b, x, y):
            return False
    sources = sorted((x, y) for x, y in bm if (x - 1, y - 1) not in am)
    for x, y in sources:
        if _upper_right(a, x, y) <= _upper_right(b, x, y):
            return False
    d = len(sources) + len(b) - len(a) + 1
    if d > 0:
        targets = [(x, y) for x, y in am if (x + 1, y + 1) not in bm]
        blocked = {x for x, _ in a} | {x for x, _ in bm}

        def allowed(src, tgt):
            return not any(r in blocked for r in range(tgt[0] + 1, src[0]))
        if not _has_injection(sources[:d], targets, allowed):
            return False
    return True


def is_k_amenable_sufficient(t, k):
    """A cheaper sufficient condition for k-amenability (not necessary)."""
    if k < 2:
        raise ValueError("k-amenability is defined for k >= 2")
    entries = t.entries
    uk, marked_k = letter(k), letter(k, True)
    uk1, marked_k1 = letter(k - 1), letter(k - 1, True)
    counts = Counter(entries.values())
    if counts[uk] + counts[marked_k] == 0 and counts[uk1] + counts[marked_k1] == 0:
        return True

    def column_has(y, code, lo, hi):
        return any(c == code for (u, v), c in entries.items()
                   if v == y and lo < u < hi)

    top = max(x for x, _ in entries) + 1
    anchor = any(c == uk1 and not column_has(y, uk, x, top + 1)
                 for (x, y), c in entries.items())
    if not anchor:
        return False
    for (x, y), c in entries.items():
        if c == uk and not column_has(y, uk1, 0, x):
            return False
        if c == marked_k and entries.get((x - 1, y - 1)) != marked_k1:
            return False
    if not fitting(t, k - 1):
        return False
    # a value-k region holding only marked letters is never fitting, so the
    # trigger must count marked letters too
    if counts[uk] + counts[marked_k] > 0 and not fitting(t, k):
        return False
    return True


def salmasian_strips(lam, mu=()):
    """The strips P_1, P_2, ... peeled off the skew diagram in turn."""
    remaining = set(skew_diagram(lam, mu))
    strips = []
    while remaining:
        strip = {b for b in remaining
                 if (b[0] - 1, b[1] - 1) not in remaining}
        strips.append(frozenset(strip))
        remaining -= strip
    return strips


def salmasian_tableau(lam, mu=()):
    """The canonical filling: strip i gets letter i, marked when the box
    directly below belongs to the same strip."""
    entries = {}
    for i, strip in enumerate(salmasian_strips(lam, mu), 1):
        for (x, y) in strip:
            entries[(x, y)] = letter(i, marked=(x + 1, y) in strip)
    return Tableau(entries)


def truncation(lam, mu, k):
    """U_k: what remains of the skew diagram after peeling k-1 strips."""
    if k < 1:
        raise ValueError("truncation index must be >= 1")
    remaining = set(skew_diagram(lam, mu))
    for _ in range(k - 1):
        if not remaining:
            break
        remaining -= {b for b in remaining
                      if (b[0] - 1, b[1] - 1) not in remaining}
    return frozenset(remaining)


def truncation_closed(lam, mu, k):
    """Closed form of U_k: boxes whose (k-1)-step diagonal shift stays inside."""
    if k < 1:
        raise ValueError("truncation index must be >= 1")
    d = skew_diagram(lam, mu)
    return frozenset(b for b in d if (b[0] - k + 1, b[1] - k + 1) in d)


def render_tableau(t, mu_boxes=frozenset()):
    """ASCII grid: ":" pads shifted indentation, "×" marks removed boxes."""
    mu_boxes = frozenset(mu_boxes)
    every = t.shape | mu_boxes
    if not every:
        return ""
    first_row = min(x for x, _ in every)
    last_row = max(x for x, _ in every)
    last_col = max(y for _, y in every)
    grid = []
    for x in range(first_row, last_row + 1):
        cells = []
        for y in range(1, last_col + 1):
            if (x, y) in mu_boxes:
                cells.append("×")
            elif (x, y) in t.shape:
                cells.append(format_letter(t.entries[(x, y)]))
            else:
                cells.append(":" if any((x, z) in every for z in range(y, last_col + 1)) else "")
        grid.append(cells)
    widths = [max(len(row[y]) for row in grid) for y in range(last_col)]
    lines = []
    for cells in grid:
        line = " ".join(cell.ljust(widths[y]) for y, cell in enumerate(cells))
        lines.append(line.rstrip())
    return "\n".join(lines)
