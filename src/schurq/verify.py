"""Exhaustive cross-check suites shared by the CLI and the test suite."""

import os
import time
from dataclasses import dataclass, field

from .classifier import verify_theorem
from .coefficients import (
    basic_rows,
    decompose,
    decompose_row_strip,
    enumerate_tableaux,
)
from .partitions import (
    NotSkew,
    basic_pairs_by_boxes,
    components,
    contained_partitions,
    normalize_basic,
    skew_diagram,
    strict_partitions_of,
)
from .tableaux import (
    Tableau,
    is_k_amenable_checklist,
    is_k_amenable_word,
    reading_word,
    salmasian_strips,
    truncation,
)
from .transforms import (
    EmptyColumn,
    add_column,
    add_row,
    gamma_down,
    gamma_right,
    orthogonal_transpose,
    rotate,
    transpose,
)


@dataclass
class Report:
    """One suite's tally: what was checked and what disagreed."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    case_counts: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        return (f"suite {self.name}: {self.checked} checked, "
                f"{len(self.failures)} failures, {self.elapsed:.1f}s")


def threads_from_env():
    """Worker count from the THREADS variable, at least 1."""
    try:
        return max(1, int(os.environ.get("THREADS", "1")))
    except ValueError:
        return 1


def _timed(fn):
    def run(*args, **kwargs):
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.elapsed = time.perf_counter() - start
        return report
    return run


def _decompose_memo():
    """decompose behind a dict that lives as long as one suite run.

    The key is (lam, mu) exactly as passed, never a canonical form of the
    shape, so a suite comparing two shapes still computes both; each call
    gets its own copy of the expansion.
    """
    memo = {}

    def cached(lam, mu=()):
        key = tuple(lam), tuple(mu)
        if key not in memo:
            memo[key] = decompose(lam, mu)
        return dict(memo[key])

    return cached


@_timed
def suite_ot(max_boxes=7):
    """Expansions survive reflection and rotation of the diagram."""
    report = Report("ot")
    decompose = _decompose_memo()
    for lam, mu in basic_pairs_by_boxes(max_boxes):
        base = decompose(lam, mu)
        d = skew_diagram(lam, mu)
        images = [("ot", orthogonal_transpose(d))]
        if len(mu) == len(lam) - 1:
            images += [("t", transpose(d)), ("o", rotate(d))]
        for tag, boxes in images:
            report.checked += 1
            pair = normalize_basic(boxes)
            if decompose(*pair) != base:
                report.failures.append((tag, lam, mu, pair))
    return report


@_timed
def suite_symmetry(max_weight=9):
    """Swapping the inner shape with the content leaves f unchanged."""
    report = Report("symmetry")
    for total in range(1, max_weight + 1):
        for lam in strict_partitions_of(total):
            table = {mu: decompose(lam, mu) for mu in contained_partitions(lam)}
            for mu, terms in table.items():
                for nu, f in terms.items():
                    report.checked += 1
                    if table.get(nu, {}).get(mu, 0) != f:
                        report.failures.append((lam, mu, nu, f))
    return report


def _strip_prefix_terms(terms, nu_prefix):
    """The terms whose content starts with nu_prefix, tail-keyed."""
    k = len(nu_prefix)
    return {delta[k:]: f for delta, f in terms.items()
            if delta[:k] == nu_prefix}


@_timed
def suite_parts(max_boxes=7):
    """The truncation identity and the three insertion inequalities."""
    report = Report("parts")
    decompose = _decompose_memo()
    for lam, mu in basic_pairs_by_boxes(max_boxes):
        base = decompose(lam, mu)
        d = skew_diagram(lam, mu)
        strips = salmasian_strips(lam, mu)
        nu = tuple(len(s) for s in strips)
        factor = 1
        for k in range(2, len(strips) + 2):
            factor *= 2 ** (len(components(strips[k - 2])) - 1)
            u = truncation(lam, mu, k)
            report.checked += 1
            try:
                alpha, beta = normalize_basic(u) if u else ((), ())
            except NotSkew:
                report.failures.append(("parts-shape", lam, mu, k))
                continue
            scaled = {gamma: factor * f
                      for gamma, f in decompose(alpha, beta).items()}
            if scaled != _strip_prefix_terms(base, nu[:k - 1]):
                report.failures.append(("parts", lam, mu, k))
        for a in range(2, len(mu) + 3):
            report.checked += 1
            grown = decompose(*normalize_basic(gamma_right(d, a)))
            if any(f > grown.get(t, 0) for t, f in base.items()):
                report.failures.append(("gamma_right", lam, mu, a))
        for b in range(len(lam), lam[0] + 2):
            report.checked += 1
            grown = decompose(*normalize_basic(gamma_down(d, b)))
            if any(f > grown.get(t, 0) for t, f in base.items()):
                report.failures.append(("gamma_down", lam, mu, b))
        for a in range(1, len(mu) + 2):
            report.checked += 1
            grown = decompose(*add_row(lam, mu, a))
            if any(f > grown.get((t[0] + 1,) + t[1:], 0) for t, f in base.items()):
                report.failures.append(("add_row", lam, mu, a))
        for b in range(len(lam), lam[0] + 2):
            try:
                alpha, beta = add_column(lam, mu, b)
            except EmptyColumn:
                continue
            report.checked += 1
            grown = decompose(alpha, beta)
            if any(f > grown.get((t[0] + 1,) + t[1:], 0) for t, f in base.items()):
                report.failures.append(("add_column", lam, mu, b))
    return report


# Both amenability tests see a tableau only through its k-neighbourhood:
# which boxes hold values below k-1, where the k-1 and k letters sit and
# which are marked, nothing else.  Checking one materialized tableau per
# neighbourhood pattern therefore checks every tableau, all values, all k.
_SMALL, _AM, _A, _BM, _B, _BIG = range(6)

# _CHOICES[left][up]: the states other than _SMALL that a box may take next
# to a left and an upper neighbour in those states (_SMALL where there is
# none): rows and columns weakly increase, and since they have no gaps a
# marked k-1 or k repeats in a row, or an unmarked one in a column, only
# next to itself.
_CHOICES = [[tuple(s for s in range(max(left, up, _AM), _BIG + 1)
                   if not (s in (_AM, _BM) and s == left)
                   and not (s in (_A, _B) and s == up))
             for up in range(_BIG + 1)] for left in range(_BIG + 1)]


def _reading_boxes(rows):
    """The boxes of the shape in reading order: rows bottom to top, each
    left to right."""
    return [(x, y) for x, (lo, hi) in reversed(list(enumerate(rows, 1)))
            for y in range(lo, hi + 1)]


def _neighbourhood_patterns(rows):
    """All six-state box labelings that some tableau induces at some k,
    each materialized as the letter codes of one tableau.

    Yields (codes, k) with codes one live list, indexed like
    _reading_boxes(rows) and mutated between yields: consume it at once.
    The boxes below k-1 (_SMALL) are chosen first, as an order ideal; they
    fix k and get values by their diagonal depth, marked when the box below
    has the same value.  The other boxes then get k-1, k or a fresh larger
    unmarked value each, in row-major order, so each code is written once
    as the pattern recurses.
    """
    boxes = _reading_boxes(rows)
    n = len(boxes)
    where = {b: p for p, b in enumerate(boxes)}
    order = [where[b] for b in sorted(boxes)]  # row-major: neighbours first
    # position n stands for a box outside the shape
    left = [where.get((x, y - 1), n) for x, y in boxes]
    up = [where.get((x - 1, y), n) for x, y in boxes]
    up_left = [where.get((x - 1, y - 1), n) for x, y in boxes]
    down = [where.get((x + 1, y), n) for x, y in boxes]
    state = [_SMALL] * (n + 1)
    codes = [0] * n

    def fill(j, big):
        # rest, base and out belong to the current ideal: the positions to
        # fill, the code of each state other than _BIG, what to yield
        p = rest[j]
        choices = _CHOICES[state[left[p]]][state[up[p]]]
        if j + 1 == len(rest):  # no later box reads this one's state
            for s in choices:
                codes[p] = big + 2 if s == _BIG else base[s]
                yield out
            return
        for s in choices:
            state[p] = s
            if s == _BIG:
                codes[p] = big + 2
                yield from fill(j + 1, big + 2)
            else:
                codes[p] = base[s]
                yield from fill(j + 1, big)

    def small_ideals(j, small):
        # every set of _SMALL boxes closed under left and upper neighbours
        if j == n:
            yield small
            return
        p = order[j]
        if (left[p] == n or left[p] in small) and (up[p] == n or up[p] in small):
            yield from small_ideals(j + 1, small | {p})
        yield from small_ideals(j + 1, small)

    for small in small_ideals(0, frozenset()):
        depth = [0] * (n + 1)
        for p in order:
            if p in small:
                depth[p] = depth[up_left[p]] + 1
        for p in small:
            state[p] = _SMALL  # it may hold a state from an earlier ideal
            codes[p] = 2 * depth[p] - (depth[down[p]] == depth[p])
        k = max(depth) + 2
        rest = [p for p in order if p not in small]
        out = codes, k
        if not rest:
            yield out
            continue
        base = (None, 2 * k - 3, 2 * k - 2, 2 * k - 1, 2 * k, None)
        yield from fill(0, 2 * k)


def _pattern_of(boxes, codes, k):
    """The labeling {box: state} that the codes of one pattern stand for."""
    def state(c):
        if c > 2 * k:
            return _BIG
        return max(_SMALL, c - 2 * k + 4)
    return {b: state(c) for b, c in zip(boxes, codes)}


@_timed
def suite_checklist(max_boxes=7, exhaustive_boxes=4):
    """The box-counting test matches the word scan on every tableau."""
    report = Report("checklist")
    checked = 0
    for lam, mu in basic_pairs_by_boxes(max_boxes):
        rows = basic_rows(lam, mu)
        boxes = _reading_boxes(rows)
        for codes, k in _neighbourhood_patterns(rows):
            checked += 1
            t = Tableau(zip(boxes, codes), check=checked % 97 == 0)
            word = tuple(codes)
            if is_k_amenable_checklist(t, k) != is_k_amenable_word(word, k):
                pattern = _pattern_of(boxes, codes, k)
                report.failures.append((lam, mu, sorted(pattern.items()), k))
    for lam, mu in basic_pairs_by_boxes(exhaustive_boxes):
        for t in enumerate_tableaux(lam, mu):
            word = reading_word(t)
            for k in range(2, sum(lam) - sum(mu) + 2):
                checked += 1
                if is_k_amenable_checklist(t, k) != is_k_amenable_word(word, k):
                    report.failures.append((lam, mu, word, k))
    report.checked = checked
    return report


@_timed
def suite_rowstrip(max_weight=10, staircase_weight=15):
    """Border-strip formulas against enumeration, staircases included."""
    report = Report("rowstrip")
    for total in range(1, max_weight + 1):
        for lam in strict_partitions_of(total):
            for n in range(1, lam[0] + 1):
                report.checked += 1
                if decompose_row_strip(lam, n) != decompose(lam, (n,)):
                    report.failures.append(("rowstrip", lam, n))
    ell = 1
    while ell * (ell + 1) // 2 <= staircase_weight:
        lam = tuple(range(ell, 0, -1))
        for mask in range(2 ** ell):
            mu = tuple(p for i, p in enumerate(lam) if mask >> i & 1)
            rest = tuple(p for i, p in enumerate(lam) if not mask >> i & 1)
            report.checked += 1
            expected = {rest: 1} if rest else {(): 1}
            if decompose(lam, mu) != expected:
                report.failures.append(("staircase", lam, mu))
        ell += 1
    return report


@_timed
def suite_theorem(max_total=12, processes=None):
    """The case list against brute force over every basic shape."""
    if processes is None:
        processes = threads_from_env()
    inner = verify_theorem(max_total, processes=processes)
    report = Report("theorem")
    report.checked = inner.checked
    report.failures = list(inner.discrepancies)
    report.case_counts = inner.case_counts
    return report


SUITES = {
    "ot": suite_ot,
    "symmetry": suite_symmetry,
    "parts": suite_parts,
    "checklist": suite_checklist,
    "rowstrip": suite_rowstrip,
    "theorem": suite_theorem,
}

DEFAULT_SIZES = {
    "ot": 7,
    "symmetry": 9,
    "parts": 7,
    "checklist": 7,
    "rowstrip": 10,
    "theorem": 12,
}


def run_suite(name, max_size=None):
    """Run one named suite at its default or the given size."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    size = DEFAULT_SIZES[name] if max_size is None else max_size
    return SUITES[name](size)
