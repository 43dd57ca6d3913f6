"""Seeded inputs of the three workloads.

Nothing here imports schurq: the inputs of a seed are the same on every
commit, whatever the program's own shape enumerators do.  A basic shape
D_{lam/mu} has no empty row and no empty column; for strict partitions that
means l(mu) < l(lam), mu_i < lam_i and mu_i <= lam_{i+1} + 1.
"""

import random

import oracle

# expand: every basic shape with 7 boxes that no closed form covers is
# drawn, about one in two, and every covered one is kept.  500 operations
# per round put ten samples beyond the 98th percentile of one round.
EXPAND_BOXES = 7
EXPAND_UNCOVERED = 454

# query: every basic shape with |lam| <= 16 and at least 8 boxes, 1,281 of
# them, each asked about every candidate content, in a seeded order.  A
# seeded sample of shapes or of three contents per shape moved the tail
# percentile by 11% (quartile spread over median, five seeds).
QUERY_MAX_WEIGHT = 16
QUERY_MIN_BOXES = 8

# checklist: suite_checklist(4, 3), four calls a round, at least 40 a run.
CHECKLIST_SIZES = (4, 3)
CHECKLIST_ROUND = 4

# The tableaux the checklist check feeds to both amenability tests.
SAMPLE_BOXES = (3, 4, 5, 6)
SAMPLE_SHAPES = 40
SAMPLE_PER_SHAPE = 5
SAMPLE_MAX_VALUE = 3


def is_basic(lam, mu):
    if len(mu) >= len(lam):
        return False
    return all(m < lam[i] and m <= lam[i + 1] + 1 for i, m in enumerate(mu))


def basic_shapes(boxes):
    """Every basic (lam, mu) whose skew diagram has exactly this many boxes.

    Built bottom row upward: a row's inner part is 0 until the inner shape
    starts, then strictly grows, and never passes the row below's length + 1.
    """
    found = []

    def grow(rows, used):
        if used == boxes:
            lam = tuple(l for l, _ in reversed(rows))
            mu = tuple(m for _, m in reversed(rows) if m)
            found.append((lam, mu))
            return
        lam_below, mu_below = rows[-1]
        start = mu_below + 1 if mu_below else 0
        for mu_i in range(start, lam_below + 2):
            for width in range(1, boxes - used + 1):
                if mu_i + width > lam_below:
                    grow(rows + [(mu_i + width, mu_i)], used + width)

    for bottom in range(1, boxes + 1):
        grow([(bottom, 0)], bottom)
    return sorted(found)


def contained(lam):
    """Every strict mu with l(mu) < l(lam) and mu_i <= lam_i."""
    found = []

    def grow(acc):
        found.append(tuple(acc))
        i = len(acc)
        if i + 1 >= len(lam):
            return
        top = min(lam[i], acc[-1] - 1 if acc else lam[i])
        for v in range(top, 0, -1):
            grow(acc + [v])

    grow([])
    return found


def basic_shapes_by_weight(max_weight, min_boxes):
    """Basic (lam, mu) with |lam| <= max_weight and at least min_boxes boxes."""
    return sorted((lam, mu)
                  for weight in range(1, max_weight + 1)
                  for lam in oracle.strict_partitions(weight)
                  for mu in contained(lam)
                  if is_basic(lam, mu) and weight - sum(mu) >= min_boxes)


def covered(lam, mu):
    """Whether a closed form of classifier.decompose_special applies.

    Those are mu empty, mu = (1), a one-row mu, and a staircase lam.
    """
    return len(mu) <= 1 or lam == tuple(range(len(lam), 0, -1))


def stratified(rng, population, k):
    """k shapes, one drawn from each of k runs of the population sorted by
    number of rows, then by g^{lam/mu}.

    Together the two follow the cost of enumeration closely (on the 7-box
    shapes log time against log g + rows / 2 correlates at 0.98), so every
    seed draws about the same mix of cheap and dear shapes.
    """
    ranked = sorted(population, key=lambda s: (len(s[0]), oracle.g(*s), s))
    return [rng.choice(ranked[len(ranked) * b // k:len(ranked) * (b + 1) // k])
            for b in range(k)]


def expand_ops(seed):
    """[(lam, mu)] for decompose, in a seeded order."""
    rng = random.Random(seed)
    shapes = basic_shapes(EXPAND_BOXES)
    ops = stratified(rng, [s for s in shapes if not covered(*s)], EXPAND_UNCOVERED)
    ops += [s for s in shapes if covered(*s)]
    rng.shuffle(ops)
    return ops


def query_ops(seed):
    """[(lam, mu, [nu, ...])]: a shape and the candidate contents asked of it.

    Candidates are the strict partitions of the box count with no more
    parts than lam has rows; the seed orders the shapes.
    """
    ops = [(lam, mu, [nu for nu in oracle.strict_partitions(sum(lam) - sum(mu))
                      if len(nu) <= len(lam)])
           for lam, mu in basic_shapes_by_weight(QUERY_MAX_WEIGHT, QUERY_MIN_BOXES)]
    random.Random(seed).shuffle(ops)
    return ops


def checklist_ops(seed):
    """[(max_boxes, exhaustive_boxes)] for one round; the seed does not enter.

    suite_checklist takes sizes only.  The seed picks the tableau sample of
    the check instead (tableau_sample).
    """
    return [CHECKLIST_SIZES] * CHECKLIST_ROUND


def tableau_sample(seed):
    """Seeded tableaux, as dicts box -> letter code, on small basic shapes."""
    rng = random.Random(seed)
    shapes = [s for boxes in SAMPLE_BOXES for s in basic_shapes(boxes)]
    sample = []
    for lam, mu in rng.sample(shapes, SAMPLE_SHAPES):
        every = list(oracle.tableaux(lam, mu, SAMPLE_MAX_VALUE))
        sample += rng.sample(every, min(SAMPLE_PER_SHAPE, len(every)))
    return sample


OPS = {"expand": expand_ops, "query": query_ops, "checklist": checklist_ops}
