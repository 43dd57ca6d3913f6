"""Tests of the benchmark's oracle, inputs and answer checks.

    python3 -m pytest perfbench

The oracle is pinned on cases worked by hand.  Each check is shown to pass
the program's real answer and to reject a corrupted copy of it.
"""

import sys
from pathlib import Path

import pytest

import checks
import inputs
import oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import schurq  # noqa: E402


def word(text):
    """'1 2\\' 1' -> letter codes; v' is 2v - 1, v is 2v."""
    return tuple(2 * int(t[:-1]) - 1 if t.endswith("'") else 2 * int(t)
                 for t in text.split())


# --- oracle -----------------------------------------------------------------

def test_g_by_hand():
    # D_{(4,2)/(2)} is two dominoes: (1,3),(1,4) over (2,2),(2,3); the box
    # (1,3) sits above (2,3), which leaves 5 of the 4!/(2!2!) = 6 orders.
    assert oracle.g((4, 2), (2,)) == 5
    assert oracle.g((4,)) == 1
    assert oracle.g((3, 1)) == 2
    assert oracle.g((4, 2), (2,)) == 1 * oracle.g((4,)) + 2 * oracle.g((3, 1))
    # (3,2,1): 1, 2 fill (1,1), (1,2); then (1,3) and (2,2) in either order
    assert oracle.g((3, 2, 1)) == 2
    assert oracle.g((2,), (3,)) == 0
    assert oracle.g((5, 3, 1), (5, 3, 1)) == 1


def test_strict_partitions_by_hand():
    assert oracle.strict_partitions(6) == [(6,), (5, 1), (4, 2), (3, 2, 1)]
    assert oracle.strict_partitions(0) == [()]


@pytest.mark.parametrize("text, k, amenable", [
    ("1", 2, True),
    ("1'", 2, False),       # 4: the first letter of value 1 is marked
    ("1 1'", 2, True),      # the amenable filling of the vertical domino
    ("1' 1'", 2, False),    # 4 again
    ("1 2", 2, False),      # 1: at j = 0 the counts tie and w_2 is 2
    ("2 1", 2, False),      # 2: at j = 3 the counts tie and w_2 is 1
    ("1 1 2'", 2, False),   # 1 at j = 0, and 3: the first 2 is marked
    ("1 1 2", 2, False),    # 1: at j = 0 the counts tie and w_3 is 2
    ("2 1 1", 2, True),
    ("2' 1 1", 2, False),   # 3: the first letter of value 2 is marked
    ("1 1 2", 3, True),     # no 3 at all, and m_2 never ties m_3 at a 2
])
def test_k_amenable_by_hand(text, k, amenable):
    assert oracle.is_k_amenable(word(text), k) is amenable


def test_scan_counts_by_hand():
    # w = 1 2 1': unmarked 1s read right to left, then marked 1's left to right
    assert oracle.scan_counts(word("1 2 1'"), 1) == [0, 0, 0, 1, 1, 1, 2]


def test_oracle_tableaux_by_hand():
    # the vertical domino D_{(2,1)/(1)} with values <= 1: 1' over 1' or 1
    fillings = list(oracle.tableaux((2, 1), (1,), 1))
    assert sorted(oracle.reading_word(t) for t in fillings) == [(1, 1), (2, 1)]


def test_oracle_agrees_with_program_on_short_words():
    codes = range(1, 7)
    words = [()]
    for _ in range(4):
        words = [w + (c,) for w in words for c in codes] + words
    for w in set(words):
        for k in (2, 3, 4):
            assert oracle.is_k_amenable(w, k) == schurq.is_k_amenable_word(w, k), (w, k)


# --- inputs -----------------------------------------------------------------

def test_basic_shapes_match_the_program():
    from schurq.partitions import basic_pairs_by_boxes, basic_pairs_by_weight
    for boxes in range(1, 7):
        assert set(inputs.basic_shapes(boxes)) == {
            p for p in basic_pairs_by_boxes(boxes) if sum(p[0]) - sum(p[1]) == boxes}
    assert set(inputs.basic_shapes_by_weight(12, 1)) == set(basic_pairs_by_weight(12))


def test_inputs_depend_on_the_seed_only():
    assert inputs.expand_ops(3) == inputs.expand_ops(3)
    assert inputs.expand_ops(3) != inputs.expand_ops(4)
    assert inputs.query_ops(3) == inputs.query_ops(3)
    assert inputs.tableau_sample(3) == inputs.tableau_sample(3)
    assert len(inputs.expand_ops(3)) == 500
    assert sum(inputs.covered(*s) for s in inputs.expand_ops(3)) == 46


# --- checks reject corrupted answers ----------------------------------------

def expand_answer(lam, mu):
    return sorted([list(nu), f] for nu, f in schurq.decompose(lam, mu).items())


def test_expand_check():
    lam, mu = (4, 2), (2,)
    good = expand_answer(lam, mu)
    assert good == [[[3, 1], 2], [[4], 1]]
    assert checks.check_expand(lam, mu, good) is None
    off_by_one = [[[3, 1], 1], [[4], 1]]
    assert "sum of f * g^nu" in checks.check_expand(lam, mu, off_by_one)
    assert "not a strict" in checks.check_expand(lam, mu, [[[2, 2], 1]] + good)
    assert "boxes" in checks.check_expand(lam, mu, [[[5], 1]] + good)
    assert "coefficient 0" in checks.check_expand(lam, mu, [[[3, 1], 0], [[4], 1]])


def query_answer(lam, mu, nus):
    verdict = schurq.classify(lam, mu, witness=True)
    return {"free": verdict.multiplicity_free,
            "cases": list(verdict.matched_cases),
            "witness": None if verdict.witness is None else
            [list(verdict.witness[0]), verdict.witness[1]],
            "coeffs": [[list(nu), schurq.coefficient(lam, mu, nu)] for nu in nus]}


def expectation(lam, mu):
    return checks.query_expectation(lam, mu, schurq.coefficient,
                                    schurq.is_multiplicity_free_bruteforce)


def test_query_check_on_a_shape_that_is_not_free():
    lam, mu, nus = (4, 2), (2,), [(3, 1), (4,)]
    expect = expectation(lam, mu)
    good = query_answer(lam, mu, nus)
    assert good["witness"] == [[3, 1], 2]
    assert checks.check_query(expect, good) is None

    off_by_one = dict(good, coeffs=[[[3, 1], 3], [[4], 1]])
    assert "coefficient at (3, 1)" in checks.check_query(expect, off_by_one)
    flipped = dict(good, free=True)
    assert "brute force" in checks.check_query(expect, flipped)
    wrong_count = dict(good, witness=[[3, 1], 3])
    assert "witness" in checks.check_query(expect, wrong_count)
    no_witness = dict(good, witness=None)
    assert "no witness" in checks.check_query(expect, no_witness)


def test_query_check_on_a_free_shape():
    lam, mu, nus = (3, 1), (1,), [(3,), (2, 1)]
    expect = expectation(lam, mu)
    good = query_answer(lam, mu, nus)
    assert good["free"] and checks.check_query(expect, good) is None
    flipped = dict(good, free=False, witness=[[3], 2])
    assert "brute force" in checks.check_query(expect, flipped)


def test_query_expectation_rejects_a_wrong_coefficient_function():
    def off_by_one(lam, mu, nu):
        return schurq.coefficient(lam, mu, nu) + (nu == (3, 1))
    expect = checks.query_expectation((4, 2), (2,), off_by_one,
                                      schurq.is_multiplicity_free_bruteforce)
    good = query_answer((4, 2), (2,), [(4,)])
    assert "g^(lam/mu)" in checks.check_query(expect, good)


def test_checklist_checks():
    assert checks.check_checklist({"checked": 3788, "failures": 0}) is None
    assert "failures" in checks.check_checklist({"checked": 3788, "failures": 1})
    assert "nothing" in checks.check_checklist({"checked": 0, "failures": 0})

    sample = inputs.tableau_sample(1)
    assert checks.check_tableau_sample(sample, schurq.Tableau,
                                       schurq.is_k_amenable_checklist,
                                       schurq.is_k_amenable_word) is None
    target = sample[0]

    def flipped_checklist(t, k):
        flip = t.entries == target and k == 2
        return schurq.is_k_amenable_checklist(t, k) != flip

    def flipped_word(w, k):
        flip = w == oracle.reading_word(target) and k == 2
        return schurq.is_k_amenable_word(w, k) != flip

    assert "is_k_amenable_checklist" in checks.check_tableau_sample(
        sample, schurq.Tableau, flipped_checklist, schurq.is_k_amenable_word)
    assert "is_k_amenable_word" in checks.check_tableau_sample(
        sample, schurq.Tableau, schurq.is_k_amenable_checklist, flipped_word)
