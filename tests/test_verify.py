"""The verify suites' fast paths against the code they replaced."""

import naive
from helpers import naive_tableaux
from schurq import tableaux as T
from schurq import verify
from schurq.coefficients import basic_rows
from schurq.partitions import basic_pairs_by_boxes, skew_diagram, strip_last_box


def test_checklist_rewrite_matches_replaced_code():
    # the same patterns, each materialized into the same tableau, k and word
    for lam, mu in basic_pairs_by_boxes(5):
        rows = basic_rows(lam, mu)
        row_major = [(x, y) for x, (lo, hi) in enumerate(rows, 1)
                     for y in range(lo, hi + 1)]
        expected = {}
        for pattern in naive.neighbourhood_patterns(rows):
            t, k, word = naive.materialize(pattern, row_major)
            expected[frozenset(pattern.items())] = t, k, word
        boxes = verify._reading_boxes(rows)
        got = {}
        for codes, k in verify._neighbourhood_patterns(rows):
            pattern = frozenset(verify._pattern_of(boxes, codes, k).items())
            assert pattern not in got, (lam, mu, codes)
            got[pattern] = T.Tableau(zip(boxes, codes)), k, tuple(codes)
        assert got == expected, (lam, mu)

    # the last box of every value strip, without components()
    for lam, mu in basic_pairs_by_boxes(4):
        shape = skew_diagram(lam, mu)
        for t in naive_tableaux(shape, max_value=len(shape)):
            for i in {T.letter_value(c) for c in t.entries.values()}:
                strip = naive.tvalue_boxes(t, i)
                assert T._strip_end(strip) == strip_last_box(strip), (t, i)
                assert T.fitting(t, i) == naive.fitting(t, i), (t, i)

    report = verify.suite_checklist(4, 3)
    assert report.failures == []
    assert report.checked == 15704


def test_suite_decompose_memo_keys_shapes_as_passed(monkeypatch):
    calls = []
    real = verify.decompose
    monkeypatch.setattr(verify, "decompose",
                        lambda lam, mu=(): calls.append((lam, mu)) or real(lam, mu))
    decompose = verify._decompose_memo()
    first = decompose((4, 2), (2,))
    first[(4,)] = 99
    assert decompose((4, 2), (2,)) == {(4,): 1, (3, 1): 2}
    # (4, 3, 1)/(3, 1) is the orthogonal transpose of (4, 2)/(2): its own key
    assert decompose((4, 3, 1), (3, 1)) == {(4,): 1, (3, 1): 2}
    assert decompose((4, 2), (2,)) == {(4,): 1, (3, 1): 2}
    assert calls == [((4, 2), (2,)), ((4, 3, 1), (3, 1))]


def test_memoized_suites_keep_their_counts():
    assert verify.suite_ot(6).checked == 1250
    report = verify.suite_parts(5)
    assert report.failures == []
    assert report.checked == 2135
