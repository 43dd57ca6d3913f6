"""Answer checks of the three workloads.

Each check returns None for a good answer and a reason otherwise.  Answers
arrive in the plain form the worker reports (lists and numbers), and every
check compares them with a computation made apart from the timed call: the
oracle's g, the program's slower brute force, or the oracle's transcription
of k-amenability.  None compares with a stored copy of earlier output.
"""

import oracle


def _strict(nu):
    return all(p > 0 for p in nu) and all(a > b for a, b in zip(nu, nu[1:]))


def check_expand(lam, mu, terms):
    """decompose's terms [[nu, f], ...]: strict nu of the right size, f >= 1,
    and sum of f * g^nu equal to g^{lam/mu}."""
    boxes = sum(lam) - sum(mu)
    total = 0
    for nu, f in terms:
        nu = tuple(nu)
        if not _strict(nu):
            return f"term {nu} is not a strict partition"
        if sum(nu) != boxes:
            return f"term {nu} has {sum(nu)} boxes, the shape {boxes}"
        if f < 1:
            return f"term {nu} has coefficient {f}"
        total += f * oracle.g(nu)
    want = oracle.g(tuple(lam), tuple(mu))
    if total != want:
        return f"sum of f * g^nu is {total}, g^(lam/mu) is {want}"
    return None


def query_expectation(lam, mu, coefficient, bruteforce):
    """What a query on (lam, mu) must answer, computed once per shape.

    coefficient is asked for every strict nu of the right size, and the
    table must satisfy sum of f * g^nu = g^{lam/mu}.  bruteforce gives the
    verdict by enumeration, apart from the case list classify uses.
    """
    lam, mu = tuple(lam), tuple(mu)
    table = {nu: coefficient(lam, mu, nu)
             for nu in oracle.strict_partitions(sum(lam) - sum(mu))}
    total = sum(f * oracle.g(nu) for nu, f in table.items())
    want = oracle.g(lam, mu)
    problem = None
    if total != want:
        problem = f"sum of coefficient * g^nu is {total}, g^(lam/mu) is {want}"
    return {"table": table, "free": bruteforce(lam, mu), "problem": problem}


def check_query(expect, answer):
    """classify's verdict and witness, and the asked coefficients."""
    if expect["problem"]:
        return expect["problem"]
    table = expect["table"]
    if answer["free"] != expect["free"]:
        return (f"classify says multiplicity-free={answer['free']}, "
                f"brute force says {expect['free']}")
    witness = answer["witness"]
    if answer["free"]:
        if witness is not None:
            return f"witness {witness} on a multiplicity-free shape"
    else:
        if witness is None:
            return "no witness on a shape that is not multiplicity-free"
        nu, f = tuple(witness[0]), witness[1]
        if f < 2:
            return f"witness {nu} has coefficient {f} < 2"
        if f != table.get(nu, 0):
            return f"witness {nu} has coefficient {f}, coefficient() gives {table.get(nu, 0)}"
    for nu, f in answer["coeffs"]:
        if f != table.get(tuple(nu), 0):
            return f"coefficient at {tuple(nu)} is {f}, the checked table has {table.get(tuple(nu), 0)}"
    return None


def check_checklist(answer):
    """suite_checklist's report: something checked, nothing disagreed."""
    if answer["checked"] < 1:
        return "the suite checked nothing"
    if answer["failures"]:
        return f"the suite reports {answer['failures']} failures"
    return None


def check_tableau_sample(sample, make_tableau, checklist_test, word_test):
    """Both of the program's k-amenability tests against the oracle's.

    sample holds dicts box -> letter code; k runs from 2 to one above the
    largest value, where the conditions stop being vacuous.
    """
    for entries in sample:
        word = oracle.reading_word(entries)
        tableau = make_tableau(entries)
        top = max((c + 1) // 2 for c in word)
        for k in range(2, top + 2):
            want = oracle.is_k_amenable(word, k)
            if checklist_test(tableau, k) != want:
                return f"is_k_amenable_checklist at k={k} disagrees with the oracle on {entries}"
            if word_test(word, k) != want:
                return f"is_k_amenable_word at k={k} disagrees with the oracle on {word}"
    return None
