"""End-to-end runs of the command line front end."""

import json

import pytest

from schurq.cli import main
from schurq.coefficients import expansion_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--lambda", "4,2", "--mu", "2")
    assert code == 0
    assert out == "Q[4] + 2 Q[3,1]\n"


def test_decompose_json_round_trip(capsys):
    code, out, _ = run(capsys, "decompose", "--lambda", "4,2", "--mu", "2",
                       "--json")
    assert code == 0
    lam, mu, terms = expansion_from_json(json.loads(out))
    assert (lam, mu) == ((4, 2), (2,))
    assert terms == {(4,): 1, (3, 1): 2}


def test_decompose_not_contained_is_zero(capsys):
    code, out, _ = run(capsys, "decompose", "--lambda", "3,1", "--mu", "4")
    assert code == 0
    assert out == "Q = 0\n"


def test_decompose_normalize_notes_new_shape(capsys):
    code, out, err = run(capsys, "decompose", "--lambda", "4,2,1", "--mu", "4",
                         "--normalize")
    assert code == 0
    assert out == "Q[2,1]\n"
    assert "normalized 4,2,1/4 to 2,1/-" in err


def test_decompose_empty_mu_default(capsys):
    code, out, _ = run(capsys, "decompose", "--lambda", "3,1")
    assert code == 0
    assert out == "Q[3,1]\n"


def test_coeff(capsys):
    code, out, _ = run(capsys, "coeff", "--lambda", "4,2", "--mu", "2",
                       "--nu", "3,1")
    assert code == 0
    assert out == "2\n"


def test_classify_free_shape(capsys):
    code, out, _ = run(capsys, "classify", "--lambda", "9,8,7,3,2,1",
                       "--mu", "3,2,1")
    assert code == 0
    assert out == "multiplicity_free: true, cases: v\n"


def test_classify_with_witness(capsys):
    code, out, _ = run(capsys, "classify", "--lambda", "4,2", "--mu", "2")
    assert code == 0
    assert out == ("multiplicity_free: false, cases: none, "
                   "witness: Q[3,1] x 2\n")


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--lambda", "4,2", "--mu", "2",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicity_free"] is False
    assert doc["cases"] == []
    assert doc["witness"] == {"nu": [3, 1], "coeff": 2}


def test_classify_equal_shapes(capsys):
    code, out, _ = run(capsys, "classify", "--lambda", "3,1", "--mu", "3,1")
    assert code == 0
    assert out == "multiplicity_free: true, cases: (empty shape)\n"


def test_classify_normalizes_first(capsys):
    code, out, err = run(capsys, "classify", "--lambda", "4,2,1", "--mu", "4")
    assert code == 0
    assert "normalized" in err
    assert out == "multiplicity_free: true, cases: i, ii\n"


def test_render(capsys):
    code, out, _ = run(capsys, "render", "--lambda", "4,2", "--mu", "2")
    assert code == 0
    assert out == "××..\n ..\n"


def test_render_not_contained_fails(capsys):
    code, _, err = run(capsys, "render", "--lambda", "3,1", "--mu", "4")
    assert code == 2
    assert "error:" in err


def test_tableaux_content_filter(capsys):
    code, out, err = run(capsys, "tableaux", "--lambda", "4,2", "--mu", "2",
                         "--content", "3,1")
    assert code == 0
    assert "2 tableaux" in err
    # two blocks separated by a blank line
    assert len(out.strip().split("\n\n")) == 2


def test_tableaux_limit(capsys):
    code, out, err = run(capsys, "tableaux", "--lambda", "4,2", "--mu", "2",
                         "--amenable-only", "--limit", "1")
    assert code == 0
    assert "stopped at 1 tableaux" in err
    assert len(out.strip().split("\n\n")) == 1


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ot", "--max-size", "4")
    assert code == 0
    assert out.startswith("suite ot:")
    assert "0 failures" in out


def test_verify_theorem_prints_case_counts(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem")
    assert code == 0
    assert out.startswith("suite theorem: 393 checked, 0 failures")
    assert out.splitlines()[1] == "  cases: i 126, ii 26, iii 4, iv 24, v 36, vi 36"


def test_huge_shape_exits_2_without_traceback(capsys, monkeypatch):
    from schurq import _kernel_py, coefficients

    monkeypatch.setattr(coefficients, "kernel", _kernel_py)
    code, out, err = run(capsys, "decompose", "--lambda", "1200")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "1200 boxes" in err


def test_sweep_text(capsys):
    code, out, err = run(capsys, "sweep", "--max-size", "5")
    assert code == 0
    assert "4,1/1: free (i, v)" in out
    assert "4,1/2: not free (-)" in out
    assert "shapes" in err


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--max-size", "5", "--json")
    assert code == 0
    rows = json.loads(out)
    verdicts = {(tuple(r["lambda"]), tuple(r["mu"])): r["multiplicity_free"]
                for r in rows}
    assert verdicts[(4, 1), (1,)] is True
    assert verdicts[(4, 1), (2,)] is False
    assert {lam for lam, _ in verdicts} >= {(3,), (4, 1), (5,)}


def test_bad_partition_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--lambda", "2,2"])
    assert exc.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
