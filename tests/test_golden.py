"""The CLI's outputs match the committed golden corpus (tests/golden.py
regenerates it): labels, counts, flags and exit codes exactly, numbers to
1e-13 * max(1, max|v|)."""

import json

import pytest

from golden import CORPUS, cases, compare, run


def _corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_case():
    assert [(c["name"], c["argv"]) for c in _corpus()] == cases()


def test_cli_outputs_match_the_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the missing and unwritable paths are relative
    moved = [f"{case['name']} ({' '.join(case['argv'])}): {line}"
             for case in _corpus() for line in compare(case, run(case["argv"]))]
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("edit, expect", [
    (lambda out: out.replace("0.25", "0.2500000000002", 1), "0.25 -> 0.2500000000002"),
    (lambda out: out.replace("0.25", "0.2500000000001", 1), None),  # within 1e-13
    (lambda out: out.replace("k=+1", "k=+2", 1), "text changed"),
    (lambda out: out, None),
    # Python 3.12's argparse wording: the choices unquoted
    (lambda out: out.replace("'csv', 'json'", "csv, json"), None),
    (lambda out: out.replace("'xml'", "xml"), "text changed"),
], ids=["number-moved", "number-within-tolerance", "label-changed", "unchanged",
        "choices-unquoted", "quotes-dropped-outside-choices"])
def test_compare_reports_what_moved(edit, expect):
    case = {"exit": 0, "stdout": "band k=+1: [0.25, 1.5e-3]\n"
            "invalid choice: 'xml' (choose from 'csv', 'json')\n", "stderr": "",
            "scale": 1.0}
    rerun = {**case, "stdout": edit(case["stdout"])}
    moved = compare(case, rerun)
    if expect is None:
        assert moved == []
        assert compare(case, {**case, "exit": 2}) == ["exit code 0 -> 2"]
    else:
        assert len(moved) == 1 and expect in moved[0]
