import io
import json
import os
import random
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdot.cli import cli
from boxdot.corpus import CORPUS_SCRIPTS

from helpers import formula_texts


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_canonical_form(self, capsys):
        code, out, _ = run(capsys, "parse", "[.]p -> []p")
        assert code == 0
        assert out.strip() == "(([.]p) -> ([]p))"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "parse", "--json", "p & q")
        assert code == 0
        assert json.loads(out) == {"formula": "(!(p -> (!q)))"}

    def test_bad_formula_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "p ->")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text", ["(" * 600 + "p" + ")" * 600, " & ".join(["p"] * 2000)])
    def test_deep_nesting_is_usage_error(self, capsys, text):
        code, out, err = run(capsys, "parse", text)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "nests deeper" in err


    def test_tree_past_the_size_bound_is_usage_error(self, capsys):
        text = "p"
        for _ in range(16):
            text = f"({text} <-> p)"
        code, out, err = run(capsys, "parse", text)
        assert code == 2 and out == ""
        assert err.startswith("error: 1:1: formula has 524281 nodes once")


class TestCheckProof:
    def test_accepted(self, capsys, tmp_path):
        script = tmp_path / "lemma1.proof"
        script.write_text(CORPUS_SCRIPTS["lemma1"])
        code, out, _ = run(capsys, "check-proof", str(script))
        assert code == 0 and "accepted" in out

    def test_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.proof"
        bad.write_text("1: []p -> q ; ax truth\n")
        code, out, _ = run(capsys, "check-proof", str(bad))
        assert code == 1 and "rejected at step 1" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-proof", "no-such-file.proof")
        assert code == 2 and "error" in err

    def test_malformed_script(self, capsys, tmp_path):
        bad = tmp_path / "bad.proof"
        bad.write_text("1: p -> p ; wat\n")
        code, _, err = run(capsys, "check-proof", str(bad))
        assert code == 2

    def test_formula_error_names_its_script_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.proof"
        bad.write_text("1: p -> p ; taut\n2: q -> $ ; taut\n")
        code, out, err = run(capsys, "check-proof", str(bad))
        assert (code, out, err) == (2, "", "error: 2:9: unexpected character '$'\n")

    def test_tautology_past_letter_cap(self, capsys, tmp_path):
        chain = " -> ".join(f"a{i}" for i in range(21))
        big = tmp_path / "big.proof"
        big.write_text(f"1: {chain} -> a0 ; taut\n")
        code, _, err = run(capsys, "check-proof", str(big))
        assert code == 2 and err.startswith("error: ") and "cap" in err

    def test_json_report(self, capsys, tmp_path):
        good = tmp_path / "ok.proof"
        good.write_text("hyp 1: []p\n1: []p ; hyp 1\n2: []p -> p ; ax truth\n3: p ; mp 1 2\n")
        code, out, _ = run(capsys, "check-proof", "--json", str(good))
        doc = json.loads(out)
        assert code == 0
        assert doc["accepted"] is True
        assert doc["theorem"] is False
        assert doc["conclusion"] == "p"


JUSTIFICATIONS = ("taut", "ax truth", "mp 1 2", "anec 1", "hyp 1", "wat")


@settings(max_examples=300, deadline=None)
@given(text=formula_texts(), lines=st.lists(
    st.tuples(st.sampled_from(("hyp 1: ", "1: ", "2: ", " 3:")), formula_texts(),
              st.sampled_from(JUSTIFICATIONS)), max_size=4))
def test_formula_text_never_raises_out_of_the_cli(text, lines):
    # an IndexError on a malformed tail, or any other exception, would
    # escape cli() as a traceback instead of an exit code
    script = "".join(f"{head}{formula} ; {just}\n" for head, formula, just in lines)
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        path = os.path.join(tmp, "s.proof")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(script)
        assert cli(["parse", text]) in (0, 1, 2)
        assert cli(["check-proof", path]) in (0, 1, 2)


class TestModelChecking:
    MODEL = "docs/model-example.json"

    def test_mc_true(self, capsys):
        code, out, _ = run(capsys, "mc", self.MODEL, "w1", "p")
        assert code == 0 and "true" in out

    def test_mc_false(self, capsys):
        code, out, _ = run(capsys, "mc", self.MODEL, "w1", "[]p")
        assert code == 1 and "false" in out

    def test_mc_unknown_world(self, capsys):
        code, _, err = run(capsys, "mc", self.MODEL, "w9", "p")
        assert code == 2

    def test_mc_valid(self, capsys):
        code, out, _ = run(capsys, "mc-valid", self.MODEL, "p -> p")
        assert code == 0 and "valid" in out

    def test_mc_not_valid(self, capsys):
        code, out, _ = run(capsys, "mc-valid", "--json", self.MODEL, "p")
        assert code == 1
        assert json.loads(out)["extension"] == ["w1"]

    def test_invalid_model_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"worlds": ["w1"], "evidence": {"e": [[]]}, "valuation": {}}')
        code, _, err = run(capsys, "mc", str(bad), "w1", "p")
        assert code == 2 and "invalid model" in err

    def test_ill_typed_model_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"worlds": "ab", "evidence": {}, "valuation": {}}')
        code, _, err = run(capsys, "mc", str(bad), "a", "p")
        assert code == 2 and "worlds" in err

    def test_forty_pieces_of_evidence(self, capsys, tmp_path):
        # 40 pieces, each splitting six cells of worlds ({w0}..{w3}, {w4, w5},
        # {w6, w7}) in two; enumerating the evidence subsets would take 2^40
        # steps
        worlds = [f"w{i}" for i in range(8)]
        cells = [["w0"], ["w1"], ["w2"], ["w3"], ["w4", "w5"], ["w6", "w7"]]
        evidence = {}
        for k in range(1, 41):
            evidence[f"e{k}"] = [sum((c for i, c in enumerate(cells) if k >> i & 1), []),
                                 sum((c for i, c in enumerate(cells) if not k >> i & 1), [])]
        model = tmp_path / "forty.json"
        model.write_text(json.dumps({"worlds": worlds, "evidence": evidence,
                                     "valuation": {"p": ["w0", "w4", "w6", "w7"]}}))
        assert run(capsys, "mc", str(model), "w0", "[.]p")[0] == 0
        assert run(capsys, "mc", str(model), "w4", "[.]p")[0] == 1
        for body in ("p", "!p", "p -> [.]p", "[.]!p"):
            exts = []
            for op in ("[.]", "[]"):
                code, out, _ = run(capsys, "mc-valid", "--json", str(model), f"{op}({body})")
                assert code in (0, 1)
                exts.append(json.loads(out)["extension"])
            assert exts[0] == exts[1]
        assert exts[0] == ["w1", "w2", "w3"]  # [.]!p


    def test_twelve_worlds_forty_pieces_of_evidence(self, capsys, tmp_path):
        # 40 random two-block pieces give about a thousand [.] classes:
        # milliseconds to find world by world, 2 s by closing partitions
        rng = random.Random(12)
        worlds = [f"w{i}" for i in range(12)]
        evidence = {}
        for k in range(40):
            side = [rng.random() < 0.5 for _ in worlds]
            evidence[f"e{k}"] = [blk for blk in ([w for w, s in zip(worlds, side) if s],
                                                 [w for w, s in zip(worlds, side) if not s]) if blk]
        p = worlds[::3]
        model = tmp_path / "twelve.json"
        model.write_text(json.dumps({"worlds": worlds, "evidence": evidence,
                                     "valuation": {"p": p}}))
        exts, times = [], []
        for op in ("[.]", "[]"):
            start = time.perf_counter()
            code, out, _ = run(capsys, "mc-valid", "--json", str(model), f"{op}p")
            times.append(time.perf_counter() - start)
            assert code == 1
            exts.append(json.loads(out)["extension"])
        assert exts[0] == exts[1] == p
        assert times[0] < 1.0


class TestHotel:
    def test_true_with_witness(self, capsys):
        code, out, _ = run(capsys, "hotel", "--variant", "I",
                           "--world", "default=occupied; 7=vacant",
                           "--json", "[.]exists_vacant")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] is True
        assert doc["witness"] == {"tracked": [7], "fresh_count": 0}

    def test_false(self, capsys):
        code, out, _ = run(capsys, "hotel", "--variant", "I",
                           "--world", "default=occupied", "[.]exists_vacant")
        assert code == 1 and "false" in out

    def test_bad_variant_usage_error(self, capsys):
        code, _, _ = run(capsys, "hotel", "--variant", "III",
                         "--world", "default=occupied", "p")
        assert code == 2

    def test_deep_formula_answers(self, capsys):
        # no bound on modal depth: the vacant room 7 settles every level
        code, out, _ = run(capsys, "hotel", "--variant", "I",
                           "--world", "default=occupied; 7=vacant", "--json",
                           "[.][.][.][.][.][.][.][.]exists_vacant")
        assert code == 0
        assert json.loads(out)["witness"] == {"tracked": [7], "fresh_count": 0}
        code, out, _ = run(capsys, "hotel", "--variant", "I",
                           "--world", "default=occupied", "[.][.][.][.][.]exists_vacant")
        assert code == 1 and "false" in out

    def test_bad_world_literal(self, capsys):
        code, _, err = run(capsys, "hotel", "--variant", "I",
                           "--world", "occupied", "exists_vacant")
        assert code == 2


class TestCounterexamples:
    def test_exit_zero_and_both_reports(self, capsys):
        code, out, _ = run(capsys, "counterexamples")
        assert code == 0
        assert "negative-introspection" in out
        assert "weak-negative-introspection" in out

    def test_json_verdicts(self, capsys):
        code, out, _ = run(capsys, "counterexamples", "--json")
        doc = json.loads(out)
        assert code == 0
        assert [r["verdict"] for r in doc["reports"]] == [False, False]


class TestFuzz:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "5",
                           "--theorems", "40", "--models", "4")
        assert code == 0
        assert "violations=0" in out

    def test_json_byte_identical(self, capsys):
        args = ("fuzz", "--json", "--seed", "5", "--theorems", "40", "--models", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("seed, evaluations", [(0, 85800), (1, 81600), (42, 78900)])
    def test_json_golden(self, capsys, seed, evaluations):
        # pinned from the campaign that evaluated formula by formula through
        # extension_mask and hotel_eval; batch labelling must reproduce it
        code, out, _ = run(capsys, "fuzz", "--json", "--seed", str(seed),
                           "--theorems", "300", "--models", "50")
        assert code == 0
        assert out == (
            "{\n"
            f'  "evaluations": {evaluations},\n'
            '  "first_violation": null,\n'
            '  "models_checked": 50,\n'
            '  "skipped": 0,\n'
            '  "theorems_checked": 300,\n'
            '  "violations": 0\n'
            "}\n")

    def test_usage_error_on_bad_bounds(self, capsys):
        code, _, err = run(capsys, "fuzz", "--seed", "1", "--max-worlds", "99")
        assert code == 2


class TestUnravelSim:
    def test_single_universe(self, capsys):
        code, out, _ = run(capsys, "unravel-sim", "--seed", "3", "--size", "12")
        assert code == 0
        assert "well_founded=true" in out

    def test_json_multiple(self, capsys):
        code, out, _ = run(capsys, "unravel-sim", "--json", "--seed", "3",
                           "--size", "10", "--universes", "3")
        doc = json.loads(out)
        assert code == 0 and len(doc["reports"]) == 3


class TestCorpusCommand:
    def test_all_accepted(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        assert "4/4 accepted" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "corpus", "--json")
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"lemma1", "lemma2", "att-truth", "box-nec"}
        assert all(entry["accepted"] for entry in doc.values())


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
