import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdot.corpus import CORPUS_SCRIPTS, corpus
from boxdot.formulas import (
    Atom,
    AttainKnow,
    CapacityError,
    Implies,
    Know,
    Not,
    ParseError,
    parse,
    subformulas,
    substitute,
)
from boxdot.proofs import (
    SCHEMAS,
    AttNec,
    Axiom,
    Derivation,
    GenerationError,
    Hypothesis,
    ModusPonens,
    ProofScriptError,
    ProofStep,
    Taut,
    check_derivation,
    format_derivation,
    is_tautology,
    match_schema,
    parse_proof_script,
    random_theorem,
)

from helpers import brute_force_tautology, mutate_derivation, random_core_formula

p = Atom("p")


class TestMatchSchema:
    def test_truth_instance(self):
        assert match_schema(parse("[]p -> p"), "truth") == {"phi": p}

    def test_dist_instance(self):
        f = parse("[](p -> []q) -> ([]p -> [][]q)")
        assert match_schema(f, "dist") == {"phi": p, "psi": Know(Atom("q"))}

    def test_not_an_instance(self):
        assert match_schema(parse("[]p -> []q"), "truth") is None

    def test_repeated_metavariable_must_agree(self):
        assert match_schema(parse("[.]p -> [.]([.]q)"), "att-pos-intro") is None
        assert match_schema(parse("[.]p -> [.]([.]p)"), "att-pos-intro") == {"phi": p}

    def test_every_schema_matches_own_instances(self):
        rng = random.Random(7)
        for _ in range(1000):
            name = rng.choice(tuple(SCHEMAS))
            subst = {"phi": random_core_formula(rng, 3),
                     "psi": random_core_formula(rng, 3)}
            instance = substitute(SCHEMAS[name], subst)
            found = match_schema(instance, name)
            assert found is not None
            assert substitute(SCHEMAS[name], found) == instance


class TestIsTautology:
    @pytest.mark.parametrize("text,expected", [
        ("p -> p", True),
        ("[]p -> p", False),
        ("(!p -> q) -> (!q -> p)", True),
        ("p -> (q -> p)", True),
        ("p -> q", False),
        ("[]p -> []p", True),
        ("([]p -> p) | !([]p -> p)", True),
    ])
    def test_examples(self, text, expected):
        assert is_tautology(parse(text)) is expected

    def test_modal_subformulas_are_opaque(self):
        # truth of []p is independent of p once [] is opaque
        assert not is_tautology(parse("p -> []p"))
        assert not is_tautology(parse("[](p -> p)"))

    def test_capacity(self):
        big = " -> ".join(f"x{i}" for i in range(22))
        with pytest.raises(CapacityError):
            is_tautology(parse(big))

    def test_cap_boundary(self):
        assert is_tautology(_chain(20)) is True
        assert is_tautology(_chain(20, broken=7)) is False
        with pytest.raises(CapacityError, match="21 opaque letters exceeds the cap of 20"):
            is_tautology(_chain(21))

    @pytest.mark.parametrize("n", [14, 16])
    def test_chains_agree_with_brute_force(self, n):
        assert is_tautology(_chain(n)) is brute_force_tautology(_chain(n)) is True
        for i in range(n - 1):
            broken = _chain(n, broken=i)
            assert is_tautology(broken) is brute_force_tautology(broken) is False

    def test_peak_memory_bounded_by_letters_and_height(self):
        # one 128 KB column per composite node would need far more than 16 MB
        letters = [Atom(f"x{i}") for i in range(20)]
        rng = random.Random(3)

        def tree(depth):
            if depth == 0:
                return rng.choice(letters)
            sub = Implies(tree(depth - 1), tree(depth - 1))
            return Not(sub) if rng.random() < 0.3 else sub

        body = tree(9)
        for _ in range(80):
            body = Not(body)
        f = Implies(body, Implies(letters[0], letters[0]))
        composite = {g for g in subformulas(f) if not isinstance(g, Atom)}
        assert len(composite) >= 300 and _height(f) <= 100
        tracemalloc.start()
        try:
            assert is_tautology(f) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2**32))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        f = random_core_formula(rng, 3, atoms=("p", "q"))
        assert is_tautology(f) == brute_force_tautology(f)


def _chain(n, broken=None):
    """(x{n-2} -> x{n-1}) -> ... -> (x0 -> x1) -> (x0 -> x{n-1}), a tautology
    over n letters; ``broken=i`` makes link i point back to x0, which breaks
    the chain and leaves a non-tautology."""
    xs = [Atom(f"x{i}") for i in range(n)]
    f = Implies(xs[0], xs[-1])
    for i in range(n - 1):
        f = Implies(Implies(xs[i], xs[0] if i == broken else xs[i + 1]), f)
    return f


def _height(f):
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Implies):
        return 1 + max(_height(f.left), _height(f.right))
    return 1 + _height(f.child)


class TestCheckDerivation:
    def test_box_necessitation_from_theorem(self):
        d = parse_proof_script(
            "1: []p -> p ; ax truth\n"
            "2: [.]([]p -> p) ; anec 1\n"
            "3: [.]([]p -> p) -> []([]p -> p) ; ax mono\n"
            "4: []([]p -> p) ; mp 2 3\n")
        report = check_derivation(d)
        assert report.accepted and report.conclusion_is_theorem
        assert report.conclusion == parse("[]([]p -> p)")

    def test_hypothesis_derivation_is_not_a_theorem(self):
        d = parse_proof_script(
            "hyp 1: []p\n"
            "1: []p ; hyp 1\n"
            "2: []p -> p ; ax truth\n"
            "3: p ; mp 1 2\n")
        report = check_derivation(d)
        assert report.accepted
        assert report.conclusion == p
        assert not report.conclusion_is_theorem

    def test_anec_on_impure_premise_rejected(self):
        d = parse_proof_script(
            "hyp 1: p\n"
            "1: p ; hyp 1\n"
            "2: [.]p ; anec 1\n")
        report = check_derivation(d)
        assert not report.accepted
        step, reason = report.first_error
        assert step == 1  # step 2 in script numbering
        assert "hypotheses" in reason

    def test_forward_reference_rejected(self):
        d = Derivation((), (ProofStep(p, ModusPonens(0, 1)),))
        report = check_derivation(d)
        assert not report.accepted
        assert "earlier" in report.first_error[1]

    def test_out_of_range_hypothesis_rejected(self):
        d = Derivation((), (ProofStep(p, Hypothesis(0)),))
        report = check_derivation(d)
        assert not report.accepted
        assert "out of range" in report.first_error[1]

    def test_wrong_mp_shape_rejected(self):
        d = parse_proof_script(
            "1: p -> (q -> p) ; taut\n"
            "2: q ; mp 1 1\n")
        report = check_derivation(d)
        assert not report.accepted and report.first_error[0] == 1

    def test_empty_derivation_rejected(self):
        report = check_derivation(Derivation((), ()))
        assert not report.accepted

    def test_non_tautology_rejected(self):
        d = Derivation((), (ProofStep(parse("p -> q"), Taut()),))
        assert not check_derivation(d).accepted

    def test_wrong_axiom_instance_rejected(self):
        d = Derivation((), (ProofStep(parse("[]p -> q"), Axiom("truth")),))
        report = check_derivation(d)
        assert not report.accepted
        assert "truth" in report.first_error[1]


class TestCorpus:
    def test_all_accepted_pure(self):
        for name, d in corpus().items():
            report = check_derivation(d)
            assert report.accepted, (name, report.first_error)
            assert report.conclusion_is_theorem, name

    @pytest.mark.parametrize("name,conclusion", [
        ("lemma1", "[]p -> [][]p"),
        ("lemma2", "![.]p -> []![.]p"),
        ("att-truth", "[.]p -> p"),
        ("box-nec", "[]([]p -> p)"),
    ])
    def test_conclusions(self, name, conclusion):
        assert corpus()[name].conclusion == parse(conclusion)

    def test_mutations_mostly_rejected(self):
        rng = random.Random(11)
        rejected = total = 0
        for d in corpus().values():
            for _ in range(25):
                total += 1
                if not check_derivation(mutate_derivation(d, rng)).accepted:
                    rejected += 1
        assert rejected / total >= 0.95

    def test_purity_monotone(self):
        for d in corpus().values():
            assert_purity_monotone(d)
        mixed = parse_proof_script(
            "hyp 1: q\n"
            "1: []p -> p ; ax truth\n"
            "2: q ; hyp 1\n"
            "3: [.]([]p -> p) ; anec 1\n"
            "4: q -> (([]p -> p) -> q) ; taut\n"
            "5: ([]p -> p) -> q ; mp 2 4\n")
        assert check_derivation(mixed).accepted
        assert_purity_monotone(mixed)


def assert_purity_monotone(d):
    report = check_derivation(d)
    assert report.accepted
    pure = []
    for step in d.steps:
        j = step.justification
        if isinstance(j, (Taut, Axiom)):
            pure.append(True)
        elif isinstance(j, Hypothesis):
            pure.append(False)
        elif isinstance(j, ModusPonens):
            pure.append(pure[j.i] and pure[j.j])
        else:
            pure.append(pure[j.i])
    for idx, step in enumerate(d.steps):
        if not pure[idx]:
            continue
        j = step.justification
        refs = []
        if isinstance(j, ModusPonens):
            refs = [j.i, j.j]
        elif isinstance(j, AttNec):
            refs = [j.i]
        for r in refs:
            assert pure[r], f"pure step {idx} has impure ancestor {r}"


class TestScripts:
    def test_round_trip_through_format(self):
        for d in corpus().values():
            assert parse_proof_script(format_derivation(d)) == d

    def test_hypotheses_after_steps_rejected(self):
        with pytest.raises(ProofScriptError, match="precede"):
            parse_proof_script("1: p -> p ; taut\nhyp 1: p\n")

    def test_misnumbered_step_rejected(self):
        with pytest.raises(ProofScriptError, match="expected step 1"):
            parse_proof_script("2: p -> p ; taut\n")

    def test_unknown_justification_rejected(self):
        with pytest.raises(ProofScriptError, match="justification"):
            parse_proof_script("1: p -> p ; because\n")

    def test_unknown_schema_rejected(self):
        with pytest.raises(ProofScriptError, match="schema"):
            parse_proof_script("1: p -> p ; ax bogus\n")

    def test_comments_and_blank_lines_ignored(self):
        d = parse_proof_script("# header\n\n1: p -> p ; taut  # inline\n")
        assert check_derivation(d).accepted

    @pytest.mark.parametrize("text,line,column,message", [
        ("1: p -> p ; taut\n2: q -> $ ; taut\n", 2, 9, "unexpected character '$'"),
        ("hyp 1:  (p ->\n1: p ; hyp 1\n", 1, 14, "expected an atom"),
        ("  # c\n   1: p -> ; taut # x\n", 2, 11, "found end of input"),
        ("\t1: [p] ; taut\n", 1, 5, "unbalanced '['"),
        ("1: p q ; taut\n", 1, 6, "unexpected trailing input 'q'"),
    ])
    def test_formula_errors_sit_at_their_script_position(self, text, line, column, message):
        # line and column of the script line, leading whitespace counted
        with pytest.raises(ParseError) as info:
            parse_proof_script(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert message in str(info.value)
        assert str(info.value).startswith(f"{line}:{column}: ")


class TestRandomTheorem:
    def test_single_step(self):
        d, conclusion = random_theorem(1, 1)
        report = check_derivation(d)
        assert report.accepted and report.conclusion_is_theorem
        assert report.conclusion == conclusion
        assert len(d.steps) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 12))
    def test_always_accepted_theorems(self, seed, max_steps):
        try:
            d, conclusion = random_theorem(seed, max_steps)
        except GenerationError:
            pytest.skip("rare generation failure; regenerate with next seed")
        report = check_derivation(d)
        assert report.accepted, report.first_error
        assert report.conclusion_is_theorem
        assert report.conclusion == conclusion
        assert not d.hypotheses
        assert_purity_monotone(d)

    def test_deterministic(self):
        assert random_theorem(99, 8) == random_theorem(99, 8)

    def test_requires_positive_steps(self):
        with pytest.raises(ValueError):
            random_theorem(0, 0)


def test_one_step_schema_derivations_accepted():
    rng = random.Random(5)
    for name in SCHEMAS:
        for _ in range(170):
            subst = {"phi": random_core_formula(rng, 2),
                     "psi": random_core_formula(rng, 2)}
            d = Derivation((), (ProofStep(substitute(SCHEMAS[name], subst),
                                          Axiom(name)),))
            assert check_derivation(d).accepted
