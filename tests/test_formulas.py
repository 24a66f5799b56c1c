import gc
import itertools
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxdot
from boxdot.formulas import (
    Atom,
    AttainKnow,
    Implies,
    Know,
    MAX_NESTING,
    MAX_TREE_SIZE,
    Not,
    ParseError,
    atom_names,
    modal_depth,
    parse,
    subformulas,
    substitute,
)
from helpers import opaque_letters, random_core_formula, skeleton_truth

p, q = Atom("p"), Atom("q")


class TestParse:
    def test_monotonicity_shape(self):
        assert parse("[.]p -> []p") == Implies(AttainKnow(p), Know(p))

    def test_atom(self):
        assert parse("p") == p

    def test_conjunction_desugars(self):
        assert parse("p & q") == Not(Implies(p, Not(q)))

    def test_disjunction_desugars(self):
        assert parse("p | q") == Implies(Not(p), q)

    def test_iff_desugars(self):
        pq, qp = Implies(p, q), Implies(q, p)
        assert parse("p <-> q") == Not(Implies(pq, Not(qp)))

    def test_negation_binds_tighter_than_arrow(self):
        assert parse("!p -> q") == Implies(Not(p), q)

    def test_arrow_right_associative(self):
        assert parse("p -> q -> p") == Implies(p, Implies(q, p))

    def test_and_binds_tighter_than_or(self):
        a = parse("p | q & p")
        assert a == Implies(Not(p), Not(Implies(q, Not(p))))

    def test_modalities_chain(self):
        assert parse("![.]p") == Not(AttainKnow(p))
        assert parse("[][.]p") == Know(AttainKnow(p))

    def test_whitespace_and_comments(self):
        assert parse("p  ->\n # comment\n q") == Implies(p, q)

    @pytest.mark.parametrize("text", ["", "   ", "# only a comment"])
    def test_empty_input(self, text):
        with pytest.raises(ParseError, match="empty input"):
            parse(text)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="expected"):
            parse("(p -> q")

    def test_lone_bracket(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse("[p]")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("p q")

    def test_error_carries_position(self):
        try:
            parse("p ->\n-> q")
        except ParseError as exc:
            assert exc.line == 2 and exc.column == 1
        else:
            pytest.fail("expected ParseError")

    def test_chained_iff_is_rejected(self):
        with pytest.raises(ParseError):
            parse("p <-> q <-> p")


class TestNesting:
    @pytest.mark.parametrize("text", [
        "!" * MAX_NESTING + "p",
        "(" * MAX_NESTING + "p" + ")" * MAX_NESTING,
        "p" + " -> p" * MAX_NESTING,
        " & ".join(["p"] * (MAX_NESTING // 2)),
    ])
    def test_deepest_accepted_formulas_recurse_safely(self, text):
        f = parse(text)
        assert str(f) and hash(f) is not None and modal_depth(f) == 0
        assert substitute(f, {"p": q}) != f

    @pytest.mark.parametrize("text,column", [
        ("!" * 3000 + "p", MAX_NESTING + 1),
        ("(" * 600 + "p" + ")" * 600, MAX_NESTING + 1),
        ("[.]" * 400 + "p", 3 * MAX_NESTING + 1),
        ("p" + " -> p" * 2000, 5 * MAX_NESTING + 3),
    ])
    def test_too_deep_is_a_positioned_parse_error(self, text, column):
        with pytest.raises(ParseError, match="nests deeper") as info:
            parse(text)
        assert (info.value.line, info.value.column) == (1, column)

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_long_chains_are_measured_after_desugaring(self, op):
        # each link of a chain adds two levels to the desugared tree
        parse(f" {op} ".join(["p"] * (MAX_NESTING // 2)))
        with pytest.raises(ParseError, match="desugared"):
            parse(f" {op} ".join(["p"] * (MAX_NESTING // 2 + 2)))


def _nested_iff(levels):
    text = "p"
    for _ in range(levels):
        text = f"({text} <-> p)"
    return text


def _full_implication(height):
    if height == 0:
        return "p"
    half = _full_implication(height - 1)
    return f"({half} -> {half})"


class TestTreeSize:
    def test_nested_iff_below_the_bound_is_counted_exactly(self):
        f = parse(_nested_iff(10))
        assert len(subformulas(f)) == 8185 <= MAX_TREE_SIZE

    @pytest.mark.parametrize("levels,size", [(11, 16377), (12, 32761), (16, 524281)])
    def test_nested_iff_past_the_bound_is_a_parse_error(self, levels, size):
        with pytest.raises(ParseError, match=f"formula has {size} nodes once .* are "
                                             f"desugared, more than {MAX_TREE_SIZE}") as info:
            parse(_nested_iff(levels))
        assert (info.value.line, info.value.column) == (1, 1)

    def test_sugar_is_measured_on_the_tree_it_builds(self):
        # a conjunction of two 8191-node trees; the same tree written
        # without '&' is as large as its text and is not measured
        half = _full_implication(12)
        with pytest.raises(ParseError, match="formula has 16385 nodes"):
            parse(f"{half} & {half}")
        assert len(subformulas(parse(f"!({half} -> !{half})"))) == 16385


class TestPrint:
    def test_know(self):
        assert str(Know(p)) == "([]p)"

    def test_right_association_explicit(self):
        assert str(Implies(p, Implies(q, p))) == "(p -> (q -> p))"

    def test_nested_attain(self):
        f = AttainKnow(AttainKnow(p))
        assert str(f) == "([.]([.]p))"
        assert parse(str(f)) == f


class TestQueries:
    @pytest.mark.parametrize("text,depth", [
        ("p", 0),
        ("[][.]p", 2),
        ("[]p -> q", 1),
        ("[.]([]p -> [.][.]q)", 3),
    ])
    def test_modal_depth(self, text, depth):
        assert modal_depth(parse(text)) == depth

    @pytest.mark.parametrize("text,names", [
        ("p -> q", {"p", "q"}),
        ("[](p -> p)", {"p"}),
        ("[]p -> [.]p", {"p"}),
    ])
    def test_atom_names(self, text, names):
        assert atom_names(parse(text)) == names

    def test_queries_keep_no_formula_alive(self):
        # the answers live on the nodes, so a dropped formula is freed and a
        # later equal one never meets it in a shared table
        f = parse("[.]([]freed_p -> [.][.]freed_q)")  # equal to no other test's
        assert (modal_depth(f), atom_names(f)) == (3, {"freed_p", "freed_q"})
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    def test_queries_reject_non_formulas(self):
        for query in (modal_depth, atom_names):
            with pytest.raises(TypeError):
                query("p")

    def test_pickle_rehashes_under_another_hash_seed(self):
        # pickled where strings hash one way, loaded where they hash another
        text = "[.](room_1_vacant -> []exists_vacant) -> !p"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(boxdot.__file__)))
        dump = ("import pickle, sys; from boxdot.formulas import parse; "
                f"f = parse({text!r}); hash(f); sys.stdout.buffer.write(pickle.dumps(f))")
        load = ("import pickle, sys; from boxdot.formulas import parse; "
                f"g = pickle.loads(sys.stdin.buffer.read()); print({{parse({text!r}): 1}}.get(g))")
        blob = subprocess.run([sys.executable, "-c", dump], env=dict(env, PYTHONHASHSEED="1"),
                              capture_output=True, check=True).stdout
        out = subprocess.run([sys.executable, "-c", load], env=dict(env, PYTHONHASHSEED="2"),
                             input=blob, capture_output=True, check=True).stdout
        assert out.decode().strip() == "1"

    def test_substitute(self):
        f = parse("[]p -> (q -> p)")
        g = substitute(f, {"p": parse("[.]r")})
        assert g == parse("[]([.]r) -> (q -> [.]r)")


identifiers = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)
formulas = st.recursive(
    identifiers.map(Atom),
    lambda kids: st.one_of(
        kids.map(Not),
        kids.map(AttainKnow),
        kids.map(Know),
        st.tuples(kids, kids).map(lambda ab: Implies(ab[0], ab[1])),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(formulas)
def test_round_trip(f):
    assert parse(str(f)) == f


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_desugaring_matches_boolean_connectives(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a = random_core_formula(rng, 2, atoms=("p", "q"))
    b = random_core_formula(rng, 2, atoms=("q", "r"))
    combined = {
        "&": lambda x, y: x and y,
        "|": lambda x, y: x or y,
        "<->": lambda x, y: x == y,
    }
    for op, boolean in combined.items():
        f = parse(f"({a}) {op} ({b})")
        letters = opaque_letters(f)
        for values in itertools.product((False, True), repeat=len(letters)):
            env = dict(zip(letters, values))
            assert skeleton_truth(f, env) == boolean(skeleton_truth(a, env),
                                                     skeleton_truth(b, env))
