import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdot.formulas import (
    Atom,
    AttainKnow,
    Implies,
    Know,
    Not,
    atom_names,
    modal_depth,
    parse,
    subformulas,
    substitute,
)
from boxdot.fuzz import HOTEL_ATOMS, hotel_panel
from boxdot.hotel import (
    VARIANT_I,
    VARIANT_II,
    EvalSession,
    EvidenceWitness,
    HotelWorld,
    confirm_witness,
    counterexample_report,
    format_world,
    hotel_eval,
    parse_world_literal,
    validate_world,
)
from boxdot.proofs import random_theorem

from helpers import random_formula
from hotel_oracle import default_cap, oracle_hotel_eval


class TestValidateWorld:
    def test_single_infested_room_ok(self):
        assert validate_world(VARIANT_II, HotelWorld("vacant", {3: "infested"})) is None

    def test_guests_with_bedbugs_rejected(self):
        v = validate_world(VARIANT_II, HotelWorld("occupied", {3: "infested"}))
        assert v is not None and "coexist" in v

    def test_non_canonical_exception_rejected(self):
        v = validate_world(VARIANT_I, HotelWorld("occupied", {5: "occupied"}))
        assert v is not None and "non-canonical" in v

    def test_infested_not_a_variant_one_state(self):
        assert validate_world(VARIANT_I, HotelWorld("infested")) is not None
        assert validate_world(VARIANT_I, HotelWorld("vacant", {1: "infested"})) is not None

    def test_default_infested_empty_hotel_ok(self):
        assert validate_world(VARIANT_II, HotelWorld("infested")) is None
        assert validate_world(VARIANT_II, HotelWorld("infested", {0: "vacant"})) is None

    def test_default_infested_with_guests_rejected(self):
        assert validate_world(VARIANT_II, HotelWorld("infested", {0: "occupied"})) is not None

    def test_negative_room_index_rejected(self):
        assert validate_world(VARIANT_I, HotelWorld("vacant", {-1: "occupied"})) is not None


class TestWorldLiterals:
    def test_round_trip(self):
        w = parse_world_literal("default=occupied; 7=vacant; 3=vacant")
        assert w.default == "occupied" and w.exceptions == {7: "vacant", 3: "vacant"}
        assert format_world(w) == "default=occupied; 3=vacant; 7=vacant"

    def test_rejects_duplicate_room(self):
        with pytest.raises(ValueError, match="twice"):
            parse_world_literal("default=vacant; 1=occupied; 1=vacant")

    def test_rejects_missing_default(self):
        with pytest.raises(ValueError, match="default"):
            parse_world_literal("7=vacant")


FULL = HotelWorld("occupied")
EMPTY = HotelWorld("vacant")


class TestHotelEvalExamples:
    """The worked examples: a full hotel's lack of vacancies is knowable but
    not attainably knowable, and one bedbug sighting certifies emptiness."""

    def test_full_hotel_cannot_attain_vacancy_knowledge(self):
        verdict, _ = hotel_eval(VARIANT_I, FULL, parse("!([.]exists_vacant)"))
        assert verdict

    def test_full_hotel_negative_introspection_fails(self):
        verdict, _ = hotel_eval(VARIANT_I, FULL, parse("!([.](!([.]exists_vacant)))"))
        assert verdict

    def test_one_vacant_room_is_a_witness(self):
        w = HotelWorld("occupied", {7: "vacant"})
        f = parse("[.]exists_vacant")
        verdict, witness = hotel_eval(VARIANT_I, w, f)
        assert verdict
        assert witness.tracked == frozenset({7})
        assert witness.fresh_count == 0
        assert confirm_witness(VARIANT_I, w, f, witness)

    def test_full_hotel_knows_no_vacancies(self):
        verdict, _ = hotel_eval(VARIANT_I, FULL, parse("[](!exists_vacant)"))
        assert verdict

    def test_empty_hotel_cannot_attain_emptiness(self):
        verdict, _ = hotel_eval(VARIANT_II, EMPTY, parse("!([.](!exists_occupied))"))
        assert verdict

    def test_empty_hotel_weak_negative_introspection_fails(self):
        verdict, _ = hotel_eval(VARIANT_II, EMPTY, parse("[.](!([.](!exists_occupied)))"))
        assert not verdict

    def test_bedbug_room_certifies_emptiness(self):
        w = HotelWorld("vacant", {3: "infested"})
        f = parse("[.](!exists_occupied)")
        verdict, witness = hotel_eval(VARIANT_II, w, f)
        assert verdict
        assert witness.tracked == frozenset({3})
        assert witness.fresh_count == 0
        assert confirm_witness(VARIANT_II, w, f, witness)

    def test_fresh_room_witness(self):
        # in an all-vacant hotel, opening any one (fresh) door shows a vacancy
        verdict, witness = hotel_eval(VARIANT_I, HotelWorld("vacant"),
                                      parse("[.]exists_vacant"))
        assert verdict
        assert witness.tracked == frozenset()
        assert witness.fresh_count == 1

    def test_confirm_witness_counts_fresh_rooms_without_a_cap(self):
        # every fresh room has the default state, so ten act like one
        f = parse("[.]exists_vacant")
        for w in (HotelWorld("vacant"), HotelWorld("occupied")):
            one = confirm_witness(VARIANT_I, w, f, EvidenceWitness(frozenset(), 1))
            assert confirm_witness(VARIANT_I, w, f, EvidenceWitness(frozenset(), 10)) == one
            assert not confirm_witness(VARIANT_I, w, f, EvidenceWitness(frozenset(), -1))
        assert confirm_witness(VARIANT_I, HotelWorld("vacant"), f,
                               EvidenceWitness(frozenset(), 10))

    def test_separation_know_without_attain(self):
        f = parse("!exists_vacant")
        assert hotel_eval(VARIANT_I, FULL, Know(f))[0]
        assert not hotel_eval(VARIANT_I, FULL, AttainKnow(f))[0]

    def test_room_atom(self):
        w = HotelWorld("occupied", {7: "vacant"})
        assert hotel_eval(VARIANT_I, w, parse("room_7_vacant"))[0]
        assert not hotel_eval(VARIANT_I, w, parse("room_6_vacant"))[0]
        assert hotel_eval(VARIANT_I, w, parse("[.]room_7_vacant"))[0]

    def test_formula_lives_no_longer_than_its_session(self):
        # hotel_eval keeps per-formula work in the session, not in a
        # module-wide table, so a formula is freed with its session
        f = parse("[.](room_5_vacant -> [.]room_6_occupied)")  # equal to no other test's
        session = EvalSession()
        hotel_eval(VARIANT_I, FULL, f, session=session)
        hotel_eval(VARIANT_I, EMPTY, f)
        ref = weakref.ref(f)
        del f, session
        gc.collect()
        assert ref() is None


class TestErrors:
    def test_unknown_atom(self):
        with pytest.raises(ValueError, match="unknown hotel atom"):
            hotel_eval(VARIANT_I, FULL, parse("nonsense"))

    def test_wrong_variant_state_atom(self):
        with pytest.raises(ValueError, match="unknown hotel atom"):
            hotel_eval(VARIANT_I, FULL, parse("exists_infested"))

    def test_invalid_world(self):
        with pytest.raises(ValueError, match="invalid world"):
            hotel_eval(VARIANT_II, HotelWorld("occupied", {1: "infested"}),
                       parse("exists_vacant"))


class TestCounterexamples:
    def test_negative_introspection_report(self):
        r = counterexample_report("negative-introspection")
        assert r.variant == "I" and not r.verdict
        verdicts = dict(r.parts)
        assert verdicts["!([.]exists_vacant)"]
        assert not verdicts["[.](!([.]exists_vacant))"]
        assert verdicts["!([.](!([.]exists_vacant)))"]
        assert verdicts["[](!exists_vacant)"]

    def test_weak_negative_introspection_report(self):
        r = counterexample_report("weak-negative-introspection")
        assert r.variant == "II" and not r.verdict
        verdicts = dict(r.parts)
        assert verdicts["!exists_occupied"]
        assert verdicts["!([.](!exists_occupied))"]
        assert not verdicts["[.](!([.](!exists_occupied)))"]

    def test_unknown_report(self):
        with pytest.raises(ValueError, match="unknown report"):
            counterexample_report("nope")

    def test_to_dict_shape(self):
        doc = counterexample_report("negative-introspection").to_dict()
        assert doc["verdict"] is False
        assert all(set(p) == {"formula", "verdict"} for p in doc["parts"])


def _random_world(rng, variant):
    if variant.name == "II" and rng.random() < 0.4:
        states = ("vacant", "infested")
    else:
        states = ("occupied", "vacant")
    default = rng.choice(states)
    exceptions = {}
    for room in rng.sample(range(9), rng.randint(0, 3)):
        exceptions[room] = rng.choice([s for s in states if s != default])
    return HotelWorld(default, exceptions)


def _random_hotel_formula(rng, variant, max_depth=3):
    f = random_formula(rng, max_depth)
    return substitute(f, HOTEL_ATOMS[variant.name])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("I", "II")))
def test_cap_stability(seed, variant_name):
    """The cap-free evaluator matches the capped oracle at caps b0..b0+3."""
    rng = random.Random(seed)
    variant = {"I": VARIANT_I, "II": VARIANT_II}[variant_name]
    w = _random_world(rng, variant)
    f = _random_hotel_formula(rng, variant)
    base = hotel_eval(variant, w, f)
    b0 = default_cap(f)
    for cap in range(b0, b0 + 4):
        assert oracle_hotel_eval(variant, w, f, cap=cap) == base, (
            str(f), format_world(w), cap)


def _deep_hotel_formula(rng, variant, depth):
    """A formula of modal depth exactly `depth`: modalities, negations and
    implications with shallow random sides stacked on a shallow formula."""
    f = _random_hotel_formula(rng, variant, max_depth=1)
    while modal_depth(f) < depth:
        side = _random_hotel_formula(rng, variant, max_depth=1)
        body = rng.choice((f, Not(f), Implies(side, f), Implies(f, side)))
        f = rng.choice((AttainKnow, Know))(body)
    return f


def _wide_hotel_formula(rng, variant, width):
    """`width` distinct room atoms and one or two exists atoms, joined
    pairwise at random by implications under random operators."""
    rooms = [f"room_{r}_{s}" for r in range(9) for s in variant.states]
    names = rng.sample(rooms, width) + rng.sample([f"exists_{s}" for s in variant.states],
                                                  rng.randint(1, 2))
    parts = [Atom(name) for name in names]
    while len(parts) > 1:
        left = parts.pop(rng.randrange(len(parts)))
        right = parts.pop(rng.randrange(len(parts)))
        op = rng.choice((AttainKnow, Know, Not, None))
        g = Implies(left, right)
        parts.append(g if op is None else op(g))
    return parts[0]


def _agrees_with_oracle(variant, w, f):
    roots = [f, AttainKnow(f)] + [g for g in subformulas(f) if isinstance(g, AttainKnow)]
    for g in dict.fromkeys(roots):
        assert hotel_eval(variant, w, g) == oracle_hotel_eval(variant, w, g), (
            str(g), format_world(w))


class TestPastTheFormerCaps:
    """Modal depth and atom count are unbounded: formulas past the former
    caps (depth 4, six atoms) get the oracle's verdicts and witnesses."""

    def test_deep_formulas_agree_with_oracle(self):
        rng = random.Random(5)
        for i in range(40):
            variant = (VARIANT_I, VARIANT_II)[i % 2]
            depth = 5 + i % 4
            f = _deep_hotel_formula(rng, variant, depth)
            assert modal_depth(f) == depth
            _agrees_with_oracle(variant, _random_world(rng, variant), f)

    def test_wide_formulas_agree_with_oracle(self):
        rng = random.Random(6)
        for i in range(40):
            variant = (VARIANT_I, VARIANT_II)[i % 2]
            width = 7 + i % 6
            f = _wide_hotel_formula(rng, variant, width)
            assert sum(name.startswith("room_") for name in atom_names(f)) == width
            _agrees_with_oracle(variant, _random_world(rng, variant), f)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("I", "II")))
def test_room_permutation_invariance(seed, variant_name):
    rng = random.Random(seed)
    variant = {"I": VARIANT_I, "II": VARIANT_II}[variant_name]
    w = _random_world(rng, variant)
    f = _random_hotel_formula(rng, variant)
    mentioned = {0, 1}  # rooms the substitution can name
    base, _ = hotel_eval(variant, w, f)
    # transpose two rooms the formula does not mention
    a, b = rng.sample([r for r in range(2, 40)], 2)
    swapped = {}
    for room, state in w.exceptions.items():
        swapped[b if room == a else a if room == b else room] = state
    verdict, _ = hotel_eval(variant, HotelWorld(w.default, swapped), f)
    assert verdict == base
    assert mentioned.isdisjoint({a, b})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("I", "II")))
def test_truth_and_monotonicity_pointwise(seed, variant_name):
    rng = random.Random(seed)
    variant = {"I": VARIANT_I, "II": VARIANT_II}[variant_name]
    w = _random_world(rng, variant)
    f = _random_hotel_formula(rng, variant, max_depth=2)
    if hotel_eval(variant, w, AttainKnow(f))[0]:
        assert hotel_eval(variant, w, Know(f))[0]
    if hotel_eval(variant, w, Know(f))[0]:
        assert hotel_eval(variant, w, f)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("I", "II")))
def test_witness_soundness(seed, variant_name):
    rng = random.Random(seed)
    variant = {"I": VARIANT_I, "II": VARIANT_II}[variant_name]
    w = _random_world(rng, variant)
    f = AttainKnow(_random_hotel_formula(rng, variant, max_depth=2))
    verdict, witness = hotel_eval(variant, w, f)
    if verdict:
        assert confirm_witness(variant, w, f, witness)
    else:
        assert witness is None


def _strip_modalities(f):
    from boxdot.formulas import Atom, Implies, Not
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(_strip_modalities(f.child))
    if isinstance(f, Implies):
        return Implies(_strip_modalities(f.left), _strip_modalities(f.right))
    return _strip_modalities(f.child)


def _prop_eval(f, env):
    from boxdot.formulas import Atom, Not
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, Not):
        return not _prop_eval(f.child, env)
    return _prop_eval(f.right, env) if _prop_eval(f.left, env) else True


_ROOM_ATOMS = ("room_0_occupied", "room_0_vacant", "room_1_occupied", "room_1_vacant")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_room_only_formulas_collapse_to_propositional_truth(seed):
    """Independent oracle: when every atom names only rooms 0 and 1,
    examining those two rooms settles everything, so both modalities act as
    identity and truth is plain propositional evaluation at (w(0), w(1))."""
    from boxdot.formulas import Atom, AttainKnow, Implies, Know, Not
    rng = random.Random(seed)

    def rand_f(depth):
        if depth == 0 or rng.random() < 0.3:
            return Atom(rng.choice(_ROOM_ATOMS))
        roll = rng.random()
        if roll < 0.4:
            return Implies(rand_f(depth - 1), rand_f(depth - 1))
        if roll < 0.6:
            return Not(rand_f(depth - 1))
        if roll < 0.8:
            return AttainKnow(rand_f(depth - 1))
        return Know(rand_f(depth - 1))

    f = rand_f(3)
    default = rng.choice(("occupied", "vacant"))
    other = "vacant" if default == "occupied" else "occupied"
    exceptions = {r: other for r in (0, 1, 5) if rng.random() < 0.4}
    w = HotelWorld(default, exceptions)
    states = {r: exceptions.get(r, default) for r in (0, 1)}
    env = {f"room_{r}_{s}": states[r] == s
           for r in (0, 1) for s in ("occupied", "vacant")}
    expected = _prop_eval(_strip_modalities(f), env)
    assert hotel_eval(VARIANT_I, w, f)[0] == expected


def test_all_infested_hotel_attains_emptiness_with_one_fresh_check():
    verdict, witness = hotel_eval(VARIANT_II, HotelWorld("infested"),
                                  parse("[.](!exists_occupied)"))
    assert verdict
    assert witness.tracked == frozenset() and witness.fresh_count == 1


def test_kernel_theorems_hold_on_hotel_sample():
    session = EvalSession()
    checked = 0
    for seed in range(60):
        _, conclusion = random_theorem(seed, 6)
        for variant in (VARIANT_I, VARIANT_II):
            f = substitute(conclusion, HOTEL_ATOMS[variant.name])
            for w in hotel_panel(variant.name)[:10]:
                verdict, _ = hotel_eval(variant, w, f, session=session)
                assert verdict, (str(conclusion), variant.name, format_world(w))
                checked += 1
    assert checked > 500
