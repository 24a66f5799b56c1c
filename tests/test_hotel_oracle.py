"""The exact-quotient hotel evaluator, which needs no cap, against the capped
multiset search it replaced (``hotel_oracle.py``): verdicts, witnesses and
``confirm_witness`` must agree with the oracle at every cap from its default
b0 to b0+3, on the worlds and formulas of acceptance criteria 5 and 6, on
fuzz theorems substituted into hotel atoms, and on formulas that need two
fresh rooms."""

import random
import re

import pytest

from boxdot.formulas import AttainKnow, atom_names, parse, subformulas, substitute
from boxdot.fuzz import HOTEL_ATOMS, derive_seed, hotel_panel
from boxdot.hotel import (
    VARIANTS,
    EvalSession,
    EvidenceWitness,
    HotelWorld,
    confirm_witness,
    format_world,
    hotel_eval,
)
from boxdot.proofs import GenerationError, random_theorem

from helpers import random_formula
from hotel_oracle import default_cap, oracle_confirm_witness, oracle_hotel_eval
from test_acceptance import _random_hotel_world


def _criterion_5_cases(variant, count):
    """Kernel theorems as criterion 5 draws them, each on a few panel worlds."""
    panel = hotel_panel(variant.name)
    for i in range(count):
        _, conclusion = random_theorem(derive_seed("hotel-sound", i), 8)
        yield panel[i % len(panel)], substitute(conclusion, HOTEL_ATOMS[variant.name])


def _criterion_6_cases(variant, count):
    for i in range(count):
        rng = random.Random(derive_seed("cap", variant.name, i))
        w = _random_hotel_world(rng, variant)
        yield w, substitute(random_formula(rng, 3), HOTEL_ATOMS[variant.name])


def _fuzz_cases(variant, count):
    """Theorems as the soundness fuzz generates them for seed 0."""
    panel = hotel_panel(variant.name)
    for i in range(count):
        try:
            _, conclusion = random_theorem(derive_seed(0, i, 0), 8)
        except GenerationError:
            continue
        yield panel[(7 * i) % len(panel)], substitute(conclusion, HOTEL_ATOMS[variant.name])


def _two_state_cases(variant, count):
    """Formulas whose inner [.] needs two fresh rooms of different states,
    so a search limited to one fresh room gets them wrong; the random
    generators seldom build one."""
    pairs = [(a, b) for a in variant.states for b in variant.states if a < b
             and {a, b} != {"occupied", "infested"}]
    for a, b in pairs[:count]:
        g = f"(exists_{a} & exists_{b})"
        for text in (f"[.]({g} -> [.]{g})", f"[.](![.]{g})"):
            for w in (HotelWorld(a), HotelWorld(b), HotelWorld(a, {3: b})):
                yield w, parse(text)


GENERATORS = {
    "criterion-5": (_criterion_5_cases, 50),
    "criterion-6": (_criterion_6_cases, 200),
    "fuzz": (_fuzz_cases, 50),
    "two-state": (_two_state_cases, 3),
}


def _tracked_rooms(w, f):
    rooms = set(w.exceptions)
    for name in atom_names(f):
        m = re.fullmatch(r"room_(\d+)_[a-z]+", name)
        if m:
            rooms.add(int(m.group(1)))
    return frozenset(rooms)


@pytest.mark.parametrize("variant_name", ["I", "II"])
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_quotient_agrees_with_capped_oracle(generator, variant_name):
    """One cap-free answer per case, equal to the oracle's at every cap."""
    variant = VARIANTS[variant_name]
    make_cases, count = GENERATORS[generator]
    session = EvalSession()
    disagreements = []
    compared = confirmed = 0
    for w, f in make_cases(variant, count):
        # f, its [.] subformulas as roots of their own, and [.]f, so that
        # every case yields witnesses to check
        formulas = [f] + [g for g in subformulas(f) if isinstance(g, AttainKnow)]
        formulas.append(AttainKnow(f))
        for g in dict.fromkeys(formulas):
            b0 = default_cap(g)
            where = (str(g), format_world(w))
            got = hotel_eval(variant, w, g, session=session)
            tracked = _tracked_rooms(w, g)
            got_ok = ([confirm_witness(variant, w, g, EvidenceWitness(tracked, fresh))
                       for fresh in range(4)]
                      if isinstance(g, AttainKnow) else [])
            for cap in range(b0, b0 + 4):
                want = oracle_hotel_eval(variant, w, g, cap=cap)
                compared += 1
                if got != want:
                    disagreements.append(("hotel_eval", cap, where, got, want))
                for fresh, ok in enumerate(got_ok):
                    witness = EvidenceWitness(tracked, fresh)
                    confirmed += 1
                    if ok != oracle_confirm_witness(variant, w, g, witness, cap=cap):
                        disagreements.append(("confirm_witness", cap, fresh, where))
    assert compared >= count and confirmed >= count
    assert disagreements == []
