"""Acceptance suite: every criterion at its stated scale.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to watch them).
The full suite takes a few minutes; the soundness campaign of criterion 2
dominates.
"""

import random
import time

from boxdot.corpus import corpus
from boxdot.formulas import Atom, AttainKnow, Implies, Know, Not, parse, substitute
from boxdot.fuzz import (
    FuzzConfig,
    HOTEL_ATOMS,
    derive_seed,
    hotel_panel,
    random_model,
    run_soundness_fuzz,
)
from boxdot.hotel import (
    VARIANT_I,
    VARIANT_II,
    EvalSession,
    HotelWorld,
    counterexample_report,
    hotel_eval,
)
from boxdot.models import extension
from boxdot.proofs import check_derivation, random_theorem
from boxdot.unravelling import random_universe, universe_report

from helpers import mutate_derivation, random_formula
from hotel_oracle import default_cap, oracle_hotel_eval


def _verdict(num, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_proof_corpus():
    entries = corpus()
    start = time.perf_counter()
    reports = {name: check_derivation(d) for name, d in entries.items()}
    check_time = time.perf_counter() - start
    all_ok = all(r.accepted and r.conclusion_is_theorem for r in reports.values())
    expected = {
        "lemma1": "[]p -> [][]p",
        "lemma2": "![.]p -> []![.]p",
        "att-truth": "[.]p -> p",
        "box-nec": "[]([]p -> p)",
    }
    conclusions_ok = all(reports[n].conclusion == parse(t) for n, t in expected.items())

    rng = random.Random(2024)
    total = rejected = 0
    for d in entries.values():
        for _ in range(100):
            total += 1
            if not check_derivation(mutate_derivation(d, rng)).accepted:
                rejected += 1
    rate = rejected / total
    ok = all_ok and conclusions_ok and check_time < 1.0 and total == 400 and rate >= 0.95
    _verdict(1, "proof corpus", ok,
             f"4 theorems in {check_time * 1000:.0f}ms, "
             f"mutation rejection {rejected}/{total} = {rate:.1%}")


def test_criterion_2_soundness_fuzz():
    cfg = FuzzConfig(seed=42, num_theorems=10_000, num_models=300,
                     max_worlds=6, max_evidence=4, max_proof_steps=8)
    report = run_soundness_fuzz(cfg)
    ok = (report.violations == 0
          and report.theorems_checked == 10_000
          and report.models_checked == 300
          and report.elapsed <= 300.0)
    _verdict(2, "soundness fuzz", ok,
             f"violations={report.violations}, evaluations={report.evaluations}, "
             f"skipped={report.skipped}, elapsed={report.elapsed:.0f}s")


def test_criterion_3_finite_collapse():
    failures = 0
    for seed in range(1000):
        rng = random.Random(derive_seed("collapse", seed))
        m = random_model(derive_seed("collapse-model", seed),
                         FuzzConfig(seed=0, num_theorems=0, num_models=0,
                                    max_worlds=6, max_evidence=4))
        f = random_formula(rng, 4)
        if extension(m, AttainKnow(f)) != extension(m, Know(f)):
            failures += 1
        principle = Implies(Not(AttainKnow(f)), AttainKnow(Not(AttainKnow(f))))
        if extension(m, principle) != m.worlds:
            failures += 1
    _verdict(3, "finite collapse", failures == 0,
             f"1000 (model, formula) pairs, {failures} failures")


def test_criterion_4_separation_and_counterexamples():
    checks = []

    expected_parts_1 = {
        "exists_vacant": False,
        "[.]exists_vacant": False,
        "!([.]exists_vacant)": True,
        "[.](!([.]exists_vacant))": False,
        "!([.](!([.]exists_vacant)))": True,
        "[](!exists_vacant)": True,
    }
    r1 = counterexample_report("negative-introspection")
    checks.append(r1.verdict is False)
    checks.append(r1.variant == "I" and r1.world == "default=occupied")
    checks.append(dict(r1.parts) == expected_parts_1)

    expected_parts_2 = {
        "!exists_occupied": True,
        "[.](!exists_occupied)": False,
        "!([.](!exists_occupied))": True,
        "[.](!([.](!exists_occupied)))": False,
    }
    r2 = counterexample_report("weak-negative-introspection")
    checks.append(r2.verdict is False)
    checks.append(r2.variant == "II" and r2.world == "default=vacant")
    checks.append(dict(r2.parts) == expected_parts_2)

    # the remaining worked examples, verbatim
    w7 = HotelWorld("occupied", {7: "vacant"})
    verdict, witness = hotel_eval(VARIANT_I, w7, parse("[.]exists_vacant"))
    checks.append(verdict and witness.tracked == frozenset({7})
                  and witness.fresh_count == 0)
    w3 = HotelWorld("vacant", {3: "infested"})
    verdict, witness = hotel_eval(VARIANT_II, w3, parse("[.](!exists_occupied)"))
    checks.append(verdict and witness.tracked == frozenset({3})
                  and witness.fresh_count == 0)

    # separation: [] holds where [.] fails
    full = HotelWorld("occupied")
    f = parse("!exists_vacant")
    checks.append(hotel_eval(VARIANT_I, full, Know(f))[0])
    checks.append(not hotel_eval(VARIANT_I, full, AttainKnow(f))[0])

    _verdict(4, "separation and counterexamples", all(checks),
             f"{sum(checks)}/{len(checks)} checks")


def test_criterion_5_hotel_soundness():
    session = EvalSession()
    violations = 0
    evaluated = 0
    for i in range(1000):
        _, conclusion = random_theorem(derive_seed("hotel-sound", i), 8)
        for variant in (VARIANT_I, VARIANT_II):
            f = substitute(conclusion, HOTEL_ATOMS[variant.name])
            for w in hotel_panel(variant.name):
                verdict, _ = hotel_eval(variant, w, f, session=session)
                evaluated += 1
                if not verdict:
                    violations += 1
    ok = violations == 0 and evaluated == 100_000
    _verdict(5, "hotel soundness cross-check", ok,
             f"{evaluated} evaluations, {violations} violations")


def _random_hotel_world(rng, variant):
    if variant.name == "II" and rng.random() < 0.4:
        states = ("vacant", "infested")
    else:
        states = ("occupied", "vacant")
    default = rng.choice(states)
    exceptions = {room: rng.choice([s for s in states if s != default])
                  for room in rng.sample(range(9), rng.randint(0, 3))}
    return HotelWorld(default, exceptions)


def test_criterion_6_cap_stability():
    """The cap-free quotient gives the capped oracle's verdict and witness at
    every cap from the oracle's default b0 to b0+3."""
    unstable = 0
    for variant in (VARIANT_I, VARIANT_II):
        session = EvalSession()
        for i in range(500):
            rng = random.Random(derive_seed("cap", variant.name, i))
            w = _random_hotel_world(rng, variant)
            f = substitute(random_formula(rng, 3), HOTEL_ATOMS[variant.name])
            got = hotel_eval(variant, w, f, session=session)
            b0 = default_cap(f)
            if any(oracle_hotel_eval(variant, w, f, cap=cap) != got
                   for cap in range(b0, b0 + 4)):
                unstable += 1
    _verdict(6, "cap stability", unstable == 0,
             f"500 cases per variant, quotient against oracle at caps b0..b0+3, "
             f"{unstable} unstable")


def test_criterion_7_sequence_properties():
    failures = 0
    for i in range(200):
        rng = random.Random(derive_seed("universe", i))
        size = rng.randint(3, 30)
        report = universe_report(random_universe(derive_seed("universe-gen", i), size))
        if not report.all_hold:
            failures += 1
    _verdict(7, "indistinguishability relation properties", failures == 0,
             f"200 universes, {failures} failures")


def _random_printable_formula(rng, depth):
    # mix the fuzz pool with arbitrary identifiers so printing is exercised
    # over the full atom grammar
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Atom(rng.choice(("p", "q", "r", "s")))
        name = rng.choice("abcxyz_") + "".join(
            rng.choices("abcdefghijklmnopqrstuvwxyz_0123456789", k=rng.randint(0, 6)))
        return Atom(name)
    roll = rng.random()
    if roll < 0.4:
        return Implies(_random_printable_formula(rng, depth - 1),
                       _random_printable_formula(rng, depth - 1))
    if roll < 0.6:
        return Not(_random_printable_formula(rng, depth - 1))
    if roll < 0.8:
        return AttainKnow(_random_printable_formula(rng, depth - 1))
    return Know(_random_printable_formula(rng, depth - 1))


def test_criterion_8_parser_round_trip():
    rng = random.Random(20240)
    failures = 0
    for _ in range(10_000):
        f = _random_printable_formula(rng, rng.randint(0, 6))
        if parse(str(f)) != f:
            failures += 1
    _verdict(8, "parser round trip", failures == 0,
             f"10000 formulas, {failures} failures")
