"""The partition-closure evaluator of ``boxdot.models`` against the subset
enumeration it replaced (``finite_oracle.py``): the world masks of every
subformula must agree on random models of up to 8 worlds and 6 pieces of
evidence, and on a hand-built model with 12 pieces of evidence."""

import itertools
import random

import pytest

from boxdot.formulas import parse, subformulas
from boxdot.fuzz import FuzzConfig, derive_seed, random_model
from boxdot.models import FiniteEvidenceModel

from finite_oracle import OracleEvaluator
from helpers import random_formula

BOUNDS = FuzzConfig(seed=0, num_theorems=0, num_models=0, max_worlds=8, max_evidence=6)
MODELS = 400
FORMULAS_PER_MODEL = 5


def _disagreements(m, formulas):
    ev, oracle = m.evaluator(), OracleEvaluator(m)
    bad = []
    for f in formulas:
        for g in subformulas(f):
            if ev.extension_mask(g) != oracle.extension_mask(g):
                bad.append(str(g))
    return bad


@pytest.mark.parametrize("chunk", range(4))
def test_random_models_agree_with_oracle(chunk):
    pairs = 0
    for k in range(chunk, MODELS, 4):
        m = random_model(derive_seed("finite-oracle", k), BOUNDS)
        rng = random.Random(derive_seed("finite-oracle-formulas", k))
        formulas = [random_formula(rng, rng.randint(1, 5)) for _ in range(FORMULAS_PER_MODEL)]
        assert _disagreements(m, formulas) == [], f"model {k}: {m}"
        pairs += len(formulas)
    assert pairs == MODELS * FORMULAS_PER_MODEL // 4


def test_closure_reaches_every_subset_refinement():
    """The closure's classes are exactly the classes of the common
    refinements of all evidence subsets."""
    for k in range(100):
        m = random_model(derive_seed("finite-oracle", k), BOUNDS)
        ev = m.evaluator()
        eids = list(m.evidence)
        want = {cls for r in range(len(eids) + 1) for subset in itertools.combinations(eids, r)
                for cls in ev.class_masks(subset)}
        assert set(ev._subset_classes()) == want


def _three_bit_model():
    """Worlds are the 3-bit strings; each of the 12 pieces of evidence
    reveals one Boolean feature of a world, so the subsets of the evidence
    refine the worlds in many different ways."""
    worlds = [format(i, "03b") for i in range(8)]
    bit = [lambda w, b=b: w[b] for b in range(3)]
    features = (bit
                + [lambda w, b=b, c=c: w[b] != w[c] for b, c in ((0, 1), (0, 2), (1, 2))]
                + [lambda w, b=b, c=c: w[b] == w[c] == "1" for b, c in ((0, 1), (0, 2), (1, 2))]
                + [lambda w: w.count("1") % 2,
                   lambda w: w.count("1") >= 2,
                   lambda w: w == "000"])
    evidence = {}
    for k, feature in enumerate(features):
        blocks = {}
        for w in worlds:
            blocks.setdefault(feature(w), []).append(w)
        evidence[f"e{k + 1}"] = list(blocks.values())
    valuation = {"p": [w for w in worlds if w[0] == "1"],
                 "q": [w for w in worlds if w.count("1") >= 2],
                 "r": ["011"],
                 "s": [w for w in worlds if w != "110"]}
    return FiniteEvidenceModel(worlds, evidence, valuation)


def test_twelve_pieces_of_evidence_agree_with_oracle():
    m = _three_bit_model()
    assert len(m.evidence) == 12
    rng = random.Random(derive_seed("finite-oracle-twelve"))
    formulas = [parse(t) for t in ("[.]p", "[]q", "[.]r <-> []r", "[.](p | !q) -> [][.]s",
                                   "!([.]!p) -> [.]!([.]!p)", "[.](s -> [.](p -> [.]r))")]
    formulas += [random_formula(rng, 4) for _ in range(30)]
    assert _disagreements(m, formulas) == []
    # the model is not degenerate: [.] really depends on the evidence
    assert 0 < m.evaluator().extension_mask(parse("[.]s")) != m.evaluator().full
