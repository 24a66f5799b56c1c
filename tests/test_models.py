import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdot.corpus import corpus
from boxdot.formulas import AttainKnow, Know, Not, Implies, parse, substitute
from boxdot.fuzz import FuzzConfig, random_model
from boxdot import models
from boxdot.models import (
    FiniteEvidenceModel,
    extension,
    indist,
    model_from_json,
    model_to_json,
    satisfies,
    validate_model,
)
from boxdot.proofs import SCHEMAS, random_theorem

from helpers import random_core_formula, random_formula


@pytest.fixture
def two_world():
    return FiniteEvidenceModel(
        worlds=["w1", "w2"],
        evidence={"e": [["w1", "w2"]]},
        valuation={"p": ["w1"]},
    )


@pytest.fixture
def three_world():
    return FiniteEvidenceModel(
        worlds=["w1", "w2", "w3"],
        evidence={"e1": [["w1", "w2"], ["w3"]], "e2": [["w1"], ["w2", "w3"]]},
        valuation={"p": ["w1", "w3"]},
    )


class TestValidate:
    def test_valid(self, two_world):
        assert validate_model(two_world) == []

    def test_overlapping_blocks(self):
        m = FiniteEvidenceModel(["w1", "w2"], {"e1": [["w1"], ["w1", "w2"]]}, {})
        assert any("two blocks" in v for v in validate_model(m))

    def test_non_exhaustive(self):
        m = FiniteEvidenceModel(["w1", "w2"], {"e1": [["w1"]]}, {})
        assert any("does not cover" in v for v in validate_model(m))

    def test_empty_block(self):
        m = FiniteEvidenceModel(["w1"], {"e1": [[], ["w1"]]}, {})
        assert any("empty block" in v for v in validate_model(m))

    def test_unknown_world_in_block(self):
        m = FiniteEvidenceModel(["w1"], {"e1": [["w1", "w9"]]}, {})
        assert any("unknown world 'w9'" in v for v in validate_model(m))

    def test_unknown_world_in_valuation(self):
        m = FiniteEvidenceModel(["w1"], {"e1": [["w1"]]}, {"p": ["w9"]})
        assert any("valuation" in v for v in validate_model(m))

    def test_empty_world_set(self):
        m = FiniteEvidenceModel([], {}, {})
        assert any("empty" in v for v in validate_model(m))

    def test_evaluator_refuses_invalid(self):
        m = FiniteEvidenceModel(["w1", "w2"], {"e1": [["w1"]]}, {})
        with pytest.raises(ValueError, match="invalid model"):
            satisfies(m, "w1", parse("p"))


class TestIndist:
    def test_empty_evidence_set_is_total(self, three_world):
        assert indist(three_world, []) == [["w1", "w2", "w3"]]

    def test_blockwise_intersection(self, three_world):
        assert indist(three_world, ["e1", "e2"]) == [["w1"], ["w2"], ["w3"]]

    def test_single_evidence_is_its_partition(self, three_world):
        assert indist(three_world, ["e1"]) == [["w1", "w2"], ["w3"]]

    def test_unknown_evidence(self, three_world):
        with pytest.raises(KeyError):
            indist(three_world, ["nope"])


class TestSatisfies:
    def test_atom(self, two_world):
        assert satisfies(two_world, "w1", parse("p"))

    def test_know_false_with_indistinct_world(self, two_world):
        assert not satisfies(two_world, "w1", parse("[]p"))

    def test_attain_false_with_indistinct_world(self, two_world):
        assert not satisfies(two_world, "w1", parse("[.]p"))

    def test_unknown_world(self, two_world):
        with pytest.raises(KeyError):
            satisfies(two_world, "w9", parse("p"))

    def test_missing_atom_false_everywhere(self, two_world):
        assert extension(two_world, parse("never_mentioned")) == []

    def test_extension_examples(self, two_world):
        assert extension(two_world, parse("p -> p")) == ["w1", "w2"]
        assert extension(two_world, parse("p")) == ["w1"]
        assert extension(two_world, parse("[]!([.]p)")) == ["w1", "w2"]


def test_model_json_round_trip(two_world):
    assert model_from_json(model_to_json(two_world)) == two_world


@pytest.mark.parametrize("doc", [
    '{"worlds": "ab", "evidence": {}, "valuation": {}}',
    '{"worlds": ["a", 1], "evidence": {}, "valuation": {}}',
    '{"worlds": ["a"], "evidence": [], "valuation": {}}',
    '{"worlds": ["a"], "evidence": {"e": ["a"]}, "valuation": {}}',
    '{"worlds": ["a"], "evidence": {"e": [[1]]}, "valuation": {}}',
    '{"worlds": ["a"], "evidence": {}, "valuation": {"p": "a"}}',
    '{"worlds": ["a"], "evidence": {}, "valuation": []}',
    '["worlds", "evidence", "valuation"]',
])
def test_model_json_rejects_ill_typed_fields(doc):
    with pytest.raises(ValueError):
        model_from_json(doc)


def test_docs_model_example(two_world):
    with open("docs/model-example.json", encoding="utf-8") as fh:
        m = model_from_json(fh.read())
    assert m == two_world
    assert validate_model(m) == []


def _bounds(max_worlds=5, max_evidence=4):
    return FuzzConfig(seed=0, num_theorems=0, num_models=0,
                      max_worlds=max_worlds, max_evidence=max_evidence)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_finite_collapse(seed):
    rng = random.Random(seed)
    m = random_model(seed, _bounds())
    f = random_formula(rng, 4)
    assert extension(m, AttainKnow(f)) == extension(m, Know(f))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_negative_introspection_collapses_on_finite_models(seed):
    # the finite-collapse corollary: with finite evidence the [.]-version of
    # negative introspection is valid, so only infinite models can refute it
    rng = random.Random(seed)
    m = random_model(seed, _bounds())
    f = random_formula(rng, 3)
    principle = Implies(Not(AttainKnow(f)), AttainKnow(Not(AttainKnow(f))))
    assert extension(m, principle) == m.worlds


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_axiom_instances_valid_everywhere(seed):
    rng = random.Random(seed)
    m = random_model(seed, _bounds())
    schema = rng.choice(tuple(SCHEMAS))
    inst = substitute(SCHEMAS[schema], {"phi": random_core_formula(rng, 2),
                                         "psi": random_core_formula(rng, 2)})
    assert extension(m, inst) == m.worlds


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_derived_principles_valid_everywhere(seed):
    rng = random.Random(seed)
    m = random_model(seed, _bounds())
    f = random_core_formula(rng, 2)
    for name in ("att-truth", "lemma2"):
        inst = substitute(corpus()[name].conclusion, {"p": f})
        assert extension(m, inst) == m.worlds


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_monotone_information(seed):
    rng = random.Random(seed)
    m = random_model(seed, _bounds())
    eids = list(m.evidence)
    small = [e for e in eids if rng.random() < 0.5]
    big = small + [e for e in eids if e not in small and rng.random() < 0.7]
    coarse = [set(b) for b in indist(m, small)]
    fine = [set(b) for b in indist(m, big)]
    for blk in fine:
        assert any(blk <= cb for cb in coarse)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_kernel_theorems_valid_on_random_models(seed):
    _, conclusion = random_theorem(seed, 8)
    m = random_model(seed + 1, _bounds())
    assert extension(m, conclusion) == m.worlds


def test_fault_injection_site_is_extension_masks_know_loop():
    # perfbench/tests/test_perfbench.py::test_injected_wrong_verdict_fails_the_run
    # rewrites the first occurrence of this text in models.py and needs the
    # finite workload, which goes through extension_mask, to fail
    site = "if cls & ~child == 0:\n                    mask |= 1 << i\n        elif"
    method = inspect.getsource(models._Evaluator.extension_mask)
    module = inspect.getsource(models)
    message = ("the benchmark's fault injection rewrites this text of "
               "_Evaluator.extension_mask's [] loop; change both together "
               "(ROADMAP item 4, a stable fault-injection seam)")
    assert site in method, message
    assert module.find(site) == module.find(method) + method.find(site), message
