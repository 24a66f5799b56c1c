import gc
import tracemalloc

import pytest

from boxdot.formulas import Implies, Know, parse
from boxdot.fuzz import (
    FuzzConfig,
    HOTEL_ATOMS,
    derive_seed,
    hotel_panel,
    random_model,
    run_soundness_fuzz,
)
from boxdot.hotel import VARIANTS, validate_world
from boxdot.models import satisfies, validate_model
from boxdot.proofs import SCHEMAS

from helpers import random_formula


def _cfg(**kw):
    base = dict(seed=0, num_theorems=0, num_models=0)
    base.update(kw)
    return FuzzConfig(**base)


class TestConfig:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            _cfg(max_worlds=9)
        with pytest.raises(ValueError):
            _cfg(max_evidence=0)
        with pytest.raises(ValueError):
            _cfg(num_theorems=-1)
        with pytest.raises(ValueError):
            _cfg(max_proof_steps=0)


class TestRandomModel:
    def test_always_valid(self):
        for seed in range(200):
            assert validate_model(random_model(seed, _cfg())) == []

    def test_deterministic(self):
        assert random_model(321, _cfg()) == random_model(321, _cfg())

    def test_single_world_bound(self):
        m = random_model(17, _cfg(max_worlds=1))
        assert m.worlds == ["w1"]
        for atom, worlds in m.valuation.items():
            assert satisfies(m, "w1", parse(atom)) == ("w1" in worlds)

    def test_respects_bounds(self):
        for seed in range(50):
            m = random_model(seed, _cfg(max_worlds=3, max_evidence=2))
            assert len(m.worlds) <= 3 and len(m.evidence) <= 2


def test_random_formula_depth_bounded():
    import random
    from boxdot.formulas import modal_depth, subformulas
    rng = random.Random(0)
    for _ in range(200):
        f = random_formula(rng, 4)
        assert modal_depth(f) <= 4
        assert len(subformulas(f)) >= 1


class TestHotelPanel:
    def test_sizes(self):
        assert len(hotel_panel("I")) == 50
        assert len(hotel_panel("II")) == 50

    def test_all_valid(self):
        for name, variant in VARIANTS.items():
            for w in hotel_panel(name):
                assert validate_world(variant, w) is None

    def test_substitution_targets_parse(self):
        for name in ("I", "II"):
            for f in HOTEL_ATOMS[name].values():
                assert f == parse(str(f))


class TestCampaign:
    def test_zero_work_config(self):
        report = run_soundness_fuzz(_cfg())
        assert report.theorems_checked == 0
        assert report.models_checked == 0
        assert report.evaluations == 0
        assert report.violations == 0
        assert report.first_violation is None

    def test_small_campaign_clean(self):
        report = run_soundness_fuzz(_cfg(seed=42, num_theorems=150, num_models=10))
        assert report.violations == 0
        assert report.evaluations > 0
        assert report.theorems_checked == 150
        assert report.models_checked == 10

    def test_deterministic_reports(self):
        a = run_soundness_fuzz(_cfg(seed=9, num_theorems=60, num_models=6))
        b = run_soundness_fuzz(_cfg(seed=9, num_theorems=60, num_models=6))
        assert a.to_dict() == b.to_dict()  # elapsed excluded

    def test_corrupted_axiom_is_detected(self, monkeypatch):
        # an unsound schema must produce violations: that is the harness's
        # whole detection power
        phi = parse("phi")
        monkeypatch.setitem(SCHEMAS, "truth", Implies(phi, Know(phi)))
        report = run_soundness_fuzz(_cfg(seed=3, num_theorems=120, num_models=15))
        assert report.violations > 0
        assert report.first_violation is not None

    @pytest.mark.parametrize("schema,source", [
        ("![.]phi -> [.]![.]phi", "hotel-I"),
        ("[]phi -> [.]phi", "hotel-I"),
        ("phi -> (![.]phi -> [.]![.]phi)", "hotel-II"),
        ("phi -> []phi", "model-4"),
    ])
    def test_unsound_schema_is_found(self, monkeypatch, schema, source):
        # each schema is unsound on exactly the half named; the first three
        # hold on every finite model, so only the hotel panels catch them
        monkeypatch.setitem(SCHEMAS, "unsound", parse(schema))
        report = run_soundness_fuzz(_cfg(seed=42, num_theorems=1000, num_models=50))
        assert report.violations > 0
        assert report.first_violation[1] == source

    @pytest.mark.parametrize("schema,violations,first", [
        ("![.]phi -> [.]![.]phi", 59,
         ("((!([.]([.]p))) -> ([.](!([.]([.]p)))))", "hotel-I", "default=occupied")),
        ("[]phi -> [.]phi", 34, ("(([](!p)) -> ([.](!p)))", "hotel-I", "default=occupied")),
        ("phi -> []phi", 52, ("(s -> ([]s))", "model-4", "w1")),
    ])
    def test_unsound_schema_report_is_pinned(self, monkeypatch, schema, violations, first):
        # pinned from the campaign that evaluated formula by formula through
        # extension_mask and hotel_eval: counts and first violations, both halves
        monkeypatch.setitem(SCHEMAS, "unsound", parse(schema))
        report = run_soundness_fuzz(_cfg(seed=42, num_theorems=300, num_models=50))
        assert (report.evaluations, report.violations) == (78900, violations)
        assert report.first_violation == first

    def test_memory_stays_bounded(self):
        # per-model and per-session tables die with their campaign
        tracemalloc.start()
        try:
            run_soundness_fuzz(_cfg(seed=3, num_theorems=300, num_models=50))
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            first = tracemalloc.get_traced_memory()[0]
            for seed in (4, 5):
                run_soundness_fuzz(_cfg(seed=seed, num_theorems=300, num_models=50))
            gc.collect()
            last = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert last - first < 4096

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
