"""Random generators and the soundness fuzzing campaign.

The campaign generates theorems with the proof kernel and checks that every
one of them holds at every world of every random finite model and on a fixed
panel of Grand Hotel worlds in both variants.  Any violation means a bug in
the kernel or in one of the evaluators; a correct build reports zero.

The distinct theorems are compiled into one formula DAG (and, substituted,
into one per hotel variant), and each model and each hotel structure the
panel reaches is labelled once, so a verdict is one bit of a node's mask.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .formulas import parse, substitute
from .hotel import (
    VARIANT_I,
    VARIANT_II,
    EvalSession,
    HotelWorld,
    format_world,
)
from .models import FiniteEvidenceModel, compile_formulas
from .proofs import GenerationError, random_theorem

__all__ = [
    "derive_seed",
    "FuzzConfig",
    "FuzzReport",
    "random_model",
    "hotel_panel",
    "run_soundness_fuzz",
    "HOTEL_PANEL_SIZE",
]

HOTEL_PANEL_SIZE = 50
_PANEL_SEED = 0xB0D  # the panel is fixed, independent of the campaign seed


def derive_seed(*parts):
    """Stable integer sub-seed; avoids salted string hashing so identical
    seeds give identical campaigns across processes."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")

ATOM_POOL = ("p", "q", "r", "s")

# Theorems stay theorems under atom substitution, so the hotel cross-check
# maps the generator's atom pool onto hotel atoms.
HOTEL_ATOMS = {
    "I": {
        "p": parse("exists_vacant"),
        "q": parse("exists_occupied"),
        "r": parse("room_0_vacant"),
        "s": parse("room_1_occupied"),
    },
    "II": {
        "p": parse("exists_vacant"),
        "q": parse("exists_occupied"),
        "r": parse("room_0_infested"),
        "s": parse("room_1_occupied"),
    },
}


@dataclass(frozen=True)
class FuzzConfig:
    seed: int
    num_theorems: int
    num_models: int
    max_worlds: int = 6
    max_evidence: int = 4
    max_proof_steps: int = 8

    def __post_init__(self):
        if self.num_theorems < 0 or self.num_models < 0:
            raise ValueError("num_theorems and num_models must be >= 0")
        if not 1 <= self.max_worlds <= 8:
            raise ValueError("max_worlds must be in 1..8")
        if not 1 <= self.max_evidence <= 6:
            raise ValueError("max_evidence must be in 1..6")
        if self.max_proof_steps < 1:
            raise ValueError("max_proof_steps must be >= 1")


@dataclass(frozen=True)
class FuzzReport:
    theorems_checked: int
    models_checked: int
    evaluations: int
    skipped: int
    violations: int
    first_violation: Optional[tuple]  # (theorem text, model name, world)
    elapsed: float

    def to_dict(self, include_elapsed=False):
        # elapsed is wall-clock noise; leaving it out keeps --json output
        # byte-identical across runs with the same seed
        doc = {
            "theorems_checked": self.theorems_checked,
            "models_checked": self.models_checked,
            "evaluations": self.evaluations,
            "skipped": self.skipped,
            "violations": self.violations,
            "first_violation": (None if self.first_violation is None else
                                list(self.first_violation)),
        }
        if include_elapsed:
            doc["elapsed"] = self.elapsed
        return doc


# ---------- uniform random models ----------

@lru_cache(maxsize=None)
def _partitions(n):
    """All set partitions of range(n), each as a tuple of index tuples."""
    if n == 0:
        return ((),)
    out = []
    for smaller in _partitions(n - 1):
        x = n - 1
        out.append(smaller + ((x,),))
        for i, blk in enumerate(smaller):
            out.append(smaller[:i] + (blk + (x,),) + smaller[i + 1:])
    return tuple(out)


def random_model(seed, bounds):
    """Valid finite model with uniformly sampled partitions, deterministic
    per seed."""
    rng = random.Random(seed)
    n = rng.randint(1, bounds.max_worlds)
    worlds = [f"w{i + 1}" for i in range(n)]
    evidence = {}
    for k in range(rng.randint(1, bounds.max_evidence)):
        blocks = rng.choice(_partitions(n))
        evidence[f"e{k + 1}"] = [[worlds[i] for i in blk] for blk in blocks]
    valuation = {}
    for atom in ATOM_POOL:
        valuation[atom] = [w for w in worlds if rng.random() < 0.5]
    return FiniteEvidenceModel(worlds, evidence, valuation)


# ---------- the fixed hotel panel ----------

@lru_cache(maxsize=None)
def hotel_panel(variant_name, size=HOTEL_PANEL_SIZE):
    """Deterministic panel of valid worlds for one variant."""
    rng = random.Random(derive_seed(_PANEL_SEED, variant_name))
    panel = []
    for _ in range(size):
        if variant_name == "II":
            # bedbugs present means nobody home, so draw from one of the
            # two legal state mixes
            states = ("vacant", "infested") if rng.random() < 0.4 else ("occupied", "vacant")
        else:
            states = ("occupied", "vacant")
        default = rng.choice(states)
        exceptions = {}
        for room in rng.sample(range(8), rng.randint(0, 3)):
            others = [s for s in states if s != default]
            exceptions[room] = rng.choice(others)
        panel.append(HotelWorld(default, exceptions))
    return tuple(panel)


# ---------- the campaign ----------

def run_soundness_fuzz(cfg):
    """Generate theorems and models per cfg; evaluate every theorem at every
    world of every model and on the fixed hotel panels.  Nothing is
    skipped: ``skipped`` is always 0 and keeps the report's shape."""
    start = time.perf_counter()
    theorems = []
    bump = 0
    for i in range(cfg.num_theorems):
        while True:
            try:
                _, conclusion = random_theorem(derive_seed(cfg.seed, i, bump),
                                               cfg.max_proof_steps)
                break
            except GenerationError:
                bump += 1
        theorems.append(conclusion)

    evaluations = 0
    violations = 0
    first_violation = None

    # distinct conclusions share all evaluation work; counters stay nominal.
    # Equal conclusions get equal root ids, so a group is one root id.
    dag = compile_formulas(theorems)
    groups = {}  # root id -> [multiplicity, conclusion]
    for t, r in zip(theorems, dag.roots):
        if r in groups:
            groups[r][0] += 1
        else:
            groups[r] = [1, t]
    total = len(theorems)

    # each model, and its evaluator's memo, lives for one pass of the loop
    for k in range(cfg.num_models):
        m = random_model(derive_seed(cfg.seed, "model", k), cfg)
        ev = m.evaluator()
        nworlds = len(m.worlds)
        masks = ev.label(dag)
        evaluations += nworlds * total
        for r in [r for r in groups if masks[r] != ev.full]:
            mult, t = groups[r]
            mask = masks[r]
            bad = next(w for i, w in enumerate(m.worlds) if not mask >> i & 1)
            violations += nworlds * mult - bin(mask).count("1") * mult
            if first_violation is None:
                first_violation = (str(t), f"model-{k}", bad)

    # one DAG per variant; one label per hotel structure the panel reaches,
    # and one structure and point per panel world and set of room atoms
    session = EvalSession()
    for variant in (VARIANT_I, VARIANT_II):
        panel = hotel_panel(variant.name)
        mapping = HOTEL_ATOMS[variant.name]
        hts = [substitute(t, mapping) for _, t in groups.values()]
        hdag = compile_formulas(hts)
        labels = {}  # structure -> its masks
        places = {}  # room atoms -> per panel world, (masks, point)
        for (mult, t), ht, hr in zip(groups.values(), hts, hdag.roots):
            rooms = frozenset(session.room_atoms(ht, variant))
            place = places.get(rooms)
            if place is None:
                place = places[rooms] = []
                for w in panel:
                    structure, _, pt, pu = session.locate(variant, w, ht)
                    if structure not in labels:
                        labels[structure] = structure.label(hdag)
                    place.append((labels[structure], structure.point(pt, pu)))
            evaluations += mult * len(panel)
            for (hmasks, point), w in zip(place, panel):
                if not hmasks[hr] >> point & 1:
                    violations += mult
                    if first_violation is None:
                        first_violation = (str(t), f"hotel-{variant.name}", format_world(w))

    return FuzzReport(
        theorems_checked=len(theorems),
        models_checked=cfg.num_models,
        evaluations=evaluations,
        skipped=0,
        violations=violations,
        first_violation=first_violation,
        elapsed=time.perf_counter() - start,
    )
