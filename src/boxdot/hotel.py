"""Exact satisfaction over the two infinite Grand Hotel model families.

Worlds are room-state functions on the natural numbers, presented cofinitely
(a default state plus finitely many exceptions).  Examining room r is one
piece of evidence: two worlds are r-indistinguishable when room r has the
same state in both.  Variant I has states occupied/vacant; variant II adds
infested, with the global rule that an infested room anywhere means no
occupied rooms at all.

This is the one setting where ``[.]`` and ``[]`` genuinely differ.  Because
agreement on *all* rooms pins the world completely, ``[]f`` holds exactly
where f does; ``[.]f`` asks for a finite set F of rooms whose examination
guarantees f across every valid world agreeing on F.

Evaluation strategy: an exact finite quotient, labelled by the engine of
``boxdot.models``.  Untracked rooms are interchangeable, so relative to
the tracked rooms (the world's exceptions and the rooms f names) a world
is abstracted as the named rooms' states plus a point (t, u): the sets of
states present among the tracked and among the untracked rooms.  Atoms
read the named states and whether a state occurs; validity reads which
states occur; and ``[.]`` need only examine the tracked rooms plus fresh
ones, where a fresh room matters only through a state not yet tracked.
The named states never change, so room atoms are constants, and one
structure per variant and set of true room atoms labels each formula node
once over at most 2^(2k) points for k states.  ``[]`` is the identity;
``[.]f`` holds at (t, u) when some t2 with t <= t2 <= t | u has its whole
neighbourhood, the valid points (t2, u2), inside f's label.  A true
``[.]`` root tries new states fewest first for a minimal fresh_count,
which never exceeds k, so nothing bounds the rooms examined, the modal
depth or the number of atoms, as in the paper.  ``tests/hotel_oracle.py``
keeps the former search over capped room counts as the reference.

Atom spelling: ``exists_<state>`` and ``room_<index>_<state>``.
World literals: ``default=<state>; <room>=<state>; ...``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

from .formulas import AttainKnow, atom_names, parse
from .models import _Evaluator

__all__ = [
    "HotelVariant",
    "VARIANT_I",
    "VARIANT_II",
    "VARIANTS",
    "HotelWorld",
    "EvidenceWitness",
    "EvalSession",
    "CounterexampleReport",
    "parse_world_literal",
    "format_world",
    "validate_world",
    "hotel_eval",
    "confirm_witness",
    "counterexample_report",
]

@dataclass(frozen=True)
class HotelVariant:
    name: str
    states: Tuple[str, ...]


VARIANT_I = HotelVariant("I", ("occupied", "vacant"))
VARIANT_II = HotelVariant("II", ("occupied", "vacant", "infested"))
VARIANTS = {"I": VARIANT_I, "II": VARIANT_II}


@dataclass
class HotelWorld:
    default: str
    exceptions: Dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class EvidenceWitness:
    """Normalized finite evidence set: the named tracked rooms plus a number
    of interchangeable fresh rooms."""

    tracked: frozenset
    fresh_count: int


_WORLD_RE = re.compile(r"^\s*default\s*=\s*([a-z]+)\s*$")
_ROOM_RE = re.compile(r"^\s*(\d+)\s*=\s*([a-z]+)\s*$")


def parse_world_literal(text):
    """Parse ``default=<state>; <room>=<state>; ...`` into a HotelWorld."""
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty world literal")
    m = _WORLD_RE.match(parts[0])
    if m is None:
        raise ValueError(f"world literal must start with default=<state>: {text!r}")
    exceptions = {}
    for part in parts[1:]:
        rm = _ROOM_RE.match(part)
        if rm is None:
            raise ValueError(f"bad room assignment {part.strip()!r}")
        room = int(rm.group(1))
        if room in exceptions:
            raise ValueError(f"room {room} assigned twice")
        exceptions[room] = rm.group(2)
    return HotelWorld(m.group(1), exceptions)


def format_world(w):
    parts = [f"default={w.default}"]
    for room in sorted(w.exceptions):
        parts.append(f"{room}={w.exceptions[room]}")
    return "; ".join(parts)


def validate_world(v, w):
    """None when the world is a canonical, variant-valid presentation;
    otherwise a description of the violation."""
    if w.default not in v.states:
        return f"default state {w.default!r} is not a variant-{v.name} state"
    for room, state in w.exceptions.items():
        if not isinstance(room, int) or room < 0:
            return f"room index {room!r} is not a non-negative integer"
        if state not in v.states:
            return f"state {state!r} of room {room} is not a variant-{v.name} state"
        if state == w.default:
            return f"room {room} maps to the default state (non-canonical)"
    if "infested" in v.states:
        states = set(w.exceptions.values())
        infested = w.default == "infested" or "infested" in states
        occupied = w.default == "occupied" or "occupied" in states
        if infested and occupied:
            return "infested rooms and occupied rooms cannot coexist"
    return None


# ---------- hotel atoms ----------

def _parse_atom(name, v):
    if name.startswith("exists_"):
        state = name[len("exists_"):]
        if state not in v.states:
            return None
        return ("exists", state)
    m = re.fullmatch(r"room_(\d+)_([a-z]+)", name)
    if m and m.group(2) in v.states:
        return ("room", int(m.group(1)), m.group(2))
    return None


# ---------- the quotient ----------

@lru_cache(maxsize=None)
def _frame(v):
    """One variant's quotient: the number k of states, each state's bit,
    the valid points, the ``exists_<state>`` masks, each tracked set's
    neighbourhood (the valid points with that t) and the ``[.]`` pairs."""
    k = len(v.states)
    state_bit = {s: 1 << i for i, s in enumerate(v.states)}
    # guests and bedbugs never share a hotel
    clash = (state_bit["occupied"] | state_bit["infested"]
             if "infested" in state_bit else 0)
    sets = range(1 << k)
    valid = [(t, u) for t in sets for u in sets
             if u and (not clash or (t | u) & clash != clash)]

    def points(keep):
        mask = 0
        for t, u in valid:
            if keep(t, u):
                mask |= 1 << (t << k | u)
        return mask

    nbhd = tuple(points(lambda t, u: t == t2) for t2 in sets)
    # fresh rooms of states in u move the tracked set from t to any t2
    # between t and t | u, so (t, u) owns every such t2
    pairs = tuple((nbhd[t2], owners) for t2 in sets
                  if (owners := points(lambda t, u: t & ~t2 == 0 and t2 & ~(t | u) == 0)))
    exists = {f"exists_{s}": points(lambda t, u: (t | u) & bit)
              for s, bit in state_bit.items()}
    return k, state_bit, points(lambda t, u: True), exists, nbhd, pairs


class _Structure(_Evaluator):
    """A variant's quotient for the labelling engine, with the room atoms
    in ``true_rooms`` true at every point and the others at none.  ``[]``
    classes are single points: agreeing on every room pins a world.  It
    inherits both entry points, ``extension_mask`` and ``label``."""

    def __init__(self, v, true_rooms):
        self.k, self.state_bit, self.full, exists, self.nbhd, self.attain_pairs = _frame(v)
        self.atom_mask = dict(exists, **dict.fromkeys(true_rooms, self.full))
        self.box_classes = tuple(1 << i for i in range(1 << 2 * self.k))
        self._ext_cache = {}
        self._attain_cache = {}

    def point(self, t, u):
        """The bit index of the point (t, u) in this structure's masks."""
        return t << self.k | u

    def fewest_fresh(self, child, t, u):
        """Fewest fresh rooms whose states, added to the tracked ones, leave
        only points inside ``child``, or None.  A fresh room of a state
        already tracked changes nothing, so only new states are tried."""
        new = [bit for bit in self.state_bit.values() if u & bit and not t & bit]
        for j in range(len(new) + 1):
            for pins in itertools.combinations(new, j):
                if self.nbhd[t | sum(pins)] & ~child == 0:
                    return j
        return None


class EvalSession:
    """Structures and room atoms that persist across calls.

    Labelling is pure, so sharing is only a cache; use one session when
    checking many formulas against many worlds (the soundness fuzz does).
    A structure serves every world and formula with its variant and true
    room atoms, and labels each formula node once.  ``locate`` places a
    world for a formula; ``hotel_eval``, ``confirm_witness`` and the fuzz
    all find points through it."""

    def __init__(self):
        self._structures = {}
        self._rooms = {}

    def room_atoms(self, f, v):
        """f's room atoms as (name, room, state); ValueError if f has an
        atom that is not a hotel atom of the variant."""
        rooms = self._rooms.get((f, v.name))
        if rooms is None:
            rooms = []
            for name in atom_names(f):
                kind = _parse_atom(name, v)
                if kind is None:
                    raise ValueError(
                        f"unknown hotel atom {name!r}; expected exists_<state> or "
                        f"room_<index>_<state> over variant-{v.name} states {v.states}")
                if kind[0] == "room":
                    rooms.append((name,) + kind[1:])
            rooms = self._rooms[f, v.name] = tuple(rooms)
        return rooms

    def structure(self, v, true_rooms):
        key = (v.name, true_rooms)
        if key not in self._structures:
            self._structures[key] = _Structure(v, true_rooms)
        return self._structures[key]

    def locate(self, v, w, f):
        """f's structure at w, the named rooms (w's exceptions and f's room
        atoms) and w's point (t, u): t the named rooms' states, u the
        default.  Formulas with the same room atoms share all four."""
        violation = validate_world(v, w)
        if violation is not None:
            raise ValueError(f"invalid world: {violation}")
        named_rooms = set(w.exceptions)
        true_rooms = set()
        for name, room, state in self.room_atoms(f, v):
            named_rooms.add(room)
            if w.exceptions.get(room, w.default) == state:
                true_rooms.add(name)
        structure = self.structure(v, frozenset(true_rooms))
        t = 0
        for room in named_rooms:
            t |= structure.state_bit[w.exceptions.get(room, w.default)]
        return structure, frozenset(named_rooms), t, structure.state_bit[w.default]


def hotel_eval(v, w, f, session=None):
    """Decide f at world w of the variant's infinite model.

    Returns (verdict, witness); the witness is present only when f itself is
    a ``[.]`` formula that holds, and then records the normalized evidence
    set: all named tracked rooms plus a minimal count of fresh rooms.
    """
    structure, rooms, t, u = (session or EvalSession()).locate(v, w, f)
    if isinstance(f, AttainKnow):
        j = structure.fewest_fresh(structure.extension_mask(f.child), t, u)
        if j is None:
            return False, None
        return True, EvidenceWitness(rooms, j)
    return bool(structure.extension_mask(f) >> structure.point(t, u) & 1), None


def confirm_witness(v, w, f, witness):
    """Re-run the inner universal check of ``[.]`` with exactly the witness's
    evidence set (tracked rooms plus fresh_count fresh rooms).  Every fresh
    room has the default state, so any positive count acts like one."""
    if not isinstance(f, AttainKnow):
        raise ValueError("witnesses only accompany [.] formulas")
    structure, rooms, t, u = EvalSession().locate(v, w, f)
    if rooms != witness.tracked:
        raise ValueError("witness tracked set does not match the world/formula")
    if witness.fresh_count < 0:
        return False
    if witness.fresh_count:
        t |= u
    return structure.nbhd[t] & ~structure.extension_mask(f.child) == 0


# ---------- the two bundled counterexamples ----------

@dataclass(frozen=True)
class CounterexampleReport:
    name: str
    variant: str
    world: str
    formula: str
    verdict: bool
    parts: Tuple[Tuple[str, bool], ...]

    def to_dict(self):
        return {
            "name": self.name,
            "variant": self.variant,
            "world": self.world,
            "formula": self.formula,
            "verdict": self.verdict,
            "parts": [{"formula": t, "verdict": v} for t, v in self.parts],
        }


_COUNTEREXAMPLES = {
    # Negative introspection !([.]f) -> [.](!([.]f)) fails at the fully
    # occupied variant-I hotel with f = exists_vacant.
    "negative-introspection": (
        VARIANT_I,
        "default=occupied",
        "!([.]exists_vacant) -> [.](!([.]exists_vacant))",
        (
            "exists_vacant",
            "[.]exists_vacant",
            "!([.]exists_vacant)",
            "[.](!([.]exists_vacant))",
            "!([.](!([.]exists_vacant)))",
            "[](!exists_vacant)",
        ),
    ),
    # The weaker f -> (!([.]f) -> [.](!([.]f))) fails at the all-vacant
    # variant-II hotel with f = !exists_occupied: only a bedbug sighting
    # could finitely certify emptiness, and there is none to point at.
    "weak-negative-introspection": (
        VARIANT_II,
        "default=vacant",
        "(!exists_occupied) -> (!([.](!exists_occupied)) -> [.](!([.](!exists_occupied))))",
        (
            "!exists_occupied",
            "[.](!exists_occupied)",
            "!([.](!exists_occupied))",
            "[.](!([.](!exists_occupied)))",
        ),
    ),
}


def counterexample_report(which):
    """Reproduce one of the two bundled counterexamples, with per-subformula
    verdicts recomputed by hotel_eval."""
    if which not in _COUNTEREXAMPLES:
        known = ", ".join(sorted(_COUNTEREXAMPLES))
        raise ValueError(f"unknown report {which!r}; known: {known}")
    v, world_text, formula_text, part_texts = _COUNTEREXAMPLES[which]
    w = parse_world_literal(world_text)
    parts = []
    for text in part_texts:
        verdict, _ = hotel_eval(v, w, parse(text))
        parts.append((text, verdict))
    verdict, _ = hotel_eval(v, w, parse(formula_text))
    return CounterexampleReport(
        name=which,
        variant=v.name,
        world=world_text,
        formula=formula_text,
        verdict=verdict,
        parts=tuple(parts),
    )
