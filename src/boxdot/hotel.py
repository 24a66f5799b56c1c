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

Evaluation strategy: an exact finite quotient.  Untracked rooms are
interchangeable, so relative to a set of tracked rooms a world is
abstracted as (the states of the named tracked rooms, the set of states
present among all tracked rooms, the set of states present among the
untracked rooms).  No formula tells apart two worlds with the same
abstraction: atoms read the named states and whether a state occurs at
all; validity reads only which states occur; and for ``[.]`` it is enough
to search F = all tracked rooms plus j fresh untracked rooms, since
enlarging F only shrinks the agreement class and a fresh room matters only
through its state, so one whose state is already tracked changes nothing.
``[.]f`` thus tries sets S of untracked, not yet tracked states, fewest
first, and holds when f holds at every valid successor of tracked + S;
successors keep the tracked part and may have any nonempty set of
untracked states.  The minimal fresh_count is the size of the smallest S
that works.  Since |S| never exceeds the number of states, the search is
finite without any bound on the number of rooms examined, as in the paper.
``tests/hotel_oracle.py`` keeps the former search over capped room counts
and pin multisets as the reference.

Atom spelling: ``exists_<state>`` and ``room_<index>_<state>``.
World literals: ``default=<state>; <room>=<state>; ...``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .formulas import (
    Atom,
    AttainKnow,
    CapacityError,
    Implies,
    Know,
    Not,
    atom_names,
    modal_depth,
    parse,
)

__all__ = [
    "HotelVariant",
    "VARIANT_I",
    "VARIANT_II",
    "VARIANTS",
    "HotelWorld",
    "EvidenceWitness",
    "EvalSession",
    "CounterexampleReport",
    "MODAL_DEPTH_CAP",
    "ATOM_COUNT_CAP",
    "parse_world_literal",
    "format_world",
    "validate_world",
    "hotel_eval",
    "confirm_witness",
    "counterexample_report",
]

MODAL_DEPTH_CAP = 4
ATOM_COUNT_CAP = 6

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


def _classify_atoms(f, v):
    atoms = {}
    for name in atom_names(f):
        parsed = _parse_atom(name, v)
        if parsed is None:
            raise ValueError(
                f"unknown hotel atom {name!r}; expected exists_<state> or "
                f"room_<index>_<state> over variant-{v.name} states {v.states}")
        atoms[name] = parsed
    return atoms


# ---------- the quotient ----------

class _HotelEval:
    """Evaluator for a fixed (variant, named tracked room set).

    Abstract worlds are (named state tuple, set of states present among the
    tracked rooms, set of states present among the untracked rooms), the two
    sets as bitmasks over ``v.states``.  The memo table is a cache of pure
    results, so one evaluator may serve many formulas and worlds that share
    the named room set.
    """

    def __init__(self, v, named_rooms):
        self.v = v
        self.named_rooms = named_rooms  # sorted tuple of room indices
        self.state_bit = {s: 1 << i for i, s in enumerate(v.states)}
        # guests and bedbugs never share a hotel
        self.clash = (self.state_bit["occupied"] | self.state_bit["infested"]
                      if "infested" in v.states else 0)
        self.memo = {}
        self._succ_cache = {}
        self._atom_cache = {}

    # -- atoms --

    def atom_true(self, name, named, tracked, untracked):
        kind = self._atom_cache.get(name)
        if kind is None:
            kind = _parse_atom(name, self.v)
            if kind is None:
                raise ValueError(f"unknown hotel atom {name!r}")
            self._atom_cache[name] = kind
        if kind[0] == "room":
            _, room, state = kind
            return named[self.named_rooms.index(room)] == state
        return (tracked | untracked) & self.state_bit[kind[1]] != 0

    # -- successor worlds --

    def successors(self, tracked):
        """Untracked-state sets of the valid worlds agreeing on the tracked
        rooms: any nonempty set of states.  Validity depends on the tracked
        part only through its occupied/infested states, so the list is cached
        on those."""
        key = tracked & self.clash
        masks = self._succ_cache.get(key)
        if masks is None:
            masks = [m for m in range(1, 1 << len(self.v.states))
                     if not self.clash or (key | m) & self.clash != self.clash]
            self._succ_cache[key] = masks
        return masks

    # -- evaluation --

    def eval(self, f, named, tracked, untracked):
        key = (f, named, tracked, untracked)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, Atom):
            value = self.atom_true(f.name, named, tracked, untracked)
        elif isinstance(f, Not):
            value = not self.eval(f.child, named, tracked, untracked)
        elif isinstance(f, Implies):
            value = ((not self.eval(f.left, named, tracked, untracked))
                     or self.eval(f.right, named, tracked, untracked))
        elif isinstance(f, Know):
            # agreement on every room pins the world exactly
            value = self.eval(f.child, named, tracked, untracked)
        elif isinstance(f, AttainKnow):
            value = self.attain(f.child, named, tracked, untracked) is not None
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.memo[key] = value
        return value

    def attain(self, child, named, tracked, untracked):
        """Smallest number of fresh rooms whose states, added to the tracked
        ones, make the universal check succeed, or None.  A fresh room of a
        state already tracked changes nothing, so only new states are tried,
        fewest first."""
        new = [b for b in self.state_bit.values() if untracked & b and not tracked & b]
        for j in range(len(new) + 1):
            for pins in itertools.combinations(new, j):
                if self.universal(child, named, tracked | sum(pins)):
                    return j
        return None

    def universal(self, child, named, tracked):
        return all(self.eval(child, named, tracked, succ)
                   for succ in self.successors(tracked))


class EvalSession:
    """Pool of evaluators whose memo tables persist across calls.

    Evaluation is pure, so sharing is only a cache; use one session when
    checking many formulas against many worlds (the soundness fuzz does).
    The session also keeps each formula's classified atoms, so a formula
    checked at many worlds parses its atom names once."""

    def __init__(self):
        self._pool = {}
        self._atoms = {}

    def atoms(self, f, v):
        key = (f, v.name)
        atoms = self._atoms.get(key)
        if atoms is None:
            atoms = self._atoms[key] = _classify_atoms(f, v)
        return atoms

    def evaluator(self, v, named_rooms):
        key = (v.name, named_rooms)
        ev = self._pool.get(key)
        if ev is None:
            ev = _HotelEval(v, named_rooms)
            self._pool[key] = ev
        return ev


def _context(v, w, f, session=None):
    violation = validate_world(v, w)
    if violation is not None:
        raise ValueError(f"invalid world: {violation}")
    depth = modal_depth(f)
    names = atom_names(f)
    if depth > MODAL_DEPTH_CAP:
        raise CapacityError(f"modal depth {depth} exceeds the cap of {MODAL_DEPTH_CAP}")
    if len(names) > ATOM_COUNT_CAP:
        raise CapacityError(f"{len(names)} atoms exceed the cap of {ATOM_COUNT_CAP}")
    session = session or EvalSession()
    atoms = session.atoms(f, v)
    named_rooms = set(w.exceptions)
    for kind in atoms.values():
        if kind[0] == "room":
            named_rooms.add(kind[1])
    named_rooms = tuple(sorted(named_rooms))
    ev = session.evaluator(v, named_rooms)
    named = tuple(w.exceptions.get(r, w.default) for r in named_rooms)
    tracked = 0
    for s in named:
        tracked |= ev.state_bit[s]
    return ev, named, tracked, ev.state_bit[w.default]


def hotel_eval(v, w, f, session=None):
    """Decide f at world w of the variant's infinite model.

    Returns (verdict, witness); the witness is present only when f itself is
    a ``[.]`` formula that holds, and then records the normalized evidence
    set: all named tracked rooms plus a minimal count of fresh rooms.
    """
    ev, named, tracked, untracked = _context(v, w, f, session)
    if isinstance(f, AttainKnow):
        j = ev.attain(f.child, named, tracked, untracked)
        if j is None:
            return False, None
        return True, EvidenceWitness(frozenset(ev.named_rooms), j)
    return ev.eval(f, named, tracked, untracked), None


def confirm_witness(v, w, f, witness):
    """Re-run the inner universal check of ``[.]`` with exactly the witness's
    evidence set (tracked rooms plus fresh_count fresh rooms).  Every fresh
    room has the default state, so any positive count acts like one."""
    if not isinstance(f, AttainKnow):
        raise ValueError("witnesses only accompany [.] formulas")
    ev, named, tracked, untracked = _context(v, w, f)
    if frozenset(ev.named_rooms) != witness.tracked:
        raise ValueError("witness tracked set does not match the world/formula")
    if witness.fresh_count < 0:
        return False
    if witness.fresh_count:
        tracked |= untracked
    return ev.universal(f.child, named, tracked)


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
