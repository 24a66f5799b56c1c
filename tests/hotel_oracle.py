"""Reference Grand Hotel evaluator: the capped multiset search.

This is the evaluator ``boxdot.hotel`` used before it moved to the exact
quotient, kept unchanged as a slow oracle.  Abstract worlds are (exact
states of the named tracked rooms, a multiset of states of anonymous pinned
rooms, per-state counts of untracked rooms saturated at a cap, with exactly
one state cofinite).  ``[.]`` searches every multiset of j = 0..cap fresh
pinned rooms drawable from the counts; successors range over every valid
saturated count vector.  ``oracle_hotel_eval`` and ``oracle_confirm_witness``
take the same arguments and give the same kind of answers as
``hotel_eval`` and ``confirm_witness``.
"""

import itertools

from boxdot.formulas import Atom, AttainKnow, Implies, Know, Not, atom_names, modal_depth
from boxdot.hotel import EvidenceWitness, _parse_atom, validate_world

OMEGA = -1  # cofinite count marker


class OracleEval:
    """Evaluator for a fixed (variant, cap, named tracked room set).

    Abstract worlds are (named state tuple, anonymous pin counts per state,
    untracked counts per state).  Counts live in 0..cap with OMEGA marking
    the one cofinite state.
    """

    def __init__(self, v, cap, named_rooms):
        self.v = v
        self.cap = cap
        self.named_rooms = named_rooms  # sorted tuple of room indices
        self.nstates = len(v.states)
        self.state_index = {s: i for i, s in enumerate(v.states)}
        self.memo = {}
        self._succ_cache = {}
        self._atom_cache = {}
        self._pins_cache = {}

    # -- atoms --

    def atom_true(self, name, named, anon, counts):
        kind = self._atom_cache.get(name)
        if kind is None:
            kind = _parse_atom(name, self.v)
            if kind is None:
                raise ValueError(f"unknown hotel atom {name!r}")
            self._atom_cache[name] = kind
        if kind[0] == "room":
            _, room, state = kind
            return named[self.named_rooms.index(room)] == state
        _, state = kind
        si = self.state_index[state]
        if state in named or anon[si] > 0:
            return True
        return counts[si] != 0  # positive or OMEGA

    # -- successor vectors --

    def successors(self, named, anon):
        """All valid saturated count vectors a world agreeing on the tracked
        rooms may have.  Validity only depends on which states the tracked
        part makes present, so the enumeration is cached on that."""
        if "infested" not in self.v.states:
            key = ()
        else:
            occ = "occupied" in named or anon[self.state_index["occupied"]] > 0
            inf = "infested" in named or anon[self.state_index["infested"]] > 0
            key = (occ, inf)
        cached = self._succ_cache.get(key)
        if cached is not None:
            return cached
        vectors = []
        rng = range(self.cap + 1)
        for d in range(self.nstates):
            for finite in itertools.product(rng, repeat=self.nstates - 1):
                counts = list(finite[:d]) + [OMEGA] + list(finite[d:])
                counts = tuple(counts)
                if key != () and not self._tracked_plus_counts_valid(key, counts):
                    continue
                vectors.append(counts)
        self._succ_cache[key] = vectors
        return vectors

    def _tracked_plus_counts_valid(self, tracked_presence, counts):
        occ_tracked, inf_tracked = tracked_presence
        occ = occ_tracked or counts[self.state_index["occupied"]] != 0
        inf = inf_tracked or counts[self.state_index["infested"]] != 0
        return not (occ and inf)

    # -- pin multisets --

    def pin_multisets(self, counts, size):
        """Multisets of `size` fresh untracked rooms drawable from `counts`,
        as per-state count tuples."""
        key = (counts, size)
        cached = self._pins_cache.get(key)
        if cached is not None:
            return cached
        avail = [self.cap if c == OMEGA else c for c in counts]
        out = []

        def rec(i, left, acc):
            if i == self.nstates - 1:
                if left <= avail[i]:
                    out.append(tuple(acc + [left]))
                return
            for take in range(min(left, avail[i]) + 1):
                rec(i + 1, left - take, acc + [take])

        rec(0, size, [])
        self._pins_cache[key] = out
        return out

    # -- evaluation --

    def eval(self, f, named, anon, counts):
        key = (f, named, anon, counts)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, Atom):
            value = self.atom_true(f.name, named, anon, counts)
        elif isinstance(f, Not):
            value = not self.eval(f.child, named, anon, counts)
        elif isinstance(f, Implies):
            value = ((not self.eval(f.left, named, anon, counts))
                     or self.eval(f.right, named, anon, counts))
        elif isinstance(f, Know):
            # agreement on every room pins the world exactly
            value = self.eval(f.child, named, anon, counts)
        elif isinstance(f, AttainKnow):
            value = self.attain(f.child, named, anon, counts) is not None
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.memo[key] = value
        return value

    def attain(self, child, named, anon, counts):
        """Smallest number j of fresh pinned rooms (with some pinnable state
        multiset) making the universal check succeed, or None."""
        for j in range(self.cap + 1):
            for pins in self.pin_multisets(counts, j):
                anon2 = tuple(a + p for a, p in zip(anon, pins))
                if self.universal(child, named, anon2):
                    return j
        return None

    def universal(self, child, named, anon):
        return all(self.eval(child, named, anon, succ)
                   for succ in self.successors(named, anon))


def default_cap(f):
    """The oracle's saturation cap b0 = modal depth + #exists atoms + 2."""
    exists_atoms = sum(1 for a in atom_names(f) if a.startswith("exists_"))
    return modal_depth(f) + exists_atoms + 2


def _context(v, w, f, cap):
    violation = validate_world(v, w)
    if violation is not None:
        raise ValueError(f"invalid world: {violation}")
    atoms = {}
    for name in atom_names(f):
        parsed = _parse_atom(name, v)
        if parsed is None:
            raise ValueError(f"unknown hotel atom {name!r}")
        atoms[name] = parsed
    if cap is None:
        cap = default_cap(f)
    named_rooms = set(w.exceptions)
    for kind in atoms.values():
        if kind[0] == "room":
            named_rooms.add(kind[1])
    named_rooms = tuple(sorted(named_rooms))
    ev = OracleEval(v, cap, named_rooms)
    named = tuple(w.exceptions.get(r, w.default) for r in named_rooms)
    anon = (0,) * ev.nstates
    counts = tuple(OMEGA if s == w.default else 0 for s in v.states)
    return ev, named, anon, counts


def oracle_hotel_eval(v, w, f, cap=None):
    """(verdict, witness) as ``hotel_eval`` gives them, by the capped search."""
    ev, named, anon, counts = _context(v, w, f, cap)
    if isinstance(f, AttainKnow):
        j = ev.attain(f.child, named, anon, counts)
        if j is None:
            return False, None
        return True, EvidenceWitness(frozenset(ev.named_rooms), j)
    return ev.eval(f, named, anon, counts), None


def oracle_confirm_witness(v, w, f, witness, cap=None):
    """``confirm_witness`` by the capped search: some multiset of exactly
    fresh_count fresh rooms makes the universal check succeed."""
    ev, named, anon, counts = _context(v, w, f, cap)
    if frozenset(ev.named_rooms) != witness.tracked:
        raise ValueError("witness tracked set does not match the world/formula")
    for pins in ev.pin_multisets(counts, witness.fresh_count):
        anon2 = tuple(a + p for a, p in zip(anon, pins))
        if ev.universal(f.child, named, anon2):
            return True
    return False
