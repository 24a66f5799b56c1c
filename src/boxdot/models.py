"""Finite Kripke models with evidence, and the labelling engine.

A model is a finite world set, a finite evidence set where each piece of
evidence carries a partition of the worlds (its indistinguishability classes),
and a valuation.  ``[.]f`` holds at w when f holds throughout w's class under
the common refinement of *some* finite subset of the evidence; ``[]f`` uses
the full evidence set.

``_Evaluator`` labels each formula node once per structure with the mask of
points where it holds.  ``[]`` keeps each point whose ``[]`` class lies
inside the child's mask; ``[.]`` is the union of the owners of every
neighbourhood that lies inside it, memoised on the mask.  It has two entry
points: ``extension_mask`` labels one formula, recursively, memoised per
formula; ``label`` labels a batch that ``compile_formulas`` has interned into
one DAG, in a single loop over its nodes (the soundness fuzz labels each
model and each hotel structure this way once per campaign).  For a finite
model the points are the worlds and each neighbourhood is a class of some
evidence subset's refinement, owned by its own worlds; the classes are
found world by world (see ``_subset_classes``).  The Grand Hotel quotient
of ``boxdot.hotel`` is the other structure.  On finite models the two
operators collapse; evaluating ``[.]`` over every subset's classes instead
of the full evidence set is what lets the test suite observe that collapse
rather than assume it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

from .formulas import Atom, AttainKnow, Implies, Know, Not

__all__ = [
    "FiniteEvidenceModel",
    "validate_model",
    "indist",
    "satisfies",
    "extension",
    "FormulaDag",
    "compile_formulas",
    "model_from_json",
    "model_to_json",
]


@dataclass
class FiniteEvidenceModel:
    worlds: List[str]
    evidence: Dict[str, List[List[str]]]  # evidence id -> partition blocks
    valuation: Dict[str, List[str]]       # atom name -> worlds where true
    _ev: object = field(default=None, init=False, repr=False, compare=False)

    def evaluator(self):
        if self._ev is None:
            self._ev = _Evaluator(self)
        return self._ev


def validate_model(m):
    """Return a list of violation descriptions; empty means the model is valid."""
    violations = []
    if not m.worlds:
        violations.append("world set is empty")
    seen = set()
    for w in m.worlds:
        if w in seen:
            violations.append(f"duplicate world id {w!r}")
        seen.add(w)
    world_set = set(m.worlds)
    for eid, blocks in m.evidence.items():
        covered = set()
        for blk in blocks:
            if not blk:
                violations.append(f"evidence {eid!r} has an empty block")
            for w in blk:
                if w not in world_set:
                    violations.append(f"evidence {eid!r} mentions unknown world {w!r}")
                elif w in covered:
                    violations.append(f"evidence {eid!r}: world {w!r} occurs in two blocks")
                covered.add(w)
        missing = world_set - covered
        if missing:
            names = ", ".join(sorted(missing))
            violations.append(f"evidence {eid!r} does not cover worlds {{{names}}}")
    for atom, ws in m.valuation.items():
        for w in ws:
            if w not in world_set:
                violations.append(f"valuation of {atom!r} mentions unknown world {w!r}")
    return violations


class _Evaluator:
    """Labels each formula node once per structure with the mask of points
    where it holds: ``extension_mask`` one formula, memoised per formula,
    ``label`` every node of a ``compile_formulas`` DAG in one pass.

    The engine reads four things: ``full`` (every point), ``atom_mask``,
    ``box_classes`` (per point, the mask of its ``[]`` class) and
    ``attain_pairs``, (neighbourhood, owners) masks such that ``[.]f``
    holds at the owners of every neighbourhood inside f's mask.  This
    constructor builds them from a validated finite model, the pairs at
    the first ``[.]``; the Grand Hotel quotient (``boxdot.hotel``) is the
    other structure.
    """

    def __init__(self, m):
        violations = validate_model(m)
        if violations:
            raise ValueError("invalid model: " + "; ".join(violations))
        self.model = m
        self.index = {w: i for i, w in enumerate(m.worlds)}
        n = len(m.worlds)
        self.full = (1 << n) - 1
        # per evidence id: per world, mask of its block
        self.block_mask = {}
        for eid, blocks in m.evidence.items():
            per_world = [0] * n
            for blk in blocks:
                mask = 0
                for w in blk:
                    mask |= 1 << self.index[w]
                for w in blk:
                    per_world[self.index[w]] = mask
            self.block_mask[eid] = per_world
        self.atom_mask = {}
        for atom, ws in m.valuation.items():
            mask = 0
            for w in ws:
                mask |= 1 << self.index[w]
            self.atom_mask[atom] = mask
        self._class_cache = {}
        self._ext_cache = {}
        self.box_classes = self.class_masks(m.evidence)
        self.attain_pairs = None  # built at the first [.]
        self._attain_cache = {}   # child mask -> [.] mask

    def class_masks(self, eids):
        """Per-world masks of the common refinement over the given evidence ids."""
        key = frozenset(eids)
        cached = self._class_cache.get(key)
        if cached is not None:
            return cached
        n = len(self.model.worlds)
        masks = [self.full] * n
        for eid in key:
            per_world = self.block_mask.get(eid)
            if per_world is None:
                raise KeyError(f"unknown evidence id {eid!r}")
            masks = [a & b for a, b in zip(masks, per_world)]
        masks = tuple(masks)
        self._class_cache[key] = masks
        return masks

    def extension_mask(self, f):
        cached = self._ext_cache.get(f)
        if cached is not None:
            return cached
        if isinstance(f, Atom):
            mask = self.atom_mask.get(f.name, 0)
        elif isinstance(f, Not):
            mask = self.full & ~self.extension_mask(f.child)
        elif isinstance(f, Implies):
            mask = (self.full & ~self.extension_mask(f.left)) | self.extension_mask(f.right)
        elif isinstance(f, Know):
            child = self.extension_mask(f.child)
            mask = 0
            for i, cls in enumerate(self.box_classes):
                if cls & ~child == 0:
                    mask |= 1 << i
        elif isinstance(f, AttainKnow):
            child = self.extension_mask(f.child)
            mask = self._attain_cache.get(child)
            if mask is None:
                mask = self._attain(child)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._ext_cache[f] = mask
        return mask

    def _attain(self, child):
        """The ``[.]`` mask of a child mask: the owners of every neighbourhood
        inside it.  Callers look in ``_attain_cache`` first; this fills it."""
        if self.attain_pairs is None:
            self.attain_pairs = tuple((cls, cls) for cls in self._subset_classes())
        mask = 0
        for nbhd, owners in self.attain_pairs:
            if nbhd & ~child == 0:
                mask |= owners
        self._attain_cache[child] = mask
        return mask

    def label(self, dag):
        """One mask per node of ``dag`` (a ``FormulaDag``), in node order.

        Children come before their parents, so one forward loop labels every
        node; ``[]`` and ``[.]`` are memoised on the child's mask."""
        full, atom_mask, box_classes = self.full, self.atom_mask, self.box_classes
        attain_cache, know_cache = self._attain_cache, {}
        masks = []
        append = masks.append
        for op, a, b in dag.nodes:
            if op is Implies:
                append((full & ~masks[a]) | masks[b])
            elif op is Not:
                append(full & ~masks[a])
            elif op is Atom:
                append(atom_mask.get(a, 0))
            else:
                child = masks[a]
                if op is AttainKnow:
                    mask = attain_cache.get(child)
                    if mask is None:
                        mask = self._attain(child)
                else:
                    mask = know_cache.get(child)
                    if mask is None:
                        mask = 0
                        for i, cls in enumerate(box_classes):
                            if not cls & ~child:
                                mask |= 1 << i
                        know_cache[child] = mask
                append(mask)
        return masks

    def _subset_classes(self):
        """Distinct classes of the refinements of all evidence subsets.

        The classes holding world w are the meets of w's blocks over the
        evidence subsets, so closing {full} under meet with each of w's
        blocks in turn reaches all of them; the union over the worlds is
        every class.  The cost is still exponential in the number of worlds
        (a world can lie in up to 2^(n-1) classes), but not in the amount
        of evidence."""
        classes = set()
        for i in range(len(self.model.worlds)):
            reach = {self.full}
            for per_world in self.block_mask.values():
                block = per_world[i]
                reach |= {cls & block for cls in reach}
            classes |= reach
        return classes


class FormulaDag(NamedTuple):
    """Formulas interned into one DAG.  ``nodes`` holds one node per distinct
    subformula, children first, each as (class, a, b): (Atom, name, None),
    (Not / Know / AttainKnow, child id, None) or (Implies, left id, right
    id); ``roots`` holds each root formula's node id, in the order given."""

    nodes: List[Tuple]
    roots: List[int]


def compile_formulas(formulas):
    """Intern ``formulas`` into one ``FormulaDag``.

    Structurally equal subformulas get one node, so equal roots get equal
    ids.  The walk keeps its own stack and keys nodes on their children's
    ids, never hashing a formula, so trees of any depth compile."""
    formulas = list(formulas)  # keeps every object alive while done holds its id()
    nodes = []
    ids = {}   # node -> its id
    done = {}  # id() of a formula object -> its node id
    roots = []
    for root in formulas:
        stack = [root]
        while stack:
            f = stack[-1]
            if id(f) in done:
                stack.pop()
                continue
            op = type(f)
            if op is Atom:
                node = (Atom, f.name, None)
            elif op is Implies:
                a, b = done.get(id(f.left)), done.get(id(f.right))
                if b is None:
                    stack.append(f.right)
                if a is None:
                    stack.append(f.left)
                if a is None or b is None:
                    continue
                node = (Implies, a, b)
            elif op is Not or op is Know or op is AttainKnow:
                a = done.get(id(f.child))
                if a is None:
                    stack.append(f.child)
                    continue
                node = (op, a, None)
            else:
                raise TypeError(f"not a formula: {f!r}")
            stack.pop()
            i = ids.get(node)
            if i is None:
                i = ids[node] = len(nodes)
                nodes.append(node)
            done[id(f)] = i
        roots.append(done[id(root)])
    return FormulaDag(nodes, roots)


def indist(m, evidence_ids):
    """Common refinement of the partitions for the given evidence ids.

    The empty set yields the one-block partition.  Blocks and their members
    come out in `worlds` order.
    """
    ev = m.evaluator()
    masks = ev.class_masks(evidence_ids)
    blocks = []
    seen = set()
    for i, w in enumerate(m.worlds):
        mask = masks[i]
        if mask not in seen:
            seen.add(mask)
            blocks.append([u for j, u in enumerate(m.worlds) if mask >> j & 1])
    return blocks


def satisfies(m, w, f):
    """Truth of f at world w of m."""
    ev = m.evaluator()
    if w not in ev.index:
        raise KeyError(f"unknown world id {w!r}")
    return bool(ev.extension_mask(f) >> ev.index[w] & 1)


def extension(m, f):
    """The set of worlds of m where f holds, in `worlds` order."""
    ev = m.evaluator()
    mask = ev.extension_mask(f)
    return [w for i, w in enumerate(m.worlds) if mask >> i & 1]


def _strings(value):
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def model_from_json(text):
    """Read a model document: {"worlds": [...], "evidence": {...}, "valuation": {...}}.

    Raises ValueError unless worlds is a list of strings, evidence maps ids
    to lists of lists of strings, and valuation maps atoms to lists of
    strings."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("model document is not a JSON object")
    for key in ("worlds", "evidence", "valuation"):
        if key not in doc:
            raise ValueError(f"model document lacks {key!r}")
    worlds, evidence, valuation = doc["worlds"], doc["evidence"], doc["valuation"]
    if not _strings(worlds):
        raise ValueError("'worlds' must be a list of strings")
    if not (isinstance(evidence, dict)
            and all(isinstance(blocks, list) and all(_strings(blk) for blk in blocks)
                    for blocks in evidence.values())):
        raise ValueError("'evidence' must map ids to lists of lists of strings")
    if not (isinstance(valuation, dict) and all(_strings(ws) for ws in valuation.values())):
        raise ValueError("'valuation' must map atoms to lists of strings")
    return FiniteEvidenceModel(
        worlds=list(worlds),
        evidence={eid: [list(blk) for blk in blocks] for eid, blocks in evidence.items()},
        valuation={atom: list(ws) for atom, ws in valuation.items()},
    )


def model_to_json(m):
    return json.dumps(
        {"worlds": m.worlds, "evidence": m.evidence, "valuation": m.valuation},
        indent=2, sort_keys=True) + "\n"
