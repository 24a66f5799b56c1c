"""Reference finite-model evaluator: the subset enumeration.

This is the evaluator ``boxdot.models`` used before it moved to the
partition closure, kept unchanged apart from its name as a slow oracle.
``[.]`` walks all 2^|E| subsets of the evidence set at every ``[.]`` node and
takes the union, over each subset's common refinement, of the worlds whose
class lies inside the child's extension; ``[]`` does the same for the full
evidence set alone.  ``oracle_extension_mask`` answers as
``m.evaluator().extension_mask`` does.
"""

from boxdot.formulas import Atom, AttainKnow, Implies, Know, Not
from boxdot.models import validate_model


class OracleEvaluator:
    """Bitmask evaluation over a validated model, memoized per formula."""

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
        self.evidence_ids = tuple(m.evidence)
        self.atom_mask = {}
        for atom, ws in m.valuation.items():
            mask = 0
            for w in ws:
                mask |= 1 << self.index[w]
            self.atom_mask[atom] = mask
        self._class_cache = {}
        self._ext_cache = {}

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
            classes = self.class_masks(self.evidence_ids)
            mask = 0
            for i, cls in enumerate(classes):
                if cls & ~child == 0:
                    mask |= 1 << i
        elif isinstance(f, AttainKnow):
            child = self.extension_mask(f.child)
            mask = 0
            eids = self.evidence_ids
            for bits in range(1 << len(eids)):
                subset = [eids[k] for k in range(len(eids)) if bits >> k & 1]
                classes = self.class_masks(subset)
                for i, cls in enumerate(classes):
                    if cls & ~child == 0:
                        mask |= 1 << i
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._ext_cache[f] = mask
        return mask



def oracle_extension_mask(m, f):
    """World mask of f on m, bit i for m.worlds[i]."""
    return OracleEvaluator(m).extension_mask(f)
