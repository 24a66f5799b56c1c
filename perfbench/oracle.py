"""Independent answers the benchmark checks the program against.

``NaiveModel`` evaluates the tuple formulas of ``gen`` over a finite
evidence model with plain set semantics, enumerating every subset of the
evidence set explicitly.  It shares no code with ``boxdot.models`` and is
slow on purpose; the workloads call it only outside their timed phases.

The hand-written tables below hold the known answers for the Grand Hotel
examples of the paper and README, the two bundled counterexamples and the
bundled proof corpus.
"""

from __future__ import annotations

from itertools import combinations

from gen import show


class NaiveModel:
    def __init__(self, doc):
        self.worlds = list(doc["worlds"])
        self.all = frozenset(self.worlds)
        self.evidence = {eid: [frozenset(b) for b in blocks]
                         for eid, blocks in doc["evidence"].items()}
        self.valuation = {a: frozenset(ws) for a, ws in doc["valuation"].items()}
        eids = list(self.evidence)
        subsets = [s for k in range(len(eids) + 1) for s in combinations(eids, k)]
        # cell[S][w]: the worlds that agree with w on every piece in S
        self.cells = [{w: self._cell(s, w) for w in self.worlds} for s in subsets]
        self.full_cells = self.cells[-1]
        self.memo = {}

    def _cell(self, subset, w):
        cell = self.all
        for eid in subset:
            cell = cell & next(b for b in self.evidence[eid] if w in b)
        return cell

    def ext(self, f):
        """Set of worlds where f holds."""
        got = self.memo.get(f)
        if got is not None:
            return got
        tag = f[0]
        if tag == "atom":
            out = self.valuation.get(f[1], frozenset())
        elif tag == "not":
            out = self.all - self.ext(f[1])
        elif tag == "imp":
            out = (self.all - self.ext(f[1])) | self.ext(f[2])
        elif tag == "box":
            inner = self.ext(f[1])
            out = frozenset(w for w in self.worlds if self.full_cells[w] <= inner)
        elif tag == "dot":
            inner = self.ext(f[1])
            out = frozenset(w for w in self.worlds
                            if any(cells[w] <= inner for cells in self.cells))
        else:
            raise ValueError(f"not a core formula: {f!r}")
        self.memo[f] = out
        return out

    def extension(self, f):
        """Worlds where f holds, in model order."""
        e = self.ext(f)
        return [w for w in self.worlds if w in e]


# Grand Hotel queries with known verdicts: (variant, world, formula,
# verdict, witness).  A witness is (tracked rooms, fresh_count) and is given
# only for a true [.] root.
P, Q = ("atom", "exists_vacant"), ("atom", "exists_occupied")
HOTEL_EXAMPLES = (
    # one vacant room is a witness for attainable vacancy knowledge
    ("I", "default=occupied; 7=vacant", ("dot", P), True, ([7], 0)),
    ("I", "default=occupied; 7=vacant", ("dot", ("atom", "room_7_vacant")), True, ([7], 0)),
    ("I", "default=occupied; 7=vacant", ("atom", "room_6_vacant"), False, None),
    # a full hotel knows it has no vacancies but cannot attain that knowledge
    ("I", "default=occupied", ("not", ("dot", P)), True, None),
    ("I", "default=occupied", ("box", ("not", P)), True, None),
    ("I", "default=occupied", ("dot", ("not", P)), False, None),
    ("I", "default=occupied", ("not", ("dot", ("not", ("dot", P)))), True, None),
    # opening one fresh door of an all-vacant hotel shows a vacancy
    ("I", "default=vacant", ("dot", P), True, ([], 1)),
    # only a bedbug sighting finitely certifies emptiness
    ("II", "default=vacant", ("not", ("dot", ("not", Q))), True, None),
    ("II", "default=vacant", ("dot", ("not", ("dot", ("not", Q)))), False, None),
    ("II", "default=vacant; 3=infested", ("dot", ("not", Q)), True, ([3], 0)),
)

# The two bundled counterexamples, subformula by subformula.
COUNTEREXAMPLES = [
    {
        "name": "negative-introspection", "variant": "I", "world": "default=occupied",
        "formula": "!([.]exists_vacant) -> [.](!([.]exists_vacant))", "verdict": False,
        "parts": [
            {"formula": "exists_vacant", "verdict": False},
            {"formula": "[.]exists_vacant", "verdict": False},
            {"formula": "!([.]exists_vacant)", "verdict": True},
            {"formula": "[.](!([.]exists_vacant))", "verdict": False},
            {"formula": "!([.](!([.]exists_vacant)))", "verdict": True},
            {"formula": "[](!exists_vacant)", "verdict": True},
        ],
    },
    {
        "name": "weak-negative-introspection", "variant": "II", "world": "default=vacant",
        "formula": ("(!exists_occupied) -> (!([.](!exists_occupied)) -> "
                    "[.](!([.](!exists_occupied))))"),
        "verdict": False,
        "parts": [
            {"formula": "!exists_occupied", "verdict": True},
            {"formula": "[.](!exists_occupied)", "verdict": False},
            {"formula": "!([.](!exists_occupied))", "verdict": True},
            {"formula": "[.](!([.](!exists_occupied)))", "verdict": False},
        ],
    },
]

_p = ("atom", "p")
# Conclusions of the bundled corpus, as stated in the paper and README.
CORPUS_CONCLUSIONS = {
    "lemma1": show(("imp", ("box", _p), ("box", ("box", _p)))),
    "lemma2": show(("imp", ("not", ("dot", _p)), ("box", ("not", ("dot", _p))))),
    "att-truth": show(("imp", ("dot", _p), _p)),
    "box-nec": show(("box", ("imp", ("box", _p), _p))),
}
