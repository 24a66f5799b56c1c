"""Seeded input generators for the benchmark, independent of ``boxdot``.

Formulas are plain tuples so that the generators and the oracle share no
code with the program under test:

    ("atom", name)   ("not", f)   ("imp", f, g)   ("box", f)   ("dot", f)

``box`` is full knowledge ``[]`` and ``dot`` attainable knowledge ``[.]``.
The sugared forms ``("and", f, g)``, ``("or", f, g)`` and ``("iff", f, g)``
appear only in ``parse`` queries, whose expected output is the desugared
canonical text.

The workloads depend only on these generators and on the seed, so merging
or changing the program's own ``random_*`` functions does not change what
the benchmark feeds it.
"""

from __future__ import annotations

import random

ATOMS = ("p", "q", "r", "s")

HOTEL_ATOMS = {
    "I": {"p": ("atom", "exists_vacant"), "q": ("atom", "exists_occupied"),
          "r": ("atom", "room_0_vacant"), "s": ("atom", "room_1_occupied")},
    "II": {"p": ("atom", "exists_vacant"), "q": ("atom", "exists_occupied"),
           "r": ("atom", "room_0_infested"), "s": ("atom", "room_1_occupied")},
}


# ---------- printing ----------

def show(f):
    """Canonical, fully parenthesised text; the same text the program
    prints for a parsed formula."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "not":
        return f"(!{show(f[1])})"
    if tag == "imp":
        return f"({show(f[1])} -> {show(f[2])})"
    if tag == "box":
        return f"([]{show(f[1])})"
    if tag == "dot":
        return f"([.]{show(f[1])})"
    raise ValueError(f"not a core formula: {f!r}")


def show_sugared(f):
    """Input text for a formula that may use &, | and <->."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "not":
        return f"!({show_sugared(f[1])})"
    if tag in ("box", "dot"):
        op = "[]" if tag == "box" else "[.]"
        return f"{op}({show_sugared(f[1])})"
    op = {"imp": "->", "and": "&", "or": "|", "iff": "<->"}[tag]
    return f"({show_sugared(f[1])}) {op} ({show_sugared(f[2])})"


def desugar(f):
    tag = f[0]
    if tag == "atom":
        return f
    if tag in ("not", "box", "dot"):
        return (tag, desugar(f[1]))
    a, b = desugar(f[1]), desugar(f[2])
    if tag == "imp":
        return ("imp", a, b)
    if tag == "and":
        return ("not", ("imp", a, ("not", b)))
    if tag == "or":
        return ("imp", ("not", a), b)
    if tag == "iff":
        return desugar(("and", ("imp", f[1], f[2]), ("imp", f[2], f[1])))
    raise ValueError(f"not a formula: {f!r}")


def depth(f):
    tag = f[0]
    if tag == "atom":
        return 0
    if tag in ("box", "dot"):
        return 1 + depth(f[1])
    return max(depth(g) for g in f[1:])


def substitute(f, mapping):
    if f[0] == "atom":
        return mapping.get(f[1], f)
    return (f[0],) + tuple(substitute(g, mapping) for g in f[1:])


def letters(f):
    """Opaque letters of the propositional skeleton: atoms and maximal
    modal subformulas."""
    if f[0] in ("atom", "box", "dot"):
        return {f}
    out = set()
    for g in f[1:]:
        out |= letters(g)
    return out


# ---------- random formulas ----------

def formula(rng, max_depth, atoms=ATOMS):
    """Random core formula of depth at most max_depth."""
    r = rng.random()
    if max_depth <= 0 or r < 0.2:
        return ("atom", rng.choice(atoms))
    if r < 0.5:
        return ("imp", formula(rng, max_depth - 1, atoms), formula(rng, max_depth - 1, atoms))
    if r < 0.65:
        return ("not", formula(rng, max_depth - 1, atoms))
    if r < 0.825:
        return ("dot", formula(rng, max_depth - 1, atoms))
    return ("box", formula(rng, max_depth - 1, atoms))


def sugared_formula(rng, max_depth):
    r = rng.random()
    if max_depth <= 0 or r < 0.2:
        return ("atom", rng.choice(ATOMS))
    if r < 0.7:
        tag = rng.choice(("imp", "and", "or", "iff"))
        return (tag, sugared_formula(rng, max_depth - 1), sugared_formula(rng, max_depth - 1))
    return (rng.choice(("not", "box", "dot")), sugared_formula(rng, max_depth - 1))


# ---------- random finite models ----------

def model(rng, nworlds, nevidence):
    """Valid finite evidence model as a JSON-ready dict, with random
    partitions and valuation."""
    worlds = [f"w{i + 1}" for i in range(nworlds)]
    evidence = {}
    for k in range(nevidence):
        nblocks = rng.randint(1, nworlds)
        blocks = {}
        for w in worlds:
            blocks.setdefault(rng.randrange(nblocks), []).append(w)
        evidence[f"e{k + 1}"] = [blocks[b] for b in sorted(blocks)]
    valuation = {a: [w for w in worlds if rng.random() < 0.5] for a in ATOMS}
    return {"worlds": worlds, "evidence": evidence, "valuation": valuation}


# ---------- Grand Hotel worlds ----------

def hotel_world(rng, variant):
    """World literal text valid in the variant."""
    if variant == "II" and rng.random() < 0.4:
        states = ("vacant", "infested")
    else:
        states = ("occupied", "vacant")
    default = rng.choice(states)
    parts = [f"default={default}"]
    for room in sorted(rng.sample(range(8), rng.randint(0, 3))):
        parts.append(f"{room}={rng.choice([s for s in states if s != default])}")
    return "; ".join(parts)


# ---------- derivations ----------

SCHEMAS = {
    "truth": lambda a, b: ("imp", ("box", a), a),
    "neg-intro": lambda a, b: ("imp", ("not", ("box", a)), ("box", ("not", ("box", a)))),
    "dist": lambda a, b: ("imp", ("box", ("imp", a, b)), ("imp", ("box", a), ("box", b))),
    "mono": lambda a, b: ("imp", ("dot", a), ("box", a)),
    "att-pos-intro": lambda a, b: ("imp", ("dot", a), ("dot", ("dot", a))),
    "att-dist": lambda a, b: ("imp", ("dot", ("imp", a, b)), ("imp", ("dot", a), ("dot", b))),
}

TAUTOLOGIES = (
    lambda a, b, c: ("imp", a, ("imp", b, a)),
    lambda a, b, c: ("imp", ("imp", a, b), ("imp", ("imp", b, c), ("imp", a, c))),
    lambda a, b, c: ("imp", ("imp", a, ("imp", b, c)), ("imp", b, ("imp", a, c))),
    lambda a, b, c: ("imp", ("not", ("not", a)), a),
    lambda a, b, c: ("imp", ("imp", a, b), ("imp", ("not", b), ("not", a))),
    lambda a, b, c: ("imp", ("imp", ("not", a), a), a),
)


def chain_tautology(n):
    """(L1 -> L2) -> ((L2 -> L3) -> ... -> (L1 -> Ln)) over n opaque
    letters, alternating atoms and [.] letters."""
    names = [f"c{i}" for i in range(n)]
    lets = [("atom", x) if i % 2 == 0 else ("dot", ("atom", x)) for i, x in enumerate(names)]
    f = ("imp", lets[0], lets[-1])
    for i in range(n - 2, -1, -1):
        f = ("imp", ("imp", lets[i], lets[i + 1]), f)
    return f


def derivation(rng, length, heavy_letters=0):
    """Valid hypothesis-free derivation of exactly `length` steps.

    Returns a list of (formula, justification text).  With heavy_letters
    > 0, one step is a chain tautology over that many opaque letters.
    """
    steps = []
    index = {}  # formula -> first step index
    candidates = []  # steps small enough to build on

    def add(f, just):
        index.setdefault(f, len(steps))
        # short formulas keep ordinary taut steps at 6 letters or fewer
        if len(show(f)) <= 60 and len(letters(f)) <= 3:
            candidates.append(len(steps))
        steps.append((f, just))

    heavy_at = rng.randrange(length) if heavy_letters else length
    while len(steps) < length:
        if len(steps) >= heavy_at:
            add(chain_tautology(heavy_letters), "taut")
            heavy_at = length
            continue
        room = length - len(steps) - (heavy_at < length)  # keep a slot for it
        move = rng.random()
        if move < 0.25 or not candidates:
            name = rng.choice(tuple(SCHEMAS))
            add(SCHEMAS[name](formula(rng, 2), formula(rng, 2)), f"ax {name}")
        elif move < 0.45:
            t = rng.choice(TAUTOLOGIES)
            add(t(formula(rng, 1), formula(rng, 1), formula(rng, 1)), "taut")
        elif move < 0.65 and room >= 2:
            # weakening: A, A -> (B -> A) / B -> A
            i = rng.choice(candidates)
            a = steps[i][0]
            b = formula(rng, 0)
            j = len(steps)
            add(("imp", a, ("imp", b, a)), "taut")
            add(("imp", b, a), f"mp {i + 1} {j + 1}")
        elif move < 0.8 and room >= 4:
            # A / [.]A / [.]A -> []A / []A
            i = rng.choice(candidates)
            a = steps[i][0]
            j = len(steps)
            add(("dot", a), f"anec {i + 1}")
            add(SCHEMAS["mono"](a, None), "ax mono")
            add(("box", a), f"mp {j + 1} {j + 2}")
        else:
            pairs = [(index[s[0][1]], k) for k, s in enumerate(steps)
                     if s[0][0] == "imp" and s[0][1] in index]
            if pairs:
                i, k = rng.choice(pairs)
                add(steps[k][0][2], f"mp {i + 1} {k + 1}")
            else:
                i = rng.choice(candidates)
                add(("dot", steps[i][0]), f"anec {i + 1}")
    return steps


BREAKS = ("forward-ref", "wrong-schema", "not-taut")


def break_derivation(rng, steps):
    """Replace one step so that the checker must reject it.  Returns the
    new steps and the 0-based index of the broken step; every earlier step
    is untouched, so that step is the first error."""
    k = rng.randrange(1, len(steps)) if len(steps) > 1 else 0
    kind = rng.choice(BREAKS)
    a = formula(rng, 2)
    if kind == "forward-ref":
        new = (steps[k][0], f"mp {k + 1} {k + 2}")
    elif kind == "wrong-schema":
        # []A -> A is never an instance of [.]phi -> []phi
        new = (SCHEMAS["truth"](a, None), "ax mono")
    else:
        # two distinct opaque letters: L1 -> L2 is falsifiable
        new = (("imp", ("dot", a), ("box", a)), "taut")
    return steps[:k] + [new] + steps[k + 1:], k


def script_text(steps):
    return "".join(f"{n}: {show(f)} ; {just}\n" for n, (f, just) in enumerate(steps, start=1))


def derive_rng(*parts):
    """Independent generator per (seed, purpose) pair."""
    return random.Random(repr(parts))
