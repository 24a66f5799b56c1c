"""Shared test utilities: an independent truth-table oracle, random formula
generation, single-node formula mutation, and Hypothesis strategies for
formula text."""

import itertools
import random

from hypothesis import strategies as st

from boxdot.formulas import MAX_NESTING, Atom, AttainKnow, Formula, Implies, Know, Not
from boxdot.fuzz import ATOM_POOL
from boxdot.proofs import Derivation, ProofStep


def opaque_letters(f):
    """Letters of the propositional skeleton, computed independently of the
    kernel: atoms and maximal modal subformulas, via explicit stack walk."""
    letters = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Atom, AttainKnow, Know)):
            if g not in letters:
                letters.append(g)
        elif isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, Implies):
            stack.append(g.right)
            stack.append(g.left)
    return letters


def brute_force_tautology(f):
    """Truth-table check written without reusing the kernel's evaluator."""
    letters = opaque_letters(f)

    def truth(g, env):
        if isinstance(g, (Atom, AttainKnow, Know)):
            return env[g]
        if isinstance(g, Not):
            return not truth(g.child, env)
        return truth(g.right, env) if truth(g.left, env) else True

    for values in itertools.product((False, True), repeat=len(letters)):
        if not truth(f, dict(zip(letters, values))):
            return False
    return True


def skeleton_truth(f, env):
    """Truth of f's skeleton under env (letter -> bool); independent oracle."""
    if isinstance(f, (Atom, AttainKnow, Know)):
        return env[f]
    if isinstance(f, Not):
        return not skeleton_truth(f.child, env)
    return skeleton_truth(f.right, env) if skeleton_truth(f.left, env) else True


def random_core_formula(rng, depth, atoms=("p", "q", "r", "s")):
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    r = rng.random()
    if r < 0.4:
        return Implies(random_core_formula(rng, depth - 1, atoms),
                       random_core_formula(rng, depth - 1, atoms))
    if r < 0.6:
        return Not(random_core_formula(rng, depth - 1, atoms))
    if r < 0.8:
        return AttainKnow(random_core_formula(rng, depth - 1, atoms))
    return Know(random_core_formula(rng, depth - 1, atoms))


def random_formula(rng, max_depth):
    """Random formula over the four-atom pool: 40% implication, 20% negation,
    20% modality (split between the two), 20% atom; depth-bounded."""
    if max_depth <= 0:
        return Atom(rng.choice(ATOM_POOL))
    r = rng.random()
    if r < 0.4:
        return Implies(random_formula(rng, max_depth - 1),
                       random_formula(rng, max_depth - 1))
    if r < 0.6:
        return Not(random_formula(rng, max_depth - 1))
    if r < 0.7:
        return AttainKnow(random_formula(rng, max_depth - 1))
    if r < 0.8:
        return Know(random_formula(rng, max_depth - 1))
    return Atom(rng.choice(ATOM_POOL))


# ---------- single-node mutation ----------

def _node_count(f):
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Implies):
        return 1 + _node_count(f.left) + _node_count(f.right)
    return 1 + _node_count(f.child)


def _replace_node(f, pos, rng):
    """Rebuild f with the node at preorder index pos perturbed."""
    if pos == 0:
        return _perturb(f, rng)
    if isinstance(f, (Not, AttainKnow, Know)):
        return type(f)(_replace_node(f.child, pos - 1, rng))
    left_size = _node_count(f.left)
    if pos - 1 < left_size:
        return Implies(_replace_node(f.left, pos - 1, rng), f.right)
    return Implies(f.left, _replace_node(f.right, pos - 1 - left_size, rng))


def _perturb(f, rng):
    """Change one node while keeping a well-formed formula."""
    choices = []
    if isinstance(f, Atom):
        others = [a for a in ("p", "q", "r", "s", "t") if a != f.name]
        choices.append(Atom(rng.choice(others)))
        choices.append(Not(f))
    else:
        choices.append(Not(f))
        choices.append(Atom("p"))
        if isinstance(f, (Not, AttainKnow, Know)):
            choices.append(f.child)  # drop the operator
            for ctor in (Not, AttainKnow, Know):
                if ctor is not type(f):
                    choices.append(ctor(f.child))
        if isinstance(f, Implies):
            choices.append(Implies(f.right, f.left))  # swap sides
            choices.append(f.left)
            choices.append(f.right)
    mutated = rng.choice(choices)
    return mutated if mutated != f else Not(f)


def mutate_formula(f, rng):
    """Return f with a single randomly chosen node changed."""
    pos = rng.randrange(_node_count(f))
    mutated = _replace_node(f, pos, rng)
    if mutated == f:  # the perturbation happened to rebuild the same tree
        return Not(f)
    return mutated


def mutate_derivation(d, rng):
    """Flip one node of one randomly chosen step's formula."""
    idx = rng.randrange(len(d.steps))
    step = d.steps[idx]
    mutated = ProofStep(mutate_formula(step.formula, rng), step.justification)
    steps = d.steps[:idx] + (mutated,) + d.steps[idx + 1:]
    return Derivation(d.hypotheses, steps)


# Pieces of formula text: every token of the syntax, whitespace, comments,
# newlines, and characters the syntax rejects, among them the pieces of
# its operators.
TEXT_PIECES = ("p", "q", "r", "p1", "_x", "Ab", "!", "[]", "[.]", "->", "<->", "&", "|",
               "(", ")", " ", "  ", "\n", "\t", "\r", "\f", "[", "]", ".", "-", "<", ">",
               "1", "$", "\u00e9", "# c", "#", "# x\n")
# Runs that, repeated about MAX_NESTING times, reach the nesting bound.
DEEP_RUNS = ("!", "(", "[.]", "[]", "p -> ", "p & ", "p | ", "(p <-> ")


@st.composite
def formula_texts(draw):
    """Up to 12 pieces of text; half the time one deep run is put among them."""
    pieces = draw(st.lists(st.sampled_from(TEXT_PIECES), max_size=12))
    if draw(st.booleans()):
        run = draw(st.sampled_from(DEEP_RUNS)) * draw(
            st.integers(MAX_NESTING - 2, MAX_NESTING + 2))
        pieces.insert(draw(st.integers(0, len(pieces))), run)
    return "".join(pieces)


# Well-bracketed text built from the sugared syntax without parentheses
# around binary operators, so precedence, associativity and the rejected
# chained '<->' all show.
sugared_texts = st.recursive(
    st.sampled_from(("p", "q", "r1")),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(("!", "[]", "[.]")), kids).map("".join),
        st.tuples(kids, st.sampled_from((" -> ", " <-> ", " & ", " | ", "&", "->")),
                  kids).map("".join),
        kids.map(lambda t: f"({t})"),
    ),
    max_leaves=20,
)
