"""Hilbert-style proof checking for the bi-modal evidence logic.

A derivation is a numbered list of steps, each justified as a propositional
tautology, an axiom-schema instance, modus ponens, attainable necessitation
(``anec``), or a hypothesis.  The kernel tracks per-step *purity*: a step is
pure when it does not depend on any hypothesis.  ``anec`` may only be applied
to pure steps, so conclusions derived under hypotheses stay inside the
modus-ponens-only fragment.

Axiom schemas (phi, psi are metavariables):

    truth          []phi -> phi
    neg-intro      !([]phi) -> [](!([]phi))
    dist           [](phi -> psi) -> ([]phi -> []psi)
    mono           [.]phi -> []phi
    att-pos-intro  [.]phi -> [.]([.]phi)
    att-dist       [.](phi -> psi) -> ([.]phi -> [.]psi)
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

from .formulas import (
    Atom,
    AttainKnow,
    CapacityError,
    Formula,
    Implies,
    Know,
    Not,
    ParseError,
    parse,
    substitute,
)

__all__ = [
    "SCHEMAS",
    "Taut",
    "Axiom",
    "ModusPonens",
    "AttNec",
    "Hypothesis",
    "ProofStep",
    "Derivation",
    "CheckReport",
    "CapacityError",
    "GenerationError",
    "ProofScriptError",
    "match_schema",
    "is_tautology",
    "check_derivation",
    "parse_proof_script",
    "format_derivation",
    "random_theorem",
]

TAUTOLOGY_LETTER_CAP = 20

_PHI = Atom("phi")
_PSI = Atom("psi")

# Every Atom in a template is a metavariable.
SCHEMAS = {
    "truth": Implies(Know(_PHI), _PHI),
    "neg-intro": Implies(Not(Know(_PHI)), Know(Not(Know(_PHI)))),
    "dist": Implies(Know(Implies(_PHI, _PSI)), Implies(Know(_PHI), Know(_PSI))),
    "mono": Implies(AttainKnow(_PHI), Know(_PHI)),
    "att-pos-intro": Implies(AttainKnow(_PHI), AttainKnow(AttainKnow(_PHI))),
    "att-dist": Implies(
        AttainKnow(Implies(_PHI, _PSI)),
        Implies(AttainKnow(_PHI), AttainKnow(_PSI)),
    ),
}


class GenerationError(RuntimeError):
    """random_theorem could not extend a derivation within its retry budget."""


class ProofScriptError(ValueError):
    """Malformed proof script text."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# ---------- justifications and derivations ----------

@dataclass(frozen=True)
class Taut:
    def __str__(self):
        return "taut"


@dataclass(frozen=True)
class Axiom:
    schema: str

    def __str__(self):
        return f"ax {self.schema}"


@dataclass(frozen=True)
class ModusPonens:
    i: int  # antecedent step, 0-based
    j: int  # implication step, 0-based

    def __str__(self):
        return f"mp {self.i + 1} {self.j + 1}"


@dataclass(frozen=True)
class AttNec:
    i: int  # premise step, 0-based; must be pure

    def __str__(self):
        return f"anec {self.i + 1}"


@dataclass(frozen=True)
class Hypothesis:
    k: int  # hypothesis index, 0-based

    def __str__(self):
        return f"hyp {self.k + 1}"


@dataclass(frozen=True)
class ProofStep:
    formula: Formula
    justification: object


@dataclass(frozen=True)
class Derivation:
    hypotheses: tuple
    steps: tuple

    @property
    def conclusion(self):
        return self.steps[-1].formula if self.steps else None


@dataclass(frozen=True)
class CheckReport:
    accepted: bool
    first_error: Optional[tuple]  # (0-based step index, reason)
    conclusion: Optional[Formula]
    conclusion_is_theorem: bool


# ---------- schema matching ----------

def match_schema(candidate, schema):
    """Match candidate against a schema template.

    Returns the substitution (metavariable name -> Formula) if the candidate
    is an instance, else None.  Repeated metavariables must map to
    structurally equal formulas.
    """
    template = SCHEMAS[schema] if isinstance(schema, str) else schema
    subst = {}
    if _match(template, candidate, subst):
        return subst
    return None


def _match(template, candidate, subst):
    if isinstance(template, Atom):
        bound = subst.get(template.name)
        if bound is None:
            subst[template.name] = candidate
            return True
        return bound == candidate
    if type(template) is not type(candidate):
        return False
    if isinstance(template, (Not, AttainKnow, Know)):
        return _match(template.child, candidate.child, subst)
    if isinstance(template, Implies):
        return (_match(template.left, candidate.left, subst)
                and _match(template.right, candidate.right, subst))
    raise TypeError(f"not a formula: {template!r}")


# ---------- tautology checking ----------

def skeleton_letters(f):
    """Opaque letters of f's propositional skeleton, in first-occurrence order.

    Atoms and maximal modal subformulas count as letters.
    """
    letters = []
    seen = set()

    def walk(g):
        if isinstance(g, (Atom, AttainKnow, Know)):
            if g not in seen:
                seen.add(g)
                letters.append(g)
        elif isinstance(g, Not):
            walk(g.child)
        elif isinstance(g, Implies):
            walk(g.left)
            walk(g.right)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
    return letters


def is_tautology(f):
    """True iff f is true under every Boolean assignment to its skeleton letters.

    Bit-parallel truth table over the n letters: bit i of a column is the
    value in row i, so one pass over the tree evaluates all 2^n rows, with
    ``!x`` as ``full ^ x`` and ``a -> b`` as ``(full ^ a) | b``.  A column
    costs 2^n bits (128 KB at the cap).  Only letter columns are tabled, so
    at most (letters + tree height) columns are alive at once.
    """
    letters = skeleton_letters(f)
    n = len(letters)
    if n > TAUTOLOGY_LETTER_CAP:
        raise CapacityError(
            f"{n} opaque letters exceeds the cap of {TAUTOLOGY_LETTER_CAP}")
    rows = 1 << n
    full = (1 << rows) - 1
    columns = {}
    for k, letter in enumerate(letters):
        # bit i is bit k of i: 2^k zeros then 2^k ones, doubled to fill the rows
        width = 2 << k
        col = ((1 << (width >> 1)) - 1) << (width >> 1)
        while width < rows:
            col |= col << width
            width <<= 1
        columns[letter] = col

    def column(g):
        if isinstance(g, Not):
            return full ^ column(g.child)
        if isinstance(g, Implies):
            return (full ^ column(g.left)) | column(g.right)
        return columns[g]

    return column(f) == full


# ---------- derivation checking ----------

def check_derivation(d):
    """Check every step of a derivation; report the first failure, if any.

    Purity: taut/axiom steps are pure, hypothesis steps are impure, and
    mp/anec steps are pure iff all referenced premises are.  ``anec``
    additionally *requires* a pure premise.
    """
    pure = []
    for idx, step in enumerate(d.steps):
        f, just = step.formula, step.justification
        reason = None
        step_pure = False
        if isinstance(just, Taut):
            if is_tautology(f):
                step_pure = True
            else:
                reason = "not a propositional tautology"
        elif isinstance(just, Axiom):
            if just.schema not in SCHEMAS:
                reason = f"unknown axiom schema {just.schema!r}"
            elif match_schema(f, just.schema) is not None:
                step_pure = True
            else:
                reason = f"not an instance of schema {just.schema}"
        elif isinstance(just, ModusPonens):
            reason = _check_index(just.i, idx) or _check_index(just.j, idx)
            if reason is None:
                prem = d.steps[just.i].formula
                impl = d.steps[just.j].formula
                if not isinstance(impl, Implies):
                    reason = f"step {just.j + 1} is not an implication"
                elif impl.left != prem:
                    reason = (f"step {just.j + 1} does not have step "
                              f"{just.i + 1} as its antecedent")
                elif impl.right != f:
                    reason = f"conclusion differs from the consequent of step {just.j + 1}"
                else:
                    step_pure = pure[just.i] and pure[just.j]
        elif isinstance(just, AttNec):
            reason = _check_index(just.i, idx)
            if reason is None:
                if f != AttainKnow(d.steps[just.i].formula):
                    reason = f"formula is not [.] applied to step {just.i + 1}"
                elif not pure[just.i]:
                    reason = (f"attainable necessitation applied to step "
                              f"{just.i + 1}, which depends on hypotheses")
                else:
                    step_pure = True
        elif isinstance(just, Hypothesis):
            if not 0 <= just.k < len(d.hypotheses):
                reason = f"hypothesis index {just.k + 1} out of range"
            elif d.hypotheses[just.k] != f:
                reason = f"formula differs from hypothesis {just.k + 1}"
            else:
                step_pure = False
        else:
            reason = f"unknown justification {just!r}"
        if reason is not None:
            return CheckReport(False, (idx, reason), None, False)
        pure.append(step_pure)
    if not d.steps:
        return CheckReport(False, (0, "derivation has no steps"), None, False)
    return CheckReport(True, None, d.steps[-1].formula, pure[-1])


def _check_index(i, current):
    if not 0 <= i < current:
        if i >= current:
            return f"step reference {i + 1} is not an earlier step"
        return f"step reference {i + 1} out of range"
    return None


# ---------- proof script format ----------

_HYP_RE = re.compile(r"hyp\s+(\d+)\s*:\s*(.*)$")
_STEP_RE = re.compile(r"(\d+)\s*:\s*(.*?)\s*;\s*(.*)$")


def parse_proof_script(text):
    """Parse the line-oriented proof script format into a Derivation.

    ``hyp <k>: <formula>`` lines come first, then ``<n>: <formula> ; <just>``
    with 1-based numbering.  ``#`` starts a comment.
    """
    hypotheses = []
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HYP_RE.match(line)
        if m:
            if steps:
                raise ProofScriptError(lineno, "hypotheses must precede proof steps")
            k = int(m.group(1))
            if k != len(hypotheses) + 1:
                raise ProofScriptError(lineno, f"expected hyp {len(hypotheses) + 1}, got hyp {k}")
            hypotheses.append(_parse_formula(raw, lineno, m))
            continue
        m = _STEP_RE.match(line)
        if m is None:
            raise ProofScriptError(lineno, f"unrecognized line {line!r}")
        n = int(m.group(1))
        if n != len(steps) + 1:
            raise ProofScriptError(lineno, f"expected step {len(steps) + 1}, got step {n}")
        formula = _parse_formula(raw, lineno, m)
        steps.append(ProofStep(formula, _parse_justification(m.group(3), lineno)))
    return Derivation(tuple(hypotheses), tuple(steps))


def _parse_formula(raw, lineno, m):
    """Parse the formula m found in raw; a ParseError is placed on the
    script's line and column, leading whitespace counted."""
    try:
        return parse(m.group(2))
    except ParseError as exc:
        column = len(raw) - len(raw.lstrip()) + m.start(2) + exc.column
        raise ParseError(exc.message, lineno, column) from None


def _parse_justification(text, lineno):
    words = text.split()
    if words == ["taut"]:
        return Taut()
    if len(words) == 2 and words[0] == "ax":
        if words[1] not in SCHEMAS:
            raise ProofScriptError(lineno, f"unknown axiom schema {words[1]!r}")
        return Axiom(words[1])
    if len(words) == 3 and words[0] == "mp" and words[1].isdigit() and words[2].isdigit():
        return ModusPonens(int(words[1]) - 1, int(words[2]) - 1)
    if len(words) == 2 and words[0] == "anec" and words[1].isdigit():
        return AttNec(int(words[1]) - 1)
    if len(words) == 2 and words[0] == "hyp" and words[1].isdigit():
        return Hypothesis(int(words[1]) - 1)
    raise ProofScriptError(lineno, f"unrecognized justification {text!r}")


def format_derivation(d):
    """Render a Derivation back into proof script text (1-based numbering)."""
    lines = []
    for k, h in enumerate(d.hypotheses, start=1):
        lines.append(f"hyp {k}: {h}")
    for n, step in enumerate(d.steps, start=1):
        lines.append(f"{n}: {step.formula} ; {step.justification}")
    return "\n".join(lines) + "\n"


# ---------- random theorem generation ----------

_TAUT_TEMPLATES = tuple(parse(t) for t in (
    "a -> a",
    "a -> (b -> a)",
    "(a -> b) -> ((b -> c) -> (a -> c))",
    "(a -> (b -> c)) -> (b -> (a -> c))",
    "!(!a) -> a",
    "a -> !(!a)",
    "(a -> b) -> (!b -> !a)",
    "(!a -> b) -> (!b -> a)",
    "(!a -> a) -> a",
))

_ATOM_POOL = (Atom("p"), Atom("q"), Atom("r"), Atom("s"))


def _random_formula(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return rng.choice(_ATOM_POOL)
    if r < 0.55:
        return Not(_random_formula(rng, depth - 1))
    if r < 0.75:
        return Implies(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if r < 0.875:
        return AttainKnow(_random_formula(rng, depth - 1))
    return Know(_random_formula(rng, depth - 1))


def random_theorem(seed, max_steps, retry_budget=50):
    """Deterministically build an accepted, hypothesis-free derivation.

    Chains axiom-schema instances, tautology instances, modus ponens and
    attainable necessitation; returns (derivation, conclusion).
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rng = random.Random(seed)
    target = rng.randint(1, max_steps)
    steps = []

    def add(formula, just):
        steps.append(ProofStep(formula, just))

    tries = 0
    while len(steps) < target:
        if tries > retry_budget:
            raise GenerationError(f"could not extend derivation (seed={seed})")
        move = rng.choices(("axiom", "taut", "mp", "anec"),
                           weights=(30, 25, 30, 15))[0]
        if move == "axiom":
            name = rng.choice(tuple(SCHEMAS))
            subst = {"phi": _random_formula(rng, 2), "psi": _random_formula(rng, 2)}
            add(substitute(SCHEMAS[name], subst), Axiom(name))
        elif move == "taut":
            template = rng.choice(_TAUT_TEMPLATES)
            subst = {v: _random_formula(rng, 2) for v in ("a", "b", "c")}
            add(substitute(template, subst), Taut())
        elif move == "mp":
            pairs = [(i, j)
                     for j, sj in enumerate(steps)
                     if isinstance(sj.formula, Implies)
                     for i, si in enumerate(steps)
                     if si.formula == sj.formula.left]
            if not pairs:
                tries += 1
                continue
            i, j = rng.choice(pairs)
            add(steps[j].formula.right, ModusPonens(i, j))
        else:  # anec; every step is pure here
            if not steps:
                tries += 1
                continue
            i = rng.randrange(len(steps))
            add(AttainKnow(steps[i].formula), AttNec(i))
        tries = 0
    d = Derivation((), tuple(steps))
    return d, d.conclusion
