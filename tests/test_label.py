"""Batch labelling (``compile_formulas`` + ``_Evaluator.label``) against the
one-formula evaluator ``extension_mask``, the subset-enumeration oracle, and
``hotel_eval``."""

import itertools
import random

import pytest

from boxdot.formulas import Atom, AttainKnow, Not, parse, subformulas, substitute
from boxdot.fuzz import HOTEL_ATOMS, FuzzConfig, derive_seed, hotel_panel, random_model
from boxdot.hotel import VARIANTS, EvalSession, _Structure, hotel_eval
from boxdot.models import _Evaluator, compile_formulas

from finite_oracle import oracle_extension_mask
from helpers import random_formula


def _formulas(seed, count, depth=5):
    rng = random.Random(derive_seed("label", seed))
    return [random_formula(rng, depth) for _ in range(count)]


def _every_node(formulas):
    """Each formula followed by its subformulas, so every node is a root."""
    return [g for f in formulas for g in subformulas(f)]


def test_equal_subformulas_share_a_node():
    f, g = parse("[.](p -> q) -> !p"), parse("!p")
    dag = compile_formulas([f, g, parse("[.](p -> q) -> !p")])
    assert dag.roots[0] == dag.roots[2] != dag.roots[1]
    assert len(dag.nodes) == 6  # p, q, p -> q, [.](p -> q), !p, the root
    for i, (op, a, b) in enumerate(dag.nodes):
        if op is not Atom:  # children come first
            assert a < i and (b is None or b < i)


def test_compile_rejects_a_non_formula():
    with pytest.raises(TypeError):
        compile_formulas([parse("p"), "p"])


@pytest.mark.parametrize("seed", range(40))
def test_finite_label_matches_extension_mask_and_oracle(seed):
    m = random_model(derive_seed("label-model", seed), FuzzConfig(0, 0, 0))
    formulas = _every_node(_formulas(seed, 12))
    dag = compile_formulas(formulas)
    masks = _Evaluator(m).label(dag)
    ev = _Evaluator(m)  # its own memo, so label's cannot answer for it
    for f, r in zip(formulas, dag.roots):
        assert masks[r] == ev.extension_mask(f) == oracle_extension_mask(m, f), str(f)


def _hotel_structures(name):
    """(variant, true room atoms) of every structure the fuzz can reach:
    each subset of its room atoms counted as true."""
    v = VARIANTS[name]
    rooms = sorted(n for f in HOTEL_ATOMS[name].values() for n, _, _ in EvalSession().room_atoms(f, v))
    assert len(rooms) == 2
    for k in range(len(rooms) + 1):
        for true_rooms in itertools.combinations(rooms, k):
            yield v, frozenset(true_rooms)


def _points(structure):
    for t, u in itertools.product(range(1 << structure.k), repeat=2):
        if structure.full >> structure.point(t, u) & 1:
            yield t, u


@pytest.mark.parametrize("name", ["I", "II"])
def test_hotel_label_matches_extension_mask_on_every_structure(name):
    formulas = [substitute(f, HOTEL_ATOMS[name])
                for f in _every_node(_formulas(name, 40, depth=6))]
    dag = compile_formulas(formulas)
    for v, true_rooms in _hotel_structures(name):
        structure = _Structure(v, true_rooms)
        masks = structure.label(dag)
        one_by_one = _Structure(v, true_rooms)
        for f, r in zip(formulas, dag.roots):
            assert masks[r] == one_by_one.extension_mask(f), str(f)
            if isinstance(f, AttainKnow):
                child = masks[dag.nodes[r][1]]
                for t, u in _points(structure):
                    holds = bool(masks[r] >> structure.point(t, u) & 1)
                    assert holds == (structure.fewest_fresh(child, t, u) is not None)


@pytest.mark.parametrize("name", ["I", "II"])
def test_labelled_panel_points_agree_with_hotel_eval(name):
    # the fuzz's way of deciding a panel world: label the structure located
    # for the world and formula, then read the world's point
    v = VARIANTS[name]
    formulas = [substitute(f, HOTEL_ATOMS[name]) for f in _formulas(name + "-panel", 60)]
    formulas += [AttainKnow(f) for f in formulas[:30]]
    dag = compile_formulas(formulas)
    session = EvalSession()
    labels = {}
    for f, r in zip(formulas, dag.roots):
        for w in hotel_panel(name)[:20]:
            structure, _, t, u = session.locate(v, w, f)
            if structure not in labels:
                labels[structure] = structure.label(dag)
            bit = labels[structure][r] >> structure.point(t, u) & 1
            assert bool(bit) == hotel_eval(v, w, f)[0], (str(f), w)


def test_deep_chain_compiles_and_labels_without_recursion():
    # 3,000 levels, far past what parse admits and past the recursion limit
    chain = Atom("p")
    for _ in range(3000):
        chain = Not(chain)
    dag = compile_formulas([chain, Atom("p")])
    assert len(dag.nodes) == 3001 and dag.roots == [3000, 0]
    ev = random_model(5, FuzzConfig(0, 0, 0)).evaluator()
    masks = ev.label(dag)
    assert masks[3000] == masks[0] == ev.atom_mask["p"]
    hotel_chain = substitute(Atom("p"), HOTEL_ATOMS["I"])
    for _ in range(3000):
        hotel_chain = Not(hotel_chain)
    hotel_dag = compile_formulas([hotel_chain])
    structure = _Structure(VARIANTS["I"], frozenset())
    masks = structure.label(hotel_dag)
    assert masks[-1] == masks[0] == structure.atom_mask["exists_vacant"]
