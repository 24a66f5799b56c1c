"""Command-line entry point.

Exit status: 0 on success, 1 where a subcommand defines failure (rejected
proof, false verdict, violations, failed properties), 2 on usage errors
(bad flags, malformed formulas/worlds/files, inputs past a capacity bound).
Every subcommand takes ``--json`` for structured output; with a fixed seed
that output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import corpus
from .formulas import CapacityError, ParseError, parse
from .fuzz import FuzzConfig, derive_seed, run_soundness_fuzz
from .hotel import (
    VARIANTS,
    counterexample_report,
    hotel_eval,
    parse_world_literal,
)
from .models import extension, model_from_json, satisfies, validate_model
from .proofs import ProofScriptError, check_derivation, parse_proof_script
from .unravelling import random_universe, universe_report

__all__ = ["cli", "main"]


def _emit(args, doc, human):
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)


def _load_model(path):
    with open(path, encoding="utf-8") as fh:
        m = model_from_json(fh.read())
    violations = validate_model(m)
    if violations:
        raise ValueError("invalid model: " + "; ".join(violations))
    return m


def _report_doc(report):
    return {
        "accepted": report.accepted,
        "conclusion": None if report.conclusion is None else str(report.conclusion),
        "theorem": report.conclusion_is_theorem,
        "first_error": None if report.first_error is None else
            {"step": report.first_error[0] + 1, "reason": report.first_error[1]},
    }


def cmd_parse(args):
    f = parse(args.formula)
    _emit(args, {"formula": str(f)}, str(f))
    return 0


def cmd_check_proof(args):
    with open(args.file, encoding="utf-8") as fh:
        d = parse_proof_script(fh.read())
    report = check_derivation(d)
    doc = _report_doc(report)
    if report.accepted:
        kind = "theorem" if report.conclusion_is_theorem else "derivable from hypotheses"
        human = f"accepted ({kind}): {report.conclusion}"
    else:
        step, reason = report.first_error
        human = f"rejected at step {step + 1}: {reason}"
    _emit(args, doc, human)
    return 0 if report.accepted else 1


def cmd_mc(args):
    m = _load_model(args.model)
    f = parse(args.formula)
    verdict = satisfies(m, args.world, f)
    _emit(args, {"world": args.world, "formula": str(f), "verdict": verdict},
          f"{args.world} |= {f}: {str(verdict).lower()}")
    return 0 if verdict else 1


def cmd_mc_valid(args):
    m = _load_model(args.model)
    f = parse(args.formula)
    ext = extension(m, f)
    valid = len(ext) == len(m.worlds)
    _emit(args, {"formula": str(f), "extension": ext, "valid": valid},
          f"extension: {{{', '.join(ext)}}}" + ("  (valid)" if valid else ""))
    return 0 if valid else 1


def cmd_hotel(args):
    v = VARIANTS[args.variant]
    w = parse_world_literal(args.world)
    f = parse(args.formula)
    verdict, witness = hotel_eval(v, w, f)
    doc = {
        "variant": v.name,
        "world": args.world,
        "formula": str(f),
        "verdict": verdict,
        "witness": None if witness is None else
            {"tracked": sorted(witness.tracked), "fresh_count": witness.fresh_count},
    }
    human = f"{f}: {str(verdict).lower()}"
    if witness is not None:
        human += (f"  (witness: rooms {sorted(witness.tracked)}"
                  f" + {witness.fresh_count} fresh)")
    _emit(args, doc, human)
    return 0 if verdict else 1


def cmd_counterexamples(args):
    reports = [counterexample_report(name)
               for name in ("negative-introspection", "weak-negative-introspection")]
    if args.json:
        print(json.dumps({"reports": [r.to_dict() for r in reports]},
                         indent=2, sort_keys=True))
        return 0
    for r in reports:
        print(f"{r.name} (variant {r.variant}, world: {r.world})")
        for text, verdict in r.parts:
            print(f"  {text}: {str(verdict).lower()}")
        print(f"  {r.formula}: {str(r.verdict).lower()}")
    return 0


def cmd_fuzz(args):
    cfg = FuzzConfig(
        seed=args.seed,
        num_theorems=args.theorems,
        num_models=args.models,
        max_worlds=args.max_worlds,
        max_evidence=args.max_evidence,
        max_proof_steps=args.max_steps,
    )
    report = run_soundness_fuzz(cfg)
    human = (f"theorems={report.theorems_checked} models={report.models_checked} "
             f"evaluations={report.evaluations} skipped={report.skipped} "
             f"violations={report.violations} elapsed={report.elapsed:.2f}s")
    if report.first_violation is not None:
        human += f"\nfirst violation: {report.first_violation}"
    _emit(args, report.to_dict(), human)
    return 0 if report.violations == 0 else 1


def cmd_unravel_sim(args):
    docs = []
    ok = True
    for k in range(args.universes):
        uni = random_universe(derive_seed(args.seed, k), args.size)
        report = universe_report(uni)
        docs.append(report.to_dict())
        ok = ok and report.all_hold
    if args.json:
        print(json.dumps({"reports": docs}, indent=2, sort_keys=True))
    else:
        for k, doc in enumerate(docs):
            flags = " ".join(f"{name}={str(doc[name]).lower()}"
                             for name in ("reflexive", "symmetric", "transitive",
                                          "well_founded"))
            print(f"universe {k}: sequences={doc['sequences']} {flags}")
    return 0 if ok else 1


def cmd_corpus(args):
    entries = corpus()
    docs = {}
    accepted = 0
    lines = []
    for name, d in entries.items():
        report = check_derivation(d)
        docs[name] = _report_doc(report)
        if report.accepted:
            accepted += 1
        lines.append(f"{name}: "
                     + ("accepted" if report.accepted else f"REJECTED {report.first_error}")
                     + f"  {report.conclusion}")
    lines.append(f"{accepted}/{len(entries)} accepted")
    _emit(args, docs, "\n".join(lines))
    return 0 if accepted == len(entries) else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="boxdot",
        description="bi-modal evidence logic: parse formulas, check proofs, "
                    "model-check finite and Grand Hotel models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(fn=fn)
        return p

    p = add("parse", cmd_parse, "echo a formula in canonical form")
    p.add_argument("formula")

    p = add("check-proof", cmd_check_proof, "check a proof script")
    p.add_argument("file")

    p = add("mc", cmd_mc, "truth of a formula at a world of a model file")
    p.add_argument("model")
    p.add_argument("world")
    p.add_argument("formula")

    p = add("mc-valid", cmd_mc_valid, "extension of a formula over a model file")
    p.add_argument("model")
    p.add_argument("formula")

    p = add("hotel", cmd_hotel, "evaluate a formula at a Grand Hotel world")
    p.add_argument("--variant", choices=("I", "II"), required=True)
    p.add_argument("--world", required=True,
                   help="world literal, e.g. 'default=occupied; 7=vacant'")
    p.add_argument("formula")

    add("counterexamples", cmd_counterexamples,
        "reproduce the two bundled negative-introspection counterexamples")

    p = add("fuzz", cmd_fuzz, "soundness fuzzing campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theorems", type=int, default=1000)
    p.add_argument("--models", type=int, default=50)
    p.add_argument("--max-worlds", type=int, default=6)
    p.add_argument("--max-evidence", type=int, default=4)
    p.add_argument("--max-steps", type=int, default=8)

    p = add("unravel-sim", cmd_unravel_sim,
            "random labeled-sequence universes and their property report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--universes", type=int, default=1)

    add("corpus", cmd_corpus, "check the bundled derivations")
    return parser


def cli(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except (ParseError, ProofScriptError, CapacityError, ValueError, KeyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli(sys.argv[1:]))
