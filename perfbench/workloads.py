"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (set-up).
The worker times ``step(i)``, which makes query i's calls into the program
and returns the raw answer, then passes the answer to ``keep(i, answer)``
outside the timed region.  ``keep`` checks what it can at once and holds
back, in memory bounded by the input pools, only what needs the program
again (``confirm_witness``, regenerating a campaign's theorems); ``check``
does that after the timed phase.  No answer is dropped unchecked, except
that ``finite`` checks one formula in ``CHECK_EVERY`` on each model.

Queries form a fixed cyclic schedule, so query ``i`` is the same input
whatever the speed of the program; only how many queries fit in the run
changes.  The program is reached through module attributes looked up at
call time (``self.models.extension``), so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os

import gen
import oracle

WORKLOADS = ("fuzz", "finite", "kernel", "cli")


def _mod(name):
    # importlib, because the package attribute boxdot.corpus is the
    # corpus() function, not the module
    return importlib.import_module(name)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Workload:
    WINDOW = None  # queries per window, one pass over the input cycle; set by each workload

    def __init__(self):
        self.failed = 0
        self.first_failure = None

    def fail(self, message):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message

    def fingerprint(self):
        """Hash of the inputs the schedule feeds the program."""
        raise NotImplementedError

    def step(self, i):
        """Make query i's call into the program; return its answer, or the
        exception it raised."""
        raise NotImplementedError

    def keep(self, i, answer):
        """Check or hold back query i's answer; return its verdict count."""
        raise NotImplementedError

    def check(self):
        """Finish the checks keep() held back."""

    def stats(self):
        """Workload-specific numbers for the human-readable report."""
        return {}

    def close(self):
        pass


# ---------- fuzz ----------

class Fuzz(Workload):
    """Soundness campaigns in criterion 2's shape (300 models of at most 6
    worlds and 4 pieces of evidence, derivations of at most 8 steps) with
    200 theorems each.  One query is one campaign; its verdicts are the
    report's evaluations.  The schedule cycles through CAMPAIGNS fixed
    campaign seeds, so every build answers the same campaigns, and every
    repeat of a campaign must give the same report as its first run.
    Campaigns differ a lot in cost (one campaign's verdicts per second can
    be a third off the next one's), so a window holds five, about 1,000
    theorems: with fewer, the figures depend on the seed more than on the
    program."""

    THEOREMS = 200
    MODELS = 300
    CAMPAIGNS = 5
    WINDOW = CAMPAIGNS

    def __init__(self, seed, workdir):
        super().__init__()
        self.fuzz = _mod("boxdot.fuzz")
        self.seed = seed
        self.reports = {}  # campaign -> report of its first run
        self.runs = 0
        self._inputs = None

    def config(self, c):
        return self.fuzz.FuzzConfig(
            seed=self.seed * 1000 + c, num_theorems=self.THEOREMS, num_models=self.MODELS,
            max_worlds=6, max_evidence=4, max_proof_steps=8)

    def inputs(self):
        """Each campaign's theorems and models, drawn again the way the
        campaign draws them."""
        if self._inputs is None:
            proofs = _mod("boxdot.proofs")
            self._inputs = []
            for c in range(self.CAMPAIGNS):
                cfg = self.config(c)
                conclusions, bump = [], 0
                for i in range(cfg.num_theorems):
                    while True:
                        try:
                            _, t = proofs.random_theorem(
                                self.fuzz.derive_seed(cfg.seed, i, bump), cfg.max_proof_steps)
                            break
                        except proofs.GenerationError:
                            bump += 1
                    conclusions.append(t)
                models = [self.fuzz.random_model(self.fuzz.derive_seed(cfg.seed, "model", k), cfg)
                          for k in range(cfg.num_models)]
                self._inputs.append((conclusions, models))
        return self._inputs

    def fingerprint(self):
        return _digest([[[str(t) for t in conclusions],
                         [[m.worlds, m.evidence, m.valuation] for m in models]]
                        for conclusions, models in self.inputs()])

    def step(self, i):
        try:
            return self.fuzz.run_soundness_fuzz(self.config(i % self.CAMPAIGNS))
        except Exception as exc:  # a raising query is a failed query
            return exc

    def keep(self, i, report):
        c = i % self.CAMPAIGNS
        if isinstance(report, Exception):
            self.fail(f"campaign {c} raised {report!r}")
            return 0
        self.runs += 1
        if report.violations:
            self.fail(f"campaign {c}: {report.violations} violations, "
                      f"first {report.first_violation}")
        first = self.reports.setdefault(c, report)
        if report.to_dict() != first.to_dict():
            self.fail(f"campaign {c}: report {report.to_dict()} differs from its first "
                      f"run's {first.to_dict()}")
        return report.evaluations

    def check(self):
        panel = 2 * self.fuzz.HOTEL_PANEL_SIZE
        inputs = self.inputs()
        for c, rep in self.reports.items():
            conclusions, models = inputs[c]
            worlds = sum(len(m.worlds) for m in models)
            if (rep.theorems_checked, rep.models_checked) != (len(conclusions), len(models)):
                self.fail(f"campaign {c}: wrong theorem or model count")
            elif rep.evaluations + rep.skipped != len(conclusions) * (worlds + panel):
                self.fail(f"campaign {c}: evaluations + skipped miss some (theorem, world)")

    def stats(self):
        """Totals over the CAMPAIGNS distinct campaigns, however often each ran."""
        reps = list(self.reports.values())
        evaluations = sum(r.evaluations for r in reps)
        skipped = sum(r.skipped for r in reps)
        theorems = sum(r.theorems_checked for r in reps)
        distinct = sum(len(set(self.inputs()[c][0])) for c in self.reports)
        return {
            "campaigns": len(reps),
            "campaign_runs": self.runs,
            "theorems_checked": theorems,
            "evaluations": evaluations,
            "skipped": skipped,
            "violations": sum(r.violations for r in reps),
            "distinct_conclusions": distinct,
            "skipped_frac": skipped / max(1, evaluations + skipped),
            "distinct_theorem_frac": distinct / max(1, theorems),
        }


# ---------- finite ----------

class Finite(Workload):
    """Every formula of a seeded pool through ``models.extension`` on each
    of a stream of random finite models.  Model k has 1 + k % 6 pieces of
    evidence and 1 + (k // 6) % 8 worlds, so every 48 models cover each
    shape up to the FuzzConfig maxima (8 worlds, 6 pieces of evidence, so
    64 [.] subsets) once.  One query is one model against the whole pool;
    each (formula, world) pair is one verdict."""

    FORMULAS = 2000
    MODELS = 480
    WINDOW = 48
    DEPTH = 5
    CHECK_EVERY = 8  # the oracle checks one formula in 8 on each model

    def __init__(self, seed, workdir):
        super().__init__()
        self.models = _mod("boxdot.models")
        formulas = _mod("boxdot.formulas")
        self.constructors = {"not": formulas.Not, "box": formulas.Know,
                             "dot": formulas.AttainKnow, "imp": formulas.Implies,
                             "atom": formulas.Atom}
        rng = gen.derive_rng(seed, "finite-formulas")
        self.pool = [gen.formula(rng, self.DEPTH) for _ in range(self.FORMULAS)]
        memo = {}
        self.program_pool = [self._to_program(f, memo) for f in self.pool]
        self.docs = [gen.model(gen.derive_rng(seed, "finite-model", k),
                               1 + (k // 6) % 8, 1 + k % 6)
                     for k in range(self.MODELS)]

    def _to_program(self, f, memo):
        got = memo.get(f)
        if got is None:
            if f[0] == "atom":
                got = self.constructors["atom"](f[1])
            else:
                got = self.constructors[f[0]](*(self._to_program(g, memo) for g in f[1:]))
            memo[f] = got
        return got

    def fingerprint(self):
        return _digest([[gen.show(f) for f in self.pool], self.docs])

    def step(self, i):
        doc = self.docs[i % self.MODELS]
        # a new model object per visit, so no evaluator cache carries over
        m = self.models.FiniteEvidenceModel(doc["worlds"], doc["evidence"], doc["valuation"])
        extension = self.models.extension
        try:
            return [extension(m, f) for f in self.program_pool]
        except Exception as exc:
            return exc

    def keep(self, i, exts):
        doc = self.docs[i % self.MODELS]
        if isinstance(exts, Exception):
            self.fail(f"model {i} raised {exts!r}")
            return 0
        naive = oracle.NaiveModel(doc)
        for j in range(i % self.CHECK_EVERY, self.FORMULAS, self.CHECK_EVERY):
            want = naive.extension(self.pool[j])
            if exts[j] != want:
                self.fail(f"model {i}, formula {gen.show(self.pool[j])}: {exts[j]} != {want}")
        return self.FORMULAS * len(doc["worlds"])


# ---------- kernel ----------

class Kernel(Workload):
    """Proof-script texts through ``parse_proof_script`` and
    ``check_derivation``; one query is one script.  The pool holds 300
    derivations of 20 to 40 steps: one in ten is broken at a known step,
    and twelve carry one chain-tautology step over 14, 12 or 10 opaque
    letters (other taut steps have at most 6).  The one 14-letter and five
    12-letter scripts are valid and spread evenly, so the 99th percentile
    falls among the 12-letter scripts; the six 10-letter ones are also
    broken, before or after their big step."""

    POOL = 300
    WINDOW = POOL
    BROKEN_EVERY = 10
    HEAVY = {0: 14, 50: 12, 100: 12, 150: 12, 200: 12, 250: 12,
             25: 10, 75: 10, 125: 10, 175: 10, 225: 10, 275: 10}

    def __init__(self, seed, workdir):
        super().__init__()
        self.proofs = _mod("boxdot.proofs")
        rng = gen.derive_rng(seed, "kernel")
        self.texts, self.expect = [], []
        for n in range(self.POOL):
            steps = gen.derivation(rng, rng.randint(20, 40), self.HEAVY.get(n, 0))
            if n % self.BROKEN_EVERY == 5:
                steps, k = gen.break_derivation(rng, steps)
                self.expect.append((False, k))
            else:
                self.expect.append((True, gen.show(steps[-1][0])))
            self.texts.append(gen.script_text(steps))

    def fingerprint(self):
        return _digest(self.texts)

    def step(self, i):
        try:
            return self.proofs.check_derivation(
                self.proofs.parse_proof_script(self.texts[i % self.POOL]))
        except Exception as exc:
            return exc

    def keep(self, i, r):
        valid, detail = self.expect[i % self.POOL]
        if isinstance(r, Exception):
            self.fail(f"script {i % self.POOL} raised {r!r}")
        elif valid:
            if not (r.accepted and r.conclusion_is_theorem and str(r.conclusion) == detail):
                self.fail(f"script {i % self.POOL}: valid derivation of {detail} got {r}")
        elif r.accepted or r.first_error is None or r.first_error[0] != detail:
            self.fail(f"script {i % self.POOL}: broken at step {detail + 1}, "
                      f"got {r.first_error}")
        return 1


# ---------- cli ----------

class Cli(Workload):
    """Interactive queries through ``boxdot.cli.cli(argv)`` in-process,
    stdout captured.  Every query starts cold: ``mc`` and ``mc-valid`` read
    a model file, ``hotel`` runs without a session.  A cycle of 100
    queries holds 30 mc, 20 mc-valid, 20 hotel, 12 parse, 10 check-proof,
    3 corpus, 3 counterexamples and 2 unravel-sim (three universes of 20
    sequences each); the schedule is five cycles, each in its own seeded
    order.  The mix is a choice of this benchmark, not drawn from a usage
    log (the project has none): seven queries in ten ask one of the three
    evaluator commands, the ones a user repeats, and every other command
    appears at least twice per cycle.  The unravel-sim queries are the
    slowest, about four times a counterexamples query, so the 99th
    percentile of each 500-query window falls among them.  One query is
    one verdict."""

    MIX = (("mc", 30), ("mc-valid", 20), ("hotel", 20), ("parse", 12),
           ("check-proof", 10), ("corpus", 3), ("counterexamples", 3), ("unravel-sim", 2))
    CYCLES = 5
    WINDOW = 500  # the whole schedule
    MODEL_FILES = 40
    PROOF_FILES = 20
    HOTEL_POOL = 60
    UNRAVEL_SIZE = 20
    UNRAVEL_UNIVERSES = 3

    def __init__(self, seed, workdir):
        super().__init__()
        self.cli = _mod("boxdot.cli")
        self.workdir = workdir
        rng = gen.derive_rng(seed, "cli")
        os.makedirs(workdir, exist_ok=True)
        self.files = {}  # file name -> content, for the fingerprint
        self.docs = [gen.model(rng, rng.randint(1, 8), rng.randint(1, 6))
                     for _ in range(self.MODEL_FILES)]
        model_paths = [self._write(f"model{k}.json", json.dumps(doc))
                       for k, doc in enumerate(self.docs)]
        proof_paths, self.proof_expect = [], []
        for k in range(self.PROOF_FILES):
            steps = gen.derivation(rng, rng.randint(5, 15))
            if k % 4 == 3:
                steps, bad = gen.break_derivation(rng, steps)
                self.proof_expect.append((False, bad))
            else:
                self.proof_expect.append((True, gen.show(steps[-1][0])))
            proof_paths.append(self._write(f"proof{k}.proof", gen.script_text(steps)))
        self.hotel = self._hotel_pool(rng)

        order = gen.derive_rng(seed, "cli-order")
        kinds = []
        for _ in range(self.CYCLES):
            cycle = [kind for kind, count in self.MIX for _ in range(count)]
            order.shuffle(cycle)
            kinds += cycle
        self.schedule = []  # (argv, kind, expectation)
        seen = {}
        for kind in kinds:
            n = seen[kind] = seen.get(kind, -1) + 1
            if kind in ("mc", "mc-valid"):
                m = n % self.MODEL_FILES
                f = gen.formula(rng, 4)
                w = rng.choice(self.docs[m]["worlds"])
                if kind == "mc":
                    argv = ["mc", model_paths[m], w, gen.show(f)]
                else:
                    argv = ["mc-valid", model_paths[m], gen.show(f)]
                exp = (m, f, w)
            elif kind == "hotel":
                exp = n % len(self.hotel)
                variant, world, f = self.hotel[exp][:3]
                argv = ["hotel", "--variant", variant, "--world", world, gen.show(f)]
            elif kind == "parse":
                f = gen.sugared_formula(rng, 4)
                argv, exp = ["parse", gen.show_sugared(f)], gen.show(gen.desugar(f))
            elif kind == "check-proof":
                argv = ["check-proof", proof_paths[n % self.PROOF_FILES]]
                exp = self.proof_expect[n % self.PROOF_FILES]
            elif kind == "unravel-sim":
                argv = ["unravel-sim", "--seed", str(seed * 100 + n), "--size",
                        str(self.UNRAVEL_SIZE), "--universes", str(self.UNRAVEL_UNIVERSES)]
                exp = None
            else:
                argv, exp = [kind], None
            self.schedule.append((argv + ["--json"], kind, exp))
        self.naive = {}           # model file index -> NaiveModel
        self.hotel_verdicts = {}  # hotel pool index -> verdict
        self.witnesses = {}       # hotel pool index -> (tracked, fresh_count)

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.files[name] = text
        return path

    def _hotel_pool(self, rng):
        """(variant, world, formula, kind, expected verdict, expected witness)"""
        pool = [(v, w, f, "example", verdict, wit)
                for v, w, f, verdict, wit in oracle.HOTEL_EXAMPLES]
        while len(pool) < self.HOTEL_POOL:
            variant = rng.choice(("I", "II"))
            world = gen.hotel_world(rng, variant)
            r = rng.random()
            if r < 0.3:
                # substituted theorems are true at every world
                steps = gen.derivation(rng, rng.randint(3, 6))
                f = gen.substitute(steps[-1][0], gen.HOTEL_ATOMS[variant])
                if gen.depth(f) <= 3:
                    pool.append((variant, world, f, "theorem", True, None))
            elif r < 0.7:
                # []f holds exactly where f does
                f = gen.substitute(gen.formula(rng, 2), gen.HOTEL_ATOMS[variant])
                pool.append((variant, world, f, "pair-f", None, None))
                pool.append((variant, world, ("box", f), "pair-box", None, None))
            else:
                f = gen.substitute(("dot", gen.formula(rng, 2)), gen.HOTEL_ATOMS[variant])
                pool.append((variant, world, f, "dot", None, None))
        return pool

    def fingerprint(self):
        argvs = [[os.path.basename(a) if os.sep in a else a for a in argv]
                 for argv, _, _ in self.schedule]
        return _digest([argvs, self.files])

    def step(self, i):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.cli(self.schedule[i % len(self.schedule)][0])
        except Exception as exc:
            return exc, ""
        return code, out.getvalue()

    def keep(self, i, answer):
        argv, kind, exp = self.schedule[i % len(self.schedule)]
        code, text = answer
        if isinstance(code, Exception):
            problem = f"raised {code!r}"
        else:
            try:
                problem = self._check_one(kind, exp, code, json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output ({exc!r}): {text[:200]!r}"
        if problem is not None:
            self.fail(f"{' '.join(argv)}: {problem}")
        return 1

    def _check_one(self, kind, exp, code, doc):
        if kind in ("mc", "mc-valid"):
            m, f, w = exp
            model = self.naive.get(m)
            if model is None:
                model = self.naive[m] = oracle.NaiveModel(self.docs[m])
            ext = model.extension(f)
            if kind == "mc":
                want = w in ext
                got = (code, doc["world"], doc["formula"], doc["verdict"])
                ok = got == (0 if want else 1, w, gen.show(f), want)
            else:
                want = len(ext) == len(self.docs[m]["worlds"])
                got = (code, doc["formula"], doc["extension"], doc["valid"])
                ok = got == (0 if want else 1, gen.show(f), ext, want)
            return None if ok else f"got {got}, oracle extension {ext}"
        if kind == "hotel":
            return self._check_hotel(exp, code, doc)
        if kind == "parse":
            return None if (code, doc) == (0, {"formula": exp}) else f"got {code} {doc}"
        if kind == "check-proof":
            valid, detail = exp
            if valid:
                ok = (code == 0 and doc["accepted"] and doc["theorem"]
                      and doc["conclusion"] == detail)
            else:
                ok = (code == 1 and not doc["accepted"]
                      and doc["first_error"]["step"] == detail + 1)
            return None if ok else f"expected {exp}, got {code} {doc}"
        if kind == "corpus":
            want = {name: {"accepted": True, "theorem": True, "conclusion": c}
                    for name, c in oracle.CORPUS_CONCLUSIONS.items()}
            got = {name: {k: d[k] for k in ("accepted", "theorem", "conclusion")}
                   for name, d in doc.items()}
            return None if (code, got) == (0, want) else f"got {code} {got}"
        if kind == "counterexamples":
            ok = (code, doc) == (0, {"reports": oracle.COUNTEREXAMPLES})
            return None if ok else f"got {code} {doc}"
        if kind == "unravel-sim":
            one = {"sequences": self.UNRAVEL_SIZE, "reflexive": True, "symmetric": True,
                   "transitive": True, "well_founded": True}
            want = {"reports": [one] * self.UNRAVEL_UNIVERSES}
            return None if (code, doc) == (0, want) else f"got {code} {doc}"
        return f"unknown query kind {kind}"

    def _check_hotel(self, n, code, doc):
        variant, world, f, kind, want, want_wit = self.hotel[n]
        verdict, wit = doc["verdict"], doc["witness"]
        if code != (0 if verdict else 1) or doc["formula"] != gen.show(f):
            return f"exit code {code} or formula {doc['formula']} do not match"
        if want is not None and verdict != want:
            return f"verdict {verdict}, expected {want}"
        if (wit is not None) != (verdict and f[0] == "dot"):
            return f"witness {wit} for verdict {verdict}"
        if want_wit is not None and (wit["tracked"], wit["fresh_count"]) != want_wit:
            return f"witness {wit}, expected {want_wit}"
        if kind == "pair-box" and self.hotel_verdicts.get(n - 1, verdict) != verdict:
            return f"[]f is {verdict} where f is not"
        if kind == "pair-f" and self.hotel_verdicts.get(n + 1, verdict) != verdict:
            return f"f is {verdict} where []f is not"
        self.hotel_verdicts[n] = verdict
        if wit is not None:
            self.witnesses[n] = (tuple(wit["tracked"]), wit["fresh_count"])
        return None

    def check(self):
        """Every true [.] witness must pass confirm_witness."""
        hotel = _mod("boxdot.hotel")
        formulas = _mod("boxdot.formulas")
        for n, (tracked, fresh) in self.witnesses.items():
            variant, world, f = self.hotel[n][:3]
            witness = hotel.EvidenceWitness(frozenset(tracked), fresh)
            if not hotel.confirm_witness(hotel.VARIANTS[variant], hotel.parse_world_literal(world),
                                         formulas.parse(gen.show(f)), witness):
                self.fail(f"hotel {variant} {world} {gen.show(f)}: witness {witness} "
                          f"fails confirm_witness")

    def close(self):
        for name in self.files:
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


CLASSES = {"fuzz": Fuzz, "finite": Finite, "kernel": Kernel, "cli": Cli}
