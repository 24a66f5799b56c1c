"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from boxdot import formulas, fuzz, models, proofs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = _benchmark_json()
    for table, declared in ((run.END_TO_END, spec["end_to_end"]),
                            (run.PER_LAYER, spec["per_layer"])):
        assert {m["name"]: m["unit"] for m in declared} == table
        for name in table:
            assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_predictions_cover_every_per_layer_metric():
    with open(os.path.join(BENCH, "PREDICTIONS.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    for name in run.PER_LAYER:
        assert any(name == key or name.startswith(key + ".") for key in layers), name
    for entry in layers.values():
        for move in entry["moves"]:
            assert move["metric"] in set(run.END_TO_END) | set(run.REPORTED)
            assert move["workload"] in workloads.WORKLOADS
        assert set(entry["unmoved_on"]) <= set(workloads.WORKLOADS)


# ---------- the naive oracle ----------

P, Q = ("atom", "p"), ("atom", "q")
TWO = {"worlds": ["w1", "w2"], "evidence": {"e": [["w1", "w2"]]}, "valuation": {"p": ["w1"]}}
THREE = {"worlds": ["w1", "w2", "w3"],
         "evidence": {"e1": [["w1"], ["w2", "w3"]], "e2": [["w1", "w2"], ["w3"]]},
         "valuation": {"p": ["w1", "w2"]}}


@pytest.mark.parametrize("doc, f, expected", [
    (TWO, P, ["w1"]),
    (TWO, ("not", P), ["w2"]),
    (TWO, ("box", P), []),
    (TWO, ("dot", P), []),
    (TWO, ("box", ("not", ("dot", P))), ["w1", "w2"]),
    (THREE, ("box", P), ["w1", "w2"]),    # w3's full cell is {w3}
    (THREE, ("dot", P), ["w1", "w2"]),    # w1 by e1 alone, w2 by e2 alone
    (THREE, ("dot", ("imp", P, Q)), ["w3"]),
    (THREE, ("imp", ("box", P), Q), ["w3"]),
])
def test_naive_oracle_hand_computed(doc, f, expected):
    assert oracle.NaiveModel(doc).extension(f) == expected


def test_naive_oracle_agrees_with_program_on_random_models():
    rng = random.Random(7)
    for _ in range(30):
        doc = gen.model(rng, rng.randint(1, 8), rng.randint(1, 6))
        naive = oracle.NaiveModel(doc)
        m = models.FiniteEvidenceModel(doc["worlds"], doc["evidence"], doc["valuation"])
        for _ in range(20):
            f = gen.formula(rng, 4)
            assert models.extension(m, formulas.parse(gen.show(f))) == naive.extension(f)
            # finite collapse: [.] and [] agree on every finite model
            assert naive.extension(("dot", f)) == naive.extension(("box", f))


def test_generated_derivations_have_known_verdicts():
    rng = random.Random(3)
    for n in range(20):
        steps = gen.derivation(rng, rng.randint(5, 25), heavy_letters=10 if n == 0 else 0)
        report = proofs.check_derivation(proofs.parse_proof_script(gen.script_text(steps)))
        assert report.accepted and report.conclusion_is_theorem
        assert str(report.conclusion) == gen.show(steps[-1][0])
        broken, k = gen.break_derivation(rng, steps)
        report = proofs.check_derivation(proofs.parse_proof_script(gen.script_text(broken)))
        assert not report.accepted and report.first_error[0] == k


def test_parse_expectation_is_the_desugared_text():
    rng = random.Random(5)
    for _ in range(50):
        f = gen.sugared_formula(rng, 4)
        assert str(formulas.parse(gen.show_sugared(f))) == gen.show(gen.desugar(f))


# ---------- failing runs ----------

def _run(wl, queries):
    try:
        for i in range(queries):
            wl.keep(i, wl.step(i))
        wl.check()
    finally:
        wl.close()
    return wl


@pytest.mark.parametrize("name, queries", [("fuzz", 2), ("finite", 6), ("kernel", 150),
                                           ("cli", 300)])
def test_every_workload_passes_a_short_run(name, queries, tmp_path):
    wl = _run(workloads.CLASSES[name](1, str(tmp_path / "work")), queries)
    assert (wl.failed, wl.first_failure) == (0, None)


def test_injected_wrong_verdict_is_caught_in_process(monkeypatch):
    real = models.extension

    def wrong(m, f):
        ext = real(m, f)
        return ext[:-1] if ext else list(m.worlds)

    monkeypatch.setattr(models, "extension", wrong)
    wl = _run(workloads.Finite(1, None), 2)
    assert wl.failed > 0 and wl.first_failure


def _copy_benchmark(dest, with_sources=True):
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src", "boxdot"), os.path.join(dest, "src", "boxdot"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _bench(cwd, workload):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


def test_injected_wrong_verdict_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    path = tmp_path / "src" / "boxdot" / "models.py"
    text = path.read_text()
    # a [] that never holds at the first world
    text = text.replace("if cls & ~child == 0:\n                    mask |= 1 << i\n        elif",
                        "if cls & ~child == 0 and i:\n                    mask |= 1 << i\n"
                        "        elif", 1)
    assert "and i:" in text
    path.write_text(text)
    proc = _bench(tmp_path, "finite")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "failed_frac=0 " not in proc.stdout


def test_run_without_sources_fails_without_a_result(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    proc = _bench(tmp_path, "kernel")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_fingerprint_depends_only_on_the_seed(tmp_path):
    a = workloads.Kernel(4, None).fingerprint()
    assert a == workloads.Kernel(4, None).fingerprint()
    assert a != workloads.Kernel(5, None).fingerprint()
    c1 = workloads.Cli(4, str(tmp_path / "a"))
    c2 = workloads.Cli(4, str(tmp_path / "b"))
    try:
        assert c1.fingerprint() == c2.fingerprint()
    finally:
        c1.close()
        c2.close()


def test_fuzz_fingerprint_follows_the_generated_inputs(monkeypatch):
    a = workloads.Fuzz(4, None).fingerprint()
    assert a == workloads.Fuzz(4, None).fingerprint()
    assert a != workloads.Fuzz(5, None).fingerprint()
    real = fuzz.random_model

    def other_model(seed, bounds):
        return real(seed + 1, bounds)

    monkeypatch.setattr(fuzz, "random_model", other_model)
    assert workloads.Fuzz(4, None).fingerprint() != a


def test_fuzz_campaign_that_changes_on_a_repeat_fails():
    wl = workloads.Fuzz(1, None)
    first = wl.step(0)
    assert wl.keep(0, first) == first.evaluations and not wl.failed
    changed = dataclasses.replace(first, evaluations=first.evaluations - 1)
    wl.keep(wl.CAMPAIGNS, changed)
    assert wl.failed == 1 and "differs from its first run" in wl.first_failure


def test_traced_run_reports_layers_per_window(tmp_path):
    wl = workloads.Kernel(2, None)
    res = worker.measure(wl, "kernel", 2, "traced", 0, str(tmp_path))
    assert res["failed"] == 0 and res["windows"] == 3  # warm-up, traced, untraced
    layers = res["layers"]
    assert layers["proofs.check_derivation.calls"] == wl.POOL
    assert layers["proofs.parse_proof_script.calls"] == wl.POOL
    assert layers["models.extension.calls"] == 0
    assert layers["bench.trace_overhead_frac"] > -1
    assert (tmp_path / ".perfbench_traces" / "kernel-seed2.tsv.gz").is_file()
    # the tracer is gone after the run
    assert proofs.check_derivation.__module__ == "boxdot.proofs"
    assert not hasattr(proofs.check_derivation, "__wrapped__")
