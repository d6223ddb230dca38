"""Tests of the benchmark itself: inputs, answer checks, tracing, output."""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import inputs
import run
import tracer
import workloads

tp = run.import_tpfact()

BENCHMARK = os.path.join(workloads.ROOT, "BENCHMARK.json")


def first_block(name, seed):
    _, rng = run.streams(seed)
    return workloads.WORKLOADS[name]().block(rng)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert first_block(name, 7) == first_block(name, 7)
    assert first_block(name, 7) != first_block(name, 8)


@pytest.mark.parametrize("name", ["factor-roundtrip", "tnn-check"])
def test_blocks_have_fixed_composition(name):
    def mix(block):
        return sorted((d["n"], d["cell"], d["bits"], d["signs"])
                      for d in (op.describe() for op in block))

    assert mix(first_block(name, 1)) == mix(first_block(name, 2))


def test_generated_schemes_are_valid_and_reference_product_agrees():
    rng = random.Random(3)
    for op in inputs.scheme_block((2, 3, 4), (False, True), rng):
        scheme = tp.parse_scheme(workloads.scheme_text(op))
        assert (scheme.u.oneline, scheme.v.oneline) == (op.u, op.v)
        assert tp.product(scheme, op.params).rows == \
            workloads.reference_product(op)
        bits = {max(abs(t.numerator).bit_length(), t.denominator.bit_length())
                for t in op.params}
        assert bits == {op.bits}
        negative = [p for p, t in enumerate(op.params, 1) if t < 0]
        assert negative == ([op.negated] if op.negated else [])


def test_reduced_word_walks_descents():
    rng = random.Random(5)
    for perm in inputs.all_permutations(4):
        word = inputs.reduced_word(perm, rng)
        assert tp.is_reduced(word, tp.Permutation(perm))


def _ledger_failures(workload, fake, ops):
    ledger = run.Ledger(workload)
    for op in ops:
        ledger.run(fake, op)
    return ledger.failed


def _broken(**replacements):
    """tpfact with some functions replaced."""
    return SimpleNamespace(**{**vars(tp), **replacements})


def test_corrupted_answers_count_as_failures():
    factor = workloads.FactorRoundtrip()
    ops = [inputs.scheme_op(3, "open", 4, False, random.Random(1))]
    assert _ledger_failures(factor, tp, ops) == 0

    def bad_solve(scheme, x):
        values = tp.solve(scheme, x)
        return [values[0] + 1] + values[1:]

    assert _ledger_failures(factor, _broken(solve=bad_solve), ops) == 1

    def bad_sweep(network, values):
        return tp.Matrix.identity(network.n)

    assert _ledger_failures(factor, _broken(evaluate_network=bad_sweep),
                            ops) == 1

    def raising(*args):
        raise tp.ZeroMinor("injected")

    assert _ledger_failures(factor, _broken(solve=raising), ops) == 1

    tnn = workloads.TnnCheck()
    tnn_ops = tnn._ops([inputs.scheme_op(4, "open", 4, neg, random.Random(2))
                        for neg in (False, True)])
    assert _ledger_failures(tnn, tp, tnn_ops) == 0
    assert _ledger_failures(tnn, _broken(is_tnn=lambda x: True), tnn_ops) == 1
    assert _ledger_failures(
        tnn, _broken(fekete_criterion=lambda x, k: tp.CriterionReport(True)),
        tnn_ops) == 1

    iso = workloads.IsotopyGl3()
    op = workloads.IsotopyOp((3, 2, 1), (3, 2, 1), ((1,) * 3,) * 3)
    assert iso.check(op, (34, 60, True, [True])) is None
    assert iso.check(op, (33, 60, True, [True])) is not None
    assert iso.check(op, (34, 60, True, [True, False])) is not None
    assert iso.check(op, (34, 60, False, [True])) is not None


def test_corrupted_cli_output_counts_as_failure():
    cli = workloads.CliMix(reference=tp)
    spec = inputs.scheme_op(3, "random", 4, False, random.Random(4))
    op = workloads.well_formed_op("product", spec, random.Random(4))
    good = workloads.run_cli(op.argv, op.stdin)
    assert cli.check(op, good) is None
    blob = json.loads(good.stdout)
    blob["entries"][0][0] += "1"
    corrupted = json.dumps(blob)
    assert cli.check(op, workloads.CliResult(0, corrupted, "")) is not None
    assert cli.check(op, workloads.CliResult(3, "", "error: x")) is not None
    rejected = workloads.malformed_op("singular", random.Random(4))
    assert cli.check(rejected, workloads.CliResult(3, "", "error: x")) is None
    assert cli.check(rejected, workloads.CliResult(
        1, "", "Traceback (most recent call last):\n")) is not None


def test_known_defects_accept_exact_success_or_exit_2():
    cli = workloads.CliMix()
    numeric = workloads.known_defect_ops()[0]
    assert numeric.kind == "numeric-entries"
    ok = json.dumps({"u": "21", "v": "21"})
    assert cli.check(numeric, workloads.CliResult(0, ok, "")) is None
    assert cli.check(numeric, workloads.CliResult(2, "", "error: x")) is None
    assert cli.check(numeric, workloads.CliResult(
        0, json.dumps({"u": "12", "v": "21"}), "")) is not None
    assert cli.check(numeric, workloads.CliResult(
        1, "", "Traceback (most recent call last):\n")) is not None


def test_tracer_restores_the_package():
    original = tp.linalg.minor
    from_word = vars(tp.Permutation)["from_word"]
    tr = tracer.Tracer()
    assert tr.install() > 0
    assert tp.linalg.minor is not original
    assert tp.bruhat.minor is tp.linalg.minor is tp.minor
    assert vars(tp.Permutation)["from_word"] is not from_word
    assert tp.Permutation.from_word(3, (1, 2)) == tp.Permutation((2, 3, 1))
    tr.uninstall()
    assert tp.linalg.minor is original and tp.bruhat.minor is original
    assert vars(tp.Permutation)["from_word"] is from_word


def _traced(name, *args):
    """Call tpfact.<name> with the tracer installed."""
    tr = tracer.Tracer()
    tr.install()
    try:
        result = tr.run_op(getattr(tp, name), *args)
    finally:
        tr.uninstall()
    return tr, result


def test_trace_matches_roadmap_baseline_on_open_n5_cell():
    rng = random.Random(6)
    op = inputs.scheme_op(5, "open", 4, False, rng)
    scheme = tp.parse_scheme(workloads.scheme_text(op))
    x = tp.product(scheme, op.params)
    tr, values = _traced("solve", scheme, x)
    assert values == list(op.params)
    s = tracer.Summary(tr)
    assert s.calls["bruhat.in_bruhat_cell"] == 240
    assert s.calls["bruhat.bruhat_cell_of"] == 2
    assert 0.7 < s.total(s.incl_ns, "bruhat") / s.incl_ns["solver.solve"] < 1
    total_self = sum(s.self_ns.values())
    op_time = tr.end[0] - tr.start[0]
    assert total_self == op_time


def test_trace_counts_isotopy_keys_on_open_gl3_cell():
    w0 = tp.Permutation.longest_element(3)
    tr, graph = _traced("enumerate_isotopy_types", w0, w0)
    s = tracer.Summary(tr)
    assert (len(graph.nodes), len(graph.edges)) == (34, 60)
    assert s.calls["schemes.isotopy_key"] == 40320


def test_counts_repeat_exactly_on_the_same_seed():
    def counts():
        workload = workloads.TnnCheck()
        tr = tracer.Tracer()
        block = first_block("tnn-check", 9)[:6]
        tr.install()
        try:
            for op in block:
                tr.run_op(workload.run, tp, op)
        finally:
            tr.uninstall()
        s = tracer.Summary(tr, run.ROOTS)
        metrics = run.layer_metrics(s, len(block), tr.max_bits, {})
        return {k: v for k, v in metrics.items()
                if run.PER_LAYER_UNITS[k] != "ms"}

    assert counts() == counts()


def _benchmark_spec():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace, monkeypatch, capsys):
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "INTERPRETER_SAMPLES", 1)
    monkeypatch.setattr(workloads.TnnCheck, "block_sizes", (4,))
    monkeypatch.setattr(workloads.TnnCheck, "trace_blocks", 1)
    assert run.main(["--workload", "tnn-check", "--seed", "1",
                     "--seconds", "0.001", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    group = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in group)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tnn-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_fraction_text_matches_the_cli_format():
    for value in (Fraction(3), Fraction(-2, 7), Fraction(0)):
        assert workloads.fraction_text(value) == tp.scalar_to_str(value)
