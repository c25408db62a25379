"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def take(wl, seed, n):
    return list(itertools.islice(wl.stream(seed), n))


@pytest.mark.parametrize("name", ["direct_trace", "reduction", "coboundary"])
def test_generator_is_deterministic_per_seed(name):
    wl = workloads.make(name, 0, None)
    first = take(wl, 1, 40)
    assert first == take(wl, 1, 40)
    assert first != take(wl, 2, 40)
    assert {op["cls"] for op in first[: len(wl.classes)]} == set(wl.classes)


def test_cli_batches_are_deterministic_per_seed(tmp_path):
    made = [workloads.CliEval(tmp_path / str(i), seed) for i, seed in enumerate((1, 1, 2))]
    try:
        assert made[0].batches == made[1].batches != made[2].batches
        fns = {e["fn"] for doc, _ in made[0].batches.values() for e in doc["evals"]}
        assert fns == set(workloads.EVAL_FNS)
    finally:
        for wl in made:
            wl.close()


def test_perturbed_results_count_as_failed(tmp_path):
    red = workloads.make("reduction", 0, None)
    op = next(red.stream(3))
    value, ledger = red.prepare(op)()
    bumped = value * (1 + 1e-3)
    records = [(op, (value, ledger), None), (op, (bumped, replace(ledger, value=bumped)), None)]
    assert [f["op"] for f in run.check_all(red, records)] == [op]

    direct = workloads.make("direct_trace", 0, None)
    op = next(o for o in direct.stream(3) if o["cls"] == "h2.a0")
    value = direct.prepare(op)()
    assert direct.check(op, value) is None
    assert direct.check(op, value * (1 + 1e-3)) is not None

    cob = workloads.make("coboundary", 0, None)
    op = next(o for o in cob.stream(3) if o["cls"] == "rec1.J")
    assert cob.check(op, cob.prepare(op)()) is None
    assert cob.check(op, 1e-3) is not None

    cli = workloads.CliEval(tmp_path, 3)
    try:
        op = cli.draw(None, "nq12")
        code, out, err = cli.prepare_in_process(op)()
        assert cli.check_report("nq12", out) is None
        p1 = workloads.c2l(workloads.load_oracles().P1_THETA)
        assert repr(p1[0]).encode() in out
        bad = out.replace(repr(p1[0]).encode(), repr(p1[0] + 1e-9).encode(), 1)
        assert cli.check_report("nq12", bad) is not None
        assert cli.check(op, (1, out, b"")) is not None
    finally:
        cli.close()


def test_tail_percentile_has_ten_operations_beyond_it():
    assert stats.tail_latency(list(range(1, 101))) == (90, 90.0)
    assert stats.tail_latency(list(range(1000, 0, -1))) == (990, 99.0)
    value, pct = stats.tail_latency([0.5 * i for i in range(25)])
    assert sum(1 for i in range(25) if 0.5 * i > value) == 10
    assert pct == 60.0


class Stub(workloads.Workload):
    name = "stub"
    classes = ("a", "b")

    def draw(self, rng, cls):
        return {"cls": cls}

    def prepare(self, op):
        return lambda: op["cls"]


def test_peak_rss_is_read_after_a_fixed_amount_of_work():
    records, timeline, _, rss = run.timed_run(Stub(), 1, 0.0)
    # one op reaches the deadline; the rest run untimed up to the RSS reading
    assert len(timeline) == 1
    assert len(records) == run.RSS_BLOCKS * len(Stub.classes)
    assert rss > 0
    records, timeline, _, _ = run.timed_run(Stub(), 1, 0.05)
    assert len(records) == len(timeline) > run.RSS_BLOCKS * len(Stub.classes)


def test_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert stats.verdict(parent, [x * 1.5 for x in parent], "higher", 0.1) == "improved"
    assert stats.verdict(parent, [x * 0.7 for x in parent], "higher", 0.1) == "worse"
    assert stats.verdict(parent, [x * 0.7 for x in parent], "lower", 0.1) == "improved"
    assert stats.verdict(parent, list(parent), "lower", 0.1) == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert stats.verdict(noisy, [x * 1.01 for x in noisy], "higher", 0.1) == "unresolved"


def test_tracer_restores_bindings_and_results():
    wl = workloads.make("coboundary", 0, None)
    wl.build()
    ops = take(wl, 5, len(wl.classes))
    untraced = [wl.prepare(op)() for op in ops]
    tracer = spans.Tracer()
    tracer.install()
    patched = list(tracer.patches)
    try:
        traced = []
        for i, op in enumerate(ops):
            tracer.begin_op(i)
            traced.append(wl.prepare(op)())
            tracer.end_op()
    finally:
        tracer.remove()
    assert all(getattr(mod, attr) is orig for mod, attr, orig in patched)
    # the bindings made by `from ... import` in the reduction modules were wrapped too
    assert {mod.__name__ for mod, _, _ in patched} >= {
        "jrl.reduction.steps", "jrl.reduction.coboundary", "jrl.reduction.identities", "workloads"
    }
    assert traced == untraced
    m = tracer.metrics()
    # three stage ops, plus the stages the chain condition composes
    assert m["reduction.stage_contributions.calls"] > 3
    assert m["reduction.chain_condition_residual.calls"] == 1
    assert m["reduction.identity.calls"] == 3
    assert m["voa.graded_trace.calls"] > 0 and m["voa.zero_mode_operator.self_s"] > 0
    assert m["reduction.ledger.nodes"] > m["reduction.ledger.leaves"] > 0
    assert m["voa.kappa.hit_ratio"] > 0
