"""Tiny-size smoke test of the benchmark itself, kept out of the tier-1
test paths.  From the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from itertools import product

import pytest

import run
import tracer
import workloads
from workloads import Command

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_counts(k: int, m: int) -> tuple[int, int]:
    words = ["".join(bits) for bits in product("01", repeat=m)]
    avoiding = [w for w in words if workloads.longest_01(w) < k]
    return len(avoiding), sum(workloads.inversions(w) % 2 for w in avoiding)


@pytest.mark.parametrize("k", range(1, 6))
def test_references_match_brute_force(k):
    for m in range(2 * k + 1):
        assert (workloads.ref_words(k, m), workloads.ref_odd_words(k, m)) == brute_counts(k, m)


def test_references_match_package():
    from grassperm import classes, counting, parity

    for k in range(1, 9):
        assert workloads.ref_total("total-words", k) == counting.total_avoiding_words(k)
        assert workloads.ref_total("total-perms", k) == counting.total_avoiding_perms(k)
        assert workloads.ref_total("total-odd", k) == parity.total_odd_avoiders(k)
    package = {
        "bigrass": classes.bigrassmannian_avoider_count,
        "bigrass-odd": classes.odd_bigrassmannian_avoider_count,
        "invol": classes.involution_avoider_count,
        "invol-odd": classes.odd_involution_avoider_count,
    }
    for (quantity, fn), k, m in product(package.items(), range(2, 8), range(18)):
        assert workloads.ref_class_count(quantity, k, m) == fn(k, m)


def tiny_commands() -> list[Command]:
    return [
        workloads.word_count_command("E", 4, 4),
        Command(("enumerate", "words", "--k", "4", "--m", "5"), workloads.expect_words(4, 5)),
        Command(
            ("biject", "word-to-dyck", "--k", "5", "--input", "110011"),
            workloads.expect_word_to_dyck(5, "110011"),
        ),
        Command(
            ("biject", "word-to-lattice", "--k", "5", "--input", "110011"),
            workloads.expect_word_to_lattice(5, "110011"),
        ),
        Command(("verify", "--suite", "identities", "--k-max", "4"), workloads.check_verify),
    ]


def failed_ratio(samples) -> float:
    outcomes = [o for runs in samples for o in runs]
    return sum(o.error is not None for o in outcomes) / len(outcomes)


def test_gate_passes_correct_output(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path))
    assert failed_ratio(run.run_passes(runner, tiny_commands(), 0)[1]) == 0


@pytest.mark.parametrize("index", range(len(tiny_commands())))
def test_gate_counts_a_corrupted_line(tmp_path, monkeypatch, index):
    runner = run.Runner(ROOT, str(tmp_path))
    cmds = tiny_commands()
    target = cmds[index].argv
    spawn = runner.spawn

    def corrupting_spawn(argv, pause=True):
        child = spawn(argv, pause)
        if tuple(argv[-len(target):]) != target:
            return child
        lines = child.out.split(b"\n")
        lines[0] = lines[0].replace(b"1", b"0", 1) if b"1" in lines[0] else b"x" + lines[0]
        return dataclasses.replace(child, out=b"\n".join(lines))

    monkeypatch.setattr(runner, "spawn", corrupting_spawn)
    assert failed_ratio(run.run_passes(runner, cmds, 0)[1]) == pytest.approx(1 / len(cmds))


def test_trace_records_calls_through_imported_names(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path))
    cmds = [
        workloads.word_count_command("O", 6, 5),
        Command(("enumerate", "words", "--k", "3", "--m", "4"), workloads.expect_words(3, 4)),
    ]
    outcomes, layers = run.traced_pass(runner, cmds, str(tmp_path))
    assert all(o.error is None for o in outcomes)
    assert layers["cli.main.calls"] == 2
    assert layers["parity.odd_word_count.calls"] == 1
    # parity calls avoiding_word_count through a name it imported.
    assert layers["counting.avoiding_word_count.calls"] >= 2
    assert layers["patterns.words_tested"] == 16
    assert layers["patterns.words_emitted"] == 2
    assert layers["patterns.enumerate_yield"] == 2 / 16
    assert layers["patterns.self_s"] > 0


def test_a_paused_child_runs_to_the_end(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path))
    # Runs long enough to be stopped and resumed a few times.
    script = "import time\nend = time.process_time() + 0.3\n"
    script += "while time.process_time() < end: pass\nprint(7)"
    child = runner.spawn([sys.executable, "-c", script])
    assert (child.code, child.out) == (0, b"7\n")
    assert child.cpu_s >= 0.3 and child.seconds > 0


def test_benchmark_json_lists_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(tracer.PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"]) == 2
