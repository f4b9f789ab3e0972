"""Arithmetic of the benchmark itself: self time, quartiles, reuse, output checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import statistics

import pytest

import spans
import stats
import workloads
from outputs import check_output, comparable


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_from_nested_spans():
    # cli [0, 10] > evaluate [1, 9] > (displacement [2, 5], kraus [6, 8]); evaluate's
    # children cover 5 of its 8 seconds, and cli's only child covers 8 of 10.
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 5, 6, 8, 9, 10]))
    cli = tracer.begin("cli")
    ev = tracer.begin("protocols.evaluate")
    tracer.end(tracer.begin("fock.displacement"))
    tracer.end(tracer.begin("loss.kraus_build"))
    tracer.end(ev)
    tracer.end(cli)
    assert spans.self_times(tracer.spans()) == [2, 3, 3, 2]
    assert [p for *_, p in tracer.spans()] == [-1, 0, 1, 1]


def test_self_time_counts_overlapping_children_once():
    spans_ = [("cli", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0), ("b", 4.0, 8.0, 0)]
    assert spans.self_times(spans_)[0] == pytest.approx(3.0)


def test_spans_must_end_in_order():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2]))
    outer = tracer.begin("cli")
    tracer.begin("fock.apply")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_layer_self_times_and_unattributed_add_up_to_the_pass():
    tracer = spans.Tracer(clock=FakeClock([1, 2, 4, 7, 8, 9]))
    cli = tracer.begin("cli")
    tracer.end(tracer.begin("fock.displacement"))
    tracer.end(tracer.begin("fock.displacement"))
    tracer.end(cli)
    tracer.samples["displacement_dim"] += [58, 58]
    metrics = spans.layer_metrics(tracer, pass_s=10.0)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["fock.displacement.self_s"] == 3
    assert metrics["cli.self_s"] == 5
    assert metrics["trace.unattributed_s"] == 2
    assert self_total + metrics["trace.unattributed_s"] == 10.0
    assert metrics["fock.displacement.calls"] == 2
    assert metrics["fock.displacement.calls_per_dim"] == 2


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0],
    [0.9, 1.1, 1.0, 1.3, 0.7, 1.2, 1.05, 0.95, 1.0, 1.02],
    [5.0, 5.0, 5.0, 5.0],
])
def test_median_and_quartiles_follow_statistics_quantiles(values):
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert stats.median(values) == statistics.median(values)


def test_quartiles_of_known_values():
    assert stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert stats.median_index([0.3, 0.1, 0.2]) == 2
    assert stats.median_index([4, 1, 3, 2]) == 3  # lower median, value 2


def test_reuse_ratio():
    assert spans.reuse_ratio([]) == 0.0
    assert spans.reuse_ratio([(58, 0.9)] * 4) == pytest.approx(0.75)
    # Quiet and signal state of each sweep point share one (dim, eta).
    keys = [(40, 0.8), (40, 0.8), (41, 0.85), (41, 0.85)]
    assert spans.reuse_ratio(keys) == pytest.approx(0.5)
    assert spans.reuse_ratio([(40, 0.8), (41, 0.8), (40, 0.85)]) == 0.0


OVERLAP = workloads.Command(("overlap", "--family", "fock", "--n", "1", "--steps", "3"),
                            header=workloads.OVERLAP_HEADER, rows=3,
                            diff_column="abs_diff", tolerance=1e-8)
GOOD = ("delta,analytic,numeric,abs_diff\n"
        "0,1,1,0\n"
        "1,0.5,0.5,2.0000000000000001e-15\n"
        "2,-0.1,-0.1,9.9999999999999995e-09\n")


def test_checker_accepts_a_correct_grid():
    assert check_output(OVERLAP, 0, GOOD) == []


def test_checker_rejects_a_gap_above_tolerance():
    bad = GOOD.replace("2.0000000000000001e-15", "1.0000000000000001e-07")
    problems = check_output(OVERLAP, 0, bad)
    assert len(problems) == 1 and "abs_diff" in problems[0]


def test_checker_rejects_nan_gap():
    assert check_output(OVERLAP, 0, GOOD.replace("9.9999999999999995e-09", "nan"))


def test_checker_rejects_a_missing_row():
    short = GOOD.rsplit("2,", 1)[0]
    assert short.count("\n") == 3
    problems = check_output(OVERLAP, 0, short)
    assert problems == ["2 rows, expected 3"]


def test_checker_rejects_exit_code_and_header():
    assert check_output(OVERLAP, 2, GOOD) == ["exit code 2"]
    assert check_output(OVERLAP, 0, GOOD.replace("abs_diff", "gap"))


def test_checker_verify_report():
    cmd = workloads.verify_full(None)[0]
    report = ("status,check,max_discrepancy,tolerance,seconds\n"
              "PASS,fock_orthogonality,1e-15,1e-08,0.120\n"
              "PASS,parity_bounds,0,9.9999999999999998e-13,0.004\n")
    assert check_output(cmd, 0, report, verify_rows=2) == []
    assert check_output(cmd, 0, report, verify_rows=3) == ["2 rows, expected 3"]
    failing = report.replace("PASS,parity", "FAIL,parity")
    assert check_output(cmd, 0, failing, verify_rows=2) == ["check parity_bounds reports FAIL"]
    # The seconds column is a timing; it is not part of the byte comparison.
    assert comparable(cmd, report) == comparable(cmd, report.replace("0.120", "0.131"))
    assert comparable(OVERLAP, GOOD) == GOOD


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_depend_only_on_the_seed(name):
    assert workloads.commands(name, 7) == workloads.commands(name, 7)
    for cmd in workloads.commands(name, 7):
        assert cmd.rows is None or cmd.rows >= 1


def test_delta_grid_pins_the_basis_budget():
    for seed in range(20):
        for cmd in workloads.commands("delta_grid", seed):
            flags = dict(zip(cmd.argv[1::2], cmd.argv[2::2]))
            amp_sq = int(flags["--n"]) if "--n" in flags else float(flags["--alpha"]) ** 2
            budget = amp_sq + float(flags["--delta-max"]) ** 2
            assert workloads.DELTA_GRID_LAMBDA - 0.2 - 1e-5 < budget <= workloads.DELTA_GRID_LAMBDA
