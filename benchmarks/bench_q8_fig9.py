"""Figure 9 — XMark Q8 timings (single join + group, Section 6.2).

The headline experiment: nested-loop evaluation of the inner FLWR loop is
quadratic (naive interpreter, DI-NLJ), while the structural merge join of
Section 5 (DI-MSJ) is near-linear.  At this micro-benchmark's small
fixed scale the two DI plans are still indistinguishable, so the
ordering is asserted at sf 0.05; the crossover/scale table is in
EXPERIMENTS.md
(``python -m repro.bench.run_experiments --figure fig9``).
"""


def test_q8_naive(benchmark, q8_runners):
    result = benchmark(q8_runners.naive)
    assert result


def test_q8_di_nlj(benchmark, q8_runners):
    result = benchmark(q8_runners.di_nlj)
    assert result


def test_q8_di_msj(benchmark, q8_runners):
    result = benchmark(q8_runners.di_msj)
    assert result


def test_q8_results_agree(q8_runners):
    assert (q8_runners.naive() == q8_runners.di_nlj()
            == q8_runners.di_msj())


def test_q8_msj_beats_nlj(q8_runners_separated):
    """The asymptotic claim where one run of each plan can show it: the
    NLJ plan's quadratic pair loop against the MSJ plan's merge."""
    import time

    # CPU seconds, as the figure reports: a descheduled run does not count.
    start = time.process_time()
    q8_runners_separated.di_nlj()
    nlj_seconds = time.process_time() - start

    start = time.process_time()
    q8_runners_separated.di_msj()
    msj_seconds = time.process_time() - start
    assert msj_seconds < nlj_seconds
