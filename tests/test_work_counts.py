"""Work-count ledger: how much work one stock sweep and one large-surface AO
run do, counted call by call.

The counts are pinned exactly. A change that keeps every result but does more
or less work (an extra kernel pass, a bracket that leaves a comparison open,
one more RCG iteration) moves a count here before it shows as time.

An AO round after a run's first starts from the composites the previous
round's objective built at the phases it returned, so ``_cascade`` counts no
build at the start of such a round; it builds them only when that objective
no longer holds them. A line search's ladders hold the rungs the previous
search of its RCG run read plus ``LADDER_MARGIN``, so ``bracketed_points`` is
about the rungs read plus that margin per search.

A round that returns its start phases is followed by a copy of itself, not a
run: the copy is a kept round (``ao_rounds_kept``) but no round run
(``ao_rounds_run``), and it counts no design, objective pass or RCG work.
"""

from collections import Counter
from dataclasses import replace

from irslink import channel, experiment, optimizer
from irslink.opcount import OpCounter
from irslink.optimizer import DlRateObjective, alternating_optimize
from irslink.scenario import default_scenario


_KEYS = ("value", "value_and_grad", "brackets", "bracketed_points", "open_comparisons",
         "_effective", "_kernel", "_cascade", "rcg_iterations", "ao_rounds_run", "ao_rounds_kept",
         "phase_macs", "bracket_macs")


def _ledger(monkeypatch, run):
    """Counts of the work ``run(counter)`` does; ``counter`` is the OpCounter
    it hands to its AO runs. Phase MACs are those counted inside ``value`` and
    ``value_and_grad``, bracket MACs those inside ``brackets`` (its set-up
    included), so the two figures are apart; ``bracketed_points`` sums the
    rows of every ``brackets`` call; ``_effective``, ``_kernel`` and
    ``_cascade`` count calls, whoever makes them: an exact point served from
    the cache is an ``_effective`` call with no ``_kernel`` call."""
    counts, counter = Counter(dict.fromkeys(_KEYS, 0)), OpCounter()
    in_rcg = []  # a value call inside the solver is a comparison brackets left open

    def counted(name, fn, macs=None):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "value" and in_rcg:
                counts["open_comparisons"] += 1
            if name == "brackets":
                counts["bracketed_points"] += len(args[1])
            before = counter.macs
            out = fn(*args, **kwargs)
            if macs is not None:
                counts[macs] += counter.macs - before
            return out
        return wrapper

    for name, macs in (("value", "phase_macs"), ("value_and_grad", "phase_macs"),
                       ("brackets", "bracket_macs"), ("_effective", None), ("_kernel", None)):
        monkeypatch.setattr(DlRateObjective, name,
                            counted(name, getattr(DlRateObjective, name), macs))
    monkeypatch.setattr(channel, "_cascade", counted("_cascade", channel._cascade))
    rcg = optimizer.rcg_optimize_phases

    def rcg_counted(*args, **kwargs):
        in_rcg.append(1)
        try:
            phases, trace = rcg(*args, **kwargs)
        finally:
            in_rcg.pop()
        counts["rcg_iterations"] += trace[-1].iteration
        return phases, trace

    monkeypatch.setattr(optimizer, "rcg_optimize_phases", rcg_counted)
    monkeypatch.setattr(optimizer, "_phase_round", counted("ao_rounds_run", optimizer._phase_round))
    for result in run(counter):
        counts["ao_rounds_kept"] += len(result.trace)
    return dict(counts)


def test_stock_sweep_seed_0(monkeypatch):
    def sweep(counter):
        monkeypatch.setattr(experiment, "alternating_optimize",
                            lambda *a, **k: alternating_optimize(*a, counter=counter, **k))
        return [r.ao for r in experiment.run_experiment(experiment.ExperimentSpec(seed=0))]

    # one round returns its start phases after an RCG run of no iteration, and
    # the round after it (one of the 18 kept) is recorded, not run. Against running
    # it, that saves its opening value_and_grad, its value and the final
    # gains' look-up (3 _effective calls, 2 of them cache hits), one kernel
    # pass on the composites it held (53,248 MACs, no cascade) and one round run
    assert _ledger(monkeypatch, sweep) == {
        "value": 20,
        "value_and_grad": 50,
        "brackets": 39,
        "bracketed_points": 402,
        "open_comparisons": 0,
        "_effective": 90,
        "_kernel": 56,
        "_cascade": 60,
        "rcg_iterations": 36,
        "ao_rounds_run": 20,
        "ao_rounds_kept": 18,
        "phase_macs": 5_349_376,
        "bracket_macs": 10_330_112,
    }


def test_large_surface_ao_m96(monkeypatch):
    scenario = default_scenario(96)
    assert _ledger(monkeypatch, lambda counter: [
        alternating_optimize(scenario, seed=1, counter=counter)]) == {
        "value": 2,
        "value_and_grad": 13,
        "brackets": 11,
        "bracketed_points": 108,
        "open_comparisons": 0,
        "_effective": 17,
        "_kernel": 13,
        "_cascade": 14,
        "rcg_iterations": 11,
        "ao_rounds_run": 2,
        "ao_rounds_kept": 1,
        "phase_macs": 7_094_272,
        "bracket_macs": 11_396_096,
    }


def test_min_aggregate_stock_seed_0(monkeypatch):
    # under min, only the worst subcarrier of each link counts. Its line
    # searches backtrack, and leave 137 comparisons to exact values, where the
    # mean runs leave none. A backtracking step brackets its next halvings in
    # the same call, so the searches take about 3.3 brackets calls an
    # iteration, against about one under mean (39 for 36 iterations on stock
    # seed 0)
    scenario = default_scenario()
    config = replace(scenario.optimizer, max_iter=40, outer_rounds=3)
    assert _ledger(monkeypatch, lambda counter: [alternating_optimize(
        scenario, seed=0, aggregate="min", config=config, counter=counter)]) == {
        "value": 140,
        "value_and_grad": 123,
        "brackets": 396,
        "bracketed_points": 4_669,
        "open_comparisons": 137,
        "_effective": 266,
        "_kernel": 219,
        "_cascade": 218,
        "rcg_iterations": 120,
        "ao_rounds_run": 3,
        "ao_rounds_kept": 2,
        "phase_macs": 30_867_456,
        "bracket_macs": 114_960_384,
    }
