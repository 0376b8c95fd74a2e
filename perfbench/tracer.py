"""Span recorder for the traced benchmark run.

``Recorder.installed()`` wraps irslink's public functions, both in the
module that defines each one and in the modules that imported it by name,
and records one span per call: name, start, end, parent span and op id.
Spans stay in memory until ``write`` dumps them when the run ends.

Multiply-accumulates are read from the program's own ``OpCounter``: the
wrapper of ``alternating_optimize`` passes a fresh counter through its
public ``counter=`` argument when the caller gave none, and the spans of
``design_beamformers`` and ``DlRateObjective.value`` / ``value_and_grad``
store the counter's delta across the call.
"""

import contextlib
import csv
import functools
import time
from collections import defaultdict

from irslink import beamforming, channel, experiment, metrics, optimizer, scenario
from irslink.opcount import OpCounter

# span name -> (defining module, function, modules that imported it by name)
FUNCTIONS = {
    "channel.synthesize_links": (channel, "synthesize_links", (optimizer,)),
    "scenario.associate_users": (scenario, "associate_users", (optimizer, experiment)),
    "beamforming.design_beamformers": (beamforming, "design_beamformers", (optimizer,)),
    "beamforming.select_codewords": (beamforming, "select_codewords", ()),
    "beamforming.project_channel": (beamforming, "project_channel", ()),
    "beamforming.digital_beamformers_svd": (beamforming, "digital_beamformers_svd", ()),
    "optimizer.rcg_optimize_phases": (optimizer, "rcg_optimize_phases", ()),
    "optimizer.alternating_optimize": (optimizer, "alternating_optimize", (experiment,)),
    "metrics.sinr_dl": (metrics, "sinr_dl", (optimizer,)),
    "metrics.sinr_ul": (metrics, "sinr_ul", (optimizer,)),
    "metrics.utility_report": (metrics, "utility_report", (optimizer,)),
    "experiment.run_experiment": (experiment, "run_experiment", ()),
    "experiment.export_results": (experiment, "export_results", ()),
}
METHODS = {
    "optimizer.value": (optimizer.DlRateObjective, "value"),
    "optimizer.value_and_grad": (optimizer.DlRateObjective, "value_and_grad"),
}

_NAME, _START, _END, _PARENT, _OP, _MACS = range(6)


def _ao_with_counter(args, kwargs):
    # counter is the seventh parameter of alternating_optimize
    if len(args) < 7 and kwargs.get("counter") is None:
        kwargs["counter"] = OpCounter()


def _design_counter(args, kwargs):
    return kwargs.get("counter", args[5] if len(args) > 5 else None)


def _objective_counter(args, kwargs):
    return args[0].counter


class Recorder:
    """In-memory spans plus the counts read from traced return values."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, macs]
        self.op_id = -1
        self.counts = defaultdict(int)
        self._stack = []

    def _wrap(self, name, fn, before=None, counter_of=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            counter = counter_of(args, kwargs) if counter_of is not None else None
            macs0 = counter.macs if counter is not None else 0
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    span[_MACS] = counter.macs - macs0
            if after is not None:
                after(result)
            return result

        return traced

    def _after_rcg(self, result):
        _, trace = result
        self.counts["optimizer.rcg.iters"] += len(trace) - 1
        self.counts["optimizer.rcg.fallbacks"] += sum(s.line_search_fallback for s in trace)

    def _after_ao(self, result):
        self.counts["optimizer.ao.rounds"] += len(result.trace)

    def _after_export(self, paths):
        self.counts["experiment.export_results.bytes"] += sum(p.stat().st_size for p in paths)

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        hooks = {
            "optimizer.alternating_optimize": {"before": _ao_with_counter, "after": self._after_ao},
            "optimizer.rcg_optimize_phases": {"after": self._after_rcg},
            "beamforming.design_beamformers": {"counter_of": _design_counter},
            "experiment.export_results": {"after": self._after_export},
            "optimizer.value": {"counter_of": _objective_counter},
            "optimizer.value_and_grad": {"counter_of": _objective_counter},
        }
        saved = []
        for name, (module, attr, importers) in FUNCTIONS.items():
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, **hooks.get(name, {}))
            for target in (module, *importers):
                if getattr(target, attr, None) is original:
                    saved.append((target, attr, original))
                    setattr(target, attr, wrapped)
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, **hooks.get(name, {})))
        try:
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def layer_table(self) -> dict:
        """Per span name: calls, busy seconds, self seconds and MACs.

        Self time is a span's duration minus the durations of its direct
        children; the program is single-threaded, so children never overlap.
        """
        table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "macs": 0})
        child_time = defaultdict(float)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        for index, span in enumerate(self.spans):
            row = table[span[_NAME]]
            busy = span[_END] - span[_START]
            row["calls"] += 1
            row["busy_s"] += busy
            row["self_s"] += busy - child_time[index]
            row["macs"] += span[_MACS]
        return table

    def rcg_evaluations(self) -> int:
        """Objective evaluations made directly by the RCG solver."""
        names = ("optimizer.value", "optimizer.value_and_grad")
        return sum(
            1
            for span in self.spans
            if span[_NAME] in names
            and span[_PARENT] >= 0
            and self.spans[span[_PARENT]][_NAME] == "optimizer.rcg_optimize_phases"
        )

    def write(self, path) -> None:
        """Dump the spans as CSV: index, name, start, end, parent, op, macs."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "op", "macs"])
            for index, span in enumerate(self.spans):
                writer.writerow(
                    [index, span[_NAME], f"{span[_START]:.9f}", f"{span[_END]:.9f}", *span[_PARENT:]]
                )
