"""In-process traced replay of the pipeline, for the per-layer metrics.

Each repetition replays the five CLI steps by calling wattscope's public
functions directly, with a span (name, start, end, parent, workload)
around every call.  The layers are the package's modules: traces, jobs,
attribution, calibration, analytics and cli.  Spans stay in memory and
are written out once, at the end of the run.

A public name that a later refactor removes does not fail the run: the
calls that need it, and the metrics built on them, are recorded as absent.
Only the untraced end-to-end metrics gate; these explain them.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import time
from bisect import bisect_right
from pathlib import Path

import gen

MISSING = object()  # stands in for the result of a call that could not be made

# metric -> span name; the value is the median duration over all spans of that name
SPAN_METRICS = {
    "traces.parse_power_s": "traces.parse_power",
    "traces.parse_proc_s": "traces.parse_proc",
    "traces.parse_external_s": "traces.parse_external",
    "traces.bundle_build_s": "traces.bundle_build",
    "jobs.parse_pidmap_s": "jobs.parse_pidmap",
    "jobs.parse_jobs_s": "jobs.parse_jobs",
    "jobs.build_timelines_s": "jobs.build_timelines",
    "attribution.attribute_s": "attribution.attribute",
    "attribution.attribute_threads2_s": "attribution.attribute_threads2",
    "attribution.serialize_slices_s": "attribution.serialize_slices",
    "attribution.parse_slices_s": "attribution.parse_slices",
    "attribution.integrate_energy_s": "attribution.integrate_energy",
    "calibration.fit_nodes_s": "calibration.fit_nodes",
    "calibration.apply_s": "calibration.apply",
    "analytics.aggregate_s": "analytics.aggregate",
    "analytics.gpu_histogram_s": "analytics.gpu_histogram",
    "analytics.render_s": "analytics.render",
}

UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    "traces.power_records": "count",
    "traces.proc_records": "count",
    "traces.input_mib": "MiB",
    "jobs.pidmap_snapshots": "count",
    "attribution.slices": "count",
    "attribution.job_entries": "count",
    "attribution.slice_mib": "MiB",
    "attribution.covered_frac": "ratio",
    "attribution.unattributed_frac": "ratio",
    "calibration.nodes_fitted_frac": "ratio",
    "analytics.gpu_samples": "count",
    "analytics.gpu_excluded_frac": "ratio",
    "cli.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}

STEP_SPANS = ("step.attribute", "step.calibrate", "step.report_slices", "step.report_raw", "step.gpu_hist")

# names the attribute command looks up in wattscope.cli, traced while cli.run executes
_CLI_CALLS = {
    "parse_power_trace": "traces.parse_power",
    "parse_proc_trace": "traces.parse_proc",
    "parse_pidmap": "jobs.parse_pidmap",
    "parse_jobs": "jobs.parse_jobs",
    "build_timelines": "jobs.build_timelines",
    "attribute": "attribution.attribute",
    "serialize_slices": "attribution.serialize_slices",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records nested spans in memory; resolves public names that may be gone."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.absent: set[str] = set()
        self.rep = 0

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "workload": self.workload,
            "rep": self.rep,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span, unless it or one of its inputs is MISSING."""
        if fn is MISSING or any(a is MISSING for a in (*args, *kwargs.values())):
            self.absent.add(name)
            return MISSING
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def public(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, MISSING)
        if obj is MISSING:
            return MISSING
    return obj


def _apply_models(apply_calibration, slices, models):
    """Apply one model per node, as `report --model` does."""
    by_node = {m.node_id: m for m in models}
    grouped: dict[str, list] = {}
    for s in slices:
        grouped.setdefault(s.node_id, []).append(s)
    out = []
    for node in sorted(grouped):
        model = by_node.get(node)
        out.extend(apply_calibration(model, grouped[node]) if model is not None else grouped[node])
    return out


def _job_of(index):
    """Step-hold pid owner lookup over a per-node ownership index."""

    def job_of(node_id: str, pid: int, ts: float):
        entry = index.get(node_id)
        if entry is None:
            return None
        i = bisect_right(entry[0], ts) - 1
        return entry[1][i].get(pid) if i >= 0 else None

    return job_of


class Replay:
    """Repeats the traced pipeline and turns its spans into per-layer metrics."""

    def __init__(self, workload: str, src: Path, inputs, truth):
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        from wattscope import analytics, attribution, calibration, cli, jobs, traces

        self.m = {"traces": traces, "jobs": jobs, "attribution": attribution,
                  "calibration": calibration, "analytics": analytics, "cli": cli}
        self.inputs = inputs
        self.truth = truth
        self.tr = Tracer(workload)
        self.counts: dict[str, float] = {}
        self.problems: list[str] = []

    def fn(self, module: str, name: str):
        return public(self.m[module], name)

    def _read(self, span: str, module: str, name: str, path: str, *extra):
        with open(path, encoding="utf-8", newline="") as fh:
            return self.tr.call(span, self.fn(module, name), fh, *extra)

    # ------------------------------------------------------------ the steps

    def _ingest(self):
        power = self._read("traces.parse_power", "traces", "parse_power_trace", self.inputs.power)
        procs = self._read("traces.parse_proc", "traces", "parse_proc_trace", self.inputs.proc)
        pidmap = self._read("jobs.parse_pidmap", "jobs", "parse_pidmap", self.inputs.pidmap)
        job_recs = self._read("jobs.parse_jobs", "jobs", "parse_jobs", self.inputs.jobs)
        timelines = self.tr.call("jobs.build_timelines", self.fn("jobs", "build_timelines"), pidmap, job_recs)
        bundle = self.tr.call("traces.bundle_build", self.fn("traces", "TraceBundle.build"), power, procs)
        return power, procs, pidmap, job_recs, timelines, bundle

    def _report(self, job_recs, slices) -> None:
        tr = self.tr
        models = self._read("calibration.parse_models", "calibration", "parse_models", self.inputs.model)
        applied = tr.call("calibration.apply", _apply_models, self.fn("calibration", "apply_calibration"), slices, models)
        energies = tr.call("attribution.integrate_energy", self.fn("attribution", "integrate_energy"), applied)
        if energies is not MISSING:
            self._unattributed(energies)
            energies.pop(0, None)
        report = tr.call("analytics.aggregate", self.fn("analytics", "aggregate_by_status"), job_recs, energies)
        tr.call("analytics.render", self.fn("analytics", "render_report"), report)

    def _unattributed(self, energies) -> None:
        total = sum(e.cpu_kwh + e.gpu_kwh for e in energies.values())
        un = energies.get(0)
        self.counts["attribution.unattributed_frac"] = _ratio(un.cpu_kwh + un.gpu_kwh if un else 0.0, total)

    def rep(self) -> list[str]:
        """One traced pass over the pipeline; returns the problems it found."""
        tr = self.tr
        tr.rep += 1
        fn = self.fn
        state: dict = {}

        def attribute_step():
            power, procs, pidmap, _, timelines, bundle = self._ingest()
            slices = tr.call("attribution.attribute", fn("attribution", "attribute"), bundle, timelines)
            text = tr.call("attribution.serialize_slices", fn("attribution", "serialize_slices"), slices)
            state.update(power=power, procs=procs, pidmap=pidmap, timelines=timelines, bundle=bundle,
                         slices=slices, text=text)

        def calibrate_step():
            software = self._read("traces.parse_power", "traces", "parse_power_trace", self.inputs.power)
            external = self._read("traces.parse_external", "traces", "parse_power_trace", self.inputs.external, "ext")
            models = tr.call("calibration.fit_nodes", fn("calibration", "fit_nodes"), software, external)
            tr.call("calibration.serialize_models", fn("calibration", "serialize_models"), models)
            if models is not MISSING and external is not MISSING:
                ext_nodes = {s.node_id for s in external}
                self.counts["calibration.nodes_fitted_frac"] = _ratio(len(models), len(ext_nodes))

        def report_slices_step():
            job_recs = self._read("jobs.parse_jobs", "jobs", "parse_jobs", self.inputs.jobs)
            slices = self._read("attribution.parse_slices", "attribution", "parse_slices", str(self.inputs.out("attribute")))
            self._report(job_recs, slices)

        def report_raw_step():
            _, _, _, job_recs, timelines, bundle = self._ingest()
            slices = tr.call("attribution.attribute", fn("attribution", "attribute"), bundle, timelines)
            self._report(job_recs, slices)

        def gpu_hist_step():
            procs = self._read("traces.parse_proc", "traces", "parse_proc_trace", self.inputs.proc)
            pidmap = self._read("jobs.parse_pidmap", "jobs", "parse_pidmap", self.inputs.pidmap)
            job_recs = self._read("jobs.parse_jobs", "jobs", "parse_jobs", self.inputs.jobs)
            timelines = tr.call("jobs.build_timelines", fn("jobs", "build_timelines"), pidmap, job_recs)
            index = tr.call("jobs.ownership_index", fn("jobs", "ownership_index"), timelines)
            job_of = MISSING if index is MISSING else _job_of(index)
            hist = tr.call("analytics.gpu_histogram", fn("analytics", "gpu_histogram"), procs, job_of=job_of)
            tr.call("analytics.render", fn("analytics", "render_report"), hist)
            if hist is not MISSING:
                self.counts["analytics.gpu_samples"] = hist.n_samples
                self.counts["analytics.gpu_excluded_frac"] = _ratio(hist.excluded, self.truth.gpu_samples)

        tr.call("step.attribute", attribute_step)
        self._extras(state)
        state.clear()
        tr.call("step.calibrate", calibrate_step)
        tr.call("step.report_slices", report_slices_step)
        tr.call("step.report_raw", report_raw_step)
        tr.call("step.gpu_hist", gpu_hist_step)
        problems, self.problems = self.problems, []
        return problems

    def _extras(self, state: dict) -> None:
        """Calls outside the pipeline: the threaded split, coverage, and the CLI itself."""
        tr = self.tr
        fn = self.fn
        tr.call("attribution.attribute_threads2", fn("attribution", "attribute"),
                state["bundle"], state["timelines"], threads=2)
        coverage = tr.call("attribution.slice_coverage", fn("attribution", "slice_coverage"), state["slices"])
        if coverage is not MISSING:
            self.counts["attribution.covered_frac"] = _ratio(coverage.covered_s, coverage.covered_s + coverage.excluded_s)
        for name, obj in (("power", "traces.power_records"), ("procs", "traces.proc_records"),
                          ("pidmap", "jobs.pidmap_snapshots"), ("slices", "attribution.slices")):
            if state[name] is not MISSING:
                self.counts[obj] = len(state[name])
        if state["slices"] is not MISSING:
            self.counts["attribution.job_entries"] = sum(len(s.per_job) for s in state["slices"])
        if state["text"] is not MISSING:
            text = state["text"].encode()
            self.counts["attribution.slice_mib"] = len(text) / 2**20
            if text != self.inputs.out("attribute").read_bytes():
                self.problems.append("traced attribute output differs from the CLI's")
        self.counts["traces.input_mib"] = sum(
            Path(getattr(self.inputs, name)).stat().st_size for name in gen.FILES
        ) / 2**20
        self._cli_attribute()

    def _cli_attribute(self) -> None:
        """Run the attribute command in-process, with its library calls traced as children."""
        cli = self.m["cli"]
        run = public(cli, "run")
        if run is MISSING:
            self.tr.absent.add("cli.run")
            return
        saved = {name: getattr(cli, name) for name in (*_CLI_CALLS, "TraceBundle") if hasattr(cli, name)}
        try:
            for name, span in _CLI_CALLS.items():
                if name in saved:
                    setattr(cli, name, self.tr.wrap(f"cli>{span}", saved[name]))
            if "TraceBundle" in saved:
                cli.TraceBundle = type("TraceBundle", (), {
                    "build": staticmethod(self.tr.wrap("cli>traces.bundle_build", saved["TraceBundle"].build))})
            out, err = io.StringIO(), io.StringIO()
            argv = self.inputs.argv("attribute")
            code = self.tr.call("cli.run", run, argv, out, err)
        finally:
            for name, obj in saved.items():
                setattr(cli, name, obj)
        if code != 0:
            self.problems.append(f"in-process cli attribute exited {code}: {err.getvalue()[-300:]}")

    # ------------------------------------------------------------ results

    def metrics(self, pipeline_s: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics, and the names of those that are absent."""
        tr = self.tr
        durations: dict[str, list[float]] = {}
        for s in tr.spans:
            durations.setdefault(s["name"], []).append(s["end"] - s["start"])
        values: dict[str, float] = {}
        for metric, span in SPAN_METRICS.items():
            if span in durations:
                values[metric] = statistics.median(durations[span])
        own = tr.self_times()
        cli_self = [own[s["id"]] for s in tr.spans if s["name"] == "cli.run"]
        if cli_self:
            values["cli.self_s"] = statistics.median(cli_self)
        totals: dict[int, float] = {}
        for s in tr.spans:
            if s["name"] in STEP_SPANS:
                totals[s["rep"]] = totals.get(s["rep"], 0.0) + s["end"] - s["start"]
        values["trace.total_s"] = statistics.median(totals.values())
        values["trace.overhead_s"] = values["trace.total_s"] - pipeline_s
        values.update(self.counts)
        ordered = {name: values[name] for name in UNITS if name in values}
        return ordered, [name for name in UNITS if name not in values]

    def write(self, path: Path, env: dict) -> None:
        own = self.tr.self_times()
        spans = [{**s, "self": own[s["id"]]} for s in self.tr.spans]
        layer_self: dict[str, float] = {}
        for s in spans:
            layer = s["name"].split(">")[-1].split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + s["self"]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"env": env, "workload": self.tr.workload, "reps": self.tr.rep,
               "absent_calls": sorted(self.tr.absent), "self_s_by_layer": layer_self, "spans": spans}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
