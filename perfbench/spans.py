"""Span tracing of the parrsp layers, installed from outside the package.

`install` replaces functions and methods of the parrsp modules with
wrappers that record a span (name, start, end, parent span, operation id)
or, for the hot fine-grained calls, only a count.  A name imported by
another module is patched in that module too, because that is where the
call looks it up.  Spans stay in memory until `Tracer.dump` writes them.

A span's self time is its duration minus the durations of its child spans;
spans nest strictly because everything traced runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = (
    "entcf", "gf2", "qcore", "provers", "protocol",
    "wire", "transcript", "unclonable", "copyprotect", "diagnostics",
)
# modules whose global names are call sites of layer functions
SITES = LAYERS + ("cli",)

# run 2^(w+1) times per key, or thousands of times per field operation:
# counted, never timed
COUNT_ONLY = {"entcf.eval_point", "gf2.gf_mul", "gf2.gf_inv"}

SPAN_ALIASES = {
    "entcf.decode_b": "entcf.decode",
    "entcf.decode_u": "entcf.decode",
    "entcf.decode_x": "entcf.decode",
    "wire.int_to_hex": "wire.hex",
    "wire.hex_to_int": "wire.hex",
    "wire.bits_to_hex": "wire.hex",
    "wire.hex_to_bits": "wire.hex",
    "protocol.run_multi_round": "protocol.verifier",
    "protocol.run_test_round": "protocol.verifier",
    "protocol.run_prep_round": "protocol.verifier",
}

# (module, class, method) -> span name; classes are patched where they are
# defined, and every subclass that overrides the method is patched as well
METHODS = {
    ("provers", "LocalProver", "handle"): "provers.handle",
    ("provers", "LocalProver", "commit"): "provers.commit",
    ("provers", "LocalProver", "preimage_answers"): "provers.preimage_answers",
    ("provers", "LocalProver", "equation_answers"): "provers.equation_answers",
    ("provers", "LocalProver", "question_answers"): "provers.question_answers",
    ("protocol", "VerifierSession", "run_multi_round"): "protocol.verifier",
    ("protocol", "VerifierSession", "run_test_round"): "protocol.round",
    ("protocol", "VerifierSession", "run_prep_round"): "protocol.round",
    ("transcript", "TranscriptRecorder", "record"): "transcript.record",
    ("transcript", "TranscriptRecorder", "summary"): "transcript.record",
    ("unclonable", "CloningAttack", "split"): "unclonable.split",
    ("diagnostics", "Device", "sigma_blocks"): "diagnostics.sigma_blocks",
    ("diagnostics", "Device", "psi_blocks"): "diagnostics.psi_blocks",
    ("diagnostics", "Device", "question_projector"): "diagnostics.question_projector",
    ("diagnostics", "Device", "observable_matrix"): "diagnostics.observable_matrix",
    ("diagnostics", "Device", "decode_block"): "diagnostics.decode_block",
    ("diagnostics", "BlockObservable", "matrix_for"): "diagnostics.matrix_for",
    ("diagnostics", "BlockIsometry", "matrix_for"): "diagnostics.matrix_for",
}

# functions whose output length is counted, only where they are defined
BYTE_COUNTERS = {
    ("wire", "encode_message"): ("wire.bytes", 0),
    ("transcript", "canonical_json"): ("transcript.bytes", 1),  # one newline per line
}

ROOT = "bench."  # prefix of the benchmark's own root spans


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.op_id = None
        self.active = True
        self._stack: list[list] = []  # [span index, child seconds]

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[frame[0]]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - frame[1]
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration
        elif span[0].startswith(ROOT):
            self.root_s += duration

    @contextlib.contextmanager
    def root(self, name: str, op_id):
        """One benchmark operation (a root span); `op_id` tags its spans."""
        self.op_id = op_id
        frame = self._enter(ROOT + name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap_span(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def wrap_count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_bytes(self, fn, name: str, extra: int):
        counts = self.counts

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.active:
                counts[name] += len(out) + extra
            return out

        return measured

    def aggregates(self) -> dict:
        layer_self = {name: s for name, s in self.self_s.items() if not name.startswith(ROOT)}
        return {
            "self_ms": {k: v * 1e3 for k, v in layer_self.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "root_ms": self.root_s * 1e3,
            "layer_ms": sum(layer_self.values()) * 1e3,
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def _module(name: str):
    return importlib.import_module(f"parrsp.{name}")


def _defined_functions(module):
    for attr, value in vars(module).items():
        if inspect.isfunction(value) and not attr.startswith("_"):
            yield attr, value


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules at every call site,
    plus the methods in METHODS."""
    layer_of = {f"parrsp.{layer}": layer for layer in LAYERS}
    wrappers: dict[int, object] = {}
    for site in SITES:
        module = _module(site)
        for attr, fn in list(_defined_functions(module)):
            layer = layer_of.get(fn.__module__)
            if layer is None or fn.__name__ != attr:
                continue
            if (layer, attr) in BYTE_COUNTERS:
                if site == layer:
                    setattr(module, attr, tracer.wrap_bytes(fn, *BYTE_COUNTERS[(layer, attr)]))
                continue
            if id(fn) not in wrappers:
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[id(fn)] = tracer.wrap_count(fn, name)
                else:
                    wrappers[id(fn)] = tracer.wrap_span(fn, SPAN_ALIASES.get(name, name))
            setattr(module, attr, wrappers[id(fn)])

    for (mod_name, cls_name, method), span_name in METHODS.items():
        base = getattr(_module(mod_name), cls_name)
        for cls in [base, *_subclasses(base)]:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap_span(vars(cls)[method], span_name))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# -- per-layer metrics ---------------------------------------------------------

# metric -> (kind, span or counter names); every `.ms` is self time
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "entcf.gen.ms": ("ms", ("entcf.gen",)),
    "entcf.gen.calls": ("calls", ("entcf.gen",)),
    "entcf.preimage_table.ms": ("ms", ("entcf.preimage_table",)),
    "entcf.preimage_table.calls": ("calls", ("entcf.preimage_table",)),
    "entcf.eval_point.calls": ("count", ("entcf.eval_point",)),
    "entcf.decode.ms": ("ms", ("entcf.decode",)),
    "entcf.chk.ms": ("ms", ("entcf.chk",)),
    "provers.commit.ms": ("ms", ("provers.commit",)),
    "provers.equation_answers.ms": ("ms", ("provers.equation_answers",)),
    "provers.question_answers.ms": ("ms", ("provers.question_answers",)),
    "provers.preimage_answers.ms": ("ms", ("provers.preimage_answers",)),
    "provers.handle.ms": ("ms", ("provers.handle",)),
    "qcore.measure_computational.ms": ("ms", ("qcore.measure_computational",)),
    "qcore.measure_computational.calls": ("calls", ("qcore.measure_computational",)),
    "qcore.hadamard_layer.ms": ("ms", ("qcore.hadamard_layer",)),
    "qcore.apply_operator.ms": ("ms", ("qcore.apply_operator",)),
    "qcore.trace_norm.ms": ("ms", ("qcore.trace_norm",)),
    "qcore.trace_norm.calls": ("calls", ("qcore.trace_norm",)),
    "protocol.verifier.ms": ("ms", ("protocol.verifier", "protocol.round")),
    "protocol.rounds": ("calls", ("protocol.round",)),
    "wire.hex.ms": ("ms", ("wire.hex",)),
    "wire.send_message.ms": ("ms", ("wire.send_message",)),
    "wire.recv_message.ms": ("ms", ("wire.recv_message",)),
    "wire.messages": ("calls", ("wire.send_message",)),
    "wire.bytes": ("count", ("wire.bytes",)),
    "transcript.record.ms": ("ms", ("transcript.record",)),
    "transcript.replay.ms": ("ms", ("transcript.replay",)),
    "transcript.bytes": ("count", ("transcript.bytes",)),
    "gf2.pip_eval.ms": ("ms", ("gf2.pip_eval", "gf2.pip_eval_int")),
    "gf2.pip_eval.calls": ("calls", ("gf2.pip_eval",)),
    "gf2.gf_mul.calls": ("count", ("gf2.gf_mul",)),
    "gf2.gf_inv.calls": ("count", ("gf2.gf_inv",)),
    "unclonable.cc_enc.ms": ("ms", ("unclonable.cc_enc",)),
    "unclonable.cc_dec.ms": ("ms", ("unclonable.cc_dec",)),
    "unclonable.wkd_enc.ms": ("ms", ("unclonable.wkd_enc",)),
    "unclonable.wkd_dec.ms": ("ms", ("unclonable.wkd_dec",)),
    "unclonable.split.ms": ("ms", ("unclonable.split",)),
    "copyprotect.cp_protect.ms": ("ms", ("copyprotect.cp_protect",)),
    "copyprotect.cp_eval.ms": ("ms", ("copyprotect.cp_eval",)),
    "diagnostics.sigma_blocks.ms": ("ms", ("diagnostics.sigma_blocks",)),
    "diagnostics.sigma_blocks.calls": ("calls", ("diagnostics.sigma_blocks",)),
    "diagnostics.bb84_report.ms": ("ms", ("diagnostics.bb84_report",)),
    "diagnostics.isometry_relation_gap.ms": ("ms", ("diagnostics.isometry_relation_gap",)),
    "diagnostics.success_relations_report.ms": ("ms", ("diagnostics.success_relations_report",)),
    "diagnostics.gammas.ms": ("ms", ("diagnostics.gammas",)),
    "diagnostics.pauli_relation_grid.ms": ("ms", ("diagnostics.pauli_relation_grid",)),
}
LAYER_METRICS.update({f"{layer}.ms": ("layer", (layer,)) for layer in LAYERS})


# the prover child's wait for the verifier's next message; the verifier's
# own work already accounts for that time
CHILD_WAITS = {"wire.recv_message"}


def merge(bench: dict, prover: dict | None) -> dict:
    """Sum the aggregates of the benchmark process and the prover child."""
    total = {key: Counter(bench[key]) for key in ("self_ms", "calls", "counts")}
    if prover is not None:
        for key in total:
            total[key].update({k: v for k, v in prover[key].items() if k not in CHILD_WAITS})
    return total


def layer_metrics(agg: dict, ops: int) -> dict[str, float]:
    """Per-operation values of LAYER_METRICS from merged aggregates."""
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        if kind == "ms":
            value = sum(agg["self_ms"].get(n, 0.0) for n in names)
        elif kind == "calls":
            value = sum(agg["calls"].get(n, 0) for n in names)
        elif kind == "count":
            value = sum(agg["counts"].get(n, 0) for n in names)
        else:
            prefix = names[0] + "."
            value = sum(v for n, v in agg["self_ms"].items() if n.startswith(prefix))
        out[metric] = value / ops
    return out
