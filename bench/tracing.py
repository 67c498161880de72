"""Spans and counts around kolmo's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every kolmo module
namespace that holds it, so a call is seen whether it comes from the
benchmark or from another kolmo module (``halting_programs`` inside
``approx_k``, ``MonotoneApproximator.__call__`` inside
``psi_discretize``).  ``uninstall`` puts the originals back.

A span's self time is its duration minus the time of the spans it
encloses.  Spans are aggregated per name as they close; the raw spans
(id, parent, operation, name, start, end) are kept up to a cap and
written out with the aggregates at the end.  ``Dyadic`` comparisons and
constructions are only counted: they are far too frequent to time.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

from kolmo import exact_arith, semimeasures, sf_coder

SPAN_CAP = 100_000

# module -> public functions timed as spans
SPANNED = {
    "codes": ("check_bits", "nat_to_string", "string_to_nat", "word_index", "index_word",
              "bar_encode", "bar_decode", "bar_length", "std_encode", "std_decode",
              "pair_strings", "unpair_strings", "pair3", "cantor_pair", "cantor_unpair",
              "is_prefix_free", "kraft_sum"),
    "prefix_vm": ("run", "halting_programs", "dovetail", "universal_run", "enumerate_machines",
                  "machine_description", "encode_description", "decode_description",
                  "parse_machine_text", "machine_to_text"),
    "complexity": ("approx_k", "approx_k_universal", "soi_report"),
    "apriori": ("approx_apriori", "apriori_vs_k", "extend_table", "save_table", "load_table",
                "format_table", "parse_table"),
    "semimeasures": ("load_approximator_csv", "normalize", "mixture", "check_domination",
                     "bar_weight_exponents"),
    "sf_coder": ("shannon_fano", "build_codebook", "machine_mass_stream", "mixture_mass_stream",
                 "decode", "codebook_to_machine", "coding_gap_report_machine",
                 "coding_gap_report_mixture", "format_codebook", "parse_codebook"),
    "quotient_demo": ("conditional_on_set", "quotient_conditional", "quotient_forms",
                      "mix_joint", "single_gap_report", "format_gap_report"),
    "cli": ("main",),
}
LAYERS = ("codes", "prefix_vm", "complexity", "apriori", "semimeasures", "sf_coder",
          "quotient_demo", "cli", "bench")
_CMP = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}   # name -> [calls, total ns, self ns]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list[int]] = []        # [span id, child ns] per open span
        self._next_id = 0
        self._op = 0
        self._undo: list[tuple[object, str, object]] = []
        self._op_keys: set = set()
        self._op_points: set = set()

    # -- spans -----------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        self._next_id += 1
        self._stack.append([self._next_id, 0])
        return self._next_id, perf_counter_ns()

    def _close(self, name: str, sid: int, t0: int) -> None:
        t1 = perf_counter_ns()
        d = t1 - t0
        _, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += d
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += d
        st[2] += d - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[0] if parent else 0, self._op, name, t0, t1))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)``
        records counts once the call has returned."""
        def traced(*args, **kwargs):
            sid, t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, t0)
            if after is not None:
                after(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def operation(self, fn, *args):
        """Run one benchmark operation as the root span ``bench.op``."""
        self._op += 1
        self._op_keys.clear()
        self._op_points.clear()
        return self.wrap("bench.op", fn)(*args)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "kolmo" or modname.startswith("kolmo."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, attr, replacement)

    def install(self) -> None:
        after = {
            "prefix_vm.halting_programs": self._after_halting,
            "prefix_vm.enumerate_machines": self._after_enumerate,
            "semimeasures.normalize": self._after_normalize,
        }
        for mod, names in SPANNED.items():
            module = sys.modules[f"kolmo.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                name = f"{mod}.{fname}"
                if name == "prefix_vm.dovetail":
                    self._replace(fn, self._dovetail(fn))
                elif name == "sf_coder.build_codebook":
                    self._replace(fn, self._build_codebook(fn))
                else:
                    self._replace(fn, self.wrap(name, fn, after.get(name)))
        self._replace(semimeasures.normalize_stages, self._stages(semimeasures.normalize_stages))
        approx = semimeasures.MonotoneApproximator
        self._set(approx, "__call__", self.wrap("semimeasures.approx", approx.__call__, self._after_approx))
        book = sf_coder.CodeBook
        self._set(book, "codeword", self.wrap("sf_coder.CodeBook.codeword", book.codeword))
        self._set(sf_coder, "MonotoneApproximator", self._stream_class(approx))
        self._count_dyadic()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_dyadic(self) -> None:
        cls = exact_arith.Dyadic
        counts = self.counts
        for attr in _CMP:
            orig = getattr(cls, attr)

            def cmp(a, b, _orig=orig):
                counts["exact_arith.cmp_calls"] += 1
                return _orig(a, b)
            self._set(cls, attr, cmp)
        post = cls.__post_init__

        def post_init(d):
            counts["exact_arith.new_calls"] += 1
            post(d)
        self._set(cls, "__post_init__", post_init)

    # -- per-function records ---------------------------------------------

    def _after_halting(self, args, kwargs, leaves) -> None:
        key = tuple(args) + tuple(sorted(kwargs.items()))
        self.counts["prefix_vm.halting_programs.repeats"] += key in self._op_keys
        self._op_keys.add(key)
        self.counts["prefix_vm.halting_programs.leaves"] += len(leaves)

    def _after_enumerate(self, args, kwargs, machine) -> None:
        pos = args[0] if args else kwargs["i"]
        self.counts["prefix_vm.enumerate.positions"] = max(self.counts["prefix_vm.enumerate.positions"], pos)

    def _after_normalize(self, args, kwargs, table) -> None:
        self.counts["semimeasures.frozen_columns"] += len(table.frozen_y)

    def _after_approx(self, args, kwargs, value) -> None:
        point = (id(args[0]),) + tuple(args[1:])
        self.counts["semimeasures.approx.repeats"] += point in self._op_points
        self._op_points.add(point)

    def _dovetail(self, fn):
        def dovetail(m, aux, max_stage, scheduler="shared-tree"):
            name = "prefix_vm.dovetail_staged" if scheduler == "staged" else "prefix_vm.dovetail_tree"
            events = self.wrap(name, fn)(m, aux, max_stage, scheduler)
            self.counts["prefix_vm.events"] += len(events)
            return events
        return dovetail

    def _build_codebook(self, fn):
        inner = self.wrap("sf_coder.build_codebook", fn)

        def build_codebook(*args, **kwargs):
            before = self.stats.get("semimeasures.approx", [0])[0]
            book = inner(*args, **kwargs)
            self.counts["sf_coder.samples"] += self.stats.get("semimeasures.approx", [0])[0] - before
            self.counts["sf_coder.events"] += len(book.entries)
            return book
        return build_codebook

    def _stages(self, gen_fn):
        """Count the clamping loop's stages as they are yielded."""
        counts = self.counts

        def normalize_stages(*args, **kwargs):
            for table in gen_fn(*args, **kwargs):
                counts["semimeasures.stages"] += 1
                counts["semimeasures.frozen_stages"] += bool(table.frozen_y)
                yield table
        return normalize_stages

    def _stream_class(self, base):
        """A MonotoneApproximator whose stage function is a span of the
        sf_coder stream that built it, so the stairs lookups and the
        dovetailing behind them are charged to the stream, not the
        approximator's bookkeeping."""
        tracer = self

        class TracedStream(base):
            def __init__(self, fn, name="phi"):
                span = "sf_coder.machine_mass_stream" if name.startswith("mass:") else "sf_coder.mixture_mass_stream"
                super().__init__(tracer.wrap(span, fn), name=name)
        return TracedStream

    # -- results ------------------------------------------------------------

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def layer_self(self, layer: str) -> float:
        return sum(st[2] for name, st in self.stats.items() if name.split(".")[0] == layer) / 1e9

    def metrics(self) -> dict[str, float]:
        c = self.counts
        s, t, n = self.self_s, self.total, self.calls
        halting = n("prefix_vm.halting_programs")
        approx = n("semimeasures.approx")
        codes_calls = sum(st[0] for name, st in self.stats.items() if name.startswith("codes."))
        out = {
            "exact_arith.cmp_calls": c["exact_arith.cmp_calls"],
            "exact_arith.new_calls": c["exact_arith.new_calls"],
            "codes.calls": codes_calls,
            "codes.self_s": self.layer_self("codes"),
            "prefix_vm.run.self_s": s("prefix_vm.run"),
            "prefix_vm.run.calls": n("prefix_vm.run"),
            "prefix_vm.halting_programs.self_s": s("prefix_vm.halting_programs"),
            "prefix_vm.halting_programs.calls": halting,
            "prefix_vm.halting_programs.repeat_frac": c["prefix_vm.halting_programs.repeats"] / max(halting, 1),
            "prefix_vm.halting_programs.leaves": c["prefix_vm.halting_programs.leaves"],
            "prefix_vm.dovetail_staged.self_s": s("prefix_vm.dovetail_staged"),
            "prefix_vm.dovetail_tree.self_s": s("prefix_vm.dovetail_tree"),
            "prefix_vm.events": c["prefix_vm.events"],
            "prefix_vm.enumerate.s": t("prefix_vm.enumerate_machines"),
            "prefix_vm.enumerate.positions": c["prefix_vm.enumerate.positions"],
            "complexity.approx_k.self_s": s("complexity.approx_k"),
            "complexity.approx_k_universal.self_s": s("complexity.approx_k_universal"),
            "apriori.approx_apriori.self_s": s("apriori.approx_apriori"),
            "apriori.extend_table.self_s": s("apriori.extend_table"),
            "apriori.table_io.s": t("apriori.save_table") + t("apriori.load_table"),
            "semimeasures.approx.s": t("semimeasures.approx"),
            "semimeasures.approx.calls": approx,
            "semimeasures.approx.memo_frac": c["semimeasures.approx.repeats"] / max(approx, 1),
            "semimeasures.normalize.self_s": s("semimeasures.normalize"),
            "semimeasures.mixture.self_s": s("semimeasures.mixture"),
            "semimeasures.check_domination.self_s": s("semimeasures.check_domination"),
            "semimeasures.stages": c["semimeasures.stages"],
            "semimeasures.frozen_columns": c["semimeasures.frozen_columns"],
            "semimeasures.frozen_stage_frac": c["semimeasures.frozen_stages"] / max(c["semimeasures.stages"], 1),
            "sf_coder.build_codebook.self_s": s("sf_coder.build_codebook"),
            "sf_coder.events": c["sf_coder.events"],
            "sf_coder.samples_per_event": c["sf_coder.samples"] / max(c["sf_coder.events"], 1),
            "sf_coder.machine_mass_stream.s": t("sf_coder.machine_mass_stream"),
            "sf_coder.mixture_mass_stream.s": t("sf_coder.mixture_mass_stream"),
            "sf_coder.book_io.s": t("sf_coder.format_codebook") + t("sf_coder.parse_codebook"),
            "sf_coder.lookup.s": t("sf_coder.CodeBook.codeword") + t("sf_coder.decode"),
            "sf_coder.codebook_to_machine.s": t("sf_coder.codebook_to_machine"),
            "quotient_demo.single_gap_report.self_s": s("quotient_demo.single_gap_report"),
            "cli.main.self_s": s("cli.main"),
            "cli.main.calls": n("cli.main"),
        }
        ops_s = max(t("bench.op"), 1e-9)
        for layer in LAYERS:
            out[f"layer.{layer}.self_share"] = self.layer_self(layer) / ops_s
        return out

    def dump(self, path) -> None:
        doc = {
            "stats": {name: {"calls": st[0], "total_ns": st[1], "self_ns": st[2]}
                      for name, st in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans_dropped": self.dropped,
            "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_frac", "_share")):
        return "fraction"
    if metric.endswith(("slowdown", "per_event")):
        return "ratio"
    return "count"
