"""Span tracing of nicholslie's public functions, installed from outside.

The program carries no tracing of its own, so the benchmark wraps the
public functions of each layer at run time: every module attribute (and
class attribute) that is one of the targets below is replaced by a
wrapper that records a span (name, start, end, parent span, op id).
Spans are kept in flat arrays in memory, written out when the run ends,
and every per-layer number is computed from them afterwards.

A call that re-enters a function whose span is already open (the same
name further up the stack) is passed through unrecorded, so calls and
busy time count each outermost call once.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import time
import types
from array import array

# (module, attribute path, span name); "Class.attr" paths are patched on
# the class, plain names in every nicholslie module that imported them.
TARGETS = [
    ("scalar", "Scalar.__add__", "scalar.add"),
    ("scalar", "Scalar.inv", "scalar.inv"),
    ("braiding", "BraidingMatrix.from_json", "braiding.parse"),
    ("braiding", "BraidingMatrix.from_strings", "braiding.parse"),
    ("braiding", "BraidingMatrix.chi", "braiding.chi"),
    ("freealg", "apply_bracketing", "freealg.apply_bracketing"),
    ("freealg", "braided_bracket", "freealg.bracket"),
    ("freealg", "minus_bracket", "freealg.bracket"),
    ("graphs", "build_graph", "graphs.build_graph"),
    ("graphs", "components", "graphs.components"),
    ("nichols", "basis_of_degree", "nichols.basis_of_degree"),
    ("nichols", "symmetrizer_rank_oracle", "nichols.symmetrizer_rank"),
    ("nichols", "pairing_vector", "nichols.pairing_vector"),
    ("nichols", "word_pairing_vector", "nichols.word_pairing_vector"),
    ("nichols", "is_zero_in_nichols", "nichols.is_zero"),
    ("lie", "lie_span", "lie.lie_span"),
    ("lie", "monomial_membership", "lie.membership"),
    ("lie", "max_supports", "lie.max_supports"),
    ("verify", "check_theorem_equivalences", "verify.thm-equiv"),
    ("verify", "check_theorem_max_support", "verify.thm-maxsupport"),
    ("verify", "check_prop_disconnected_pair", "verify.prop-pair"),
    ("verify", "check_prop_all_bracketings", "verify.prop-brackets"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_matrix_file", "cli.parse_matrix_file"),
]
# Scalar.__mul__ gets one span name per cyclotomic order of its left operand.
MUL_ORDERS = (1, 3, 8, 24)
VERDICTS = ("Confirmed", "Counterexample", "Inconclusive", "PreconditionNotMet")


class Tracer:
    """Span recorder; install() patches a freshly imported nicholslie."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.active = []
        self.op_id = -1
        self.basis_kept = 0
        self.verdicts = dict.fromkeys(VERDICTS, 0)
        self._restore = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return nid

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, nid, name_of=None, on_result=None):
        names, parent, ops, start, end = self.name, self.parent, self.op, self.start, self.end
        stack, active, clock, tracer = self.stack, self.active, time.perf_counter, self

        def wrapper(*args, **kwargs):
            n = name_of(args[0]) if name_of is not None else nid
            if active[n]:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(n)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            active[n] = 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[n] = 0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_span(self, result):
        self.basis_kept += result.dimension

    def _on_verdict(self, result):
        self.verdicts[result.verdict] += 1

    def install(self, lib):
        """Patch every target in the modules of one nicholslie import."""
        modules = [lib] + [m for m in vars(lib).values() if isinstance(m, types.ModuleType)]
        for mod_name, path, span in TARGETS:
            module = getattr(lib, mod_name)
            hook = self._on_span if span == "lie.lie_span" else (
                self._on_verdict if span.startswith("verify.") else None)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_class(getattr(module, cls_name), attr, self.intern(span), hook)
            else:
                orig = getattr(module, path)
                wrapper = self._wrap(orig, self.intern(span), on_result=hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, value))
                            setattr(mod, key, wrapper)
        mul_ids = {order: self.intern(f"scalar.mul.o{order}") for order in MUL_ORDERS}

        def mul_name(scalar):
            nid = mul_ids.get(scalar.order)
            if nid is None:
                nid = mul_ids[scalar.order] = self.intern(f"scalar.mul.o{scalar.order}")
            return nid

        scalar_cls = lib.scalar.Scalar
        orig_mul = scalar_cls.__dict__["__mul__"]
        wrapper = self._wrap(orig_mul, None, name_of=mul_name)
        for attr in ("__mul__", "__rmul__"):
            self._restore.append((scalar_cls, attr, scalar_cls.__dict__[attr]))
            setattr(scalar_cls, attr, wrapper)

    def _patch_class(self, cls, attr, nid, hook):
        raw = cls.__dict__[attr]
        aliases = [a for a, v in vars(cls).items() if v is raw]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, nid, on_result=hook))
        else:
            patched = self._wrap(raw, nid, on_result=hook)
        for alias in aliases:  # e.g. __radd__ = __add__
            self._restore.append((cls, alias, raw))
            setattr(cls, alias, patched)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def write(self, path):
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": [
                {"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                for f, a in (("name", self.name), ("parent", self.parent), ("op", self.op),
                             ("start", self.start), ("end", self.end))
            ],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for a in (self.name, self.parent, self.op, self.start, self.end):
                a.tofile(handle)

    def metrics(self) -> dict:
        """Per-layer figures: (value, unit) by metric name."""
        count = len(self.name)
        names, parent, start, end = self.name, self.parent, self.start, self.end
        k = len(self.names)
        calls = [0] * k
        busy = [0.0] * k
        child = [0.0] * count
        for i in range(count):
            d = end[i] - start[i]
            n = names[i]
            calls[n] += 1
            busy[n] += d
            p = parent[i]
            if p >= 0:
                child[p] += d
        self_time = [0.0] * k
        for i in range(count):
            self_time[names[i]] += end[i] - start[i] - child[i]
        c, s, ss = (dict(zip(self.names, values)) for values in (calls, busy, self_time))

        out = {}
        mul = [n for n in self.names if n.startswith("scalar.mul.o")]
        out["scalar.mul.calls"] = (sum(c[n] for n in mul), "count")
        out["scalar.mul.s"] = (sum(s[n] for n in mul), "s")
        for order in MUL_ORDERS:
            out[f"scalar.mul.calls.o{order}"] = (c[f"scalar.mul.o{order}"], "count")
        for layer in ("scalar.add", "scalar.inv"):
            out[f"{layer}.calls"] = (c[layer], "count")
            out[f"{layer}.s"] = (s[layer], "s")
        for layer in ("nichols.basis_of_degree", "nichols.symmetrizer_rank", "lie.lie_span", "cli.main"):
            out[f"{layer}.calls"] = (c[layer], "count")
            out[f"{layer}.s"] = (s[layer], "s")
            out[f"{layer}.self_s"] = (ss[layer], "s")
        for layer in ("nichols.pairing_vector", "nichols.is_zero", "lie.membership",
                      "freealg.apply_bracketing", "braiding.parse", "braiding.chi"):
            out[f"{layer}.calls"] = (c[layer], "count")
            out[f"{layer}.s"] = (s[layer], "s")
        out["nichols.word_pairing_vector.calls"] = (c["nichols.word_pairing_vector"], "count")
        out["freealg.bracket.calls"] = (c["freealg.bracket"], "count")
        for layer in ("lie.max_supports", "graphs.build_graph", "graphs.components", "cli.parse_matrix_file"):
            out[f"{layer}.s"] = (s[layer], "s")
        for claim in ("thm-equiv", "thm-maxsupport", "prop-pair", "prop-brackets"):
            out[f"verify.{claim}.calls"] = (c[f"verify.{claim}"], "count")
            out[f"verify.{claim}.s"] = (s[f"verify.{claim}"], "s")
        for verdict, n in self.verdicts.items():
            out[f"verify.verdict.{verdict}"] = (n, "count")

        # word cache: a word_pairing_vector span with no pairing_vector child is a hit
        wpv, pv, span = (self._ids[n] for n in
                         ("nichols.word_pairing_vector", "nichols.pairing_vector", "lie.lie_span"))
        missed = set()
        paired_in_span = 0
        for i in range(count):
            if names[i] == pv:
                p = parent[i]
                if p >= 0:
                    if names[p] == wpv:
                        missed.add(p)
                    elif names[p] == span:
                        paired_in_span += 1
        lookups = c["nichols.word_pairing_vector"]
        out["nichols.word_cache.hit_ratio"] = ((lookups - len(missed)) / lookups if lookups else 0.0, "ratio")
        out["lie.span.useful_ratio"] = (self.basis_kept / paired_in_span if paired_in_span else 0.0, "ratio")
        return out
