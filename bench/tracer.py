"""Per-module tracing of kinexpand, installed from outside the package.

The tracer wraps the public entry points of each kinexpand module and
records, per sample, call counts, self time per module (a call's duration
minus the time of the wrapped calls it made) and inclusive time per entry
(counted once for nested calls of the same entry).  Calls that are neither
hot nor trivially cheap also leave a span: name, start, end, parent span and
sample id.  The hot entries (``Poly`` and ``UEAElement`` operators,
``normal_form_word``, ``normal_form``, ``format_element``) run up to
hundreds of thousands of times per sample, so they are counted and timed
but leave no span.

Wrappers replace the binding each caller actually looks up: methods on
their class, and module-level functions in every kinexpand module (and the
``DRIVERS`` table) that holds the same function object.  No private
attribute of the package is read.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute path, entry, hot).  Each module is one layer.  The entry
# names a count and an inclusive time; several attributes may share one.
ENTRY_POINTS = (
    ("coeffring", "Poly.__mul__", "mul", True),
    ("coeffring", "Poly.__add__", "add", True),
    ("coeffring", "Poly.__sub__", "sub", True),
    ("coeffring", "Poly.scale", "scale", True),
    ("coeffring", "Poly.substitute", "substitute", True),
    ("coeffring", "Poly.substitute_power", "substitute_power", True),
    ("uea", "UEAElement.__mul__", "product", True),
    ("uea", "UEAElement.__add__", "add", True),
    ("uea", "UEAElement.__sub__", "sub", True),
    ("uea", "UEAElement.__pow__", "pow", True),
    ("uea", "UEAElement.smul", "smul", True),
    ("uea", "UEAElement.commutator", "commutator", True),
    ("uea", "normal_form_word", "nf_word", True),
    ("uea", "normal_form", "normal_form", True),
    ("uea", "format_element", "format", True),
    ("uea", "named_element", "named_element", False),
    ("uea", "is_central", "is_central", False),
    ("expansion", "decompose_casimir", "decompose", False),
    ("expansion", "build_seed", "seed", False),
    ("expansion", "derive_generators", "derive", False),
    ("expansion", "verify_closure", "verify_closure", False),
    ("expansion", "expand_central", "expand_central", False),
    ("expansion", "run_theorem1", "driver.theorem1", False),
    ("expansion", "run_euclid", "driver.euclid", False),
    ("expansion", "run_theorem2", "driver.theorem2", False),
    ("expansion", "run_negative_nh", "driver.negative_nh", False),
    ("liealg", "catalog", "catalog", False),
    ("liealg", "jacobi_check", "jacobi", False),
    ("liealg", "iw_contract", "contract", False),
    ("liealg", "parameter_contract", "contract", False),
    ("liealg", "substitute_algebra", "contract", False),
    ("algfile", "parse_algebra_file", "parse", False),
    ("algfile", "parse_algebra_text", "parse", False),
    ("exprparse", "parse_expression", "parse", False),
    ("checks", "structural_suite", "structural", False),
    ("checks", "identity_corpus", "corpus", False),
    ("checks", "casimir_centrality", "centrality", False),
    ("checks", "contraction_suite", "contraction", False),
    ("properties", "check_ring_axioms", "run", False),
    ("properties", "check_pbw_canonicity", "run", False),
    ("properties", "check_associativity", "run", False),
    ("properties", "check_uea_jacobi", "run", False),
    ("cli", "main", "main", False),
)

DRIVER_NAMES = ("theorem1", "euclid", "theorem2", "negative_nh")
VERDICTS = ("exact_zero", "template_match", "mismatch")

# Per-layer metrics: name -> (kind, key).  "count" and "incl" read an entry
# (layer.entry), "self" reads a layer.
LAYER_METRICS = {
    "coeffring.mul_calls": ("count", "coeffring.mul"),
    "coeffring.add_calls": ("count", "coeffring.add"),
    "coeffring.self_s": ("self", "coeffring"),
    "uea.nf_word_calls": ("count", "uea.nf_word"),
    "uea.product_calls": ("count", "uea.product"),
    "uea.self_s": ("self", "uea"),
    "uea.is_central_s": ("incl", "uea.is_central"),
    "expansion.decompose_s": ("incl", "expansion.decompose"),
    "expansion.seed_s": ("incl", "expansion.seed"),
    "expansion.derive_s": ("incl", "expansion.derive"),
    "expansion.verify_closure_s": ("incl", "expansion.verify_closure"),
    "expansion.expand_central_s": ("incl", "expansion.expand_central"),
    **{
        f"expansion.driver_s.{d}": ("incl", f"expansion.driver.{d}")
        for d in DRIVER_NAMES
    },
    "liealg.catalog_s": ("incl", "liealg.catalog"),
    "liealg.jacobi_s": ("incl", "liealg.jacobi"),
    "liealg.contract_s": ("incl", "liealg.contract"),
    "algfile.parse_s": ("incl", "algfile.parse"),
    "exprparse.self_s": ("self", "exprparse"),
    "checks.structural_s": ("incl", "checks.structural"),
    "checks.corpus_s": ("incl", "checks.corpus"),
    "checks.centrality_s": ("incl", "checks.centrality"),
    "checks.contraction_s": ("incl", "checks.contraction"),
    "properties.s": ("incl", "properties.run"),
    "cli.self_s": ("self", "cli"),
}

# Unit of every per-layer metric a sample reports.
LAYER_UNITS = {
    **{
        name: "count" if kind == "count" else "s"
        for name, (kind, _) in LAYER_METRICS.items()
    },
    "uea.nf_word_first_frac": "ratio",
    **{f"expansion.verdicts.{v}": "count" for v in VERDICTS},
}


def _resolve(obj, path):
    owner = obj
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Counts, self times, inclusive times and spans of wrapped calls."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, sample id)
        self.sample = None
        self.counts = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.verdicts = Counter()
        self.nf_first = 0
        self._depth = Counter()
        self._child = [0.0]  # child-time accumulators; bottom is a sentinel
        self._span_stack = [None]
        self._originals = []  # (owner, attribute, original) to restore
        self._seen_words = {}  # id(alg) -> (alg, set of words requested)
        self._next_span_id = 0

    def reset(self):
        """Start a new sample: clear every per-sample aggregate."""
        for counter in (self.counts, self.self_s, self.incl_s, self.verdicts):
            counter.clear()
        self.nf_first = 0

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer, entry, hot):
        key = f"{layer}.{entry}"
        clock = time.perf_counter
        child = self._child
        counts = self.counts
        self_s = self.self_s

        if hot:

            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    self_s[layer] += dur - child.pop()
                    child[-1] += dur
                    counts[key] += 1

            wrapper.__wrapped__ = fn
            return wrapper

        tracer = self
        depth = self._depth
        incl_s = self.incl_s
        span_stack = self._span_stack
        spans = self.spans
        is_driver = entry.startswith("driver.")

        def wrapper(*args, **kwargs):
            child.append(0.0)
            depth[key] += 1
            span_id = tracer._next_span_id
            tracer._next_span_id += 1
            parent = span_stack[-1]
            span_stack.append(span_id)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dur = t1 - t0
                self_s[layer] += dur - child.pop()
                child[-1] += dur
                counts[key] += 1
                depth[key] -= 1
                if not depth[key]:
                    incl_s[key] += dur
                span_stack.pop()
                spans.append((span_id, key, t0, t1, parent, tracer.sample))
                if is_driver and result is not None:
                    tracer.verdicts.update(p.verdict for p in result.report.pairs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_nf_word(self, fn):
        """Kernel wrapper that also notes first requests of (algebra, word)."""
        inner = self._wrap(fn, "uea", "nf_word", True)
        seen = self._seen_words
        tracer = self

        def wrapper(alg, word):
            entry = seen.get(id(alg))
            if entry is None:
                entry = seen[id(alg)] = (alg, set())
            if word not in entry[1]:
                entry[1].add(word)
                tracer.nf_first += 1
            return inner(alg, word)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every entry point in the loaded kinexpand modules."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "kinexpand" or name.startswith("kinexpand.")
        ]
        for layer, path, entry, hot in ENTRY_POINTS:
            module = sys.modules.get(f"kinexpand.{layer}")
            if module is None:
                continue
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            if entry == "nf_word":
                wrapper = self._wrap_nf_word(original)
            else:
                wrapper = self._wrap(original, layer, entry, hot)
            if owner is module:
                self._rebind_function(modules, original, wrapper)
            else:
                self._set(owner, attr, wrapper)

    def _rebind_function(self, modules, original, wrapper):
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original and not name.startswith("_"):
                    self._set(module, name, wrapper)
                elif isinstance(value, dict) and name == "DRIVERS":
                    for key, fn in list(value.items()):
                        if fn is original:
                            value[key] = wrapper
                            self._originals.append((value, key, original))

    def _set(self, owner, attr, value):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every binding :meth:`install` replaced."""
        for owner, attr, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._originals = []

    # -- results ----------------------------------------------------------

    def sample_metrics(self) -> dict:
        """Per-layer metrics of the current sample."""
        out = {}
        for name, (kind, key) in LAYER_METRICS.items():
            if kind == "count":
                out[name] = self.counts[key]
            elif kind == "self":
                out[name] = self.self_s[key]
            else:
                out[name] = self.incl_s[key]
        calls = self.counts["uea.nf_word"]
        out["uea.nf_word_first_frac"] = self.nf_first / calls if calls else 0.0
        for v in VERDICTS:
            out[f"expansion.verdicts.{v}"] = self.verdicts[v]
        return out
