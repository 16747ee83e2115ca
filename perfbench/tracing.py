"""Outside-in tracing of fmzv's layers for the benchmark's traced runs.

The modules import names directly (``from .evaluator import value_of``), so
each public function is wrapped at the attribute its caller looks it up by.
A wrapped call records a span (name, start, end, parent); a span's self time
is its duration minus the durations of its child spans.  ``value_of`` and
``ResidueCache.get`` only get counters: a timer on each of their ~600 000
calls per operation would cost more than the work it measures.
"""

import time
from collections import Counter, defaultdict

import fmzv.evaluator
import fmzv.harmonic
import fmzv.identities
import fmzv.lattice
import fmzv.relations

# (owner, attribute, span name)
SPANS = (
    (fmzv.evaluator, "compute_cell", "compute_cell"),
    (fmzv.evaluator, "batch_inv", "batch_inv"),
    (fmzv.evaluator.ResidueCache, "__init__", "cache_load"),
    (fmzv.evaluator.ResidueCache, "add", "cache_append"),
    (fmzv.identities, "Zk", "Zk"),
    (fmzv.identities, "ppt_constants", "ppt_constants"),
    (fmzv.identities, "crt_combine", "recon"),
    (fmzv.identities, "rat_reconstruct", "recon"),
    (fmzv.identities.Report, "to_text", "render"),
    (fmzv.relations, "build_matrix", "build_matrix"),
    (fmzv.relations, "relation_lattice", "relation_lattice"),
    (fmzv.relations, "congruence_cut", "congruence_cut"),
    (fmzv.relations, "lll_reduce", "lll_reduce"),
    (fmzv.lattice, "hnf", "hnf"),
)

# every binding of value_of that a workload reaches
LOOKUPS = (fmzv.evaluator, fmzv.identities, fmzv.harmonic)

# the span whose inclusive time stands for each layer when naming the dominant one
DOMINANT = {
    "evaluator": "compute_cell",
    "identities.ppt_constants": "ppt_constants",
    "bernoulli.Zk": "Zk",
    "lattice.lll": "lll_reduce",
    "lattice.cut": "congruence_cut",
}


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = Counter()
        self.kept = defaultdict(list)   # span name -> [(args, result)]

    def _span(self, name, fn, keep):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if keep:
                self.kept[name].append((args, res))
            return res
        return traced

    def install(self):
        for owner, attr, name in SPANS:
            keep = name in ("lll_reduce", "relation_lattice")
            setattr(owner, attr, self._span(name, getattr(owner, attr), keep))
        counts = self.counts
        for module in LOOKUPS:
            def counted(*args, _fn=module.value_of, **kwargs):
                counts["lookups"] += 1
                return _fn(*args, **kwargs)
            module.value_of = counted
        get = fmzv.evaluator.ResidueCache.get

        def counted_get(*args, **kwargs):
            v = get(*args, **kwargs)
            if v is not None:
                counts["cache_hits"] += 1
            return v
        fmzv.evaluator.ResidueCache.get = counted_get

    def metrics(self, op_start, op_end, cases):
        """Per-layer metrics of one operation that ran from op_start to op_end."""
        calls, total, child = Counter(), defaultdict(float), defaultdict(float)
        root_child = 0.0
        for name, t0, t1, parent in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent < 0:
                root_child += t1 - t0
            else:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            self_s[name] += t1 - t0 - child[idx]
        wall = op_end - op_start

        lll = self.kept["lll_reduce"]
        statuses = Counter(c.status for _, res in self.kept["relation_lattice"] for c in res)
        lookups = self.counts["lookups"]
        computed = calls["compute_cell"]
        hits = self.counts["cache_hits"]
        layer_s = {layer: total[span] for layer, span in DOMINANT.items()}
        dominant = max(layer_s, key=layer_s.get)
        return {
            "evaluator.cells_computed": computed,
            "evaluator.compute_self_s": self_s["compute_cell"],
            "evaluator.lookups": lookups,
            "evaluator.memo_hit_ratio": (lookups - computed - hits) / lookups if lookups else 0.0,
            "evaluator.cache_load_s": total["cache_load"],
            "evaluator.cache_hits": hits,
            "evaluator.cache_appends": calls["cache_append"],
            "evaluator.cache_append_s": total["cache_append"],
            "modmath.batch_inv_calls": calls["batch_inv"],
            "modmath.batch_inv_s": total["batch_inv"],
            "modmath.recon_s": total["recon"],
            "bernoulli.zk_calls": calls["Zk"],
            "bernoulli.zk_s": total["Zk"],
            "identities.ppt_constants_calls": calls["ppt_constants"],
            "identities.ppt_constants_self_s": self_s["ppt_constants"],
            "identities.rows_self_s": wall - root_child,
            "identities.render_s": total["render"],
            "identities.cases": cases,
            "lattice.cut_calls": calls["congruence_cut"],
            "lattice.cut_self_s": self_s["congruence_cut"],
            "lattice.hnf_s": total["hnf"],
            "lattice.lll_s": total["lll_reduce"],
            "lattice.lll_rank": max((len(args[0]) for args, _ in lll), default=0),
            "lattice.lll_in_bits": max((_bits(args[0]) for args, _ in lll), default=0),
            "lattice.lll_out_bits": max((_bits(res) for _, res in lll), default=0),
            "relations.matrix_s": total["build_matrix"],
            "relations.lattice_self_s": self_s["relation_lattice"],
            "relations.verified": statuses["verified"],
            "relations.refuted": statuses["refuted"],
            "trace.dominant_share": layer_s[dominant] / wall,
            "trace.dominant_layer": dominant,
        }
