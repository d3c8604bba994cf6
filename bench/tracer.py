"""Outside-in layer trace of freebialg.

The tracer wraps the program's public functions and selected class methods
from outside, without touching its source, and removes the wrappers again
when it is uninstalled.  A wrapped function is replaced in every module
namespace that holds it, because modules such as ``cli`` and ``reps``
import names like ``delta_phi`` or ``phi`` by value.

Three kinds of wrapper keep the overhead proportionate to the call:

* ``span``: coarse calls.  Each call is recorded as a span (name, start,
  end, parent span) in flat in-memory arrays.
* ``leaf``: scalar arithmetic, called millions of times.  No record; the
  call is counted and its time is charged to the scalars layer and
  subtracted from the enclosing span.
* ``count``: word, rank, scalar and container construction.  Counted only;
  the time stays with the caller.

A layer is the ``freebialg`` module that defines the wrapped callable.  Its
self time is the time inside its spans and leaves minus the time inside
their children, so the self times of all layers add up to the traced time.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

LAYERS = ("scalars", "words", "algebra", "bialgebra", "reps", "morphisms", "corpus", "text", "cli")

_QI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__", "conjugate")
# counter keys that group several scalar operations under one metric
_COUNT_KEYS = {
    "__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul",
}
_LINEAR = ("AlgebraElement", "TensorElement", "TripleTensorElement")
_GRADED = ("DirectSumElement", "DirectSumTensor", "DirectSumTriple")


def wrap_spec(program) -> list[tuple]:
    """Everything to wrap, as ``(module name, owner, attribute, kind, key)``."""
    spec = []
    for op in _QI_OPS:
        spec.append(("scalars", program.scalars.QI, op, "leaf", "qi." + _COUNT_KEYS.get(op, op)))
    spec.append(("scalars", program.scalars.QI, "__init__", "count", "qi.built"))
    words = program.words
    spec.append(("words", words.ReducedWord, "__init__", "count", "word.built"))
    spec.append(("words", words.Rank, "__init__", "count", "rank.built"))
    for name in ("inverse", "__pow__"):
        spec.append(("words", words.ReducedWord, name, "span", "ReducedWord." + name))
    algebra = program.algebra
    for cls_name in _LINEAR:
        cls = getattr(algebra, cls_name)
        spec.append(("algebra", cls, "__init__", "count", "linear.built"))
        for name in ("__mul__", "star", "flip", "__add__", "__neg__", "scale", "__eq__", "to_json", "__str__"):
            if hasattr(cls, name):
                spec.append(("algebra", cls, name, "span", f"{cls_name}.{name}"))
    bialgebra = program.bialgebra
    for cls_name in _GRADED:
        cls = getattr(bialgebra, cls_name)
        spec.append(("bialgebra", cls, "__init__", "count", "graded.built"))
        for name in ("__mul__", "flip", "__add__", "__neg__", "scale", "__eq__", "to_json", "__str__"):
            if hasattr(cls, name):
                spec.append(("bialgebra", cls, name, "span", f"{cls_name}.{name}"))
    for name in ("__mul__", "__add__"):
        spec.append(("bialgebra", bialgebra.UnitizedElement, name, "span", "UnitizedElement." + name))
    reps = program.reps
    spec.append(("reps", reps.SuppVector, "__init__", "count", "suppvector.built"))
    for name in ("map_labels", "__add__", "scale", "inner", "__eq__"):
        spec.append(("reps", reps.SuppVector, name, "span", "SuppVector." + name))
    for name in ("apply", "apply_algebra", "apply_tensor"):
        spec.append(("morphisms", program.morphisms.GradedEndo, name, "span", "GradedEndo." + name))
    for layer in ("words", "algebra", "bialgebra", "reps", "morphisms", "corpus", "text"):
        module = getattr(program, layer)
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__:
                spec.append((layer, module, name, "span", name))
    spec.append(("cli", program.cli, "main", "span", "main"))
    return spec


class Tracer:
    """Installs the wrappers, collects spans and counters, and turns them
    into per-layer metrics.  One tracer serves one traced pass at a time:
    ``install``, run, ``uninstall``, then read it with ``layer_metrics``;
    the next ``install`` clears it."""

    def __init__(self, program):
        self.program = program
        self.names: list[str] = []
        self._installed: list[tuple] = []
        self._reset()

    def _reset(self) -> None:
        self.counts = [0] * len(self.names)
        self.inclusive = [0.0] * len(self.names)
        self.self_by_layer = [0.0] * len(LAYERS)
        self.post = Counter()
        # one accumulator of child time per open call; the bottom one
        # collects the time of top-level calls
        self._child = [0.0]
        self._open = [-1]
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def _name_id(self, key: str, layer: str) -> int:
        full = f"{layer}.{key}"
        if full not in self.names:
            self.names.append(full)
            self.counts.append(0)
            self.inclusive.append(0.0)
        return self.names.index(full)

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, nid, layer, post):
        clock = time.perf_counter
        child, open_, tracer = self._child, self._open, self
        parent_a, name_a, start_a, end_a = (
            self.span_parent, self.span_name, self.span_start, self.span_end,
        )

        def wrapper(*args, **kwargs):
            idx = len(name_a)
            parent_a.append(open_[-1])
            name_a.append(nid)
            start_a.append(0.0)
            end_a.append(0.0)
            open_.append(idx)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                open_.pop()
                inner = child.pop()
                child[-1] += dur
                start_a[idx] = start
                end_a[idx] = end
                tracer.self_by_layer[layer] += dur - inner
                tracer.inclusive[nid] += dur
                tracer.counts[nid] += 1
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    def _leaf(self, fn, nid, layer):
        clock = time.perf_counter
        child, tracer = self._child, self

        def wrapper(*args):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                inner = child.pop()
                child[-1] += dur
                tracer.self_by_layer[layer] += dur - inner
                tracer.inclusive[nid] += dur
                tracer.counts[nid] += 1

        return wrapper

    def _count(self, fn, nid, post):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[nid] += 1
            result = fn(*args, **kwargs)
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        # _reset() rebinds the buffers the wrappers close over
        self._reset()
        namespaces = self.program.modules()
        for layer, owner, attr, kind, key in wrap_spec(self.program):
            original = getattr(owner, attr)
            nid = self._name_id(key, layer)
            post = _POST.get(key)
            lid = LAYERS.index(layer)
            if kind == "span":
                wrapper = self._span(original, nid, lid, post)
            elif kind == "leaf":
                wrapper = self._leaf(original, nid, lid)
            else:
                wrapper = self._count(original, nid, post)
            wrapper.__wrapped__ = original
            self._patch(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            # rebind the name wherever a module imported it by value
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original and ns is not owner:
                        self._patch(ns, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        # class attributes may be inherited: restore by deleting what we set
        had_own = isinstance(owner, type) and attr in owner.__dict__
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, had_own or not isinstance(owner, type)))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._installed):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # -- results ---------------------------------------------------------------

    def total(self, *keys: str) -> tuple[int, float]:
        """Summed call count and inclusive time over the named callables."""
        calls, secs = 0, 0.0
        for key in keys:
            if key in self.names:
                nid = self.names.index(key)
                calls += self.counts[nid]
                secs += self.inclusive[nid]
        return calls, secs

    def layer_self(self, layer: str) -> float:
        return self.self_by_layer[LAYERS.index(layer)]

    def scanned(self) -> tuple[int, int]:
        """Ball words plus orbit pairs returned so far, and the number of
        ball or orbit results that had no length to count."""
        post = self.post
        return post["ball.words"] + post["orbit.pairs"], post["unsized"]

    def span_count(self) -> int:
        return len(self.span_name)

    def dump_spans(self, path) -> None:
        """Write the recorded spans as tab-separated ``id parent name start end``."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for idx in range(len(self.span_name)):
                fh.write(
                    f"{idx}\t{self.span_parent[idx]}\t{names[self.span_name[idx]]}\t"
                    f"{self.span_start[idx]:.9f}\t{self.span_end[idx]:.9f}\n"
                )


def _post_terms(tracer, args, result):
    tracer.post["linear.terms"] += len(args[0].terms)


def _post_len(key):
    # a result without a length (a generator, say) is counted as unsized
    # instead, so a hook can never fail the call it observes
    def post(tracer, args, result):
        if hasattr(result, "__len__"):
            tracer.post[key] += len(result)
        else:
            tracer.post["unsized"] += 1

    return post


_POST = {
    "linear.built": _post_terms,
    "enumerate_ball": _post_len("ball.words"),
    "orbit_bfs": _post_len("orbit.pairs"),
}


def layer_metrics(tracer: Tracer, json_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    t = tracer.total
    s = tracer.layer_self
    words_built = t("words.word.built")[0]
    scanned = tracer.scanned()[0]
    out = {
        "scalars.qi_built": (t("scalars.qi.built")[0], "count"),
        "scalars.mul_calls": (t("scalars.qi.mul")[0], "count"),
        "scalars.add_calls": (t("scalars.qi.add")[0], "count"),
        "scalars.self_s": (s("scalars"), "s"),
        "words.built": (words_built, "count"),
        "words.rank_built": (t("words.rank.built")[0], "count"),
        "words.phi_calls": (t("words.phi", "words.phi_inf")[0], "count"),
        "words.multiply_calls": (t("words.multiply")[0], "count"),
        "words.reduce_calls": (t("words.reduce")[0], "count"),
        "words.enumerate_ball_s": (t("words.enumerate_ball")[1], "s"),
        "words.self_s": (s("words"), "s"),
        "words.built_per_scanned": (words_built / scanned if scanned else 0.0, "ratio"),
        "words.scanned": (scanned, "count"),
        "algebra.linear_built": (t("algebra.linear.built")[0], "count"),
        "algebra.terms_built": (tracer.post["linear.terms"], "count"),
        "algebra.mul_s": (t("algebra.AlgebraElement.__mul__", "algebra.TensorElement.__mul__")[1], "s"),
        "algebra.varphi_s": (t("algebra.varphi_alg", "algebra.varphi_inf_alg")[1], "s"),
        "algebra.self_s": (s("algebra"), "s"),
        "bialgebra.delta_phi_calls": (t("bialgebra.delta_phi")[0], "count"),
        "bialgebra.delta_phi_s": (t("bialgebra.delta_phi")[1], "s"),
        "bialgebra.coassoc_check_s": (t("bialgebra.coassoc_check")[1], "s"),
        "bialgebra.graded_built": (t("bialgebra.graded.built")[0], "count"),
        "bialgebra.self_s": (s("bialgebra"), "s"),
        "reps.claim_probe_pd_s": (t("reps.claim_probe_pd")[1], "s"),
        "reps.orbit_bfs_s": (t("reps.orbit_bfs")[1], "s"),
        "reps.orbit_pairs": (tracer.post["orbit.pairs"], "count"),
        "reps.coset_normal_form_calls": (t("reps.coset_normal_form")[0], "count"),
        "reps.suppvector_built": (t("reps.suppvector.built")[0], "count"),
        "reps.gram_psd_s": (t("reps.gram_psd")[1], "s"),
        "reps.self_s": (s("reps"), "s"),
        "morphisms.check_s": (t("morphisms.bialgebra_morphism_check", "morphisms.group_law_checks")[1], "s"),
        "morphisms.self_s": (s("morphisms"), "s"),
        "corpus.self_s": (s("corpus"), "s"),
        "text.parse_s": (t("text.parse_element", "text.parse_word", "text.parse_rank")[1], "s"),
        "cli.op_s": (t("cli.main")[1], "s"),
        "cli.self_s": (s("cli"), "s"),
        "cli.json_bytes": (json_bytes, "B"),
        "trace.spans": (tracer.span_count(), "count"),
    }
    return out
