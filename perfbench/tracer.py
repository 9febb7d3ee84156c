"""In-process tracing of calls into enumtree's public functions.

``instrument(tracer)`` replaces each listed function at every place it is
looked up: the defining module, every ``enumtree`` module that imported it by
name, and the package namespace; kernel methods are replaced on the class.
Nothing in ``src`` changes.

Coarse calls record a span (name, start, end, parent span, operation id).
Functions called once per tree node (the pair moves, ``index_to_word``,
``s_value``) record counts and summed time only, so the trace stays bounded.
Every wrapped call is a frame: its self time is its duration minus the time
covered by the wrapped calls made directly inside it, so the self times of
all frames of one operation add up to the operation's traced wall time.
Inclusive time is summed per group at its outermost frame, so a recursive
``s_value`` or ``t_bar``'s inner ``c_bar`` is not counted twice.
"""

import sys
import time
from collections import defaultdict

LAYERS = ("cli", "maps", "pairs", "monoid", "sseq", "arith", "analytics", "classify")

# (layer, attribute, span?) -- "Class.method" names patch the class.
TARGETS = (
    ("cli", "main", True),
    ("maps", "tree_rows", True),
    ("maps", "f_hat_inverse", True),
    ("pairs", "s_bar", False),
    ("pairs", "t_bar", False),
    ("pairs", "c_bar", False),
    ("pairs", "make_pair", False),
    ("monoid", "index_to_word", False),
    ("monoid", "word_to_matrix", True),
    ("sseq", "kernel_for", False),
    ("sseq", "SSeqKernel.s_prefix", True),
    ("sseq", "SSeqKernel.s_value", False),
    ("sseq", "SSeqKernel.pair_at", False),
    ("sseq", "SSeqKernel.fiber", True),
    ("sseq", "SSeqKernel.is_f_prime_via_fiber", False),
    ("arith", "factorize", True),
    ("arith", "divisors", True),
    ("arith", "is_prime", False),
    ("arith", "primes_up_to", True),
    ("arith", "sqrt_mod", False),
    ("analytics", "row_stats_direct", True),
    ("analytics", "row_stats_recursive", False),
    ("analytics", "ratio_closed_form", False),
    ("analytics", "prime_representation", True),
    ("analytics", "roots_mod_p", False),
    ("analytics", "primes_with_divisor", True),
    ("classify", "scan_violations", True),
    ("classify", "check_condition", False),
)

# Inclusive-time groups that span several functions.
GROUPS = {
    "pairs.s_bar": "pairs.moves",
    "pairs.t_bar": "pairs.moves",
    "pairs.c_bar": "pairs.moves",
    "maps.tree_rows.next": "maps.tree_rows",
}


class Tracer:
    """Frames, spans and counters for one process; all times from ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.frames: list[list[float]] = []  # open frames: [time covered by children]
        self.open_spans: list[int] = []
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op_id)
        self.op_id: int | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.layer_of: dict[str, str] = {}
        self._root = None

    def wrap(self, name: str, layer: str, fn, span: bool, after=None, count: bool = True):
        """A function that calls fn inside a frame named name."""
        self.layer_of[name] = layer
        group = GROUPS.get(name, name)
        clock, frames, open_spans, spans = self.clock, self.frames, self.open_spans, self.spans
        calls, self_s, incl_s, depth = self.calls, self.self_s, self.incl_s, self.depth
        tracer = self

        def wrapper(*args, **kwargs):
            if count:
                calls[name] += 1
            outermost = depth[group] == 0
            depth[group] += 1
            frame = [0.0]
            frames.append(frame)
            if span:
                idx = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                frames.pop()
                depth[group] -= 1
                self_s[name] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if outermost:
                    incl_s[group] += dur
                if span:
                    open_spans.pop()
                    spans[idx] = (name, t0, t1, parent, tracer.op_id)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root frame of operation op_id.

        Returns (result, wall seconds, self seconds by layer); the root
        frame's own self time is reported under the layer "bench".
        """
        if self._root is None:
            self._root = self.wrap("bench.op", "bench", lambda f, *a: f(*a), span=True)
        before = self.layer_totals()
        self.op_id = op_id
        idx = len(self.spans)
        try:
            result = self._root(fn, *args)
        finally:
            self.op_id = None
        _, start, end, _, _ = self.spans[idx]
        after = self.layer_totals()
        return result, end - start, {k: after[k] - before.get(k, 0.0) for k in after}

    def layer_totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            out[self.layer_of[name]] += value
        return out


class _TracedRows:
    """Iterator over tree_rows' lazy result; each next() is a maps frame."""

    def __init__(self, rows, step):
        self._rows = rows
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._rows)


def _note_rows(tracer, args, row):
    tracer.counts["maps.tree_rows.nodes"] += len(row)


def _note_prefix(tracer, args, result):
    tracer.counts["sseq.s_prefix.terms"] += len(result)


def _note_inverse(tracer, args, trace):
    p = args[1]
    tracer.counts["maps.inverse.steps"] += len(trace.exponents)
    tracer.counts["maps.inverse.word_letters"] += len(trace.word)
    bits = max(p.m.bit_length(), p.n.bit_length())
    if bits > tracer.counts["maps.inverse.max_bits"]:
        tracer.counts["maps.inverse.max_bits"] = bits


def _note_factorize(tracer, args, result):
    bits = args[0].bit_length()
    if bits > tracer.counts["arith.factorize.max_bits"]:
        tracer.counts["arith.factorize.max_bits"] = bits


_AFTER = {
    "maps.f_hat_inverse": _note_inverse,
    "sseq.s_prefix": _note_prefix,
    "arith.factorize": _note_factorize,
}


def instrument(tracer: Tracer) -> None:
    """Wrap every TARGETS function wherever enumtree looks it up."""
    import enumtree.cli  # noqa: F401  (loads every enumtree module)

    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "enumtree" or name.startswith("enumtree.")
    }
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer, attr, span in TARGETS:
        home = modules[f"enumtree.{layer}"]
        key = f"{layer}.{attr.rpartition('.')[2]}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(key, layer, cls.__dict__[meth], span, _AFTER.get(key)))
            continue
        fn = getattr(home, attr)
        if attr == "tree_rows":
            wrappers[id(fn)] = (fn, _wrap_tree_rows(tracer, fn))
        else:
            wrappers[id(fn)] = (fn, tracer.wrap(key, layer, fn, span, _AFTER.get(key)))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _wrap_tree_rows(tracer: Tracer, fn):
    # The result is lazy, so the call (validation) and each row produced are
    # timed separately and summed into one inclusive figure.
    call = tracer.wrap("maps.tree_rows", "maps", fn, True)
    step = tracer.wrap("maps.tree_rows.next", "maps", next, False, _note_rows, count=False)

    def tree_rows(*args, **kwargs):
        return _TracedRows(call(*args, **kwargs), step)

    tree_rows.__wrapped__ = fn
    return tree_rows
