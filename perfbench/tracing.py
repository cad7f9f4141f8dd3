"""Spans and counters around nicebasis's module boundaries, from outside.

The tracer wraps public functions (and the private helpers where the time
goes) at every place they are bound inside the package, so that a call
through `almost_abelian.char_poly` is traced as well as one through
`linalg.char_poly`.  Nothing in `src/` is edited.  Spans (name, start, end,
parent, request) are kept in memory and written out once the pass is over;
self times and counters are accumulated as calls return.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (module, attribute) targets; "Class.method" patches the class.
# Every span-traced layer reports `<layer>.self_s`.
SPAN_LAYERS = {
    "lie.change_basis": [("lie", "LieAlgebra.change_basis")],
    "linalg.char_poly": [("linalg", "char_poly")],
    "linalg.minimal_polynomial": [("linalg", "minimal_polynomial")],
    "linalg.echelon": [
        ("linalg", "rref"),
        ("linalg", "nullspace"),
        ("linalg", "solve"),
        ("linalg", "sparse_nullspace"),
        ("linalg", "SparseEchelon.add"),
        ("linalg", "SparseEchelon.reduce"),
    ],
    "linalg.inverse": [("linalg", "Matrix.inverse")],
    "almost_abelian.binomial_divisors": [("almost_abelian", "_binomial_divisors")],
    "almost_abelian.enumerate": [("almost_abelian", "_enumerate")],
    "almost_abelian.witness_basis": [("almost_abelian", "_witness_basis")],
    "derivations.derivation_space": [("derivations", "derivation_space")],
    "derivations.is_derivation": [("derivations", "is_derivation")],
    "derivations.certify": [("derivations", "pre_einstein_general_check")],
    "nice.check_nice": [("nice", "check_nice")],
    "graphs.free_nilpotent": [("graphs", "free_nilpotent")],
    "graphs.graph_algebra": [("graphs", "graph_algebra")],
    "graphs.construct_nice_basis": [("graphs", "construct_nice_basis")],
    "cli.main": [("cli", "main")],
    "cli.load": [("cli", "_load_lie"), ("cli", "_load_matrix"), ("cli", "_load_graph")],
    "cli.command": [
        ("cli", "cmd_check"),
        ("cli", "cmd_pre_einstein"),
        ("cli", "cmd_nu_product"),
        ("cli", "cmd_aa"),
        ("cli", "cmd_graph"),
        ("cli", "cmd_catalog3"),
    ],
    "catalog3.catalog": [("catalog3", "catalog")],
}

# Layers too hot (or too nested) for a span per call: counted only.
COUNT_LAYERS = {
    "lie.bracket": [("lie", "LieAlgebra.bracket")],
    "almost_abelian.analysis": [("almost_abelian", "_analysis")],
}

# Full span records kept per pass; self times and counts stay exact past it.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (layer, start, end, parent_index, request)
        self.dropped = 0
        self.self_s = {}
        self.calls = {}
        self.extra = {}  # layer-specific counters, e.g. identity inputs
        self.seen_inputs = set()
        self.absent = []
        self.request = -1
        self._stack = []  # [layer, start, child_seconds, span_index, parent_index]

    def add(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    def enter(self, layer):
        self.calls[layer] = self.calls.get(layer, 0) + 1
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        self._stack.append([layer, self.clock(), 0.0, index, parent])

    def exit(self):
        end = self.clock()
        layer, start, child, index, parent = self._stack.pop()
        duration = end - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (layer, start, end, parent, self.request)
        else:
            self.dropped += 1

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for layer, start, end, parent, request in self.spans:
                fh.write(f"{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


def _span_wrapper(tracer, layer, fn, observe):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if observe is not None:
            observe(tracer, args)
        tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapped


def _count_wrapper(tracer, layer, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        calls[layer] = calls.get(layer, 0) + 1
        return fn(*args, **kwargs)

    return wrapped


def _observe_change_basis(tracer, args):
    p = args[1]
    n = p.rows
    if all(p.data[i][j] == (i == j) for i in range(n) for j in range(n)):
        tracer.add("lie.change_basis.identity")


def _observe_binomial_divisors(tracer, args):
    key = tuple(args[0].coeffs)
    if key not in tracer.seen_inputs:
        tracer.seen_inputs.add(key)
        tracer.add("almost_abelian.binomial_divisors.distinct")


def _observe_derivation_space(tracer, args):
    tracer.add("derivations.derivation_space.unknowns", args[0].dim ** 2)


OBSERVERS = {
    "lie.change_basis": _observe_change_basis,
    "almost_abelian.binomial_divisors": _observe_binomial_divisors,
    "derivations.derivation_space": _observe_derivation_space,
}


def install(tracer, package="nicebasis"):
    """Wrap every layer target at every binding site in the loaded package.

    A target that no longer exists is skipped; a layer none of whose targets
    exist is listed in `tracer.absent` and reported as absent.
    """
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    layers = [(layer, targets, True) for layer, targets in SPAN_LAYERS.items()]
    layers += [(layer, targets, False) for layer, targets in COUNT_LAYERS.items()]
    for layer, targets, with_span in layers:
        found = False
        for module_name, attr in targets:
            owner = sys.modules.get(f"{package}.{module_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                continue
            found = True
            if with_span:
                wrapper = _span_wrapper(tracer, layer, original, OBSERVERS.get(layer))
            else:
                wrapper = _count_wrapper(tracer, layer, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            # a plain function: rebind it wherever the package imported it
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        if not found:
            tracer.absent.append(layer)
