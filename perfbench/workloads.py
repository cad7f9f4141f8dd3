"""The four workloads: seeded inputs, one request, and its answer check.

Each workload is a closed loop of requests run by one single-threaded
client.  A pass is a fixed composition of request kinds; the seed picks the
concrete inputs (sign flips, permutations, labelled graphs, request order),
so every seed measures the same amount of work while no input repeats
within a process.  Inputs are built here with the benchmark's own code; the
package only receives them.

Each workload class provides:
  plan(rng, smoke) -> (warmup input, [request inputs]), as plain data
  prepare(nb, inp) -> the input as package objects (part of set-up)
  run(nb, inp)     -> answer (calls into the package)
  verify(nb, inp, answer) -> None when the answer is right, else a reason
  label(inp)       -> short request description for failure reports
and optionally known(inp), the documented defect a failure of it shows.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


class Distinct:
    """Draws inputs until one is new to this process."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def draw(self, make, tries=10_000):
        for _ in range(tries):
            value = make(self.rng)
            if value not in self.seen:
                self.seen.add(value)
                return value
        raise RuntimeError("input space exhausted; shrink the pass")


# --- aa-family -------------------------------------------------------------
#
# count_nice + exists_nice on the cyclic family matrix of size 2^(n-1).  The
# "hessenberg" form conjugates by a signed diagonal, which keeps the matrix
# upper Hessenberg (cheap char_poly recurrence); the "permuted" form
# conjugates by a signed permutation, which sends char_poly down the general
# Faddeev-LeVerrier path.  Both keep the count at n.  n = 7 (one request
# takes 14-20 s) does not fit the run budget and is left out.

def _family(n):
    size = 2 ** (n - 1)
    m = [[0] * size for _ in range(size)]
    for i in range(1, size):
        m[i][i - 1] = 1
    m[0][size - 1] = 1
    return m


def _is_hessenberg(m):
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(i - 1))


class AAFamily:
    name = "aa-family"
    # the p50 and the tail (11th slowest of 24 per run) both fall among the
    # n=5 permuted requests, not on a boundary between two kinds
    PASS = [(5, "hessenberg")] * 2 + [(5, "permuted")] * 4 + [(6, "hessenberg"), (6, "permuted")]
    SMOKE = [(3, "hessenberg"), (4, "permuted")]

    @staticmethod
    def _draw(distinct, n, form):
        base = _family(n)
        size = len(base)

        def make(rng):
            signs = [1] + [rng.choice((1, -1)) for _ in range(size - 1)]
            perm = list(range(size))
            if form == "permuted":
                while _is_hessenberg([[base[perm[i]][perm[j]] for j in range(size)]
                                      for i in range(size)]):
                    rng.shuffle(perm)
            return tuple(tuple(signs[i] * signs[j] * base[perm[i]][perm[j]]
                               for j in range(size)) for i in range(size))

        return (n, form, distinct.draw(make))

    def plan(self, rng, smoke):
        distinct = Distinct(rng)
        warmup = self._draw(distinct, 3 if smoke else 4, "permuted")
        kinds = list(self.SMOKE if smoke else self.PASS)
        rng.shuffle(kinds)
        return warmup, [self._draw(distinct, n, form) for n, form in kinds]

    def prepare(self, nb, inp):
        n, form, rows = inp
        return n, form, nb.linalg.Matrix(rows)

    def run(self, nb, inp):
        _, _, a = inp
        aa = nb.almost_abelian
        return aa.count_nice(a), aa.exists_nice(a)

    def verify(self, nb, inp, answer):
        n, _, a = inp
        count, verdict = answer
        if count != n:
            return f"count {count}, expected {n}"
        if verdict.status != "yes" or verdict.witness is None:
            return f"exists {verdict.status}, expected yes with a witness"
        compiled = nb.almost_abelian.build(a).compiled
        if not nb.nice.check_nice(compiled.change_basis(verdict.witness)):
            return "witness basis is not nice"
        return None

    def label(self, inp):
        return f"n={inp[0]} {inp[1]}"


# --- graph-sweep -----------------------------------------------------------
#
# `nicebase graph --nice` on labelled graphs.  Strata fix vertex count,
# class, edge count and the predicate's outcome, because the cost of a
# request is set by those (a nice class-3 graph with 7 edges costs 100x a
# non-nice one); within a stratum graphs are drawn without replacement.
# Every stratum stays under DIMENSION_CAP: class 5 on 5 vertices only for the
# edgeless graph, which short-circuits to the abelian algebra.

GRAPH_PASS = [  # (vertices, class, edges, predicate holds, count)
    # 24 requests under 5 ms
    (5, 5, 0, True, 1), (5, 2, 4, True, 9), (5, 3, 5, False, 10), (5, 3, 9, False, 4),
    # 10 requests of 5-8 ms, where the p50 falls
    (6, 3, 6, False, 5), (6, 3, 12, False, 5),
    # 24 requests over 7 ms; the tail falls among the five (5, 3, 6, True)
    (6, 2, 7, True, 2), (5, 3, 2, True, 1), (5, 3, 4, True, 2), (5, 3, 6, True, 5),
    (5, 4, 1, True, 2), (5, 4, 2, True, 2), (5, 4, 2, False, 2),
    (5, 4, 5, False, 2), (5, 4, 10, False, 1),
    (6, 3, 3, True, 2), (6, 3, 5, True, 2), (6, 3, 7, True, 1),
]
GRAPH_SMOKE = [(4, 2, 3, True, 1), (4, 3, 3, True, 1), (4, 3, 4, False, 1), (4, 4, 2, True, 1)]


def expected_predicate(v, c, edges):
    """The class-dependent graph criterion, computed independently."""
    adj = {frozenset(e) for e in edges}
    if c <= 2:
        return True
    if c == 3:
        return not any({frozenset((a, b)), frozenset((b, d)), frozenset((a, d))} <= adj
                       for a, b, d in itertools.combinations(range(v), 3))
    if c == 4:
        return all(sum(1 for e in edges if x in e) <= 1 for x in range(v))
    return not edges


class GraphSweep:
    name = "graph-sweep"

    @staticmethod
    def _draw(distinct, v, c, m, holds):
        pairs = list(itertools.combinations(range(v), 2))

        def make(rng):
            for _ in range(10_000):
                edges = tuple(sorted(rng.sample(pairs, m)))
                if expected_predicate(v, c, edges) == holds:
                    return (v, c, edges)
            raise ValueError(f"no graph with {m} edges on {v} vertices has predicate {holds}")

        return distinct.draw(make)

    def plan(self, rng, smoke):
        distinct = Distinct(rng)
        strata = GRAPH_SMOKE if smoke else GRAPH_PASS
        warmup = self._draw(distinct, 4 if smoke else 5, 4, 3, False)
        requests = [self._draw(distinct, v, c, m, holds)
                    for v, c, m, holds, count in strata for _ in range(count)]
        rng.shuffle(requests)
        return warmup, requests

    def prepare(self, nb, inp):
        v, c, edges = inp
        return nb.graphs.GraphSpec.of(v, edges, c), expected_predicate(v, c, edges)

    def run(self, nb, inp):
        g, _ = inp
        gr = nb.graphs
        ok, _tag = gr.nice_predicate(g)
        alg = gr.graph_algebra(g)[0]
        basis = gr.construct_nice_basis(g) if ok else None
        return ok, alg, basis

    def verify(self, nb, inp, answer):
        g, expected = inp
        ok, alg, basis = answer
        if ok != expected:
            return f"predicate {ok}, expected {expected}"
        if ok:
            if not nb.nice.check_nice(alg.change_basis(basis)):
                return "constructed basis is not nice"
            return None
        try:
            nb.graphs.construct_nice_basis(g)
        except nb.graphs.PredicateFalse:
            return None
        return "construction succeeded where the predicate fails"

    def label(self, inp):
        g = inp[0]
        return f"v={g.vertex_count} c={g.c} edges={sorted(tuple(sorted(e)) for e in g.edges)}"


# --- filiform-derivations --------------------------------------------------
#
# pre_einstein_nice plus an independent pre_einstein_general_check on the
# standard filiform algebra L_n and on L_a + L_b, each with its basis
# rescaled by seeded signs (a nice basis stays nice, the pre-Einstein
# diagonal is unchanged, the structure constants differ).  Sizes are a fixed
# grid so that seeds differ in inputs, not in the amount of work; n = 20..28
# keeps a run within its time budget.

FILIFORM_PASS = [(20,), (21,), (22,), (23,), (24,), (26,), (28,), (10, 12), (12, 13)]
FILIFORM_SMOKE = [(6,), (4, 5)]


def closed_form(n):
    """Diagonal of the pre-Einstein derivation of L_n (two-value closed form)."""
    den = Fraction(n ** 3 - 3 * n ** 2 + 2 * n + 12)
    d1, d2 = 12 / den, (n ** 3 - 3 * n ** 2 - 4 * n + 24) / den
    return [d1, d2] + [k * d1 + d2 for k in range(1, n - 1)]


class FiliformDerivations:
    name = "filiform-derivations"

    @staticmethod
    def _draw(distinct, sizes):
        dim = sum(sizes)

        def make(rng):
            return (sizes, tuple([1] + [rng.choice((1, -1)) for _ in range(dim - 1)]))

        return distinct.draw(make)

    def plan(self, rng, smoke):
        distinct = Distinct(rng)
        warmup = self._draw(distinct, (5,) if smoke else (12,))
        requests = [self._draw(distinct, s) for s in (FILIFORM_SMOKE if smoke else FILIFORM_PASS)]
        rng.shuffle(requests)
        return warmup, requests

    def prepare(self, nb, inp):
        sizes, signs = inp
        table, offset, diag = {}, 0, []
        for n in sizes:
            for i in range(offset + 1, offset + n - 1):
                table[(offset, i)] = {i + 1: signs[offset] * signs[i] * signs[i + 1]}
            diag += closed_form(n)
            offset += n
        return sizes, nb.lie.LieAlgebra(offset, table, check=False), diag

    def run(self, nb, inp):
        _, g, _ = inp
        der = nb.derivations
        pe = der.pre_einstein_nice(g)
        diag = [pe.matrix[i, i] for i in range(g.dim)]
        ok, _why = der.pre_einstein_general_check(g, diag)
        return diag, ok

    def verify(self, nb, inp, answer):
        _, _, expected = inp
        diag, ok = answer
        if diag != expected:
            return "diagonal differs from the closed form"
        if not ok:
            return "certification failed"
        return None

    def label(self, inp):
        return "L_" + " + L_".join(str(n) for n in inp[0])


# --- cli-fixtures ----------------------------------------------------------
#
# In-process cli.main over every fixture with every applicable subcommand, in
# text and --json, plus the malformed inputs in inputs/.  Expected exit codes and
# verdict keys are in cli_expected.json; report bytes are not compared.  A
# request fails when main raises (a traceback on the command line), exits
# with another code, or reports another verdict.

class CliFixtures:
    name = "cli-fixtures"

    def __init__(self):
        with open(os.path.join(HERE, "cli_expected.json")) as fh:
            self.table = json.load(fh)["requests"]

    def plan(self, rng, smoke):
        requests = []
        for entry in self.table:
            for as_json in (False, True):
                requests.append((entry, as_json))
        rng.shuffle(requests)
        if smoke:
            known = [r for r in requests if r[0].get("known_defect")][:2]
            requests = requests[:6] + [r for r in known if r not in requests[:6]]
        warmup = ({"argv": ["check", "perfbench/inputs/warmup.lie"], "code": 0,
                   "verdict": {"nice": True}}, True)
        return warmup, requests

    def prepare(self, nb, inp):
        return inp

    def run(self, nb, inp):
        entry, as_json = inp
        argv = list(entry["argv"]) + (["--json"] if as_json else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nb.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def verify(self, nb, inp, answer):
        entry, as_json = inp
        code, out, err = answer
        if code != entry["code"]:
            return f"exit {code}, expected {entry['code']}"
        if "Traceback" in err:
            return "traceback on stderr"
        if code == 2:
            lines = [ln for ln in err.splitlines() if ln.strip()]
            return None if len(lines) == 1 else f"{len(lines)} stderr lines, expected 1"
        if not entry["verdict"]:
            return None
        if not as_json:
            return None if out.strip() else "empty report"
        report = json.loads(out)
        for key, want in entry["verdict"].items():
            if report.get(key) != want:
                return f"{key} = {report.get(key)!r}, expected {want!r}"
        return None

    def label(self, inp):
        entry, as_json = inp
        return " ".join(entry["argv"]) + (" --json" if as_json else "")

    def known(self, inp):
        return inp[0].get("known_defect")


WORKLOADS = {w.name: w for w in (AAFamily, GraphSweep, FiliformDerivations, CliFixtures)}
