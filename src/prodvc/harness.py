"""Seeded instance generators and exact checks of the density bounds.

Every check compares exact rationals (ratios as Fractions, logarithmic
bounds as big-integer power comparisons) and returns a record with the two
sides rendered as p/q strings.  Every verdict comes from `_verdict`, which
takes a side from a bounded search as a lower bound on its true value.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

from .classes import (chordal_certificate, clique_number, product_elimination_report,
                      suboctahedron_structure)
from .density import dens, densest_subgraph, mad
from .graph import (FactorGraph, GraphError, complete_graph, cycle_graph, path_graph,
                    two_min_degree_vertices)
from .products import (ProductSpace, ProductSubgraph, instance_to_json, octahedron,
                       project_factor, instance_from_json)
from .vc import vcd_induced, vcd_minor, vcdens_minor

SCHEMA = "prodvc-report-1"  # the "schema" key of every JSON document prodvc writes

FAMILIES = ("path", "cycle", "tree", "chordal", "clique", "octahedron", "sparse")


# ---------------------------------------------------------------------------
# generators (bit-for-bit reproducible from the seed)

def random_factor(rng: random.Random, family: str, max_n: int) -> FactorGraph:
    if family == "path":
        return path_graph(rng.randint(2, max_n))
    if family == "cycle":
        return cycle_graph(rng.randint(3, max(3, max_n)))
    if family == "clique":
        return complete_graph(rng.randint(2, max_n))
    if family == "tree":
        n = rng.randint(2, max_n)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        return FactorGraph(n, edges)
    if family == "chordal":
        n = rng.randint(2, max_n)
        edges = [(0, 1)]
        adj = {0: {1}, 1: {0}}
        for v in range(2, n):
            u = rng.randrange(v)
            clique = {u}
            for w in rng.sample(sorted(adj[u]), len(adj[u])):
                if all(w in adj[c] for c in clique if c != u) and rng.random() < 0.6:
                    clique.add(w)
            adj[v] = set()
            for c in clique:
                edges.append((c, v))
                adj[c].add(v)
                adj[v].add(c)
        return FactorGraph(n, edges)
    if family == "octahedron":
        d = rng.randint(2, max(2, max_n // 2))
        return octahedron(d)
    if family == "sparse":
        n = rng.randint(2, max_n)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        extra = rng.randint(0, n)
        for _ in range(extra):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        return FactorGraph(n, sorted(edges))
    raise GraphError(f"unknown factor family {family!r}")


def random_subgraph(rng: random.Random, space: ProductSpace) -> ProductSubgraph:
    """A random nonempty induced subgraph; spaces above 512 vertices are
    sampled coordinate-wise, up to 128 vertices, instead of being
    materialized."""
    if space.num_vertices() <= 512:
        verts = list(space.vertices())
        size = rng.randint(1, len(verts))
        chosen = rng.sample(verts, size)
    else:
        size = rng.randint(1, 128)
        picked: set = set()
        while len(picked) < size:
            picked.add(tuple(rng.randrange(f.n) for f in space.factors))
        chosen = sorted(picked)
    return ProductSubgraph(space, chosen)


def instance_digest(g: ProductSubgraph) -> str:
    return hashlib.sha256(instance_to_json(g).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible instance description: one factor family (or "mixed"),
    factor count and size caps, and the seed that fixes everything."""
    family: str = "mixed"
    m: int = 2
    factor_size: int = 5
    seed: int = 0


def generate(spec: GeneratorSpec) -> tuple[ProductSpace, ProductSubgraph]:
    if spec.family != "mixed" and spec.family not in FAMILIES:
        raise GraphError(f"unknown factor family {spec.family!r}")
    if spec.m < 1 or spec.factor_size < 2:
        raise GraphError("need m >= 1 and factor_size >= 2")
    rng = random.Random(spec.seed)
    factors = []
    for _ in range(spec.m):
        fam = rng.choice(FAMILIES) if spec.family == "mixed" else spec.family
        factors.append(random_factor(rng, fam, spec.factor_size))
    space = ProductSpace(factors)
    return space, random_subgraph(rng, space)


# ---------------------------------------------------------------------------
# records

def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


@dataclass
class VerificationRecord:
    claim: str
    instance: str
    lhs: str
    rhs: str
    verdict: str  # holds / violated / inconclusive
    runtime: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"claim": self.claim, "instance": self.instance,
                "lhs": self.lhs, "rhs": self.rhs, "verdict": self.verdict,
                "runtime": round(self.runtime, 6), "detail": self.detail}


def report_to_json(records: list[VerificationRecord],
                   violations: Optional[list] = None) -> str:
    """The report document; `violations`, when given, becomes a top-level key."""
    ordered = sorted(records, key=lambda r: (r.instance, r.claim))
    doc = {"schema": SCHEMA,
           "counts": {v: sum(1 for r in ordered if r.verdict == v)
                      for v in ("holds", "violated", "inconclusive")},
           "records": [r.to_dict() for r in ordered]}
    if violations is not None:
        doc["violations"] = violations
    return _json_text(doc)


_quote = json.encoder.encode_basestring_ascii  # json's own string encoder
_INT, _LIST, _STR = {int}, {list}, {str}


class _NotPlain(Exception):
    """A value that `_json_text` leaves to `json.dumps`."""


def _json_text(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, byte for byte.

    With `indent` set, json runs its pure-Python encoder.  This writer lays
    out the same text, and hands the lists that reports are made of to
    json's C encoder: lists of exact ints, and lists of non-empty lists of
    exact ints (arcs, forests, witnesses).  A document holding anything but
    dicts with str keys, lists, tuples, str, exact ints, finite floats,
    bools and None, or one that fails (too deep, an int too long for str),
    goes to `json.dumps` itself, so its bytes and its errors stay json's.
    """
    parts: list[str] = []
    try:
        _json_parts(doc, "\n", parts)
    except (_NotPlain, RecursionError, ValueError):
        return json.dumps(doc, indent=2, sort_keys=True)
    return "".join(parts)


def _json_parts(x, pad: str, parts: list[str]) -> None:
    """Append the text of x to `parts`; `pad` is a newline and x's indent."""
    kind = type(x)
    if kind is str:
        parts.append(_quote(x))
    elif kind is int:
        parts.append(int.__repr__(x))
    elif kind is list or kind is tuple:
        if not x:
            parts.append("[]")
            return
        inner = pad + "  "
        kinds = {*map(type, x)}
        if kinds == _INT:  # json's C encoder writes "[1, 2]"; re-indent it
            body = json.dumps(x)[1:-1].replace(", ", "," + inner)
            parts.append("[" + inner + body + pad + "]")
        elif kinds == _LIST and all(x) and {*map(type, chain.from_iterable(x))} == _INT:
            deeper = inner + "  "  # json writes "[[1, 2], [3]]": split the rows, re-indent
            rows = (inner + "]," + inner + "[" + deeper).join(json.dumps(x)[2:-2].split("], ["))
            parts.append("[" + inner + "[" + deeper + rows.replace(", ", "," + deeper)
                         + inner + "]" + pad + "]")
        else:
            sep = "[" + inner
            for v in x:
                parts.append(sep)
                _json_parts(v, inner, parts)
                sep = "," + inner
            parts.append(pad + "]")
    elif kind is dict:
        if not x:
            parts.append("{}")
            return
        if {*map(type, x)} != _STR:
            raise _NotPlain
        inner = pad + "  "
        sep = "{" + inner
        for k in sorted(x):
            parts.append(sep + _quote(k) + ": ")
            _json_parts(x[k], inner, parts)
            sep = "," + inner
        parts.append(pad + "}")
    elif kind is float and math.isfinite(x):
        parts.append(float.__repr__(x))
    elif x is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if x else "false")
    else:
        raise _NotPlain


def _timed(claim: str, digest: str, lhs, rhs, verdict: str, start: float,
           **detail) -> VerificationRecord:
    return VerificationRecord(claim=claim, instance=digest,
                              lhs=_frac_str(lhs) if not isinstance(lhs, str) else lhs,
                              rhs=_frac_str(rhs) if not isinstance(rhs, str) else rhs,
                              verdict=verdict, runtime=time.monotonic() - start,
                              detail=detail)


def _verdict(holds: bool, lhs_exact: bool = True, rhs_exact: bool = True) -> str:
    """The verdict on a claim lhs <= rhs (or lhs == rhs) whose inexact sides
    are lower bounds on their true values: it holds only when lhs is exact,
    is violated only when rhs is exact, and is inconclusive otherwise."""
    settled = lhs_exact if holds else rhs_exact
    return "inconclusive" if not settled else "holds" if holds else "violated"


# ---------------------------------------------------------------------------
# checks

def check_density_sum(factors: list[FactorGraph]) -> VerificationRecord:
    """dens of a product equals the sum of the factor densities."""
    start = time.monotonic()
    space = ProductSpace(factors)
    g = space.materialize(4096)
    flat, _ = g.to_factor_graph()
    lhs = densest_subgraph(flat).density
    rhs = sum((dens(f) for f in factors), Fraction(0))
    return _timed("Lem2", instance_digest(g), lhs, rhs, _verdict(lhs == rhs), start,
                  statement="dens(product) == sum of factor densities")


def check_hypercube_bound(g: ProductSubgraph) -> VerificationRecord:
    """Edges per vertex of an induced hypercube subgraph never exceed the
    induced VC-dimension."""
    start = time.monotonic()
    lhs = Fraction(g.num_edges, g.n)
    rhs, _, exact = vcd_induced(g)
    return _timed("Thm1", instance_digest(g), lhs, rhs, _verdict(lhs <= rhs, rhs_exact=exact),
                  start, vcd_exact=exact,
                  statement="|E|/|V| <= vcd for induced hypercube subgraphs")


def check_thm4(g: ProductSubgraph) -> list[VerificationRecord]:
    """Theorem 4 on g, as two records.

    Thm4: |E|/|V| <= b0 * log2(|V|) with b0 the projection degree bound
    (the ceiling of the largest maximum average degree among the factor
    projections of g), and b0 <= b (the same bound over the whole
    factors).  The logarithmic comparison is done exactly as
    2^|E| <= |V|^(b0*|V|).

    Thm4-split: one step of the halving argument.  Fixing a low-degree
    coordinate value of some projection cuts off at most b0 edges per cut
    vertex, and one of the two candidate parts has at most half the
    vertices."""
    start = time.monotonic()
    digest = instance_digest(g)
    n = g.n
    projections = [project_factor(g, i) for i in range(g.space.m)]
    b0 = math.ceil(max((mad(p) for p, _ in projections if p.n), default=Fraction(0)))
    b = math.ceil(max((mad(f) for f in g.space.factors), default=Fraction(0)))
    if n == 1:
        ok = g.num_edges == 0
    else:
        ok = 2 ** g.num_edges <= n ** (b0 * n)
    # mad = 2 * dens, so the bound normalized through densities is b0 itself
    log_bound = _timed("Thm4", digest, Fraction(g.num_edges, n), f"{b0}*log2({n})",
                       _verdict(ok and b0 <= b), start, b0=b0, b=b, b0_from_densities=b0,
                       statement="|E|/|V| <= b0*log2(n) and b0 <= b")
    start = time.monotonic()
    pick = next(((i, proj, remap) for i, (proj, remap) in enumerate(projections)
                 if proj.n >= 2), None)
    if pick is None:
        return [log_bound, _timed("Thm4-split", digest, "0", "0", "holds", start,
                                  note="all projections trivial")]
    i, proj, remap = pick
    back = {j: c for c, j in remap.items()}
    parts = []
    for w in two_min_degree_vertices(proj):
        coord = back[w]
        part = {v for v in g.vertices if v[i] == coord}
        cut = sum(1 for x, y in g.edges if (x in part) != (y in part))
        parts.append((len(part), cut, proj.degree(w)))
    size, cut, deg = min(parts)
    ok = (deg <= b0 and cut <= b0 * size and 2 * size <= g.n)
    return [log_bound, _timed("Thm4-split", digest, str(cut), f"{b0}*{size}",
                              _verdict(ok), start, factor=i, part_size=size, degree=deg, b0=b0,
                              statement="cut <= b0*|A| and |A| <= n/2 after swap")]


MU_PRESETS = {"tree": 2, "planar": 6, "k4-minor-free": 4}


def resolve_mu(mu) -> int:
    """mu as a positive int, from an int, a string of decimal digits or the
    name of a preset in MU_PRESETS."""
    key = mu.strip().lower() if isinstance(mu, str) else mu
    if key in MU_PRESETS:
        return MU_PRESETS[key]
    try:
        mu = int(key)
    except ValueError:
        raise GraphError(f"unknown density class {mu!r}; "
                         f"presets: {sorted(MU_PRESETS)}") from None
    if mu < 1:
        raise GraphError("mu must be a positive integer")
    return mu


def check_mu_bound(g: ProductSubgraph, mu: int) -> list[VerificationRecord]:
    """|E|/|V| <= mu * vcd_star and 2^vcd_star <= |V| (so vcd_star is at
    most log2 of the vertex count), for a positive int mu."""
    start = time.monotonic()
    digest = instance_digest(g)
    d, exact, _ = vcd_minor(g)
    lhs = Fraction(g.num_edges, g.n)
    records = [_timed("Thm5", digest, lhs, mu * d, _verdict(lhs <= mu * d, rhs_exact=exact),
                      start, mu=mu, vcd_star=d, exact=exact,
                      statement="|E|/|V| <= mu * vcd_star")]
    start = time.monotonic()
    records.append(_timed("Lem8", digest, 2 ** d, g.n, _verdict(2 ** d <= g.n, exact), start,
                          exact=exact, statement="2^vcd_star <= |V|"))
    return records


def check_elimination_bound(g: ProductSubgraph) -> VerificationRecord:
    """For dismantlable factors: |E|/|V| <= (sum of factor elimination
    degrees) * vcd."""
    start = time.monotonic()
    rep = product_elimination_report(g)
    d, _, exact = vcd_induced(g)
    lhs = Fraction(g.num_edges, g.n)
    rhs = rep.dd_product * d
    return _timed("Prop13", instance_digest(g), lhs, rhs,
                  _verdict(lhs <= rhs, rhs_exact=rep.exact and exact), start,
                  dd_product=rep.dd_product, dd_subgraph=rep.dd_subgraph, vcd=d,
                  vcd_exact=exact,
                  statement="|E|/|V| <= DD * vcd for dismantlable factors")


def check_clique_bound(g: ProductSubgraph, kind: str) -> VerificationRecord:
    """For chordal or octahedral factors: |E|/|V| <= omega(g) * vcd(g)."""
    start = time.monotonic()
    for i, f in enumerate(g.space.factors):
        if kind == "chordal":
            if not chordal_certificate(f).chordal:
                raise GraphError(f"factor {i} is not chordal")
        elif kind == "octahedron":
            if suboctahedron_structure(f) is None:
                raise GraphError(f"factor {i} is not octahedral")
        else:
            raise GraphError(f"unknown kind {kind!r}")
    flat, _ = g.to_factor_graph()
    omega = clique_number(flat)
    d, _, exact = vcd_induced(g)
    lhs = Fraction(g.num_edges, g.n)
    rhs = omega * d
    claim = "Cor14" if kind == "chordal" else "Prop15"
    return _timed(claim, instance_digest(g), lhs, rhs, _verdict(lhs <= rhs, rhs_exact=exact),
                  start, omega=omega, vcd=d, vcd_exact=exact, kind=kind,
                  statement="|E|/|V| <= omega * vcd")


def check_dd_sum(space: ProductSpace) -> VerificationRecord:
    """The lexicographic elimination order of a materialized product has
    maximum later-degree exactly the sum of the factor elimination
    degrees."""
    start = time.monotonic()
    g = space.materialize(216)
    rep = product_elimination_report(g)
    return _timed("DD-sum", instance_digest(g), rep.dd_subgraph, rep.dd_product,
                  _verdict(rep.dd_subgraph == rep.dd_product, rep.exact, rep.exact), start,
                  statement="DD(product) == sum of factor dd values")


# ---------------------------------------------------------------------------
# density-versus-minor-density fuzzing

def fuzz_records(space: ProductSpace, trials: int, seed: int = 0,
                 ) -> tuple[list[VerificationRecord], list[dict]]:
    """Sample induced subgraphs and test |E|/|V| <= vcdens_star exactly,
    summarized as one record.  A violation carries a reproducer instance;
    violations are archived and reported as a discovery, not a failed
    proof, and never raise."""
    start = time.monotonic()
    rng = random.Random(seed)
    violations = []
    seen: set[frozenset] = set()
    for _ in range(trials):
        g = random_subgraph(rng, space)
        if g.vertices in seen:
            continue
        seen.add(g.vertices)
        d, exact, _ = vcdens_minor(g)
        if not exact:
            continue
        lhs = Fraction(g.num_edges, g.n)
        if lhs > d:
            reproducer = instance_to_json(g)
            instance_from_json(reproducer)  # reproducer must round-trip
            violations.append({"instance": reproducer,
                               "ratio": _frac_str(lhs),
                               "vcdens_star": _frac_str(d),
                               "digest": instance_digest(g)})
    # the conjecture is open, so a discovery is never a violation
    rec = _timed("Conj3", instance_digest(space.materialize()), str(len(violations)), "0",
                 _verdict(not violations, rhs_exact=False), start,
                 trials=trials, violations=[v["digest"] for v in violations],
                 statement="|E|/|V| <= vcdens_star (open; discoveries archived)")
    return [rec], violations


# ---------------------------------------------------------------------------
# suites

SUITES = ("thm4", "thm5", "lemmas", "classes", "labels", "all")

_MONOTONICITY_CLAIMS = (("contracted", "Lem6"), ("centers", "Lem7"), ("tips", "Lem9"))


def _monotonicity_records(step, digest: str) -> list[VerificationRecord]:
    from .reductions import vc_monotonicity_check
    start = time.monotonic()
    out = []
    for rec in vc_monotonicity_check(step):
        claim = next(c for key, c in _MONOTONICITY_CLAIMS if key in rec.name)
        verdict = "holds" if rec.verdict == "skipped" else rec.verdict
        out.append(_timed(claim, digest, rec.lhs, rec.rhs, verdict, start,
                          statement=rec.name, skipped=rec.verdict == "skipped"))
    return out


def _split_record(claim: str, digest: str, step, start: float,
                  statement: str) -> VerificationRecord:
    """A reduction step splits the vertices of g (whose digest is given)
    exactly into the contracted part and the centers."""
    whole, split = step.g.n, step.g_contracted.n + step.g_link_centers.n
    return _timed(claim, digest, str(whole), str(split), _verdict(whole == split), start,
                  statement=statement)


def run_suite(suite: str, trials: int = 50, seed: int = 0, mu=None,
              ) -> list[VerificationRecord]:
    if suite == "all":
        records = []
        for s in SUITES[:-1]:
            records.extend(run_suite(s, trials=trials, seed=seed, mu=mu))
        return records
    rng = random.Random(seed)
    records: list[VerificationRecord] = []

    if suite == "thm4":
        for t in range(trials):
            spec = GeneratorSpec(family="mixed", m=rng.randint(1, 4),
                                 factor_size=rng.randint(2, 6),
                                 seed=rng.randrange(2 ** 32))
            _, g = generate(spec)
            records.extend(check_thm4(g))
        return records

    if suite == "thm5":
        mu = resolve_mu(mu) if mu is not None else None
        for t in range(trials):
            family = ("tree", "chordal")[t % 2]
            spec = GeneratorSpec(family=family, m=rng.randint(1, 3),
                                 factor_size=rng.randint(2, 5), seed=rng.randrange(2 ** 32))
            space, g = generate(spec)
            if mu is not None:
                trial_mu = mu
            elif family == "tree":
                trial_mu = 2
            else:
                trial_mu = max(math.ceil(mad(f)) for f in space.factors)
            records.extend(check_mu_bound(g, trial_mu))
        return records

    if suite == "lemmas":
        from .reductions import reduce_edge, reduce_opposite_pair
        for t in range(trials):
            factors = [random_factor(rng, rng.choice(("path", "cycle", "tree", "clique")),
                                     4) for _ in range(rng.randint(1, 3))]
            if ProductSpace(factors).num_vertices() <= 216:
                records.append(check_density_sum(factors))
            spec = GeneratorSpec(family="mixed", m=rng.randint(1, 2),
                                 factor_size=4, seed=rng.randrange(2 ** 32))
            space, g = generate(spec)
            i = rng.randrange(space.m)
            u, v = rng.choice(space.factors[i].edges)
            start = time.monotonic()
            step = reduce_edge(g, i, u, v)
            digest = instance_digest(g)
            records.append(_split_record("Lem10", digest, step, start,
                                         "vertex and edge counting split"))
            records.extend(_monotonicity_records(step, digest))
            oct_space = ProductSpace([octahedron(2)] +
                                     [random_factor(rng, "path", 3)])
            og = random_subgraph(rng, oct_space)
            start = time.monotonic()
            ostep = reduce_opposite_pair(og, 0, rng.randrange(4))
            records.append(_split_record("Lem16", instance_digest(og), ostep, start,
                                         "octahedral counting split"))
        return records

    if suite == "classes":
        for t in range(trials):
            kind = ("tree", "chordal", "octahedron")[t % 3]
            spec = GeneratorSpec(family=kind, m=rng.randint(1, 2),
                                 factor_size=4, seed=rng.randrange(2 ** 32))
            space, g = generate(spec)
            if kind == "octahedron":
                records.append(check_clique_bound(g, "octahedron"))
            elif kind == "chordal":
                records.append(check_clique_bound(g, "chordal"))
                records.append(check_elimination_bound(g))
            else:
                records.append(check_elimination_bound(g))
            if kind != "octahedron" and space.num_vertices() <= 216:
                records.append(check_dd_sum(space))  # factors are dismantlable
        return records

    if suite == "labels":
        from .density import bounded_outdegree_orientation
        from .labeling import decoded_graph, encode
        for t in range(trials):
            f = random_factor(rng, rng.choice(FAMILIES), 8)
            start = time.monotonic()
            scheme = encode(f)
            ok = decoded_graph(scheme) == FactorGraph(f.n, f.edges)
            records.append(_timed("Labels", f"factor-{t}", str(scheme.k), str(f.m),
                                  _verdict(ok), start, n=f.n, bits=scheme.bits_per_label,
                                  statement="decode reproduces adjacency"))
            start = time.monotonic()
            d = math.ceil(dens(f))
            bounded_outdegree_orientation(f, d)  # checks its outdegrees itself
            records.append(_timed("Cor6", f"factor-{t}", str(d), str(d),
                                  "holds", start,
                                  statement="orientation with outdegree <= ceil(dens)"))
        return records

    raise GraphError(f"unknown suite {suite!r}; choose from {SUITES}")
