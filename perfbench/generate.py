"""Seeded inputs for the lincat benchmark.

Every document is written here from first principles in the formats of
docs/formats.md.  Nothing goes through `lincat.fixtures`, the registry or
`present`, so neither the inputs nor the set-up time move when the
library changes.  Each job carries the exit code and the verdicts that
hold by construction:

- the n-fold cyclic covers of the Kronecker category and of k[u]/(u^L)
  are Galois with deck group C_n; a "twisted" cover (one arrow a_k sent
  to a + c*b) is still a covering but its deck group is trivial;
- dim H1 of k[u]/(u^N) is N-1, or N when the characteristic divides N;
  it is 0 for a grid poset and 1 for a cyclic cover of the Kronecker
  category (Happel's formula);
- a grid poset m x k has C(m+1,2)*C(k+1,2) morphisms, the cyclic
  Nakayama algebra with n vertices and radical length L has n*L;
- <a, b | a^n, b^2, abab^-1> is dihedral of order 2n.

The seed only changes coefficients, bases and the job order, never the
sizes, so every seed asks for the same amount of work.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

WORKLOADS = ("covers", "cohomology", "presentations")

# sizes of each family: n for cyclic covers and groups, (n, L) for the
# Nakayama algebra with n vertices and radical length L, (m, L, n) for the
# C_n-grading of Nakayama(m, L), (m, k) for grids; "smoke" keeps the
# smallest size of every family
SIZES = {
    "full": {
        "kronecker": [2, 3, 4, 5, 6],
        "kronecker_large": [12],
        "twisted": [3, 5, 7, 9],
        "nakayama_cover": [(2, 3), (3, 4), (4, 3), (5, 3)],
        "reduction": [4, 6],
        "mono": [2, 3, 4, 5, 6, 7],
        "dense": [2, 3, 4, 5],
        "grid_h1": [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)],
        "grid_h1_scaled": [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)],
        "cover_h1": [2, 3, 4, 5, 6, 7, 8, 9, 10],
        "graded_nakayama": [(2, 2, 2), (2, 2, 4), (3, 2, 2), (3, 2, 3),
                            (3, 3, 3), (3, 3, 6), (4, 2, 2), (4, 3, 2),
                            (4, 4, 2), (4, 4, 4), (5, 2, 5), (5, 3, 5),
                            (5, 5, 5), (5, 4, 2), (6, 3, 3), (6, 4, 3),
                            (6, 6, 2), (6, 2, 6), (7, 4, 7), (7, 3, 2),
                            (7, 2, 7), (8, 4, 2), (8, 2, 4), (8, 3, 2),
                            (8, 5, 4), (8, 8, 4)],
        "grid_present": [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5),
                         (4, 4), (3, 5)],
        "grid_present_fp": [(4, 5)],      # over F_p only
        "nakayama_present": [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (4, 4),
                             (5, 3), (4, 5), (6, 3), (6, 4), (5, 5)],
        "dihedral": [3, 4, 5, 6, 8, 10, 12, 16, 20, 30, 40, 50, 70, 100,
                     150, 200, 250, 400, 500, 600, 625, 650, 675, 700, 725,
                     750, 775, 1000],
    },
    "smoke": {
        "kronecker": [2],
        "kronecker_large": [3],
        "twisted": [3],
        "nakayama_cover": [(2, 3)],
        "reduction": [4],
        "mono": [2],
        "dense": [2],
        "grid_h1": [(2, 2)],
        "grid_h1_scaled": [(2, 2)],
        "cover_h1": [2],
        "graded_nakayama": [(2, 2, 2)],
        "grid_present": [(2, 2)],
        "grid_present_fp": [(2, 3)],
        "nakayama_present": [(2, 3)],
        "dihedral": [5],
    },
}

# primes for the F_p variants: one divides the size, one does not
PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class Job:
    """One `lincat` command with the outcome known by construction.

    `verdicts` are compared with the JSON report; `error` must occur in
    the diagnostic of an exit-2 job.  A non-empty `defect` names a known
    defect the job exposes: it is expected to fail until that is fixed.
    """
    family: str
    size: str
    argv: list[str]
    exit: int
    verdicts: dict = field(default_factory=dict)
    error: str = ""
    defect: str = ""


# -- scalars and documents -----------------------------------------------------

def scalar(v, p: int) -> str:
    v = Fraction(v)
    if p == 0:
        return str(v)
    return f"{v.numerator * pow(v.denominator, -1, p) % p} mod {p}"


@dataclass
class Cat:
    """A category by structure constants, kept as exact Fractions until
    it is written in the field of characteristic p."""
    p: int
    objects: list[str]
    hom: dict[tuple[str, str], list[str]]
    comp: dict[tuple[str, str], dict[str, Fraction]]
    identities: dict[str, dict[str, Fraction]]

    def doc(self) -> dict:
        hom: dict = {}
        for (x, y), names in self.hom.items():
            if names:
                hom.setdefault(x, {})[y] = list(names)
        comp: dict = {}
        for (g, f), combo in self.comp.items():
            combo = self._combination(combo)
            if combo:
                comp.setdefault(g, {})[f] = combo
        return {"kind": "category", "format_version": 1,
                "field": {"characteristic": self.p},
                "objects": list(self.objects), "hom": hom, "comp": comp,
                "identities": {x: self._combination(self.identities[x])
                               for x in self.objects}}

    def _combination(self, combo: dict[str, Fraction]) -> dict[str, str]:
        return {n: scalar(c, self.p) for n, c in combo.items()
                if (c.numerator % self.p if self.p else c)}


def monomial_cat(p: int, objects: list[str],
                 basis: dict[str, tuple[str, str]],
                 product) -> Cat:
    """Category whose basis is closed under composition up to zero:
    product(g, f) names g∘f or returns None.  `basis` lists every basis
    element with its (source, target), identities named 1_x."""
    hom: dict[tuple[str, str], list[str]] = {}
    for name, pair in basis.items():
        hom.setdefault(pair, []).append(name)
    comp = {}
    for f, (x, y) in basis.items():
        for g, (y2, _) in basis.items():
            if y2 == y:
                gf = product(g, f)
                if gf is not None:
                    comp[(g, f)] = {gf: Fraction(1)}
    return Cat(p, objects, hom, comp,
               {x: {f"1_{x}": Fraction(1)} for x in objects})


def identity_products(g: str, f: str):
    """Product of a category in which only identities compose."""
    if g.startswith("1_"):
        return f
    if f.startswith("1_"):
        return g
    return None


def rescaled(cat: Cat, scale: dict[str, Fraction]) -> Cat:
    """The same category in the basis b' = scale[b]*b (default 1)."""
    s = lambda n: scale.get(n, Fraction(1))
    comp = {(g, f): {n: c * s(g) * s(f) / s(n) for n, c in combo.items()}
            for (g, f), combo in cat.comp.items()}
    ids = {x: {n: c / s(n) for n, c in combo.items()}
           for x, combo in cat.identities.items()}
    return Cat(cat.p, cat.objects, cat.hom, comp, ids)


def cyclic_group_doc(n: int) -> dict:
    names = ["e"] + ["g" if i == 1 else f"g{i}" for i in range(1, n)]
    return {"elements": names, "identity": "e",
            "table": {names[i]: {names[j]: names[(i + j) % n]
                                 for j in range(n)} for i in range(n)}}


def element(n: int, k: int) -> str:
    k %= n
    return "e" if k == 0 else ("g" if k == 1 else f"g{k}")


def matrix(rows: list[list], p: int) -> list[list[str]]:
    return [[scalar(v, p) for v in row] for row in rows]


def identity_matrix(n: int, p: int) -> list[list[str]]:
    return matrix([[int(i == j) for j in range(n)] for i in range(n)], p)


def functor_core(src: Cat, tgt: Cat, omap: dict[str, str], image) -> dict:
    """object_map/matrices payload; image(name) is the image of a source
    basis element as {target name: coefficient}."""
    mats: dict = {}
    for (x, y), names in src.hom.items():
        if not names:
            continue
        rows = tgt.hom.get((omap[x], omap[y]), [])
        cols = [image(n) for n in names]
        mats.setdefault(x, {})[y] = matrix(
            [[c.get(r, 0) for c in cols] for r in rows], tgt.p)
    return {"object_map": dict(omap), "matrices": mats}


def functor_doc(src: Cat, tgt: Cat, omap: dict[str, str], image) -> dict:
    doc = {"kind": "functor", "format_version": 1,
           "source": src.doc(), "target": tgt.doc()}
    doc.update(functor_core(src, tgt, omap, image))
    return doc


def grading_doc(cat: Cat, n: int, degree) -> dict:
    """Grading by C_n on the declared basis; degree(name) is an exponent."""
    basis: dict = {}
    degrees: dict = {}
    for (x, y), names in cat.hom.items():
        if names:
            basis.setdefault(x, {})[y] = identity_matrix(len(names), cat.p)
            degrees.setdefault(x, {})[y] = [element(n, degree(m))
                                            for m in names]
    return {"kind": "grading", "format_version": 1, "category": cat.doc(),
            "group": cyclic_group_doc(n), "basis": basis, "degrees": degrees}


# -- families --------------------------------------------------------------------

def kronecker() -> Cat:
    basis = {"1_s": ("s", "s"), "1_t": ("t", "t"),
             "a": ("s", "t"), "b": ("s", "t")}
    return monomial_cat(0, ["s", "t"], basis, identity_products)


def kronecker_cover(n: int) -> Cat:
    """n-fold cyclic cover: a_i from s_i to t_i, b_i from s_i to t_(i+1)."""
    objects = [f"s{i}" for i in range(n)] + [f"t{i}" for i in range(n)]
    basis = {f"1_{x}": (x, x) for x in objects}
    for i in range(n):
        basis[f"a{i}"] = (f"s{i}", f"t{i}")
        basis[f"b{i}"] = (f"s{i}", f"t{(i + 1) % n}")
    return monomial_cat(0, objects, basis, identity_products)


def nakayama(n: int, length: int, p: int = 0) -> Cat:
    """Cyclic quiver x_0 -> ... -> x_(n-1) -> x_0 modulo paths of length
    `length`; u{i}_{l} is the path of length l starting at x_i."""
    objects = [f"x{i}" for i in range(n)]
    basis = {}
    for i in range(n):
        for ell in range(length):
            name = f"1_x{i}" if ell == 0 else f"u{i}_{ell}"
            basis[name] = (f"x{i}", f"x{(i + ell) % n}")

    def product(g, f):
        i, lf = nakayama_path(f)
        lg = nakayama_path(g)[1]
        total = lf + lg
        if total >= length:
            return None
        return f"1_x{i}" if total == 0 else f"u{i}_{total}"

    return monomial_cat(p, objects, basis, product)


def nakayama_path(name: str) -> tuple[int, int]:
    if name.startswith("1_"):
        return int(name[3:]), 0
    i, ell = name[1:].split("_")
    return int(i), int(ell)


def grid(m: int, k: int) -> Cat:
    """Incidence algebra of the product of chains [m] x [k]."""
    points = [(i, j) for i in range(m) for j in range(k)]
    obj = {pt: f"v{pt[0]}_{pt[1]}" for pt in points}
    basis = {}
    ends = {}
    for a in points:
        for b in points:
            if a[0] <= b[0] and a[1] <= b[1]:
                name = f"1_{obj[a]}" if a == b else f"p{obj[a]}-{obj[b]}"
                basis[name] = (obj[a], obj[b])
                ends[name] = (a, b)

    def product(g, f):
        (a, _), (_, c) = ends[f], ends[g]
        return f"1_{obj[a]}" if a == c else f"p{obj[a]}-{obj[c]}"

    return monomial_cat(0, [obj[pt] for pt in points], basis, product)


def truncated_polynomial(n: int, p: int, rng: random.Random | None) -> Cat:
    """k[u]/(u^n) in the monomial basis, or with rng in the basis
    e_j = u^j + sum_{i>j} P_ij u^i for a seeded unitriangular P, whose
    structure constants are dense."""
    names = ["1_x"] + [f"u{j}" for j in range(1, n)]
    if rng is None:
        def product(g, f):
            d = names.index(g) + names.index(f)
            return names[d] if d < n else None
        return monomial_cat(p, ["x"], {m: ("x", "x") for m in names},
                            product)
    below = iter(coefficients(rng, n * (n - 1) // 2, p, (-2, -1, 1, 2)))
    lower = [[Fraction(int(i == j)) if i <= j else next(below)
              for j in range(n)] for i in range(n)]   # lower[i][j]: u^i in e_j

    def coords(w):  # solve lower * c = w by forward substitution
        c = []
        for i in range(n):
            c.append(w[i] - sum(lower[i][j] * c[j] for j in range(i)))
        return c

    comp = {}
    for a in range(n):
        for b in range(n):
            w = [Fraction(0)] * n
            for i in range(a, n):
                for k in range(b, n - i):
                    w[i + k] += lower[i][a] * lower[k][b]
            c = coords(w)
            comp[(names[a], names[b])] = {names[j]: c[j] for j in range(n)
                                          if c[j]}
    unit = coords([Fraction(int(i == 0)) for i in range(n)])
    return Cat(p, ["x"], {("x", "x"): names}, comp,
               {"x": {names[j]: unit[j] for j in range(n) if unit[j]}})


COEFFICIENTS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3,
                Fraction(-1, 3))


def coefficients(rng: random.Random, count: int, p: int = 0,
                 values=COEFFICIENTS) -> list[Fraction]:
    """`count` nonzero scalars invertible mod p: `values` repeated in
    turn, then put in a seeded order, so that every seed does the same
    arithmetic up to its order."""
    usable = [Fraction(v) for v in values
              if p == 0 or (Fraction(v).numerator % p
                            and Fraction(v).denominator % p)]
    out = [usable[i % len(usable)] for i in range(count)]
    rng.shuffle(out)
    return out


# -- writing ------------------------------------------------------------------------

class Writer:
    """Puts documents in one directory and hands back their paths."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def json(self, name: str, doc: dict) -> str:
        return self.text(name, json.dumps(doc, sort_keys=True, indent=2)
                         + "\n")

    def text(self, name: str, body: str) -> str:
        path = self.directory / name
        path.write_text(body, encoding="utf-8")
        return str(path)


# -- workload: covers ------------------------------------------------------------------

def _shift_action(total: Cat, n: int, step: int, shift) -> dict:
    """C_n acting on `total`, generator g moving every name by `step`."""
    functors = {}
    for k in range(n):
        functors[element(n, k)] = functor_core(
            total, total, {x: shift(x, k * step) for x in total.objects},
            lambda name, k=k: {shift(name, k * step): 1})
    return {"kind": "action", "format_version": 1, "category": total.doc(),
            "group": cyclic_group_doc(n), "functors": functors}


def _kronecker_shift(name: str, k: int, n: int) -> str:
    if name.startswith("1_"):
        return f"1_{_kronecker_shift(name[2:], k, n)}"
    return f"{name[0]}{(int(name[1:]) + k) % n}"


def _unit(n: int, rng: random.Random) -> int:
    """Seeded generator exponent of C_n."""
    return rng.choice([k for k in range(1, n) if gcd(k, n) == 1] or [1])


def covers_jobs(w: Writer, rng: random.Random, sizes: dict) -> list[Job]:
    jobs: list[Job] = []
    base = kronecker()
    paths: dict[int, str] = {}

    def cover(n: int) -> str:
        """The n-fold cover with seeded nonzero scalings of its arrows."""
        if n not in paths:
            total = kronecker_cover(n)
            lam = dict(zip([f"{c}{i}" for c in "ab" for i in range(n)],
                           coefficients(rng, 2 * n)))
            paths[n] = w.json(f"kron-{n}.json", functor_doc(
                total, base, {x: x[0] for x in total.objects},
                lambda name: ({f"1_{name[2]}": 1} if name.startswith("1_")
                              else {name[0]: lam[name]})))
        return paths[n]

    def galois(family: str, size: str, f: str, n: int) -> list[Job]:
        return [
            Job(f"{family}-check", size, ["cover", "check", "--functor", f],
                0, {"covering": True}),
            Job(f"{family}-aut1", size, ["cover", "aut1", "--functor", f], 0,
                {"order": n, "isomorphism type": f"C{n}"}),
            Job(f"{family}-galois", size, ["galois", "check", "--functor", f],
                0, {"galois": True, "deck group order": n,
                    "deck group": f"C{n}"}),
        ]

    def pipeline(family: str, size: str, f: str, n: int, action: str,
                 orbits: int, grading: str, smash_objects: int) -> list[Job]:
        return galois(family, size, f, n) + [
            Job(f"{family}-structure", size,
                ["galois", "structure", "--functor", f], 0,
                {"factors through the quotient": True}),
            Job(f"{family}-quotient", size,
                ["galois", "quotient", "--action", action], 0,
                {"objects": orbits, "projection deck group": f"C{n}"}),
            Job(f"{family}-induce", size, ["grade", "induce", "--functor", f],
                0, {"group order": n, "group": f"C{n}"}),
            Job(f"{family}-smash", size,
                ["grade", "smash", "--grading", grading], 0,
                {"objects": smash_objects}),
            Job(f"{family}-connected", size,
                ["grade", "connected", "--grading", grading], 0,
                {"connected": True}),
        ]

    for n in sizes["kronecker"]:
        step = _unit(n, rng)
        action = w.json(f"kron-{n}-action.json", _shift_action(
            kronecker_cover(n), n, step,
            lambda x, k, n=n: _kronecker_shift(x, k, n)))
        degree_b = _unit(n, rng)
        grading = w.json(f"kron-{n}-grading.json", grading_doc(
            base, n, lambda m: degree_b if m == "b" else 0))
        jobs += pipeline("kronecker", f"n={n}", cover(n), n, action, 2,
                         grading, 2 * n)
    for n in sizes["kronecker_large"]:
        jobs += galois("kronecker", f"n={n}", cover(n), n)
    for n in sizes["reduction"]:
        m = n // 2
        size = f"n={n}->{m}"
        jobs += [
            Job("reduction-lambda", size, ["cover", "lambda", "--functor",
                                           cover(n), "--to", cover(m)], 0,
                {"surjective": True,
                 "kernel matches deck group of the morphism": True,
                 "morphism is a Galois covering": True, "kernel order": 2}),
            Job("reduction-homs", size, ["galois", "homs", "--functor",
                                         cover(n), "--to", cover(m)], 0,
                {"morphisms": m}),
        ]
    for n in sizes["twisted"]:
        total = kronecker_cover(n)
        k = rng.randrange(n)
        f = w.json(f"twisted-{n}.json", functor_doc(
            total, base, {x: x[0] for x in total.objects},
            lambda name: ({f"1_{name[2]}": 1} if name.startswith("1_") else
                          {"a": 1, "b": 1} if name == f"a{k}" else
                          {name[0]: 1})))
        size = f"n={n}"
        jobs += [
            Job("twisted-check", size, ["cover", "check", "--functor", f], 0,
                {"covering": True}),
            Job("twisted-aut1", size, ["cover", "aut1", "--functor", f], 0,
                {"order": 1, "isomorphism type": "trivial"}),
            Job("twisted-galois", size, ["galois", "check", "--functor", f],
                1, {"galois": False, "deck group order": 1}),
            Job("twisted-structure", size,
                ["galois", "structure", "--functor", f], 2,
                error="not Galois"),
            Job("twisted-induce", size, ["grade", "induce", "--functor", f],
                2, error="not a Galois covering"),
            Job("twisted-homs", size, ["galois", "homs", "--functor", f,
                                       "--to", cover(2)], 2,
                error="not Galois", defect="galois homs from a non-Galois "
                "covering raises ValueError out of run()"),
        ]
    for n, length in sizes["nakayama_cover"]:
        total, small = nakayama(n, length), nakayama(1, length)
        lam = coefficients(rng, n)

        def image(name, n=n, lam=lam):
            i, ell = nakayama_path(name)
            c = Fraction(1)
            for s in range(ell):
                c *= lam[(i + s) % n]
            return {"1_x0" if ell == 0 else f"u0_{ell}": c}

        f = w.json(f"nak-{n}-{length}.json", functor_doc(
            total, small, {x: "x0" for x in total.objects}, image))

        def shift(name, k, n=n):
            if name.startswith("x"):
                return f"x{(int(name[1:]) + k) % n}"
            i, ell = nakayama_path(name)
            return f"1_x{(i + k) % n}" if ell == 0 else f"u{(i + k) % n}_{ell}"

        action = w.json(f"nak-{n}-{length}-action.json",
                        _shift_action(total, n, _unit(n, rng), shift))
        degree_u = _unit(n, rng)
        grading = w.json(f"nak-{n}-{length}-grading.json", grading_doc(
            small, n, lambda m: degree_u * nakayama_path(m)[1]))
        jobs += pipeline("nakayama", f"n={n},L={length}", f, n, action, 1,
                         grading, n)
    return jobs


# -- workload: cohomology ------------------------------------------------------------------

def _primes(n: int) -> tuple[int, int]:
    """A prime dividing n and a prime not dividing n."""
    return (next(q for q in PRIMES if n % q == 0),
            next(q for q in PRIMES if n % q))


def cohomology_jobs(w: Writer, rng: random.Random, sizes: dict) -> list[Job]:
    jobs: list[Job] = []

    def h1(family, size, cat, name, dim, der, inner):
        path = w.json(name, cat.doc())
        jobs.append(Job(family, size, ["h1", "--cat", path], 0,
                        {"dim H1": dim, "dim derivations": der,
                         "dim inner": inner}))

    for family, dense in (("h1-mono", False), ("h1-dense", True)):
        for n in sizes["dense" if dense else "mono"]:
            for p in (0,) + _primes(n):
                dim = n if p and n % p == 0 else n - 1
                cat = truncated_polynomial(n, p, rng if dense else None)
                h1(family, f"N={n},p={p}", cat, f"{family}-{n}-{p}.json",
                   dim, dim, 0)
    for family in ("grid_h1", "grid_h1_scaled"):
        for m, k in sizes[family]:
            cat = grid(m, k)
            if family == "grid_h1_scaled":
                arrows = [name for names in cat.hom.values()
                          for name in names if not name.startswith("1_")]
                cat = rescaled(cat, dict(zip(
                    arrows, coefficients(rng, len(arrows)))))
            inner = m * k - 1
            h1(family.replace("_", "-"), f"{m}x{k}", cat,
               f"{family}-{m}x{k}.json", 0, inner, inner)
    for n in sizes["cover_h1"]:
        h1("h1-cover", f"n={n}", kronecker_cover(n), f"cover-{n}.json",
           1, 2 * n, 2 * n - 1)
    for m, length, n in sizes["graded_nakayama"]:
        p = _primes(n)[0]
        cat = nakayama(m, length, p)
        grading = w.json(f"graded-{m}-{length}-{n}.json", grading_doc(
            cat, n, lambda name: sum(nakayama_path(name)) // m))
        c = coefficients(rng, 1, p)[0]
        character = w.json(f"character-{m}-{length}-{n}.json", {
            "kind": "character", "format_version": 1,
            "field": {"characteristic": p}, "group": cyclic_group_doc(n),
            "values": {element(n, i): scalar(i * c, p) for i in range(n)}})
        size = f"m={m},L={length},C{n},p={p}"
        jobs += [
            Job("delta", size, ["delta", "--grading", grading, "--character",
                                character], 0,
                {"derivation": True, "inner": "no"}),
            Job("delta-inj", size, ["delta-inj", "--grading", grading], 0,
                {"injective on characters": True}),
        ]
    bad = kronecker().doc()
    bad["objects"] = 5
    path = w.json("objects-not-a-list.json", bad)
    jobs.append(Job("h1-malformed", "objects=5", ["h1", "--cat", path], 2,
                    error="objects", defect="a category document with "
                    "\"objects\": 5 raises TypeError out of run()"))
    return jobs


# -- workload: presentations --------------------------------------------------------------

def _term(coeff: Fraction, path: str) -> str:
    """A relation term after the first: `+ path`, `- 2/3 path`."""
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    return f"{sign} {path}" if mag == 1 else f"{sign} {mag} {path}"


def grid_presentation(m: int, k: int, bound: int, rng: random.Random,
                      p: int) -> str:
    """Grid quiver with one commutativity relation per square, with
    seeded nonzero coefficients."""
    lines = ["vertices " + " ".join(f"v{i}_{j}" for i in range(m)
                                    for j in range(k))]
    for i in range(m):
        for j in range(k):
            if i + 1 < m:
                lines.append(f"arrow r{i}_{j}: v{i}_{j} -> v{i + 1}_{j}")
            if j + 1 < k:
                lines.append(f"arrow c{i}_{j}: v{i}_{j} -> v{i}_{j + 1}")
    lam = iter(coefficients(rng, (m - 1) * (k - 1), p))
    for i in range(m - 1):
        for j in range(k - 1):
            lines.append(f"rel c{i + 1}_{j}*r{i}_{j} "
                         + _term(-next(lam), f"r{i}_{j + 1}*c{i}_{j}"))
    lines.append(f"bound {bound}")
    return "\n".join(lines) + "\n"


def nakayama_presentation(n: int, length: int, bound: int) -> str:
    lines = ["vertices " + " ".join(f"x{i}" for i in range(n))]
    lines += [f"arrow u{i}: x{i} -> x{(i + 1) % n}" for i in range(n)]
    for i in range(n):
        path = "*".join(f"u{(i + s) % n}" for s in reversed(range(length)))
        lines.append(f"rel {path}")
    lines.append(f"bound {bound}")
    return "\n".join(lines) + "\n"


def presentations_jobs(w: Writer, rng: random.Random,
                       sizes: dict) -> list[Job]:
    jobs: list[Job] = []

    def present(family, size, text, name, p, bound, verdicts):
        """A presentation at its exact length bound and, over F_p, one
        bound lower, where truncation must be refused."""
        good = w.text(f"{name}-{p}.txt", text(bound))
        jobs.append(Job(f"present-{family}", size, [
            "present", "--presentation", good, "--field", str(p)], 0,
            verdicts))
        if p:
            short = w.text(f"{name}-{p}-short.txt", text(bound - 1))
            jobs.append(Job(f"present-{family}-short", size, [
                "present", "--presentation", short, "--field", str(p)], 2,
                error=f"truncation at length {bound - 1}"))
        return good

    grids = [(m, k, (0, 5)) for m, k in sizes["grid_present"]] + \
        [(m, k, (5,)) for m, k in sizes["grid_present_fp"]]
    for m, k, fields in grids:
        arrows = 2 * m * k - m - k
        for p in fields:
            good = present("grid", f"{m}x{k},p={p}",
                           lambda b: grid_presentation(m, k, b, rng, p),
                           f"grid-{m}x{k}", p, m + k - 2,
                           {"objects": m * k, "total dimension":
                            comb(m + 1, 2) * comb(k + 1, 2)})
        jobs.append(Job("pi1-grid", f"{m}x{k}", [
            "pi1", "--presentation", good, "--base", "v0_0"], 0,
            {"generators": arrows,
             "relators": m * k - 1 + (m - 1) * (k - 1),
             "abelianization": "Z/1", "order": 1}))
    for n, length in sizes["nakayama_present"]:
        for p in (0, 3):
            good = present("nakayama", f"n={n},L={length},p={p}",
                           lambda b: nakayama_presentation(n, length, b),
                           f"nakayama-{n}-{length}", p, length - 1,
                           {"objects": n, "total dimension": n * length})
        jobs.append(Job("pi1-nakayama", f"n={n},L={length}", [
            "pi1", "--presentation", good, "--base", "x0"], 0,
            {"generators": n, "relators": n - 1, "abelianization": "Z",
             "order": "exceeded 2000 cosets"}))
    for p in (0, 3, 5):
        good = present("kuv", f"p={p}", lambda b: (
            "vertices x\narrow u: x -> x\narrow v: x -> x\n"
            "rel u*v - v*u\nrel u*u\nrel v*v\n"
            f"bound {b}\n"), "kuv", p, 2, {"objects": 1,
                                           "total dimension": 4})
    jobs.append(Job("pi1-kuv", "", ["pi1", "--presentation", good, "--base",
                                    "x"], 0,
                    {"generators": 2, "relators": 1,
                     "abelianization": "Z x Z",
                     "order": "exceeded 2000 cosets"}))
    for n in sizes["dihedral"]:
        path = w.text(f"dihedral-{n}.txt", (
            "vertex x\narrow a: x -> x\narrow b: x -> x\n"
            f"rel {'*'.join(['a'] * (n + 1))} - a\n"
            "rel b*b*b - b\nrel a*b*a - b\nbound 2\n"))
        jobs.append(Job("pi1-dihedral", f"order={2 * n}", [
            "pi1", "--presentation", path, "--base", "x", "--max-cosets",
            str(16 * n + 64)], 0,
            {"generators": 2, "relators": 3,
             "abelianization": "Z/2" if n % 2 else "Z/2 x Z/2",
             "order": 2 * n}))
    doc = {"kind": "presentation", "format_version": 1, "vertices": ["x"],
           "arrows": [{"name": "u", "source": "x", "target": "x"},
                      {"name": "v", "source": "x", "target": "x"}],
           "relations": [[{"coeff": "1", "path": "uv"},
                          {"coeff": "-1", "path": "vu"}],
                         [{"coeff": "1", "path": "uu"}],
                         [{"coeff": "1", "path": "vv"}]],
           "length_bound": 2}
    path = w.json("paths-as-strings.json", doc)
    jobs.append(Job("present-malformed", "path strings",
                    ["present", "--presentation", path], 2, error="path",
                    defect="a string where a path list belongs is read as "
                    "a list of one-letter arrow names"))
    return jobs


BUILDERS = {"covers": covers_jobs, "cohomology": cohomology_jobs,
            "presentations": presentations_jobs}


def build(workload: str, seed: int, directory: Path,
          scale: str = "full") -> list[Job]:
    """Write the inputs of one workload and return its job list, in a
    seeded order.  Every job runs with --json so verdicts can be read."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](Writer(directory), rng, SIZES[scale])
    rng.shuffle(jobs)
    for job in jobs:
        job.argv = ["--json"] + job.argv
    return jobs
