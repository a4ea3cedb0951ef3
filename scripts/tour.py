#!/usr/bin/env python3
"""Walk the whole fixture matrix and print what the library sees.

Usage: python scripts/tour.py [--max-cosets N]
"""
import argparse

from lincat.cohomology import characters, delta_is_inner, h1
from lincat.covering import aut1, check_covering, fibre
from lincat.fixtures import (F2, corrupted_collapse, cover_f0, cover_f1,
                             cover_f2, cyclic_cover, discrete, identity_cover,
                             kronecker, loop_square_zero, square_base_quiver,
                             square_base_quiver_alt, square_cover,
                             swap_action)
from lincat.galois import is_galois, quotient
from lincat.grading import induced_grading, is_connected_grading, smash
from lincat.pi1pres import abelianization, bounded_order, pi1_presentation


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-cosets", type=int, default=2000)
    args = ap.parse_args()

    matrix = [cover_f0(), cover_f1(), cover_f2(), identity_cover(),
              cyclic_cover(2), cyclic_cover(3), cyclic_cover(4),
              square_cover()]

    section("coverings")
    for fix in matrix + [corrupted_collapse()]:
        rep = check_covering(fix.functor)
        fibres = {b: len(fibre(fix.functor, b))
                  for b in fix.functor.target.objects}
        print(f"{fix.name:20s} covering={str(rep.ok):5s} fibres={fibres}")

    section("deck groups and Galois verdicts")
    galois = []
    for fix in matrix:
        res = is_galois(fix.functor)
        tag = res.group.label() if res.group else "-"
        print(f"{fix.name:20s} galois={str(res.galois):5s} aut1={tag}"
              + (f"  ({res.reason})" if res.reason else ""))
        if res.galois:
            galois.append(fix)

    section("quotient of the swapped double cover")
    action = swap_action()
    q = quotient(action)
    print("objects:", q.quotient.objects)
    # the acting group is the deck group of the projection (see quotient)
    print("deck group of the projection:", action.group.label())

    section("induced gradings and smash products")
    for fix in galois:
        f = fix.functor
        choice = {b: fibre(f, b)[0] for b in f.target.objects}
        z = induced_grading(f, choice)
        conn = is_connected_grading(z).connected
        sm = smash(f.target, z)
        print(f"{fix.name:20s} group={z.group.label():8s} "
              f"connected={str(conn):5s} smash objects={len(sm.category.objects)}")

    section("first cohomology")
    for name, cat in [("kronecker", kronecker().category),
                      ("discrete", discrete().category),
                      ("dual numbers", loop_square_zero().category)]:
        res = h1(cat)
        print(f"{name:20s} dim H1={res.dimension} "
              f"(derivations {res.derivation_dim}, inner {res.inner_dim})")

    section("character embedding in characteristic 2")
    f = cover_f0(F2).functor
    z = induced_grading(f, {b: fibre(f, b)[0] for b in f.target.objects})
    chi = characters(z.group, F2)[0]
    print("delta of the nontrivial character is inner:",
          delta_is_inner(f.target, z, chi))

    section("presentation groups of the same algebra")
    for label, pres in [("R  (commuting squares)", square_base_quiver()),
                        ("R' (after base change)", square_base_quiver_alt())]:
        res = pi1_presentation(pres, "x")
        ab = abelianization(res.group)
        order = bounded_order(res.group, args.max_cosets)
        print(f"{label:24s} abelianization={ab} order={order}")


if __name__ == "__main__":
    main()
