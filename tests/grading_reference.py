"""Grading helpers for the tests.  `homogeneous_comb` gives the j-th
homogeneous column of hom(x,y) as a combination of basis names; no
library code calls it any more, and the comb-based references of
test_validation_differential.py and test_smash_differential.py keep
it.  `zero_composite_path` builds x -> y -> z with b∘a = 0, and
`composite_in_a_zero_hom` the same data with b∘a = a, which LinCat
refuses."""
from lincat.fixtures import Q
from lincat.grading import Grading
from lincat.kcat import LinCat, LinComb


def homogeneous_comb(z: Grading, x: str, y: str, j: int) -> LinComb:
    names = z.category.hom[(x, y)]
    return {names[i]: a for i, a in z.basis[(x, y)].columns[j].items()}


def zero_composite_path(ba=None):
    """x -> y -> z with hom(x,z) = 0, and b∘a = ba (zero if not given:
    any other value composes outside hom(x,z))."""
    return LinCat.make(Q, ("x", "y", "z"),
                       {("x", "x"): ["1_x"], ("y", "y"): ["1_y"],
                        ("z", "z"): ["1_z"], ("x", "y"): ["a"],
                        ("y", "z"): ["b"]},
                       {("1_y", "a"): {"a": 1}, ("a", "1_x"): {"a": 1},
                        ("1_z", "b"): {"b": 1}, ("b", "1_y"): {"b": 1},
                        ("b", "a"): ba or {},
                        **{(f"1_{o}", f"1_{o}"): {f"1_{o}": 1}
                           for o in "xyz"}},
                       {o: {f"1_{o}": 1} for o in "xyz"})


def composite_in_a_zero_hom():
    """x -> y -> z with hom(x,z) = 0 and b∘a = a: not a category, so
    LinCat refuses it."""
    return zero_composite_path({"a": 1})
