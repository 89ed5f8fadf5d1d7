"""Checks on the package source itself."""
import ast
import pathlib

import heegner_circles

SRC = pathlib.Path(heegner_circles.__file__).resolve().parents[1]


def test_no_assert_statements():
    # every check in the package raises IdentityError or ValueError, so it
    # still runs under python -O, where an assert statement is compiled away
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _names(tree):
    """Every identifier a module defines, reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def _names_a_range_sieve(name):
    return (name in ("_LinearForm", "integers_form")
            or name.isupper() and ("BLOCK" in name or "SEGMENT" in name))


def test_only_bnumbers_walks_integer_ranges():
    # one block walker serves every range of integers: no other module builds
    # a sieve form or sizes a block of its own
    files = sorted(SRC.rglob("*.py"))
    found = sorted({f"{path.relative_to(SRC)}: {name}"
                    for path in files if path.name != "bnumbers.py"
                    for name in _names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                    if _names_a_range_sieve(name)})
    assert found == []


def test_progression_path_never_factorizes():
    # the sieve view is built, checked and sifted from congruences and the block
    # sieve alone; per-term factorization is the tests' oracle
    path = SRC / "heegner_circles" / "bnumbers.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = sorted(f"{node.name}: {name}" for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name in ("build_progression", "_check_progression", "_sift")
                   for name in _names(node) if name in ("factorize", "b_indicator"))
    assert found == []


def _functions_naming(name):
    """'<file>: <function>' for every function of the package that names name."""
    return sorted(f"{path.relative_to(SRC)}: {node.name}"
                  for path in sorted(SRC.rglob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                  if isinstance(node, ast.FunctionDef) and name in _names(node))


def test_one_weyl_sum():
    # every e^{ik theta} in the package comes from _weyl_sums' products of unit
    # phases; the exponential sum is the tests' oracle, not a second path
    assert _functions_naming("exp") == ["heegner_circles/quadfield.py: _weyl_sums"]


#: The package's public names, kept working across redesigns: a removal or
#: rename shows up here rather than in a caller.
PUBLIC_NAMES = """
    AlgebraicInt CirclePoint Classification DiscrepancyReport Discriminant
    ProgressionSpec Radius SplitPair UnimodularMatrix all_fields angles
    apply_mobius arithmetic_radius b_indicator b_star_count brute_force_matrices
    build_progression chi circle_discrepancy circle_problem_sum classify
    cosh_distance disc_map discrepancy_report enumerate_norm enumerate_pairs
    et_bound factorize field integer_coords kronecker lattice_points omega_pair
    pairs_to_matrices r_count r_star radii_up_to residue_m
    sharp_factorization_check shifted_count sifted_count split_coordinates
    survey v_k
""".split()


def test_public_names_still_resolve():
    assert len(PUBLIC_NAMES) == 44
    missing = [name for name in PUBLIC_NAMES
               if name not in heegner_circles.__all__ or not hasattr(heegner_circles, name)]
    assert missing == []


def test_only_the_reach_check_reads_the_prime_table():
    # the prime table stops at 10^7, so a form over terms past 10^14 is sieved
    # short: every sieve form takes its primes from the one function that checks
    assert _functions_naming("prime_table") == ["heegner_circles/bnumbers.py: _sieving_primes",
                                                "heegner_circles/quadfield.py: prime_table"]
