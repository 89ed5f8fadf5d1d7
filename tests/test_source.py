"""Checks on the package source itself."""
import ast
import dataclasses
import pathlib
import re
import sys

import pytest

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
    path_functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                      and node.name in ("build_progression", "__post_init__", "_sift")]
    assert len(path_functions) == 3
    found = sorted(f"{node.name}: {name}" for node in path_functions
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


def test_one_bottom_row_walk():
    # both brute-force oracles read the matrices off one walk over bottom rows, and the
    # direct count adds up the same rows' t-intervals with no matrix built
    assert _functions_naming("_rows") == ["heegner_circles/circles.py: _row_walk",
                                          "heegner_circles/circles.py: _rows",
                                          "heegner_circles/equidist.py: direct_cosh_count"]
    path = SRC / "heegner_circles" / "equidist.py"
    [count] = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.FunctionDef) and node.name == "direct_cosh_count"]
    assert {"_row_walk", "brute_force_by_radius", "UnimodularMatrix"} & set(_names(count)) == set()


def test_r_star_counts_kept_blocks():
    # r_star counts the kept unit blocks of a norm and composes none of its elements, and
    # one Python function states the keep rule, 2 Re = 2m (mod q), with m from residue_m;
    # the survey's batch pass states it once more in numpy
    path = SRC / "heegner_circles" / "quadfield.py"
    [r_star] = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                if isinstance(node, ast.FunctionDef) and node.name == "r_star"]
    assert {"_unit_blocks", "_restricted_coords", "_compose"} & set(_names(r_star)) == set()
    assert _functions_naming("residue_m") == ["heegner_circles/equidist.py: _batch_discrepancies",
                                              "heegner_circles/quadfield.py: _kept_units",
                                              "heegner_circles/quadfield.py: residue_m"]


def _reads_q(node):
    return (isinstance(node, ast.Name) and node.id == "q"
            or isinstance(node, ast.Attribute) and node.attr == "q")


def _q_parity_tests(tree):
    """'<function>: <line>' for each q % 2, q & 1, or comparison of q with 4 or 8."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            parity = (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.BitAnd))
                      and _reads_q(node.left) and isinstance(node.right, ast.Constant)
                      and node.right.value in (1, 2))
            even_q = (isinstance(node, ast.Compare) and _reads_q(node.left)
                      and any(isinstance(c, ast.Constant) and c.value in (4, 8)
                              or isinstance(c, (ast.Tuple, ast.Set, ast.List))
                              and {4, 8} & {e.value for e in c.elts if isinstance(e, ast.Constant)}
                              for c in node.comparators))
            if parity or even_q:
                yield f"{fn.name}: {node.lineno}"


def test_equidist_has_one_rule_for_every_field():
    # the sharp-set identity reads the ramified prime of every field alike; a
    # branch on the parity of q would bring back a rule of its own for q = 4, 8
    path = SRC / "heegner_circles" / "equidist.py"
    assert list(_q_parity_tests(ast.parse(path.read_text(encoding="utf-8"), str(path)))) == []
    # the check itself sees such a branch
    both = "def f(fld):\n    if fld.q % 2 == 1:\n        pass\ndef g(q):\n    return q in (4, 8)\n"
    assert list(_q_parity_tests(ast.parse(both))) == ["f: 2", "g: 5"]


def _annotated_names(fn):
    """Every name in the annotations of a function's parameters, quoted ones too."""
    args = fn.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
        ann = arg and arg.annotation
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann = ast.parse(ann.value, mode="eval")
        if ann is not None:
            yield from _names(ann)


def test_no_function_takes_a_field_and_a_radius():
    # a Radius carries its field, so a second field argument could only
    # disagree with it: functions of a radius read radius.field
    found = sorted(f"{path.relative_to(SRC)}: {node.name}"
                   for path in sorted(SRC.rglob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                   if isinstance(node, ast.FunctionDef)
                   and {"Discriminant", "Radius"} <= set(_annotated_names(node)))
    assert found == []
    # the check itself sees such a signature, quoted or not
    fn = ast.parse("def f(fld: 'Discriminant', *, r: circles.Radius): pass").body[0]
    assert {"Discriminant", "Radius"} <= set(_annotated_names(fn))


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


#: verify's identity checks, each stated once in cli._verify_field.
VERIFY_CHECKS = """
    radius-vs-cosh coordinate-norm-identity disc-map-image split-norms
    congruence-of-matrix split-product-identity split-roundtrip
    congruence-reduction radius-set pair-count-formula oracle-equivalence
    point-set-equality point-count-vs-restricted vk-multiplicativity
    vk-ramified-stability matrix-vs-point-discrepancy sharp-factorization
""".split()


def test_verify_states_each_check_once():
    # a refactor that drops or doubles a check shows up here, not as a silent pass
    path = SRC / "heegner_circles" / "cli.py"
    named = [node.args[0].value
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "check" and node.args and isinstance(node.args[0], ast.Constant)]
    assert len(VERIFY_CHECKS) == 17
    assert sorted(named) == sorted(VERIFY_CHECKS)


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

#: A call into the library as the benchmark writes it: <module>.<name>(
_BENCH_CALL = re.compile(r"\b(quadfield|halfplane|circles|equidist|bnumbers)\.(\w+)\s*\(")


def _mentions(tree):
    """Every name a node reads, as an ast.Name or as an ast.Attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreached(trees, roots):
    """The top-level functions and classes of the modules that no root reaches.

    A reached def reaches every top-level def it mentions anywhere in its
    body, decorators, defaults and bases; the modules' other top-level
    statements run on import, so what they mention is reached too.
    """
    defs, todo = {}, list(roots)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                todo.extend(_mentions(node))
    seen = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in seen:
            seen.add(name)
            todo.extend(ref for node in defs[name] for ref in _mentions(node))
    return sorted(set(defs) - seen)


def test_src_holds_only_what_is_reached():
    # an oracle that only the tests call lives in tests/oracles.py: src/ keeps
    # what cli.main, a public name or the benchmark reaches
    bench_calls = {m.group(2) for path in sorted(BENCH.glob("*.py"))
                   for m in _BENCH_CALL.finditer(path.read_text(encoding="utf-8"))}
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted((SRC / "heegner_circles").glob("*.py"))]
    assert _unreached(trees, ["main", *PUBLIC_NAMES, *bench_calls]) == []
    # the check itself sees a def that nothing reaches, and what only it reaches
    toy = ast.parse("def main():\n    f()\ndef f():\n    pass\n"
                    "def g():\n    h()\ndef h():\n    pass\n")
    assert _unreached([toy], ["main"]) == ["g", "h"]


def test_discriminant_takes_q_alone():
    # every other constant of a field follows from q, so it is set in
    # __post_init__ and cannot be passed in to disagree with q
    init = [f.name for f in dataclasses.fields(heegner_circles.Discriminant) if f.init]
    assert init == ["q"]


ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Modules of this repository, not of an installed distribution.
LOCAL_MODULES = {"heegner_circles", "oracles", "conftest"}


def _third_party_imports(trees):
    """The top-level names of the modules the trees import that are neither
    the standard library's nor local."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - LOCAL_MODULES


def _parsed(paths):
    return [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths]


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_pyproject_names_every_imported_module():
    # a module the code imports but pyproject.toml leaves out installs only
    # where it happens to be present already
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = _requirement_names(project["dependencies"])
    test = _requirement_names(project["optional-dependencies"]["test"])
    assert _third_party_imports(_parsed(sorted((SRC / "heegner_circles").glob("*.py")))) <= runtime
    assert _third_party_imports(_parsed(sorted((ROOT / "tests").glob("*.py")))) <= runtime | test
    # the check itself sees a third-party import, also inside a function, and
    # passes over the standard library, relative imports and local modules
    toy = ast.parse("import numpy as np\nfrom os import path\nfrom . import quadfield\n"
                    "import oracles\ndef f():\n    from sympy.ntheory import isprime\n")
    assert _third_party_imports([toy]) == {"numpy", "sympy"}
    assert _requirement_names(["numpy>=1.24", "Foo-Bar[x]"]) == {"numpy", "foo_bar"}
