"""The 3-dimensional catalog: counts, verified bases, and classification."""

import random

import pytest

from nicebasis import (
    catalog3,
    nice,
    Matrix,
    build,
    reproduce,
    catalog,
    check_nice,
    classify3,
    cyclic_sign_pattern,
    LieAlgebra,
    fixtures,
    monomial_equivalent,
    rat,
    simple_nice_bases,
)

EXPECTED = {
    "R^3": 1,
    "h3": 1,
    "aa(A_-1)": 2,
    "aa(A_lambda=-1/2)": 1,
    "aa(A_lambda=0)": 1,
    "aa(A_lambda=1/2)": 1,
    "aa(A_lambda=1)": 1,
    "aa(D)": 0,
    "aa(E_0)": 1,
    "aa(E_mu=1)": 0,
    "aa(E_mu=2)": 0,
    "sl2": 2,
    "so3": 1,
}


@pytest.fixture(scope="module")
def entries():
    return {e.name: e for e in catalog()}


class TestCatalog:
    def test_names(self, entries):
        assert set(entries) == set(EXPECTED)

    @pytest.mark.parametrize("name,nu", sorted(EXPECTED.items()))
    def test_counts(self, entries, name, nu):
        assert entries[name].nu == nu

    def test_all_verify(self, entries):
        for e in entries.values():
            assert e.verify() is e

    def test_listed_bases_are_nice(self, entries):
        for e in entries.values():
            assert len(e.nice_bases) == e.nu
            for b in e.nice_bases:
                assert check_nice(e.algebra.change_basis(b))

    def test_two_bases_inequivalent(self, entries):
        for e in entries.values():
            if e.nu == 2:
                b1, b2 = e.nice_bases
                assert monomial_equivalent(e.algebra, b1, b2) is None

    def test_dimension_three(self, entries):
        for e in entries.values():
            assert e.algebra.dim == 3


class TestReproduceCheck:
    def test_table_is_the_papers(self):
        assert reproduce.CATALOG_NU == EXPECTED

    def test_a_count_off_the_table_fails(self, monkeypatch):
        monkeypatch.setitem(reproduce.CATALOG_NU, "sl2", 1)
        name, ok, detail, _ = reproduce.check_catalog_counts()
        assert name == "three-dim-catalog"
        assert not ok
        assert detail == "sl2: count 2, paper 1"

    def test_a_basis_that_fails_verification_fails_the_row(self, monkeypatch):
        # the row reports the broken basis and the battery runs its other rows
        real = catalog3.check_nice
        monkeypatch.setattr(catalog3, "check_nice", lambda t: bool(t.brackets) and real(t))
        name, ok, detail, _ = reproduce.check_catalog_counts()
        assert (name, ok, detail) == ("three-dim-catalog", False,
                                      "catalog basis for R^3 is not nice")
        rows = reproduce.run_all()
        assert len(rows) == 9
        assert [r[0] for r in rows if not r[1]] == ["three-dim-catalog"]


def counted(monkeypatch, owner, attr, calls):
    real = getattr(owner, attr)

    def wrapper(*args):
        calls.append(attr)
        return real(*args)

    monkeypatch.setattr(owner, attr, wrapper)


class TestWork:
    """Each listed basis is mapped and checked once, in CatalogEntry.verify; an identity
    basis is checked on the algebra itself, so only aa(A_-1)'s and sl2's second bases
    are mapped."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        counted(monkeypatch, LieAlgebra, "change_basis", calls)
        for module in (catalog3, nice):
            counted(monkeypatch, module, "check_nice", calls)
        return calls

    def test_one_catalog_call(self, calls):
        rows = catalog()
        assert sum(len(e.nice_bases) for e in rows) == 12
        assert calls.count("change_basis") == 2
        assert calls.count("check_nice") == 12

    def test_the_reproduce_row_adds_no_change_of_basis(self, calls):
        assert reproduce.check_catalog_counts()[1]
        assert calls.count("change_basis") == 2


class TestCertificatesBite:
    """Every certificate of a row still rejects a broken row."""

    @pytest.fixture
    def h3(self, entries):
        return entries["h3"]

    def test_a_basis_that_is_not_nice(self, h3):
        with pytest.raises(RuntimeError, match="catalog basis for h3 is not nice"):
            h3._replace(nice_bases=(SHUFFLE,)).verify()

    def test_one_basis_too_many(self, h3):
        with pytest.raises(RuntimeError, match="wrong basis count"):
            h3._replace(nice_bases=h3.nice_bases * 2).verify()

    @pytest.mark.parametrize("pattern", [(1, 1, -1), None], ids=["mixed", "none"])
    def test_so3_sign_pattern(self, monkeypatch, pattern):
        monkeypatch.setattr(catalog3, "cyclic_sign_pattern", lambda g: pattern)
        with pytest.raises(RuntimeError, match="so3 sign pattern"):
            simple_nice_bases("so3")
        with pytest.raises(RuntimeError):
            catalog()

    @pytest.mark.parametrize("replaced", [1, 0], ids=["second", "first"])
    def test_sl2_bases_monomially_equivalent(self, monkeypatch, replaced):
        # a nice rescaling of the other basis; replacing the first keeps the
        # mixed signs of the second, so only the monomial search can tell
        bases = list(catalog3._A_MINUS1_BASES)
        other = bases[1 - replaced]
        bases[replaced] = other * Matrix.diagonal([rat(2), rat(-3), rat(5)])
        assert check_nice(fixtures.sl2().change_basis(bases[replaced]))
        monkeypatch.setattr(catalog3, "_A_MINUS1_BASES", tuple(bases))
        with pytest.raises(RuntimeError, match="sl2 bases unexpectedly equivalent"):
            simple_nice_bases("sl2")


class TestSignPattern:
    def test_so3_uniform(self):
        signs = cyclic_sign_pattern(fixtures.so3())
        assert signs is not None
        assert len(set(signs)) == 1

    def test_sl2_second_basis_mixed(self):
        alg = fixtures.sl2()
        _, second = simple_nice_bases("sl2")
        signs = cyclic_sign_pattern(alg.change_basis(second))
        assert signs is not None
        assert len(set(signs)) == 2

    def test_non_cyclic_returns_none(self):
        assert cyclic_sign_pattern(fixtures.heisenberg3()) is None

    def test_invariant_under_scaling(self):
        alg = fixtures.so3()
        p = Matrix.diagonal([rat(2), rat(3), rat(5)])
        signs = cyclic_sign_pattern(alg.change_basis(p))
        assert signs is not None
        assert len(set(signs)) == 1

    def test_simple_bases_reject_bad_name(self):
        with pytest.raises(ValueError):
            simple_nice_bases("su2")


SHUFFLE = Matrix.from_columns(
    [(rat(1), rat(1), rat(0)), (rat(0), rat(1), rat(2)), (rat(1), rat(0), rat(1))]
)


class TestClassify:
    def test_needs_dim_3(self):
        with pytest.raises(ValueError):
            classify3(fixtures.n6())

    @pytest.mark.parametrize(
        "alg_name",
        ["heisenberg3", "sl2", "so3"],
    )
    def test_round_trip_under_change_of_basis(self, alg_name):
        alg = getattr(fixtures, alg_name)()
        direct = classify3(alg)
        shuffled = classify3(alg.change_basis(SHUFFLE))
        assert direct is not None and shuffled is not None
        assert direct.name == shuffled.name
        assert direct.nu == shuffled.nu

    def test_heisenberg_is_h3(self):
        entry = classify3(fixtures.heisenberg3())
        assert entry.name == "h3"
        assert entry.nu == 1

    def test_abelian(self):
        from nicebasis import abelian

        entry = classify3(abelian(3))
        assert entry.name == "R^3"
        assert entry.nu == 1

    def test_catalog_algebras_classify_to_themselves(self, entries):
        for name, e in entries.items():
            got = classify3(e.algebra)
            assert got is not None, name
            assert got.name == name
            assert got.nu == e.nu

    def test_conjugates_classify_on_int_brackets(self, entries, monkeypatch):
        # the centralizer of [g, g] and _ad_action_matrix bracket int rows with bracket_int
        rng, conjugates = random.Random(37), {}
        for name, e in entries.items():
            p = Matrix.zeros(3, 3)
            while p.det() == 0:
                p = Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            conjugates[name] = e.algebra.change_basis(p)
        monkeypatch.setattr(LieAlgebra, "bracket_sparse", lambda *a: pytest.fail("Fraction path"))
        names = {name: classify3(g).name for name, g in conjugates.items()}
        assert names == {name: name for name in entries}

    def test_rescaled_solvable(self, entries):
        e = entries["aa(A_-1)"]
        got = classify3(e.algebra.change_basis(SHUFFLE))
        assert got is not None
        assert got.nu == 2


# 2x2 matrices off the catalog's sample parameters: (A, row name, nu), None
# when classify3 finds no row (irrational eigenvalues, irrational mu, or
# eigenvalues +-sqrt(2) i, which no rational multiple of E_0 has)
OFF_SAMPLES = [
    (Matrix.diagonal([2, 6]), "aa(A_lambda=1/3)", 1),
    (Matrix.diagonal([1, -2]), "aa(A_lambda=-1/2)", 1),
    (Matrix.diagonal([5, 5]), "aa(A_lambda=1)", 1),
    (Matrix([[3, 1], [0, 3]]), "aa(D)", 0),
    (fixtures.matrix_e(3), "aa(E_mu=3)", 0),
    (fixtures.matrix_e(rat(1, 2)), "aa(E_mu=1/2)", 0),
    (Matrix([[0, -1], [1, 0]]), "aa(E_0)", 1),
    (Matrix([[0, 2], [1, 0]]), None, None),
    (Matrix([[1, -1], [2, 1]]), None, None),
    (Matrix([[0, 2], [-1, 0]]), None, None),
]


class TestClassifyOffTheSamples:
    @pytest.mark.parametrize("a,name,nu", OFF_SAMPLES, ids=[
        "diag-2-6", "diag-1-m2", "scalar-5", "jordan-3", "e-3", "e-1-2", "rotation",
        "irrational-real", "irrational-mu", "irrational-rotation"])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["plain", "shuffled"])
    def test_row(self, a, name, nu, shuffled):
        alg = build(a).compiled
        got = classify3(alg.change_basis(SHUFFLE) if shuffled else alg)
        if name is None:
            assert got is None
        else:
            assert (got.name, got.nu) == (name, nu)
