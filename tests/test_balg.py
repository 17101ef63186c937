import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolkit.balg import (
    FiniteBooleanAlgebra,
    Filter,
    quotient_algebra,
    ro_completion,
    ultrafilters,
)
from boolkit.errors import BoolkitError

from conftest import (
    ReferencePoset,
    down_mask,
    element_of,
    element_of_mask,
    filter_from_members,
    interior_of_closure,
    mask_of,
    poset_of_sets,
    regularize,
    regularize_mask,
    set_of_element,
)


def antichain_poset(k):
    return ReferencePoset([f"p{i}" for i in range(k)], leq_pairs=[])


def chain_poset(k):
    names = [f"p{i}" for i in range(k)]
    pairs = [(names[i], names[j]) for i in range(k) for j in range(i, k)]
    return ReferencePoset(names, leq_pairs=pairs)


@st.composite
def random_posets(draw, max_size=8):
    """A random order on q0..q(n-1): random pairs i < j, transitively closed."""
    n = draw(st.integers(1, max_size))
    names = [f"q{i}" for i in range(n)]
    below = [{i} for i in range(n)]
    for j in range(n):
        for i in range(j):
            if draw(st.booleans()):
                below[j] |= below[i]
    pairs = [(names[i], names[j]) for j in range(n) for i in below[j]]
    return ReferencePoset(names, leq_pairs=pairs)


def _minimal_cones(p):
    """Atoms as the cones that contain no other cone (a quadratic scan)."""
    cones = [regularize_mask(p, down_mask(p, q)) for q in p.elements]
    return sorted({m for m in cones if not any(o != m and o & ~m == 0 for o in cones)})


class TestAlgebraLaws:
    """Elements are ints combined with ``&``, ``|`` and ``^ one``; the
    algebra gives their order, top element and big meets and joins."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_laws_exhaustive(self, k):
        b = FiniteBooleanAlgebra(k)
        xs = list(b.elements())
        assert len(xs) == 2**k and all(map(b.is_element, xs))
        assert not b.is_element(b.one + 1) and not b.is_element(-1)
        for x in xs:
            assert b.leq(0, x) and b.leq(x, b.one) and b.is_element(b.one ^ x)
        for x, y in itertools.product(xs, repeat=2):
            assert b.leq(x, y) == (x & y == x) == (x | y == y)
            assert b.meet_all([x, y]) == x & y and b.join_all([x, y]) == x | y
        assert b.meet_all([]) == b.one and b.join_all([]) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(5, 16), st.integers(0, 2**40), st.integers(0, 2**40), st.integers(0, 2**40))
    def test_laws_randomized(self, k, x, y, z):
        b = FiniteBooleanAlgebra(k)
        x, y, z = x & b.one, y & b.one, z & b.one
        assert b.leq(x & y, x) and b.leq(x, x | y)
        assert b.leq(x, y) == (x & (b.one ^ y) == 0)
        assert b.meet_all([x, y, z]) == x & y & z and b.join_all([x, y, z]) == x | y | z

    def test_one_is_cached_and_equality_reads_atom_count(self):
        b = FiniteBooleanAlgebra(40)
        assert b.one == 2**40 - 1 and vars(b)["one"] is b.one
        assert b == FiniteBooleanAlgebra(40) and hash(b) == hash(FiniteBooleanAlgebra(40))
        assert b != FiniteBooleanAlgebra(39)


class TestRegularize:
    def test_whole_space(self):
        p = antichain_poset(3)
        assert regularize(p, set(p.elements)) == frozenset(p.elements)

    def test_empty(self):
        assert regularize(antichain_poset(3), set()) == frozenset()

    def test_two_antichain_singleton(self):
        p = antichain_poset(2)
        assert regularize(p, {"p0"}) == frozenset({"p0"})

    @settings(max_examples=200, deadline=None)
    @given(random_posets(), st.integers(0, 2**8 - 1))
    def test_matches_interior_of_closure(self, p, bits):
        names = p.elements
        subset = {x for i, x in enumerate(names) if bits >> i & 1}
        expected = interior_of_closure(p, subset)
        assert regularize(p, subset) == expected
        assert regularize_mask(p, mask_of(p, subset)) == mask_of(p, expected)

    def test_idempotent_monotone_inflationary(self):
        rng = random.Random(7)
        p = chain_poset(3)
        downsets = [set(), {"p0"}, {"p0", "p1"}, {"p0", "p1", "p2"}]
        for u in downsets:
            r = regularize(p, u)
            assert regularize(p, r) == r
            assert u <= r
        for u, v in itertools.product(downsets, repeat=2):
            if u <= v:
                assert regularize(p, u) <= regularize(p, v)


class TestRoCompletion:
    def test_single_point(self):
        ro = ro_completion(ReferencePoset(["p"]))
        assert ro.algebra.one + 1 == 2

    @pytest.mark.parametrize("k,size", [(1, 2), (2, 4), (3, 8)])
    def test_antichain(self, k, size):
        ro = ro_completion(antichain_poset(k))
        assert ro.algebra.one + 1 == size

    def test_chain_collapses(self):
        ro = ro_completion(chain_poset(3))
        assert ro.algebra.one + 1 == 2

    def test_cone_map_order_preserving(self):
        p = ReferencePoset(["a", "b", "c"], leq_pairs=[("a", "c"), ("b", "c")])
        ro = ro_completion(p)
        for i, x in enumerate(p.elements):
            for j, y in enumerate(p.elements):
                if p.leq(x, y):
                    assert ro.algebra.leq(ro.cone[i], ro.cone[j])

    def test_maximal_antichain_joins_to_one(self):
        p = ReferencePoset(["a", "b", "c"], leq_pairs=[("a", "c"), ("b", "c")])
        ro = ro_completion(p)
        assert ro.algebra.join_all([ro.cone[0], ro.cone[1]]) == ro.algebra.one

    @settings(max_examples=200, deadline=None)
    @given(random_posets())
    def test_atoms_and_cones_match_the_regularized_down_sets(self, p):
        ro = ro_completion(p)
        assert list(ro._atom_masks) == _minimal_cones(p)
        assert isinstance(ro.cone, tuple) and len(ro.cone) == len(p)
        for i, q in enumerate(p.elements):
            assert ro.cone[i] == element_of_mask(ro, regularize_mask(p, down_mask(p, q)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            random_posets(),
            st.lists(st.frozensets(st.integers(0, 5), max_size=4), min_size=1, max_size=8,
                     unique=True).map(poset_of_sets),
        ),
        st.integers(0, 2**8 - 1),
    )
    def test_a_regularization_holds_the_atoms_of_its_minimal_elements(self, p, bits):
        # a minimal element lies in the regularization of U just when it lies in U
        ro = ro_completion(p)
        u_mask = bits & (1 << len(p)) - 1
        expected = sum(1 << j for j, r in enumerate(ro.minimal) if u_mask >> r & 1)
        assert element_of_mask(ro, regularize_mask(p, u_mask)) == expected

    def test_elements_are_regular_opens(self):
        p = ReferencePoset(["a", "b", "c", "d"], leq_pairs=[("a", "c"), ("b", "c"), ("a", "d")])
        ro = ro_completion(p)
        for x in ro.algebra.elements():
            ro_set = set_of_element(ro, x)
            assert element_of(ro, ro_set) == x


def brute_force_ultrafilters(b):
    xs = list(b.elements())
    out = []
    for bits in range(1 << len(xs)):
        members = {xs[i] for i in range(len(xs)) if bits >> i & 1}
        if not members or 0 in members:
            continue
        if any(x & y not in members for x in members for y in members):
            continue
        if any(
            y not in members for x in members for y in xs if b.leq(x, y)
        ):
            continue
        # maximal: for every element, it or its complement belongs
        if all(x in members or b.one ^ x in members for x in xs):
            out.append(frozenset(members))
    return out


class TestFilters:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 3)])
    def test_ultrafilter_counts(self, k, count):
        b = FiniteBooleanAlgebra(k)
        ufs = ultrafilters(b)
        assert len(ufs) == count
        assert {frozenset(x for x in b.elements() if x in f) for f in ufs} == set(brute_force_ultrafilters(b))

    def test_dichotomy(self):
        b = FiniteBooleanAlgebra(3)
        for f in ultrafilters(b):
            for x in b.elements():
                assert (x in f) != (b.one ^ x in f)

    def test_rejects_zero(self):
        with pytest.raises(BoolkitError):
            Filter(FiniteBooleanAlgebra(2), 0)

    def test_from_members_validates(self):
        b = FiniteBooleanAlgebra(2)
        with pytest.raises(BoolkitError):
            filter_from_members(b, {1})  # not upward closed: misses 3
        with pytest.raises(BoolkitError):
            filter_from_members(b, {1, 2, 3})  # meet of 1 and 2 is 0
        assert filter_from_members(b, {1, 3}).generator == 1


class TestQuotient:
    def test_trivial_filter_is_isomorphism(self):
        b = FiniteBooleanAlgebra(3)
        q, proj = quotient_algebra(b, Filter(b, b.one))
        assert q.atom_count == b.atom_count
        seen = {proj(x) for x in b.elements()}
        assert len(seen) == b.one + 1

    def test_ultrafilter_quotient_two_valued(self):
        b = FiniteBooleanAlgebra(2)
        for f in ultrafilters(b):
            q, proj = quotient_algebra(b, f)
            assert q.atom_count == 1
            assert proj(f.generator) == q.one

    def test_coatom_filter(self):
        b = FiniteBooleanAlgebra(3)
        q, proj = quotient_algebra(b, Filter(b, 0b110))
        assert q.one + 1 == 4
        classes = {}
        for x in b.elements():
            classes.setdefault(proj(x), []).append(x)
        assert len(classes) == 4

    def test_projection_identifies_filter_equivalent(self):
        b = FiniteBooleanAlgebra(3)
        f = Filter(b, 0b011)
        q, proj = quotient_algebra(b, f)
        for x in b.elements():
            for y in b.elements():
                iff = b.one ^ x ^ y
                assert (proj(x) == proj(y)) == (iff in f)


class TestPoset:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.frozensets(st.integers(0, 5), max_size=4), min_size=1, max_size=12, unique=True),
        st.lists(st.integers(0, (1 << 12) - 1), max_size=4),
    )
    def test_of_sets_matches_reverse_inclusion(self, sets, subsets):
        built = poset_of_sets(sets)
        reference = ReferencePoset(sets, leq=lambda a, b: b <= a)
        assert len(built) == len(reference)
        assert built._down == [down_mask(reference, s) for s in sets]
        # Poset builds its up masks directly, not by transposing the down masks
        assert built._up == reference._up
        for mask in subsets:
            mask &= (1 << len(built)) - 1
            assert regularize_mask(built, mask) == regularize_mask(reference, mask)
        ro, ro_ref = ro_completion(built), ro_completion(reference)
        assert ro._atom_masks == ro_ref._atom_masks and ro.cone == ro_ref.cone

    def test_rejects_intransitive(self):
        with pytest.raises(BoolkitError):
            ReferencePoset(["a", "b", "c"], leq_pairs=[("a", "b"), ("b", "c")])

    def test_rejects_cycle(self):
        with pytest.raises(BoolkitError):
            ReferencePoset(["a", "b"], leq_pairs=[("a", "b"), ("b", "a")])
