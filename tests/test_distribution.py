"""Exact discrete joints: construction, marginals, independence, sampling."""

import copy
import itertools
import math
import pickle
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

from kassoc.distribution import MAX_CELLS, MAX_ROWS, Cpt, Dataset, DiscreteJoint, DistributionError
from kassoc.graph import Dag
from kassoc.scenarios import BUILTINS, builtin
from conftest import child_env, random_cpt_net, zero_cell_joints, zero_cell_nets
from references import (assignments, fraction_is_independent_sets, fraction_marginal,
                        integer_product, prob, row_by_row_factor)


def fraction_product(dag, cpts):
    """Reference ``from_cpts``: the Fraction product of CPT entries, cell by
    cell, in the graph's node order."""
    by_child = {c.child: c for c in cpts}
    pos = {n: i for i, n in enumerate(dag.nodes)}
    probs = []
    for a in itertools.product(*(range(by_child[n].child_card) for n in dag.nodes)):
        p = F(1)
        for node in dag.nodes:
            cpt = by_child[node]
            p *= cpt.rows[tuple(a[pos[q]] for q in cpt.parents)][a[pos[node]]]
        probs.append(p)
    return probs


def reversed_parents(cpt):
    """The same CPT with its parents listed in reverse order."""
    return Cpt(cpt.child, cpt.child_card, cpt.parents[::-1], cpt.parent_cards[::-1],
               {pa[::-1]: vec for pa, vec in cpt.rows.items()})


def random_queries(rng, names, count):
    """``count`` queries with xs and ys of size 1-2 and any conditioning set
    from the remaining names."""
    out = []
    for _ in range(count):
        shuffled = rng.sample(names, len(names))
        nx = rng.randint(1, min(2, len(names) - 1))
        ny = rng.randint(1, min(2, len(names) - nx))
        rest = shuffled[nx + ny :]
        s = rng.sample(rest, rng.randint(0, len(rest)))
        out.append((shuffled[:nx], shuffled[nx : nx + ny], s))
    return out


def random_joint(rng):
    """2-4 variables of cardinality 1-3; about a third of the cells are 0."""
    variables = [(f"A{i}", rng.randint(1, 3)) for i in range(rng.randint(2, 4))]
    size = 1
    for _, c in variables:
        size *= c
    weights = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(size)]
    weights[rng.randrange(size)] += 1
    total = sum(weights)
    return DiscreteJoint(variables, [F(w, total) for w in weights])


def coin_pair():
    return DiscreteJoint.from_cpts(
        Dag(["A", "B"], []), [Cpt.coin("A", F(1, 2)), Cpt.coin("B", F(1, 3))]
    )


class TestCpt:
    def test_coin(self):
        c = Cpt.coin("E", F(1, 4))
        assert c.rows[()] == (F(3, 4), F(1, 4))

    def test_prior_must_normalize(self):
        with pytest.raises(DistributionError):
            Cpt.prior("A", [F(1, 2), F(1, 3)])

    def test_rows_must_cover_parent_domain(self):
        with pytest.raises(DistributionError):
            Cpt("Y", 2, ("X",), (2,), {(0,): (F(1, 2), F(1, 2))})

    def test_parent_rows_are_counted_before_they_are_listed(self):
        rows = {(0,): (F(1, 2), F(1, 2)), (1,): (F(1, 2), F(1, 2))}
        with pytest.raises(DistributionError, match="more than"):
            Cpt("Y", 2, ("X",), (10**12,), rows)
        with pytest.raises(DistributionError, match="wrong set of parent rows"):
            Cpt("Y", 2, ("X", "Z"), (1000, 1000), {(0, v): rows[(v,)] for v in (0, 1)})

    def test_noisy_function_marginalizes_the_coin(self):
        xor = Cpt.noisy_function(
            "Y", ("X", "Z"), (2, 2), lambda x, z: x ^ z, F(1, 4)
        )
        assert xor.rows[(0, 0)] == (F(3, 4), F(1, 4))
        assert xor.rows[(1, 0)] == (F(1, 4), F(3, 4))
        fn = lambda a, b, c: (a ^ b) & c  # noqa: E731
        gate = Cpt.noisy_function("Y", ("A", "B", "C"), (2, 2, 2), fn, F(1, 5))
        assert gate.rows == {pa: (F(1, 5), F(4, 5)) if fn(*pa) else (F(4, 5), F(1, 5))
                             for pa in itertools.product((0, 1), repeat=3)}
        with pytest.raises(DistributionError, match="requires a boolean function"):
            Cpt.noisy_function("Y", ("A",), (3,), lambda a: a, F(1, 5))

    def test_float_rows_are_refused(self):
        # 0.1 + 0.9 == 1 in float arithmetic, but the exact values of the two
        # floats sum to 1 + 2**-55: a collider with this row is not Markov
        # to its graph
        rows = {(x, z): (F(1, 2), F(1, 2)) for x in (0, 1) for z in (0, 1)}
        rows[(1, 1)] = (0.1, 0.9)
        with pytest.raises(DistributionError, match="not 0.1"):
            Cpt("Y", 2, ("X", "Z"), (2, 2), rows)
        assert Cpt("Y", 2, ("X",), (2,), {(0,): (1, 0), (1,): (F(1, 3), F(2, 3))})

    def test_prior_refuses_floats(self):
        with pytest.raises(DistributionError, match="int or a Fraction"):
            Cpt.prior("A", [0.5, 0.5])

    def test_coin_refuses_a_float_bias(self):
        with pytest.raises(DistributionError, match="bias of E"):
            Cpt.coin("E", 0.25)

    def test_noisy_function_refuses_a_float_flip(self):
        with pytest.raises(DistributionError, match="flip of Y"):
            Cpt.noisy_function("Y", ("X",), (2,), lambda x: x, 0.25)

    @pytest.mark.parametrize("parent_cards, text", [
        ((2.0,), "cardinality of X0 must be an int, not 2.0"),
        (("2",), "cardinality of X0 must be an int, not '2'"),
        ((2,) * 21, f"more than {MAX_CELLS} parent rows"),
    ])
    def test_noisy_function_checks_its_parents_before_any_row(self, parent_cards, text):
        """A parent cardinality that is not an int, or more parent rows than
        ``MAX_CELLS``, is refused by name before ``fn`` is called once."""
        def fn(*pa):
            raise AssertionError(f"fn called at {pa}")
        parents = [f"X{i}" for i in range(len(parent_cards))]
        with pytest.raises(DistributionError) as err:
            Cpt.noisy_function("Y", parents, parent_cards, fn, F(1, 5))
        assert str(err.value) == f"CPT for Y: {text}"

    @pytest.mark.parametrize("row, text", [
        ((F(1, 2),), "CPT for Y: bad row length at (1,)"),
        ((F(1, 2), F(1, 3), F(1, 6)), "CPT for Y: bad row length at (1,)"),
        ((F(1, 2), 0.5), "CPT for Y: probability must be an int or a Fraction, not 0.5"),
        (("1", 0), "CPT for Y: probability must be an int or a Fraction, not '1'"),
        ((F(3, 2), F(-1, 2)), "CPT for Y: negative probability"),
        ((-1, 2), "CPT for Y: negative probability"),
        ((F(1, 2), F(1, 3)), "CPT for Y: row (1,) does not sum to 1"),
        ((1, 1), "CPT for Y: row (1,) does not sum to 1"),
    ])
    def test_each_row_check_has_its_text(self, row, text):
        rows = {(0,): (F(1, 3), F(2, 3)), (1,): row}
        with pytest.raises(DistributionError) as err:
            Cpt("Y", 2, ("X",), (2,), rows)
        assert str(err.value) == text

    def test_the_first_bad_row_in_rows_order_is_named(self):
        # per row: length, then entry type, then sign, then sum; the rows in
        # the order ``rows`` lists them, not in parent-value order
        short, floats, negative, heavy = (F(1),), (0.5, 0.5), (F(3, 2), F(-1, 2)), (1, 1)
        not_exact = "probability must be an int or a Fraction, not 0.5"
        for rows, text in [
            ({(1,): heavy, (0,): short}, "row (1,) does not sum to 1"),
            ({(0,): short, (1,): heavy}, "bad row length at (0,)"),
            ({(1,): negative, (0,): heavy}, "negative probability"),
            ({(0,): heavy, (1,): negative}, "row (0,) does not sum to 1"),
            ({(1,): floats, (0,): negative}, not_exact),
            ({(1,): (F(1, 2), F(1, 2)), (0,): floats}, not_exact),
            ({(1,): (0.5, F(-1, 2)), (0,): short}, not_exact),
            # a bad type after a bad sum, a bad length after a negative entry
            ({(0,): heavy, (1,): floats}, "row (0,) does not sum to 1"),
            ({(1,): negative, (0,): short}, "negative probability"),
            ({(0,): short, (1,): negative}, "bad row length at (0,)"),
        ]:
            with pytest.raises(DistributionError) as err:
                Cpt("Y", 2, ("X",), (2,), rows)
            assert str(err.value) == f"CPT for Y: {text}", rows

    @pytest.mark.parametrize("parents, cards, rows", [
        (("X",), (2, 2), {(a, b): (F(1 + a + 2 * b, 5), F(4 - a - 2 * b, 5))
                          for a in (0, 1) for b in (0, 1)}),
        (("X", "Z"), (2,), {(0,): (F(1), F(0)), (1,): (F(0), F(1))}),
        (("X",), (), {(): (F(1), F(0))}),
        (("X",), (2**21, 2), {}),  # before the size check, too
    ])
    def test_each_parent_has_one_cardinality(self, parents, cards, rows):
        # the rows match parent_cards, so only the length check refuses these
        with pytest.raises(DistributionError) as err:
            Cpt("Y", 2, parents, cards, rows)
        assert str(err.value) == (
            f"CPT for Y: {len(parents)} parents but {len(cards)} parent cardinalities")

    @pytest.mark.parametrize("card, parents, cards, rows, text", [
        (0, (), (), {(): ()}, "cardinality of Y must be positive, not 0"),
        (-1, (), (), {(): ()}, "cardinality of Y must be positive, not -1"),
        (2, ("X",), (0,), {}, "cardinality of X must be positive, not 0"),
        (2, ("X", "Z"), (2, -3), {}, "cardinality of Z must be positive, not -3"),
        # the child first, then the parents in order; before the size check
        (0, ("X",), (0,), {}, "cardinality of Y must be positive, not 0"),
        (2, ("X", "Z"), (0, 2**21), {}, "cardinality of X must be positive, not 0"),
    ])
    def test_each_cardinality_is_positive(self, card, parents, cards, rows, text):
        with pytest.raises(DistributionError) as err:
            Cpt("Y", card, parents, cards, rows)
        assert str(err.value) == f"CPT for Y: {text}"

    @pytest.mark.parametrize("card, parent_cards, name, shown", [
        (2.0, (), "Y", "2.0"),
        (True, (), "Y", "True"),
        (2, (True,), "X", "True"),
        (2, (2.7,), "X", "2.7"),
        (2, ("2",), "X", "'2'"),
        # the first bad cardinality, the child's first, by either rule
        (2.0, (0,), "Y", "2.0"),
        (0, (2.0,), "Y", "0"),
    ])
    def test_each_cardinality_is_an_int(self, card, parent_cards, name, shown):
        """A float, a bool or a string is refused by name, as
        ``scenarios`` refuses it in a file, never truncated to an int."""
        rows = {pa: (F(1, 2), F(1, 2)) for pa in itertools.product(
            *(range(int(c)) for c in parent_cards))}
        parents = ("X",) * len(parent_cards)
        rule = "be positive" if shown == "0" else "be an int"
        with pytest.raises(DistributionError) as err:
            Cpt("Y", card, parents, parent_cards, rows)
        assert str(err.value) == f"CPT for Y: cardinality of {name} must {rule}, not {shown}"

    @pytest.mark.parametrize("card, shown", [(2.7, "2.7"), (2.0, "2.0"), (True, "True"),
                                             ("2", "'2'")])
    def test_joints_and_datasets_refuse_a_cardinality_that_is_not_an_int(self, card, shown):
        text = f"^cardinality of X must be an int, not {re.escape(shown)}$"
        with pytest.raises(DistributionError, match=text):
            DiscreteJoint([("X", card)], [F(1, 2), F(1, 2)])
        with pytest.raises(DistributionError, match=text):
            Dataset([("X", card)], [(0,), (1,)])

    def test_cardinalities_are_checked_after_the_parent_count(self):
        with pytest.raises(DistributionError, match="1 parents but 2 parent"):
            Cpt("Y", 0, ("X",), (0, 0), {})

    def test_rows_are_checked_after_the_size_and_the_row_set(self):
        with pytest.raises(DistributionError, match="wrong set of parent rows"):
            Cpt("Y", 2, ("X",), (2,), {(0,): (0.5,), (2,): (F(1),)})
        with pytest.raises(DistributionError, match="more than"):
            Cpt("Y", 2, ("X",), (2**21,), {(0,): (0.5,)})

    def test_a_child_cardinality_above_max_cells_is_refused_at_once(self):
        """The child's cardinality is refused by name before any row is
        read, as more than ``MAX_CELLS`` parent rows are; the child runs
        in its own interpreter, so a check that loops over the states
        fails this test by its timeout."""
        out = in_child("""
            start = time.perf_counter()
            try:
                Cpt("X", 2**40, (), (), {(): (F(1, 2), F(1, 2))})
            except DistributionError as exc:
                print(exc)
            print(time.perf_counter() - start < 1)
        """)
        assert out == f"CPT for X: cardinality of X must be at most {MAX_CELLS}, not {2**40}\nTrue\n"


def in_child(code: str) -> str:
    """The stdout of ``code``, run in a child interpreter on this checkout
    with ``F``, ``time``, ``Cpt``, ``DiscreteJoint`` and ``DistributionError``
    imported, so that a crash or a hang fails one test, not the run.  The
    child must exit 0 within 20 s."""
    head = ("import time\nfrom fractions import Fraction as F\n"
            "from kassoc.distribution import Cpt, DiscreteJoint, DistributionError\n")
    proc = subprocess.run([sys.executable, "-c", head + textwrap.dedent(code)], env=child_env(),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return proc.stdout


class TestLongSums:
    """A sum over a variable of many states chains at most a fixed number of
    lazy adds before it is made a list: an unbroken chain of one add per
    state recurses in C when consumed and, at about 100,000 states, kills
    the interpreter.  Both cases run in a child interpreter."""

    def test_a_cpt_of_100000_states_is_checked(self):
        out = in_child("""
            denom, flat = Cpt("A", 100000, (), (), {(): (F(1, 100000),) * 100000})._factor
            print(denom, len(flat), set(flat))
        """)
        assert out == "100000 100000 {1}\n"

    @pytest.mark.parametrize("order", ["AB", "BA"])
    def test_a_variable_of_100000_states_sums_out(self, order):
        """A before B sums A out block by block, B before A strided column
        by column: the two branches of the sum-out."""
        out = in_child(f"""
            cards = {{"A": 100000, "B": 2}}
            order = {order!r}
            probs = [F(1 + (a if order[0] == "B" else b), 300000)
                     for a in range(cards[order[0]]) for b in range(cards[order[1]])]
            m = DiscreteJoint([(v, cards[v]) for v in order], probs).marginalize(["B"])
            print(m.variables, *m.probs)
        """)
        assert out == "(('B', 2),) 1/3 2/3\n"

    def test_a_prior_of_100000_states_after_a_coin_builds_in_linear_time(self):
        """Listed as A, B, the graph's topological order puts the coin B
        first, so the prior adds 100,000 values of A to a 2-cell table: a
        product that copied A's CPT once per value of A would take seconds.
        The joint equals the one built with the prior first, read in
        A, B order."""
        out = in_child("""
            from kassoc.graph import Dag
            n = 100000
            cpts = [Cpt.prior("A", [F(1, n)] * n), Cpt.coin("B", F(1, 2))]
            start = time.perf_counter()
            ab = DiscreteJoint.from_cpts(Dag(["A", "B"], []), cpts)
            print(time.perf_counter() - start < 5)
            ba = DiscreteJoint.from_cpts(Dag(["B", "A"], []), cpts)
            print(ab._weights == ba._weights, ab == ba.marginalize(["A", "B"]), ab._denom)
        """)
        assert out == "True\nTrue True 200000\n"

    @pytest.mark.parametrize("card", [257, 600])
    def test_a_flattened_sum_keeps_every_answer(self, card):
        """Past the flattening depth, a CPT's row sums and every marginal of
        a joint are those of the Fraction references."""
        rng = random.Random(f"long-sums:{card}")
        weights = [rng.randint(0, 3) for _ in range(card)]
        row = tuple(F(w, sum(weights)) for w in weights)
        cpt = Cpt("A", card, ("B",), (2,), {(0,): row, (1,): row[::-1]})
        assert cpt._factor == row_by_row_factor("A", card, ("B",), (2,), cpt.rows)
        joint = DiscreteJoint.from_cpts(Dag(["B", "A"], [("B", "A")]), [Cpt.coin("B", F(1, 3)), cpt])
        for keep in (["B"], ["A"], []):
            assert joint.marginalize(keep).probs == tuple(fraction_marginal(joint, keep).values())



class Count(int):
    """An int subclass: an exact entry that is not of type int."""


class Share(F):
    """A Fraction subclass: an exact entry that is not of type Fraction."""


def shuffled_rows(cpt, rng):
    """The same CPT with its rows listed in a shuffled order."""
    keys = list(cpt.rows)
    rng.shuffle(keys)
    return Cpt(cpt.child, cpt.child_card, cpt.parents, cpt.parent_cards,
               {pa: cpt.rows[pa] for pa in keys})


class TestWholeTableCheck:
    """``Cpt.__post_init__`` checks and scales a table at once; the
    row-by-row twin in ``references`` gives the same factor and names the
    same bad row."""

    def test_factor_matches_the_row_by_row_twin(self, all_builtins, cpt_nets):
        cpts = [c for s in all_builtins.values() if s.kind == "discrete" for c in s.cpts]
        cpts += [c for _, net in [*cpt_nets, *zero_cell_nets()] for c in net]
        rng = random.Random("row-by-row")
        reordered = 0
        for cpt in cpts:
            twin = row_by_row_factor(cpt.child, cpt.child_card, cpt.parents,
                                     cpt.parent_cards, cpt.rows)
            assert cpt._factor == twin, cpt
            shuffled = shuffled_rows(cpt, rng)
            assert shuffled._factor == twin, shuffled
            reordered += list(shuffled.rows) != list(cpt.rows)
        assert reordered > 50

    @pytest.mark.parametrize("seed", range(3))
    def test_bad_tables_name_the_twins_row(self, seed):
        """Random small tables, rows in shuffled order, each row either
        valid or drawn from entries of every verdict (short or long rows,
        floats, strings, negative entries, rows that do not sum to 1; bools
        and instances of int and Fraction subclasses are exact), some with
        a cardinality below 1 or one that is a float or a bool."""
        rng = random.Random(f"bad-tables:{seed}")
        values = [F(1, 2), F(1, 3), F(2, 3), 1, 0, -1, F(-1, 2), F(3, 2), 0.5, "1", True,
                  Count(0), Share(1, 2)]
        outcomes = set()
        for _ in range(400):
            card = rng.choice((0, 1, 2, 3, 2.0, True))
            parent_cards = rng.choice(((), (2,), (3,), (2, 2), (0,), (2, -1), (2.0,), (True, 2)))
            keys = list(itertools.product(*(range(int(c)) for c in parent_cards)))
            rng.shuffle(keys)
            rows = {}
            for pa in keys:
                if card and rng.random() < 0.6:
                    rows[pa] = (F(1, int(card)),) * int(card)
                else:
                    length = int(card) if rng.random() < 0.8 else rng.randint(0, 4)
                    rows[pa] = tuple(rng.choice(values) for _ in range(length))
            parents = ("A", "B")[:len(parent_cards)]
            try:
                want = row_by_row_factor("Y", card, parents, parent_cards, rows)
            except DistributionError as exc:
                want = str(exc)
            try:
                got = Cpt("Y", card, parents, parent_cards, rows)._factor
            except DistributionError as exc:
                got = str(exc)
            assert got == want, rows
            outcomes.add(want.split(":")[1].split()[0] if isinstance(want, str) else "ok")
        assert outcomes == {"ok", "bad", "probability", "negative", "row", "cardinality"}


class TestJoint:
    def test_probabilities_sum_to_one(self):
        j = coin_pair()
        assert sum(j.probs) == 1

    def test_marginalize_keeps_exact_mass(self):
        j = coin_pair()
        m = j.marginalize(["B"])
        assert prob(m, {"B": 1}) == F(1, 3)

    def test_float_probabilities_are_refused(self):
        with pytest.raises(DistributionError, match="probability entry"):
            DiscreteJoint([("A", 2)], [0.5, 0.5])
        assert DiscreteJoint([("A", 2)], [1, 0]).probs == (F(1), F(0))

    def test_marginalize_to_scalar(self):
        m = coin_pair().marginalize([])
        assert m.probs == (F(1),)

    def test_from_cpts_requires_full_cover(self):
        dag = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(DistributionError):
            DiscreteJoint.from_cpts(dag, [Cpt.coin("A", F(1, 2))])

    def test_from_cpts_parent_mismatch(self):
        dag = Dag(["A", "B"], [])
        bad = Cpt.noisy_function("B", ("A",), (2,), lambda a: a, F(0))
        with pytest.raises(DistributionError):
            DiscreteJoint.from_cpts(dag, [Cpt.coin("A", F(1, 2)), bad])

    @pytest.mark.parametrize("parents, cards, text", [
        (("A", "Q"), (2, 2), "CPT parents for C do not match graph parents"),
        (("A", "A"), (2, 2), "CPT parents for C do not match graph parents"),
        (("A", "B", "A"), (2, 3, 2), "CPT parents for C do not match graph parents"),
        (("A",), (2,), "CPT parents for C do not match graph parents"),
        (("A", "B", "C"), (2, 3, 2), "CPT parents for C do not match graph parents"),
        (("B", "A"), (2, 2), "CPT for C: cardinality mismatch on parent B"),
    ], ids=["unknown", "repeated", "repeated-with-all", "missing", "itself",
            "wrong-cardinality"])
    def test_from_cpts_mismatch_texts(self, parents, cards, text):
        """A graph A -> C <- B with B ternary; the CPT for C lists
        ``parents`` with cardinalities ``cards``."""
        rows = {pa: (F(1, 2), F(1, 2)) for pa in itertools.product(*map(range, cards))}
        cpts = [Cpt.coin("A", F(1, 3)), Cpt.prior("B", (F(1, 3),) * 3),
                Cpt("C", 2, parents, cards, rows)]
        with pytest.raises(DistributionError) as err:
            DiscreteJoint.from_cpts(Dag(["A", "B", "C"], [("A", "C"), ("B", "C")]), cpts)
        assert str(err.value) == text

    def test_from_cpts_refuses_a_parent_listed_twice(self):
        rows = {(a, b): (F(1 + a + 2 * b, 5), F(4 - a - 2 * b, 5)) for a in (0, 1) for b in (0, 1)}
        twice = Cpt("B", 2, ("A", "A"), (2, 2), rows)
        with pytest.raises(DistributionError, match="CPT parents for B do not match"):
            DiscreteJoint.from_cpts(Dag(["A", "B"], [("A", "B")]), [Cpt.coin("A", F(1, 2)), twice])

    def test_equal_tables_are_equal_and_hash_equal(self, cpt_nets):
        for dag, cpts in cpt_nets:
            j = DiscreteJoint.from_cpts(dag, cpts)
            same = [DiscreteJoint.from_cpts(dag, [reversed_parents(c) for c in cpts]),
                    copy.copy(j), copy.deepcopy(j), pickle.loads(pickle.dumps(j)),
                    j.marginalize(j.names), DiscreteJoint(j.variables, j.probs)]
            for other in same:
                assert other == j and hash(other) == hash(j)
            # one unit of weight moved between two cells
            moved = list(j.probs)
            i = next(k for k, p in enumerate(moved) if p)
            k = (i + 1) % len(moved)
            if k != i:
                moved[i] -= F(1, j._denom)
                moved[k] += F(1, j._denom)
                assert DiscreteJoint(j.variables, moved) != j


class TestExampleOneIdentities:
    """Noisy-xor collider at p=1/4: the joint hits its closed forms."""

    def test_joint_point_mass(self, example1):
        j = example1.joint
        assert prob(j, {"X": 1, "Z": 1, "Y": 1}) == F(1, 16)

    def test_product_differs(self, example1):
        j = example1.joint
        prod = prob(j, {"X": 1, "Z": 1}) * prob(j, {"Y": 1})
        assert prod == F(1, 8)
        assert prob(j, {"X": 1, "Z": 1, "Y": 1}) != prod

    def test_marginal_independencies(self, example1):
        j = example1.joint
        assert j.is_independent("X", "Y")
        assert j.is_independent("Z", "Y")
        assert j.is_independent("X", "Z")

    def test_conditional_dependencies(self, example1):
        j = example1.joint
        assert not j.is_independent("X", "Z", {"Y"})
        assert not j.is_independent("X", "Y", {"Z"})
        assert not j.is_independent("Y", "Z", {"X"})


class TestExampleTwoIdentities:
    """Contextual xor (p=1/2, q=1/4) closed forms from the and-gate."""

    def test_y_marginal(self, example2):
        assert prob(example2.joint, {"Y": 1}) == F(3, 8)

    def test_wy_joint_is_half_p(self, example2):
        assert prob(example2.joint, {"W": 1, "Y": 1}) == F(1, 4)

    def test_full_point_mass(self, example2):
        j = example2.joint
        assert prob(j, {"X": 1, "W": 1, "Y": 1, "Z": 1}) == F(1, 32)

    def test_context_node_dependence(self, example2):
        j = example2.joint
        assert not j.is_independent("W", "Y")
        assert j.is_independent("X", "W", {"Y"})
        assert j.is_independent("Z", "W", {"Y"})
        assert not j.is_independent("X", "W", {"Y", "Z"})
        assert not j.is_independent("Z", "W", {"X", "Y"})

    def test_set_query_against_context(self, example2):
        assert example2.joint.is_independent_sets({"X", "Z"}, {"W"}, ())


class TestSampling:
    @pytest.mark.parametrize("n", [MAX_ROWS + 1, 10**13, 10**20])
    def test_a_count_above_max_rows_is_refused(self, example1, n):
        with pytest.raises(DistributionError) as err:
            example1.joint.sample(n, seed=0)
        assert str(err.value) == f"at most {MAX_ROWS} samples"

    def test_fixed_seed_reproduces(self, example1):
        a = example1.joint.sample(50, seed=7)
        b = example1.joint.sample(50, seed=7)
        assert a.rows == b.rows

    def test_different_seeds_differ(self, example1):
        a = example1.joint.sample(200, seed=1)
        b = example1.joint.sample(200, seed=2)
        assert a.rows != b.rows

    def test_values_in_domain(self, example1):
        data = example1.joint.sample(100, seed=3)
        for i in range(len(data.names)):
            col = [row[i] for row in data.rows]
            assert set(col) <= {0, 1}

    def test_empirical_mean_tracks_marginal(self, example1):
        data = example1.joint.sample(20000, seed=11)
        y = data.names.index("Y")
        freq = sum(row[y] for row in data.rows) / len(data.rows)
        assert abs(freq - 0.5) < 0.02

    def test_draws_match_the_fraction_path(self, cpt_nets):
        # sample reads each cell's probability as weight / denominator, not
        # as float(Fraction), and bisects random() without random.choices:
        # the same floats, so the same draws
        joints = [s.joint for s in map(builtin, sorted(BUILTINS)) if s.kind == "discrete"]
        joints += [DiscreteJoint.from_cpts(dag, cpts) for dag, cpts in cpt_nets]
        # many zero cells, trailing ones among them; the last joint's sums
        # stop at 0.9999999999999999, and sample sets every sum from its last
        # nonzero cell on to 1.0, which moves only a draw in
        # [0.9999999999999999, 1.0): none of these 3000 falls there
        # (test_no_draw_lands_on_a_trailing_zero_cell stubs one that does)
        joints += zero_cell_joints()
        assert len(joints) == 27
        assert sum(0 in j._weights for j in joints) >= 6
        for j in joints:
            floats = [float(p) for p in j.probs]
            assert [w / j._denom for w in j._weights] == floats
            cum = list(itertools.accumulate(floats))
            cum[-1] = 1.0
            cells = list(assignments(j))
            idx = random.Random(5).choices(range(len(cells)), cum_weights=cum, k=3000)
            assert j.sample(3000, seed=5).rows == tuple(cells[i] for i in idx)

    def test_no_draw_lands_on_a_trailing_zero_cell(self, monkeypatch):
        # ten tenths sum to 0.9999999999999999, the largest random(); the
        # cells after it, (2, 2) and (2, 3), have weight 0
        j = DiscreteJoint([("A", 3), ("B", 4)], [F(1, 10)] * 10 + [0, 0])
        monkeypatch.setattr(random.Random, "random", lambda self: 1 - 2**-53)
        assert j.sample(3, 0).rows == ((2, 1),) * 3
        lattice = j.sample(3, 0)._lattice
        assert lattice[lattice.full] == ([0] * 9 + [3, 0, 0], (3, 4))


class TestIntegerPathAgainstFractionReference:
    """The integer-weight backend against the Fraction criterion it replaced."""

    def test_every_discrete_builtin_exhaustive(self, all_builtins):
        checked = 0
        for scenario in all_builtins.values():
            if scenario.kind != "discrete":
                continue
            j = scenario.joint
            names = list(j.names)
            for nx, ny in ((1, 1), (1, 2), (2, 1), (2, 2)):
                for xs in itertools.permutations(names, nx):
                    rest = [v for v in names if v not in xs]
                    for ys in itertools.permutations(rest, ny):
                        pool = [v for v in rest if v not in ys]
                        for k in range(len(pool) + 1):
                            for s in itertools.combinations(pool, k):
                                assert j.is_independent_sets(xs, ys, s) == \
                                    fraction_is_independent_sets(j, xs, ys, s), (xs, ys, s)
                                checked += 1
        assert checked > 1000

    def test_seeded_cpt_nets(self, cpt_nets):
        rng = random.Random(7)
        for dag, cpts in cpt_nets:
            j = DiscreteJoint.from_cpts(dag, cpts)
            for xs, ys, s in random_queries(rng, list(j.names), 40):
                assert j.is_independent_sets(xs, ys, s) == \
                    fraction_is_independent_sets(j, xs, ys, s), (xs, ys, s)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_joints_with_zero_cells(self, seed):
        rng = random.Random(f"zero-cells:{seed}")
        for _ in range(40):
            j = random_joint(rng)
            for xs, ys, s in random_queries(rng, list(j.names), 10):
                assert j.is_independent_sets(xs, ys, s) == \
                    fraction_is_independent_sets(j, xs, ys, s), (j.variables, xs, ys, s)

    def test_from_cpts_matches_fraction_product(self, cpt_nets):
        for dag, cpts in cpt_nets:
            assert list(DiscreteJoint.from_cpts(dag, cpts).probs) == fraction_product(dag, cpts)

    @pytest.mark.parametrize("seed", range(3))
    def test_from_cpts_matches_the_integer_product_on_larger_nets(self, seed):
        """10-14 nodes of cardinality 1-4 with zero entries, listed in an
        order that is not topological, so the product's axes are permuted
        once at the end; each whole-table rebuild (copy, pickle,
        ``marginalize`` of none or of every name, in any order) keeps the
        weights."""
        rng = random.Random(f"integer_product:{seed}")
        for n in (10, 12, 14):
            dag, cpts = random_cpt_net(rng, n, 2 * n, 3, cards=(1, 2, 3, 4))
            assert any(dag.index(a) > dag.index(b) for a, b in dag.edges)
            assert any(p == 0 for c in cpts for row in c.rows.values() for p in row)
            rng.shuffle(cpts)
            j = DiscreteJoint.from_cpts(dag, cpts)
            assert (j._denom, j._weights) == integer_product(dag, cpts)
            for clone in (copy.copy(j), pickle.loads(pickle.dumps(j))):
                assert (clone.variables, clone._denom, clone._weights) == \
                    (j.variables, j._denom, j._weights)
            scalar = j.marginalize([])
            assert (scalar.variables, scalar._denom, scalar._weights) == ((), 1, (1,))
            keep = rng.sample(j.names, n)
            m = j.marginalize(keep)
            by_name = {c.child: c for c in cpts}
            assert (m._denom, m._weights) == integer_product(Dag(keep, dag.edges), cpts)
            assert m.variables == tuple((v, by_name[v].child_card) for v in keep)

    def test_from_cpts_reads_each_cpt_in_its_own_parent_order(self, cpt_nets):
        for dag, cpts in cpt_nets:
            flipped = [reversed_parents(c) for c in cpts]
            joint = DiscreteJoint.from_cpts(dag, flipped)
            assert joint == DiscreteJoint.from_cpts(dag, cpts)
            assert list(joint.probs) == fraction_product(dag, flipped)

    def test_marginal_and_prob_match_fraction_sums(self, cpt_nets):
        # the reference prob reads the joint cell by cell, not the marginal
        rng = random.Random(11)
        for dag, cpts in cpt_nets:
            j = DiscreteJoint.from_cpts(dag, cpts)
            keep = rng.sample(list(j.names), rng.randint(0, 4))
            ref = fraction_marginal(j, keep)
            m = j.marginalize(keep)
            assert m.names == tuple(keep)
            assert dict(zip(assignments(m), m.probs)) == ref
            for key, p in zip(assignments(m), m.probs):
                assert prob(j, dict(zip(keep, key))) == p

    def test_every_ordered_marginal_matches_fraction_sums(self, all_builtins, cpt_nets):
        """Every ordered ``keep`` of every discrete builtin and of the small
        seeded nets: the marginal's cells, in its own variable order, are
        the Fraction sums of the joint's."""
        joints = [s.joint for s in all_builtins.values() if s.kind == "discrete"]
        joints += [DiscreteJoint.from_cpts(dag, cpts) for dag, cpts in cpt_nets
                   if len(dag.nodes) <= 5]
        checked = 0
        for j in joints:
            for k in range(len(j.names) + 1):
                for keep in itertools.permutations(j.names, k):
                    m = j.marginalize(keep)
                    assert m.variables == tuple(j.variables[j.names.index(n)] for n in keep)
                    assert dict(zip(assignments(m), m.probs)) == fraction_marginal(j, keep)
                    checked += 1
        assert checked > 1500


def lowest_terms(j):
    return math.gcd(*j._weights, j._denom) == 1


def test_every_builder_leaves_lowest_terms(all_builtins, cpt_nets):
    """``__init__``, ``from_cpts``, ``marginalize`` and every copy leave a
    joint's weights and denominator coprime."""
    joints = [s.joint for s in all_builtins.values() if s.kind == "discrete"]
    joints += [DiscreteJoint.from_cpts(dag, cpts) for dag, cpts in cpt_nets]
    joints += [random_joint(random.Random(f"lowest-terms:{i}")) for i in range(10)]
    for j in joints:
        assert lowest_terms(j)
        for clone in (copy.copy(j), copy.deepcopy(j), pickle.loads(pickle.dumps(j))):
            assert clone == j and clone._weights == j._weights and lowest_terms(clone)
        for k in range(min(3, len(j.names)) + 1):
            for keep in itertools.combinations(j.names, k):
                m = j.marginalize(keep)
                assert lowest_terms(m) and lowest_terms(pickle.loads(pickle.dumps(m)))
    # so a marginal need not keep its joint's denominator
    assert coin_pair().marginalize([])._denom == 1
