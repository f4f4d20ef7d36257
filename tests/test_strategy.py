"""Tests for refusal, demotion strategies and the dominance checker.

The checker walks opponent multisets; ``oracles.product_check_dominance``
walks every opponent tuple, and the two must agree, witnesses included.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rankmech import (
    Assignment,
    BudgetError,
    DominanceQuery,
    DominanceVerdict,
    DomainError,
    Market,
    PreferenceOrder,
    Profile,
    adversarial_profile,
    build_assignment,
    check_dominance,
    full_extension,
    modified_mechanism,
    ods_promoting,
    ods_set,
    order_from_names,
    refusal_transform,
    strict_gain_pairs,
    uniform_mechanism,
)
from rankmech.examples import example1_market, example2_market, example3_market, example4_market

from oracles import (
    all_profiles,
    fraction_build_assignment,
    product_check_dominance,
    refuse_row,
    row_strictly_prefers,
    row_weakly_prefers,
)

F = Fraction


def test_refuse_row_moves_unacceptable_mass():
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    row = (F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    assert refuse_row(market, row, truth) == (F(1, 4), F(0), F(0), F(3, 4))
    # Nothing to refuse when every type is acceptable.
    keep = order_from_names(market, "o1>o2>o3>null")
    assert refuse_row(market, row, keep) == row
    # Everything goes when the outside option is ranked first.
    idle = order_from_names(market, "null>o1>o2>o3")
    assert refuse_row(market, row, idle) == (F(0), F(0), F(0), F(1))


def test_refusal_transform_applies_rows_and_checks_shapes():
    market = example2_market()
    truth = order_from_names(market, "o1>null>o2")
    keen = order_from_names(market, "o1>o2>null")
    x = build_assignment(
        market, [[F(1, 3), F(1, 3), F(1, 3)]] * 3
    )
    truths = Profile((truth, keen, keen))
    refused = refusal_transform(market, x, truths)
    assert refused.row(0) == (F(1, 3), F(0), F(2, 3))
    assert refused.row(1) == (F(1, 3), F(1, 3), F(1, 3))
    with pytest.raises(DomainError):
        refusal_transform(market, x, Profile((truth, keen)))
    # A matrix with a row too few is rejected when it is made.
    with pytest.raises(DomainError, match="expected 3 rows, got 2"):
        Assignment(market, x.denominator, x.counts[:2])


@pytest.mark.parametrize("market", [example2_market(), example4_market()], ids=["ex2", "ex4"])
def test_refusal_transform_matches_refused_fraction_rows(market):
    """Refusal moves integer counts; it must equal ``refuse_row`` on every
    ``Fraction`` row, validated by the ``Fraction`` oracle, on every profile
    under both mechanisms, and refusing a copy made through
    ``build_assignment`` must give the same."""
    rng = random.Random(2719)
    orders = market.all_orders()
    for profile in all_profiles(market):
        truths = Profile(tuple(rng.choice(orders) for _ in range(market.n_agents)))
        for mechanism in (uniform_mechanism, modified_mechanism):
            x = mechanism(market, profile)
            refused = refusal_transform(market, x, truths)
            expected = fraction_build_assignment(
                market, [refuse_row(market, row, truth) for row, truth in zip(x.rows, truths)]
            )
            assert refused.rows == expected
            assert refusal_transform(market, build_assignment(market, x.rows), truths) == refused


def test_ods_set_permutes_only_unacceptable_types():
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    demotions = ods_set(market, truth)
    assert demotions == (
        order_from_names(market, "o1>o2>o3>null"),
        order_from_names(market, "o1>o3>o2>null"),
    )
    assert demotions[0] == full_extension(market, truth)
    # A truth with nothing unacceptable demotes to itself alone.
    keep = order_from_names(market, "o1>o2>o3>null")
    assert ods_set(market, keep) == (keep,)
    # Both scarce types unacceptable: two arrangements, truth order first.
    idle = order_from_names(market, "o2>null>o3>o1")
    assert ods_set(market, idle) == (
        order_from_names(market, "o2>o3>o1>null"),
        order_from_names(market, "o2>o1>o3>null"),
    )


def test_ods_promoting_targets_one_type():
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    assert ods_promoting(market, truth, 2) == order_from_names(market, "o1>o3>o2>null")
    assert ods_promoting(market, truth, 1) == order_from_names(market, "o1>o2>o3>null")
    with pytest.raises(DomainError):
        ods_promoting(market, truth, 0)  # o1 is acceptable


def test_strict_gain_pairs_golden():
    """Capacities (1, 2, 1, 3) with three agents.

    For truth o1 > null > o2 > o3 the acceptable capacity is 1; adding o2's
    two seats reaches the agent count, adding o3's single seat does not, so
    only (o1, o3) qualifies.
    """
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    assert strict_gain_pairs(market, truth) == ((0, 2),)
    # Acceptable capacity 3 already covers everyone: no pairs.
    wide = order_from_names(market, "o1>o2>null>o3")
    assert strict_gain_pairs(market, wide) == ()
    # Nothing acceptable: no pairs either.
    idle = order_from_names(market, "null>o1>o2>o3")
    assert strict_gain_pairs(market, idle) == ()
    # Two-type market: the lone acceptable seat plus the demoted seat is short.
    narrow_market = example2_market()
    narrow = order_from_names(narrow_market, "o1>null>o2")
    assert strict_gain_pairs(narrow_market, narrow) == ((0, 1),)


def test_adversarial_profile_golden_shape():
    market = example2_market()
    truth = order_from_names(market, "o1>null>o2")
    candidate = order_from_names(market, "o1>o2>null")
    witness = adversarial_profile(market, 0, truth, candidate)
    assert witness == (
        (1, truth),
        (2, market.null_first_order()),
    )


def test_adversarial_profile_rejects_identical_and_essentially_equal():
    market = example2_market()
    truth = order_from_names(market, "o1>o2>null")
    with pytest.raises(DomainError):
        adversarial_profile(market, 0, truth, truth)
    idle_one = order_from_names(market, "null>o1>o2")
    idle_two = order_from_names(market, "null>o2>o1")
    with pytest.raises(DomainError):
        adversarial_profile(market, 0, idle_one, idle_two)
    with pytest.raises(DomainError):
        adversarial_profile(market, 5, truth, idle_one)


def test_adversarial_profile_separates_every_distinct_pair():
    """Exhaustive oracle: on the 216-profile market, every candidate that is
    not essentially equal to the truth loses strictly to it at the
    constructed profile, without refusal."""
    market = example2_market()
    for truth in market.all_orders():
        for candidate in market.all_orders():
            if candidate == truth:
                continue
            if market.essentially_equal(truth, candidate):
                with pytest.raises(DomainError):
                    adversarial_profile(market, 0, truth, candidate)
                continue
            witness = adversarial_profile(market, 0, truth, candidate)
            orders = [None] * market.n_agents
            for a, order in witness:
                orders[a] = order
            orders[0] = candidate
            row_candidate = uniform_mechanism(market, Profile(tuple(orders))).row(0)
            orders[0] = truth
            row_truth = uniform_mechanism(market, Profile(tuple(orders))).row(0)
            assert row_strictly_prefers(truth, row_truth, row_candidate)


def test_adversarial_profile_rotated_prefix_case():
    """First disagreement at rank 3 fields a rotated-prefix opponent.

    Truth o1 > o3 > o2 > null against candidate o1 > o3 > null > o2: the
    construction clones the truth once for o1's seat and adds one opponent
    starting o3 > o1, and the truth's row beats the candidate's there.
    """
    market = example3_market()
    truth = order_from_names(market, "o1>o3>o2>null")
    candidate = order_from_names(market, "o1>o3>null>o2")
    witness = adversarial_profile(market, 0, truth, candidate)
    assert witness == (
        (1, truth),
        (2, order_from_names(market, "o3>o1>o2>null")),
    )
    orders = [candidate, witness[0][1], witness[1][1]]
    row_candidate = uniform_mechanism(market, Profile(tuple(orders))).row(0)
    orders[0] = truth
    row_truth = uniform_mechanism(market, Profile(tuple(orders))).row(0)
    assert row_candidate == (F(1, 2), F(0), F(0), F(1, 2))
    assert row_truth == (F(1, 2), F(1, 2), F(0), F(0))
    assert row_strictly_prefers(truth, row_truth, row_candidate)


def test_dominance_strict_demotion_with_refusal():
    """The bundled strict case: demoting the outside option below the scarce
    o3 strictly dominates the truth under the uniform mechanism with refusal."""
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    swap = order_from_names(market, "o1>o3>o2>null")
    verdict = check_dominance(
        DominanceQuery(market, 0, truth, swap, mechanism="uniform", refusal=True)
    )
    assert verdict.weakly_dominates
    assert verdict.strictly_dominates
    assert verdict.failure_witness is None
    assert verdict.strict_witness is not None
    # Replay the recorded witness and confirm the strict preference.
    orders = [None] * market.n_agents
    for a, order in verdict.strict_witness:
        orders[a] = order
    orders[0] = swap
    row_swap = refuse_row(
        market, uniform_mechanism(market, Profile(tuple(orders))).row(0), truth
    )
    orders[0] = truth
    row_truth = refuse_row(
        market, uniform_mechanism(market, Profile(tuple(orders))).row(0), truth
    )
    assert row_strictly_prefers(truth, row_swap, row_truth)


def test_dominance_full_extension_ties_truth_everywhere():
    """With two seats on o2 the full extension changes nothing for its agent:
    weak dominance with no strict witness and no failure witness means the
    rows are identical at every opponent profile."""
    market = example3_market()
    truth = order_from_names(market, "o1>null>o2>o3")
    keep = order_from_names(market, "o1>o2>o3>null")
    verdict = check_dominance(
        DominanceQuery(market, 0, truth, keep, mechanism="uniform", refusal=True)
    )
    assert verdict.weakly_dominates
    assert not verdict.strictly_dominates
    assert verdict.failure_witness is None
    assert verdict.strict_witness is None


def test_dominance_failure_witness_is_replayable():
    """Without refusal the demotion stops dominating; the first failure
    profile must actually show a non-weakly-preferred row."""
    market = example2_market()
    truth = order_from_names(market, "o1>null>o2")
    keen = order_from_names(market, "o1>o2>null")
    verdict = check_dominance(
        DominanceQuery(market, 0, truth, keen, mechanism="uniform", refusal=False)
    )
    assert not verdict.weakly_dominates
    assert not verdict.strictly_dominates
    witness = verdict.failure_witness
    assert witness is not None
    orders = [None] * market.n_agents
    for a, order in witness:
        orders[a] = order
    orders[0] = keen
    row_keen = uniform_mechanism(market, Profile(tuple(orders))).row(0)
    orders[0] = truth
    row_truth = uniform_mechanism(market, Profile(tuple(orders))).row(0)
    assert not row_weakly_prefers(truth, row_keen, row_truth)


def test_dominance_witness_is_canonically_first():
    """Opponent profiles enumerate lexicographically by agent then order, so
    the recorded failure witness is the first failing combination."""
    market = example2_market()
    truth = order_from_names(market, "o1>null>o2")
    keen = order_from_names(market, "o1>o2>null")
    verdict = check_dominance(
        DominanceQuery(market, 0, truth, keen, mechanism="uniform", refusal=False)
    )
    all_orders = market.all_orders()
    expected = None
    for combo in itertools.product(all_orders, repeat=2):
        orders = [keen, combo[0], combo[1]]
        row_keen = uniform_mechanism(market, Profile(tuple(orders))).row(0)
        orders[0] = truth
        row_truth = uniform_mechanism(market, Profile(tuple(orders))).row(0)
        if not row_weakly_prefers(truth, row_keen, row_truth):
            expected = ((1, combo[0]), (2, combo[1]))
            break
    assert verdict.failure_witness == expected


# Four agents, four unit-capacity types and the outside option.
FOUR_BY_FIVE = Market(
    agent_names=("a1", "a2", "a3", "a4"),
    type_names=("o1", "o2", "o3", "o4", "null"),
    capacities=(1, 1, 1, 1, 4),
    null_type=4,
)


@pytest.mark.parametrize("refusal, candidate, weakly, strictly, failure, strict", [
    (True, None, True, True, None, "o1>o2>o3>o4>null"),
    (False, "o2>o1>null>o3>o4", False, False, "o1>o2>o3>o4>null", None),
])
def test_four_by_five_dominance_queries_are_pinned(
    refusal, candidate, weakly, strictly, failure, strict
):
    """The two 4 x 5 queries of agent a1 with truth o1>null>o2>o3>o4 under
    the uniform mechanism: against its full extension with refusal on, and
    against o2>o1>null>o3>o4 with refusal off.  The expected verdicts and
    witnesses are those of the walk over every multiset of full orders, not
    of truncation class representatives (about 8 s a query); each witness
    has all three opponents revealing the order given."""
    market = FOUR_BY_FIVE
    truth = order_from_names(market, "o1>null>o2>o3>o4")
    if candidate is None:
        candidate = full_extension(market, truth)
    else:
        candidate = order_from_names(market, candidate)
    verdict = check_dominance(DominanceQuery(market, 0, truth, candidate, "uniform", refusal))

    def witness(text):
        if text is None:
            return None
        return tuple((a, order_from_names(market, text)) for a in (1, 2, 3))

    assert verdict == DominanceVerdict(weakly, strictly, witness(failure), witness(strict))


def test_dominance_identical_candidate_is_a_weak_tie():
    market = example4_market()
    broad = order_from_names(market, "o1>o2>null")
    verdict = check_dominance(DominanceQuery(market, 1, broad, broad))
    assert verdict.weakly_dominates
    assert not verdict.strictly_dominates
    assert verdict.strict_witness is None


def test_dominance_under_modified_mechanism():
    """Under the modified mechanism, revealing a narrow order against a broad
    truth is rewarded at the broad opponent but punished elsewhere."""
    market = example4_market()
    broad = order_from_names(market, "o1>o2>null")
    narrow = order_from_names(market, "o1>null>o2")
    verdict = check_dominance(
        DominanceQuery(market, 0, broad, narrow, mechanism="modified", refusal=False)
    )
    assert not verdict.weakly_dominates
    assert verdict.failure_witness is not None


def test_dominance_validates_agent():
    market = example4_market()
    broad = order_from_names(market, "o1>o2>null")
    with pytest.raises(DomainError):
        check_dominance(DominanceQuery(market, 4, broad, broad))


def test_dominance_rejects_orders_of_the_wrong_length():
    """``check_dominance`` checks both orders before the walk, which reads
    them unchecked."""
    market = example2_market()
    fits = order_from_names(market, "o1>null>o2")
    for wrong in (PreferenceOrder((0, 1)), PreferenceOrder((0, 1, 2, 3))):
        with pytest.raises(DomainError):
            check_dominance(DominanceQuery(market, 0, wrong, fits))
        with pytest.raises(DomainError):
            check_dominance(DominanceQuery(market, 0, fits, wrong))


def test_dominance_respects_budget():
    market = example2_market()
    truth = order_from_names(market, "o1>null>o2")
    keen = order_from_names(market, "o1>o2>null")
    from rankmech import Budget

    with pytest.raises(BudgetError):
        check_dominance(DominanceQuery(market, 0, truth, keen), Budget(max_agents=2))


SETTINGS = [(mechanism, refusal) for mechanism in ("uniform", "modified") for refusal in (False, True)]


@pytest.mark.parametrize("mechanism, refusal", SETTINGS)
@pytest.mark.parametrize("make_market", [example2_market, example4_market])
def test_dominance_matches_product_oracle_on_every_small_query(make_market, mechanism, refusal):
    """Every (agent, truth, candidate): the multiset walk's verdict, witnesses
    included, equals the one from walking every opponent tuple."""
    market = make_market()
    table = {}
    orders = market.all_orders()
    for agent in range(market.n_agents):
        for truth in orders:
            for candidate in orders:
                query = DominanceQuery(market, agent, truth, candidate, mechanism, refusal)
                assert check_dominance(query) == product_check_dominance(query, table=table)


@pytest.mark.parametrize("mechanism, refusal", SETTINGS)
def test_dominance_matches_product_oracle_sampled_wide(mechanism, refusal):
    """Seeded queries on the four-type market, where opponents have 24 orders."""
    market = example1_market()
    rng = random.Random(f"{mechanism} {refusal}")
    orders = market.all_orders()
    table = {}
    for _ in range(2):
        query = DominanceQuery(
            market, rng.randrange(market.n_agents), rng.choice(orders), rng.choice(orders),
            mechanism, refusal,
        )
        assert check_dominance(query) == product_check_dominance(query, table=table)
