import functools
import hashlib
import re

import numpy as np
import pytest

from colgen import (GaBlockProblem, GaInstance, GaParseError, exact_bound,
                    generate_ga_instance, knapsack_min, parse_ga_instance,
                    write_ga_instance)
from colgen.assignment import _closed_form, knapsack_min_batch
from colgen.filtering import negative_part_sum
from colgen.model import PricedBlocks

import oracles


def test_parse_basic():
    text = "ga 2 1\nbin 0 12\nitem 0 0 7 5\nitem 1 0 3 6\n"
    inst = parse_ga_instance(text)
    assert inst.num_items == 2 and inst.num_bins == 1
    assert inst.capacities[0] == 12
    assert inst.costs[0, 0] == 7 and inst.weights[0, 1] == 6


def test_parse_errors_name_lines():
    with pytest.raises(GaParseError, match="line 2"):
        parse_ga_instance("ga 1 1\nbin 0\n")
    with pytest.raises(GaParseError, match="missing ga header"):
        parse_ga_instance("bin 0 5\n")
    with pytest.raises(GaParseError, match="missing bin line"):
        parse_ga_instance("ga 1 2\nbin 0 5\nitem 0 0 1 1\nitem 0 1 1 1\n")
    with pytest.raises(GaParseError, match="missing item line"):
        parse_ga_instance("ga 1 1\nbin 0 5\n")
    # indices outside the header's counts, and a negative bin count
    with pytest.raises(GaParseError, match="line 3: bin 5 outside"):
        parse_ga_instance("ga 1 1\nbin 0 10\nbin 5 3\nitem 0 0 4 2\n")
    with pytest.raises(GaParseError, match="line 3: item 3, bin 0 outside"):
        parse_ga_instance("ga 1 1\nbin 0 10\nitem 3 0 1 1\nitem 0 0 4 2\n")
    with pytest.raises(GaParseError, match="line 4: item 0, bin 9 outside"):
        parse_ga_instance("ga 1 1\nbin 0 10\nitem 0 0 4 2\nitem 0 9 1 1\n")
    with pytest.raises(GaParseError, match="line 2: item -1, bin 0 outside"):
        parse_ga_instance("ga 1 1\nitem -1 0 1 1\nbin 0 10\nitem 0 0 4 2\n")
    with pytest.raises(GaParseError, match="line 1: ga header needs"):
        parse_ga_instance("ga 2 -1\n")
    # malformed lines: a second header, wrong value counts, an unknown word
    with pytest.raises(GaParseError, match="^line 2: duplicate ga header$"):
        parse_ga_instance("ga 1 1\nga 1 1\nbin 0 10\nitem 0 0 1 1\n")
    for header in ("ga 1", "ga 1 1 1"):
        with pytest.raises(GaParseError, match="^line 1: ga header takes 2 values$"):
            parse_ga_instance(f"{header}\nbin 0 10\nitem 0 0 1 1\n")
    for item in ("item 0 0 1", "item 0 0 1 1 1"):
        with pytest.raises(GaParseError, match="^line 3: item takes 4 values$"):
            parse_ga_instance(f"ga 1 1\nbin 0 10\n{item}\n")
    with pytest.raises(GaParseError, match="^line 3: unknown directive 'items'$"):
        parse_ga_instance("ga 1 1\nbin 0 10\nitems 0 0 1 1\n")
    # a repeated line names both lines; a negative value names its line
    with pytest.raises(GaParseError, match="line 3: bin 0 repeats line 2"):
        parse_ga_instance("ga 1 1\nbin 0 10\nbin 0 20\nitem 0 0 1 1\n")
    with pytest.raises(GaParseError, match="line 5: item 0, bin 0 repeats line 4"):
        parse_ga_instance("ga 1 1\nbin 0 10\n\nitem 0 0 1 1\nitem 0 0 7 3\n")
    with pytest.raises(GaParseError, match="line 2: bin 0 has negative capacity -4"):
        parse_ga_instance("ga 1 1\nbin 0 -4\nitem 0 0 1 1\n")
    with pytest.raises(GaParseError, match="line 3: item 0, bin 0 has negative weight -1"):
        parse_ga_instance("ga 1 1\nbin 0 10\nitem 0 0 1 -1\n")
    # values outside int64 name their line; a header is not allocated before
    # its bin and item lines are all there
    with pytest.raises(GaParseError, match="line 3: item 0, bin 0 weight 9+ is outside int64"):
        parse_ga_instance("ga 1 1\nbin 0 10\nitem 0 0 1 99999999999999999999\n")
    with pytest.raises(GaParseError, match="line 3: item 0, bin 0 cost -9+ is outside int64"):
        parse_ga_instance("ga 1 1\nbin 0 10\nitem 0 0 -99999999999999999999 1\n")
    with pytest.raises(GaParseError, match="line 2: bin 0 capacity 9+ is outside int64"):
        parse_ga_instance("ga 1 1\nbin 0 99999999999999999999\nitem 0 0 1 1\n")
    with pytest.raises(GaParseError, match="line 1: item count 10+ is outside int64"):
        parse_ga_instance("ga 100000000000000000000 1\n")
    with pytest.raises(GaParseError, match="missing bin line for bin 1$"):
        parse_ga_instance("ga 1000000 100000\nbin 0 10\n")
    with pytest.raises(GaParseError, match="missing item line for item 1, bin 1$"):
        parse_ga_instance("ga 2 2\nbin 0 1\nbin 1 1\nitem 0 0 1 1\nitem 0 1 1 1\n"
                          "item 1 0 1 1\n")


def test_round_trip_on_generated_instances():
    for seed in range(15):
        inst = generate_ga_instance(7, 5, seed)
        again = parse_ga_instance(write_ga_instance(inst))
        assert again == inst


def test_generator_deterministic_and_ranges():
    a = generate_ga_instance(40, 12, 9)
    b = generate_ga_instance(40, 12, 9)
    assert a == b
    assert np.all((a.costs >= 1) & (a.costs <= 100))
    assert np.all((a.weights >= 5) & (a.weights <= 20))


# SHA-256 of `write_ga_instance` text followed by the repr of the hidden
# assignment, per (bins, items, seed): 400x10 at seeds 0-5 and 100x10 at
# seeds 0-19 are the benchmark's `--seed 0` sets, 5000x10 is E7's shape, 3x0
# has no items, 1x5 and 4x40 leave no bin empty and 1000x1 leaves 999 bins
# empty.  A change to the generator must leave every instance as it is
GENERATED_GA = {
    (400, 10, 0): "08644ec6091fe9188a92cbef43c4bd74609c5600d80f074d5ad5e444ba8662cf",
    (400, 10, 1): "0ea91c9c5a8a3a6a6a51a0db966d375cdfd8e21213a8072abf08076ae2f15a8b",
    (400, 10, 2): "ff3384de33b3dfd9fcf218823a289bd5a0f012aaca5ab4680e1a5bc1ea1d981d",
    (400, 10, 3): "cd25950b29d719e6bddd1bbef2690bab9c9b7a402cd133f1f32958adde7b2a9f",
    (400, 10, 4): "97ed822bcaebe722af2d267264a790f81145403d1b0d05c9ceea8b3d9efb2d5b",
    (400, 10, 5): "7947adcabc59d0d60a8e1a794c7494b3f92b9533203be1fb2e0d695ef9e60dd1",
    (100, 10, 0): "c18be652a2d1b97c9ae53c200d8a83bd1fde290b7969ad6ac9b69b1e5d1c43cd",
    (100, 10, 1): "597df2a690e9687b490b5d09640380d109dd53bd7ffccf6a03321eb6ab722005",
    (100, 10, 2): "7e5573ee6f6c7d5c3259b986ab7dbc364ac86fa254380238160dd22bbe7d4dc0",
    (100, 10, 3): "d3288768159d8e0a6276882618ed91cc9e35e251d311e835a30bd7dc6d9bdf84",
    (100, 10, 4): "2a6284e74a2a057ae5db577a58566f9986e70d86dbc8dea12d12d251257774f1",
    (100, 10, 5): "d095ba3312a1841c509593d9f434f421c2b6ccb0940c9ba8d01b5e24b8896f31",
    (100, 10, 6): "319c33e59a5e081f4b38b30e66571cda921f9d08317569e09c00612c7a4043bc",
    (100, 10, 7): "8399419c9350c049f770ea44ba4a39e850907497de615abcfcfddfa192156910",
    (100, 10, 8): "32623037f542b303c44a26ff8f98f893a6edae283695196f5eef3a9354b2a445",
    (100, 10, 9): "4497c3e30bf02d1e64db2b6b6f3e7045e60b58a9e6eb156dd036cccb487f02df",
    (100, 10, 10): "497fdf6040cdab0bd5e1b90f15b193906b639bb74e7fffb8add95fdd07cbb7b0",
    (100, 10, 11): "565ab52350f1799294eab5cedef9340fb10328ddac09264a6da341e3a58dad81",
    (100, 10, 12): "46db8cb423f00bebcdf25b75c699f406b01671375c5519456bd7528baf0b72b8",
    (100, 10, 13): "c5f0663edce65d5167ab60d04a933389146be788a5ec0c3e8d7a4b9464dbcb13",
    (100, 10, 14): "a2d6c1db78b0b1ead8855f8275f350877147bd42e4d4467389e9bcce04475a28",
    (100, 10, 15): "18c264f18b6d15192d9d7045cac146bb15ad639fdc8d8b904ba504e54082e39a",
    (100, 10, 16): "50648cc4321c006356e1f8a1095971024d6259d9f1594d40daa9f5ad8b99258b",
    (100, 10, 17): "18cc2bd71e1c04f95f39d6ec8511055856e375cc000c70260ad08b78e55f8fc3",
    (100, 10, 18): "3f5e8a69018ebd734e23fa7ae0a61ff2271b32a3c33c231e096125ea727c4740",
    (100, 10, 19): "5b0e5265f1e4f7098262802dc0512a8b2de17ff73bce0d4883b1fc8fa374bffe",
    (5000, 10, 0): "021ba39fb07c3a50b26450f44f87572b88b71f9ba3f5ad7c1fa9b8d6fa7c2ff9",
    (3, 0, 0): "530f1c38510314ff8f7b6a1398d5e97761a197fb5b69c2428723075f0555fe6a",
    (1, 5, 0): "f958c495753a5cda000f6134b00629a5a83b7a8e673fe6749d483a46aa8fed57",
    (4, 40, 0): "df3913faf4860a4b9537b97c228f056149e0a1e3c74938c547f0863735d9dd67",
    (1000, 1, 0): "adccdd5a8a9d64161a6cd432362e645c2a423000bc75dd7fc0a816555d4e9067",
}


def test_generator_output_is_pinned():
    for (*shape, seed), digest in GENERATED_GA.items():
        inst = generate_ga_instance(*shape, seed)
        text = write_ga_instance(inst) + repr(inst.hidden_assignment)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (shape, seed)


def test_instance_rejects_values_int64_cannot_hold():
    # non-integral data once truncated silently: cost 1.7 became 1
    with pytest.raises(ValueError, match="costs must be integers in int64, got 1.7"):
        GaInstance(1, 1, [[1.7]], [[2.9]], [3.5])
    with pytest.raises(ValueError, match="weights .* got 2.9"):
        GaInstance(1, 1, [[1]], [[2.9]], [3])
    for bad in (3.5, float("nan"), float("inf"), 2**63, -2**63 - 1):
        with pytest.raises(ValueError, match="capacities must be integers in int64"):
            GaInstance(1, 1, [[1]], [[2]], [bad])
    with pytest.raises(ValueError, match="capacities"):
        GaInstance(1, 1, [[1]], [[2]], np.array([2**63], dtype=np.uint64))
    # integral values of any type that int64 holds exactly are kept
    inst = GaInstance(1, 2, [[1.0], [-2**63]], np.array([[2], [0]], dtype=np.uint64),
                      [3.0, 2.0**62])
    assert inst.costs.dtype == np.int64 and inst.costs.tolist() == [[1], [-2**63]]
    assert inst.weights.dtype == np.int64 and inst.capacities.tolist() == [3, 2**62]


def test_generator_capacity_rule():
    inst = generate_ga_instance(10, 6, 4)
    assigned = inst.hidden_assignment
    assert assigned is not None and len(assigned) == 6
    for k in range(10):
        items = [i for i, bin_ in enumerate(assigned) if bin_ == k]
        if items:
            want = sum(int(inst.weights[k, i]) for i in items) + 1
            assert inst.capacities[k] == want
        else:
            assert 5 <= inst.capacities[k] <= 100


def test_generator_zero_items():
    inst = generate_ga_instance(4, 0, 1)
    assert inst.num_items == 0
    assert np.all((inst.capacities >= 5) & (inst.capacities <= 100))


def test_knapsack_nonnegative_values_take_nothing():
    value, items = knapsack_min([3.0, 0.0, 5.0], [1, 1, 1], 10)
    assert value == 0.0 and items == ()


def test_knapsack_zero_capacity():
    value, items = knapsack_min([-5.0, -2.0], [1, 1], 0)
    assert value == 0.0 and items == ()


def test_knapsack_weight_conflict():
    # both fit alone, not together; the more negative one wins
    value, items = knapsack_min([-3.0, -4.0], [5, 6], 10)
    assert value == pytest.approx(-4.0)
    assert items == (1,)


def test_knapsack_tie_breaks_prefer_fewer_then_lex():
    value, items = knapsack_min([-2.0, -2.0], [1, 1], 1)
    assert value == -2.0 and items == (0,)
    value, items = knapsack_min([-4.0, -2.0, -2.0], [2, 1, 1], 2)
    # single item 0 and pair {1,2} both reach -4; fewer items wins
    assert value == -4.0 and items == (0,)


def test_knapsack_matches_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(120):
        m = int(rng.integers(1, 11))
        values = np.round(rng.uniform(-8.0, 4.0, size=m), 3)
        weights = rng.integers(1, 12, size=m)
        capacity = int(rng.integers(0, 30))
        got, items = knapsack_min(values, weights, capacity)
        want = oracles.knapsack_brute(values, weights, capacity)
        assert got == pytest.approx(want, abs=1e-9)
        assert sum(int(weights[i]) for i in items) <= capacity
        assert got == pytest.approx(sum(float(values[i]) for i in items), abs=1e-9)


def test_knapsack_never_picks_a_zero_item_on_a_rounded_tie():
    # -64 + -1e-15 rounds to -64, so a DP over every item sees the zero-valued
    # item 0 tie at an equal count; only candidate items (value < 0) count
    values, weights = [0.0, -64.0, -1e-15], [1, 0, 1]
    value, items = knapsack_min(values, weights, 1)
    assert value == -64.0 and 0 not in items
    _, ref_take = oracles.knapsack_dp_reference([values], [weights], [1])
    assert ref_take[0, 0]


def random_knapsack_batch(rng):
    """(values, weights, capacities) mixing all-fit, no-candidate and DP bins;
    zero items, an empty bin list, zero weights and zero capacities included."""
    bins, m = int(rng.integers(0, 7)), int(rng.integers(0, 7))
    max_w, max_cap = 8, 20
    kind = rng.integers(4)
    if kind == 0:  # exact sums: ties compare equal
        values = rng.integers(-5, 4, size=(bins, m)).astype(float)
    elif kind == 1:
        values = np.round(rng.uniform(-8.0, 4.0, size=(bins, m)), 3)
    elif kind == 2:  # sums that round to a tie, within 1e-14 of zero and -0.0
        values = rng.choice([0.0, -0.0, 1e-15, -1e-15, -1e-14, -64.0, -1.0], size=(bins, m))
        max_w, max_cap = 3, 6
    else:  # magnitudes from 1e-15 to 100
        values = rng.normal(size=(bins, m)) * 10.0 ** rng.integers(-15, 3, size=(bins, m))
    return values, rng.integers(0, max_w, size=(bins, m)), rng.integers(0, max_cap, size=bins)


def test_knapsack_batch_matches_the_full_dp_reference():
    rng = np.random.default_rng(9)
    ref_nonneg_picks = 0
    for _ in range(3000):
        values, weights, capacities = random_knapsack_batch(rng)
        best, take = knapsack_min_batch(values, weights, capacities)
        ref_best, ref_take = oracles.knapsack_dp_reference(values, weights, capacities)
        assert best.tobytes() == ref_best.tobytes()
        assert np.all(np.where(take, weights, 0).sum(axis=1) <= capacities)
        assert not np.any(take & ~(values < 0))
        clean = ~np.any(ref_take & ~(values < 0), axis=1)
        assert np.array_equal(take[clean], ref_take[clean])
        ref_nonneg_picks += int(np.sum(~clean))
        # every pick of every bin is the reference's over candidate items only
        cand = (values < 0) & (weights <= capacities[:, None])
        cand_best, cand_take = oracles.knapsack_dp_reference(
            np.where(cand, values, np.inf), weights, capacities)
        assert best.tobytes() == cand_best.tobytes()
        assert np.array_equal(take, cand_take)
    # the draws reach the rounded ties where the reference picks an item >= 0
    assert ref_nonneg_picks > 0


def assert_closed_form_matches_the_loop(values, cand):
    best, take = _closed_form(values, cand)
    loop_best, loop_take = oracles.knapsack_closed_form_by_loop(values, cand)
    assert best.tobytes() == loop_best.tobytes()
    assert np.array_equal(take, loop_take)
    # candidates the scan skipped: too small to move the sum
    return int(np.sum(cand & ~take))


def test_closed_form_matches_the_per_item_loop():
    # every bin, whether or not its candidates fit: rounded ties, -0.0 and
    # values within 1e-14 of zero included
    rng = np.random.default_rng(21)
    skipped = 0
    for _ in range(3000):
        values, weights, capacities = random_knapsack_batch(rng)
        cand = (values < 0) & (weights <= capacities[:, None])
        skipped += assert_closed_form_matches_the_loop(values, cand)
    assert skipped > 0


def test_knapsack_dp_keeps_a_minus_inf_take_from_the_inf_cell_out():
    # -inf read from the +inf cell is nan, which must lose as it does in the
    # picking comparisons, not become the cell's value
    with np.errstate(invalid="ignore"):
        assert knapsack_min([-3.0, -2.0, -np.inf], [3, 3, 5], 6) == (-np.inf, (2,))


def test_knapsack_dp_counts_past_255_items():
    # 300 candidates of weight 1 or 2 that overflow their bin and tie exactly
    # on value per weight, so the fewer-items tie-break compares counts above 255
    rng = np.random.default_rng(4)
    weights = rng.choice([1, 2], p=[0.9, 0.1], size=(1, 300))
    values = -weights.astype(float)
    capacities = np.array([weights.sum() - 10])
    best, take = knapsack_min_batch(values, weights, capacities)
    ref_best, ref_take = oracles.knapsack_dp_reference(values, weights, capacities)
    assert best.tobytes() == ref_best.tobytes() and best[0] == -capacities[0]
    assert np.array_equal(take, ref_take)
    assert 255 < take.sum() < 300


def assert_matches_the_full_dp_reference(values, weights, capacities):
    """`best` bit for bit, and the picks wherever the reference picks no item >= 0."""
    best, take = knapsack_min_batch(values, weights, capacities)
    ref_best, ref_take = oracles.knapsack_dp_reference(values, weights, capacities)
    assert best.tobytes() == ref_best.tobytes()
    assert np.all(np.where(take, weights, 0).sum(axis=1) <= capacities)
    clean = ~np.any(ref_take & ~(values < 0), axis=1)
    assert np.array_equal(take[clean], ref_take[clean])


def test_knapsack_batch_mixes_capacities_in_one_call():
    # capacities 0-150 side by side, weights 0-30: zero weights, items
    # heavier than their bin, and cells below an item's weight, whose takes
    # would otherwise read the grid before their own bin's
    rng = np.random.default_rng(15)
    dp_bins = 0
    for _ in range(300):
        bins, m = int(rng.integers(1, 51)), int(rng.integers(1, 9))
        if rng.integers(2):
            values = rng.integers(-6, 3, size=(bins, m)).astype(float)
        else:
            values = np.round(rng.uniform(-9.0, 3.0, size=(bins, m)), 3)
        weights = rng.integers(0, 31, size=(bins, m))
        capacities = rng.integers(0, 151, size=bins)
        assert_matches_the_full_dp_reference(values, weights, capacities)
        fits = weights <= capacities[:, None]
        dp_bins += int(np.sum(np.where((values < 0) & fits, weights, 0).sum(axis=1)
                              > capacities))
    # over a fifth of the bins run the DP, not the closed form
    assert dp_bins > 1000


@pytest.mark.parametrize("shape", [(400, 10), (100, 100), (5000, 10)])
def test_knapsack_batch_fallback_dual_round(shape):
    # the first pricing round prices at the fallback duals, where every item
    # is a candidate in every bin and nearly every bin runs the DP
    inst = generate_ga_instance(*shape, 0)
    values = inst.costs - np.full(inst.num_items, 1e4)
    assert_matches_the_full_dp_reference(values, inst.weights, inst.capacities)
    # the closed form, computed for every bin, before the DP overwrites most
    assert_closed_form_matches_the_loop(
        values, (values < 0) & (inst.weights <= inst.capacities[:, None]))


def test_knapsack_weights_near_int64_never_overfill():
    # the all-fit test once summed 2**62 + 2**62 into a negative int64 and
    # returned both items; a DP grid too large to address raises instead
    with pytest.raises(MemoryError):
        knapsack_min([-1.0, -1.0], [2**62, 2**62], 2**62)
    with pytest.raises(MemoryError):  # capacity + 1 would wrap
        knapsack_min([-1.0, -1.0], [2**62, 2**62], 2**63 - 1)
    with pytest.raises(MemoryError):  # the grids' running sum would wrap
        knapsack_min_batch(np.full((3, 2), -1.0), np.full((3, 2), 2**61 + 1),
                           np.full(3, 2**62))
    # an item heavier than its bin is never picked; the rest sum exactly
    assert knapsack_min([-1.0, -1.0], [2**63 - 1, 1], 2**62) == (-1.0, (1,))
    assert knapsack_min([-1.0, -2.0], [2**62, 2**62 - 1], 2**63 - 1) == (-3.0, (0, 1))


def test_knapsack_batch_rejects_mismatched_shapes():
    # every candidate fits here, so no shape reaches the DP: one capacity
    # for two bins, or one row of weights for two bins, would be broadcast
    values = np.full((2, 3), -1.0)
    for weights, caps, names in ((np.ones((2, 3), int), np.array([5]), ("(1,)", "(2, 3)")),
                                 (np.ones((1, 3), int), np.array([5, 5]), ("(1, 3)", "(2, 3)")),
                                 (np.ones((2, 2), int), np.array([5, 5]), ("(2, 2)", "(2, 3)")),
                                 (np.ones((2, 3), int), np.array([5, 5, 5]), ("(3,)", "(2, 3)")),
                                 (3 * np.ones((2, 3), int), np.array([4]), ("(1,)", "(2, 3)")),
                                 (np.ones((2, 3), int), np.array([[5], [5]]),
                                  ("(2, 1)", "(2, 3)"))):
        with pytest.raises(ValueError, match=re.escape(names[0]) + ".*" + re.escape(names[1])):
            knapsack_min_batch(values, weights, caps)
    with pytest.raises(ValueError, match=re.escape("(3,)")):
        knapsack_min_batch(np.full(3, -1.0), np.ones(3, int), np.array([5]))
    with pytest.raises(ValueError, match=re.escape("(1, 2)") + ".*" + re.escape("(1, 3)")):
        knapsack_min([-1.0, -1.0, -1.0], [1, 1], 5)


def test_pricing_zero_duals_returns_empty_pattern():
    inst = generate_ga_instance(3, 4, 0)
    problem = GaBlockProblem(inst)
    cbar, col = problem.solve_pricing(1, np.zeros(4), -2.5)
    assert cbar == pytest.approx(2.5)
    assert col.native == () and col.cost == 0.0


def test_pricing_sums_pattern_costs_without_int64_wrap():
    # two items of cost -(2^62 + 1): their int64 sum wraps to a positive number
    inst = parse_ga_instance("ga 2 1\nbin 0 10\nitem 0 0 -4611686018427387905 1\n"
                             "item 1 0 -4611686018427387905 1\n")
    problem = GaBlockProblem(inst)
    cbar, col = problem.solve_pricing(0, np.zeros(2), 0.0)
    assert col.native == (0, 1)
    assert col.cost == cbar < 0
    assert oracles.assignment_column(inst, 0, (0, 1)).cost == col.cost


def test_pricing_matches_subset_enumeration():
    rng = np.random.default_rng(3)
    inst = generate_ga_instance(5, 8, 1)
    problem = GaBlockProblem(inst)
    for _ in range(60):
        pi = np.round(rng.uniform(0.0, 120.0, size=8), 3)
        mu = float(np.round(rng.uniform(-50.0, 50.0), 3))
        k = int(rng.integers(5))
        cbar, col = problem.solve_pricing(k, pi, mu)
        values = inst.costs[k].astype(float) - pi
        want = oracles.knapsack_brute(values, inst.weights[k], int(inst.capacities[k]))
        assert cbar == pytest.approx(want - mu, abs=1e-9)
        assert sum(int(inst.weights[k, i]) for i in col.native) <= int(inst.capacities[k])


def test_support_set_union():
    inst = generate_ga_instance(2, 5, 3)
    problem = GaBlockProblem(inst)
    assert problem.support_set(0).tolist() == [False] * 5
    oracles.register_one_by_one(problem, [oracles.assignment_column(inst, 0, (1, 3))])
    assert np.flatnonzero(problem.support_set(0)).tolist() == [1, 3]
    oracles.register_one_by_one(problem, [oracles.assignment_column(inst, 0, (3, 4))])
    assert np.flatnonzero(problem.support_set(0)).tolist() == [1, 3, 4]
    assert problem.support_set(1).tolist() == [False] * 5


def test_register_columns_batch_is_the_union_of_its_columns():
    rng = np.random.default_rng(8)
    for seed in range(4):
        inst = generate_ga_instance(5, 7, seed)
        oracles.check_batch_registration(lambda: GaBlockProblem(inst),
                                         functools.partial(oracles.assignment_column, inst),
                                         5, 7, rng)


def test_hypercube_term_matches_brute_force():
    rng = np.random.default_rng(6)
    inst = generate_ga_instance(3, 9, 5)
    problem = GaBlockProblem(inst)
    for _ in range(40):
        pi_prev = np.round(rng.uniform(0.0, 60.0, size=9), 3)
        pi_now = np.round(rng.uniform(0.0, 60.0, size=9), 3)
        # item coefficients are +1, so the box form is driven by pi_prev - pi_now
        want = oracles.hypercube_brute(pi_prev - pi_now)
        got = problem.hypercube_bound_term(0, pi_prev, pi_now)
        assert got == pytest.approx(want, abs=1e-9)


def test_bound_matches_hand_coded_bin_formula():
    # hand form in the bin row's >= form, whose dual is nu = -mu:
    # cbar(l) - nu(l) + nu(t) + sum_i min(0, pi_l[i] - pi_t[i]); the generic
    # bound on the <= row's own duals must agree bit for bit
    rng = np.random.default_rng(18)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        pi_prev = rng.uniform(-20.0, 80.0, size=n)
        pi_now = rng.uniform(-20.0, 80.0, size=n)
        cbar = float(rng.uniform(-30.0, 30.0))
        nu_prev = float(rng.uniform(-10.0, 10.0))
        nu_now = float(rng.uniform(-10.0, 10.0))
        term = negative_part_sum(pi_prev - pi_now)
        hand = cbar + -1.0 * (nu_prev - nu_now) + term
        generic = exact_bound(cbar, -nu_prev, -nu_now, term)
        assert generic == hand


def test_eq_shapes_table():
    from colgen import E_SET_SHAPES
    assert E_SET_SHAPES["E1"] == (100, 10)
    assert E_SET_SHAPES["E9"] == (5000, 100)
    assert len(E_SET_SHAPES) == 9


def test_shape_property():
    inst = generate_ga_instance(7, 3, 0)
    assert inst.shape == (7, 3)


def test_initial_columns_are_an_empty_priced_blocks():
    priced = GaBlockProblem(generate_ga_instance(5, 4, 0)).initial_columns()
    assert isinstance(priced, PricedBlocks)
    assert priced.ptr.tolist() == [0]
    for name in ("blocks", "reduced_costs", "costs", "rows", "vals"):
        assert len(getattr(priced, name)) == 0, name
