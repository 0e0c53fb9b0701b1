"""Library preconditions across the layers: a bad input raises
PreconditionError at the call, not a bare TypeError or ValueError, and
a fractional grain budget is refused, not read as the next integer.

model._error_masks is the one check of a grain budget (n, t) in front
of the masks and the support table; every mask reader reaches it
before it allocates anything.  The one-word queries that walk the
supports instead (grain_image_list, enumerate_error_vectors,
confusable) share model._check_budget, and the checks that answer or
shift before any mask is read (and bounds and series, which read none)
test for integers themselves.  Every module tests with the one
predicate errors._integer, so a numpy int passes and 2.0 is refused
alike everywhere.
"""

import math

import numpy as np
import pytest

from grainlab import bounds, channel, codes, config, graph, model, series
from grainlab.codes import Code
from grainlab.errors import CapExceeded, PreconditionError
from grainlab.graph import CliquePartition
from grainlab.model import ErrorVector, Word, _error_masks

DOUBLING_4 = Code(4, [0b0000, 0b0011, 0b1100, 0b1111])

#: every entry that reads or walks the grain masks, as a function of the budget t
MASK_READERS = {
    "image_values": lambda t: model.image_values(5, 4, t),
    "support_table": lambda t: model.support_table(4, t),
    # the preimages B(y) and their sizes |B(y)|, read from the support table
    "preimage_values": lambda t: list(model.support_table(4, t).gather(np.array([5]), cliques=True)),
    "preimage_counts": lambda t: model.support_table(4, t).lengths(np.arange(16), cliques=True),
    "in_blocks": lambda t: model.in_blocks(model.image_values, np.arange(4), 4, t),
    "enumerate_error_vectors": lambda t: model.enumerate_error_vectors(4, t),
    "grain_image_list": lambda t: model.grain_image_list(Word(4, 5), t),
    "greedy_clique_partition": lambda t: graph.greedy_clique_partition(4, t),
    "verify_list_decodable": lambda t: codes.verify_list_decodable(DOUBLING_4, t, 1),
    "verify_known_pattern": lambda t: codes.verify_known_pattern(DOUBLING_4, t),
    "construct_greedy_known": lambda t: codes.construct_greedy_known(4, t),
    "max_code_size": lambda t: graph.max_code_size(4, t),
}


@pytest.mark.parametrize("t", [0.5, 1.5, -1])
@pytest.mark.parametrize("reader", MASK_READERS)
def test_mask_readers_refuse_a_bad_budget(reader, t):
    # max_code_size(4, 0.5) reported M(4, 1) = 6 under the label t = 0.5
    with pytest.raises(PreconditionError):
        MASK_READERS[reader](t)


def test_numpy_int_budgets_are_integers():
    got = model.image_values(5, np.int64(4), np.int64(1))
    assert got.tolist() == model.image_values(5, 4, 1).tolist()


def test_numpy_int_seeds_are_integers():
    # the key shifts the stream 64 bits up, past any numpy int
    got = channel.make_rng(np.int64(7), np.int64(1)).random(3)
    assert got.tolist() == channel.make_rng(7, 1).random(3).tolist()
    stats = channel.simulation_stats(np.int64(50), 0.3, seed=np.int64(2))
    assert stats == channel.simulation_stats(50, 0.3, seed=2)


def test_numpy_int_fill_bits_are_integers():
    # np.int64(1) << 70 overflowed, and the float 1.0 raised a bare TypeError
    erased = "e" + "0" * 69
    assert channel.cascade_fill(erased, np.int64(1)) == channel.cascade_fill(erased, 1)
    for y0 in (1.0, np.float64(0.0)):
        with pytest.raises(PreconditionError, match="^fill bit y0 must be 0 or 1$"):
            channel.cascade_fill("e01", y0)


@pytest.mark.parametrize(
    "call",
    [
        lambda depth: series.sir(0.5, depth),
        lambda depth: series.truncation_error(0.5, depth),
        lambda depth: series.capacity_curves([0.5], depth),
    ],
    ids=["sir", "truncation-error", "capacity-curves"],
)
def test_numpy_int_depths_are_integers(call):
    # each raised a bare TypeError from math.ldexp
    assert call(np.int64(15)) == call(15)


#: one integer argument of an entry in each module, all read by errors._integer
INTEGER_ARGUMENTS = {
    "bounds.count_error_vectors": lambda k: bounds.count_error_vectors(8, k),
    "bounds.clique_upper": lambda k: bounds.clique_upper(16, k, 4, 1, 6),
    "bounds.clique_rate_min": lambda k: bounds.clique_rate_min(0.1, {(4, k): 4}),
    "bounds.rate_curves": lambda k: bounds.rate_curves([0.1], None, k),
    "series.sir": lambda k: series.sir(0.5, k),
    "series.indicator_stay_prob": lambda k: series.indicator_stay_prob(k, 0.5),
    "series.zero_error_rate": series.zero_error_rate,
    "model.enumerate_error_vectors": lambda k: model.enumerate_error_vectors(6, k),
    "codes.hamming_prefix_size": codes.hamming_prefix_size,
    "graph.max_code_size": lambda k: graph.max_code_size(4, k).size,
    "channel.all_zero_output_prob": lambda k: channel.all_zero_output_prob(k, 0.5),
}


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_numpy_int_is_an_integer_and_a_float_is_not(entry):
    call = INTEGER_ARGUMENTS[entry]
    assert call(np.int64(2)) == call(2)
    with pytest.raises(PreconditionError):
        call(2.0)


#: every series entry that reads a grain probability and a depth; each
#: checks both where it enters and runs its term loops unchecked
SERIES_ENTRIES = {
    "sir": series.sir,
    "output_entropy_series": series.output_entropy_series,
    "error_entropy_series": series.error_entropy_series,
    "truncation_error": series.truncation_error,
    "run_hazards": series.run_hazards,
    "capacity_curves": lambda p, depth: series.capacity_curves([0.5, p], depth),
}


@pytest.mark.parametrize(
    "p,depth,match",
    [
        (1.5, 15, r"p=1.5 outside \[0, 1\]"),
        (-1e-300, 15, r"outside \[0, 1\]"),
        (float("nan"), 15, r"p=nan outside \[0, 1\]"),
        (0.5, 2.5, "depth must be an integer >= 2, got 2.5"),
        (0.5, 1, "depth must be an integer >= 2, got 1"),
        (0.5, series.DEPTH_MAX + 1, "depth 4097 exceeds 4096"),
    ],
    ids=["p-above-1", "p-below-0", "p-nan", "depth-fraction", "depth-1", "depth-past-max"],
)
@pytest.mark.parametrize("entry", SERIES_ENTRIES)
def test_series_entries_check_p_and_depth(entry, p, depth, match):
    with pytest.raises(PreconditionError, match=match):
        SERIES_ENTRIES[entry](p, depth)


#: every oracle that reads a grain probability, as a function of p, each
#: giving a list of floats
P_ORACLES = {
    "erasure_mi_exact": lambda p: [channel.erasure_mi_exact(8, p)],
    "error_entropy_exact": lambda p: [channel.error_entropy_exact(10, p)],
    "output_entropy_bracket": lambda p: list(channel.output_entropy_bracket(10, p)),
    "all_zero_output_prob": lambda p: [channel.all_zero_output_prob(10, p)],
    "grains_output_law": lambda p: list(
        channel.grains_output_law(Word(6, 45), channel.ChannelSpec(p)).values()
    ),
    "channel_spec": lambda p: [channel.ChannelSpec(p).p],
    "indicator_transition_matrix": lambda p: (
        channel.indicator_transition_matrix(p).ravel().tolist()
    ),
    "sir": lambda p: [v for k, v in vars(series.sir(p, 64)).items() if k != "depth"],
    "output_entropy_series": lambda p: [series.output_entropy_series(p, 64)],
    "error_entropy_series": lambda p: [series.error_entropy_series(p, 64)],
    "truncation_error": lambda p: [series.truncation_error(p, 15)],
    "run_hazards": lambda p: list(series.run_hazards(p, 16).values),
    "erasure_capacity": lambda p: [series.erasure_capacity(p)],
    "nonadjacent_error_capacity": lambda p: [series.nonadjacent_error_capacity(p)],
    "indicator_stay_prob": lambda p: [series.indicator_stay_prob(5, p)],
    "indecomposability_check": lambda p: [series.indecomposability_check(p).witness],
}


@pytest.mark.parametrize("p", [0.25, 0.5])
@pytest.mark.parametrize("oracle", P_ORACLES)
def test_numpy_floats_compute_as_python_floats(oracle, p):
    # output_entropy_bracket(10, np.float32(0.25)) computed in float32,
    # and its lower end came out above the true upper end
    want = P_ORACLES[oracle](p)
    assert all(type(v) is float for v in want)
    for numpy_p in (np.float32(p), np.float64(p)):
        got = P_ORACLES[oracle](numpy_p)
        assert got == want and all(type(v) is float for v in got), numpy_p


@pytest.mark.parametrize("p", [None, "0.5"], ids=["none", "string"])
@pytest.mark.parametrize("oracle", P_ORACLES)
def test_p_oracles_refuse_a_non_real_p(oracle, p):
    # ChannelSpec(None) built a spec with p=None, and sir(None, 15) raised
    # a bare TypeError from the range comparison
    with pytest.raises(PreconditionError):
        P_ORACLES[oracle](p)


@pytest.mark.parametrize("p", [None, "0.5"], ids=["none", "string"])
def test_simulation_stats_refuses_a_non_real_p(p):
    with pytest.raises(PreconditionError, match="p must be a real number"):
        channel.simulation_stats(10, p, 1)


EXACT_N_ORACLES = {
    "erasure_mi_exact": channel.erasure_mi_exact,
    "error_entropy_exact": channel.error_entropy_exact,
    "output_entropy_bracket": channel.output_entropy_bracket,
}


@pytest.mark.parametrize("oracle", EXACT_N_ORACLES)
def test_exact_oracles_check_the_type_of_n_before_the_cap(oracle):
    # the cap compared "5" > 20 first and raised a bare TypeError
    with pytest.raises(PreconditionError, match="integer n >= "):
        EXACT_N_ORACLES[oracle]("5", 0.5)
    with pytest.raises(CapExceeded):
        EXACT_N_ORACLES[oracle](2**70, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        # drew what make_rng(5) draws: the key kept the seed's low 64 bits
        lambda: channel.make_rng(5 + 2**64),
        # a bare ValueError from Philox: the key passed 128 bits
        lambda: channel.make_rng(5, 2**64),
        lambda: channel.simulation_stats(10, 0.3, seed=5 + 2**64),
        lambda: channel.simulation_stats(10, 0.3, seed=5, stream=2**64),
    ],
    ids=["make-rng-seed", "make-rng-stream", "simulation-stats-seed", "simulation-stats-stream"],
)
def test_seeds_and_streams_past_64_bits_are_refused(call):
    with pytest.raises(PreconditionError, match=r"below 2\^64"):
        call()


def test_largest_seed_and_stream_are_accepted():
    top = 2**64 - 1
    assert channel.make_rng(top, top).random() != channel.make_rng(top - 1, top).random()


def test_gate_verdict_does_not_depend_on_the_cache():
    _error_masks.cache_clear()
    with pytest.raises(PreconditionError):
        _error_masks(5, 1.0)  # cold
    assert _error_masks(5, 1).shape == (5,)
    with pytest.raises(PreconditionError):
        _error_masks(5, 1.0)  # (5, 1) cached: lru_cache alone keys 1.0 as 1


@pytest.mark.parametrize(
    "call",
    [
        # built an object-dtype mask array, then failed with TypeError
        lambda: model.image_values(0, 70, 1),
        # a bare ValueError from a negative shift before the masks were read
        lambda: model.support_table(-1, 1),
        # a 2^63-row table, or one of 2^59 rows at a bad budget, could not
        # be allocated: the check runs first
        lambda: model.support_table(0, 1),
        lambda: model.support_table(64, 1),
        lambda: model.support_table(60, 1.5),
        lambda: model.support_table(60, -1),
    ],
    ids=[
        "image-values-70-bits",
        "support-table-negative-n",
        "support-table-zero-n",
        "support-table-64-bits",
        "support-table-fractional-t",
        "support-table-negative-t",
    ],
)
def test_gate_runs_before_any_allocation(call):
    with pytest.raises(PreconditionError, match="need integers 1 <= n <= 63, t >= 0"):
        call()


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: model.confusable(Word(3, 1), Word(3, 1), 1.5), "t must be >= 0"),
        (lambda: graph.max_code_size(2.5, 1), "integers"),
        (
            lambda: graph.verify_clique_partition(
                CliquePartition(2, 1.5, ((0, 1), (2, 3)), (0, 2))
            ),
            "integers",
        ),
        (lambda: bounds.count_error_vectors(5, 0.5), "integers"),
        (lambda: series.sir(0.5, 2.5), "depth must be an integer"),
        (lambda: series.run_hazards(0.5, 2.5), "depth must be an integer"),
        (lambda: channel.output_entropy_bracket(2.5, 0.5), "integer n >= 2"),
        (lambda: channel.all_zero_output_prob(2.5, 0.5), "integer n >= 1"),
        (lambda: channel.simulation_stats(2.5, 0.3, seed=1), "an integer"),
        (lambda: channel.make_rng(1.5), "non-negative integers"),
        (lambda: channel.make_rng(1, 0.5), "non-negative integers"),
        (lambda: bounds.clique_upper(10, 4, 1, 1.5, 5), "integers"),
        (lambda: bounds.fixed_budget_upper(10, 1.5), "integers"),
        (lambda: series.indicator_stay_prob(1.5, 0.5), "integer j >= 1"),
        (lambda: series.zero_error_rate(2.5), "integer n >= 1"),
        (lambda: codes.construct_doubling(2.5), "integer n >= 1"),
        (lambda: Code(3.0, [1]), "not an integer"),
        (lambda: codes.verify_list_decodable(DOUBLING_4, 1, 1.5), "an integer >= 1"),
        (lambda: model.image_count_lower_bound(3, 1.5), "integers"),
        (lambda: bounds.iroot(8, 1.5), "integers"),
        (lambda: bounds.list_decoding_lower(2.5, 1, 1), "integers"),
        (lambda: bounds.list_decoding_lower(4, 1, 1.5), "integers"),
        (lambda: bounds.list_decoding_rate(0.1, 1.5), "list size must be an integer"),
        (lambda: bounds.rate_curves([0.1], None, 1.5), "list size must be an integer"),
        (lambda: bounds.clique_rate_upper(0.1, 2.5, 1, 2), "integers"),
        (lambda: bounds.clique_rate_upper(0.1, 4, 1.0, 2), "integers"),
        (lambda: bounds.clique_rate_min(0.1, {(2.5, 1): 2}), "need integers m, s"),
        (lambda: codes.hamming_prefix_size(2.5), "m out of range"),
        (lambda: codes.construct_hamming_prefix(3.0), "m out of range"),
    ],
    ids=[
        "confusable",
        "max-code-size-n",
        "verify-partition-s",
        "count-error-vectors",
        "sir-depth",
        "run-hazards-depth",
        "output-entropy-bracket",
        "all-zero-output-prob",
        "simulation-stats-n",
        "make-rng-seed",
        "make-rng-stream",
        "clique-upper-s",
        "fixed-budget-upper-t",
        "indicator-stay-prob-j",
        "zero-error-rate-n",
        "construct-doubling-n",
        "code-n",
        "verify-list-decodable-list-size",
        "image-count-lower-bound-t",
        "iroot-k",
        "list-decoding-lower-n",
        "list-decoding-lower-list-size",
        "list-decoding-rate-list-size",
        "rate-curves-list-size",
        "clique-rate-upper-m",
        "clique-rate-upper-s",
        "clique-rate-min-m",
        "hamming-prefix-size-m",
        "construct-hamming-prefix-m",
    ],
)
def test_checks_before_the_masks_refuse_non_integers(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()


def test_clique_rates_take_a_real_cover_size():
    # chi bounds a (possibly fractional) cover size, so only m and s are integers
    assert bounds.clique_rate_upper(0.1, 4, 1, 2.5) == 1.0 - 0.1 * (4 - math.log2(2.5))
    assert bounds.clique_rate_min(0.1, {(4, 1): 2.5}) == bounds.clique_rate_upper(0.1, 4, 1, 2.5)


@pytest.mark.parametrize(
    "call,match",
    [
        # bounds
        (lambda: bounds.iroot(-1, 2), "value >= 0"),
        (lambda: bounds.count_error_vectors(0, 1), "n >= 1"),
        (lambda: bounds.fixed_budget_upper(0, 1), "n >= 1"),
        (lambda: bounds.fixed_budget_upper(10, 7), "small t"),
        (lambda: bounds.clique_upper(0, 1, 2, 1, 2), "n,m,s >= 1"),
        (lambda: bounds.clique_rate_upper(0.1, 0, 1, 2), "m, s >= 1"),
        (lambda: bounds.clique_rate_upper(-0.1, 4, 1, 2), r"^tau=-0.1 outside \[0, s/m=0.25\]$"),
        (lambda: bounds.clique_rate_upper(math.nan, 4, 1, 2), r"^tau=nan outside \[0, s/m=0.25\]$"),
        (lambda: bounds.clique_rate_min(-0.1), r"^tau=-0.1 outside \[0, s/m="),
        (lambda: bounds.clique_rate_min(math.nan), r"^tau=nan outside \[0, s/m=0.5\]$"),
        (lambda: bounds.clique_rate_min(-0.1, {}), r"^tau=-0.1 outside \[0, s/m=inf\]$"),
        (lambda: bounds.list_decoding_lower(0, 1, 1), "list size >= 1"),
        (lambda: bounds.list_decoding_rate(0.1, 0), "list size"),
        (lambda: bounds.decoder_informed_lower(0, 1), "n >= 1"),
        (lambda: bounds.informed_rate_bounds(0.3), "tau=0.3 outside"),
        (lambda: bounds.rate_curves([0.6]), "tau=0.6 outside"),
        # channel
        (lambda: channel.ChannelSpec(0.5, (0, 1.0)), "bit pair"),
        (lambda: channel.indicator_transition_matrix(1.5), r"p=1.5 outside \[0, 1\]"),
        (lambda: channel.indicator_transition_matrix(float("nan")), r"p=nan outside \[0, 1\]"),
        # codes
        (lambda: codes.construct_doubling(0), "n >= 1"),
        (lambda: codes.hamming_prefix_size(7), "m out of range"),
        (lambda: codes.construct_greedy_known(0, 1), "n <= 63"),
        (lambda: codes.verify_list_decodable(DOUBLING_4, 1, 0), "list size"),
        (
            lambda: codes.decode_known_pattern(DOUBLING_4, Word(3, 1), ErrorVector(4, ())),
            "length mismatch",
        ),
        # config
        (lambda: config.parse_cap_string("abc"), "malformed cap entry"),
        # graph
        (lambda: graph.max_code_size(0, 1), "n >= 1"),
        (lambda: graph.greedy_clique_partition(0, 1), "n <= 63"),
        (lambda: graph.verify_clique_partition(CliquePartition(0, 1, (), ())), "m >= 1"),
        # model
        (lambda: Word(3, 1).bit(0), "position 0 outside"),
        (lambda: ErrorVector(0, ()), "positive integer"),
        (lambda: ErrorVector.parse("3"), "missing ':'"),
        (lambda: ErrorVector.parse("x:2"), "malformed error vector"),
        (lambda: model.image_count_lower_bound(0, 1), "r >= 1"),
        # series
        (lambda: series.sir(0.5, 1), ">= 2"),
        (lambda: series.run_hazards(0.5, 8).value(1), "index 1 outside"),
        (lambda: series.indicator_stay_prob(0, 0.5), "j >= 1"),
        (lambda: series.zero_error_rate(0), "n >= 1"),
    ],
    ids=[
        "iroot",
        "count-error-vectors",
        "fixed-budget-n",
        "fixed-budget-t",
        "clique-upper",
        "clique-rate-upper",
        "clique-rate-upper-negative-tau",
        "clique-rate-upper-nan-tau",
        "clique-rate-min-negative-tau",
        "clique-rate-min-nan-tau",
        "clique-rate-min-empty-table",
        "list-decoding-lower",
        "list-decoding-rate",
        "decoder-informed-lower",
        "informed-rate-bounds",
        "rate-curves",
        "channel-spec-float-bit",
        "indicator-transition-matrix-p-above-1",
        "indicator-transition-matrix-p-nan",
        "construct-doubling",
        "hamming-prefix-size",
        "construct-greedy-known",
        "verify-list-decodable",
        "decode-known-pattern",
        "parse-cap-string",
        "max-code-size",
        "greedy-clique-partition",
        "verify-clique-partition",
        "word-bit",
        "error-vector-n",
        "error-vector-parse-colon",
        "error-vector-parse-int",
        "image-count-lower-bound",
        "sir-depth",
        "run-hazards-index",
        "indicator-stay-prob",
        "zero-error-rate",
    ],
)
def test_library_preconditions_raise(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()
