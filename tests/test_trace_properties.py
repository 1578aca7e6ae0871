"""Property tests (hypothesis) for the tracing + metrics subsystem.

These pin the structural contract on *arbitrary* interleavings, not
just the driver's fixed instrumentation shape: spans never run
backwards, children nest inside parents, top-level spans re-sum to the
profiler's wall clock, and metrics merging is order-independent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kokkos.profiler import Profiler
from repro.observability import MetricsRegistry, TraceRecorder

# One profiler action: open a region, charge serial time, or charge a
# kernel.  Regions close implicitly (LIFO) when the program unwinds, so
# a flat action list maps to an arbitrary well-nested push/pop/charge
# interleaving via the recursive interpreter below.
ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("region"), st.sampled_from("ABCD")),
        st.tuples(
            st.just("serial"),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
        ),
        st.tuples(
            st.just("kernel"),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    max_size=24,
)

# How many subsequent actions each opened region swallows.
SPAN_LENGTHS = st.lists(st.integers(min_value=0, max_value=8), max_size=24)


def interpret(prof, actions, lengths, depth=0):
    """Run ``actions``; each ``region`` consumes a prefix of the rest."""
    i = 0
    while i < len(actions):
        kind, value = actions[i]
        i += 1
        if kind == "region":
            take = lengths[i % len(lengths)] if lengths else 0
            inner = actions[i : i + take]
            i += take
            with prof.region(f"{value}{depth}"):
                interpret(prof, inner, lengths, depth + 1)
        elif kind == "serial":
            prof.add_serial(value)
        else:
            prof.add_kernel("K", value)


@settings(max_examples=60)
@given(actions=ACTIONS, lengths=SPAN_LENGTHS)
def test_random_interleavings_produce_wellformed_trees(actions, lengths):
    rec = TraceRecorder()
    prof = Profiler(recorder=rec)
    interpret(prof, actions, lengths)
    trace = rec.to_trace()

    for span in trace.walk():
        # never a negative duration
        assert span.dur >= 0.0
        # children nest within their parent
        for child in span.children:
            assert child.t0 >= span.t0
            assert child.t1 <= span.t1

    # top-level spans tile the timeline: their sum is the wall clock
    assert abs(trace.total_seconds - prof.total_seconds) < 1e-9

    # category totals agree with the profiler's split
    by_cat = {"serial": 0.0, "kernel": 0.0}
    for span in trace.walk():
        if span.cat in by_cat:
            by_cat[span.cat] += span.dur
    assert abs(by_cat["serial"] - prof.total_serial_seconds) < 1e-9
    assert abs(by_cat["kernel"] - prof.total_kernel_seconds) < 1e-9

    # per-region totals match the profiler's attribution exactly
    for name, times in trace.region_totals().items():
        assert abs(times["serial"] - prof.regions[name].serial) < 1e-9
        assert abs(times["kernel"] - prof.regions[name].kernel) < 1e-9


COUNTERS = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.integers(min_value=0, max_value=10**9),
    max_size=5,
)
GAUGES = st.dictionaries(
    st.sampled_from(["x", "y"]),
    st.floats(min_value=0.0, max_value=1e12,
              allow_nan=False, allow_infinity=False),
    max_size=2,
)


def registry_of(counters, gauges):
    reg = MetricsRegistry()
    for name, value in counters.items():
        reg.count(name, value)
    for name, value in gauges.items():
        reg.gauge(name, value)
    return reg


def merged(*parts):
    out = MetricsRegistry()
    for part in parts:
        out.merge(part)
    return out.to_dict(per_cycle=False)


@settings(max_examples=60)
@given(a=COUNTERS, b=COUNTERS, ga=GAUGES, gb=GAUGES)
def test_metrics_merge_commutative(a, b, ga, gb):
    ra, rb = registry_of(a, ga), registry_of(b, gb)
    assert merged(ra, rb) == merged(rb, ra)


@settings(max_examples=60)
@given(a=COUNTERS, b=COUNTERS, c=COUNTERS)
def test_metrics_merge_associative(a, b, c):
    ra, rb, rc = (registry_of(d, {}) for d in (a, b, c))
    left = MetricsRegistry()
    left.merge(ra)
    left.merge(rb)
    ab = MetricsRegistry()
    ab.merge(rb)
    ab.merge(rc)
    right = MetricsRegistry()
    right.merge(ra)
    right.merge(ab)
    left.merge(rc)
    assert left.to_dict(per_cycle=False) == right.to_dict(per_cycle=False)


@settings(max_examples=40)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        max_size=30,
    )
)
def test_histogram_split_merge_equals_whole(values):
    whole = MetricsRegistry()
    for v in values:
        whole.observe("h", v)
    half_a, half_b = MetricsRegistry(), MetricsRegistry()
    for i, v in enumerate(values):
        (half_a if i % 2 else half_b).observe("h", v)
    half_a.merge(half_b)
    got = half_a.to_dict(per_cycle=False)["histograms"]
    want = whole.to_dict(per_cycle=False)["histograms"]
    if not values:
        assert got == want == {}
        return
    # bucket counts and extrema are exact; the float sum is only
    # reassociated, so compare it to within accumulation noise
    assert got["h"]["buckets"] == want["h"]["buckets"]
    assert got["h"]["count"] == want["h"]["count"]
    assert got["h"]["min"] == want["h"]["min"]
    assert got["h"]["max"] == want["h"]["max"]
    assert abs(got["h"]["sum"] - want["h"]["sum"]) <= 1e-6 * max(
        1.0, abs(want["h"]["sum"])
    )
