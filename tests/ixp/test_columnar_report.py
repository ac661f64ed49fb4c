"""The columnar interval pipeline's exact arithmetic and digest encoder.

* :func:`~repro.ixp.delivery.segment_sums` must equal ``values[s:s+c].sum()``
  on the integer bit column: the batched engine's offered bits, and so
  every digest, depend on it.
* :func:`~repro.ixp.accounting.ordered_sum` is the left fold every float
  total uses; it must not follow the builtin ``sum``'s compensated
  rounding on Python 3.12+.
* :meth:`FabricIntervalReport.canonical_json` must write exactly
  ``json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))``.
"""

import json
import math

import numpy as np
from hypothesis import given, strategies as st

from repro.ixp.accounting import ordered_sum
from repro.ixp.delivery import segment_sums
from repro.ixp.fabric import MEMBER_REPORT_FIELDS, FabricIntervalReport


def reference_sums(values, starts, counts):
    return np.array(
        [values[start : start + count].sum() for start, count in zip(starts, counts)],
        dtype=values.dtype,
    )


def segments(lengths):
    counts = np.asarray(lengths, dtype=np.int64)
    return np.cumsum(counts) - counts, counts


class TestSegmentSums:
    def test_every_length_from_0_to_300(self):
        rng = np.random.default_rng(3)
        starts, counts = segments(range(301))
        values = rng.integers(0, 2**40, size=int(counts.sum()), dtype=np.int64)
        got = segment_sums(values, starts, counts)
        assert got.dtype == np.int64
        assert got.tobytes() == reference_sums(values, starts, counts).tobytes()

    def test_empty_table(self):
        empty = np.zeros(0, dtype=np.int64)
        assert len(segment_sums(empty, empty, empty)) == 0
        starts, counts = segments([0, 0])
        assert segment_sums(empty, starts, counts).tolist() == [0, 0]


class TestOrderedSum:
    def test_is_a_left_fold_not_a_compensated_sum(self):
        # Python 3.12's sum() gives 1.0 here; 3.11's, and the digests, 0.0.
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        assert ordered_sum(np.array([1e16, 1.0, -1e16])) == 0.0
        assert ordered_sum([]) == 0.0


# ----------------------------------------------------------------------
# canonical_json
# ----------------------------------------------------------------------
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e308,
    0.1, 1.0, math.nan, math.inf, -math.inf,
)
report_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
#: ASNs whose decimal strings sort differently from their values.
report_asns = st.one_of(
    st.sampled_from([9, 10, 99, 100, 999, 1000, 64500, 65001, 4_200_000_000]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
rule_ids = st.one_of(
    st.sampled_from(["drop-ntp", "anon-1", "", "ü-filter", "規則-7", "quote\"back\\slash"]),
    st.text(max_size=8),
)


@st.composite
def interval_reports(draw):
    asns = sorted(draw(st.lists(report_asns, unique=True, max_size=10)))
    count = len(asns)
    fields = {
        name: np.array(
            draw(st.lists(report_floats, min_size=count, max_size=count)), dtype=np.float64
        )
        for name in MEMBER_REPORT_FIELDS
    }
    with_stats = draw(st.lists(st.sampled_from(asns), unique=True)) if asns else []
    rule_stats = {
        asn: draw(
            st.dictionaries(
                rule_ids,
                st.fixed_dictionaries(
                    {"matched": report_floats, "dropped": report_floats, "shaped": report_floats}
                ),
                min_size=1,
                max_size=3,
            )
        )
        for asn in sorted(with_stats)
    }
    scalar = st.one_of(report_floats, st.integers(min_value=0, max_value=10**6))
    return FabricIntervalReport(
        interval_start=draw(scalar),
        interval=draw(scalar),
        offered_bits=draw(report_floats),
        delivered_bits=draw(report_floats),
        filtered_bits=draw(report_floats),
        congestion_dropped_bits=draw(report_floats),
        member_asns=np.array(asns, dtype=np.int64),
        member_fields=fields,
        rule_stats=rule_stats,
        port_capacity_bps=np.ones(count),
    )


class TestCanonicalJson:
    @given(report=interval_reports())
    def test_equals_json_dumps_of_to_dict(self, report):
        expected = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
        assert report.canonical_json() == expected

    def test_empty_report(self):
        report = FabricIntervalReport(interval_start=0, interval=10.0)
        expected = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
        assert report.canonical_json() == expected
        assert '"members":{}' in expected
