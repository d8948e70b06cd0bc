"""The result and spec records: immutable named tuples whose field names,
field order and repr are part of the API."""

import pytest

from demkit import (
    ComparisonReport,
    CoverResult,
    DemResult,
    FamilySpec,
    GraphError,
    PredictedValue,
    ProductSpec,
    ProductVertexMap,
    VerificationRecord,
    cartesian,
    join,
)

from conftest import path

FAMILY = FamilySpec("random_connected", (8, 1, 3), 42)
PRODUCT = ProductSpec("cluster", FamilySpec("cycle", (4,)), FamilySpec("path", (2,)), 0)
EXACT = PredictedValue.exact(2, "r")

RECORDS = [
    (
        DemResult(4, 4, 2, (0, 2), ((0, 2), (1, 3)), 1, (0, 2)),
        "DemResult(n=4, m=4, value=2, witness=(0, 2), "
        "all_minimum_sets=((0, 2), (1, 3)), nodes_explored=1, greedy=(0, 2))",
    ),
    (EXACT, "PredictedValue(kind='exact', lower=2, upper=2, rule='r')"),
    (
        PredictedValue.interval(1, 3, "r"),
        "PredictedValue(kind='interval', lower=1, upper=3, rule='r')",
    ),
    (
        VerificationRecord("book:2", EXACT, 2, "pass", "r"),
        "VerificationRecord(instance='book:2', predicted=PredictedValue(kind='exact', "
        "lower=2, upper=2, rule='r'), computed=2, verdict='pass', rule='r', detail='', "
        "runtime=0.0)",
    ),
    (FAMILY, "FamilySpec(kind='random_connected', params=(8, 1, 3), seed=42)"),
    (
        PRODUCT,
        "ProductSpec(op='cluster', left=FamilySpec(kind='cycle', params=(4,), seed=None), "
        "right=FamilySpec(kind='path', params=(2,), seed=None), root=0)",
    ),
    (CoverResult(1, (1,)), "CoverResult(value=1, witness=(1,))"),
    (
        ComparisonReport("path:3", 3, 2, 1, (0,), 1, (0,), 1, (0,), 1, (0,)),
        "ComparisonReport(name='path:3', n=3, m=2, dem=1, dem_witness=(0,), dim=1, "
        "dim_witness=(0,), edim=1, edim_witness=(0,), dim_s=1, dim_s_witness=(0,))",
    ),
    (
        cartesian(path(2), path(2))[1],
        "ProductVertexMap(operation='cartesian', g_order=2, h_order=2, "
        "origins=(('GH', 0, 0), ('GH', 0, 1), ('GH', 1, 0), ('GH', 1, 1)))",
    ),
]
# ids number from 1 and are the test names: keep them when a record is added or dropped
IDS = [f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(RECORDS, 1)]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_fields_and_repr(record, text):
    # the literal pins the field names, their order and the repr format
    assert repr(record) == text
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in type(record)._fields)
    assert text == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("record,_", RECORDS, ids=IDS)
def test_immutable(record, _):
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_are_tuples():
    value, witness = CoverResult(1, (1,))
    assert (value, witness) == (1, (1,)) == CoverResult(1, (1,))
    assert FamilySpec("path", (3,)) == ("path", (3,), None)


class TestProductVertexMap:
    def test_unknown_origin(self):
        _, pm = cartesian(path(2), path(3))
        for origin in [("GH", 2, 0), ("GH", 0, 3), ("G", 0, 0)]:
            with pytest.raises(GraphError):
                pm.vertex(*origin)
        for i, j in [(2, 0), (0, 3), (-1, 0), (0, -1)]:
            with pytest.raises(GraphError):
                pm.vertex_at(i, j)

    def test_vertex_at_needs_a_cartesian_map(self):
        _, pm = join(path(2), path(2))
        assert pm.vertex("H", 0, 1) == 3
        with pytest.raises(GraphError):
            pm.vertex_at(0, 0)
