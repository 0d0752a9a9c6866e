"""The report records: immutable named tuples that print like keyword calls."""

import pytest

from quasi3 import acceptance, basis, group_ops, linsys, paths, quasi
from quasi3.poly import parse_poly

A1_M1 = parse_poly("x1^4 - 2*x1^3*x2 - 2*x1^3*x3 + 6*x1^2*x2*x3")

RECORDS = {
    "TranspositionCheck": lambda: quasi.is_quasiinvariant(A1_M1, 1).checks[0],
    "QuasiReport": lambda: quasi.is_quasiinvariant(A1_M1, 1),
    "CoeffSystem": lambda: linsys.build_system(1, 4),
    "BasisElement": lambda: basis.build_basis(1, verify="quasi").elements[1],
    "BasisReport": lambda: basis.build_basis(1, verify="quasi"),
    "Thm2Report": lambda: paths.verify_thm2(2, 1, 1, 1, 3, 2),
    "Thm1Report": lambda: paths.verify_thm1(10, -1, 7, -1, -2, 2),
    "CriterionResult": lambda: acceptance.ALL_CRITERIA[0](),
    "IdentityReport": lambda: group_ops.verify_identities([]),
}
# reports that paths._count_family leaves unchecked, one _replace each
UNCHECKED = {
    "Thm2Report": lambda: paths.verify_thm2(-5, 1, 0, 1, 2, 2),  # endpoint (0, -4)
    "Thm1Report": lambda: paths.verify_thm1(1, 1, 0, 5, 1, 1),  # binom(2, 6) == 0
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    changed = record._replace(**{record._fields[-1]: None})
    assert type(changed) is type(record)
    assert getattr(changed, record._fields[-1]) is None
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"
    if name in UNCHECKED:
        unchecked = UNCHECKED[name]()
        assert type(unchecked) is type(record)
        assert not unchecked.checked and unchecked.note


def test_transposition_check_repr():
    assert repr(RECORDS["TranspositionCheck"]()) == (
        "TranspositionCheck(pair=(1, 2), difference_zero=False, largest_power=3,"
        " required_power=3, divisible=True)"
    )

