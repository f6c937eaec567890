import pytest

from kuniform.errors import exact_ints


@pytest.mark.parametrize(
    "values, message",
    [
        ([2.5, 3], "dims[0] must be an integer, got 2.5"),
        ((2, 3, True), "dims[2] must be an integer, got True"),
        ([2, 3, 1, 0.5], "dims[2] must be >= 2, got 1"),
        ((0, 2), "dims[0] must be >= 2, got 0"),
        ([2, 2, 2, 2, 3.0], "dims[4] must be an integer, got 3.0"),
        (5, "dims must be an array of integers, got 5"),
    ],
)
def test_exact_ints_names_the_first_bad_entry(values, message):
    with pytest.raises(ValueError) as info:
        exact_ints(values, "dims", 2)
    assert str(info.value) == message


def test_exact_ints_returns_a_tuple_of_the_entries():
    assert exact_ints([2, 5, 3], "dims", 2) == (2, 5, 3)
    assert exact_ints((), "ket", 0) == ()
