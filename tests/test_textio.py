from decimal import Decimal
from fractions import Fraction

import pytest

from cosetprog import (
    CosetProgression,
    DomainError,
    GroupSet,
    GroupSpec,
    subgroup_closure,
)
from cosetprog.checks import _fmt, parse_int, parse_scalar
from cosetprog.textio import (
    fmt_float,
    fmt_fraction,
    parse_fraction,
    read_group_set,
    read_int_set,
    read_progression,
    write_group_set,
    write_progression,
)


def test_fraction_roundtrip():
    for f in (Fraction(3, 4), Fraction(5), Fraction(-7, 2)):
        assert parse_fraction(fmt_fraction(f)) == f


def test_scalars_past_the_digit_limit_roundtrip():
    """Integers longer than the 4300 digits str() and int() convert are
    written and read exactly, with no process-wide setting changed."""
    big = 7**6000  # 5071 digits
    for v in (Fraction(big), Fraction(-big, 3), Fraction(11, big), Fraction(big, big + 2)):
        assert parse_scalar(_fmt(v)) == v
        assert parse_fraction(fmt_fraction(v)) == v
    assert len(_fmt(Fraction(10**4999))) == 5000
    assert parse_int(str(Decimal(big))) == big
    assert _fmt(big) == str(Decimal(big))
    with pytest.raises(DomainError, match="malformed integer token"):
        parse_int("1" * 5000 + "x")


def test_float_format_significant_digits():
    assert fmt_float(0.1234567890123456) == "0.123456789012"
    assert fmt_float(1e-9) == "1e-09"


def test_group_set_roundtrip():
    g = GroupSpec((8, 3))
    a = GroupSet.from_coords(g, [(7, 2), (0, 0), (3, 1)])
    text = write_group_set(a)
    assert read_group_set(text) == a


def test_group_set_comments_ignored():
    text = "# heading\ngroup 6\nelem 1 # inline\nelem 4\n"
    a = read_group_set(text)
    assert sorted(e.coords[0] for e in a.elements()) == [1, 4]


def test_group_set_rejects_bad_arity():
    with pytest.raises(DomainError, match="^element arity does not match the group: elem 1$"):
        read_group_set("group 4 4\nelem 1\n")


def test_progression_rejects_short_gen_row():
    with pytest.raises(DomainError, match="^gen line must hold coordinates plus lo hi: gen 1 0$"):
        read_progression("group 8\nbase 0\ngen 1 0\nsubgroup\nproper 1\n")


@pytest.mark.parametrize(
    "read, text",
    [
        (read_group_set, "group 4\nelem x\n"),
        (read_group_set, "group four\n"),
        (read_int_set, "1 2 3.5\n"),
        (read_progression, "group 8\ngen 1 -2 two\nsubgroup\nproper 1\n"),
    ],
)
def test_readers_reject_malformed_tokens(read, text):
    with pytest.raises(DomainError, match="malformed integer token"):
        read(text)


def test_parse_fraction_rejects_malformed():
    for token in ("1/x", "1/2/3", "", "3/0"):
        with pytest.raises(DomainError):
            parse_fraction(token)


def test_int_set_roundtrip():
    values = [5, -3, 12]
    text = "".join(f"{v}\n" for v in values)
    assert read_int_set(text) == sorted(set(values))


def test_progression_roundtrip():
    g = GroupSpec((16,))
    h = subgroup_closure(g, [g.element((8,))])
    cp = CosetProgression(
        g, g.element((3,)), (g.element((1,)), g.element((5,))),
        ((-2, 2), (0, 1)), h, True,
    )
    back = read_progression(write_progression(cp))
    assert back.base.coords == (3,)
    assert [x.coords for x in back.generators] == [(1,), (5,)]
    assert back.bounds == ((-2, 2), (0, 1))
    assert back.subgroup == h
    assert back.proper


def test_writers_deterministic():
    g = GroupSpec((12,))
    a = GroupSet.from_coords(g, [(4,), (1,), (9,)])
    assert write_group_set(a) == write_group_set(a)
