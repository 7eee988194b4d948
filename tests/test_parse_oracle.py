"""``parse_rational`` against ``Fraction(str)``: below the digit bound every
string is accepted or rejected exactly as ``Fraction`` does, with the same
value.

The strings are built so that their digits plus their exponent magnitude stay
far below MAX_INPUT_DIGITS: digit runs are short, an exponent has at most
three digits, and no piece inserted afterwards is a digit or an ``e``.  They
cover signs, whitespace (Unicode included), ``_`` in good and bad places,
decimals, ``e``-forms, ``p/q`` with ``/0``, and non-ASCII decimal digits.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hweyl.params import parse_rational  # noqa: E402

examples = settings(max_examples=600, derandomize=True, database=None, deadline=None)

#: ASCII digits and decimal digits of other scripts (Arabic-Indic,
#: Extended Arabic-Indic, Devanagari, fullwidth), which ``int`` accepts.
DIGITS = "0123456789" * 3 + "٣۵५５"
SPACE = st.sampled_from(["", "", " ", "\t", "\n", " ", "\x0b", "  "])
SIGN = st.sampled_from(["", "", "", "-", "-", "+", "+-", "--"])
NUMBER = st.text(alphabet=DIGITS * 2 + "_", max_size=6)
EXPONENT = st.tuples(SIGN, st.text(alphabet=DIGITS + "_", max_size=3)).map("".join)
TAIL = st.one_of(
    st.just(""),
    st.tuples(st.sampled_from(["/", " /", "/ "]), NUMBER).map("".join),
    st.sampled_from(["/0", "/00", "/0_0"]),
    st.tuples(st.just("."), NUMBER).map("".join),
    st.tuples(st.just("."), NUMBER, st.sampled_from("eE"), EXPONENT).map("".join),
    st.tuples(st.sampled_from("eE"), EXPONENT).map("".join),
)
#: Pieces inserted at a random place: no digit and no e, so no exponent grows.
JUNK = st.sampled_from(["", "x", ".", "/", "_", " ", "-", "+", "²", " ", "1.2.3"])


@st.composite
def rational_like(draw):
    text = "".join((draw(SPACE), draw(SIGN), draw(NUMBER), draw(TAIL), draw(SPACE)))
    junk = draw(JUNK)
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + junk + text[cut:]


#: Well-formed strings: sign, digits, then nothing, ``/q``, a decimal part
#: or an exponent, with whitespace around.
RUN = st.text(alphabet=DIGITS, min_size=1, max_size=5)
WELL_FORMED = st.tuples(
    SPACE, st.sampled_from(["", "-", "+"]), RUN,
    st.one_of(st.just(""), st.tuples(st.just("/"), RUN).map("".join),
              st.tuples(st.just("."), RUN).map("".join),
              st.tuples(st.sampled_from(["e", "E-", "e+"]),
                        st.text(alphabet=DIGITS, min_size=1, max_size=3)).map("".join)),
    SPACE).map("".join)

#: The forms read as ints directly: digits, a leading -, one /.
INTEGER_FORMS = st.from_regex(r"\A-?[0-9]{1,6}(/[0-9]{1,6})?\Z")
#: Near misses of those: a sign or whitespace next to the slash or the ends.
NEAR_INTEGER_FORMS = st.from_regex(r"\A\s?[-+]?[0-9]{1,4}(\s?/\s?[-+]?[0-9]{0,4})?\s?\Z")

#: Short free text over the same characters: four at most, so an exponent
#: has at most three digits.
SHORT = st.text(alphabet=DIGITS + " +-./_eE²", max_size=4)


def _fraction(raw):
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        return None


def _parsed(raw):
    try:
        value = parse_rational("a1", raw)
    except ValueError as exc:
        assert str(exc).startswith("field 'a1': ")
        return None
    assert type(value) is Fraction
    return value


@examples
@given(raw=st.one_of(INTEGER_FORMS, NEAR_INTEGER_FORMS, WELL_FORMED, rational_like(),
                     SHORT))
def test_parse_rational_agrees_with_fraction_below_the_bound(raw):
    assert _parsed(raw) == _fraction(raw)


def test_the_strings_reach_both_outcomes_and_both_paths():
    # fixed examples from each family above, so the property cannot pass
    # vacuously on one outcome
    for raw, value in [("-07/14", Fraction(-1, 2)), ("12", Fraction(12)),
                       (" +10.5e-2\t", Fraction(21, 200)), ("٣/５", Fraction(3, 5)),
                       (".5E1", Fraction(5)), ("-0", Fraction(0))]:
        assert _parsed(raw) == _fraction(raw) == value
    for raw in ["1/0", "-3/00", "1__0", "1e", "e5", "", " ", "1/2.5", "²", "1e5e5",
                "1/-2", "-1/+2", "--1"]:
        assert _parsed(raw) is None and _fraction(raw) is None
    # Python 3.12 accepts space around the slash, earlier versions refuse it
    for raw in ["1/ 2", "1 /2", " 3 / 4 "]:
        assert _parsed(raw) == _fraction(raw)
