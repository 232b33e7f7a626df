"""Unit tests for key patterns.

Every test runs twice — once against the compiled match/expand paths
(fixed-width slicing or the anchored regex) and once against the
reference segment walkers in ``pattern_oracle`` — so the two
implementations cannot drift.
A hypothesis property test at the bottom drives randomized agreement
directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pattern_oracle import expand_reference, match_reference
from repro.core.pattern import Pattern, PatternError

pytestmark = pytest.mark.usefixtures("pattern_mode")


class TestParsing:
    def test_literal_and_slots(self):
        p = Pattern("t|<user>|<time>|<poster>")
        assert p.table == "t"
        assert p.slots == ("user", "time", "poster")
        assert [s.is_slot for s in p.segments] == [False, True, True, True]

    def test_pure_literal_pattern(self):
        p = Pattern("config|version")
        assert p.slots == ()
        assert p.table == "config"

    def test_repeated_slot(self):
        p = Pattern("x|<a>|<a>")
        assert p.slots == ("a",)

    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            Pattern("")

    def test_leading_slot_rejected(self):
        with pytest.raises(PatternError):
            Pattern("<user>|x")

    def test_malformed_slot_rejected(self):
        with pytest.raises(PatternError):
            Pattern("t|<user")
        with pytest.raises(PatternError):
            Pattern("t|us<er>")

    def test_equality_and_hash(self):
        assert Pattern("t|<a>") == Pattern("t|<a>")
        assert Pattern("t|<a>") != Pattern("t|<b>")
        assert len({Pattern("t|<a>"), Pattern("t|<a>")}) == 1


class TestMatching:
    def test_match_extracts_slots(self):
        p = Pattern("s|<user>|<poster>")
        assert p.match("s|ann|bob") == {"user": "ann", "poster": "bob"}

    def test_match_wrong_literal(self):
        p = Pattern("s|<user>|<poster>")
        assert p.match("p|ann|bob") is None

    def test_match_wrong_arity(self):
        p = Pattern("s|<user>|<poster>")
        assert p.match("s|ann") is None
        assert p.match("s|ann|bob|extra") is None

    def test_match_repeated_slot_consistency(self):
        p = Pattern("x|<a>|<a>")
        assert p.match("x|v|v") == {"a": "v"}
        assert p.match("x|v|w") is None

    def test_match_interleaved_tag(self):
        p = Pattern("page|<author>|<id>|a")
        assert p.match("page|bob|101|a") == {"author": "bob", "id": "101"}
        assert p.match("page|bob|101|r") is None

    def test_matches_predicate(self):
        p = Pattern("p|<poster>|<time>")
        assert p.matches("p|bob|0100")
        assert not p.matches("q|bob|0100")

    def test_empty_segment_values_match(self):
        p = Pattern("t|<a>|<b>")
        assert p.match("t||x") == {"a": "", "b": "x"}


class TestExpansion:
    def test_expand_full(self):
        p = Pattern("t|<user>|<time>|<poster>")
        slots = {"user": "ann", "time": "0100", "poster": "bob"}
        assert p.expand(slots) == "t|ann|0100|bob"

    def test_expand_missing_slot_raises(self):
        p = Pattern("t|<user>")
        with pytest.raises(PatternError):
            p.expand({})

    def test_expand_extra_slots_ignored(self):
        p = Pattern("t|<user>")
        assert p.expand({"user": "ann", "other": "x"}) == "t|ann"

    def test_expand_prefix_partial(self):
        p = Pattern("t|<user>|<time>|<poster>")
        prefix, complete = p.expand_prefix({"user": "ann"})
        assert prefix == "t|ann|"
        assert not complete

    def test_expand_prefix_complete(self):
        p = Pattern("s|<user>|<poster>")
        prefix, complete = p.expand_prefix({"user": "a", "poster": "b"})
        assert prefix == "s|a|b"
        assert complete

    def test_expand_prefix_stops_at_the_first_unknown_slot(self):
        p = Pattern("t|<user>|<time>|<poster>")
        assert p.expand_prefix({"user": "ann", "poster": "bob"}) == ("t|ann|", False)
        assert p.expand_prefix({}) == ("t|", False)

    def test_repeated_slot_expands_everywhere(self):
        p = Pattern("x|<a>|<b>|<a>")
        assert p.expand({"a": "1", "b": "2"}) == "x|1|2|1"
        assert p.expand(p.match("x|1|2|1")) == "x|1|2|1"

    def test_shared_slots_carry_across_patterns(self):
        """A join's output match pins the source slots it shares."""
        out = Pattern("t|<user>|<time>|<poster>")
        src = Pattern("s|<user>|<poster>")
        assert src.expand(out.match("t|ann|0100|bob")) == "s|ann|bob"

    def test_roundtrip_match_expand(self):
        p = Pattern("page|<author>|<id>|k|<cid>|<commenter>")
        key = "page|bob|101|k|c5|liz"
        assert p.expand(p.match(key)) == key


class TestCompiledEquivalence:
    """The compiled paths agree with the reference walkers, by property.

    Keys are generated adversarially: slot-shaped values, mutated
    expansions, stray separators, angle brackets, braces, and NULs.
    """

    PATTERNS = [
        "t|<user>|<time>|<poster>",
        "p|<poster>|<time:4>",
        "x|<a:2>|mid|<a:2>|<b:3>",
        "k|<a>|<a>|z",
        "page|<author>|<id>|c|<cid>|<commenter>",
        "w|<a:1>|<b:1>",
        "config|version",
    ]

    chunk = st.text(
        alphabet="ab|<>{}01\x00}", min_size=0, max_size=6
    )

    @settings(max_examples=300)
    @given(st.sampled_from(PATTERNS), st.lists(chunk, min_size=1, max_size=7))
    def test_match_agrees(self, text, parts):
        p = Pattern(text)
        key = "|".join(parts)
        assert p.match(key) == match_reference(p, key)

    @settings(max_examples=200)
    @given(st.sampled_from(PATTERNS), chunk, st.data())
    def test_mutated_expansions_agree(self, text, noise, data):
        p = Pattern(text)
        slots = {}
        for seg in p.segments:
            if seg.is_slot and seg.slot not in slots:
                width = seg.width if seg.width else 3
                slots[seg.slot] = data.draw(
                    st.text(alphabet="ab0{}", min_size=width, max_size=width)
                )
        key = expand_reference(p, slots)
        assert p.match(key) == match_reference(p, key)
        mutated = noise + key if noise else key[1:]
        assert p.match(mutated) == match_reference(p, mutated)

    @settings(max_examples=150)
    @given(st.sampled_from(PATTERNS), st.data())
    def test_expand_agrees(self, text, data):
        p = Pattern(text)
        slots = {}
        for name in p.slots:
            width = next(
                (s.width for s in p.segments if s.slot == name and s.width),
                None,
            )
            size = width if width else data.draw(st.integers(0, 4))
            slots[name] = data.draw(
                st.text(alphabet="ab0{}|", min_size=size, max_size=size)
            )
        try:
            compiled = p.expand(slots)
        except PatternError:
            compiled = PatternError
        try:
            reference = expand_reference(p, slots)
        except PatternError:
            reference = PatternError
        assert compiled == reference
