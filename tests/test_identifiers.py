from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
from ums.errors import UnknownSystem
from ums.identifiers import validate_identifier


class TestIsbn:
    def test_known_isbn13_valid(self):
        assert validate_identifier("ISBN", "9781608454310").valid

    def test_flipped_last_digit_fails_checksum(self):
        check = validate_identifier("ISBN", "9781608454311")
        assert not check.valid
        assert check.reason == "Checksum"

    def test_known_isbn10_valid(self):
        assert validate_identifier("ISBN", "0306406152").valid
        assert validate_identifier("ISBN", "0199258325").valid

    def test_isbn10_with_x_check_char(self):
        # 11 weighted digits of 097522980 leave remainder requiring X
        assert validate_identifier("ISBN", "097522980X").valid

    def test_hyphens_and_spaces_ignored(self):
        assert validate_identifier("ISBN", "978-1-60845-431-0").valid

    def test_wrong_length(self):
        assert validate_identifier("ISBN", "12345").reason == "BadLength"

    def test_letters_rejected(self):
        assert validate_identifier("ISBN", "97816084543a0").reason == "BadCharacter"

    def test_agreement_with_bruteforce_oracle(self):
        rng = random.Random(1607)
        for _ in range(2000):
            if rng.random() < 0.5:
                candidate = "".join(rng.choice("0123456789") for _ in range(13))
                expected = oracles.isbn13_valid(candidate)
            else:
                candidate = "".join(rng.choice("0123456789") for _ in range(9))
                candidate += rng.choice("0123456789X")
                expected = oracles.isbn10_valid(candidate)
            assert validate_identifier("ISBN", candidate).valid == expected, candidate


class TestDoi:
    def test_publisher_page_fragment_is_not_a_doi(self):
        check = validate_identifier("DOI", "details/Octology")
        assert not check.valid
        assert check.reason == "BadPrefix"

    def test_plausible_doi_passes(self):
        assert validate_identifier("DOI", "10.2478/v10052-011-0001-8").valid

    def test_short_registrant_code_rejected(self):
        assert validate_identifier("DOI", "10.12/suffix").reason == "BadSyntax"

    def test_whitespace_suffix_rejected(self):
        assert validate_identifier("DOI", "10.1234/with space").reason == "BadSyntax"

    def test_trailing_line_feed_rejected(self):
        assert validate_identifier("DOI", "10.1234/abc\n").reason == "BadSyntax"


class TestPmid:
    def test_the_cathepsin_article_pmid(self):
        assert validate_identifier("PMID", "21383996").valid

    @pytest.mark.parametrize("bad", ["0", "012345", "123456789", "12a4", "123\n"])
    def test_bad_pmids(self, bad):
        assert not validate_identifier("PMID", bad).valid


#: pieces of an NSS: the characters RFC 2141 allows, ``%`` escapes
#: whole, cut short or with a digit that is not hex, and characters it
#: does not allow
URN_NSS_PIECES = (
    list("Az09()+,-.:=@;$_!*'")
    + ["%", "%f", "%F", "%0", "%af", "%Fa", "%09", "%g0", "%0g", "%%"]
    + list(" /?#\n\\é~G")
)


class TestUrn:
    def test_lexical_shape(self):
        assert validate_identifier("URN", "urn:isbn:0451450523").valid
        assert validate_identifier("URN", "URN:ietf:rfc:2141").valid

    @pytest.mark.parametrize(
        "bad",
        ["urn::nss", "urn:urn:nss", "isbn:0451450523", "urn:a:%zz", "urn:a:", "urn:isbn\n:0451450523"],
    )
    def test_bad_urns(self, bad):
        assert not validate_identifier("URN", bad).valid

    @settings(max_examples=fixtures.examples(500), deadline=None)
    @given(
        st.one_of(
            st.builds(
                lambda scheme, nid, nss: f"{scheme}:{nid}:{nss}",
                st.sampled_from(["urn", "URN", "uri", ""]),
                st.sampled_from(["isbn", "ietf", "a-1", "urn", "", "-x", "n" * 33]),
                st.lists(st.sampled_from(URN_NSS_PIECES), max_size=8).map("".join),
            ),
            st.text(max_size=12),
        )
    )
    def test_matches_the_per_character_loop(self, value):
        check = validate_identifier("URN", value)
        assert (check.valid, check.reason) == oracles.check_urn_reference(value)


class TestOtherSystems:
    def test_registered_without_bespoke_rule_needs_nonempty_only(self):
        assert validate_identifier("OCLC", "756372732").valid
        assert validate_identifier("oclc", "756372732").valid  # tokens fold case
        assert validate_identifier("ISNI", "0000 0001 2103 2683").valid
        assert validate_identifier("PURL", " ").reason == "Empty"

    def test_unknown_system_raises(self):
        with pytest.raises(UnknownSystem):
            validate_identifier("ARK", "ark:/12025/654xz321")
