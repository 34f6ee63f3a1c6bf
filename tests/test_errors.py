"""The exception hierarchy: everything derives from ReproError."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.XMLParseError,
    errors.TreeError,
    errors.QueryParseError,
    errors.AccessControlError,
    errors.UnknownSubjectError,
    errors.CodebookError,
    errors.StorageError,
    errors.PageFormatError,
    errors.UpdateError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_derives_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_specializations():
    assert issubclass(errors.UnknownSubjectError, errors.AccessControlError)
    assert issubclass(errors.PageFormatError, errors.StorageError)


def test_parse_error_position_formatting():
    err = errors.XMLParseError("boom", position=17)
    assert "position 17" in str(err)
    assert err.position == 17


def test_parse_error_without_position():
    err = errors.XMLParseError("boom")
    assert "position" not in str(err)
    assert err.position == -1


def test_one_except_clause_catches_all():
    """Library failures are catchable with a single handler."""
    from repro import parse

    try:
        parse("<not valid")
    except errors.ReproError:
        caught = True
    assert caught
