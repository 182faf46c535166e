"""The reader and the parser build XmlElement, Item and Tuple through slot
setters, not through the public constructors (see xmltree._slot_setters).
Each record they build must be the one its public constructor builds from
the same field values."""

from __future__ import annotations

import dataclasses
import random

import pytest

import gen
from conftest import FIXTURES
from xbrlcore import (
    Item,
    ParseError,
    ParseMode,
    ParseOptions,
    SourceLocation,
    Tuple,
    XmlElement,
    find_instances,
    read_document,
    serialize,
)

MODES = (ParseOptions(), ParseOptions(mode=ParseMode.LENIENT))
FIXTURE_FILES = sorted(p for p in FIXTURES.iterdir() if p.suffix in (".xml", ".xsd"))


def _hash_or_error(record):
    try:
        return hash(record)
    except TypeError as exc:  # an element's attributes are a dict
        return type(exc)


def _check_record(record) -> None:
    cls = type(record)
    fields = dataclasses.fields(cls)
    public = cls(*(getattr(record, f.name) for f in fields))
    assert type(record.source_location) is SourceLocation
    assert record == public
    assert repr(record) == repr(public)
    assert _hash_or_error(record) == _hash_or_error(public)
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))


def _check_document(data: bytes) -> set[type]:
    """Check every element read from ``data`` and every fact parsed from it in
    either mode; return the types checked."""
    root = read_document(data)
    checked = {XmlElement}
    for element in root.iter_elements():
        assert type(element) is XmlElement
        _check_record(element)
    for options in MODES:
        try:
            outcomes = find_instances(root, options)
        except ParseError:
            continue
        for outcome in outcomes:
            for fact in outcome.instance.iter_facts():
                assert type(fact) in (Item, Tuple)
                _check_record(fact)
                checked.add(type(fact))
    return checked


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.name)
def test_fixture_records_match_the_public_constructors(path):
    _check_document(path.read_bytes())


def test_generated_records_match_the_public_constructors():
    checked = set()
    for seed in range(200):
        checked |= _check_document(serialize(gen.random_instance(random.Random(seed))))
    assert checked == {XmlElement, Item, Tuple}
