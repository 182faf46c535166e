"""Namespace constants and well-known names.

The URI values are the published ones for the standards involved; they are
centralized here so jurisdictional variants can be swapped in one place.
"""

from __future__ import annotations

from .xmltree import QName, XML_NAMESPACE

XBRLI_NS = "http://www.xbrl.org/2003/instance"
LINK_NS = "http://www.xbrl.org/2003/linkbase"
XLINK_NS = "http://www.w3.org/1999/xlink"
ISO4217_NS = "http://www.xbrl.org/2003/iso4217"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
XML_NS = XML_NAMESPACE

PREFERRED_PREFIXES = {
    XBRLI_NS: "xbrli",
    LINK_NS: "link",
    XLINK_NS: "xlink",
    ISO4217_NS: "iso4217",
    XSD_NS: "xsd",
}

# instance document structure
QN_XBRL = QName(XBRLI_NS, "xbrl")
QN_CONTEXT = QName(XBRLI_NS, "context")
QN_ENTITY = QName(XBRLI_NS, "entity")
QN_IDENTIFIER = QName(XBRLI_NS, "identifier")
QN_SEGMENT = QName(XBRLI_NS, "segment")
QN_PERIOD = QName(XBRLI_NS, "period")
QN_INSTANT = QName(XBRLI_NS, "instant")
QN_START_DATE = QName(XBRLI_NS, "startDate")
QN_END_DATE = QName(XBRLI_NS, "endDate")
QN_FOREVER = QName(XBRLI_NS, "forever")
QN_SCENARIO = QName(XBRLI_NS, "scenario")
QN_UNIT = QName(XBRLI_NS, "unit")
QN_MEASURE = QName(XBRLI_NS, "measure")
QN_DIVIDE = QName(XBRLI_NS, "divide")
QN_UNIT_NUMERATOR = QName(XBRLI_NS, "unitNumerator")
QN_UNIT_DENOMINATOR = QName(XBRLI_NS, "unitDenominator")

# unqualified attributes of instance elements
QN_ATTR_ID = QName("", "id")
QN_ATTR_CONTEXT_REF = QName("", "contextRef")
QN_ATTR_UNIT_REF = QName("", "unitRef")
QN_ATTR_DECIMALS = QName("", "decimals")
QN_ATTR_PRECISION = QName("", "precision")
QN_ATTR_SCHEME = QName("", "scheme")

# linkbase / XLink
QN_SCHEMA_REF = QName(LINK_NS, "schemaRef")
QN_LINKBASE_REF = QName(LINK_NS, "linkbaseRef")
QN_ROLE_REF = QName(LINK_NS, "roleRef")
QN_ARCROLE_REF = QName(LINK_NS, "arcroleRef")
QN_LINKBASE = QName(LINK_NS, "linkbase")
QN_FOOTNOTE_LINK = QName(LINK_NS, "footnoteLink")
QN_LOC = QName(LINK_NS, "loc")
QN_FOOTNOTE = QName(LINK_NS, "footnote")
QN_FOOTNOTE_ARC = QName(LINK_NS, "footnoteArc")
QN_DOCUMENTATION = QName(LINK_NS, "documentation")
QN_XLINK_TYPE = QName(XLINK_NS, "type")
QN_XLINK_ROLE = QName(XLINK_NS, "role")
QN_XLINK_HREF = QName(XLINK_NS, "href")
QN_XLINK_LABEL = QName(XLINK_NS, "label")
QN_XLINK_FROM = QName(XLINK_NS, "from")
QN_XLINK_TO = QName(XLINK_NS, "to")
QN_XLINK_ARCROLE = QName(XLINK_NS, "arcrole")

# schema layer
QN_XSD_SCHEMA = QName(XSD_NS, "schema")
QN_XSD_ELEMENT = QName(XSD_NS, "element")
QN_XSD_IMPORT = QName(XSD_NS, "import")
QN_XSD_INCLUDE = QName(XSD_NS, "include")
QN_SUBST_ITEM = QName(XBRLI_NS, "item")
QN_SUBST_TUPLE = QName(XBRLI_NS, "tuple")
QN_PERIOD_TYPE_ATTR = QName(XBRLI_NS, "periodType")
QN_ATTR_NAME = QName("", "name")
QN_ATTR_TYPE = QName("", "type")
QN_ATTR_SUBSTITUTION_GROUP = QName("", "substitutionGroup")
QN_ATTR_ABSTRACT = QName("", "abstract")
QN_ATTR_TARGET_NAMESPACE = QName("", "targetNamespace")
QN_ATTR_SCHEMA_LOCATION = QName("", "schemaLocation")

# xbrli item type local names, grouped by the data kind they imply
MONETARY_ITEM_TYPES = {"monetaryItemType"}
SHARES_ITEM_TYPES = {"sharesItemType"}
NUMERIC_ITEM_TYPES = {
    "decimalItemType",
    "floatItemType",
    "doubleItemType",
    "integerItemType",
    "nonPositiveIntegerItemType",
    "negativeIntegerItemType",
    "longItemType",
    "intItemType",
    "shortItemType",
    "byteItemType",
    "nonNegativeIntegerItemType",
    "unsignedLongItemType",
    "unsignedIntItemType",
    "unsignedShortItemType",
    "unsignedByteItemType",
    "positiveIntegerItemType",
    "pureItemType",
    "fractionItemType",
    "percentItemType",
}
NON_NUMERIC_ITEM_TYPES = {
    "stringItemType",
    "normalizedStringItemType",
    "tokenItemType",
    "languageItemType",
    "nameItemType",
    "NCNameItemType",
    "booleanItemType",
    "dateTimeItemType",
    "dateItemType",
    "timeItemType",
    "durationItemType",
    "gYearMonthItemType",
    "gYearItemType",
    "gMonthDayItemType",
    "gDayItemType",
    "gMonthItemType",
    "anyURIItemType",
    "QNameItemType",
    "hexBinaryItemType",
    "base64BinaryItemType",
}

# Tuple nesting guard: strict parsing fails beyond it, lenient parsing
# truncates the subtree, and validation reports T-DEPTH.
DEFAULT_MAX_TUPLE_DEPTH = 64
