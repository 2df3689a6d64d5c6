"""Exception types shared across the package."""


class IntegrityError(Exception):
    """Cross-references between objects are inconsistent (e.g. a candidate
    points at a proposal that does not exist)."""


class UndefinedMetricError(Exception):
    """A metric has no defined value for the given input (e.g. OKS against a
    person with zero labeled joints)."""


class FormatError(ValueError):
    """A JSON document does not match the expected file format; the message
    names the offending field."""
