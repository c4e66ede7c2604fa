"""Exception types shared across the toolkit."""


class Euclid2Error(Exception):
    """Base class for all checker errors."""


# term / statement layer
class DegenerateSegment(Euclid2Error):
    pass


# rule layer
class RuleError(Euclid2Error):
    """A rule application failed; .cause carries the short error name."""

    @property
    def cause(self) -> str:
        return type(self).__name__


class NoMatch(RuleError):
    pass


class NoLink(RuleError):
    pass


class NoCommonTerm(RuleError):
    pass


class DistinctTargets(RuleError):
    pass


class OverlapWithoutFlag(RuleError):
    pass


class UnboundFigure(RuleError):
    pass


class VEFailed(RuleError):
    pass


class NameMismatch(RuleError):
    pass


class NoRightAngle(RuleError):
    pass


class SidesNotATriangle(RuleError):
    pass


class NotComplements(RuleError):
    pass


class RuleNotInProfile(RuleError):
    pass


class UnresolvedPremise(RuleError):
    pass


class ClaimMismatch(RuleError):
    pass


# diagram layer
class DiagramError(Euclid2Error):
    pass


class InvalidParam(DiagramError):
    pass


class NoIntersection(DiagramError):
    pass


class UnknownName(DiagramError):
    pass


class FactVerificationFailed(DiagramError):
    pass


class Undecidable(Euclid2Error):
    """A sign or coverage question left undecided.  Every sign is now decided
    exactly, so nothing raises it; it stays for callers that catch it."""


# parser layer
class ParseError(Euclid2Error):
    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: {expected}")


class UnknownRule(ParseError):
    def __init__(self, line: int, col: int, name: str):
        super().__init__(line, col, f"unknown rule {name!r}")


class UndeclaredPoint(ParseError):
    def __init__(self, line: int, col: int, name: str):
        super().__init__(line, col, f"point {name!r} not in roster")


# command-line layer
class UnreadableFile(Euclid2Error):
    """A named input file is missing or cannot be read as UTF-8 text."""


class UnwritableFile(Euclid2Error):
    """A named output file cannot be written."""


# oracle layer
class OracleError(Euclid2Error):
    pass


class RealizeFailed(OracleError):
    pass
