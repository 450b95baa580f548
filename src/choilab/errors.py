"""Exception hierarchy shared by all choilab modules."""


class ChoilabError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(ChoilabError):
    pass


class DimensionMismatch(ChoilabError):
    pass


class IndexOutOfRange(ChoilabError):
    pass


class UnknownParty(ChoilabError):
    pass


class NothingLeft(ChoilabError):
    pass


class SystemMismatch(ChoilabError):
    pass


class BadWeights(ChoilabError):
    pass


class BadPermutation(ChoilabError):
    pass


class NotPSD(ChoilabError):
    pass


class NotTracePreserving(ChoilabError):
    pass


class NotGhzDiagonal(ChoilabError):
    pass


class OverlappingGroups(ChoilabError):
    pass


class NotSchmidtRank2(ChoilabError):
    pass


class LocalizationFailed(ChoilabError):
    pass


class ParseError(ChoilabError):
    pass
