"""Exception taxonomy and the record base shared by all nadyn modules."""


class Record:
    """Base of the frozen records: a record's fields are its __slots__ ("__dict__"
    aside, for cached properties), and _defaults fills the last ones.  Unless a
    class defines its own, __init__, __eq__ (true only within the class) and
    __hash__ (of the field tuple) are compiled once per class.  Records print
    as Name(field=value, ...), refuse assignment, and copy and pickle via __init__."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        fields = cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        required = len(fields) - len(cls._defaults)
        params = [f if i < required else f"{f}=_d[{i - required}]" for i, f in enumerate(fields)]
        own, other = ("(" + "".join(f"{x}.{f}, " for f in fields) + ")" for x in ("self", "other"))
        scope = {"_d": cls._defaults, **{f"_set_{f}": vars(cls)[f].__set__ for f in fields}}
        body = "; ".join(f"_set_{f}(self, {f})" for f in fields) or "pass"
        exec(
            f"def __init__(self, {', '.join(params)}): {body}\n"
            f"def __eq__(self, other): return {own} == {other} if other.__class__ is self.__class__ else NotImplemented\n"
            f"def __hash__(self): return hash({own})",
            scope,
        )
        for name in ("__init__", "__eq__", "__hash__"):
            if name not in vars(cls):
                setattr(cls, name, scope[name])

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class NadynError(Exception):
    """Base class for domain errors (CLI exit code 2)."""


class ParseError(NadynError):
    """Syntax error in an expression, with source position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class LevelCapExceeded(NadynError):
    """A base change would push the uniformizer level past the cap."""


class BothFormsZero(NadynError):
    """GCD of two identically zero homogeneous forms is undefined."""


class AmbiguousClass(NadynError):
    """A factor class straddles parts of different depth; refine it first."""


class OutOfRange(NadynError):
    """Path parameter outside [0, rho(from, to)]."""


class SamePoint(NadynError):
    """A direction toward the base point itself is undefined."""


class DegenerateMap(NadynError):
    """Coefficient pair has zero resultant (common factor or degree drop)."""


class DegreeTooHigh(NadynError):
    """A parsed map's degree is above the parser's cap."""


class PowerTooLarge(NadynError):
    """An integer power in a parsed expression is above the parser's size caps."""


class DegreeTooLow(NadynError):
    """The operation is only defined for maps of degree at least 2."""


class IterationCapExceeded(NadynError):
    """d^n would exceed the configured iteration cap."""


class IrrationalDirection(NadynError):
    """Measured slopes are only defined along rational direction classes."""


class BreakpointUnresolved(NadynError):
    """A piecewise breakpoint could not be snapped to a bounded rational."""


class TotallyInvariantPoint(NadynError):
    """The point is totally invariant, so no nontrivial sequence exists."""


class CoefficientPole(NadynError):
    """A coefficient of the family has a pole at the requested parameter."""


class IllConditioned(NadynError):
    """Specialised map is numerically degenerate at the requested parameter."""


class RootFindingFailed(NadynError):
    """Simultaneous root iteration did not converge."""

    def __init__(self, level, target):
        self.level = level
        self.target = target
        super().__init__(f"root finding failed at pullback level {level} for target {target!r}")


class OutputTooLarge(NadynError):
    """A value to print has more decimal digits than the interpreter converts."""


class SeriesCapExceeded(NadynError):
    """A centre's Laurent series would need more coefficients than the cap."""


class SampleCapExceeded(NadynError):
    """d^n pullback points would exceed the sample cap."""
