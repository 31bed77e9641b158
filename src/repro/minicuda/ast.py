"""AST node definitions for the miniCUDA dialect.

Every node is a plain dataclass. Statements may additionally carry a
dynamically-assigned ``region`` attribute (set by the transformation passes)
naming the execution-time component the statement belongs to — ``"agg"`` for
aggregation logic and ``"disagg"`` for disaggregation logic. The engine uses
it to produce the Fig. 10 breakdown. Use :func:`region_of` to read it.
"""

from dataclasses import dataclass, field, fields
from typing import Optional


_FIELD_NAMES = {}


def field_names(node):
    """The dataclass field names of *node*'s class, looked up once per
    class (``dataclasses.fields`` rebuilds its tuple on every call)."""
    cls = type(node)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


class Node:
    """Base class for all AST nodes."""

    def clone(self):
        """Deep-copy this node (dynamic attributes such as region included).

        Copied attribute by attribute: a Node is cloned, a list copied with
        its Nodes cloned, and anything else (names, numbers, qualifier
        tuples) is immutable and shared. The clone shares no Node with
        this one.
        """
        new = object.__new__(type(self))
        state = new.__dict__
        for name, value in self.__dict__.items():
            if isinstance(value, Node):
                value = value.clone()
            elif type(value) is list:
                value = [item.clone() if isinstance(item, Node) else item
                         for item in value]
            state[name] = value
        return new

    def children(self):
        """A list of every direct child Node (lists are flattened)."""
        kids = []
        for name in field_names(self):
            value = getattr(self, name)
            if isinstance(value, Node):
                kids.append(value)
            elif isinstance(value, list):
                kids.extend(item for item in value if isinstance(item, Node))
        return kids

    def walk(self):
        """Yield this node and every descendant, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))


def region_of(node):
    """Return the breakdown region tag of *node* (or None)."""
    return getattr(node, "region", None)


def set_region(node, region, recursive=True):
    """Tag *node* (and by default its subtree) with a breakdown region."""
    targets = node.walk() if recursive else (node,)
    for n in targets:
        if isinstance(n, Stmt) or isinstance(n, Expr):
            n.region = region
    return node


# -- types ----------------------------------------------------------------

@dataclass
class Type(Node):
    """A scalar, ``dim3``, or pointer type.

    ``name`` is the base spelling ("int", "unsigned int", "float", "void",
    "bool", "dim3", ...) and ``pointers`` the number of ``*`` levels.
    """

    name: str
    pointers: int = 0
    const: bool = False

    @property
    def is_pointer(self):
        return self.pointers > 0

    @property
    def is_float(self):
        return self.pointers == 0 and self.name in ("float", "double")

    def pointee(self):
        if not self.is_pointer:
            raise ValueError("pointee() on non-pointer type %r" % self.name)
        return Type(self.name, self.pointers - 1, self.const)

    def pointer_to(self):
        return Type(self.name, self.pointers + 1, self.const)

    def __str__(self):
        text = ("const " if self.const else "") + self.name
        return text + " " + "*" * self.pointers if self.pointers else text


VOID = Type("void")
INT = Type("int")
UINT = Type("unsigned int")
FLOAT_T = Type("float")
BOOL = Type("bool")
DIM3 = Type("dim3")


# -- expressions -----------------------------------------------------------

class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLit(Expr):
    value: int
    text: Optional[str] = None


@dataclass
class FloatLit(Expr):
    value: float
    text: Optional[str] = None


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class StrLit(Expr):
    value: str


@dataclass
class Ident(Expr):
    name: str


@dataclass
class Member(Expr):
    """``obj.field`` (``arrow`` is accepted by the parser but unused)."""

    obj: Expr
    attr: str
    arrow: bool = False


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Call(Expr):
    func: Expr
    args: list = field(default_factory=list)


@dataclass
class Unary(Expr):
    """Prefix ops: ``- ! ~ + & * ++ --``; postfix ``++ --`` set postfix."""

    op: str
    operand: Expr
    postfix: bool = False


@dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class Assign(Expr):
    """``target op value`` where op is ``=`` or a compound assignment."""

    op: str
    target: Expr
    value: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    orelse: Expr


@dataclass
class Cast(Expr):
    type: Type
    operand: Expr


@dataclass
class Launch(Expr):
    """A dynamic (or host) kernel launch ``kernel<<<grid, block>>>(args)``."""

    kernel: str
    grid: Expr
    block: Expr
    args: list = field(default_factory=list)
    shmem: Optional[Expr] = None
    stream: Optional[Expr] = None


# -- statements -------------------------------------------------------------

class Stmt(Node):
    """Base class for statements."""


@dataclass
class VarDecl(Node):
    """A single declarator. DeclStmt groups the declarators of one line.

    ``array_size`` is set for array declarators such as
    ``__shared__ int s[256];`` — parsed for legality analysis; the engine
    only executes scalar and pointer locals.
    """

    type: Type
    name: str
    init: Optional[Expr] = None
    qualifiers: tuple = ()
    array_size: Optional[Expr] = None

    @property
    def is_shared(self):
        return "__shared__" in self.qualifiers


@dataclass
class DeclStmt(Stmt):
    decls: list = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Compound(Stmt):
    stmts: list = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Optional[Stmt] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# -- declarations ------------------------------------------------------------

@dataclass
class Param(Node):
    type: Type
    name: str


@dataclass
class FunctionDef(Node):
    """A kernel (``__global__``), device function, or host function."""

    qualifiers: tuple
    ret_type: Type
    name: str
    params: list = field(default_factory=list)
    body: Optional[Compound] = None

    @property
    def is_kernel(self):
        return "__global__" in self.qualifiers

    @property
    def is_device(self):
        return "__device__" in self.qualifiers

    def param_names(self):
        return [p.name for p in self.params]


@dataclass
class Program(Node):
    """A translation unit: functions and file-scope declarations in order."""

    decls: list = field(default_factory=list)

    def functions(self):
        return [d for d in self.decls if isinstance(d, FunctionDef)]

    def kernels(self):
        return [f for f in self.functions() if f.is_kernel]

    def function(self, name):
        for f in self.functions():
            if f.name == name:
                return f
        raise KeyError("no function named %r" % name)

    def index_of(self, name):
        for i, d in enumerate(self.decls):
            if isinstance(d, FunctionDef) and d.name == name:
                return i
        raise KeyError("no function named %r" % name)
