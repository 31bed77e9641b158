"""AST node definitions for the miniCUDA dialect.

Every node is a plain dataclass. Statements may additionally carry a
dynamically-assigned ``region`` attribute (set by the transformation passes)
naming the execution-time component the statement belongs to — ``"agg"`` for
aggregation logic and ``"disagg"`` for disaggregation logic. The engine uses
it to produce the Fig. 10 breakdown. Use :func:`region_of` to read it.
"""

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional, get_args


#: AST class -> its child slots, forward and reversed (see child_slots).
_CHILD_SLOTS = {}


def child_slots(cls):
    """The fields of AST class *cls* that can hold a child, as ``(name,
    holds_list)`` pairs in field order: every dataclass field declared as
    a Node (or an optional one) or as a list of Nodes.

    Computed once per class from the dataclass fields. Every walker
    (:meth:`Node.walk`, :meth:`Node.children`, :meth:`Node.clone` and
    :class:`~repro.minicuda.visitor.Transformer`) reads only these fields,
    so none looks at a name, number or qualifier field.
    """
    return (_CHILD_SLOTS.get(cls) or _add_class(cls))[0]


def _add_class(cls):
    """Compute and store *cls*'s table entry: (its child slots, the same
    reversed, in which order :meth:`Node.walk` pushes them)."""
    slots = tuple((f.name, f.type is list) for f in fields(cls)
                  if _holds_child(f.type)) if is_dataclass(cls) else ()
    entry = _CHILD_SLOTS[cls] = (slots, slots[::-1])
    return entry


def _holds_child(annotation):
    """Can a field annotated *annotation* hold a Node or a list?"""
    options = get_args(annotation) or (annotation,)
    return any(option is list
               or (isinstance(option, type) and issubclass(option, Node))
               for option in options)


class Node:
    """Base class for all AST nodes."""

    def clone(self):
        """Deep-copy this node (dynamic attributes such as region included).

        Every attribute is copied; the child slots (:func:`child_slots`)
        are cloned, a list's Nodes one by one. Anything else (names,
        numbers, qualifier tuples, region tags) is immutable and shared.
        The clone shares no Node with this one.
        """
        new = object.__new__(type(self))
        state = new.__dict__
        state.update(self.__dict__)
        for name, many in child_slots(type(self)):
            value = state[name]
            if many:
                state[name] = [item.clone() for item in value]
            elif value is not None:
                state[name] = value.clone()
        return new

    def children(self):
        """A list of every direct child Node (lists are flattened)."""
        kids = []
        state = self.__dict__
        for name, many in child_slots(type(self)):
            value = state[name]
            if many:
                kids.extend(value)
            elif value is not None:
                kids.append(value)
        return kids

    def walk(self):
        """Yield this node and every descendant, pre-order: a node's child
        slots in field order, a list's items in list order."""
        stack = [self]
        pop, push, extend = stack.pop, stack.append, stack.extend
        table = _CHILD_SLOTS
        while stack:
            node = pop()
            yield node
            backward = (table.get(type(node)) or _add_class(type(node)))[1]
            if backward:
                state = node.__dict__
                for name, many in backward:
                    value = state[name]
                    if many:
                        extend(value[::-1])
                    elif value is not None:
                        push(value)


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
