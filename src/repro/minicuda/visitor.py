"""Visitor and transformer infrastructure over the miniCUDA AST.

Two styles are provided:

* :class:`Visitor` — read-only traversal with ``visit_<ClassName>`` dispatch.
* :class:`Transformer` — rebuilding traversal; ``visit_<ClassName>`` methods
  return a replacement node (or the same node). Statement visitors may return
  a list of statements to splice into the enclosing block, or ``None`` to
  delete the statement.
"""

from .ast import Compound, Stmt, child_slots


class Visitor:
    """Read-only traversal with per-class dispatch.

    Subclasses define ``visit_Binary``, ``visit_Launch``, ... methods. The
    default behaviour (and the behaviour of :meth:`generic_visit`) is to
    recurse into all children.
    """

    def visit(self, node):
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node):
        for child in node.children():
            self.visit(child)


class Transformer:
    """Rebuilding traversal.

    ``visit_<ClassName>`` methods receive a node whose children have already
    been transformed (post-order) and return the replacement. For statements
    the replacement may also be a list (spliced) or ``None`` (dropped).
    """

    #: Node class -> this class's ``visit_<ClassName>`` function, or None;
    #: each subclass gets its own (``__init_subclass__``).
    _methods = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._methods = {}

    def visit(self, node):
        self._transform_children(node)
        kind = type(node)
        try:
            method = self._methods[kind]
        except KeyError:
            method = self._methods[kind] = getattr(
                type(self), "visit_" + kind.__name__, None)
        if method is not None:
            return method(self, node)
        return node

    def _transform_children(self, node):
        state = node.__dict__
        for name, many in child_slots(type(node)):
            value = state[name]
            if many:
                new_items = []
                for item in value:
                    replacement = self.visit(item)
                    if replacement is None:
                        continue
                    if isinstance(replacement, list):
                        new_items.extend(replacement)
                    else:
                        new_items.append(replacement)
                state[name] = new_items
            elif value is not None:
                replacement = self.visit(value)
                # A statement slot holds one statement: a dropped one
                # becomes an empty block, a spliced list a block of it.
                if isinstance(value, Stmt):
                    if replacement is None:
                        replacement = Compound([])
                    elif isinstance(replacement, list):
                        replacement = Compound(replacement)
                state[name] = replacement


def find_all(node, node_type):
    """Return all descendants of *node* (inclusive) of the given type."""
    return [n for n in node.walk() if isinstance(n, node_type)]


def any_match(node, predicate):
    """True if *predicate* holds for any descendant of *node* (inclusive)."""
    return any(predicate(n) for n in node.walk())
