"""Visitor and transformer infrastructure over the miniCUDA AST.

Two styles are provided:

* :class:`Visitor` — read-only traversal with ``visit_<ClassName>`` dispatch.
* :class:`Transformer` — rebuilding traversal; ``visit_<ClassName>`` methods
  return a replacement node (or the same node). Statement visitors may return
  a list of statements to splice into the enclosing block, or ``None`` to
  delete the statement.
"""

from .ast import Node, Stmt, field_names


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

    def visit(self, node):
        self._transform_children(node)
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        return node

    def _transform_children(self, node):
        for name in field_names(node):
            value = getattr(node, name)
            if isinstance(value, Node):
                replacement = self.visit(value)
                if replacement is None and isinstance(value, Stmt):
                    from .ast import Compound
                    replacement = Compound([])
                setattr(node, name, replacement)
            elif isinstance(value, list):
                new_items = []
                for item in value:
                    if not isinstance(item, Node):
                        new_items.append(item)
                        continue
                    replacement = self.visit(item)
                    if replacement is None:
                        continue
                    if isinstance(replacement, list):
                        new_items.extend(replacement)
                    else:
                        new_items.append(replacement)
                setattr(node, name, new_items)


def find_all(node, node_type):
    """Return all descendants of *node* (inclusive) of the given type."""
    return [n for n in node.walk() if isinstance(n, node_type)]


def any_match(node, predicate):
    """True if *predicate* holds for any descendant of *node* (inclusive)."""
    return any(predicate(n) for n in node.walk())
