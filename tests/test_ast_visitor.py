"""AST infrastructure tests: clone, walk, regions, visitors, builders."""

from dataclasses import fields

import pytest

from repro.benchmarks import all_benchmarks
from repro.minicuda import ast, builders as b, parse, parse_expr, parse_stmt
from repro.minicuda.ast import region_of, set_region
from repro.minicuda.printer import print_expr, print_source, print_stmt
from repro.minicuda.visitor import Transformer, Visitor, any_match, find_all
from repro.transforms import OptConfig, transform

GRANULARITIES = ("warp", "block", "multiblock", "grid")


def _programs(bench):
    """*bench*'s parsed sources and its CDP source transformed by T+C+A
    at every granularity and with an aggregation threshold."""
    yield parse(bench.nocdp_source())
    cdp = parse(bench.cdp_source())
    yield cdp
    for granularity in GRANULARITIES:
        yield transform(cdp, OptConfig(threshold=64, coarsen_factor=8,
                                       aggregate=granularity)).program
    yield transform(cdp, OptConfig(threshold=64, aggregate="block",
                                   agg_threshold=8)).program


def _oracle_programs(bench):
    """:func:`_programs`, plus the CDP source under T, C and A alone."""
    yield from _programs(bench)
    cdp = parse(bench.cdp_source())
    yield transform(cdp, OptConfig(threshold=64)).program
    yield transform(cdp, OptConfig(coarsen_factor=8)).program
    for granularity in GRANULARITIES:
        yield transform(cdp, OptConfig(aggregate=granularity)).program


def _reference_children(node):
    """Every direct child Node, read field by field in dataclass order (a
    list field's Nodes in list order): the walker's oracle."""
    kids = []
    for field in fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            kids.append(value)
        elif isinstance(value, list):
            kids.extend(item for item in value if isinstance(item, ast.Node))
    return kids


def _reference_walk(node):
    """Pre-order over :func:`_reference_children`."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_reference_children(node)))


class TestNodeBasics:
    def test_clone_is_deep(self):
        expr = parse_expr("a + b[i]")
        copy = expr.clone()
        copy.rhs.index.name = "j"
        assert expr.rhs.index.name == "i"

    def test_clone_preserves_region_tags(self):
        stmt = parse_stmt("x = 1;")
        set_region(stmt, "agg")
        assert region_of(stmt.clone()) == "agg"

    def test_walk_preorder(self):
        expr = parse_expr("a + b * c")
        kinds = [type(n).__name__ for n in expr.walk()]
        assert kinds == ["Binary", "Ident", "Binary", "Ident", "Ident"]

    def test_children_flatten_lists(self):
        stmt = parse_stmt("{ x = 1; y = 2; }")
        assert len(list(stmt.children())) == 2

    def test_set_region_recursive(self):
        stmt = parse_stmt("if (a) { x = y + 1; }")
        set_region(stmt, "disagg")
        tagged = [n for n in stmt.walk() if region_of(n) == "disagg"]
        assert len(tagged) > 3

    def test_region_default_none(self):
        assert region_of(parse_stmt("x = 1;")) is None

    @pytest.mark.parametrize("bench", all_benchmarks(),
                             ids=lambda bench: bench.name)
    def test_clone_of_every_program_is_whole_and_separate(self, bench):
        for program in _programs(bench):
            copy = program.clone()
            assert print_source(copy) == print_source(program)
            nodes, copies = list(program.walk()), list(copy.walk())
            assert [region_of(n) for n in copies] == \
                [region_of(n) for n in nodes]
            assert not {id(n) for n in nodes} & {id(n) for n in copies}


class TestWalkOracle:
    """``walk`` and ``children`` against a field-order reference, over
    every benchmark program the transforms make."""

    @pytest.mark.parametrize("bench", all_benchmarks(),
                             ids=lambda bench: bench.name)
    def test_walk_and_children_match_field_order(self, bench):
        for program in _oracle_programs(bench):
            expected = list(_reference_walk(program))
            assert [id(n) for n in program.walk()] == \
                [id(n) for n in expected]
            for node in expected:
                assert [id(kid) for kid in node.children()] == \
                    [id(kid) for kid in _reference_children(node)]

    @pytest.mark.parametrize("bench", all_benchmarks(),
                             ids=lambda bench: bench.name)
    def test_only_child_slots_hold_nodes_or_lists(self, bench):
        for program in _oracle_programs(bench):
            for node in program.walk():
                slots = {name for name, _ in ast.child_slots(type(node))}
                for field in fields(node):
                    if field.name in slots:
                        continue
                    value = getattr(node, field.name)
                    assert not isinstance(value, (ast.Node, list)), \
                        (type(node).__name__, field.name)

    def test_child_slots_follow_field_order(self):
        assert ast.child_slots(ast.Launch) == (
            ("grid", False), ("block", False), ("args", True),
            ("shmem", False), ("stream", False))
        assert ast.child_slots(ast.Ident) == ()
        assert ast.child_slots(ast.Type) == ()
        assert ast.child_slots(ast.VarDecl) == (
            ("type", False), ("init", False), ("array_size", False))


class TestVisitor:
    def test_dispatch_by_class(self):
        class CountIdents(Visitor):
            def __init__(self):
                self.count = 0

            def visit_Ident(self, node):
                self.count += 1

        visitor = CountIdents()
        visitor.visit(parse_expr("a + b * a"))
        assert visitor.count == 3

    def test_generic_visit_recurses(self):
        class Names(Visitor):
            def __init__(self):
                self.names = []

            def visit_Ident(self, node):
                self.names.append(node.name)

        visitor = Names()
        visitor.visit(parse_stmt("if (x) { y = z[w]; }"))
        assert visitor.names == ["x", "y", "z", "w"]

    def test_find_all_and_any_match(self):
        program = parse("__global__ void k(int *p) { p[0] = 1 + 2; }")
        assert len(find_all(program, ast.IntLit)) == 3
        assert any_match(program, lambda n: isinstance(n, ast.Index))


class TestTransformer:
    def test_replace_expression(self):
        class SwapIdent(Transformer):
            def visit_Ident(self, node):
                return ast.Ident("q") if node.name == "p" else node

        stmt = SwapIdent().visit(parse_stmt("p = p + r;"))
        assert print_stmt(stmt) == "q = q + r;"

    def test_statement_splice(self):
        class Duplicate(Transformer):
            def visit_ExprStmt(self, node):
                return [node, node.clone()]

        block = Duplicate().visit(parse_stmt("{ x = 1; }"))
        assert len(block.stmts) == 2

    def test_splice_into_a_statement_slot_makes_a_block(self):
        class Duplicate(Transformer):
            def visit_ExprStmt(self, node):
                return [node, node.clone()]

        branch = Duplicate().visit(parse_stmt("if (a) x = 1;"))
        assert isinstance(branch.then, ast.Compound)
        assert print_stmt(branch) == print_stmt(
            parse_stmt("if (a) { x = 1; x = 1; }"))

    def test_statement_delete(self):
        class DropAssigns(Transformer):
            def visit_ExprStmt(self, node):
                if isinstance(node.expr, ast.Assign):
                    return None
                return node

        block = DropAssigns().visit(parse_stmt("{ x = 1; f(x); }"))
        assert len(block.stmts) == 1

    def test_required_child_replaced_with_empty_block(self):
        class DropAll(Transformer):
            def visit_ExprStmt(self, node):
                return None

        loop = DropAll().visit(parse_stmt("while (x) y = 1;"))
        assert isinstance(loop.body, ast.Compound)
        assert loop.body.stmts == []


class TestBuilders:
    def test_ceil_div_shape(self):
        expr = b.ceil_div("n", 32)
        assert print_expr(expr) == "(n + 32 - 1) / 32"

    def test_literals(self):
        assert print_expr(b.lit(5)) == "5"
        assert print_expr(b.lit(True)) == "true"
        assert print_expr(b.lit(2.5)) == "2.5"

    def test_if_stmt_with_lists(self):
        stmt = b.if_stmt(b.lt("a", 3), [b.expr_stmt(b.assign("x", 1))],
                         [b.expr_stmt(b.assign("x", 2))])
        text = print_stmt(stmt)
        assert "if (a < 3)" in text and "else" in text

    def test_for_decl_range(self):
        stmt = b.for_decl_range("i", 0, "n", [b.expr_stmt(b.assign("s", "i",
                                                                   op="+="))])
        assert print_stmt(stmt).startswith(
            "for (int i = 0; i < n; i += 1)")

    def test_block_flattens_and_skips_none(self):
        block = b.block(None, [b.expr_stmt(b.lit(1)), None],
                        b.expr_stmt(b.lit(2)))
        assert len(block.stmts) == 2

    def test_call_and_address_of(self):
        expr = b.call("atomicAdd", b.address_of(b.index("c", 0)), 1)
        assert print_expr(expr) == "atomicAdd(&c[0], 1)"

    def test_member_chain(self):
        assert print_expr(b.member("g", "x")) == "g.x"


class TestProgramHelpers:
    def test_kernels_and_functions(self, bfs_like_source):
        program = parse(bfs_like_source)
        assert len(program.functions()) == 2
        assert all(f.is_kernel for f in program.kernels())

    def test_type_helpers(self):
        t = ast.Type("int", 1)
        assert t.is_pointer
        assert t.pointee().pointers == 0
        assert t.pointer_to().pointers == 2
        assert not ast.Type("float").is_pointer
        assert ast.Type("float").is_float
