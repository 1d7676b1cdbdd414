"""Unit tests for the parser."""

import pytest

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.parser import parse_expression, parse_program
from repro.utils.errors import ParseError


def test_parse_global_scalar_with_init():
    unit = parse_program("int g = 42;")
    decl = unit.globals[0]
    assert decl.name == "g"
    assert decl.ctype == ct.INT
    assert isinstance(decl.init, ast.IntLiteral)


def test_parse_multiple_declarators_share_base_type():
    unit = parse_program("int a = 1, *p = &a, b;")
    names = [d.name for d in unit.globals]
    assert names == ["a", "p", "b"]
    assert isinstance(unit.globals[1].ctype, ct.PointerType)


def test_parse_array_declaration():
    unit = parse_program("short arr[7];")
    assert isinstance(unit.globals[0].ctype, ct.ArrayType)
    assert unit.globals[0].ctype.length == 7


def test_parse_array_initializer_list():
    unit = parse_program("int a[3] = {1, 2, 3};")
    assert isinstance(unit.globals[0].init, ast.InitList)
    assert len(unit.globals[0].init.items) == 3


def test_parse_struct_definition_and_usage():
    unit = parse_program("struct s { int x; int y; };\nstruct s v;")
    struct_defs = unit.struct_defs
    assert len(struct_defs) == 1
    assert struct_defs[0].struct_type.field_named("y") is not None
    assert isinstance(unit.globals[0].ctype, ct.StructType)


def test_parse_struct_without_field_semicolon_like_paper():
    # The paper's Figure 1 writes "struct a { int x }"; accept it.
    unit = parse_program("struct a { int x };\nstruct a b[2];")
    assert unit.globals[0].ctype.length == 2


def test_parse_function_with_params():
    unit = parse_program("int f(int a, unsigned int b) { return a; }")
    fn = unit.functions[0]
    assert fn.name == "f"
    assert [p.name for p in fn.params] == ["a", "b"]
    assert fn.params[1].ctype == ct.UINT


def test_parse_function_void_params():
    unit = parse_program("int main(void) { return 0; }")
    assert unit.functions[0].params == []


def test_parse_function_prototype_without_body():
    unit = parse_program("int f(int a);")
    assert unit.functions[0].body is None


def test_parse_if_else_and_while():
    unit = parse_program("""
int main() {
  int x = 1;
  if (x > 0) { x = 2; } else x = 3;
  while (x) { x = x - 1; }
  return x;
}
""")
    body = unit.functions[0].body
    assert any(isinstance(s, ast.IfStmt) for s in body.stmts)
    assert any(isinstance(s, ast.WhileStmt) for s in body.stmts)


def test_parse_for_loop_with_declaration_init():
    unit = parse_program("int main() { for (int i = 0; i < 3; i++) { } return 0; }")
    for_stmt = unit.functions[0].body.stmts[0]
    assert isinstance(for_stmt, ast.ForStmt)
    assert isinstance(for_stmt.init, ast.DeclStmt)
    assert isinstance(for_stmt.step, ast.IncDec)


def test_parse_break_continue_return():
    unit = parse_program("""
int main() {
  for (;;) { break; }
  for (;;) { continue; }
  return 0;
}
""")
    assert unit.functions[0].body is not None


def test_expression_precedence_mul_over_add():
    expr = parse_expression("1 + 2 * 3")
    assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
    assert isinstance(expr.rhs, ast.BinaryOp) and expr.rhs.op == "*"


def test_expression_precedence_shift_vs_relational():
    expr = parse_expression("a << 2 < b")
    assert expr.op == "<"
    assert isinstance(expr.lhs, ast.BinaryOp) and expr.lhs.op == "<<"


def test_expression_parentheses_override_precedence():
    expr = parse_expression("(1 + 2) * 3")
    assert expr.op == "*"
    assert isinstance(expr.lhs, ast.BinaryOp) and expr.lhs.op == "+"


def _shape(expr):
    if isinstance(expr, ast.BinaryOp):
        return (expr.op, _shape(expr.lhs), _shape(expr.rhs))
    return expr.name


def test_binary_operators_of_equal_level_associate_left():
    expr = parse_expression("a - b - c / d % e")
    assert _shape(expr) == ("-", ("-", "a", "b"), ("%", ("/", "c", "d"), "e"))


def test_binary_precedence_spans_every_level():
    expr = parse_expression("a || b && c | d ^ e & f == g < h << i + j * k")
    shape = ("*", "j", "k")
    for op, name in [("+", "i"), ("<<", "h"), ("<", "g"), ("==", "f"),
                     ("&", "e"), ("^", "d"), ("|", "c"), ("&&", "b"),
                     ("||", "a")]:
        shape = (op, name, shape)
    assert _shape(expr) == shape


def test_binary_nodes_are_built_operands_first_left_to_right():
    expr = parse_expression("a * b + c * d")
    order = [expr.lhs.lhs, expr.lhs.rhs, expr.lhs,
             expr.rhs.lhs, expr.rhs.rhs, expr.rhs, expr]
    ids = [node.node_id for node in order]
    assert ids == sorted(ids)


def test_assignment_is_right_associative():
    expr = parse_expression("a = b = 1")
    assert isinstance(expr, ast.Assignment)
    assert isinstance(expr.value, ast.Assignment)


def test_compound_assignment_operators():
    expr = parse_expression("a += 3")
    assert isinstance(expr, ast.Assignment) and expr.op == "+="


def test_ternary_operator():
    expr = parse_expression("a ? b : c")
    assert isinstance(expr, ast.Conditional)


def test_unary_and_deref_and_addressof():
    expr = parse_expression("-*&x")
    assert isinstance(expr, ast.UnaryOp) and expr.op == "-"
    assert isinstance(expr.operand, ast.Deref)
    assert isinstance(expr.operand.pointer, ast.AddressOf)


def test_pre_and_post_increment():
    pre = parse_expression("++x")
    post = parse_expression("x++")
    assert isinstance(pre, ast.IncDec) and pre.is_prefix
    assert isinstance(post, ast.IncDec) and not post.is_prefix


def test_member_access_dot_and_arrow():
    dot = parse_expression("s.field")
    arrow = parse_expression("p->field")
    assert isinstance(dot, ast.MemberAccess) and not dot.arrow
    assert isinstance(arrow, ast.MemberAccess) and arrow.arrow


def test_array_subscript_and_call():
    expr = parse_expression("f(a[1], 2)")
    assert isinstance(expr, ast.Call)
    assert isinstance(expr.args[0], ast.ArraySubscript)


def test_cast_expression():
    expr = parse_expression("(unsigned int)x")
    assert isinstance(expr, ast.Cast)
    assert expr.target_type == ct.UINT


def test_pointer_cast_expression():
    expr = parse_expression("(void*)0")
    assert isinstance(expr, ast.Cast)
    assert isinstance(expr.target_type, ct.PointerType)


def test_sizeof_type_and_expression():
    by_type = parse_expression("sizeof(long)")
    by_expr = parse_expression("sizeof x")
    assert isinstance(by_type, ast.SizeofExpr) and by_type.target_type == ct.LONG
    assert isinstance(by_expr, ast.SizeofExpr) and by_expr.operand is not None


def test_comma_expression_inside_parentheses():
    unit = parse_program("void b(int x) { }\nint main() { int a = 0; a || (b(1), 1); return 0; }")
    assert unit.functions[1].name == "main"


def test_hex_and_suffixed_literals():
    expr = parse_expression("0xfff")
    assert isinstance(expr, ast.IntLiteral) and expr.value == 4095
    suffixed = parse_expression("5u")
    assert suffixed.suffix == "u"


def test_locations_are_recorded():
    unit = parse_program("int main() {\n  int x = 1;\n  x = 2;\n  return x;\n}")
    assign_stmt = unit.functions[0].body.stmts[1]
    assert assign_stmt.loc.line == 3


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as excinfo:
        parse_program("int main() {\n  if (x { }\n}")
    assert excinfo.value.line >= 1


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        parse_program("int main() { int x = ; }")


def test_trailing_tokens_in_expression_raise():
    with pytest.raises(ParseError):
        parse_expression("1 + 2 ;")


def test_volatile_and_static_qualifiers_accepted():
    unit = parse_program("volatile int a[5];\nstatic int b = 2;")
    assert unit.globals[0].name == "a"
    assert "volatile" in unit.globals[0].qualifiers
