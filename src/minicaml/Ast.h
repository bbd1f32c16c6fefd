//===- Ast.h - Mini-Caml abstract syntax ------------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Untyped abstract syntax for the mini-Caml language that serves as the
/// paper's primary evaluation vehicle. The searcher manipulates these trees
/// generically, so every expression provides: a Kind enum for LLVM-style
/// isa/dyn_cast dispatch, deep cloning, uniform access to *expression*
/// children (patterns are visited through dedicated accessors because the
/// triage phases of Section 2.4 treat them separately), structural equality,
/// and node counting for the ranker's size metric.
///
/// Two node kinds exist purely for the search procedure (Section 2):
/// EWildcard is the `[[...]]` hole that type-checks at any type (the paper
/// uses `raise Foo`), and EAdapt wraps a subexpression whose own type is
/// checked but whose result is unconstrained (the paper's `adapt e`).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_AST_H
#define SEMINAL_MINICAML_AST_H

#include "support/SourceLoc.h"

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seminal {
namespace caml {

class Expr;
class Pattern;
using ExprPtr = std::unique_ptr<Expr>;
using PatternPtr = std::unique_ptr<Pattern>;

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

/// A match/binding pattern.
class Pattern {
public:
  enum class Kind {
    Wild,   ///< _
    Var,    ///< x
    Int,    ///< 3
    Bool,   ///< true
    String, ///< "s"
    Unit,   ///< ()
    Tuple,  ///< (p1, ..., pn)
    List,   ///< [] or [p1; ...; pn]
    Cons,   ///< p1 :: p2
    Constr, ///< C or C p
  };

  explicit Pattern(Kind K) : TheKind(K) {}
  Pattern(const Pattern &) = delete;
  Pattern &operator=(const Pattern &) = delete;

  Kind kind() const { return TheKind; }
  SourceSpan Span;

  /// Payloads (only the fields relevant to kind() are meaningful).
  std::string Name;                ///< Var name / constructor name.
  long IntValue = 0;               ///< Int literal.
  bool BoolValue = false;          ///< Bool literal.
  std::string StringValue;         ///< String literal.
  std::vector<PatternPtr> Elems;   ///< Tuple/List elements.
  PatternPtr Head;                 ///< Cons head.
  PatternPtr Tail;                 ///< Cons tail.
  PatternPtr Arg;                  ///< Constructor argument (may be null).

  PatternPtr clone() const;
  bool equals(const Pattern &Other) const;
  unsigned size() const;

  /// Collects all variable names bound by this pattern, in source order.
  void boundVars(std::vector<std::string> &Out) const;

  /// Renders the pattern in concrete syntax (used by messages and tests),
  /// with the printer's emitters (Printer.cpp).
  std::string str() const;

private:
  Kind TheKind;
};

/// Convenience constructors.
PatternPtr makeWildPattern();
PatternPtr makeVarPattern(const std::string &Name);
PatternPtr makeIntPattern(long Value);
PatternPtr makeBoolPattern(bool Value);
PatternPtr makeStringPattern(const std::string &Value);
PatternPtr makeUnitPattern();
PatternPtr makeTuplePattern(std::vector<PatternPtr> Elems);
PatternPtr makeListPattern(std::vector<PatternPtr> Elems);
PatternPtr makeConsPattern(PatternPtr Head, PatternPtr Tail);
PatternPtr makeConstrPattern(const std::string &Name, PatternPtr Arg);

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// One arm of a match expression.
struct MatchArm {
  PatternPtr Pat;
  ExprPtr Body;
};

/// One field initializer of a record literal.
struct RecordField {
  std::string Name;
  ExprPtr Value;
};

/// An expression node. Children are owned; trees form strict hierarchies.
class Expr {
public:
  enum class Kind {
    IntLit,
    BoolLit,
    StringLit,
    UnitLit,
    Var,
    Fun,      ///< fun p1 ... pn -> body
    App,      ///< callee a1 ... an (curried application, flattened)
    Let,      ///< let [rec] pat [p1 ... pn] = rhs in body
    If,       ///< if c then t [else e]
    Tuple,    ///< (e1, ..., en)
    List,     ///< [e1; ...; en]
    Cons,     ///< e1 :: e2
    BinOp,    ///< e1 OP e2 (arithmetic, comparison, ^, @, :=, &&, ||)
    UnaryOp,  ///< not e, -e, !e
    Match,    ///< match scrutinee with arms
    Constr,   ///< C or C e
    Seq,      ///< e1; e2
    Raise,    ///< raise e
    Field,    ///< e.fld
    SetField, ///< e.fld <- v
    Record,   ///< { f1 = e1; ...; fn = en }
    Wildcard, ///< [[...]] -- always type-checks (Section 2.1)
    Adapt,    ///< adapt e -- e checks, result unconstrained (Section 2.3)
  };

  explicit Expr(Kind K) : TheKind(K) {}
  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;

  Kind kind() const { return TheKind; }
  SourceSpan Span;

  // Payloads (only the fields relevant to kind() are meaningful).
  long IntValue = 0;
  bool BoolValue = false;
  std::string StringValue;
  std::string Name;              ///< Var / BinOp / UnaryOp / Constr / Field.
  bool IsRec = false;            ///< Let.
  PatternPtr Binding;            ///< Let bound pattern.
  std::vector<PatternPtr> Params; ///< Fun / Let function parameters.
  std::vector<ExprPtr> Children;  ///< All expression children, canonical
                                  ///< order (see childLayout() below).
  std::vector<PatternPtr> ArmPats; ///< Match arm patterns, parallel to the
                                   ///< arm bodies stored in Children[1..].
  std::vector<std::string> FieldNames; ///< Record literal field names.

  // Canonical child layout by kind:
  //   Fun:      [body]
  //   App:      [callee, a1, ..., an]
  //   Let:      [rhs, body]
  //   If:       [cond, then] or [cond, then, else]
  //   Tuple:    elems          List: elems
  //   Cons:     [head, tail]   BinOp: [lhs, rhs]   UnaryOp: [operand]
  //   Match:    [scrutinee, armBody1, ..., armBodyN]
  //   Constr:   [] or [arg]    Seq: [first, second]
  //   Raise:    [operand]      Field: [record]   SetField: [record, value]
  //   Record:   field values   Adapt: [inner]
  //   literals / Var / Wildcard: []

  unsigned numChildren() const { return unsigned(Children.size()); }
  Expr *child(unsigned I) {
    assert(I < Children.size() && "child index out of range");
    return Children[I].get();
  }
  /// A const node's children are const too: programs share their
  /// declarations, so a tree reached through const may be another's.
  const Expr *child(unsigned I) const {
    assert(I < Children.size() && "child index out of range");
    return Children[I].get();
  }
  /// Replaces child \p I, returning the previous subtree.
  ExprPtr swapChild(unsigned I, ExprPtr New);

  ExprPtr clone() const;
  bool equals(const Expr &Other) const;

  /// Number of AST nodes in this subtree (patterns included); the ranker's
  /// size metric (Section 2.1 "prefers changes closer to the leaves").
  unsigned size() const;

  bool isWildcard() const { return TheKind == Kind::Wildcard; }

  /// \returns true for syntactic values (eligible for let-generalization
  /// under the value restriction).
  bool isSyntacticValue() const;

private:
  Kind TheKind;
};

/// Convenience constructors (spans default to invalid; the parser fills
/// them in, synthesized nodes keep unknown spans).
ExprPtr makeIntLit(long Value);
ExprPtr makeBoolLit(bool Value);
ExprPtr makeStringLit(const std::string &Value);
ExprPtr makeUnitLit();
ExprPtr makeVar(const std::string &Name);
ExprPtr makeFun(std::vector<PatternPtr> Params, ExprPtr Body);
ExprPtr makeApp(ExprPtr Callee, std::vector<ExprPtr> Args);
ExprPtr makeLet(bool IsRec, PatternPtr Binding, std::vector<PatternPtr> Params,
                ExprPtr Rhs, ExprPtr Body);
ExprPtr makeIf(ExprPtr Cond, ExprPtr Then, ExprPtr Else);
ExprPtr makeTuple(std::vector<ExprPtr> Elems);
ExprPtr makeList(std::vector<ExprPtr> Elems);
ExprPtr makeCons(ExprPtr Head, ExprPtr Tail);
ExprPtr makeBinOp(const std::string &Op, ExprPtr Lhs, ExprPtr Rhs);
ExprPtr makeUnaryOp(const std::string &Op, ExprPtr Operand);
ExprPtr makeMatch(ExprPtr Scrutinee, std::vector<MatchArm> Arms);
ExprPtr makeConstr(const std::string &Name, ExprPtr Arg);
ExprPtr makeSeq(ExprPtr First, ExprPtr Second);
ExprPtr makeRaise(ExprPtr Operand);
ExprPtr makeFieldAccess(ExprPtr Rec, const std::string &Field);
ExprPtr makeSetField(ExprPtr Rec, const std::string &Field, ExprPtr Value);
ExprPtr makeRecord(std::vector<RecordField> Fields);
ExprPtr makeWildcard();
ExprPtr makeAdapt(ExprPtr Inner);

/// The binary operators' precedence levels, loosest first, as in OCaml.
enum OperatorLevel : int {
  LevelAssign,  // :=
  LevelOr,      // ||
  LevelAnd,     // &&
  LevelCompare, // = == <> < > <= >=
  LevelConcat,  // ^ @
  LevelCons,    // ::
  LevelAdd,     // + -
  LevelMul,     // * /
  NumOperatorLevels,
};

/// A binary operator: the parser reads its level and associativity by the
/// token's spelling, the printer by a BinOp node's Name.
struct BinaryOperator {
  std::string_view Spelling;
  OperatorLevel Level;
  bool RightAssoc;
};

/// \returns the binary operator spelled \p Spelling, `::` and `:=`
/// included, or null for any other spelling.
const BinaryOperator *findBinaryOperator(std::string_view Spelling);

//===----------------------------------------------------------------------===//
// Type expressions (syntax only; semantic types live in Types.h)
//===----------------------------------------------------------------------===//

/// A syntactic type as written in type/exception declarations.
struct TypeExpr {
  enum class Kind {
    Var,    ///< 'a
    Name,   ///< int / string / user-defined, possibly applied: int list
    Arrow,  ///< t1 -> t2
    Tuple,  ///< t1 * ... * tn
  };
  Kind TheKind = Kind::Name;
  std::string Name; ///< Var name (without quote) or constructor name.
  std::vector<std::unique_ptr<TypeExpr>> Args;

  std::unique_ptr<TypeExpr> clone() const;
  bool equals(const TypeExpr &Other) const;
  /// Renders the type in concrete syntax, with the printer's emitters
  /// (Printer.cpp).
  std::string str() const;
};
using TypeExprPtr = std::unique_ptr<TypeExpr>;

TypeExprPtr makeTypeVarExpr(const std::string &Name);
TypeExprPtr makeTypeNameExpr(const std::string &Name,
                             std::vector<TypeExprPtr> Args);
TypeExprPtr makeArrowTypeExpr(TypeExprPtr From, TypeExprPtr To);
TypeExprPtr makeTupleTypeExpr(std::vector<TypeExprPtr> Elems);

//===----------------------------------------------------------------------===//
// Declarations and programs
//===----------------------------------------------------------------------===//

/// One constructor of a variant type declaration.
struct VariantCase {
  std::string Name;
  TypeExprPtr ArgType; ///< Null for nullary constructors.
};

/// One field of a record type declaration.
struct RecordFieldDecl {
  std::string Name;
  bool IsMutable = false;
  TypeExprPtr Type;
};

/// A top-level structure item.
class Decl {
public:
  enum class Kind {
    Let,       ///< let [rec] pat [params] = rhs
    Type,      ///< type ['a] t = ...
    Exception, ///< exception E [of t]
  };

  explicit Decl(Kind K) : TheKind(K) {}
  Decl(const Decl &) = delete;
  Decl &operator=(const Decl &) = delete;

  Kind kind() const { return TheKind; }
  SourceSpan Span;

  // Let payload.
  bool IsRec = false;
  PatternPtr Binding;
  std::vector<PatternPtr> Params;
  ExprPtr Rhs;

  // Type payload.
  std::string TypeName;
  std::vector<std::string> TypeParams;
  bool IsRecord = false;
  std::vector<VariantCase> Cases;
  std::vector<RecordFieldDecl> Fields;

  // Exception payload.
  std::string ExcName;
  TypeExprPtr ExcArgType;

  /// A private deep copy, free to edit (allocated with make_shared, so
  /// handing it to a Program costs no further allocation).
  std::shared_ptr<Decl> clone() const;
  /// Structural equality over every field but spans; true at once when
  /// both sides are the same object.
  bool equals(const Decl &Other) const;
  unsigned size() const;

private:
  Kind TheKind;
};

/// A declaration as programs hold it: shared and immutable. Copying a
/// Program shares its declarations; code that edits one first clones it
/// (Decl::clone, editDecl) and edits the private copy.
using DeclPtr = std::shared_ptr<const Decl>;

std::shared_ptr<Decl> makeLetDecl(bool IsRec, PatternPtr Binding,
                                  std::vector<PatternPtr> Params, ExprPtr Rhs);

/// A whole source file: an ordered list of structure items. A copy shares
/// the declarations, so it costs one reference per declaration.
struct Program {
  std::vector<DeclPtr> Decls;

  bool equals(const Program &Other) const;
  unsigned size() const;
};

//===----------------------------------------------------------------------===//
// Node paths
//===----------------------------------------------------------------------===//

/// Identifies an expression node inside a Program by structure: the index
/// of its declaration and the sequence of child indices from the
/// declaration's root expression. Paths survive cloning, which is how the
/// changer applies an edit to a fresh copy of the input (Section 2.2).
struct NodePath {
  unsigned DeclIndex = 0;
  std::vector<unsigned> Steps;

  NodePath() = default;
  explicit NodePath(unsigned DeclIndex) : DeclIndex(DeclIndex) {}

  NodePath descend(unsigned Step) const {
    NodePath Child = *this;
    Child.Steps.push_back(Step);
    return Child;
  }

  bool operator==(const NodePath &Other) const {
    return DeclIndex == Other.DeclIndex && Steps == Other.Steps;
  }

  std::string str() const;
};

/// Resolves \p Path inside \p Prog. \returns nullptr if the path does not
/// exist (e.g. it was created against a differently-shaped tree).
const Expr *resolvePath(const Program &Prog, const NodePath &Path);

/// Resolves \p Path's steps inside \p D, a private declaration being
/// edited in place of declaration Path.DeclIndex. \returns nullptr if the
/// path does not exist.
Expr *resolvePath(Decl &D, const NodePath &Path);

/// Replaces the node at \p Path's steps inside \p D with \p Replacement,
/// returning the previous subtree. The steps must resolve.
ExprPtr replaceAtPath(Decl &D, const NodePath &Path, ExprPtr Replacement);

/// Gives \p Prog a private clone of declaration \p Index and returns it
/// for editing. The other declarations stay shared; copies of \p Prog
/// made earlier keep the original.
Decl &editDecl(Program &Prog, unsigned Index);

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_AST_H
