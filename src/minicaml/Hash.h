//===- Hash.h - Structural hashing for mini-Caml ASTs -----------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural (content-based) 64-bit hashes over expressions, patterns,
/// declarations, and programs. Two trees that compare equal under the AST
/// equals() methods hash identically -- in particular a clone hashes the
/// same as its original -- while source spans are ignored. RunReports
/// identify the input program by hashProgram.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_HASH_H
#define SEMINAL_MINICAML_HASH_H

#include "minicaml/Ast.h"

#include <cstdint>

namespace seminal {
namespace caml {

/// Structural hash of an expression subtree (spans ignored).
uint64_t hashExpr(const Expr &E);

/// Structural hash of a pattern subtree (spans ignored).
uint64_t hashPattern(const Pattern &P);

/// Structural hash of a syntactic type expression.
uint64_t hashTypeExpr(const TypeExpr &TE);

/// Structural hash of a whole declaration.
uint64_t hashDecl(const Decl &D);

/// Structural hash of a whole program (order-sensitive over declarations).
uint64_t hashProgram(const Program &Prog);

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_HASH_H
