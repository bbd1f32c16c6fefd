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
/// same as its original -- while source spans are ignored. The
/// hash-consing arena (minicaml/Arena.h) buckets interned nodes by these
/// hashes, and RunReports identify the input program by hashProgram.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_HASH_H
#define SEMINAL_MINICAML_HASH_H

#include "minicaml/Ast.h"

#include <cstdint>

namespace seminal {
namespace caml {

/// The combine primitives behind the structural hashes, exposed so other
/// layers can reproduce a node's hash from already-hashed parts. The
/// hash-consing arena (minicaml/Arena.h) builds each interned node's hash
/// from its children's cached hashes with exactly these functions, which
/// is what guarantees arena hashes equal hashExpr/hashDecl of the
/// interned tree without walking it.
namespace hashing {

/// Initial accumulator for every node hash (the FNV-1a offset basis).
inline constexpr uint64_t Seed = 1469598103934665603ull;

/// Folds \p V into accumulator \p H (FNV-1a step with a splitmix-style
/// finisher so shallow trees still diffuse well).
uint64_t mix(uint64_t H, uint64_t V);

/// Folds string \p S (content and length) into accumulator \p H.
uint64_t mixString(uint64_t H, const std::string &S);

} // namespace hashing

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
