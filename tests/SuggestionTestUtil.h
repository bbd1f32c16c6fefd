//===- SuggestionTestUtil.h - Test helpers over suggestions -----*- C++ -*-===//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only helpers. A suggestion records its edit (path, original and
/// replacement subtrees, the rendered declaration), not the edited
/// program; soundness tests rebuild that program from the input the
/// search ran on. Identity tests compare two runs' suggestions as
/// rendered multisets. Slice tests check that a core is an antichain.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_TESTS_SUGGESTIONTESTUTIL_H
#define SEMINAL_TESTS_SUGGESTIONTESTUTIL_H

#include "core/Message.h"
#include "core/Seminal.h"
#include "minicaml/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace seminal {

/// The program \p S proposes for \p Input: the input's declarations
/// through S.Path.DeclIndex, with S.Replacement installed at S.Path. A
/// declaration change carries no subtree; it takes the parse of its
/// ContextAfter, which prints the changed declaration. Triage context
/// (the wildcarded siblings) is not rebuilt, so only an untriaged
/// suggestion's program is expected to type-check.
inline caml::Program appliedProgram(const caml::Program &Input,
                                    const Suggestion &S) {
  caml::Program Out;
  Out.Decls.assign(Input.Decls.begin(),
                   Input.Decls.begin() + S.Path.DeclIndex + 1);
  if (S.Replacement) {
    caml::replaceAtPath(caml::editDecl(Out, S.Path.DeclIndex), S.Path,
                        S.Replacement->clone());
    return Out;
  }
  caml::ParseResult R = caml::parseProgram(S.ContextAfter);
  bool OneDecl = R.ok() && R.Prog->Decls.size() == 1;
  EXPECT_TRUE(OneDecl) << "context does not parse as one declaration:\n"
                       << S.ContextAfter;
  if (OneDecl)
    Out.Decls[S.Path.DeclIndex] = R.Prog->Decls.front();
  return Out;
}

/// Every suggestion of \p R, rendered and sorted: the suggestions as a
/// multiset, whatever order the ranker gave them.
inline std::vector<std::string> renderedSuggestions(const SeminalReport &R) {
  std::vector<std::string> Out;
  for (const Suggestion &S : R.Suggestions)
    Out.push_back(renderSuggestion(S));
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// A path of \p Paths that is a strict ancestor of another, rendered as
/// "A above B", or "" when there is none (the paths are an antichain, as
/// ErrorSlice::Core promises).
inline std::string ancestorPair(const std::vector<caml::NodePath> &Paths) {
  for (const caml::NodePath &A : Paths)
    for (const caml::NodePath &B : Paths)
      if (A.DeclIndex == B.DeclIndex && A.Steps.size() < B.Steps.size() &&
          std::equal(A.Steps.begin(), A.Steps.end(), B.Steps.begin()))
        return A.str() + " above " + B.str();
  return "";
}

} // namespace seminal

#endif // SEMINAL_TESTS_SUGGESTIONTESTUTIL_H
