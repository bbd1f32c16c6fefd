//===- StdlibBaseTest.cpp - The shared standard-library environment --------==//
//
// Every inference run starts from one standard-library environment that
// is built once per process and shared, read-only, by every run on every
// thread (DESIGN.md section 7). Sharing is sound only while nothing
// writes to it, so these tests record the types rendered for every
// stdlib value, constructor and exception, drive passing and failing
// programs through every inference entry point (one-shot checks, the
// slicer, checkpoint queries and extensions), and require the renderings
// unchanged afterwards. A second test runs one corpus cohort on four
// threads at once and requires the single-threaded results.
//
//===----------------------------------------------------------------------===//

#include "analysis/Slice.h"
#include "corpus/Generator.h"
#include "corpus/Programs.h"
#include "corpus/RandomAst.h"
#include "minicaml/Infer.h"
#include "minicaml/Parser.h"
#include "minicaml/Stdlib.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <thread>

using namespace seminal;
using namespace seminal::caml;

namespace {

/// The rendered outcome of type-checking \p Source: every top-level type
/// in order, or the error message.
std::string render(const std::string &Source) {
  ParseResult P = parseProgram(Source);
  if (!P.ok())
    return "syntax error: " + P.Error->str();
  TypecheckResult R = typecheckProgram(*P.Prog);
  if (!R.ok())
    return "type error: " + R.Error->Message;
  std::string Out;
  for (const auto &[Name, Type] : R.TopLevelTypes)
    Out += Name + " : " + Type + "\n";
  return Out;
}

/// Small programs whose rendered types expose every entry of the base.
std::vector<std::string> baseProbes() {
  std::vector<std::string> Out;
  for (const StdlibValue &V : stdlibValues()) {
    Out.push_back("let x = " + V.Name);
    // Two instantiations in one type: a base variable that lost its
    // genericity would print as one variable shared by both halves.
    Out.push_back("let x = (" + V.Name + ", " + V.Name + ")");
  }
  Out.push_back("let x = None");
  Out.push_back("let x = fun v -> Some v");
  Out.push_back("let x = fun o -> match o with None -> 0 | Some n -> n");
  for (const StdlibException &E : stdlibExceptions())
    Out.push_back(E.ArgTypeSig.empty() ? "let x = " + E.Name
                                       : "let x = fun v -> " + E.Name + " v");
  // The builtin type arities, through a declaration naming each type.
  Out.push_back("type 'a box = Box of int * bool * string * unit * exn *\n"
                "    'a list * 'a ref * 'a option\n"
                "let x = fun v -> Box v");
  return Out;
}

std::vector<std::string> renderBase() {
  std::vector<std::string> Out;
  for (const std::string &Probe : baseProbes())
    Out.push_back(render(Probe));
  return Out;
}

/// Hand-written programs with type and exception declarations, several
/// reusing stdlib names, passing and failing.
const char *const DeclPrograms[] = {
    "exception Bad of string\n"
    "let f x = if x > 0 then x else raise (Bad \"neg\")\n"
    "let g = try_it",
    "exception Not_found of int\n"
    "let g () = raise (Not_found 3)\n"
    "let h () = raise Not_found",
    "type t = None | Some of int\n"
    "let f x = match x with None -> 0 | Some n -> n\n"
    "let bad = Some \"s\"",
    "type 'a option = Nothing | Just of 'a\n"
    "let wrap v = Just v\n"
    "let n = wrap 1",
    "type list = Nil\n"
    "let l = Nil\n"
    "let m = List.length [1; 2]",
    "exception Failure of int\n"
    "let r = Failure 1\n"
    "let s = Failure \"s\"",
    "type int = I of string\n"
    "let i = I \"x\"\n"
    "let j = 1 + 2",
    "type r = { mutable cell : int list; name : string }\n"
    "let mk () = { cell = []; name = \"n\" }\n"
    "let push v x = v.cell <- x :: v.cell\n"
    "let bad v = v.cell <- \"s\" :: v.cell",
};

/// Runs \p P through every inference entry point and returns a summary
/// of the answers: the one-shot result, the slice of the failing
/// declaration, and a growth checkpoint's verdicts as it is queried and
/// extended one declaration at a time.
std::string exercise(const Program &P) {
  std::string Out;
  TypecheckResult R = typecheckProgram(P);
  if (R.ok()) {
    Out += "ok";
    for (const auto &[Name, Type] : R.TopLevelTypes)
      Out += " " + Name + ":" + Type;
  } else {
    Out += "error " + R.Error->Message;
  }
  if (!R.ok() && R.ErrorDeclIndex) {
    analysis::ErrorSlice S = analysis::computeErrorSlice(P, *R.ErrorDeclIndex);
    Out += "\nslice " + std::to_string(S.Valid) + " " + S.ClashLeft + " / " +
           S.ClashRight + " " + std::to_string(S.Core.size());
  }
  std::unique_ptr<InferenceCheckpoint> Growth =
      InferenceCheckpoint::create(P, 0);
  Out += "\ngrowth";
  for (const DeclPtr &D : P.Decls) {
    if (D->kind() == Decl::Kind::Let) {
      TypecheckResult Q = Growth->checkDecl(*D);
      Out += Q.ok() ? " q+" : " q-";
    }
    bool Extended = Growth->extendWith(*D);
    Out += Extended ? " x+" : " x-";
    if (!Extended)
      break; // A failed type/exception declaration voids the checkpoint.
  }
  return Out;
}

std::vector<Program> corpusCohort(double Scale) {
  CorpusOptions CO;
  CO.Scale = Scale;
  std::vector<Program> Out;
  for (const CorpusFile &F : generateCorpus(CO).Analyzed) {
    ParseResult P = parseProgram(F.Source);
    EXPECT_TRUE(P.ok()) << F.Source;
    if (P.ok())
      Out.push_back(std::move(*P.Prog));
  }
  return Out;
}

TEST(StdlibBaseTest, ProbesTypecheck) {
  // Guards the probes themselves: each must reach the base and render.
  for (const std::string &Probe : baseProbes()) {
    std::string Rendered = render(Probe);
    EXPECT_EQ(Rendered.find("error"), std::string::npos)
        << Probe << "\n" << Rendered;
  }
  // Two instantiations of one scheme get four distinct variables.
  std::string Pair = render("let x = (fst, fst)");
  EXPECT_NE(Pair.find("'d"), std::string::npos) << Pair;
}

TEST(StdlibBaseTest, NoInferenceWritesTheBase) {
  const std::vector<std::string> Before = renderBase();

  size_t Passing = 0, Failing = 0;
  auto Run = [&](const Program &P) {
    std::string Summary = exercise(P);
    (Summary.rfind("ok", 0) == 0 ? Passing : Failing) += 1;
  };
  for (int I = 0; I < 100; ++I) {
    Rng R(uint64_t(I) * 7919 + 3);
    Run(randomProgram(R, 4, 3));
  }
  for (const Program &P : corpusCohort(0.3))
    Run(P);
  for (const AssignmentTemplate &T : assignmentTemplates()) {
    ParseResult P = parseProgram(T.Source);
    ASSERT_TRUE(P.ok()) << T.Title;
    Run(*P.Prog);
  }
  for (const char *Source : DeclPrograms) {
    ParseResult P = parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Source;
    Run(*P.Prog);
  }
  EXPECT_GT(Passing, 10u);
  EXPECT_GT(Failing, 10u);

  EXPECT_EQ(renderBase(), Before)
      << "an inference run wrote to the shared standard library";
}

TEST(StdlibBaseTest, ConcurrentRunsMatchSingleThreaded) {
  std::vector<Program> Cohort = corpusCohort(0.3);
  ASSERT_FALSE(Cohort.empty());
  // Programs declaring their own types and exceptions, some reusing
  // builtin and stdlib names: their runs intern constructor names into
  // their own tables while the other threads read the shared builtin
  // names and stdlib types.
  for (const char *Source : DeclPrograms) {
    ParseResult P = parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Source;
    Cohort.push_back(std::move(*P.Prog));
  }
  std::vector<std::string> Expected;
  for (const Program &P : Cohort)
    Expected.push_back(exercise(P));

  // Four threads run the whole cohort at once, so every shared stdlib
  // type and name is read concurrently by several inferences.
  constexpr int Threads = 4;
  std::vector<std::vector<std::string>> Got(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (const Program &P : Cohort)
        Got[T].push_back(exercise(P));
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Got[T], Expected) << "thread " << T;
}

} // namespace
