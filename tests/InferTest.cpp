//===- InferTest.cpp - Tests for mini-Caml type inference ------------------==//
//
// Beyond checking that well-typed programs pass and ill-typed programs
// fail, these tests pin down the *blame behavior* on the paper's running
// examples: the whole reproduction hinges on the conventional checker
// reporting the same (misleading) locations OCaml reported in 2007.
//
//===----------------------------------------------------------------------===//

#include "minicaml/Infer.h"
#include "minicaml/Parser.h"
#include "minicaml/Types.h"

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#define INFER_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define INFER_TEST_ASAN 1
#endif
#endif

using namespace seminal;
using namespace seminal::caml;

namespace {

Program parse(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->str() : "") << "\n" << Source;
  return R.ok() ? std::move(*R.Prog) : Program();
}

TypecheckResult check(const std::string &Source) {
  Program P = parse(Source);
  return typecheckProgram(P);
}

/// The source text the error's span covers.
std::string blamed(const std::string &Source, const TypecheckResult &R) {
  if (!R.Error || !R.Error->Span.isValid())
    return "<none>";
  const SourceSpan &S = R.Error->Span;
  return Source.substr(S.Begin.Offset, S.EndOffset - S.Begin.Offset);
}

/// Type of the binding \p Name in a successful run.
std::string typeOf(const TypecheckResult &R, const std::string &Name) {
  for (const auto &[N, T] : R.TopLevelTypes)
    if (N == Name)
      return T;
  return "<missing>";
}

//===----------------------------------------------------------------------===//
// Type storage
//===----------------------------------------------------------------------===//

TEST(TypeArenaTest, ConstructorArgumentsFollowTheNode) {
  TypeArena Arena;
  Type *A = Arena.freshVar(0);
  Type *Pair = Arena.con(tyname::Tuple, {A, Arena.intType()});
  ASSERT_EQ(Pair->NumArgs, 2u);
  EXPECT_EQ(Pair->arg(0), A);
  EXPECT_TRUE(Pair->arg(1)->isCon(tyname::Int));
  EXPECT_EQ(reinterpret_cast<const void *>(Pair->args().data()),
            reinterpret_cast<const void *>(Pair + 1));
  EXPECT_EQ(Arena.numAllocated(), 3u);
  EXPECT_EQ(typeToString(Arena.arrow(Pair, A)), "'a * int -> 'a");
}

TEST(TypeArenaTest, RewindKeepsItsChunksForTheNextAllocations) {
  TypeArena Arena;
  Arena.intType();
  const TypeArena::Mark M = Arena.mark();
  std::vector<Type *> First;
  for (int I = 0; I < 500; ++I)
    First.push_back(Arena.listOf(Arena.freshVar(0)));
  EXPECT_EQ(Arena.numAllocated(), 1001u);

  // Replaying the same allocations after a rewind lands on the same
  // addresses, across every chunk the first pass filled.
  for (int Round = 0; Round < 3; ++Round) {
    Arena.rewindTo(M);
    EXPECT_EQ(Arena.numAllocated(), 1u);
    for (int I = 0; I < 500; ++I) {
      Type *V = Arena.freshVar(0);
      EXPECT_EQ(V->VarId, I) << "variable ids rewind with the arena";
      EXPECT_EQ(Arena.listOf(V), First[size_t(I)]);
    }
  }
}

TEST(TypeArenaTest, ArgumentListsLargerThanAChunkFit) {
  TypeArena Arena;
  std::vector<Type *> Elems(5000, Arena.intType());
  const TypeArena::Mark M = Arena.mark();
  Type *Wide = Arena.con(tyname::Tuple, Elems);
  ASSERT_EQ(Wide->NumArgs, 5000u);
  EXPECT_EQ(Wide->arg(4999), Elems.back());
  Arena.rewindTo(M);
  EXPECT_EQ(Arena.numAllocated(), 1u);
  EXPECT_TRUE(Arena.con(tyname::Tuple, Elems)->arg(0)->isCon(tyname::Int));
}

TEST(TypeNamesTest, NamesInternOncePerEnvironment) {
  TypeNames Run;
  EXPECT_EQ(Run.intern("int"), tyname::Int);
  EXPECT_EQ(Run.intern("option"), tyname::Option);
  const std::string Tree = "tree";
  TypeName Own = Run.intern(Tree);
  EXPECT_NE(Own, Tree.c_str());
  EXPECT_STREQ(Own, "tree");
  EXPECT_EQ(Run.intern(std::string("tr") + "ee"), Own);

  // Builtins are shared by every table; declared names are not.
  TypeNames Other;
  EXPECT_EQ(Other.intern("list"), tyname::List);
  EXPECT_NE(Other.intern("tree"), Own) << "each run interns its own names";
}

#ifdef INFER_TEST_ASAN
// Rewound arena space is poisoned in ASan builds only, so the test exists
// only there.
TEST(TypeArenaDeathTest, ReadingRewoundSpaceIsReported) {
  // Chunks outlive a rewind, so without poisoning a stale type would read
  // as whatever the next allocation left there.
  EXPECT_DEATH(
      {
        TypeArena Arena;
        const TypeArena::Mark M = Arena.mark();
        Type *Stale = Arena.listOf(Arena.intType());
        Arena.rewindTo(M);
        volatile uint32_t Arity = Stale->NumArgs;
        (void)Arity;
      },
      "use-after-poison");
}
#endif

//===----------------------------------------------------------------------===//
// Well-typed programs
//===----------------------------------------------------------------------===//

TEST(InferOkTest, Literals) {
  TypecheckResult R = check("let a = 1\nlet b = true\nlet c = \"s\"\n"
                            "let d = ()");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "a"), "int");
  EXPECT_EQ(typeOf(R, "b"), "bool");
  EXPECT_EQ(typeOf(R, "c"), "string");
  EXPECT_EQ(typeOf(R, "d"), "unit");
}

TEST(InferOkTest, FunctionsAndApplication) {
  TypecheckResult R = check("let add x y = x + y\nlet five = add 2 3");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "add"), "int -> int -> int");
  EXPECT_EQ(typeOf(R, "five"), "int");
}

TEST(InferOkTest, PolymorphicIdentity) {
  TypecheckResult R = check("let id x = x\nlet a = id 1\nlet b = id \"s\"");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "id"), "'a -> 'a");
  EXPECT_EQ(typeOf(R, "a"), "int");
  EXPECT_EQ(typeOf(R, "b"), "string");
}

TEST(InferOkTest, LetPolymorphismInsideExpression) {
  TypecheckResult R =
      check("let p = let id = fun x -> x in (id 1, id \"s\")");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "p"), "int * string");
}

TEST(InferOkTest, ValueRestrictionBlocksGeneralization) {
  // `ref []` is not a syntactic value, so its type may not generalize;
  // using it at two element types must fail.
  TypecheckResult R = check("let r = ref []\n"
                            "let a = r := [1]\n"
                            "let b = r := [\"s\"]");
  EXPECT_FALSE(R.ok());
}

TEST(InferOkTest, StdlibListFunctions) {
  TypecheckResult R =
      check("let xs = List.map (fun x -> x + 1) [1; 2; 3]\n"
            "let n = List.length xs\n"
            "let p = List.combine [1] [\"a\"]\n"
            "let f = List.filter (fun x -> x > 2) xs");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "xs"), "int list");
  EXPECT_EQ(typeOf(R, "p"), "(int * string) list");
}

TEST(InferOkTest, MatchOnList) {
  TypecheckResult R = check("let hd xs = match xs with\n"
                            "  | [] -> 0\n"
                            "  | x :: _ -> x");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "hd"), "int list -> int");
}

TEST(InferOkTest, RecursionThroughRec) {
  TypecheckResult R =
      check("let rec len xs = match xs with [] -> 0 | _ :: t -> 1 + len t");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "len"), "'a list -> int");
}

TEST(InferOkTest, UserVariantType) {
  TypecheckResult R =
      check("type shape = Circle of int | Square of int | Dot\n"
            "let area s = match s with\n"
            "  | Circle r -> 3 * r * r\n"
            "  | Square w -> w * w\n"
            "  | Dot -> 0");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "area"), "shape -> int");
}

TEST(InferOkTest, ParameterizedVariant) {
  TypecheckResult R =
      check("type 'a tree = Leaf | Node of 'a tree * 'a * 'a tree\n"
            "let rec size t = match t with\n"
            "  | Leaf -> 0\n"
            "  | Node (l, _, r) -> 1 + size l + size r\n"
            "let t = Node (Leaf, 3, Leaf)");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "size"), "'a tree -> int");
  EXPECT_EQ(typeOf(R, "t"), "int tree");
}

TEST(InferOkTest, RecursiveVariantLikeFigure9) {
  TypecheckResult R = check("type move = For of int * move list | Stop\n"
                            "let m = For (2, [Stop; Stop])");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "m"), "move");
}

TEST(InferOkTest, RecordsAndMutableFields) {
  TypecheckResult R = check("type counter = { mutable count : int; id : string }\n"
                            "let c = { count = 0; id = \"c\" }\n"
                            "let bump () = c.count <- c.count + 1\n"
                            "let name = c.id");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "c"), "counter");
  EXPECT_EQ(typeOf(R, "name"), "string");
}

TEST(InferOkTest, References) {
  TypecheckResult R = check("let r = ref 0\n"
                            "let bump () = r := !r + 1");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "r"), "int ref");
}

TEST(InferOkTest, ExceptionsAndRaise) {
  TypecheckResult R = check("exception Bad of string\n"
                            "let f x = if x < 0 then raise (Bad \"neg\") else x");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "f"), "int -> int");
}

TEST(InferOkTest, RaiseHasAnyType) {
  // `raise Foo` must fit every context: the property the wildcard relies
  // on (Section 2.1, footnote 2).
  TypecheckResult R = check("let a = 1 + raise Foo\n"
                            "let b = if raise Foo then 1 else 2\n"
                            "let c = List.map (raise Foo) [1]\n"
                            "let d = (raise Foo) 1 2 3");
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->Message : "");
}

TEST(InferOkTest, SequenceLeftIsUnconstrained) {
  // OCaml warns but does not error when the left of `;` is non-unit; the
  // paper's adapt encoding `(e; raise Foo)` depends on this.
  TypecheckResult R = check("let x = \"side effect?\"; 42");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "x"), "int");
}

TEST(InferOkTest, PolymorphicComparisonOperators) {
  TypecheckResult R = check("let f a b = a = b\nlet g = f 1 2\n"
                            "let h = f \"x\" \"y\"");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "f"), "'a -> 'a -> bool");
}

TEST(InferOkTest, OptionType) {
  TypecheckResult R = check("let f o = match o with Some v -> v | None -> 0");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "f"), "int option -> int");
}

TEST(InferOkTest, TupleBindingGeneralizes) {
  TypecheckResult R = check("let (f, g) = ((fun x -> x), (fun y -> y))\n"
                            "let a = f 1\nlet b = g \"s\"");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
}

//===----------------------------------------------------------------------===//
// Ill-typed programs: error kinds
//===----------------------------------------------------------------------===//

TEST(InferErrTest, UnboundValue) {
  std::string Src = "let x = missing + 1";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::Unbound);
  EXPECT_EQ(R.Error->Name, "missing");
  EXPECT_EQ(blamed(Src, R), "missing");
}

TEST(InferErrTest, SimpleMismatch) {
  std::string Src = "let x = 1 + \"two\"";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::Mismatch);
  EXPECT_EQ(blamed(Src, R), "\"two\"");
  EXPECT_EQ(R.Error->ActualType, "string");
  EXPECT_EQ(R.Error->ExpectedType, "int");
}

TEST(InferErrTest, NotAFunction) {
  std::string Src = "let x = 3 4";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::NotFunction);
}

TEST(InferErrTest, TooManyArguments) {
  std::string Src = "let f x = x + 1\nlet y = f 1 2";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::TooManyArgs);
}

TEST(InferErrTest, BranchMismatchBlamesSecondBranch) {
  std::string Src = "let x = if true then 1 else \"s\"";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(blamed(Src, R), "\"s\"");
}

TEST(InferErrTest, MatchArmMismatchBlamesLaterArm) {
  std::string Src = "let f x = match x with 0 -> 1 | _ -> \"s\"";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(blamed(Src, R), "\"s\"");
}

TEST(InferErrTest, PatternMismatch) {
  std::string Src = "let f x = match x with 0 -> 1 | \"s\" -> 2";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::PatternMismatch);
  EXPECT_EQ(blamed(Src, R), "\"s\"");
}

TEST(InferErrTest, UnboundConstructor) {
  TypecheckResult R = check("let x = Nope 3");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::Unbound);
}

TEST(InferErrTest, ConstructorArity) {
  TypecheckResult R = check("let x = Some");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::ConstructorArity);
}

TEST(InferErrTest, ImmutableFieldAssignment) {
  TypecheckResult R = check("type p = { x : int }\n"
                            "let f r = r.x <- 3");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::NotMutable);
}

TEST(InferErrTest, MissingRecordField) {
  TypecheckResult R = check("type p = { x : int; y : int }\n"
                            "let v = { x = 1 }");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::RecordShape);
}

TEST(InferErrTest, OccursCheck) {
  TypecheckResult R = check("let f x = x x");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::Cyclic);
}

TEST(InferErrTest, MissingRecMakesSelfCallUnbound) {
  TypecheckResult R =
      check("let len xs = match xs with [] -> 0 | _ :: t -> 1 + len t");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->TheKind, TypeError::Kind::Unbound);
  EXPECT_EQ(R.Error->Name, "len");
}

TEST(InferErrTest, FirstErrorWins) {
  // Two independent errors: only the first (textually reached) reports.
  std::string Src = "let x = 3 + true\nlet y = 4 + \"hi\"";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(blamed(Src, R), "true");
}

//===----------------------------------------------------------------------===//
// Paper blame behavior (Figures 2, 8, 9)
//===----------------------------------------------------------------------===//

TEST(InferPaperTest, Figure2BlamesXPlusY) {
  std::string Src =
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  // The checker must report the addition, not the tupled parameter: the
  // int result of x + y is used where the second curried argument type
  // 'a -> 'b is expected.
  EXPECT_EQ(blamed(Src, R), "x + y");
  EXPECT_EQ(R.Error->ActualType, "int");
  EXPECT_NE(R.Error->ExpectedType.find("->"), std::string::npos);
}

TEST(InferPaperTest, Figure2FixedVersionChecks) {
  TypecheckResult R = check(
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun x y -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n");
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->Message : "");
}

TEST(InferPaperTest, Figure8BlamesSwappedArgument) {
  std::string Src = "let add str lst = if List.mem str lst then lst\n"
                    "                  else str :: lst\n"
                    "let vList1 = [\"a\"; \"b\"]\n"
                    "let s = \"c\"\n"
                    "let out = add vList1 s\n";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  // Blame lands on `s` with the bewildering nested list type.
  EXPECT_EQ(blamed(Src, R), "s");
  EXPECT_EQ(R.Error->ActualType, "string");
  EXPECT_EQ(R.Error->ExpectedType, "string list list");
}

TEST(InferPaperTest, Figure9BlamesCallResultNotMissingArg) {
  std::string Src =
      "type move = For of int * move list | Stop\n"
      "let rec loop movelist acc =\n"
      "  match movelist with\n"
      "    [] -> acc\n"
      "  | For (moves, lst) :: tl ->\n"
      "      let rec finalLst index searchLst =\n"
      "        if index = moves - 1 then []\n"
      "        else (List.nth searchLst) :: finalLst (index + 1) searchLst\n"
      "      in loop (finalLst 0 lst) acc\n"
      "  | Stop :: tl -> loop tl acc\n";
  TypecheckResult R = check(Src);
  ASSERT_FALSE(R.ok());
  // The partial application inside finalLst is NOT an error; the checker
  // only notices at the outer call where a move list is required.
  EXPECT_EQ(blamed(Src, R), "(finalLst 0 lst)");
  EXPECT_NE(R.Error->ActualType.find("int -> move"), std::string::npos)
      << R.Error->ActualType;
}

TEST(InferPaperTest, QueryNodeReportsType) {
  Program P = parse("let f = fun x y -> x + y");
  TypecheckOptions Opts;
  Opts.QueryNode = P.Decls[0]->Rhs.get();
  TypecheckResult R = typecheckProgram(P, Opts);
  ASSERT_TRUE(R.ok());
  ASSERT_TRUE(R.QueriedType.has_value());
  EXPECT_EQ(*R.QueriedType, "int -> int -> int");
}

//===----------------------------------------------------------------------===//
// Property-style sweeps
//===----------------------------------------------------------------------===//

struct WellTypedCase {
  const char *Source;
};

class WellTypedSweep : public ::testing::TestWithParam<const char *> {};

TEST_P(WellTypedSweep, Typechecks) {
  TypecheckResult R = check(GetParam());
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->Message : "") << "\n"
                      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Programs, WellTypedSweep,
    ::testing::Values(
        "let compose f g x = f (g x)",
        "let twice f x = f (f x)",
        "let rec fact n = if n = 0 then 1 else n * fact (n - 1)",
        "let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)",
        "let rec map f xs = match xs with [] -> [] | x :: t -> f x :: map f t",
        "let rec append a b = match a with [] -> b | x :: t -> x :: append t b",
        "let swap (a, b) = (b, a)",
        "let curry f a b = f (a, b)",
        "let uncurry f (a, b) = f a b",
        "let apply_all fs x = List.map (fun f -> f x) fs",
        "let sum xs = List.fold_left (fun a b -> a + b) 0 xs",
        "let join xs = String.concat \", \" xs",
        "let count = ref 0\nlet tick () = count := !count + 1",
        "let rec even n = if n = 0 then true else not (even (n - 1))",
        "type color = Red | Green | Blue\n"
        "let show c = match c with Red -> \"r\" | Green -> \"g\" | Blue -> \"b\"",
        "let pairs = List.combine [1; 2] [true; false]",
        "let firsts xs = List.map fst xs",
        "let safe_hd xs = match xs with [] -> None | x :: _ -> Some x"));

class IllTypedSweep : public ::testing::TestWithParam<const char *> {};

TEST_P(IllTypedSweep, FailsToTypecheck) {
  TypecheckResult R = check(GetParam());
  EXPECT_FALSE(R.ok()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Programs, IllTypedSweep,
    ::testing::Values(
        "let x = 1 + true",
        "let x = \"a\" ^ 1",
        "let x = [1; \"two\"]",
        "let x = (fun (a, b) -> a + b) 1 2",
        "let x = (fun a b -> a + b) (1, 2)",
        "let f g = g 1 && g \"s\"", // needs rank-2 polymorphism
        "let x = if 1 then 2 else 3",
        "let x = match [1] with [] -> 0 | x :: _ -> x ^ \"\"",
        "let x = List.map 3 [1]",
        "let x = List.nth 0 [1]",
        "let x = 1 :: 2",
        "let x = [1] @ [\"s\"]",
        "let x = !3",
        "let x = not 1",
        "let x = Some 1 = Some \"s\"",
        "let f x = x.nofield"));

} // namespace
