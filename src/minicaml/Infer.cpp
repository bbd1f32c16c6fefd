//===- Infer.cpp - Hindley-Milner type inference implementation -----------==//

#include "minicaml/Infer.h"

#include "analysis/Provenance.h"
#include "minicaml/Parser.h"
#include "minicaml/Stdlib.h"
#include "minicaml/Types.h"
#include "minicaml/Unify.h"

#include <cassert>
#include <deque>
#include <map>
#include <string_view>
#include <tuple>
#include <unordered_map>

using namespace seminal;
using namespace seminal::caml;

namespace {

/// Information about one variant/exception constructor. Result and Arg
/// share generic variables and are instantiated together.
struct ConstrInfo {
  std::string TypeName;
  Type *Result = nullptr;
  Type *Arg = nullptr; ///< Null for nullary constructors.
};

/// Information about one record type. All field types share the record's
/// generic parameter variables.
struct RecordInfo {
  Type *RecordType = nullptr;
  struct Field {
    std::string Name;
    Type *Ty = nullptr;
    bool IsMutable = false;
  };
  std::vector<Field> Fields;

  const Field *findField(const std::string &Name) const {
    for (const auto &F : Fields)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
};

/// The whole-program inference context. One instance per oracle call for
/// one-shot checks; kept alive across calls by InferenceCheckpoint, which
/// pairs each incremental query with a TypeTrail rollback.
///
/// Every instance starts from the shared standard-library base (base()):
/// its own tables hold only what the program declares, and lookups fall
/// back to the base after them, so a program binding shadows a stdlib one
/// exactly as if both lived in one environment.
///
/// Inference allocates nothing per type: types come from the arena, the
/// trail and the substitution buffer are the instance's own and keep
/// their capacity from query to query, and constructors under
/// construction collect their arguments on the Pending stack.
class Inferencer {
public:
  Inferencer()
      : Base(&base()), Arena(Base->Arena.mark().NextVarId) {}

  TypecheckResult run(const Program &Prog, const TypecheckOptions &RunOpts);

  /// Infers the first \p Count declarations. \returns false if the prefix
  /// fails (the instance must then be discarded).
  bool runPrefix(const Program &Prog, unsigned Count);

  /// Type-checks \p D on top of the current environment, then rolls back
  /// every side effect (environment entries, arena allocations,
  /// unification links, level adjustments). Without \p Render a failure
  /// is reported by kind and span alone: no message is rendered.
  TypecheckResult checkAdditionalDecl(const Decl &D,
                                      const TypecheckOptions &RunOpts,
                                      bool Render);

  /// Commit-or-rollback: processes \p D permanently if it type-checks,
  /// restores the environment if it does not. A failure's message is
  /// rendered.
  TypecheckResult extendDecl(const Decl &D);

  /// Chunk bytes of this instance's type arena (the shared base's not
  /// included).
  size_t arenaBytes() const { return Arena.chunkBytes(); }

private:
  struct StdlibTag {};
  /// Builds the base itself: a standalone instance holding the stdlib.
  explicit Inferencer(StdlibTag) { loadStdlib(); }

  /// The standard-library environment every run starts from: the value
  /// schemes of stdlibValues(), the builtin type arities, option's
  /// constructors and the predefined exceptions. Built once per process
  /// and shared, read-only, by every instance on every thread. Sharing is
  /// sound because nothing writes to it: every use of a stdlib type goes
  /// through instantiate(), which copies generic variables instead of
  /// linking or re-levelling them and hands out only argument-less
  /// constructors uncopied (unification never writes a constructor). Run
  /// arenas number their variables after the base's, so no printed type
  /// can mistake two variables for one. Never destroyed: daemon threads
  /// may still be inferring at exit.
  static const Inferencer &base() {
    static const Inferencer *const Stdlib = new Inferencer(StdlibTag{});
    return *Stdlib;
  }

  // Environment -----------------------------------------------------------
  size_t envMark() const { return Env.size(); }
  void envRestore(size_t Mark) { Env.resize(Mark); }
  /// Binds \p Name, which views the program's syntax tree: bindings that
  /// outlive the declaration being inferred are re-pointed at the
  /// instance's own copies by ownBindings.
  void bind(std::string_view Name, Type *T) { Env.emplace_back(Name, T); }
  /// Copies the names of the bindings from \p Mark on into OwnedNames,
  /// so a committed environment aliases nothing of the program it was
  /// inferred from.
  void ownBindings(size_t Mark) {
    for (size_t I = Mark; I < Env.size(); ++I)
      Env[I].first = OwnedNames.emplace_back(Env[I].first);
  }
  Type *lookup(std::string_view Name) const {
    for (auto It = Env.rbegin(); It != Env.rend(); ++It)
      if (It->first == Name)
        return It->second;
    return Base ? Base->lookup(Name) : nullptr;
  }
  const ConstrInfo *findConstructor(const std::string &Name) const {
    auto It = Constructors.find(Name);
    if (It != Constructors.end())
      return &It->second;
    return Base ? Base->findConstructor(Name) : nullptr;
  }
  const int *findTypeArity(const std::string &Name) const {
    auto It = TypeArity.find(Name);
    if (It != TypeArity.end())
      return &It->second;
    return Base ? Base->findTypeArity(Name) : nullptr;
  }

  // Levels and schemes -----------------------------------------------------
  void enterLevel() { ++CurrentLevel; }
  void exitLevel() { --CurrentLevel; }

  /// Marks every variable above the current level generic.
  void generalize(Type *T) {
    T = prune(T);
    if (T->isVar()) {
      if (T->Level > CurrentLevel) {
        if (TypeTrail *Active = activeTypeTrail())
          Active->recordLevel(T, T->Level);
        T->Level = GenericLevel;
      }
      return;
    }
    for (Type *Arg : T->args())
      generalize(Arg);
  }

  /// One instantiation's generic-to-fresh substitution: the entries of
  /// the substitution buffer from the group's base on. Groups nest like
  /// the inference that opens them (an inner group's entries are dropped
  /// before the outer one adds more), so the outer group's entries stay
  /// contiguous, and instantiations sharing a group are consistent.
  class SubstGroup {
  public:
    explicit SubstGroup(Inferencer &Inf)
        : Inf(Inf), Base(Inf.Subst.size()) {}
    ~SubstGroup() { Inf.Subst.resize(Base); }
    SubstGroup(const SubstGroup &) = delete;
    SubstGroup &operator=(const SubstGroup &) = delete;

    Type *instantiate(Type *T) { return Inf.instantiate(T, Base); }

  private:
    Inferencer &Inf;
    size_t Base;
  };

  /// Copies \p T replacing generic variables with fresh ones, consistent
  /// with the substitutions from \p Group on.
  Type *instantiate(Type *T, size_t Group) {
    T = prune(T);
    if (T->isVar()) {
      if (T->Level != GenericLevel)
        return T;
      for (size_t I = Group; I < Subst.size(); ++I)
        if (Subst[I].first == T)
          return Subst[I].second;
      Type *Fresh = Arena.freshVar(CurrentLevel);
      Subst.emplace_back(T, Fresh);
      // The generic variable and its per-use copy are distinct objects;
      // without this edge the slicer could not connect a use site's clash
      // back to the constraints of the definition it instantiates.
      analysis::hookCopy(T, Fresh);
      return Fresh;
    }
    if (T->NumArgs == 0)
      return T;
    const size_t Top = Pending.size();
    for (Type *Arg : T->args())
      Pending.push_back(instantiate(Arg, Group));
    return conFromPending(T->Name, Top);
  }
  Type *instantiate(Type *T) { return SubstGroup(*this).instantiate(T); }

  /// A constructor whose arguments are the Pending entries from \p Top
  /// on, which it pops.
  Type *conFromPending(TypeName Name, size_t Top) {
    Type *T = Arena.con(Name, std::span<Type *const>(Pending).subspan(Top));
    Pending.resize(Top);
    return T;
  }

  // Error reporting ---------------------------------------------------------
  bool hasError() const { return ErrorOut.has_value(); }

  /// Records the first error's kind and span. \returns the error to fill
  /// in when messages are rendered, else null.
  TypeError *fail(TypeError::Kind K, const SourceSpan &Span) {
    if (hasError())
      return nullptr;
    TypeError &E = ErrorOut.emplace();
    E.TheKind = K;
    E.Span = Span;
    return RenderMessages ? &E : nullptr;
  }

  void reportMismatch(const SourceSpan &Span, Type *Actual, Type *Expected) {
    TypeError *E = fail(TypeError::Kind::Mismatch, Span);
    if (!E)
      return;
    std::tie(E->ActualType, E->ExpectedType) =
        typesToStrings(Actual, Expected);
    E->Message = "This expression has type " + E->ActualType +
                 " but is here used with type " + E->ExpectedType;
  }

  void reportPatternMismatch(const SourceSpan &Span, Type *Actual,
                             Type *Expected) {
    TypeError *E = fail(TypeError::Kind::PatternMismatch, Span);
    if (!E)
      return;
    std::tie(E->ActualType, E->ExpectedType) =
        typesToStrings(Actual, Expected);
    E->Message = "This pattern matches values of type " + E->ActualType +
                 " but a pattern was expected which matches values of type " +
                 E->ExpectedType;
  }

  /// Reports an error whose message \p RenderMessage builds, if messages
  /// are rendered at all.
  template <typename MessageFn>
  void report(TypeError::Kind K, const SourceSpan &Span,
              MessageFn &&RenderMessage,
              const std::string &Name = std::string()) {
    if (TypeError *E = fail(K, Span)) {
      E->Message = RenderMessage();
      E->Name = Name;
    }
  }

  /// Runs unify() but rolls back the partial bindings of a failed attempt
  /// before returning, so a diagnostic rendered afterwards shows the types
  /// as they were before the doomed constraint (the "destructive even on
  /// failure" sharp edge documented in Unify.h: unifying `'a * string`
  /// with `int * bool` must not leave `'a := int` behind in the message).
  /// With an enclosing trail the failed entries are popped off it; without
  /// one (a one-shot run) the instance's own trail captures just this
  /// attempt. Successful bindings are kept either way.
  UnifyResult unifyRollbackOnFailure(Type *Actual, Type *Expected) {
    if (TypeTrail *Outer = activeTypeTrail()) {
      const TypeTrail::Mark M = Outer->mark();
      UnifyResult R = unify(Actual, Expected);
      if (!R.Ok)
        Outer->undoTo(M);
      return R;
    }
    assert(Trail.empty() && "the inferencer's trail is in use");
    UnifyResult R;
    {
      TypeTrailScope Scope(Trail);
      R = unify(Actual, Expected);
    }
    if (R.Ok)
      Trail.clear();
    else
      Trail.undoAll();
    return R;
  }

  /// Unifies and converts a failure into a Mismatch at \p Span.
  bool unifyOrMismatch(const SourceSpan &Span, Type *Actual, Type *Expected) {
    if (hasError())
      return false;
    UnifyResult R = unifyRollbackOnFailure(Actual, Expected);
    if (R.Ok)
      return true;
    if (R.OccursCheckFailure) {
      report(TypeError::Kind::Cyclic, Span,
             [] { return std::string("This expression has a cyclic type"); });
      return false;
    }
    reportMismatch(Span, Actual, Expected);
    return false;
  }

  // Type-expression conversion ---------------------------------------------
  Type *convertTypeExpr(const TypeExpr &TE,
                        std::map<std::string, Type *> &VarMap,
                        bool AutoBindVars, const SourceSpan &Span);

  // Declarations -------------------------------------------------------------
  /// Fills this instance's tables with the stdlib; runs once, for base().
  void loadStdlib();
  /// \returns the type a Let declaration binds, else null.
  Type *processDecl(const Decl &D);
  void processTypeDecl(const Decl &D);
  void processExceptionDecl(const Decl &D);
  void processLetDecl(bool IsRec, const Pattern &Binding,
                      const std::vector<PatternPtr> &Params, const Expr &Rhs,
                      const SourceSpan &Span, Type **OutType);

  // Expressions and patterns -------------------------------------------------
  void checkExpr(const Expr &E, Type *Expected);
  void checkPattern(const Pattern &P, Type *Expected);
  Type *binOpType(const std::string &Op);
  Type *unaryOpType(const std::string &Op);

  // State ---------------------------------------------------------------------
  const TypecheckOptions *Opts = nullptr; ///< Options of the current run.
  const Inferencer *Base = nullptr; ///< The stdlib; null only in base().
  /// Constructor names this instance declares.
  TypeNames Names;
  TypeArena Arena;
  std::vector<std::pair<std::string_view, Type *>> Env;
  /// Copies of the committed bindings' names (see ownBindings).
  std::deque<std::string> OwnedNames;
  std::unordered_map<std::string, int> TypeArity;
  std::unordered_map<std::string, ConstrInfo> Constructors;
  std::unordered_map<std::string, std::string> FieldOwner;
  std::unordered_map<std::string, RecordInfo> Records;
  int CurrentLevel = 0;
  std::optional<TypeError> ErrorOut;
  /// False while answering a verdict-only query (see fail()).
  bool RenderMessages = true;
  Type *QueriedTy = nullptr;
  /// Records a checkpoint query's or extension's writes for rollback, and
  /// a one-shot run's failed unifications (unifyRollbackOnFailure).
  TypeTrail Trail;
  /// Generic-to-fresh pairs of the open instantiations (SubstGroup).
  std::vector<std::pair<Type *, Type *>> Subst;
  /// Arguments of the constructors being built, innermost last.
  std::vector<Type *> Pending;
};

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

void Inferencer::loadStdlib() {
  TypeArity = {{"int", 0},  {"bool", 0}, {"string", 0}, {"unit", 0},
               {"exn", 0},  {"list", 1}, {"ref", 1},    {"option", 1},
  };

  // The option type and its constructors.
  Type *OptParam = Arena.freshVar(GenericLevel);
  Type *OptType = Arena.con(tyname::Option, {OptParam});
  Constructors["None"] = ConstrInfo{"option", OptType, nullptr};
  Constructors["Some"] = ConstrInfo{"option", OptType, OptParam};

  for (const StdlibValue &V : stdlibValues()) {
    std::optional<ParseError> PE;
    TypeExprPtr TE = parseTypeSignature(V.TypeSig, PE);
    assert(TE && "malformed stdlib signature");
    std::map<std::string, Type *> VarMap;
    Type *T = convertTypeExpr(*TE, VarMap, /*AutoBindVars=*/true,
                              SourceSpan());
    assert(T && !hasError() && "stdlib signature failed to convert");
    // Signature variables are generic by construction (see convert).
    bind(V.Name, T);
  }

  for (const StdlibException &E : stdlibExceptions()) {
    ConstrInfo Info;
    Info.TypeName = "exn";
    Info.Result = Arena.exnType();
    if (!E.ArgTypeSig.empty()) {
      std::optional<ParseError> PE;
      TypeExprPtr TE = parseTypeSignature(E.ArgTypeSig, PE);
      assert(TE && "malformed stdlib exception signature");
      std::map<std::string, Type *> VarMap;
      Info.Arg = convertTypeExpr(*TE, VarMap, true, SourceSpan());
    }
    Constructors[E.Name] = std::move(Info);
  }
  // The base outlives the static tables the names come from.
  ownBindings(0);
}

Type *Inferencer::convertTypeExpr(const TypeExpr &TE,
                                  std::map<std::string, Type *> &VarMap,
                                  bool AutoBindVars, const SourceSpan &Span) {
  if (hasError())
    return Arena.freshVar(CurrentLevel);
  switch (TE.TheKind) {
  case TypeExpr::Kind::Var: {
    auto It = VarMap.find(TE.Name);
    if (It != VarMap.end())
      return It->second;
    if (!AutoBindVars) {
      report(
          TypeError::Kind::Unbound, Span,
          [&] { return "Unbound type parameter '" + TE.Name; }, TE.Name);
      return Arena.freshVar(CurrentLevel);
    }
    Type *Fresh = Arena.freshVar(GenericLevel);
    VarMap.emplace(TE.Name, Fresh);
    return Fresh;
  }
  case TypeExpr::Kind::Name: {
    const int *Arity = findTypeArity(TE.Name);
    if (!Arity) {
      report(
          TypeError::Kind::Unbound, Span,
          [&] { return "Unbound type constructor " + TE.Name; }, TE.Name);
      return Arena.freshVar(CurrentLevel);
    }
    if (int(TE.Args.size()) != *Arity) {
      report(
          TypeError::Kind::ConstructorArity, Span,
          [&] {
            return "The type constructor " + TE.Name + " expects " +
                   std::to_string(*Arity) + " argument(s)";
          },
          TE.Name);
      return Arena.freshVar(CurrentLevel);
    }
    const size_t Top = Pending.size();
    for (const auto &Arg : TE.Args)
      Pending.push_back(convertTypeExpr(*Arg, VarMap, AutoBindVars, Span));
    return conFromPending(Names.intern(TE.Name), Top);
  }
  case TypeExpr::Kind::Arrow: {
    Type *From = convertTypeExpr(*TE.Args[0], VarMap, AutoBindVars, Span);
    Type *To = convertTypeExpr(*TE.Args[1], VarMap, AutoBindVars, Span);
    return Arena.arrow(From, To);
  }
  case TypeExpr::Kind::Tuple: {
    const size_t Top = Pending.size();
    for (const auto &Arg : TE.Args)
      Pending.push_back(convertTypeExpr(*Arg, VarMap, AutoBindVars, Span));
    assert(TE.Args.size() >= 2 && "tuple type needs at least two components");
    return conFromPending(tyname::Tuple, Top);
  }
  }
  return Arena.freshVar(CurrentLevel);
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

void Inferencer::processTypeDecl(const Decl &D) {
  // Register the constructor first so recursive types work.
  TypeArity[D.TypeName] = int(D.TypeParams.size());

  std::map<std::string, Type *> VarMap;
  const size_t Top = Pending.size();
  for (const std::string &Param : D.TypeParams) {
    Type *V = Arena.freshVar(GenericLevel);
    VarMap.emplace(Param, V);
    Pending.push_back(V);
  }
  Type *Self = conFromPending(Names.intern(D.TypeName), Top);

  if (D.IsRecord) {
    RecordInfo Info;
    Info.RecordType = Self;
    for (const RecordFieldDecl &Field : D.Fields) {
      RecordInfo::Field F;
      F.Name = Field.Name;
      F.IsMutable = Field.IsMutable;
      F.Ty = convertTypeExpr(*Field.Type, VarMap, /*AutoBindVars=*/false,
                             D.Span);
      Info.Fields.push_back(F);
      FieldOwner[Field.Name] = D.TypeName;
    }
    Records[D.TypeName] = std::move(Info);
    return;
  }

  for (const VariantCase &Case : D.Cases) {
    ConstrInfo Info;
    Info.TypeName = D.TypeName;
    Info.Result = Self;
    if (Case.ArgType)
      Info.Arg = convertTypeExpr(*Case.ArgType, VarMap, false, D.Span);
    Constructors[Case.Name] = std::move(Info);
  }
}

void Inferencer::processExceptionDecl(const Decl &D) {
  ConstrInfo Info;
  Info.TypeName = "exn";
  Info.Result = Arena.exnType();
  if (D.ExcArgType) {
    std::map<std::string, Type *> VarMap;
    Info.Arg = convertTypeExpr(*D.ExcArgType, VarMap, false, D.Span);
  }
  Constructors[D.ExcName] = std::move(Info);
}

void Inferencer::processLetDecl(bool IsRec, const Pattern &Binding,
                                const std::vector<PatternPtr> &Params,
                                const Expr &Rhs, const SourceSpan &Span,
                                Type **OutType) {
  enterLevel();
  Type *RhsType = nullptr;

  if (!Params.empty()) {
    // Function sugar: let [rec] f p1 ... pn = rhs.
    assert(Binding.kind() == Pattern::Kind::Var &&
           "function sugar requires a variable binding");
    size_t Mark = envMark();
    Type *FnVar = nullptr;
    if (IsRec) {
      FnVar = Arena.freshVar(CurrentLevel);
      bind(Binding.Name, FnVar);
    }
    // The parameter types wait on the Pending stack (checkPattern leaves
    // it as it found it) until the body type closes the chain.
    const size_t Top = Pending.size();
    for (const auto &Param : Params) {
      Type *A = Arena.freshVar(CurrentLevel);
      checkPattern(*Param, A);
      Pending.push_back(A);
    }
    Type *BodyType = Arena.freshVar(CurrentLevel);
    Type *FnType = BodyType;
    while (Pending.size() > Top) {
      FnType = Arena.arrow(Pending.back(), FnType);
      Pending.pop_back();
    }
    if (FnVar)
      unifyOrMismatch(Span, FnVar, FnType);
    checkExpr(Rhs, BodyType);
    envRestore(Mark);
    RhsType = FnType;
  } else {
    Type *T = Arena.freshVar(CurrentLevel);
    size_t Mark = envMark();
    if (IsRec && Binding.kind() == Pattern::Kind::Var)
      bind(Binding.Name, T);
    checkExpr(Rhs, T);
    envRestore(Mark);
    RhsType = T;
  }

  exitLevel();
  if (hasError()) {
    *OutType = RhsType;
    return;
  }

  // Value restriction: generalize only syntactic values (function sugar
  // always yields a value).
  if (!Params.empty() || Rhs.isSyntacticValue())
    generalize(RhsType);
  checkPattern(Binding, RhsType);
  *OutType = RhsType;
}

Type *Inferencer::processDecl(const Decl &D) {
  analysis::ProvenanceNodeScope PNode(&D, analysis::ProvenanceNodeKind::Decl);
  switch (D.kind()) {
  case Decl::Kind::Type:
    processTypeDecl(D);
    return nullptr;
  case Decl::Kind::Exception:
    processExceptionDecl(D);
    return nullptr;
  case Decl::Kind::Let: {
    Type *T = nullptr;
    processLetDecl(D.IsRec, *D.Binding, D.Params, *D.Rhs, D.Span, &T);
    return T;
  }
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

void Inferencer::checkPattern(const Pattern &P, Type *Expected) {
  if (hasError())
    return;
  analysis::ProvenanceNodeScope PNode(&P, analysis::ProvenanceNodeKind::Pattern);
  switch (P.kind()) {
  case Pattern::Kind::Wild:
    return;
  case Pattern::Kind::Var:
    bind(P.Name, Expected);
    return;
  case Pattern::Kind::Int: {
    UnifyResult R = unify(Arena.intType(), Expected);
    if (!R.Ok)
      reportPatternMismatch(P.Span, Arena.intType(), Expected);
    return;
  }
  case Pattern::Kind::Bool: {
    UnifyResult R = unify(Arena.boolType(), Expected);
    if (!R.Ok)
      reportPatternMismatch(P.Span, Arena.boolType(), Expected);
    return;
  }
  case Pattern::Kind::String: {
    UnifyResult R = unify(Arena.stringType(), Expected);
    if (!R.Ok)
      reportPatternMismatch(P.Span, Arena.stringType(), Expected);
    return;
  }
  case Pattern::Kind::Unit: {
    UnifyResult R = unify(Arena.unitType(), Expected);
    if (!R.Ok)
      reportPatternMismatch(P.Span, Arena.unitType(), Expected);
    return;
  }
  case Pattern::Kind::Tuple: {
    const size_t Top = Pending.size();
    for (size_t I = 0; I < P.Elems.size(); ++I)
      Pending.push_back(Arena.freshVar(CurrentLevel));
    Type *TupleTy = conFromPending(tyname::Tuple, Top);
    UnifyResult R = unify(TupleTy, Expected);
    if (!R.Ok) {
      reportPatternMismatch(P.Span, TupleTy, Expected);
      return;
    }
    for (size_t I = 0; I < P.Elems.size(); ++I)
      checkPattern(*P.Elems[I], TupleTy->arg(I));
    return;
  }
  case Pattern::Kind::List: {
    Type *Elem = Arena.freshVar(CurrentLevel);
    Type *ListTy = Arena.listOf(Elem);
    UnifyResult R = unify(ListTy, Expected);
    if (!R.Ok) {
      reportPatternMismatch(P.Span, ListTy, Expected);
      return;
    }
    for (const auto &E : P.Elems)
      checkPattern(*E, Elem);
    return;
  }
  case Pattern::Kind::Cons: {
    Type *Elem = Arena.freshVar(CurrentLevel);
    Type *ListTy = Arena.listOf(Elem);
    UnifyResult R = unify(ListTy, Expected);
    if (!R.Ok) {
      reportPatternMismatch(P.Span, ListTy, Expected);
      return;
    }
    checkPattern(*P.Head, Elem);
    checkPattern(*P.Tail, ListTy);
    return;
  }
  case Pattern::Kind::Constr: {
    const ConstrInfo *Info = findConstructor(P.Name);
    if (!Info) {
      report(
          TypeError::Kind::Unbound, P.Span,
          [&] { return "Unbound constructor " + P.Name; }, P.Name);
      return;
    }
    SubstGroup Group(*this);
    Type *Result = Group.instantiate(Info->Result);
    Type *Arg = Info->Arg ? Group.instantiate(Info->Arg) : nullptr;
    if ((P.Arg != nullptr) != (Arg != nullptr)) {
      report(
          TypeError::Kind::ConstructorArity, P.Span,
          [&] {
            return "The constructor " + P.Name + " expects " +
                   (Arg ? "1 argument" : "0 arguments") +
                   ", but is applied here to " + (P.Arg ? "1" : "0");
          },
          P.Name);
      return;
    }
    // Rollback-on-failure: an instantiated constructor type can mix
    // generic and concrete parts, so a failed unify may leave sibling
    // bindings behind that would corrupt the rendered pattern type.
    UnifyResult R = unifyRollbackOnFailure(Result, Expected);
    if (!R.Ok) {
      reportPatternMismatch(P.Span, Result, Expected);
      return;
    }
    if (P.Arg)
      checkPattern(*P.Arg, Arg);
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Type *Inferencer::binOpType(const std::string &Op) {
  // Every operator's type has the shape a -> b -> result.
  auto Binary = [&](Type *A, Type *B, Type *Result) {
    return Arena.arrow(A, Arena.arrow(B, Result));
  };
  if (Op == "+" || Op == "-" || Op == "*" || Op == "/")
    return Binary(Arena.intType(), Arena.intType(), Arena.intType());
  if (Op == "=" || Op == "==" || Op == "<>" || Op == "<" || Op == ">" ||
      Op == "<=" || Op == ">=") {
    Type *A = Arena.freshVar(CurrentLevel);
    return Binary(A, A, Arena.boolType());
  }
  if (Op == "^")
    return Binary(Arena.stringType(), Arena.stringType(), Arena.stringType());
  if (Op == "@") {
    Type *L = Arena.listOf(Arena.freshVar(CurrentLevel));
    return Binary(L, L, L);
  }
  if (Op == "&&" || Op == "||")
    return Binary(Arena.boolType(), Arena.boolType(), Arena.boolType());
  if (Op == ":=") {
    Type *A = Arena.freshVar(CurrentLevel);
    return Binary(Arena.refOf(A), A, Arena.unitType());
  }
  assert(false && "unknown binary operator");
  return Arena.freshVar(CurrentLevel);
}

Type *Inferencer::unaryOpType(const std::string &Op) {
  if (Op == "not")
    return Arena.arrow(Arena.boolType(), Arena.boolType());
  if (Op == "-")
    return Arena.arrow(Arena.intType(), Arena.intType());
  if (Op == "!") {
    Type *A = Arena.freshVar(CurrentLevel);
    return Arena.arrow(Arena.refOf(A), A);
  }
  assert(false && "unknown unary operator");
  return Arena.freshVar(CurrentLevel);
}

void Inferencer::checkExpr(const Expr &E, Type *Expected) {
  if (hasError())
    return;
  analysis::ProvenanceNodeScope PNode(&E, analysis::ProvenanceNodeKind::Expr);
  switch (E.kind()) {
  case Expr::Kind::IntLit:
    unifyOrMismatch(E.Span, Arena.intType(), Expected);
    break;
  case Expr::Kind::BoolLit:
    unifyOrMismatch(E.Span, Arena.boolType(), Expected);
    break;
  case Expr::Kind::StringLit:
    unifyOrMismatch(E.Span, Arena.stringType(), Expected);
    break;
  case Expr::Kind::UnitLit:
    unifyOrMismatch(E.Span, Arena.unitType(), Expected);
    break;
  case Expr::Kind::Var: {
    Type *T = lookup(E.Name);
    if (!T) {
      report(
          TypeError::Kind::Unbound, E.Span,
          [&] { return "Unbound value " + E.Name; }, E.Name);
      break;
    }
    unifyOrMismatch(E.Span, instantiate(T), Expected);
    break;
  }
  case Expr::Kind::Wildcard:
    // [[...]] has every type; nothing to do.
    break;
  case Expr::Kind::Adapt: {
    // adapt e: e must be well-typed on its own, result unconstrained.
    Type *Inner = Arena.freshVar(CurrentLevel);
    checkExpr(*E.child(0), Inner);
    break;
  }
  case Expr::Kind::Fun: {
    size_t Mark = envMark();
    Type *Cur = Expected;
    bool Bad = false;
    for (const auto &Param : E.Params) {
      Type *A = Arena.freshVar(CurrentLevel);
      Type *B = Arena.freshVar(CurrentLevel);
      UnifyResult R = unify(Cur, Arena.arrow(A, B));
      if (!R.Ok) {
        // The function offers more arguments than its context accepts.
        Type *Offered = Arena.arrow(A, B);
        reportMismatch(E.Span, Offered, Cur);
        Bad = true;
        break;
      }
      checkPattern(*Param, A);
      Cur = B;
    }
    if (!Bad)
      checkExpr(*E.child(0), Cur);
    envRestore(Mark);
    break;
  }
  case Expr::Kind::App: {
    const Expr &Callee = *E.child(0);
    Type *FT = Arena.freshVar(CurrentLevel);
    checkExpr(Callee, FT);
    for (unsigned I = 1; I < E.numChildren() && !hasError(); ++I) {
      Type *A = Arena.freshVar(CurrentLevel);
      Type *B = Arena.freshVar(CurrentLevel);
      UnifyResult R = unify(FT, Arena.arrow(A, B));
      if (!R.Ok) {
        if (I == 1)
          report(TypeError::Kind::NotFunction, Callee.Span, [&] {
            return "This expression has type " + typesToStrings(FT, FT).first +
                   "; it is not a function and cannot be applied";
          });
        else
          report(TypeError::Kind::TooManyArgs, E.Span, [&] {
            return "This function is applied to too many arguments; its "
                   "type is " +
                   typesToStrings(FT, FT).first;
          });
        return;
      }
      checkExpr(*E.child(I), A);
      FT = B;
    }
    if (!hasError())
      unifyOrMismatch(E.Span, FT, Expected);
    break;
  }
  case Expr::Kind::Let: {
    size_t Mark = envMark();
    Type *T = nullptr;
    processLetDecl(E.IsRec, *E.Binding, E.Params, *E.child(0), E.Span, &T);
    if (!hasError())
      checkExpr(*E.child(1), Expected);
    envRestore(Mark);
    break;
  }
  case Expr::Kind::If: {
    checkExpr(*E.child(0), Arena.boolType());
    if (E.numChildren() == 2) {
      // if-without-else requires a unit branch and yields unit.
      checkExpr(*E.child(1), Arena.unitType());
      if (!hasError())
        unifyOrMismatch(E.Span, Arena.unitType(), Expected);
      break;
    }
    checkExpr(*E.child(1), Expected);
    checkExpr(*E.child(2), Expected);
    break;
  }
  case Expr::Kind::Tuple: {
    Type *P = prune(Expected);
    if (P->isCon(tyname::Tuple) && P->NumArgs == E.Children.size()) {
      for (unsigned I = 0; I < E.numChildren(); ++I)
        checkExpr(*E.child(I), P->arg(I));
      break;
    }
    const size_t Top = Pending.size();
    for (unsigned I = 0; I < E.numChildren(); ++I) {
      Type *T = Arena.freshVar(CurrentLevel);
      checkExpr(*E.child(I), T);
      Pending.push_back(T);
    }
    if (hasError()) {
      Pending.resize(Top);
      break;
    }
    unifyOrMismatch(E.Span, conFromPending(tyname::Tuple, Top), Expected);
    break;
  }
  case Expr::Kind::List: {
    Type *P = prune(Expected);
    Type *Elem = nullptr;
    if (P->isCon(tyname::List))
      Elem = P->arg(0);
    else {
      Elem = Arena.freshVar(CurrentLevel);
      if (!unifyOrMismatch(E.Span, Arena.listOf(Elem), Expected))
        break;
    }
    for (const auto &Child : E.Children)
      checkExpr(*Child, Elem);
    break;
  }
  case Expr::Kind::Cons: {
    Type *Elem = Arena.freshVar(CurrentLevel);
    Type *ListTy = Arena.listOf(Elem);
    if (!unifyOrMismatch(E.Span, ListTy, Expected))
      break;
    checkExpr(*E.child(0), Elem);
    checkExpr(*E.child(1), ListTy);
    break;
  }
  case Expr::Kind::BinOp: {
    Type *FT = binOpType(E.Name);
    // Shape: a -> b -> result. Check both operands against the domains.
    Type *ArgA = prune(FT)->arg(0);
    Type *Rest = prune(FT)->arg(1);
    checkExpr(*E.child(0), ArgA);
    if (hasError())
      break;
    Type *ArgB = prune(Rest)->arg(0);
    Type *Result = prune(Rest)->arg(1);
    checkExpr(*E.child(1), ArgB);
    if (hasError())
      break;
    unifyOrMismatch(E.Span, Result, Expected);
    break;
  }
  case Expr::Kind::UnaryOp: {
    Type *FT = unaryOpType(E.Name);
    checkExpr(*E.child(0), prune(FT)->arg(0));
    if (hasError())
      break;
    unifyOrMismatch(E.Span, prune(FT)->arg(1), Expected);
    break;
  }
  case Expr::Kind::Match: {
    Type *S = Arena.freshVar(CurrentLevel);
    checkExpr(*E.child(0), S);
    for (unsigned I = 1; I < E.numChildren() && !hasError(); ++I) {
      size_t Mark = envMark();
      checkPattern(*E.ArmPats[I - 1], S);
      if (!hasError())
        checkExpr(*E.child(I), Expected);
      envRestore(Mark);
    }
    break;
  }
  case Expr::Kind::Constr: {
    const ConstrInfo *Info = findConstructor(E.Name);
    if (!Info) {
      report(
          TypeError::Kind::Unbound, E.Span,
          [&] { return "Unbound constructor " + E.Name; }, E.Name);
      break;
    }
    SubstGroup Group(*this);
    Type *Result = Group.instantiate(Info->Result);
    Type *Arg = Info->Arg ? Group.instantiate(Info->Arg) : nullptr;
    bool HasArg = !E.Children.empty();
    if (HasArg != (Arg != nullptr)) {
      report(
          TypeError::Kind::ConstructorArity, E.Span,
          [&] {
            return "The constructor " + E.Name + " expects " +
                   (Arg ? "1 argument" : "0 arguments") +
                   ", but is applied here to " + (HasArg ? "1" : "0");
          },
          E.Name);
      break;
    }
    if (HasArg)
      checkExpr(*E.child(0), Arg);
    if (!hasError())
      unifyOrMismatch(E.Span, Result, Expected);
    break;
  }
  case Expr::Kind::Seq: {
    // OCaml only warns when the left operand is not unit; no constraint.
    Type *T = Arena.freshVar(CurrentLevel);
    checkExpr(*E.child(0), T);
    checkExpr(*E.child(1), Expected);
    break;
  }
  case Expr::Kind::Raise:
    checkExpr(*E.child(0), Arena.exnType());
    // `raise e` has type 'a: compatible with any expectation.
    break;
  case Expr::Kind::Field: {
    auto It = FieldOwner.find(E.Name);
    if (It == FieldOwner.end()) {
      report(
          TypeError::Kind::Unbound, E.Span,
          [&] { return "Unbound record field " + E.Name; }, E.Name);
      break;
    }
    const RecordInfo &Info = Records[It->second];
    SubstGroup Group(*this);
    Type *RecTy = Group.instantiate(Info.RecordType);
    Type *FieldTy = Group.instantiate(Info.findField(E.Name)->Ty);
    checkExpr(*E.child(0), RecTy);
    if (!hasError())
      unifyOrMismatch(E.Span, FieldTy, Expected);
    break;
  }
  case Expr::Kind::SetField: {
    auto It = FieldOwner.find(E.Name);
    if (It == FieldOwner.end()) {
      report(
          TypeError::Kind::Unbound, E.Span,
          [&] { return "Unbound record field " + E.Name; }, E.Name);
      break;
    }
    const RecordInfo &Info = Records[It->second];
    const RecordInfo::Field *Field = Info.findField(E.Name);
    if (!Field->IsMutable) {
      report(
          TypeError::Kind::NotMutable, E.Span,
          [&] { return "The record field " + E.Name + " is not mutable"; },
          E.Name);
      break;
    }
    SubstGroup Group(*this);
    Type *RecTy = Group.instantiate(Info.RecordType);
    Type *FieldTy = Group.instantiate(Field->Ty);
    checkExpr(*E.child(0), RecTy);
    checkExpr(*E.child(1), FieldTy);
    if (!hasError())
      unifyOrMismatch(E.Span, Arena.unitType(), Expected);
    break;
  }
  case Expr::Kind::Record: {
    assert(!E.FieldNames.empty() && "empty record literal");
    auto OwnerIt = FieldOwner.find(E.FieldNames[0]);
    if (OwnerIt == FieldOwner.end()) {
      report(
          TypeError::Kind::Unbound, E.Span,
          [&] { return "Unbound record field " + E.FieldNames[0]; },
          E.FieldNames[0]);
      break;
    }
    const RecordInfo &Info = Records[OwnerIt->second];
    // The field checks below open their own groups, each closed before
    // this one instantiates the next field type.
    SubstGroup Group(*this);
    Type *RecTy = Group.instantiate(Info.RecordType);
    // Every given field must belong; every declared field must be given.
    for (unsigned I = 0; I < E.numChildren() && !hasError(); ++I) {
      const RecordInfo::Field *Field = Info.findField(E.FieldNames[I]);
      if (!Field) {
        report(
            TypeError::Kind::RecordShape, E.Span,
            [&] {
              return "The record field " + E.FieldNames[I] +
                     " does not belong to type " + OwnerIt->second;
            },
            E.FieldNames[I]);
        break;
      }
      checkExpr(*E.child(I), Group.instantiate(Field->Ty));
    }
    if (hasError())
      break;
    for (const auto &Field : Info.Fields) {
      bool Given = false;
      for (const std::string &Name : E.FieldNames)
        if (Name == Field.Name)
          Given = true;
      if (!Given) {
        report(
            TypeError::Kind::RecordShape, E.Span,
            [&] { return "Some record fields are undefined: " + Field.Name; },
            Field.Name);
        return;
      }
    }
    unifyOrMismatch(E.Span, RecTy, Expected);
    break;
  }
  }

  if (Opts && &E == Opts->QueryNode && !hasError())
    QueriedTy = Expected;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

TypecheckResult Inferencer::run(const Program &Prog,
                                const TypecheckOptions &RunOpts) {
  Opts = &RunOpts;
  std::optional<unsigned> FailedAt;
  // The program outlives the run, so its binding names need no copies.
  std::vector<std::pair<const std::string *, Type *>> TopLevel;
  for (unsigned I = 0; I < Prog.Decls.size() && I < RunOpts.DeclLimit; ++I) {
    const Decl &D = *Prog.Decls[I];
    Type *T = processDecl(D);
    if (hasError()) {
      FailedAt = I;
      break;
    }
    if (T && D.Binding->kind() == Pattern::Kind::Var)
      TopLevel.emplace_back(&D.Binding->Name, T);
  }
  TypecheckResult Result;
  Result.Error = std::move(ErrorOut);
  Result.ErrorDeclIndex = FailedAt;
  if (Result.ok()) {
    for (const auto &[Name, T] : TopLevel)
      Result.TopLevelTypes.emplace_back(*Name, typeToString(T));
    if (QueriedTy)
      Result.QueriedType = typeToString(QueriedTy);
  }
  Result.TypesAllocated = Arena.numAllocated();
  Opts = nullptr;
  return Result;
}

bool Inferencer::runPrefix(const Program &Prog, unsigned Count) {
  assert(Count <= Prog.Decls.size() && "prefix longer than the program");
  TypecheckOptions None;
  Opts = &None;
  RenderMessages = false; // A failed prefix is only ever discarded.
  for (unsigned I = 0; I < Count && !hasError(); ++I) {
    const size_t Mark = envMark();
    processDecl(*Prog.Decls[I]);
    ownBindings(Mark);
  }
  RenderMessages = true;
  Opts = nullptr;
  return !hasError();
}

TypecheckResult Inferencer::checkAdditionalDecl(const Decl &D,
                                                const TypecheckOptions &RunOpts,
                                                bool Render) {
  assert(D.kind() == Decl::Kind::Let &&
         "only let declarations can be checked incrementally");
  assert(!hasError() && "checkpointed environment must be error-free");
  assert(Trail.empty() && "a query started with writes on the trail");

  const size_t EnvMark = Env.size();
  const TypeArena::Mark AMark = Arena.mark();
  const int LevelMark = CurrentLevel;

  TypecheckResult Result;
  {
    // Every link/level write inside this scope lands on the trail, so the
    // rollback below restores the shared environment exactly -- including
    // monomorphic top-level types (e.g. `let r = ref []`) that this
    // query's unifications may have specialized.
    TypeTrailScope Scope(Trail);
    Opts = &RunOpts;
    RenderMessages = Render;
    QueriedTy = nullptr;
    processDecl(D);
    Result.Error = std::move(ErrorOut);
    // Render any queried type before the rollback unbinds it.
    if (Result.ok() && QueriedTy)
      Result.QueriedType = typeToString(QueriedTy);
    Result.TypesAllocated = Arena.numAllocated() - AMark.Nodes;
    Opts = nullptr;
    RenderMessages = true;
    QueriedTy = nullptr;
    ErrorOut.reset();
  }
  assert(Subst.empty() && Pending.empty() && "an inference stack leaked");

  Trail.undoAll();
  Env.resize(EnvMark);
  Arena.rewindTo(AMark);
  CurrentLevel = LevelMark;
  return Result;
}

TypecheckResult Inferencer::extendDecl(const Decl &D) {
  assert(Trail.empty() && "an extension started with writes on the trail");
  const size_t EnvMark = Env.size();
  const TypeArena::Mark AMark = Arena.mark();
  const int LevelMark = CurrentLevel;

  TypecheckOptions None;
  TypecheckResult Result;
  {
    TypeTrailScope Scope(Trail);
    Opts = &None;
    QueriedTy = nullptr;
    processDecl(D);
    // A failure's message was rendered as it was found, before the
    // rollback below unbinds the types it names.
    Result.Error = std::move(ErrorOut);
    Result.TypesAllocated = Arena.numAllocated() - AMark.Nodes;
    Opts = nullptr;
    ErrorOut.reset();
  }
  if (Result.ok()) {
    // Commit: keep the bindings and links; the trail records are dropped.
    Trail.clear();
    ownBindings(EnvMark);
    return Result;
  }
  Trail.undoAll();
  Env.resize(EnvMark);
  Arena.rewindTo(AMark);
  CurrentLevel = LevelMark;
  return Result;
}

} // namespace

TypecheckResult caml::typecheckProgram(const Program &Prog,
                                       const TypecheckOptions &Opts) {
  Inferencer Inf;
  return Inf.run(Prog, Opts);
}

//===----------------------------------------------------------------------===//
// InferenceCheckpoint
//===----------------------------------------------------------------------===//

struct InferenceCheckpoint::Impl {
  Inferencer Inf;
};

InferenceCheckpoint::InferenceCheckpoint() = default;
InferenceCheckpoint::~InferenceCheckpoint() = default;

std::unique_ptr<InferenceCheckpoint>
InferenceCheckpoint::create(const Program &Prog, unsigned PrefixLen) {
  if (PrefixLen > Prog.Decls.size())
    return nullptr;
  // Incremental queries are Let-only; a prefix is fine with any kinds.
  auto CP = std::unique_ptr<InferenceCheckpoint>(new InferenceCheckpoint());
  CP->TheImpl = std::make_unique<Impl>();
  CP->PrefixLen = PrefixLen;
  if (!CP->TheImpl->Inf.runPrefix(Prog, PrefixLen))
    return nullptr;
  return CP;
}

TypecheckResult InferenceCheckpoint::checkDecl(const Decl &D,
                                               const TypecheckOptions &Opts) {
  return TheImpl->Inf.checkAdditionalDecl(D, Opts, /*Render=*/true);
}

TypecheckResult InferenceCheckpoint::queryDecl(const Decl &D,
                                               const Expr *QueryNode) {
  TypecheckOptions Opts;
  Opts.QueryNode = QueryNode;
  return TheImpl->Inf.checkAdditionalDecl(D, Opts, /*Render=*/false);
}

size_t InferenceCheckpoint::arenaBytes() const {
  return TheImpl->Inf.arenaBytes();
}

TypecheckResult InferenceCheckpoint::extendWith(const Decl &D) {
  TypecheckResult R = TheImpl->Inf.extendDecl(D);
  if (R.ok())
    ++PrefixLen;
  return R;
}
