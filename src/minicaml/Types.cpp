//===- Types.cpp - Mini-Caml semantic types implementation ----------------==//

#include "minicaml/Types.h"

#include "analysis/Provenance.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <map>

#if defined(__SANITIZE_ADDRESS__)
#define SEMINAL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SEMINAL_ASAN 1
#endif
#endif
#ifdef SEMINAL_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace seminal;
using namespace seminal::caml;

namespace {
thread_local TypeTrail *ActiveTrail = nullptr;

constexpr TypeName BuiltinNames[] = {
    tyname::Arrow, tyname::Tuple, tyname::Int,  tyname::Bool,
    tyname::String, tyname::Unit, tyname::Exn,  tyname::List,
    tyname::Ref,   tyname::Option,
};

/// The first chunk holds a few dozen nodes, so a small checkpoint stays
/// small; later chunks double up to the cap.
constexpr size_t FirstChunkBytes = 1024;
constexpr size_t MaxChunkBytes = 64 * 1024;

static_assert(alignof(Type) == alignof(Type *),
              "a node and its arguments share one alignment");
} // namespace

TypeName TypeNames::find(const std::string &Name) const {
  for (TypeName B : BuiltinNames)
    if (Name == B)
      return B;
  auto It = Own.find(Name);
  return It == Own.end() ? nullptr : It->c_str();
}

TypeName TypeNames::intern(const std::string &Name) {
  if (TypeName N = find(Name))
    return N;
  return Own.insert(Name).first->c_str();
}

TypeTrail *caml::activeTypeTrail() { return ActiveTrail; }

TypeTrailScope::TypeTrailScope(TypeTrail &Trail) : Prev(ActiveTrail) {
  ActiveTrail = &Trail;
}

TypeTrailScope::~TypeTrailScope() { ActiveTrail = Prev; }

void TypeTrail::undoAll() { undoTo(Mark{}); }

void TypeTrail::undoTo(const Mark &M) {
  assert(M.Links <= Links.size() && M.Levels <= Levels.size() &&
         "trail mark is ahead of the trail");
  while (Links.size() > M.Links) {
    Links.back().first->Link = Links.back().second;
    Links.pop_back();
  }
  while (Levels.size() > M.Levels) {
    Levels.back().first->Level = Levels.back().second;
    Levels.pop_back();
  }
}

TypeArena::~TypeArena() {
  // Hand the chunks back to the allocator the way it gave them out.
  for (Chunk &C : Chunks)
    unpoison(C.Mem.get(), C.Size);
}

void TypeArena::poison(std::byte *P, size_t Bytes) {
#ifdef SEMINAL_ASAN
  ASAN_POISON_MEMORY_REGION(P, Bytes);
#else
  (void)P;
  (void)Bytes;
#endif
}

void TypeArena::unpoison(std::byte *P, size_t Bytes) {
#ifdef SEMINAL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(P, Bytes);
#else
  (void)P;
  (void)Bytes;
#endif
}

void TypeArena::nextChunk(size_t Bytes) {
  const size_t Next = Chunks.empty() ? 0 : Cur + 1;
  if (Next >= Chunks.size() || Chunks[Next].Size < Bytes) {
    size_t Size = Chunks.empty()
                      ? FirstChunkBytes
                      : std::min(Chunks[Cur].Size * 2, MaxChunkBytes);
    Size = std::max(Size, Bytes);
    Chunk C;
    C.Mem.reset(new std::byte[Size]);
    C.Size = Size;
    poison(C.Mem.get(), Size);
    Chunks.insert(Chunks.begin() + ptrdiff_t(Next), std::move(C));
  }
  Cur = Next;
  Used = 0;
}

void TypeArena::rewindTo(const Mark &M) {
  assert(M.Nodes <= Nodes && "rewind past the end of the arena");
  assert((M.Chunk < Cur || (M.Chunk == Cur && M.Used <= Used) ||
          Chunks.empty()) &&
         "rewind to a mark ahead of the cursor");
  if (!Chunks.empty()) {
    // Everything between the mark and the cursor becomes unaddressable
    // until it is handed out again.
    for (size_t I = M.Chunk; I <= Cur; ++I) {
      const size_t From = I == M.Chunk ? M.Used : 0;
      poison(Chunks[I].Mem.get() + From, Chunks[I].Size - From);
    }
    Cur = M.Chunk;
    Used = M.Used;
  }
  Nodes = M.Nodes;
  NextVarId = M.NextVarId;
}

Type *TypeArena::freshVar(int Level) {
  Type *T = new (allocate(sizeof(Type))) Type();
  T->TheKind = Type::Kind::Var;
  T->VarId = NextVarId++;
  T->Level = Level;
  ++Nodes;
  analysis::hookAlloc(T);
  return T;
}

Type *TypeArena::con(TypeName Name, std::span<Type *const> Args) {
  assert(Name && "constructor without a name");
  // The node and its arguments are one allocation, the arguments right
  // after the node (where Type::args() finds them).
  static_assert(sizeof(Type) % alignof(Type *) == 0);
  std::byte *P = static_cast<std::byte *>(
      allocate(sizeof(Type) + Args.size() * sizeof(Type *)));
  Type *T = new (P) Type();
  T->TheKind = Type::Kind::Con;
  T->Name = Name;
  T->NumArgs = uint32_t(Args.size());
  std::copy(Args.begin(), Args.end(),
            reinterpret_cast<Type **>(P + sizeof(Type)));
  ++Nodes;
  analysis::hookAlloc(T);
  return T;
}

Type *caml::prune(Type *T) {
  assert(T && "prune of null type");
  if (T->TheKind != Type::Kind::Var || !T->Link)
    return T;
  Type *Rep = prune(T->Link);
  if (T->Link != Rep) {
    // Path compression rewrites an already-bound link; a rollback must
    // restore the original chain, because the old target may itself be
    // un-bound by the same rollback.
    if (TypeTrail *Trail = ActiveTrail)
      Trail->recordLink(T, T->Link);
    T->Link = Rep;
  }
  return Rep;
}

bool caml::occursAndAdjust(Type *Var, Type *T) {
  T = prune(T);
  if (T == Var)
    return true;
  if (T->isVar()) {
    if (T->Level > Var->Level && Var->Level != GenericLevel) {
      if (TypeTrail *Trail = ActiveTrail)
        Trail->recordLevel(T, T->Level);
      T->Level = Var->Level;
    }
    return false;
  }
  for (Type *Arg : T->args())
    if (occursAndAdjust(Var, Arg))
      return true;
  return false;
}

namespace {

/// Shared naming context so related types print consistent variables.
class TypePrinter {
public:
  std::string print(Type *T) { return printPrec(T, 0); }

private:
  // Precedence: 0 = arrow (lowest), 1 = tuple, 2 = application/atom.
  std::string printPrec(Type *T, int MinPrec) {
    T = prune(T);
    if (T->isVar()) {
      auto It = Names.find(T->VarId);
      if (It == Names.end()) {
        std::string Name = makeName(Names.size());
        It = Names.emplace(T->VarId, Name).first;
      }
      return "'" + It->second;
    }
    if (T->isArrow()) {
      std::string Text =
          printPrec(T->arg(0), 1) + " -> " + printPrec(T->arg(1), 0);
      return MinPrec > 0 ? "(" + Text + ")" : Text;
    }
    if (T->isCon(tyname::Tuple)) {
      std::vector<std::string> Parts;
      for (Type *Arg : T->args())
        Parts.push_back(printPrec(Arg, 2));
      std::string Text = join(Parts, " * ");
      return MinPrec > 1 ? "(" + Text + ")" : Text;
    }
    if (T->NumArgs == 0)
      return T->Name;
    if (T->NumArgs == 1)
      return printPrec(T->arg(0), 2) + " " + T->Name;
    std::vector<std::string> Parts;
    for (Type *Arg : T->args())
      Parts.push_back(printPrec(Arg, 0));
    return "(" + join(Parts, ", ") + ") " + T->Name;
  }

  static std::string makeName(size_t Index) {
    std::string Name(1, char('a' + Index % 26));
    if (Index >= 26)
      Name += std::to_string(Index / 26);
    return Name;
  }

  std::map<int, std::string> Names;
};

} // namespace

std::string caml::typeToString(Type *T) {
  TypePrinter Printer;
  return Printer.print(T);
}

std::pair<std::string, std::string> caml::typesToStrings(Type *A, Type *B) {
  TypePrinter Printer;
  std::string SA = Printer.print(A);
  std::string SB = Printer.print(B);
  return {SA, SB};
}
